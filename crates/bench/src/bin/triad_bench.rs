//! The `triad-bench` driver: every experiment behind one CLI.
//! See `triad_bench::cli` for flags.
fn main() -> std::process::ExitCode {
    triad_bench::cli::main()
}
