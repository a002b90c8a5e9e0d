//! # triad-bench — the campaign-driven experiment harness
//!
//! One CLI driver regenerates every table and figure of the paper:
//!
//! ```text
//! cargo run --release --bin triad-bench -- --experiment fig6 --cores 8 --json out.json
//! ```
//!
//! | experiment  | reproduces |
//! |-------------|------------|
//! | `table1`    | Table I — baseline configuration |
//! | `table2`    | Table II — application categories via the §IV-C criteria |
//! | `fig1`      | Fig. 1 — category-mix probabilities and scenarios |
//! | `fig2`      | Fig. 2 — two-core scenario savings (perfect models) |
//! | `fig6`      | Fig. 6 — RM1/RM2/RM3 savings on 4-/8-core workloads |
//! | `fig7`      | Fig. 7 — QoS-violation probability / expected value / σ |
//! | `fig8`      | Fig. 8 — violation-magnitude distribution |
//! | `fig9`      | Fig. 9 — RM3 savings under Model1/2/3 vs perfect |
//! | `overheads` | §III-E — RM algorithm operation counts and runtime |
//! | `custom`    | any ad-hoc workload/controller/model campaign spec |
//! | `energy-sweep`   | one workload rerun across every energy backend |
//! | `workload-sweep` | RM3 on every dynamic-workload kind per scenario |
//! | `churn`     | per-core multiprogramming with mid-run app replacement |
//!
//! Simulation-backed experiments expand into [`triad_sim::Campaign`] specs
//! and run in parallel with shared memoized idle baselines; `--json`
//! writes the canonical campaign report next to the figure summary.
//! `triad-bench --experiment <name>` (`-e`) is the only entry point; there
//! are no per-figure binaries.
//!
//! Plain-timing benches (`cargo bench -p triad-bench`): the RM-invocation
//! cost versus core count (the §III-E instruction-count measurement) and
//! the substrate throughputs (cache classification, timing simulation,
//! ATD+MLP monitor, global optimizer).

pub mod cli;
pub mod reports;

use triad_phasedb::{DbConfig, DbStore, PhaseDb, StoreOutcome};

/// Resolve a full-suite database through `store` with an explicit
/// configuration, reporting provenance and timing on stderr.
pub fn resolve_db(cfg: &DbConfig, store: &DbStore) -> PhaseDb {
    eprintln!("resolving the detailed-simulation database (all 27 apps)...");
    let t = std::time::Instant::now();
    let resolved = store.resolve_suite(cfg);
    let how = match resolved.outcome {
        StoreOutcome::Hit => "loaded from cache",
        StoreOutcome::Miss => "built and cached",
        StoreOutcome::CorruptRebuilt => "rebuilt (corrupt cache entry replaced)",
        StoreOutcome::ForcedRebuild => "rebuilt (--db-rebuild)",
    };
    eprintln!(
        "database ready in {:.3}s ({how}: {})",
        t.elapsed().as_secs_f64(),
        resolved.path.display()
    );
    resolved.db
}

/// Format a savings fraction as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:5.1}%", 100.0 * x)
}
