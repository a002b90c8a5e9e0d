//! The campaign layer's determinism contract: the same specs against the
//! same database yield **byte-identical** JSON reports across repeated
//! runs and across worker-thread counts — the guard that the parallel
//! executor introduces no scheduling-dependent reductions — and the
//! database build itself is reproducible, so whole campaigns replay
//! bit-exactly from their (spec, seed) description.

use triad::phasedb::{build_apps, DbConfig, PhaseDb};
use triad::rm::{ModelKind, RmKind};
use triad::sim::engine::SimModel;
use triad::sim::{Campaign, ExperimentSpec};

fn db() -> PhaseDb {
    let names = ["mcf", "libquantum", "povray", "gcc"];
    let apps: Vec<_> =
        triad::trace::suite().iter().filter(|a| names.contains(&a.name)).cloned().collect();
    build_apps(&apps, &DbConfig::fast())
}

fn specs() -> Vec<ExperimentSpec> {
    let mut specs =
        vec![ExperimentSpec::new("idle", &["mcf", "povray"]).rm(None).target_intervals(6).seed(7)];
    for rm in RmKind::ALL {
        specs.push(
            ExperimentSpec::new(format!("{rm}/online",), &["mcf", "povray"])
                .rm(Some(rm))
                .model(SimModel::Online(ModelKind::Model3))
                .target_intervals(6)
                .seed(7),
        );
        specs.push(
            ExperimentSpec::new(format!("{rm}/perfect"), &["libquantum", "gcc"])
                .rm(Some(rm))
                .perfect()
                .target_intervals(6)
                .seed(7),
        );
    }
    specs
}

#[test]
fn same_spec_and_seed_yield_byte_identical_json() {
    let db = db();
    let first = Campaign::report(&Campaign::new(specs()).run(&db)).to_string_pretty();
    let second = Campaign::report(&Campaign::new(specs()).run(&db)).to_string_pretty();
    assert_eq!(first, second, "repeated runs must serialize byte-identically");

    // And the thread count must not leak into the results either.
    for threads in [1usize, 2, 3] {
        let run =
            Campaign::report(&Campaign::new(specs()).threads(threads).run(&db)).to_string_pretty();
        assert_eq!(first, run, "threads={threads} must match the default run");
    }
}

#[test]
fn database_build_is_reproducible_end_to_end() {
    // Rebuilding the database from the same specs reproduces the same
    // campaign bytes: the full pipeline (trace gen → cache classification
    // → timing model → campaign) is deterministic.
    let a = Campaign::report(&Campaign::new(specs()).run(&db())).to_string_pretty();
    let b = Campaign::report(&Campaign::new(specs()).run(&db())).to_string_pretty();
    assert_eq!(a, b);
}
