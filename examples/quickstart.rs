//! Quickstart: resolve a small phase database through the content-addressed
//! store, run the proposed RM3 against the idle baseline on a 2-core
//! system, and report energy savings.
//!
//! Run with: `cargo run --release --example quickstart`
//!
//! The first run builds the database and persists it under
//! `target/phasedb/`; every later run loads it in milliseconds.

use triad::phasedb::{DbConfig, DbStore};
use triad::rm::ModelKind;
use triad::rm::RmKind;
use triad::sim::engine::{SimConfig, SimModel, Simulator};
use triad::workload::WorkloadSpec;

fn main() {
    // A cache-hungry application (mcf) next to a compute-bound one
    // (povray): the canonical Scenario-1 trade.
    let names = ["mcf", "povray"];
    // The suite is built once and borrowed; the database build takes an
    // owned subset.
    let apps: Vec<_> =
        triad::trace::suite().iter().filter(|a| names.contains(&a.name)).cloned().collect();
    println!("resolving the phase database for {:?}...", names);
    let resolved = DbStore::default_cache().resolve(&apps, &DbConfig::default());
    println!(
        "  {} ({})",
        if resolved.outcome.is_hit() { "cache hit" } else { "built and cached" },
        resolved.path.display()
    );
    let db = resolved.db;

    let idle = Simulator::new(&db, 2, SimConfig::idle()).run(&names);
    println!(
        "idle RM (baseline pinned): {:.2} J over {:.2} s",
        idle.total_energy_j, idle.sim_time_s
    );

    for rm in [RmKind::Rm1, RmKind::Rm2, RmKind::Rm3] {
        let cfg = SimConfig::evaluation(rm, SimModel::Online(ModelKind::Model3));
        let r = Simulator::new(&db, 2, cfg).run(&names);
        println!(
            "{}: {:.2} J -> {:.1}% savings ({} RM invocations, QoS violations {}/{})",
            rm.label(),
            r.total_energy_j,
            100.0 * r.savings_vs(&idle),
            r.rm_invocations,
            r.qos_violations,
            r.intervals_checked
        );
    }

    // Dynamic-workload variant: churn the same two-app pool mid-run (a new
    // app replaces the old one roughly every 12 intervals, cold-restarting
    // that core's phase position) and replay the materialized trace.
    let churn = WorkloadSpec::Churn {
        n_cores: 2,
        seed: 7,
        period: 12,
        horizon: 96,
        scenario: None,
        pool: names.iter().map(|s| s.to_string()).collect(),
    };
    let trace = churn.materialize().expect("churn spec materializes");
    let cfg = SimConfig::evaluation(RmKind::Rm3, SimModel::Online(ModelKind::Model3));
    let r = Simulator::new(&db, 2, cfg).run_trace(&trace);
    println!(
        "RM3 under churn ({} arrivals, fingerprint {}…): {:.2} J, QoS violations {}/{}",
        r.arrivals,
        &trace.fingerprint()[..12],
        r.total_energy_j,
        r.qos_violations,
        r.intervals_checked
    );
}
