//! Regression test for presenter row alignment: when a spec list
//! contains duplicate specs and only one copy quarantines — exactly what
//! a `once`/`every(N)`-trigger failpoint produces — [`run_campaign`] must
//! pair the surviving rows with the right spec slots. The alignment is
//! positional (the outcome names the spec index of every quarantined
//! entry); matching quarantined entries by spec *equality* would mark the
//! first equal copy as lost and shift the completed duplicate's row into
//! a later slot, pairing rows with the wrong workloads.

use triad_bench::reports::{run_campaign, RunOptions};
use triad_phasedb::{DbConfig, DbStore, PhaseDb};
use triad_sim::ExperimentSpec;
use triad_util::failpoint::{self, FaultKind, Trigger};

fn small_db() -> PhaseDb {
    let names = ["mcf", "povray"];
    let apps: Vec<_> =
        triad_trace::suite().iter().filter(|a| names.contains(&a.name)).cloned().collect();
    DbStore::default_cache().resolve(&apps, &DbConfig::fast()).db
}

#[test]
fn a_quarantined_duplicate_spec_does_not_shift_row_alignment() {
    let db = small_db();
    let dup = ExperimentSpec::new("dup", &["mcf", "povray"]).perfect().target_intervals(6);
    let other =
        ExperimentSpec::new("other", &["mcf", "povray"]).alpha(1.25).perfect().target_intervals(6);
    let specs = vec![dup.clone(), other, dup];

    // Serial execution + every(3): the *second* copy of the duplicate
    // spec (slot 2) — and only it — panics and quarantines.
    failpoint::configure("campaign.row", Trigger::EveryNth(3), FaultKind::Panic);
    let run = run_campaign(&db, specs, &RunOptions { threads: 1, ..RunOptions::default() });
    failpoint::clear_all();

    assert_eq!((run.rows.len(), run.quarantined.len()), (2, 1));
    let names: Vec<Option<&str>> =
        run.aligned.iter().map(|s| s.as_ref().map(|r| r.spec.name.as_str())).collect();
    assert_eq!(
        names,
        [Some("dup"), Some("other"), None],
        "the completed first copy must keep its slot; only the faulted copy is None"
    );
}
