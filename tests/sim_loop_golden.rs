//! Byte-exact freeze of the simulator event loop across workload shapes.
//!
//! One campaign covers a 4-core static mix, churn, phased and bursty
//! traces (2–4 cores on the fast database), a bursty trace with
//! vacancy windows and a scaled trace whose arrivals cold-start at
//! non-zero phase offsets — each under the idle RM, RM3 with the perfect
//! model and RM3 with Model3. Rows are serialized in their journal form,
//! so arrivals, departures and vacancy energy are frozen alongside the
//! report fields. Any change to advance / complete / re-plan semantics
//! shows up as a byte diff against `golden/sim_loop.json`.

use triad::phasedb::{DbConfig, DbStore};
use triad::sim::{Campaign, CampaignRow, ExperimentSpec};
use triad::workload::{ArrivalProcess, EventKind, Scenario, Stage, WorkloadSpec};
use triad_util::json::Json;

const GOLDEN: &str = include_str!("golden/sim_loop.json");

fn workloads() -> Vec<(&'static str, ExperimentSpec)> {
    let dynamic = |name: &str, w: WorkloadSpec| {
        ExperimentSpec::for_workload_spec(name, w).expect("golden workloads materialize")
    };
    vec![
        ("static4", ExperimentSpec::new("static4", &["mcf", "libquantum", "povray", "gcc"])),
        (
            "churn",
            dynamic(
                "churn",
                WorkloadSpec::Churn {
                    n_cores: 2,
                    seed: 11,
                    period: 4,
                    horizon: 20,
                    scenario: None,
                    pool: vec![],
                },
            ),
        ),
        (
            "phased",
            dynamic(
                "phased",
                WorkloadSpec::Phased {
                    n_cores: 4,
                    seed: 12,
                    stages: vec![
                        Stage { scenario: Some(Scenario::S1), intervals: 8 },
                        Stage { scenario: Some(Scenario::S3), intervals: 8 },
                    ],
                },
            ),
        ),
        (
            "bursty",
            dynamic(
                "bursty",
                WorkloadSpec::Bursty {
                    n_cores: 3,
                    seed: 13,
                    arrival: ArrivalProcess::Mmpp { mean_gap: [6.0, 1.5], mean_dwell: [8.0, 4.0] },
                    mean_service: 5,
                    horizon: 24,
                    scenario: None,
                },
            ),
        ),
        (
            "scaled",
            dynamic("scaled", WorkloadSpec::Scaled { n_cores: 2, seed: 14, copies: 1, segment: 2 }),
        ),
    ]
}

fn specs() -> Vec<ExperimentSpec> {
    let mut specs = Vec::new();
    for (name, base) in workloads() {
        let base = base.target_intervals(4).seed(2020);
        let named =
            |s: ExperimentSpec, rm: &str| ExperimentSpec { name: format!("{name}/{rm}"), ..s };
        specs.push(named(base.clone().rm(None), "idle"));
        specs.push(named(base.clone().perfect(), "rm3-perfect"));
        specs.push(named(base, "rm3-model3"));
    }
    specs
}

fn report(rows: &[CampaignRow]) -> String {
    Json::obj()
        .set("schema", "triad-campaign/v1")
        .set("rows", Json::Arr(rows.iter().map(CampaignRow::to_journal_json).collect()))
        .to_string_pretty()
}

#[test]
fn sim_loop_rows_match_the_frozen_golden() {
    let campaign = Campaign::new(specs());
    // The golden must exercise the shapes it claims to freeze.
    let traces: Vec<_> = campaign.specs.iter().map(|s| s.workload_trace()).collect();
    assert!(
        traces.iter().any(|t| t.events.iter().any(|e| matches!(
            e.kind,
            EventKind::Arrive { phase_offset, .. } if phase_offset > 0
        ))),
        "some trace must cold-start at a non-zero phase offset"
    );
    let db = DbStore::default_cache().resolve(&campaign.required_apps(), &DbConfig::fast()).db;
    let rows = campaign.run(&db);
    assert!(
        rows.iter().any(|r| r.spec.name.starts_with("bursty/") && r.result.vacancy_energy_j > 0.0),
        "the bursty trace must open a vacancy window"
    );
    assert!(rows.iter().any(|r| r.result.departures > 0), "some trace must churn");
    assert_eq!(report(&rows), GOLDEN, "simulator event-loop rows drifted from the frozen golden");
}
