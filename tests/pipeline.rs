//! End-to-end integration: trace generation → detailed simulation →
//! database → RM controllers → interval simulation, across crates.

use triad::phasedb::{build_apps, DbConfig};
use triad::rm::{ModelKind, RmKind};
use triad::sim::engine::{SimConfig, SimModel, Simulator};

fn db(names: &[&str]) -> triad::phasedb::PhaseDb {
    let apps: Vec<_> =
        triad::trace::suite().iter().filter(|a| names.contains(&a.name)).cloned().collect();
    assert_eq!(apps.len(), names.len(), "unknown application in {names:?}");
    build_apps(&apps, &DbConfig::fast())
}

fn quick(mut cfg: SimConfig) -> SimConfig {
    cfg.target_intervals = 8;
    cfg
}

#[test]
fn perfect_rm3_saves_energy_without_violations_end_to_end() {
    let names = ["mcf", "povray"];
    let db = db(&names);
    let idle = Simulator::new(&db, 2, quick(SimConfig::idle())).run(&names);
    let rm3 = Simulator::new(&db, 2, quick(SimConfig::perfect(RmKind::Rm3))).run(&names);
    assert!(rm3.savings_vs(&idle) > 0.0);
    assert_eq!(rm3.qos_violations, 0);
}

#[test]
fn controller_hierarchy_holds_under_perfect_model() {
    let names = ["libquantum", "mcf"];
    let db = db(&names);
    let idle = Simulator::new(&db, 2, quick(SimConfig::idle())).run(&names);
    let mut last = f64::NEG_INFINITY;
    for rm in [RmKind::Rm1, RmKind::Rm2, RmKind::Rm3] {
        let r = Simulator::new(&db, 2, quick(SimConfig::perfect(rm))).run(&names);
        let s = r.savings_vs(&idle);
        assert!(s >= last - 0.01, "{rm}: {s} must not fall below {last}");
        last = s;
    }
}

#[test]
fn online_models_run_all_controllers_on_four_cores() {
    let names = ["mcf", "libquantum", "gcc", "povray"];
    let db = db(&names);
    let idle = Simulator::new(&db, 4, quick(SimConfig::idle())).run(&names);
    for mk in ModelKind::ALL {
        let cfg = quick(SimConfig::evaluation(RmKind::Rm3, SimModel::Online(mk)));
        let r = Simulator::new(&db, 4, cfg).run(&names);
        assert!(r.rm_invocations > 0, "{mk}");
        assert!(
            r.savings_vs(&idle) > -0.10,
            "{mk} should not waste more than 10%: {}",
            r.savings_vs(&idle)
        );
    }
}

#[test]
fn simulation_is_deterministic_across_runs() {
    let names = ["gcc", "libquantum"];
    let db = db(&names);
    let cfg = quick(SimConfig::evaluation(RmKind::Rm3, SimModel::Online(ModelKind::Model3)));
    let a = Simulator::new(&db, 2, cfg.clone()).run(&names);
    let b = Simulator::new(&db, 2, cfg).run(&names);
    assert_eq!(a.total_energy_j, b.total_energy_j);
    assert_eq!(a.rm_ops, b.rm_ops);
}

#[test]
fn rm3full_downsizing_rarely_beats_rm3() {
    // The paper's §II remark: allowing the smallest core size adds little.
    // (Rm3Full may still differ; it must at least run and respect QoS
    // under the perfect model.)
    let names = ["povray", "gamess"];
    let db = db(&names);
    let r = Simulator::new(&db, 2, quick(SimConfig::perfect(RmKind::Rm3Full))).run(&names);
    assert_eq!(r.qos_violations, 0);
}
