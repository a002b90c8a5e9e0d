//! Brute-force property tests of the [`EnergyBackend`] contract over every
//! in-tree backend: finite nonnegative power everywhere on the
//! `(c, vf, util)` grid, power (and therefore fixed-window energy)
//! monotone in the operating point at fixed utilization, monotone in
//! utilization at a fixed operating point, and consistent `dyn_ratio`
//! algebra. Backends are constructed the same way production code gets
//! them — through [`EnergyBackendConfig::build`] — so the configs' build
//! paths are covered too.

use triad_arch::{CoreSize, DvfsGrid, VfPoint};
use triad_energy::{EnergyBackend, EnergyBackendConfig, EnergyModel, TableBackend};

/// A measured-style table that is *not* a resample of the parametric
/// model: hand-wobbled powers, still monotone in frequency per size.
/// Written to a path unique to the calling test (`tag`), so tests running
/// in parallel never read each other's files.
fn wobbly_table_json_path(tag: &str) -> String {
    let grid = DvfsGrid::table1();
    let mut t = TableBackend::sampled_from(&EnergyModel::default_model(), grid.points(), "wobbly");
    for (i, pts) in t.points.iter_mut().enumerate() {
        for (k, p) in pts.iter_mut().enumerate() {
            // Size- and point-dependent measurement "noise" that keeps the
            // per-size curves strictly increasing.
            let jitter = 1.0 + 0.03 * ((i + 1) as f64) * ((k % 3) as f64 - 1.0) * 0.2;
            p.dyn_w *= jitter;
            p.static_w *= 2.0 - jitter;
        }
        pts.sort_by(|a, b| a.freq_hz.total_cmp(&b.freq_hz));
    }
    let path = triad_util::fs::unique_temp_path(&format!("backend-properties-{tag}.json"));
    let path = path.to_str().unwrap().to_string();
    t.save(&path).unwrap();
    path
}

/// Every backend the workspace ships, built through its config.
fn all_backends(table_path: &str) -> Vec<Box<dyn EnergyBackend>> {
    let mut configs = vec![
        EnergyBackendConfig::Parametric,
        EnergyBackendConfig::Table { path: table_path.to_string() },
    ];
    for node in ["32nm", "22nm", "14nm", "7nm"] {
        configs.push(EnergyBackendConfig::Scaled { node: node.into() });
    }
    configs.iter().map(|c| c.build().unwrap()).collect()
}

fn utils() -> Vec<f64> {
    (0..=10).map(|i| i as f64 / 10.0).collect()
}

#[test]
fn power_is_finite_and_nonnegative_on_the_whole_grid() {
    let path = wobbly_table_json_path("finite");
    let grid = DvfsGrid::table1();
    for em in all_backends(&path) {
        for c in CoreSize::ALL {
            for (_, vf) in grid.iter() {
                for &u in &utils() {
                    for (what, v) in [
                        ("dynamic", em.core_dynamic_power(c, vf, u)),
                        ("static", em.core_static_power(c, vf)),
                        ("total", em.core_power(c, vf, u)),
                        ("energy", em.core_energy(c, vf, u, 1.5)),
                    ] {
                        assert!(
                            v.is_finite() && v >= 0.0,
                            "{}: {what} power must be finite and nonnegative at \
                             ({c:?}, {:.2} GHz, util {u}): {v}",
                            em.label(),
                            vf.freq_ghz()
                        );
                    }
                }
            }
        }
        assert!(em.dram_energy(1_000_000) >= 0.0, "{}", em.label());
        assert!(em.uncore_energy(8, 3.0) >= 0.0, "{}", em.label());
        assert!(em.dram_energy(0) == 0.0 && em.uncore_energy(8, 0.0) == 0.0);
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn energy_is_monotone_in_frequency_at_fixed_utilization() {
    // Raising the operating point (f and its paired V) at fixed utilization
    // must never reduce power — so energy over any fixed window is monotone
    // in frequency for every backend.
    let path = wobbly_table_json_path("freq");
    let grid = DvfsGrid::table1();
    for em in all_backends(&path) {
        for c in CoreSize::ALL {
            for &u in &utils() {
                let powers: Vec<f64> = grid.iter().map(|(_, vf)| em.core_power(c, vf, u)).collect();
                for w in powers.windows(2) {
                    assert!(
                        w[1] >= w[0] - 1e-15,
                        "{}: power must be nondecreasing in the VF point at \
                         ({c:?}, util {u}): {powers:?}",
                        em.label()
                    );
                }
                let window_energy: Vec<f64> =
                    grid.iter().map(|(_, vf)| em.core_energy(c, vf, u, 2.0)).collect();
                for w in window_energy.windows(2) {
                    assert!(w[1] >= w[0] - 1e-15, "{}", em.label());
                }
            }
        }
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn dynamic_power_is_monotone_in_utilization() {
    let path = wobbly_table_json_path("util");
    let grid = DvfsGrid::table1();
    for em in all_backends(&path) {
        for c in CoreSize::ALL {
            for (_, vf) in grid.iter() {
                let by_util: Vec<f64> =
                    utils().iter().map(|&u| em.core_dynamic_power(c, vf, u)).collect();
                for w in by_util.windows(2) {
                    assert!(
                        w[1] >= w[0] - 1e-15,
                        "{}: busier cores must not burn less: {by_util:?}",
                        em.label()
                    );
                }
                // Clamping: out-of-range utilization equals the boundary.
                assert_eq!(
                    em.core_dynamic_power(c, vf, 1.7),
                    em.core_dynamic_power(c, vf, 1.0),
                    "{}",
                    em.label()
                );
                assert_eq!(em.core_dynamic_power(c, vf, -0.3), em.core_dynamic_power(c, vf, 0.0));
            }
        }
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn dyn_ratio_is_a_consistent_group() {
    let path = wobbly_table_json_path("ratio");
    for em in all_backends(&path) {
        for a in CoreSize::ALL {
            assert!((em.dyn_ratio(a, a) - 1.0).abs() < 1e-12, "{}", em.label());
            for b in CoreSize::ALL {
                let ab = em.dyn_ratio(a, b);
                assert!(ab.is_finite() && ab > 0.0, "{}", em.label());
                assert!((ab * em.dyn_ratio(b, a) - 1.0).abs() < 1e-12, "{}", em.label());
                for c in CoreSize::ALL {
                    let via = em.dyn_ratio(a, c) * em.dyn_ratio(c, b);
                    assert!((ab - via).abs() < 1e-9, "{}: ratios must compose", em.label());
                }
            }
        }
        // Bigger cores switch more capacitance in every in-tree backend.
        assert!(em.dyn_ratio(CoreSize::L, CoreSize::S) > 1.0, "{}", em.label());
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn labels_are_unique_and_stable() {
    let path = wobbly_table_json_path("labels");
    let backends = all_backends(&path);
    let mut labels: Vec<String> = backends.iter().map(|b| b.label()).collect();
    assert!(labels.contains(&"mcpat".to_string()));
    assert!(labels.iter().any(|l| l.starts_with("table:")));
    assert!(labels.contains(&"scaled:7nm".to_string()));
    labels.sort();
    labels.dedup();
    assert_eq!(labels.len(), backends.len(), "backend labels must be unique");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn grid_off_points_stay_well_behaved() {
    // The RM only queries grid points, but backends must not blow up just
    // outside them (the table backend clamps; the analytic ones
    // extrapolate).
    let path = wobbly_table_json_path("off-grid");
    for em in all_backends(&path) {
        for c in CoreSize::ALL {
            for f_ghz in [0.75, 1.015, 2.125, 3.5] {
                let vf = VfPoint { freq_hz: f_ghz * 1e9, volt: DvfsGrid::voltage_for(f_ghz * 1e9) };
                let p = em.core_power(c, vf, 0.5);
                assert!(p.is_finite() && p >= 0.0, "{}: {f_ghz} GHz: {p}", em.label());
            }
        }
    }
    let _ = std::fs::remove_file(&path);
}
