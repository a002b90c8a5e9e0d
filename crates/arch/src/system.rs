//! Whole-system configuration: core count, DVFS grid and cache geometry,
//! plus the paper's fixed QoS slack and RM invocation interval.

use crate::core_size::CoreSize;
use crate::dvfs::DvfsGrid;
use crate::geometry::CacheGeometry;
use crate::setting::Setting;

/// Identifier of a core (and of the application pinned to it — the paper's
/// workloads are multiprogrammed with one application per core).
pub type CoreId = usize;

/// QoS slack factor `α` from Eq. 3. The paper fixes it to 1 (no slack):
/// a target setting satisfies QoS iff its predicted execution time does not
/// exceed the predicted baseline time.
pub const QOS_ALPHA: f64 = 1.0;

/// Paper's RM invocation interval: 100 M instructions (§III-A).
pub const INTERVAL_INSTRUCTIONS: u64 = 100_000_000;

/// Static description of the managed multi-core system.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Number of cores (the paper evaluates 2, 4 and 8).
    pub n_cores: usize,
    /// Per-core DVFS grid.
    pub dvfs: DvfsGrid,
    /// Cache geometry (scales with `n_cores`).
    pub geometry: CacheGeometry,
}

impl SystemConfig {
    /// The paper's Table I system with `n_cores` cores.
    pub fn table1(n_cores: usize) -> Self {
        assert!(n_cores >= 2, "the partitioning problem needs at least two cores");
        SystemConfig { n_cores, dvfs: DvfsGrid::table1(), geometry: CacheGeometry::table1(n_cores) }
    }

    /// The baseline setting every core starts from and QoS is defined
    /// against: M-size core, 2 GHz / 1 V, 8 LLC ways (even distribution).
    pub fn baseline_setting(&self) -> Setting {
        Setting::new(CoreSize::BASELINE, self.dvfs.baseline, self.geometry.baseline_ways_per_core)
    }

    /// Inclusive per-core LLC way-allocation domain for this system.
    pub fn way_range(&self) -> std::ops::RangeInclusive<usize> {
        self.geometry.per_core_way_range(self.n_cores)
    }

    /// Number of per-core way-allocation choices.
    pub fn n_way_choices(&self) -> usize {
        self.geometry.allocations_per_core(self.n_cores)
    }

    /// Total LLC associativity `A` (the global constraint `Σ w_j = A`).
    pub fn total_ways(&self) -> usize {
        self.geometry.total_llc_ways()
    }

    /// Size of the per-core configuration space `|c| × |f| × |w|` assessed by
    /// the local optimizer each interval.
    pub fn config_space_per_core(&self) -> usize {
        CoreSize::COUNT * self.dvfs.len() * self.n_way_choices()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_setting_matches_table1() {
        let sys = SystemConfig::table1(4);
        let b = sys.baseline_setting();
        assert_eq!(b.core, CoreSize::M);
        assert_eq!(b.ways, 8);
        assert!((sys.dvfs.point(b.vf).freq_hz - 2.0e9).abs() < 1.0);
    }

    #[test]
    fn even_baseline_distribution_is_feasible() {
        for n in [2usize, 4, 8] {
            let sys = SystemConfig::table1(n);
            let b = sys.baseline_setting();
            // n cores × 8 ways each = total associativity.
            assert_eq!(b.ways * n, sys.total_ways());
            assert!(sys.way_range().contains(&b.ways));
        }
    }

    #[test]
    fn config_space_sizes() {
        // 4-core: 3 sizes × 10 VF × 15 ways = 450 candidate settings/core.
        let sys = SystemConfig::table1(4);
        assert_eq!(sys.config_space_per_core(), 3 * 10 * 15);
        // 2-core: ways limited to 2..=14 → 13 choices.
        let sys2 = SystemConfig::table1(2);
        assert_eq!(sys2.config_space_per_core(), 3 * 10 * 13);
    }

    #[test]
    #[should_panic(expected = "at least two cores")]
    fn rejects_single_core() {
        let _ = SystemConfig::table1(1);
    }

    #[test]
    fn interval_is_100m_instructions() {
        assert_eq!(INTERVAL_INSTRUCTIONS, 100_000_000);
    }
}
