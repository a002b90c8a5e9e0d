//! Database record types and query interface.

use triad_arch::{CoreSize, VfPoint};
use triad_energy::EnergyBackend;
use triad_trace::AppSpec;

/// Smallest per-core LLC allocation stored (Table I: 2 ways).
pub const W_MIN: usize = 2;
/// Largest per-core LLC allocation stored (Table I: 16 ways).
pub const W_MAX: usize = 16;
/// Number of stored way allocations (15).
pub const NW: usize = W_MAX - W_MIN + 1;
/// Number of core sizes (3).
pub const NC: usize = CoreSize::COUNT;

/// Index into the `[c][w]` matrices.
#[inline]
pub fn cw(c: CoreSize, w: usize) -> usize {
    debug_assert!((W_MIN..=W_MAX).contains(&w));
    c.index() * NW + (w - W_MIN)
}

/// The statistics the online RM observes when its core runs one interval at
/// a given `(c, w)` setting: hardware performance counters plus the ATD and
/// the proposed MLP-monitor readouts. All values are normalized per
/// instruction so any interval length can be reconstructed.
#[derive(Debug, Clone)]
pub struct MonitorStats {
    /// Width-scalable compute cycles per instruction (Eq. 1's `T0 · f`).
    pub c0_cpi: f64,
    /// Branch-stall cycles per instruction.
    pub c_branch_cpi: f64,
    /// Cache-hit-stall cycles per instruction.
    pub c_cache_cpi: f64,
    /// DRAM stall seconds per instruction (Eq. 1's `Tmem`, frequency-
    /// independent).
    pub tmem_spi: f64,
    /// Measured average MLP over the interval (true overlap, as a hardware
    /// counter would report) — Model2's constant-MLP input.
    pub mlp_avg: f64,
    /// The proposed monitor's leading-miss estimates per instruction for
    /// every *(target core size, target allocation)* — Model3's input.
    /// Indexed by [`cw`].
    pub lm_pi: Vec<f64>,
    /// DRAM accesses per instruction at the *current* allocation (reads +
    /// store fills + writebacks) — Eq. 5's `MA`.
    pub ma_pi: f64,
}

/// Everything the database knows about one program phase.
#[derive(Debug, Clone)]
pub struct PhaseRecord {
    /// Ground-truth core cycles per instruction (`A` in `T = A/f + B`),
    /// indexed by [`cw`].
    pub a_cpi: Vec<f64>,
    /// Ground-truth frequency-independent seconds per instruction (`B`),
    /// indexed by [`cw`].
    pub b_spi: Vec<f64>,
    /// Monitor statistics as observed at each `(c, w)` current setting,
    /// indexed by [`cw`].
    pub monitor: Vec<MonitorStats>,
    /// ATD miss curve: LLC misses per instruction for allocations
    /// `w = 1..=16` (index `w − 1`). Loads and stores.
    pub miss_curve_pi: Vec<f64>,
    /// Load-only miss curve (same indexing): what the leading-loads theory
    /// says memory *stall* predictions should be based on — stores retire
    /// from the store buffer without stalling.
    pub load_miss_curve_pi: Vec<f64>,
    /// LLC accesses (loads + stores reaching the LLC) per instruction.
    pub llc_acc_pi: f64,
    /// Estimated fraction of misses that also cause a dirty writeback.
    pub wb_frac: f64,
    /// Ground-truth average MLP per `(c, w)` (diagnostics and Table II
    /// classification), indexed by [`cw`].
    pub true_mlp: Vec<f64>,
}

impl PhaseRecord {
    /// Ground-truth execution seconds per instruction at `(c, f, w)`.
    #[inline]
    pub fn tpi(&self, c: CoreSize, freq_hz: f64, w: usize) -> f64 {
        let i = cw(c, w);
        self.a_cpi[i] / freq_hz + self.b_spi[i]
    }

    /// Ground-truth IPC at `(c, f, w)`.
    pub fn ipc(&self, c: CoreSize, freq_hz: f64, w: usize) -> f64 {
        1.0 / (self.tpi(c, freq_hz, w) * freq_hz)
    }

    /// Ground-truth pipeline utilization (IPC over dispatch width).
    pub fn util(&self, c: CoreSize, freq_hz: f64, w: usize) -> f64 {
        self.ipc(c, freq_hz, w) / c.dispatch_width() as f64
    }

    /// LLC misses per instruction at allocation `w`.
    #[inline]
    pub fn misses_pi(&self, w: usize) -> f64 {
        self.miss_curve_pi[w - 1]
    }

    /// DRAM line transfers per instruction at allocation `w` (misses plus
    /// writebacks).
    #[inline]
    pub fn dram_accesses_pi(&self, w: usize) -> f64 {
        self.misses_pi(w) * (1.0 + self.wb_frac)
    }

    /// Ground-truth energy per instruction at `(c, vf, w)` under `em`:
    /// core power (with true utilization) over the true time, plus DRAM
    /// access energy. The record itself stores only microarchitectural
    /// ground truth — timing, utilization and access counts — so the same
    /// database serves every energy backend (and the store fingerprint is
    /// backend-independent).
    pub fn energy_pi(&self, c: CoreSize, vf: VfPoint, w: usize, em: &dyn EnergyBackend) -> f64 {
        let t = self.tpi(c, vf.freq_hz, w);
        let util = self.util(c, vf.freq_hz, w);
        em.core_power(c, vf, util) * t + em.dram_energy(1) * self.dram_accesses_pi(w)
    }

    /// Monitor statistics observed when running at `(c, w)`.
    #[inline]
    pub fn monitor_at(&self, c: CoreSize, w: usize) -> &MonitorStats {
        &self.monitor[cw(c, w)]
    }
}

/// One application's database entry: its spec plus one record per phase.
#[derive(Debug, Clone)]
pub struct AppDbEntry {
    /// The application model (phases, sequence, category).
    pub spec: AppSpec,
    /// One record per `spec.phases` entry.
    pub records: Vec<PhaseRecord>,
}

impl AppDbEntry {
    /// Weighted average of `f(record)` over the phase weights — the
    /// SimPoint-style whole-program estimate.
    pub fn weighted<F: Fn(&PhaseRecord) -> f64>(&self, f: F) -> f64 {
        self.spec.phase_weights().iter().zip(&self.records).map(|(w, r)| w * f(r)).sum()
    }
}

/// The full detailed-simulation database.
#[derive(Debug, Clone)]
pub struct PhaseDb {
    /// One entry per application, in build order.
    pub apps: Vec<AppDbEntry>,
}

impl PhaseDb {
    /// Look up an application by name.
    pub fn app(&self, name: &str) -> Option<&AppDbEntry> {
        self.apps.iter().find(|a| a.spec.name == name)
    }

    /// Look up an application by name, also returning its stable index in
    /// build order — a compact identity for callers that key caches by
    /// application (e.g. the simulator's per-run local-plan cache).
    pub fn app_entry(&self, name: &str) -> Option<(usize, &AppDbEntry)> {
        self.apps.iter().enumerate().find(|(_, a)| a.spec.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cw_indexing_is_dense_and_bijective() {
        let mut seen = [false; NC * NW];
        for c in CoreSize::ALL {
            for w in W_MIN..=W_MAX {
                let i = cw(c, w);
                assert!(!seen[i]);
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn tpi_fit_evaluates_correctly() {
        let mut r = PhaseRecord {
            a_cpi: vec![0.0; NC * NW],
            b_spi: vec![0.0; NC * NW],
            monitor: vec![],
            miss_curve_pi: vec![0.0; 16],
            load_miss_curve_pi: vec![0.0; 16],
            llc_acc_pi: 0.0,
            wb_frac: 0.25,
            true_mlp: vec![1.0; NC * NW],
        };
        let i = cw(CoreSize::M, 8);
        r.a_cpi[i] = 0.5; // cycles per instruction
        r.b_spi[i] = 1e-10; // seconds per instruction of memory time
        let t1 = r.tpi(CoreSize::M, 1.0e9, 8);
        let t2 = r.tpi(CoreSize::M, 2.0e9, 8);
        assert!((t1 - (0.5e-9 + 1e-10)).abs() < 1e-18);
        assert!((t2 - (0.25e-9 + 1e-10)).abs() < 1e-18);
        // IPC at 2 GHz: 1 / (tpi × f).
        assert!((r.ipc(CoreSize::M, 2.0e9, 8) - 1.0 / 0.7).abs() < 1e-9);
    }

    #[test]
    fn dram_accesses_include_writebacks() {
        let mut r = PhaseRecord {
            a_cpi: vec![0.0; NC * NW],
            b_spi: vec![0.0; NC * NW],
            monitor: vec![],
            miss_curve_pi: vec![0.0; 16],
            load_miss_curve_pi: vec![0.0; 16],
            llc_acc_pi: 0.1,
            wb_frac: 0.5,
            true_mlp: vec![1.0; NC * NW],
        };
        r.miss_curve_pi[7] = 0.01; // w=8
        assert!((r.dram_accesses_pi(8) - 0.015).abs() < 1e-15);
    }
}
