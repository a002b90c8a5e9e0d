//! # triad-energy — McPAT-style power and energy models
//!
//! The paper derives power numbers from McPAT (§IV-A) and models energy as
//! core energy (static + dynamic) plus DRAM access energy, treating other
//! components as constant (§III-D). McPAT itself is unavailable, so this
//! crate provides a parametric model with the same *structure* and
//! published-magnitude constants:
//!
//! * **dynamic core power** scales with `V²·f`, the core size (wider
//!   pipelines toggle superlinearly more capacitance) and the achieved
//!   utilization (a memory-stalled core clock-gates most of its logic);
//! * **static core power** scales with core size (leakage area) and supply
//!   voltage;
//! * **DRAM energy** is a fixed energy per line transfer;
//! * **uncore power** (LLC + NoC, the paper's "global" 2 GHz / 1 V domain)
//!   is a constant per-core-slice power, integrated until the end of the
//!   simulation (§IV-D).
//!
//! Only *relative* energies across `(c, f, w)` matter for the RM's decisions
//! and for the savings ratios the paper reports; the constants below put
//! cores in the 1–6 W range of McPAT results for this class of OoO designs.
//!
//! ## Pluggable backends
//!
//! The parametric model is one of several interchangeable accounting
//! models behind the [`EnergyBackend`] trait — the seam every consumer
//! (the RM's Eq. 4–5, the simulator's bookkeeping, the reports) goes
//! through:
//!
//! * [`EnergyModel`] — this crate's McPAT-parametric model (the default;
//!   bit-compatible with the pre-trait accounting);
//! * [`TableBackend`] — measured per-(core size, V/f) power tables with
//!   linear interpolation, loadable from canonical JSON;
//! * [`ScaledBackend`] — per-[`TechNode`] dynamic/leakage factors over the
//!   parametric base for technology-sensitivity sweeps.
//!
//! Experiment specs select one via the serializable
//! [`EnergyBackendConfig`]; see the trait docs for the contract every
//! implementation must uphold.

pub mod backend;
pub mod scaled;
pub mod table;

pub use backend::{EnergyBackend, EnergyBackendConfig};
pub use scaled::{ScaledBackend, TechNode};
pub use table::{TableBackend, TablePoint, TABLE_SCHEMA};

use triad_arch::{CoreSize, VfPoint};

/// Reference (baseline) operating point used to normalize the model:
/// 2 GHz / 1 V — Table I's baseline DVFS setting.
pub const REF_FREQ_HZ: f64 = 2.0e9;
/// Reference voltage, volts.
pub const REF_VOLT: f64 = 1.0;

/// Per-core-size power constants at the reference point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorePowerParams {
    /// Dynamic power at 2 GHz / 1 V and full utilization, watts.
    pub dyn_ref_w: f64,
    /// Static (leakage) power at 1 V, watts.
    pub static_ref_w: f64,
}

/// The full energy model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Power constants for S, M, L (indexed by [`CoreSize::index`]).
    pub core: [CorePowerParams; 3],
    /// Fraction of dynamic power that is utilization-independent (clocks,
    /// fetch): `P_dyn = dyn_ref · (floor + (1 − floor)·util) · V²f-scale`.
    pub dyn_floor: f64,
    /// Energy per DRAM line transfer (read or writeback), joules.
    pub dram_energy_per_access_j: f64,
    /// Uncore (LLC slice + NoC) power per core, watts — constant, on the
    /// global 2 GHz / 1 V domain.
    pub uncore_w_per_core: f64,
}

impl EnergyModel {
    /// Default constants (McPAT-magnitude, 32 nm-class OoO cores):
    /// S ≈ 1.4 W, M ≈ 2.8 W, L ≈ 5.5 W dynamic at the reference point (linear
    /// in width — the premise of §I's core-adaptation argument); leakage
    /// grows sublinearly with width (shared uncore-side structures), and
    /// clock gating leaves an 11 % floor of peak dynamic power when stalled
    /// (`dyn_floor = 0.11` — the value every published number in this
    /// repository was calibrated with; an earlier comment claimed 8 %, but
    /// the constant, not the prose, has always driven the results).
    pub const fn default_model() -> Self {
        EnergyModel {
            core: [
                CorePowerParams { dyn_ref_w: 1.40, static_ref_w: 0.42 },
                CorePowerParams { dyn_ref_w: 2.80, static_ref_w: 0.60 },
                CorePowerParams { dyn_ref_w: 5.50, static_ref_w: 0.82 },
            ],
            dyn_floor: 0.11,
            dram_energy_per_access_j: 20e-9,
            uncore_w_per_core: 0.30,
        }
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self::default_model()
    }
}

impl EnergyBackend for EnergyModel {
    fn label(&self) -> String {
        "mcpat".into()
    }

    /// Dynamic power scales with `V²f` and with the utilization-dependent
    /// activity factor above the clock-gating floor.
    fn core_dynamic_power(&self, c: CoreSize, vf: VfPoint, util: f64) -> f64 {
        let p = self.core[c.index()];
        let activity = self.dyn_floor + (1.0 - self.dyn_floor) * util.clamp(0.0, 1.0);
        p.dyn_ref_w * activity * (vf.volt / REF_VOLT).powi(2) * (vf.freq_hz / REF_FREQ_HZ)
    }

    /// Leakage ∝ V over the 0.8–1.25 V range.
    fn core_static_power(&self, c: CoreSize, vf: VfPoint) -> f64 {
        self.core[c.index()].static_ref_w * (vf.volt / REF_VOLT)
    }

    fn dram_energy_per_access_j(&self) -> f64 {
        self.dram_energy_per_access_j
    }

    fn uncore_w_per_core(&self) -> f64 {
        self.uncore_w_per_core
    }

    fn dyn_ratio(&self, target: CoreSize, current: CoreSize) -> f64 {
        self.core[target.index()].dyn_ref_w / self.core[current.index()].dyn_ref_w
    }
}

/// Time to drain the pipeline for a core resize (§III-E): the instruction
/// window must empty before ports/banks are gated, taking roughly
/// `ROB / IPC` cycles at the current frequency.
pub fn resize_drain_time_s(c: CoreSize, ipc: f64, freq_hz: f64) -> f64 {
    (c.rob() as f64 / ipc.max(0.1)) / freq_hz
}

#[cfg(test)]
mod tests {
    use super::*;
    use triad_arch::DvfsGrid;

    fn vf(f_ghz: f64) -> VfPoint {
        VfPoint { freq_hz: f_ghz * 1e9, volt: DvfsGrid::voltage_for(f_ghz * 1e9) }
    }

    #[test]
    fn reference_point_reproduces_constants() {
        let m = EnergyModel::default_model();
        let p = m.core_dynamic_power(CoreSize::M, vf(2.0), 1.0);
        assert!((p - m.core[1].dyn_ref_w).abs() < 1e-9);
        let s = m.core_static_power(CoreSize::M, vf(2.0));
        assert!((s - 0.60).abs() < 1e-9);
    }

    #[test]
    fn dynamic_power_scales_quadratically_with_voltage() {
        let m = EnergyModel::default_model();
        // Same frequency ratio cancels: compare explicit points.
        let lo = m.core_dynamic_power(CoreSize::M, vf(1.0), 1.0);
        let hi = m.core_dynamic_power(CoreSize::M, vf(3.25), 1.0);
        // (0.8² × 0.5) vs (1.25² × 1.625): ratio ≈ 7.93.
        let expected = (1.25f64.powi(2) * 1.625) / (0.8f64.powi(2) * 0.5);
        assert!((hi / lo - expected).abs() < 1e-9, "{}", hi / lo);
    }

    #[test]
    fn bigger_cores_burn_more_power() {
        let m = EnergyModel::default_model();
        let p: Vec<f64> = CoreSize::ALL.iter().map(|&c| m.core_power(c, vf(2.0), 0.8)).collect();
        assert!(p[0] < p[1] && p[1] < p[2], "{p:?}");
    }

    #[test]
    fn stalled_core_burns_less_dynamic_power() {
        let m = EnergyModel::default_model();
        let busy = m.core_dynamic_power(CoreSize::L, vf(2.0), 1.0);
        let stalled = m.core_dynamic_power(CoreSize::L, vf(2.0), 0.0);
        assert!((stalled / busy - m.dyn_floor).abs() < 1e-12);
    }

    #[test]
    fn quadratic_dvfs_cost_exceeds_linear_core_cost() {
        // The paper's motivating asymmetry (§I): compensating performance
        // with frequency costs quadratically; compensating with core size
        // costs roughly linearly. Energy per instruction at iso-throughput:
        // M at 3 GHz must beat... rather, L at 2 GHz should cost less power
        // than M pushed to the frequency giving the same dispatch slots.
        let m = EnergyModel::default_model();
        // M at 4 slots × 3.25 GHz ≈ 13 Gslot/s vs L at 8 slots × 1.75 GHz = 14.
        let m_pushed = m.core_power(CoreSize::M, vf(3.25), 0.9);
        let l_relaxed = m.core_power(CoreSize::L, vf(1.75), 0.45);
        assert!(
            l_relaxed < m_pushed,
            "wide-and-slow should beat narrow-and-fast: L={l_relaxed} M={m_pushed}"
        );
    }

    #[test]
    fn dram_and_uncore_energy_accounting() {
        let m = EnergyModel::default_model();
        assert!((m.dram_energy(1_000_000) - 0.02).abs() < 1e-12);
        assert!((m.uncore_energy(4, 2.0) - m.uncore_w_per_core * 4.0 * 2.0).abs() < 1e-12);
    }

    #[test]
    fn energy_is_power_times_time() {
        let m = EnergyModel::default_model();
        let p = m.core_power(CoreSize::S, vf(1.5), 0.5);
        assert!((m.core_energy(CoreSize::S, vf(1.5), 0.5, 3.0) - 3.0 * p).abs() < 1e-12);
    }

    #[test]
    fn resize_drain_is_submicrosecond() {
        // §III-E: "a few hundred cycles" — negligible vs 100M-instruction
        // intervals.
        let t = resize_drain_time_s(CoreSize::L, 2.0, 2.0e9);
        assert!(t < 1e-6, "{t}");
        assert!(t > 0.0);
    }

    #[test]
    fn utilization_is_clamped() {
        let m = EnergyModel::default_model();
        let a = m.core_dynamic_power(CoreSize::M, vf(2.0), 1.5);
        let b = m.core_dynamic_power(CoreSize::M, vf(2.0), 1.0);
        assert_eq!(a, b);
    }
}
