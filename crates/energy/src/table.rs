//! The measured-power table backend: per-(core size, V/f) lookup with
//! linear interpolation in frequency.
//!
//! Where the parametric [`EnergyModel`] *derives* power
//! from `V²f` scaling laws, this backend *reads* it from a table of measured
//! operating points — the approach of measurement-driven energy studies
//! (e.g. Díaz Álvarez et al., per-access energy tables), and the natural
//! container for numbers taken from a power rail, a vendor datasheet or a
//! different McPAT run. Each core size carries a list of
//! `(freq_hz, dyn_w, static_w)` samples; queries interpolate linearly
//! between the two bracketing samples and clamp outside the measured range.
//! The measured dynamic power is the *full-utilization* draw at that
//! operating point (voltage effects are baked into the sample), scaled at
//! query time by the same clock-gating activity factor the parametric model
//! uses.
//!
//! Tables persist as canonical JSON (schema [`TABLE_SCHEMA`]) written and
//! parsed by `triad-util`'s canonical writer/parser, so a table file
//! round-trips bit-exactly and campaign reports referencing one stay
//! reproducible.

use crate::{EnergyBackend, EnergyModel, REF_FREQ_HZ};
use std::path::Path;
use triad_arch::{CoreSize, VfPoint};
use triad_util::failpoint::FailPoint;
use triad_util::fs::atomic_write;
use triad_util::json::{parse, Json};

/// Schema tag required of every persisted table file.
pub const TABLE_SCHEMA: &str = "triad-energy-table/v1";

/// Injected-fault site at the top of [`TableBackend::load`] — exercises
/// the campaign's energy-backend quarantine path without deleting table
/// files.
pub static TABLE_LOAD_FP: FailPoint = FailPoint::new("energy.table_load");

/// One measured operating point of one core size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TablePoint {
    /// Core clock frequency of the sample, Hz.
    pub freq_hz: f64,
    /// Measured dynamic power at full utilization, watts.
    pub dyn_w: f64,
    /// Measured static (leakage) power, watts.
    pub static_w: f64,
}

/// A measured-power energy backend.
#[derive(Debug, Clone, PartialEq)]
pub struct TableBackend {
    /// Identity recorded in reports (`"table:<origin>"`).
    pub origin: String,
    /// Measured samples per core size (indexed by [`CoreSize::index`]),
    /// each sorted by ascending frequency.
    pub points: [Vec<TablePoint>; 3],
    /// Fraction of dynamic power that is utilization-independent.
    pub dyn_floor: f64,
    /// Energy per DRAM line transfer, joules.
    pub dram_energy_per_access_j: f64,
    /// Uncore power per core, watts.
    pub uncore_w_per_core: f64,
}

/// Linear interpolation of `f(freq)` over sorted samples, clamped to the
/// measured range.
fn interp(points: &[TablePoint], freq_hz: f64, f: impl Fn(&TablePoint) -> f64) -> f64 {
    debug_assert!(!points.is_empty());
    if freq_hz <= points[0].freq_hz {
        return f(&points[0]);
    }
    if let Some(last) = points.last() {
        if freq_hz >= last.freq_hz {
            return f(last);
        }
    }
    // points is sorted and freq is strictly inside the range here.
    let hi = points.iter().position(|p| p.freq_hz >= freq_hz).unwrap();
    let (a, b) = (&points[hi - 1], &points[hi]);
    let t = (freq_hz - a.freq_hz) / (b.freq_hz - a.freq_hz);
    f(a) + t * (f(b) - f(a))
}

impl TableBackend {
    /// Validate invariants: at least one finite, nonnegative sample per
    /// size, strictly ascending in frequency, with nondecreasing dynamic
    /// and static power — the [`EnergyBackend`] contract requires
    /// `core_power` monotone in the operating point, and per-component
    /// monotonicity is the checkable sufficient condition for a table.
    pub fn validate(&self) -> Result<(), String> {
        for c in CoreSize::ALL {
            let pts = &self.points[c.index()];
            if pts.is_empty() {
                return Err(format!("table: no samples for core size {c:?}"));
            }
            for p in pts {
                let ok = p.freq_hz.is_finite()
                    && p.freq_hz > 0.0
                    && p.dyn_w.is_finite()
                    && p.dyn_w >= 0.0
                    && p.static_w.is_finite()
                    && p.static_w >= 0.0;
                if !ok {
                    return Err(format!("table: invalid sample {p:?} for core size {c:?}"));
                }
            }
            for w in pts.windows(2) {
                if w[1].freq_hz <= w[0].freq_hz {
                    return Err(format!(
                        "table: samples for core size {c:?} must be strictly ascending in \
                         frequency ({} Hz then {} Hz)",
                        w[0].freq_hz, w[1].freq_hz
                    ));
                }
                if w[1].dyn_w < w[0].dyn_w || w[1].static_w < w[0].static_w {
                    return Err(format!(
                        "table: power for core size {c:?} must be nondecreasing in frequency \
                         (raising V/f never reduces draw), but {:?} is followed by {:?}",
                        w[0], w[1]
                    ));
                }
            }
        }
        if !(self.dyn_floor.is_finite() && (0.0..=1.0).contains(&self.dyn_floor)) {
            return Err(format!("table: dyn_floor {} must lie in [0, 1]", self.dyn_floor));
        }
        for (name, v) in [
            ("dram_energy_per_access_j", self.dram_energy_per_access_j),
            ("uncore_w_per_core", self.uncore_w_per_core),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(format!("table: {name} {v} must be finite and nonnegative"));
            }
        }
        Ok(())
    }

    /// Sample a parametric model at the given operating points — a
    /// synthetic "measurement campaign" against the McPAT-style model,
    /// useful as a sweep reference and as a template for real tables.
    pub fn sampled_from(model: &EnergyModel, grid: &[VfPoint], origin: impl Into<String>) -> Self {
        let sample = |c: CoreSize| -> Vec<TablePoint> {
            grid.iter()
                .map(|&vf| TablePoint {
                    freq_hz: vf.freq_hz,
                    dyn_w: model.core_dynamic_power(c, vf, 1.0),
                    static_w: model.core_static_power(c, vf),
                })
                .collect()
        };
        TableBackend {
            origin: origin.into(),
            points: [sample(CoreSize::S), sample(CoreSize::M), sample(CoreSize::L)],
            dyn_floor: model.dyn_floor,
            dram_energy_per_access_j: model.dram_energy_per_access_j,
            uncore_w_per_core: model.uncore_w_per_core,
        }
    }

    /// Canonical JSON form (the file format `--energy-backend table:<path>`
    /// reads).
    pub fn to_json(&self) -> Json {
        let size = |c: CoreSize| {
            Json::Arr(
                self.points[c.index()]
                    .iter()
                    .map(|p| {
                        Json::obj()
                            .set("freq_hz", p.freq_hz)
                            .set("dyn_w", p.dyn_w)
                            .set("static_w", p.static_w)
                    })
                    .collect(),
            )
        };
        Json::obj()
            .set("schema", TABLE_SCHEMA)
            .set("dyn_floor", self.dyn_floor)
            .set("dram_energy_per_access_j", self.dram_energy_per_access_j)
            .set("uncore_w_per_core", self.uncore_w_per_core)
            .set(
                "points",
                Json::obj()
                    .set("S", size(CoreSize::S))
                    .set("M", size(CoreSize::M))
                    .set("L", size(CoreSize::L)),
            )
    }

    /// Inverse of [`TableBackend::to_json`], with full validation.
    /// `origin` becomes the backend's report identity.
    pub fn from_json(j: &Json, origin: impl Into<String>) -> Result<TableBackend, String> {
        match j.get("schema") {
            Some(Json::Str(s)) if s == TABLE_SCHEMA => {}
            other => {
                return Err(format!("table: expected schema {TABLE_SCHEMA:?}, found {other:?}"))
            }
        }
        let num = |key: &str| -> Result<f64, String> {
            match j.get(key) {
                Some(Json::Num(x)) => Ok(*x),
                Some(Json::Int(i)) => Ok(*i as f64),
                _ => Err(format!("table: missing numeric field {key:?}")),
            }
        };
        let points_obj = j.get("points").ok_or("table: missing field \"points\"")?;
        let size = |key: &str| -> Result<Vec<TablePoint>, String> {
            let Some(Json::Arr(items)) = points_obj.get(key) else {
                return Err(format!("table: points.{key} must be an array"));
            };
            items
                .iter()
                .map(|item| {
                    let field = |k: &str| match item.get(k) {
                        Some(Json::Num(x)) => Ok(*x),
                        Some(Json::Int(i)) => Ok(*i as f64),
                        _ => Err(format!("table: points.{key} entry missing numeric {k:?}")),
                    };
                    Ok(TablePoint {
                        freq_hz: field("freq_hz")?,
                        dyn_w: field("dyn_w")?,
                        static_w: field("static_w")?,
                    })
                })
                .collect()
        };
        let t = TableBackend {
            origin: origin.into(),
            points: [size("S")?, size("M")?, size("L")?],
            dyn_floor: num("dyn_floor")?,
            dram_energy_per_access_j: num("dram_energy_per_access_j")?,
            uncore_w_per_core: num("uncore_w_per_core")?,
        };
        t.validate()?;
        Ok(t)
    }

    /// Load a table from a canonical JSON file; the path becomes the
    /// backend's report identity.
    pub fn load(path: &str) -> Result<TableBackend, String> {
        TABLE_LOAD_FP.check()?;
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("reading energy table {path}: {e}"))?;
        let doc = parse(&text).map_err(|e| format!("parsing energy table {path}: {e}"))?;
        Self::from_json(&doc, path)
    }

    /// Write the table to a canonical JSON file (atomically: readers see
    /// the old file or the complete new one).
    pub fn save(&self, path: &str) -> Result<(), String> {
        atomic_write(Path::new(path), self.to_json().to_string_pretty(), None)
            .map_err(|e| format!("writing energy table {path}: {e}"))
    }
}

impl EnergyBackend for TableBackend {
    fn label(&self) -> String {
        format!("table:{}", self.origin)
    }

    fn core_dynamic_power(&self, c: CoreSize, vf: VfPoint, util: f64) -> f64 {
        let full = interp(&self.points[c.index()], vf.freq_hz, |p| p.dyn_w);
        let activity = self.dyn_floor + (1.0 - self.dyn_floor) * util.clamp(0.0, 1.0);
        full * activity
    }

    fn core_static_power(&self, c: CoreSize, vf: VfPoint) -> f64 {
        interp(&self.points[c.index()], vf.freq_hz, |p| p.static_w)
    }

    fn dram_energy_per_access_j(&self) -> f64 {
        self.dram_energy_per_access_j
    }

    fn uncore_w_per_core(&self) -> f64 {
        self.uncore_w_per_core
    }

    fn dyn_ratio(&self, target: CoreSize, current: CoreSize) -> f64 {
        let at_ref = |c: CoreSize| interp(&self.points[c.index()], REF_FREQ_HZ, |p| p.dyn_w);
        at_ref(target) / at_ref(current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use triad_arch::DvfsGrid;

    fn sampled() -> TableBackend {
        let grid = DvfsGrid::table1();
        TableBackend::sampled_from(&EnergyModel::default_model(), grid.points(), "test")
    }

    #[test]
    fn sampled_table_matches_parametric_at_grid_points() {
        let t = sampled();
        let m = EnergyModel::default_model();
        let grid = DvfsGrid::table1();
        for c in CoreSize::ALL {
            for (_, vf) in grid.iter() {
                for util in [0.0, 0.4, 1.0] {
                    let a = t.core_dynamic_power(c, vf, util);
                    let b = m.core_dynamic_power(c, vf, util);
                    assert!((a - b).abs() < 1e-12, "{c:?} {vf:?} {util}: {a} vs {b}");
                }
                let a = t.core_static_power(c, vf);
                let b = m.core_static_power(c, vf);
                assert!((a - b).abs() < 1e-12);
            }
        }
        assert_eq!(t.dyn_ratio(CoreSize::L, CoreSize::M), 5.50 / 2.80);
    }

    #[test]
    fn interpolation_is_between_neighbors_and_clamped_outside() {
        let t = sampled();
        let grid = DvfsGrid::table1();
        let mid = VfPoint { freq_hz: 2.125e9, volt: DvfsGrid::voltage_for(2.125e9) };
        let p = t.core_dynamic_power(CoreSize::M, mid, 1.0);
        let lo = t.core_dynamic_power(CoreSize::M, grid.point(4), 1.0);
        let hi = t.core_dynamic_power(CoreSize::M, grid.point(5), 1.0);
        assert!(p > lo && p < hi, "{lo} < {p} < {hi}");
        // Outside the measured range the nearest sample wins.
        let below = VfPoint { freq_hz: 0.1e9, volt: 0.7 };
        let above = VfPoint { freq_hz: 9.9e9, volt: 1.5 };
        assert_eq!(t.core_dynamic_power(CoreSize::M, below, 1.0), t.points[1][0].dyn_w);
        assert_eq!(t.core_static_power(CoreSize::M, above), t.points[1].last().unwrap().static_w);
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let t = sampled();
        let text = t.to_json().to_string_pretty();
        let back = TableBackend::from_json(&parse(&text).unwrap(), "test").unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn save_and_load_round_trip() {
        let t = sampled();
        let path = triad_util::fs::unique_temp_path("energy-table-test.json");
        let path = path.to_str().unwrap().to_string();
        t.save(&path).unwrap();
        let back = TableBackend::load(&path).unwrap();
        assert_eq!(t.points, back.points);
        assert_eq!(back.origin, path);
        assert!(back.label().starts_with("table:"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn validation_rejects_malformed_tables() {
        let mut t = sampled();
        t.points[0].clear();
        assert!(t.validate().is_err(), "empty size must fail");

        let mut t = sampled();
        t.points[1].swap(0, 1);
        assert!(t.validate().is_err(), "unsorted samples must fail");

        let mut t = sampled();
        t.points[1][5].dyn_w = t.points[1][4].dyn_w * 0.5;
        assert!(t.validate().is_err(), "power dipping at higher frequency must fail");

        let mut t = sampled();
        t.points[2][0].dyn_w = -1.0;
        assert!(t.validate().is_err(), "negative power must fail");

        let mut t = sampled();
        t.dyn_floor = 1.5;
        assert!(t.validate().is_err(), "dyn_floor > 1 must fail");
    }

    #[test]
    fn single_sample_tables_are_flat() {
        let mut t = sampled();
        for pts in &mut t.points {
            pts.truncate(1);
        }
        t.validate().unwrap();
        let grid = DvfsGrid::table1();
        let a = t.core_static_power(CoreSize::S, grid.point(0));
        let b = t.core_static_power(CoreSize::S, grid.point(9));
        assert_eq!(a, b);
    }
}
