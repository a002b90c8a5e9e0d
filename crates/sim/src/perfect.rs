//! The perfect interval model: ground-truth database lookups.
//!
//! Fig. 2 and the light-green bars of Fig. 9 assume "perfect assumptions
//! regarding modeling accuracy": the RM is given the *actual* time and
//! energy of the upcoming interval at every candidate setting — i.e. the
//! phase of interval `i+1` is known and its database record is queried
//! directly. Comparing the online models against this bound isolates the
//! cost of modeling error.

use triad_arch::{DvfsGrid, Setting};
use triad_energy::EnergyBackend;
use triad_phasedb::PhaseRecord;
use triad_rm::IntervalModel;

/// Ground-truth predictor for one core's next interval.
pub struct PerfectModel<'a> {
    /// The record of the phase the next interval will execute.
    pub next: &'a PhaseRecord,
    /// DVFS grid.
    pub grid: &'a DvfsGrid,
    /// Energy backend the ground-truth joules are computed under.
    pub energy: &'a dyn EnergyBackend,
}

impl<'a> IntervalModel for PerfectModel<'a> {
    fn predict(&self, s: Setting) -> (f64, f64) {
        let vf = self.grid.point(s.vf);
        (
            self.next.tpi(s.core, vf.freq_hz, s.ways),
            self.next.energy_pi(s.core, vf, s.ways, self.energy),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use triad_phasedb::{build_apps, DbConfig};

    #[test]
    fn perfect_model_matches_db_ground_truth() {
        let apps: Vec<_> =
            triad_trace::suite().iter().filter(|a| a.name == "povray").cloned().collect();
        let db = build_apps(&apps, &DbConfig::fast());
        let rec = &db.apps[0].records[0];
        let grid = DvfsGrid::table1();
        let em = triad_energy::EnergyModel::default_model();
        let m = PerfectModel { next: rec, grid: &grid, energy: &em };
        for w in [2usize, 8, 16] {
            for vf in [0usize, 4, 9] {
                for c in triad_arch::CoreSize::ALL {
                    let s = Setting::new(c, vf, w);
                    let (t, e) = m.predict(s);
                    assert_eq!(t, rec.tpi(c, grid.point(vf).freq_hz, w));
                    assert_eq!(e, rec.energy_pi(c, grid.point(vf), w, &em));
                }
            }
        }
    }
}
