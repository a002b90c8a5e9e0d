//! Application characterization — the paper's §IV-C classification criteria.
//!
//! * **Cache Sensitive (CS)**: MPKI varies by more than 20 % when the LLC
//!   allocation changes by ±50 % around the 8-way baseline (i.e. at 4 or 12
//!   ways), *and* the baseline MPKI is at least 0.2.
//! * **Parallelism Sensitive (PS)**: the MLP variation from the S to the L
//!   core (at baseline allocation and VF) exceeds 30 % of the M core's MLP,
//!   *and* the MLP on the L core is at least 2.
//!
//! Running these criteria over the database must reproduce Table II — that
//! is the calibration contract of the application library, enforced by an
//! integration test.

use crate::record::{cw, AppDbEntry};
use triad_trace::Category;

/// Derived characterization of one application.
#[derive(Debug, Clone)]
pub struct AppCharacterization {
    /// Benchmark name.
    pub name: &'static str,
    /// Category the library was calibrated to (Table II).
    pub expected: Category,
    /// Category derived from the database via the §IV-C criteria.
    pub derived: Category,
    /// MPKI at 4 / 8 / 12 ways (M core, baseline VF).
    pub mpki: [f64; 3],
    /// Ground-truth MLP on the S / M / L cores (8 ways, baseline VF).
    pub mlp: [f64; 3],
    /// Cache-sensitivity verdict.
    pub cache_sensitive: bool,
    /// Parallelism-sensitivity verdict.
    pub parallelism_sensitive: bool,
}

/// Apply the §IV-C criteria to one application's database entry.
pub fn characterize_app(entry: &AppDbEntry) -> AppCharacterization {
    let mpki4 = entry.weighted(|r| r.misses_pi(4)) * 1000.0;
    let mpki8 = entry.weighted(|r| r.misses_pi(8)) * 1000.0;
    let mpki12 = entry.weighted(|r| r.misses_pi(12)) * 1000.0;
    let cache_sensitive =
        mpki8 >= 0.2 && ((mpki4 - mpki8).abs().max((mpki12 - mpki8).abs())) > 0.2 * mpki8;

    let mlp = |c: triad_arch::CoreSize| entry.weighted(|r| r.true_mlp[cw(c, 8)]);
    let (mlp_s, mlp_m, mlp_l) =
        (mlp(triad_arch::CoreSize::S), mlp(triad_arch::CoreSize::M), mlp(triad_arch::CoreSize::L));
    let parallelism_sensitive = mlp_l >= 2.0 && (mlp_l - mlp_s) > 0.3 * mlp_m;

    let derived = match (cache_sensitive, parallelism_sensitive) {
        (true, true) => Category::CsPs,
        (true, false) => Category::CsPi,
        (false, true) => Category::CiPs,
        (false, false) => Category::CiPi,
    };
    AppCharacterization {
        name: entry.spec.name,
        expected: entry.spec.category,
        derived,
        mpki: [mpki4, mpki8, mpki12],
        mlp: [mlp_s, mlp_m, mlp_l],
        cache_sensitive,
        parallelism_sensitive,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_apps, DbConfig};
    use triad_trace::suite;

    /// Spot-check one application per category with the fast configuration.
    /// The full 27-application census runs as an integration test with the
    /// default configuration.
    #[test]
    fn archetypes_classify_correctly() {
        let names = ["mcf", "xalancbmk", "libquantum", "povray"];
        let apps: Vec<_> = suite().iter().filter(|a| names.contains(&a.name)).cloned().collect();
        let db = build_apps(&apps, &DbConfig::fast());
        for e in &db.apps {
            let c = characterize_app(e);
            assert_eq!(c.derived, c.expected, "{}: mpki {:?} mlp {:?}", c.name, c.mpki, c.mlp);
        }
    }
}
