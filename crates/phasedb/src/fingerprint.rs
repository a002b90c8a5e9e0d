//! Content fingerprint of a database's build inputs.
//!
//! The store keys artifacts by a digest of everything the build output is a
//! pure function of: the [`DbConfig`] (minus its `threads` knob — builds
//! are thread-count invariant by construction), the complete application
//! suite definition (every phase parameter, region and sequence entry),
//! and the code-relevant shape constants (`NC`/`NW`/`W_MIN`/`W_MAX`).
//! Change any of them and the digest — and therefore the cache key —
//! changes; keep them fixed and the digest is stable across processes,
//! platforms and releases.
//!
//! Values are fed through [`Fingerprint`]'s canonical type-tagged byte
//! encoding, never through `Debug` formatting (whose output is not a
//! stability guarantee).
//!
//! The digest deliberately does **not** cover the simulator *code*: editing
//! the timing model without bumping [`FINGERPRINT_DOMAIN`] leaves old
//! artifacts valid. Bump the domain version on any semantic change to the
//! build pipeline, or force a rebuild with `--db-rebuild`.

use crate::build::DbConfig;
use crate::record::{NC, NW, W_MAX, W_MIN};
use triad_trace::{AccessPattern, AppSpec, Category, MemRegion, PhaseSpec};
use triad_util::hash::Fingerprint;

/// Domain-separation label: schema name + encoding version. Bumping it
/// invalidates every previously persisted artifact.
pub const FINGERPRINT_DOMAIN: &str = "triad-phasedb-fingerprint/v1";

fn feed_config(f: &mut Fingerprint, cfg: &DbConfig) {
    f.str("config");
    f.usize(cfg.scale);
    f.usize(cfg.warmup);
    f.usize(cfg.detail);
    f.u64(cfg.seed);
    f.f64(cfg.fit_lo_hz);
    f.f64(cfg.fit_hi_hz);
    // `cfg.threads` is intentionally absent: parallelism never changes the
    // built database (see `build_is_deterministic_across_thread_counts`).
}

fn feed_region(f: &mut Fingerprint, r: &MemRegion) {
    f.u64(r.blocks);
    f.f64(r.weight);
    f.u64(match r.pattern {
        AccessPattern::Uniform => 0,
        AccessPattern::Sweep => 1,
    });
}

fn feed_phase(f: &mut Fingerprint, p: &PhaseSpec) {
    f.str("phase");
    f.u64(p.tag);
    f.f64(p.load_frac);
    f.f64(p.store_frac);
    f.f64(p.branch_frac);
    f.f64(p.longop_frac);
    f.f64(p.mispredict_rate);
    f.f64(p.dep_mean);
    f.f64(p.dep2_prob);
    f.f64(p.chase_frac);
    f.f64(p.burst);
    f.f64(p.addr_dep);
    f.usize(p.regions.len());
    for r in &p.regions {
        feed_region(f, r);
    }
}

fn feed_app(f: &mut Fingerprint, app: &AppSpec) {
    f.str("app");
    f.str(app.name);
    f.u64(match app.category {
        Category::CsPs => 0,
        Category::CsPi => 1,
        Category::CiPs => 2,
        Category::CiPi => 3,
    });
    f.usize(app.phases.len());
    for p in &app.phases {
        feed_phase(f, p);
    }
    f.usize(app.sequence.len());
    for &s in &app.sequence {
        f.usize(s);
    }
}

/// The content-address of the database `build_apps(apps, cfg)` produces:
/// 64 lowercase hex characters.
pub fn db_fingerprint(apps: &[AppSpec], cfg: &DbConfig) -> String {
    let mut f = Fingerprint::new(FINGERPRINT_DOMAIN);
    f.usize(NC);
    f.usize(NW);
    f.usize(W_MIN);
    f.usize(W_MAX);
    feed_config(&mut f, cfg);
    f.usize(apps.len());
    for app in apps {
        feed_app(&mut f, app);
    }
    f.hex()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture_apps() -> Vec<AppSpec> {
        triad_trace::suite()
            .iter()
            .filter(|a| ["mcf", "povray"].contains(&a.name))
            .cloned()
            .collect()
    }

    #[test]
    fn digest_is_stable_within_and_across_runs() {
        let apps = fixture_apps();
        let cfg = DbConfig::fast();
        let a = db_fingerprint(&apps, &cfg);
        let b = db_fingerprint(&apps, &cfg);
        assert_eq!(a, b);
        assert_eq!(a.len(), 64);
        assert!(a.bytes().all(|c| c.is_ascii_hexdigit()));
        // Golden digest over a hand-built fixture: fails iff the canonical
        // encoding itself changes (which must be a deliberate
        // FINGERPRINT_DOMAIN bump), proving cross-run/cross-process
        // stability. The real suite is intentionally not pinned here — its
        // calibration may evolve, and the store re-keys automatically.
        let golden_cfg = DbConfig {
            scale: 1,
            warmup: 2,
            detail: 3,
            seed: 4,
            fit_lo_hz: 5.0,
            fit_hi_hz: 6.0,
            threads: 0,
        };
        assert_eq!(
            db_fingerprint(&[], &golden_cfg),
            "15b675324db7db21290c0d79964efc3a725b165775a24407aadb2b88848afc7e",
        );
    }

    #[test]
    fn every_config_field_alters_the_digest_except_threads() {
        let apps = fixture_apps();
        let base = DbConfig::fast();
        let digest = |cfg: &DbConfig| db_fingerprint(&apps, cfg);
        let d0 = digest(&base);

        let mutations: Vec<(&str, DbConfig)> = vec![
            ("scale", DbConfig { scale: base.scale + 1, ..base }),
            ("warmup", DbConfig { warmup: base.warmup + 1, ..base }),
            ("detail", DbConfig { detail: base.detail + 1, ..base }),
            ("seed", DbConfig { seed: base.seed ^ 1, ..base }),
            ("fit_lo_hz", DbConfig { fit_lo_hz: base.fit_lo_hz * 1.0000001, ..base }),
            ("fit_hi_hz", DbConfig { fit_hi_hz: base.fit_hi_hz * 1.0000001, ..base }),
        ];
        for (name, cfg) in &mutations {
            assert_ne!(d0, digest(cfg), "changing {name} must change the digest");
        }
        // All mutations are pairwise distinct, too.
        let mut all: Vec<String> = mutations.iter().map(|(_, c)| digest(c)).collect();
        all.push(d0.clone());
        all.sort();
        all.dedup();
        assert_eq!(all.len(), mutations.len() + 1);

        // Threads do not affect the built database, so they must not
        // affect the key (otherwise warm caches would fragment per host).
        assert_eq!(d0, digest(&DbConfig { threads: 7, ..base }));
    }

    #[test]
    fn suite_definition_changes_alter_the_digest() {
        let apps = fixture_apps();
        let cfg = DbConfig::fast();
        let d0 = db_fingerprint(&apps, &cfg);

        // App list: order matters, subsets differ.
        let mut reversed = apps.clone();
        reversed.reverse();
        assert_ne!(d0, db_fingerprint(&reversed, &cfg));
        assert_ne!(d0, db_fingerprint(&apps[..1], &cfg));

        // Single phase-parameter change.
        let mut tweaked = apps.clone();
        tweaked[0].phases[0].chase_frac += 1e-9;
        assert_ne!(d0, db_fingerprint(&tweaked, &cfg));

        // Single region change.
        let mut tweaked = apps.clone();
        tweaked[0].phases[0].regions[0].weight += 1e-9;
        assert_ne!(d0, db_fingerprint(&tweaked, &cfg));

        // Sequence change (same phases, different interval order).
        let mut tweaked = apps.clone();
        let seq_len = tweaked[0].sequence.len();
        tweaked[0].sequence.swap(0, seq_len - 1);
        if tweaked[0].sequence != apps[0].sequence {
            assert_ne!(d0, db_fingerprint(&tweaked, &cfg));
        }
    }
}
