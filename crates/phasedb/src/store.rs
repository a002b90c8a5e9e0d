//! Content-addressed, persistent phase-database store.
//!
//! Building the 27-app [`PhaseDb`] takes about 1.3 s of detailed
//! simulation; loading the persisted 1.6 MB artifact (read, parse and
//! decode) takes about 25 ms (both measured on a 2-core x86-64 Xeon).
//! [`DbStore`] is the one resolution path every layer goes through instead
//! of calling [`build_apps`] directly:
//!
//! * the cache key is [`db_fingerprint`] — a digest of the [`DbConfig`],
//!   the complete suite definition, and the database shape constants — so
//!   any input change re-keys the artifact and stale hits are impossible;
//! * on **hit** the artifact is parsed and shape-validated; any
//!   deserialization failure (truncation, corruption, schema drift) falls
//!   back to a rebuild that overwrites the bad file;
//! * on **miss** the database is built, then written atomically
//!   (unique tempfile + `rename` in the cache directory), so concurrent
//!   campaigns racing on the same key can never observe a torn file — the
//!   last writer wins with bit-identical content.

use crate::build::{build_apps, DbConfig};
use crate::fingerprint::db_fingerprint;
use crate::record::PhaseDb;
use crate::serde::{db_from_json, db_to_json};
use std::path::{Path, PathBuf};
use triad_telemetry::{Counter, SpanName};
use triad_trace::AppSpec;
use triad_util::failpoint::FailPoint;
use triad_util::fs::atomic_write;
use triad_util::json::parse;

static RESOLVE_SPAN: SpanName = SpanName::new("db_store.resolve");
static BUILD_SPAN: SpanName = SpanName::new("db_store.build");
static HITS: Counter = Counter::new("db_store.hit");
static MISSES: Counter = Counter::new("db_store.miss");
static CORRUPT_REBUILDS: Counter = Counter::new("db_store.corrupt_rebuilt");
static FORCED_REBUILDS: Counter = Counter::new("db_store.forced_rebuild");
static PERSIST_RETRIES: Counter = Counter::new("db_store.persist_retry");

/// Injected-fault site on the artifact read (a load error degrades to a
/// rebuild, never a failure).
pub static LOAD_FP: FailPoint = FailPoint::new("db_store.load");
/// Injected-fault site on the tempfile write half of [`DbStore::resolve`]'s
/// persist.
pub static PERSIST_WRITE_FP: FailPoint = FailPoint::new("db_store.persist.write");
/// Injected-fault site **between** the tempfile write and the `rename` —
/// the crash seam atomic persistence exists for. `error` faults exercise
/// the bounded-retry path; `abort` kills the process with the tempfile on
/// disk and the published artifact untouched.
pub static PERSIST_RENAME_FP: FailPoint = FailPoint::new("db_store.persist.rename");

/// Transient-persist retry budget: attempts (first try included) with
/// deterministic 1/2 ms backoff, mirroring the journal's discipline.
const PERSIST_ATTEMPTS: u32 = 3;

/// How a [`DbStore::resolve`] call obtained its database.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreOutcome {
    /// Loaded from a valid cached artifact.
    Hit,
    /// No artifact existed; built and persisted.
    Miss,
    /// An artifact existed but failed to deserialize; rebuilt and replaced.
    CorruptRebuilt,
    /// `force_rebuild` was set; built and persisted unconditionally.
    ForcedRebuild,
}

impl StoreOutcome {
    /// Whether the database came from disk rather than a build.
    pub fn is_hit(self) -> bool {
        self == StoreOutcome::Hit
    }
}

/// A resolved database plus its provenance.
#[derive(Debug, Clone)]
pub struct Resolved {
    /// The database, loaded or freshly built.
    pub db: PhaseDb,
    /// How it was obtained.
    pub outcome: StoreOutcome,
    /// The content fingerprint (the cache key).
    pub fingerprint: String,
    /// The artifact path for this key (present even if persisting failed).
    pub path: PathBuf,
}

/// Content-addressed store rooted at one cache directory.
#[derive(Debug, Clone)]
pub struct DbStore {
    dir: PathBuf,
    force_rebuild: bool,
}

impl DbStore {
    /// A store rooted at `dir` (created lazily on first write).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DbStore { dir: dir.into(), force_rebuild: false }
    }

    /// The default store: `$TRIAD_DB_CACHE` if set, else `target/phasedb/`
    /// under the enclosing cargo workspace (found by walking up from the
    /// current directory to the nearest `Cargo.lock`), else `target/phasedb`
    /// relative to the current directory.
    pub fn default_cache() -> Self {
        Self::new(default_cache_dir())
    }

    /// Ignore cached artifacts and rebuild (the rebuilt database is still
    /// persisted, refreshing the cache).
    pub fn force_rebuild(mut self, on: bool) -> Self {
        self.force_rebuild = on;
        self
    }

    /// The cache directory this store resolves into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The artifact path for a given content fingerprint.
    pub fn path_for(&self, fingerprint: &str) -> PathBuf {
        self.dir.join(format!("{fingerprint}.json"))
    }

    /// Resolve the database for `(apps, cfg)`: load the cached artifact if
    /// one exists and deserializes cleanly, otherwise build and persist.
    ///
    /// Persisting is best-effort — an unwritable cache directory degrades
    /// to building every time (with a warning), never to failure.
    pub fn resolve(&self, apps: &[AppSpec], cfg: &DbConfig) -> Resolved {
        let _span = RESOLVE_SPAN.enter();
        let fingerprint = db_fingerprint(apps, cfg);
        let path = self.path_for(&fingerprint);

        let mut outcome =
            if self.force_rebuild { StoreOutcome::ForcedRebuild } else { StoreOutcome::Miss };
        if !self.force_rebuild {
            match LOAD_FP.check_io().and_then(|()| std::fs::read_to_string(&path)) {
                Ok(text) => {
                    match parse(&text)
                        .map_err(|e| e.to_string())
                        .and_then(|doc| db_from_json(&doc, apps))
                    {
                        Ok(db) => {
                            HITS.incr();
                            return Resolved { db, outcome: StoreOutcome::Hit, fingerprint, path };
                        }
                        Err(e) => {
                            eprintln!(
                                "phasedb cache: discarding corrupt artifact {}: {e}",
                                path.display()
                            );
                            outcome = StoreOutcome::CorruptRebuilt;
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => {
                    eprintln!("phasedb cache: cannot read {}: {e}; rebuilding", path.display());
                    outcome = StoreOutcome::CorruptRebuilt;
                }
            }
        }

        match outcome {
            StoreOutcome::Miss => MISSES.incr(),
            StoreOutcome::CorruptRebuilt => CORRUPT_REBUILDS.incr(),
            StoreOutcome::ForcedRebuild => FORCED_REBUILDS.incr(),
            StoreOutcome::Hit => unreachable!("hits return early"),
        }
        let db = {
            let _build = BUILD_SPAN.enter();
            build_apps(apps, cfg)
        };
        if let Err(e) = self.persist(&db, &fingerprint, cfg, &path) {
            eprintln!("phasedb cache: could not persist {}: {e}", path.display());
        }
        Resolved { db, outcome, fingerprint, path }
    }

    /// Resolve the full 27-application suite database.
    pub fn resolve_suite(&self, cfg: &DbConfig) -> Resolved {
        self.resolve(triad_trace::suite(), cfg)
    }

    /// Atomically write the artifact through [`atomic_write`] (writer-unique
    /// tempfile in the cache directory, then `rename` onto the final
    /// path), so readers only ever see complete files — even when
    /// parallel threads resolve the same key at once.
    ///
    /// Transient write/rename failures get the same bounded deterministic
    /// retry as journal appends; a crash anywhere in the sequence leaves
    /// the published artifact either absent or complete, never torn
    /// (readers rebuild on absence, and leftover tempfiles are inert under
    /// fresh writer-unique names).
    fn persist(
        &self,
        db: &PhaseDb,
        fingerprint: &str,
        cfg: &DbConfig,
        path: &Path,
    ) -> std::io::Result<()> {
        std::fs::create_dir_all(&self.dir)?;
        let text = db_to_json(db, fingerprint, cfg).to_string_compact();
        let mut last_err = None;
        for attempt in 0..PERSIST_ATTEMPTS {
            if attempt > 0 {
                PERSIST_RETRIES.incr();
                std::thread::sleep(std::time::Duration::from_millis(1 << (attempt - 1)));
            }
            match atomic_write(path, &text, Some((&PERSIST_WRITE_FP, &PERSIST_RENAME_FP))) {
                Ok(()) => return Ok(()),
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.expect("retry loop ran"))
    }
}

/// Default cache directory resolution (see [`DbStore::default_cache`]).
fn default_cache_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("TRIAD_DB_CACHE") {
        if !dir.is_empty() {
            return PathBuf::from(dir);
        }
    }
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        if dir.join("Cargo.lock").exists() {
            return dir.join("target").join("phasedb");
        }
        if !dir.pop() {
            return PathBuf::from("target").join("phasedb");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_apps() -> Vec<AppSpec> {
        triad_trace::suite().iter().filter(|a| a.name == "libquantum").cloned().collect()
    }

    fn temp_store(tag: &str) -> DbStore {
        let dir = triad_util::fs::unique_temp_path(&format!("phasedb-store-test-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        DbStore::new(dir)
    }

    #[test]
    fn miss_then_hit_with_identical_content() {
        let store = temp_store("hit");
        let apps = test_apps();
        let cfg = DbConfig::fast();

        let r1 = store.resolve(&apps, &cfg);
        assert_eq!(r1.outcome, StoreOutcome::Miss);
        assert!(r1.path.exists(), "miss must persist the artifact");

        let r2 = store.resolve(&apps, &cfg);
        assert_eq!(r2.outcome, StoreOutcome::Hit);
        assert_eq!(r1.fingerprint, r2.fingerprint);
        for (a, b) in r1.db.apps.iter().zip(&r2.db.apps) {
            for (x, y) in a.records.iter().zip(&b.records) {
                assert_eq!(x.a_cpi, y.a_cpi);
                assert_eq!(x.b_spi, y.b_spi);
                assert_eq!(x.miss_curve_pi, y.miss_curve_pi);
            }
        }
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn different_configs_key_different_artifacts() {
        let store = temp_store("keys");
        let apps = test_apps();
        let fast = DbConfig::fast();
        let tweaked = DbConfig { seed: fast.seed ^ 1, ..fast };
        let r1 = store.resolve(&apps, &fast);
        let r2 = store.resolve(&apps, &tweaked);
        assert_ne!(r1.fingerprint, r2.fingerprint);
        assert_ne!(r1.path, r2.path);
        // Both artifacts coexist; both now hit.
        assert!(store.resolve(&apps, &fast).outcome.is_hit());
        assert!(store.resolve(&apps, &tweaked).outcome.is_hit());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn force_rebuild_skips_the_cache_but_refreshes_it() {
        let store = temp_store("force");
        let apps = test_apps();
        let cfg = DbConfig::fast();
        store.resolve(&apps, &cfg);
        let r = store.clone().force_rebuild(true).resolve(&apps, &cfg);
        assert_eq!(r.outcome, StoreOutcome::ForcedRebuild);
        // The refreshed artifact still hits afterwards.
        assert!(store.resolve(&apps, &cfg).outcome.is_hit());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn no_tempfiles_left_behind() {
        let store = temp_store("tmp");
        let apps = test_apps();
        store.resolve(&apps, &DbConfig::fast());
        let leftovers: Vec<_> = std::fs::read_dir(store.dir())
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "tempfiles must be renamed away: {leftovers:?}");
        let _ = std::fs::remove_dir_all(store.dir());
    }
}
