//! The store's end-to-end contract: a campaign replayed from a persisted,
//! reloaded database produces **byte-identical** JSON rows to one replayed
//! from the freshly built database — and a corrupted cache file silently
//! falls back to a rebuild that repairs the cache.

use triad::phasedb::{build_apps, DbConfig, DbStore, StoreOutcome};
use triad::sim::{Campaign, ExperimentSpec};
use triad::trace::AppSpec;

fn apps() -> Vec<AppSpec> {
    let names = ["mcf", "povray"];
    triad::trace::suite().iter().filter(|a| names.contains(&a.name)).cloned().collect()
}

/// SHA-256 of the persisted fast-config {mcf, libquantum, povray} artifact,
/// captured from the pre-engine (PR 4) `build_phase`. The lockstep batched
/// engine must keep every phase-database artifact **byte-identical** — a
/// drift here means the timing model's results changed, not just its speed.
/// (Legitimate model/trace changes must update this constant deliberately.)
const ARTIFACT_SHA256: &str = "4c3b392fbaad78a948b3790d305da9148092b12630f4ac968d6961a20ecf412c";

#[test]
fn store_artifact_digest_is_unchanged() {
    let names = ["mcf", "libquantum", "povray"];
    let apps: Vec<AppSpec> =
        triad::trace::suite().iter().filter(|a| names.contains(&a.name)).cloned().collect();
    let dir = triad_util::fs::unique_temp_path("db-store-digest");
    let _ = std::fs::remove_dir_all(&dir);
    let resolved = DbStore::new(&dir).resolve(&apps, &DbConfig::fast());
    let bytes = std::fs::read(&resolved.path).unwrap();
    let mut h = triad_util::hash::Sha256::new();
    h.update(&bytes);
    let digest = triad_util::hash::hex(&h.finalize());
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(digest, ARTIFACT_SHA256, "phase-db artifact bytes drifted");
}

fn campaign() -> Campaign {
    Campaign::new(vec![
        ExperimentSpec::new("idle", &["mcf", "povray"]).rm(None).target_intervals(6),
        ExperimentSpec::new("rm3", &["mcf", "povray"]).target_intervals(6),
        ExperimentSpec::new("rm3-perfect", &["mcf", "povray"]).perfect().target_intervals(6),
    ])
}

fn report(db: &triad::phasedb::PhaseDb) -> String {
    Campaign::report(&campaign().run(db)).to_string_pretty()
}

#[test]
fn persist_reload_replays_bit_exactly_and_corruption_falls_back() {
    let dir = triad_util::fs::unique_temp_path("db-store-roundtrip");
    let _ = std::fs::remove_dir_all(&dir);
    let store = DbStore::new(&dir);
    let cfg = DbConfig::fast();
    let apps = apps();

    // Ground truth: a campaign on the directly built database.
    let built = build_apps(&apps, &cfg);
    let reference = report(&built);

    // Cold resolve builds and persists; the artifact must exist.
    let cold = store.resolve(&apps, &cfg);
    assert_eq!(cold.outcome, StoreOutcome::Miss);
    assert!(cold.path.exists());
    assert_eq!(report(&cold.db), reference, "cold-resolved DB must replay identically");

    // Warm resolve loads from disk — and the loaded database replays the
    // campaign byte-for-byte identically to the fresh build.
    let warm = store.resolve(&apps, &cfg);
    assert_eq!(warm.outcome, StoreOutcome::Hit);
    assert_eq!(report(&warm.db), reference, "loaded DB must replay identically");

    // Corrupt the artifact (truncate mid-document): the store must detect
    // it, rebuild, and repair the cache.
    let text = std::fs::read_to_string(&warm.path).unwrap();
    std::fs::write(&warm.path, &text[..text.len() / 2]).unwrap();
    let repaired = store.resolve(&apps, &cfg);
    assert_eq!(repaired.outcome, StoreOutcome::CorruptRebuilt);
    assert_eq!(report(&repaired.db), reference, "rebuilt DB must replay identically");

    // And the repair is durable: the next resolve hits again.
    let after = store.resolve(&apps, &cfg);
    assert_eq!(after.outcome, StoreOutcome::Hit);
    assert_eq!(report(&after.db), reference);

    // Garbage that parses as JSON but fails schema validation also falls
    // back (a different corruption class than a parse error).
    std::fs::write(&after.path, "{\"schema\":\"triad-phasedb/v1\",\"apps\":[]}").unwrap();
    let repaired2 = store.resolve(&apps, &cfg);
    assert_eq!(repaired2.outcome, StoreOutcome::CorruptRebuilt);
    assert_eq!(report(&repaired2.db), reference);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_resolves_exactly_the_apps_the_campaign_needs() {
    let dir = triad_util::fs::unique_temp_path("db-store-required");
    let _ = std::fs::remove_dir_all(&dir);
    let store = DbStore::new(&dir);
    let cfg = DbConfig::fast();

    let c = campaign();
    let rows_cold = c.run(&store.resolve(&c.required_apps(), &cfg).db);
    let rows_warm = c.run(&store.resolve(&c.required_apps(), &cfg).db);
    assert_eq!(
        Campaign::report(&rows_cold).to_string_pretty(),
        Campaign::report(&rows_warm).to_string_pretty()
    );
    // Exactly one artifact — the mcf+povray subset — was persisted.
    let files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    assert_eq!(files.len(), 1, "one campaign subset, one artifact: {files:?}");
    assert!(files[0].ends_with(".json"));

    let _ = std::fs::remove_dir_all(&dir);
}
