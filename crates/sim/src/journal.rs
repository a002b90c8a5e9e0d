//! Durable row journal: the campaign's crash-safe resume substrate.
//!
//! A journaled campaign appends one JSON-Lines record per completed row:
//!
//! ```text
//! {"schema":"triad-journal/v1","key":"<hex>","digest":"<hex>","row":{...}}
//! ```
//!
//! * `key` is the row's **resume key** — a [`Fingerprint`] over the
//!   spec's canonical JSON, the materialized workload-trace fingerprint
//!   and the energy-backend label (see
//!   [`resume_key`](crate::campaign::resume_key)) — so a resumed campaign
//!   can re-key completed rows without re-simulating them, and any spec
//!   change re-keys the row instead of serving stale results;
//! * `digest` is a SHA-256 integrity check over the key and the row's
//!   exact canonical serialization, so torn or bit-rotted records are
//!   detected, dropped, and re-simulated rather than trusted;
//! * each record is written with a **single `O_APPEND` `write_all`** (the
//!   same discipline as `triad_util::bench`'s JSON-Lines records), so
//!   concurrent campaign workers cannot interleave bytes mid-record and a
//!   crash can tear at most the final line.
//!
//! [`load`] tolerates exactly the states a killed process leaves behind:
//! a torn final line is truncated away (and the truncation persisted, so
//! the file is clean for this run's appends), records with a wrong digest
//! or unparseable interior are dropped, and duplicated keys keep their
//! first occurrence. Every recovery action is counted through
//! `triad-telemetry` (`journal.*` counters).

use std::collections::HashMap;
use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use triad_telemetry::Counter;
use triad_util::failpoint::FailPoint;
use triad_util::hash::Fingerprint;
use triad_util::json::{parse, Json};

/// Journal record schema tag (also the digest domain separator).
pub const SCHEMA: &str = "triad-journal/v1";

/// Injected-fault site on the append write (exercises the bounded-retry
/// path; `error` faults that outlast the retries degrade durability, they
/// never fail the campaign).
pub static APPEND_FP: FailPoint = FailPoint::new("journal.append");
/// Injected-fault site evaluated **after** a record is durably appended —
/// arm it with `abort` to kill the process deterministically mid-campaign
/// (`TRIAD_FAILPOINTS="journal.appended=every(3):abort"`).
pub static APPENDED_FP: FailPoint = FailPoint::new("journal.appended");

static RECORDS_APPENDED: Counter = Counter::new("journal.records_appended");
static RECORDS_LOADED: Counter = Counter::new("journal.records_loaded");
static TORN_TRUNCATED: Counter = Counter::new("journal.torn_truncated");
static CORRUPT_DROPPED: Counter = Counter::new("journal.corrupt_dropped");
static DUPLICATE_DROPPED: Counter = Counter::new("journal.duplicate_dropped");
static APPEND_RETRIES: Counter = Counter::new("journal.append_retry");
static APPEND_FAILED: Counter = Counter::new("journal.append_failed");

/// Integrity digest of one record: SHA-256 over the resume key and the
/// row's canonical compact serialization, domain-separated by [`SCHEMA`].
pub fn record_digest(key: &str, row_text: &str) -> String {
    let mut f = Fingerprint::new(SCHEMA);
    f.str(key).str(row_text);
    f.hex()
}

/// Transient-write retry budget: attempts (first try included) and the
/// deterministic backoff (1 ms, 2 ms, 4 ms — fixed, not randomized, so
/// fault schedules replay exactly).
const WRITE_ATTEMPTS: u32 = 3;

pub(crate) fn backoff(attempt: u32) {
    std::thread::sleep(std::time::Duration::from_millis(1 << attempt));
}

/// An open, append-only row journal.
#[derive(Debug)]
pub struct RowJournal {
    path: PathBuf,
    file: File,
    /// A write failed, so the file tail may hold a partial, unterminated
    /// line (e.g. ENOSPC mid-`write_all`). The next write leads with a
    /// `'\n'` that closes any such prefix off as its own line — dropped
    /// on load as corrupt (or skipped when empty) — so later records
    /// still parse instead of gluing onto the fragment.
    dirty: AtomicBool,
}

impl RowJournal {
    /// Open `path` for appending, creating it (and its parent directory)
    /// if missing. `fresh` truncates any existing content first — the
    /// non-resume mode, where stale rows from an unrelated run must not
    /// survive into this journal.
    pub fn open(path: &Path, fresh: bool) -> std::io::Result<RowJournal> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        if fresh {
            File::create(path)?;
        }
        let file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        Ok(RowJournal { path: path.to_path_buf(), file, dirty: AtomicBool::new(false) })
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one completed row under its resume key: one complete line,
    /// one `write_all`, with bounded deterministic retry on transient
    /// write failures. A failure that outlasts the retries is reported
    /// (counter + stderr warning) but never propagated — the journal is a
    /// durability aid; losing a record only costs a re-simulation on
    /// resume, while failing the campaign would cost every row.
    pub fn append(&self, key: &str, row: &Json) {
        let row_text = row.to_string_compact();
        let digest = record_digest(key, &row_text);
        let mut line = Json::obj()
            .set("schema", SCHEMA)
            .set("key", key)
            .set("digest", digest)
            .set("row", row.clone())
            .to_string_compact();
        line.push('\n');
        // Workers share this O_APPEND file, so a partial prefix left by a
        // failed write cannot be truncated away (that could clobber a
        // concurrent worker's bytes). Instead, any write after a failure
        // — the retry below, or the next row's append after an exhausted
        // retry budget — leads with a '\n' that terminates the fragment
        // as a corrupt (dropped-on-load) line of its own.
        let terminated = format!("\n{line}");
        let mut last_err: Option<std::io::Error> = None;
        for attempt in 0..WRITE_ATTEMPTS {
            if attempt > 0 {
                APPEND_RETRIES.incr();
                backoff(attempt - 1);
            }
            let buf = if self.dirty.swap(false, Ordering::Relaxed) { &terminated } else { &line };
            match APPEND_FP.check_io().and_then(|()| (&self.file).write_all(buf.as_bytes())) {
                Ok(()) => {
                    RECORDS_APPENDED.incr();
                    // Crash site for kill-and-resume tests: the record
                    // above is durable, everything after this instant is
                    // recoverable work.
                    let _ = APPENDED_FP.fire();
                    return;
                }
                Err(e) => {
                    self.dirty.store(true, Ordering::Relaxed);
                    last_err = Some(e);
                }
            }
        }
        APPEND_FAILED.incr();
        eprintln!(
            "journal: could not append row to {} after {WRITE_ATTEMPTS} attempts: {} \
             (row stays valid; resume will re-simulate it)",
            self.path.display(),
            last_err.expect("retry loop ran")
        );
    }
}

/// The validated content of a journal file.
#[derive(Debug, Default)]
pub struct LoadedJournal {
    /// Usable rows by resume key (first occurrence wins).
    pub rows: HashMap<String, Json>,
    /// A torn final line was found and truncated away.
    pub torn_truncated: bool,
    /// Interior records dropped for parse/digest/schema failures.
    pub corrupt_dropped: usize,
    /// Re-appearing keys dropped (first occurrence kept).
    pub duplicates_dropped: usize,
}

/// Read and validate a journal file, persisting the torn-tail truncation
/// (if any) so subsequent appends continue a clean file.
///
/// Only the **final** line may legitimately be torn — records are single
/// `O_APPEND` writes, so a crash cuts the tail, never the middle. Any
/// final line without a trailing newline counts as torn, *even one that
/// parses and passes its digest* (a partial write can end exactly at the
/// closing brace; a successful append always ends in `'\n'`), so the file
/// is newline-terminated before this run's appends. An interior line that
/// fails to parse, names a different schema, or does not match its digest
/// is corruption: the record is dropped (and counted), the rest of the
/// file stays usable.
pub fn load(path: &Path) -> std::io::Result<LoadedJournal> {
    let text = std::fs::read_to_string(path)?;
    let mut loaded = LoadedJournal::default();
    let mut good_bytes = 0usize;

    let mut offset = 0usize;
    let mut pieces: Vec<(usize, &str, bool)> = Vec::new(); // (start, line, complete)
    while offset < text.len() {
        match text[offset..].find('\n') {
            Some(rel) => {
                pieces.push((offset, &text[offset..offset + rel], true));
                offset += rel + 1;
            }
            None => {
                pieces.push((offset, &text[offset..], false));
                offset = text.len();
            }
        }
    }

    for (start, line, complete) in &pieces {
        if !*complete {
            // The unterminated final line of a killed writer is torn even
            // when it parses and passes its digest: a successful append
            // always ends in '\n', so at minimum the newline is missing.
            // Left in place, the next O_APPEND would glue its record onto
            // this line and a later load would drop both. Truncate it
            // away; the row (if any) simply re-simulates.
            loaded.torn_truncated = true;
            TORN_TRUNCATED.incr();
            continue;
        }
        if line.is_empty() {
            good_bytes = start + 1;
            continue;
        }
        let record = parse(line).ok().filter(valid_record);
        match record {
            Some(r) => {
                let key = match r.get("key") {
                    Some(Json::Str(k)) => k.clone(),
                    _ => unreachable!("valid_record checked the key"),
                };
                let row = r.get("row").expect("valid_record checked the row").clone();
                match loaded.rows.entry(key) {
                    std::collections::hash_map::Entry::Occupied(_) => {
                        loaded.duplicates_dropped += 1;
                        DUPLICATE_DROPPED.incr();
                    }
                    std::collections::hash_map::Entry::Vacant(slot) => {
                        RECORDS_LOADED.incr();
                        slot.insert(row);
                    }
                }
                good_bytes = start + line.len() + 1;
            }
            None => {
                loaded.corrupt_dropped += 1;
                CORRUPT_DROPPED.incr();
                good_bytes = start + line.len() + 1;
            }
        }
    }

    if loaded.torn_truncated {
        let f = std::fs::OpenOptions::new().write(true).open(path)?;
        f.set_len(good_bytes as u64)?;
    }
    Ok(loaded)
}

/// Schema, digest and shape validation of one parsed record.
fn valid_record(r: &Json) -> bool {
    if r.get("schema") != Some(&Json::Str(SCHEMA.into())) {
        return false;
    }
    let (Some(Json::Str(key)), Some(Json::Str(digest)), Some(row)) =
        (r.get("key"), r.get("digest"), r.get("row"))
    else {
        return false;
    };
    *digest == record_digest(key, &row.to_string_compact())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        triad_util::fs::unique_temp_path(&format!("journal-test-{tag}.jsonl"))
    }

    fn row(i: i64) -> Json {
        Json::obj().set("i", i).set("x", 0.5 * i as f64)
    }

    #[test]
    fn append_then_load_round_trips() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let j = RowJournal::open(&path, true).unwrap();
        j.append("k1", &row(1));
        j.append("k2", &row(2));
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.rows.len(), 2);
        assert_eq!(loaded.rows["k1"], row(1));
        assert_eq!(loaded.rows["k2"], row(2));
        assert!(!loaded.torn_truncated);
        assert_eq!((loaded.corrupt_dropped, loaded.duplicates_dropped), (0, 0));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fresh_open_truncates_resume_open_appends() {
        let path = temp_path("fresh");
        let _ = std::fs::remove_file(&path);
        RowJournal::open(&path, true).unwrap().append("old", &row(0));
        RowJournal::open(&path, false).unwrap().append("new", &row(1));
        assert_eq!(load(&path).unwrap().rows.len(), 2, "resume open keeps prior records");
        RowJournal::open(&path, true).unwrap().append("only", &row(2));
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.rows.len(), 1, "fresh open starts over");
        assert!(loaded.rows.contains_key("only"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_final_line_is_truncated_and_journal_stays_appendable() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        let j = RowJournal::open(&path, true).unwrap();
        j.append("k1", &row(1));
        drop(j);
        // Simulate a crash mid-append: a partial record with no newline.
        let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"schema\":\"triad-journal/v1\",\"key\":\"k2\",\"dig").unwrap();
        drop(f);

        let before = std::fs::metadata(&path).unwrap().len();
        let loaded = load(&path).unwrap();
        assert!(loaded.torn_truncated);
        assert_eq!(loaded.rows.len(), 1);
        let after = std::fs::metadata(&path).unwrap().len();
        assert!(after < before, "truncation must be persisted");

        // The truncated file is clean: appends and reloads keep working.
        RowJournal::open(&path, false).unwrap().append("k3", &row(3));
        let reloaded = load(&path).unwrap();
        assert!(!reloaded.torn_truncated);
        assert_eq!(reloaded.rows.len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn parseable_unterminated_tail_is_torn_and_truncated() {
        let path = temp_path("noeol");
        let _ = std::fs::remove_file(&path);
        let j = RowJournal::open(&path, true).unwrap();
        j.append("k1", &row(1));
        j.append("k2", &row(2));
        drop(j);
        // A partial write can end exactly at the closing brace: the line
        // parses and passes its digest, but the newline is missing.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.trim_end_matches('\n')).unwrap();

        let loaded = load(&path).unwrap();
        assert!(loaded.torn_truncated, "a missing final newline is a torn tail");
        assert_eq!(loaded.rows.len(), 1, "the unterminated record is not trusted");
        assert!(!loaded.rows.contains_key("k2"));
        let repaired = std::fs::read_to_string(&path).unwrap();
        assert!(repaired.ends_with('\n'), "load must leave the file newline-terminated");

        // The next O_APPEND therefore starts a fresh line instead of
        // gluing onto the old record's bytes.
        RowJournal::open(&path, false).unwrap().append("k2", &row(2));
        let reloaded = load(&path).unwrap();
        assert!(!reloaded.torn_truncated);
        assert_eq!(reloaded.corrupt_dropped, 0);
        assert_eq!(reloaded.rows.len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn duplicate_keys_keep_first_occurrence() {
        let path = temp_path("dup");
        let _ = std::fs::remove_file(&path);
        let j = RowJournal::open(&path, true).unwrap();
        j.append("k", &row(1));
        j.append("k", &row(2));
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.duplicates_dropped, 1);
        assert_eq!(loaded.rows["k"], row(1), "first occurrence wins");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn wrong_digest_and_wrong_schema_records_are_dropped() {
        let path = temp_path("digest");
        let _ = std::fs::remove_file(&path);
        let j = RowJournal::open(&path, true).unwrap();
        j.append("k1", &row(1));
        j.append("k2", &row(2));
        drop(j);
        // Flip a byte inside k1's row payload, keeping the line parseable.
        let text = std::fs::read_to_string(&path).unwrap();
        let tampered = text.replacen("\"i\":1", "\"i\":7", 1);
        assert_ne!(text, tampered);
        std::fs::write(&path, &tampered).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.corrupt_dropped, 1);
        assert_eq!(loaded.rows.len(), 1, "only the intact record survives");
        assert_eq!(loaded.rows["k2"], row(2));
        assert!(!loaded.torn_truncated, "a complete bad line is corruption, not a torn tail");

        // A record under a foreign schema is dropped the same way.
        let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"schema\":\"other/v9\",\"key\":\"x\",\"digest\":\"00\",\"row\":{}}\n")
            .unwrap();
        drop(f);
        assert_eq!(load(&path).unwrap().corrupt_dropped, 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn digest_separates_key_and_row() {
        assert_ne!(record_digest("ab", "{}"), record_digest("a", "b{}"));
        assert_ne!(record_digest("k", "{\"a\":1}"), record_digest("k", "{\"a\":2}"));
    }
}
