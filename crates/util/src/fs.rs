//! Crash-safe file output.
//!
//! [`atomic_write`] is the one write discipline for every artifact the
//! workspace produces (the phase database, energy tables, reports and
//! telemetry): readers only ever observe the previous file or the
//! complete new one, never a truncated or half-written mix.

use crate::failpoint::FailPoint;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Write `contents` to `path` atomically: write a writer-unique tempfile
/// next to `path`, then `rename` it over `path` (atomic within one
/// filesystem). The tempfile name carries the process id and a
/// process-global counter, so concurrent writers — threads of one test
/// runner included — never share a tempfile and cannot tear each other's
/// bytes; the last rename wins.
///
/// `seams` are optional failpoints checked before the tempfile write and
/// before the rename, for callers that expose those steps to fault
/// injection. On any failure the tempfile is removed and the error
/// returned; `path` is left untouched.
///
/// Nothing is `fsync`ed: this guards against torn files from crashed or
/// racing processes, not against power loss. Every artifact written this
/// way is regenerable, and readers treat a damaged one as absent.
pub fn atomic_write(
    path: &Path,
    contents: impl AsRef<[u8]>,
    seams: Option<(&FailPoint, &FailPoint)>,
) -> io::Result<()> {
    let tmp = temp_path(path);
    let result = seams
        .map_or(Ok(()), |(write, _)| write.check_io())
        .and_then(|()| std::fs::write(&tmp, contents))
        .and_then(|()| seams.map_or(Ok(()), |(_, rename)| rename.check_io()))
        .and_then(|()| std::fs::rename(&tmp, path));
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// `<path>.tmp.<pid>.<seq>`, unique per process and call.
fn temp_path(path: &Path) -> PathBuf {
    static WRITER_SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = WRITER_SEQ.fetch_add(1, Ordering::Relaxed);
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".tmp.{}.{seq}", std::process::id()));
    path.with_file_name(name)
}

/// A fresh path in the system temp directory, `triad-<pid>-<seq>-<tag>`,
/// for tests and benches that need a scratch file or directory. The
/// sequence number is a process-wide counter, so every call returns a
/// distinct path: concurrently running tests never share one, and a
/// second process cannot collide with the first. `tag` comes last, so it
/// may carry a file extension. Nothing is created on disk.
pub fn unique_temp_path(tag: &str) -> PathBuf {
    static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = TEMP_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("triad-{}-{seq}-{tag}", std::process::id()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unique_temp_paths_differ_per_call_and_keep_the_tag() {
        let a = unique_temp_path("x.json");
        let b = unique_temp_path("x.json");
        assert_ne!(a, b);
        assert_eq!(a.parent(), Some(std::env::temp_dir().as_path()));
        for p in [&a, &b] {
            assert!(p.to_str().unwrap().ends_with("-x.json"), "{}", p.display());
        }
    }
}
