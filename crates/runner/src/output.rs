//! Crash-safe file output and stable hashing.
//!
//! Every file the runner produces — `results/*.txt`, the resume
//! manifest, `summary.json` — goes through [`atomic_write`]: the bytes
//! land in a temporary file in the destination directory, are fsynced,
//! and are renamed over the target in one step, so a process killed at
//! any instant leaves either the old complete file or the new complete
//! file, never a truncated hybrid. The append-only journal is the one
//! exception (see [`crate::journal`]); it is designed to tolerate a
//! torn tail instead.

use std::fs::{self, File, OpenOptions};
use std::io::{self};
use std::path::{Path, PathBuf};

use crate::chaos::{self, Site};
use crate::error::RunnerError;

/// Writes `bytes` to `path` atomically: temp file in the same
/// directory, fsync, rename over the destination, fsync the directory.
///
/// A crash mid-write leaves the previous contents of `path` (or no
/// file) intact; readers never observe a truncated file.
///
/// Every step is a [`chaos`] fail-point (temp create,
/// write, fsync, rename, directory fsync), so the crash-point recovery
/// tests can kill a publish at any instant and prove the
/// old-or-new-never-torn guarantee holds.
///
/// # Errors
///
/// Any I/O error creating, writing, syncing, or renaming the temp file.
/// (A failure to fsync the *directory* is ignored: some filesystems
/// refuse directory handles, and the rename itself is already durable
/// on the journaled filesystems we care about. A simulated-kill
/// "failure" there is the one exception — a dead process cannot shrug
/// anything off, so it propagates.)
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "atomic_write: no file name"))?
        .to_string_lossy()
        .into_owned();
    let tmp = match dir {
        Some(d) => d.join(format!(".{file_name}.tmp.{}", std::process::id())),
        None => Path::new(&format!(".{file_name}.tmp.{}", std::process::id())).to_path_buf(),
    };
    let result = (|| {
        let mut f = chaos::create(Site::PublishTmpCreate, || {
            OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp)
        })?;
        chaos::write_all(Site::PublishTmpWrite, &mut f, bytes)?;
        chaos::sync_all(Site::PublishTmpSync, &f)?;
        chaos::rename(Site::PublishRename, &tmp, path)?;
        if let Some(d) = dir {
            // Make the rename itself durable; tolerated failure (see
            // above) — except a simulated kill, which must take the
            // run down like any other crash point.
            if let Ok(dh) = File::open(d) {
                if let Err(e) = chaos::sync_all(Site::PublishDirSync, &dh) {
                    if chaos::is_sim_kill(&e) {
                        return Err(e);
                    }
                }
            }
        }
        Ok(())
    })();
    if let Err(e) = &result {
        // A real failure cleans up its temp file; a simulated kill does
        // not — a dead process leaves litter, which is exactly what
        // `clean_stale_tmp` sweeps on the next start.
        if !chaos::is_sim_kill(e) {
            let _ = fs::remove_file(&tmp);
        }
    }
    result
}

/// Lists a directory's entries, salvaging what it can.
///
/// # Errors
///
/// [`RunnerError::DirScan`] if the directory cannot be opened
/// (`salvaged` empty) or an entry fails mid-iteration (`salvaged`
/// holds every entry read before the failure) — callers that can
/// tolerate a truncated listing take it from `salvaged`.
pub fn scan_dir(dir: &Path) -> Result<Vec<PathBuf>, RunnerError> {
    let iter = fs::read_dir(dir).map_err(|source| RunnerError::DirScan {
        dir: dir.to_path_buf(),
        salvaged: Vec::new(),
        source,
    })?;
    let mut entries = Vec::new();
    for entry in iter {
        match entry {
            Ok(e) => entries.push(e.path()),
            Err(source) => {
                return Err(RunnerError::DirScan {
                    dir: dir.to_path_buf(),
                    salvaged: entries,
                    source,
                })
            }
        }
    }
    Ok(entries)
}

/// Sweeps `.{name}.tmp.{pid}` litter that a hard kill mid-
/// [`atomic_write`] can leave behind (the normal error path cleans up
/// after itself; SIGKILL cannot).
///
/// Returns the removed paths plus the scan error, if the listing was
/// truncated — the sweep proceeds over whatever entries were salvaged,
/// and a file that refuses to be removed is skipped rather than fatal
/// (the next sweep gets another chance).
pub fn clean_stale_tmp(dir: &Path) -> (Vec<PathBuf>, Option<RunnerError>) {
    let (entries, err) = match scan_dir(dir) {
        Ok(v) => (v, None),
        Err(e) => match &e {
            RunnerError::DirScan { salvaged, .. } => (salvaged.clone(), Some(e)),
        },
    };
    let mut removed = Vec::new();
    for path in entries {
        let is_tmp = path
            .file_name()
            .map(|n| n.to_string_lossy())
            .is_some_and(|n| n.starts_with('.') && n.contains(".tmp."));
        if is_tmp && fs::remove_file(&path).is_ok() {
            removed.push(path);
        }
    }
    (removed, err)
}

/// 64-bit FNV-1a over a byte string — the runner's stable fingerprint
/// function (journal output hashes, registry/config fingerprints).
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// [`fnv1a64`] over a string's UTF-8 bytes.
#[must_use]
pub fn hash_str(s: &str) -> u64 {
    fnv1a64(s.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::TempDir;

    #[test]
    fn atomic_write_round_trips_and_replaces() {
        let dir = TempDir::new("atomic_write");
        let path = dir.path().join("out.txt");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second, longer contents").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second, longer contents");
        // No temp litter left behind.
        let leftovers: Vec<_> = scan_dir(dir.path())
            .unwrap()
            .into_iter()
            .filter(|p| p.to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "stray temp files: {leftovers:?}");
    }

    #[test]
    fn scan_dir_lists_entries_and_reports_missing_dirs() {
        let dir = TempDir::new("scan_dir");
        atomic_write(&dir.path().join("a.txt"), b"a").unwrap();
        atomic_write(&dir.path().join("b.txt"), b"b").unwrap();
        let mut names: Vec<_> = scan_dir(dir.path())
            .unwrap()
            .into_iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(names, ["a.txt", "b.txt"]);

        let err = scan_dir(&dir.path().join("no_such_subdir")).unwrap_err();
        assert!(err.to_string().contains("after 0 entries"), "{err}");
        let RunnerError::DirScan { salvaged, .. } = err;
        assert!(salvaged.is_empty());
    }

    #[test]
    fn clean_stale_tmp_sweeps_only_temp_litter() {
        let dir = TempDir::new("clean_stale_tmp");
        atomic_write(&dir.path().join("keep.txt"), b"keep").unwrap();
        // Simulated crash debris from two different pids.
        fs::write(dir.path().join(".out.txt.tmp.1234"), b"torn").unwrap();
        fs::write(dir.path().join(".sum.json.tmp.99"), b"torn").unwrap();
        let (removed, err) = clean_stale_tmp(dir.path());
        assert!(err.is_none());
        assert_eq!(removed.len(), 2, "removed: {removed:?}");
        assert!(dir.path().join("keep.txt").exists());
        assert!(!dir.path().join(".out.txt.tmp.1234").exists());

        // A missing directory degrades to an error + empty sweep, not a
        // panic.
        let (removed, err) = clean_stale_tmp(&dir.path().join("gone"));
        assert!(removed.is_empty());
        assert!(err.is_some());
    }

    #[test]
    fn fnv_is_stable_and_discriminating() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(hash_str("fig5"), hash_str("fig6"));
        assert_eq!(hash_str("fig5"), hash_str("fig5"));
    }
}
