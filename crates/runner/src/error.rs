//! Structured runner errors.
//!
//! The orchestration layer mostly speaks `io::Error` (file I/O) and
//! [`crate::orchestrator::SuiteError`] (suite-level refusals). This
//! module covers the gap in between: filesystem operations that can
//! fail *partway* and where the partial result is still worth
//! returning. The canonical case is a directory scan — `read_dir`
//! yields entries one at a time, and an entry-level failure (an NFS
//! hiccup, a file deleted mid-iteration on some platforms) used to
//! abort the whole scan via `unwrap`. [`RunnerError::DirScan`] instead
//! carries both the underlying error and every entry read before it,
//! so callers can degrade to the salvaged listing instead of crashing.

use std::fmt;
use std::io;
use std::path::PathBuf;

/// A structured, partially-recoverable runner error.
#[derive(Debug)]
pub enum RunnerError {
    /// A directory scan failed — either opening the directory (then
    /// `salvaged` is empty) or reading an entry mid-iteration (then
    /// `salvaged` holds every entry read before the failure, and the
    /// caller may choose to proceed with the truncated listing).
    DirScan {
        /// The directory being scanned.
        dir: PathBuf,
        /// Entries successfully read before the failure.
        salvaged: Vec<PathBuf>,
        /// The underlying I/O error.
        source: io::Error,
    },
}

impl fmt::Display for RunnerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunnerError::DirScan {
                dir,
                salvaged,
                source,
            } => write!(
                f,
                "directory scan of {} failed after {} entries: {source}",
                dir.display(),
                salvaged.len()
            ),
        }
    }
}

impl std::error::Error for RunnerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunnerError::DirScan { source, .. } => Some(source),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn dir_scan_reports_salvage_count_and_source() {
        let err = RunnerError::DirScan {
            dir: PathBuf::from("/nowhere/results"),
            salvaged: vec![PathBuf::from("a.txt"), PathBuf::from("b.txt")],
            source: io::Error::other("stale NFS handle"),
        };
        let msg = err.to_string();
        assert!(msg.contains("/nowhere/results"), "{msg}");
        assert!(msg.contains("after 2 entries"), "{msg}");
        assert!(err.source().is_some());
        let RunnerError::DirScan { salvaged, .. } = err;
        assert_eq!(
            salvaged,
            vec![PathBuf::from("a.txt"), PathBuf::from("b.txt")]
        );
    }
}
