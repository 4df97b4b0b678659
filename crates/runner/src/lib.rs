#![warn(missing_docs)]

//! # pandora-runner
//!
//! Resilient experiment orchestration for the Pandora reproduction:
//! the paper's evidence is a suite of long-running experiments (Fig
//! 2–7, Tables I–II, E9–E15), and this crate is the runtime that makes
//! regenerating that suite repeatable and crash-safe.
//!
//! * **Registry** ([`Registry`], [`Experiment`]) — every table, figure,
//!   and e-experiment registered under a stable name with a *smoke* and
//!   a *full* [`Profile`], a per-experiment wall-clock deadline, and a
//!   configuration fingerprint.
//! * **Orchestration** ([`run_suite`]) — a thread pool with
//!   per-experiment deadlines (the job-level analogue of the
//!   simulator's `SimConfig::watchdog_cycles`), panic isolation via
//!   `catch_unwind` (one wedged or crashing experiment degrades to a
//!   recorded partial result instead of aborting the suite), and
//!   retry-with-backoff through
//!   [`pandora_channels::retry::RetryPolicy`].
//! * **Checkpoint/resume** ([`Journal`], [`Manifest`]) — each completed
//!   experiment is journaled with an fsynced append; a restarted run
//!   (`runall --resume`) skips completed experiments, refuses to mix
//!   runs whose seed/config hash differ, and re-verifies determinism by
//!   re-running a journaled experiment and comparing bytes.
//! * **Crash-safe output** ([`atomic_write`]) — `results/*.txt` and
//!   `results/summary.json` are published by temp-file + rename +
//!   fsync, so a killed process never leaves a truncated file.
//! * **Partial results** ([`partial_results`]) — the shared standalone
//!   exit protocol every bench bin uses.
//! * **Chaos** ([`chaos`]) — a deterministic, seeded fail-point layer
//!   every journal/publish I/O operation is routed through, so storage
//!   faults (ENOSPC, failed fsyncs/renames, short writes) and simulated
//!   kills at every crash point are first-class, testable inputs
//!   (`runall --chaos`), with injection counters surfaced in the suite
//!   report's `health` section.
//! * **Shared infrastructure** ([`json`], [`breaker`]) — the workspace's
//!   one JSON codec and one circuit breaker, used by the suite and by
//!   the scan service alike.
//!
//! The experiments themselves live in `pandora-bench`
//! (`pandora_bench::experiments::registry()`); the `runall` binary
//! there drives this crate.

pub mod breaker;
pub mod chaos;
pub mod error;
pub mod experiment;
pub mod journal;
pub mod json;
pub mod orchestrator;
pub mod output;
pub mod partial_results;
pub mod registry;

#[doc(hidden)]
pub mod test_util;

pub use chaos::{ChaosEvent, ChaosKind, ChaosPlan, ChaosStats};
pub use experiment::{Ctx, Experiment, Failure, Profile, RunFn};
pub use journal::{Journal, JournalEntry, Manifest};
pub use orchestrator::{
    execute, run_suite, ExecOutcome, ExperimentReport, Status, SuiteError, SuiteHealth,
    SuiteOptions, SuiteReport,
};
pub use error::RunnerError;
pub use output::{atomic_write, clean_stale_tmp, fnv1a64, hash_str, scan_dir};
pub use registry::{glob_match, Registry};
