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
//! * **Orchestration** ([`run_suite`]) — a worker pool that runs
//!   every attempt through [`supervised::run`]: a per-experiment
//!   deadline (the job-level analogue of the simulator's
//!   `SimConfig::watchdog_cycles`) and panic isolation via
//!   `catch_unwind`, so one wedged or crashing experiment degrades to
//!   a recorded partial result instead of aborting the suite, with up
//!   to [`SuiteOptions::max_attempts`] attempts per experiment. It is
//!   the only way an experiment runs: `runall` runs the whole suite
//!   through it, and each per-figure bench bin runs its one
//!   experiment through it.
//! * **Checkpoint/resume** ([`Journal`], [`Manifest`]) — each completed
//!   experiment is journaled with an fsynced append; a restarted run
//!   (`runall --resume`) skips completed experiments, refuses to mix
//!   runs whose seed/config hash differ, and re-verifies determinism by
//!   re-running a journaled experiment and comparing bytes.
//! * **Crash-safe output** ([`atomic_write`]) — `results/*.txt` and
//!   `results/summary.json` are published by temp-file + rename +
//!   fsync, so a killed process never leaves a truncated file.
//! * **Partial results** — a failed, panicked or wedged experiment's
//!   `<name>.txt` keeps what it printed and ends with a
//!   `[pandora-runner] PARTIAL RESULTS: <reason>` line, whether
//!   `runall` or a bench bin ran it.
//! * **Chaos** ([`chaos`]) — a deterministic, seeded fail-point layer
//!   every journal/publish I/O operation is routed through, so storage
//!   faults (ENOSPC, failed fsyncs/renames, short writes) and simulated
//!   kills at every crash point are first-class, testable inputs
//!   (`runall --chaos`), with injection counters surfaced in the suite
//!   report's `health` section.
//! * **Shared infrastructure** ([`json`], [`supervised`]) — the
//!   workspace's one JSON codec and one deadline primitive, used by the
//!   suite and by the scan service alike.
//!
//! The crate has no dependency: it neither runs nor links the
//! simulator.
//!
//! The experiments themselves live in `pandora-bench`
//! (`pandora_bench::experiments::registry()`); the `runall` binary
//! there drives this crate.

pub mod chaos;
pub mod error;
pub mod experiment;
pub mod journal;
pub mod json;
pub mod orchestrator;
pub mod output;
pub mod registry;
pub mod supervised;

#[doc(hidden)]
pub mod test_util;

pub use chaos::{ChaosEvent, ChaosKind, ChaosPlan, ChaosStats};
pub use experiment::{Ctx, Experiment, Failure, Profile, RunFn};
pub use journal::{Journal, JournalEntry, Manifest};
pub use orchestrator::{
    run_suite, ExperimentReport, Status, SuiteError, SuiteHealth, SuiteOptions, SuiteReport,
};
pub use error::RunnerError;
pub use output::{atomic_write, clean_stale_tmp, fnv1a64, hash_str, scan_dir};
pub use registry::{glob_match, Registry};
