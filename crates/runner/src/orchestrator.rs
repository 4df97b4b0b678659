//! The suite orchestrator: a worker pool that runs every experiment
//! attempt through the [`supervised`] deadline primitive, with bounded
//! retries, checkpoint/resume, and graceful storage degradation,
//! publishing crash-safe results.
//!
//! [`run_suite`] is the one way an experiment runs: `runall`, the
//! benchmark's `suite` workload and every per-figure bin (one
//! experiment, one attempt, into a scratch directory) all go through it.
//!
//! Failure containment mirrors the simulator's own philosophy
//! ("failures are data, not aborts", DESIGN.md §6) one level up:
//!
//! * a panicking attempt is caught by `catch_unwind` on its own thread
//!   and retried up to [`SuiteOptions::max_attempts`] attempts, then
//!   recorded as a partial result;
//! * a *wedged* attempt — the job-level analogue of
//!   `SimConfig::watchdog_cycles` — overruns its wall-clock deadline;
//!   its thread is left behind, whatever the experiment had printed is
//!   salvaged, and the worker goes on to the next job, so a wedge costs
//!   one abandoned thread and never a worker, and the wedge is not
//!   retried;
//! * storage faults (a failed journal fsync, an unpublishable result
//!   file) degrade the run — journaling stops, the failure is counted
//!   in [`SuiteHealth`] — instead of aborting it. The one exception is
//!   a simulated kill from the [`chaos`] layer, which
//!   escalates to [`SuiteError::Crashed`]: crash tests *want* the
//!   abrupt stop.
//!
//! Only infrastructure failures that make results untrustworthy (an
//! unwritable results directory, a refused resume, a determinism
//! mismatch) fail the suite itself.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use crate::chaos::{self, ChaosPlan};
use crate::experiment::{Ctx, Experiment, Profile};
use crate::journal::{Journal, JournalEntry, Manifest};
use crate::json::{obj, Json};
use crate::output::{atomic_write, hash_str};
use crate::registry::Registry;
use crate::supervised::{self, Supervised};

/// Final status of one experiment in a suite run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Status {
    /// Completed cleanly; results are full.
    Ok,
    /// The experiment failed, panicked, or overran its deadline after
    /// all retries; whatever output it produced is recorded and flagged
    /// partial. The suite survives.
    Partial {
        /// What went wrong (error message, panic payload, or deadline).
        reason: String,
    },
    /// An infrastructure-level failure: the run's results cannot be
    /// trusted (e.g. a resumed experiment re-verified to different
    /// bytes). Fails the suite.
    Failed {
        /// What went wrong.
        reason: String,
    },
}

impl Status {
    /// The summary/journal keyword (`ok` / `partial` / `failed`).
    #[must_use]
    pub fn keyword(&self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Partial { .. } => "partial",
            Status::Failed { .. } => "failed",
        }
    }

    /// The reason, if any.
    #[must_use]
    pub fn reason(&self) -> Option<&str> {
        match self {
            Status::Ok => None,
            Status::Partial { reason } | Status::Failed { reason } => Some(reason),
        }
    }
}

/// One experiment's row in the suite report / `summary.json`.
#[derive(Clone, Debug)]
pub struct ExperimentReport {
    /// Experiment name.
    pub name: String,
    /// Final status.
    pub status: Status,
    /// Wall time of the run (zero for entries skipped on resume).
    pub wall: Duration,
    /// Retries consumed (0 = first attempt).
    pub retries: u32,
    /// Whether this entry was taken from the journal (skipped) on
    /// resume rather than re-run.
    pub resumed: bool,
    /// Whether this entry was re-run on resume to verify determinism.
    pub reverified: bool,
    /// FNV-1a of the experiment's text output.
    pub output_hash: u64,
    /// Output length in bytes.
    pub output_bytes: u64,
}

/// Operational health of a suite run: abandoned attempt threads,
/// storage degradation, and chaos-injection accounting. Serialized as
/// the `health` object of `summary.json`.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct SuiteHealth {
    /// Attempt threads left running because their experiment overran
    /// its deadline.
    pub workers_abandoned: u32,
    /// Whether a journal I/O failure disabled checkpointing mid-run
    /// (the run completed, but `--resume` will re-run its experiments).
    pub journal_degraded: bool,
    /// Result/manifest/summary publishes that failed and were skipped.
    pub publish_failures: u32,
    /// Storage faults injected by the chaos layer.
    pub faults_injected: u64,
    /// Injected faults the suite survived (all but a simulated kill).
    pub faults_survived: u64,
    /// Distinct injected fault kinds, in stable order.
    pub fault_kinds: Vec<&'static str>,
    /// Total journal/publish I/O operations routed through the chaos
    /// layer (0 when no chaos plan was installed).
    pub io_ops: u64,
    /// Per-site operation counts from the chaos layer, in
    /// [`chaos::Site::ALL`] order. In-memory detail for tests and
    /// tooling; `summary.json` carries only the total.
    pub ops_by_site: Vec<(&'static str, u64)>,
}

/// The full result of a suite run.
#[derive(Clone, Debug)]
pub struct SuiteReport {
    /// Profile the suite ran under.
    pub profile: Profile,
    /// Suite seed.
    pub seed: u64,
    /// Worker threads used.
    pub jobs: usize,
    /// Identity hash of the run (see
    /// [`Registry::run_hash`](crate::Registry::run_hash)).
    pub run_hash: u64,
    /// Per-experiment rows, in registry order.
    pub experiments: Vec<ExperimentReport>,
    /// Supervision/degradation/chaos accounting for the run.
    pub health: SuiteHealth,
}

impl SuiteReport {
    /// `true` when every experiment is `ok`.
    #[must_use]
    pub fn all_ok(&self) -> bool {
        self.experiments.iter().all(|e| e.status == Status::Ok)
    }

    /// `true` when no experiment is worse than `partial`.
    #[must_use]
    pub fn none_failed(&self) -> bool {
        !self
            .experiments
            .iter()
            .any(|e| matches!(e.status, Status::Failed { .. }))
    }

    /// Renders the machine-readable `summary.json` document.
    #[must_use]
    pub fn to_json(&self) -> String {
        self.summary(false).pretty()
    }

    /// Renders the *canonical* summary document
    /// (`summary.canonical.json`): only the run identity and the
    /// deterministic per-experiment facts (name, status, output hash
    /// and length). Unlike [`SuiteReport::to_json`] it contains no wall
    /// times, retry counts, resume provenance, or health counters, so
    /// an interrupted-then-resumed run and an uninterrupted run of the
    /// same suite produce byte-identical documents — the property the
    /// crash-point recovery tests pin.
    #[must_use]
    pub fn to_json_canonical(&self) -> String {
        self.summary(true).pretty()
    }

    /// The summary document; `canonical` drops every field that is not
    /// a deterministic fact of the run.
    fn summary(&self, canonical: bool) -> Json {
        let hex = |v: u64| Json::Str(format!("{v:#018x}"));
        let mut doc = vec![
            ("version", Json::from(1)),
            ("profile", Json::from(self.profile.as_str())),
            ("seed", hex(self.seed)),
            ("run_hash", hex(self.run_hash)),
        ];
        if !canonical {
            let h = &self.health;
            doc.push(("jobs", Json::from(self.jobs as u64)));
            doc.push((
                "health",
                obj(vec![
                    ("workers_abandoned", Json::from(u64::from(h.workers_abandoned))),
                    ("journal_degraded", Json::Bool(h.journal_degraded)),
                    ("publish_failures", Json::from(u64::from(h.publish_failures))),
                    ("faults_injected", Json::from(h.faults_injected)),
                    ("faults_survived", Json::from(h.faults_survived)),
                    (
                        "fault_kinds",
                        Json::Arr(h.fault_kinds.iter().map(|&k| Json::from(k)).collect()),
                    ),
                    ("io_ops", Json::from(h.io_ops)),
                ]),
            ));
        }
        let rows = self.experiments.iter().map(|e| {
            let mut row = vec![
                ("name", Json::from(e.name.as_str())),
                ("status", Json::from(e.status.keyword())),
            ];
            if !canonical {
                row.push(("partial", Json::Bool(matches!(e.status, Status::Partial { .. }))));
                if let Some(reason) = e.status.reason() {
                    row.push(("reason", Json::from(reason)));
                }
                row.extend([
                    ("wall_ms", Json::from(e.wall.as_millis() as u64)),
                    ("retries", Json::from(u64::from(e.retries))),
                    ("resumed", Json::Bool(e.resumed)),
                    ("reverified", Json::Bool(e.reverified)),
                ]);
            }
            row.push(("output_hash", hex(e.output_hash)));
            row.push(("output_bytes", Json::from(e.output_bytes)));
            obj(row)
        });
        doc.push(("experiments", Json::Arr(rows.collect())));
        obj(doc)
    }
}

/// Options for one suite run.
#[derive(Clone, Debug)]
pub struct SuiteOptions {
    /// Profile to run every experiment under.
    pub profile: Profile,
    /// Worker threads (clamped to at least 1).
    pub jobs: usize,
    /// Fleet worker threads *per experiment* (0 = the process-wide
    /// fleet default): how many machines a single experiment's fleet
    /// grids step concurrently. Total thread pressure is roughly
    /// `jobs × fleet_threads`, so suites raising `jobs` should keep
    /// this at 1 and vice versa.
    pub fleet_threads: usize,
    /// Directory for `*.txt` outputs, the journal/manifest, and
    /// `summary.json`.
    pub results_dir: PathBuf,
    /// Select experiments by glob (`None` = all).
    pub only: Option<String>,
    /// Resume from the journal instead of starting fresh.
    pub resume: bool,
    /// On resume, how many journaled-complete experiments to re-run and
    /// compare byte-for-byte (determinism re-verification).
    pub reverify: usize,
    /// Attempts per experiment for failures and panics (values below 1
    /// behave as 1); deadline overruns are never retried. The suite's
    /// only attempt cap.
    pub max_attempts: u32,
    /// Suite seed recorded in the manifest and handed to experiments.
    pub seed: u64,
    /// Override every experiment's own deadline (mainly for tests).
    pub deadline_override: Option<Duration>,
    /// Print one progress line per experiment to stdout.
    pub progress: bool,
    /// Pass-through flags handed to every experiment's [`Ctx`] (read
    /// with [`Ctx::has_opt`]), such as e9's `--full-slice`.
    pub args: Vec<String>,
    /// Storage fault plan to install for the run (`None` = no chaos).
    /// Installing even an empty plan turns on I/O accounting in
    /// [`SuiteHealth`].
    pub chaos: Option<ChaosPlan>,
    /// When a resume is refused (missing/corrupt manifest or journal),
    /// fall back to a fresh run instead of erroring. Used by crash
    /// recovery, where a kill may predate the manifest.
    pub resume_fallback: bool,
}

impl Default for SuiteOptions {
    fn default() -> SuiteOptions {
        SuiteOptions {
            profile: Profile::Full,
            jobs: 1,
            fleet_threads: 0,
            results_dir: PathBuf::from("results"),
            only: None,
            resume: false,
            reverify: 1,
            max_attempts: 2,
            seed: 0,
            deadline_override: None,
            progress: false,
            args: Vec::new(),
            chaos: None,
            resume_fallback: false,
        }
    }
}

/// An infrastructure failure that aborts the whole suite.
#[derive(Debug)]
pub enum SuiteError {
    /// Filesystem trouble (results dir, journal, manifest, outputs).
    Io(io::Error),
    /// `--resume` was requested but the journal/manifest do not
    /// describe this run (or are missing/corrupt).
    ResumeRefused(String),
    /// A simulated kill from the [`chaos`] layer took the
    /// run down mid-flight — the expected outcome of a crash-point
    /// test, never of a production run.
    Crashed(String),
}

impl std::fmt::Display for SuiteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SuiteError::Io(e) => write!(f, "suite I/O failure: {e}"),
            SuiteError::ResumeRefused(why) => write!(f, "refusing to resume: {why}"),
            SuiteError::Crashed(why) => write!(f, "suite crashed: {why}"),
        }
    }
}

impl std::error::Error for SuiteError {}

impl From<io::Error> for SuiteError {
    fn from(e: io::Error) -> SuiteError {
        SuiteError::Io(e)
    }
}

/// Outcome of one job (after retries): status plus the captured
/// output snapshot.
#[derive(Debug)]
struct ExecOutcome {
    /// Final status (never [`Status::Failed`]: execution failures
    /// degrade to partial; only a reverify escalates).
    status: Status,
    /// Everything the experiment wrote, possibly partial.
    output: String,
    /// Wall time across all attempts.
    wall: Duration,
    /// Retries consumed.
    retries: u32,
    /// Whether the last attempt overran its deadline and its thread was
    /// left running.
    abandoned: bool,
}

#[derive(Clone, Copy, Debug)]
enum JobKind {
    Run,
    Reverify { expected_hash: u64 },
}

type Job = (usize, JobKind);

/// One worker: takes jobs from `jobs` until none are left, runs each
/// and sends its outcome to the main thread, which publishes it.
fn work(
    jobs: &[Job],
    next: &AtomicUsize,
    exps: &[&Experiment],
    opts: &SuiteOptions,
    tx: &mpsc::Sender<(usize, JobKind, ExecOutcome)>,
) {
    while let Some(&(index, kind)) = jobs.get(next.fetch_add(1, Ordering::Relaxed)) {
        let outcome = run_job(exps[index], opts);
        if tx.send((index, kind, outcome)).is_err() {
            return; // the main thread stopped (a simulated kill)
        }
    }
}

/// Runs experiment `exp` attempt by attempt, each through
/// [`supervised::run`] on a thread named after the experiment, for at
/// most [`SuiteOptions::max_attempts`] attempts. Failures, panics and
/// refused threads are retried; an overrun is not (a wedge would wedge
/// again and cost another full deadline).
fn run_job(exp: &Experiment, opts: &SuiteOptions) -> ExecOutcome {
    let deadline = opts.deadline_override.unwrap_or(exp.deadline);
    let start = Instant::now();
    let mut status = None;
    let mut used: u32 = 0;
    let mut output = String::new();
    let mut abandoned = false;
    for attempt in 1..=opts.max_attempts.max(1) {
        used = attempt;
        let ctx = Ctx::new(opts.profile, opts.seed, opts.args.clone())
            .with_fleet_threads(opts.fleet_threads);
        let (run, body) = (exp.run, ctx.clone());
        let result = supervised::run(&format!("pandora-{}", exp.name), deadline, move || {
            run(&body)
        });
        // An overrun attempt may still be writing; this is what it had
        // printed by its deadline.
        output = ctx.output();
        let reason = match result {
            Supervised::Returned(Ok(())) => {
                status = Some(Status::Ok);
                break;
            }
            Supervised::Returned(Err(f)) => format!("failed after {used} attempt(s): {f}"),
            Supervised::NotStarted(e) => format!("no thread after {used} attempt(s): {e}"),
            Supervised::Panicked(msg) => format!("panicked after {used} attempt(s): {msg}"),
            Supervised::Overran => {
                abandoned = true;
                status = Some(Status::Partial {
                    reason: format!(
                        "deadline of {:.1}s exceeded on attempt {used} \
                         (wedged; attempt thread abandoned)",
                        deadline.as_secs_f64()
                    ),
                });
                break;
            }
        };
        status = Some(Status::Partial { reason });
    }
    ExecOutcome {
        status: status.expect("at least one attempt"),
        output,
        wall: start.elapsed(),
        retries: used.saturating_sub(1),
        abandoned,
    }
}

/// Appends `entry` to the journal, degrading (disable journaling, keep
/// running) on real I/O errors and escalating simulated kills.
fn journal_checkpoint(
    journal: &mut Option<Journal>,
    health: &mut SuiteHealth,
    entry: &JournalEntry,
    progress: bool,
) -> Result<(), SuiteError> {
    let Some(j) = journal.as_mut() else {
        return Ok(());
    };
    match j.append(entry) {
        Ok(()) => Ok(()),
        Err(e) if chaos::is_sim_kill(&e) => Err(SuiteError::Crashed(e.to_string())),
        Err(e) => {
            health.journal_degraded = true;
            *journal = None;
            if progress {
                println!(
                    "[pandora-runner] journal append failed: {e} \
                     (checkpointing disabled; --resume will re-run this suite)"
                );
            }
            Ok(())
        }
    }
}

/// Publishes `bytes` atomically, degrading (count and continue) on real
/// I/O errors and escalating simulated kills. Returns whether the bytes
/// actually landed — callers must not checkpoint state that depends on
/// an unpublished file.
fn publish(
    path: &Path,
    bytes: &[u8],
    health: &mut SuiteHealth,
    progress: bool,
) -> Result<bool, SuiteError> {
    match atomic_write(path, bytes) {
        Ok(()) => Ok(true),
        Err(e) if chaos::is_sim_kill(&e) => Err(SuiteError::Crashed(e.to_string())),
        Err(e) => {
            health.publish_failures += 1;
            if progress {
                println!(
                    "[pandora-runner] publish of {} failed: {e} (continuing)",
                    path.display()
                );
            }
            Ok(false)
        }
    }
}

/// Finalizes one job: publish its output, transform reverify verdicts,
/// checkpoint the journal, print progress, fill the report row.
#[allow(clippy::too_many_arguments)]
fn record_outcome(
    exp: &Experiment,
    index: usize,
    kind: JobKind,
    outcome: &ExecOutcome,
    opts: &SuiteOptions,
    journal: &mut Option<Journal>,
    health: &mut SuiteHealth,
    reports: &mut [Option<ExperimentReport>],
    done: usize,
    to_run: usize,
) -> Result<(), SuiteError> {
    let output_hash = hash_str(&outcome.output);
    let output_bytes = outcome.output.len() as u64;
    let mut status = outcome.status.clone();
    let mut was_reverify = false;
    let mut published = true;
    match kind {
        JobKind::Run => {
            // Publish the (possibly partial) output atomically.
            let path = opts.results_dir.join(format!("{}.txt", exp.name));
            let mut text = outcome.output.clone();
            if let Some(reason) = status.reason() {
                let _ = write!(text, "\n[pandora-runner] PARTIAL RESULTS: {reason}\n");
            }
            published = publish(&path, text.as_bytes(), health, opts.progress)?;
        }
        JobKind::Reverify { expected_hash } => {
            was_reverify = true;
            status = match status {
                Status::Ok if output_hash == expected_hash => Status::Ok,
                Status::Ok => Status::Failed {
                    reason: format!(
                        "determinism re-verification failed: recorded output hash \
                         {expected_hash:#x}, re-run produced {output_hash:#x}"
                    ),
                },
                other => Status::Failed {
                    reason: format!(
                        "determinism re-verification could not complete: {}",
                        other.reason().unwrap_or("unknown")
                    ),
                },
            };
            // A matching reverify also refreshes the text file
            // (byte-identical by construction).
            if status == Status::Ok {
                let path = opts.results_dir.join(format!("{}.txt", exp.name));
                // A failed refresh leaves the previous (byte-identical)
                // file in place; nothing to degrade.
                let _ = publish(&path, outcome.output.as_bytes(), health, opts.progress)?;
            }
        }
    }
    // Checkpoint: after this fsync, a crash cannot lose the entry. An
    // entry whose results file failed to publish is deliberately NOT
    // checkpointed — journaling it as done would make a later --resume
    // skip an experiment that has no results file on disk.
    if !was_reverify && published {
        journal_checkpoint(
            journal,
            health,
            &JournalEntry {
                name: exp.name.to_string(),
                status: status.keyword().to_string(),
                wall_ms: outcome.wall.as_millis() as u64,
                retries: outcome.retries,
                output_hash,
                output_bytes,
            },
            opts.progress,
        )?;
    }
    if opts.progress {
        println!(
            "[{done:>2}/{to_run}] {:<28} {:<8} {:>7.2}s{}{}",
            exp.name,
            status.keyword(),
            outcome.wall.as_secs_f64(),
            if outcome.retries > 0 {
                format!("  ({} retries)", outcome.retries)
            } else {
                String::new()
            },
            status
                .reason()
                .map(|r| format!("  [{r}]"))
                .unwrap_or_default(),
        );
    }
    reports[index] = Some(ExperimentReport {
        name: exp.name.to_string(),
        status,
        wall: outcome.wall,
        retries: outcome.retries,
        resumed: false,
        reverified: was_reverify,
        output_hash,
        output_bytes,
    });
    Ok(())
}

/// Runs the suite described by `opts` over `registry`.
///
/// Writes, all crash-safely:
///
/// * `results/<name>.txt` per completed experiment (atomic replace),
/// * `results/.runall.journal` (fsynced append per completion),
/// * `results/.runall.manifest` (atomic, at suite start),
/// * `results/summary.canonical.json` (atomic, at suite end; only the
///   deterministic facts — the crash-recovery comparison artifact),
/// * `results/summary.json` (atomic, at suite end).
///
/// `opts.jobs` worker threads take the queued jobs and run each attempt
/// through [`supervised::run`]; an overrun abandons that attempt's
/// thread. Only the calling thread publishes and journals. Storage
/// faults degrade the run (see [`SuiteHealth`]) rather than aborting
/// it.
///
/// # Errors
///
/// [`SuiteError::ResumeRefused`] when `--resume` does not match the
/// recorded manifest (unless [`SuiteOptions::resume_fallback`]);
/// [`SuiteError::Crashed`] when an injected chaos kill fired;
/// [`SuiteError::Io`] for unrecoverable filesystem failures and a
/// refused worker thread. Per-experiment failures are *not* errors —
/// they come back as [`Status::Partial`] / [`Status::Failed`] rows in
/// the report.
#[allow(clippy::too_many_lines)]
pub fn run_suite(registry: &Registry, opts: &SuiteOptions) -> Result<SuiteReport, SuiteError> {
    let chaos_guard = opts.chaos.as_ref().map(chaos::install);
    let selected = registry.select(opts.only.as_deref());
    let run_hash = registry.run_hash(&selected, opts.profile, opts.seed);
    let manifest = Manifest {
        profile: opts.profile,
        seed: opts.seed,
        run_hash,
    };
    let mut health = SuiteHealth::default();

    fs::create_dir_all(&opts.results_dir)?;
    // Sweep `.{name}.tmp.{pid}` debris a hard-killed previous run may
    // have left (atomic_write's own error path cleans up; SIGKILL
    // cannot). Best-effort: a truncated scan sweeps what it salvaged.
    let (swept, scan_err) = crate::output::clean_stale_tmp(&opts.results_dir);
    if opts.progress {
        if !swept.is_empty() {
            println!("[pandora-runner] swept {} stale temp file(s)", swept.len());
        }
        if let Some(e) = scan_err {
            println!("[pandora-runner] temp sweep incomplete: {e}");
        }
    }
    let journal_path = opts.results_dir.join(".runall.journal");
    let manifest_path = opts.results_dir.join(".runall.manifest");

    // Resume bookkeeping: which experiments are already done, and with
    // what recorded output hash.
    let mut completed: Vec<JournalEntry> = Vec::new();
    let mut journal: Option<Journal> = None;
    let mut start_fresh = !opts.resume;
    if opts.resume {
        let resumed = (|| -> Result<(Vec<JournalEntry>, Journal), SuiteError> {
            let recorded = Manifest::load(&manifest_path)
                .map_err(|e| SuiteError::ResumeRefused(format!("cannot read manifest: {e}")))?;
            recorded
                .check_matches(&manifest)
                .map_err(SuiteError::ResumeRefused)?;
            Journal::recover(&journal_path).map_err(|e| {
                if chaos::is_sim_kill(&e) {
                    SuiteError::Crashed(e.to_string())
                } else {
                    SuiteError::ResumeRefused(format!("cannot recover journal: {e}"))
                }
            })
        })();
        match resumed {
            Ok((entries, j)) => {
                completed = entries;
                journal = Some(j);
            }
            Err(e @ SuiteError::Crashed(_)) => return Err(e),
            Err(e) if opts.resume_fallback => {
                if opts.progress {
                    println!("[pandora-runner] {e}; falling back to a fresh run");
                }
                start_fresh = true;
            }
            Err(e) => return Err(e),
        }
    }
    if start_fresh {
        match manifest.write(&manifest_path) {
            Ok(()) => {}
            Err(e) if chaos::is_sim_kill(&e) => return Err(SuiteError::Crashed(e.to_string())),
            Err(e) => {
                // Degraded: the run proceeds, but a later --resume will
                // be refused for want of a manifest.
                health.publish_failures += 1;
                if opts.progress {
                    println!("[pandora-runner] manifest write failed: {e} (continuing)");
                }
            }
        }
        journal = match Journal::create(&journal_path) {
            Ok(j) => Some(j),
            Err(e) if chaos::is_sim_kill(&e) => return Err(SuiteError::Crashed(e.to_string())),
            Err(e) => {
                health.journal_degraded = true;
                if opts.progress {
                    println!(
                        "[pandora-runner] journal create failed: {e} \
                         (checkpointing disabled for this run)"
                    );
                }
                None
            }
        };
    }

    let find_completed = |name: &str| completed.iter().find(|e| e.name == name && e.status == "ok");

    // Build the job list in registry order: run / reverify / skip.
    let mut reports: Vec<Option<ExperimentReport>> = vec![None; selected.len()];
    let mut pending: Vec<Job> = Vec::new();
    let mut reverified = 0usize;
    for (i, exp) in selected.iter().enumerate() {
        match find_completed(exp.name) {
            Some(entry) if reverified < opts.reverify => {
                reverified += 1;
                pending.push((
                    i,
                    JobKind::Reverify {
                        expected_hash: entry.output_hash,
                    },
                ));
            }
            Some(entry) => {
                reports[i] = Some(ExperimentReport {
                    name: exp.name.to_string(),
                    status: Status::Ok,
                    wall: Duration::from_millis(entry.wall_ms),
                    retries: entry.retries,
                    resumed: true,
                    reverified: false,
                    output_hash: entry.output_hash,
                    output_bytes: entry.output_bytes,
                });
            }
            None => pending.push((i, JobKind::Run)),
        }
    }

    let to_run = pending.len();
    let workers_planned = opts.jobs.max(1).min(to_run.max(1));
    // The workers' cursor into `pending`. It only hands out indices into
    // a list fixed before they start, so it publishes nothing: Relaxed.
    let next = AtomicUsize::new(0);
    thread::scope(|s| -> Result<(), SuiteError> {
        let (tx, rx) = mpsc::channel();
        for id in 0..workers_planned {
            let (tx, pending, next, selected) = (tx.clone(), &pending, &next, &selected);
            thread::Builder::new()
                .name(format!("pandora-worker-{id}"))
                .spawn_scoped(s, move || work(pending, next, selected, opts, &tx))?;
        }
        drop(tx);
        // Returning early drops `rx`: each worker stops after its
        // current job, and the scope waits for that.
        for (done, (index, kind, outcome)) in (1..).zip(rx) {
            health.workers_abandoned += u32::from(outcome.abandoned);
            record_outcome(
                selected[index],
                index,
                kind,
                &outcome,
                opts,
                &mut journal,
                &mut health,
                &mut reports,
                done,
                to_run,
            )?;
        }
        Ok(())
    })?;

    // Health finalization: chaos stats.
    if let Some(guard) = &chaos_guard {
        let stats = guard.stats();
        health.faults_injected = stats.injected;
        health.faults_survived = stats.injected - u64::from(stats.crashed);
        health.fault_kinds = stats.kinds_injected;
        health.io_ops = stats.total_ops;
        health.ops_by_site = stats.ops_by_site;
    }

    let experiments = reports
        .into_iter()
        .map(|r| r.expect("every selected experiment reported"))
        .collect();
    let report = SuiteReport {
        profile: opts.profile,
        seed: opts.seed,
        jobs: workers_planned,
        run_hash,
        experiments,
        health,
    };
    // The canonical document first (the crash-recovery artifact), then
    // the full summary. Both degrade on real I/O failure.
    let mut end_health = report.health.clone();
    let _ = publish(
        &opts.results_dir.join("summary.canonical.json"),
        report.to_json_canonical().as_bytes(),
        &mut end_health,
        opts.progress,
    )?;
    let _ = publish(
        &opts.results_dir.join("summary.json"),
        report.to_json().as_bytes(),
        &mut end_health,
        opts.progress,
    )?;
    Ok(report)
}
