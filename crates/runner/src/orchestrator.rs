//! The suite orchestrator: a *supervised* worker pool with
//! per-experiment deadlines, panic isolation, bounded retries,
//! circuit breakers, checkpoint/resume, and graceful storage
//! degradation, publishing crash-safe results.
//!
//! Failure containment mirrors the simulator's own philosophy
//! ("failures are data, not aborts", DESIGN.md §6) one level up:
//!
//! * a panicking experiment is caught by `catch_unwind` on its worker
//!   and recorded as a partial result;
//! * a *wedged* experiment — the job-level analogue of
//!   `SimConfig::watchdog_cycles` — trips its wall-clock deadline; the
//!   supervisor abandons the whole worker thread, salvages whatever the
//!   experiment had printed, and spawns a replacement worker under a
//!   bounded restart budget with doubling backoff;
//! * an experiment that panics or wedges `breaker_threshold` times in
//!   a row trips its circuit breaker and is skipped with
//!   [`Status::Degraded`] instead of burning more suite deadline;
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

use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use pandora_channels::RetryPolicy;

use crate::breaker::Breaker;
use crate::chaos::{self, ChaosPlan};
use crate::experiment::{Ctx, Experiment, Failure, Profile};
use crate::journal::{Journal, JournalEntry, Manifest};
use crate::json::{obj, Json};
use crate::output::{atomic_write, hash_str};
use crate::registry::Registry;

/// Supervisor housekeeping cadence (wedge scan, respawns, admission).
const SUPERVISOR_TICK: Duration = Duration::from_millis(25);

/// Slack past the deadline before the supervisor declares a worker
/// wedged — covers an experiment that finishes *at* its deadline plus
/// event-delivery latency.
const WEDGE_GRACE: Duration = Duration::from_millis(150);

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
    /// The experiment was skipped by the suite's own protection
    /// machinery — its circuit breaker opened after repeated
    /// panic/deadline failures, or the worker pool's restart budget ran
    /// out. No (or only salvaged) output exists; re-running with
    /// `--resume` retries it.
    Degraded {
        /// Which protection fired.
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
    /// The summary/journal keyword (`ok` / `partial` / `degraded` /
    /// `failed`).
    #[must_use]
    pub fn keyword(&self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Partial { .. } => "partial",
            Status::Degraded { .. } => "degraded",
            Status::Failed { .. } => "failed",
        }
    }

    /// The reason, if any.
    #[must_use]
    pub fn reason(&self) -> Option<&str> {
        match self {
            Status::Ok => None,
            Status::Partial { reason }
            | Status::Degraded { reason }
            | Status::Failed { reason } => Some(reason),
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

/// Operational health of a suite run: supervision activity, open
/// circuit breakers, storage degradation, and chaos-injection
/// accounting. Serialized as the `health` object of `summary.json`.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct SuiteHealth {
    /// Replacement workers spawned after wedges (bounded by
    /// [`SuiteOptions::max_worker_restarts`]).
    pub worker_restarts: u32,
    /// Worker threads abandoned because their experiment wedged.
    pub workers_abandoned: u32,
    /// Names of experiments whose circuit breaker is open at suite end.
    pub breakers_open: Vec<String>,
    /// Ticks on which the bounded job queue was full and admission of
    /// the next job was deferred.
    pub admission_deferrals: u64,
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

    /// `true` when no experiment is worse than `partial`/`degraded`.
    #[must_use]
    pub fn none_failed(&self) -> bool {
        !self
            .experiments
            .iter()
            .any(|e| matches!(e.status, Status::Failed { .. }))
    }

    /// Number of experiments skipped as [`Status::Degraded`].
    #[must_use]
    pub fn degraded_count(&self) -> usize {
        self.experiments
            .iter()
            .filter(|e| matches!(e.status, Status::Degraded { .. }))
            .count()
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
                    ("worker_restarts", Json::from(u64::from(h.worker_restarts))),
                    ("workers_abandoned", Json::from(u64::from(h.workers_abandoned))),
                    (
                        "breakers_open",
                        Json::Arr(h.breakers_open.iter().map(|n| Json::from(n.as_str())).collect()),
                    ),
                    ("admission_deferrals", Json::from(h.admission_deferrals)),
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
    /// Retry policy for failed/panicked attempts (`max_attempts`
    /// bounds total attempts; deadline overruns are never retried).
    pub retry: RetryPolicy,
    /// Suite seed recorded in the manifest and handed to experiments.
    pub seed: u64,
    /// Override every experiment's own deadline (mainly for tests).
    pub deadline_override: Option<Duration>,
    /// Print one progress line per experiment to stdout.
    pub progress: bool,
    /// Storage fault plan to install for the run (`None` = no chaos).
    /// Installing even an empty plan turns on I/O accounting in
    /// [`SuiteHealth`].
    pub chaos: Option<ChaosPlan>,
    /// Consecutive panic/deadline failures before an experiment's
    /// circuit breaker opens and remaining attempts are skipped as
    /// [`Status::Degraded`]. `0` disables breakers.
    pub breaker_threshold: u32,
    /// Replacement workers the supervisor may spawn after wedges.
    pub max_worker_restarts: u32,
    /// Base delay before a replacement worker spawns; doubles per
    /// restart already used.
    pub restart_backoff: Duration,
    /// Bounded job-queue capacity (`None` = twice the worker count).
    /// Jobs beyond capacity wait in the supervisor under admission
    /// control.
    pub queue_capacity: Option<usize>,
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
            retry: RetryPolicy {
                max_attempts: 2,
                ..RetryPolicy::default()
            },
            seed: 0,
            deadline_override: None,
            progress: false,
            chaos: None,
            breaker_threshold: 3,
            max_worker_restarts: 4,
            restart_backoff: Duration::from_millis(50),
            queue_capacity: None,
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

/// Result of one isolated attempt at an experiment.
#[derive(Debug)]
enum AttemptResult {
    Ok,
    Failed(Failure),
    Panicked(String),
    TimedOut(Duration),
}

/// Outcome of executing one experiment (after retries): status plus
/// the captured output snapshot.
#[derive(Debug)]
pub struct ExecOutcome {
    /// Final status (never [`Status::Failed`]: execution failures
    /// degrade to partial; only the orchestrator escalates).
    pub status: Status,
    /// Everything the experiment wrote, possibly partial.
    pub output: String,
    /// Wall time across all attempts.
    pub wall: Duration,
    /// Retries consumed.
    pub retries: u32,
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one attempt of `exp` on its own thread, catching panics and
/// abandoning the thread if `deadline` expires first.
fn attempt(exp: &Experiment, ctx: &Ctx, deadline: Duration) -> AttemptResult {
    let (tx, rx) = mpsc::channel();
    let run = exp.run;
    let thread_ctx = ctx.clone();
    let spawned = thread::Builder::new()
        .name(format!("pandora-exp-{}", exp.name))
        .spawn(move || {
            let result = catch_unwind(AssertUnwindSafe(|| run(&thread_ctx)));
            // The receiver may have given up on us (deadline); a send
            // failure is then expected and irrelevant.
            let _ = tx.send(result);
        });
    let handle = match spawned {
        Ok(h) => h,
        Err(e) => return AttemptResult::Failed(Failure::new(format!("spawn failed: {e}"))),
    };
    match rx.recv_timeout(deadline) {
        Ok(Ok(Ok(()))) => {
            let _ = handle.join();
            AttemptResult::Ok
        }
        Ok(Ok(Err(failure))) => {
            let _ = handle.join();
            AttemptResult::Failed(failure)
        }
        Ok(Err(payload)) => {
            let _ = handle.join();
            AttemptResult::Panicked(panic_message(payload.as_ref()))
        }
        Err(RecvTimeoutError::Timeout) => {
            // The experiment is wedged. Threads cannot be killed; the
            // worker abandons it (it keeps running detached until
            // process exit — the cooperative `Ctx::deadline_exceeded`
            // check lets well-behaved loops wind down early) and the
            // suite degrades this entry to a recorded partial failure.
            drop(handle);
            AttemptResult::TimedOut(deadline)
        }
        Err(RecvTimeoutError::Disconnected) => {
            AttemptResult::Panicked("experiment thread vanished".to_string())
        }
    }
}

/// Executes `exp` with panic isolation, a per-attempt deadline, and
/// bounded retries under `policy`. Deadline overruns are not retried
/// (a wedge would almost certainly wedge again and cost another full
/// deadline); failures and panics are, on the fault model that
/// disturbances are transient.
///
/// This is the *standalone* execution path (used by
/// [`partial_results`](crate::partial_results) and the per-figure
/// bins); [`run_suite`] supervises its workers directly instead.
#[must_use]
pub fn execute(
    exp: &Experiment,
    profile: Profile,
    seed: u64,
    opts: &[String],
    deadline: Duration,
    policy: &RetryPolicy,
) -> ExecOutcome {
    let attempts = policy.max_attempts.max(1);
    let start = Instant::now();
    let mut last: Option<AttemptResult> = None;
    let mut used: u32 = 0;
    let mut output = String::new();
    for i in 0..attempts {
        let ctx = Ctx::new(
            profile,
            seed,
            Some(Instant::now() + deadline),
            opts.to_vec(),
        );
        used = i + 1;
        let result = attempt(exp, &ctx, deadline);
        output = ctx.output();
        let timed_out = matches!(result, AttemptResult::TimedOut(_));
        last = Some(result);
        if matches!(last, Some(AttemptResult::Ok)) || timed_out {
            break;
        }
    }
    let wall = start.elapsed();
    let retries = used.saturating_sub(1);
    let status = match last.expect("at least one attempt ran") {
        AttemptResult::Ok => Status::Ok,
        AttemptResult::Failed(f) => Status::Partial {
            reason: format!("failed after {used} attempt(s): {f}"),
        },
        AttemptResult::Panicked(msg) => Status::Partial {
            reason: format!("panicked after {used} attempt(s): {msg}"),
        },
        AttemptResult::TimedOut(d) => Status::Partial {
            reason: format!(
                "deadline of {:.1}s exceeded on attempt {used} (wedged; thread abandoned)",
                d.as_secs_f64()
            ),
        },
    };
    ExecOutcome {
        status,
        output,
        wall,
        retries,
    }
}

#[derive(Clone, Copy, Debug)]
enum JobKind {
    Run,
    Reverify { expected_hash: u64 },
}

type Job = (usize, JobKind);

/// Bounded MPMC job queue: the supervisor pushes under admission
/// control, workers block-pop, `close` wakes everyone for shutdown.
struct JobQueue {
    state: Mutex<(VecDeque<Job>, bool)>,
    cv: Condvar,
    capacity: usize,
}

impl JobQueue {
    fn new(capacity: usize) -> JobQueue {
        JobQueue {
            state: Mutex::new((VecDeque::new(), false)),
            cv: Condvar::new(),
            capacity,
        }
    }

    /// Push unless full or closed; `true` on success.
    fn try_push(&self, job: Job) -> bool {
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        if state.1 || state.0.len() >= self.capacity {
            return false;
        }
        state.0.push_back(job);
        self.cv.notify_one();
        true
    }

    /// Blocks for the next job; `None` once closed and drained.
    fn pop_blocking(&self) -> Option<Job> {
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(job) = state.0.pop_front() {
                return Some(job);
            }
            if state.1 {
                return None;
            }
            state = self.cv.wait(state).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Removes and returns everything still queued.
    fn drain(&self) -> Vec<Job> {
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        state.0.drain(..).collect()
    }

    fn close(&self) {
        let mut state = self.state.lock().unwrap_or_else(|p| p.into_inner());
        state.1 = true;
        self.cv.notify_all();
    }
}

/// Per-experiment circuit breakers, each with the message of its last
/// panic/deadline failure.
type Breakers = Mutex<Vec<(Breaker, String)>>;

/// Why experiment `index` is skipped, if its breaker is open. Suite
/// breakers never cool down, so time plays no part: every breaker call
/// passes 0 as `now_ms`.
fn breaker_open_reason(breakers: &Breakers, index: usize, threshold: u32) -> Option<String> {
    let guard = breakers.lock().unwrap_or_else(|p| p.into_inner());
    let (b, last) = &guard[index];
    b.is_open(0).then(|| {
        format!(
            "circuit breaker opened after {threshold} consecutive panic/deadline \
             failure(s); skipping remaining attempts (last failure: {last})"
        )
    })
}

/// Records a panic/deadline failure of experiment `index`. The cooldown
/// of `u64::MAX` keeps an opened breaker open for the rest of the suite.
fn breaker_record_crash(breakers: &Breakers, index: usize, threshold: u32, what: &str) {
    let mut guard = breakers.lock().unwrap_or_else(|p| p.into_inner());
    let (b, last) = &mut guard[index];
    *last = what.to_string();
    b.record_failure(threshold, u64::MAX, 0);
}

/// Worker → supervisor messages.
enum Event {
    /// A worker is about to run one attempt; `ctx` lets the supervisor
    /// salvage output if the attempt wedges.
    AttemptStarted {
        worker: usize,
        index: usize,
        kind: JobKind,
        attempt: u32,
        deadline_at: Instant,
        ctx: Ctx,
    },
    /// A worker finished a job (any status).
    JobDone {
        worker: usize,
        index: usize,
        kind: JobKind,
        outcome: ExecOutcome,
    },
    /// A worker's loop ended (queue closed, or abandoned flag seen).
    WorkerExited { worker: usize },
}

#[derive(Clone)]
struct WorkerCfg {
    profile: Profile,
    seed: u64,
    deadline_override: Option<Duration>,
    retry: RetryPolicy,
    breaker_threshold: u32,
    fleet_threads: usize,
}

/// What the supervisor knows about a worker's current attempt.
struct Inflight {
    index: usize,
    kind: JobKind,
    attempt: u32,
    deadline_at: Instant,
    ctx: Ctx,
}

/// One supervised worker slot.
struct Slot {
    alive: Arc<AtomicBool>,
    abandoned: bool,
}

/// Spawns a detached worker thread running jobs from `queue` until the
/// queue closes or its `alive` flag is cleared. Returns the flag, or
/// `None` if the OS refused the thread.
fn spawn_worker(
    id: usize,
    exps: &Arc<Vec<Experiment>>,
    queue: &Arc<JobQueue>,
    breakers: &Arc<Breakers>,
    tx: &mpsc::Sender<Event>,
    cfg: &WorkerCfg,
) -> Option<Arc<AtomicBool>> {
    let alive = Arc::new(AtomicBool::new(true));
    let exps = Arc::clone(exps);
    let queue = Arc::clone(queue);
    let breakers = Arc::clone(breakers);
    let tx = tx.clone();
    let cfg = cfg.clone();
    let flag = Arc::clone(&alive);
    let spawned = thread::Builder::new()
        .name(format!("pandora-worker-{id}"))
        .spawn(move || {
            worker_loop(id, &exps, &queue, &breakers, &tx, &cfg, &flag);
            let _ = tx.send(Event::WorkerExited { worker: id });
        });
    spawned.ok().map(|_| alive)
}

/// The worker body: pop a job, run it attempt by attempt under
/// `catch_unwind` directly on this thread (no per-attempt thread spawn
/// — the supervisor replaces the *worker* on a wedge), honouring the
/// circuit breaker between attempts.
fn worker_loop(
    id: usize,
    exps: &Arc<Vec<Experiment>>,
    queue: &Arc<JobQueue>,
    breakers: &Arc<Breakers>,
    tx: &mpsc::Sender<Event>,
    cfg: &WorkerCfg,
    alive: &Arc<AtomicBool>,
) {
    loop {
        if !alive.load(Ordering::Relaxed) {
            return;
        }
        let Some((index, kind)) = queue.pop_blocking() else {
            return;
        };
        let exp = &exps[index];
        let deadline = cfg.deadline_override.unwrap_or(exp.deadline);
        let attempts = cfg.retry.max_attempts.max(1);
        let start = Instant::now();
        let mut status: Option<Status> = None;
        let mut used: u32 = 0;
        let mut output = String::new();
        for i in 0..attempts {
            if let Some(reason) = breaker_open_reason(breakers, index, cfg.breaker_threshold) {
                status = Some(Status::Degraded { reason });
                break;
            }
            let ctx = Ctx::new(
                cfg.profile,
                cfg.seed,
                Some(Instant::now() + deadline),
                Vec::new(),
            )
            .with_fleet_threads(cfg.fleet_threads);
            used = i + 1;
            let _ = tx.send(Event::AttemptStarted {
                worker: id,
                index,
                kind,
                attempt: i,
                deadline_at: Instant::now() + deadline,
                ctx: ctx.clone(),
            });
            let run = exp.run;
            let result = catch_unwind(AssertUnwindSafe(|| run(&ctx)));
            output = ctx.output();
            if !alive.load(Ordering::Relaxed) {
                // The supervisor gave up on this attempt (wedge) and
                // already recorded it; vanish without a JobDone.
                return;
            }
            match result {
                Ok(Ok(())) => {
                    breakers.lock().unwrap_or_else(|p| p.into_inner())[index]
                        .0
                        .record_success();
                    status = Some(Status::Ok);
                    break;
                }
                Ok(Err(f)) => {
                    // A plain failure is retryable and does not count
                    // toward the breaker (only panics and deadlines do).
                    status = Some(Status::Partial {
                        reason: format!("failed after {used} attempt(s): {f}"),
                    });
                }
                Err(payload) => {
                    let msg = panic_message(payload.as_ref());
                    breaker_record_crash(breakers, index, cfg.breaker_threshold, &msg);
                    status = Some(Status::Partial {
                        reason: format!("panicked after {used} attempt(s): {msg}"),
                    });
                }
            }
        }
        let outcome = ExecOutcome {
            status: status.expect("at least one attempt or a breaker verdict"),
            output,
            wall: start.elapsed(),
            retries: used.saturating_sub(1),
        };
        if tx
            .send(Event::JobDone {
                worker: id,
                index,
                kind,
                outcome,
            })
            .is_err()
        {
            return;
        }
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
/// Worker threads are *supervised*: a wedged worker is abandoned and
/// replaced under [`SuiteOptions::max_worker_restarts`] with doubling
/// backoff; repeated panic/deadline failures open a per-experiment
/// circuit breaker ([`Status::Degraded`]); job admission is bounded by
/// [`SuiteOptions::queue_capacity`]. Storage faults degrade the run
/// (see [`SuiteHealth`]) rather than aborting it.
///
/// # Errors
///
/// [`SuiteError::ResumeRefused`] when `--resume` does not match the
/// recorded manifest (unless [`SuiteOptions::resume_fallback`]);
/// [`SuiteError::Crashed`] when an injected chaos kill fired;
/// [`SuiteError::Io`] for unrecoverable filesystem failures.
/// Per-experiment failures are *not* errors — they come back as
/// [`Status::Partial`] / [`Status::Degraded`] / [`Status::Failed`]
/// rows in the report.
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
    let mut pending: VecDeque<Job> = VecDeque::new();
    let mut reverified = 0usize;
    for (i, exp) in selected.iter().enumerate() {
        match find_completed(exp.name) {
            Some(entry) if reverified < opts.reverify => {
                reverified += 1;
                pending.push_back((
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
            None => pending.push_back((i, JobKind::Run)),
        }
    }

    let to_run = pending.len();
    let workers_planned = opts.jobs.max(1).min(to_run.max(1));
    let exps: Arc<Vec<Experiment>> = Arc::new(selected.iter().map(|&e| e.clone()).collect());
    let breakers: Arc<Breakers> = Arc::new(Mutex::new(vec![Default::default(); exps.len()]));

    if to_run > 0 {
        supervise(
            &exps,
            &breakers,
            pending,
            to_run,
            workers_planned,
            opts,
            &mut journal,
            &mut health,
            &mut reports,
        )?;
    }

    // Health finalization: open breakers (registry order), chaos stats.
    {
        let guard = breakers.lock().unwrap_or_else(|p| p.into_inner());
        health.breakers_open = guard
            .iter()
            .enumerate()
            .filter(|(_, (b, _))| b.is_open(0))
            .map(|(i, _)| exps[i].name.to_string())
            .collect();
    }
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

/// The supervisor loop: admit jobs under the queue bound, watch for
/// wedges, respawn workers under the restart budget, and record every
/// outcome until all `to_run` jobs are accounted for.
#[allow(clippy::too_many_arguments)]
fn supervise(
    exps: &Arc<Vec<Experiment>>,
    breakers: &Arc<Breakers>,
    mut pending: VecDeque<Job>,
    to_run: usize,
    workers_planned: usize,
    opts: &SuiteOptions,
    journal: &mut Option<Journal>,
    health: &mut SuiteHealth,
    reports: &mut [Option<ExperimentReport>],
) -> Result<(), SuiteError> {
    let capacity = opts.queue_capacity.unwrap_or(workers_planned * 2).max(1);
    let queue = Arc::new(JobQueue::new(capacity));
    let (tx, rx) = mpsc::channel::<Event>();
    let cfg = WorkerCfg {
        profile: opts.profile,
        seed: opts.seed,
        deadline_override: opts.deadline_override,
        retry: opts.retry,
        breaker_threshold: opts.breaker_threshold,
        fleet_threads: opts.fleet_threads,
    };

    let mut done = 0usize;
    let mut workers: HashMap<usize, Slot> = HashMap::new();
    let mut inflight: HashMap<usize, Inflight> = HashMap::new();
    let mut respawn_at: Vec<Instant> = Vec::new();
    let mut restarts_scheduled: u32 = 0;
    let mut next_worker_id = 0usize;

    // Initial admission, then the initial pool.
    admit(
        &queue, &mut pending, exps, breakers, opts, journal, health, reports, &mut done, to_run,
    )?;
    for _ in 0..workers_planned {
        let id = next_worker_id;
        next_worker_id += 1;
        if let Some(alive) = spawn_worker(id, exps, &queue, breakers, &tx, &cfg) {
            workers.insert(
                id,
                Slot {
                    alive,
                    abandoned: false,
                },
            );
        }
    }

    while done < to_run {
        // 1. Wait for (and then fully drain) worker events.
        let mut events: Vec<Event> = Vec::new();
        match rx.recv_timeout(SUPERVISOR_TICK) {
            Ok(ev) => events.push(ev),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => {
                // All workers gone with jobs outstanding; the
                // exhaustion check below drains what is left.
            }
        }
        while let Ok(ev) = rx.try_recv() {
            events.push(ev);
        }
        for ev in events {
            match ev {
                Event::AttemptStarted {
                    worker,
                    index,
                    kind,
                    attempt,
                    deadline_at,
                    ctx,
                } => {
                    if workers.get(&worker).is_some_and(|s| !s.abandoned) {
                        inflight.insert(
                            worker,
                            Inflight {
                                index,
                                kind,
                                attempt,
                                deadline_at,
                                ctx,
                            },
                        );
                    }
                }
                Event::JobDone {
                    worker,
                    index,
                    kind,
                    outcome,
                } => {
                    if workers.get(&worker).is_some_and(|s| !s.abandoned) {
                        inflight.remove(&worker);
                        done += 1;
                        record_outcome(
                            &exps[index],
                            index,
                            kind,
                            &outcome,
                            opts,
                            journal,
                            health,
                            reports,
                            done,
                            to_run,
                        )?;
                    }
                }
                Event::WorkerExited { worker } => {
                    if workers.get(&worker).is_some_and(|s| !s.abandoned) {
                        workers.remove(&worker);
                    }
                }
            }
        }

        // 2. Wedge scan: any live attempt past deadline + grace means
        // its worker is stuck; abandon and (budget permitting) replace.
        let now = Instant::now();
        let wedged: Vec<usize> = inflight
            .iter()
            .filter(|(w, info)| {
                workers.get(w).is_some_and(|s| !s.abandoned) && now > info.deadline_at + WEDGE_GRACE
            })
            .map(|(&w, _)| w)
            .collect();
        for w in wedged {
            let info = inflight.remove(&w).expect("wedged worker is inflight");
            if let Some(slot) = workers.get_mut(&w) {
                slot.abandoned = true;
                slot.alive.store(false, Ordering::Relaxed);
            }
            health.workers_abandoned += 1;
            let exp = &exps[info.index];
            let deadline = opts.deadline_override.unwrap_or(exp.deadline);
            breaker_record_crash(
                breakers,
                info.index,
                opts.breaker_threshold,
                &format!("deadline of {:.1}s exceeded", deadline.as_secs_f64()),
            );
            if opts.progress {
                println!(
                    "[pandora-runner] worker {w} wedged on {} (attempt {}); \
                     abandoned, salvaging output",
                    exp.name,
                    info.attempt + 1
                );
            }
            let outcome = ExecOutcome {
                status: Status::Partial {
                    reason: format!(
                        "deadline of {:.1}s exceeded on attempt {} \
                         (wedged; worker abandoned and replaced)",
                        deadline.as_secs_f64(),
                        info.attempt + 1
                    ),
                },
                output: info.ctx.output(),
                wall: deadline + WEDGE_GRACE,
                retries: info.attempt,
            };
            done += 1;
            record_outcome(
                exp, info.index, info.kind, &outcome, opts, journal, health, reports, done, to_run,
            )?;
            if restarts_scheduled < opts.max_worker_restarts {
                let backoff = opts.restart_backoff * 2u32.saturating_pow(restarts_scheduled.min(10));
                respawn_at.push(now + backoff);
                restarts_scheduled += 1;
            } else if opts.progress {
                println!("[pandora-runner] worker restart budget exhausted; not replacing");
            }
        }

        // 3. Respawns that have served their backoff.
        let now = Instant::now();
        let mut i = 0;
        while i < respawn_at.len() {
            if respawn_at[i] <= now {
                respawn_at.swap_remove(i);
                let id = next_worker_id;
                next_worker_id += 1;
                if let Some(alive) = spawn_worker(id, exps, &queue, breakers, &tx, &cfg) {
                    workers.insert(
                        id,
                        Slot {
                            alive,
                            abandoned: false,
                        },
                    );
                    health.worker_restarts += 1;
                    if opts.progress {
                        println!("[pandora-runner] spawned replacement worker {id}");
                    }
                }
            } else {
                i += 1;
            }
        }

        // 4. Admission: refill the bounded queue.
        admit(
            &queue, &mut pending, exps, breakers, opts, journal, health, reports, &mut done, to_run,
        )?;

        // 5. Pool exhaustion: no live workers, none coming — drain the
        // rest of the suite as degraded rather than hanging.
        let active = workers.values().filter(|s| !s.abandoned).count();
        if done < to_run && active == 0 && respawn_at.is_empty() {
            let mut leftovers = queue.drain();
            leftovers.extend(pending.drain(..));
            for (index, kind) in leftovers {
                let outcome = ExecOutcome {
                    status: Status::Degraded {
                        reason: "worker pool exhausted: wedged workers exceeded the \
                                 restart budget"
                            .to_string(),
                    },
                    output: String::new(),
                    wall: Duration::ZERO,
                    retries: 0,
                };
                done += 1;
                record_outcome(
                    &exps[index], index, kind, &outcome, opts, journal, health, reports, done,
                    to_run,
                )?;
            }
        }
    }
    queue.close();
    Ok(())
}

/// Moves pending jobs into the bounded queue; a job whose breaker is
/// already open is recorded as degraded without ever being queued.
#[allow(clippy::too_many_arguments)]
fn admit(
    queue: &Arc<JobQueue>,
    pending: &mut VecDeque<Job>,
    exps: &Arc<Vec<Experiment>>,
    breakers: &Arc<Breakers>,
    opts: &SuiteOptions,
    journal: &mut Option<Journal>,
    health: &mut SuiteHealth,
    reports: &mut [Option<ExperimentReport>],
    done: &mut usize,
    to_run: usize,
) -> Result<(), SuiteError> {
    while let Some(&(index, kind)) = pending.front() {
        if let Some(reason) = breaker_open_reason(breakers, index, opts.breaker_threshold) {
            pending.pop_front();
            let outcome = ExecOutcome {
                status: Status::Degraded {
                    reason: format!("skipped at admission: {reason}"),
                },
                output: String::new(),
                wall: Duration::ZERO,
                retries: 0,
            };
            *done += 1;
            record_outcome(
                &exps[index], index, kind, &outcome, opts, journal, health, reports, *done, to_run,
            )?;
            continue;
        }
        if queue.try_push((index, kind)) {
            pending.pop_front();
        } else {
            health.admission_deferrals += 1;
            break;
        }
    }
    Ok(())
}
