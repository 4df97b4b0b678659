//! The unit of orchestration: a named, profiled, deadline-bounded
//! [`Experiment`], and the [`Ctx`] handle its body writes results
//! through.
//!
//! Experiment bodies never print to stdout and never touch the
//! filesystem: all output goes through [`Ctx`] into an in-memory
//! report that the orchestrator publishes atomically. Because the
//! buffer lives behind an [`Arc`], whatever an experiment wrote before
//! a panic or a deadline overrun is still available to be recorded as
//! a partial result.

use std::fmt::{self, Display};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Which variant of an experiment to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Profile {
    /// The full measurement, as archived under `results/` and quoted in
    /// EXPERIMENTS.md.
    #[default]
    Full,
    /// A cheap variant exercising the same code paths with reduced
    /// trial counts / sections — the mode CI runs on every push.
    Smoke,
}

impl Profile {
    /// `true` for [`Profile::Smoke`].
    #[must_use]
    pub fn is_smoke(self) -> bool {
        self == Profile::Smoke
    }

    /// The manifest/summary spelling (`"full"` / `"smoke"`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Profile::Full => "full",
            Profile::Smoke => "smoke",
        }
    }
}

/// Why an experiment body gave up.
///
/// Anything [`Display`]-able converts into a `Failure` (via
/// [`Failure::new`] or the blanket `From<impl Error>`), so experiment
/// bodies can use `?` on simulator, retry, and formatting errors alike.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Failure {
    message: String,
}

impl Failure {
    /// A failure carrying `message`.
    pub fn new(message: impl Display) -> Failure {
        Failure {
            message: message.to_string(),
        }
    }

    /// The human-readable reason.
    #[must_use]
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl<E: std::error::Error> From<E> for Failure {
    fn from(e: E) -> Failure {
        Failure::new(e)
    }
}

/// The handle an experiment body receives: output sink, profile/seed
/// parameters, pass-through flags and the fleet thread count.
/// Deadlines are the orchestrator's business, not the body's: a wedged
/// attempt is abandoned from outside, never asked to stop.
///
/// Cloning a `Ctx` clones the *handle*; all clones share one output
/// buffer (that is how the orchestrator salvages partial output after a
/// panic or a deadline overrun).
#[derive(Clone)]
pub struct Ctx {
    profile: Profile,
    seed: u64,
    args: Vec<String>,
    fleet_threads: usize,
    out: Arc<Mutex<String>>,
}

impl Ctx {
    /// A context for one run of an experiment. `args` are the run's
    /// pass-through flags, [`SuiteOptions::args`](crate::SuiteOptions::args):
    /// empty under `runall`, and whatever experiment-specific flags
    /// (e.g. `--full-slice`) a bench bin was given.
    #[must_use]
    pub fn new(profile: Profile, seed: u64, args: Vec<String>) -> Ctx {
        Ctx {
            profile,
            seed,
            args,
            fleet_threads: 0,
            out: Arc::new(Mutex::new(String::new())),
        }
    }

    /// Sets the worker-thread count experiments pass to fleet grids
    /// (`0` = the process-wide default, see
    /// `pandora_sim::fleet::set_default_threads`). Builder-style, as
    /// only the suite sets it.
    #[must_use]
    pub fn with_fleet_threads(mut self, threads: usize) -> Ctx {
        self.fleet_threads = threads;
        self
    }

    /// Worker threads for fleet grids (0 = process default).
    #[must_use]
    pub fn fleet_threads(&self) -> usize {
        self.fleet_threads
    }

    /// The requested profile.
    #[must_use]
    pub fn profile(&self) -> Profile {
        self.profile
    }

    /// Shorthand for `profile().is_smoke()`.
    #[must_use]
    pub fn smoke(&self) -> bool {
        self.profile.is_smoke()
    }

    /// The suite seed. Experiments derive any per-trial randomness from
    /// this so a resumed run can re-verify byte-identical output.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Whether a pass-through flag (e.g. `"--full-slice"`) was given.
    #[must_use]
    pub fn has_opt(&self, flag: &str) -> bool {
        self.args.iter().any(|o| o == flag)
    }

    fn buffer(&self) -> MutexGuard<'_, String> {
        // A panicking experiment can poison the buffer mid-append; the
        // partial text it holds is exactly what we want to salvage.
        match self.out.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Appends one formatted line (newline added) to the report.
    pub fn line(&self, args: fmt::Arguments<'_>) {
        use fmt::Write;
        let mut out = self.buffer();
        let _ = out.write_fmt(args);
        out.push('\n');
    }

    /// Appends a section header in the harness's uniform style.
    pub fn header(&self, title: &str) {
        let mut out = self.buffer();
        out.push_str("\n=== ");
        out.push_str(title);
        out.push_str(" ===\n");
    }

    /// A snapshot of everything written so far (partial output survives
    /// panics and deadline overruns).
    #[must_use]
    pub fn output(&self) -> String {
        self.buffer().clone()
    }
}

/// Appends one `format!`-style line to a [`Ctx`] report — the
/// experiment-body replacement for `println!`.
#[macro_export]
macro_rules! outln {
    ($ctx:expr) => {
        $ctx.line(format_args!(""))
    };
    ($ctx:expr, $($arg:tt)*) => {
        $ctx.line(format_args!($($arg)*))
    };
}

/// The body of an experiment.
pub type RunFn = fn(&Ctx) -> Result<(), Failure>;

/// A named experiment registered with the suite: one table, figure, or
/// e-experiment of the paper.
#[derive(Clone)]
pub struct Experiment {
    /// Registry name — also the results file stem (`results/<name>.txt`)
    /// and the bench binary name.
    pub name: &'static str,
    /// One-line description (shown by `runall --list`).
    pub title: &'static str,
    /// The body. Must honour [`Ctx::profile`] and route every line of
    /// output through the [`Ctx`].
    pub run: RunFn,
    /// A stable fingerprint of the configuration the experiment runs
    /// under (typically `SimConfig::stable_hash` of its machine). Part
    /// of the resume manifest: if it changes, old journal entries no
    /// longer describe this experiment and resume is refused.
    pub fingerprint: fn() -> u64,
    /// Wall-clock budget for one attempt of the *full* profile. When it
    /// expires the orchestrator abandons the attempt and records a
    /// partial result.
    pub deadline: Duration,
}

impl fmt::Debug for Experiment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Experiment")
            .field("name", &self.name)
            .field("title", &self.title)
            .field("deadline", &self.deadline)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_collects_lines_headers_and_partial_snapshots() {
        let ctx = Ctx::new(Profile::Smoke, 7, vec!["--x".into()]);
        ctx.header("T");
        outln!(ctx, "a = {}", 1);
        outln!(ctx);
        assert_eq!(ctx.output(), "\n=== T ===\na = 1\n\n");
        assert!(ctx.smoke());
        assert_eq!(ctx.seed(), 7);
        assert!(ctx.has_opt("--x"));
        assert!(!ctx.has_opt("--y"));
        // Clones share the buffer.
        let clone = ctx.clone();
        outln!(clone, "b");
        assert!(ctx.output().ends_with("b\n"));
    }

    #[test]
    fn failure_conversions() {
        let f = Failure::new("boom");
        assert_eq!(f.message(), "boom");
        assert_eq!(f.to_string(), "boom");
        let io = std::io::Error::other("disk on fire");
        let f: Failure = io.into();
        assert!(f.message().contains("disk on fire"));
    }
}
