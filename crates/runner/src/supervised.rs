//! The one deadline primitive: run a job on its own named thread under
//! `catch_unwind`, wait up to a wall-clock deadline for its answer, and
//! join the thread when it answers in time.
//!
//! It is the job-level analogue of the simulator's
//! `SimConfig::watchdog_cycles`. The suite runs every experiment
//! attempt through [`run`], and the scan service runs every scan
//! through it. A thread cannot be killed, so a job that overruns keeps
//! running on its detached thread: a wedge costs that one thread, never
//! the caller.

use std::any::Any;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread;
use std::time::Duration;

/// How a supervised job ended.
#[derive(Debug)]
pub enum Supervised<T> {
    /// The job returned within its deadline, and its thread has exited.
    Returned(T),
    /// The job panicked within its deadline; the payload's text.
    Panicked(String),
    /// The deadline passed first. The job's thread is left running,
    /// detached.
    Overran,
    /// The OS refused the thread, so the job never ran.
    NotStarted(io::Error),
}

/// Runs `f` on a new thread called `name` and waits up to `deadline`
/// for it. The thread name appears in the panic hook's stderr line, so
/// callers name it after the job.
pub fn run<T, F>(name: &str, deadline: Duration, f: F) -> Supervised<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let (tx, rx) = mpsc::channel();
    let spawned = thread::Builder::new()
        .name(name.to_string())
        .spawn(move || {
            let _ = tx.send(catch_unwind(AssertUnwindSafe(f)));
        });
    let handle = match spawned {
        Ok(handle) => handle,
        Err(e) => return Supervised::NotStarted(e),
    };
    let answer = match rx.recv_timeout(deadline) {
        Err(RecvTimeoutError::Timeout) => return Supervised::Overran,
        answer => answer,
    };
    // The thread has answered; joining waits out its thread-local
    // destructors, so the next job's thread can take over its
    // allocator arena instead of growing a new one.
    let _ = handle.join();
    match answer {
        Ok(Ok(value)) => Supervised::Returned(value),
        Ok(Err(payload)) => Supervised::Panicked(panic_message(payload.as_ref())),
        Err(_) => Supervised::Panicked("job thread exited without an answer".to_string()),
    }
}

/// The text of a `&str` or `String` panic payload.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Instant;

    #[test]
    fn a_returning_job_has_exited_when_run_returns() {
        static DESTROYED: AtomicBool = AtomicBool::new(false);
        struct Slow;
        impl Drop for Slow {
            fn drop(&mut self) {
                // Long enough that a run that did not join would return
                // first.
                thread::sleep(Duration::from_millis(100));
                DESTROYED.store(true, Ordering::SeqCst);
            }
        }
        thread_local!(static SLOW: Slow = const { Slow });

        let got = run("pandora-test-return", Duration::from_secs(30), || {
            SLOW.with(|_| ());
            7
        });
        assert!(matches!(got, Supervised::Returned(7)), "{got:?}");
        assert!(
            DESTROYED.load(Ordering::SeqCst),
            "the job's thread-local destructors ran before run returned"
        );
    }

    #[test]
    fn a_panicking_job_gives_its_payload_text() {
        let got = run::<(), _>("pandora-test-panic", Duration::from_secs(30), || {
            panic!("boom {}", 7)
        });
        assert!(
            matches!(&got, Supervised::Panicked(m) if m == "boom 7"),
            "{got:?}"
        );
        let got = run::<(), _>("pandora-test-panic", Duration::from_secs(30), || {
            panic!("static boom")
        });
        assert!(
            matches!(&got, Supervised::Panicked(m) if m == "static boom"),
            "{got:?}"
        );
    }

    #[test]
    fn an_overrunning_job_is_left_running_at_its_deadline() {
        let deadline = Duration::from_millis(100);
        let (release, released) = mpsc::channel::<()>();
        let (finish, finished) = mpsc::channel();
        let started = Instant::now();
        let got = run("pandora-test-overrun", deadline, move || {
            let _ = released.recv();
            let _ = finish.send(());
        });
        let waited = started.elapsed();
        assert!(matches!(got, Supervised::Overran), "{got:?}");
        assert!(waited >= deadline, "returned early: {waited:?}");
        assert!(
            waited < deadline + Duration::from_millis(300),
            "returned late: {waited:?}"
        );
        // The job is still waiting for its release; once released, it
        // runs to its end on the detached thread.
        assert!(finished.try_recv().is_err());
        release.send(()).expect("the job is still running");
        finished
            .recv_timeout(Duration::from_secs(30))
            .expect("the abandoned job runs to its end");
    }
}
