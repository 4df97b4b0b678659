//! End-to-end tests of the suite orchestrator: panic isolation,
//! deadline wedges, retry recovery, checkpoint/resume with torn-tail
//! journals, and determinism re-verification.

use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

use pandora_runner::test_util::TempDir;
use pandora_runner::{
    outln, run_suite, Ctx, Experiment, Failure, Profile, Registry, Status, SuiteError,
    SuiteOptions,
};

fn steady(ctx: &Ctx) -> Result<(), Failure> {
    ctx.header("steady");
    outln!(ctx, "seed = {:#x}, profile = {}", ctx.seed(), ctx.profile().as_str());
    Ok(())
}

fn panicker(ctx: &Ctx) -> Result<(), Failure> {
    outln!(ctx, "about to explode");
    panic!("injected test panic");
}

fn wedger(ctx: &Ctx) -> Result<(), Failure> {
    outln!(ctx, "entering the tar pit");
    // A true wedge: it never returns. The orchestrator must abandon
    // the thread when the deadline fires.
    loop {
        std::thread::sleep(Duration::from_millis(20));
    }
}

static FLAKY_CALLS: AtomicU32 = AtomicU32::new(0);

fn flaky(ctx: &Ctx) -> Result<(), Failure> {
    outln!(ctx, "attempt {}", FLAKY_CALLS.load(Ordering::SeqCst));
    if FLAKY_CALLS.fetch_add(1, Ordering::SeqCst) == 0 {
        return Err(Failure::new("transient disturbance"));
    }
    Ok(())
}

fn exp(name: &'static str, run: fn(&Ctx) -> Result<(), Failure>) -> Experiment {
    Experiment {
        name,
        title: name,
        run,
        fingerprint: || 0xF00D,
        deadline: Duration::from_secs(30),
    }
}

fn options(dir: &TempDir) -> SuiteOptions {
    SuiteOptions {
        results_dir: dir.path().to_path_buf(),
        ..SuiteOptions::default()
    }
}

#[test]
fn panicking_experiment_degrades_to_partial_with_salvaged_output() {
    let dir = TempDir::new("panic");
    let registry = Registry::new()
        .with(exp("good", steady))
        .with(exp("bad", panicker));
    let report = run_suite(&registry, &options(&dir)).expect("suite runs");

    assert_eq!(report.experiments.len(), 2);
    assert_eq!(report.experiments[0].status, Status::Ok);
    let bad = &report.experiments[1];
    assert_eq!(bad.status.keyword(), "partial");
    assert!(bad.status.reason().unwrap().contains("injected test panic"));
    // The default policy retries a panic once.
    assert_eq!(bad.retries, 1);

    // Output written before the panic is salvaged into the results
    // file, flagged as partial.
    let text = std::fs::read_to_string(dir.path().join("bad.txt")).expect("bad.txt exists");
    assert!(text.contains("about to explode"));
    assert!(text.contains("[pandora-runner] PARTIAL RESULTS:"));
    assert!(std::fs::read_to_string(dir.path().join("summary.json"))
        .expect("summary written")
        .contains("\"status\": \"partial\""));
    assert!(!report.all_ok());
    assert!(report.none_failed());
}

#[test]
fn wedged_experiment_trips_its_deadline_and_is_not_retried() {
    let dir = TempDir::new("wedge");
    let registry = Registry::new()
        .with(exp("good", steady))
        .with(Experiment {
            deadline: Duration::from_millis(300),
            ..exp("stuck", wedger)
        });
    let report = run_suite(&registry, &options(&dir)).expect("suite runs");

    assert_eq!(report.experiments[0].status, Status::Ok);
    let stuck = &report.experiments[1];
    assert_eq!(stuck.status.keyword(), "partial");
    assert!(stuck.status.reason().unwrap().contains("deadline"));
    // Deadline overruns are never retried: a wedge would wedge again.
    assert_eq!(stuck.retries, 0);
    let text = std::fs::read_to_string(dir.path().join("stuck.txt")).expect("stuck.txt");
    assert!(text.contains("entering the tar pit"));
}

#[test]
fn transient_failure_recovers_on_retry() {
    let dir = TempDir::new("flaky");
    FLAKY_CALLS.store(0, Ordering::SeqCst);
    let registry = Registry::new().with(exp("flaky", flaky));
    let report = run_suite(
        &registry,
        &SuiteOptions {
            max_attempts: 3,
            ..options(&dir)
        },
    )
    .expect("suite runs");
    assert_eq!(report.experiments[0].status, Status::Ok);
    assert_eq!(report.experiments[0].retries, 1);
}

#[test]
fn resume_skips_completed_work_and_reverifies_byte_identical_output() {
    let dir = TempDir::new("resume");
    let registry = Registry::new()
        .with(exp("a", steady))
        .with(exp("b", steady))
        .with(exp("c", steady));
    let first = run_suite(&registry, &options(&dir)).expect("first run");
    assert!(first.all_ok());
    let archived = std::fs::read_to_string(dir.path().join("b.txt")).expect("b.txt");

    let resumed = run_suite(
        &registry,
        &SuiteOptions {
            resume: true,
            reverify: 1,
            ..options(&dir)
        },
    )
    .expect("resume run");
    assert!(resumed.all_ok());
    // First completed entry is re-run for determinism; the rest are
    // taken from the journal without re-running.
    assert!(resumed.experiments[0].reverified);
    assert!(!resumed.experiments[0].resumed);
    assert!(resumed.experiments[1].resumed);
    assert!(resumed.experiments[2].resumed);
    // Byte-identical re-verification and untouched archives.
    assert_eq!(
        std::fs::read_to_string(dir.path().join("b.txt")).expect("b.txt"),
        archived
    );
}

#[test]
fn resume_tolerates_a_torn_journal_tail_and_reruns_the_lost_entry() {
    let dir = TempDir::new("torn");
    let registry = Registry::new()
        .with(exp("a", steady))
        .with(exp("b", steady));
    run_suite(&registry, &options(&dir)).expect("first run");

    // Simulate a crash mid-append: chop bytes off the final journal
    // line so it no longer parses.
    let journal_path = dir.path().join(".runall.journal");
    let bytes = std::fs::read(&journal_path).expect("journal");
    std::fs::write(&journal_path, &bytes[..bytes.len() - 9]).expect("truncate");

    let resumed = run_suite(
        &registry,
        &SuiteOptions {
            resume: true,
            reverify: 0,
            ..options(&dir)
        },
    )
    .expect("resume tolerates torn tail");
    assert!(resumed.all_ok());
    assert!(resumed.experiments[0].resumed, "intact entry is skipped");
    assert!(!resumed.experiments[1].resumed, "torn entry is re-run");
}

#[test]
fn resume_is_refused_when_the_run_identity_changes() {
    let dir = TempDir::new("refuse");
    let registry = Registry::new().with(exp("a", steady));
    run_suite(&registry, &options(&dir)).expect("first run");

    // Different seed -> different manifest -> refuse.
    let err = run_suite(
        &registry,
        &SuiteOptions {
            resume: true,
            seed: 99,
            ..options(&dir)
        },
    )
    .expect_err("seed change must refuse resume");
    assert!(matches!(err, SuiteError::ResumeRefused(_)));

    // Different profile -> refuse.
    let err = run_suite(
        &registry,
        &SuiteOptions {
            resume: true,
            profile: Profile::Smoke,
            ..options(&dir)
        },
    )
    .expect_err("profile change must refuse resume");
    assert!(matches!(err, SuiteError::ResumeRefused(_)));

    // Changed experiment fingerprint (e.g. a SimConfig change) ->
    // different run hash -> refuse.
    let reconfigured = Registry::new().with(Experiment {
        fingerprint: || 0xBEEF,
        ..exp("a", steady)
    });
    let err = run_suite(
        &reconfigured,
        &SuiteOptions {
            resume: true,
            ..options(&dir)
        },
    )
    .expect_err("fingerprint change must refuse resume");
    assert!(matches!(err, SuiteError::ResumeRefused(_)));
}

#[test]
fn reverify_detects_nondeterministic_output_and_fails_the_suite() {
    static CALLS: AtomicU32 = AtomicU32::new(0);
    fn drifting(ctx: &Ctx) -> Result<(), Failure> {
        outln!(ctx, "run #{}", CALLS.fetch_add(1, Ordering::SeqCst));
        Ok(())
    }
    let dir = TempDir::new("drift");
    let registry = Registry::new().with(exp("drifting", drifting));
    run_suite(&registry, &options(&dir)).expect("first run");

    let resumed = run_suite(
        &registry,
        &SuiteOptions {
            resume: true,
            reverify: 1,
            ..options(&dir)
        },
    )
    .expect("suite itself survives");
    let row = &resumed.experiments[0];
    assert_eq!(row.status.keyword(), "failed");
    assert!(row
        .status
        .reason()
        .unwrap()
        .contains("determinism re-verification failed"));
    assert!(!resumed.none_failed());
}

#[test]
fn glob_selection_limits_the_suite_and_its_manifest() {
    let dir = TempDir::new("only");
    let registry = Registry::new()
        .with(exp("fig_one", steady))
        .with(exp("fig_two", steady))
        .with(exp("table_one", steady));
    let report = run_suite(
        &registry,
        &SuiteOptions {
            only: Some("fig_*".to_string()),
            ..options(&dir)
        },
    )
    .expect("suite runs");
    let names: Vec<&str> = report.experiments.iter().map(|e| e.name.as_str()).collect();
    assert_eq!(names, ["fig_one", "fig_two"]);
    assert!(!dir.path().join("table_one.txt").exists());

    // Resuming with a different selection is a different run identity.
    let err = run_suite(
        &registry,
        &SuiteOptions {
            only: Some("table_*".to_string()),
            resume: true,
            ..options(&dir)
        },
    )
    .expect_err("selection change must refuse resume");
    assert!(matches!(err, SuiteError::ResumeRefused(_)));
}

#[test]
fn parallel_suite_completes_every_experiment_exactly_once() {
    static RUNS: AtomicU32 = AtomicU32::new(0);
    fn counted(ctx: &Ctx) -> Result<(), Failure> {
        RUNS.fetch_add(1, Ordering::SeqCst);
        steady(ctx)
    }
    let dir = TempDir::new("parallel");
    let mut registry = Registry::new();
    for name in [
        "p0", "p1", "p2", "p3", "p4", "p5", "p6", "p7", "p8", "p9",
    ] {
        registry = registry.with(exp(name, counted));
    }
    let report = run_suite(
        &registry,
        &SuiteOptions {
            jobs: 4,
            ..options(&dir)
        },
    )
    .expect("suite runs");
    assert!(report.all_ok());
    assert_eq!(report.experiments.len(), 10);
    assert_eq!(RUNS.load(Ordering::SeqCst), 10, "each job ran exactly once");
    // Reports come back in registry order regardless of completion order.
    let names: Vec<&str> = report.experiments.iter().map(|e| e.name.as_str()).collect();
    assert_eq!(
        names,
        ["p0", "p1", "p2", "p3", "p4", "p5", "p6", "p7", "p8", "p9"]
    );
    for name in &names {
        assert!(dir.path().join(format!("{name}.txt")).exists());
    }
}

#[test]
fn a_wedge_costs_its_attempt_thread_and_the_suite_continues() {
    let dir = TempDir::new("wedge_continue");
    let registry = Registry::new()
        .with(Experiment {
            deadline: Duration::from_millis(300),
            ..exp("stuck", wedger)
        })
        .with(exp("good", steady));
    let report = run_suite(&registry, &options(&dir)).expect("suite runs");

    // The wedge is recorded partial, and the same worker runs the
    // remaining experiment to completion.
    assert_eq!(report.experiments[0].status.keyword(), "partial");
    assert_eq!(report.experiments[1].status, Status::Ok);
    assert_eq!(report.health.workers_abandoned, 1);
    let summary = std::fs::read_to_string(dir.path().join("summary.json")).unwrap();
    assert!(summary.contains("\"health\": {"));
    assert!(summary.contains("\"workers_abandoned\": 1"));
}

#[test]
fn wedges_cannot_starve_the_queue() {
    let dir = TempDir::new("wedges");
    let wedge = |name| Experiment {
        deadline: Duration::from_millis(100),
        ..exp(name, wedger)
    };
    let registry = Registry::new()
        .with(wedge("stuck0"))
        .with(wedge("stuck1"))
        .with(wedge("stuck2"))
        .with(wedge("stuck3"))
        .with(wedge("stuck4"))
        .with(exp("good", steady));
    let report = run_suite(
        &registry,
        &SuiteOptions {
            jobs: 1,
            ..options(&dir)
        },
    )
    .expect("suite runs");

    // One worker meets five wedges in a row and still reaches the last
    // job: each wedge costs its attempt thread, never the worker.
    for stuck in &report.experiments[..5] {
        assert_eq!(stuck.status.keyword(), "partial", "{}", stuck.name);
        assert!(stuck.status.reason().unwrap().contains("deadline"));
    }
    assert_eq!(report.experiments[5].status, Status::Ok);
    assert_eq!(report.health.workers_abandoned, 5);
    assert!(report.none_failed());
}
