//! Crash-point recovery proofs for the chaos fail-point layer.
//!
//! The central property: for every enumerated storage fail-point
//! ([`Site`]) and every occurrence a real suite reaches, killing the
//! run there and restarting with `--resume` yields a results directory
//! **byte-identical** to an uninterrupted run — same manifest, same
//! `results/*.txt`, same `summary.canonical.json`. The matrix is
//! enumerated from measured occurrence counts (an installed empty plan
//! counts every routed operation), so a new fail-point added to the
//! storage layer is exercised here automatically.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Duration;

use pandora_runner::chaos::Site;
use pandora_runner::test_util::TempDir;
use pandora_runner::{
    outln, run_suite, ChaosKind, ChaosPlan, Ctx, Experiment, Failure, Journal, Registry, Status,
    SuiteError, SuiteOptions, SuiteReport,
};
use proptest::{prop_assert, prop_assert_eq, run_proptest, ProptestConfig};

fn alpha(ctx: &Ctx) -> Result<(), Failure> {
    ctx.header("alpha");
    outln!(ctx, "seed = {:#x}", ctx.seed());
    Ok(())
}

fn beta(ctx: &Ctx) -> Result<(), Failure> {
    ctx.header("beta");
    outln!(ctx, "value = {}", ctx.seed().wrapping_mul(3));
    Ok(())
}

fn gamma(ctx: &Ctx) -> Result<(), Failure> {
    ctx.header("gamma");
    for i in 0..4 {
        outln!(ctx, "row {i}: {}", ctx.seed() ^ i);
    }
    Ok(())
}

fn delta(ctx: &Ctx) -> Result<(), Failure> {
    outln!(ctx, "delta = {}", ctx.seed().rotate_left(7));
    Ok(())
}

fn epsilon(ctx: &Ctx) -> Result<(), Failure> {
    outln!(ctx, "epsilon = {}", ctx.seed().count_ones());
    Ok(())
}

fn exp(name: &'static str, run: fn(&Ctx) -> Result<(), Failure>) -> Experiment {
    Experiment {
        name,
        title: name,
        run,
        fingerprint: || 0xCAFE,
        deadline: Duration::from_secs(30),
    }
}

fn registry3() -> Registry {
    Registry::new()
        .with(exp("alpha", alpha))
        .with(exp("beta", beta))
        .with(exp("gamma", gamma))
}

fn registry5() -> Registry {
    registry3().with(exp("delta", delta)).with(exp("epsilon", epsilon))
}

/// Base options for these tests: deterministic single-worker execution,
/// no reverification (resumed artifacts must match without rewriting).
fn options(dir: &TempDir) -> SuiteOptions {
    SuiteOptions {
        results_dir: dir.path().to_path_buf(),
        jobs: 1,
        reverify: 0,
        ..SuiteOptions::default()
    }
}

/// The durable artifacts a run must reproduce byte-for-byte: the
/// manifest, the canonical summary, and every result file. The journal
/// and the full `summary.json` carry wall-clock times and are excluded
/// by design.
fn artifacts(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("results dir") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let keep = name == ".runall.manifest"
            || name == "summary.canonical.json"
            || name.ends_with(".txt");
        if keep {
            out.insert(name, std::fs::read(&path).expect("artifact readable"));
        }
    }
    out
}

/// Names of artifacts that differ between two runs (missing counts as
/// differing).
fn diff_artifacts(a: &BTreeMap<String, Vec<u8>>, b: &BTreeMap<String, Vec<u8>>) -> Vec<String> {
    let mut names: Vec<&String> = a.keys().chain(b.keys()).collect();
    names.sort();
    names.dedup();
    names
        .into_iter()
        .filter(|n| a.get(*n) != b.get(*n))
        .cloned()
        .collect()
}

fn assert_matches_baseline(dir: &TempDir, baseline: &BTreeMap<String, Vec<u8>>, context: &str) {
    let got = artifacts(dir.path());
    let diff = diff_artifacts(baseline, &got);
    assert!(diff.is_empty(), "{context}: artifacts differ from the uninterrupted run: {diff:?}");
}

/// Resume after a simulated kill: no chaos, fall back to a fresh run if
/// the kill predated the manifest.
fn recovery_options(dir: &TempDir) -> SuiteOptions {
    SuiteOptions {
        resume: true,
        resume_fallback: true,
        ..options(dir)
    }
}

#[test]
fn crash_point_matrix_heals_to_byte_identical_artifacts() {
    // Baseline: an uninterrupted run under an installed-but-empty plan,
    // which counts every routed operation without disturbing any.
    let base_dir = TempDir::new("chaos_matrix_base");
    let registry = registry3();
    let baseline_report = run_suite(
        &registry,
        &SuiteOptions {
            chaos: Some(ChaosPlan::new(Vec::new())),
            ..options(&base_dir)
        },
    )
    .expect("baseline run");
    assert!(baseline_report.all_ok());
    let baseline = artifacts(base_dir.path());
    let counts: BTreeMap<&str, u64> = baseline_report.health.ops_by_site.iter().copied().collect();
    assert!(baseline_report.health.io_ops > 0, "accounting must be on");

    let mut crash_points_fired = 0u64;
    for site in Site::ALL {
        // The health snapshot is taken before the two summary publishes,
        // so probe two occurrences past the measured count: that covers
        // the summary publishes on the publish sites, and costs only a
        // clean (nothing-fires) run elsewhere.
        let probes = counts.get(site.as_str()).copied().unwrap_or(0) + 2;
        for nth in 0..probes {
            let dir = TempDir::new(&format!("chaos_matrix_{site}_{nth}"));
            let crashed = run_suite(
                &registry,
                &SuiteOptions {
                    chaos: Some(ChaosPlan::single(site, nth, ChaosKind::Crash)),
                    ..options(&dir)
                },
            );
            match crashed {
                Err(SuiteError::Crashed(_)) => {
                    crash_points_fired += 1;
                    let healed = run_suite(&registry, &recovery_options(&dir))
                        .unwrap_or_else(|e| panic!("recovery after kill at {site}#{nth}: {e}"));
                    assert!(
                        healed.all_ok(),
                        "recovery after kill at {site}#{nth} left non-ok rows"
                    );
                    assert_matches_baseline(&dir, &baseline, &format!("kill at {site}#{nth}"));
                }
                // The occurrence was never reached (e.g. recovery
                // truncation in a fresh run): the run is clean and must
                // already match the baseline.
                Ok(report) => {
                    assert!(report.all_ok());
                    assert_matches_baseline(&dir, &baseline, &format!("unfired {site}#{nth}"));
                }
                Err(e) => panic!("kill at {site}#{nth}: unexpected error {e}"),
            }
            // Recovery (or the clean run) leaves no temp litter behind.
            let litter: Vec<_> = std::fs::read_dir(dir.path())
                .unwrap()
                .filter_map(|e| e.ok().map(|e| e.file_name().to_string_lossy().into_owned()))
                .filter(|n| n.contains(".tmp."))
                .collect();
            assert!(litter.is_empty(), "{site}#{nth} left temp litter: {litter:?}");
        }
    }
    // The matrix must actually exercise kills at (at least) every
    // journal-create/header/append and publish occurrence of a fresh
    // 3-experiment run.
    assert!(
        crash_points_fired >= 15,
        "only {crash_points_fired} crash points fired — the matrix lost coverage"
    );
}

#[test]
fn torn_append_crash_leaves_a_tail_that_resume_truncates() {
    let base_dir = TempDir::new("chaos_torn_base");
    let registry = registry3();
    run_suite(&registry, &options(&base_dir)).expect("baseline run");
    let baseline = artifacts(base_dir.path());

    // Kill the run mid-append of the second journal entry, leaving a
    // genuinely torn line on disk.
    let dir = TempDir::new("chaos_torn");
    let err = run_suite(
        &registry,
        &SuiteOptions {
            chaos: Some(ChaosPlan::single(
                Site::JournalAppendWrite,
                1,
                ChaosKind::TornWriteCrash { keep: 10 },
            )),
            ..options(&dir)
        },
    )
    .expect_err("torn-write kill aborts the run");
    assert!(matches!(err, SuiteError::Crashed(_)), "{err}");
    let journal_path = dir.path().join(".runall.journal");
    let torn = std::fs::read_to_string(&journal_path).expect("journal exists");
    assert!(!torn.ends_with('\n'), "the tail must be torn mid-line");
    // Lenient load drops the torn line; only the first entry survives.
    assert_eq!(Journal::load(&journal_path).expect("tail-tolerant load").len(), 1);

    // Resume: the tail is truncated, the lost experiment re-runs, and
    // the artifacts match the uninterrupted run.
    let healed = run_suite(&registry, &recovery_options(&dir)).expect("resume heals torn tail");
    assert!(healed.all_ok());
    assert!(healed.experiments[0].resumed, "the intact first entry is reused");
    assert_matches_baseline(&dir, &baseline, "torn-append kill");
    // The repaired journal now parses end to end.
    let entries = Journal::load(&journal_path).expect("repaired journal parses");
    assert_eq!(entries.len(), 3);
}

#[test]
fn a_kill_during_recovery_truncation_is_survivable_too() {
    let base_dir = TempDir::new("chaos_recover_base");
    let registry = registry3();
    run_suite(&registry, &options(&base_dir)).expect("baseline run");
    let baseline = artifacts(base_dir.path());

    // First kill: torn journal tail (as above).
    let dir = TempDir::new("chaos_recover_crash");
    let err = run_suite(
        &registry,
        &SuiteOptions {
            chaos: Some(ChaosPlan::single(
                Site::JournalAppendWrite,
                1,
                ChaosKind::TornWriteCrash { keep: 10 },
            )),
            ..options(&dir)
        },
    )
    .expect_err("first kill");
    assert!(matches!(err, SuiteError::Crashed(_)));

    // Second kill: die *during the recovery truncation itself*.
    let err = run_suite(
        &registry,
        &SuiteOptions {
            chaos: Some(ChaosPlan::single(
                Site::JournalRecoverTruncate,
                0,
                ChaosKind::Crash,
            )),
            ..recovery_options(&dir)
        },
    )
    .expect_err("kill during recovery truncation");
    assert!(matches!(err, SuiteError::Crashed(_)), "{err}");

    // Third start: clean resume heals to the baseline.
    let healed = run_suite(&registry, &recovery_options(&dir)).expect("second resume heals");
    assert!(healed.all_ok());
    assert_matches_baseline(&dir, &baseline, "double kill (append, then recover-truncate)");
}

fn run_selftest(dir: &TempDir, seed: u64) -> SuiteReport {
    run_suite(
        &registry5(),
        &SuiteOptions {
            chaos: Some(ChaosPlan::selftest(seed)),
            ..options(dir)
        },
    )
    .expect("selftest plan is recoverable: the suite must survive")
}

#[test]
fn selftest_plan_fires_five_fault_kinds_and_the_suite_degrades_gracefully() {
    let dir = TempDir::new("chaos_selftest");
    let report = run_selftest(&dir, 42);

    // Every experiment still completes; faults degrade, never fail.
    assert!(report.all_ok(), "{:?}", report.experiments.iter().map(|e| &e.status).collect::<Vec<_>>());
    let health = &report.health;
    assert_eq!(health.faults_injected, 5, "kinds fired: {:?}", health.fault_kinds);
    assert_eq!(health.faults_survived, 5, "a selftest plan must never kill the run");
    assert_eq!(
        health.fault_kinds,
        vec!["eio", "enospc", "rename-fail", "short-write", "sync-fail"],
        "all five recoverable kinds must fire"
    );
    // Four result publishes were lost (degraded around), and the first
    // journal checkpoint failure disabled journaling for the run.
    assert_eq!(health.publish_failures, 4);
    assert!(health.journal_degraded);
    // The suite's own summary still landed, with the health section.
    let summary = std::fs::read_to_string(dir.path().join("summary.json")).expect("summary lands");
    assert!(summary.contains("\"faults_injected\": 5"));
    assert!(summary.contains("\"journal_degraded\": true"));

    // Chaos determinism: the same seed reproduces the same injection
    // history, counter for counter.
    let dir2 = TempDir::new("chaos_selftest_repeat");
    let report2 = run_selftest(&dir2, 42);
    assert_eq!(report.health, report2.health);
    assert!(
        diff_artifacts(&artifacts(dir.path()), &artifacts(dir2.path())).is_empty(),
        "same seed, same plan, same surviving artifacts"
    );
}

#[test]
fn random_recoverable_plans_never_abort_and_resume_heals_to_baseline() {
    let base_dir = TempDir::new("chaos_prop_base");
    let registry = registry3();
    run_suite(&registry, &options(&base_dir)).expect("baseline run");
    let baseline = artifacts(base_dir.path());

    run_proptest(
        ProptestConfig::with_cases(16),
        (0u64..u64::MAX, 1usize..8),
        |(seed, n)| {
            let plan = ChaosPlan::random(seed, n);
            let dir = TempDir::new(&format!("chaos_prop_{seed:x}_{n}"));
            // Recoverable faults must degrade the run, never abort it.
            let faulted = run_suite(
                &registry,
                &SuiteOptions {
                    chaos: Some(plan),
                    ..options(&dir)
                },
            );
            prop_assert!(faulted.is_ok(), "recoverable plan aborted the suite: {faulted:?}");
            let report = faulted.unwrap();
            prop_assert!(
                report.experiments.iter().all(|e| e.status == Status::Ok),
                "storage faults must not change experiment statuses: {:?}",
                report.experiments.iter().map(|e| &e.status).collect::<Vec<_>>()
            );
            // One clean restart heals whatever the faults broke.
            let healed = run_suite(&registry, &recovery_options(&dir));
            prop_assert!(healed.is_ok(), "healing run failed: {healed:?}");
            let diff = diff_artifacts(&baseline, &artifacts(dir.path()));
            prop_assert_eq!(diff.len(), 0, "artifacts differ after healing: {:?}", diff);
            Ok(())
        },
        "random_recoverable_plans_never_abort_and_resume_heals_to_baseline",
    );
}
