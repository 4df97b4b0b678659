//! The experiment registry: every table/figure/e-experiment of the
//! paper as a [`pandora_runner::Experiment`] with a smoke and a full
//! profile.
//!
//! Experiment bodies write all output through the [`Ctx`] report
//! handle (never stdout) so the orchestrator can publish results
//! atomically, salvage partial output from a panicking or wedged run,
//! and hash outputs for determinism re-verification on resume.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use pandora_runner::{
    atomic_write, run_suite, Ctx, Experiment, Failure, Profile, Registry, SuiteOptions,
};

pub mod e10_stateless_opts;
pub mod e11_stateful_opts;
pub mod e12_rfc;
pub mod e14_defenses;
pub mod e15_sv_vs_sn_performance;
pub mod e16_noise_robustness;
pub mod e17_scan_service;
pub mod e9_replay_recovery;
pub mod fig2_fig3_mlds;
pub mod fig4_cases;
pub mod fig5_amplification;
pub mod fig6_bsaes_hist;
pub mod fig7_urg;
pub mod table1;
pub mod table2;

/// The full suite, in the paper's presentation order.
#[must_use]
pub fn registry() -> Registry {
    Registry::new()
        .with(table1::experiment())
        .with(table2::experiment())
        .with(fig2_fig3_mlds::experiment())
        .with(fig4_cases::experiment())
        .with(fig5_amplification::experiment())
        .with(fig6_bsaes_hist::experiment())
        .with(fig7_urg::experiment())
        .with(e9_replay_recovery::experiment())
        .with(e10_stateless_opts::experiment())
        .with(e11_stateful_opts::experiment())
        .with(e12_rfc::experiment())
        .with(e14_defenses::experiment())
        .with(e15_sv_vs_sn_performance::experiment())
        .with(e16_noise_robustness::experiment())
        .with(e17_scan_service::experiment())
}

/// Adds the two fault-injection selftests (`runall --selftest`): one
/// experiment that panics mid-run and one that wedges until its
/// deadline. Both must degrade to `partial` while the rest of the
/// suite completes `ok` — the orchestration-level analogue of the
/// simulator's fault-injection acceptance tests.
#[must_use]
pub fn with_selftests(registry: Registry) -> Registry {
    fn panic_body(ctx: &Ctx) -> Result<(), Failure> {
        ctx.header("Selftest: injected panic");
        ctx.line(format_args!(
            "this line is the partial result; the next statement panics"
        ));
        panic!("injected selftest panic (expected; must degrade to partial)");
    }
    fn wedge_body(ctx: &Ctx) -> Result<(), Failure> {
        ctx.header("Selftest: injected wedge");
        ctx.line(format_args!(
            "this line is the partial result; the body now sleeps past its deadline"
        ));
        // A deliberate wedge: never return. The orchestrator's job
        // watchdog must fire and abandon us.
        loop {
            std::thread::sleep(Duration::from_millis(50));
        }
    }
    registry
        .with(Experiment {
            name: "selftest_panic",
            title: "orchestrator selftest: a panicking experiment degrades to partial",
            run: panic_body,
            fingerprint: || 0x5e1f_7e57_0001,
            deadline: Duration::from_secs(10),
        })
        .with(Experiment {
            name: "selftest_wedge",
            title: "orchestrator selftest: a wedged experiment trips its deadline",
            run: wedge_body,
            fingerprint: || 0x5e1f_7e57_0002,
            deadline: Duration::from_secs(2),
        })
}

/// The suite seed every standalone bin runs under (and `runall`'s
/// default): keeps archived `results/*.txt` reproducible.
pub const DEFAULT_SEED: u64 = 0;

/// The flags a bin accepts besides `--smoke` and `--help`/`-h`, by
/// experiment name. They reach the experiment through
/// [`SuiteOptions::args`] and are read with [`Ctx::has_opt`].
const PASS_THROUGH: &[(&str, &[&str])] = &[("e9_replay_recovery", &["--full-slice"])];

/// Uniform `main` for the thin bench-bin wrappers: runs experiment
/// `name` alone through [`run_suite`] (one attempt, seed
/// [`DEFAULT_SEED`], the Full profile unless `--smoke`), prints its
/// `<name>.txt` and publishes that file to `results/` atomically.
///
/// A bin accepts `--smoke`, `--help`/`-h` and its experiment's own
/// pass-through flags (e9's `--full-slice`). Exit codes: 0 when the
/// experiment is `ok` (and for `--help`); 1 when it is not, its text
/// then ending with the runner's `[pandora-runner] PARTIAL RESULTS:
/// <reason>` line; 2 for any other flag (usage on stderr, nothing runs
/// and nothing is written) or when the suite run itself fails.
///
/// # Panics
///
/// If `name` is not in the registry (a wiring bug, not a runtime
/// condition).
#[must_use]
pub fn standalone(name: &str) -> ExitCode {
    let flags = PASS_THROUGH
        .iter()
        .find(|(exp, _)| *exp == name)
        .map_or(&[][..], |(_, flags)| flags);
    let args: Vec<String> = std::env::args().skip(1).collect();
    run_standalone(
        &registry(),
        name,
        flags,
        &args,
        Path::new("results"),
        &mut std::io::stdout().lock(),
    )
}

/// The per-process directory a bin's suite run writes to. Only the
/// experiment's `<name>.txt` leaves it, so a bin run never touches the
/// journal an interrupted `runall --resume` needs.
fn scratch_dir(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pandora-{name}.{}", std::process::id()))
}

/// [`standalone`] over any registry, pass-through `flags`, argument
/// list, results directory and stdout.
fn run_standalone(
    registry: &Registry,
    name: &str,
    flags: &[&str],
    args: &[String],
    results_dir: &Path,
    out: &mut impl Write,
) -> ExitCode {
    assert!(
        registry.get(name).is_some(),
        "experiment {name:?} is not registered"
    );
    let usage: String = flags.iter().map(|f| format!(" [{f}]")).collect();
    let usage = format!("usage: {name} [--smoke]{usage}");
    let mut profile = Profile::Full;
    let mut pass = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--smoke" => profile = Profile::Smoke,
            "--help" | "-h" => {
                eprintln!("{usage}");
                return ExitCode::SUCCESS;
            }
            flag if flags.contains(&flag) => pass.push(arg.clone()),
            other => {
                eprintln!("{name}: unknown flag {other:?}\n{usage}");
                return ExitCode::from(2);
            }
        }
    }
    let scratch = scratch_dir(name);
    let _ = fs::remove_dir_all(&scratch);
    let opts = SuiteOptions {
        profile,
        results_dir: scratch.clone(),
        only: Some(name.to_string()),
        max_attempts: 1,
        seed: DEFAULT_SEED,
        args: pass,
        ..SuiteOptions::default()
    };
    let run = run_suite(registry, &opts)
        .map_err(|e| e.to_string())
        .and_then(|report| {
            let text = fs::read(scratch.join(format!("{name}.txt")))
                .map_err(|e| format!("results file was not published: {e}"))?;
            Ok((report.experiments[0].status.clone(), text))
        });
    let _ = fs::remove_dir_all(&scratch);
    let (status, text) = match run {
        Ok(run) => run,
        Err(e) => {
            eprintln!("{name}: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = out.write_all(&text).and_then(|()| out.flush()) {
        eprintln!("{name}: could not print the report: {e}");
    }
    let write = fs::create_dir_all(results_dir)
        .and_then(|()| atomic_write(&results_dir.join(format!("{name}.txt")), &text));
    if let Err(e) = write {
        eprintln!("{name}: could not write results file: {e}");
    }
    match status.reason() {
        None => ExitCode::SUCCESS,
        Some(reason) => {
            eprintln!("{name}: aborting with partial results: {reason}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pandora_runner::outln;
    use pandora_runner::test_util::TempDir;

    #[test]
    fn registry_names_match_bins_and_are_complete() {
        let r = registry();
        let names: Vec<&str> = r.all().iter().map(|e| e.name).collect();
        assert_eq!(
            names,
            vec![
                "table1",
                "table2",
                "fig2_fig3_mlds",
                "fig4_cases",
                "fig5_amplification",
                "fig6_bsaes_hist",
                "fig7_urg",
                "e9_replay_recovery",
                "e10_stateless_opts",
                "e11_stateful_opts",
                "e12_rfc",
                "e14_defenses",
                "e15_sv_vs_sn_performance",
                "e16_noise_robustness",
                "e17_scan_service",
            ],
            "all 15 registered experiments, paper order"
        );
    }

    #[test]
    fn selftests_register_on_top() {
        let r = with_selftests(registry());
        assert!(r.get("selftest_panic").is_some());
        assert!(r.get("selftest_wedge").is_some());
        assert_eq!(r.all().len(), 17);
    }

    #[test]
    fn fingerprints_are_stable_within_a_build() {
        let r = registry();
        for e in r.all() {
            assert_eq!((e.fingerprint)(), (e.fingerprint)(), "{}", e.name);
        }
    }

    /// Experiments the standalone-path tests run as bins.
    fn bin_registry() -> Registry {
        fn ok_body(ctx: &Ctx) -> Result<(), Failure> {
            ctx.header("Bin");
            outln!(
                ctx,
                "profile {}, --x-flag {}",
                ctx.profile().as_str(),
                ctx.has_opt("--x-flag")
            );
            Ok(())
        }
        fn failing_body(ctx: &Ctx) -> Result<(), Failure> {
            outln!(ctx, "measured half of it");
            Err(Failure::new("the second half exploded"))
        }
        fn panicking_body(ctx: &Ctx) -> Result<(), Failure> {
            outln!(ctx, "about to explode");
            panic!("injected bin panic");
        }
        let exp = |name, run| Experiment {
            name,
            title: name,
            run,
            fingerprint: || 1,
            deadline: Duration::from_secs(30),
        };
        Registry::new()
            .with(exp("bin_ok", ok_body))
            .with(exp("bin_flag", ok_body))
            .with(exp("bin_usage", ok_body))
            .with(exp("bin_fail", failing_body))
            .with(exp("bin_panic", panicking_body))
    }

    /// Runs bin `name` of [`bin_registry`] with `args` into a fresh
    /// directory's `results/`: the exit code, what it printed, and the
    /// directory.
    fn run_bin(name: &str, flags: &[&str], args: &[&str]) -> (ExitCode, Vec<u8>, TempDir) {
        let dir = TempDir::new(name);
        let args: Vec<String> = args.iter().map(|a| (*a).to_string()).collect();
        let mut out = Vec::new();
        let results = dir.path().join("results");
        let code = run_standalone(&bin_registry(), name, flags, &args, &results, &mut out);
        assert!(
            !scratch_dir(name).exists(),
            "{name}: scratch directory left behind"
        );
        (code, out, dir)
    }

    /// The sorted file names in `dir` (none if it does not exist).
    fn listing(dir: &Path) -> Vec<String> {
        let Ok(entries) = fs::read_dir(dir) else {
            return Vec::new();
        };
        let mut names: Vec<String> = entries
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn standalone_ok_prints_and_publishes_only_its_text() {
        let (code, out, dir) = run_bin("bin_ok", &[], &["--smoke"]);
        assert_eq!(code, ExitCode::SUCCESS);
        let results = dir.path().join("results");
        assert_eq!(listing(&results), ["bin_ok.txt"]);
        assert_eq!(fs::read(results.join("bin_ok.txt")).unwrap(), out);
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "\n=== Bin ===\nprofile smoke, --x-flag false\n"
        );
    }

    #[test]
    fn standalone_failure_and_panic_keep_partial_output_and_the_footer() {
        for (name, partial, reason) in [
            (
                "bin_fail",
                "measured half of it",
                "failed after 1 attempt(s): the second half exploded",
            ),
            (
                "bin_panic",
                "about to explode",
                "panicked after 1 attempt(s): injected bin panic",
            ),
        ] {
            let (code, out, dir) = run_bin(name, &[], &[]);
            assert_eq!(code, ExitCode::FAILURE, "{name}");
            let text = String::from_utf8(out).unwrap();
            assert_eq!(
                text,
                format!("{partial}\n\n[pandora-runner] PARTIAL RESULTS: {reason}\n")
            );
            let results = dir.path().join("results");
            assert_eq!(listing(&results), [format!("{name}.txt")]);
            assert_eq!(
                fs::read_to_string(results.join(format!("{name}.txt"))).unwrap(),
                text
            );
        }
    }

    #[test]
    fn standalone_pass_through_flag_reaches_the_ctx() {
        let (code, out, _dir) = run_bin("bin_flag", &["--x-flag"], &["--x-flag"]);
        assert_eq!(code, ExitCode::SUCCESS);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("profile full, --x-flag true"), "{text}");
    }

    #[test]
    fn standalone_unknown_flag_exits_2_and_writes_nothing() {
        // `--x-flag` is another experiment's pass-through flag, not this one's.
        for args in [&["--smok"][..], &["--smoke", "--bogus-flag"], &["--x-flag"]] {
            let (code, out, dir) = run_bin("bin_usage", &[], args);
            assert_eq!(code, ExitCode::from(2), "{args:?}");
            assert!(out.is_empty(), "{args:?}");
            assert!(listing(dir.path()).is_empty(), "{args:?}");
        }
    }

    #[test]
    fn pass_through_flags_name_registered_experiments() {
        let r = registry();
        for (name, _) in PASS_THROUGH {
            assert!(r.get(name).is_some(), "{name}");
        }
    }
}
