//! The experiment registry: every table/figure/e-experiment of the
//! paper as a [`pandora_runner::Experiment`] with a smoke and a full
//! profile.
//!
//! Experiment bodies write all output through the [`Ctx`] report
//! handle (never stdout) so the orchestrator can publish results
//! atomically, salvage partial output from a panicking or wedged run,
//! and hash outputs for determinism re-verification on resume.

use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use pandora_runner::{partial_results, Ctx, Experiment, Failure, Profile, Registry};

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

/// Uniform `main` for the thin bench-bin wrappers: parses `--smoke`
/// (profile) plus pass-through flags, runs the named experiment with
/// panic isolation under its deadline, prints the report, publishes
/// `results/<name>.txt` atomically, and exits nonzero with partial
/// results on failure.
///
/// # Panics
///
/// If `name` is not in the registry (a wiring bug, not a runtime
/// condition).
#[must_use]
pub fn standalone(name: &str) -> ExitCode {
    let registry = registry();
    let exp = registry
        .get(name)
        .unwrap_or_else(|| panic!("experiment {name:?} is not registered"));
    let mut profile = Profile::Full;
    let mut opts = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => profile = Profile::Smoke,
            "--help" | "-h" => {
                eprintln!(
                    "usage: {name} [--smoke]{}",
                    if name == "e9_replay_recovery" {
                        " [--full-slice]"
                    } else {
                        ""
                    }
                );
                return ExitCode::SUCCESS;
            }
            _ => opts.push(arg),
        }
    }
    let outcome = partial_results::standalone_run(
        exp,
        profile,
        DEFAULT_SEED,
        &opts,
        Some(Path::new("results")),
    );
    partial_results::exit_code(name, &outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
