//! The perf bench (`cargo bench -p pandora-bench --bench perf`): times
//! the workloads its two gates read (see `pandora_bench::perf`) and
//! writes the run's report to `target/perf_report.json`, which git
//! ignores.
//!
//! Flags (after `--`):
//!
//! * `--quick`         smoke mode: 5 samples per bench instead of 80 (CI).
//! * `--save-baseline` rewrite `results/perf_baseline.json` from this run.
//! * `--check`         exit nonzero if the forked fig5 trial is slower
//!   than its replay, or if any `step/*` fastest-sample cost regressed
//!   more than 20% against the committed baseline.

use std::path::{Path, PathBuf};

use pandora_bench::perf::{
    self, duo_step_machine, fig5_noisy_config, fig5_quiet_config, fig5_step_machine, fig5_trial,
    fig5_trial_checkpoint, measure, run_forked_trial, run_replay_trial, step_regressions, warmup,
    PerfRecord, PerfReport, NOISY_WARMUP_STEPS, QUIET_WARMUP_STEPS, STEPS_PER_ITER,
};
use pandora_runner::output::atomic_write;
use pandora_sim::{Machine, SimConfig};

/// Per-step `step/*` regression tolerance for `--check`, in percent.
const MAX_STEP_REGRESS_PCT: f64 = 20.0;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root exists")
}

/// `step/fig5_*`: one iteration is [`STEPS_PER_ITER`] steps of a warm
/// fig5 loop machine.
fn bench_step(id: &str, cfg: SimConfig, warmup_steps: u64, samples: usize) -> PerfRecord {
    let mut m = fig5_step_machine(cfg);
    warmup(&mut m, warmup_steps);
    measure(id, STEPS_PER_ITER, samples, || {
        for _ in 0..STEPS_PER_ITER {
            m.step().expect("fig5 loop step");
        }
        m.stats().cycles
    })
}

/// `step/duo`: one iteration is [`STEPS_PER_ITER`] DuoMachine steps,
/// each a step of *both* cores.
fn bench_step_duo(samples: usize) -> PerfRecord {
    let mut duo = duo_step_machine();
    for _ in 0..QUIET_WARMUP_STEPS {
        duo.step().expect("duo warmup step");
    }
    measure("step/duo", STEPS_PER_ITER, samples, || {
        for _ in 0..STEPS_PER_ITER {
            duo.step().expect("duo step");
        }
        duo.core_a().stats().cycles
    })
}

/// `attack/fig5_amplified_trial` and its `_forked` twin: one trial per
/// iteration, replayed on a fresh machine and restored from the warm
/// checkpoint.
fn bench_fig5_trials(samples: usize) -> (PerfRecord, PerfRecord) {
    let (prog, gadget) = fig5_trial();
    let replay = measure("attack/fig5_amplified_trial", 1, samples, || {
        run_replay_trial(&prog, &gadget)
    });
    let ck = fig5_trial_checkpoint(&prog, &gadget);
    let mut m = Machine::from_checkpoint(&ck);
    let forked = measure("attack/fig5_amplified_trial_forked", 1, samples, || {
        run_forked_trial(&mut m, &ck)
    });
    (replay, forked)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let has = |f: &str| args.iter().any(|a| a == f);
    let quick = has("--quick");
    let samples = if quick { 5 } else { 80 };

    let quiet = bench_step(
        "step/fig5_quiet",
        fig5_quiet_config(),
        QUIET_WARMUP_STEPS,
        samples,
    );
    let noisy = bench_step(
        "step/fig5_noisy",
        fig5_noisy_config(),
        NOISY_WARMUP_STEPS,
        samples,
    );
    let duo = bench_step_duo(samples);
    let (replay, forked) = bench_fig5_trials(samples);
    let (replay_ns, forked_ns) = (replay.best_unit_ns(), forked.best_unit_ns());
    println!(
        "checkpoint trial: {:.1} us replay vs {:.1} us forked ({:.2}x)",
        replay_ns / 1000.0,
        forked_ns / 1000.0,
        replay_ns / forked_ns,
    );
    let report = PerfReport {
        schema: perf::PERF_SCHEMA,
        mode: if quick { "quick".into() } else { "full".into() },
        benches: vec![quiet, noisy, duo, replay, forked],
    };

    let root = repo_root();
    let json = report.to_json();
    let out = root.join("target/perf_report.json");
    std::fs::create_dir_all(root.join("target")).expect("target dir");
    atomic_write(&out, json.as_bytes()).expect("write perf report");
    println!("\nwrote {}", out.display());

    let baseline_path = root.join("results/perf_baseline.json");
    if has("--save-baseline") {
        std::fs::create_dir_all(root.join("results")).expect("results dir");
        atomic_write(&baseline_path, json.as_bytes()).expect("write baseline");
        println!("wrote {}", baseline_path.display());
    }

    if has("--check") {
        // The checkpoint fork gate: restoring a checkpoint must not
        // be slower than replaying the trial from scratch. Unlike the
        // step/* gate this needs no committed baseline: both sides are
        // measured in this very run.
        if forked_ns > replay_ns {
            eprintln!(
                "perf gate FAILED: forked trial {forked_ns:.1} ns slower than replay {replay_ns:.1} ns"
            );
            std::process::exit(1);
        }
        println!("perf gate: OK (forked trial {forked_ns:.1} ns <= replay {replay_ns:.1} ns)");
        match perf::check_baseline_file(&baseline_path) {
            Ok(Some(baseline)) => {
                let fails = step_regressions(&report, &baseline, MAX_STEP_REGRESS_PCT);
                if fails.is_empty() {
                    println!("perf gate: OK (no step/* regression > {MAX_STEP_REGRESS_PCT}%)");
                } else {
                    eprintln!("perf gate FAILED:");
                    for f in &fails {
                        eprintln!("  {f}");
                    }
                    std::process::exit(1);
                }
            }
            Ok(None) => {
                eprintln!(
                    "perf gate: no baseline at {} (run with --save-baseline)",
                    baseline_path.display()
                );
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("perf gate: bad baseline: {e}");
                std::process::exit(1);
            }
        }
    }
}
