//! The perf-tracking bench binary (`cargo bench -p pandora-bench
//! --bench perf`). Measures the hot paths every experiment is built
//! from and persists machine-readable results:
//!
//! * `BENCH_5.json` at the repo root (always rewritten),
//! * `BENCH_7.json` at the repo root — the fleet-vs-serial sweep
//!   provisioning comparison (always rewritten),
//! * `results/perf_baseline.json` when `--save-baseline` is passed.
//!
//! Flags (after `--`):
//!
//! * `--quick`        smoke mode: fewer/shorter samples (CI).
//! * `--save-baseline` update `results/perf_baseline.json`.
//! * `--check`        exit nonzero if any `step/*` fastest-sample cost
//!   regressed more than 20% against the committed baseline.

use std::path::{Path, PathBuf};

use criterion::{black_box, Criterion};

use pandora_bench::perf::{
    self, bench10_json, bench5_json, bench7_json, duo_step_machine, e16_grid_jobs,
    fig5_noisy_config, fig5_quiet_config, fig5_step_machine,
    fig5_trial_checkpoint, run_forked_trial, run_grid_fleet, run_grid_forked, run_grid_serial,
    step_regressions, warmup, PerfRecord, PerfReport, FIG5_DELAY, FIG5_TARGET, NOISY_WARMUP_STEPS,
    QUIET_WARMUP_STEPS, STEPS_PER_ITER,
};
use pandora_attacks::{AmplifyGadget, FlushKind};
use pandora_channels::prime_probe::probe_calibration_round;
use pandora_isa::{Asm, Reg};
use pandora_runner::output::atomic_write;
use pandora_sim::Machine;

/// Per-step `step/*` regression tolerance for `--check`, in percent.
const MAX_STEP_REGRESS_PCT: f64 = 20.0;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().expect("repo root exists")
}

fn bench_step_quiet(c: &mut Criterion) {
    let mut m = fig5_step_machine(fig5_quiet_config());
    warmup(&mut m, QUIET_WARMUP_STEPS);
    c.bench_function("step/fig5_quiet", |b| {
        b.iter(|| {
            for _ in 0..STEPS_PER_ITER {
                m.step().expect("quiet step");
            }
            black_box(m.stats().cycles)
        });
    });
}

fn bench_step_noisy(c: &mut Criterion) {
    let mut m = fig5_step_machine(fig5_noisy_config());
    warmup(&mut m, NOISY_WARMUP_STEPS);
    c.bench_function("step/fig5_noisy", |b| {
        b.iter(|| {
            for _ in 0..STEPS_PER_ITER {
                m.step().expect("noisy step");
            }
            black_box(m.stats().cycles)
        });
    });
}

fn bench_step_duo(c: &mut Criterion) {
    let mut duo = duo_step_machine();
    for _ in 0..QUIET_WARMUP_STEPS {
        duo.step().expect("duo warmup step");
    }
    // One iter unit = one DuoMachine step = one step of EACH core.
    c.bench_function("step/duo", |b| {
        b.iter(|| {
            for _ in 0..STEPS_PER_ITER {
                duo.step().expect("duo step");
            }
            black_box(duo.core_a().stats().cycles)
        });
    });
}

fn bench_prime_probe(c: &mut Criterion) {
    let cfg = fig5_quiet_config();
    c.bench_function("channel/prime_probe_round", |b| {
        b.iter(|| black_box(probe_calibration_round(&cfg, 8, None).expect("calibration round")));
    });
}

fn bench_fig5_amplification(c: &mut Criterion) {
    // One amplified silent-store trial, exactly the fig5 experiment's
    // unit of work (set-contention variant, silent case).
    let cfg = fig5_quiet_config();
    let gadget = AmplifyGadget::new(&cfg, FIG5_TARGET, FIG5_DELAY, FlushKind::Contention);
    let mut a = Asm::new();
    a.ld(Reg::T0, Reg::ZERO, FIG5_TARGET as i64);
    for i in 1..6i64 {
        a.ld(Reg::T0, Reg::ZERO, (FIG5_TARGET + 0x1000) as i64 + 64 * i);
    }
    a.fence();
    a.li(Reg::T0, 42);
    gadget.emit(&mut a);
    a.sd(Reg::T0, Reg::ZERO, FIG5_TARGET as i64);
    for i in 1..6i64 {
        a.sd(Reg::T0, Reg::ZERO, (FIG5_TARGET + 0x1000) as i64 + 64 * i);
    }
    a.fence();
    a.halt();
    let prog = a.assemble().expect("fig5 trial assembles");
    c.bench_function("attack/fig5_amplified_trial", |b| {
        b.iter(|| {
            let mut m = Machine::new(cfg);
            m.load_program(&prog);
            m.mem_mut().write_u64(FIG5_TARGET, 42).expect("target mapped");
            gadget.setup_memory(m.mem_mut());
            gadget.setup_memory_flush_variant(m.mem_mut());
            black_box(m.run(1_000_000).expect("fig5 trial completes").cycles)
        });
    });
}

fn bench_fig5_forked(c: &mut Criterion) {
    // The same amplified trial as attack/fig5_amplified_trial, but
    // provisioned the two-tier way: the warm prefix (program load,
    // gadget memory image, six warm loads + fence) is captured once in
    // a mid-run checkpoint; each iteration restores it into a reused
    // machine, writes the trial's target value, and runs only the
    // measured suffix. The golden suite pins this fork byte-identical
    // to the straight run, so the two benches time the same trial.
    let ck = fig5_trial_checkpoint();
    let mut m = Machine::from_checkpoint(&ck);
    c.bench_function("attack/fig5_amplified_trial_forked", |b| {
        b.iter(|| black_box(run_forked_trial(&mut m, &ck)));
    });
}

fn bench_e16_grid(c: &mut Criterion) {
    // The tentpole comparison behind BENCH_7.json: the same 40-trial
    // E16-shaped sweep (8 amplified silent-store trials at each of 5
    // noise intensities), provisioned the pre-fleet way (per-trial
    // fresh assemble + Machine::new) vs the fleet way (shared Arc'd
    // program, machines recycled via reset_to). Identical per-trial
    // work — the unit-cost gap is pure provisioning overhead.
    let jobs = e16_grid_jobs();
    c.bench_function("serial/e16_grid", |b| {
        b.iter(|| black_box(run_grid_serial(&jobs)));
    });
    c.bench_function("fleet/e16_grid", |b| {
        b.iter(|| black_box(run_grid_fleet(&jobs)));
    });
    // The BENCH_10 grid leg: same sweep again, forked from a shared
    // cycle-0 checkpoint with per-job noise overrides.
    c.bench_function("forked/e16_grid", |b| {
        b.iter(|| black_box(run_grid_forked(&jobs)));
    });
}

fn work_per_iter(id: &str) -> u64 {
    if id.starts_with("step/") {
        STEPS_PER_ITER
    } else if id.ends_with("/e16_grid") {
        e16_grid_jobs().len() as u64
    } else {
        1
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let has = |f: &str| args.iter().any(|a| a == f);
    let quick = has("--quick");
    let save_baseline = has("--save-baseline");
    let check = has("--check");

    // Full mode takes many *short* samples rather than a few long
    // ones: on a shared runner, a 10 ms window averages co-tenant
    // bursts into every sample, while 2 ms windows let the fastest
    // sample (the statistic everything reports — see
    // `PerfRecord::best_unit_ns`) land between bursts.
    let mut c = if quick {
        Criterion::default().sample_size(5).measurement_millis(2)
    } else {
        Criterion::default().sample_size(80).measurement_millis(2)
    };

    bench_step_quiet(&mut c);
    bench_step_noisy(&mut c);
    bench_step_duo(&mut c);
    bench_prime_probe(&mut c);
    bench_fig5_amplification(&mut c);
    bench_fig5_forked(&mut c);
    bench_e16_grid(&mut c);
    c.final_summary();

    let benches: Vec<PerfRecord> = c
        .take_records()
        .into_iter()
        .map(|r| PerfRecord {
            work_per_iter: work_per_iter(&r.id),
            id: r.id,
            median_ns: r.median_ns,
            min_ns: r.min_ns,
            max_ns: r.max_ns,
            iters: r.iters,
            samples: r.samples,
        })
        .collect();
    let report = PerfReport {
        schema: perf::PERF_SCHEMA,
        mode: if quick { "quick".into() } else { "full".into() },
        benches,
    };

    let root = repo_root();
    let bench5 = root.join("BENCH_5.json");
    atomic_write(&bench5, bench5_json(&report).as_bytes()).expect("write BENCH_5.json");
    println!("\nwrote {}", bench5.display());

    let bench7 = root.join("BENCH_7.json");
    atomic_write(&bench7, bench7_json(&report).as_bytes()).expect("write BENCH_7.json");
    println!("wrote {}", bench7.display());
    if let (Some(serial), Some(fl)) = (report.get("serial/e16_grid"), report.get("fleet/e16_grid")) {
        println!(
            "fleet grid: {:.1} us/trial serial vs {:.1} us/trial fleet ({:.2}x)",
            serial.best_unit_ns() / 1000.0,
            fl.best_unit_ns() / 1000.0,
            serial.best_unit_ns() / fl.best_unit_ns(),
        );
    }

    let bench10 = root.join("BENCH_10.json");
    atomic_write(&bench10, bench10_json(&report).as_bytes()).expect("write BENCH_10.json");
    println!("wrote {}", bench10.display());
    let trial_pair = (
        report.get("attack/fig5_amplified_trial"),
        report.get("attack/fig5_amplified_trial_forked"),
    );
    if let (Some(replay), Some(forked)) = trial_pair {
        println!(
            "checkpoint trial: {:.1} us replay vs {:.1} us forked ({:.2}x)",
            replay.best_unit_ns() / 1000.0,
            forked.best_unit_ns() / 1000.0,
            replay.best_unit_ns() / forked.best_unit_ns(),
        );
    }

    for (id, pre_ns) in perf::PRE_PR_STEP_NS {
        if let Some(rec) = report.get(id) {
            println!(
                "{id}: {:.0} ns/step best, {:.0} median ({:.2}x vs pre-PR {pre_ns:.0} ns)",
                rec.best_unit_ns(),
                rec.unit_ns(),
                pre_ns / rec.best_unit_ns()
            );
        }
    }

    let baseline_path = root.join("results/perf_baseline.json");
    if save_baseline {
        std::fs::create_dir_all(root.join("results")).expect("results dir");
        atomic_write(&baseline_path, report.to_json().as_bytes()).expect("write baseline");
        println!("wrote {}", baseline_path.display());
    }

    if check {
        // The two-tier execution gate: restoring a checkpoint must not
        // be slower than replaying the trial from scratch. Unlike the
        // step/* gate this needs no committed baseline — both sides are
        // measured in this very run.
        if let (Some(replay), Some(forked)) = trial_pair {
            if forked.best_unit_ns() > replay.best_unit_ns() {
                eprintln!(
                    "perf gate FAILED: forked trial {:.1} ns slower than replay {:.1} ns",
                    forked.best_unit_ns(),
                    replay.best_unit_ns(),
                );
                std::process::exit(1);
            }
            println!(
                "perf gate: OK (forked trial {:.1} ns <= replay {:.1} ns)",
                forked.best_unit_ns(),
                replay.best_unit_ns(),
            );
        }
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
                eprintln!("perf gate: no baseline at {} (run with --save-baseline)", baseline_path.display());
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("perf gate: bad baseline: {e}");
                std::process::exit(1);
            }
        }
    }
}
