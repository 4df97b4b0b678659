//! Performance-tracking layer: workloads, sampler, report format, and
//! the two regression gates behind `cargo bench -p pandora-bench
//! --bench perf`.
//!
//! The bench measures only what its gates read:
//!
//! * **`step/*`**: [`Machine::step`] throughput, quiet, under
//!   deterministic noise, and on a [`DuoMachine`] with a traffic
//!   co-runner. Under `--check`, no fastest-sample cost may regress
//!   more than 20% against the committed `results/perf_baseline.json`
//!   (see [`PerfRecord::best_unit_ns`] for why the minimum, not the
//!   median, is compared). `runall --smoke` validates that the file
//!   parses.
//! * **`attack/*`**: one fig5 amplified trial ([`fig5_trial`]),
//!   replayed on a fresh machine and forked from a warm mid-run
//!   [`Checkpoint`]. Under `--check`, the fork may not be slower than
//!   the replay.
//!
//! A run writes its report to an untracked path under `target/`; only
//! `--save-baseline` writes a tracked file, the baseline. The committed
//! `BENCH_5.json`, `BENCH_7.json` and `BENCH_10.json` are history in
//! the same format and are never rewritten. Channel rounds, fleet grids
//! and machine provisioning are measured by the repo benchmark
//! (`benchmark/`), not here.
//!
//! Reports are read back through the workspace JSON codec
//! ([`pandora_runner::json`]); [`PerfReport::to_json`] formats floats
//! with a fixed number of decimals, which that codec's number printing
//! does not.

use std::hint::black_box;
use std::time::{Duration, Instant};

use pandora_attacks::{AmplifyGadget, FlushKind};
use pandora_isa::{Asm, Program, Reg};
use pandora_runner::json::{self, Json};
use pandora_sim::noise::{traffic_program, NoiseConfig};
use pandora_sim::{Checkpoint, DuoMachine, Machine, OptConfig, SimConfig};

/// Target line of the fig5 silent-store gadget (matches
/// `experiments::fig5_amplification`).
pub const FIG5_TARGET: u64 = 0x1_0000;
/// Delay-chain line of the fig5 gadget.
pub const FIG5_DELAY: u64 = 0x8_0000;
/// Steps executed per measured iteration of the `step/*` benches.
pub const STEPS_PER_ITER: u64 = 1000;

/// Steady-state warmup for a quiet machine: enough steps for every
/// pipeline scratch buffer and predictor table to reach its high-water
/// mark.
pub const QUIET_WARMUP_STEPS: u64 = 20_000;
/// Steady-state warmup under noise. The windowed fill/evict traffic
/// touches cache sets the workload never does, but each cache is one
/// array allocated whole by `Cache::new`, so filling them allocates
/// nothing: a counting allocator sees the noisy machine's last
/// allocation at step 129, as for the quiet one. The longer warmup is
/// margin.
pub const NOISY_WARMUP_STEPS: u64 = 150_000;

/// The quiet fig5 configuration (silent stores on, as in the golden
/// `FIG5_*` snapshots).
#[must_use]
pub fn fig5_quiet_config() -> SimConfig {
    SimConfig::with_opts(OptConfig::with_silent_stores())
}

/// The noisy fig5 configuration: pinned-seed environmental noise over
/// the gadget's window plus paranoid invariant checking — exactly the
/// `FIG5_NOISY` golden configuration.
#[must_use]
pub fn fig5_noisy_config() -> SimConfig {
    let mut cfg = fig5_quiet_config();
    cfg.noise = NoiseConfig::at_intensity(30, 0xfeed).with_window(0x1_0000, 0x2_0000);
    cfg.paranoid_checks = true;
    cfg
}

/// A never-halting fig5-shaped loop: a silent store to the target
/// line, a loud store next to it, two loads (target + delay chain),
/// ALU traffic, and a backward branch. Used by the `step/*` benches
/// and the zero-allocation steady-state test, which both need the
/// machine to survive an unbounded number of [`Machine::step`] calls.
#[must_use]
pub fn fig5_step_program() -> Program {
    let mut a = Asm::new();
    a.li(Reg::T0, FIG5_TARGET);
    a.li(Reg::T3, FIG5_DELAY);
    a.li(Reg::T6, 42); // the pre-seeded target value: the store below is silent
    a.label("spin");
    a.ld(Reg::T1, Reg::T0, 0);
    a.sd(Reg::T6, Reg::T0, 0);
    a.addi(Reg::T2, Reg::T2, 1);
    a.xor(Reg::T4, Reg::T4, Reg::T2);
    a.ld(Reg::T5, Reg::T3, 0);
    a.sd(Reg::T2, Reg::T0, 64);
    a.bnez(Reg::T0, "spin"); // T0 is never zero: spins forever
    a.halt(); // unreachable, but every program ends in a halt
    a.assemble().expect("fig5 step loop assembles")
}

/// Builds a machine running [`fig5_step_program`] under `cfg`, with
/// the target line pre-seeded so the gadget's store is silent.
#[must_use]
pub fn fig5_step_machine(cfg: SimConfig) -> Machine {
    let mut m = Machine::new(cfg);
    m.load_program(&fig5_step_program());
    m.mem_mut()
        .write_u64(FIG5_TARGET, 42)
        .expect("target is mapped");
    m
}

/// Builds the DuoMachine step workload: core A runs the fig5 loop,
/// core B runs a pseudo-random [`traffic_program`] over the shared-L2
/// window (with enough rounds that it outlives any measurement).
#[must_use]
pub fn duo_step_machine() -> DuoMachine {
    let a = fig5_step_machine(fig5_quiet_config());
    let mut b = Machine::new(fig5_quiet_config());
    b.load_program(&traffic_program(0x7ab7, 0x1_0000, 0x1_0000, u32::MAX as u64));
    DuoMachine::new(a, b)
}

/// Runs `steps` warmup steps, panicking on any simulation error (the step
/// workloads are constructed never to fault or halt).
pub fn warmup(m: &mut Machine, steps: u64) {
    for _ in 0..steps {
        m.step().expect("warmup step");
    }
}

// ---------------------------------------------------------------------------
// The fig5 amplified trial (the `attack/*` benches and the fork gate)
// ---------------------------------------------------------------------------

/// Cycle budget of one fig5 trial.
const FIG5_TRIAL_MAX_CYCLES: u64 = 1_000_000;

/// The fig5 amplified silent-store trial both `attack/*` benches time
/// (set-contention variant, silent case) under [`fig5_quiet_config`]:
/// the program (six warm loads and a fence, the contention gadget, the
/// target store, trailing stores) and the gadget whose memory image is
/// the trial's prep.
#[must_use]
pub fn fig5_trial() -> (Program, AmplifyGadget) {
    let gadget = AmplifyGadget::new(
        &fig5_quiet_config(),
        FIG5_TARGET,
        FIG5_DELAY,
        FlushKind::Contention,
    );
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
    (a.assemble().expect("fig5 trial assembles"), gadget)
}

/// One replayed trial, the body of `attack/fig5_amplified_trial`: a
/// fresh machine, the program and the gadget's memory image, then the
/// silent target write and the run to halt. Returns the cycle count.
#[must_use]
pub fn run_replay_trial(prog: &Program, gadget: &AmplifyGadget) -> u64 {
    let mut m = Machine::new(fig5_quiet_config());
    m.load_program(prog);
    gadget.setup_memory(m.mem_mut());
    finish_trial(&mut m)
}

/// The warm checkpoint the forked trial restores: the same machine as
/// [`run_replay_trial`] builds, with the six warm loads and the fence
/// already committed. The target write happens after forking;
/// `tests/golden_stats.rs` pins this fork as byte-identical to a
/// straight run.
#[must_use]
pub fn fig5_trial_checkpoint(prog: &Program, gadget: &AmplifyGadget) -> Checkpoint {
    let mut warm = Machine::new(fig5_quiet_config());
    warm.load_program(prog);
    gadget.setup_memory(warm.mem_mut());
    warm.run_until_committed(7, FIG5_TRIAL_MAX_CYCLES)
        .expect("warm prefix completes");
    warm.snapshot()
}

/// One forked trial, the body of `attack/fig5_amplified_trial_forked`:
/// restore `ck` into a reused machine, then the silent target write and
/// the run to halt. No construction, no assembly, no warm-prefix
/// replay. Returns the cycle count.
#[must_use]
pub fn run_forked_trial(m: &mut Machine, ck: &Checkpoint) -> u64 {
    m.restore(ck);
    finish_trial(m)
}

/// The tail both trial bodies share.
fn finish_trial(m: &mut Machine) -> u64 {
    m.mem_mut().write_u64(FIG5_TARGET, 42).expect("target mapped");
    m.run(FIG5_TRIAL_MAX_CYCLES).expect("fig5 trial completes").cycles
}

// ---------------------------------------------------------------------------
// Sampler
// ---------------------------------------------------------------------------

/// Calibration target of one timed sample. Many short samples beat a
/// few long ones on a shared runner: a 10 ms window averages co-tenant
/// bursts into every sample, while 2 ms windows let the fastest sample
/// (the statistic the gates compare, see [`PerfRecord::best_unit_ns`])
/// land between bursts.
const SAMPLE_WINDOW: Duration = Duration::from_millis(2);

/// Times `routine`, one call of which performs `work_per_iter` work
/// units (steps, trials): doubles the iteration count until one sample
/// fills a 2 ms window, so fast routines are not dominated by timer
/// resolution, then takes `samples` timed samples. Prints a summary
/// line and returns the record.
pub fn measure<T>(
    id: &str,
    work_per_iter: u64,
    samples: usize,
    mut routine: impl FnMut() -> T,
) -> PerfRecord {
    let mut sample = |iters: u64| {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(routine());
        }
        start.elapsed()
    };
    let mut iters = 1u64;
    while iters < 1 << 20 && sample(iters) < SAMPLE_WINDOW {
        iters *= 2;
    }
    let mut ns: Vec<f64> = (0..samples.max(1))
        .map(|_| sample(iters).as_secs_f64() * 1e9 / iters as f64)
        .collect();
    ns.sort_by(f64::total_cmp);
    let rec = PerfRecord {
        id: id.to_string(),
        median_ns: ns[ns.len() / 2],
        min_ns: ns[0],
        max_ns: ns[ns.len() - 1],
        iters,
        samples: ns.len(),
        work_per_iter,
    };
    println!(
        "{id:<36} {:>10.1} ns/unit best, {:>10.1} median  ({} samples x {iters} iters, {work_per_iter} units/iter)",
        rec.best_unit_ns(),
        rec.median_ns / work_per_iter as f64,
        rec.samples,
    );
    rec
}

// ---------------------------------------------------------------------------
// Report format
// ---------------------------------------------------------------------------

/// Schema version stamped into every report this module writes.
pub const PERF_SCHEMA: u32 = 1;

/// One benchmark's summary: per-iteration times plus how much work one
/// iteration performs (e.g. [`STEPS_PER_ITER`] machine steps).
#[derive(Clone, Debug, PartialEq)]
pub struct PerfRecord {
    /// Benchmark id (`step/fig5_quiet`, `attack/fig5_amplified_trial`, …).
    pub id: String,
    /// Median per-iteration time in nanoseconds.
    pub median_ns: f64,
    /// Fastest sample.
    pub min_ns: f64,
    /// Slowest sample.
    pub max_ns: f64,
    /// Iterations per sample after calibration.
    pub iters: u64,
    /// Number of timed samples.
    pub samples: usize,
    /// Work units (steps, rounds, trials) per iteration.
    pub work_per_iter: u64,
}

impl PerfRecord {
    /// Fastest-sample cost of one work unit, in nanoseconds. On the
    /// shared single-core runners this suite targets, co-tenant
    /// interference is strictly *additive* — it can only slow a sample
    /// down, never speed it up — so the minimum over samples is the
    /// robust estimator of intrinsic cost (medians swing ±40% with
    /// machine load). Both gates compare this.
    #[must_use]
    pub fn best_unit_ns(&self) -> f64 {
        self.min_ns / self.work_per_iter.max(1) as f64
    }
}

/// A perf report: what a bench run writes and what
/// `results/perf_baseline.json` holds. The committed `BENCH_*.json`
/// files add summary sections on top, which the parser ignores.
#[derive(Clone, Debug, PartialEq)]
pub struct PerfReport {
    /// Format version ([`PERF_SCHEMA`]).
    pub schema: u32,
    /// `"full"` or `"quick"`.
    pub mode: String,
    /// One entry per benchmark.
    pub benches: Vec<PerfRecord>,
}

impl PerfReport {
    /// Looks up a record by id.
    #[must_use]
    pub fn get(&self, id: &str) -> Option<&PerfRecord> {
        self.benches.iter().find(|b| b.id == id)
    }

    /// Serializes the report (stable key order, one bench per line).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256 + 192 * self.benches.len());
        s.push_str("{\n");
        s.push_str(&format!("  \"schema\": {},\n", self.schema));
        s.push_str(&format!("  \"mode\": \"{}\",\n", self.mode));
        s.push_str("  \"benches\": [\n");
        for (i, b) in self.benches.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"id\": \"{}\", \"median_ns\": {:.1}, \"min_ns\": {:.1}, \"max_ns\": {:.1}, \"iters\": {}, \"samples\": {}, \"work_per_iter\": {}}}{}\n",
                b.id, b.median_ns, b.min_ns, b.max_ns, b.iters, b.samples, b.work_per_iter,
                if i + 1 == self.benches.len() { "" } else { "," },
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Parses a report previously written by [`PerfReport::to_json`]
    /// (or a committed `BENCH_*.json` file; unknown keys are ignored).
    ///
    /// # Errors
    ///
    /// A human-readable description of the first syntax or shape
    /// problem encountered.
    pub fn from_json(text: &str) -> Result<PerfReport, String> {
        let v = json::parse(text).map_err(|e| e.to_string())?;
        let num = |o: &Json, k: &str| match o.get(k) {
            Some(Json::Num(n)) => Some(*n),
            _ => None,
        };
        let schema = num(&v, "schema").ok_or("missing \"schema\"")? as u32;
        let mode = v
            .get("mode")
            .and_then(Json::as_str)
            .ok_or("missing \"mode\"")?
            .to_string();
        let benches_v = v
            .get("benches")
            .and_then(Json::as_array)
            .ok_or("missing \"benches\" array")?;
        let mut benches = Vec::with_capacity(benches_v.len());
        for (i, b) in benches_v.iter().enumerate() {
            let field = |k: &str| num(b, k).ok_or_else(|| format!("bench #{i}: missing \"{k}\""));
            benches.push(PerfRecord {
                id: b
                    .get("id")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("bench #{i}: missing \"id\""))?
                    .to_string(),
                median_ns: field("median_ns")?,
                min_ns: field("min_ns")?,
                max_ns: field("max_ns")?,
                iters: field("iters")? as u64,
                samples: field("samples")? as usize,
                work_per_iter: field("work_per_iter")? as u64,
            });
        }
        Ok(PerfReport { schema, mode, benches })
    }
}

/// Compares `current` against `baseline` on every `step/*` benchmark:
/// returns one message per benchmark whose per-unit fastest-sample
/// cost ([`PerfRecord::best_unit_ns`]) regressed more than
/// `max_regress_pct` percent. Missing baseline entries are skipped
/// (new benchmarks are not regressions); an empty return means the
/// gate passes.
#[must_use]
pub fn step_regressions(
    current: &PerfReport,
    baseline: &PerfReport,
    max_regress_pct: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    for cur in current.benches.iter().filter(|b| b.id.starts_with("step/")) {
        let Some(base) = baseline.get(&cur.id) else {
            continue;
        };
        let limit = base.best_unit_ns() * (1.0 + max_regress_pct / 100.0);
        if cur.best_unit_ns() > limit {
            failures.push(format!(
                "{}: {:.1} ns/step vs baseline {:.1} ns/step (+{:.1}% > {:.0}% allowed)",
                cur.id,
                cur.best_unit_ns(),
                base.best_unit_ns(),
                (cur.best_unit_ns() / base.best_unit_ns() - 1.0) * 100.0,
                max_regress_pct,
            ));
        }
    }
    failures
}

/// Validates a perf-baseline file for `runall --smoke`: `Ok(None)` if
/// the file does not exist (fresh results dir), `Ok(Some(report))` if
/// it parses, `Err` with a description otherwise.
///
/// # Errors
///
/// An unreadable or unparsable file (a torn write, hand-edit, or
/// format drift CI should catch).
pub fn check_baseline_file(path: &std::path::Path) -> Result<Option<PerfReport>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    PerfReport::from_json(&text)
        .map(Some)
        .map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: &str, median: f64, work: u64) -> PerfRecord {
        PerfRecord {
            id: id.to_string(),
            median_ns: median,
            min_ns: median * 0.9,
            max_ns: median * 1.2,
            iters: 64,
            samples: 10,
            work_per_iter: work,
        }
    }

    fn report(benches: Vec<PerfRecord>) -> PerfReport {
        PerfReport { schema: PERF_SCHEMA, mode: "full".into(), benches }
    }

    #[test]
    fn report_json_round_trips() {
        let r = report(vec![rec("step/fig5_quiet", 123_456.7, 1000), rec("channel/pp", 9.5e6, 1)]);
        let parsed = PerfReport::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed.schema, r.schema);
        assert_eq!(parsed.mode, r.mode);
        assert_eq!(parsed.benches.len(), 2);
        assert_eq!(parsed.benches[0].id, "step/fig5_quiet");
        assert!((parsed.benches[0].median_ns - 123_456.7).abs() < 0.2);
        assert_eq!(parsed.benches[1].work_per_iter, 1);
    }

    #[test]
    fn committed_reports_parse_to_the_pinned_records() {
        // Digests of the records the pre-codec reader produced from the
        // committed files, which are history and never rewritten.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for (file, len, digest) in [
            ("BENCH_5.json", 10, 0x5396_03e2_af32_7d35),
            ("BENCH_7.json", 10, 0x5396_03e2_af32_7d35),
            ("BENCH_10.json", 10, 0x5396_03e2_af32_7d35),
            ("results/perf_baseline.json", 5, 0xdd3c_82e2_4892_e695),
        ] {
            let text = std::fs::read_to_string(root.join(file)).unwrap();
            let r = PerfReport::from_json(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
            assert_eq!(r.benches.len(), len, "{file}");
            let got = pandora_runner::fnv1a64(format!("{r:?}").as_bytes());
            assert_eq!(got, digest, "{file}: parsed records changed");
        }
    }

    #[test]
    fn forked_trial_matches_replay_cycles() {
        // The fork gate compares two bodies that must time the same
        // trial: forking from the warm mid-run checkpoint and replaying
        // from scratch land on the same cycle count (the golden suite
        // pins the full stats; this pins the two bench bodies against
        // each other).
        let (prog, gadget) = fig5_trial();
        let replay_cycles = run_replay_trial(&prog, &gadget);
        let ck = fig5_trial_checkpoint(&prog, &gadget);
        assert!(ck.cycle() > 0, "the trial checkpoint must be mid-run");
        let mut m = Machine::from_checkpoint(&ck);
        // Two forked trials back to back: the second restores over a
        // dirty, already-halted machine, as the bench loop does.
        assert_eq!(run_forked_trial(&mut m, &ck), replay_cycles);
        assert_eq!(run_forked_trial(&mut m, &ck), replay_cycles);
    }

    #[test]
    fn measure_records_its_samples() {
        let r = measure("unit/spin", 3, 4, || black_box(1u64) + 1);
        assert_eq!((r.id.as_str(), r.samples, r.work_per_iter), ("unit/spin", 4, 3));
        assert!(r.iters >= 1);
        assert!(r.min_ns <= r.median_ns && r.median_ns <= r.max_ns);
    }

    #[test]
    fn gate_flags_only_regressed_step_benches() {
        let base = report(vec![rec("step/a", 1000.0, 1), rec("step/b", 1000.0, 1), rec("other/c", 1000.0, 1)]);
        let cur = report(vec![
        rec("step/a", 1100.0, 1),   // +10%: within the 20% gate
            rec("step/b", 1500.0, 1),   // +50%: regression
            rec("other/c", 9000.0, 1),  // not a step bench: ignored
            rec("step/new", 5000.0, 1), // no baseline: ignored
        ]);
        let fails = step_regressions(&cur, &base, 20.0);
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].starts_with("step/b"));
    }

    #[test]
    fn malformed_baseline_is_an_error_and_missing_is_none() {
        let dir = std::env::temp_dir().join(format!("pandora_perf_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let missing = dir.join("nope.json");
        assert_eq!(check_baseline_file(&missing).unwrap(), None);
        let bad = dir.join("bad.json");
        std::fs::write(&bad, "{\"schema\": 1").unwrap();
        assert!(check_baseline_file(&bad).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn step_workload_survives_many_steps_without_halting() {
        let mut m = fig5_step_machine(fig5_quiet_config());
        warmup(&mut m, 3000);
        assert!(m.stats().committed > 0, "the loop must be retiring instructions");
        assert!(m.stats().silent_stores > 0, "the gadget store must be silent");
    }

    #[test]
    fn noisy_step_workload_fires_the_noise_hook() {
        let mut m = fig5_step_machine(fig5_noisy_config());
        warmup(&mut m, 3000);
        assert!(m.stats().noise_events > 0);
    }

    #[test]
    fn duo_step_workload_steps_both_cores() {
        let mut duo = duo_step_machine();
        for _ in 0..2000 {
            duo.step().expect("duo step");
        }
        assert!(duo.core_a().stats().committed > 0);
        assert!(duo.core_b().stats().committed > 0);
    }
}
