//! Performance-tracking layer: workloads, report format, and the
//! regression gate behind `cargo bench -p pandora-bench --bench perf`.
//!
//! The harness measures what the experiment suite actually spends its
//! time on — [`Machine::step`] throughput (quiet, under deterministic
//! noise, and on a [`DuoMachine`] with a traffic co-runner), one
//! prime+probe calibration round, and one fig5 amplification trial —
//! and records the numbers in two machine-readable files:
//!
//! * **`BENCH_5.json`** (repo root): the full report, plus the pre-PR
//!   step costs captured before the allocation-free hot-loop rework
//!   and the resulting speedup factors.
//! * **`BENCH_7.json`** (repo root): the report plus the fleet batch
//!   engine's headline number — per-trial cost of the E16-shaped
//!   sweep under pre-fleet provisioning (fresh assemble +
//!   `Machine::new` per trial) vs the fleet's pooled path
//!   ([`bench7_json`]).
//! * **`BENCH_10.json`** (repo root): the report plus the two-tier
//!   execution layer's headline number — per-trial cost of the fig5
//!   amplified trial under full replay vs forking from a shared
//!   mid-run [`Machine::snapshot`] checkpoint ([`bench10_json`]).
//! * **`results/perf_baseline.json`**: the committed baseline that CI
//!   gates against (`step/*` fastest-sample costs may not regress more
//!   than 20% — see [`PerfRecord::best_unit_ns`] for why the minimum,
//!   not the median, is compared), validated by `runall --smoke`.
//!
//! Reports are read back through the workspace JSON codec
//! ([`pandora_runner::json`]); the writers below format floats with a
//! fixed number of decimals, which that codec's number printing does
//! not.

use std::sync::Arc;

use pandora_attacks::{AmplifyGadget, FlushKind};
use pandora_isa::{Asm, Program, Reg};
use pandora_runner::json::{self, Json};
use pandora_sim::fleet::MemberSpec;
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
/// pipeline scratch buffer, cache set, and predictor table to reach
/// its high-water mark.
pub const QUIET_WARMUP_STEPS: u64 = 20_000;
/// Steady-state warmup under noise: the windowed fill/evict traffic
/// touches cache sets the workload never does, so set vectors keep
/// growing (amortized-doubling) far longer than in a quiet run.
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
// Fleet grid workload (the `fleet/*` vs `serial/*` benches)
// ---------------------------------------------------------------------------

/// One trial of the E16-shaped grid bench: a machine configuration
/// (noise intensity varies across the grid, geometry does not) and the
/// pre-seeded target value (equal to the stored 42 → silent store,
/// different → loud).
pub type GridJob = (SimConfig, u64);

/// The E16-shaped sweep the `fleet/e16_grid` / `serial/e16_grid`
/// benches both run: 8 amplified silent-store trials (alternating
/// silent/loud) at each of the five noise intensities the
/// `e16_noise_robustness` experiment sweeps. Every job is a pure
/// function of its entry — the two benches must produce identical
/// per-trial cycle counts, they differ only in how machines and
/// programs are provisioned.
#[must_use]
pub fn e16_grid_jobs() -> Vec<GridJob> {
    let base = fig5_quiet_config();
    let mut jobs = Vec::new();
    for intensity in [0u16, 15, 30, 45, 60] {
        for t in 0..8u64 {
            let mut cfg = base;
            if intensity > 0 {
                cfg.noise = NoiseConfig::at_intensity(intensity, t.wrapping_mul(7919))
                    .with_window(FIG5_TARGET, FIG5_TARGET + 0x1_0000);
            }
            jobs.push((cfg, if t % 2 == 0 { 42 } else { 41 }));
        }
    }
    jobs
}

/// The grid trial program: the fig5 amplified single-store measurement
/// (warm loads, contention gadget, target store, trailing stores).
/// Identical for every job in [`e16_grid_jobs`] — the grid varies
/// noise, not cache geometry, so the gadget's eviction-set layout is
/// the same everywhere. The serial bench nevertheless re-assembles it
/// per trial, because that is what the pre-fleet sweep loops did.
#[must_use]
pub fn e16_grid_program(cfg: &SimConfig) -> Program {
    let gadget = AmplifyGadget::new(cfg, FIG5_TARGET, FIG5_DELAY, FlushKind::Contention);
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
    a.assemble().expect("grid trial assembles")
}

/// Seeds one grid trial's memory (target value + gadget lines).
fn grid_prep(cfg: &SimConfig, old: u64, m: &mut Machine) {
    let gadget = AmplifyGadget::new(cfg, FIG5_TARGET, FIG5_DELAY, FlushKind::Contention);
    let mem = m.mem_mut();
    mem.write_u64(FIG5_TARGET, old).expect("target mapped");
    gadget.setup_memory(mem);
    gadget.setup_memory_flush_variant(mem);
}

/// The pre-fleet provisioning path, preserved verbatim as the bench
/// baseline: every trial assembles its own program and constructs (and
/// drops) its own machine — the shape of every sweep loop before the
/// fleet refactor.
#[must_use]
pub fn run_grid_serial(jobs: &[GridJob]) -> Vec<u64> {
    jobs.iter()
        .map(|&(cfg, old)| {
            let prog = e16_grid_program(&cfg);
            let mut m = Machine::new(cfg);
            m.load_program(&prog);
            grid_prep(&cfg, old, &mut m);
            m.run(1_000_000).expect("grid trial completes").cycles
        })
        .collect()
}

/// The fleet provisioning path: one shared `Arc`'d program, machines
/// recycled through the trial-grid pool ([`Machine::reset_to`]).
#[must_use]
pub fn run_grid_fleet(jobs: &[GridJob]) -> Vec<u64> {
    let prog = Arc::new(e16_grid_program(&jobs[0].0));
    let specs: Vec<MemberSpec> = jobs
        .iter()
        .map(|&(cfg, old)| {
            MemberSpec::new(cfg, Arc::clone(&prog))
                .with_max_cycles(1_000_000)
                .with_prep(move |m| {
                    grid_prep(&cfg, old, m);
                    Ok(())
                })
        })
        .collect();
    pandora_sim::fleet::trial_grid(&specs, 1, |_, _, stats| stats.cycles)
        .into_iter()
        .map(|r| r.expect("grid trial completes"))
        .collect()
}

/// The checkpoint provisioning path: program *and* gadget memory image
/// are baked once into a shared cycle-0 [`Checkpoint`]; every trial
/// forks from it, so per-trial prep shrinks to the single target-value
/// write. The per-job noise configuration rides in as a cycle-0 fork
/// override (`Machine::set_noise`), which is bit-equal to constructing
/// the noisy machine fresh. Per-trial cycle counts are identical to
/// both other paths — the unit-cost gap is pure provisioning overhead.
#[must_use]
pub fn run_grid_forked(jobs: &[GridJob]) -> Vec<u64> {
    let base = jobs[0].0;
    let prog = Arc::new(e16_grid_program(&base));
    let mut warm = Machine::new(base);
    warm.load_program(&prog);
    let gadget = AmplifyGadget::new(&base, FIG5_TARGET, FIG5_DELAY, FlushKind::Contention);
    gadget.setup_memory(warm.mem_mut());
    gadget.setup_memory_flush_variant(warm.mem_mut());
    let ck = Arc::new(warm.snapshot());
    let specs: Vec<MemberSpec> = jobs
        .iter()
        .map(|&(cfg, old)| {
            MemberSpec::new(cfg, Arc::clone(&prog))
                .with_start(Arc::clone(&ck))
                .with_max_cycles(1_000_000)
                .with_prep(move |m| {
                    m.mem_mut().write_u64(FIG5_TARGET, old).expect("target mapped");
                    Ok(())
                })
        })
        .collect();
    pandora_sim::fleet::trial_grid(&specs, 1, |_, _, stats| stats.cycles)
        .into_iter()
        .map(|r| r.expect("grid trial completes"))
        .collect()
}

// ---------------------------------------------------------------------------
// Checkpoint-vs-replay trial workload (the BENCH_10 comparison)
// ---------------------------------------------------------------------------

/// Builds the warm mid-run checkpoint of the `attack/fig5_amplified_trial`
/// workload: the amplified silent-store trial with its program loaded,
/// gadget memory baked, and the six warm loads plus the fence already
/// executed (seven committed instructions). The per-trial target write
/// happens *after* forking; `tests/golden_stats.rs` pins this fork as
/// byte-identical to a straight run.
#[must_use]
pub fn fig5_trial_checkpoint() -> Checkpoint {
    let cfg = fig5_quiet_config();
    let prog = e16_grid_program(&cfg);
    let mut warm = Machine::new(cfg);
    warm.load_program(&prog);
    let gadget = AmplifyGadget::new(&cfg, FIG5_TARGET, FIG5_DELAY, FlushKind::Contention);
    gadget.setup_memory(warm.mem_mut());
    gadget.setup_memory_flush_variant(warm.mem_mut());
    warm.run_until_committed(7, 1_000_000).expect("warm prefix completes");
    warm.snapshot()
}

/// One forked trial: restore the machine to the warm boundary, write
/// the (silent) target value, run to halt. This is the measured body of
/// `attack/fig5_amplified_trial_forked` — no construction, no
/// assembly, no warm-prefix replay.
#[must_use]
pub fn run_forked_trial(m: &mut Machine, ck: &Checkpoint) -> u64 {
    m.restore(ck);
    m.mem_mut().write_u64(FIG5_TARGET, 42).expect("target mapped");
    m.run(1_000_000).expect("forked trial completes").cycles
}

// ---------------------------------------------------------------------------
// Report format
// ---------------------------------------------------------------------------

/// Schema version stamped into every report this module writes.
pub const PERF_SCHEMA: u32 = 1;

/// One benchmark's summary: per-iteration times plus how much work one
/// iteration performs (e.g. [`STEPS_PER_ITER`] machine steps), so
/// per-unit cost is `median_ns / work_per_iter`.
#[derive(Clone, Debug, PartialEq)]
pub struct PerfRecord {
    /// Benchmark id (`step/fig5_quiet`, `channel/prime_probe_round`, …).
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
    /// Median cost of one work unit, in nanoseconds.
    #[must_use]
    pub fn unit_ns(&self) -> f64 {
        self.median_ns / self.work_per_iter.max(1) as f64
    }

    /// Fastest-sample cost of one work unit, in nanoseconds. On the
    /// shared single-core runners this suite targets, co-tenant
    /// interference is strictly *additive* — it can only slow a sample
    /// down, never speed it up — so the minimum over samples is the
    /// robust estimator of intrinsic cost (medians swing ±40% with
    /// machine load). Speedup reporting and the CI regression gate both
    /// use this.
    #[must_use]
    pub fn best_unit_ns(&self) -> f64 {
        self.min_ns / self.work_per_iter.max(1) as f64
    }
}

/// A perf report: what `BENCH_5.json` and `results/perf_baseline.json`
/// contain (the former adds a `pre_pr`/`speedup` section on top).
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
    /// (or the extended `BENCH_5.json` form — unknown keys are
    /// ignored).
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

/// Per-step costs measured at the last pre-optimization commit
/// (`29ebeea`, the PR 4 head), on the same workloads this harness
/// runs — the fastest medians observed across repeated runs, i.e. the
/// same noise-robust statistic [`PerfRecord::best_unit_ns`] reports
/// now. `BENCH_5.json` reports current-vs-these speedups; they are
/// frozen history, not a moving baseline (that is
/// `results/perf_baseline.json`).
pub const PRE_PR_STEP_NS: &[(&str, f64)] = &[
    ("step/fig5_quiet", 480.0),
    ("step/fig5_noisy", 500.0),
    ("step/duo", 1050.0),
];

/// Renders the extended `BENCH_5.json` document: the report plus the
/// pre-PR step costs and the speedup factors they imply.
#[must_use]
pub fn bench5_json(report: &PerfReport) -> String {
    let body = report.to_json();
    // Splice the extra sections in after the "mode" line.
    let mut extra = String::from("  \"pre_pr\": {\n");
    extra.push_str("    \"commit\": \"29ebeea\",\n");
    for (i, (id, ns)) in PRE_PR_STEP_NS.iter().enumerate() {
        extra.push_str(&format!(
            "    \"{id}\": {ns:.1}{}\n",
            if i + 1 == PRE_PR_STEP_NS.len() { "" } else { "," }
        ));
    }
    extra.push_str("  },\n  \"speedup\": {\n");
    let mut lines = Vec::new();
    for (id, pre_ns) in PRE_PR_STEP_NS {
        if let Some(rec) = report.get(id) {
            lines.push(format!("    \"{id}\": {:.2}", pre_ns / rec.best_unit_ns()));
        }
    }
    extra.push_str(&lines.join(",\n"));
    extra.push_str("\n  },\n");
    body.replacen("  \"benches\": [\n", &format!("{extra}  \"benches\": [\n"), 1)
}

/// Renders `BENCH_7.json`: the report plus the fleet-vs-serial
/// comparison the batch sweep engine is gated on — the per-trial
/// fastest-sample cost of `serial/e16_grid` (per-trial fresh
/// assemble plus `Machine::new`, the pre-fleet loop shape) against
/// `fleet/e16_grid` (shared program, pooled machines), and the speedup
/// factor between them. The document stays parseable by
/// [`PerfReport::from_json`].
#[must_use]
pub fn bench7_json(report: &PerfReport) -> String {
    let body = report.to_json();
    let mut extra = String::from("  \"fleet\": {\n");
    let unit = |id: &str| report.get(id).map(PerfRecord::best_unit_ns);
    match (unit("serial/e16_grid"), unit("fleet/e16_grid")) {
        (Some(serial), Some(fl)) => {
            extra.push_str(&format!("    \"serial_trial_ns\": {serial:.1},\n"));
            extra.push_str(&format!("    \"fleet_trial_ns\": {fl:.1},\n"));
            extra.push_str(&format!("    \"speedup\": {:.2}\n", serial / fl));
        }
        _ => extra.push_str("    \"speedup\": null\n"),
    }
    extra.push_str("  },\n");
    body.replacen("  \"benches\": [\n", &format!("{extra}  \"benches\": [\n"), 1)
}

/// Renders `BENCH_10.json`: the report plus the checkpoint-vs-replay
/// comparison the two-tier execution layer is gated on — the
/// fastest-sample cost of `attack/fig5_amplified_trial` (fresh
/// `Machine::new` + full warm-prefix replay per trial) against
/// `attack/fig5_amplified_trial_forked` (restore from a shared mid-run
/// [`Checkpoint`], write the trial value, run the suffix), and the
/// grid-shaped version of the same gap (`fleet/e16_grid` vs
/// `forked/e16_grid`). The document stays parseable by
/// [`PerfReport::from_json`].
#[must_use]
pub fn bench10_json(report: &PerfReport) -> String {
    let body = report.to_json();
    let unit = |id: &str| report.get(id).map(PerfRecord::best_unit_ns);
    let mut extra = String::from("  \"checkpoint\": {\n");
    match (
        unit("attack/fig5_amplified_trial"),
        unit("attack/fig5_amplified_trial_forked"),
    ) {
        (Some(replay), Some(forked)) => {
            extra.push_str(&format!("    \"replay_trial_ns\": {replay:.1},\n"));
            extra.push_str(&format!("    \"forked_trial_ns\": {forked:.1},\n"));
            extra.push_str(&format!("    \"speedup\": {:.2},\n", replay / forked));
        }
        _ => extra.push_str("    \"speedup\": null,\n"),
    }
    match (unit("fleet/e16_grid"), unit("forked/e16_grid")) {
        (Some(fl), Some(forked)) => {
            extra.push_str(&format!("    \"fleet_grid_trial_ns\": {fl:.1},\n"));
            extra.push_str(&format!("    \"forked_grid_trial_ns\": {forked:.1},\n"));
            extra.push_str(&format!("    \"grid_speedup\": {:.2}\n", fl / forked));
        }
        _ => extra.push_str("    \"grid_speedup\": null\n"),
    }
    extra.push_str("  },\n");
    body.replacen("  \"benches\": [\n", &format!("{extra}  \"benches\": [\n"), 1)
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
    fn bench5_json_adds_speedups_and_still_parses() {
        let r = report(vec![rec("step/fig5_quiet", 500.0 * 1000.0, 1000)]);
        let text = bench5_json(&r);
        assert!(text.contains("\"pre_pr\""));
        assert!(text.contains("\"speedup\""));
        // The extended form must stay readable by the same parser.
        let parsed = PerfReport::from_json(&text).unwrap();
        assert_eq!(parsed.benches.len(), 1);
    }

    #[test]
    fn bench7_json_reports_fleet_speedup_and_still_parses() {
        let r = report(vec![
            rec("serial/e16_grid", 200_000.0 * 40.0, 40),
            rec("fleet/e16_grid", 40_000.0 * 40.0, 40),
        ]);
        let text = bench7_json(&r);
        assert!(text.contains("\"fleet\""));
        assert!(text.contains("\"speedup\": 5.00"), "{text}");
        let parsed = PerfReport::from_json(&text).unwrap();
        assert_eq!(parsed.benches.len(), 2);
    }

    #[test]
    fn grid_paths_agree_trial_for_trial() {
        // The contract behind the BENCH_7 and BENCH_10 comparisons: all
        // three provisioning paths run the *same* work — identical
        // per-trial cycle counts — so the measured gaps are pure
        // provisioning overhead. A sub-grid spanning two intensities
        // (so the forked path exercises its cycle-0 noise overrides)
        // keeps this cheap enough for the unit suite.
        let jobs = &e16_grid_jobs()[6..14];
        let serial = run_grid_serial(jobs);
        assert_eq!(serial, run_grid_fleet(jobs));
        assert_eq!(serial, run_grid_forked(jobs));
    }

    #[test]
    fn forked_trial_matches_replay_cycles() {
        // The BENCH_10 benches must measure the same trial: forking
        // from the warm mid-run checkpoint and replaying from scratch
        // land on the same cycle count (the golden suite pins the full
        // stats; this pins the two bench bodies against each other).
        let cfg = fig5_quiet_config();
        let prog = e16_grid_program(&cfg);
        let mut replay = Machine::new(cfg);
        replay.load_program(&prog);
        grid_prep(&cfg, 42, &mut replay);
        let replay_cycles = replay.run(1_000_000).expect("replay trial completes").cycles;

        let ck = fig5_trial_checkpoint();
        assert!(ck.cycle() > 0, "the trial checkpoint must be mid-run");
        let mut m = Machine::from_checkpoint(&ck);
        // Two forked trials back to back: the second restores over a
        // dirty, already-halted machine, as the bench loop does.
        assert_eq!(run_forked_trial(&mut m, &ck), replay_cycles);
        assert_eq!(run_forked_trial(&mut m, &ck), replay_cycles);
    }

    #[test]
    fn bench10_json_reports_checkpoint_speedup_and_still_parses() {
        let r = report(vec![
            rec("attack/fig5_amplified_trial", 90_000.0, 1),
            rec("attack/fig5_amplified_trial_forked", 30_000.0, 1),
            rec("fleet/e16_grid", 50_000.0 * 40.0, 40),
            rec("forked/e16_grid", 25_000.0 * 40.0, 40),
        ]);
        let text = bench10_json(&r);
        assert!(text.contains("\"checkpoint\""));
        assert!(text.contains("\"speedup\": 3.00"), "{text}");
        assert!(text.contains("\"grid_speedup\": 2.00"), "{text}");
        let parsed = PerfReport::from_json(&text).unwrap();
        assert_eq!(parsed.benches.len(), 4);
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
