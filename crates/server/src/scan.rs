//! The leakage-scan engine: preconditioned-replay differential testing
//! of one victim program against every Table-I optimization class.
//!
//! ## Protocol
//!
//! The paper's leaks are *reuse* leaks: a silent store is silent only
//! when it re-stores what memory already holds, and a prefetcher
//! chases values earlier calls left at rest. A scan therefore models
//! the repeated-call scenario directly:
//!
//! 1. **Reference run** — the victim runs once with secret *A* in
//!    place; its final memory image is captured. This is "the previous
//!    call" in the paper's shared-stack setting (§V-A3). The image is
//!    architectural, so one functional [`Emulator`] run per scan makes
//!    it for every class and trial (`tests/differential_sim.rs` holds
//!    the emulator bit-equal to the pipeline). A victim that reads the
//!    cycle counter instead gets a cold pipeline reference run per
//!    class and trial, because the emulator's `rdcycle` counts
//!    instructions, not cycles.
//! 2. **AA run** — a cold machine whose memory is preconditioned with
//!    the reference image runs the victim with secret *A* again.
//! 3. **AB run** — identical, but the secret region holds *B*.
//!
//! Each run yields an **observation** an attacker could plausibly make:
//! the exact cycle count (timing) and a fingerprint of final cache
//! residency (what a probe sweep would recover). A class **leaks** when
//! any trial's AA and AB observations differ *and* the baseline machine
//! (all optimizations off) cannot tell them apart — i.e. the difference
//! is attributable to the optimization, not to the program
//! architecturally depending on its secret.
//!
//! Per class the measured capacity is reported as distinguishing trials
//! over total trials — bits per victim invocation for an attacker using
//! this receiver.
//!
//! Every pipeline run is dispatched through
//! [`pandora_sim::fleet::trial_grid`], so a scan inherits the engine's
//! panic isolation, pooled machines, and thread-count-invariant
//! determinism. The functional reference run is not a fleet member: it
//! runs on the caller's thread before the grid.

use std::sync::Arc;

use pandora_isa::{Instr, Program};
use pandora_sim::fleet::{self, MemberSpec};
use pandora_sim::{
    EmuError, Emulator, Machine, MemberError, Memory, OptConfig, SimConfig, SimError,
};

use crate::json::{obj, Json};

/// Resource caps applied to submitted scan jobs before anything runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ScanLimits {
    /// Maximum instructions in a submitted assembly program.
    pub max_asm_insts: usize,
    /// Caps for submitted sandbox bytecode (instruction count and map
    /// footprint), enforced by the `pandora_sandbox` verifier.
    pub bpf: pandora_sandbox::VerifyLimits,
    /// Maximum victim data-memory size in bytes.
    pub max_mem_size: usize,
    /// Maximum trials per scan.
    pub max_trials: u32,
    /// Maximum simulated cycles per run. It also bounds the functional
    /// reference run, at `commit_width` instructions per cycle.
    pub max_cycles: u64,
    /// Maximum secret length in bytes.
    pub max_secret_bytes: usize,
    /// Maximum number of input preloads.
    pub max_inputs: usize,
    /// Maximum total preload payload in bytes.
    pub max_input_bytes: usize,
}

impl Default for ScanLimits {
    fn default() -> ScanLimits {
        ScanLimits {
            max_asm_insts: 4096,
            bpf: pandora_sandbox::VerifyLimits::default(),
            max_mem_size: 1 << 20,
            max_trials: 16,
            max_cycles: 2_000_000,
            max_secret_bytes: 4096,
            max_inputs: 64,
            max_input_bytes: 1 << 16,
        }
    }
}

/// A region of victim memory preloaded identically in every run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Preload {
    /// Absolute byte address.
    pub addr: u64,
    /// The bytes.
    pub bytes: Vec<u8>,
}

/// The secret marking: one region, two candidate values. The scan
/// measures whether any optimization class can tell them apart.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MarkedSecret {
    /// Absolute byte address of the secret region.
    pub addr: u64,
    /// Candidate secret *A* (also the reference run's value).
    pub a: Vec<u8>,
    /// Candidate secret *B*; must be the same length as `a`.
    pub b: Vec<u8>,
}

/// A fully validated scan job, ready to run.
#[derive(Clone, Debug)]
pub struct ScanSpec {
    /// The victim program.
    pub program: Arc<Program>,
    /// Public inputs, preloaded in every run.
    pub inputs: Vec<Preload>,
    /// The secret marking.
    pub secret: MarkedSecret,
    /// Number of trials per class (each trial perturbs the machine
    /// seed).
    pub trials: u32,
    /// Victim data-memory size.
    pub mem_size: usize,
    /// Base seed; trial `t` runs under `seed ^ (t * GOLDEN)`.
    pub seed: u64,
    /// Cycle budget per run.
    pub max_cycles: u64,
}

/// One optimization class the scan switches on.
#[derive(Clone, Copy, Debug)]
pub struct ScanClass {
    /// Report name.
    pub name: &'static str,
    /// Applies the class to a baseline [`OptConfig`].
    pub apply: fn(&mut OptConfig),
}

/// The seven Table-I optimization classes, as scanned. The `dmp` class
/// enables both data memory-dependent prefetcher families the paper
/// studies (§IV-D2): the stride-correlating IMP and the
/// content-directed pointer chaser.
pub const CLASSES: [ScanClass; 7] = [
    ScanClass {
        name: "silent-store",
        apply: |o| o.silent_stores = true,
    },
    ScanClass {
        name: "comp-simpl",
        apply: |o| {
            o.comp_simpl = true;
            o.fp_subnormal = true;
        },
    },
    ScanClass {
        name: "operand-packing",
        apply: |o| o.operand_packing = true,
    },
    ScanClass {
        name: "comp-reuse",
        apply: |o| o.comp_reuse = true,
    },
    ScanClass {
        name: "value-pred",
        apply: |o| o.value_pred = true,
    },
    ScanClass {
        name: "rf-compress",
        apply: |o| o.rf_compress = true,
    },
    ScanClass {
        name: "dmp",
        apply: |o| {
            o.dmp = true;
            o.cdp = true;
        },
    },
];

/// What an attacker observes after one victim run: the cycle count and
/// a fingerprint of final cache residency (L1d + L2 line addresses,
/// per set, order-independent). Deliberately *not* the simulator's
/// internal hook counters — those are not architecturally visible.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Obs {
    /// Total cycles to halt.
    pub cycles: u64,
    /// FNV-1a fingerprint of resident cache lines.
    pub cache_sig: u64,
}

fn cache_sig(m: &Machine) -> u64 {
    let mut bytes = Vec::new();
    let hier = m.hierarchy();
    for (tag, cache) in [(1u8, hier.l1()), (2u8, hier.l2())] {
        for set in 0..cache.config().sets {
            let mut lines: Vec<u64> = cache.resident_lines(set).collect();
            lines.sort_unstable();
            bytes.push(tag);
            bytes.extend_from_slice(&(set as u32).to_le_bytes());
            for l in lines {
                bytes.extend_from_slice(&l.to_le_bytes());
            }
        }
    }
    pandora_runner::fnv1a64(&bytes)
}

/// One trial's transcript for one class.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TrialObs {
    /// AA observation (secret unchanged between calls).
    pub aa: Obs,
    /// AB observation (secret switched to *B*).
    pub ab: Obs,
}

impl TrialObs {
    fn distinguishes(&self) -> bool {
        self.aa != self.ab
    }
}

/// Per-class scan outcome.
#[derive(Clone, PartialEq, Debug)]
pub struct ClassReport {
    /// The class name (see [`CLASSES`]; `"baseline"` for the all-off
    /// machine).
    pub class: String,
    /// Whether this class leaks the marked secret: some trial
    /// distinguishes AA from AB while the baseline machine does not.
    pub leaks: bool,
    /// Distinguishing trials / total trials — bits per victim
    /// invocation through this receiver.
    pub capacity_bits_per_run: f64,
    /// The per-trial receiver transcript.
    pub transcript: Vec<TrialObs>,
}

/// The full scan report: the Table-I row for a submitted victim.
#[derive(Clone, PartialEq, Debug)]
pub struct ScanReport {
    /// Whether the *baseline* machine already distinguishes the
    /// secrets — an architectural (program-level) leak that no
    /// microarchitectural verdict can be layered on.
    pub architectural_leak: bool,
    /// One report per scanned class, in [`CLASSES`] order, baseline
    /// first.
    pub classes: Vec<ClassReport>,
    /// Total simulated runs this scan dispatched: 16T + 1 for T trials
    /// (an AA and an AB pipeline run per class and trial, plus the one
    /// functional reference run), or 24T when the victim reads the
    /// cycle counter and each class and trial gets its own pipeline
    /// reference run.
    pub runs: u32,
    /// Names of classes that leak (convenience; derived from
    /// `classes`).
    pub leaking: Vec<String>,
}

impl ScanReport {
    /// Serializes the report (stable field order, no timestamps — a
    /// re-run of the same job byte-identically reproduces it).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let classes = self
            .classes
            .iter()
            .map(|c| {
                let transcript = c
                    .transcript
                    .iter()
                    .map(|t| {
                        obj(vec![
                            ("aa_cycles", Json::from(t.aa.cycles)),
                            ("aa_cache_sig", Json::Str(format!("{:016x}", t.aa.cache_sig))),
                            ("ab_cycles", Json::from(t.ab.cycles)),
                            ("ab_cache_sig", Json::Str(format!("{:016x}", t.ab.cache_sig))),
                            ("distinguishes", Json::Bool(t.distinguishes())),
                        ])
                    })
                    .collect();
                obj(vec![
                    ("class", Json::Str(c.class.clone())),
                    ("leaks", Json::Bool(c.leaks)),
                    ("capacity_bits_per_run", Json::Num(c.capacity_bits_per_run)),
                    ("transcript", Json::Arr(transcript)),
                ])
            })
            .collect();
        obj(vec![
            ("architectural_leak", Json::Bool(self.architectural_leak)),
            ("leaking_classes", Json::Arr(
                self.leaking.iter().map(|s| Json::Str(s.clone())).collect(),
            )),
            ("classes", Json::Arr(classes)),
            ("runs", Json::from(u64::from(self.runs))),
        ])
    }
}

/// Why a scan failed to produce a report.
#[derive(Clone, PartialEq, Debug)]
pub enum ScanError {
    /// A member run failed in the simulator.
    Member {
        /// Class being scanned.
        class: String,
        /// Trial index.
        trial: u32,
        /// Which phase (`"reference"`, `"aa"`, `"ab"`). A failing
        /// functional reference run reports class `baseline`, trial 0.
        phase: &'static str,
        /// The simulator error rendering.
        error: String,
    },
    /// A member run panicked (isolated by the fleet engine).
    Panicked {
        /// Class being scanned.
        class: String,
        /// Trial index.
        trial: u32,
        /// The panic message.
        message: String,
    },
}

impl std::fmt::Display for ScanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScanError::Member { class, trial, phase, error } => write!(
                f,
                "scan member failed (class {class}, trial {trial}, {phase} run): {error}"
            ),
            ScanError::Panicked { class, trial, message } => write!(
                f,
                "scan member panicked (class {class}, trial {trial}): {message}"
            ),
        }
    }
}

impl std::error::Error for ScanError {}

const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// The class list for one scan: baseline first, then [`CLASSES`].
fn scan_opt_grid() -> Vec<(String, OptConfig)> {
    let mut grid = vec![("baseline".to_string(), OptConfig::baseline())];
    for class in CLASSES {
        let mut opts = OptConfig::baseline();
        (class.apply)(&mut opts);
        grid.push((class.name.to_string(), opts));
    }
    grid
}

fn cfg_for(spec: &ScanSpec, opts: OptConfig, trial: u32) -> SimConfig {
    SimConfig {
        mem_size: spec.mem_size,
        opts,
        seed: spec.seed ^ u64::from(trial).wrapping_mul(GOLDEN),
        ..SimConfig::default()
    }
}

/// Runs the full scan on `threads` fleet threads (0 = process
/// default).
///
/// # Errors
///
/// Returns the first [`ScanError`] in class/trial order; individual
/// member failures (including panics) are isolated by the fleet layer
/// and surfaced here, never propagated as panics.
pub fn run_scan(spec: &ScanSpec, threads: usize) -> Result<ScanReport, ScanError> {
    let grid = scan_opt_grid();
    let trials = spec.trials.max(1);

    // The reference image of each (class, trial), in job order. The AA
    // and AB runs come after it: the image is their input.
    let (images, reference_runs) = if reads_cycle_counter(&spec.program) {
        let images = pipeline_images(spec, &grid, trials, threads)?;
        let runs = images.len();
        (images, runs)
    } else {
        (
            vec![functional_image(spec)?; grid.len() * trials as usize],
            1,
        )
    };

    let secrets: [Arc<[u8]>; 2] = [Arc::from(&spec.secret.a[..]), Arc::from(&spec.secret.b[..])];
    let mut measure_jobs = Vec::new();
    for (ci, (_, opts)) in grid.iter().enumerate() {
        for t in 0..trials {
            let image = &images[ci * trials as usize + t as usize];
            for secret in &secrets {
                let regions = vec![
                    (0, Arc::clone(image)),
                    (spec.secret.addr, Arc::clone(secret)),
                ];
                measure_jobs.push(member(spec, *opts, t, regions));
            }
        }
    }
    let obs = run_phase(&measure_jobs, threads, |m, cycles| Obs {
        cycles,
        cache_sig: cache_sig(m),
    })
    .map_err(|(i, e)| {
        let phase = if i % 2 == 0 { "aa" } else { "ab" };
        member_error(&grid, trials, i / 2, phase, e)
    })?;

    // Fold observations into per-class reports.
    let mut classes = Vec::with_capacity(grid.len());
    for (ci, (name, _)) in grid.iter().enumerate() {
        let mut transcript = Vec::with_capacity(trials as usize);
        for t in 0..trials {
            let base = (ci * trials as usize + t as usize) * 2;
            transcript.push(TrialObs {
                aa: obs[base],
                ab: obs[base + 1],
            });
        }
        let distinguishing = transcript.iter().filter(|t| t.distinguishes()).count();
        classes.push(ClassReport {
            class: name.clone(),
            leaks: false, // filled below, once the baseline verdict is known
            capacity_bits_per_run: distinguishing as f64 / f64::from(trials),
            transcript,
        });
    }
    let architectural_leak = classes[0].capacity_bits_per_run > 0.0;
    for c in classes.iter_mut().skip(1) {
        c.leaks = !architectural_leak && c.capacity_bits_per_run > 0.0;
    }
    let leaking = classes
        .iter()
        .filter(|c| c.leaks)
        .map(|c| c.class.clone())
        .collect();
    Ok(ScanReport {
        architectural_leak,
        classes,
        runs: (reference_runs + measure_jobs.len()) as u32,
        leaking,
    })
}

/// Whether the victim reads the cycle counter, the one instruction
/// whose result the functional emulator does not reproduce: its
/// `rdcycle` returns an instruction count.
fn reads_cycle_counter(program: &Program) -> bool {
    program.iter().any(|i| matches!(i, Instr::RdCycle { .. }))
}

/// The reference image from one functional run. Its step budget is
/// `commit_width` instructions per cycle of `max_cycles`, the most a
/// pipeline run within its cycle budget can commit, so no victim the
/// pipeline finishes is cut short. A failure is reported where a
/// failing pipeline reference run is: baseline, trial 0.
fn functional_image(spec: &ScanSpec) -> Result<Arc<[u8]>, ScanError> {
    let steps = spec
        .max_cycles
        .saturating_mul(SimConfig::default().pipeline.commit_width as u64);
    let run = || -> Result<Emulator, EmuError> {
        let mut mem = Memory::new(spec.mem_size);
        for p in &spec.inputs {
            mem.write_bytes(p.addr, &p.bytes)?;
        }
        mem.write_bytes(spec.secret.addr, &spec.secret.a)?;
        let mut emu = Emulator::new(mem);
        emu.run(&spec.program, steps)?;
        Ok(emu)
    };
    let emu = run().map_err(|e| ScanError::Member {
        class: "baseline".to_string(),
        trial: 0,
        phase: "reference",
        error: format!("functional run failed: {e}"),
    })?;
    Ok(Arc::from(
        emu.mem()
            .read_bytes(0, spec.mem_size)
            .expect("whole memory readable"),
    ))
}

/// The reference images of one cold pipeline run per (class, trial),
/// in job order.
fn pipeline_images(
    spec: &ScanSpec,
    grid: &[(String, OptConfig)],
    trials: u32,
    threads: usize,
) -> Result<Vec<Arc<[u8]>>, ScanError> {
    let cold: Vec<(u64, Arc<[u8]>)> = spec
        .inputs
        .iter()
        .map(|p| (p.addr, Arc::from(&p.bytes[..])))
        .chain([(spec.secret.addr, Arc::from(&spec.secret.a[..]))])
        .collect();
    let jobs: Vec<MemberSpec> = grid
        .iter()
        .flat_map(|(_, opts)| (0..trials).map(|t| member(spec, *opts, t, cold.clone())))
        .collect();
    run_phase(&jobs, threads, |m, _| {
        Arc::from(
            m.mem()
                .read_bytes(0, m.config().mem_size)
                .expect("whole memory readable"),
        )
    })
    .map_err(|(i, e)| member_error(grid, trials, i, "reference", e))
}

/// One pipeline run of the victim under `opts` and trial `trial`'s
/// seed, its zeroed memory first loaded with `regions`, in order.
fn member(
    spec: &ScanSpec,
    opts: OptConfig,
    trial: u32,
    regions: Vec<(u64, Arc<[u8]>)>,
) -> MemberSpec {
    MemberSpec::new(cfg_for(spec, opts, trial), Arc::clone(&spec.program))
        .with_max_cycles(spec.max_cycles)
        .with_prep(move |m: &mut Machine| {
            for (addr, bytes) in &regions {
                m.mem_mut()
                    .write_bytes(*addr, bytes)
                    .map_err(|fault| SimError::Mem { fault, pc: 0 })?;
            }
            Ok(())
        })
}

/// Runs one job list, reducing each member through `extract(machine,
/// cycles)`; the first failing member aborts the phase with its index.
fn run_phase<T: Send>(
    jobs: &[MemberSpec],
    threads: usize,
    extract: impl Fn(&mut Machine, u64) -> T + Sync,
) -> Result<Vec<T>, (usize, MemberError)> {
    let results = fleet::trial_grid(jobs, threads, |_, m, stats| extract(m, stats.cycles));
    let mut out = Vec::with_capacity(results.len());
    for (i, r) in results.into_iter().enumerate() {
        match r {
            Ok(v) => out.push(v),
            Err(e) => return Err((i, e)),
        }
    }
    Ok(out)
}

fn member_error(
    grid: &[(String, OptConfig)],
    trials: u32,
    flat: usize,
    phase: &'static str,
    e: MemberError,
) -> ScanError {
    let class = grid
        .get(flat / trials as usize)
        .map_or("?".to_string(), |(n, _)| n.clone());
    let trial = (flat % trials as usize) as u32;
    match e {
        MemberError::Panicked(message) => ScanError::Panicked {
            class,
            trial,
            message,
        },
        e => ScanError::Member {
            class,
            trial,
            phase,
            error: e.to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use pandora_isa::{AluOp, Asm, Reg};
    use proptest::prelude::*;

    use super::*;
    use crate::job::{parse_job, JobKind};
    use crate::victims::{bsaes_spec, ct_control_spec};

    /// Bytecode victims shaped like the benchmark's scan corpus: a
    /// constant function, a secret-indexed table read, and a loop that
    /// copies the secret into a buffer.
    const CORPUS: [&str; 3] = [
        r#""victim": {"maps": [{"elem_size": 8, "len": 1}],
                      "insts": [["mov_imm", 0, 1], ["exit"]]},
           "secret": {"map": 0, "a": [1, 2, 3, 4, 5, 6, 7, 8], "b": [8, 7, 6, 5, 4, 3, 2, 1]}"#,
        r#""victim": {"maps": [{"elem_size": 8, "len": 1}, {"elem_size": 8, "len": 64}],
                      "insts": [["mov_imm", 1, 0], ["lookup", 0, 0, 1],
                                ["jmp_if", "eq", 0, "imm", 0, 9], ["load_ind", 2, 0],
                                ["alu", "and", 2, "imm", 63], ["lookup", 3, 1, 2],
                                ["jmp_if", "eq", 3, "imm", 0, 9], ["load_ind", 4, 3],
                                ["mov_imm", 0, 0], ["exit"]]},
           "secret": {"map": 0, "a": [9, 0, 0, 0, 0, 0, 0, 0], "b": [41, 0, 0, 0, 0, 0, 0, 0]},
           "inputs": [{"map": 1, "bytes": [7, 7, 7, 7, 7, 7, 7, 7, 1, 2, 3, 4, 5, 6, 7, 8]}]"#,
        r#""victim": {"maps": [{"elem_size": 8, "len": 4}, {"elem_size": 8, "len": 16}],
                      "insts": [["mov_imm", 1, 0], ["mov_reg", 5, 1], ["alu", "and", 5, "imm", 3],
                                ["lookup", 0, 0, 5], ["jmp_if", "eq", 0, "imm", 0, 12],
                                ["load_ind", 2, 0], ["lookup", 3, 1, 1],
                                ["jmp_if", "eq", 3, "imm", 0, 12], ["store_ind", 3, 2],
                                ["alu", "add", 1, "imm", 1], ["jmp_if", "lt", 1, "imm", 16, 1],
                                ["mov_imm", 0, 0], ["exit"]]},
           "secret": {"map": 0, "a": [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3],
                      "b": [2, 7, 1, 8, 2, 8, 1, 8, 2, 8, 4, 5, 9, 0, 4, 5]}"#,
    ];

    /// A victim that stores how many cycles its secret load took.
    const READ_CLOCK: &str = r#"
        "victim": {"maps": [{"elem_size": 8, "len": 1}, {"elem_size": 8, "len": 1}],
                   "insts": [["read_clock", 1], ["mov_imm", 2, 0], ["lookup", 0, 0, 2],
                             ["jmp_if", "eq", 0, "imm", 0, 10], ["load_ind", 3, 0],
                             ["lookup", 4, 1, 2], ["jmp_if", "eq", 4, "imm", 0, 10],
                             ["read_clock", 5], ["alu", "sub", 5, "reg", 1], ["store_ind", 4, 5],
                             ["exit"]]},
        "secret": {"map": 0, "a": [5, 0, 0, 0, 0, 0, 0, 0], "b": [6, 0, 0, 0, 0, 0, 0, 0]}"#;

    /// A bytecode victim admitted the way the service admits it.
    fn bytecode(fields: &str, trials: u32, seed: u64) -> ScanSpec {
        let body = format!(r#"{{{fields}, "trials": {trials}, "seed": {seed}}}"#);
        let job = parse_job(body.as_bytes(), &ScanLimits::default(), false).expect("victim admits");
        let JobKind::Scan(spec) = job.kind else {
            panic!("expected a scan")
        };
        spec
    }

    /// Every victim of the equivalence test.
    fn victims() -> Vec<(String, ScanSpec)> {
        let mut out = Vec::new();
        for seed in 0..3 {
            for trials in [1, 2] {
                out.push((format!("bsaes {seed}/{trials}"), bsaes_spec(seed, trials)));
                out.push((
                    format!("ct-control {seed}/{trials}"),
                    ct_control_spec(seed, trials),
                ));
                for (i, fields) in CORPUS.iter().enumerate() {
                    out.push((
                        format!("corpus {i} {seed}/{trials}"),
                        bytecode(fields, trials, seed),
                    ));
                }
            }
        }
        out
    }

    /// The scan's one functional reference image stands in for every
    /// (class, trial) pipeline reference run, so it must equal each of
    /// them byte for byte.
    #[test]
    fn emulator_image_equals_every_pipeline_reference_image() {
        let grid = scan_opt_grid();
        for (name, spec) in victims() {
            assert!(!reads_cycle_counter(&spec.program), "{name}");
            let image = functional_image(&spec).expect("functional run halts");
            let trials = spec.trials;
            let pipeline = pipeline_images(&spec, &grid, trials, 0).expect("pipeline runs halt");
            assert_eq!(pipeline.len(), grid.len() * trials as usize);
            for (i, p) in pipeline.iter().enumerate() {
                let (class, trial) = (&grid[i / trials as usize].0, i % trials as usize);
                assert!(
                    *p == image,
                    "{name}: {class} trial {trial} reference image differs from the emulator's"
                );
            }
        }
    }

    /// The emulator's `rdcycle` counts instructions, so a victim that
    /// reads the cycle counter keeps its pipeline reference runs; any
    /// other victim makes one functional run.
    #[test]
    fn only_a_read_clock_victim_keeps_its_pipeline_references() {
        let grid = scan_opt_grid();
        for trials in [1, 2] {
            let spec = bytecode(READ_CLOCK, trials, 0);
            assert!(reads_cycle_counter(&spec.program));
            let image = functional_image(&spec).expect("functional run halts");
            for p in pipeline_images(&spec, &grid, trials, 0).expect("pipeline runs halt") {
                assert!(
                    *p != *image,
                    "a cycle count must not equal an instruction count"
                );
            }
            assert_eq!(
                run_scan(&spec, 0).expect("scan completes").runs,
                24 * trials
            );

            let spec = bytecode(CORPUS[2], trials, 0);
            assert_eq!(
                run_scan(&spec, 0).expect("scan completes").runs,
                16 * trials + 1
            );
        }
    }

    fn asm_spec(program: Program, max_cycles: u64) -> ScanSpec {
        ScanSpec {
            program: Arc::new(program),
            inputs: Vec::new(),
            secret: MarkedSecret {
                addr: 0x100,
                a: vec![1],
                b: vec![2],
            },
            trials: 1,
            mem_size: 1 << 16,
            seed: 0,
            max_cycles,
        }
    }

    /// A victim that never halts runs out of emulator steps, and fails
    /// where a failing pipeline reference run is reported.
    #[test]
    fn spin_loop_fails_in_the_reference_phase() {
        let mut a = Asm::new();
        a.label("spin");
        a.j("spin");
        let err = run_scan(&asm_spec(a.assemble().expect("assembles"), 1000), 1).unwrap_err();
        assert_eq!(
            err.to_string(),
            "scan member failed (class baseline, trial 0, reference run): \
             functional run failed: no halt within 4000 steps"
        );
        assert!(matches!(
            err,
            ScanError::Member {
                phase: "reference",
                ..
            }
        ));
    }

    /// A victim that halts functionally but overruns its cycle budget
    /// on the pipeline fails in the first pipeline run, baseline's AA.
    #[test]
    fn slow_victim_fails_in_the_aa_phase() {
        let mut a = Asm::new();
        a.li(Reg::T0, u64::MAX);
        a.li(Reg::T1, 3);
        for _ in 0..64 {
            a.alu(AluOp::Divu, Reg::T0, Reg::T0, Reg::T1);
        }
        a.halt();
        let err = run_scan(&asm_spec(a.assemble().expect("assembles"), 400), 1).unwrap_err();
        assert_eq!(
            err.to_string(),
            "scan member failed (class baseline, trial 0, aa run): \
             member failed: no halt within 400 cycles"
        );
        assert!(matches!(err, ScanError::Member { phase: "aa", .. }));
    }

    fn reg() -> impl Strategy<Value = u8> {
        0u8..8
    }

    fn src() -> impl Strategy<Value = String> {
        prop_oneof![
            reg().prop_map(|r| format!(r#""reg", {r}"#)),
            (0u64..1 << 40).prop_map(|v| format!(r#""imm", {v}"#)),
        ]
    }

    /// One bytecode instruction in the service's JSON form, drawn as
    /// the sandbox's soundness proptest draws them, `read_clock`
    /// included.
    fn inst(len: usize) -> impl Strategy<Value = String> {
        let alu = prop_oneof![
            Just("add"),
            Just("sub"),
            Just("and"),
            Just("or"),
            Just("xor"),
            Just("lsh"),
            Just("rsh"),
            Just("mul"),
        ];
        prop_oneof![
            (reg(), 0u64..1 << 40).prop_map(|(d, v)| format!(r#"["mov_imm", {d}, {v}]"#)),
            (reg(), reg()).prop_map(|(d, s)| format!(r#"["mov_reg", {d}, {s}]"#)),
            (alu, reg(), src()).prop_map(|(op, d, s)| format!(r#"["alu", "{op}", {d}, {s}]"#)),
            (reg(), 0u8..2, reg()).prop_map(|(d, m, i)| format!(r#"["lookup", {d}, {m}, {i}]"#)),
            (reg(), reg()).prop_map(|(d, p)| format!(r#"["load_ind", {d}, {p}]"#)),
            (reg(), reg()).prop_map(|(p, s)| format!(r#"["store_ind", {p}, {s}]"#)),
            (0..len).prop_map(|t| format!(r#"["jmp", {t}]"#)),
            (reg(), 0..len).prop_map(|(a, t)| format!(r#"["jmp_if", "eq", {a}, "imm", 0, {t}]"#)),
            (reg(), reg(), 0..len)
                .prop_map(|(a, b, t)| format!(r#"["jmp_if", "lt", {a}, "reg", {b}, {t}]"#)),
            reg().prop_map(|d| format!(r#"["read_clock", {d}]"#)),
            Just(r#"["exit"]"#.to_string()),
        ]
    }

    /// One step of a random program: a single instruction, or a
    /// guarded map access (lookup, a null check that jumps to the final
    /// `exit`, then a load or a store), the shape the verifier accepts.
    fn step(len: usize) -> impl Strategy<Value = Vec<String>> {
        let access =
            (reg(), 0u8..2, reg(), reg(), any::<bool>()).prop_map(|(p, m, i, d, store)| {
                vec![
                    format!(r#"["lookup", {p}, {m}, {i}]"#),
                    format!(r#"["jmp_if", "eq", {p}, "imm", 0, EXIT]"#),
                    if store {
                        format!(r#"["store_ind", {p}, {d}]"#)
                    } else {
                        format!(r#"["load_ind", {d}, {p}]"#)
                    },
                ]
            });
        prop_oneof![inst(len).prop_map(|i| vec![i]), access]
    }

    fn bytes(n: usize) -> impl Strategy<Value = String> {
        prop::collection::vec(any::<u8>(), n).prop_map(|b| format!("{b:?}"))
    }

    /// A scan request for a random bytecode program.
    fn job() -> impl Strategy<Value = String> {
        (
            prop::collection::vec(step(24), 1..10),
            bytes(8),
            bytes(8),
            bytes(32),
            0u64..1 << 40,
        )
            .prop_map(|(steps, a, b, input, seed)| {
                let insts = steps.concat();
                let exit = insts.len().to_string();
                format!(
                    r#"{{"victim": {{"maps": [{{"elem_size": 8, "len": 8}},
                                              {{"elem_size": 1, "len": 32}}],
                                    "insts": [{}, ["exit"]]}},
                        "secret": {{"map": 0, "a": {a}, "b": {b}}},
                        "inputs": [{{"map": 1, "bytes": {input}}}],
                        "trials": 1, "seed": {seed}}}"#,
                    insts.join(", ").replace("EXIT", &exit)
                )
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Random verified bytecode never panics the scanner, scans the
        /// same at 1 and at 2 fleet threads, and (when it does not read
        /// the cycle counter) leaves the same memory image on the
        /// emulator as on every class's pipeline reference run.
        #[test]
        fn random_verified_bytecode_scans_deterministically(body in job()) {
            let limits = ScanLimits { max_cycles: 3_000, ..ScanLimits::default() };
            let job = parse_job(body.as_bytes(), &limits, false);
            prop_assume!(job.is_ok()); // not verified: nothing to scan
            let JobKind::Scan(spec) = job.expect("admitted").kind else {
                panic!("expected a scan")
            };
            let scan = |threads| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_scan(&spec, threads)))
            };
            let (one, two) = (scan(1), scan(2));
            prop_assert!(one.is_ok() && two.is_ok(), "run_scan panicked");
            prop_assert_eq!(one.ok(), two.ok());
            if !reads_cycle_counter(&spec.program) {
                if let Ok(pipeline) = pipeline_images(&spec, &scan_opt_grid(), 1, 2) {
                    let image = functional_image(&spec).ok();
                    for p in &pipeline {
                        prop_assert!(image.as_ref() == Some(p), "emulator image differs or failed");
                    }
                }
            }
        }
    }
}
