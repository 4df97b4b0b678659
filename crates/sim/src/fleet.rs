//! Many-machine batch sweep engine.
//!
//! Every quantitative result in the reproduction — the Fig. 5
//! amplification table, the Fig. 6 key-recovery histogram, the E16
//! noise grid, the scan service's hook matrix — is built from hundreds
//! of *independent* simulated trials. This module is the one way to run
//! them: [`trial_grid`] takes a flat list of trials, each a
//! [`MemberSpec`] over [`SimConfig`] (distinct seeds, noise
//! intensities, cache geometries, hook sets), and runs them through a
//! pool of recycled machines ([`Machine::reset_to`]) across
//! `std::thread::scope` work-stealing threads, instead of constructing
//! one machine per trial. [`trial_grid_pooled`] keeps that pool
//! ([`MachinePool`]) across calls. Trials whose runs share a long
//! warm-up prefix can fork from a shared [`Checkpoint`]
//! ([`MemberSpec::with_start`]) instead of replaying it, with
//! bit-equal results.
//!
//! Three properties are contractual, pinned by
//! `tests/fleet_differential.rs`:
//!
//! * **Determinism** — a trial produces `SimStats` bit-equal to a lone
//!   `Machine` built from the same config/seed, regardless of thread
//!   count or steal order. Trials share no mutable state: programs are
//!   shared read-only behind [`Arc`], each worker owns its pool slot's
//!   machine, and machine recycling (`reset_to`) is bit-equal to fresh
//!   construction.
//! * **Degradation** — one trial's [`SimError`] (or panic) degrades
//!   that trial only, never the batch: errors are captured per trial
//!   as [`MemberError`] and siblings run to completion.
//! * **Reduction** — each completed trial reduces through the
//!   per-trial `extract` closure of [`trial_grid`], which runs on the
//!   worker that owns the machine, so decoded results (stats, receiver
//!   transcripts, symbols) — not machines — cross threads.
//!
//! Thread-count resolution: every entry point takes a `threads`
//! argument where `0` means "the process default" —
//! [`default_threads`], itself defaulting to
//! `std::thread::available_parallelism()` and settable once at startup
//! via [`set_default_threads`] (`runall --fleet-threads`). The
//! effective count is additionally clamped to the job count, and a
//! single-thread dispatch runs inline on the caller's thread with no
//! spawning (the zero-alloc audit runs a warmed pool through that
//! path).

use std::any::Any;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;

use pandora_isa::Program;

use crate::config::SimConfig;
use crate::error::SimError;
use crate::machine::{Checkpoint, Machine};
use crate::stats::SimStats;

/// Default per-member cycle budget — generous enough for the longest
/// attack trial in the tree (the bsaes key-recovery rounds run under
/// 50M cycles).
pub const DEFAULT_MAX_CYCLES: u64 = 50_000_000;

/// Process-wide default fleet thread count; 0 = one per core.
static DEFAULT_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide default fleet thread count used wherever a
/// `threads` argument of 0 is passed. 0 restores "one per core". Set
/// once at startup (`runall --fleet-threads`); experiment jobs and
/// fleet threads multiply, so a runner with `--jobs J` should pass
/// roughly `cores / J` here to avoid oversubscription.
pub fn set_default_threads(n: usize) {
    DEFAULT_THREADS.store(n, Ordering::Relaxed);
}

/// The process-wide default fleet thread count: the value set by
/// [`set_default_threads`], or `std::thread::available_parallelism()`
/// when unset.
#[must_use]
pub fn default_threads() -> usize {
    match DEFAULT_THREADS.load(Ordering::Relaxed) {
        0 => thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        n => n,
    }
}

/// Resolves a requested thread count (0 = default) against a job count.
fn effective_threads(requested: usize, jobs: usize) -> usize {
    let t = if requested == 0 {
        default_threads()
    } else {
        requested
    };
    t.clamp(1, jobs.max(1))
}

/// A member's pre-run setup: seeds memory, registers, cache state or a
/// fault plan before the machine runs. Must be deterministic (a pure
/// function of the member's spec) for the fleet's determinism guarantee
/// to hold.
pub type PrepFn = Arc<dyn Fn(&mut Machine) -> Result<(), SimError> + Send + Sync>;

/// One fleet member: a machine configuration, a shared compiled
/// program, optional pre-run setup, and a cycle budget.
#[derive(Clone)]
pub struct MemberSpec {
    /// Full machine configuration (geometry, seeds, noise, hooks).
    pub cfg: SimConfig,
    /// The compiled program, shared read-only across members.
    pub program: Arc<Program>,
    /// Pre-run setup (memory/registers/faults), run before stepping.
    pub prep: Option<PrepFn>,
    /// Warm checkpoint to fork from instead of replaying the prefix
    /// (see [`MemberSpec::with_start`]); `None` starts cold.
    pub start: Option<Arc<Checkpoint>>,
    /// Cycle budget; exceeding it degrades the member with
    /// [`SimError::Timeout`]. For forked members this budget includes
    /// the cycles already elapsed inside the checkpoint.
    pub max_cycles: u64,
}

impl MemberSpec {
    /// A member with no prep and the [`DEFAULT_MAX_CYCLES`] budget.
    #[must_use]
    pub fn new(cfg: SimConfig, program: Arc<Program>) -> MemberSpec {
        MemberSpec {
            cfg,
            program,
            prep: None,
            start: None,
            max_cycles: DEFAULT_MAX_CYCLES,
        }
    }

    /// Attaches pre-run setup.
    #[must_use]
    pub fn with_prep<F>(mut self, prep: F) -> MemberSpec
    where
        F: Fn(&mut Machine) -> Result<(), SimError> + Send + Sync + 'static,
    {
        self.prep = Some(Arc::new(prep));
        self
    }

    /// Starts this member from a shared warm [`Checkpoint`] instead of
    /// replaying the prefix: the machine is seeded via
    /// [`Machine::restore`] (recycled pool machines) or
    /// [`Machine::from_checkpoint`] (empty slots), and the program load
    /// is skipped — the checkpoint carries it. The member's `prep`
    /// still runs afterwards, applying only the per-trial delta.
    ///
    /// `cfg` must equal the checkpoint's config, except `cfg.noise`
    /// which may differ when the checkpoint was taken at cycle 0 (no
    /// noise drawn yet, so swapping the noise hook is bit-equal to
    /// fresh construction).
    #[must_use]
    pub fn with_start(mut self, start: Arc<Checkpoint>) -> MemberSpec {
        self.start = Some(start);
        self
    }

    /// Overrides the cycle budget.
    #[must_use]
    pub fn with_max_cycles(mut self, max_cycles: u64) -> MemberSpec {
        self.max_cycles = max_cycles;
        self
    }
}

impl fmt::Debug for MemberSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemberSpec")
            .field("cfg_hash", &format_args!("{:#x}", self.cfg.stable_hash()))
            .field("seed", &self.cfg.seed)
            .field("prog_len", &self.program.len())
            .field("prep", &self.prep.is_some())
            .field("start_cycle", &self.start.as_ref().map(|ck| ck.cycle()))
            .field("max_cycles", &self.max_cycles)
            .finish()
    }
}

/// Why a member degraded: a structured simulator error, or a panic
/// (captured so siblings keep running; the payload message is kept for
/// the report).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MemberError {
    /// The member's run returned a [`SimError`].
    Sim(SimError),
    /// The member's prep, run, or extract closure panicked.
    Panicked(String),
}

impl MemberError {
    /// The structured simulator error, if this wasn't a panic.
    #[must_use]
    pub fn sim(&self) -> Option<&SimError> {
        match self {
            MemberError::Sim(e) => Some(e),
            MemberError::Panicked(_) => None,
        }
    }

    /// Unwraps the [`SimError`], resurfacing captured panics.
    ///
    /// Callers that predate the fleet treated a panic inside a trial as
    /// a harness bug that aborts the run; this restores exactly that
    /// behavior after fleet dispatch has protected sibling members.
    ///
    /// # Panics
    ///
    /// Panics with the captured payload message if the member panicked.
    #[must_use]
    pub fn unwrap_sim(self) -> SimError {
        match self {
            MemberError::Sim(e) => e,
            MemberError::Panicked(msg) => panic!("fleet member panicked: {msg}"),
        }
    }
}

impl fmt::Display for MemberError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemberError::Sim(e) => write!(f, "member failed: {e}"),
            MemberError::Panicked(msg) => write!(f, "member panicked: {msg}"),
        }
    }
}

impl std::error::Error for MemberError {}

impl From<SimError> for MemberError {
    fn from(e: SimError) -> MemberError {
        MemberError::Sim(e)
    }
}

/// Applies a forked member's per-trial config override after its
/// machine has adopted the checkpoint. Only `cfg.noise` may legally
/// differ from the checkpoint's config, and only on a cycle-0
/// checkpoint (no noise has been drawn yet, so swapping the hook is
/// bit-equal to building the machine under the trial config); any other
/// divergence would silently break the forked-vs-serial determinism
/// contract, so debug builds assert it away.
fn apply_start_overrides(m: &mut Machine, spec: &MemberSpec, ck: &Checkpoint) {
    debug_assert!(
        SimConfig {
            noise: ck.config().noise,
            ..spec.cfg
        } == *ck.config(),
        "forked member cfg must match its checkpoint (modulo noise)"
    );
    if spec.cfg.noise != ck.config().noise {
        debug_assert_eq!(
            ck.cycle(),
            0,
            "per-trial noise override requires a cycle-0 checkpoint"
        );
        m.set_noise(spec.cfg.noise);
    }
}

/// A reusable pool of machines for [`trial_grid_pooled`]: one slot per
/// worker thread, recycled across jobs *and* across calls (calibration
/// loops re-dispatch rounds against the same pool, keeping the
/// PR 5 "one machine across attempts" property).
#[derive(Debug, Default)]
pub struct MachinePool {
    slots: Vec<PoolSlot>,
}

#[derive(Debug, Default)]
struct PoolSlot {
    machine: Option<Machine>,
    program: Option<Arc<Program>>,
}

impl PoolSlot {
    /// Recycles (or builds) this slot's machine for `spec`, reloading
    /// the program only when it actually changed (`Arc::ptr_eq`), then
    /// preps and runs the trial.
    ///
    /// Forked jobs (`spec.start`) skip the reset/reload path entirely:
    /// the checkpoint is restored over whatever the slot held —
    /// [`Machine::restore`] works across shapes and zeroes the previous
    /// occupant's dirty memory tail — and the slot's program cache is
    /// invalidated so a later cold job reloads its own program.
    fn run_job(&mut self, spec: &MemberSpec) -> Result<SimStats, SimError> {
        if let Some(ck) = &spec.start {
            let m = match &mut self.machine {
                Some(m) => {
                    m.restore(ck);
                    m
                }
                None => self.machine.insert(Machine::from_checkpoint(ck)),
            };
            apply_start_overrides(m, spec, ck);
            // The loaded program now comes from the checkpoint, not
            // from a `spec.program` this slot has seen.
            self.program = None;
            if let Some(prep) = &spec.prep {
                prep(m)?;
            }
            m.run(spec.max_cycles.saturating_sub(m.cycle()))?;
            return Ok(*m.stats());
        }
        let kept = match &mut self.machine {
            Some(m) => m.reset_to(spec.cfg),
            None => {
                self.machine = Some(Machine::new(spec.cfg));
                false
            }
        };
        let same_prog = kept
            && self
                .program
                .as_ref()
                .is_some_and(|p| Arc::ptr_eq(p, &spec.program));
        let m = self.machine.as_mut().expect("slot populated above");
        if !same_prog {
            m.load_program(&spec.program);
            self.program = Some(Arc::clone(&spec.program));
        }
        if let Some(prep) = &spec.prep {
            prep(m)?;
        }
        m.run(spec.max_cycles)?;
        Ok(*m.stats())
    }
}

/// Runs every job through a fresh machine pool. See
/// [`trial_grid_pooled`].
pub fn trial_grid<T, F>(jobs: &[MemberSpec], threads: usize, extract: F) -> Vec<Result<T, MemberError>>
where
    T: Send,
    F: Fn(usize, &mut Machine, SimStats) -> T + Sync,
{
    let mut pool = MachinePool::default();
    trial_grid_pooled(&mut pool, jobs, threads, extract)
}

/// The shared per-trial machine-construction path for every sweep
/// driver (fig5 gadget matrix, fig6 trial loops, covert round trips,
/// calibration rounds): runs each job on a pooled machine —
/// [`Machine::reset_to`] between jobs instead of a fresh 4 MB machine
/// per trial — stealing work across `threads` threads (0 = process
/// default), and reduces each completed trial through `extract` on the
/// worker that owns the machine.
///
/// `extract` receives the job index, the halted machine (for receiver
/// transcripts: timing buffers, ciphertext bytes, cache state) and the
/// final stats. Results come back in job order, every job exactly
/// once; a failing or panicking job yields `Err` in its slot without
/// disturbing the others. The output is independent of the thread
/// count and steal order — each job's trial is a pure function of its
/// [`MemberSpec`].
pub fn trial_grid_pooled<T, F>(
    pool: &mut MachinePool,
    jobs: &[MemberSpec],
    threads: usize,
    extract: F,
) -> Vec<Result<T, MemberError>>
where
    T: Send,
    F: Fn(usize, &mut Machine, SimStats) -> T + Sync,
{
    let threads = effective_threads(threads, jobs.len());
    if pool.slots.len() < threads {
        pool.slots.resize_with(threads, PoolSlot::default);
    }
    let run_one = |slot: &mut PoolSlot, i: usize| -> Result<T, MemberError> {
        let spec = &jobs[i];
        let attempt = panic::catch_unwind(AssertUnwindSafe(|| {
            slot.run_job(spec).map(|stats| {
                extract(i, slot.machine.as_mut().expect("slot populated"), stats)
            })
        }));
        match attempt {
            Ok(Ok(v)) => Ok(v),
            Ok(Err(e)) => {
                // Controlled stops (timeout, fault, wild pc, deadlock)
                // leave a machine that `reset_to` provably rewinds —
                // the half-stepped-recycling regression test in
                // tests/fleet_differential.rs pins bit-equality. An
                // invariant break is different: the pipeline has
                // already violated its own bookkeeping, so nothing
                // about its state — including what reset() assumes —
                // can be trusted. Rebuild instead of recycling.
                if matches!(
                    e,
                    SimError::InvalidState { .. } | SimError::ResourceExhausted { .. }
                ) {
                    slot.machine = None;
                    slot.program = None;
                }
                Err(MemberError::Sim(e))
            }
            Err(p) => {
                // The machine may be mid-step; drop it rather than
                // recycle poisoned state into the next job.
                slot.machine = None;
                slot.program = None;
                Err(MemberError::Panicked(panic_message(&*p)))
            }
        }
    };
    if threads <= 1 {
        let slot = &mut pool.slots[0];
        return (0..jobs.len()).map(|i| run_one(slot, i)).collect();
    }
    let results: Vec<Mutex<Option<Result<T, MemberError>>>> =
        jobs.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let results = &results;
    let next = &next;
    let run_one = &run_one;
    thread::scope(|s| {
        for slot in pool.slots.iter_mut().take(threads) {
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs.len() {
                    break;
                }
                let r = run_one(slot, i);
                *results[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(r);
            });
        }
    });
    results
        .iter()
        .map(|m| {
            m.lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take()
                .expect("every claimed job stores a result")
        })
        .collect()
}

/// Best-effort panic payload rendering.
fn panic_message(p: &(dyn Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pandora_isa::{Asm, Reg};

    fn counting_program(iters: u64) -> Arc<Program> {
        let mut a = Asm::new();
        a.li(Reg::T0, iters);
        a.label("loop");
        a.addi(Reg::T0, Reg::T0, -1);
        a.bnez(Reg::T0, "loop");
        a.halt();
        Arc::new(a.assemble().unwrap())
    }

    #[test]
    fn effective_threads_resolves_and_clamps() {
        assert_eq!(effective_threads(4, 2), 2);
        assert_eq!(effective_threads(4, 100), 4);
        assert_eq!(effective_threads(1, 0), 1);
        assert!(effective_threads(0, 64) >= 1);
    }

    #[test]
    fn member_timeout_degrades_only_that_member() {
        let prog = counting_program(100_000);
        let short = MemberSpec::new(SimConfig::default(), Arc::clone(&prog)).with_max_cycles(64);
        let fine = MemberSpec::new(SimConfig::default(), Arc::clone(&prog));
        let outcomes = trial_grid(&[short, fine], 2, |_, _, stats| stats);
        assert!(matches!(
            outcomes[0],
            Err(MemberError::Sim(SimError::Timeout { .. }))
        ));
        assert!(outcomes[1].is_ok());
    }

    #[test]
    fn trial_grid_recycles_machines_across_shape_changes() {
        let prog = counting_program(30);
        // More jobs than threads forces reuse; the little-core member
        // in the middle forces a shape rebuild and back.
        let cfgs = [
            SimConfig::default(),
            SimConfig { seed: 99, ..SimConfig::default() },
            SimConfig::little_core(),
            SimConfig::default(),
        ];
        let jobs: Vec<MemberSpec> = cfgs
            .iter()
            .map(|&cfg| MemberSpec::new(cfg, Arc::clone(&prog)))
            .collect();
        let pooled = trial_grid(&jobs, 1, |_, m, stats| (stats.cycles, m.reg(Reg::T0)));
        for (i, r) in pooled.iter().enumerate() {
            let (cycles, t0) = r.as_ref().expect("trial completes");
            assert!(*cycles > 0, "job {i} ran");
            assert_eq!(*t0, 0, "job {i} counted down");
        }
        // Identical cfg/seed jobs must agree bit-for-bit even though
        // one ran on a fresh machine and one on a recycled one.
        assert_eq!(pooled[0], pooled[3]);
    }

    #[test]
    fn trial_grid_is_thread_count_invariant() {
        let prog = counting_program(40);
        let jobs: Vec<MemberSpec> = (0..6)
            .map(|i| {
                MemberSpec::new(
                    SimConfig { seed: 1000 + i, ..SimConfig::default() },
                    Arc::clone(&prog),
                )
            })
            .collect();
        let one = trial_grid(&jobs, 1, |_, _, stats| stats);
        let four = trial_grid(&jobs, 4, |_, _, stats| stats);
        assert_eq!(one, four);
    }

    #[test]
    fn trial_grid_prep_seeds_memory() {
        let mut a = Asm::new();
        a.li(Reg::T1, 0x2000);
        a.ld(Reg::T0, Reg::T1, 0);
        a.sd(Reg::T0, Reg::T1, 8);
        a.halt();
        let prog = Arc::new(a.assemble().unwrap());
        let job = MemberSpec::new(SimConfig::default(), prog)
            .with_prep(|m| {
                m.mem_mut().write_u64(0x2000, 0xdead_beef).unwrap();
                Ok(())
            });
        let out = trial_grid(&[job], 1, |_, m, _| m.mem().read_u64(0x2008).unwrap());
        assert_eq!(*out[0].as_ref().unwrap(), 0xdead_beef);
    }

    /// A program with a long warm-up loop, then a short measured tail
    /// over memory the prep seeds.
    fn warm_tail_program() -> Arc<Program> {
        let mut a = Asm::new();
        a.li(Reg::T0, 200);
        a.label("warm");
        a.ld(Reg::T1, Reg::ZERO, 0x3000);
        a.addi(Reg::T0, Reg::T0, -1);
        a.bnez(Reg::T0, "warm");
        a.fence();
        a.ld(Reg::T2, Reg::ZERO, 0x2000);
        a.sd(Reg::T2, Reg::ZERO, 0x2008);
        a.halt();
        Arc::new(a.assemble().unwrap())
    }

    /// Warm checkpoint: the shared loop committed, the tail not yet.
    fn warm_checkpoint(cfg: SimConfig, prog: &Arc<Program>) -> Arc<Checkpoint> {
        let mut m = Machine::new(cfg);
        m.load_program(prog);
        m.run_until_committed(600, 1_000_000).unwrap();
        Arc::new(m.snapshot())
    }

    #[test]
    fn forked_trials_match_serial_replay_and_survive_pool_recycling() {
        let prog = warm_tail_program();
        let cfg = SimConfig::default();
        let ck = warm_checkpoint(cfg, &prog);
        let trial_prep = |v: u64| {
            move |m: &mut Machine| {
                m.mem_mut().write_u64(0x2000, v).unwrap();
                Ok(())
            }
        };

        // Serial replay reference: full cold run per trial.
        let serial: Vec<u64> = (0..4u64)
            .map(|v| {
                let mut m = Machine::new(cfg);
                m.load_program(&prog);
                m.mem_mut().write_u64(0x2000, v * 7 + 1).unwrap();
                m.run(1_000_000).unwrap();
                m.mem().read_u64(0x2008).unwrap()
            })
            .collect();

        // Forked grid, interleaved with a cold job of a *different*
        // program so the slot's program-cache invalidation is exercised
        // (checkpoint job → cold job must reload).
        let other = counting_program(10);
        let mut jobs: Vec<MemberSpec> = (0..4u64)
            .map(|v| {
                MemberSpec::new(cfg, Arc::clone(&prog))
                    .with_start(Arc::clone(&ck))
                    .with_prep(trial_prep(v * 7 + 1))
            })
            .collect();
        jobs.insert(2, MemberSpec::new(cfg, Arc::clone(&other)));
        let out = trial_grid(&jobs, 1, |_, m, _| m.mem().read_u64(0x2008).unwrap());
        let forked: Vec<u64> = out
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 2)
            .map(|(_, r)| *r.as_ref().expect("forked trial completes"))
            .collect();
        assert_eq!(forked, serial, "fork-from-checkpoint == serial replay");
        // The interposed cold job ran its own program to completion.
        assert!(out[2].is_ok());
    }

    #[test]
    fn forked_budget_counts_checkpoint_cycles() {
        let prog = warm_tail_program();
        let cfg = SimConfig::default();
        let ck = warm_checkpoint(cfg, &prog);
        assert!(ck.cycle() > 64);
        let job = MemberSpec::new(cfg, Arc::clone(&prog))
            .with_start(Arc::clone(&ck))
            .with_max_cycles(64);
        let out = trial_grid(std::slice::from_ref(&job), 1, |_, _, s| s.cycles);
        assert!(
            matches!(&out[0], Err(MemberError::Sim(SimError::Timeout { .. }))),
            "budget below the checkpoint cycle must time out, got {:?}",
            out[0]
        );
    }

    #[test]
    fn panicking_job_degrades_without_poisoning_the_pool() {
        let prog = counting_program(20);
        let good = MemberSpec::new(SimConfig::default(), Arc::clone(&prog));
        let bad = MemberSpec::new(SimConfig::default(), Arc::clone(&prog))
            .with_prep(|_| panic!("poisoned member"));
        let jobs = vec![good.clone(), bad, good];
        let out = trial_grid(&jobs, 1, |_, _, stats| stats.cycles);
        assert!(out[0].is_ok());
        assert!(
            matches!(&out[1], Err(MemberError::Panicked(msg)) if msg.contains("poisoned")),
            "unexpected outcome for the poisoned member: {:?}",
            out[1]
        );
        assert!(out[2].is_ok());
        assert_eq!(out[0], out[2], "pool recycling survives the panic in between");
    }
}
