//! The machine facade: a thin scheduler over the stage modules.
//!
//! A single-core, speculative, out-of-order machine in the shape of the
//! paper's "Baseline" (§III): fetch with branch prediction → rename
//! (physical register file + free list) → issue queue → execution ports
//! → load/store queues → reorder buffer → in-order commit, over a
//! two-level cache hierarchy. Stores dequeue from the store queue in
//! program order and only after their line is present in the L1
//! (§V-A1) — the property the silent-store amplification gadget relies
//! on.
//!
//! The pipeline itself lives in the `pipeline` module, one function
//! per stage; the seven Table I optimization classes are the fields of
//! one `Hooks` struct built from the config, so a [`Machine`] is
//! "baseline stages + the enabled classes". A run is observed through
//! two records, both written where the event happens: the [`SimStats`]
//! counters and the optional [`Trace`]. Fault injection
//! ([`Machine::inject_faults`]) and environmental noise ride the same
//! struct.
//!
//! Recovery from branch and value mispredictions uses ROB-walk rename
//! undo, so any instruction can be a squash point without checkpoints.

use pandora_isa::{Program, Reg};

use crate::config::SimConfig;
use crate::fault::FaultPlan;
use crate::mem::hierarchy::Hierarchy;
use crate::mem::memory::Memory;
use crate::opt::hook::Hooks;
use crate::pipeline::{commit, execute, fetch, issue, lsq, rename, PipelineState};
use crate::stats::SimStats;
use crate::trace::Trace;

pub use crate::error::{DeadlockDiagnostics, SimError};

/// A point-in-time image of a [`Machine`], taken by
/// [`Machine::snapshot`] and re-imposed by [`Machine::restore`].
///
/// A checkpoint is a *deep copy of everything that determines future
/// behaviour*: the architectural state (registers, memory with its
/// `dirty_hi` write high-water mark, program), the microarchitectural
/// window (fetch buffer, rename tables, ROB, load/store queues),
/// the cache hierarchy and branch predictors, the accumulated
/// statistics/trace, and every optimization class's state — including
/// learned optimization tables, any pending fault plan, and the noise
/// source's `SmallRng` streams *at their current positions*, so trials
/// forked from one warmed checkpoint resume the exact noise sequence a
/// serial replay would see.
///
/// Checkpoints are the fleet's fork primitive: wrap one in an
/// [`std::sync::Arc`] and hand it to many
/// [`crate::fleet::MemberSpec`]s to run each trial from the shared
/// warm state instead of replaying the prefix.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    state: PipelineState,
    hooks: Hooks,
}

impl Checkpoint {
    /// The cycle the snapshot was taken at. `0` means the machine had
    /// not stepped yet (a "warm prep" checkpoint); restored machines
    /// resume counting from here.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.state.cycle
    }

    /// The configuration the snapshotted machine ran under.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.state.cfg
    }

    /// Read-only view of the snapshotted memory image.
    #[must_use]
    pub fn mem(&self) -> &Memory {
        &self.state.mem
    }
}

/// The simulated machine: one out-of-order core, two cache levels, flat
/// memory.
///
/// ```
/// use pandora_isa::{Asm, Reg};
/// use pandora_sim::{Machine, SimConfig};
///
/// let mut a = Asm::new();
/// a.li(Reg::T0, 21);
/// a.add(Reg::T0, Reg::T0, Reg::T0);
/// a.halt();
/// let prog = a.assemble().unwrap();
///
/// let mut m = Machine::new(SimConfig::default());
/// m.load_program(&prog);
/// let stats = m.run(10_000).unwrap();
/// assert_eq!(m.reg(Reg::T0), 42);
/// assert!(stats.committed >= 3);
/// ```
#[derive(Clone, Debug)]
pub struct Machine {
    state: PipelineState,
    hooks: Hooks,
}

impl Machine {
    /// Creates a machine with zeroed memory and registers, running the
    /// Table I optimization classes `cfg.opts` enables.
    #[must_use]
    pub fn new(cfg: SimConfig) -> Machine {
        Machine {
            hooks: Hooks::from_config(&cfg),
            state: PipelineState::new(cfg),
        }
    }

    /// Installs the program to run (fetch starts at instruction 0).
    pub fn load_program(&mut self, prog: &Program) {
        self.state.prog = prog.clone();
    }

    /// The machine configuration.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.state.cfg
    }

    /// The committed architectural value of register `r`.
    #[must_use]
    pub fn reg(&self, r: Reg) -> u64 {
        self.state.arch_regs[r.index()]
    }

    /// Sets register `r` before the run starts (`x0` is ignored).
    ///
    /// # Panics
    ///
    /// Panics if called after the machine has started executing.
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        assert_eq!(self.state.cycle, 0, "set_reg is only valid before run()");
        if r.is_zero() {
            return;
        }
        self.state.arch_regs[r.index()] = v;
        let tag = self.state.rat[r.index()] as usize;
        self.state.prf_vals[tag] = v;
    }

    /// Read-only memory access.
    #[must_use]
    pub fn mem(&self) -> &Memory {
        &self.state.mem
    }

    /// Mutable memory access (for setting up experiment state).
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.state.mem
    }

    /// The cache hierarchy (for receivers probing residency).
    #[must_use]
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.state.hier
    }

    /// Mutable hierarchy access (for priming/flushing cache state).
    pub fn hierarchy_mut(&mut self) -> &mut Hierarchy {
        &mut self.state.hier
    }

    /// The current cycle.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.state.cycle
    }

    /// Whether `halt` has committed.
    #[must_use]
    pub fn is_halted(&self) -> bool {
        self.state.halted
    }

    /// Statistics accumulated so far.
    #[must_use]
    pub fn stats(&self) -> &SimStats {
        &self.state.stats
    }

    /// Enables microarchitectural event tracing until the next
    /// [`Machine::reset_to`].
    pub fn enable_trace(&mut self) {
        self.state.trace.enable();
    }

    /// The event trace recorded so far, including the IMP's confirmed
    /// indirections ([`crate::TraceEvent::DmpPattern`]).
    #[must_use]
    pub fn trace(&self) -> &Trace {
        &self.state.trace
    }

    /// Rewinds the machine to the post-construction state under `cfg`
    /// — cycle 0, zeroed memory and registers, cold caches and
    /// predictors, fresh statistics, an empty and disabled trace, no
    /// fault plan — the fleet primitive for recycling one allocated
    /// machine across the trials of a sweep whose members differ only
    /// in seeds, noise, optimization switches, latencies, or watchdog
    /// settings. Pass the machine's own config ([`Machine::config`]) to
    /// re-run the same trial.
    ///
    /// When [`SimConfig::same_shape`] holds between the current and new
    /// configs, the machine rewinds in place — every buffer survives at
    /// its high-water mark, the loaded program is kept, and `true` is
    /// returned. The result is bit-equal to a fresh `Machine::new(cfg)`
    /// with the same program loaded (the differential test in
    /// `tests/fleet_differential.rs` pins this). Under an identical
    /// config the optimization classes also rewind in place: learned
    /// tables (reuse memos, value-predictor confidence, DMP
    /// correlations) are cleared with their capacity kept, and the
    /// noise source's RNG streams are re-derived from their seed, so the
    /// machine replays the identical noise sequence.
    ///
    /// When the new config changes allocation shape (memory size,
    /// pipeline geometry, cache geometry, memory latencies), the
    /// machine is rebuilt from scratch and `false` is returned — the
    /// caller must re-load its program.
    pub fn reset_to(&mut self, cfg: SimConfig) -> bool {
        if !self.state.cfg.same_shape(&cfg) {
            *self = Machine::new(cfg);
            return false;
        }
        if self.state.cfg == cfg {
            self.hooks.reset();
        } else {
            // The classes are rebuilt rather than reset in place: a
            // reset re-derives from the config they were *built* with
            // (e.g. the noise source replays its own stored seed),
            // which is exactly wrong when the config changed. The big
            // allocations (memory, caches, PRF) all live in
            // `PipelineState` and survive.
            self.state.cfg = cfg;
            self.hooks = Hooks::from_config(&cfg);
        }
        self.state.reset();
        true
    }

    /// Captures a deep [`Checkpoint`] of the machine — see
    /// [`Checkpoint`] for exactly what the image contains. The machine
    /// is not perturbed; snapshotting mid-run and continuing produces
    /// the same statistics as never snapshotting.
    #[must_use]
    pub fn snapshot(&self) -> Checkpoint {
        Checkpoint {
            state: self.state.clone(),
            hooks: self.hooks.clone(),
        }
    }

    /// Re-imposes a [`Checkpoint`] on this machine, in place.
    ///
    /// This is a *restore*, not a reset: nothing is re-derived from its
    /// seed — the noise RNG streams, learned optimization tables, and
    /// accumulated statistics all resume exactly where the snapshot
    /// left them, so a restored machine's continuation is bit-equal to
    /// the snapshotted machine's (the golden-stats checkpoint gate
    /// pins this). Works from *any* prior machine state, including a
    /// recycled pool machine of a different shape; memory restores via
    /// [`Memory::restore_from`], which zeroes the stale dirty tail and
    /// adopts the checkpoint's high-water mark so no bytes from the
    /// previous occupant survive.
    pub fn restore(&mut self, ck: &Checkpoint) {
        self.state.restore_from(&ck.state);
        self.hooks = ck.hooks.clone();
    }

    /// Builds a fresh machine directly from a checkpoint — the
    /// fork-entry path for pool slots that have no machine to recycle.
    #[must_use]
    pub fn from_checkpoint(ck: &Checkpoint) -> Machine {
        Machine {
            state: ck.state.clone(),
            hooks: ck.hooks.clone(),
        }
    }

    /// Replaces the environmental-noise configuration, rebuilding the
    /// noise source with streams derived from the new seed (and
    /// removing it when the new config is quiet).
    ///
    /// Intended for **cycle-0 checkpoint forks**: before the first
    /// step no noise has been drawn, so swapping the source here is
    /// bit-equal to constructing the machine under the new config.
    /// Calling this mid-run forfeits byte-identity with a machine that
    /// ran under the new config from the start (the already-elapsed
    /// cycles used the old streams).
    pub fn set_noise(&mut self, noise: crate::noise::NoiseConfig) {
        self.state.cfg.noise = noise;
        self.hooks.set_noise(&self.state.cfg);
    }

    /// Runs until at least `committed` instructions have committed (or
    /// the machine halts), up to `max_cycles` additional cycles — the
    /// warm-up driver for taking a mid-run [`Checkpoint`] at a
    /// deterministic program boundary.
    ///
    /// # Errors
    ///
    /// [`SimError::Timeout`] if the budget runs out first; otherwise
    /// as [`Machine::run`].
    pub fn run_until_committed(&mut self, committed: u64, max_cycles: u64) -> Result<(), SimError> {
        let limit = self.state.cycle + max_cycles;
        while !self.state.halted && self.stats().committed < committed {
            if self.state.cycle >= limit {
                return Err(SimError::Timeout { cycles: max_cycles });
            }
            self.step()?;
        }
        Ok(())
    }

    /// Runs until fetch has fetched instruction `pc` (or the machine
    /// halts), up to `max_cycles` additional cycles — the counterpart
    /// of [`Machine::run_until_committed`] for forking *before* an
    /// instruction rather than after one. Rename ticks before fetch
    /// within a cycle, so when this returns `pc` sits in the fetch
    /// buffer: it has not been renamed or executed, and neither has
    /// anything fetched after it. State that only `pc` and its
    /// successors read (a plaintext buffer, say) may therefore still be
    /// written after a [`Machine::snapshot`] taken here.
    ///
    /// # Errors
    ///
    /// [`SimError::Timeout`] if the budget runs out first; otherwise
    /// as [`Machine::run`].
    pub fn run_until_fetched(&mut self, pc: usize, max_cycles: u64) -> Result<(), SimError> {
        let limit = self.state.cycle + max_cycles;
        while !self.state.halted && !self.state.fetch_buf.iter().any(|&(p, ..)| p == pc) {
            if self.state.cycle >= limit {
                return Err(SimError::Timeout { cycles: max_cycles });
            }
            self.step()?;
        }
        Ok(())
    }

    /// Installs a fault plan: each scheduled event is applied at the
    /// start of its cycle on subsequent [`Machine::step`]s. Replaces
    /// any previously installed plan; events scheduled at or before the
    /// current cycle are dropped rather than fired retroactively.
    pub fn inject_faults(&mut self, plan: FaultPlan) {
        self.hooks.inject_faults(plan, self.state.cycle);
    }

    /// Runs until `halt` commits or `max_cycles` elapse.
    ///
    /// # Errors
    ///
    /// * [`SimError::Timeout`] if the budget runs out,
    /// * [`SimError::Mem`] if a committed access faults,
    /// * [`SimError::WildPc`] if control flow leaves the program,
    /// * [`SimError::Deadlock`] if the watchdog sees no progress,
    /// * [`SimError::ResourceExhausted`] / [`SimError::InvalidState`]
    ///   if a pipeline invariant breaks (malformed program or
    ///   injected fault).
    pub fn run(&mut self, max_cycles: u64) -> Result<SimStats, SimError> {
        let limit = self.state.cycle + max_cycles;
        while !self.state.halted {
            if self.state.cycle >= limit {
                return Err(SimError::Timeout { cycles: max_cycles });
            }
            self.step()?;
        }
        Ok(self.state.stats)
    }

    /// Advances the machine one cycle: stages tick in reverse pipeline
    /// order (commit first) so a result produced in cycle *n* is
    /// consumed no earlier than cycle *n + 1*.
    ///
    /// # Errors
    ///
    /// See [`Machine::run`].
    pub fn step(&mut self) -> Result<(), SimError> {
        let st = &mut self.state;
        st.cycle += 1;
        let hooks = &mut self.hooks;
        hooks.on_cycle_start(st);
        commit::tick(st, hooks)?;
        if st.halted {
            st.stats.cycles = st.cycle;
            return Ok(());
        }
        lsq::tick(st, hooks)?;
        execute::tick(st, hooks)?;
        issue::tick(st, hooks)?;
        rename::tick(st, hooks)?;
        fetch::tick(st);
        st.stats.cycles = st.cycle;
        if st.cfg.paranoid_checks {
            st.paranoid_validate()?;
        }
        // Wild control flow: nothing in flight and nothing fetchable.
        if st.rob.is_empty()
            && st.fetch_buf.is_empty()
            && st.sq.is_empty()
            && !st.fetch_blocked
            && st.cycle >= st.fetch_stall_until
            && st.prog.get(st.fetch_pc).is_none()
        {
            return Err(SimError::WildPc { pc: st.fetch_pc });
        }
        // Watchdog: work is in flight but nothing has committed or
        // drained for a whole window — the pipeline is wedged, and
        // spinning to the cycle cap would only mislabel it a Timeout.
        if let Some(window) = st.cfg.watchdog_cycles {
            if st.cycle.saturating_sub(st.last_progress_cycle) >= window {
                return Err(SimError::Deadlock {
                    cycle: st.cycle,
                    diagnostics: st.deadlock_snapshot(),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::NoiseConfig;
    use pandora_isa::Asm;

    fn loop_prog(iters: u64) -> Program {
        let mut a = Asm::new();
        a.li(Reg::T0, iters);
        a.label("l");
        a.ld(Reg::T1, Reg::ZERO, 0x4000);
        a.sd(Reg::T1, Reg::ZERO, 0x6000);
        a.addi(Reg::T0, Reg::T0, -1);
        a.bnez(Reg::T0, "l");
        a.halt();
        a.assemble().unwrap()
    }

    fn noisy_cfg() -> SimConfig {
        SimConfig {
            noise: NoiseConfig::at_intensity(40, 9).with_window(0x4000, 0x8000),
            ..SimConfig::default()
        }
    }

    #[test]
    fn snapshot_restore_continuation_is_bit_equal_to_straight_run() {
        for cfg in [SimConfig::default(), noisy_cfg()] {
            let mut straight = Machine::new(cfg);
            straight.load_program(&loop_prog(120));
            let want = straight.run(1_000_000).unwrap();

            let mut m = Machine::new(cfg);
            m.load_program(&loop_prog(120));
            m.run_until_committed(60, 1_000_000).unwrap();
            let ck = m.snapshot();
            assert_eq!(ck.cycle(), m.cycle(), "snapshot pins the cycle");
            let cont = m.run(1_000_000).unwrap();
            assert_eq!(cont, want, "snapshotting does not perturb the run");

            // Restore into a machine that is dirty in every dimension:
            // different program, different noise, mid-run.
            let mut dirty = Machine::new(SimConfig {
                noise: NoiseConfig::at_intensity(70, 123),
                ..SimConfig::default()
            });
            dirty.load_program(&loop_prog(300));
            dirty.mem_mut().write_u64(0x9000, 0xdead_beef).unwrap();
            dirty.run_until_committed(200, 1_000_000).unwrap();
            dirty.restore(&ck);
            assert_eq!(dirty.cycle(), ck.cycle());
            let forked = dirty.run(1_000_000).unwrap();
            assert_eq!(forked, want, "restore resumes bit-equal (cfg {cfg:?})");
            assert_eq!(dirty.mem().read_u64(0x9000).unwrap(), 0);
        }
    }

    #[test]
    fn fork_at_fetch_then_write_equals_write_before_straight_run() {
        // A straight-line prefix of cache-missing loads and stores, then
        // a tail that reads a word written only after the fork.
        let mut a = Asm::new();
        for i in 0..24 {
            a.ld(Reg::T1, Reg::ZERO, 0x4000 + 64 * i);
            a.add(Reg::T0, Reg::T0, Reg::T1);
            a.sd(Reg::T0, Reg::ZERO, 0x6000 + 64 * i);
        }
        let tail = a.here();
        a.ld(Reg::T2, Reg::ZERO, 0x5000);
        a.add(Reg::T3, Reg::T2, Reg::T2);
        a.sd(Reg::T3, Reg::ZERO, 0x5008);
        a.halt();
        let prog = a.assemble().unwrap();

        for cfg in [SimConfig::default(), noisy_cfg()] {
            let mut straight = Machine::new(cfg);
            straight.load_program(&prog);
            straight.mem_mut().write_u64(0x5000, 21).unwrap();
            let want = straight.run(1_000_000).unwrap();

            let mut m = Machine::new(cfg);
            m.load_program(&prog);
            m.run_until_fetched(tail, 1_000_000).unwrap();
            assert!(m.cycle() > 3 && !m.is_halted());
            assert!(m.stats().committed < tail as u64, "the tail has not run");
            let ck = m.snapshot();
            let mut forked = Machine::from_checkpoint(&ck);
            forked.mem_mut().write_u64(0x5000, 21).unwrap();
            assert_eq!(forked.run(1_000_000).unwrap(), want, "cfg {cfg:?}");
            assert_eq!(forked.mem().read_u64(0x5008).unwrap(), 42);
        }

        // The budget is enforced like run_until_committed's.
        let mut m = Machine::new(SimConfig::default());
        m.load_program(&prog);
        assert_eq!(
            m.run_until_fetched(tail, 3),
            Err(SimError::Timeout { cycles: 3 })
        );
    }

    #[test]
    fn from_checkpoint_matches_restore() {
        let mut m = Machine::new(noisy_cfg());
        m.load_program(&loop_prog(90));
        m.run_until_committed(40, 1_000_000).unwrap();
        let ck = m.snapshot();
        let want = m.run(1_000_000).unwrap();
        let mut fresh = Machine::from_checkpoint(&ck);
        assert_eq!(fresh.run(1_000_000).unwrap(), want);
    }

    #[test]
    fn restore_crosses_machine_shapes() {
        let mut m = Machine::new(SimConfig::default());
        m.load_program(&loop_prog(50));
        m.run_until_committed(30, 1_000_000).unwrap();
        let ck = m.snapshot();
        let want = m.run(1_000_000).unwrap();

        let mut small = Machine::new(SimConfig {
            mem_size: 1 << 16,
            ..SimConfig::little_core()
        });
        small.restore(&ck);
        assert_eq!(small.config(), ck.config(), "restore adopts the config");
        assert_eq!(small.run(1_000_000).unwrap(), want);
    }

    #[test]
    fn set_noise_on_cycle0_fork_matches_fresh_construction() {
        // A warm cycle-0 checkpoint forked under per-trial noise must be
        // indistinguishable from building each trial machine directly.
        let mut warm = Machine::new(SimConfig::default());
        warm.load_program(&loop_prog(100));
        warm.mem_mut().write_u64(0x4000, 77).unwrap();
        let ck = warm.snapshot();

        for seed in [3u64, 19, 1234] {
            let trial = SimConfig {
                noise: NoiseConfig::at_intensity(35, seed).with_window(0x4000, 0x8000),
                ..SimConfig::default()
            };
            let mut direct = Machine::new(trial);
            direct.load_program(&loop_prog(100));
            direct.mem_mut().write_u64(0x4000, 77).unwrap();
            let want = direct.run(1_000_000).unwrap();

            let mut forked = Machine::from_checkpoint(&ck);
            forked.set_noise(trial.noise);
            assert_eq!(*forked.config(), trial);
            assert_eq!(forked.run(1_000_000).unwrap(), want, "seed {seed}");

            // And back to quiet: the noise source is removed entirely.
            let mut quiet = Machine::from_checkpoint(&ck);
            quiet.set_noise(NoiseConfig::quiet());
            let mut direct_quiet = Machine::new(SimConfig::default());
            direct_quiet.load_program(&loop_prog(100));
            direct_quiet.mem_mut().write_u64(0x4000, 77).unwrap();
            assert_eq!(
                quiet.run(1_000_000).unwrap(),
                direct_quiet.run(1_000_000).unwrap()
            );
        }
    }
}
