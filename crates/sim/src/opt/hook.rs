//! The optimization layer: [`Hooks`], one field per Table I class.
//!
//! The paper's Table I treats each optimization class as an independent
//! transformation over a fixed baseline; here a machine is "baseline +
//! the enabled classes" ([`Hooks::from_config`]), and each interception
//! point the stages call is answered by the one class it belongs to:
//!
//! | method | stage | optimization class |
//! |---|---|---|
//! | [`Hooks::store_dequeue_decision`], [`Hooks::silent_stores`] | store dequeue / issue | silent stores |
//! | [`Hooks::plan_alu`], [`Hooks::plan_fp`] | execute (latency planning) | computation simplification |
//! | [`Hooks::operand_packing`] | issue (ALU port accounting) | pipeline compression |
//! | [`Hooks::memo_lookup`], [`Hooks::memo_insert`], [`Hooks::on_rename`] | issue / writeback / rename | computation reuse |
//! | [`Hooks::predict_load`], [`Hooks::on_load_writeback`] | dispatch / writeback | value prediction |
//! | [`Hooks::rfc_compresses`] | writeback (early tag release) | register-file compression |
//! | [`Hooks::on_commit_load`] | commit (fill/observe) | DMP prefetching (CDP, then IMP) |
//!
//! The environment rides the same struct: [`Hooks::on_cycle_start`]
//! applies the noise source's disturbances, then any due events of an
//! injected [`FaultPlan`], and [`Hooks::read_cycle`] filters `rdcycle`
//! through the noise source's timer degradation.

use pandora_isa::{AluOp, FpOp, Reg, Width};

use crate::config::{LatencyConfig, OptConfig, ReuseKey, SimConfig};
use crate::fault::{FaultKind, FaultPlan};
use crate::noise::NoiseHook;
use crate::opt::cdp::Cdp;
use crate::opt::comp_reuse::ReuseTable;
use crate::opt::comp_simpl::{plan_alu, plan_fp, ExecPlan};
use crate::opt::dmp::Imp;
use crate::opt::rf_compress::RfCompressor;
use crate::opt::silent_store::SsState;
use crate::opt::value_pred::ValuePredictor;
use crate::pipeline::squash::{self, SquashReason};
use crate::pipeline::PipelineState;
use crate::trace::NonSilentReason;

/// Result of a computation-reuse memo consultation
/// ([`Hooks::memo_lookup`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum MemoLookup {
    /// Reuse is off or does not cover this operation; plan and
    /// evaluate normally and do not count a lookup.
    NotApplicable,
    /// Memoized: reuse this result with unit latency and no port.
    Hit(u64),
    /// Eligible but absent: evaluate, then offer the result back via
    /// [`Hooks::memo_insert`] at writeback.
    Miss,
}

/// The optimization classes, noise source and fault plan of one
/// machine. A class that is off is `false` or `None`.
///
/// Plain data: the derived `Clone` is what a [`crate::Checkpoint`]
/// takes, so learned tables and the noise streams resume where the
/// snapshot left them.
#[derive(Clone, Debug)]
pub(crate) struct Hooks {
    /// Silent stores (§V-A1): SS-load checking plus silent dequeue.
    silent_stores: bool,
    /// Pipeline compression (§V-A4): two narrow ALU operations share
    /// one port.
    operand_packing: bool,
    /// Computation simplification (§V-A2) and FP subnormal timing: the
    /// latencies and switches operand-dependent plans are made under.
    comp_simpl: Option<(LatencyConfig, OptConfig)>,
    /// Computation reuse (§V-A3): results memoized by pc + operands.
    comp_reuse: Option<ReuseTable>,
    /// Whether computation reuse also covers simple ALU operations.
    reuse_simple_alu: bool,
    /// Value prediction (§V-A5): predicts at dispatch, trains at
    /// writeback.
    value_pred: Option<ValuePredictor>,
    /// Register-file compression (§V-A6): early tag release.
    rf_compress: Option<RfCompressor>,
    /// Content-directed prefetching (§V-C).
    cdp: Option<Cdp>,
    /// Indirect memory prefetching (§V-B).
    imp: Option<Imp>,
    /// Environmental noise, present when `cfg.noise.enabled()`.
    noise: Option<NoiseHook>,
    /// An injected fault plan and the index of its first event not
    /// yet applied.
    faults: Option<(FaultPlan, usize)>,
}

impl Hooks {
    /// The classes a [`SimConfig`] enables, its noise source, and no
    /// fault plan.
    pub(crate) fn from_config(cfg: &SimConfig) -> Hooks {
        let o = &cfg.opts;
        Hooks {
            silent_stores: o.silent_stores,
            operand_packing: o.operand_packing,
            comp_simpl: (o.comp_simpl || o.fp_subnormal).then_some((cfg.latency, *o)),
            comp_reuse: o
                .comp_reuse
                .then(|| ReuseTable::new(o.reuse_entries.max(1), o.reuse_key)),
            reuse_simple_alu: o.reuse_simple_alu,
            value_pred: o
                .value_pred
                .then(|| ValuePredictor::with_kind(o.vp_confidence, o.vp_kind)),
            rf_compress: o.rf_compress.then(|| RfCompressor::new(o.rfc_match)),
            cdp: o.cdp.then(|| Cdp::new(cfg.l1d.line, o.dmp_fill)),
            imp: o.dmp.then(|| Imp::new(o)),
            noise: cfg.noise.enabled().then(|| NoiseHook::new(cfg.noise)),
            faults: None,
        }
    }

    /// Rewinds to what [`Hooks::from_config`] built, in place: learned
    /// tables are cleared (capacity kept), the noise streams are
    /// re-derived from their seed, and the fault plan is dropped.
    pub(crate) fn reset(&mut self) {
        if let Some(table) = &mut self.comp_reuse {
            table.clear();
        }
        if let Some(vp) = &mut self.value_pred {
            vp.clear();
        }
        if let Some(imp) = &mut self.imp {
            imp.clear();
        }
        if let Some(noise) = &mut self.noise {
            noise.reset();
        }
        self.faults = None;
    }

    /// Replaces the noise source with a fresh one for `cfg.noise` (none
    /// when it is quiet) — the per-member noise override of cycle-0
    /// checkpoint forks ([`crate::Machine::set_noise`]).
    pub(crate) fn set_noise(&mut self, cfg: &SimConfig) {
        self.noise = cfg.noise.enabled().then(|| NoiseHook::new(cfg.noise));
    }

    /// Installs a fault plan, replacing any previous one. Events at or
    /// before `cycle` are skipped, not fired retroactively.
    pub(crate) fn inject_faults(&mut self, plan: FaultPlan, cycle: u64) {
        let cursor = plan
            .events()
            .iter()
            .position(|e| e.cycle > cycle)
            .unwrap_or(plan.len());
        self.faults = Some((plan, cursor));
    }

    /// The start of each cycle, before commit: the noise source's
    /// disturbances first, then the fault plan's due events.
    pub(crate) fn on_cycle_start(&mut self, st: &mut PipelineState) {
        if let Some(noise) = &mut self.noise {
            noise.on_cycle_start(st);
        }
        if let Some((plan, cursor)) = &mut self.faults {
            while let Some(ev) = plan.events().get(*cursor) {
                if ev.cycle > st.cycle {
                    break;
                }
                *cursor += 1;
                apply_fault(st, ev.kind);
            }
        }
    }

    /// The value an `rdcycle` at `cycle` reads: coarsened and jittered
    /// by the noise source, exact without one.
    pub(crate) fn read_cycle(&mut self, cycle: u64) -> u64 {
        self.noise
            .as_mut()
            .map_or(cycle, |noise| noise.read_cycle(cycle))
    }

    /// Rename redefined architectural register `rd`: computation reuse
    /// invalidates the memos keyed on it.
    pub(crate) fn on_rename(&mut self, rd: Reg) {
        if let Some(table) = &mut self.comp_reuse {
            table.invalidate_reg(rd);
        }
    }

    /// The value predictor's guess for the load dispatching at `pc`.
    pub(crate) fn predict_load(&self, pc: usize) -> Option<u64> {
        self.value_pred.as_ref().and_then(|vp| vp.predict(pc))
    }

    /// A non-faulting load at `pc` wrote back `value`: trains the value
    /// predictor.
    pub(crate) fn on_load_writeback(&mut self, pc: usize, value: u64) {
        if let Some(vp) = &mut self.value_pred {
            vp.update(pc, value);
        }
    }

    /// Computation-reuse memo consultation at issue. `base_eligible` is
    /// true for operations reuse always covers (multiplies, divides,
    /// floating point).
    pub(crate) fn memo_lookup(
        &self,
        pc: usize,
        vals: [u64; 2],
        srcs: [Option<Reg>; 2],
        base_eligible: bool,
    ) -> MemoLookup {
        match &self.comp_reuse {
            Some(table) if base_eligible || self.reuse_simple_alu => table
                .lookup(pc, vals, srcs)
                .map_or(MemoLookup::Miss, MemoLookup::Hit),
            _ => MemoLookup::NotApplicable,
        }
    }

    /// Offers a computed result for memoization at writeback.
    /// `younger_redefines` reports whether a younger in-flight
    /// instruction already redefined one of the given source registers
    /// (the insert-after-invalidate hazard, which only register-id
    /// keys suffer).
    pub(crate) fn memo_insert(
        &mut self,
        pc: usize,
        vals: [u64; 2],
        srcs: [Option<Reg>; 2],
        result: u64,
        younger_redefines: impl FnOnce(&[Option<Reg>; 2]) -> bool,
    ) {
        if let Some(table) = &mut self.comp_reuse {
            let stale = table.key_kind() == ReuseKey::RegIds && younger_redefines(&srcs);
            if !stale {
                table.insert(pc, vals, srcs, result);
            }
        }
    }

    /// Computation simplification's plan for an integer ALU
    /// operation; `None` falls through to the baseline plan.
    pub(crate) fn plan_alu(&self, op: AluOp, a: u64, b: u64) -> Option<ExecPlan> {
        self.comp_simpl
            .as_ref()
            .map(|(lat, opts)| plan_alu(op, a, b, lat, opts))
    }

    /// Computation simplification's plan for a floating-point
    /// operation; `None` falls through to the baseline plan.
    pub(crate) fn plan_fp(&self, op: FpOp, a: u64, b: u64) -> Option<ExecPlan> {
        self.comp_simpl
            .as_ref()
            .map(|(lat, opts)| plan_fp(op, a, b, lat, opts))
    }

    /// Whether narrow ALU operand packing is on.
    pub(crate) fn operand_packing(&self) -> bool {
        self.operand_packing
    }

    /// Whether silent-store checking (SS-load issue) is on.
    pub(crate) fn silent_stores(&self) -> bool {
        self.silent_stores
    }

    /// Whether the committed store at the SQ head may dequeue silently
    /// (`Ok`) or must perform (`Err` with the reason). Without silent
    /// stores every store performs.
    pub(crate) fn store_dequeue_decision(&self, ss: SsState) -> Result<(), NonSilentReason> {
        let decision = ss.dequeue_decision();
        if self.silent_stores {
            decision
        } else {
            decision.and(Err(NonSilentReason::NoLoadPort))
        }
    }

    /// Whether register-file compression shares the tag holding
    /// `result` (given the current architectural registers).
    pub(crate) fn rfc_compresses(&self, result: u64, arch_regs: &[u64]) -> bool {
        self.rf_compress
            .is_some_and(|rfc| rfc.compresses(result, arch_regs))
    }

    /// A load committed: `addr`/`width` are the resolved access (absent
    /// if the load never executed), `value` its result. The DMP
    /// observation point: the CDP scans the line first, then the IMP
    /// trains and launches.
    pub(crate) fn on_commit_load(
        &mut self,
        st: &mut PipelineState,
        pc: usize,
        addr: Option<u64>,
        value: u64,
        width: Option<Width>,
    ) {
        let Some(addr) = addr else { return };
        if let Some(cdp) = &self.cdp {
            cdp.observe(addr, st);
        }
        if let (Some(imp), Some(width)) = (&mut self.imp, width) {
            imp.observe(pc, addr, value, width, st);
        }
    }
}

fn apply_fault(st: &mut PipelineState, kind: FaultKind) {
    match kind {
        FaultKind::MemBitFlip { addr, bit } => {
            // Out-of-bounds targets are no-ops: the plan may be
            // random and the memory small.
            if let Ok(b) = st.mem.read_u8(addr) {
                let _ = st.mem.write_u8(addr, b ^ (1 << (bit & 7)));
                st.stats.faults_injected += 1;
            }
        }
        FaultKind::RegBitFlip { reg, bit } => {
            if !reg.is_zero() {
                let mask = 1u64 << (bit & 63);
                st.arch_regs[reg.index()] ^= mask;
                // Mirror into the current physical mapping so
                // in-flight readers observe the flip too.
                let tag = st.rat[reg.index()] as usize;
                st.prf_vals[tag] ^= mask;
                st.stats.faults_injected += 1;
            }
        }
        FaultKind::DropPrefetches { count } => {
            st.hier.suppress_prefetches(count);
            st.stats.faults_injected += 1;
        }
        FaultKind::EvictLine { addr } => {
            st.hier.flush_line(addr);
            st.stats.faults_injected += 1;
        }
        FaultKind::SpuriousSquash => {
            if let Some(front) = st.rob.front() {
                let pc = front.pc;
                squash::squash_newer_than(st, None, pc, SquashReason::Fault);
                st.stats.faults_injected += 1;
            }
        }
        FaultKind::DroppedCompletion => {
            if let Some(u) = st.rob.iter_mut().find(|u| u.executing && !u.done) {
                u.done_cycle = u64::MAX;
                st.stats.faults_injected += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::NoiseConfig;
    use crate::trace::TraceEvent;
    use crate::Machine;
    use pandora_isa::Asm;

    fn full_cfg() -> SimConfig {
        let mut cfg = SimConfig::with_opts(OptConfig {
            silent_stores: true,
            comp_reuse: true,
            value_pred: true,
            dmp: true,
            ..OptConfig::default()
        });
        cfg.noise = NoiseConfig::at_intensity(10, 7);
        cfg
    }

    #[test]
    fn reset_clears_learned_state_in_place() {
        let cfg = full_cfg();
        let mut hooks = Hooks::from_config(&cfg);
        // Train the value predictor past its confidence threshold,
        // memoize a multiply result, and install a fault plan.
        for _ in 0..16 {
            hooks.on_load_writeback(3, 0xdead);
        }
        assert_eq!(hooks.predict_load(3), Some(0xdead));
        hooks.memo_insert(5, [6, 7], [None, None], 42, |_| false);
        assert_eq!(hooks.memo_lookup(5, [6, 7], [None, None], true), MemoLookup::Hit(42));
        hooks.inject_faults(FaultPlan::single(100, FaultKind::SpuriousSquash), 0);

        hooks.reset();
        assert_eq!(hooks.predict_load(3), None, "VP confidence must be forgotten");
        assert_eq!(
            hooks.memo_lookup(5, [6, 7], [None, None], true),
            MemoLookup::Miss,
            "reuse memos must be forgotten"
        );
        assert!(hooks.faults.is_none(), "a reset machine has no fault plan");
    }

    #[test]
    fn noise_disturbs_before_the_fault_plan_fires() {
        // Noise fills the one line of its window every cycle; a fault
        // evicts that same line at cycle 1. Noise first, so the
        // eviction wins and the line ends the cycle absent.
        const LINE: u64 = 0x4000;
        let cfg = SimConfig {
            noise: NoiseConfig {
                fill_permille: 1000,
                seed: 1,
                ..NoiseConfig::quiet()
            }
            .with_window(LINE, LINE + 64),
            ..SimConfig::default()
        };
        let mut a = Asm::new();
        a.halt();
        let mut m = Machine::new(cfg);
        m.load_program(&a.assemble().unwrap());
        m.inject_faults(FaultPlan::single(1, FaultKind::EvictLine { addr: LINE }));
        m.step().unwrap();
        assert_eq!((m.stats().noise_events, m.stats().faults_injected), (1, 1));
        assert!(
            !m.hierarchy().in_l1(LINE) && !m.hierarchy().in_l2(LINE),
            "the fault's eviction must follow the noise fill"
        );
    }

    #[test]
    fn cdp_prefetches_before_the_imp() {
        // A load at pc 7 streams over the dwords of one line whose last
        // dword holds a pointer. The CDP chases the pointer on every
        // commit; on the fourth, the now-confident IMP also prefetches
        // the stream element `DISTANCE` ahead. Only that commit is
        // traced.
        const LINE: u64 = 0x1000;
        const PTR: u64 = 0x8000;
        const DISTANCE: u64 = 2;
        let cfg = SimConfig::with_opts(OptConfig {
            cdp: true,
            dmp: true,
            dmp_distance: DISTANCE,
            ..OptConfig::default()
        });
        let mut st = PipelineState::new(cfg);
        let mut hooks = Hooks::from_config(&cfg);
        st.mem.write_u64(LINE + 56, PTR).unwrap();
        for i in 0..4 {
            if i == 3 {
                st.trace.enable();
            }
            hooks.on_commit_load(&mut st, 7, Some(LINE + 8 * i), 0, Some(Width::Dword));
        }
        let prefetched: Vec<u64> = st
            .trace
            .events()
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::DmpPrefetch { addr, .. } => Some(addr),
                _ => None,
            })
            .collect();
        let ahead = LINE + 8 * (3 + DISTANCE);
        assert_eq!(prefetched, [PTR, ahead], "CDP first, then IMP");
    }
}
