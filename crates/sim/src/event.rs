//! The unified simulation event bus.
//!
//! Pipeline stages and optimization hooks describe *what happened* by
//! emitting typed [`SimEvent`]s; the [`EventBus`] owns every
//! cross-cutting consumer — the [`SimStats`] counters, the optional
//! [`Trace`] log, and the attack-side DMP pattern probe — and maps each
//! event onto them in one place. Stages never touch a counter or the
//! trace directly, which is what keeps observation concerns out of the
//! stage modules in [`crate::pipeline`].

use crate::mem::hierarchy::ServedBy;
use crate::opt::comp_simpl::SimplEvent;
use crate::stats::SimStats;
use crate::trace::{NonSilentReason, Trace, TraceEvent};

/// Why dispatch stalled this cycle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StallReason {
    /// ROB, issue queue, or load queue full.
    Backend,
    /// Store queue full (head-of-line blocking — the amplification
    /// gadget's lever).
    SqFull,
    /// No free physical register at rename.
    RenamePrf,
}

/// Why the pipeline squashed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SquashReason {
    /// Branch misprediction.
    Branch,
    /// Value misprediction.
    Value,
    /// An injected fault ([`crate::fault::FaultKind::SpuriousSquash`]).
    Fault,
}

/// Which prefetcher issued a prefetch or dereference.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PrefetchSource {
    /// The indirect memory prefetcher (paper §V-B).
    Imp,
    /// The content-directed prefetcher (paper §V-C).
    Cdp,
}

/// A typed event emitted by a pipeline stage or optimization hook.
///
/// Each variant documents its effect on the bus consumers; the mapping
/// itself lives in [`EventBus::emit`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SimEvent {
    /// An instruction committed. Increments `committed`.
    InstrCommitted {
        /// The committed instruction's index.
        pc: usize,
    },
    /// Dispatch stalled for the whole remainder of the cycle.
    /// Increments the matching stall counter.
    DispatchStall {
        /// What blocked dispatch.
        reason: StallReason,
    },
    /// A demand access was served. Increments the matching hit counter.
    DemandAccess {
        /// The level that served it.
        served_by: ServedBy,
    },
    /// A store's address and data resolved in execute. Trace only.
    StoreResolved {
        /// The store's instruction index.
        pc: usize,
        /// The resolved address.
        addr: u64,
    },
    /// An SS-load was issued on a stolen load port. Increments
    /// `ss_loads` and traces.
    SsLoadIssued {
        /// The checked store's instruction index.
        pc: usize,
        /// The checked address.
        addr: u64,
    },
    /// A store could not be checked for silence: no free load port this
    /// cycle. Increments `ss_no_port`.
    SsLoadNoPort {
        /// The store's instruction index.
        pc: usize,
    },
    /// The SS-load returned with its candidacy decision. Trace only.
    SsLoadReturned {
        /// The store's instruction index.
        pc: usize,
        /// Whether the store was judged silent.
        silent: bool,
    },
    /// A store reached the store-queue head. Trace only.
    StoreAtHead {
        /// The store's instruction index.
        pc: usize,
    },
    /// A store dequeued silently. Increments `silent_stores` and traces.
    StoreSilentDequeue {
        /// The store's instruction index.
        pc: usize,
    },
    /// A store began performing to the cache. Increments `ss_late` when
    /// the reason is a late SS-load, and traces.
    StoreSentToCache {
        /// The store's instruction index.
        pc: usize,
        /// Why it was not silent.
        reason: NonSilentReason,
    },
    /// A store finished performing and dequeued. Increments
    /// `performed_stores` and traces.
    StoreDequeued {
        /// The store's instruction index.
        pc: usize,
    },
    /// The pipeline squashed. Increments the matching squash counter
    /// (fault-induced squashes have none) and traces the redirect.
    Squash {
        /// What triggered the squash.
        reason: SquashReason,
        /// The redirect target's instruction index.
        redirect: usize,
    },
    /// Computation simplification took a shortcut or slow path.
    /// Increments the counter matching the [`SimplEvent`].
    Simplified(SimplEvent),
    /// Narrow ALU operations were packed this cycle. Adds to
    /// `packed_pairs`.
    PackedPairs {
        /// Number of packed pairs issued this cycle.
        pairs: u64,
    },
    /// The computation-reuse memo table was consulted. Increments
    /// `reuse_hits` or `reuse_misses`.
    ReuseLookup {
        /// Whether the lookup hit.
        hit: bool,
    },
    /// A load's value was predicted at dispatch. Increments
    /// `vp_predictions`.
    ValuePredicted {
        /// The load's instruction index.
        pc: usize,
    },
    /// A predicted load value was confirmed at writeback. Increments
    /// `vp_correct`.
    ValueConfirmed {
        /// The load's instruction index.
        pc: usize,
    },
    /// Register-file compression shared a physical register. Increments
    /// `rfc_shares`.
    RfcShared,
    /// A prefetcher issued a prefetch. Increments the source's counter
    /// and traces.
    Prefetch {
        /// Which prefetcher.
        source: PrefetchSource,
        /// The prefetched address.
        addr: u64,
        /// Indirection level (0 = stream).
        level: u8,
    },
    /// A prefetcher dereferenced data memory while chasing a chain.
    /// Increments `dmp_deref_reads` for the IMP (the CDP's dereferences
    /// are trace-only) and traces.
    PointerDeref {
        /// Which prefetcher.
        source: PrefetchSource,
        /// The dereferenced address.
        addr: u64,
        /// The value read.
        value: u64,
    },
    /// The IMP dropped a prefetch whose address left physical memory.
    /// Increments `dmp_dropped`.
    PrefetchDropped,
    /// The IMP confirmed an indirection pattern between two load PCs.
    /// Appended to the bus's pattern probe (read via
    /// [`EventBus::dmp_patterns`]).
    PatternConfirmed {
        /// The pointer-producing load's instruction index.
        src_pc: usize,
        /// The dependent load's instruction index.
        dst_pc: usize,
        /// The dependent access's reconstructed base address.
        base: u64,
        /// The reconstructed index scale.
        scale: u64,
    },
    /// A fault-plan event took effect. Increments `faults_injected`.
    FaultInjected,
    /// An environmental-noise disturbance took effect. Increments
    /// `noise_events`.
    NoiseInjected,
}

/// The single sink for all [`SimEvent`]s.
///
/// Owns the run's [`SimStats`], [`Trace`], and DMP pattern probe, plus
/// the current cycle used to timestamp trace events.
#[derive(Clone, Debug, Default)]
pub struct EventBus {
    cycle: u64,
    stats: SimStats,
    trace: Trace,
    dmp_patterns: Vec<(usize, usize, u64, u64)>,
}

impl EventBus {
    /// Capacity-preserving restore: stats copy, trace and pattern
    /// buffers rewind in place.
    pub(crate) fn restore_from(&mut self, src: &EventBus) {
        self.cycle = src.cycle;
        self.stats = src.stats;
        self.trace.restore_from(&src.trace);
        self.dmp_patterns.clone_from(&src.dmp_patterns);
    }

    /// Creates an empty bus with a disabled trace.
    #[must_use]
    pub fn new() -> EventBus {
        EventBus::default()
    }

    /// Sets the cycle used to timestamp subsequent trace events.
    #[inline]
    pub fn begin_cycle(&mut self, cycle: u64) {
        self.cycle = cycle;
    }

    /// Records the elapsed-cycle count into the stats.
    #[inline]
    pub fn set_cycles(&mut self, cycle: u64) {
        self.stats.cycles = cycle;
    }

    /// Fast path for events with no stats counter or pattern-probe
    /// side effect (`StoreResolved`, `StoreAtHead`, `SsLoadReturned`,
    /// the CDP's `PointerDeref`): when the trace is disabled — every
    /// stats-only run — the event is never constructed or dispatched.
    /// Call sites pass a closure so argument evaluation is skipped
    /// too. Emitting an event with counter side effects through here
    /// would silently drop those counts in untraced runs; `emit` is
    /// the only correct path for them.
    #[inline]
    pub fn emit_trace_only(&mut self, make: impl FnOnce() -> SimEvent) {
        if self.trace.is_enabled() {
            self.emit(make());
        }
    }

    /// Applies `event` to the stats counters, the trace, and the
    /// pattern probe.
    #[inline]
    pub fn emit(&mut self, event: SimEvent) {
        let cycle = self.cycle;
        match event {
            SimEvent::InstrCommitted { .. } => self.stats.committed += 1,
            SimEvent::DispatchStall { reason } => match reason {
                StallReason::Backend => self.stats.backend_stalls += 1,
                StallReason::SqFull => self.stats.sq_full_stalls += 1,
                StallReason::RenamePrf => self.stats.rename_stalls_prf += 1,
            },
            SimEvent::DemandAccess { served_by } => match served_by {
                ServedBy::L1 => self.stats.l1_hits += 1,
                ServedBy::L2 => self.stats.l2_hits += 1,
                ServedBy::Dram => self.stats.dram_accesses += 1,
            },
            SimEvent::StoreResolved { pc, addr } => {
                self.trace.push(TraceEvent::StoreResolved { cycle, pc, addr });
            }
            SimEvent::SsLoadIssued { pc, addr } => {
                self.stats.ss_loads += 1;
                self.trace.push(TraceEvent::SsLoadIssued { cycle, pc, addr });
            }
            SimEvent::SsLoadNoPort { .. } => self.stats.ss_no_port += 1,
            SimEvent::SsLoadReturned { pc, silent } => {
                self.trace
                    .push(TraceEvent::SsLoadReturned { cycle, pc, silent });
            }
            SimEvent::StoreAtHead { pc } => {
                self.trace.push(TraceEvent::StoreAtHead { cycle, pc });
            }
            SimEvent::StoreSilentDequeue { pc } => {
                self.stats.silent_stores += 1;
                self.trace.push(TraceEvent::StoreSilentDequeue { cycle, pc });
            }
            SimEvent::StoreSentToCache { pc, reason } => {
                if reason == NonSilentReason::SsLoadLate {
                    self.stats.ss_late += 1;
                }
                self.trace
                    .push(TraceEvent::StoreSentToCache { cycle, pc, reason });
            }
            SimEvent::StoreDequeued { pc } => {
                self.stats.performed_stores += 1;
                self.trace.push(TraceEvent::StoreDequeued { cycle, pc });
            }
            SimEvent::Squash { reason, redirect } => {
                match reason {
                    SquashReason::Branch => self.stats.branch_squashes += 1,
                    SquashReason::Value => self.stats.vp_squashes += 1,
                    SquashReason::Fault => {}
                }
                self.trace.push(TraceEvent::Squash { cycle, pc: redirect });
            }
            SimEvent::Simplified(ev) => match ev {
                SimplEvent::TrivialSkip => self.stats.trivial_skips += 1,
                SimplEvent::MulSkip => self.stats.mul_skips += 1,
                SimplEvent::MulStrengthReduced => self.stats.mul_strength_reductions += 1,
                SimplEvent::DivEarlyExit => self.stats.div_early_exits += 1,
                SimplEvent::FpSubnormal => self.stats.fp_subnormal_slow += 1,
            },
            SimEvent::PackedPairs { pairs } => self.stats.packed_pairs += pairs,
            SimEvent::ReuseLookup { hit } => {
                if hit {
                    self.stats.reuse_hits += 1;
                } else {
                    self.stats.reuse_misses += 1;
                }
            }
            SimEvent::ValuePredicted { .. } => self.stats.vp_predictions += 1,
            SimEvent::ValueConfirmed { .. } => self.stats.vp_correct += 1,
            SimEvent::RfcShared => self.stats.rfc_shares += 1,
            SimEvent::Prefetch {
                source,
                addr,
                level,
            } => {
                match source {
                    PrefetchSource::Imp => self.stats.dmp_prefetches += 1,
                    PrefetchSource::Cdp => self.stats.cdp_prefetches += 1,
                }
                self.trace.push(TraceEvent::DmpPrefetch { cycle, addr, level });
            }
            SimEvent::PointerDeref {
                source,
                addr,
                value,
            } => {
                if source == PrefetchSource::Imp {
                    self.stats.dmp_deref_reads += 1;
                }
                self.trace.push(TraceEvent::DmpDeref { cycle, addr, value });
            }
            SimEvent::PrefetchDropped => self.stats.dmp_dropped += 1,
            SimEvent::PatternConfirmed {
                src_pc,
                dst_pc,
                base,
                scale,
            } => self.dmp_patterns.push((src_pc, dst_pc, base, scale)),
            SimEvent::FaultInjected => self.stats.faults_injected += 1,
            SimEvent::NoiseInjected => self.stats.noise_events += 1,
        }
    }

    /// The accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// The event trace.
    #[must_use]
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Mutable access to the trace (to enable or drain it).
    pub fn trace_mut(&mut self) -> &mut Trace {
        &mut self.trace
    }

    /// The IMP's confirmed `(src_pc, dst_pc, base, scale)` indirection
    /// patterns, in confirmation order.
    #[must_use]
    pub fn dmp_patterns(&self) -> &[(usize, usize, u64, u64)] {
        &self.dmp_patterns
    }

    /// Clears all consumers back to a fresh run: zeroed stats, a
    /// disabled empty trace (capacity kept), and no confirmed
    /// patterns.
    pub fn reset(&mut self) {
        self.cycle = 0;
        self.stats = SimStats::default();
        self.trace.reset();
        self.dmp_patterns.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_map_to_counters() {
        let mut bus = EventBus::new();
        bus.emit(SimEvent::InstrCommitted { pc: 0 });
        bus.emit(SimEvent::DemandAccess {
            served_by: ServedBy::L2,
        });
        bus.emit(SimEvent::DispatchStall {
            reason: StallReason::SqFull,
        });
        bus.emit(SimEvent::Simplified(SimplEvent::MulSkip));
        bus.emit(SimEvent::ReuseLookup { hit: true });
        bus.emit(SimEvent::ReuseLookup { hit: false });
        let s = bus.stats();
        assert_eq!(s.committed, 1);
        assert_eq!(s.l2_hits, 1);
        assert_eq!(s.sq_full_stalls, 1);
        assert_eq!(s.mul_skips, 1);
        assert_eq!((s.reuse_hits, s.reuse_misses), (1, 1));
    }

    #[test]
    fn trace_events_are_timestamped_with_bus_cycle() {
        let mut bus = EventBus::new();
        bus.trace_mut().enable();
        bus.begin_cycle(41);
        bus.emit(SimEvent::StoreAtHead { pc: 7 });
        assert_eq!(
            bus.trace().events(),
            &[TraceEvent::StoreAtHead { cycle: 41, pc: 7 }]
        );
    }

    #[test]
    fn fault_squash_traces_without_counting() {
        let mut bus = EventBus::new();
        bus.trace_mut().enable();
        bus.emit(SimEvent::Squash {
            reason: SquashReason::Fault,
            redirect: 3,
        });
        assert_eq!(bus.stats().branch_squashes, 0);
        assert_eq!(bus.stats().vp_squashes, 0);
        assert_eq!(bus.trace().events().len(), 1);
    }

    #[test]
    fn cdp_deref_is_trace_only() {
        let mut bus = EventBus::new();
        bus.emit(SimEvent::PointerDeref {
            source: PrefetchSource::Cdp,
            addr: 0x40,
            value: 0x80,
        });
        assert_eq!(bus.stats().dmp_deref_reads, 0);
        bus.emit(SimEvent::PointerDeref {
            source: PrefetchSource::Imp,
            addr: 0x40,
            value: 0x80,
        });
        assert_eq!(bus.stats().dmp_deref_reads, 1);
    }

    #[test]
    fn patterns_accumulate_and_reset_clears() {
        let mut bus = EventBus::new();
        bus.emit(SimEvent::PatternConfirmed {
            src_pc: 1,
            dst_pc: 2,
            base: 0x100,
            scale: 8,
        });
        assert_eq!(bus.dmp_patterns(), &[(1, 2, 0x100, 8)]);
        bus.emit(SimEvent::InstrCommitted { pc: 0 });
        bus.reset();
        assert!(bus.dmp_patterns().is_empty());
        assert_eq!(bus.stats().committed, 0);
        assert!(!bus.trace().is_enabled());
    }
}
