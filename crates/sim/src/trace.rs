//! Microarchitectural event traces.
//!
//! The trace exists to reproduce paper Figure 4 — the per-store
//! sequence of actions under the read-port-stealing silent-store
//! scheme — and to let tests assert on prefetcher behaviour (which
//! addresses the IMP dereferenced and which indirections it confirmed,
//! §V-B2). Each record is pushed where its event happens, stamped with
//! the current cycle.

/// Reasons a store was *not* marked silent (Fig 4, cases B–D).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NonSilentReason {
    /// SS-load returned in time but the values differed (case B).
    ValueMismatch,
    /// No free load port when the store executed; no SS-load was ever
    /// issued (case C).
    NoLoadPort,
    /// The SS-load was issued but had not returned when the store was
    /// ready to perform (case D).
    SsLoadLate,
}

/// A timestamped microarchitectural event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceEvent {
    /// A store's address and data resolved in the execute stage.
    StoreResolved {
        /// Cycle of the event.
        cycle: u64,
        /// The store's instruction index.
        pc: usize,
        /// The resolved store address.
        addr: u64,
    },
    /// An SS-load was issued for the store at `pc` (stealing a load port).
    SsLoadIssued {
        /// Cycle of the event.
        cycle: u64,
        /// The store's instruction index.
        pc: usize,
        /// The checked address.
        addr: u64,
    },
    /// The SS-load returned; `silent` is the candidacy decision.
    SsLoadReturned {
        /// Cycle of the event.
        cycle: u64,
        /// The store's instruction index.
        pc: usize,
        /// The candidacy decision.
        silent: bool,
    },
    /// A store reached the store-queue head.
    StoreAtHead {
        /// Cycle of the event.
        cycle: u64,
        /// The store's instruction index.
        pc: usize,
    },
    /// A store dequeued silently (no cache/memory interaction; Fig 4 A).
    StoreSilentDequeue {
        /// Cycle of the event.
        cycle: u64,
        /// The store's instruction index.
        pc: usize,
    },
    /// A store began performing to the cache (non-silent path).
    StoreSentToCache {
        /// Cycle of the event.
        cycle: u64,
        /// The store's instruction index.
        pc: usize,
        /// Why the store was not silent.
        reason: NonSilentReason,
    },
    /// A store finished performing and dequeued.
    StoreDequeued {
        /// Cycle of the event.
        cycle: u64,
        /// The store's instruction index.
        pc: usize,
    },
    /// The pipeline squashed back to (and excluding) `pc`.
    Squash {
        /// Cycle of the event.
        cycle: u64,
        /// The redirect target's instruction index.
        pc: usize,
    },
    /// The DMP issued a prefetch for `addr` at indirection `level`
    /// (0 = stream array Z, 1 = Y, 2 = X, 3 = W).
    DmpPrefetch {
        /// Cycle of the event.
        cycle: u64,
        /// The prefetched address.
        addr: u64,
        /// Indirection level (0 = stream).
        level: u8,
    },
    /// The DMP dereferenced data memory at `addr` and read `value`
    /// while generating a prefetch chain.
    DmpDeref {
        /// Cycle of the event.
        cycle: u64,
        /// The dereferenced address.
        addr: u64,
        /// The value read.
        value: u64,
    },
    /// The IMP confirmed an indirection: the value the load at `src_pc`
    /// returns feeds the address of the load at `dst_pc` as
    /// `base + value * scale`.
    DmpPattern {
        /// Cycle of the event.
        cycle: u64,
        /// The pointer-producing load's instruction index.
        src_pc: usize,
        /// The dependent load's instruction index.
        dst_pc: usize,
        /// The dependent access's reconstructed base address.
        base: u64,
        /// The reconstructed index scale.
        scale: u64,
    },
}

impl TraceEvent {
    /// The cycle at which the event occurred.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        match *self {
            TraceEvent::StoreResolved { cycle, .. }
            | TraceEvent::SsLoadIssued { cycle, .. }
            | TraceEvent::SsLoadReturned { cycle, .. }
            | TraceEvent::StoreAtHead { cycle, .. }
            | TraceEvent::StoreSilentDequeue { cycle, .. }
            | TraceEvent::StoreSentToCache { cycle, .. }
            | TraceEvent::StoreDequeued { cycle, .. }
            | TraceEvent::Squash { cycle, .. }
            | TraceEvent::DmpPrefetch { cycle, .. }
            | TraceEvent::DmpDeref { cycle, .. }
            | TraceEvent::DmpPattern { cycle, .. } => cycle,
        }
    }
}

/// An in-memory event log, enabled per run; a new trace is disabled
/// and empty.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    events: Vec<TraceEvent>,
    enabled: bool,
}

impl Trace {
    /// Capacity-preserving restore: the event log rewinds to `src`'s
    /// contents without giving up its buffer.
    pub(crate) fn restore_from(&mut self, src: &Trace) {
        let Trace { events, enabled } = src;
        self.events.clone_from(events);
        self.enabled = *enabled;
    }

    /// Turns event recording on.
    pub(crate) fn enable(&mut self) {
        self.enabled = true;
    }

    /// Records `event` if enabled: one branch when the trace is off.
    #[inline]
    pub(crate) fn push(&mut self, event: TraceEvent) {
        if self.enabled {
            self.events.push(event);
        }
    }

    /// Returns to the post-construction state (disabled, empty) while
    /// keeping the event buffer's capacity for the next enabled run.
    pub(crate) fn reset(&mut self) {
        self.events.clear();
        self.enabled = false;
    }

    /// The recorded events in order.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// All events involving the store at instruction index `pc`, in
    /// order — the Fig 4 timeline for that store.
    #[must_use]
    pub fn store_timeline(&self, pc: usize) -> Vec<TraceEvent> {
        self.events
            .iter()
            .filter(|e| match **e {
                TraceEvent::StoreResolved { pc: p, .. }
                | TraceEvent::SsLoadIssued { pc: p, .. }
                | TraceEvent::SsLoadReturned { pc: p, .. }
                | TraceEvent::StoreAtHead { pc: p, .. }
                | TraceEvent::StoreSilentDequeue { pc: p, .. }
                | TraceEvent::StoreSentToCache { pc: p, .. }
                | TraceEvent::StoreDequeued { pc: p, .. } => p == pc,
                _ => false,
            })
            .copied()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::default();
        t.push(TraceEvent::Squash { cycle: 1, pc: 0 });
        assert!(t.events().is_empty());
    }

    #[test]
    fn enabled_trace_records_in_order() {
        let mut t = Trace::default();
        t.enable();
        t.push(TraceEvent::StoreAtHead { cycle: 5, pc: 3 });
        t.push(TraceEvent::StoreDequeued { cycle: 9, pc: 3 });
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.events()[0].cycle(), 5);
    }

    #[test]
    fn store_timeline_filters_by_pc() {
        let mut t = Trace::default();
        t.enable();
        t.push(TraceEvent::StoreAtHead { cycle: 1, pc: 3 });
        t.push(TraceEvent::StoreAtHead { cycle: 2, pc: 4 });
        t.push(TraceEvent::Squash { cycle: 3, pc: 3 });
        t.push(TraceEvent::StoreSilentDequeue { cycle: 4, pc: 3 });
        let tl = t.store_timeline(3);
        assert_eq!(tl.len(), 2, "squash events are not store events");
    }
}
