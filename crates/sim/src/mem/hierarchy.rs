//! The two-level cache hierarchy in front of DRAM.

use crate::mem::cache::{Cache, CacheConfig};

/// Access latencies (in cycles) of each level of the memory hierarchy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MemLatency {
    /// L1 data cache hit.
    pub l1: u64,
    /// L2 hit (L1 miss).
    pub l2: u64,
    /// Main memory (both caches miss).
    pub dram: u64,
}

impl Default for MemLatency {
    fn default() -> MemLatency {
        MemLatency {
            l1: 2,
            l2: 12,
            dram: 120,
        }
    }
}

/// Which level served an access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ServedBy {
    /// L1 data cache.
    L1,
    /// Unified L2.
    L2,
    /// Main memory.
    Dram,
}

/// Where a prefetch is allowed to install lines.
///
/// `L2Only` models the *prefetch buffer* discussion of §V-B3: fills are
/// kept out of the L1 so un-consumed prefetches never appear there, but
/// the receiver can simply monitor the unbuffered L2.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PrefetchFill {
    /// Fill both L1 and L2 (default IMP behaviour).
    #[default]
    AllLevels,
    /// Fill only the L2.
    L2Only,
}

/// The result of a hierarchy access: the latency it took and the level
/// that served it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Access {
    /// Total access latency in cycles.
    pub latency: u64,
    /// Which level had the line.
    pub served_by: ServedBy,
}

/// A two-level cache hierarchy in front of flat DRAM.
///
/// Both caches track tags only; data lives in [`Memory`]. Fills are
/// inclusive: an access that misses everywhere installs the line in both
/// L2 and L1.
///
/// [`Memory`]: crate::Memory
#[derive(Clone, Debug)]
pub struct Hierarchy {
    l1: Cache,
    l2: Cache,
    lat: MemLatency,
    /// Pending prefetch fills to swallow (fault injection: models lost
    /// fill responses). Decremented by [`Hierarchy::prefetch`].
    suppressed_prefetches: u32,
    /// Set by a multicore harness whose shared L2 lives outside this
    /// hierarchy (see [`DuoMachine`]): while detached, the `l2` slot
    /// holds an inert placeholder, and the public L2 views panic rather
    /// than answer from it. The harness swaps the real cache in for the
    /// duration of each tick ([`Hierarchy::swap_in_l2`]).
    ///
    /// [`DuoMachine`]: crate::DuoMachine
    l2_detached: bool,
}

impl Hierarchy {
    /// In-place restore: both levels rewind via [`Cache::restore_from`],
    /// reusing their way arrays. Destructured exhaustively, so a new
    /// field that no restore copies fails to compile.
    pub(crate) fn restore_from(&mut self, src: &Hierarchy) {
        let Hierarchy {
            l1,
            l2,
            lat,
            suppressed_prefetches,
            l2_detached,
        } = src;
        self.l1.restore_from(l1);
        self.l2.restore_from(l2);
        self.lat = *lat;
        self.suppressed_prefetches = *suppressed_prefetches;
        self.l2_detached = *l2_detached;
    }

    /// Builds a hierarchy from per-level geometry and latencies.
    #[must_use]
    pub fn new(l1: CacheConfig, l2: CacheConfig, lat: MemLatency) -> Hierarchy {
        Hierarchy {
            l1: Cache::new(l1),
            l2: Cache::new(l2),
            lat,
            suppressed_prefetches: 0,
            l2_detached: false,
        }
    }

    /// Empties both levels, keeping allocations. Equivalent to
    /// [`Hierarchy::new`] with the same geometry — except that the
    /// detached-L2 marker survives: resetting a core does not reattach
    /// an L2 its multicore harness owns.
    pub fn reset(&mut self) {
        self.l1.reset();
        self.l2.reset();
        self.suppressed_prefetches = 0;
    }

    /// Marks this hierarchy's L2 slot as a detached placeholder: the
    /// authoritative cache is owned elsewhere (a shared-L2 harness), and
    /// the public views ([`Hierarchy::l2`], [`Hierarchy::in_l2`]) panic
    /// until it is swapped back in.
    pub(crate) fn mark_l2_detached(&mut self) {
        self.l2_detached = true;
    }

    /// Swaps the harness-owned shared L2 into the `l2` slot for the
    /// duration of a tick; the views answer normally while it is in.
    pub(crate) fn swap_in_l2(&mut self, shared: &mut Cache) {
        std::mem::swap(&mut self.l2, shared);
        self.l2_detached = false;
    }

    /// Swaps the shared L2 back out to its owner, leaving the inert
    /// placeholder (and the panicking views) behind.
    pub(crate) fn swap_out_l2(&mut self, shared: &mut Cache) {
        std::mem::swap(&mut self.l2, shared);
        self.l2_detached = true;
    }

    /// Drops the next `count` prefetch fills before they install a line
    /// (fault injection: lost fill responses / a full prefetch queue).
    /// Counts accumulate if called again before draining.
    pub fn suppress_prefetches(&mut self, count: u32) {
        self.suppressed_prefetches = self.suppressed_prefetches.saturating_add(count);
    }

    /// A demand access (load, store-fill or SS-load) to `addr`:
    /// looks up L1, then L2, then DRAM, filling on the way back.
    pub fn access(&mut self, addr: u64) -> Access {
        if self.l1.access(addr).is_hit() {
            return Access {
                latency: self.lat.l1,
                served_by: ServedBy::L1,
            };
        }
        if self.l2.access(addr).is_hit() {
            return Access {
                latency: self.lat.l2,
                served_by: ServedBy::L2,
            };
        }
        Access {
            latency: self.lat.dram,
            served_by: ServedBy::Dram,
        }
    }

    /// A prefetch fill of the line containing `addr`. Does not return a
    /// latency: prefetches run off the critical path.
    pub fn prefetch(&mut self, addr: u64, fill: PrefetchFill) {
        if self.suppressed_prefetches > 0 {
            self.suppressed_prefetches -= 1;
            return;
        }
        match fill {
            PrefetchFill::AllLevels => {
                self.l1.fill(addr);
                self.l2.fill(addr);
            }
            PrefetchFill::L2Only => self.l2.fill(addr),
        }
    }

    /// Whether the line containing `addr` is in the L1 (no state change).
    #[must_use]
    pub fn in_l1(&self, addr: u64) -> bool {
        self.l1.probe(addr)
    }

    /// Whether the line containing `addr` is in the L2 (no state change).
    ///
    /// # Panics
    ///
    /// If the L2 is detached to a shared-L2 harness (probing the
    /// placeholder would silently answer from stale state); probe
    /// [`DuoMachine::shared_l2`] instead.
    ///
    /// [`DuoMachine::shared_l2`]: crate::DuoMachine::shared_l2
    #[must_use]
    pub fn in_l2(&self, addr: u64) -> bool {
        assert!(
            !self.l2_detached,
            "this core's L2 is detached: it is shared through a multicore \
             harness; probe DuoMachine::shared_l2() instead"
        );
        self.l2.probe(addr)
    }

    /// Evicts the line containing `addr` from every level (clflush).
    pub fn flush_line(&mut self, addr: u64) {
        self.l1.flush_line(addr);
        self.l2.flush_line(addr);
    }

    /// The configured latencies.
    #[must_use]
    pub fn latency(&self) -> MemLatency {
        self.lat
    }

    /// The L1 cache (read-only view).
    #[must_use]
    pub fn l1(&self) -> &Cache {
        &self.l1
    }

    /// The L2 cache (read-only view).
    ///
    /// # Panics
    ///
    /// If the L2 is detached to a shared-L2 harness — the slot holds an
    /// inert placeholder, and answering from it is exactly the stale-view
    /// bug this guard exists to catch. Use
    /// [`DuoMachine::shared_l2`] instead.
    ///
    /// [`DuoMachine::shared_l2`]: crate::DuoMachine::shared_l2
    #[must_use]
    pub fn l2(&self) -> &Cache {
        assert!(
            !self.l2_detached,
            "this core's L2 is detached: it is shared through a multicore \
             harness; use DuoMachine::shared_l2() instead"
        );
        &self.l2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h() -> Hierarchy {
        Hierarchy::new(CacheConfig::l1d(), CacheConfig::l2(), MemLatency::default())
    }

    #[test]
    fn cold_access_costs_dram_then_warms_both_levels() {
        let mut m = h();
        let a = m.access(0x4000);
        assert_eq!(a.served_by, ServedBy::Dram);
        assert_eq!(a.latency, MemLatency::default().dram);
        assert!(m.in_l1(0x4000));
        assert!(m.in_l2(0x4000));
        assert_eq!(m.access(0x4000).served_by, ServedBy::L1);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut m = h();
        m.access(0x4000);
        m.l1.flush_line(0x4000);
        let a = m.access(0x4000);
        assert_eq!(a.served_by, ServedBy::L2);
        assert_eq!(a.latency, MemLatency::default().l2);
    }

    #[test]
    fn prefetch_l2_only_keeps_l1_clean() {
        let mut m = h();
        m.prefetch(0x8000, PrefetchFill::L2Only);
        assert!(!m.in_l1(0x8000));
        assert!(m.in_l2(0x8000));
        m.prefetch(0x9000, PrefetchFill::AllLevels);
        assert!(m.in_l1(0x9000));
        assert!(m.in_l2(0x9000));
    }

    #[test]
    fn flush_line_clears_both_levels() {
        let mut m = h();
        m.access(0x4000);
        m.flush_line(0x4000);
        assert!(!m.in_l1(0x4000));
        assert!(!m.in_l2(0x4000));
        assert_eq!(m.access(0x4000).served_by, ServedBy::Dram);
    }
}
