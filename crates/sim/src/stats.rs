//! Run statistics: the counters every attack harness reads.

use std::fmt;

/// Counters accumulated over a simulation run.
///
/// Returned by [`Machine::run`]; every attack harness ultimately reads
/// either `cycles` (the victim-visible termination channel) or the cache
/// counters (the receiver-visible channels).
///
/// [`Machine::run`]: crate::Machine::run
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SimStats {
    /// Total cycles elapsed.
    pub cycles: u64,
    /// Instructions committed.
    pub committed: u64,
    /// Branch-misprediction squashes.
    pub branch_squashes: u64,
    /// Value-misprediction squashes.
    pub vp_squashes: u64,
    /// Demand accesses served by the L1.
    pub l1_hits: u64,
    /// Demand accesses served by the L2.
    pub l2_hits: u64,
    /// Demand accesses served by DRAM.
    pub dram_accesses: u64,
    /// Cycles rename stalled for lack of a physical register.
    pub rename_stalls_prf: u64,
    /// Cycles dispatch stalled because the store queue was full
    /// (head-of-line blocking — the amplification gadget's lever).
    pub sq_full_stalls: u64,
    /// Cycles dispatch stalled because ROB/IQ/LQ were full.
    pub backend_stalls: u64,
    /// Stores that dequeued silently.
    pub silent_stores: u64,
    /// Stores that performed a memory write at dequeue.
    pub performed_stores: u64,
    /// SS-loads issued (silent-store candidacy checks).
    pub ss_loads: u64,
    /// Stores that could not be checked: no free load port (Fig 4 C).
    pub ss_no_port: u64,
    /// Stores whose SS-load returned too late (Fig 4 D).
    pub ss_late: u64,
    /// Trivial operations bypassed by computation simplification.
    pub trivial_skips: u64,
    /// Multiplies short-circuited by a zero/one operand.
    pub mul_skips: u64,
    /// Multiplies strength-reduced to shifts (power-of-two operand).
    pub mul_strength_reductions: u64,
    /// Divides that took a shortened early-exit latency.
    pub div_early_exits: u64,
    /// Floating-point operations that hit the subnormal slow path.
    pub fp_subnormal_slow: u64,
    /// Pairs of narrow ALU operations packed into one issue port.
    pub packed_pairs: u64,
    /// Computation-reuse memo table hits.
    pub reuse_hits: u64,
    /// Computation-reuse memo table misses (insertions).
    pub reuse_misses: u64,
    /// Value predictions made.
    pub vp_predictions: u64,
    /// Value predictions that were correct.
    pub vp_correct: u64,
    /// Results compressed into an existing physical register.
    pub rfc_shares: u64,
    /// Prefetches issued by the DMP.
    pub dmp_prefetches: u64,
    /// DMP prefetch reads that dereferenced memory (levels ≥ 2).
    pub dmp_deref_reads: u64,
    /// DMP prefetch addresses dropped for being out of physical memory.
    pub dmp_dropped: u64,
    /// Content-directed prefetches issued (pointer-shaped values chased).
    pub cdp_prefetches: u64,
    /// Fault-plan events that actually took effect (a scheduled event
    /// whose target was out of range — e.g. a bit-flip past the end of
    /// memory — does not count).
    pub faults_injected: u64,
    /// Environmental-noise disturbances that took effect (evictions,
    /// fills, and fetch stalls injected by the noise hook; timer
    /// degradation is not counted — it perturbs readings, not state).
    pub noise_events: u64,
}

impl SimStats {
    /// Instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Demand L1 hit rate in [0, 1].
    #[must_use]
    pub fn l1_hit_rate(&self) -> f64 {
        let total = self.l1_hits + self.l2_hits + self.dram_accesses;
        if total == 0 {
            0.0
        } else {
            self.l1_hits as f64 / total as f64
        }
    }
}

impl fmt::Display for SimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "cycles={} committed={} ipc={:.2}",
            self.cycles,
            self.committed,
            self.ipc()
        )?;
        writeln!(
            f,
            "squashes: branch={} vp={}",
            self.branch_squashes, self.vp_squashes
        )?;
        writeln!(
            f,
            "mem: l1={} l2={} dram={} (l1 rate {:.2})",
            self.l1_hits,
            self.l2_hits,
            self.dram_accesses,
            self.l1_hit_rate()
        )?;
        writeln!(
            f,
            "stalls: prf={} sq_full={} backend={}",
            self.rename_stalls_prf, self.sq_full_stalls, self.backend_stalls
        )?;
        write!(
            f,
            "opts: silent={}/{} ss_loads={} packs={} reuse={}/{} vp={}/{} rfc={} dmp={}",
            self.silent_stores,
            self.silent_stores + self.performed_stores,
            self.ss_loads,
            self.packed_pairs,
            self.reuse_hits,
            self.reuse_hits + self.reuse_misses,
            self.vp_correct,
            self.vp_predictions,
            self.rfc_shares,
            self.dmp_prefetches
        )?;
        if self.faults_injected > 0 {
            write!(f, "\nfaults injected: {}", self.faults_injected)?;
        }
        if self.noise_events > 0 {
            write!(f, "\nnoise events: {}", self.noise_events)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_handles_zero_cycles() {
        assert_eq!(SimStats::default().ipc(), 0.0);
        let s = SimStats {
            cycles: 10,
            committed: 25,
            ..SimStats::default()
        };
        assert!((s.ipc() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn hit_rate() {
        let s = SimStats {
            l1_hits: 3,
            l2_hits: 1,
            dram_accesses: 0,
            ..SimStats::default()
        };
        assert!((s.l1_hit_rate() - 0.75).abs() < 1e-9);
        assert_eq!(SimStats::default().l1_hit_rate(), 0.0);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!SimStats::default().to_string().is_empty());
    }
}
