//! Evict+Time (§II): instead of probing its own lines, the receiver
//! *evicts* a candidate set and measures how the **victim's runtime**
//! changes — slower iff the victim actually uses that set.
//!
//! This is the receiver flavour for victims the attacker can invoke but
//! not interleave with (e.g. a request/response service), and the
//! conceptual basis of the amplification gadget's flush sub-gadget.

use pandora_isa::{Asm, Reg};

use crate::prime_probe::EvictionSet;

/// Emits the eviction step: touch every conflicting line of `set`,
/// displacing the target set's contents, then fence.
pub fn emit_evict(a: &mut Asm, set: &EvictionSet) {
    for &addr in set.addrs() {
        a.ld(Reg::T3, Reg::ZERO, addr as i64);
    }
    a.fence();
}

/// Emits a timed call to the victim code between two serialized
/// `rdcycle`s; the elapsed time is stored at `result_addr`.
///
/// `emit_victim` is invoked to place the victim's instructions.
pub fn emit_timed_victim(
    a: &mut Asm,
    result_addr: u64,
    emit_victim: impl FnOnce(&mut Asm),
) {
    a.fence();
    a.rdcycle(Reg::T3);
    emit_victim(a);
    a.fence();
    a.rdcycle(Reg::T4);
    a.sub(Reg::T4, Reg::T4, Reg::T3);
    a.sd(Reg::T4, Reg::ZERO, result_addr as i64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pandora_sim::{CacheConfig, Machine, SimConfig};

    /// Evict+Time distinguishes which set a victim load maps to.
    #[test]
    fn victim_slows_down_iff_its_set_is_evicted() {
        let victim_addr = 0x1_2340u64;
        let other_addr = 0x5_0000u64; // different set

        let run = |evicted: u64| -> u64 {
            let cfg = SimConfig::default();
            let set = EvictionSet::for_target(&CacheConfig::l1d(), evicted, 12);
            let mut a = Asm::new();
            // Warm the victim's line (steady-state), then evict, then
            // time the victim access.
            a.ld(Reg::T0, Reg::ZERO, victim_addr as i64);
            a.fence();
            emit_evict(&mut a, &set);
            emit_timed_victim(&mut a, 0x100, |v| {
                v.ld(Reg::T0, Reg::ZERO, victim_addr as i64);
            });
            a.halt();
            let prog = a.assemble().unwrap();
            let mut m = Machine::new(cfg);
            m.load_program(&prog);
            m.run(1_000_000).unwrap();
            m.mem().read_u64(0x100).unwrap()
        };

        let hit_time = run(other_addr);
        let evicted_time = run(victim_addr);
        // The L1-geometry eviction set displaces the line to the L2, so
        // the observable penalty is the L2-minus-L1 latency difference.
        assert!(
            hit_time + 8 <= evicted_time,
            "evicting the victim's set must slow it: {hit_time} vs {evicted_time}"
        );
    }

    /// Sweeping eviction over sets localizes the victim's secret-indexed
    /// access — the classic Evict+Time address-recovery loop.
    #[test]
    fn sweep_recovers_the_victim_set() {
        let l1 = CacheConfig::l1d();
        let secret_set = 37usize;
        let victim_addr = (secret_set * l1.line) as u64 + 0x2_0000;
        let probe = pandora_sim::Cache::new(l1, 0);
        assert_eq!(probe.set_index(victim_addr), secret_set);

        let mut slow_sets = Vec::new();
        for set in (secret_set - 1)..=(secret_set + 1) {
            let anchor = (set * l1.line) as u64;
            let eset = EvictionSet::for_target(&l1, anchor, 12);
            let mut a = Asm::new();
            a.ld(Reg::T0, Reg::ZERO, victim_addr as i64);
            a.fence();
            emit_evict(&mut a, &eset);
            emit_timed_victim(&mut a, 0x100, |v| {
                v.ld(Reg::T0, Reg::ZERO, victim_addr as i64);
            });
            a.halt();
            let prog = a.assemble().unwrap();
            let mut m = Machine::new(SimConfig::default());
            m.load_program(&prog);
            m.run(1_000_000).unwrap();
            let t = m.mem().read_u64(0x100).unwrap();
            if t > 12 {
                slow_sets.push(set);
            }
        }
        assert_eq!(slow_sets, vec![secret_set]);
    }
}
