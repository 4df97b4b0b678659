//! Property-based tests of the memory subsystem and pipeline
//! invariants.

use pandora_isa::{Asm, Reg, Width};
use pandora_sim::{
    Cache, CacheConfig, CacheOutcome, FaultPlan, Hierarchy, Machine, MemLatency, Memory, SimConfig,
};
use proptest::prelude::*;

/// Sets and line size of the reference-model test: four sets of 16 B
/// lines, so addresses below 4 KiB put 64 lines on every set.
const MODEL_SETS: usize = 4;
const MODEL_LINE: u64 = 16;

/// A reference LRU cache kept as one list per set: a miss pushes while
/// the set is not full and otherwise replaces the line with the
/// smallest stamp; a flush removes the line from its list.
struct LruLists {
    ways: usize,
    sets: Vec<Vec<(u64, u64)>>,
    clock: u64,
}

impl LruLists {
    fn new(ways: usize) -> LruLists {
        LruLists {
            ways,
            sets: vec![Vec::new(); MODEL_SETS],
            clock: 0,
        }
    }

    /// The set and line address of `addr`.
    fn locate(addr: u64) -> (usize, u64) {
        (
            (addr / MODEL_LINE) as usize % MODEL_SETS,
            addr & !(MODEL_LINE - 1),
        )
    }

    fn access(&mut self, addr: u64) -> CacheOutcome {
        self.clock += 1;
        let (set_idx, tag) = LruLists::locate(addr);
        let set = &mut self.sets[set_idx];
        if let Some(line) = set.iter_mut().find(|(t, _)| *t == tag) {
            line.1 = self.clock;
            return CacheOutcome::Hit;
        }
        if set.len() < self.ways {
            set.push((tag, self.clock));
            return CacheOutcome::Miss { evicted: None };
        }
        let victim = (0..set.len()).min_by_key(|&i| set[i].1).unwrap();
        let old = set[victim].0;
        set[victim] = (tag, self.clock);
        CacheOutcome::Miss { evicted: Some(old) }
    }

    fn probe(&self, addr: u64) -> bool {
        let (set_idx, tag) = LruLists::locate(addr);
        self.sets[set_idx].iter().any(|(t, _)| *t == tag)
    }

    fn flush_line(&mut self, addr: u64) -> bool {
        let (set_idx, tag) = LruLists::locate(addr);
        let set = &mut self.sets[set_idx];
        let before = set.len();
        set.retain(|(t, _)| *t != tag);
        set.len() != before
    }

    fn resident_lines(&self, set_idx: usize) -> Vec<u64> {
        let mut tags: Vec<u64> = self.sets[set_idx].iter().map(|(t, _)| *t).collect();
        tags.sort_unstable();
        tags
    }
}

fn width_strategy() -> impl Strategy<Value = Width> {
    prop_oneof![
        Just(Width::Byte),
        Just(Width::Half),
        Just(Width::Word),
        Just(Width::Dword),
    ]
}

proptest! {
    #[test]
    fn memory_read_back_what_was_written(
        addr in 0u64..4000,
        value: u64,
        w in width_strategy()
    ) {
        let mut m = Memory::new(4096);
        m.write(addr, value, w).unwrap();
        let mask = match w.bytes() {
            1 => 0xffu64,
            2 => 0xffff,
            4 => 0xffff_ffff,
            _ => u64::MAX,
        };
        prop_assert_eq!(m.read(addr, w).unwrap(), value & mask);
    }

    #[test]
    fn disjoint_writes_do_not_interfere(
        a in 0u64..256,
        b in 0u64..256,
        va: u64,
        vb: u64
    ) {
        prop_assume!(a.abs_diff(b) >= 1);
        let mut m = Memory::new(8192);
        m.write_u64(a * 8, va).unwrap();
        m.write_u64(b * 8 + 2048, vb).unwrap();
        prop_assert_eq!(m.read_u64(a * 8).unwrap(), va);
        prop_assert_eq!(m.read_u64(b * 8 + 2048).unwrap(), vb);
    }

    #[test]
    fn cache_access_makes_line_resident(addr: u64) {
        let mut c = Cache::new(CacheConfig::l1d());
        c.access(addr);
        prop_assert!(c.probe(addr));
        prop_assert!(c.probe(c.line_addr(addr)));
    }

    #[test]
    fn cache_flush_removes_exactly_the_line(addr: u64, other: u64) {
        let mut c = Cache::new(CacheConfig::l1d());
        c.access(addr);
        c.access(other);
        c.flush_line(addr);
        prop_assert!(!c.probe(addr));
        if c.line_addr(other) != c.line_addr(addr) {
            prop_assert!(c.probe(other));
        }
    }

    #[test]
    fn cache_matches_per_set_lru_lists(
        ways in 1usize..9,
        ops in prop::collection::vec((0u8..4, 0u64..4096), 1..300)
    ) {
        let mut c = Cache::new(CacheConfig { sets: MODEL_SETS, ways, line: MODEL_LINE as usize });
        let mut model = LruLists::new(ways);
        for (op, addr) in ops {
            // Accesses are drawn twice as often as probes or flushes, so
            // sets fill and evict.
            match op {
                0 | 1 => prop_assert_eq!(c.access(addr), model.access(addr), "access {:#x}", addr),
                2 => prop_assert_eq!(c.probe(addr), model.probe(addr), "probe {:#x}", addr),
                _ => prop_assert_eq!(
                    c.flush_line(addr),
                    model.flush_line(addr),
                    "flush {:#x}",
                    addr
                ),
            }
            for set in 0..MODEL_SETS {
                let mut lines: Vec<u64> = c.resident_lines(set).collect();
                lines.sort_unstable();
                prop_assert_eq!(lines, model.resident_lines(set), "set {} after {:#x}", set, addr);
            }
        }
    }

    #[test]
    fn second_access_is_always_faster(addr: u64) {
        let mut h = Hierarchy::new(CacheConfig::l1d(), CacheConfig::l2(), MemLatency::default());
        let first = h.access(addr).latency;
        let second = h.access(addr).latency;
        prop_assert!(second <= first);
        prop_assert_eq!(second, MemLatency::default().l1);
    }

    #[test]
    fn committed_count_matches_dynamic_instructions(iters in 1u64..40) {
        // A counted loop commits exactly (2 li + iters * 3 + 1 halt).
        let mut a = Asm::new();
        a.li(Reg::T0, 0);
        a.li(Reg::T1, iters);
        a.label("l");
        a.addi(Reg::T0, Reg::T0, 1);
        a.addi(Reg::T1, Reg::T1, -1);
        a.bnez(Reg::T1, "l");
        a.halt();
        let prog = a.assemble().unwrap();
        let mut m = Machine::new(SimConfig::default());
        m.load_program(&prog);
        let stats = m.run(1_000_000).unwrap();
        prop_assert_eq!(stats.committed, 2 + iters * 3 + 1);
        prop_assert_eq!(m.reg(Reg::T0), iters);
    }

    #[test]
    fn rdcycle_is_monotone_within_a_program(work in 1u64..30) {
        let mut a = Asm::new();
        a.fence();
        a.rdcycle(Reg::S0);
        a.li(Reg::T1, work);
        a.label("l");
        a.addi(Reg::T1, Reg::T1, -1);
        a.bnez(Reg::T1, "l");
        a.fence();
        a.rdcycle(Reg::S1);
        a.halt();
        let prog = a.assemble().unwrap();
        let mut m = Machine::new(SimConfig::default());
        m.load_program(&prog);
        m.run(1_000_000).unwrap();
        prop_assert!(m.reg(Reg::S1) > m.reg(Reg::S0));
    }

    #[test]
    fn same_fault_plan_seed_gives_identical_stats(seed: u64, n in 0usize..12) {
        // Fault injection must be fully deterministic: two machines
        // running the same program under the same FaultPlan::random
        // seed end with byte-identical statistics and registers.
        let mut a = Asm::new();
        a.li(Reg::T0, 200);
        a.li(Reg::T2, 5);
        a.label("l");
        a.sd(Reg::T2, Reg::ZERO, 0x400);
        a.ld(Reg::T3, Reg::ZERO, 0x400);
        a.addi(Reg::T0, Reg::T0, -1);
        a.bnez(Reg::T0, "l");
        a.halt();
        let prog = a.assemble().unwrap();
        let run = || {
            let mut m = Machine::new(SimConfig::default());
            m.load_program(&prog);
            m.inject_faults(FaultPlan::random(seed, n, 0..5_000, 0x400..0x800));
            let res = m.run(1_000_000);
            (res, *m.stats(), m.reg(Reg::T3))
        };
        let (ra, sa, xa) = run();
        let (rb, sb, xb) = run();
        prop_assert_eq!(ra, rb);
        prop_assert_eq!(sa, sb);
        prop_assert_eq!(xa, xb);
        // Events landing after halt (or on no-op targets) don't fire,
        // so the count is bounded by the plan, not equal to it.
        prop_assert!(sa.faults_injected <= n as u64);
    }
}
