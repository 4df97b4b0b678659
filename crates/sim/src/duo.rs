//! Two cores sharing an L2 — the *cloud setting*'s receiver placement
//! (§II-3: the receiver may run "concurrent to the victim … on another
//! physical core").
//!
//! Each core is a full [`Machine`] with its own pipeline, memory and
//! private L1; the [`DuoMachine`] interleaves them cycle by cycle while
//! threading one shared L2 through both, so cross-core cache channels
//! (Prime+Probe over the L2, shared-address Flush+Reload) behave as on
//! a real multicore. Addresses are physical, so two cores using the
//! same address genuinely share a line (the shared-library / page-dedup
//! scenario attacks rely on).

use crate::machine::{Machine, SimError};
use crate::mem::cache::Cache;
use crate::stats::SimStats;

/// Two machines in lockstep with a shared L2.
#[derive(Clone, Debug)]
pub struct DuoMachine {
    a: Machine,
    b: Machine,
    shared_l2: Cache,
}

impl DuoMachine {
    /// Pairs two machines. Their private L2s are discarded in favour of
    /// a single shared L2 taken from machine `a`'s configuration; each
    /// core's own L2 slot is marked *detached*, so its
    /// `hierarchy().l2()` / `in_l2()` views panic instead of answering
    /// from the stale placeholder left behind between steps.
    #[must_use]
    pub fn new(mut a: Machine, mut b: Machine) -> DuoMachine {
        let shared_l2 = a.hierarchy().l2().clone();
        a.hierarchy_mut().mark_l2_detached();
        b.hierarchy_mut().mark_l2_detached();
        DuoMachine { a, b, shared_l2 }
    }

    /// Core A (e.g. the victim).
    #[must_use]
    pub fn core_a(&self) -> &Machine {
        &self.a
    }

    /// Core B (e.g. the receiver).
    #[must_use]
    pub fn core_b(&self) -> &Machine {
        &self.b
    }

    /// The shared L2 itself.
    ///
    /// This is the only authoritative view of L2 state:
    /// [`DuoMachine::step`] swaps the shared cache into a core only for
    /// the duration of that core's tick, so between steps each core's
    /// own `hierarchy().l2()` slot holds a detached placeholder — and
    /// the hierarchy's L2 views panic rather than answer from it.
    #[must_use]
    pub fn shared_l2(&self) -> &Cache {
        &self.shared_l2
    }

    /// Mutable access to the shared L2 (for priming or flushing lines
    /// between steps).
    pub fn shared_l2_mut(&mut self) -> &mut Cache {
        &mut self.shared_l2
    }

    /// Whether the shared L2 currently holds the line of `addr`.
    #[must_use]
    pub fn l2_holds(&self, addr: u64) -> bool {
        self.shared_l2.probe(addr)
    }

    fn step_core(
        core: &mut Machine,
        shared: &mut Cache,
    ) -> Result<(), SimError> {
        if core.is_halted() {
            return Ok(());
        }
        core.hierarchy_mut().swap_in_l2(shared);
        let r = core.step();
        core.hierarchy_mut().swap_out_l2(shared);
        r
    }

    /// Advances both cores one cycle (A first, then B).
    ///
    /// # Errors
    ///
    /// Propagates either core's [`SimError`].
    pub fn step(&mut self) -> Result<(), SimError> {
        DuoMachine::step_core(&mut self.a, &mut self.shared_l2)?;
        DuoMachine::step_core(&mut self.b, &mut self.shared_l2)
    }

    /// Runs until both cores halt or `max_cycles` elapse.
    ///
    /// # Errors
    ///
    /// [`SimError::Timeout`] if either core is still running at the
    /// budget, or either core's own error.
    pub fn run(&mut self, max_cycles: u64) -> Result<(SimStats, SimStats), SimError> {
        for _ in 0..max_cycles {
            if self.a.is_halted() && self.b.is_halted() {
                return Ok((*self.a.stats(), *self.b.stats()));
            }
            self.step()?;
        }
        if self.a.is_halted() && self.b.is_halted() {
            Ok((*self.a.stats(), *self.b.stats()))
        } else {
            Err(SimError::Timeout { cycles: max_cycles })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use pandora_isa::{Asm, Reg};

    fn machine(build: impl FnOnce(&mut Asm)) -> Machine {
        let mut a = Asm::new();
        build(&mut a);
        a.halt();
        let prog = a.assemble().unwrap();
        let mut m = Machine::new(SimConfig::default());
        m.load_program(&prog);
        m
    }

    #[test]
    fn both_cores_run_to_completion() {
        let a = machine(|a| {
            a.li(Reg::T0, 100);
            a.label("l");
            a.addi(Reg::T0, Reg::T0, -1);
            a.bnez(Reg::T0, "l");
            a.li(Reg::T1, 0xA);
        });
        let b = machine(|a| {
            a.li(Reg::T1, 0xB);
        });
        let mut duo = DuoMachine::new(a, b);
        duo.run(100_000).unwrap();
        assert_eq!(duo.core_a().reg(Reg::T1), 0xA);
        assert_eq!(duo.core_b().reg(Reg::T1), 0xB);
    }

    #[test]
    fn sender_fills_are_visible_in_the_shared_l2() {
        let sender = machine(|a| {
            a.ld(Reg::T0, Reg::ZERO, 0x4000);
            a.fence();
        });
        let idle = machine(|a| {
            a.nop();
        });
        let mut duo = DuoMachine::new(sender, idle);
        duo.run(100_000).unwrap();
        assert!(duo.l2_holds(0x4000), "sender's fill lands in the shared L2");
        assert!(
            !duo.core_b().hierarchy().in_l1(0x4000),
            "receiver's private L1 is untouched"
        );
    }

    #[test]
    fn both_cores_observe_the_same_l2_lines() {
        // A fills 0x8000; B later loads the same address and must be
        // served by the *shared* L2 (an L2 hit), not go to DRAM — the
        // property every cross-core channel in this repo relies on.
        let a = machine(|a| {
            a.ld(Reg::T0, Reg::ZERO, 0x8000);
            a.fence();
        });
        let b = machine(|a| {
            a.li(Reg::T6, 200);
            a.label("wait");
            a.addi(Reg::T6, Reg::T6, -1);
            a.bnez(Reg::T6, "wait");
            a.ld(Reg::T1, Reg::ZERO, 0x8000);
            a.ld(Reg::T2, Reg::ZERO, 0x9000);
            a.fence();
        });
        let mut duo = DuoMachine::new(a, b);
        duo.run(1_000_000).unwrap();
        assert!(duo.l2_holds(0x8000), "A's fill is in the shared L2");
        assert!(
            duo.core_b().stats().l2_hits >= 1,
            "B's load of A's line hits the shared L2, not DRAM: {:?}",
            duo.core_b().stats()
        );
        // B's own fill lands in the very same cache A fills — it is one
        // cache, not a copy per core.
        assert!(duo.shared_l2().probe(0x9000), "B's fill is in the shared L2");
        // A core's own L2 view is *detached* outside step(): consulting
        // it would answer from a stale placeholder, so it panics
        // instead of lying.
        let hier = duo.core_a().hierarchy();
        let view =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| hier.l2().probe(0x9000)));
        assert!(
            view.is_err(),
            "a detached per-core l2() view must panic, not answer stale state"
        );
        let probe =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| hier.in_l2(0x9000)));
        assert!(probe.is_err(), "detached in_l2() must panic too");
    }

    #[test]
    fn cross_core_covert_channel_round_trips() {
        // Sender on core A encodes a symbol by touching one of 16 lines;
        // receiver on core B times all 16: its L1 misses, so the shared
        // L2 serves the touched line fast and DRAM serves the rest.
        const BASE: u64 = 0x4_0000;
        const SYMBOL: u64 = 11;
        let sender = machine(|a| {
            a.ld(Reg::T0, Reg::ZERO, (BASE + SYMBOL * 64) as i64);
            a.fence();
        });
        let receiver = machine(|a| {
            // Give the sender time to transmit first.
            a.li(Reg::T6, 100);
            a.label("wait");
            a.addi(Reg::T6, Reg::T6, -1);
            a.bnez(Reg::T6, "wait");
            for i in 0..16u64 {
                let line = (i * 7) % 16; // permuted probe order
                a.fence();
                a.rdcycle(Reg::T3);
                a.ld(Reg::T4, Reg::ZERO, (BASE + line * 64) as i64);
                a.fence();
                a.rdcycle(Reg::T5);
                a.sub(Reg::T5, Reg::T5, Reg::T3);
                a.sd(Reg::T5, Reg::ZERO, (0x100 + line * 8) as i64);
            }
        });
        let mut duo = DuoMachine::new(sender, receiver);
        duo.run(1_000_000).unwrap();
        let timings: Vec<u64> = (0..16)
            .map(|i| duo.core_b().mem().read_u64(0x100 + i * 8).unwrap())
            .collect();
        let fastest = timings
            .iter()
            .enumerate()
            .min_by_key(|(_, &t)| t)
            .map(|(i, _)| i as u64)
            .unwrap();
        assert_eq!(fastest, SYMBOL, "timings: {timings:?}");
    }

    #[test]
    fn receiver_can_evict_the_victims_l2_lines() {
        // Cross-core Prime+Probe priming: core B's fills displace core
        // A's lines from the shared L2 set.
        let victim = machine(|a| {
            a.ld(Reg::T0, Reg::ZERO, 0x4000);
            a.fence();
        });
        // 9 conflicting lines (> 8 ways) in the victim's L2 set.
        let attacker = machine(|a| {
            a.li(Reg::T6, 50);
            a.label("wait");
            a.addi(Reg::T6, Reg::T6, -1);
            a.bnez(Reg::T6, "wait");
            for k in 1..=9i64 {
                a.ld(Reg::T1, Reg::ZERO, 0x4000 + k * 0x4000);
            }
            a.fence();
        });
        let mut duo = DuoMachine::new(victim, attacker);
        duo.run(1_000_000).unwrap();
        assert!(!duo.l2_holds(0x4000), "victim's line displaced from L2");
        assert!(
            duo.core_a().hierarchy().in_l1(0x4000),
            "victim's private L1 copy is out of the attacker's reach"
        );
    }
}
