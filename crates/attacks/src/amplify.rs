//! The silent-store **amplification gadget** of paper Figure 5.
//!
//! Goal: convert "was this single dynamic store silent?" into a large
//! (>100-cycle) end-to-end timing difference. Mechanics (§V-A2):
//!
//! 1. a *delay sub-gadget* — a load from a cold line — buys time for
//!    the target store to execute and its SS-load to return while the
//!    target line is still cached;
//! 2. a *flush sub-gadget* — loads that **depend on the delay load's
//!    value** and contend with the target line's cache set — evicts the
//!    target line *after* the SS-load completed but *before* the store
//!    is performed;
//! 3. if the store was **not** silent, performing it now requires a
//!    full miss fill while it head-of-line-blocks the store queue,
//!    stalling the pipeline; if it was silent, it dequeues instantly.
//!
//! Two flavours: set-contention eviction (the paper's, default) and a
//! `flush`-instruction variant for an idealized comparison.

use pandora_isa::{Asm, Reg};
use pandora_sim::{Memory, SimConfig};

/// How the flush sub-gadget evicts the target line.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum FlushKind {
    /// LRU set contention: dependent loads to conflicting lines in both
    /// L1 and L2 sets of the target (the Fig 5 mechanism).
    #[default]
    Contention,
    /// An explicit `flush` instruction (idealized variant).
    FlushInstr,
}

/// A configured amplification gadget for one target store address.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AmplifyGadget {
    target: u64,
    delay_addr: u64,
    flush_lines: Vec<u64>,
    kind: FlushKind,
}

/// Registers the gadget may clobber (disjoint from the BSAES codegen's
/// working set A0–A7 / S2–S9 / T0–T2).
const DELAY_REG: Reg = Reg::T3;
const FLUSH_REG: Reg = Reg::T4;

impl AmplifyGadget {
    /// Builds a gadget for the store to `target`. `delay_addr` must be
    /// a line the program never otherwise touches (so it is cold);
    /// `flush_region` likewise anchors the conflict lines.
    ///
    /// The conflict stride is the L2 way span (`sets × line`), which —
    /// with the default geometry (L2 sets a multiple of L1 sets) — also
    /// conflicts in the L1, so the chain evicts the target from both
    /// levels.
    #[must_use]
    pub fn new(cfg: &SimConfig, target: u64, delay_addr: u64, kind: FlushKind) -> AmplifyGadget {
        let stride = (cfg.l2.sets * cfg.l2.line) as u64;
        let target_line = target & !(cfg.l1d.line as u64 - 1);
        let n = cfg.l2.ways + 1;
        let flush_lines = (1..=n as u64).map(|k| target_line + stride * k).collect();
        AmplifyGadget {
            target,
            delay_addr,
            flush_lines,
            kind,
        }
    }

    /// The conflict lines the contention flush walks.
    #[must_use]
    pub fn flush_lines(&self) -> &[u64] {
        &self.flush_lines
    }

    /// Plants the pointer the delay load returns (the base of the
    /// flush chain), establishing the data dependency that orders the
    /// flush after the SS-load.
    ///
    /// # Panics
    ///
    /// Panics if the gadget addresses fall outside memory — a layout
    /// bug.
    pub fn setup_memory(&self, mem: &mut Memory) {
        if self.kind == FlushKind::Contention {
            mem.write_u64(self.delay_addr, self.flush_lines[0])
                .expect("gadget addresses in memory");
        }
    }

    /// Emits the delay + flush sub-gadgets. Call immediately before the
    /// target store (Fig 5's layout).
    pub fn emit(&self, a: &mut Asm) {
        match self.kind {
            FlushKind::Contention => {
                // Delay sub-gadget: cold-miss load returning the flush base.
                a.ld(DELAY_REG, Reg::ZERO, self.delay_addr as i64);
                // Flush sub-gadget: loads of the conflict lines, each
                // address-dependent on the delay load's value.
                let base = self.flush_lines[0];
                for &line in &self.flush_lines {
                    a.ld(FLUSH_REG, DELAY_REG, (line - base) as i64);
                }
            }
            FlushKind::FlushInstr => {
                // Delay still orders the flush after the SS-load.
                a.ld(DELAY_REG, Reg::ZERO, self.delay_addr as i64);
                // Make the flush address depend on the delay value:
                // delay slot holds 0 here, so target + 0.
                a.flush(DELAY_REG, self.target as i64);
            }
        }
    }

    /// For the `FlushInstr` variant the delay slot must hold zero so
    /// `flush DELAY_REG, target` resolves to the target line.
    pub fn setup_memory_flush_variant(&self, mem: &mut Memory) {
        if self.kind == FlushKind::FlushInstr {
            mem.write_u64(self.delay_addr, 0).expect("gadget in memory");
        }
    }

    /// Emits the store-queue pressure tail: stores queued immediately
    /// behind the target store, so that while a non-silent target
    /// head-of-line blocks the SQ on its miss fill, dispatch stalls —
    /// the "SQ fills and stalls the pipeline" amplification of §V-A2.
    ///
    /// The stores reuse the gadget's own conflict lines (resident in
    /// the L1 after the flush loads, so the tail drains fast and adds
    /// the same small constant to both outcomes) and store a value
    /// guaranteed non-silent (the non-zero flush base over zeroed
    /// gadget memory).
    pub fn emit_pressure(&self, a: &mut Asm) {
        let n = self.flush_lines.len().min(5);
        for k in 0..n {
            let offset = (self.flush_lines[k] - self.flush_lines[0] + 8) as i64;
            a.sd(DELAY_REG, DELAY_REG, offset);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::{assemble, run_machine};
    use pandora_sim::OptConfig;

    /// A minimal Fig 5 scenario: one target store whose silence depends
    /// on the value at the target address; the gadget amplifies it.
    fn gadget_experiment(kind: FlushKind, old_value: u64, store_value: u64) -> u64 {
        let cfg = SimConfig::with_opts(OptConfig::with_silent_stores());
        let target = 0x1_0000u64;
        let delay = 0x8_0000u64;
        let g = AmplifyGadget::new(&cfg, target, delay, kind);
        let prog = assemble(|a| {
            // Warm the target line (precondition: line(S) present) and
            // the lines the trailing stores will hit.
            a.ld(Reg::T0, Reg::ZERO, target as i64);
            for i in 1..6i64 {
                a.ld(Reg::T0, Reg::ZERO, (target + 0x1000) as i64 + 64 * i);
            }
            a.fence();
            a.li(Reg::T0, store_value);
            g.emit(a);
            a.sd(Reg::T0, Reg::ZERO, target as i64); // the target store
            // Trailing stores (different, warm lines) pile into the SQ
            // behind it: head-of-line blocking amplifies the miss.
            for i in 1..6i64 {
                a.sd(Reg::T0, Reg::ZERO, (target + 0x1000) as i64 + 64 * i);
            }
            a.fence();
        });
        let mut m = pandora_sim::Machine::new(cfg);
        m.load_program(&prog);
        m.mem_mut().write_u64(target, old_value).unwrap();
        g.setup_memory(m.mem_mut());
        g.setup_memory_flush_variant(m.mem_mut());
        m.run(1_000_000).unwrap();
        m.stats().cycles
    }

    #[test]
    fn contention_gadget_amplifies_one_store() {
        let silent = gadget_experiment(FlushKind::Contention, 42, 42);
        let loud = gadget_experiment(FlushKind::Contention, 41, 42);
        assert!(
            silent + 100 <= loud,
            "paper requires >100-cycle separation: silent={silent} loud={loud}"
        );
    }

    #[test]
    fn flush_instr_gadget_also_amplifies() {
        let silent = gadget_experiment(FlushKind::FlushInstr, 42, 42);
        let loud = gadget_experiment(FlushKind::FlushInstr, 41, 42);
        assert!(
            silent + 100 <= loud,
            "silent={silent} loud={loud}"
        );
    }

    #[test]
    fn without_gadget_difference_is_small() {
        let time = |old: u64| {
            let cfg = SimConfig::with_opts(OptConfig::with_silent_stores());
            let target = 0x1_0000u64;
            let prog = assemble(|a| {
                a.ld(Reg::T0, Reg::ZERO, target as i64);
                a.fence();
                a.li(Reg::T0, 42);
                a.sd(Reg::T0, Reg::ZERO, target as i64);
                a.fence();
            });
            let mut m = pandora_sim::Machine::new(cfg);
            m.load_program(&prog);
            m.mem_mut().write_u64(target, old).unwrap();
            m.run(1_000_000).unwrap();
            m.stats().cycles
        };
        let silent = time(42);
        let loud = time(41);
        assert!(
            loud.abs_diff(silent) < 30,
            "un-amplified difference should be modest: {silent} vs {loud}"
        );
    }

    #[test]
    fn conflict_lines_share_the_target_set() {
        let cfg = SimConfig::default();
        let g = AmplifyGadget::new(&cfg, 0x1_0040, 0x8_0000, FlushKind::Contention);
        let l1 = pandora_sim::Cache::new(cfg.l1d);
        let l2 = pandora_sim::Cache::new(cfg.l2);
        assert!(g.flush_lines().len() > cfg.l2.ways);
        for &line in g.flush_lines() {
            assert_eq!(l1.set_index(line), l1.set_index(0x1_0040), "L1 set");
            assert_eq!(l2.set_index(line), l2.set_index(0x1_0040), "L2 set");
        }
    }

    #[test]
    fn run_machine_helper_works() {
        let prog = assemble(|a| {
            a.li(Reg::T0, 3);
        });
        let m = run_machine(SimConfig::default(), &prog);
        assert!(m.is_halted());
    }
}
