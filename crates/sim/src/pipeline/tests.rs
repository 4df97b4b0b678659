//! End-to-end pipeline tests driven through the public [`Machine`] API.

use pandora_isa::{Asm, BranchCond, Reg};

use crate::config::{OptConfig, SimConfig};
use crate::error::SimError;
use crate::fault::{FaultKind, FaultPlan};
use crate::machine::Machine;
use crate::trace::TraceEvent;

fn run_prog(cfg: SimConfig, build: impl FnOnce(&mut Asm)) -> Machine {
    let mut a = Asm::new();
    build(&mut a);
    a.halt();
    let p = a.assemble().unwrap();
    let mut m = Machine::new(cfg);
    m.load_program(&p);
    m.run(1_000_000).unwrap();
    m
}

#[test]
fn straight_line_arithmetic() {
    let m = run_prog(SimConfig::default(), |a| {
        a.li(Reg::T0, 6);
        a.li(Reg::T1, 7);
        a.mul(Reg::T2, Reg::T0, Reg::T1);
        a.addi(Reg::T2, Reg::T2, 100);
    });
    assert_eq!(m.reg(Reg::T2), 142);
}

#[test]
fn loops_and_branches() {
    let m = run_prog(SimConfig::default(), |a| {
        a.li(Reg::T0, 0);
        a.li(Reg::T1, 100);
        a.label("l");
        a.add(Reg::T0, Reg::T0, Reg::T1);
        a.addi(Reg::T1, Reg::T1, -1);
        a.bnez(Reg::T1, "l");
    });
    assert_eq!(m.reg(Reg::T0), 5050);
}

#[test]
fn memory_store_load_roundtrip() {
    let m = run_prog(SimConfig::default(), |a| {
        a.li(Reg::T0, 0xabcd);
        a.sd(Reg::T0, Reg::ZERO, 256);
        a.ld(Reg::T1, Reg::ZERO, 256);
    });
    assert_eq!(m.reg(Reg::T1), 0xabcd);
    assert_eq!(m.mem().read_u64(256).unwrap(), 0xabcd);
}

#[test]
fn store_to_load_forwarding_before_dequeue() {
    // The load must see the in-flight store's data even though the
    // store has not written memory yet.
    let m = run_prog(SimConfig::default(), |a| {
        a.li(Reg::T0, 7);
        a.sd(Reg::T0, Reg::ZERO, 64);
        a.ld(Reg::T1, Reg::ZERO, 64);
        a.addi(Reg::T1, Reg::T1, 1);
    });
    assert_eq!(m.reg(Reg::T1), 8);
}

#[test]
fn branch_mispredicts_squash_correctly() {
    // Data-dependent branch pattern the bimodal predictor cannot
    // track perfectly; architectural result must still be exact.
    let m = run_prog(SimConfig::default(), |a| {
        a.li(Reg::T0, 0); // acc
        a.li(Reg::T1, 50); // i
        a.label("l");
        a.andi(Reg::T2, Reg::T1, 1);
        a.beqz(Reg::T2, "even");
        a.addi(Reg::T0, Reg::T0, 3);
        a.j("next");
        a.label("even");
        a.addi(Reg::T0, Reg::T0, 5);
        a.label("next");
        a.addi(Reg::T1, Reg::T1, -1);
        a.bnez(Reg::T1, "l");
    });
    // 25 odd iterations (+3) and 25 even iterations (+5).
    assert_eq!(m.reg(Reg::T0), 25 * 3 + 25 * 5);
    assert!(m.stats().branch_squashes > 0, "pattern must mispredict");
}

#[test]
fn jalr_via_btb() {
    let m = run_prog(SimConfig::default(), |a| {
        a.jal(Reg::RA, "f");
        a.li(Reg::T1, 1);
        a.j("end");
        a.label("f");
        a.li(Reg::T0, 9);
        a.ret();
        a.label("end");
    });
    assert_eq!(m.reg(Reg::T0), 9);
    assert_eq!(m.reg(Reg::T1), 1);
}

#[test]
fn rdcycle_monotonic() {
    let m = run_prog(SimConfig::default(), |a| {
        a.rdcycle(Reg::T0);
        a.fence();
        a.li(Reg::T2, 10);
        a.label("l");
        a.addi(Reg::T2, Reg::T2, -1);
        a.bnez(Reg::T2, "l");
        a.fence();
        a.rdcycle(Reg::T1);
    });
    assert!(m.reg(Reg::T1) > m.reg(Reg::T0));
}

#[test]
fn fence_drains_store_queue() {
    let m = run_prog(SimConfig::default(), |a| {
        a.li(Reg::T0, 5);
        a.sd(Reg::T0, Reg::ZERO, 128);
        a.fence();
        a.rdcycle(Reg::T1);
    });
    // After the fence the store must be in memory.
    assert_eq!(m.mem().read_u64(128).unwrap(), 5);
    assert_eq!(m.stats().performed_stores, 1);
}

#[test]
fn timeout_on_infinite_loop() {
    let mut a = Asm::new();
    a.label("spin");
    a.j("spin");
    let p = a.assemble().unwrap();
    let mut m = Machine::new(SimConfig::default());
    m.load_program(&p);
    assert_eq!(m.run(1000), Err(SimError::Timeout { cycles: 1000 }));
}

#[test]
fn committed_fault_is_reported() {
    let mut a = Asm::new();
    a.li(Reg::T0, 1 << 40);
    a.ld(Reg::T1, Reg::T0, 0);
    a.halt();
    let p = a.assemble().unwrap();
    let mut m = Machine::new(SimConfig::default());
    m.load_program(&p);
    assert!(matches!(m.run(100_000), Err(SimError::Mem { pc: 1, .. })));
}

#[test]
fn wrong_path_fault_is_harmless() {
    // A load behind a mispredicted branch accesses garbage; once the
    // branch resolves the load is squashed and the program finishes.
    let m = run_prog(SimConfig::default(), |a| {
        a.li(Reg::T0, 1 << 40); // wild address
        a.li(Reg::T1, 1);
        a.bnez(Reg::T1, "skip"); // predicted not-taken initially
        a.ld(Reg::T2, Reg::T0, 0); // wrong-path wild load
        a.label("skip");
        a.li(Reg::T3, 77);
    });
    assert_eq!(m.reg(Reg::T3), 77);
}

#[test]
fn silent_store_detected_and_skipped() {
    let cfg = SimConfig::with_opts(OptConfig::with_silent_stores());
    let m = run_prog(cfg, |a| {
        a.li(Reg::T0, 42);
        a.sd(Reg::T0, Reg::ZERO, 512); // writes 42
        a.fence();
        a.sd(Reg::T0, Reg::ZERO, 512); // same value: silent
        a.fence();
    });
    assert_eq!(m.stats().silent_stores, 1);
    assert_eq!(m.stats().performed_stores, 1);
    assert_eq!(m.mem().read_u64(512).unwrap(), 42);

    // A byte store inside a word is silent iff it writes the byte
    // already at its offset (the width-chunked replay of §IV-C4).
    let word = 0x1122_3344_5566_77A9_u64;
    for offset in [0, 7] {
        let m = run_prog(cfg, |a| {
            a.li(Reg::T0, word);
            a.sd(Reg::T0, Reg::ZERO, 512);
            a.fence();
            a.li(Reg::T1, u64::from(word.to_le_bytes()[offset]));
            a.sb(Reg::T1, Reg::ZERO, 512 + offset as i64); // same byte: silent
            a.fence();
        });
        assert_eq!(m.stats().silent_stores, 1, "byte offset {offset}");
        assert_eq!(m.stats().performed_stores, 1, "byte offset {offset}");
        assert_eq!(m.mem().read_u64(512).unwrap(), word);
    }
}

#[test]
fn non_silent_store_performs() {
    let cfg = SimConfig::with_opts(OptConfig::with_silent_stores());
    let m = run_prog(cfg, |a| {
        a.li(Reg::T0, 42);
        a.li(Reg::T1, 43);
        a.sd(Reg::T0, Reg::ZERO, 512);
        a.fence();
        a.sd(Reg::T1, Reg::ZERO, 512); // different value
        a.fence();
    });
    assert_eq!(m.stats().silent_stores, 0);
    assert_eq!(m.mem().read_u64(512).unwrap(), 43);

    // A byte store that changes its byte performs, and leaves the other
    // seven bytes of the word alone.
    let word = 0x1122_3344_5566_77A9_u64;
    for offset in [0, 7] {
        let mut bytes = word.to_le_bytes();
        bytes[offset] ^= 0x01;
        let m = run_prog(cfg, |a| {
            a.li(Reg::T0, word);
            a.sd(Reg::T0, Reg::ZERO, 512);
            a.fence();
            a.li(Reg::T1, u64::from(bytes[offset]));
            a.sb(Reg::T1, Reg::ZERO, 512 + offset as i64); // different byte
            a.fence();
        });
        assert_eq!(m.stats().silent_stores, 0, "byte offset {offset}");
        assert_eq!(m.stats().performed_stores, 2, "byte offset {offset}");
        assert_eq!(m.mem().read_u64(512).unwrap(), u64::from_le_bytes(bytes));
    }
}

#[test]
fn value_prediction_squashes_on_change() {
    let mut opts = OptConfig::baseline();
    opts.value_pred = true;
    opts.vp_confidence = 2;
    let m = run_prog(SimConfig::with_opts(opts), |a| {
        a.li(Reg::T3, 9);
        a.sd(Reg::T3, Reg::ZERO, 640);
        a.fence();
        a.li(Reg::T1, 16); // loop counter
        a.li(Reg::T6, 8); // iteration at which the value changes
        a.label("l");
        a.ld(Reg::T2, Reg::ZERO, 640); // same static load every iteration
        a.addi(Reg::T1, Reg::T1, -1);
        a.bne(Reg::T1, Reg::T6, "skip");
        // Halfway through, overwrite the loaded location: the next
        // trip around mispredicts the trained value.
        a.li(Reg::T4, 10);
        a.sd(Reg::T4, Reg::ZERO, 640);
        a.fence();
        a.label("skip");
        a.bnez(Reg::T1, "l");
        a.mv(Reg::T5, Reg::T2);
    });
    assert_eq!(m.reg(Reg::T5), 10, "architectural correctness");
    assert!(m.stats().vp_predictions > 0);
    assert!(m.stats().vp_squashes >= 1);
}

#[test]
fn computation_reuse_hits_on_repeat() {
    let mut opts = OptConfig::baseline();
    opts.comp_reuse = true;
    let m = run_prog(SimConfig::with_opts(opts), |a| {
        a.li(Reg::T0, 123);
        a.li(Reg::T1, 77);
        a.li(Reg::T3, 6);
        a.label("l");
        a.mul(Reg::T2, Reg::T0, Reg::T1); // same pc, same operands
        a.addi(Reg::T3, Reg::T3, -1);
        a.bnez(Reg::T3, "l");
    });
    assert_eq!(m.reg(Reg::T2), 123 * 77);
    assert!(m.stats().reuse_hits >= 4, "later iterations memoized");
}

#[test]
fn comp_simpl_changes_mul_timing() {
    let time = |operand: u64| {
        let mut opts = OptConfig::baseline();
        opts.comp_simpl = true;
        let m = run_prog(SimConfig::with_opts(opts), |a| {
            a.li(Reg::T0, operand);
            a.li(Reg::T1, 3);
            a.li(Reg::T3, 200);
            a.label("l");
            // Dependent chain so latency accumulates.
            a.mul(Reg::T1, Reg::T1, Reg::T0);
            a.alui(pandora_isa::AluOp::Or, Reg::T1, Reg::T1, 3);
            a.addi(Reg::T3, Reg::T3, -1);
            a.bnez(Reg::T3, "l");
        });
        m.stats().cycles
    };
    let zero = time(0);
    let nonzero = time(5);
    assert!(
        zero + 100 < nonzero,
        "zero-skip must be clearly faster: {zero} vs {nonzero}"
    );
}

#[test]
fn rfc_reduces_prf_pressure() {
    // Tight PRF: producing many zeros compresses and renames faster.
    let mut cfg = SimConfig::default();
    cfg.pipeline.prf_size = 36;
    let body = |val: u64| {
        move |a: &mut Asm| {
            a.li(Reg::T0, val);
            a.li(Reg::T3, 300);
            a.label("l");
            for rd in [Reg::T1, Reg::T2, Reg::T4, Reg::T5, Reg::S2, Reg::S3] {
                a.alu(pandora_isa::AluOp::And, rd, Reg::T0, Reg::T0);
            }
            a.addi(Reg::T3, Reg::T3, -1);
            a.bnez(Reg::T3, "l");
        }
    };
    let mut on = cfg;
    on.opts.rf_compress = true;
    let compressed = {
        let m = run_prog(on, body(0));
        assert!(m.stats().rfc_shares > 0);
        m.stats().cycles
    };
    let uncompressed = {
        let m = run_prog(on, body(0xdead_beef_cafe));
        m.stats().cycles
    };
    assert!(
        compressed < uncompressed,
        "zero results compress: {compressed} vs {uncompressed}"
    );
}

#[test]
fn branch_cond_variants_execute() {
    for (cond, a_val, b_val, taken) in [
        (BranchCond::Eq, 3u64, 3u64, true),
        (BranchCond::Ne, 3, 3, false),
        (BranchCond::Ltu, 2, 3, true),
        (BranchCond::Geu, 2, 3, false),
    ] {
        let m = run_prog(SimConfig::default(), |asm| {
            asm.li(Reg::T0, a_val);
            asm.li(Reg::T1, b_val);
            asm.branch(cond, Reg::T0, Reg::T1, "yes");
            asm.li(Reg::T2, 1);
            asm.j("end");
            asm.label("yes");
            asm.li(Reg::T2, 2);
            asm.label("end");
        });
        assert_eq!(m.reg(Reg::T2), if taken { 2 } else { 1 }, "{cond:?}");
    }
}

/// Builds a program wedged by a dropped completion: a load's result
/// never arrives, so commit stalls forever while cycles keep
/// ticking — the artificial no-progress case.
fn wedged_machine(cfg: SimConfig) -> Machine {
    let mut a = Asm::new();
    a.li(Reg::T0, 100_000);
    a.label("l");
    a.ld(Reg::T1, Reg::ZERO, 0x100);
    a.addi(Reg::T0, Reg::T0, -1);
    a.bnez(Reg::T0, "l");
    a.halt();
    let p = a.assemble().unwrap();
    let mut m = Machine::new(cfg);
    m.load_program(&p);
    m.inject_faults(FaultPlan::single(50, FaultKind::DroppedCompletion));
    m
}

#[test]
fn no_progress_yields_deadlock_not_timeout() {
    let mut m = wedged_machine(SimConfig::default());
    let err = m.run(10_000_000).unwrap_err();
    let SimError::Deadlock { cycle, diagnostics } = err else {
        panic!("expected Deadlock, got {err}");
    };
    assert!(
        cycle < 1_000_000,
        "watchdog fired long before the cycle budget (at {cycle})"
    );
    assert!(diagnostics.rob_len > 0, "the wedged uop is still in the ROB");
    assert!(
        cycle - diagnostics.last_progress_cycle >= SimConfig::default().watchdog_cycles.unwrap()
    );
}

#[test]
fn disabled_watchdog_reports_timeout_instead() {
    let cfg = SimConfig {
        watchdog_cycles: None,
        ..SimConfig::default()
    };
    let mut m = wedged_machine(cfg);
    assert_eq!(m.run(30_000), Err(SimError::Timeout { cycles: 30_000 }));
}

#[test]
fn deadlock_diagnostics_render_the_stall_site() {
    let mut m = wedged_machine(SimConfig::default());
    let Err(SimError::Deadlock { diagnostics, .. }) = m.run(10_000_000) else {
        panic!("expected Deadlock");
    };
    let text = diagnostics.to_string();
    assert!(text.contains("rob"), "snapshot names the ROB: {text}");
}

#[test]
fn reset_matches_a_fresh_machine_bit_for_bit() {
    // Run an unrelated program first so every structure (caches,
    // predictors, PRF, memory) carries state, then reset and re-run the
    // reference program. Stats and registers must match a fresh machine
    // exactly — reset must not leak timing state across experiments.
    let build_noise = |a: &mut Asm| {
        a.li(Reg::T0, 99);
        a.li(Reg::T1, 40);
        a.label("l");
        a.sd(Reg::T0, Reg::T1, 0x200);
        a.ld(Reg::T2, Reg::T1, 0x200);
        a.addi(Reg::T1, Reg::T1, -8);
        a.bnez(Reg::T1, "l");
        a.halt();
    };
    let build_ref = |a: &mut Asm| {
        a.li(Reg::T0, 0);
        a.li(Reg::T1, 25);
        a.label("l");
        a.add(Reg::T0, Reg::T0, Reg::T1);
        a.sd(Reg::T0, Reg::ZERO, 0x100);
        a.ld(Reg::T2, Reg::ZERO, 0x100);
        a.addi(Reg::T1, Reg::T1, -1);
        a.bnez(Reg::T1, "l");
        a.halt();
    };
    let assemble = |build: fn(&mut Asm)| {
        let mut a = Asm::new();
        build(&mut a);
        a.assemble().unwrap()
    };
    let noise = assemble(build_noise);
    let reference = assemble(build_ref);

    let cfg = SimConfig::with_opts(OptConfig::with_silent_stores());
    let mut fresh = Machine::new(cfg);
    fresh.load_program(&reference);
    let fresh_stats = fresh.run(1_000_000).unwrap();

    let mut reused = Machine::new(cfg);
    reused.load_program(&noise);
    reused.run(1_000_000).unwrap();
    reused.reset_to(cfg);
    reused.load_program(&reference);
    let reused_stats = reused.run(1_000_000).unwrap();

    assert_eq!(fresh_stats, reused_stats, "stats must match bit-for-bit");
    for r in [Reg::T0, Reg::T1, Reg::T2] {
        assert_eq!(fresh.reg(r), reused.reg(r), "{r:?}");
    }
    assert_eq!(
        fresh.mem().read_u64(0x100).unwrap(),
        reused.mem().read_u64(0x100).unwrap()
    );
    assert_eq!(reused.mem().read_u64(0x208).unwrap(), 0, "noise wiped");
}

#[test]
fn reset_keeps_the_loaded_program() {
    let mut a = Asm::new();
    a.li(Reg::T0, 7);
    a.halt();
    let p = a.assemble().unwrap();
    let mut m = Machine::new(SimConfig::default());
    m.load_program(&p);
    m.run(10_000).unwrap();
    assert_eq!(m.reg(Reg::T0), 7);
    m.reset_to(SimConfig::default());
    assert_eq!(m.cycle(), 0);
    assert!(!m.is_halted());
    m.run(10_000).unwrap();
    assert_eq!(m.reg(Reg::T0), 7, "same program reruns after reset");
}

#[test]
fn spurious_squash_fault_is_traced_but_counts_no_squash() {
    // A straight-line program behind a missing load: no branch or
    // value squash can happen, and the ROB is full of the load's
    // dependents when the fault fires at cycle 10.
    let mut a = Asm::new();
    a.ld(Reg::T0, Reg::ZERO, 0x4000);
    for _ in 0..8 {
        a.addi(Reg::T0, Reg::T0, 1);
    }
    a.halt();
    let mut m = Machine::new(SimConfig::default());
    m.load_program(&a.assemble().unwrap());
    m.enable_trace();
    m.inject_faults(FaultPlan::single(10, FaultKind::SpuriousSquash));
    m.run(1_000_000).unwrap();
    let s = m.stats();
    assert_eq!(s.faults_injected, 1);
    assert_eq!((s.branch_squashes, s.vp_squashes), (0, 0));
    let squashes: Vec<TraceEvent> = m
        .trace()
        .events()
        .iter()
        .copied()
        .filter(|e| matches!(e, TraceEvent::Squash { .. }))
        .collect();
    assert_eq!(squashes, [TraceEvent::Squash { cycle: 10, pc: 0 }]);
    assert_eq!(m.reg(Reg::T0), 8, "the squashed window re-executes");
}

/// A stride walk over 16 pointers, each one dereferenced: the IMP
/// learns the stream and its indirection, and every loaded line holds
/// pointers the CDP chases.
fn pointer_walk(opts: OptConfig) -> Machine {
    let mut a = Asm::new();
    a.li(Reg::S0, 0x4000);
    a.li(Reg::S1, 16);
    a.label("walk");
    a.ld(Reg::T0, Reg::S0, 0);
    a.ld(Reg::T1, Reg::T0, 0);
    a.addi(Reg::S0, Reg::S0, 64);
    a.addi(Reg::S1, Reg::S1, -1);
    a.bnez(Reg::S1, "walk");
    a.halt();
    let mut m = Machine::new(SimConfig::with_opts(opts));
    m.load_program(&a.assemble().unwrap());
    for i in 0..16u64 {
        m.mem_mut()
            .write_u64(0x4000 + 64 * i, 0x8000 + 8 * i)
            .unwrap();
    }
    m.enable_trace();
    m.run(1_000_000).unwrap();
    m
}

fn deref_records(m: &Machine) -> u64 {
    let derefs = m.trace().events().iter();
    derefs
        .filter(|e| matches!(e, TraceEvent::DmpDeref { .. }))
        .count() as u64
}

#[test]
fn cdp_dereferences_are_traced_and_imp_dereferences_also_counted() {
    let cdp = pointer_walk(OptConfig {
        cdp: true,
        ..OptConfig::baseline()
    });
    assert!(cdp.stats().cdp_prefetches > 0);
    assert!(deref_records(&cdp) > 0, "the CDP's chases are traced");
    assert_eq!(cdp.stats().dmp_deref_reads, 0, "but not counted");

    let imp = pointer_walk(OptConfig::with_dmp(2));
    assert!(imp.stats().dmp_deref_reads > 0);
    assert_eq!(
        deref_records(&imp),
        imp.stats().dmp_deref_reads,
        "each IMP dereference is traced and counted"
    );
}

#[test]
fn reset_to_empties_and_disables_the_trace() {
    let mut m = pointer_walk(OptConfig::with_dmp(2));
    let events = m.trace().events();
    assert!(events
        .iter()
        .any(|e| matches!(e, TraceEvent::DmpPattern { .. })));
    assert!(events
        .iter()
        .any(|e| matches!(e, TraceEvent::DmpPrefetch { .. })));
    let cfg = *m.config();
    assert!(m.reset_to(cfg));
    assert!(m.trace().events().is_empty(), "reset_to empties the trace");
    let stats = m.run(1_000_000).unwrap();
    assert!(stats.dmp_prefetches > 0, "the rerun prefetches again");
    assert!(m.trace().events().is_empty(), "reset_to disables the trace");
}
