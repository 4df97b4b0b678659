//! Differential testing: on any program, the out-of-order pipeline and
//! the in-order functional emulator must produce identical
//! architectural state — registers and memory — no matter which
//! optimizations are enabled. (The paper's whole point is that the
//! optimizations change *timing*, never *results*.)

use pandora::isa::{AluOp, Asm, BranchCond, Program, Reg};
use pandora::sim::{
    traffic_program, DuoMachine, EmuError, Emulator, Machine, Memory, OptConfig, ReuseKey,
    RfcMatch, SimConfig,
};
use proptest::prelude::*;

/// A recipe for one random-but-terminating program: straight-line ALU
/// and memory work inside a counted loop.
#[derive(Debug, Clone)]
struct Recipe {
    seeds: Vec<u64>,
    ops: Vec<(u8, u8, u8, u8)>, // (op selector, rd, rs1, rs2)
    stores: Vec<(u8, u16)>,     // (src reg, offset/8)
    iterations: u8,
}

fn recipe() -> impl Strategy<Value = Recipe> {
    (
        prop::collection::vec(any::<u64>(), 4),
        prop::collection::vec((0u8..12, 1u8..8, 1u8..8, 1u8..8), 1..20),
        prop::collection::vec((1u8..8, 0u16..64), 0..6),
        1u8..6,
    )
        .prop_map(|(seeds, ops, stores, iterations)| Recipe {
            seeds,
            ops,
            stores,
            iterations,
        })
}

fn build(r: &Recipe) -> Program {
    let regs = [
        Reg::T0,
        Reg::T1,
        Reg::T2,
        Reg::S0,
        Reg::S1,
        Reg::A0,
        Reg::A1,
        Reg::A2,
    ];
    let alu_ops = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Sll,
        AluOp::Srl,
        AluOp::Mul,
        AluOp::Divu,
        AluOp::Remu,
        AluOp::Slt,
        AluOp::Sltu,
    ];
    let mut a = Asm::new();
    for (i, &s) in r.seeds.iter().enumerate() {
        a.li(regs[i], s);
    }
    a.li(Reg::T6, u64::from(r.iterations));
    a.label("loop");
    for &(op, rd, rs1, rs2) in &r.ops {
        a.alu(
            alu_ops[op as usize % alu_ops.len()],
            regs[rd as usize % 8],
            regs[rs1 as usize % 8],
            regs[rs2 as usize % 8],
        );
    }
    for &(src, off) in &r.stores {
        a.sd(regs[src as usize % 8], Reg::ZERO, 0x1000 + 8 * i64::from(off));
        a.ld(regs[src as usize % 8], Reg::ZERO, 0x1000 + 8 * i64::from(off));
    }
    a.addi(Reg::T6, Reg::T6, -1);
    a.branch(BranchCond::Ne, Reg::T6, Reg::ZERO, "loop");
    a.halt();
    a.assemble().expect("generated program assembles")
}

fn all_on() -> OptConfig {
    OptConfig {
        silent_stores: true,
        comp_simpl: true,
        fp_subnormal: true,
        operand_packing: true,
        comp_reuse: true,
        reuse_key: ReuseKey::Values,
        reuse_entries: 16,
        reuse_simple_alu: true,
        value_pred: true,
        vp_confidence: 2,
        vp_kind: pandora::sim::VpKind::Stride,
        rf_compress: true,
        rfc_match: RfcMatch::Any,
        dmp: true,
        dmp_levels: 3,
        dmp_distance: 4,
        dmp_fill: pandora::sim::PrefetchFill::AllLevels,
        cdp: true,
    }
}

fn check(r: &Recipe, opts: OptConfig) {
    let prog = build(r);
    let mut emu = Emulator::new(Memory::new(1 << 16));
    emu.run(&prog, 1_000_000).expect("emulator completes");

    let mut cfg = SimConfig::with_opts(opts);
    cfg.mem_size = 1 << 16;
    let mut m = Machine::new(cfg);
    m.load_program(&prog);
    m.run(10_000_000).expect("pipeline completes");

    for reg in Reg::all() {
        assert_eq!(
            m.reg(reg),
            emu.reg(reg),
            "register {reg} diverged on {r:?}"
        );
    }
    for off in 0..64u64 {
        let addr = 0x1000 + 8 * off;
        assert_eq!(
            m.mem().read_u64(addr).unwrap(),
            emu.mem().read_u64(addr).unwrap(),
            "memory {addr:#x} diverged on {r:?}"
        );
    }
}

/// Asserts one [`DuoMachine`] core's architectural state equals its
/// in-order reference.
fn check_core(name: &str, m: &Machine, emu: &Emulator, context: &dyn std::fmt::Debug) {
    for reg in Reg::all() {
        assert_eq!(
            m.reg(reg),
            emu.reg(reg),
            "core {name} register {reg} diverged on {context:?}"
        );
    }
    for off in 0..64u64 {
        let addr = 0x1000 + 8 * off;
        assert_eq!(
            m.mem().read_u64(addr).unwrap(),
            emu.mem().read_u64(addr).unwrap(),
            "core {name} memory {addr:#x} diverged on {context:?}"
        );
    }
}

/// Runs two recipes on a [`DuoMachine`] — both cores hammer the same
/// addresses, so every load and store rides the shared-L2 path under
/// cross-core interference — and cross-checks each core against its
/// own emulator run. Sharing must perturb timing only, never results.
fn check_duo(ra: &Recipe, rb: &Recipe, opts: OptConfig) {
    let (pa, pb) = (build(ra), build(rb));
    let emulate = |p: &Program| {
        let mut emu = Emulator::new(Memory::new(1 << 16));
        emu.run(p, 1_000_000).expect("emulator completes");
        emu
    };
    let (ea, eb) = (emulate(&pa), emulate(&pb));

    let mut cfg = SimConfig::with_opts(opts);
    cfg.mem_size = 1 << 16;
    let machine = |p: &Program| {
        let mut m = Machine::new(cfg);
        m.load_program(p);
        m
    };
    let mut duo = DuoMachine::new(machine(&pa), machine(&pb));
    duo.run(10_000_000).expect("duo completes");
    check_core("A", duo.core_a(), &ea, &(ra, rb));
    check_core("B", duo.core_b(), &eb, &(ra, rb));
}

#[test]
fn traffic_corunner_matches_emulator_on_both_cores() {
    // The noise subsystem's co-runner traffic generator is itself a
    // legal program: run it on core B against a random-ish workload on
    // core A and cross-check both cores' architectural state.
    let victim = build(&Recipe {
        seeds: vec![3, 7, 0x1000, 0xffff_ffff],
        ops: vec![(0, 1, 2, 3), (7, 2, 1, 1), (8, 3, 2, 4)],
        stores: vec![(1, 0), (2, 5), (3, 9)],
        iterations: 5,
    });
    // The traffic span overlaps the victim's store window, so the
    // interference is real (shared L2 lines), yet results must hold.
    let traffic = traffic_program(0x0D15_EA5E, 0x1000, 0x1000, 40);

    let emulate = |p: &Program| {
        let mut emu = Emulator::new(Memory::new(1 << 16));
        emu.run(p, 1_000_000).expect("emulator completes");
        emu
    };
    let (ev, et) = (emulate(&victim), emulate(&traffic));

    let mut cfg = SimConfig::with_opts(all_on());
    cfg.mem_size = 1 << 16;
    let machine = |p: &Program| {
        let mut m = Machine::new(cfg);
        m.load_program(p);
        m
    };
    let mut duo = DuoMachine::new(machine(&victim), machine(&traffic));
    duo.run(10_000_000).expect("duo completes");
    check_core("A", duo.core_a(), &ev, &"victim vs traffic");
    check_core("B", duo.core_b(), &et, &"victim vs traffic");
    // And the traffic generator's own stores land identically.
    for off in (0..0x1000u64).step_by(64) {
        let addr = 0x1000 + off;
        assert_eq!(
            duo.core_b().mem().read_u64(addr).unwrap(),
            et.mem().read_u64(addr).unwrap(),
            "traffic store at {addr:#x} diverged"
        );
    }
}

/// Builds a two-tier program: a timing-free warm-up prefix, then a
/// measured suffix. Returns `(program, boundary_pc, prefix_rdcycle_pc)`
/// where the last is `Some(pc)` when a `rdcycle` was planted inside the
/// prefix to violate the handoff contract.
fn two_tier_program(rdcycle_in_prefix: bool) -> (Program, usize, Option<usize>) {
    let mut a = Asm::new();
    a.li(Reg::T0, 0);
    a.li(Reg::T1, 40);
    a.label("warm");
    a.add(Reg::T0, Reg::T0, Reg::T1);
    a.sd(Reg::T0, Reg::ZERO, 0x2000);
    a.ld(Reg::T2, Reg::ZERO, 0x2000);
    a.addi(Reg::T1, Reg::T1, -1);
    a.bnez(Reg::T1, "warm");
    let poison = if rdcycle_in_prefix {
        let pc = a.here();
        a.rdcycle(Reg::A0);
        Some(pc)
    } else {
        None
    };
    let boundary = a.here();
    // Suffix: timing measurement is legal on the cycle-accurate side.
    a.rdcycle(Reg::A1);
    a.ld(Reg::T3, Reg::ZERO, 0x2000);
    a.add(Reg::T3, Reg::T3, Reg::T0);
    a.sd(Reg::T3, Reg::ZERO, 0x2008);
    a.fence();
    a.rdcycle(Reg::A2);
    a.sub(Reg::A2, Reg::A2, Reg::A1);
    a.halt();
    (a.assemble().unwrap(), boundary, poison)
}

#[test]
fn fast_forward_rejects_rdcycle_in_prefix() {
    // The emulator's timer counts instructions, the pipeline's counts
    // noise-quantized cycles: a rdcycle inside the fast-forward region
    // would hand the measured suffix a poisoned baseline, so the
    // handoff contract rejects it at the exact pc.
    let (prog, boundary, poison) = two_tier_program(true);
    let err = Machine::fast_forward(SimConfig::default(), &prog, boundary, 1_000_000)
        .expect_err("prefix rdcycle must be rejected");
    assert_eq!(err, EmuError::RdCycleInPrefix { pc: poison.unwrap() });

    // The same program is still legal for a whole-pipeline run (the
    // contract governs only the functional tier)...
    let mut m = Machine::new(SimConfig::default());
    m.load_program(&prog);
    m.run(10_000_000).expect("full pipeline run completes");
    // ...and for a fast-forward whose boundary stops short of it.
    Machine::fast_forward(SimConfig::default(), &prog, poison.unwrap(), 1_000_000)
        .expect("boundary before the rdcycle is fine");
}

#[test]
fn fast_forward_matches_pipeline_and_emulator_architecturally() {
    let (prog, boundary, _) = two_tier_program(false);

    let mut emu = Emulator::new(Memory::new(SimConfig::default().mem_size));
    emu.run(&prog, 1_000_000).expect("emulator completes");

    let mut full = Machine::new(SimConfig::default());
    full.load_program(&prog);
    let full_stats = full.run(10_000_000).expect("full run completes");

    let mut ff = Machine::fast_forward(SimConfig::default(), &prog, boundary, 1_000_000)
        .expect("fast-forward succeeds");
    let ff_stats = ff.run(10_000_000).expect("resumed run completes");

    // Timer-derived registers (A1/A2) are excluded: instruction counts
    // vs cycle counts vs suffix-only cycle counts all legitimately
    // differ. Everything else must agree three ways.
    for reg in Reg::all().filter(|r| !matches!(*r, Reg::A1 | Reg::A2)) {
        assert_eq!(ff.reg(reg), emu.reg(reg), "register {reg} vs emulator");
        assert_eq!(ff.reg(reg), full.reg(reg), "register {reg} vs pipeline");
    }
    for addr in [0x2000u64, 0x2008] {
        assert_eq!(ff.mem().read_u64(addr).unwrap(), emu.mem().read_u64(addr).unwrap());
        assert_eq!(ff.mem().read_u64(addr).unwrap(), full.mem().read_u64(addr).unwrap());
    }
    // The measured suffix observed real (positive) elapsed cycles on
    // both pipeline runs.
    assert!(ff.reg(Reg::A2) > 0, "suffix rdcycle delta is live");
    assert!(full.reg(Reg::A2) > 0);
    // And the fast-forwarded run actually skipped the prefix on the
    // cycle-accurate tier.
    assert!(
        ff_stats.committed < full_stats.committed / 2,
        "prefix must not replay on the pipeline: ff committed {} vs full {}",
        ff_stats.committed,
        full_stats.committed
    );
    assert!(ff_stats.cycles < full_stats.cycles);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pipeline_matches_emulator_on_baseline(r in recipe()) {
        check(&r, OptConfig::baseline());
    }

    #[test]
    fn pipeline_matches_emulator_with_every_optimization_on(r in recipe()) {
        check(&r, all_on());
    }

    #[test]
    fn pipeline_matches_emulator_with_sn_reuse(r in recipe()) {
        let mut opts = all_on();
        opts.reuse_key = ReuseKey::RegIds;
        check(&r, opts);
    }

    #[test]
    fn duo_cores_match_emulator_with_shared_l2(ra in recipe(), rb in recipe()) {
        // Both recipes store into the same 0x1000 window, so the
        // shared L2 sees cross-core hits/evictions on the same lines.
        check_duo(&ra, &rb, all_on());
    }

    #[test]
    fn optimizations_never_change_architectural_results(r in recipe()) {
        // Compare the two machines directly as well, for memory beyond
        // the probed window.
        let prog = build(&r);
        let run = |opts: OptConfig| {
            let mut cfg = SimConfig::with_opts(opts);
            cfg.mem_size = 1 << 16;
            let mut m = Machine::new(cfg);
            m.load_program(&prog);
            m.run(10_000_000).expect("completes");
            let regs: Vec<u64> = Reg::all().map(|x| m.reg(x)).collect();
            let mem = m.mem().read_bytes(0x1000, 512).unwrap().to_vec();
            (regs, mem)
        };
        prop_assert_eq!(run(OptConfig::baseline()), run(all_on()));
    }
}
