//! Differential testing: on any program, the out-of-order pipeline and
//! the in-order functional emulator must produce identical
//! architectural state — registers and memory — no matter which
//! optimizations are enabled. (The paper's whole point is that the
//! optimizations change *timing*, never *results*.) A checkpoint fork
//! taken at any cycle must likewise continue exactly as the straight
//! run does, timing included.

use pandora::isa::{AluOp, Asm, BranchCond, Program, Reg};
use pandora::sim::{
    traffic_program, DuoMachine, Emulator, Machine, Memory, NoiseConfig, OptConfig, ReuseKey,
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

/// The machine the fork property runs a recipe on: baseline or every
/// optimization on, quiet or under noise windowed onto the recipes'
/// store window.
fn fork_cfg(opts_on: bool, noisy: bool, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::with_opts(if opts_on {
        all_on()
    } else {
        OptConfig::baseline()
    });
    cfg.mem_size = 1 << 16;
    if noisy {
        cfg.noise = NoiseConfig::at_intensity(40, seed).with_window(0x1000, 0x1400);
    }
    cfg
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fork_at_any_cycle_matches_the_straight_run(
        r in recipe(),
        other in recipe(),
        opts_on: bool,
        noisy: bool,
        seed: u64,
        pick: u64,
    ) {
        let prog = build(&r);
        let cfg = fork_cfg(opts_on, noisy, seed);
        let mut straight = Machine::new(cfg);
        straight.load_program(&prog);
        straight.enable_trace();
        let total = straight.run(10_000_000).expect("straight run completes").cycles;

        // Step a second machine to a random cycle of the run and fork.
        let fork_at = pick % total;
        let mut donor = Machine::new(cfg);
        donor.load_program(&prog);
        donor.enable_trace();
        while donor.cycle() < fork_at {
            donor.step().expect("prefix steps");
        }
        let ck = donor.snapshot();

        // One fork lands on a machine that ran another program, traced,
        // under the opposite config; the other is built from the
        // checkpoint.
        let mut dirty = Machine::new(fork_cfg(!opts_on, !noisy, !seed));
        dirty.load_program(&build(&other));
        dirty.enable_trace();
        dirty.run(10_000_000).expect("dirtying run completes");
        dirty.restore(&ck);
        let forks = [("restore", dirty), ("from_checkpoint", Machine::from_checkpoint(&ck))];
        for (how, mut m) in forks {
            m.run(10_000_000).expect("forked run completes");
            let at = format!("{how} at cycle {fork_at} of {total}");
            prop_assert_eq!(m.stats(), straight.stats(), "stats after {}", at);
            prop_assert_eq!(
                m.trace().events(),
                straight.trace().events(),
                "trace after {}",
                at
            );
            for reg in Reg::all() {
                prop_assert_eq!(m.reg(reg), straight.reg(reg), "register {} after {}", reg, at);
            }
            prop_assert_eq!(
                m.mem().read_bytes(0x1000, 0x200).unwrap(),
                straight.mem().read_bytes(0x1000, 0x200).unwrap(),
                "bytes 0x1000..0x1200 after {}",
                at
            );
        }
    }
}
