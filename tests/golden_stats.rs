//! Golden-stats regression harness: pins the simulator's observable
//! behaviour — full [`SimStats`], store timelines, and structured
//! errors — for the fig4/fig5/fig6 workloads and a per-optimization
//! microprogram, with and without fault injection.
//!
//! The golden values below were captured on the pre-refactor monolithic
//! `Machine::step` (PR 1 tree) and must be reproduced **bit for bit**
//! by the stage-decomposed pipeline: any drift in cycles, stat
//! counters, trace events or error rendering is a refactor bug, not an
//! acceptable variation.
//!
//! To regenerate after an *intentional* behaviour change:
//!
//! ```text
//! GOLDEN_PRINT=1 cargo test --test golden_stats -- --nocapture
//! ```
//!
//! which prints paste-ready `const` declarations instead of asserting.

use pandora_attacks::{AmplifyGadget, BsaesAttack, FlushKind};
use pandora_isa::{Asm, FpOp, Reg};
use pandora_sim::{
    FaultKind, FaultPlan, Machine, NoiseConfig, OptConfig, ReuseKey, RfcMatch, SimConfig,
    SimError, SimStats, TraceEvent, VpKind,
};

fn printing() -> bool {
    std::env::var_os("GOLDEN_PRINT").is_some()
}

fn check_stats(name: &str, got: &SimStats, want: &SimStats) {
    if printing() {
        println!("const {name}: SimStats = {got:?};");
        return;
    }
    assert_eq!(got, want, "{name} drifted from the pre-refactor capture");
}

fn check_str(name: &str, got: &str, want: &str) {
    if printing() {
        println!("const {name}: &str = {got:?};");
        return;
    }
    assert_eq!(got, want, "{name} drifted from the pre-refactor capture");
}

// ---------------------------------------------------------------------
// Fig 4: the four silent-store action sequences (A–D).
// ---------------------------------------------------------------------

const TARGET: u64 = 0x1_0000;

/// Replicates the fig4_cases bench-bin runner: program + fence + halt
/// on a silent-store machine with tracing on.
fn fig4(build: impl FnOnce(&mut Asm) -> usize, setup: impl FnOnce(&mut Machine)) -> (usize, Machine) {
    let mut a = Asm::new();
    let store_pc = build(&mut a);
    a.fence();
    a.halt();
    let prog = a.assemble().expect("fig4 program assembles");
    let mut m = Machine::new(SimConfig::with_opts(OptConfig::with_silent_stores()));
    m.enable_trace();
    m.load_program(&prog);
    setup(&mut m);
    m.run(1_000_000).expect("fig4 program completes");
    (store_pc, m)
}

fn fig4_check(case: &str, stats_want: &SimStats, timeline_want: &str, store_pc: usize, m: &Machine) {
    check_stats(&format!("FIG4_{case}_STATS"), m.stats(), stats_want);
    let timeline = format!("{:?}", m.trace().store_timeline(store_pc));
    check_str(&format!("FIG4_{case}_TIMELINE"), &timeline, timeline_want);
}

#[test]
fn golden_fig4_case_a_silent() {
    let (pc, m) = fig4(
        |a| {
            a.ld(Reg::T0, Reg::ZERO, TARGET as i64);
            a.fence();
            a.li(Reg::T0, 42);
            let pc = a.here();
            a.sd(Reg::T0, Reg::ZERO, TARGET as i64);
            pc
        },
        |m| m.mem_mut().write_u64(TARGET, 42).expect("in memory"),
    );
    fig4_check("A", &FIG4_A_STATS, FIG4_A_TIMELINE, pc, &m);
}

#[test]
fn golden_fig4_case_b_value_mismatch() {
    let (pc, m) = fig4(
        |a| {
            a.ld(Reg::T0, Reg::ZERO, TARGET as i64);
            a.fence();
            a.li(Reg::T0, 43);
            let pc = a.here();
            a.sd(Reg::T0, Reg::ZERO, TARGET as i64);
            pc
        },
        |m| m.mem_mut().write_u64(TARGET, 42).expect("in memory"),
    );
    fig4_check("B", &FIG4_B_STATS, FIG4_B_TIMELINE, pc, &m);
}

#[test]
fn golden_fig4_case_c_no_load_port() {
    let (pc, m) = fig4(
        |a| {
            a.li(Reg::T0, 42);
            let pc = a.here();
            a.sd(Reg::T0, Reg::ZERO, TARGET as i64);
            for i in 0..24i64 {
                a.ld(Reg::T1, Reg::ZERO, 0x2_0000 + 64 * i);
            }
            pc
        },
        |m| m.mem_mut().write_u64(TARGET, 42).expect("in memory"),
    );
    fig4_check("C", &FIG4_C_STATS, FIG4_C_TIMELINE, pc, &m);
}

#[test]
fn golden_fig4_case_d_late_ss_load() {
    let (pc, m) = fig4(
        |a| {
            a.li(Reg::T0, 42);
            let pc = a.here();
            a.sd(Reg::T0, Reg::ZERO, TARGET as i64);
            pc
        },
        |m| m.mem_mut().write_u64(TARGET, 42).expect("in memory"),
    );
    fig4_check("D", &FIG4_D_STATS, FIG4_D_TIMELINE, pc, &m);
}

// ---------------------------------------------------------------------
// Fig 5: the amplification gadget, all variants and core ablations.
// ---------------------------------------------------------------------

const DELAY: u64 = 0x8_0000;

/// Replicates the fig5_amplification bench-bin experiment and returns
/// the finished machine (callers read stats or inspect errors).
fn fig5(
    cfg: SimConfig,
    kind: Option<FlushKind>,
    old: u64,
    new: u64,
    faults: Option<FaultPlan>,
) -> Result<Machine, SimError> {
    let mut m = fig5_machine(cfg, kind, old, new);
    if let Some(plan) = faults {
        m.inject_faults(plan);
    }
    m.run(1_000_000)?;
    Ok(m)
}

/// The fig5 machine with its program and memory in place, not yet run.
fn fig5_machine(cfg: SimConfig, kind: Option<FlushKind>, old: u64, new: u64) -> Machine {
    let gadget = kind.map(|k| AmplifyGadget::new(&cfg, TARGET, DELAY, k));
    let mut a = Asm::new();
    a.ld(Reg::T0, Reg::ZERO, TARGET as i64);
    for i in 1..6i64 {
        a.ld(Reg::T0, Reg::ZERO, (TARGET + 0x1000) as i64 + 64 * i);
    }
    a.fence();
    a.li(Reg::T0, new);
    if let Some(g) = &gadget {
        g.emit(&mut a);
    }
    a.sd(Reg::T0, Reg::ZERO, TARGET as i64);
    for i in 1..6i64 {
        a.sd(Reg::T0, Reg::ZERO, (TARGET + 0x1000) as i64 + 64 * i);
    }
    a.fence();
    a.halt();
    let prog = a.assemble().expect("fig5 program assembles");
    let mut m = Machine::new(cfg);
    m.load_program(&prog);
    m.mem_mut().write_u64(TARGET, old).expect("in memory");
    if let Some(g) = &gadget {
        g.setup_memory(m.mem_mut());
        g.setup_memory_flush_variant(m.mem_mut());
    }
    m
}

#[test]
fn golden_fig5_gadget_matrix() {
    let base = SimConfig::with_opts(OptConfig::with_silent_stores());
    let cases: [(&str, Option<FlushKind>, u64, &SimStats); 6] = [
        ("FIG5_CONTROL_SILENT", None, 42, &FIG5_CONTROL_SILENT),
        ("FIG5_CONTROL_LOUD", None, 41, &FIG5_CONTROL_LOUD),
        (
            "FIG5_CONTENTION_SILENT",
            Some(FlushKind::Contention),
            42,
            &FIG5_CONTENTION_SILENT,
        ),
        (
            "FIG5_CONTENTION_LOUD",
            Some(FlushKind::Contention),
            41,
            &FIG5_CONTENTION_LOUD,
        ),
        (
            "FIG5_FLUSH_SILENT",
            Some(FlushKind::FlushInstr),
            42,
            &FIG5_FLUSH_SILENT,
        ),
        (
            "FIG5_FLUSH_LOUD",
            Some(FlushKind::FlushInstr),
            41,
            &FIG5_FLUSH_LOUD,
        ),
    ];
    for (name, kind, old, want) in cases {
        let m = fig5(base, kind, old, 42, None).expect("fig5 completes");
        check_stats(name, m.stats(), want);
    }
}

#[test]
fn golden_fig5_core_ablation() {
    let cases: [(&str, SimConfig, u64, &SimStats); 4] = [
        (
            "FIG5_LITTLE_SILENT",
            SimConfig::little_core(),
            42,
            &FIG5_LITTLE_SILENT,
        ),
        (
            "FIG5_LITTLE_LOUD",
            SimConfig::little_core(),
            41,
            &FIG5_LITTLE_LOUD,
        ),
        ("FIG5_BIG_SILENT", SimConfig::big_core(), 42, &FIG5_BIG_SILENT),
        ("FIG5_BIG_LOUD", SimConfig::big_core(), 41, &FIG5_BIG_LOUD),
    ];
    for (name, mut cfg, old, want) in cases {
        cfg.opts = OptConfig::with_silent_stores();
        let m = fig5(cfg, Some(FlushKind::Contention), old, 42, None).expect("fig5 completes");
        check_stats(name, m.stats(), want);
    }
}

#[test]
fn golden_fig5_under_random_faults() {
    let base = SimConfig::with_opts(OptConfig::with_silent_stores());
    let plan = FaultPlan::random(0xfeed, 24, 1..600, 0x1_0000..0x1_0800);
    let m = fig5(base, Some(FlushKind::Contention), 41, 42, Some(plan))
        .expect("disturbed fig5 still completes");
    check_stats("FIG5_FAULTED", m.stats(), &FIG5_FAULTED);
}

#[test]
fn golden_fig5_under_pinned_seed_noise() {
    // The seed-driven environmental noise model must be exactly as
    // reproducible as the quiet machine: a pinned seed pins the whole
    // SimStats, noise events included. Paranoid invariant checking is
    // enabled to pin (and prove) that a disturbed-but-legal run passes
    // every pipeline invariant without perturbing the stats.
    let mut base = SimConfig::with_opts(OptConfig::with_silent_stores());
    base.noise = NoiseConfig::at_intensity(30, 0xfeed).with_window(0x1_0000, 0x2_0000);
    base.paranoid_checks = true;
    let m = fig5(base, Some(FlushKind::Contention), 41, 42, None)
        .expect("noisy fig5 still completes");
    assert!(m.stats().noise_events > 0, "the noise hook must have fired");
    check_stats("FIG5_NOISY", m.stats(), &FIG5_NOISY);
}

/// The fig5 workload forked at the warm-prefix boundary instead of run
/// straight through: program and gadget memory are baked into a
/// checkpoint *before* `TARGET` holds the trial value, then the
/// per-trial `old` is written after the fork and the continuation runs
/// to halt. `recycled` (when primed by a previous case) is restored
/// over rather than replaced, exercising the fleet pool's dirty-slot
/// path on every case after the first.
fn fig5_forked(
    cfg: SimConfig,
    kind: Option<FlushKind>,
    old: u64,
    new: u64,
    recycled: &mut Option<Machine>,
) -> Machine {
    let gadget = kind.map(|k| AmplifyGadget::new(&cfg, TARGET, DELAY, k));
    let mut a = Asm::new();
    a.ld(Reg::T0, Reg::ZERO, TARGET as i64);
    for i in 1..6i64 {
        a.ld(Reg::T0, Reg::ZERO, (TARGET + 0x1000) as i64 + 64 * i);
    }
    a.fence();
    a.li(Reg::T0, new);
    if let Some(g) = &gadget {
        g.emit(&mut a);
    }
    a.sd(Reg::T0, Reg::ZERO, TARGET as i64);
    for i in 1..6i64 {
        a.sd(Reg::T0, Reg::ZERO, (TARGET + 0x1000) as i64 + 64 * i);
    }
    a.fence();
    a.halt();
    let prog = a.assemble().expect("fig5 program assembles");
    let mut warm = Machine::new(cfg);
    warm.load_program(&prog);
    if let Some(g) = &gadget {
        g.setup_memory(warm.mem_mut());
        g.setup_memory_flush_variant(warm.mem_mut());
    }
    // Six warm loads + the fence = seven committed instructions.
    warm.run_until_committed(7, 1_000_000).expect("warm prefix completes");
    let ck = warm.snapshot();
    assert!(ck.cycle() > 0, "the boundary must be mid-run, not cycle 0");

    let mut m = match recycled.take() {
        Some(mut m) => {
            m.restore(&ck);
            m
        }
        None => Machine::from_checkpoint(&ck),
    };
    m.mem_mut().write_u64(TARGET, old).expect("in memory");
    m.run(1_000_000).expect("forked continuation completes");

    // Prove snapshotting was pure: the warm donor, continued past the
    // same per-trial write, must land on the same stats as the fork.
    warm.mem_mut().write_u64(TARGET, old).expect("in memory");
    warm.run(1_000_000).expect("snapshot donor continuation completes");
    assert_eq!(
        warm.stats(),
        m.stats(),
        "taking a snapshot perturbed the donor machine"
    );

    // Hand the finished donor back as the next case's dirty pool slot.
    *recycled = Some(warm);
    m
}

/// Mid-run fork gate for the checkpoint subsystem: every pinned fig5
/// configuration, forked at the warm-prefix boundary with the trial
/// value written *after* the fork, must reproduce the straight-run
/// golden capture bit for bit — including the noisy config, whose RNG
/// streams must resume mid-sequence rather than rewind.
#[test]
fn golden_fig5_checkpoint_boundary_matches_straight_run() {
    let base = SimConfig::with_opts(OptConfig::with_silent_stores());
    let mut noisy = base;
    noisy.noise = NoiseConfig::at_intensity(30, 0xfeed).with_window(0x1_0000, 0x2_0000);
    noisy.paranoid_checks = true;
    let mut little = SimConfig::little_core();
    little.opts = OptConfig::with_silent_stores();
    let mut big = SimConfig::big_core();
    big.opts = OptConfig::with_silent_stores();

    let cases: [(&str, SimConfig, Option<FlushKind>, u64, &SimStats); 11] = [
        ("FIG5_CONTROL_SILENT", base, None, 42, &FIG5_CONTROL_SILENT),
        ("FIG5_CONTROL_LOUD", base, None, 41, &FIG5_CONTROL_LOUD),
        (
            "FIG5_CONTENTION_SILENT",
            base,
            Some(FlushKind::Contention),
            42,
            &FIG5_CONTENTION_SILENT,
        ),
        (
            "FIG5_CONTENTION_LOUD",
            base,
            Some(FlushKind::Contention),
            41,
            &FIG5_CONTENTION_LOUD,
        ),
        (
            "FIG5_FLUSH_SILENT",
            base,
            Some(FlushKind::FlushInstr),
            42,
            &FIG5_FLUSH_SILENT,
        ),
        (
            "FIG5_FLUSH_LOUD",
            base,
            Some(FlushKind::FlushInstr),
            41,
            &FIG5_FLUSH_LOUD,
        ),
        (
            "FIG5_LITTLE_SILENT",
            little,
            Some(FlushKind::Contention),
            42,
            &FIG5_LITTLE_SILENT,
        ),
        (
            "FIG5_LITTLE_LOUD",
            little,
            Some(FlushKind::Contention),
            41,
            &FIG5_LITTLE_LOUD,
        ),
        (
            "FIG5_BIG_SILENT",
            big,
            Some(FlushKind::Contention),
            42,
            &FIG5_BIG_SILENT,
        ),
        (
            "FIG5_BIG_LOUD",
            big,
            Some(FlushKind::Contention),
            41,
            &FIG5_BIG_LOUD,
        ),
        (
            "FIG5_NOISY",
            noisy,
            Some(FlushKind::Contention),
            41,
            &FIG5_NOISY,
        ),
    ];
    let mut recycled = None;
    for (name, cfg, kind, old, want) in cases {
        let m = fig5_forked(cfg, kind, old, 42, &mut recycled);
        if !printing() {
            assert_eq!(
                m.stats(),
                want,
                "{name} forked at the checkpoint boundary drifted from the straight-run capture"
            );
        }
    }
}

#[test]
fn golden_fig5_dropped_completion_deadlocks() {
    let base = SimConfig::with_opts(OptConfig::with_silent_stores());
    let plan = FaultPlan::single(40, FaultKind::DroppedCompletion);
    let err = fig5(base, Some(FlushKind::Contention), 41, 42, Some(plan))
        .expect_err("a dropped completion must wedge the pipeline");
    assert!(matches!(err, SimError::Deadlock { .. }), "got {err}");
    check_str("FIG5_DEADLOCK_RENDERING", &err.to_string(), FIG5_DEADLOCK_RENDERING);
}

// ---------------------------------------------------------------------
// Per-optimization microprogram: one loop touching every Table I class.
// ---------------------------------------------------------------------

const STRIDE_BASE: u64 = 0x4000;
const DEREF_BASE: u64 = 0x6000;
const PTR_LINE: u64 = 0x5000;
const ITERS: u64 = 12;

/// A single microprogram whose loop body exercises every optimization
/// class at once: stride-walking loads feeding a dependent dereference
/// (DMP streams + correlation), constant-value loads (value
/// prediction), `mul`/`divu`/`fp` work with trivial and loop-invariant
/// operands (simplification, reuse, subnormal FP), an always-zero ALU
/// result (RFC, operand packing) stored over zeroed memory (silent
/// stores), and a final load of a pointer-dense line (CDP).
fn opt_micro(opts: OptConfig) -> Result<SimStats, SimError> {
    let mut m = opt_micro_machine(opts);
    m.run(1_000_000)?;
    Ok(*m.stats())
}

/// The microprogram's machine with its program and memory in place,
/// not yet run.
fn opt_micro_machine(opts: OptConfig) -> Machine {
    let mut a = Asm::new();
    a.li(Reg::S0, STRIDE_BASE);
    a.li(Reg::S1, 0);
    a.li(Reg::S2, ITERS);
    a.li(Reg::T4, 8);
    a.li(Reg::A1, 0x3FF8_0000_0000_0000); // 1.5_f64
    a.li(Reg::A2, 1); // smallest subnormal f64
    a.label("loop");
    a.ld(Reg::T0, Reg::S0, 0); // stride stream; loads a pointer
    a.ld(Reg::T1, Reg::T0, 0); // dependent deref (always 42)
    a.mul(Reg::T2, Reg::T1, Reg::S1);
    a.divu(Reg::T3, Reg::T2, Reg::T4);
    a.mul(Reg::A4, Reg::T1, Reg::T4); // loop-invariant: reusable
    a.fp(FpOp::Add, Reg::A0, Reg::A1, Reg::A2);
    a.and(Reg::A3, Reg::S1, Reg::ZERO); // trivial ALU, result 0
    a.sd(Reg::A3, Reg::S0, 8); // stores 0 over zeroed memory
    a.addi(Reg::S0, Reg::S0, 64);
    a.addi(Reg::S1, Reg::S1, 1);
    a.bne(Reg::S1, Reg::S2, "loop");
    a.ld(Reg::T5, Reg::ZERO, PTR_LINE as i64); // pointer-dense line
    a.fence();
    a.halt();
    let prog = a.assemble().expect("opt microprogram assembles");
    let mut m = Machine::new(SimConfig::with_opts(opts));
    m.load_program(&prog);
    for i in 0..ITERS {
        m.mem_mut()
            .write_u64(STRIDE_BASE + 64 * i, DEREF_BASE + 8 * i)
            .expect("in memory");
        m.mem_mut()
            .write_u64(DEREF_BASE + 8 * i, 42)
            .expect("in memory");
    }
    for k in 0..8u64 {
        m.mem_mut()
            .write_u64(PTR_LINE + 8 * k, DEREF_BASE + 64 * k)
            .expect("in memory");
    }
    m
}

#[test]
fn golden_per_optimization_matrix() {
    let b = OptConfig::baseline();
    let configs: [(&str, OptConfig, &SimStats); 13] = [
        ("OPT_BASELINE", b, &OPT_BASELINE),
        (
            "OPT_SILENT_STORES",
            OptConfig {
                silent_stores: true,
                ..b
            },
            &OPT_SILENT_STORES,
        ),
        (
            "OPT_COMP_SIMPL",
            OptConfig {
                comp_simpl: true,
                fp_subnormal: true,
                ..b
            },
            &OPT_COMP_SIMPL,
        ),
        (
            "OPT_PACKING",
            OptConfig {
                operand_packing: true,
                ..b
            },
            &OPT_PACKING,
        ),
        (
            "OPT_REUSE_VALUES",
            OptConfig {
                comp_reuse: true,
                ..b
            },
            &OPT_REUSE_VALUES,
        ),
        (
            "OPT_REUSE_REGIDS",
            OptConfig {
                comp_reuse: true,
                reuse_key: ReuseKey::RegIds,
                ..b
            },
            &OPT_REUSE_REGIDS,
        ),
        (
            "OPT_VP_LAST_VALUE",
            OptConfig {
                value_pred: true,
                ..b
            },
            &OPT_VP_LAST_VALUE,
        ),
        (
            "OPT_VP_STRIDE",
            OptConfig {
                value_pred: true,
                vp_kind: VpKind::Stride,
                ..b
            },
            &OPT_VP_STRIDE,
        ),
        (
            "OPT_RFC_ZERO_ONE",
            OptConfig {
                rf_compress: true,
                ..b
            },
            &OPT_RFC_ZERO_ONE,
        ),
        (
            "OPT_RFC_ANY",
            OptConfig {
                rf_compress: true,
                rfc_match: RfcMatch::Any,
                ..b
            },
            &OPT_RFC_ANY,
        ),
        ("OPT_DMP", OptConfig::with_dmp(2), &OPT_DMP),
        ("OPT_CDP", OptConfig { cdp: true, ..b }, &OPT_CDP),
        ("OPT_ALL", all_opts(), &OPT_ALL),
    ];
    for (name, opts, want) in configs {
        let got = opt_micro(opts).expect("microprogram completes");
        check_stats(name, &got, want);
    }
}

fn all_opts() -> OptConfig {
    OptConfig {
        silent_stores: true,
        comp_simpl: true,
        fp_subnormal: true,
        operand_packing: true,
        comp_reuse: true,
        value_pred: true,
        rf_compress: true,
        dmp: true,
        cdp: true,
        ..OptConfig::baseline()
    }
}

#[test]
fn golden_microprogram_under_random_faults() {
    let plan = FaultPlan::random(0x5eed, 16, 1..200, STRIDE_BASE..PTR_LINE);
    let mut m = Machine::new(SimConfig::with_opts(all_opts()));
    let mut a = Asm::new();
    a.li(Reg::S0, STRIDE_BASE);
    a.li(Reg::S1, 0);
    a.li(Reg::S2, ITERS);
    a.li(Reg::T4, 8);
    a.label("loop");
    a.ld(Reg::T0, Reg::S0, 0);
    a.ld(Reg::T1, Reg::T0, 0);
    a.mul(Reg::T2, Reg::T1, Reg::S1);
    a.sd(Reg::T2, Reg::S0, 8);
    a.addi(Reg::S0, Reg::S0, 64);
    a.addi(Reg::S1, Reg::S1, 1);
    a.bne(Reg::S1, Reg::S2, "loop");
    a.fence();
    a.halt();
    let prog = a.assemble().expect("faulted microprogram assembles");
    m.load_program(&prog);
    for i in 0..ITERS {
        m.mem_mut()
            .write_u64(STRIDE_BASE + 64 * i, DEREF_BASE + 8 * i)
            .expect("in memory");
    }
    m.inject_faults(plan);
    m.run(1_000_000).expect("disturbed microprogram completes");
    check_stats("OPT_FAULTED", m.stats(), &OPT_FAULTED);
}

// ---------------------------------------------------------------------
// Fig 6: one end-to-end BSAES measurement each way.
// ---------------------------------------------------------------------

#[test]
fn golden_fig6_bsaes_measurements() {
    let victim_key: [u8; 16] = std::array::from_fn(|i| (i * 13 + 7) as u8);
    let attacker_key: [u8; 16] = std::array::from_fn(|i| (i * 31 + 5) as u8);
    let victim_pt: [u8; 16] = std::array::from_fn(|i| (i * 3) as u8);
    let mut atk = BsaesAttack::new(victim_key, attacker_key, victim_pt, 0);
    let truth = atk.true_slice_value();

    let correct = atk
        .try_measure_guess(truth, Some(7919))
        .expect("correct-guess run completes");
    let incorrect = atk
        .try_measure_guess(truth ^ 0x0F0F, Some(7919))
        .expect("incorrect-guess run completes");
    check_str(
        "FIG6_CYCLES",
        &format!("correct={} incorrect={}", correct.cycles, incorrect.cycles),
        FIG6_CYCLES,
    );

    atk.set_fault_plan(Some(FaultPlan::single(200, FaultKind::DroppedCompletion)));
    let err = atk
        .try_measure_guess(truth, None)
        .expect_err("the wedge must surface as a structured error");
    assert!(matches!(err, SimError::Deadlock { .. }), "got {err}");
    check_str("FIG6_DEADLOCK_RENDERING", &err.to_string(), FIG6_DEADLOCK_RENDERING);
}

// ---------------------------------------------------------------------
// Whole traces: every record of two traced runs.
// ---------------------------------------------------------------------

/// A traced run's pin: the count and an FNV-1a digest of its records'
/// `Debug` text, one record per line, with the IMP's `DmpPattern`
/// records left out and pinned apart as their `(src_pc, dst_pc, base,
/// scale)` list, in order.
fn trace_pin(m: &Machine) -> (String, String) {
    let mut patterns = Vec::new();
    let (mut records, mut hash) = (0usize, 0xcbf2_9ce4_8422_2325_u64);
    for e in m.trace().events() {
        if let TraceEvent::DmpPattern {
            src_pc,
            dst_pc,
            base,
            scale,
            ..
        } = *e
        {
            patterns.push((src_pc, dst_pc, base, scale));
            continue;
        }
        records += 1;
        for b in format!("{e:?}\n").bytes() {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    (
        format!("{records} records, fnv1a {hash:#018x}"),
        format!("{patterns:?}"),
    )
}

/// The Fig 4 pins above cover four store timelines only; this pins
/// every record of two traced runs, so a dropped, added or reordered
/// prefetch, dereference or squash record fails too. The all-classes
/// microprogram traces stores, squashes, IMP and CDP prefetches and
/// dereferences, and confirmed IMP patterns; the noisy fig5 gadget
/// traces the amplified stores under noise.
#[test]
fn golden_whole_traces() {
    let mut m = opt_micro_machine(all_opts());
    m.enable_trace();
    m.run(1_000_000).expect("microprogram completes");
    let (records, patterns) = trace_pin(&m);
    check_str("OPT_ALL_TRACE", &records, OPT_ALL_TRACE);
    check_str("OPT_ALL_DMP_PATTERNS", &patterns, OPT_ALL_DMP_PATTERNS);

    let mut noisy = SimConfig::with_opts(OptConfig::with_silent_stores());
    noisy.noise = NoiseConfig::at_intensity(30, 0xfeed).with_window(0x1_0000, 0x2_0000);
    let mut m = fig5_machine(noisy, Some(FlushKind::Contention), 41, 42);
    m.enable_trace();
    m.run(1_000_000).expect("noisy fig5 completes");
    let (records, patterns) = trace_pin(&m);
    check_str("FIG5_NOISY_TRACE", &records, FIG5_NOISY_TRACE);
    check_str("FIG5_NOISY_DMP_PATTERNS", &patterns, "[]");
}

// ---------------------------------------------------------------------
// Golden values (captured pre-refactor; see module docs to regenerate).
// ---------------------------------------------------------------------

const FIG4_A_STATS: SimStats = SimStats { cycles: 132, committed: 6, branch_squashes: 0, vp_squashes: 0, l1_hits: 1, l2_hits: 0, dram_accesses: 1, rename_stalls_prf: 0, sq_full_stalls: 0, backend_stalls: 0, silent_stores: 1, performed_stores: 0, ss_loads: 1, ss_no_port: 0, ss_late: 0, trivial_skips: 0, mul_skips: 0, mul_strength_reductions: 0, div_early_exits: 0, fp_subnormal_slow: 0, packed_pairs: 0, reuse_hits: 0, reuse_misses: 0, vp_predictions: 0, vp_correct: 0, rfc_shares: 0, dmp_prefetches: 0, dmp_deref_reads: 0, dmp_dropped: 0, cdp_prefetches: 0, faults_injected: 0, noise_events: 0 };
const FIG4_A_TIMELINE: &str = "[StoreResolved { cycle: 127, pc: 3, addr: 65536 }, SsLoadIssued { cycle: 127, pc: 3, addr: 65536 }, SsLoadReturned { cycle: 129, pc: 3, silent: true }, StoreAtHead { cycle: 129, pc: 3 }, StoreSilentDequeue { cycle: 129, pc: 3 }]";
const FIG4_B_STATS: SimStats = SimStats { cycles: 134, committed: 6, branch_squashes: 0, vp_squashes: 0, l1_hits: 2, l2_hits: 0, dram_accesses: 1, rename_stalls_prf: 0, sq_full_stalls: 0, backend_stalls: 0, silent_stores: 0, performed_stores: 1, ss_loads: 1, ss_no_port: 0, ss_late: 0, trivial_skips: 0, mul_skips: 0, mul_strength_reductions: 0, div_early_exits: 0, fp_subnormal_slow: 0, packed_pairs: 0, reuse_hits: 0, reuse_misses: 0, vp_predictions: 0, vp_correct: 0, rfc_shares: 0, dmp_prefetches: 0, dmp_deref_reads: 0, dmp_dropped: 0, cdp_prefetches: 0, faults_injected: 0, noise_events: 0 };
const FIG4_B_TIMELINE: &str = "[StoreResolved { cycle: 127, pc: 3, addr: 65536 }, SsLoadIssued { cycle: 127, pc: 3, addr: 65536 }, SsLoadReturned { cycle: 129, pc: 3, silent: false }, StoreAtHead { cycle: 129, pc: 3 }, StoreSentToCache { cycle: 129, pc: 3, reason: ValueMismatch }, StoreDequeued { cycle: 131, pc: 3 }]";
const FIG4_C_STATS: SimStats = SimStats { cycles: 252, committed: 28, branch_squashes: 0, vp_squashes: 0, l1_hits: 0, l2_hits: 0, dram_accesses: 25, rename_stalls_prf: 0, sq_full_stalls: 0, backend_stalls: 122, silent_stores: 0, performed_stores: 1, ss_loads: 0, ss_no_port: 1, ss_late: 0, trivial_skips: 0, mul_skips: 0, mul_strength_reductions: 0, div_early_exits: 0, fp_subnormal_slow: 0, packed_pairs: 0, reuse_hits: 0, reuse_misses: 0, vp_predictions: 0, vp_correct: 0, rfc_shares: 0, dmp_prefetches: 0, dmp_deref_reads: 0, dmp_dropped: 0, cdp_prefetches: 0, faults_injected: 0, noise_events: 0 };
const FIG4_C_TIMELINE: &str = "[StoreResolved { cycle: 4, pc: 1, addr: 65536 }, StoreAtHead { cycle: 6, pc: 1 }, StoreSentToCache { cycle: 6, pc: 1, reason: NoLoadPort }, StoreDequeued { cycle: 126, pc: 1 }]";
const FIG4_D_STATS: SimStats = SimStats { cycles: 11, committed: 4, branch_squashes: 0, vp_squashes: 0, l1_hits: 1, l2_hits: 0, dram_accesses: 1, rename_stalls_prf: 0, sq_full_stalls: 0, backend_stalls: 0, silent_stores: 0, performed_stores: 1, ss_loads: 1, ss_no_port: 0, ss_late: 1, trivial_skips: 0, mul_skips: 0, mul_strength_reductions: 0, div_early_exits: 0, fp_subnormal_slow: 0, packed_pairs: 0, reuse_hits: 0, reuse_misses: 0, vp_predictions: 0, vp_correct: 0, rfc_shares: 0, dmp_prefetches: 0, dmp_deref_reads: 0, dmp_dropped: 0, cdp_prefetches: 0, faults_injected: 0, noise_events: 0 };
const FIG4_D_TIMELINE: &str = "[StoreResolved { cycle: 4, pc: 1, addr: 65536 }, SsLoadIssued { cycle: 4, pc: 1, addr: 65536 }, StoreAtHead { cycle: 6, pc: 1 }, StoreSentToCache { cycle: 6, pc: 1, reason: SsLoadLate }, StoreDequeued { cycle: 8, pc: 1 }]";
const FIG5_LITTLE_SILENT: SimStats = SimStats { cycles: 632, committed: 26, branch_squashes: 0, vp_squashes: 0, l1_hits: 10, l2_hits: 0, dram_accesses: 17, rename_stalls_prf: 0, sq_full_stalls: 243, backend_stalls: 238, silent_stores: 0, performed_stores: 6, ss_loads: 5, ss_no_port: 1, ss_late: 0, trivial_skips: 0, mul_skips: 0, mul_strength_reductions: 0, div_early_exits: 0, fp_subnormal_slow: 0, packed_pairs: 0, reuse_hits: 0, reuse_misses: 0, vp_predictions: 0, vp_correct: 0, rfc_shares: 0, dmp_prefetches: 0, dmp_deref_reads: 0, dmp_dropped: 0, cdp_prefetches: 0, faults_injected: 0, noise_events: 0 };
const FIG5_LITTLE_LOUD: SimStats = SimStats { cycles: 632, committed: 26, branch_squashes: 0, vp_squashes: 0, l1_hits: 10, l2_hits: 0, dram_accesses: 17, rename_stalls_prf: 0, sq_full_stalls: 243, backend_stalls: 238, silent_stores: 0, performed_stores: 6, ss_loads: 5, ss_no_port: 1, ss_late: 0, trivial_skips: 0, mul_skips: 0, mul_strength_reductions: 0, div_early_exits: 0, fp_subnormal_slow: 0, packed_pairs: 0, reuse_hits: 0, reuse_misses: 0, vp_predictions: 0, vp_correct: 0, rfc_shares: 0, dmp_prefetches: 0, dmp_deref_reads: 0, dmp_dropped: 0, cdp_prefetches: 0, faults_injected: 0, noise_events: 0 };
const FIG5_BIG_SILENT: SimStats = SimStats { cycles: 387, committed: 26, branch_squashes: 0, vp_squashes: 0, l1_hits: 11, l2_hits: 0, dram_accesses: 16, rename_stalls_prf: 0, sq_full_stalls: 0, backend_stalls: 0, silent_stores: 1, performed_stores: 5, ss_loads: 6, ss_no_port: 0, ss_late: 0, trivial_skips: 0, mul_skips: 0, mul_strength_reductions: 0, div_early_exits: 0, fp_subnormal_slow: 0, packed_pairs: 0, reuse_hits: 0, reuse_misses: 0, vp_predictions: 0, vp_correct: 0, rfc_shares: 0, dmp_prefetches: 0, dmp_deref_reads: 0, dmp_dropped: 0, cdp_prefetches: 0, faults_injected: 0, noise_events: 0 };
const FIG5_BIG_LOUD: SimStats = SimStats { cycles: 508, committed: 26, branch_squashes: 0, vp_squashes: 0, l1_hits: 11, l2_hits: 0, dram_accesses: 17, rename_stalls_prf: 0, sq_full_stalls: 0, backend_stalls: 0, silent_stores: 0, performed_stores: 6, ss_loads: 6, ss_no_port: 0, ss_late: 0, trivial_skips: 0, mul_skips: 0, mul_strength_reductions: 0, div_early_exits: 0, fp_subnormal_slow: 0, packed_pairs: 0, reuse_hits: 0, reuse_misses: 0, vp_predictions: 0, vp_correct: 0, rfc_shares: 0, dmp_prefetches: 0, dmp_deref_reads: 0, dmp_dropped: 0, cdp_prefetches: 0, faults_injected: 0, noise_events: 0 };
const FIG5_DEADLOCK_RENDERING: &str = "pipeline deadlock at cycle 10000: rob=7 (head seq 0 pc 0) sq=0 lq=6 prf=38/96 fetch_pc=7 last_progress=0";
const FIG5_CONTROL_SILENT: SimStats = SimStats { cycles: 149, committed: 16, branch_squashes: 0, vp_squashes: 0, l1_hits: 11, l2_hits: 0, dram_accesses: 6, rename_stalls_prf: 0, sq_full_stalls: 3, backend_stalls: 0, silent_stores: 1, performed_stores: 5, ss_loads: 6, ss_no_port: 0, ss_late: 0, trivial_skips: 0, mul_skips: 0, mul_strength_reductions: 0, div_early_exits: 0, fp_subnormal_slow: 0, packed_pairs: 0, reuse_hits: 0, reuse_misses: 0, vp_predictions: 0, vp_correct: 0, rfc_shares: 0, dmp_prefetches: 0, dmp_deref_reads: 0, dmp_dropped: 0, cdp_prefetches: 0, faults_injected: 0, noise_events: 0 };
const FIG5_CONTROL_LOUD: SimStats = SimStats { cycles: 151, committed: 16, branch_squashes: 0, vp_squashes: 0, l1_hits: 12, l2_hits: 0, dram_accesses: 6, rename_stalls_prf: 0, sq_full_stalls: 5, backend_stalls: 0, silent_stores: 0, performed_stores: 6, ss_loads: 6, ss_no_port: 0, ss_late: 0, trivial_skips: 0, mul_skips: 0, mul_strength_reductions: 0, div_early_exits: 0, fp_subnormal_slow: 0, packed_pairs: 0, reuse_hits: 0, reuse_misses: 0, vp_predictions: 0, vp_correct: 0, rfc_shares: 0, dmp_prefetches: 0, dmp_deref_reads: 0, dmp_dropped: 0, cdp_prefetches: 0, faults_injected: 0, noise_events: 0 };
const FIG5_CONTENTION_SILENT: SimStats = SimStats { cycles: 390, committed: 26, branch_squashes: 0, vp_squashes: 0, l1_hits: 11, l2_hits: 0, dram_accesses: 16, rename_stalls_prf: 0, sq_full_stalls: 242, backend_stalls: 0, silent_stores: 1, performed_stores: 5, ss_loads: 6, ss_no_port: 0, ss_late: 0, trivial_skips: 0, mul_skips: 0, mul_strength_reductions: 0, div_early_exits: 0, fp_subnormal_slow: 0, packed_pairs: 0, reuse_hits: 0, reuse_misses: 0, vp_predictions: 0, vp_correct: 0, rfc_shares: 0, dmp_prefetches: 0, dmp_deref_reads: 0, dmp_dropped: 0, cdp_prefetches: 0, faults_injected: 0, noise_events: 0 };
const FIG5_CONTENTION_LOUD: SimStats = SimStats { cycles: 511, committed: 26, branch_squashes: 0, vp_squashes: 0, l1_hits: 11, l2_hits: 0, dram_accesses: 17, rename_stalls_prf: 0, sq_full_stalls: 362, backend_stalls: 0, silent_stores: 0, performed_stores: 6, ss_loads: 6, ss_no_port: 0, ss_late: 0, trivial_skips: 0, mul_skips: 0, mul_strength_reductions: 0, div_early_exits: 0, fp_subnormal_slow: 0, packed_pairs: 0, reuse_hits: 0, reuse_misses: 0, vp_predictions: 0, vp_correct: 0, rfc_shares: 0, dmp_prefetches: 0, dmp_deref_reads: 0, dmp_dropped: 0, cdp_prefetches: 0, faults_injected: 0, noise_events: 0 };
const FIG5_FLUSH_SILENT: SimStats = SimStats { cycles: 268, committed: 18, branch_squashes: 0, vp_squashes: 0, l1_hits: 11, l2_hits: 0, dram_accesses: 7, rename_stalls_prf: 0, sq_full_stalls: 122, backend_stalls: 0, silent_stores: 1, performed_stores: 5, ss_loads: 6, ss_no_port: 0, ss_late: 0, trivial_skips: 0, mul_skips: 0, mul_strength_reductions: 0, div_early_exits: 0, fp_subnormal_slow: 0, packed_pairs: 0, reuse_hits: 0, reuse_misses: 0, vp_predictions: 0, vp_correct: 0, rfc_shares: 0, dmp_prefetches: 0, dmp_deref_reads: 0, dmp_dropped: 0, cdp_prefetches: 0, faults_injected: 0, noise_events: 0 };
const FIG5_FLUSH_LOUD: SimStats = SimStats { cycles: 389, committed: 18, branch_squashes: 0, vp_squashes: 0, l1_hits: 11, l2_hits: 0, dram_accesses: 8, rename_stalls_prf: 0, sq_full_stalls: 242, backend_stalls: 0, silent_stores: 0, performed_stores: 6, ss_loads: 6, ss_no_port: 0, ss_late: 0, trivial_skips: 0, mul_skips: 0, mul_strength_reductions: 0, div_early_exits: 0, fp_subnormal_slow: 0, packed_pairs: 0, reuse_hits: 0, reuse_misses: 0, vp_predictions: 0, vp_correct: 0, rfc_shares: 0, dmp_prefetches: 0, dmp_deref_reads: 0, dmp_dropped: 0, cdp_prefetches: 0, faults_injected: 0, noise_events: 0 };
const FIG5_NOISY: SimStats = SimStats { cycles: 511, committed: 26, branch_squashes: 0, vp_squashes: 0, l1_hits: 11, l2_hits: 0, dram_accesses: 17, rename_stalls_prf: 0, sq_full_stalls: 362, backend_stalls: 0, silent_stores: 0, performed_stores: 6, ss_loads: 6, ss_no_port: 0, ss_late: 0, trivial_skips: 0, mul_skips: 0, mul_strength_reductions: 0, div_early_exits: 0, fp_subnormal_slow: 0, packed_pairs: 0, reuse_hits: 0, reuse_misses: 0, vp_predictions: 0, vp_correct: 0, rfc_shares: 0, dmp_prefetches: 0, dmp_deref_reads: 0, dmp_dropped: 0, cdp_prefetches: 0, faults_injected: 0, noise_events: 39 };
const FIG5_FAULTED: SimStats = SimStats { cycles: 416, committed: 26, branch_squashes: 0, vp_squashes: 0, l1_hits: 13, l2_hits: 0, dram_accesses: 17, rename_stalls_prf: 0, sq_full_stalls: 257, backend_stalls: 0, silent_stores: 0, performed_stores: 6, ss_loads: 7, ss_no_port: 4, ss_late: 0, trivial_skips: 0, mul_skips: 0, mul_strength_reductions: 0, div_early_exits: 0, fp_subnormal_slow: 0, packed_pairs: 0, reuse_hits: 0, reuse_misses: 0, vp_predictions: 0, vp_correct: 0, rfc_shares: 0, dmp_prefetches: 0, dmp_deref_reads: 0, dmp_dropped: 0, cdp_prefetches: 0, faults_injected: 15, noise_events: 0 };
const FIG6_CYCLES: &str = "correct=25284 incorrect=25405";
const FIG6_DEADLOCK_RENDERING: &str = "pipeline deadlock at cycle 10200: rob=64 (head seq 184 pc 184) sq=0 lq=2 prf=96/96 fetch_pc=256 last_progress=200";
const OPT_FAULTED: SimStats = SimStats { cycles: 440, committed: 90, branch_squashes: 2, vp_squashes: 0, l1_hits: 33, l2_hits: 0, dram_accesses: 11, rename_stalls_prf: 0, sq_full_stalls: 312, backend_stalls: 0, silent_stores: 11, performed_stores: 1, ss_loads: 11, ss_no_port: 1, ss_late: 0, trivial_skips: 2, mul_skips: 12, mul_strength_reductions: 0, div_early_exits: 0, fp_subnormal_slow: 0, packed_pairs: 30, reuse_hits: 4, reuse_misses: 77, vp_predictions: 8, vp_correct: 6, rfc_shares: 28, dmp_prefetches: 45, dmp_deref_reads: 30, dmp_dropped: 0, cdp_prefetches: 12, faults_injected: 16, noise_events: 0 };
const OPT_BASELINE: SimStats = SimStats { cycles: 544, committed: 141, branch_squashes: 2, vp_squashes: 0, l1_hits: 23, l2_hits: 0, dram_accesses: 16, rename_stalls_prf: 0, sq_full_stalls: 368, backend_stalls: 0, silent_stores: 0, performed_stores: 12, ss_loads: 0, ss_no_port: 0, ss_late: 0, trivial_skips: 0, mul_skips: 0, mul_strength_reductions: 0, div_early_exits: 0, fp_subnormal_slow: 0, packed_pairs: 0, reuse_hits: 0, reuse_misses: 0, vp_predictions: 0, vp_correct: 0, rfc_shares: 0, dmp_prefetches: 0, dmp_deref_reads: 0, dmp_dropped: 0, cdp_prefetches: 0, faults_injected: 0, noise_events: 0 };
const OPT_SILENT_STORES: SimStats = SimStats { cycles: 538, committed: 141, branch_squashes: 2, vp_squashes: 0, l1_hits: 23, l2_hits: 0, dram_accesses: 16, rename_stalls_prf: 0, sq_full_stalls: 360, backend_stalls: 0, silent_stores: 12, performed_stores: 0, ss_loads: 12, ss_no_port: 0, ss_late: 0, trivial_skips: 0, mul_skips: 0, mul_strength_reductions: 0, div_early_exits: 0, fp_subnormal_slow: 0, packed_pairs: 0, reuse_hits: 0, reuse_misses: 0, vp_predictions: 0, vp_correct: 0, rfc_shares: 0, dmp_prefetches: 0, dmp_deref_reads: 0, dmp_dropped: 0, cdp_prefetches: 0, faults_injected: 0, noise_events: 0 };
const OPT_COMP_SIMPL: SimStats = SimStats { cycles: 516, committed: 141, branch_squashes: 2, vp_squashes: 0, l1_hits: 23, l2_hits: 0, dram_accesses: 16, rename_stalls_prf: 0, sq_full_stalls: 344, backend_stalls: 0, silent_stores: 0, performed_stores: 12, ss_loads: 0, ss_no_port: 0, ss_late: 0, trivial_skips: 13, mul_skips: 2, mul_strength_reductions: 15, div_early_exits: 12, fp_subnormal_slow: 12, packed_pairs: 0, reuse_hits: 0, reuse_misses: 0, vp_predictions: 0, vp_correct: 0, rfc_shares: 0, dmp_prefetches: 0, dmp_deref_reads: 0, dmp_dropped: 0, cdp_prefetches: 0, faults_injected: 0, noise_events: 0 };
const OPT_PACKING: SimStats = SimStats { cycles: 544, committed: 141, branch_squashes: 2, vp_squashes: 0, l1_hits: 23, l2_hits: 0, dram_accesses: 16, rename_stalls_prf: 0, sq_full_stalls: 369, backend_stalls: 0, silent_stores: 0, performed_stores: 12, ss_loads: 0, ss_no_port: 0, ss_late: 0, trivial_skips: 0, mul_skips: 0, mul_strength_reductions: 0, div_early_exits: 0, fp_subnormal_slow: 0, packed_pairs: 12, reuse_hits: 0, reuse_misses: 0, vp_predictions: 0, vp_correct: 0, rfc_shares: 0, dmp_prefetches: 0, dmp_deref_reads: 0, dmp_dropped: 0, cdp_prefetches: 0, faults_injected: 0, noise_events: 0 };
const OPT_REUSE_VALUES: SimStats = SimStats { cycles: 544, committed: 141, branch_squashes: 2, vp_squashes: 0, l1_hits: 23, l2_hits: 0, dram_accesses: 16, rename_stalls_prf: 0, sq_full_stalls: 368, backend_stalls: 0, silent_stores: 0, performed_stores: 12, ss_loads: 0, ss_no_port: 0, ss_late: 0, trivial_skips: 0, mul_skips: 0, mul_strength_reductions: 0, div_early_exits: 0, fp_subnormal_slow: 0, packed_pairs: 0, reuse_hits: 22, reuse_misses: 62, vp_predictions: 0, vp_correct: 0, rfc_shares: 0, dmp_prefetches: 0, dmp_deref_reads: 0, dmp_dropped: 0, cdp_prefetches: 0, faults_injected: 0, noise_events: 0 };
const OPT_REUSE_REGIDS: SimStats = SimStats { cycles: 519, committed: 141, branch_squashes: 2, vp_squashes: 0, l1_hits: 23, l2_hits: 0, dram_accesses: 16, rename_stalls_prf: 0, sq_full_stalls: 354, backend_stalls: 0, silent_stores: 0, performed_stores: 12, ss_loads: 0, ss_no_port: 0, ss_late: 0, trivial_skips: 0, mul_skips: 0, mul_strength_reductions: 0, div_early_exits: 0, fp_subnormal_slow: 0, packed_pairs: 0, reuse_hits: 15, reuse_misses: 69, vp_predictions: 0, vp_correct: 0, rfc_shares: 0, dmp_prefetches: 0, dmp_deref_reads: 0, dmp_dropped: 0, cdp_prefetches: 0, faults_injected: 0, noise_events: 0 };
const OPT_VP_LAST_VALUE: SimStats = SimStats { cycles: 528, committed: 141, branch_squashes: 2, vp_squashes: 0, l1_hits: 23, l2_hits: 0, dram_accesses: 16, rename_stalls_prf: 0, sq_full_stalls: 352, backend_stalls: 0, silent_stores: 0, performed_stores: 12, ss_loads: 0, ss_no_port: 0, ss_late: 0, trivial_skips: 0, mul_skips: 0, mul_strength_reductions: 0, div_early_exits: 0, fp_subnormal_slow: 0, packed_pairs: 0, reuse_hits: 0, reuse_misses: 0, vp_predictions: 7, vp_correct: 6, rfc_shares: 0, dmp_prefetches: 0, dmp_deref_reads: 0, dmp_dropped: 0, cdp_prefetches: 0, faults_injected: 0, noise_events: 0 };
const OPT_VP_STRIDE: SimStats = SimStats { cycles: 536, committed: 141, branch_squashes: 2, vp_squashes: 1, l1_hits: 33, l2_hits: 0, dram_accesses: 16, rename_stalls_prf: 0, sq_full_stalls: 349, backend_stalls: 0, silent_stores: 0, performed_stores: 12, ss_loads: 0, ss_no_port: 0, ss_late: 0, trivial_skips: 0, mul_skips: 0, mul_strength_reductions: 0, div_early_exits: 0, fp_subnormal_slow: 0, packed_pairs: 0, reuse_hits: 0, reuse_misses: 0, vp_predictions: 23, vp_correct: 16, rfc_shares: 0, dmp_prefetches: 0, dmp_deref_reads: 0, dmp_dropped: 0, cdp_prefetches: 0, faults_injected: 0, noise_events: 0 };
const OPT_RFC_ZERO_ONE: SimStats = SimStats { cycles: 544, committed: 141, branch_squashes: 2, vp_squashes: 0, l1_hits: 23, l2_hits: 0, dram_accesses: 16, rename_stalls_prf: 0, sq_full_stalls: 368, backend_stalls: 0, silent_stores: 0, performed_stores: 12, ss_loads: 0, ss_no_port: 0, ss_late: 0, trivial_skips: 0, mul_skips: 0, mul_strength_reductions: 0, div_early_exits: 0, fp_subnormal_slow: 0, packed_pairs: 0, reuse_hits: 0, reuse_misses: 0, vp_predictions: 0, vp_correct: 0, rfc_shares: 17, dmp_prefetches: 0, dmp_deref_reads: 0, dmp_dropped: 0, cdp_prefetches: 0, faults_injected: 0, noise_events: 0 };
const OPT_RFC_ANY: SimStats = SimStats { cycles: 544, committed: 141, branch_squashes: 2, vp_squashes: 0, l1_hits: 23, l2_hits: 0, dram_accesses: 16, rename_stalls_prf: 0, sq_full_stalls: 368, backend_stalls: 0, silent_stores: 0, performed_stores: 12, ss_loads: 0, ss_no_port: 0, ss_late: 0, trivial_skips: 0, mul_skips: 0, mul_strength_reductions: 0, div_early_exits: 0, fp_subnormal_slow: 0, packed_pairs: 0, reuse_hits: 0, reuse_misses: 0, vp_predictions: 0, vp_correct: 0, rfc_shares: 44, dmp_prefetches: 0, dmp_deref_reads: 0, dmp_dropped: 0, cdp_prefetches: 0, faults_injected: 0, noise_events: 0 };
const OPT_DMP: SimStats = SimStats { cycles: 426, committed: 141, branch_squashes: 2, vp_squashes: 0, l1_hits: 28, l2_hits: 0, dram_accesses: 11, rename_stalls_prf: 0, sq_full_stalls: 368, backend_stalls: 0, silent_stores: 0, performed_stores: 12, ss_loads: 0, ss_no_port: 0, ss_late: 0, trivial_skips: 0, mul_skips: 0, mul_strength_reductions: 0, div_early_exits: 0, fp_subnormal_slow: 0, packed_pairs: 0, reuse_hits: 0, reuse_misses: 0, vp_predictions: 0, vp_correct: 0, rfc_shares: 0, dmp_prefetches: 36, dmp_deref_reads: 18, dmp_dropped: 0, cdp_prefetches: 0, faults_injected: 0, noise_events: 0 };
const OPT_CDP: SimStats = SimStats { cycles: 544, committed: 141, branch_squashes: 2, vp_squashes: 0, l1_hits: 23, l2_hits: 0, dram_accesses: 16, rename_stalls_prf: 0, sq_full_stalls: 368, backend_stalls: 0, silent_stores: 0, performed_stores: 12, ss_loads: 0, ss_no_port: 0, ss_late: 0, trivial_skips: 0, mul_skips: 0, mul_strength_reductions: 0, div_early_exits: 0, fp_subnormal_slow: 0, packed_pairs: 0, reuse_hits: 0, reuse_misses: 0, vp_predictions: 0, vp_correct: 0, rfc_shares: 0, dmp_prefetches: 0, dmp_deref_reads: 0, dmp_dropped: 0, cdp_prefetches: 20, faults_injected: 0, noise_events: 0 };
const OPT_ALL: SimStats = SimStats { cycles: 391, committed: 141, branch_squashes: 2, vp_squashes: 0, l1_hits: 24, l2_hits: 0, dram_accesses: 15, rename_stalls_prf: 0, sq_full_stalls: 331, backend_stalls: 0, silent_stores: 12, performed_stores: 0, ss_loads: 12, ss_no_port: 0, ss_late: 0, trivial_skips: 13, mul_skips: 2, mul_strength_reductions: 4, div_early_exits: 12, fp_subnormal_slow: 6, packed_pairs: 12, reuse_hits: 17, reuse_misses: 68, vp_predictions: 7, vp_correct: 6, rfc_shares: 17, dmp_prefetches: 54, dmp_deref_reads: 36, dmp_dropped: 0, cdp_prefetches: 20, faults_injected: 0, noise_events: 0 };
const OPT_ALL_TRACE: &str = "192 records, fnv1a 0x0edae2c13883432a";
const OPT_ALL_DMP_PATTERNS: &str = "[(6, 7, 0, 1), (7, 6, 16470, 1), (7, 17, 20438, 1)]";
const FIG5_NOISY_TRACE: &str = "36 records, fnv1a 0x94dc9c916dc9b22b";
