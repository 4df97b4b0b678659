//! Differential audit of the fleet batch engine (DESIGN.md §13): a
//! fleet member must be *bit-equal* to a lone [`Machine`] — same
//! config, same seed, same program — for every counter in
//! [`SimStats`] and every trace record, regardless of thread count,
//! steal order, or whether the machine was freshly constructed or
//! recycled through [`Machine::reset_to`]. Every sweep driver in the
//! tree (fig5, fig6, E16, the covert/calibration grids) rides on this
//! equivalence: it is what makes "refactor the loop onto the fleet" a
//! pure performance change with byte-identical experiment output.
//!
//! The grid deliberately mixes the shapes the real sweeps use: seed
//! variation, noise intensities (the E16 axis), little/default/big
//! cores (the fig5 ablation axis), silent-store opts, and two copies of
//! a config whose classes learn (computation reuse, value prediction,
//! the IMP) — so machine recycling is forced through the rebuild path
//! (geometry change), the reset-in-place path under a new config
//! (`same_shape`), and the in-place rewind under an identical config,
//! the path a scan's AA and AB members take at one fleet thread.

use std::sync::Arc;

use pandora_isa::{Asm, Program, Reg};
use pandora_sim::fleet::{self, DEFAULT_MAX_CYCLES};
use pandora_sim::{
    Machine, MemberError, MemberSpec, NoiseConfig, OptConfig, SimConfig, SimError, SimStats,
    TraceEvent,
};

/// A halting workload with enough memory traffic to exercise the cache
/// hierarchy, the noise hook's replacement pressure, and (under
/// [`OptConfig::with_silent_stores`]) the store-queue machinery: a
/// read-modify-write sweep over `lines` cache lines, twice, so the
/// second pass re-stores values the first pass wrote (silent stores)
/// and revisits lines the sweep may have evicted. Each swept value also
/// indexes a table (`T[v & 63]`), an indirection the IMP learns.
fn sweep_program(lines: u64) -> Program {
    let mut a = Asm::new();
    a.li(Reg::T3, 2); // passes
    // The table base, from an ALU op whose operands are the same in
    // every run: a recycled machine's first instance hits the reuse
    // memo only if its rewind kept the previous run's entry.
    a.addi(Reg::T5, Reg::ZERO, 0x3_0000);
    a.label("pass");
    a.li(Reg::T0, lines);
    a.li(Reg::T1, 0x2_0000); // base of the swept window
    a.label("loop");
    a.ld(Reg::T2, Reg::T1, 0);
    a.andi(Reg::T4, Reg::T2, 63);
    a.slli(Reg::T4, Reg::T4, 3);
    a.add(Reg::T4, Reg::T4, Reg::T5);
    a.ld(Reg::T4, Reg::T4, 0);
    a.addi(Reg::T2, Reg::T2, 1);
    a.sd(Reg::T2, Reg::T1, 0);
    a.sd(Reg::T2, Reg::T1, 8); // second store, same line: silent on pass 2
    a.addi(Reg::T1, Reg::T1, 64);
    a.addi(Reg::T0, Reg::T0, -1);
    a.bnez(Reg::T0, "loop");
    a.addi(Reg::T3, Reg::T3, -1);
    a.bnez(Reg::T3, "pass");
    a.halt();
    a.assemble().expect("sweep program assembles")
}

/// The mixed configuration grid: every axis a real sweep varies.
fn mixed_cfgs() -> Vec<SimConfig> {
    let silent = SimConfig::with_opts(OptConfig::with_silent_stores());
    let mut cfgs = vec![
        SimConfig::default(),
        SimConfig { seed: 0xdead_beef, ..SimConfig::default() },
        silent,
        SimConfig { seed: 7, ..silent },
        SimConfig::little_core(),
        SimConfig::big_core(),
    ];
    for intensity in [15u16, 30, 60] {
        let mut noisy = silent;
        noisy.noise = NoiseConfig::at_intensity(intensity, 0x5eed ^ u64::from(intensity));
        cfgs.push(noisy);
    }
    // Back to back, so that at one thread the second copy recycles the
    // first's machine through `reset_to`'s identical-config branch: it
    // matches a lone run only if that rewind forgets the reuse memo, the
    // value predictor and the IMP's tables.
    let learned = SimConfig::with_opts(OptConfig {
        comp_reuse: true,
        value_pred: true,
        dmp: true,
        cdp: true,
        rf_compress: true,
        ..OptConfig::baseline()
    });
    cfgs.extend([learned, learned]);
    cfgs
}

/// Seeds the swept window so the first pass has deterministic values
/// to read-modify-write, and turns the trace on.
fn prep(m: &mut Machine) -> Result<(), SimError> {
    m.enable_trace();
    for i in 0..64u64 {
        m.mem_mut()
            .write_u64(0x2_0000 + i * 8, i.wrapping_mul(0x9e37_79b9))
            .expect("window in memory");
    }
    Ok(())
}

/// What a trial must reproduce bit for bit: its statistics and its
/// whole trace, including the IMP's confirmed patterns
/// (`TraceEvent::DmpPattern`), which no statistic counts.
type Outcome = (SimStats, Vec<TraceEvent>);

fn outcome(m: &Machine, stats: SimStats) -> Outcome {
    (stats, m.trace().events().to_vec())
}

/// The reference: a lone machine, fresh construction, no fleet — the
/// exact shape every sweep loop had before the fleet refactor.
fn lone_run(cfg: SimConfig, program: &Program) -> Outcome {
    let mut m = Machine::new(cfg);
    m.load_program(program);
    prep(&mut m).expect("prep succeeds");
    let stats = m.run(DEFAULT_MAX_CYCLES).expect("lone machine completes");
    outcome(&m, stats)
}

#[test]
fn fleet_members_are_bit_equal_to_lone_machines() {
    let program = Arc::new(sweep_program(48));
    let cfgs = mixed_cfgs();
    let jobs: Vec<MemberSpec> = cfgs
        .iter()
        .map(|&cfg| MemberSpec::new(cfg, Arc::clone(&program)).with_prep(prep))
        .collect();
    let outcomes = fleet::trial_grid(&jobs, 4, |_, m, stats| outcome(m, stats));

    assert_eq!(outcomes.len(), cfgs.len());
    for (i, (&cfg, member)) in cfgs.iter().zip(&outcomes).enumerate() {
        let fleet_outcome = member
            .as_ref()
            .unwrap_or_else(|e| panic!("member {i} degraded: {e}"));
        let solo = lone_run(cfg, &program);
        assert_eq!(
            *fleet_outcome, solo,
            "member {i} (seed {:#x}, noise evict {}‰): fleet stats diverged from a lone machine",
            cfg.seed, cfg.noise.evict_permille,
        );
    }
}

#[test]
fn trial_grid_is_invariant_to_threads_and_machine_recycling() {
    let program = Arc::new(sweep_program(48));
    // The noisy members run twice: once plain, and once forked from a
    // quiet cycle-0 checkpoint of their shape with the program and prep
    // baked in, taking their noise as a start override
    // (`Machine::set_noise`). No noise has been drawn at cycle 0, so a
    // fork must be bit-equal to a machine built noisy. The forks go
    // first, so at one thread the plain members recycle a machine that
    // ran under an override.
    let mut warm = Machine::new(SimConfig::with_opts(OptConfig::with_silent_stores()));
    warm.load_program(&program);
    prep(&mut warm).expect("prep succeeds");
    let ck = Arc::new(warm.snapshot());
    let cfgs = mixed_cfgs();
    let forks = cfgs
        .iter()
        .filter(|cfg| cfg.noise.enabled())
        .map(|&cfg| MemberSpec::new(cfg, Arc::clone(&program)).with_start(Arc::clone(&ck)));
    let plain = cfgs
        .iter()
        .map(|&cfg| MemberSpec::new(cfg, Arc::clone(&program)).with_prep(prep));
    let jobs: Vec<MemberSpec> = forks.chain(plain).collect();

    // threads = 1 funnels every job through ONE pooled machine, so the
    // mixed grid forces reset_to through the geometry-rebuild path
    // (little/big cores are interleaved with default-shaped members),
    // the same-shape path under a new config, and the identical-config
    // rewind (the two learned-state members).
    let pooled = |threads| -> Vec<Outcome> {
        fleet::trial_grid(&jobs, threads, |_, m, stats| outcome(m, stats))
            .into_iter()
            .map(|r| r.expect("job completes"))
            .collect()
    };
    let (pooled_1, pooled_4) = (pooled(1), pooled(4));
    let fresh: Vec<Outcome> = jobs
        .iter()
        .map(|j| lone_run(j.cfg, &j.program))
        .collect();

    assert_eq!(pooled_1, fresh, "recycled machines diverged from fresh construction");
    assert_eq!(pooled_1, pooled_4, "thread count changed trial results");
}

/// The warm-fork contract: trials forked from one mid-run checkpoint
/// of a *noisy* machine must be bit-equal to serial replay. The
/// checkpoint is taken deep into the run, so the noise RNG streams are
/// far from their seeds at the boundary — bit-equality therefore
/// proves `restore` resumes the streams at the checkpointed position
/// rather than re-deriving them from config (which `NoiseHook::reset`
/// does, and which would silently decorrelate forked trials from the
/// serial reference).
#[test]
fn forked_trials_are_bit_equal_to_serial_replay_across_threads() {
    let program = Arc::new(sweep_program(48));
    let cfg = SimConfig {
        noise: NoiseConfig::at_intensity(45, 0xfeed_5eed).with_window(0x2_0000, 0x3_0000),
        ..SimConfig::with_opts(OptConfig::with_silent_stores())
    };
    let warm = || {
        let mut m = Machine::new(cfg);
        m.load_program(&program);
        prep(&mut m).expect("prep succeeds");
        m.run_until_committed(400, DEFAULT_MAX_CYCLES)
            .expect("warm prefix completes");
        m
    };
    let warmed = warm();
    assert!(
        warmed.stats().noise_events > 0,
        "the checkpoint must already have consumed noise draws"
    );
    let ck = Arc::new(warmed.snapshot());
    assert!(ck.cycle() > 0, "mid-run checkpoint");

    // Serial replay reference: each trial re-runs the whole prefix,
    // then applies its per-trial delta at the boundary.
    let trial_value = |v: u64| v * 3 + 1;
    let serial: Vec<(SimStats, u64)> = (0..5u64)
        .map(|v| {
            let mut m = warm();
            m.mem_mut().write_u64(0x2_0000, trial_value(v)).unwrap();
            let stats = m.run(DEFAULT_MAX_CYCLES).expect("serial trial completes");
            (stats, m.mem().read_u64(0x2_0000).unwrap())
        })
        .collect();
    assert!(
        serial[0].0.noise_events > warmed.stats().noise_events,
        "noise keeps flowing after the boundary"
    );

    // Forked: every trial restores the shared checkpoint. threads = 1
    // funnels all jobs through ONE pool slot, so each restore lands on
    // the previous trial's dirty machine.
    let jobs: Vec<MemberSpec> = (0..5u64)
        .map(|v| {
            MemberSpec::new(cfg, Arc::clone(&program))
                .with_start(Arc::clone(&ck))
                .with_prep(move |m| {
                    m.mem_mut().write_u64(0x2_0000, trial_value(v)).unwrap();
                    Ok(())
                })
        })
        .collect();
    let run_grid = |threads| -> Vec<(SimStats, u64)> {
        fleet::trial_grid(&jobs, threads, |_, m, stats| {
            (stats, m.mem().read_u64(0x2_0000).unwrap())
        })
        .into_iter()
        .map(|r| r.expect("forked trial completes"))
        .collect()
    };
    let forked_1 = run_grid(1);
    let forked_4 = run_grid(4);
    assert_eq!(
        forked_1, serial,
        "fork-from-checkpoint diverged from serial replay"
    );
    assert_eq!(forked_1, forked_4, "thread count changed forked results");
}

/// The pool-recycling hazard the scan service leans on: a trial that
/// *panics with the machine genuinely mid-step* (in-flight uops, dirty
/// caches, partial memory writes) must leave nothing behind for the
/// next job on the same slot — the machine is discarded and rebuilt,
/// never handed over half-stepped. Likewise a trial abandoned mid-run
/// by a timeout (the machine IS retained there) must recycle through
/// `reset_to` bit-equal to fresh construction. `threads = 1` funnels
/// every job through one slot so the poisoned machine, if kept, would
/// be the very next job's machine.
#[test]
fn pool_discards_panicked_machines_and_heals_half_stepped_ones() {
    let program = Arc::new(sweep_program(48));
    let cfg = SimConfig {
        mem_size: 1 << 18,
        ..SimConfig::with_opts(OptConfig::with_silent_stores())
    };

    // Job 0: half-step the machine, then panic mid-trial.
    let half_step_panic = MemberSpec::new(cfg, Arc::clone(&program)).with_prep(|m| {
        prep(m)?;
        match m.run(200) {
            Err(SimError::Timeout { .. }) => {}
            other => panic!("expected the sweep to be mid-flight at 200 cycles: {other:?}"),
        }
        panic!("injected mid-step panic");
    });
    // Job 1: a timeout abandons the machine mid-run; the pool retains
    // and resets it rather than rebuilding.
    let timing_out = MemberSpec::new(cfg, Arc::clone(&program))
        .with_prep(prep)
        .with_max_cycles(64);
    // Job 2 inherits the slot both degraded jobs went through.
    let good = MemberSpec::new(cfg, Arc::clone(&program)).with_prep(prep);
    let jobs = vec![half_step_panic, timing_out, good];

    let full_image = |m: &mut Machine| -> Vec<u8> {
        m.mem()
            .read_bytes(0, m.config().mem_size)
            .expect("whole memory readable")
            .to_vec()
    };
    let out = fleet::trial_grid(&jobs, 1, |_, m, stats| (stats, full_image(m)));

    assert!(
        matches!(&out[0], Err(MemberError::Panicked(msg)) if msg.contains("injected mid-step")),
        "half-stepped panicking member: {:?}",
        out[0].as_ref().map(|(s, _)| s)
    );
    assert!(
        matches!(out[1], Err(MemberError::Sim(SimError::Timeout { .. }))),
        "timing-out member: {:?}",
        out[1].as_ref().map(|(s, _)| s)
    );
    let (stats, image) = out[2].as_ref().expect("job after the failures completes");

    // Reference: the same trial on a machine nothing ever touched.
    let mut solo = Machine::new(cfg);
    solo.load_program(&program);
    prep(&mut solo).expect("prep succeeds");
    let solo_stats = solo.run(DEFAULT_MAX_CYCLES).expect("lone machine completes");
    assert_eq!(
        *stats, solo_stats,
        "stats after recycling past a panicked + half-stepped slot diverged"
    );
    assert_eq!(
        *image,
        full_image(&mut solo),
        "memory image after recycling past a panicked + half-stepped slot diverged"
    );
}

#[test]
fn one_member_failing_degrades_only_that_member() {
    let program = Arc::new(sweep_program(32));
    let good = MemberSpec::new(SimConfig::default(), Arc::clone(&program)).with_prep(prep);
    let panicking = MemberSpec::new(SimConfig::default(), Arc::clone(&program))
        .with_prep(|_| panic!("injected prep panic"));
    let timing_out = MemberSpec::new(SimConfig::default(), Arc::clone(&program))
        .with_prep(prep)
        .with_max_cycles(16);

    let outcomes = fleet::trial_grid(&[good.clone(), panicking, timing_out, good], 2, |_, _, stats| {
        stats
    });

    let healthy = outcomes[0].as_ref().expect("first member completes");
    assert!(
        matches!(&outcomes[1], Err(MemberError::Panicked(msg)) if msg.contains("injected")),
        "panicking member: {:?}",
        outcomes[1]
    );
    assert!(
        matches!(outcomes[2], Err(MemberError::Sim(SimError::Timeout { .. }))),
        "timing-out member: {:?}",
        outcomes[2]
    );
    // The sibling after the failures is untouched — bit-equal to the
    // member that ran before them.
    assert_eq!(outcomes[3].as_ref().expect("last member completes"), healthy);
}
