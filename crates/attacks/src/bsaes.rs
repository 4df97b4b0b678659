//! The end-to-end silent-store attack on bitsliced AES-128 (§V-A3,
//! Fig 6).
//!
//! Scenario (cloud threat model): a server worker thread encrypts
//! requests on a shared stack. The victim's encryption leaves the eight
//! 16-bit final-SubBytes slices in fixed stack slots; the attacker then
//! triggers its *own* encryption (with its own key and a **chosen
//! plaintext**) whose corresponding spill store overwrites a slot —
//! silently iff the attacker's slice value equals the victim's. The
//! amplification gadget turns that single store's silence into a
//! >100-cycle runtime difference the attacker can observe per request.
//!
//! Because the attacker knows its own key it can run the cipher
//! backwards (chosen-plaintext inversion) to make its slice equal any
//! 16-bit guess, giving an equality oracle per experiment: at most
//! 65 536 guesses per slice, 8 × 65 536 = 524 288 total (§V-A3).
//! Recovering all eight slices reconstructs the state after the final
//! SubBytes; with the victim's (public) ciphertext that yields the
//! round-10 key, and the key schedule inverts to the master key.

use std::sync::Arc;

use pandora_crypto::aes_ref;
use pandora_crypto::bitslice::{self, Slices};
use pandora_crypto::codegen::{emit_encrypt, BsaesLayout, SpillHook};
use pandora_crypto::{Block, RoundKeys};
use pandora_channels::adaptive::majority_vote;
use pandora_channels::retry::{RetryError, RetryPolicy};
use pandora_isa::{Asm, Program};
use pandora_sim::fleet::{self, MemberError, MemberSpec};
use pandora_sim::{Checkpoint, FaultPlan, Machine, NoiseConfig, OptConfig, SimConfig, SimError};

use crate::amplify::{AmplifyGadget, FlushKind};
use crate::util::precondition_noise;

/// Address map of the attack scenario.
const VICTIM_BASE: u64 = 0x1_0000;
const ATTACKER_AUX: u64 = 0x6_0000;
const DELAY_ADDR: u64 = 0x8_0000;
/// Noise preconditioning randomly pre-warms lines of the victim's own
/// working set, so per-trial timings vary the way co-tenant cache
/// pressure varies them in the paper's experiment.
const NOISE_BASE: u64 = VICTIM_BASE;
const NOISE_SPAN: u64 = 0x800;

/// Applies a run's cycle-0 environment: optional cache preconditioning
/// and an optional fault plan.
fn disturb(m: &mut Machine, noise_seed: Option<u64>, fault_plan: Option<&FaultPlan>) {
    if let Some(seed) = noise_seed {
        precondition_noise(m, seed, 4, NOISE_BASE, NOISE_SPAN);
    }
    if let Some(plan) = fault_plan {
        m.inject_faults(plan.clone());
    }
}

/// One measured experiment.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RunOutcome {
    /// End-to-end cycles (victim request + attacker request).
    pub cycles: u64,
    /// The victim's ciphertext (public output the attacker sees).
    pub victim_ct: Block,
}

/// One guess's experiment in a [`BsaesAttack::measure_guess_grid`]
/// batch: the guess plus optional per-job environment overrides.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct GuessJob {
    /// The 16-bit slice guess to measure.
    pub guess: u16,
    /// Overrides the attack's noise configuration for this job only.
    pub noise: Option<NoiseConfig>,
    /// Seed for cache-preconditioning noise (see
    /// [`BsaesAttack::try_run_with_plaintext`]).
    pub noise_seed: Option<u64>,
}

impl GuessJob {
    /// A job measuring `guess` under the attack's own environment.
    #[must_use]
    pub fn new(guess: u16) -> GuessJob {
        GuessJob {
            guess,
            noise: None,
            noise_seed: None,
        }
    }
}

/// The per-round decodes of one repetition-coded slice sweep
/// ([`BsaesAttack::slice_votes`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SliceVotes {
    /// Each round's gap-checked argmin, round 0 first; `None` where no
    /// guess won by the gap. Empty for an empty window.
    pub votes: Vec<Option<u16>>,
    /// The victim's ciphertext; `None` when the window is empty.
    pub victim_ct: Option<Block>,
}

/// The per-round decodes of all eight slices
/// ([`BsaesAttack::key_votes`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct KeyVotes {
    /// Row `k` holds slice `k`'s rounds.
    pub slices: [SliceVotes; 8],
}

impl KeyVotes {
    /// The key the majority vote recovers: each slice's
    /// [`majority_vote`], then the round-10 key from the victim
    /// ciphertext and the inverted key schedule. `None` if any slice
    /// has no majority.
    #[must_use]
    pub fn key(&self) -> Option<Block> {
        let mut slices = [0u16; 8];
        for (slice, row) in slices.iter_mut().zip(&self.slices) {
            *slice = majority_vote(&row.votes)?;
        }
        let victim_ct = self.slices[0].victim_ct?;
        Some(BsaesAttack::key_from_leak(&slices, &victim_ct))
    }
}

/// The configured attack: keys, target slice, layouts, gadget.
#[derive(Clone, Debug)]
pub struct BsaesAttack {
    cfg: SimConfig,
    victim_rk: RoundKeys,
    attacker_rk: RoundKeys,
    victim_pt: Block,
    target_slice: usize,
    lay_victim: BsaesLayout,
    lay_attacker: BsaesLayout,
    gadget: AmplifyGadget,
    /// Nominal slice values the chosen plaintext keeps fixed in the
    /// non-target positions.
    nominal: Slices,
    /// The two-request program, built once and shared (by reference)
    /// with every fleet member measuring a guess.
    program: Arc<Program>,
    /// Index of the attacker request's first instruction in `program`.
    attacker_entry: usize,
    /// Fault plan installed on every measuring machine (noise
    /// injection for robustness experiments).
    fault_plan: Option<FaultPlan>,
    /// Worker threads for guess grids (0 = process-wide fleet default).
    fleet_threads: usize,
}

impl BsaesAttack {
    /// Configures the attack against `victim_key`; the victim is
    /// assumed to repeatedly encrypt the public `victim_pt`.
    ///
    /// # Panics
    ///
    /// Panics if `target_slice >= 8`.
    #[must_use]
    pub fn new(
        victim_key: Block,
        attacker_key: Block,
        victim_pt: Block,
        target_slice: usize,
    ) -> BsaesAttack {
        BsaesAttack::with_amplification(victim_key, attacker_key, victim_pt, target_slice, true)
    }

    /// The *unamplified* control: identical scenario and measurement,
    /// but the amplification gadget is never emitted, so a silent
    /// store saves only its own dequeue (a couple of cycles). The
    /// noise-robustness experiment compares this control's separation
    /// against the amplified attack's as noise intensity rises —
    /// the paper's Fig 5 argument.
    ///
    /// # Panics
    ///
    /// Panics if `target_slice >= 8`.
    #[must_use]
    pub fn control(
        victim_key: Block,
        attacker_key: Block,
        victim_pt: Block,
        target_slice: usize,
    ) -> BsaesAttack {
        BsaesAttack::with_amplification(victim_key, attacker_key, victim_pt, target_slice, false)
    }

    fn with_amplification(
        victim_key: Block,
        attacker_key: Block,
        victim_pt: Block,
        target_slice: usize,
        amplified: bool,
    ) -> BsaesAttack {
        assert!(target_slice < 8, "BSAES spills eight slices");
        let cfg = SimConfig::with_opts(OptConfig::with_silent_stores());
        let lay_victim = BsaesLayout::at(VICTIM_BASE);
        // The attacker request reuses the same worker stack
        // (state/scratch/spill) but has its own key and buffers.
        let lay_attacker = BsaesLayout {
            rk: ATTACKER_AUX,
            pt: ATTACKER_AUX + 704,
            ct: ATTACKER_AUX + 704 + 16,
            ..lay_victim
        };
        let target_addr = lay_victim.spill_slot(target_slice);
        let gadget = AmplifyGadget::new(&cfg, target_addr, DELAY_ADDR, FlushKind::Contention);
        let attacker_rk = RoundKeys::expand(&attacker_key);
        let nominal = bitslice::final_subbytes_slices(&attacker_rk, &[0u8; 16]);
        let (program, attacker_entry) = BsaesAttack::build_program_for(
            &lay_victim,
            &lay_attacker,
            target_slice,
            amplified.then_some(&gadget),
        );
        BsaesAttack {
            cfg,
            victim_rk: RoundKeys::expand(&victim_key),
            attacker_rk,
            victim_pt,
            target_slice,
            lay_victim,
            lay_attacker,
            gadget,
            nominal,
            program: Arc::new(program),
            attacker_entry,
            fault_plan: None,
            fleet_threads: 0,
        }
    }

    /// Sets the worker-thread count used when measuring guess grids
    /// (0 = the process-wide fleet default; see
    /// [`pandora_sim::fleet::set_default_threads`]).
    pub fn set_fleet_threads(&mut self, threads: usize) {
        self.fleet_threads = threads;
    }

    /// Installs (or clears) a fault plan applied to every subsequent
    /// measuring run — used to model a disturbed machine when
    /// exercising retry-based recovery.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault_plan = plan;
    }

    /// Sets the environmental-noise configuration of every subsequent
    /// measuring machine (see `pandora_sim::noise`); the noise-tolerant
    /// recovery paths vary its seed per repetition round.
    pub fn set_noise(&mut self, noise: NoiseConfig) {
        self.cfg.noise = noise;
    }

    /// The machine configuration (silent stores enabled).
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The slice index under attack.
    #[must_use]
    pub fn target_slice(&self) -> usize {
        self.target_slice
    }

    /// The victim's true slice value — *ground truth for experiment
    /// validation only*; the attack itself never reads it.
    #[must_use]
    pub fn true_slice_value(&self) -> u16 {
        bitslice::final_subbytes_slices(&self.victim_rk, &self.victim_pt)[self.target_slice]
    }

    /// The chosen plaintext that makes the attacker's target slice
    /// equal `guess` (other slices pinned to the nominal values).
    #[must_use]
    pub fn plaintext_for_guess(&self, guess: u16) -> Block {
        let mut target = self.nominal;
        target[self.target_slice] = guess;
        aes_ref::plaintext_for_final_subbytes(&self.attacker_rk, &bitslice::unbitslice(&target))
    }

    /// Builds the two-request program: victim encryption (no gadget),
    /// then attacker encryption with the amplification gadget on the
    /// target spill store. Also returns the attacker request's entry
    /// pc, where every guess's run stops sharing a prefix.
    fn build_program_for(
        lay_victim: &BsaesLayout,
        lay_attacker: &BsaesLayout,
        target: usize,
        gadget: Option<&AmplifyGadget>,
    ) -> (Program, usize) {
        let mut a = Asm::new();
        emit_encrypt(&mut a, lay_victim, |_, _, _| {});
        let attacker_entry = a.here();
        emit_encrypt(&mut a, lay_attacker, |asm, point, k| {
            if k == target {
                if let Some(gadget) = gadget {
                    match point {
                        SpillHook::Before => gadget.emit(asm),
                        SpillHook::After => gadget.emit_pressure(asm),
                    }
                }
            }
        });
        a.halt();
        (
            a.assemble().expect("attack program assembles"),
            attacker_entry,
        )
    }

    /// Runs one experiment with the given attacker plaintext.
    ///
    /// # Panics
    ///
    /// Panics if the simulation fails; use
    /// [`BsaesAttack::try_run_with_plaintext`] to recover instead.
    #[must_use]
    pub fn run_with_plaintext(&self, attacker_pt: &Block, noise_seed: Option<u64>) -> RunOutcome {
        self.try_run_with_plaintext(attacker_pt, noise_seed)
            .expect("attack experiment completed abnormally")
    }

    /// Runs one experiment with the given attacker plaintext, surfacing
    /// simulator failures (timeouts, deadlocks under injected faults)
    /// as errors instead of panicking.
    ///
    /// # Errors
    ///
    /// Any [`SimError`] from the measuring run.
    pub fn try_run_with_plaintext(
        &self,
        attacker_pt: &Block,
        noise_seed: Option<u64>,
    ) -> Result<RunOutcome, SimError> {
        self.run_grid(&[(self.cfg, *attacker_pt, noise_seed)])
            .remove(0)
    }

    /// Builds the shared warm state every experiment starts from: the
    /// two-request program loaded, both parties' round keys, the
    /// victim plaintext, and the gadget working set written. Taken at
    /// cycle 0, so forked jobs may override the noise configuration
    /// per trial and still be bit-equal to fresh construction.
    fn warm_checkpoint(&self) -> Arc<Checkpoint> {
        let mut warm = Machine::new(self.cfg);
        warm.load_program(&self.program);
        let mem = warm.mem_mut();
        mem.write_bytes(self.lay_victim.rk, &BsaesLayout::round_key_bytes(&self.victim_rk))
            .expect("victim layout in memory");
        mem.write_bytes(
            self.lay_attacker.rk,
            &BsaesLayout::round_key_bytes(&self.attacker_rk),
        )
        .expect("attacker layout in memory");
        mem.write_bytes(self.lay_victim.pt, &self.victim_pt)
            .expect("victim plaintext in memory");
        self.gadget.setup_memory(mem);
        Arc::new(warm.snapshot())
    }

    /// The checkpoint a group of jobs sharing `(cfg, noise_seed)`
    /// forks from: the warm state under the group's environment, run
    /// until fetch reaches the attacker request. Nothing before that
    /// point reads the attacker plaintext (the program is straight-line
    /// and the caches track tags only), so every guess of the group is
    /// identical up to here.
    ///
    /// # Errors
    ///
    /// The prefix run's [`SimError`] — the error every job of the group
    /// would have hit on its own.
    fn prefix_checkpoint(
        &self,
        warm: &Checkpoint,
        cfg: SimConfig,
        noise_seed: Option<u64>,
    ) -> Result<Arc<Checkpoint>, SimError> {
        let mut m = Machine::from_checkpoint(warm);
        if cfg.noise != warm.config().noise {
            m.set_noise(cfg.noise);
        }
        disturb(&mut m, noise_seed, self.fault_plan.as_ref());
        m.run_until_fetched(self.attacker_entry, fleet::DEFAULT_MAX_CYCLES)?;
        Ok(Arc::new(m.snapshot()))
    }

    /// Runs one experiment per `(config, attacker plaintext, noise
    /// seed)` job as a fleet grid. The shared scenario state (round
    /// keys, victim plaintext, gadget working set) is written once into
    /// a warm cycle-0 [`Checkpoint`]. Jobs that share `(config, noise
    /// seed)` also share the whole victim request, so each such group
    /// runs it once ([`BsaesAttack::prefix_checkpoint`]) and its
    /// members fork after it, writing only their attacker plaintext; a
    /// group whose prefix fails hands that error to every member. A
    /// job alone in its group forks from the cycle-0 checkpoint and
    /// applies its whole delta — attacker plaintext, cache
    /// preconditioning, fault plan — itself. Outcomes come back in job
    /// order regardless of the thread count; a failed run yields `Err`
    /// in its own slot without disturbing sibling experiments.
    ///
    /// # Panics
    ///
    /// Resurfaces a panic from a measuring run after sibling jobs have
    /// completed — a harness bug, not a measurement condition.
    fn run_grid(
        &self,
        jobs: &[(SimConfig, Block, Option<u64>)],
    ) -> Vec<Result<RunOutcome, SimError>> {
        let warm = self.warm_checkpoint();
        let mut keys: Vec<(SimConfig, Option<u64>, usize)> = Vec::new();
        let group: Vec<usize> = jobs
            .iter()
            .map(|&(cfg, _, seed)| {
                if let Some(g) = keys.iter().position(|k| k.0 == cfg && k.1 == seed) {
                    keys[g].2 += 1;
                    return g;
                }
                keys.push((cfg, seed, 1));
                keys.len() - 1
            })
            .collect();
        let prefixes: Vec<Option<Result<Arc<Checkpoint>, SimError>>> = keys
            .iter()
            .map(|&(cfg, seed, n)| (n >= 2).then(|| self.prefix_checkpoint(&warm, cfg, seed)))
            .collect();

        let mut specs = Vec::new();
        let pt_addr = self.lay_attacker.pt;
        for (i, &(cfg, attacker_pt, noise_seed)) in jobs.iter().enumerate() {
            // A prefix-forked job's environment is already in its start.
            let (start, env) = match &prefixes[group[i]] {
                Some(Err(_)) => continue,
                Some(Ok(prefix)) => (prefix, None),
                None => (&warm, Some((noise_seed, self.fault_plan.clone()))),
            };
            specs.push(
                MemberSpec::new(cfg, Arc::clone(&self.program))
                    .with_start(Arc::clone(start))
                    .with_prep(move |m| {
                        m.mem_mut()
                            .write_bytes(pt_addr, &attacker_pt)
                            .expect("attacker plaintext in memory");
                        if let Some((seed, plan)) = &env {
                            disturb(m, *seed, plan.as_ref());
                        }
                        Ok(())
                    }),
            );
        }
        let ct_addr = self.lay_victim.ct;
        let mut ran = fleet::trial_grid(&specs, self.fleet_threads, move |_, m, stats| {
            let mut victim_ct = [0u8; 16];
            victim_ct.copy_from_slice(m.mem().read_bytes(ct_addr, 16).expect("ct"));
            RunOutcome {
                cycles: stats.cycles,
                victim_ct,
            }
        })
        .into_iter();
        group
            .iter()
            .map(|&g| match &prefixes[g] {
                Some(Err(e)) => Err(e.clone()),
                _ => ran
                    .next()
                    .expect("one outcome per dispatched job")
                    .map_err(MemberError::unwrap_sim),
            })
            .collect()
    }

    /// Measures a whole batch of guesses as one fleet grid (shared
    /// program, recycled machines, work-stealing threads), returning
    /// outcomes in job order.
    ///
    /// # Errors
    ///
    /// The first (lowest-index) job whose measuring run fails — the
    /// same error the equivalent serial loop would have stopped on.
    pub fn measure_guess_grid(&self, jobs: &[GuessJob]) -> Result<Vec<RunOutcome>, SimError> {
        let raw: Vec<(SimConfig, Block, Option<u64>)> = jobs
            .iter()
            .map(|j| {
                let mut cfg = self.cfg;
                if let Some(noise) = j.noise {
                    cfg.noise = noise;
                }
                (cfg, self.plaintext_for_guess(j.guess), j.noise_seed)
            })
            .collect();
        self.run_grid(&raw).into_iter().collect()
    }

    /// Measures one guess: runtime of the experiment with the chosen
    /// plaintext for `guess`.
    #[must_use]
    pub fn measure_guess(&self, guess: u16, noise_seed: Option<u64>) -> RunOutcome {
        self.run_with_plaintext(&self.plaintext_for_guess(guess), noise_seed)
    }

    /// Fallible form of [`BsaesAttack::measure_guess`].
    ///
    /// # Errors
    ///
    /// Any [`SimError`] from the measuring run.
    pub fn try_measure_guess(
        &self,
        guess: u16,
        noise_seed: Option<u64>,
    ) -> Result<RunOutcome, SimError> {
        self.try_run_with_plaintext(&self.plaintext_for_guess(guess), noise_seed)
    }

    /// Recovers the target slice by measuring every guess in `guesses`
    /// and returning the one with the minimum runtime, provided it is
    /// separated from the rest by `min_gap` cycles.
    ///
    /// A full search covers `0..=u16::MAX` (the paper's 65 536
    /// experiments per slice); tests and examples pass a window
    /// containing the true value to bound running time.
    #[must_use]
    pub fn recover_slice(
        &self,
        guesses: impl IntoIterator<Item = u16>,
        min_gap: u64,
    ) -> Option<u16> {
        self.recover_slice_outcome(guesses, min_gap).map(|(g, _)| g)
    }

    /// [`BsaesAttack::recover_slice`], also returning the winning
    /// guess's measured outcome.
    fn recover_slice_outcome(
        &self,
        guesses: impl IntoIterator<Item = u16>,
        min_gap: u64,
    ) -> Option<(u16, RunOutcome)> {
        let jobs: Vec<GuessJob> = guesses.into_iter().map(GuessJob::new).collect();
        let outs = self
            .measure_guess_grid(&jobs)
            .expect("attack experiment completed abnormally");
        let i = BsaesAttack::gap_checked_argmin(&outs, min_gap)?;
        Some((jobs[i].guess, outs[i]))
    }

    /// The recovery decision rule shared by every slice driver: the
    /// index of the minimum runtime, provided the runner-up is at least
    /// `min_gap` cycles slower.
    fn gap_checked_argmin(outs: &[RunOutcome], min_gap: u64) -> Option<usize> {
        let mut best: Option<(usize, u64)> = None;
        let mut second: Option<u64> = None;
        for (i, t) in outs.iter().map(|o| o.cycles).enumerate() {
            match best {
                None => best = Some((i, t)),
                Some((_, bt)) if t < bt => {
                    second = Some(bt);
                    best = Some((i, t));
                }
                Some(_) => {
                    second = Some(second.map_or(t, |s| s.min(t)));
                }
            }
        }
        let (i, t) = best?;
        match second {
            Some(s) if s >= t + min_gap => Some(i),
            _ => None,
        }
    }

    /// Like [`BsaesAttack::recover_slice`], but the guess grid is
    /// retried under `policy` with **failed experiments only**
    /// re-dispatched: a run that fails with a [`SimError`] (e.g. a
    /// deadlock under an injected fault) is re-measured on a clean
    /// machine — disturbances are transient, so retry rounds drop the
    /// installed fault plan — while already-measured guesses keep
    /// their outcomes.
    ///
    /// # Errors
    ///
    /// [`RetryError::Sim`] if some guess could not be measured within
    /// `policy.max_attempts`.
    pub fn recover_slice_with_retry(
        &self,
        guesses: impl IntoIterator<Item = u16>,
        min_gap: u64,
        policy: &RetryPolicy,
    ) -> Result<Option<u16>, RetryError> {
        let guesses: Vec<u16> = guesses.into_iter().collect();
        let mut clean = self.clone();
        clean.fault_plan = None;
        let outs = policy.retry_failed(guesses.len(), |pending, attempt| {
            let atk: &BsaesAttack = if attempt == 0 { self } else { &clean };
            let jobs: Vec<(SimConfig, Block, Option<u64>)> = pending
                .iter()
                .map(|&i| (atk.cfg, atk.plaintext_for_guess(guesses[i]), None))
                .collect();
            atk.run_grid(&jobs)
        })?;
        Ok(BsaesAttack::gap_checked_argmin(&outs, min_gap).map(|i| guesses[i]))
    }

    /// Repetition-coded [`BsaesAttack::recover_slice`]: runs the whole
    /// guess sweep `redundancy` times, each round under a distinct
    /// noise seed, and returns each round's gap-checked argmin as one
    /// vote; [`majority_vote`] decodes them, trading samples for
    /// accuracy exactly as a real campaign does. Round `r`'s seed does
    /// not depend on the redundancy, so round 0 is the one-shot
    /// receiver *under the same varying environment*.
    ///
    /// Every guess *within* a round shares the round's seed: the
    /// measurement is differential (argmin over near-identical
    /// programs), so a deterministic per-round environment is
    /// common-mode and cancels, while round-to-round reseeding gives
    /// the vote independent looks at the residual disturbance.
    ///
    /// # Errors
    ///
    /// The first measuring run that fails outright.
    pub fn slice_votes(
        &self,
        guesses: &[u16],
        min_gap: u64,
        redundancy: usize,
    ) -> Result<SliceVotes, SimError> {
        // Every (round, guess) experiment is one member of a single
        // fleet grid; the per-round noise reseeding rides in each
        // member's config.
        let mut jobs: Vec<(SimConfig, Block, Option<u64>)> = Vec::new();
        for r in 0..redundancy.max(1) as u64 {
            let mut cfg = self.cfg;
            cfg.noise.seed = self
                .cfg
                .noise
                .seed
                .wrapping_add(r.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            for &g in guesses {
                jobs.push((cfg, self.plaintext_for_guess(g), None));
            }
        }
        let outs: Vec<RunOutcome> = self.run_grid(&jobs).into_iter().collect::<Result<_, _>>()?;
        Ok(SliceVotes {
            votes: outs
                .chunks(guesses.len().max(1))
                .map(|round| BsaesAttack::gap_checked_argmin(round, min_gap).map(|i| guesses[i]))
                .collect(),
            // The victim request finishes before the attacker's starts,
            // so every outcome carries the same victim ciphertext.
            victim_ct: outs.first().map(|o| o.victim_ct),
        })
    }

    /// The rounds of all eight slices: [`BsaesAttack::slice_votes`] of
    /// the slice-`k` attack over `window(k)`, for every `k`. Each
    /// per-slice attack carries this attack's noise configuration with
    /// the seed shifted by `k · 0x5851_f42d_4c95_7f2d`, so no two
    /// slices fight the identical noise stream. [`KeyVotes::key`]
    /// decodes the voted key.
    ///
    /// # Errors
    ///
    /// The first measuring run that fails outright.
    pub fn key_votes(
        &self,
        window: impl Fn(usize) -> Vec<u16>,
        min_gap: u64,
        redundancy: usize,
    ) -> Result<KeyVotes, SimError> {
        let mut slices = Vec::with_capacity(8);
        for k in 0..8 {
            let mut per_slice = BsaesAttack::new(
                self.victim_rk.master_key(),
                self.attacker_rk.master_key(),
                self.victim_pt,
                k,
            );
            let mut noise = self.cfg.noise;
            noise.seed = noise
                .seed
                .wrapping_add((k as u64).wrapping_mul(0x5851_f42d_4c95_7f2d));
            per_slice.set_noise(noise);
            slices.push(per_slice.slice_votes(&window(k), min_gap, redundancy)?);
        }
        Ok(KeyVotes {
            slices: slices.try_into().expect("one row per slice"),
        })
    }

    /// The full key-recovery pipeline over per-slice guess windows:
    /// recover all eight slices, rebuild the final-SubBytes state,
    /// derive the round-10 key from the victim ciphertext, and invert
    /// the key schedule.
    ///
    /// `window` maps each slice index to the guesses to try.
    #[must_use]
    pub fn recover_key(
        &self,
        window: impl Fn(usize) -> Vec<u16>,
        min_gap: u64,
    ) -> Option<Block> {
        let mut slices = [0u16; 8];
        let mut victim_ct = [0u8; 16];
        for (k, slice) in slices.iter_mut().enumerate() {
            let per_slice = BsaesAttack::new(
                self.victim_rk.master_key(),
                self.attacker_rk.master_key(),
                self.victim_pt,
                k,
            );
            let (g, out) = per_slice.recover_slice_outcome(window(k), min_gap)?;
            *slice = g;
            // Same in every outcome: see `slice_votes`.
            victim_ct = out.victim_ct;
        }
        Some(BsaesAttack::key_from_leak(&slices, &victim_ct))
    }

    /// The master key from the recovered final-SubBytes slices and the
    /// victim's ciphertext.
    fn key_from_leak(slices: &Slices, victim_ct: &Block) -> Block {
        let state = bitslice::unbitslice(slices);
        let k10 = aes_ref::round10_key_from_leak(&state, victim_ct);
        RoundKeys::from_round10(&k10).master_key()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys() -> (Block, Block, Block) {
        let victim_key: Block = std::array::from_fn(|i| (i * 13 + 7) as u8);
        let attacker_key: Block = std::array::from_fn(|i| (i * 31 + 5) as u8);
        let victim_pt: Block = std::array::from_fn(|i| (i * 3) as u8);
        (victim_key, attacker_key, victim_pt)
    }

    #[test]
    fn chosen_plaintext_pins_the_target_slice() {
        let (vk, ak, vpt) = keys();
        let atk = BsaesAttack::new(vk, ak, vpt, 3);
        let pt = atk.plaintext_for_guess(0xBEEF);
        let slices = bitslice::final_subbytes_slices(&RoundKeys::expand(&ak), &pt);
        assert_eq!(slices[3], 0xBEEF);
    }

    #[test]
    fn correct_guess_is_measurably_faster() {
        let (vk, ak, vpt) = keys();
        let atk = BsaesAttack::new(vk, ak, vpt, 0);
        let truth = atk.true_slice_value();
        let hit = atk.measure_guess(truth, None).cycles;
        let miss = atk.measure_guess(truth ^ 0x1234, None).cycles;
        assert!(
            hit + 100 <= miss,
            "amplified single-store difference: hit={hit} miss={miss}"
        );
    }

    #[test]
    fn recover_slice_from_window() {
        let (vk, ak, vpt) = keys();
        let atk = BsaesAttack::new(vk, ak, vpt, 5);
        let truth = atk.true_slice_value();
        let lo = truth.saturating_sub(4);
        let window: Vec<u16> = (0..12).map(|d| lo.wrapping_add(d)).collect();
        assert_eq!(atk.recover_slice(window, 60), Some(truth));
    }

    #[test]
    fn injected_wedge_surfaces_as_structured_error() {
        use pandora_sim::FaultKind;
        let (vk, ak, vpt) = keys();
        let mut atk = BsaesAttack::new(vk, ak, vpt, 0);
        let truth = atk.true_slice_value();
        atk.set_fault_plan(Some(FaultPlan::single(200, FaultKind::DroppedCompletion)));
        let err = atk.try_measure_guess(truth, None).unwrap_err();
        assert!(
            matches!(err, SimError::Deadlock { .. }),
            "a lost completion must wedge into a watchdog deadlock, got {err}"
        );
    }

    #[test]
    fn retry_recovers_slice_despite_injected_wedge() {
        use pandora_sim::FaultKind;
        let (vk, ak, vpt) = keys();
        let mut atk = BsaesAttack::new(vk, ak, vpt, 1);
        let truth = atk.true_slice_value();
        // Every first-attempt run wedges; retries measure clean.
        atk.set_fault_plan(Some(FaultPlan::single(200, FaultKind::DroppedCompletion)));
        let lo = truth.saturating_sub(2);
        let window: Vec<u16> = (0..6).map(|d| lo.wrapping_add(d)).collect();
        let got = atk
            .recover_slice_with_retry(window, 60, &RetryPolicy::default())
            .unwrap();
        assert_eq!(got, Some(truth));
    }

    #[test]
    fn control_attack_lacks_amplified_separation() {
        let (vk, ak, vpt) = keys();
        let atk = BsaesAttack::control(vk, ak, vpt, 0);
        let truth = atk.true_slice_value();
        let hit = atk.measure_guess(truth, None).cycles;
        let miss = atk.measure_guess(truth ^ 0x1234, None).cycles;
        let gap = miss.abs_diff(hit);
        assert!(
            gap < 100,
            "without the gadget a silent store saves only its own \
             dequeue: hit={hit} miss={miss}"
        );
    }

    #[test]
    fn vote_recovers_slice_under_noise() {
        let (vk, ak, vpt) = keys();
        let mut atk = BsaesAttack::new(vk, ak, vpt, 4);
        // Interference over the victim's stack and spill slots; the
        // runtime measurement is architectural (stats cycles), so only
        // the cache/stall components matter here.
        atk.set_noise(NoiseConfig::at_intensity(30, 29).with_window(0x1_0000, 0x2_0000));
        let truth = atk.true_slice_value();
        let lo = truth.saturating_sub(3);
        let window: Vec<u16> = (0..8).map(|d| lo.wrapping_add(d)).collect();
        let votes = atk
            .slice_votes(&window, 60, 5)
            .expect("noisy measurement rounds complete");
        let got = majority_vote(&votes.votes);
        assert_eq!(got, Some(truth), "majority vote must survive the noise");
    }

    #[test]
    fn recovery_fails_gracefully_when_truth_not_in_window() {
        let (vk, ak, vpt) = keys();
        let atk = BsaesAttack::new(vk, ak, vpt, 2);
        let truth = atk.true_slice_value();
        let window: Vec<u16> = (0..8).map(|d| truth.wrapping_add(100 + d)).collect();
        assert_eq!(atk.recover_slice(window, 60), None, "no clear winner");
    }
}
