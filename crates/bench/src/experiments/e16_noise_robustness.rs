//! **E16** — noise robustness: deterministic interference intensity
//! vs channel quality and end-to-end attack success.
//!
//! The paper's attacks are measured on a quiet machine; a real cloud
//! tenant shares it with co-runners. This experiment turns on the
//! seed-driven noise model (`pandora_sim::noise`) and sweeps its
//! intensity against three layers of the stack:
//!
//! 1. **Channel quality** — probe hit/miss SNR and estimated BER, plus
//!    a 16-symbol covert channel decoded naively (one shot) and with
//!    repetition coding (majority vote). The adaptive receiver
//!    demonstrates drift detection and threshold re-calibration.
//! 2. **Amplification under noise** — the Fig 5 argument: the
//!    amplified BSAES runtime gap (>100 cycles) survives intensities
//!    that swallow the unamplified control's couple-of-cycle gap.
//! 3. **End-to-end at the sweep midpoint** — the majority-vote BSAES
//!    attack must still recover all 16 key bytes (trading samples for
//!    accuracy) while the single-sweep receiver measurably degrades;
//!    the URG read is decoded naively vs voted the same way.
//!
//! Expected shape: graceful degradation — error rates climb with
//! intensity, voting pushes the cliff to higher intensities, and the
//! amplified channel outlives the unamplified one.

use std::time::Duration;

use pandora_attacks::{BsaesAttack, GuessJob, UrgAttack};
use pandora_channels::{
    majority_vote, probe_calibration_grid, probe_calibration_round, AdaptiveReceiver,
    BitErrorCounter, ChannelQuality, CovertChannel, RetryPolicy,
};
use pandora_runner::{outln, Ctx, Experiment, Failure};
use pandora_sim::{NoiseConfig, OptConfig, SimConfig};

/// The sweep midpoint: the intensity the end-to-end acceptance runs
/// at.
const MIDPOINT: u16 = 30;
/// Gap bar for the BSAES argmin (same as the quiet experiments).
const MIN_GAP: u64 = 60;
/// A private location well outside the URG sandbox.
const SECRET_ADDR: u64 = 0x20_0000;

/// Registry entry.
#[must_use]
pub fn experiment() -> Experiment {
    Experiment {
        name: "e16_noise_robustness",
        title: "E16: noise intensity vs channel BER and attack success",
        run,
        fingerprint: || {
            let mut cfg = SimConfig::with_opts(OptConfig::with_silent_stores());
            cfg.noise = NoiseConfig::at_intensity(MIDPOINT, super::DEFAULT_SEED);
            cfg.stable_hash()
        },
        deadline: Duration::from_secs(600),
    }
}

fn intensities(ctx: &Ctx) -> &'static [u16] {
    if ctx.smoke() {
        &[0, MIDPOINT, 60]
    } else {
        &[0, 15, MIDPOINT, 45, 60]
    }
}

fn keys() -> ([u8; 16], [u8; 16], [u8; 16]) {
    let victim_key: [u8; 16] = std::array::from_fn(|i| (i * 13 + 7) as u8);
    let attacker_key: [u8; 16] = std::array::from_fn(|i| (i * 31 + 5) as u8);
    let victim_pt: [u8; 16] = std::array::from_fn(|i| (i * 3) as u8);
    (victim_key, attacker_key, victim_pt)
}

/// The interference window of the BSAES phases: dense enough over the
/// worker stack that the single-sweep receiver measurably degrades at
/// the midpoint, dilute enough that voting still converges.
const BSAES_WINDOW: (u64, u64) = (0x1_0000, 0x1_8000);

fn run(ctx: &Ctx) -> Result<(), Failure> {
    channel_quality_sweep(ctx)?;
    amplification_sweep(ctx)?;
    attack_success_sweep(ctx)
}

/// Phase 1: probe SNR/BER and covert-channel error rates per
/// intensity, naive vs repetition-coded, plus the adaptive receiver's
/// drift response.
fn channel_quality_sweep(ctx: &Ctx) -> Result<(), Failure> {
    ctx.header("Channel quality vs noise intensity");
    let trials = 16;
    let redundancy = if ctx.smoke() { 5 } else { 7 };
    let values: &[usize] = if ctx.smoke() {
        &[1, 6, 11, 14]
    } else {
        &[1, 6, 11, 14, 3, 9, 12, 5]
    };
    let ch = CovertChannel {
        base: 0x4_0000,
        symbols: 16,
        stride: 64,
        result_base: 0x800,
    };
    let quiet = SimConfig::default();
    let mut receiver =
        AdaptiveReceiver::calibrate(RetryPolicy::default(), trials, |trials, _attempt| {
            probe_calibration_round(&quiet, trials, None)
        })
        .map_err(|e| Failure::new(format!("quiet calibration failed: {e}")))?;
    outln!(
        ctx,
        "quiet calibration: threshold {} (t = {:.1})",
        receiver.threshold(),
        receiver.calibration().t
    );
    outln!(
        ctx,
        "\n{:>9}  {:>8}  {:>9}  {:>11}  {:>11}  {}",
        "intensity",
        "SNR dB",
        "est BER",
        "naive SER",
        "vote SER",
        "adaptive receiver"
    );
    // All intensities' probe rounds run as one fleet grid up front
    // (shared program, pooled machines, work-stealing threads); per-row
    // quality is then read out of the grid in intensity order. The
    // per-intensity seeds (not sweep indices) keep smoke and full
    // profiles printing identical rows for shared intensities.
    let noisy_cfgs: Vec<SimConfig> = intensities(ctx)
        .iter()
        .map(|&intensity| {
            let seed = ctx.seed().wrapping_add(u64::from(intensity) * 0x9e37_79b9);
            let mut noisy = quiet;
            noisy.noise = NoiseConfig::at_intensity(intensity, seed);
            noisy
        })
        .collect();
    let probe_rounds = probe_calibration_grid(&noisy_cfgs, trials, ctx.fleet_threads())
        .map_err(|e| Failure::new(format!("noisy probe grid failed: {e}")))?;
    for (idx, &intensity) in intensities(ctx).iter().enumerate() {
        let seed = ctx.seed().wrapping_add(u64::from(intensity) * 0x9e37_79b9);
        let noisy = noisy_cfgs[idx];
        let (hits, misses) = &probe_rounds[idx];
        let q = ChannelQuality::from_samples(hits, misses);
        // Drift response: re-calibrate when the separation collapses.
        let adapted = receiver.observe(hits, misses, trials, |trials, _attempt| {
            probe_calibration_round(&noisy, trials, None)
        });
        let adapted = match adapted {
            Ok(true) => format!("recalibrated -> {}", receiver.threshold()),
            Ok(false) => "threshold holds".to_string(),
            Err(e) => format!("dead channel ({e})"),
        };
        // Covert symbol error rates, one-shot vs majority vote, under
        // interference windowed onto the channel's line array. Every
        // value's rounds run as a single fleet grid; the one-shot
        // receiver is round 0 of the vote, so the two columns are
        // paired: they read the same noise draws.
        let mut cfg = quiet;
        cfg.noise = NoiseConfig::at_intensity(intensity, seed).with_window(0x4_0000, 0x5_0000);
        let jobs: Vec<(SimConfig, usize)> = values
            .iter()
            .enumerate()
            .map(|(vi, &value)| {
                let mut c = cfg;
                c.noise.seed = cfg.noise.seed.wrapping_add(vi as u64 * 0xabcd);
                (c, value)
            })
            .collect();
        let rounds = ch.round_trip_votes(&jobs, redundancy, ctx.fleet_threads())?;
        let mut naive = BitErrorCounter::new();
        let mut vote = BitErrorCounter::new();
        for (&(_, value), votes) in jobs.iter().zip(&rounds) {
            naive.record(value, votes[0]);
            vote.record(value, majority_vote(votes));
        }
        outln!(
            ctx,
            "{:>9}  {:>8.1}  {:>9.4}  {:>11.3}  {:>11.3}  {}",
            intensity,
            q.snr_db(),
            q.est_ber,
            naive.ser(),
            vote.ser(),
            adapted
        );
    }
    outln!(
        ctx,
        "\nrepetition coding (redundancy {redundancy}) holds the symbol error\n\
         rate down at intensities that degrade the one-shot receiver."
    );
    Ok(())
}

/// Phase 2: the amplified BSAES runtime gap vs the unamplified
/// control's, per intensity — amplification buys noise margin (Fig 5).
fn amplification_sweep(ctx: &Ctx) -> Result<(), Failure> {
    ctx.header("Amplified vs unamplified BSAES gap vs noise intensity");
    let trials: u64 = if ctx.smoke() { 2 } else { 4 };
    let (vk, ak, vpt) = keys();
    let mut amplified = BsaesAttack::new(vk, ak, vpt, 0);
    let mut control = BsaesAttack::control(vk, ak, vpt, 0);
    amplified.set_fleet_threads(ctx.fleet_threads());
    control.set_fleet_threads(ctx.fleet_threads());
    let truth = amplified.true_slice_value();
    outln!(
        ctx,
        "{:>9}  {:>15}  {:>15}",
        "intensity",
        "amplified gap",
        "control gap"
    );
    for &intensity in intensities(ctx) {
        let seed = ctx
            .seed()
            .wrapping_add(0xf1f1)
            .wrapping_add(u64::from(intensity) * 0x9e37_79b9);
        // All trials of both guesses run as one fleet grid per attack:
        // the per-trial noise override rides in each job
        // (hit/miss interleaved, so chunks of 2 are one trial's pair).
        let mean_gap = |atk: &BsaesAttack| -> Result<f64, Failure> {
            let jobs: Vec<GuessJob> = (0..trials)
                .flat_map(|t| {
                    let noise =
                        NoiseConfig::at_intensity(intensity, seed.wrapping_add(t * 7919))
                            .with_window(BSAES_WINDOW.0, BSAES_WINDOW.1);
                    [truth, truth ^ 0x1234].map(|guess| GuessJob {
                        guess,
                        noise: Some(noise),
                        noise_seed: None,
                    })
                })
                .collect();
            let outs = atk.measure_guess_grid(&jobs)?;
            let gap_sum: i64 = outs
                .chunks(2)
                .map(|pair| pair[1].cycles as i64 - pair[0].cycles as i64)
                .sum();
            Ok(gap_sum as f64 / trials as f64)
        };
        outln!(
            ctx,
            "{:>9}  {:>15.1}  {:>15.1}",
            intensity,
            mean_gap(&amplified)?,
            mean_gap(&control)?
        );
    }
    outln!(
        ctx,
        "\nthe amplified >100-cycle gap survives intensities whose runtime\n\
         variance swallows the control's couple-of-cycle silent-store\n\
         saving — amplification is what buys noise margin."
    );
    Ok(())
}

/// Phase 3: end-to-end attack success per intensity — BSAES slices
/// recovered and URG bytes read, one-shot vs majority-voted — then
/// the acceptance checks at the midpoint: the voted attack recovers
/// the full key while the single-sweep receiver measurably degrades.
///
/// Each receiver pair reads one set of rounds: the one-shot column is
/// round 0 and the vote is the majority over all of them
/// ([`BsaesAttack::key_votes`] with its per-slice and per-round seed
/// schedule, [`UrgAttack::leak_byte_votes`]). The midpoint key is the
/// midpoint row's vote.
fn attack_success_sweep(ctx: &Ctx) -> Result<(), Failure> {
    ctx.header("End-to-end attack success vs noise intensity");
    let redundancy = if ctx.smoke() { 3 } else { 5 };
    let secrets: &[u8] = if ctx.smoke() {
        &[0x13, 0x77]
    } else {
        &[0x13, 0x77, 0xC4, 0x6D]
    };
    let (vk, ak, vpt) = keys();
    let truths: Vec<u16> = (0..8)
        .map(|k| BsaesAttack::new(vk, ak, vpt, k).true_slice_value())
        .collect();
    let window = |k: usize| -> Vec<u16> {
        let lo = truths[k].wrapping_sub(2);
        (0..5).map(|d| lo.wrapping_add(d)).collect()
    };
    let n_secrets = secrets.len();
    outln!(
        ctx,
        "{:>9}  {:>11}  {:>10}  {:>9}  {:>8}",
        "intensity",
        "bsaes naive",
        "bsaes vote",
        "urg naive",
        "urg vote"
    );
    let mut naive_at_midpoint = 8;
    let mut recovered = None;
    for &intensity in intensities(ctx) {
        let mut atk = BsaesAttack::new(vk, ak, vpt, 0);
        atk.set_noise(
            NoiseConfig::at_intensity(intensity, ctx.seed())
                .with_window(BSAES_WINDOW.0, BSAES_WINDOW.1),
        );
        let bsaes = atk.key_votes(window, MIN_GAP, redundancy)?;
        let rows = || bsaes.slices.iter().zip(&truths);
        let naive = rows().filter(|(s, &t)| s.votes[0] == Some(t)).count();
        let voted = rows()
            .filter(|(s, &t)| majority_vote(&s.votes) == Some(t))
            .count();
        if intensity == MIDPOINT {
            naive_at_midpoint = naive;
            recovered = bsaes.key();
        }
        let mut urg = UrgAttack::new(3);
        for (i, &b) in secrets.iter().enumerate() {
            urg.plant_secret(SECRET_ADDR + i as u64, b);
        }
        urg.set_noise(NoiseConfig::at_intensity(
            intensity,
            ctx.seed().wrapping_add(0xa11ce),
        ));
        let urg_votes = (0..n_secrets as u64)
            .map(|i| urg.leak_byte_votes(SECRET_ADDR + i, redundancy))
            .collect::<Result<Vec<_>, _>>()?;
        let urg_rows = || urg_votes.iter().zip(secrets);
        let urg_naive = urg_rows().filter(|(v, &b)| v[0] == Some(b)).count();
        let urg_vote = urg_rows()
            .filter(|(v, &b)| majority_vote(v) == Some(b))
            .count();
        outln!(
            ctx,
            "{:>9}  {:>9}/8  {:>8}/8  {:>7}/{}  {:>6}/{}",
            intensity,
            naive,
            voted,
            urg_naive,
            n_secrets,
            urg_vote,
            n_secrets
        );
    }

    // Acceptance at the midpoint: the hardened receiver recovers the
    // whole key (trading samples for accuracy); the single sweep does
    // not keep all eight slices.
    ctx.header("Midpoint acceptance");
    outln!(
        ctx,
        "single-sweep receiver at intensity {MIDPOINT}: {naive_at_midpoint}/8 slices"
    );
    if naive_at_midpoint >= 8 {
        return Err(Failure::new(format!(
            "the non-hardened receiver must measurably degrade at intensity \
             {MIDPOINT}: recovered {naive_at_midpoint}/8 slices"
        )));
    }
    outln!(
        ctx,
        "majority-vote receiver (redundancy {redundancy}): recovered key {}",
        match recovered {
            Some(k) => format!("{k:02x?}"),
            None => "none".to_string(),
        }
    );
    if recovered != Some(vk) {
        return Err(Failure::new(format!(
            "majority-vote BSAES must recover the victim key at intensity \
             {MIDPOINT}: got {recovered:02x?}"
        )));
    }
    outln!(ctx, "all 16 key bytes recovered under midpoint noise");
    Ok(())
}
