//! The bsaes guess grid's shared-prefix fork is exact.
//!
//! `BsaesAttack::measure_guess_grid` groups jobs that share a machine
//! config and preconditioning seed, runs the victim request once per
//! group, and forks every member after it. A job measured on its own
//! (`try_measure_guess`, or a one-job grid) is a group of one and still
//! forks from cycle 0. The two must agree field for field — cycles,
//! victim ciphertext, and error — under every environment the
//! experiments use, at any fleet thread count.

use std::slice;

use pandora_attacks::{BsaesAttack, GuessJob, RunOutcome};
use pandora_sim::{FaultKind, FaultPlan, NoiseConfig, SimError};

/// The wedge `tests/golden_stats.rs` pins for a lone fig6 measurement.
const FIG6_DEADLOCK_RENDERING: &str = "pipeline deadlock at cycle 10200: rob=64 (head seq 184 pc 184) sq=0 lq=2 prf=96/96 fetch_pc=256 last_progress=200";

fn attack(slice: usize) -> BsaesAttack {
    let victim_key: [u8; 16] = std::array::from_fn(|i| (i * 13 + 7) as u8);
    let attacker_key: [u8; 16] = std::array::from_fn(|i| (i * 31 + 5) as u8);
    let victim_pt: [u8; 16] = std::array::from_fn(|i| (i * 3) as u8);
    BsaesAttack::new(victim_key, attacker_key, victim_pt, slice)
}

/// `n` guesses around the truth, the truth second.
fn window(atk: &BsaesAttack, n: u16) -> Vec<u16> {
    let lo = atk.true_slice_value().wrapping_sub(1);
    (0..n).map(|d| lo.wrapping_add(d)).collect()
}

/// One job measured alone: a group of one, forked from cycle 0.
fn alone(atk: &BsaesAttack, job: &GuessJob) -> Result<RunOutcome, SimError> {
    if job.noise.is_none() {
        atk.try_measure_guess(job.guess, job.noise_seed)
    } else {
        atk.measure_guess_grid(slice::from_ref(job)).map(|o| o[0])
    }
}

/// Asserts the grouped grid equals the jobs measured one by one, at one
/// and two fleet threads, and returns the outcome.
fn grid_equals_singletons(
    atk: &mut BsaesAttack,
    jobs: &[GuessJob],
) -> Result<Vec<RunOutcome>, SimError> {
    let singles: Result<Vec<RunOutcome>, SimError> = jobs.iter().map(|j| alone(atk, j)).collect();
    for threads in [1, 2] {
        atk.set_fleet_threads(threads);
        let grid = atk.measure_guess_grid(jobs);
        assert_eq!(
            grid.as_ref().map_err(ToString::to_string),
            singles.as_ref().map_err(ToString::to_string),
            "grouped grid vs singletons at {threads} thread(s)"
        );
        assert_eq!(grid, singles, "structured errors agree too");
    }
    singles
}

#[test]
fn quiet_grid_matches_singletons() {
    let mut atk = attack(0);
    let jobs: Vec<GuessJob> = window(&atk, 4).into_iter().map(GuessJob::new).collect();
    let outs = grid_equals_singletons(&mut atk, &jobs).expect("quiet runs complete");
    // The truth (second) is the amplified, fast one.
    assert!(outs[1].cycles + 100 <= outs[0].cycles, "{outs:?}");
    assert!(outs.iter().all(|o| o.victim_ct == outs[0].victim_ct));
}

#[test]
fn noisy_config_grid_matches_singletons() {
    let mut atk = attack(4);
    atk.set_noise(NoiseConfig::at_intensity(30, 29).with_window(0x1_0000, 0x2_0000));
    let jobs: Vec<GuessJob> = window(&atk, 3).into_iter().map(GuessJob::new).collect();
    grid_equals_singletons(&mut atk, &jobs).expect("noisy runs complete");
}

#[test]
fn per_job_noise_pairs_match_singletons() {
    // E16's amplification sweep: each trial's hit/miss pair shares one
    // noise override, so pairs are groups of two.
    let mut atk = attack(0);
    let truth = atk.true_slice_value();
    let jobs: Vec<GuessJob> = (0..2u64)
        .flat_map(|t| {
            let noise =
                NoiseConfig::at_intensity(30, 0xf1f1 + t * 7919).with_window(0x1_0000, 0x2_0000);
            [truth, truth ^ 0x1234].map(|guess| GuessJob {
                guess,
                noise: Some(noise),
                noise_seed: None,
            })
        })
        .collect();
    grid_equals_singletons(&mut atk, &jobs).expect("noisy pairs complete");
}

#[test]
fn shared_preconditioning_seed_matches_singletons() {
    // Three jobs share seed 7919 (one group), one has its own seed and
    // one none (groups of one), interleaved.
    let mut atk = attack(2);
    let w = window(&atk, 3);
    let seeds = [Some(7919), Some(42), Some(7919), None, Some(7919)];
    let jobs: Vec<GuessJob> = seeds
        .iter()
        .enumerate()
        .map(|(i, &noise_seed)| GuessJob {
            guess: w[i % w.len()],
            noise: None,
            noise_seed,
        })
        .collect();
    grid_equals_singletons(&mut atk, &jobs).expect("preconditioned runs complete");
}

#[test]
fn wedged_prefix_gives_every_job_the_lone_run_error() {
    let mut atk = attack(0);
    atk.set_fault_plan(Some(FaultPlan::single(200, FaultKind::DroppedCompletion)));
    let jobs: Vec<GuessJob> = window(&atk, 3).into_iter().map(GuessJob::new).collect();
    let err = grid_equals_singletons(&mut atk, &jobs).expect_err("the fault wedges every run");
    assert!(matches!(err, SimError::Deadlock { .. }), "got {err}");
    assert_eq!(err.to_string(), FIG6_DEADLOCK_RENDERING);
}
