//! Retry policies for noisy calibration and measurement rounds.
//!
//! Real attack campaigns run in noisy environments: co-tenant cache
//! pressure blurs the hit/miss separation, and a disturbed machine can
//! even fail its run outright (the fault-injection harness in
//! `pandora-sim` models both). A [`RetryPolicy`] turns one-shot
//! calibration into a bounded retry loop: each attempt adds
//! [`RetryPolicy::backoff_trials`] trials (more samples drown
//! independent noise), an attempt is accepted only once Welch's t
//! clears [`RetryPolicy::min_t`], and after
//! [`RetryPolicy::max_attempts`] the caller gets a structured
//! [`RetryError`] carrying the best attempt seen — partial results, not
//! a panic.

use std::error::Error;
use std::fmt;
use std::time::Instant;

use pandora_sim::SimError;

use crate::stats::{midpoint_threshold, welch_t, Summary};

/// Bounded-retry configuration for calibration and attack rounds.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct RetryPolicy {
    /// Attempts before giving up (values below 1 behave as 1).
    pub max_attempts: u32,
    /// Extra trials added per retry (backoff measured in samples, not
    /// wall time — more samples is what actually fights noise here).
    pub backoff_trials: usize,
    /// Minimum Welch's t between the two timing populations for a
    /// calibration attempt to be accepted; also the re-calibration
    /// trigger ([`RetryPolicy::needs_recalibration`]).
    pub min_t: f64,
    /// Seed for deterministic backoff jitter; `0` disables jitter (the
    /// default, preserving the exact legacy trial sequence). With a
    /// nonzero seed, each retry's extra-trial count is perturbed by a
    /// seeded hash of the attempt index (see
    /// [`RetryPolicy::trials_for_attempt`]), so parallel experiments
    /// sharing one policy stop re-running identically sized rounds in
    /// lockstep. Same seed, same jitter — retried runs stay
    /// reproducible.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            backoff_trials: 16,
            min_t: 5.0,
            jitter_seed: 0,
        }
    }
}

/// Why a retried operation ultimately failed.
#[derive(Clone, PartialEq, Debug)]
pub enum RetryError {
    /// Every attempt's timing populations stayed closer than `min_t`.
    Indistinguishable {
        /// Attempts made.
        attempts: u32,
        /// The best Welch's t any attempt achieved.
        best_t: f64,
        /// The bar it had to clear.
        min_t: f64,
    },
    /// Every attempt failed with a simulator error (the last is kept).
    Sim {
        /// Attempts made.
        attempts: u32,
        /// The final attempt's error.
        last: SimError,
    },
    /// The caller's deadline expired before any attempt succeeded
    /// (see [`RetryPolicy::retry_within`]).
    DeadlineExceeded {
        /// Attempts completed before the deadline fired.
        attempts: u32,
        /// The last attempt's error, if at least one attempt ran.
        last: Option<SimError>,
    },
}

impl fmt::Display for RetryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RetryError::Indistinguishable {
                attempts,
                best_t,
                min_t,
            } => write!(
                f,
                "timing populations indistinguishable after {attempts} \
                 attempts (best Welch's t {best_t:.2}, needed {min_t:.2})"
            ),
            RetryError::Sim { attempts, last } => {
                write!(f, "all {attempts} attempts failed; last error: {last}")
            }
            RetryError::DeadlineExceeded { attempts, last } => {
                write!(f, "deadline exceeded after {attempts} attempt(s)")?;
                if let Some(last) = last {
                    write!(f, "; last error: {last}")?;
                }
                Ok(())
            }
        }
    }
}

/// Why a generic bounded-retry loop ([`RetryPolicy::retry_generic`])
/// stopped without a success.
#[derive(Clone, PartialEq, Debug)]
pub enum RetryStop<E> {
    /// The attempt budget ran out; the last error is kept.
    Exhausted {
        /// Attempts made.
        attempts: u32,
        /// The final attempt's error.
        last: E,
    },
    /// The deadline passed between attempts.
    DeadlineExceeded {
        /// Attempts completed before the deadline fired.
        attempts: u32,
        /// The last attempt's error, if at least one attempt ran.
        last: Option<E>,
    },
}

impl Error for RetryError {}

/// An accepted calibration: the threshold separating the two timing
/// populations and the statistics that justified it.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Calibration {
    /// Midpoint threshold between the two population means; a sample
    /// below it classifies as "fast".
    pub threshold: u64,
    /// Welch's t of slow vs fast (positive when separated correctly).
    pub t: f64,
    /// Fast-population summary.
    pub fast: Summary,
    /// Slow-population summary.
    pub slow: Summary,
    /// Trials per population in the accepted attempt.
    pub trials: usize,
    /// 1-based attempt number that was accepted.
    pub attempts: u32,
}

impl RetryPolicy {
    /// This policy with deterministic backoff jitter from `seed`
    /// (`0` turns jitter back off).
    #[must_use]
    pub fn with_jitter(self, seed: u64) -> RetryPolicy {
        RetryPolicy {
            jitter_seed: seed,
            ..self
        }
    }

    /// The per-population trial count for a 0-based `attempt`: the base
    /// count plus one [`RetryPolicy::backoff_trials`] step per retry,
    /// plus — under a nonzero [`RetryPolicy::jitter_seed`] — a seeded
    /// per-attempt jitter of up to `backoff_trials - 1` extra trials.
    /// Attempt 0 is never jittered (the first round must match the
    /// un-jittered policy byte for byte), and because the jitter stays
    /// strictly below one backoff step the sequence remains strictly
    /// increasing.
    #[must_use]
    pub fn trials_for_attempt(&self, base_trials: usize, attempt: u32) -> usize {
        let base = base_trials + attempt as usize * self.backoff_trials;
        if self.jitter_seed == 0 || attempt == 0 || self.backoff_trials == 0 {
            return base;
        }
        let roll = splitmix64(self.jitter_seed ^ (u64::from(attempt) << 32));
        base + (roll % self.backoff_trials as u64) as usize
    }

    /// Whether an observed separation has degraded enough that the
    /// caller should re-run calibration.
    #[must_use]
    pub fn needs_recalibration(&self, t: f64) -> bool {
        t.abs() < self.min_t
    }

    /// Runs `round` (given a trial count and 0-based attempt index,
    /// returning `(fast, slow)` timing samples) until an attempt's
    /// Welch's t clears [`RetryPolicy::min_t`].
    ///
    /// # Errors
    ///
    /// [`RetryError::Indistinguishable`] if no attempt separated the
    /// populations, [`RetryError::Sim`] if every attempt's round
    /// failed outright.
    pub fn calibrate(
        &self,
        base_trials: usize,
        mut round: impl FnMut(usize, u32) -> Result<(Vec<u64>, Vec<u64>), SimError>,
    ) -> Result<Calibration, RetryError> {
        let attempts = self.max_attempts.max(1);
        let mut best: Option<Calibration> = None;
        let mut last_sim: Option<SimError> = None;
        for attempt in 0..attempts {
            let trials = self.trials_for_attempt(base_trials, attempt);
            let (fast, slow) = match round(trials, attempt) {
                Ok(samples) => samples,
                Err(e) => {
                    last_sim = Some(e);
                    continue;
                }
            };
            let cal = Calibration {
                threshold: midpoint_threshold(&fast, &slow),
                t: welch_t(&slow, &fast),
                fast: Summary::of(&fast),
                slow: Summary::of(&slow),
                trials,
                attempts: attempt + 1,
            };
            if cal.t >= self.min_t {
                return Ok(cal);
            }
            if best.is_none_or(|b| cal.t > b.t) {
                best = Some(cal);
            }
        }
        match (best, last_sim) {
            (Some(b), _) => Err(RetryError::Indistinguishable {
                attempts,
                best_t: b.t,
                min_t: self.min_t,
            }),
            (None, Some(last)) => Err(RetryError::Sim { attempts, last }),
            (None, None) => unreachable!("at least one attempt ran"),
        }
    }

    /// The generic bounded-retry core: retries an arbitrary fallible
    /// operation (given the 0-based attempt index) until it succeeds,
    /// the attempt budget runs out, or the optional `deadline` passes.
    ///
    /// The deadline is checked *between* attempts (an in-flight attempt
    /// is never interrupted — callers needing hard preemption run the
    /// whole loop under the orchestrator's job deadline instead), so at
    /// most one attempt completes after the deadline instant. Values
    /// of `max_attempts` below 1 behave as 1: the operation always gets
    /// at least one attempt, unless the deadline has already passed
    /// before the first one.
    ///
    /// # Errors
    ///
    /// [`RetryStop::Exhausted`] with the last error when the budget
    /// runs out; [`RetryStop::DeadlineExceeded`] when the deadline
    /// fires first (carrying the last error seen, if any).
    pub fn retry_generic<T, E>(
        &self,
        deadline: Option<Instant>,
        mut op: impl FnMut(u32) -> Result<T, E>,
    ) -> Result<T, RetryStop<E>> {
        let attempts = self.max_attempts.max(1);
        let mut last = None;
        for attempt in 0..attempts {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(RetryStop::DeadlineExceeded {
                    attempts: attempt,
                    last,
                });
            }
            match op(attempt) {
                Ok(v) => return Ok(v),
                Err(e) => last = Some(e),
            }
        }
        Err(RetryStop::Exhausted {
            attempts,
            last: last.expect("loop ran at least once"),
        })
    }

    /// Retries an arbitrary fallible operation (given the 0-based
    /// attempt index) until it succeeds.
    ///
    /// # Errors
    ///
    /// [`RetryError::Sim`] with the last error if every attempt failed.
    pub fn retry<T>(
        &self,
        op: impl FnMut(u32) -> Result<T, SimError>,
    ) -> Result<T, RetryError> {
        self.retry_generic(None, op).map_err(|stop| match stop {
            RetryStop::Exhausted { attempts, last } => RetryError::Sim { attempts, last },
            RetryStop::DeadlineExceeded { .. } => {
                unreachable!("no deadline was supplied")
            }
        })
    }

    /// Batch retry that re-dispatches **failed members only**: the
    /// retry shape for fleet sweeps, where attempt 0 runs the whole
    /// member grid and each later attempt re-runs just the members
    /// that failed — succeeded members keep their first result, so a
    /// single wedged trial no longer forces a whole batch re-run.
    ///
    /// `batch` receives the still-failing member indices (strictly
    /// increasing) and the 0-based attempt number, and must return
    /// exactly one result per requested index, in the same order.
    ///
    /// # Errors
    ///
    /// [`RetryError::Sim`] carrying the lowest-index still-failing
    /// member's last error once the attempt budget is spent.
    ///
    /// # Panics
    ///
    /// Panics if `batch` returns a different number of results than
    /// indices it was given — a harness bug.
    pub fn retry_failed<T>(
        &self,
        count: usize,
        mut batch: impl FnMut(&[usize], u32) -> Vec<Result<T, SimError>>,
    ) -> Result<Vec<T>, RetryError> {
        let attempts = self.max_attempts.max(1);
        let mut results: Vec<Option<T>> = (0..count).map(|_| None).collect();
        let mut pending: Vec<usize> = (0..count).collect();
        let mut first_err: Option<SimError> = None;
        for attempt in 0..attempts {
            if pending.is_empty() {
                break;
            }
            let out = batch(&pending, attempt);
            assert_eq!(
                out.len(),
                pending.len(),
                "batch must return one result per requested member"
            );
            let mut still = Vec::new();
            first_err = None;
            for (idx, r) in pending.iter().copied().zip(out) {
                match r {
                    Ok(v) => results[idx] = Some(v),
                    Err(e) => {
                        if still.is_empty() {
                            first_err = Some(e);
                        }
                        still.push(idx);
                    }
                }
            }
            pending = still;
        }
        if pending.is_empty() {
            Ok(results
                .into_iter()
                .map(|r| r.expect("every member resolved"))
                .collect())
        } else {
            Err(RetryError::Sim {
                attempts,
                last: first_err.expect("a pending member has a recorded error"),
            })
        }
    }

    /// Deadline-aware [`RetryPolicy::retry`]: gives up as soon as
    /// `deadline` has passed between attempts, even with budget left —
    /// the shape long-running attack campaigns need so a noisy phase
    /// cannot eat the whole experiment's time box.
    ///
    /// # Errors
    ///
    /// [`RetryError::Sim`] if the attempt budget ran out first;
    /// [`RetryError::DeadlineExceeded`] if the deadline fired mid-retry
    /// (carrying the last simulator error seen, if any attempt ran).
    pub fn retry_within<T>(
        &self,
        deadline: Instant,
        op: impl FnMut(u32) -> Result<T, SimError>,
    ) -> Result<T, RetryError> {
        self.retry_generic(Some(deadline), op)
            .map_err(|stop| match stop {
                RetryStop::Exhausted { attempts, last } => RetryError::Sim { attempts, last },
                RetryStop::DeadlineExceeded { attempts, last } => {
                    RetryError::DeadlineExceeded { attempts, last }
                }
            })
    }
}

/// SplitMix64 finalizer — the workspace's one seeded hash. Here it
/// decorrelates jitter across attempt indices; the runner's chaos plans
/// step a SplitMix64 stream through it.
#[must_use]
pub fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_slow(sep: u64, trials: usize) -> (Vec<u64>, Vec<u64>) {
        let fast: Vec<u64> = (0..trials as u64).map(|i| 100 + i % 3).collect();
        let slow: Vec<u64> = (0..trials as u64).map(|i| 100 + sep + i % 3).collect();
        (fast, slow)
    }

    #[test]
    fn accepts_separated_populations_first_try() {
        let p = RetryPolicy::default();
        let cal = p.calibrate(20, |trials, _| Ok(fast_slow(100, trials))).unwrap();
        assert_eq!(cal.attempts, 1);
        assert_eq!(cal.trials, 20);
        assert!(cal.t > p.min_t);
        assert!(cal.threshold > 102 && cal.threshold < 200);
    }

    #[test]
    fn retries_with_backoff_then_reports_best_attempt() {
        let p = RetryPolicy {
            max_attempts: 3,
            backoff_trials: 10,
            min_t: 5.0,
            jitter_seed: 0,
        };
        let mut seen_trials = Vec::new();
        let err = p
            .calibrate(8, |trials, _| {
                seen_trials.push(trials);
                // Identical populations: never distinguishable.
                Ok(fast_slow(0, trials))
            })
            .unwrap_err();
        assert_eq!(seen_trials, vec![8, 18, 28], "backoff adds trials");
        match err {
            RetryError::Indistinguishable {
                attempts, best_t, ..
            } => {
                assert_eq!(attempts, 3);
                assert!(best_t.abs() < 5.0);
            }
            other => panic!("expected Indistinguishable, got {other}"),
        }
    }

    #[test]
    fn noisy_first_round_recovers_on_retry() {
        let p = RetryPolicy::default();
        let cal = p
            .calibrate(20, |trials, attempt| {
                // Round 0 is jammed (overlapping populations); later
                // rounds are clean.
                Ok(fast_slow(if attempt == 0 { 0 } else { 100 }, trials))
            })
            .unwrap();
        assert_eq!(cal.attempts, 2);
    }

    #[test]
    fn sim_errors_are_retried_and_surfaced() {
        let p = RetryPolicy {
            max_attempts: 2,
            ..RetryPolicy::default()
        };
        let v = p
            .retry(|attempt| {
                if attempt == 0 {
                    Err(SimError::Timeout { cycles: 10 })
                } else {
                    Ok(attempt)
                }
            })
            .unwrap();
        assert_eq!(v, 1);

        let err = p
            .retry::<()>(|_| Err(SimError::Timeout { cycles: 10 }))
            .unwrap_err();
        assert_eq!(
            err,
            RetryError::Sim {
                attempts: 2,
                last: SimError::Timeout { cycles: 10 }
            }
        );
    }

    #[test]
    fn zero_max_attempts_still_runs_once() {
        // A policy with max_attempts: 0 is clamped to one attempt — a
        // misconfigured caller gets one honest try, not a vacuous error.
        let p = RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::default()
        };
        let mut calls = 0u32;
        let v = p
            .retry(|attempt| {
                calls += 1;
                Ok::<u32, SimError>(attempt)
            })
            .unwrap();
        assert_eq!((v, calls), (0, 1));

        let mut calls = 0u32;
        let err = p
            .retry::<()>(|_| {
                calls += 1;
                Err(SimError::Timeout { cycles: 1 })
            })
            .unwrap_err();
        assert_eq!(calls, 1);
        assert_eq!(
            err,
            RetryError::Sim {
                attempts: 1,
                last: SimError::Timeout { cycles: 1 }
            }
        );
    }

    #[test]
    fn deadline_already_passed_stops_before_first_attempt() {
        let p = RetryPolicy::default();
        let err = p
            .retry_within::<()>(Instant::now(), |_| {
                panic!("the operation must not run past a spent deadline")
            })
            .unwrap_err();
        assert_eq!(
            err,
            RetryError::DeadlineExceeded {
                attempts: 0,
                last: None
            }
        );
    }

    #[test]
    fn deadline_exceeded_mid_retry_keeps_last_error() {
        let p = RetryPolicy {
            max_attempts: 5,
            ..RetryPolicy::default()
        };
        let deadline = Instant::now() + std::time::Duration::from_millis(5);
        let err = p
            .retry_within::<()>(deadline, |attempt| {
                assert_eq!(attempt, 0, "only the pre-deadline attempt runs");
                // Burn through the deadline inside the first attempt.
                while Instant::now() < deadline {
                    std::hint::spin_loop();
                }
                Err(SimError::Timeout { cycles: 99 })
            })
            .unwrap_err();
        assert_eq!(
            err,
            RetryError::DeadlineExceeded {
                attempts: 1,
                last: Some(SimError::Timeout { cycles: 99 })
            }
        );
    }

    #[test]
    fn retry_generic_works_over_non_sim_errors() {
        let p = RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        };
        let err = p
            .retry_generic::<(), &str>(None, |_| Err("custom failure"))
            .unwrap_err();
        assert_eq!(
            err,
            RetryStop::Exhausted {
                attempts: 3,
                last: "custom failure"
            }
        );
    }

    #[test]
    fn jitter_is_off_by_default_and_zero_seed_matches_legacy_sequence() {
        let p = RetryPolicy {
            max_attempts: 5,
            backoff_trials: 10,
            ..RetryPolicy::default()
        };
        let trials: Vec<usize> = (0..4).map(|a| p.trials_for_attempt(8, a)).collect();
        assert_eq!(trials, vec![8, 18, 28, 38], "no seed, no jitter");
        // with_jitter(0) is explicitly "off" too.
        let off = p.with_jitter(7).with_jitter(0);
        assert_eq!(off, p);
    }

    #[test]
    fn jittered_sequence_is_pinned_monotone_and_seed_deterministic() {
        let p = RetryPolicy {
            max_attempts: 5,
            backoff_trials: 10,
            ..RetryPolicy::default()
        }
        .with_jitter(0xE16);
        let trials: Vec<usize> = (0..5).map(|a| p.trials_for_attempt(8, a)).collect();
        // Pinned: splitmix64 output for this seed must never drift —
        // archived experiment transcripts depend on it.
        assert_eq!(trials, vec![8, 27, 31, 43, 56]);
        // Attempt 0 is exactly the un-jittered count.
        assert_eq!(trials[0], 8);
        // Jitter stays below one backoff step: strictly increasing, and
        // never two full steps ahead of the legacy sequence.
        for (a, w) in trials.windows(2).enumerate() {
            assert!(w[0] < w[1], "attempt {a}: {trials:?} not increasing");
        }
        for (a, &t) in trials.iter().enumerate() {
            let legacy = 8 + a * 10;
            assert!(t >= legacy && t < legacy + 10, "attempt {a}: {t} vs legacy {legacy}");
        }
        // Same seed, same sequence; different seed, different sequence.
        let again: Vec<usize> = (0..5).map(|a| p.trials_for_attempt(8, a)).collect();
        assert_eq!(trials, again);
        let other: Vec<usize> =
            (0..5).map(|a| p.with_jitter(0xE17).trials_for_attempt(8, a)).collect();
        assert_ne!(trials, other);
    }

    #[test]
    fn jitter_with_zero_backoff_is_inert() {
        let p = RetryPolicy {
            backoff_trials: 0,
            ..RetryPolicy::default()
        }
        .with_jitter(99);
        assert_eq!(
            (0..3).map(|a| p.trials_for_attempt(20, a)).collect::<Vec<_>>(),
            vec![20, 20, 20]
        );
    }

    #[test]
    fn retry_failed_redispatches_only_failed_members() {
        let p = RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        };
        let mut rounds: Vec<Vec<usize>> = Vec::new();
        // Members 1 and 3 fail on attempt 0; member 3 fails again on
        // attempt 1; everything resolves by attempt 2.
        let out = p
            .retry_failed(5, |pending, attempt| {
                rounds.push(pending.to_vec());
                pending
                    .iter()
                    .map(|&i| {
                        let fails = match attempt {
                            0 => i == 1 || i == 3,
                            1 => i == 3,
                            _ => false,
                        };
                        if fails {
                            Err(SimError::Timeout { cycles: i as u64 })
                        } else {
                            Ok(100 + i)
                        }
                    })
                    .collect()
            })
            .unwrap();
        assert_eq!(out, vec![100, 101, 102, 103, 104]);
        assert_eq!(
            rounds,
            vec![vec![0, 1, 2, 3, 4], vec![1, 3], vec![3]],
            "later attempts must re-dispatch only the failed members"
        );
    }

    #[test]
    fn retry_failed_surfaces_lowest_index_error_after_budget() {
        let p = RetryPolicy {
            max_attempts: 2,
            ..RetryPolicy::default()
        };
        let err = p
            .retry_failed::<u32>(3, |pending, _| {
                pending
                    .iter()
                    .map(|&i| {
                        if i == 0 {
                            Ok(7)
                        } else {
                            Err(SimError::Timeout { cycles: i as u64 })
                        }
                    })
                    .collect()
            })
            .unwrap_err();
        assert_eq!(
            err,
            RetryError::Sim {
                attempts: 2,
                last: SimError::Timeout { cycles: 1 }
            }
        );
        // Empty batches are vacuously successful.
        assert_eq!(
            p.retry_failed::<u32>(0, |_, _| Vec::new()).unwrap(),
            Vec::<u32>::new()
        );
    }

    #[test]
    fn recalibration_trigger_uses_min_t() {
        let p = RetryPolicy::default();
        assert!(p.needs_recalibration(2.0));
        assert!(p.needs_recalibration(-4.9));
        assert!(!p.needs_recalibration(5.1));
        assert!(!p.needs_recalibration(-8.0));
    }
}
