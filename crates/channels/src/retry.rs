//! Retry policies for noisy calibration and measurement rounds.
//!
//! Real attack campaigns run in noisy environments: co-tenant cache
//! pressure blurs the hit/miss separation, and a disturbed machine can
//! even fail its run outright (the fault-injection harness in
//! `pandora-sim` models both). The simulator is deterministic, so a
//! retry helps only when its input changes, and each of the two retry
//! loops here changes one:
//!
//! * [`RetryPolicy::calibrate`] turns one-shot calibration into a
//!   bounded loop: each attempt adds [`RetryPolicy::backoff_trials`]
//!   trials (more samples drown independent noise), an attempt is
//!   accepted only once Welch's t clears [`RetryPolicy::min_t`], and
//!   after [`RetryPolicy::max_attempts`] the caller gets a structured
//!   [`RetryError`] carrying the best attempt seen — partial results,
//!   not a panic.
//! * [`RetryPolicy::retry_failed`] re-dispatches the failed members of
//!   a batch, which the attack drivers re-run without their injected
//!   fault plan.

use std::error::Error;
use std::fmt;

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
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            backoff_trials: 16,
            min_t: 5.0,
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
        }
    }
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
    /// Whether an observed separation has degraded enough that the
    /// caller should re-run calibration.
    #[must_use]
    pub fn needs_recalibration(&self, t: f64) -> bool {
        t.abs() < self.min_t
    }

    /// Runs `round` (given a trial count and 0-based attempt index,
    /// returning `(fast, slow)` timing samples) until an attempt's
    /// Welch's t clears [`RetryPolicy::min_t`]. Attempt `a` runs
    /// `base_trials + a × backoff_trials` trials per population.
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
            let trials = base_trials + attempt as usize * self.backoff_trials;
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

    /// Batch retry that re-dispatches **failed members only**: the
    /// retry shape for fleet sweeps, where attempt 0 runs the whole
    /// member grid and each later attempt re-runs just the members
    /// that failed — succeeded members keep their first result, so a
    /// single wedged trial no longer forces a whole batch re-run.
    ///
    /// `batch` receives the still-failing member indices (strictly
    /// increasing) and the 0-based attempt number, and must return
    /// exactly one result per requested index, in the same order.
    /// Values of `max_attempts` below 1 behave as 1: the batch is
    /// always dispatched once.
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
    fn retry_failed_with_zero_max_attempts_dispatches_once() {
        // A policy with max_attempts: 0 is clamped to one attempt — a
        // misconfigured caller gets one honest try, not a vacuous error.
        let p = RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::default()
        };
        let mut calls = 0u32;
        let err = p
            .retry_failed::<()>(2, |pending, _| {
                calls += 1;
                pending.iter().map(|_| Err(SimError::Timeout { cycles: 1 })).collect()
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
    fn recalibration_trigger_uses_min_t() {
        let p = RetryPolicy::default();
        assert!(p.needs_recalibration(2.0));
        assert!(p.needs_recalibration(-4.9));
        assert!(!p.needs_recalibration(5.1));
        assert!(!p.needs_recalibration(-8.0));
    }
}
