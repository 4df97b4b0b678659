//! Noise-hardened receiver machinery: channel-quality reporting
//! (SNR / estimated BER), symbol-error accounting, repetition coding,
//! and adaptive threshold re-calibration.
//!
//! Under a quiet machine a receiver calibrates once and classifies
//! forever; under environmental noise (`pandora_sim::noise`) the
//! hit/miss populations drift together and a fixed threshold silently
//! rots. The tools here are the standard communication-layer answers:
//!
//! * [`ChannelQuality`] — per-run SNR and a Gaussian-overlap BER
//!   estimate, so experiments can report *how degraded* a channel is
//!   rather than only whether a round decoded.
//! * [`BitErrorCounter`] — ground-truth symbol error accounting for
//!   sweeps that know what was sent.
//! * [`majority_vote`] — repetition decoding over independently noisy
//!   rounds (redundancy trades samples for accuracy).
//! * [`AdaptiveReceiver`] — a calibrated threshold that *watches its
//!   own separation*: when observed populations degrade below the
//!   [`RetryPolicy`]'s acceptance bar it re-calibrates through the same
//!   bounded-retry loop the initial calibration used.

use std::collections::BTreeMap;

use pandora_sim::SimError;

use crate::retry::{Calibration, RetryError, RetryPolicy};
use crate::stats::{welch_t, Summary};

/// Complementary error function, Abramowitz & Stegun 7.1.26 (max
/// absolute error 1.5e-7 — far below anything a timing experiment can
/// resolve). Local so the crate stays free of a libm dependency.
fn erfc(x: f64) -> f64 {
    if x < 0.0 {
        return 2.0 - erfc(-x);
    }
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736 + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    poly * (-x * x).exp()
}

/// Signal quality of a binary timing channel, derived from the two
/// population summaries a calibration produces.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ChannelQuality {
    /// Signal-to-noise ratio: squared mean separation over the pooled
    /// variance. Infinite for noiseless separation, 0 for none.
    pub snr: f64,
    /// Estimated raw bit-error rate of a midpoint-threshold receiver,
    /// assuming Gaussian populations: `Q(d / 2σ)` where `d` is the
    /// mean separation and `σ` the pooled standard deviation.
    pub est_ber: f64,
}

impl ChannelQuality {
    /// Quality of the channel whose fast/slow populations have the
    /// given summaries (`slow` is expected to have the larger mean;
    /// an inverted or collapsed channel reports `snr == 0`,
    /// `est_ber >= 0.5`).
    #[must_use]
    pub fn of(fast: &Summary, slow: &Summary) -> ChannelQuality {
        let d = slow.mean - fast.mean;
        let pooled_var = (fast.var + slow.var) / 2.0;
        if pooled_var <= 0.0 {
            return if d > 0.0 {
                ChannelQuality {
                    snr: f64::INFINITY,
                    est_ber: 0.0,
                }
            } else {
                ChannelQuality {
                    snr: 0.0,
                    est_ber: 0.5,
                }
            };
        }
        if d <= 0.0 {
            // No (or inverted) separation: the threshold is guessing.
            return ChannelQuality {
                snr: 0.0,
                est_ber: (0.5 * erfc(d / (2.0 * (2.0 * pooled_var).sqrt()))).min(1.0),
            };
        }
        ChannelQuality {
            snr: d * d / pooled_var,
            est_ber: 0.5 * erfc(d / (2.0 * (2.0 * pooled_var).sqrt())),
        }
    }

    /// Quality from raw fast/slow samples.
    #[must_use]
    pub fn from_samples(fast: &[u64], slow: &[u64]) -> ChannelQuality {
        ChannelQuality::of(&Summary::of(fast), &Summary::of(slow))
    }

    /// SNR in decibels (`-inf` for a dead channel).
    #[must_use]
    pub fn snr_db(&self) -> f64 {
        10.0 * self.snr.log10()
    }
}

/// Ground-truth error accounting for channel sweeps: feed it each
/// `(sent, decoded)` pair and read back the symbol error rate.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct BitErrorCounter {
    /// Symbols sent.
    pub symbols: u64,
    /// Symbols decoded to the wrong value (or not decoded at all).
    pub symbol_errors: u64,
}

impl BitErrorCounter {
    /// An empty counter.
    #[must_use]
    pub fn new() -> BitErrorCounter {
        BitErrorCounter::default()
    }

    /// Records one round: `sent` was transmitted, `decoded` came back
    /// (`None` = erasure, which counts as an error).
    pub fn record(&mut self, sent: usize, decoded: Option<usize>) {
        self.symbols += 1;
        if decoded != Some(sent) {
            self.symbol_errors += 1;
        }
    }

    /// Symbol error rate in [0, 1] (0 before any round).
    #[must_use]
    pub fn ser(&self) -> f64 {
        if self.symbols == 0 {
            0.0
        } else {
            self.symbol_errors as f64 / self.symbols as f64
        }
    }
}

/// Repetition decoding: the value winning a strict majority of the
/// vote slots (erasures count as abstentions but still occupy a slot,
/// so 2 agreeing votes out of 5 do not win). Ties and empty inputs
/// yield `None`; iteration order is value order, so the result is
/// deterministic.
#[must_use]
pub fn majority_vote<T: Copy + Ord>(votes: &[Option<T>]) -> Option<T> {
    let mut counts: BTreeMap<T, usize> = BTreeMap::new();
    for v in votes.iter().flatten() {
        *counts.entry(*v).or_insert(0) += 1;
    }
    let (&value, &count) = counts.iter().max_by_key(|(_, &c)| c)?;
    (count * 2 > votes.len()).then_some(value)
}

/// A calibrated binary receiver that re-calibrates itself when its
/// separation degrades.
///
/// Wraps the [`Calibration`] produced by [`RetryPolicy::calibrate`]
/// and adds drift detection: feed each round's observed fast/slow
/// samples to [`AdaptiveReceiver::observe`]; when their Welch's t
/// falls below the policy's acceptance bar the receiver re-runs the
/// calibration round through the same bounded-retry loop and adopts
/// the fresh threshold.
#[derive(Clone, Debug)]
pub struct AdaptiveReceiver {
    policy: RetryPolicy,
    cal: Calibration,
}

impl AdaptiveReceiver {
    /// Calibrates a new receiver with `policy` over `round` (same
    /// contract as [`RetryPolicy::calibrate`]).
    ///
    /// # Errors
    ///
    /// Propagates the calibration's [`RetryError`].
    pub fn calibrate(
        policy: RetryPolicy,
        base_trials: usize,
        round: impl FnMut(usize, u32) -> Result<(Vec<u64>, Vec<u64>), SimError>,
    ) -> Result<AdaptiveReceiver, RetryError> {
        let cal = policy.calibrate(base_trials, round)?;
        Ok(AdaptiveReceiver { policy, cal })
    }

    /// The current classification threshold.
    #[must_use]
    pub fn threshold(&self) -> u64 {
        self.cal.threshold
    }

    /// The calibration currently in force.
    #[must_use]
    pub fn calibration(&self) -> &Calibration {
        &self.cal
    }

    /// Whether freshly observed fast/slow populations have drifted
    /// below the policy's separation bar (so the in-force threshold is
    /// no longer trustworthy).
    #[must_use]
    pub fn drifted(&self, fast: &[u64], slow: &[u64]) -> bool {
        self.policy.needs_recalibration(welch_t(slow, fast))
    }

    /// Feeds one round's observed populations: if they drifted, re-run
    /// calibration via `round` and adopt the new threshold. Returns
    /// `Ok(true)` when a re-calibration happened.
    ///
    /// # Errors
    ///
    /// Propagates [`RetryError`] when drift was detected but the
    /// re-calibration itself could not separate the populations — the
    /// channel is genuinely dead at this noise level.
    pub fn observe(
        &mut self,
        fast: &[u64],
        slow: &[u64],
        base_trials: usize,
        round: impl FnMut(usize, u32) -> Result<(Vec<u64>, Vec<u64>), SimError>,
    ) -> Result<bool, RetryError> {
        if !self.drifted(fast, slow) {
            return Ok(false);
        }
        self.cal = self.policy.calibrate(base_trials, round)?;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pop(center: u64, spread: u64, n: usize) -> Vec<u64> {
        (0..n as u64).map(|i| center + i % (spread + 1)).collect()
    }

    #[test]
    fn erfc_matches_known_values() {
        assert!((erfc(0.0) - 1.0).abs() < 1e-6);
        assert!((erfc(1.0) - 0.157_299_2).abs() < 1e-6);
        assert!((erfc(-1.0) - 1.842_700_8).abs() < 1e-6);
        assert!(erfc(4.0) < 1e-7);
    }

    #[test]
    fn quality_ranks_channels() {
        let clean = ChannelQuality::from_samples(&pop(100, 2, 40), &pop(300, 2, 40));
        let murky = ChannelQuality::from_samples(&pop(100, 40, 40), &pop(140, 40, 40));
        assert!(clean.snr > murky.snr);
        assert!(clean.est_ber < 1e-6);
        assert!(murky.est_ber > clean.est_ber);
        assert!(clean.snr_db() > murky.snr_db());
    }

    #[test]
    fn quality_degenerate_cases() {
        // Zero variance, separated: perfect channel.
        let perfect = ChannelQuality::from_samples(&[100, 100], &[200, 200]);
        assert!(perfect.snr.is_infinite());
        assert_eq!(perfect.est_ber, 0.0);
        // Identical populations: coin-flip channel.
        let dead = ChannelQuality::from_samples(&[100, 100], &[100, 100]);
        assert_eq!(dead.snr, 0.0);
        assert!(dead.est_ber >= 0.5);
        // Inverted separation with variance: no usable signal.
        let inv = ChannelQuality::from_samples(&pop(300, 3, 20), &pop(100, 3, 20));
        assert_eq!(inv.snr, 0.0);
        assert!(inv.est_ber >= 0.5);
    }

    #[test]
    fn bit_error_counter_accounts_symbols() {
        let mut c = BitErrorCounter::new();
        c.record(0b1010, Some(0b1010)); // clean
        c.record(0b1010, Some(0b1000)); // one bit off is a symbol error
        c.record(0b1010, None); // erasure
        assert_eq!(c.symbols, 3);
        assert_eq!(c.symbol_errors, 2);
        assert!((c.ser() - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(BitErrorCounter::new().ser(), 0.0);
    }

    #[test]
    fn majority_vote_requires_a_strict_majority() {
        assert_eq!(majority_vote(&[Some(7), Some(7), Some(3)]), Some(7));
        assert_eq!(majority_vote(&[Some(7), Some(3)]), None, "tie");
        assert_eq!(
            majority_vote(&[Some(7), Some(7), None, None, None]),
            None,
            "erasures occupy slots"
        );
        assert_eq!(majority_vote(&[Some(7)]), Some(7), "redundancy 1 passes through");
        assert_eq!(majority_vote::<u16>(&[]), None);
        assert_eq!(majority_vote::<u16>(&[None, None]), None);
    }

    #[test]
    fn adaptive_receiver_recalibrates_on_drift() {
        let policy = RetryPolicy::default();
        let mut rx = AdaptiveReceiver::calibrate(policy, 20, |trials, _| {
            Ok((pop(100, 2, trials), pop(300, 2, trials)))
        })
        .unwrap();
        let t0 = rx.threshold();
        assert!(150 < t0 && 250 >= t0);

        // Clean observations: nothing happens.
        let acted = rx
            .observe(&pop(100, 2, 20), &pop(300, 2, 20), 20, |_, _| {
                panic!("must not recalibrate without drift")
            })
            .unwrap();
        assert!(!acted);

        // The environment collapsed the separation (both populations
        // now overlap); the receiver notices and adopts the fresh,
        // higher operating point.
        let acted = rx
            .observe(&pop(400, 5, 20), &pop(402, 5, 20), 20, |trials, _| {
                Ok((pop(400, 2, trials), pop(600, 2, trials)))
            })
            .unwrap();
        assert!(acted);
        assert!(rx.threshold() > t0);
        assert_eq!(rx.calibration().attempts, 1);
    }

    #[test]
    fn adaptive_receiver_surfaces_dead_channels() {
        let policy = RetryPolicy {
            max_attempts: 2,
            ..RetryPolicy::default()
        };
        let mut rx = AdaptiveReceiver::calibrate(policy, 10, |trials, _| {
            Ok((pop(100, 2, trials), pop(300, 2, trials)))
        })
        .unwrap();
        let err = rx
            .observe(&pop(100, 1, 10), &pop(100, 1, 10), 10, |trials, _| {
                Ok((pop(100, 1, trials), pop(100, 1, trials)))
            })
            .unwrap_err();
        assert!(matches!(err, RetryError::Indistinguishable { .. }));
    }
}
