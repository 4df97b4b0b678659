#![warn(missing_docs)]

//! # pandora-channels
//!
//! Receiver infrastructure for the Pandora reproduction of *"Opening
//! Pandora's Box"* (ISCA 2021): the cache side of every attack in the
//! workspace.
//!
//! * [`prime_probe`] — timed-probe code generation (real receiver
//!   programs running on the simulator) and probe-threshold
//!   calibration rounds.
//! * [`covert`] — a complete cache covert channel (send a symbol by
//!   touching a line, receive by timing probes), the final hop of both
//!   proofs of concept.
//! * [`stats`] — Welch's t distinguishability, thresholds, and the
//!   histogram shape of Figure 6.
//! * [`retry`] — bounded-retry calibration ([`RetryPolicy`]): noisy
//!   rounds are retried with more trials until the timing populations
//!   separate, and failures surface as structured [`RetryError`]s.
//!   Each retry loop has one cap, [`RetryPolicy::max_attempts`], and
//!   each retry changes its input (more trials, or a failed batch
//!   member re-run without its fault plan): the simulator is
//!   deterministic, so an unchanged input would fail again.
//!   This crate's simulated rounds, first attempts and retries alike,
//!   each run as one `pandora_sim::fleet::trial_grid` call, so a retry
//!   runs on a machine that call provisioned, never on one a failed
//!   round left behind. [`probe_calibration_grid`] is one such call
//!   and does not retry.
//! * [`adaptive`] — noise-hardened receiver machinery: SNR /
//!   error-rate reporting ([`ChannelQuality`],
//!   [`BitErrorCounter`]), repetition decoding ([`majority_vote`]),
//!   and drift-detecting threshold re-calibration
//!   ([`AdaptiveReceiver`]).

pub mod adaptive;
pub mod covert;
pub mod prime_probe;
pub mod retry;
pub mod stats;

pub use adaptive::{majority_vote, AdaptiveReceiver, BitErrorCounter, ChannelQuality};
pub use covert::CovertChannel;
pub use prime_probe::{
    emit_probe_lines, emit_timed_probe, fastest_index, probe_calibration_grid,
    probe_calibration_round, read_timings,
};
pub use retry::{Calibration, RetryError, RetryPolicy};
pub use stats::{midpoint_threshold, welch_t, Histogram, Summary};
