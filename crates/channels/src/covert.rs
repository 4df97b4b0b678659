//! A cache covert channel (§II): a sender encodes a value by touching
//! one of `N` cache lines; a receiver recovers it by timing probes.
//!
//! This is the final hop of both proof-of-concept attacks — the DMP's
//! prefetch of `X[secret]` is exactly a send over this channel — and a
//! self-contained demonstration used by the quickstart example and the
//! channel-capacity analysis (log2 N bits per round, §IV-A3).

use std::collections::HashMap;
use std::sync::Arc;

use pandora_isa::{Asm, Program, Reg};
use pandora_sim::fleet::{self, MemberError, MemberSpec};
use pandora_sim::{Machine, SimConfig, SimError};

use crate::prime_probe::{emit_probe_lines, fastest_index, read_timings};

/// Cycle budget for one send/receive round.
const ROUND_MAX_CYCLES: u64 = 20_000_000;

/// Configuration of a one-shot cache covert channel.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CovertChannel {
    /// Base address of the line array.
    pub base: u64,
    /// Number of distinguishable symbols (lines).
    pub symbols: usize,
    /// Line stride in bytes.
    pub stride: u64,
    /// Result buffer address for the receiver's timings.
    pub result_base: u64,
}

impl CovertChannel {
    /// A 256-symbol (one byte per round) channel.
    #[must_use]
    pub fn byte_channel(base: u64, result_base: u64) -> CovertChannel {
        CovertChannel {
            base,
            symbols: 256,
            stride: 64,
            result_base,
        }
    }

    /// The channel capacity upper bound in bits per round: log2(symbols).
    #[must_use]
    pub fn capacity_bits(&self) -> f64 {
        (self.symbols as f64).log2()
    }

    /// Emits the sender: touch the line encoding `value`.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not a valid symbol.
    pub fn emit_send(&self, a: &mut Asm, value: usize) {
        assert!(value < self.symbols, "symbol out of range");
        a.ld(Reg::T0, Reg::ZERO, (self.base + value as u64 * self.stride) as i64);
        a.fence();
    }

    /// Emits the receiver: probe every symbol line, recording latencies.
    pub fn emit_receive(&self, a: &mut Asm) {
        emit_probe_lines(a, self.base, self.symbols, self.stride, self.result_base);
    }

    /// Decodes the received symbol from a finished machine.
    #[must_use]
    pub fn decode(&self, m: &Machine) -> Option<usize> {
        fastest_index(&read_timings(m, self.result_base, self.symbols))
    }

    /// Runs a complete send/receive round for `value` on a fresh
    /// machine; returns the decoded symbol.
    ///
    /// # Panics
    ///
    /// Panics if the round's program fails to run — a harness bug.
    #[must_use]
    pub fn round_trip(&self, cfg: SimConfig, value: usize) -> Option<usize> {
        self.try_round_trip(cfg, value)
            .expect("channel round completes")
    }

    /// Fallible [`CovertChannel::round_trip`]: a round whose machine
    /// errors (deadlock under fault injection, timeout under heavy
    /// noise) surfaces the structured [`SimError`] instead of
    /// panicking.
    ///
    /// # Errors
    ///
    /// The [`SimError`] of the failed run.
    ///
    /// # Panics
    ///
    /// Panics if the round's program fails to assemble — a harness
    /// bug, not a runtime condition.
    pub fn try_round_trip(&self, cfg: SimConfig, value: usize) -> Result<Option<usize>, SimError> {
        Ok(self.round_trip_grid(&[(cfg, value)], 1)?.remove(0))
    }

    /// The compiled send+receive round for `value`.
    fn round_program(&self, value: usize) -> Program {
        let mut a = Asm::new();
        self.emit_send(&mut a, value);
        self.emit_receive(&mut a);
        a.halt();
        a.assemble().expect("channel program assembles")
    }

    /// Runs a whole grid of `(config, value)` rounds as fleet trials:
    /// each value's program is assembled once and shared, machines are
    /// recycled between rounds, and rounds steal work across `threads`
    /// threads (0 = process default). Decoded symbols come back in job
    /// order, independent of the thread count.
    ///
    /// # Errors
    ///
    /// The first (lowest-index) round whose machine fails outright.
    ///
    /// # Panics
    ///
    /// Panics if a program fails to assemble, or if a round panicked —
    /// both harness bugs, resurfaced after sibling rounds completed.
    pub fn round_trip_grid(
        &self,
        jobs: &[(SimConfig, usize)],
        threads: usize,
    ) -> Result<Vec<Option<usize>>, SimError> {
        let mut progs: HashMap<usize, Arc<Program>> = HashMap::new();
        let specs: Vec<MemberSpec> = jobs
            .iter()
            .map(|&(cfg, value)| {
                let prog = progs
                    .entry(value)
                    .or_insert_with(|| Arc::new(self.round_program(value)));
                MemberSpec::new(cfg, Arc::clone(prog)).with_max_cycles(ROUND_MAX_CYCLES)
            })
            .collect();
        let ch = *self;
        fleet::trial_grid(&specs, threads, move |_, m, _| ch.decode(m))
            .into_iter()
            .map(|r| r.map_err(MemberError::unwrap_sim))
            .collect()
    }

    /// Repetition-coded round trips: runs `redundancy` rounds of every
    /// `(config, value)` job — each under a distinct noise seed, so
    /// every round sees a fresh interference pattern — as one fleet
    /// grid on `threads` threads (0 = process default), and returns
    /// each job's decodes for [`majority_vote`](crate::majority_vote).
    /// Round `r`'s seed does not depend on the redundancy, so round 0
    /// is exactly one noisy round (the unhardened baseline).
    ///
    /// # Errors
    ///
    /// The first round whose machine fails outright.
    pub fn round_trip_votes(
        &self,
        jobs: &[(SimConfig, usize)],
        redundancy: usize,
        threads: usize,
    ) -> Result<Vec<Vec<Option<usize>>>, SimError> {
        let rounds = redundancy.max(1);
        let mut grid = Vec::with_capacity(jobs.len() * rounds);
        for &(cfg, value) in jobs {
            for r in 0..rounds as u64 {
                let mut c = cfg;
                c.noise.seed = cfg.noise.seed.wrapping_add(r.wrapping_mul(0x9e37_79b9));
                grid.push((c, value));
            }
        }
        let decodes = self.round_trip_grid(&grid, threads)?;
        Ok(decodes.chunks(rounds).map(<[_]>::to_vec).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::majority_vote;

    #[test]
    fn byte_channel_round_trips() {
        let ch = CovertChannel {
            base: 0x4_0000,
            symbols: 64,
            stride: 64,
            result_base: 0x800,
        };
        for value in [0usize, 1, 13, 42, 63] {
            assert_eq!(ch.round_trip(SimConfig::default(), value), Some(value));
        }
    }

    #[test]
    fn noisy_round_trips_recover_via_repetition() {
        use pandora_sim::NoiseConfig;
        let ch = CovertChannel {
            base: 0x4_0000,
            symbols: 16,
            stride: 64,
            result_base: 0x800,
        };
        // Heavy interference over a 64 KiB window spanning the
        // channel's line array, plus a coarse, jittery timer — the
        // environment a real receiver faces.
        let cfg = SimConfig {
            noise: NoiseConfig::at_intensity(60, 17).with_window(0x4_0000, 0x5_0000),
            ..SimConfig::default()
        };
        let mut naive_errors = 0;
        for (vi, value) in [1usize, 6, 11, 14, 3, 9, 12, 5].into_iter().enumerate() {
            let mut c = cfg;
            c.noise.seed = cfg.noise.seed.wrapping_add(vi as u64 * 0xabcd);
            if ch.try_round_trip(c, value).unwrap() != Some(value) {
                naive_errors += 1;
            }
            assert_eq!(
                majority_vote(&ch.round_trip_votes(&[(c, value)], 7, 0).unwrap()[0]),
                Some(value),
                "repetition coding must survive intensity-60 noise"
            );
        }
        assert!(
            naive_errors > 0,
            "the single-shot receiver must measurably degrade under this noise"
        );
    }

    #[test]
    fn capacity_matches_symbol_count() {
        let ch = CovertChannel::byte_channel(0x4_0000, 0x800);
        assert!((ch.capacity_bits() - 8.0).abs() < 1e-9);
        assert_eq!(ch.symbols, 256);
    }

    #[test]
    #[should_panic(expected = "symbol out of range")]
    fn send_rejects_bad_symbol() {
        let ch = CovertChannel::byte_channel(0x4_0000, 0x800);
        let mut a = Asm::new();
        ch.emit_send(&mut a, 256);
    }
}
