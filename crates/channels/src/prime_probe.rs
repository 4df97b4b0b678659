//! Cache receivers: timed-probe code generation and probe-threshold
//! calibration rounds.
//!
//! The receiver is real code emitted into the attacker's program
//! ([`emit_timed_probe`], [`emit_probe_lines`]): `fence; rdcycle;
//! load; fence; rdcycle` around each probed line, with the per-line
//! latency stored to a result buffer the attacker reads back
//! ([`read_timings`]). Probe order is stride-permuted so the receiver's
//! own loads do not train the stream prefetcher it is trying to
//! observe.
//!
//! A calibration round ([`probe_calibration_round`], and
//! [`probe_calibration_grid`] for many configs at once) times hits and
//! misses on the simulator through one `pandora_sim::fleet::trial_grid`
//! call; [`RetryPolicy::calibrate`] turns rounds into a threshold.

use std::sync::Arc;

use pandora_isa::{Asm, Program, Reg};
use pandora_sim::fleet::{self, MemberError, MemberSpec};
use pandora_sim::{FaultPlan, Machine, SimConfig, SimError};

use crate::retry::{RetryError, RetryPolicy};

/// Emits a timed load of `addr`; the latency (plus a small fixed
/// overhead) is stored as a u64 at `result_addr`.
///
/// Sequence: `fence; rdcycle t0; load; fence; rdcycle t1;
/// store(t1 - t0)`. The trailing fence orders the second timer read
/// after the probed load completes.
pub fn emit_timed_probe(a: &mut Asm, addr: u64, result_addr: u64) {
    a.fence();
    a.rdcycle(Reg::T3);
    a.ld(Reg::T4, Reg::ZERO, addr as i64);
    a.fence();
    a.rdcycle(Reg::T5);
    a.sub(Reg::T5, Reg::T5, Reg::T3);
    a.sd(Reg::T5, Reg::ZERO, result_addr as i64);
}

/// Emits timed probes of `count` cache lines starting at `base` with
/// the given `stride`, writing latencies to `result_base + 8*i` (in
/// line-index order).
///
/// Probes are issued in a permuted order (index `* 167 mod count`,
/// when `count` allows) so that consecutive probe addresses do not form
/// a constant stride — otherwise the receiver's own loop would train
/// the very stream prefetcher whose fills it is measuring.
pub fn emit_probe_lines(a: &mut Asm, base: u64, count: usize, stride: u64, result_base: u64) {
    let step = pick_coprime_step(count);
    for k in 0..count {
        let i = (k * step) % count;
        emit_timed_probe(a, base + i as u64 * stride, result_base + 8 * i as u64);
    }
}

/// A multiplier coprime to `count` and large enough to break stride
/// detection.
fn pick_coprime_step(count: usize) -> usize {
    if count <= 2 {
        return 1;
    }
    (167..)
        .find(|s| gcd(*s, count) == 1)
        .expect("some step below count + 167 is coprime")
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Reads back `count` probe latencies written by [`emit_probe_lines`].
///
/// # Panics
///
/// Panics if the result buffer is out of bounds — a harness bug.
#[must_use]
pub fn read_timings(m: &Machine, result_base: u64, count: usize) -> Vec<u64> {
    (0..count)
        .map(|i| {
            m.mem()
                .read_u64(result_base + 8 * i as u64)
                .expect("result buffer in bounds")
        })
        .collect()
}

/// The single most-likely hit: the index with the minimum latency.
#[must_use]
pub fn fastest_index(timings: &[u64]) -> Option<usize> {
    timings
        .iter()
        .enumerate()
        .min_by_key(|(_, &t)| t)
        .map(|(i, _)| i)
}

/// Paired timing populations from one calibration round:
/// `(hit_timings, miss_timings)`.
pub type ProbeTimings = (Vec<u64>, Vec<u64>);

/// One probe-threshold calibration round: measures `trials` timed
/// probes of a warmed line (hits) and `trials` probes of untouched,
/// pairwise-distinct lines (misses), returning `(hits, misses)`.
///
/// `faults` optionally installs a [`FaultPlan`] on the measuring
/// machine — harnesses use periodic line evictions to model co-tenant
/// noise when exercising [`RetryPolicy`] recovery.
///
/// # Errors
///
/// Any [`SimError`] from the measuring run (including injected-fault
/// outcomes such as a deadlock).
pub fn probe_calibration_round(
    cfg: &SimConfig,
    trials: usize,
    faults: Option<&FaultPlan>,
) -> Result<ProbeTimings, SimError> {
    probe_rounds(&[*cfg], trials, faults, 1).remove(0)
}

/// The compiled calibration round: warm one line, then time `trials`
/// probes of it (hits) and `trials` probes of pairwise-distinct cold
/// lines (misses).
fn probe_round_program(trials: usize) -> (Program, u64, u64) {
    let hit_addr = 0x10_0000u64;
    let cold_base = 0x20_0000u64;
    let hit_buf = 0x1000u64;
    let miss_buf = hit_buf + 8 * trials as u64;

    let mut a = Asm::new();
    a.ld(Reg::T0, Reg::ZERO, hit_addr as i64); // warm the hit line
    a.fence();
    for i in 0..trials as u64 {
        emit_timed_probe(&mut a, hit_addr, hit_buf + 8 * i);
    }
    for i in 0..trials as u64 {
        // A fresh line per trial, so every probe is a genuine miss.
        emit_timed_probe(&mut a, cold_base + 64 * i, miss_buf + 8 * i);
    }
    a.halt();
    let prog = a.assemble().expect("calibration program assembles");
    (prog, hit_buf, miss_buf)
}

/// Runs one calibration round per config as one [`fleet::trial_grid`]:
/// the program is assembled once and shared, a worker's rounds after
/// its first recycle its machine ([`Machine::reset_to`]) instead of
/// constructing one, and rounds steal work across `threads` threads
/// (0 = process default). Results come back in config order; a failed
/// round yields `Err` in its slot without disturbing siblings.
fn probe_rounds(
    cfgs: &[SimConfig],
    trials: usize,
    faults: Option<&FaultPlan>,
    threads: usize,
) -> Vec<Result<ProbeTimings, SimError>> {
    let (prog, hit_buf, miss_buf) = probe_round_program(trials);
    let prog = Arc::new(prog);
    let specs: Vec<MemberSpec> = cfgs
        .iter()
        .map(|&cfg| {
            let mut spec = MemberSpec::new(cfg, Arc::clone(&prog)).with_max_cycles(10_000_000);
            if let Some(plan) = faults {
                let plan = plan.clone();
                spec = spec.with_prep(move |m| {
                    m.inject_faults(plan.clone());
                    Ok(())
                });
            }
            spec
        })
        .collect();
    fleet::trial_grid(&specs, threads, move |_, m, _| {
        (
            read_timings(m, hit_buf, trials),
            read_timings(m, miss_buf, trials),
        )
    })
    .into_iter()
    .map(|r| r.map_err(MemberError::unwrap_sim))
    .collect()
}

/// One probe-calibration round per config, re-dispatching **failed
/// rounds only** under `policy`: the sweep entry point for noise grids
/// that calibrate dozens of intensities at once. Each attempt is one
/// fleet grid over one compiled program, across `threads` threads
/// (0 = process default).
///
/// # Errors
///
/// [`RetryError::Sim`] if any round still fails after the policy's
/// attempt budget (carrying the lowest-index round's last error).
pub fn probe_calibration_grid(
    cfgs: &[SimConfig],
    trials: usize,
    policy: &RetryPolicy,
    threads: usize,
) -> Result<Vec<ProbeTimings>, RetryError> {
    policy.retry_failed(cfgs.len(), |pending, _attempt| {
        let round_cfgs: Vec<SimConfig> = pending.iter().map(|&i| cfgs[i]).collect();
        probe_rounds(&round_cfgs, trials, None, threads)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pandora_sim::{MemLatency, SimConfig};

    #[test]
    fn coprime_step_is_coprime() {
        for count in [2usize, 3, 100, 167, 256, 334] {
            let s = pick_coprime_step(count);
            assert_eq!(gcd(s, count), 1, "count {count} step {s}");
        }
    }

    #[test]
    fn timed_probe_distinguishes_hit_from_miss() {
        let mut a = Asm::new();
        let hot = 0x4000u64;
        let cold = 0x8000u64;
        // Warm the hot line, then time both.
        a.ld(Reg::T0, Reg::ZERO, hot as i64);
        a.fence();
        emit_timed_probe(&mut a, hot, 0x100);
        emit_timed_probe(&mut a, cold, 0x108);
        a.halt();
        let prog = a.assemble().unwrap();
        let mut m = Machine::new(SimConfig::default());
        m.load_program(&prog);
        m.run(100_000).unwrap();
        let hot_t = m.mem().read_u64(0x100).unwrap();
        let cold_t = m.mem().read_u64(0x108).unwrap();
        let lat = MemLatency::default();
        assert!(
            hot_t + (lat.dram - lat.l1) / 2 < cold_t,
            "hit {hot_t} vs miss {cold_t}"
        );
    }

    #[test]
    fn probe_lines_report_planted_hit() {
        let lines = 32usize;
        let base = 0x2_0000u64;
        let result = 0x400u64;
        let secret = 13usize;
        let mut a = Asm::new();
        // The "transmitter": touch line `secret`.
        a.ld(Reg::T0, Reg::ZERO, (base + secret as u64 * 64) as i64);
        a.fence();
        emit_probe_lines(&mut a, base, lines, 64, result);
        a.halt();
        let prog = a.assemble().unwrap();
        let mut m = Machine::new(SimConfig::default());
        m.load_program(&prog);
        m.run(1_000_000).unwrap();
        let timings = read_timings(&m, result, lines);
        assert_eq!(fastest_index(&timings), Some(secret));
    }

    #[test]
    fn calibration_separates_hit_from_miss() {
        let cfg = SimConfig::default();
        let policy = crate::retry::RetryPolicy::default();
        let cal = policy
            .calibrate(16, |trials, _attempt| probe_calibration_round(&cfg, trials, None))
            .unwrap();
        assert_eq!(cal.attempts, 1, "a quiet machine calibrates first try");
        assert!(cal.t >= policy.min_t);
        let lat = MemLatency::default();
        assert!(
            (cal.threshold as f64) > cal.fast.mean
                && (cal.threshold) < lat.dram,
            "threshold {} sits between hit ({:.1}) and miss ({:.1}) means",
            cal.threshold,
            cal.fast.mean,
            cal.slow.mean,
        );
    }

    #[test]
    fn noisy_calibration_round_recovers_via_retry() {
        use pandora_sim::{FaultEvent, FaultKind};
        let cfg = SimConfig::default();
        let policy = crate::retry::RetryPolicy::default();
        // Evict the hit line every cycle through the measurement window:
        // the "hit" population degrades to misses and Welch's t
        // collapses, so attempt 0 must be rejected.
        let noise = FaultPlan::new(
            (0..5_000)
                .map(|cycle| FaultEvent {
                    cycle,
                    kind: FaultKind::EvictLine { addr: 0x10_0000 },
                })
                .collect(),
        );
        let cal = policy
            .calibrate(12, |trials, attempt| {
                probe_calibration_round(&cfg, trials, (attempt == 0).then_some(&noise))
            })
            .unwrap();
        assert!(
            cal.attempts >= 2,
            "the jammed first round must have been retried"
        );
        assert!(cal.t >= policy.min_t);
    }
}
