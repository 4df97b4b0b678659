//! Deterministic environmental noise: co-tenant interference as a
//! seeded, reproducible machine property.
//!
//! The fault layer ([`crate::fault`]) models *discrete* disturbances
//! scheduled at known cycles; this module models the *continuous*
//! background a real attack fights — cache pressure from co-tenants,
//! coarse/jittery timers, frontend hiccups — while keeping every run
//! bit-for-bit reproducible:
//!
//! * [`NoiseConfig`] lives inside [`SimConfig`], so it is covered by
//!   [`SimConfig::stable_hash`] and by the experiment runner's resume
//!   manifest: two machines with equal configurations produce equal
//!   noise, and `runall --resume` re-verifies noisy runs byte for byte.
//! * [`NoiseHook`] rides the ordinary [`OptHook`] layer (like
//!   [`FaultHook`]) and draws from [`SmallRng`] streams seeded only by
//!   [`NoiseConfig::seed`] — never by wall-clock or global state.
//! * [`traffic_program`] builds a seeded co-runner for
//!   [`crate::DuoMachine`], so cross-core experiments can run against a
//!   live interfering tenant instead of (or on top of) injected noise.
//!
//! Three mechanisms, all off by default:
//!
//! 1. **Cache-line evictions/fills** — each cycle, with probability
//!    `evict_permille`/`fill_permille` per mille, a random line in the
//!    configured window is flushed from (or filled into) the whole
//!    hierarchy, modeling a co-tenant's conflict misses and fills.
//! 2. **Timer coarsening + jitter** — `rdcycle` reads are floored to
//!    multiples of [`NoiseConfig::timer_quantum`] after adding up to
//!    [`NoiseConfig::timer_jitter`] extra cycles, modeling the degraded
//!    timers real systems deploy against timing receivers.
//! 3. **Pipeline stall jitter** — each cycle, with probability
//!    `stall_permille` per mille, fetch stalls for 1–3 cycles,
//!    modeling frontend interference (shared fetch bandwidth, SMT).
//!
//! Every disturbance that takes effect emits
//! [`SimEvent::NoiseInjected`], counted in
//! [`SimStats::noise_events`](crate::SimStats::noise_events).
//!
//! [`SimConfig`]: crate::SimConfig
//! [`SimConfig::stable_hash`]: crate::SimConfig::stable_hash
//! [`FaultHook`]: crate::FaultHook

use pandora_isa::{Asm, Program, Reg};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::event::SimEvent;
use crate::mem::hierarchy::PrefetchFill;
use crate::opt::hook::OptHook;
use crate::pipeline::PipelineState;

/// Seed-driven environmental noise switches, embedded in
/// [`SimConfig`](crate::SimConfig) (and therefore covered by its
/// `stable_hash`). The default is completely quiet, so existing
/// configurations and golden statistics are unchanged.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct NoiseConfig {
    /// Per-cycle probability (in thousandths) of evicting one random
    /// cache line in the window from every level.
    pub evict_permille: u16,
    /// Per-cycle probability (in thousandths) of filling one random
    /// cache line in the window into every level.
    pub fill_permille: u16,
    /// Per-cycle probability (in thousandths) of a 1–3 cycle fetch
    /// stall (frontend interference).
    pub stall_permille: u16,
    /// `rdcycle` reads are floored to multiples of this quantum
    /// (values ≤ 1 leave the timer exact).
    pub timer_quantum: u64,
    /// Maximum extra cycles added to each `rdcycle` read before
    /// quantization (0 leaves the timer exact).
    pub timer_jitter: u64,
    /// Seed of the noise streams. Changing only the seed yields an
    /// independent but equally reproducible interference pattern.
    pub seed: u64,
    /// Lower bound of the disturbed address window.
    pub mem_lo: u64,
    /// Exclusive upper bound of the disturbed address window; `0`
    /// means "the whole of memory".
    pub mem_hi: u64,
}

impl NoiseConfig {
    /// The quiet configuration (identical to `Default`): no evictions,
    /// no fills, no stalls, exact timers.
    #[must_use]
    pub fn quiet() -> NoiseConfig {
        NoiseConfig::default()
    }

    /// A one-knob preset mapping an intensity in `0..=100` onto all
    /// three mechanisms: eviction/fill/stall probabilities scale
    /// linearly, and the timer degrades from exact (intensity 0) to
    /// coarse and jittery. Intensity 0 is exactly [`NoiseConfig::quiet`].
    #[must_use]
    pub fn at_intensity(intensity: u16, seed: u64) -> NoiseConfig {
        let i = intensity.min(100);
        if i == 0 {
            return NoiseConfig {
                seed,
                ..NoiseConfig::quiet()
            };
        }
        NoiseConfig {
            evict_permille: i,
            fill_permille: i,
            stall_permille: i / 2,
            timer_quantum: 1 + u64::from(i) / 8,
            timer_jitter: u64::from(i) / 4,
            seed,
            mem_lo: 0,
            mem_hi: 0,
        }
    }

    /// Restricts evictions and fills to `[lo, hi)` — the shape of a
    /// co-tenant sharing the victim's cache sets. Timer and stall noise
    /// are unaffected (they are not address-targeted).
    #[must_use]
    pub fn with_window(mut self, lo: u64, hi: u64) -> NoiseConfig {
        self.mem_lo = lo;
        self.mem_hi = hi;
        self
    }

    /// Whether any noise mechanism is active.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.evict_permille > 0
            || self.fill_permille > 0
            || self.stall_permille > 0
            || self.timer_quantum > 1
            || self.timer_jitter > 0
    }

    /// The effective eviction/fill window given the machine's memory
    /// size (resolves the `mem_hi == 0` "whole memory" default; an
    /// inverted window degenerates to one line at `mem_lo`).
    #[must_use]
    pub fn window(&self, mem_size: usize) -> (u64, u64) {
        let hi = if self.mem_hi == 0 {
            mem_size as u64
        } else {
            self.mem_hi.min(mem_size as u64)
        };
        (self.mem_lo, hi.max(self.mem_lo + 1))
    }
}

/// The environmental-noise hook: applies a [`NoiseConfig`]'s cache and
/// frontend disturbances at every cycle start, and filters `rdcycle`
/// reads through the configured timer degradation.
///
/// Installed automatically by
/// [`Hooks::from_config`](crate::Hooks::from_config) whenever
/// `cfg.noise.enabled()`, so [`Machine::reset`](crate::Machine::reset)
/// reproduces the identical noise stream.
#[derive(Clone, Debug)]
pub struct NoiseHook {
    cfg: NoiseConfig,
    /// Environment stream: eviction/fill/stall draws, one sequence per
    /// run regardless of program length.
    env: SmallRng,
    /// Timer stream, kept separate so the jitter seen by the Nth
    /// `rdcycle` does not depend on how many cache events fired before
    /// it.
    timer: SmallRng,
}

impl NoiseHook {
    /// Builds the hook for a noise configuration; both streams derive
    /// only from [`NoiseConfig::seed`].
    #[must_use]
    pub fn new(cfg: NoiseConfig) -> NoiseHook {
        NoiseHook {
            cfg,
            env: SmallRng::seed_from_u64(cfg.seed ^ 0x9e37_79b9_7f4a_7c15),
            timer: SmallRng::seed_from_u64(cfg.seed ^ 0x6a09_e667_f3bc_c909),
        }
    }
}

impl OptHook for NoiseHook {
    fn name(&self) -> &'static str {
        "noise"
    }

    fn box_clone(&self) -> Box<dyn OptHook> {
        Box::new(self.clone())
    }

    fn reset(&mut self, _cfg: &crate::SimConfig) {
        // Re-derive both streams exactly as `new` does, so a reset
        // machine replays the identical noise sequence.
        *self = NoiseHook::new(self.cfg);
    }

    fn on_cycle_start(&mut self, st: &mut PipelineState) {
        let n = self.cfg;
        let (lo, hi) = n.window(st.cfg.mem_size);
        if n.evict_permille > 0 && self.env.gen_range(0u16..1000) < n.evict_permille {
            let addr = self.env.gen_range(lo..hi);
            st.hier.flush_line(addr);
            st.bus.emit(SimEvent::NoiseInjected);
        }
        if n.fill_permille > 0 && self.env.gen_range(0u16..1000) < n.fill_permille {
            let addr = self.env.gen_range(lo..hi);
            st.hier.prefetch(addr, PrefetchFill::AllLevels);
            st.bus.emit(SimEvent::NoiseInjected);
        }
        if n.stall_permille > 0 && self.env.gen_range(0u16..1000) < n.stall_permille {
            let until = st.cycle + self.env.gen_range(1u64..4);
            if until > st.fetch_stall_until {
                st.fetch_stall_until = until;
            }
            st.bus.emit(SimEvent::NoiseInjected);
        }
    }

    fn read_cycle(&mut self, cycle: u64) -> Option<u64> {
        let n = self.cfg;
        if n.timer_quantum <= 1 && n.timer_jitter == 0 {
            return None;
        }
        let mut c = cycle;
        if n.timer_jitter > 0 {
            c += self.timer.gen_range(0..n.timer_jitter + 1);
        }
        if n.timer_quantum > 1 {
            c -= c % n.timer_quantum;
        }
        Some(c)
    }
}

/// Builds a seeded co-runner traffic generator for
/// [`DuoMachine`](crate::DuoMachine) experiments: `rounds` iterations
/// of a load/store loop over pseudo-random lines in
/// `[base, base + span)`, creating live shared-L2 pressure from the
/// other core. The same seed always produces the same program (and,
/// on the same configuration, the same interference).
///
/// Every fourth touched line is written rather than read, so the
/// co-runner dirties shared lines as a real tenant would.
///
/// # Panics
///
/// Panics if `span` covers no complete cache line.
#[must_use]
pub fn traffic_program(seed: u64, base: u64, span: u64, rounds: u64) -> Program {
    let lines = span / 64;
    assert!(lines > 0, "traffic window must cover at least one line");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut a = Asm::new();
    a.li(Reg::T2, rounds.max(1));
    a.label("traffic_round");
    // An unrolled burst of 8 pseudo-random line touches per round.
    for k in 0..8 {
        let addr = base + rng.gen_range(0..lines) * 64;
        if k % 4 == 3 {
            a.sd(Reg::T1, Reg::ZERO, addr as i64);
        } else {
            a.ld(Reg::T1, Reg::ZERO, addr as i64);
        }
    }
    a.addi(Reg::T2, Reg::T2, -1);
    a.bnez(Reg::T2, "traffic_round");
    a.halt();
    a.assemble().expect("traffic generator assembles")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Machine, SimConfig};

    fn victim_prog() -> Program {
        let mut a = Asm::new();
        a.li(Reg::T0, 200);
        a.label("l");
        a.ld(Reg::T1, Reg::ZERO, 0x4000);
        a.addi(Reg::T0, Reg::T0, -1);
        a.bnez(Reg::T0, "l");
        a.halt();
        a.assemble().unwrap()
    }

    #[test]
    fn quiet_config_is_disabled_and_default() {
        assert!(!NoiseConfig::quiet().enabled());
        assert_eq!(NoiseConfig::quiet(), NoiseConfig::default());
        assert!(!NoiseConfig::at_intensity(0, 7).enabled());
        assert!(NoiseConfig::at_intensity(1, 7).enabled());
        assert!(NoiseConfig::at_intensity(200, 0).evict_permille <= 100);
    }

    #[test]
    fn window_resolves_whole_memory_default() {
        let n = NoiseConfig::at_intensity(30, 0);
        assert_eq!(n.window(4096), (0, 4096));
        let w = n.with_window(0x100, 0x200);
        assert_eq!(w.window(4096), (0x100, 0x200));
        // Out-of-memory upper bounds clamp; inverted windows degenerate.
        assert_eq!(w.with_window(0x100, 1 << 40).window(4096), (0x100, 4096));
        assert_eq!(w.with_window(0x500, 0x100).window(0x200), (0x500, 0x501));
    }

    #[test]
    fn noisy_runs_are_deterministic_per_seed() {
        let cfg = SimConfig {
            noise: NoiseConfig::at_intensity(40, 11).with_window(0x4000, 0x8000),
            ..SimConfig::default()
        };
        let run = |cfg: SimConfig| {
            let mut m = Machine::new(cfg);
            m.load_program(&victim_prog());
            m.run(1_000_000).unwrap()
        };
        let a = run(cfg);
        let b = run(cfg);
        assert_eq!(a, b, "same noise config ⇒ identical stats");
        assert!(a.noise_events > 0, "intensity 40 must actually disturb");

        let mut reseeded = cfg;
        reseeded.noise.seed ^= 1;
        let c = run(reseeded);
        assert_ne!(a, c, "a different seed is a different environment");
    }

    #[test]
    fn reset_reproduces_the_noise_stream() {
        let cfg = SimConfig {
            noise: NoiseConfig::at_intensity(40, 3),
            ..SimConfig::default()
        };
        let mut m = Machine::new(cfg);
        m.load_program(&victim_prog());
        let a = m.run(1_000_000).unwrap();
        m.reset();
        let b = m.run(1_000_000).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn clone_resumes_streams_at_position_reset_rewinds_them() {
        // Checkpoints capture the noise hook by cloning it, so a clone
        // must continue both RNG streams exactly where the original
        // stands — not rewind to the seed the way `reset` does.
        let cfg = NoiseConfig {
            timer_jitter: 1000,
            seed: 41,
            ..NoiseConfig::quiet()
        };
        let mut h = NoiseHook::new(cfg);
        let burn: Vec<u64> = (0..17).map(|_| h.read_cycle(0).unwrap()).collect();

        let mut forked = h.clone();
        let cont: Vec<u64> = (0..32).map(|_| h.read_cycle(0).unwrap()).collect();
        let forked_cont: Vec<u64> = (0..32).map(|_| forked.read_cycle(0).unwrap()).collect();
        assert_eq!(cont, forked_cont, "clone resumes mid-stream");

        forked.reset(&SimConfig::default());
        let rewound: Vec<u64> = (0..17).map(|_| forked.read_cycle(0).unwrap()).collect();
        assert_eq!(rewound, burn, "reset re-derives the stream from seed");
        assert_ne!(cont[..17], burn[..], "jitter stream has real state");
    }

    #[test]
    fn eviction_noise_slows_a_cache_resident_loop() {
        let quiet = {
            let mut m = Machine::new(SimConfig::default());
            m.load_program(&victim_prog());
            m.run(1_000_000).unwrap()
        };
        // Eviction pressure focused exactly on the loop's one hot line.
        let cfg = SimConfig {
            noise: NoiseConfig {
                evict_permille: 100,
                seed: 5,
                ..NoiseConfig::quiet()
            }
            .with_window(0x4000, 0x4040),
            ..SimConfig::default()
        };
        let noisy = {
            let mut m = Machine::new(cfg);
            m.load_program(&victim_prog());
            m.run(1_000_000).unwrap()
        };
        assert!(
            noisy.cycles > quiet.cycles + 100,
            "evictions must cost misses: quiet {} noisy {}",
            quiet.cycles,
            noisy.cycles
        );
        assert!(noisy.dram_accesses > quiet.dram_accesses);
    }

    #[test]
    fn timer_noise_coarsens_rdcycle_deltas() {
        let prog = {
            let mut a = Asm::new();
            a.rdcycle(Reg::T0);
            a.fence();
            a.rdcycle(Reg::T1);
            a.sub(Reg::T1, Reg::T1, Reg::T0);
            a.halt();
            a.assemble().unwrap()
        };
        let cfg = SimConfig {
            noise: NoiseConfig {
                timer_quantum: 16,
                seed: 2,
                ..NoiseConfig::quiet()
            },
            ..SimConfig::default()
        };
        let mut m = Machine::new(cfg);
        m.load_program(&prog);
        m.run(100_000).unwrap();
        assert_eq!(
            m.reg(Reg::T1) % 16,
            0,
            "quantized reads differ by a multiple of the quantum"
        );
    }

    #[test]
    fn traffic_program_is_deterministic_and_runs() {
        let p1 = traffic_program(9, 0x10_0000, 0x1000, 32);
        let p2 = traffic_program(9, 0x10_0000, 0x1000, 32);
        let p3 = traffic_program(10, 0x10_0000, 0x1000, 32);
        assert_eq!(p1.len(), p2.len());
        assert_ne!(
            format!("{p1:?}"),
            format!("{p3:?}"),
            "different seeds touch different lines"
        );
        let mut m = Machine::new(SimConfig::default());
        m.load_program(&p1);
        let stats = m.run(1_000_000).unwrap();
        assert!(m.is_halted());
        assert!(stats.dram_accesses > 0, "the co-runner generates traffic");
    }
}
