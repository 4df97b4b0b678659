//! Machine configuration: pipeline geometry, latencies, cache
//! geometry, and the per-optimization switches of the paper's Table I.

use crate::mem::cache::CacheConfig;
use crate::mem::hierarchy::{MemLatency, PrefetchFill};
use crate::noise::NoiseConfig;

/// Pipeline structure sizes and widths.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PipelineConfig {
    /// Instructions fetched per cycle.
    pub fetch_width: usize,
    /// Instructions renamed/dispatched per cycle.
    pub dispatch_width: usize,
    /// Instructions issued to execution per cycle.
    pub issue_width: usize,
    /// Instructions committed per cycle.
    pub commit_width: usize,
    /// Reorder buffer entries.
    pub rob_size: usize,
    /// Issue queue entries.
    pub iq_size: usize,
    /// Load queue entries.
    pub lq_size: usize,
    /// Store queue entries. The paper's amplification experiment uses a
    /// 5-entry SQ (§V-A3).
    pub sq_size: usize,
    /// Physical register file size (tags available for renaming).
    pub prf_size: usize,
    /// Cycles between a squash and the first refetched instruction.
    pub redirect_penalty: u64,
    /// Simple-ALU ports per cycle.
    pub alu_ports: usize,
    /// Multiply/divide ports per cycle.
    pub muldiv_ports: usize,
    /// Floating-point ports per cycle.
    pub fp_ports: usize,
    /// Load (cache read) ports per cycle. SS-loads steal these.
    pub load_ports: usize,
    /// Store-address/data ports per cycle.
    pub store_ports: usize,
}

impl Default for PipelineConfig {
    fn default() -> PipelineConfig {
        PipelineConfig {
            fetch_width: 4,
            dispatch_width: 4,
            issue_width: 4,
            commit_width: 4,
            rob_size: 64,
            iq_size: 32,
            lq_size: 16,
            sq_size: 5,
            prf_size: 96,
            redirect_penalty: 6,
            alu_ports: 2,
            muldiv_ports: 1,
            fp_ports: 1,
            load_ports: 2,
            store_ports: 1,
        }
    }
}

/// Execution latencies (cycles) of each operation class, before any
/// computation-simplification optimization shortens them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LatencyConfig {
    /// Simple integer ALU operations.
    pub alu: u64,
    /// Integer multiply.
    pub mul: u64,
    /// Integer divide/remainder.
    pub div: u64,
    /// Floating-point operations (non-subnormal operands).
    pub fp: u64,
    /// Extra cycles when a floating-point operand or result is subnormal
    /// and the subnormal slow path is enabled.
    pub fp_subnormal_penalty: u64,
}

impl Default for LatencyConfig {
    fn default() -> LatencyConfig {
        LatencyConfig {
            alu: 1,
            mul: 4,
            div: 12,
            fp: 4,
            fp_subnormal_penalty: 40,
        }
    }
}

/// Which values the register-file compressor can share (§IV-D1).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum RfcMatch {
    /// Only results equal to 0 or 1 compress (Balakrishnan & Sohi 0/1
    /// variant; MLD Example 8).
    #[default]
    ZeroOne,
    /// Any result equal to a value currently live in the committed
    /// architectural register file compresses.
    Any,
}

/// How the computation-reuse memo table is keyed (§IV-C2, §VI-A3).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ReuseKey {
    /// Sv: key on (pc, operand *values*) — highest reuse, leaks operand
    /// values.
    #[default]
    Values,
    /// Sn: key on (pc, operand *register ids*) — leaks only which
    /// instruction executes (control flow), the paper's suggested
    /// security-conscious variant.
    RegIds,
}

/// Configuration of the seven optimization classes studied by the paper.
/// Everything defaults to *off*: the default machine is the paper's
/// "Baseline" column of Table I.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct OptConfig {
    /// Silent stores (§IV-C1, §V-A): read-port-stealing SS-loads; silent
    /// stores dequeue without a cache write, consecutive silent stores
    /// dequeue together.
    pub silent_stores: bool,
    /// Computation simplification (§IV-B1): zero/one-skip multiply,
    /// trivial ALU bypass, early-exit divide.
    pub comp_simpl: bool,
    /// Floating-point subnormal slow path (classic CS instance).
    pub fp_subnormal: bool,
    /// Pipeline compression (§IV-B2): two narrow-operand ALU operations
    /// pack into one issue port (Brooks & Martonosi).
    pub operand_packing: bool,
    /// Computation reuse (§IV-C2): memoize mul/div/fp results.
    pub comp_reuse: bool,
    /// Memo-table key flavour.
    pub reuse_key: ReuseKey,
    /// Number of memo-table entries.
    pub reuse_entries: usize,
    /// Whether simple ALU operations are memoized too (Sodani & Sohi's
    /// Sv covers "potentially any arithmetic instruction"); multiply,
    /// divide and floating-point are always eligible when reuse is on.
    pub reuse_simple_alu: bool,
    /// Value prediction for loads (§IV-C3): last-value, confidence
    /// threshold; mispredict squashes.
    pub value_pred: bool,
    /// Predictions are made once confidence reaches this count.
    pub vp_confidence: u8,
    /// The prediction heuristic (last-value or stride).
    pub vp_kind: crate::opt::value_pred::VpKind,
    /// Register-file compression (§IV-D1).
    pub rf_compress: bool,
    /// Which values compress.
    pub rfc_match: RfcMatch,
    /// Data memory-dependent prefetcher (§IV-D2, §V-B): the IMP.
    pub dmp: bool,
    /// Number of indirection levels the IMP chases (2 or 3).
    pub dmp_levels: u8,
    /// Prefetch distance Δ in elements ahead of the stream.
    pub dmp_distance: u64,
    /// Where prefetches install lines (models §V-B3 prefetch buffers).
    pub dmp_fill: PrefetchFill,
    /// Content-directed (pointer-chasing) prefetcher: scan demand-filled
    /// lines for pointer-shaped values and prefetch their targets
    /// (Cooksey et al., the paper's other DMP family).
    pub cdp: bool,
}

impl OptConfig {
    /// The baseline machine: every optimization off.
    #[must_use]
    pub fn baseline() -> OptConfig {
        OptConfig {
            reuse_entries: 64,
            reuse_simple_alu: true,
            vp_confidence: 3,
            dmp_levels: 3,
            dmp_distance: 4,
            ..OptConfig::default()
        }
    }

    /// Baseline plus silent stores.
    #[must_use]
    pub fn with_silent_stores() -> OptConfig {
        OptConfig {
            silent_stores: true,
            ..OptConfig::baseline()
        }
    }

    /// Baseline plus the 3-level IMP.
    #[must_use]
    pub fn with_dmp(levels: u8) -> OptConfig {
        OptConfig {
            dmp: true,
            dmp_levels: levels,
            ..OptConfig::baseline()
        }
    }
}

/// Full machine configuration.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SimConfig {
    /// Data memory size in bytes.
    pub mem_size: usize,
    /// Pipeline geometry.
    pub pipeline: PipelineConfig,
    /// Execution latencies.
    pub latency: LatencyConfig,
    /// L1 data cache geometry.
    pub l1d: CacheConfig,
    /// L2 geometry.
    pub l2: CacheConfig,
    /// Hierarchy latencies.
    pub mem_latency: MemLatency,
    /// Optimization switches.
    pub opts: OptConfig,
    /// A label that callers vary per trial. Nothing simulated reads it:
    /// the caches are LRU, and the noise streams draw from
    /// [`NoiseConfig::seed`]. It is part of [`SimConfig::stable_hash`]
    /// like every other field.
    pub seed: u64,
    /// Deadlock watchdog window: if no instruction commits and no store
    /// dequeues for this many cycles while work is in flight, the run
    /// stops with [`SimError::Deadlock`] and a pipeline snapshot instead
    /// of spinning to the cycle cap. `None` disables the watchdog. The
    /// default (10 000) is far above any legitimate stall on these
    /// machines (the worst case — a full store queue of DRAM misses
    /// draining serially — is a few hundred cycles).
    ///
    /// [`SimError::Deadlock`]: crate::SimError::Deadlock
    pub watchdog_cycles: Option<u64>,
    /// Deterministic environmental noise (co-tenant cache pressure,
    /// degraded timers, frontend jitter). Quiet by default; see
    /// [`NoiseConfig`].
    pub noise: NoiseConfig,
    /// Validate pipeline invariants every cycle and surface violations
    /// as structured [`SimError::InvalidState`] errors even in release
    /// builds (where `debug_assert!` compiles out). Off by default:
    /// the checks walk the ROB each cycle, which costs a few percent
    /// of simulation speed.
    ///
    /// [`SimError::InvalidState`]: crate::SimError::InvalidState
    pub paranoid_checks: bool,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            mem_size: 4 << 20,
            pipeline: PipelineConfig::default(),
            latency: LatencyConfig::default(),
            l1d: CacheConfig::l1d(),
            l2: CacheConfig::l2(),
            mem_latency: MemLatency::default(),
            opts: OptConfig::baseline(),
            seed: 0x9e3779b97f4a7c15,
            watchdog_cycles: Some(10_000),
            noise: NoiseConfig::quiet(),
            paranoid_checks: false,
        }
    }
}

/// 64-bit FNV-1a, the workspace's stable fingerprint primitive.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl OptConfig {
    /// A deterministic fingerprint of the optimization switches —
    /// FNV-1a over the canonical `Debug` rendering. Two configs hash
    /// equal iff every field is equal.
    #[must_use]
    pub fn stable_hash(&self) -> u64 {
        fnv1a64(format!("{self:?}").as_bytes())
    }
}

impl SimConfig {
    /// A deterministic fingerprint of the *entire* machine
    /// configuration (geometry, latencies, caches, optimization
    /// switches, seed, watchdog) — FNV-1a over the canonical `Debug`
    /// rendering, so any field change changes the hash.
    ///
    /// The experiment runner records this in its resume manifest:
    /// `runall --resume` refuses to mix journal entries produced under
    /// a different machine configuration, and re-verified experiments
    /// must reproduce their recorded output byte for byte.
    #[must_use]
    pub fn stable_hash(&self) -> u64 {
        fnv1a64(format!("{self:?}").as_bytes())
    }

    /// Whether a machine built for `self` can be recycled in place for
    /// `other` ([`Machine::reset_to`]): true when every field that
    /// determines *allocation shape* — memory size, pipeline geometry
    /// (queue/PRF sizes, port counts), cache geometry, and the memory
    /// latencies baked into the hierarchy at construction — is equal.
    /// Seeds, optimization switches, noise, latencies, and watchdog
    /// settings may all differ: those are reapplied by a reset.
    ///
    /// [`Machine::reset_to`]: crate::Machine::reset_to
    #[must_use]
    pub fn same_shape(&self, other: &SimConfig) -> bool {
        self.mem_size == other.mem_size
            && self.pipeline == other.pipeline
            && self.l1d == other.l1d
            && self.l2 == other.l2
            && self.mem_latency == other.mem_latency
    }

    /// Default machine with the given optimization switches.
    #[must_use]
    pub fn with_opts(opts: OptConfig) -> SimConfig {
        SimConfig {
            opts,
            ..SimConfig::default()
        }
    }

    /// A small 2-wide core (shallow queues, one load port) — the
    /// ablation point for attack viability on little machines.
    #[must_use]
    pub fn little_core() -> SimConfig {
        SimConfig {
            pipeline: PipelineConfig {
                fetch_width: 2,
                dispatch_width: 2,
                issue_width: 2,
                commit_width: 2,
                rob_size: 24,
                iq_size: 12,
                lq_size: 8,
                sq_size: 4,
                prf_size: 64,
                redirect_penalty: 4,
                alu_ports: 1,
                muldiv_ports: 1,
                fp_ports: 1,
                load_ports: 1,
                store_ports: 1,
            },
            ..SimConfig::default()
        }
    }

    /// A wide 8-issue core with deep queues.
    #[must_use]
    pub fn big_core() -> SimConfig {
        SimConfig {
            pipeline: PipelineConfig {
                fetch_width: 8,
                dispatch_width: 8,
                issue_width: 8,
                commit_width: 8,
                rob_size: 192,
                iq_size: 96,
                lq_size: 48,
                sq_size: 24,
                prf_size: 256,
                redirect_penalty: 8,
                alu_ports: 4,
                muldiv_ports: 2,
                fp_ports: 2,
                load_ports: 3,
                store_ports: 2,
            },
            ..SimConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_baseline() {
        let c = SimConfig::default();
        assert!(!c.opts.silent_stores);
        assert!(!c.opts.dmp);
        assert!(!c.opts.value_pred);
        assert_eq!(c.pipeline.sq_size, 5, "paper's SQ depth");
    }

    #[test]
    fn opt_presets() {
        assert!(OptConfig::with_silent_stores().silent_stores);
        let d = OptConfig::with_dmp(2);
        assert!(d.dmp);
        assert_eq!(d.dmp_levels, 2);
        assert_eq!(d.dmp_distance, 4, "paper's i + 4 delta");
    }

    #[test]
    fn core_presets_are_distinct_and_consistent() {
        let little = SimConfig::little_core();
        let big = SimConfig::big_core();
        assert!(little.pipeline.issue_width < big.pipeline.issue_width);
        assert!(little.pipeline.rob_size < big.pipeline.rob_size);
        assert!(!little.opts.silent_stores && !big.opts.dmp, "presets stay baseline");
    }

    #[test]
    fn with_opts_overrides_only_opts() {
        let c = SimConfig::with_opts(OptConfig::with_silent_stores());
        assert!(c.opts.silent_stores);
        assert_eq!(c.mem_size, SimConfig::default().mem_size);
    }

    #[test]
    fn stable_hash_tracks_every_field() {
        let base = SimConfig::default();
        assert_eq!(base.stable_hash(), SimConfig::default().stable_hash());

        let mut seeded = base;
        seeded.seed ^= 1;
        assert_ne!(base.stable_hash(), seeded.stable_hash(), "seed is hashed");

        let mut opted = base;
        opted.opts.silent_stores = true;
        assert_ne!(base.stable_hash(), opted.stable_hash(), "opts are hashed");

        let mut sized = base;
        sized.pipeline.sq_size += 1;
        assert_ne!(base.stable_hash(), sized.stable_hash(), "geometry is hashed");

        let mut noisy = base;
        noisy.noise = NoiseConfig::at_intensity(30, 0);
        assert_ne!(base.stable_hash(), noisy.stable_hash(), "noise is hashed");
        let mut reseeded = noisy;
        reseeded.noise.seed ^= 1;
        assert_ne!(
            noisy.stable_hash(),
            reseeded.stable_hash(),
            "noise seed is hashed"
        );

        let mut paranoid = base;
        paranoid.paranoid_checks = true;
        assert_ne!(
            base.stable_hash(),
            paranoid.stable_hash(),
            "paranoia is hashed"
        );

        assert_ne!(
            SimConfig::little_core().stable_hash(),
            SimConfig::big_core().stable_hash()
        );
        assert_ne!(
            OptConfig::baseline().stable_hash(),
            OptConfig::with_silent_stores().stable_hash()
        );
    }
}
