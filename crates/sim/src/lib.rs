#![warn(missing_docs)]

//! # pandora-sim
//!
//! A cycle-level, out-of-order CPU simulator built as the experimental
//! substrate for the Pandora reproduction of *"Opening Pandora's Box"*
//! (ISCA 2021). The paper's proofs of concept ran on Gem5 and
//! hypothetical hardware; this crate replaces both with a from-scratch
//! model that exposes the same mechanisms the attacks exploit:
//!
//! * a speculative out-of-order pipeline (fetch + branch prediction,
//!   rename with a physical register file, issue ports, load/store
//!   queues with **in-order store dequeue**, reorder buffer, squash),
//! * a two-level set-associative cache hierarchy over flat memory,
//! * the seven optimization classes of the paper's Table I as
//!   configurable components ([`OptConfig`]), all off by default so the
//!   default machine is the paper's Baseline.
//!
//! Programs are [`pandora_isa::Program`]s; run them with [`Machine`]:
//!
//! ```
//! use pandora_isa::{Asm, Reg};
//! use pandora_sim::{Machine, OptConfig, SimConfig};
//!
//! let mut a = Asm::new();
//! a.li(Reg::T0, 1);
//! a.sd(Reg::T0, Reg::ZERO, 64);
//! a.fence();
//! a.sd(Reg::T0, Reg::ZERO, 64); // stores 1 over 1: silent
//! a.fence();
//! a.halt();
//! let prog = a.assemble().unwrap();
//!
//! let mut m = Machine::new(SimConfig::with_opts(OptConfig::with_silent_stores()));
//! m.load_program(&prog);
//! let stats = m.run(100_000).unwrap();
//! assert_eq!(stats.silent_stores, 1);
//! ```

pub mod config;
pub mod duo;
pub mod error;
pub mod event;
pub mod fault;
pub mod fleet;
pub mod func;
pub mod machine;
pub mod mem;
pub mod noise;
pub mod opt;
pub mod pipeline;
pub mod stats;
pub mod trace;

pub use config::{LatencyConfig, OptConfig, PipelineConfig, ReuseKey, RfcMatch, SimConfig};
pub use opt::value_pred::VpKind;
pub use event::{EventBus, PrefetchSource, SimEvent, SquashReason, StallReason};
pub use func::{EmuError, Emulator};
pub use duo::DuoMachine;
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use fleet::{MachinePool, MemberError, MemberSpec};
pub use machine::{Checkpoint, DeadlockDiagnostics, Machine, SimError};
pub use mem::cache::{Cache, CacheConfig, CacheOutcome, Replacement};
pub use mem::hierarchy::{Access, Hierarchy, MemLatency, PrefetchFill, ServedBy};
pub use mem::memory::{MemFault, Memory};
pub use noise::{traffic_program, NoiseConfig, NoiseHook};
pub use opt::hook::{FaultHook, Hooks, MemoLookup, OptHook};
pub use pipeline::{PipelineStage, PipelineState, Stages};
pub use stats::SimStats;
pub use trace::{NonSilentReason, Trace, TraceEvent};
