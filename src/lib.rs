#![warn(missing_docs)]

//! # pandora
//!
//! Umbrella crate for the Pandora workspace — a production-quality Rust
//! reproduction of *"Opening Pandora's Box: A Systematic Study of New
//! Ways Microarchitecture Can Leak Private Data"* (Sanchez Vicarte et
//! al., ISCA 2021).
//!
//! The workspace is organised as one crate per subsystem; this crate
//! simply re-exports them under stable module names:
//!
//! * [`core`] — the paper's primary contribution: microarchitectural
//!   leakage descriptors (MLDs), the leakage landscape (Table I), the
//!   optimization classification (Table II), and channel-capacity
//!   analysis.
//! * [`isa`] — the RISC-like instruction set and assembler every victim
//!   and attacker program compiles to.
//! * [`sim`] — a cycle-level out-of-order CPU simulator with the seven
//!   security-relevant optimizations the paper studies implemented as
//!   configurable components.
//! * [`crypto`] — a constant-time bitsliced AES-128 (the silent-store
//!   attack victim), both as a pure-Rust reference and as generated ISA
//!   code.
//! * [`sandbox`] — an eBPF-like bytecode, verifier and compiler (the DMP
//!   attack setting).
//! * [`channels`] — timed-probe receivers, a cache covert channel and
//!   timing statistics.
//! * [`attacks`] — the end-to-end proofs of concept: the silent-store
//!   amplification gadget, BSAES key recovery, the 3-level IMP universal
//!   read gadget, and equality-oracle replay attacks for the remaining
//!   optimization classes.
//! * [`runner`] — the resilient experiment-orchestration runtime behind
//!   the `runall` suite driver: per-experiment deadlines, panic
//!   isolation, bounded retries, checkpoint/resume, and crash-safe
//!   result publication.
//! * [`server`] — the `pandora-server` leakage-scanning service: submit
//!   a victim over HTTP/JSON, get a Table-I-style report of which
//!   optimization classes leak its secret, behind per-tenant quotas,
//!   circuit breakers, and journaled crash-safe reports.
//!
//! ## Quickstart
//!
//! ```
//! use pandora::isa::{Asm, Reg};
//! use pandora::sim::{Machine, SimConfig};
//!
//! // A tiny program: sum 0..10 and halt.
//! let mut a = Asm::new();
//! a.li(Reg::T0, 0);
//! a.li(Reg::T1, 10);
//! a.label("loop");
//! a.add(Reg::T2, Reg::T2, Reg::T1);
//! a.addi(Reg::T1, Reg::T1, -1);
//! a.bnez(Reg::T1, "loop");
//! a.halt();
//! let prog = a.assemble().unwrap();
//!
//! let mut m = Machine::new(SimConfig::default());
//! m.load_program(&prog);
//! let stats = m.run(100_000).unwrap();
//! assert_eq!(m.reg(Reg::T2), 55);
//! assert!(stats.cycles > 0);
//! ```

pub use pandora_attacks as attacks;
pub use pandora_channels as channels;
pub use pandora_core as core;
pub use pandora_crypto as crypto;
pub use pandora_isa as isa;
pub use pandora_runner as runner;
pub use pandora_sandbox as sandbox;
pub use pandora_server as server;
pub use pandora_sim as sim;
