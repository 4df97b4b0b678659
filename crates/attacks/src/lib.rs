#![warn(missing_docs)]

//! # pandora-attacks
//!
//! The end-to-end proofs of concept from *"Opening Pandora's Box"*
//! (ISCA 2021), running against the workspace's simulated machine:
//!
//! * [`amplify`] — the silent-store **amplification gadget** (Fig 5):
//!   delay + flush sub-gadgets that convert one dynamic store's
//!   silence into a >100-cycle runtime difference.
//! * [`bsaes`] — the full silent-store attack on constant-time
//!   bitsliced AES-128 (§V-A3, Fig 6): chosen-plaintext equality
//!   oracle on the eight 16-bit spill slots, slice recovery, round-10
//!   key derivation, key-schedule inversion.
//! * [`dmp`] — the **universal read gadget** through the 3-level
//!   indirect-memory prefetcher from inside the verified eBPF-style
//!   sandbox (Fig 1, Fig 7), plus the 2-level non-URG comparison
//!   (§IV-D4).
//! * [`stateless`] — computation-simplification and operand-packing
//!   timing oracles (§IV-B).
//! * [`stateful`] — the equality-oracle replay attacks on computation
//!   reuse, value prediction, and register-file compression (§IV-C,
//!   §IV-D1), including §IV-C4's width-chunked replay: one byte
//!   recovered in ≤ 2^8 queries
//!   ([`recover_byte_by_replay`](stateful::recover_byte_by_replay)).
//! * [`defense`] — measured §VI-A retrofits: MSB-OR vs compression,
//!   Sn keying vs reuse, targeted clearing vs silent stores.

pub mod amplify;
pub mod bsaes;
pub mod defense;
pub mod dmp;
pub mod stateful;
pub mod stateless;
pub mod util;

pub use amplify::{AmplifyGadget, FlushKind};
pub use bsaes::{BsaesAttack, GuessJob, KeyVotes, RunOutcome, SliceVotes};
pub use defense::DefenseOutcome;
pub use dmp::{LeakRun, UrgAttack};
