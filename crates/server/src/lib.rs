//! `pandora-server`: a hardened multi-tenant leakage-scanning service.
//!
//! Submit a victim program plus a marking of which bytes are secret;
//! the service verifies it through the [`pandora_sandbox`] verifier,
//! schedules it on a bounded supervised worker pool, runs it under
//! every optimization-class hook combination on the fleet layer, and
//! returns a Table-I-style report: which classes leak, the measured
//! capacity, and the receiver transcript.

pub mod http;
pub mod job;
pub use pandora_runner::json;
pub mod quota;
pub mod scan;
pub mod server;
pub mod sha256;
pub mod store;
pub mod victims;

pub use job::ApiError;
pub use scan::{run_scan, ScanLimits, ScanReport, ScanSpec};
pub use server::{Server, ServerConfig, ServerHandle};
