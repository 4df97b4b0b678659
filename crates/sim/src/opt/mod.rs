//! The seven microarchitectural optimization classes studied by the
//! paper (Table I / Table II), plus the baseline branch predictor.
//!
//! Each submodule documents which paper section and MLD it implements;
//! `hook` gathers the enabled classes into the one struct the pipeline
//! stages consult, so a [`crate::Machine`] is "baseline + the enabled
//! classes". Everything is off by default
//! ([`crate::OptConfig::baseline`]) so the default machine matches
//! Table I's "Baseline" column.

pub mod bpred;
pub mod cdp;
pub mod comp_reuse;
pub mod comp_simpl;
pub mod dmp;
pub(crate) mod hook;
pub mod pipe_compress;
pub mod rf_compress;
pub mod silent_store;
pub mod value_pred;
