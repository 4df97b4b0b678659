#![warn(missing_docs)]

//! # pandora-bench
//!
//! The benchmark harness: every table and figure of *"Opening
//! Pandora's Box"* (ISCA 2021) as a registered, profiled experiment,
//! plus the [`perf`] bench that gates the simulator's own speed.
//!
//! | Paper artifact | Experiment / binary |
//! |---|---|
//! | Table I (leakage landscape) | `table1` |
//! | Table II (MLD classification) | `table2` |
//! | Fig 2 + Fig 3 (example MLDs, capacities) | `fig2_fig3_mlds` |
//! | Fig 4 (silent-store cases A–D) | `fig4_cases` |
//! | Fig 5 (amplification gadget) | `fig5_amplification` |
//! | Fig 6 (BSAES runtime histogram) | `fig6_bsaes_hist` |
//! | Fig 1 + Fig 7 (DMP universal read gadget) | `fig7_urg` |
//! | §V-A3 replay key recovery | `e9_replay_recovery` |
//! | §IV-B stateless oracles | `e10_stateless_opts` |
//! | §IV-C stateful oracles | `e11_stateful_opts` |
//! | §IV-D1 register-file compression | `e12_rfc` |
//! | §VI-A defenses | `e14_defenses` |
//! | §VI-A3 Sv vs Sn performance | `e15_sv_vs_sn_performance` |
//! | noise robustness (extension) | `e16_noise_robustness` |
//!
//! Each experiment lives in [`experiments`] and is registered with the
//! resilient orchestration runtime in `pandora-runner`. Run one
//! standalone (`cargo run --release -p pandora-bench --bin <name>`,
//! with `--smoke` for the cheap profile), or run the whole suite with
//! the **`runall`** binary: thread-pooled, deadline-bounded,
//! panic-isolated, and resumable (`runall --smoke --jobs 2`,
//! `runall --resume`). Every binary publishes `results/<name>.txt`
//! atomically; `runall` additionally emits `results/summary.json`.
//! The `perf` bench and its two regression gates:
//! `cargo bench -p pandora-bench --bench perf -- --check`.

pub mod experiments;
pub mod perf;

/// Formats a (bucket, count, percent) histogram row like the paper's
/// Fig 6 presentation.
#[must_use]
pub fn histogram_row(bucket: u64, count: usize, pct: f64, scale: usize) -> String {
    let bar = "#".repeat((pct as usize).min(scale));
    format!("{bucket:>8} | {count:>4} {pct:>5.1}% {bar}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_row_formats() {
        let r = histogram_row(14200, 12, 24.0, 50);
        assert!(r.contains("14200"));
        assert!(r.contains("24.0%"));
        assert!(r.contains("########"));
    }
}
