//! # ufc-bench — the benchmark harness regenerating every table and
//! figure of the UFC paper
//!
//! Each binary in `src/bin/` reproduces one experiment; run e.g.
//! `cargo run -p ufc-bench --bin fig10a_ckks_comparison --release`.
//! The implementation itself is timed by `bench_math`,
//! `bench_switch` and `bench_sha256` (committed `BENCH_*.json` tables,
//! validated by `cargo xtask bench-*`) and by the `benchmark/` probes.
//!
//! | binary | experiment |
//! |---|---|
//! | `fig02_ntt_utilization` | Fig. 2 — NTT-unit utilization vs degree |
//! | `table02_config` | Table II — UFC configuration |
//! | `table03_params` | Table III — FHE parameter sets |
//! | `fig09_area_breakdown` | Fig. 9 — area breakdown |
//! | `fig10a_ckks_comparison` | Fig. 10(a) — CKKS workloads vs SHARP |
//! | `fig10b_tfhe_comparison` | Fig. 10(b) — TFHE workloads vs Strix |
//! | `fig11_hybrid_knn` | Fig. 11 — hybrid k-NN vs SHARP+Strix |
//! | `fig12_utilization` | Fig. 12 — component utilization |
//! | `table04_sharp_vs_ufc` | Table IV — SHARP vs UFC |
//! | `fig13_dse_cgntt` | Fig. 13 — CG-NTT network DSE |
//! | `fig14_dse_throughput` | Fig. 14 — lane-count DSE |
//! | `fig15_packing` | Fig. 15 — TvLP vs CoLP packing |
//! | `ablation_codesign` | §IV-C2/C3 co-design ablation |
//! | `op_breakdown` | per-phase cycle breakdown |
//! | `trace_stats` | workload trace inventory |
//! | `gates_throughput` | bootstrapped gates/s, UFC vs Strix |
//! | `ablation_bandwidth` | HBM bandwidth sensitivity |

#![forbid(unsafe_code)]

pub mod output;

pub use output::{cell, JsonReport, JsonTable, OutputOpts};

/// Prints a Markdown-style table row.
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Prints a Markdown-style header plus separator.
pub fn header(cells: &[&str]) {
    println!("| {} |", cells.join(" | "));
    println!(
        "|{}|",
        cells.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
}

/// Formats a ratio with two decimals and a times sign.
pub fn ratio(v: f64) -> String {
    format!("{v:.2}×")
}

/// Formats seconds with an adaptive unit.
pub fn time(seconds: f64) -> String {
    if seconds >= 1.0 {
        format!("{seconds:.2} s")
    } else if seconds >= 1e-3 {
        format!("{:.2} ms", seconds * 1e3)
    } else {
        format!("{:.2} µs", seconds * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(ratio(1.5), "1.50×");
        assert_eq!(time(2.0), "2.00 s");
        assert_eq!(time(0.002), "2.00 ms");
        assert_eq!(time(2e-6), "2.00 µs");
    }
}
