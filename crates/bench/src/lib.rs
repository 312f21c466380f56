//! # oranges-bench — benchmark targets reproducing the paper's artifacts
//!
//! Bench targets (run with `cargo bench -p oranges-bench`):
//!
//! | target | reproduces |
//! |---|---|
//! | `fig1_stream` | Figure 1 — STREAM bandwidth rows + chart |
//! | `fig2_gemm` | Figure 2 — GFLOPS grid (per chip/implementation/size) |
//! | `fig3_power` | Figure 3 — power dissipation grid |
//! | `fig4_efficiency` | Figure 4 — GFLOPS/W grid |
//! | `tables` | Tables 1–3 |
//! | `references` | the HPC Perspective comparisons (R1–R3) |
//! | `kernels` | host-kernel trajectory: each microkernel vs its scalar twin (`BENCH_kernels.json`) |
//! | `ablation` | design-choice ablations (thread sweep, no-copy, duty cycle) |
//! | `campaign` | campaign-orchestrator throughput (cold vs cached, worker sweep) |
//!
//! The figure targets print the same rows/series the paper reports and
//! write CSV snapshots next to the bench output.

/// Shared helper: where figure CSVs are written by the bench binaries.
pub fn output_path(name: &str) -> std::path::PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    let dir = std::path::Path::new(&target).join("paper-output");
    std::fs::create_dir_all(&dir).ok();
    dir.join(name)
}

#[cfg(test)]
mod tests {
    #[test]
    fn output_path_is_creatable() {
        let path = super::output_path("probe.csv");
        std::fs::write(&path, "x").unwrap();
        assert!(path.exists());
        std::fs::remove_file(&path).ok();
    }
}
