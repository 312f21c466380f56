//! # oranges-stream — the STREAM benchmark for simulated M-series chips
//!
//! §3.1 of the paper: the CPU side runs John McCalpin's original
//! `stream.c` with an OpenMP thread sweep from one to the number of
//! physical cores; the GPU side ports the Copy, Scale, Add and Triad
//! kernels to MSL (adapted from a CUDA/HIP GPU STREAM) and drives them
//! from Objective-C++. CPU runs repeat 10×, GPU runs 20×, and only the
//! maximum bandwidth is reported (§4).
//!
//! This crate reproduces the benchmark over the simulation substrates:
//!
//! - [`kernels`]: the four array kernels, real f64 (CPU) arithmetic with
//!   stream.c's validation recurrence;
//! - [`cpu`]: the thread-sweep CPU benchmark over the calibrated
//!   bandwidth model (with a deterministic warm-up curve standing in for
//!   run-to-run noise, so "best of 10" is meaningful *and* reproducible);
//! - [`gpu`]: the Metal-kernel GPU benchmark (best of 20);
//! - [`report`]: stream.c-style output tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cpu;
pub mod gpu;
pub mod kernels;
pub mod report;

pub use cpu::{CpuStream, CpuStreamConfig};
pub use gpu::{GpuStream, GpuStreamConfig};
pub use kernels::STREAM_SCALAR;
pub use report::render_report;

use oranges_soc::time::SimDuration;
use oranges_umem::bandwidth::StreamKernelKind;

/// Result for one kernel after all repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelResult {
    /// Which kernel.
    pub kernel: StreamKernelKind,
    /// Best (maximum) bandwidth across repetitions, GB/s.
    pub best_gbs: f64,
    /// Minimum time across repetitions.
    pub min_time: SimDuration,
    /// Mean time across repetitions.
    pub avg_time: SimDuration,
    /// Maximum time across repetitions.
    pub max_time: SimDuration,
    /// Thread count that achieved the best bandwidth (CPU; 0 for GPU).
    pub best_threads: u32,
}

/// A full STREAM run (one agent on one chip).
#[derive(Debug, Clone)]
pub struct StreamRun {
    /// Human-readable agent label ("CPU" / "GPU").
    pub agent: &'static str,
    /// Array length in elements.
    pub elements: usize,
    /// Element size in bytes (8 for the CPU f64 arrays, 4 for GPU f32).
    pub element_bytes: usize,
    /// Repetitions per configuration.
    pub reps: u32,
    /// Per-kernel results in Copy/Scale/Add/Triad order.
    pub results: Vec<KernelResult>,
    /// Whether functional array arithmetic ran and validated.
    pub validated: bool,
}

impl StreamRun {
    /// The best bandwidth over all kernels — the number Figure 1 plots per
    /// bar group.
    pub fn best_gbs(&self) -> f64 {
        self.results.iter().map(|r| r.best_gbs).fold(0.0, f64::max)
    }

    /// Result for one kernel.
    pub fn kernel(&self, kind: StreamKernelKind) -> Option<&KernelResult> {
        self.results.iter().find(|r| r.kernel == kind)
    }
}

/// Deterministic stand-in for run-to-run noise: repetition `rep` of `reps`
/// reaches `1 − amplitude × (reps−1−rep)/(reps−1)` of the modeled
/// bandwidth — a warm-up curve whose final repetition hits the calibrated
/// value exactly, so max-of-N reporting recovers the model while earlier
/// repetitions exercise the min/avg/max statistics.
pub fn warmup_factor(rep: u32, reps: u32, amplitude: f64) -> f64 {
    if reps <= 1 {
        return 1.0;
    }
    let frac = (reps - 1 - rep.min(reps - 1)) as f64 / (reps - 1) as f64;
    1.0 - amplitude * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warmup_factor_ends_at_unity() {
        for reps in [2u32, 10, 20] {
            assert_eq!(warmup_factor(reps - 1, reps, 0.05), 1.0);
            assert!((warmup_factor(0, reps, 0.05) - 0.95).abs() < 1e-12);
            // Monotone non-decreasing.
            let mut last = 0.0;
            for rep in 0..reps {
                let f = warmup_factor(rep, reps, 0.05);
                assert!(f >= last);
                last = f;
            }
        }
        assert_eq!(warmup_factor(0, 1, 0.5), 1.0);
    }
}
