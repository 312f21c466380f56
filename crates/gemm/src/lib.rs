//! # oranges-gemm — the paper's GEMM benchmark implementations
//!
//! Table 2 of the paper lists the matrix-multiplication implementations
//! under test:
//!
//! | Implementation              | Framework  | Hardware |
//! |-----------------------------|------------|----------|
//! | Naive algorithm             | C++        | CPU      |
//! | (OpenMP tiled, §3.2)        | C++/OpenMP | CPU      |
//! | BLAS/vDSP                   | Accelerate | CPU      |
//! | Naive algorithm as shader   | Metal      | GPU      |
//! | Cutlass-style tiled shader  | Metal      | GPU      |
//! | Metal Performance Shaders   | Metal      | GPU      |
//!
//! Every implementation here realizes the [`GemmImplementation`] trait:
//! functional execution (real FP32 results, verified against a reference)
//! plus modeled timing from the substrate it runs on. Matrices follow the
//! paper's §3.2 discipline: dense, FP32, `R ∈ [0, 1)`, page-aligned
//! allocations extended to 16 KiB multiples so GPU wraps are zero-copy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod cpu_accelerate;
pub(crate) mod cpu_omp;
pub(crate) mod cpu_single;
pub mod error;
pub(crate) mod gpu_mps;
pub(crate) mod gpu_shader;
pub mod matrix;
pub mod suite;
pub mod verify;

pub use error::GemmError;
pub use matrix::Matrix;
pub use oranges_metal::shaders::gemm_flops;
pub use suite::{paper_sizes, suite_for, Hardware, ImplementationInfo};
pub use verify::{verify_sampled, VerifyOutcome};

use oranges_kernels::CacheParams;
use oranges_powermetrics::WorkClass;
use oranges_soc::chip::ChipGeneration;
use oranges_soc::time::SimDuration;

/// The functional ceiling (FLOPs) every Table 2 backend enforces by
/// default: at or below it a run computes real results, above it only the
/// timing model runs. The CPU loops, Accelerate and the Metal device all
/// share this one value, so n ≤ 512 is the largest paper size that can
/// be verified.
pub const DEFAULT_FUNCTIONAL_LIMIT: u64 = oranges_metal::device::DEFAULT_FUNCTIONAL_LIMIT;

const _: () =
    assert!(DEFAULT_FUNCTIONAL_LIMIT == oranges_accelerate::blas::DEFAULT_FUNCTIONAL_LIMIT);

/// Block-size geometry of one of the chip's performance cores (L1d and
/// the P-cluster L2), for the blocked macrokernel the CPU loops run.
pub(crate) fn chip_cache_params(chip: ChipGeneration) -> CacheParams {
    let spec = chip.spec();
    CacheParams::new(
        spec.l1_p_kib as usize * 1024,
        spec.l2_p_mib as usize * 1024 * 1024,
    )
}

/// Outcome of one GEMM run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GemmOutcome {
    /// Modeled duration (the paper's `high_resolution_clock` delta).
    pub duration: SimDuration,
    /// FLOPs performed: `n²(2n−1)`.
    pub flops: u64,
    /// Whether real arithmetic ran (below the functional ceiling).
    pub functional: bool,
    /// Busy fraction of the window (for power accounting).
    pub duty: f64,
}

impl GemmOutcome {
    /// Achieved GFLOPS — the Figure 2 quantity.
    pub fn gflops(&self) -> f64 {
        let secs = self.duration.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.flops as f64 / secs / 1e9
        }
    }
}

/// One Table 2 implementation.
pub trait GemmImplementation {
    /// Figure legend name ("CPU-Single", "GPU-MPS", …).
    fn name(&self) -> &'static str;

    /// Framework column of Table 2.
    fn framework(&self) -> &'static str;

    /// Hardware column of Table 2.
    fn hardware(&self) -> Hardware;

    /// Power-model calibration class.
    fn work_class(&self) -> WorkClass;

    /// Multiply `c := a · b` for square `n×n` row-major FP32 matrices.
    fn run(
        &mut self,
        n: usize,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
    ) -> Result<GemmOutcome, GemmError>;

    /// Model-only run: the timing/power outcome of an `n×n` multiply
    /// without touching (or allocating) matrix data. The figure sweeps use
    /// this for the paper's largest sizes, where one operand alone is a
    /// gigabyte.
    fn model_run(&mut self, n: usize) -> Result<GemmOutcome, GemmError>;
}
