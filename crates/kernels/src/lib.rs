//! Portable SIMD-style microkernels for the workspace's host hot loops.
//!
//! Every experiment figure ultimately rests on kernel throughput — STREAM
//! bandwidth (Fig. 1) and GEMM FLOPS (Fig. 2) — so the host-side loops
//! that *run* those kernels are the measured product. This crate collects
//! them in one place, written in the standard single-core style that lets
//! LLVM emit wide code and keeps the FP pipelines full:
//!
//! - [`reduce`] — dot / sum / max with **4–8 independent accumulators**,
//!   breaking the FP dependency chain a naive `acc += …` loop serializes
//!   on (an FP add every ~4 cycles instead of every cycle's worth of
//!   throughput);
//! - [`stream`] — the four STREAM array passes plus a **fused
//!   full-iteration** that performs Copy → Scale → Add → Triad in one
//!   memory sweep (legal because all four passes are elementwise on the
//!   same index: 4 words of traffic per element instead of 10);
//! - [`elem`] — f32 elementwise ops (`scale`, `add`, `axpy`) for the
//!   vDSP-shaped API and the AMX outer-product lane loop;
//! - [`gemm`] — an `MR×NR` register-tiled SGEMM microkernel over packed
//!   panels with a k-unrolled inner loop;
//! - [`block`] — the Goto/BLIS cache-blocked macrokernel above that tile:
//!   NC/KC/MC panel loops with [`block::CacheParams`]-derived block sizes,
//!   packing once per panel and seeding tile accumulators from C so the
//!   KC split stays bitwise-faithful to the scalar loop.
//!
//! # Equivalence contract
//!
//! Every kernel has a scalar reference twin (`*_scalar`) defining its
//! semantics, and a test proving the pair agrees:
//!
//! | kernel family | twin relation |
//! |---|---|
//! | `stream::*`, `elem::*` | **bitwise** — elementwise ops are not reordered |
//! | `gemm::sgemm_f32` | **bitwise** — one accumulator per output element, k-order preserved (the tile itself supplies the ILP) |
//! | `block::sgemm_f32_blocked` | **bitwise** — KC panels ascend and re-seed from stored f32 partials (store/load is exact), so the element-wise op sequence equals the scalar loop |
//! | `reduce::*` (dot/sum) | **ULP-bounded** — multi-accumulator reductions reorder the sum |
//! | `reduce::max_f32` | value-equal — max is order-insensitive |
//! | `ulp::diff_stats_f32` | exact — fused diff/threshold/count pass matches its three separate sweeps |
//!
//! The bitwise rows are what let consumers swap these kernels in without
//! perturbing campaign value-identity fingerprints; the ULP rows feed
//! tolerance-checked paths only (sampled GEMM verification).

#![forbid(unsafe_code)]

pub mod block;
pub mod elem;
pub mod gemm;
pub mod reduce;
pub mod stream;
pub mod ulp;

pub use block::{sgemm_f32_blocked, sgemm_f32_blocked_with, BlockSizes, CacheParams};
pub use gemm::{sgemm_f32, sgemm_f32_scalar};
pub use reduce::{dot_f32, dot_f64, max_f32, sum_f32, sum_f64};
pub use stream::fused_iteration_f64;
pub use ulp::{diff_stats_f32, ulp_distance_f32, ulp_distance_f64, DiffStats};

/// The host's available parallelism (4 if it cannot be read), read once
/// per process. Every host-parallel functional path sizes its worker
/// count from this one reading: the Accelerate row blocks and the Metal
/// shader bands.
pub fn host_parallelism() -> usize {
    static HOST: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *HOST.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    })
}
