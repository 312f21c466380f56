//! The compiled-in shader collection (our `.metallib`).
//!
//! The paper benchmarks two custom MSL SGEMM shaders (a naive
//! one-thread-per-output kernel and a "Cutlass-style" tiled kernel, both
//! from an open-source repository) plus the four STREAM kernels ported
//! from the CUDA/HIP GPU STREAM. This module holds the Rust equivalents;
//! each implements [`crate::kernel::ComputeKernel`] — real arithmetic for
//! functional runs, plus a calibrated workload description for timing.

pub mod sgemm_naive;
pub mod sgemm_tiled;
pub mod stream;

pub use sgemm_naive::SgemmNaive;
pub use sgemm_tiled::SgemmTiled;
pub use stream::{StreamAdd, StreamCopy, StreamScale, StreamTriad};

/// GEMM FLOP count the paper uses: `n²(2n − 1)` (each of the n² outputs
/// takes n multiplies and n−1 adds). The workspace's one FLOP count: the
/// GEMM backends, the shaders and Figure 2 all read it, and campaign
/// specs only admit sizes far below the point where it overflows.
///
/// # Panics
///
/// When the count does not fit in a `u64` (n above 2²¹ = 2,097,152),
/// instead of wrapping to a wrong count.
pub const fn gemm_flops(n: u64) -> u64 {
    if n == 0 {
        return 0;
    }
    // 2n − 1 cannot overflow once n² fits.
    let flops = match n.checked_mul(n) {
        Some(square) => square.checked_mul(2 * n - 1),
        None => None,
    };
    match flops {
        Some(flops) => flops,
        None => panic!("the GEMM FLOP count n²(2n − 1) overflows u64"),
    }
}

/// Compulsory FP32 DRAM traffic of a cache-blocked square GEMM: read A and
/// B once, write C once. The per-implementation efficiency constant (not
/// extra modeled traffic) carries all further inefficiency, so calibration
/// anchors stay exact.
pub(crate) const fn gemm_bytes(n: u64) -> (u64, u64) {
    (2 * n * n * 4, n * n * 4)
}

/// Functional GEMM over one output band: the shared arithmetic behind the
/// SGEMM kernels' `execute_band` (`a` is row-major `m×k`, `b` is `k×n`,
/// the band covers output elements `start..start + out.len()` of the
/// row-major `m×n` C).
///
/// Full rows inside the band run through the cache-blocked macrokernel
/// ([`oranges_kernels::block`], host-default geometry — `execute_band`
/// has no chip handle); the partial head/tail rows a band boundary slices
/// through fall back to the per-element ascending-k loop. Both orders are
/// bitwise-identical to the scalar triple loop, so banding never changes
/// a bit of output.
pub(crate) fn sgemm_band(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    start: usize,
    out: &mut [f32],
) {
    use oranges_kernels::{sgemm_f32_blocked, CacheParams};

    let total = m * n;
    let start = start.min(total);
    let end = (start + out.len()).min(total);
    if start >= end {
        return;
    }
    let out = &mut out[..end - start];
    let scalar_element = |idx: usize, slot: &mut f32| {
        let (i, j) = (idx / n, idx % n);
        let mut acc = 0.0f32;
        for p in 0..k {
            acc += a[i * k + p] * b[p * n + j];
        }
        *slot = acc;
    };

    // Partial head row (band starts mid-row).
    let head_end = if start.is_multiple_of(n) {
        start
    } else {
        end.min((start / n + 1) * n)
    };
    for idx in start..head_end {
        scalar_element(idx, &mut out[idx - start]);
    }
    // Full rows through the blocked macrokernel.
    let full_end = (end / n) * n;
    if full_end > head_end {
        let (r0, r1) = (head_end / n, full_end / n);
        sgemm_f32_blocked(
            r1 - r0,
            n,
            k,
            &a[r0 * k..],
            k,
            b,
            n,
            &mut out[head_end - start..full_end - start],
            n,
            &CacheParams::host_default(),
        );
    }
    // Partial tail row.
    for idx in head_end.max(full_end)..end {
        scalar_element(idx, &mut out[idx - start]);
    }
}

#[cfg(test)]
mod band_tests {
    use super::*;

    #[test]
    fn banded_equals_whole_run_bitwise() {
        let (m, n, k) = (7usize, 5, 9);
        let a: Vec<f32> = (0..m * k)
            .map(|i| ((i * 31 + 7) % 13) as f32 * 0.125)
            .collect();
        let b: Vec<f32> = (0..k * n)
            .map(|i| ((i * 17 + 3) % 11) as f32 * 0.25)
            .collect();
        let mut whole = vec![0.0f32; m * n];
        sgemm_band(m, n, k, &a, &b, 0, &mut whole);
        // Scalar reference.
        let mut expected = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a[i * k + p] * b[p * n + j];
                }
                expected[i * n + j] = acc;
            }
        }
        assert_eq!(whole, expected);
        // Awkward band splits (mid-row boundaries) must agree bitwise.
        for band_len in [1usize, 3, 8, 11, 16] {
            let mut banded = vec![0.0f32; m * n];
            for (bi, chunk) in banded.chunks_mut(band_len).enumerate() {
                let start = bi * band_len;
                let len = chunk.len();
                sgemm_band(m, n, k, &a, &b, start, &mut chunk[..len]);
            }
            assert_eq!(banded, expected, "band_len={band_len}");
        }
    }

    #[test]
    fn out_of_range_band_is_no_op() {
        let mut out = vec![5.0f32; 4];
        sgemm_band(2, 2, 2, &[1.0; 4], &[1.0; 4], 4, &mut out);
        assert_eq!(out, vec![5.0; 4]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flop_count_matches_paper_formula() {
        assert_eq!(gemm_flops(0), 0);
        assert_eq!(gemm_flops(1), 1);
        assert_eq!(gemm_flops(2), 4 * 3);
        assert_eq!(gemm_flops(1024), 1024 * 1024 * 2047);
    }

    #[test]
    fn flop_count_refuses_sizes_whose_count_overflows() {
        let refuses = |n: u64| std::panic::catch_unwind(|| gemm_flops(n)).is_err();
        // The largest size whose count fits, and the first that does not.
        let largest = 1u64 << 21;
        assert_eq!(gemm_flops(largest), largest * largest * (2 * largest - 1));
        assert!(refuses(largest + 1));
        // Sizes a spec once carried into a wrapped count (the first) and
        // into a 4,096-element operand (the second, whose n² wraps to
        // 4,096).
        assert!(refuses(u64::MAX));
        assert!(refuses(9_223_372_036_854_775_872));
    }

    #[test]
    fn byte_accounting() {
        let (r, w) = gemm_bytes(256);
        assert_eq!(r, 2 * 256 * 256 * 4);
        assert_eq!(w, 256 * 256 * 4);
    }
}
