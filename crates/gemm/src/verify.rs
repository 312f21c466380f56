//! Numerical verification of GEMM results.
//!
//! Full-matrix comparison is quadratic in memory and cubic in time; for
//! benchmark-scale matrices the harness verifies a random sample of output
//! entries instead, recomputing each sampled entry as an f64 dot product
//! (tighter than the f32 kernels, so the tolerance bounds kernel error,
//! not reference error). When a dense reference *is* available (unit
//! tests, small functional runs), [`verify_dense`] compares whole outputs
//! in one fused sweep — max-abs diff, max-ULP distance, and the mismatch
//! count in a single pass over each array instead of separate
//! diff → threshold → count sweeps.

use oranges_kernels::reduce::dot_f32_to_f64_strided;
use oranges_kernels::ulp::diff_stats_f32;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Scalar reference GEMM used by unit tests (`c := a · b`) — the
/// microkernel layer's scalar twin.
pub fn reference_gemm(n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    oranges_kernels::gemm::sgemm_f32_scalar(n, n, n, a, n, b, n, c, n);
}

/// Result of sampled verification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VerifyOutcome {
    /// Entries sampled.
    pub samples: usize,
    /// Worst relative error seen.
    pub max_rel_error: f64,
    /// Whether all samples were within tolerance.
    pub passed: bool,
}

/// Result of one fused dense comparison ([`verify_dense`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DenseVerifyOutcome {
    /// Elements compared.
    pub compared: usize,
    /// Elements whose absolute difference exceeded the tolerance.
    pub mismatches: usize,
    /// Largest absolute difference seen.
    pub max_abs_diff: f32,
    /// Largest elementwise ULP distance seen.
    pub max_ulp: u64,
    /// No mismatches and both slices were the same length.
    pub passed: bool,
}

/// Compare a computed output against a dense reference in one sweep.
///
/// Single pass over each array (the kernels-crate
/// [`diff_stats_f32`] primitive) producing the max absolute difference,
/// max ULP distance, and count of elements beyond `abs_tol` at once.
pub fn verify_dense(got: &[f32], want: &[f32], abs_tol: f32) -> DenseVerifyOutcome {
    let stats = diff_stats_f32(got, want, abs_tol);
    DenseVerifyOutcome {
        compared: stats.compared,
        mismatches: stats.mismatches,
        max_abs_diff: stats.max_abs(),
        max_ulp: stats.max_ulp,
        passed: stats.mismatches == 0 && got.len() == want.len(),
    }
}

/// Verify `c ≈ a · b` on `samples` random entries with relative tolerance
/// `tol` (scaled by √n to account for f32 accumulation error growth).
pub fn verify_sampled(
    n: usize,
    a: &[f32],
    b: &[f32],
    c: &[f32],
    samples: usize,
    seed: u64,
    tol: f64,
) -> VerifyOutcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let scaled_tol = tol * (n as f64).sqrt().max(1.0);
    let mut max_rel_error = 0.0f64;
    let mut passed = true;
    for _ in 0..samples {
        let i = rng.gen_range(0..n);
        let j = rng.gen_range(0..n);
        // Row i of A against strided column j of B, widened to f64 with
        // a 4-accumulator unrolled dot (oranges-kernels).
        let acc = dot_f32_to_f64_strided(&a[i * n..(i + 1) * n], &b[j..], n);
        let got = c[i * n + j] as f64;
        let denom = acc.abs().max(1e-12);
        let rel = (got - acc).abs() / denom;
        max_rel_error = max_rel_error.max(rel);
        if rel > scaled_tol {
            passed = false;
        }
    }
    VerifyOutcome {
        samples,
        max_rel_error,
        passed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det_matrix(n: usize, seed: u32) -> Vec<f32> {
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(17);
        (0..n * n)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                (state >> 8) as f32 / (1u32 << 24) as f32
            })
            .collect()
    }

    #[test]
    fn correct_results_pass() {
        let n = 64;
        let a = det_matrix(n, 1);
        let b = det_matrix(n, 2);
        let mut c = vec![0.0f32; n * n];
        reference_gemm(n, &a, &b, &mut c);
        let outcome = verify_sampled(n, &a, &b, &c, 128, 99, 1e-5);
        assert!(outcome.passed, "max rel {}", outcome.max_rel_error);
        assert_eq!(outcome.samples, 128);
    }

    #[test]
    fn corrupted_results_fail() {
        let n = 32;
        let a = det_matrix(n, 3);
        let b = det_matrix(n, 4);
        let mut c = vec![0.0f32; n * n];
        reference_gemm(n, &a, &b, &mut c);
        for v in c.iter_mut() {
            *v *= 1.5; // corrupt everything so sampling must catch it
        }
        let outcome = verify_sampled(n, &a, &b, &c, 64, 5, 1e-5);
        assert!(!outcome.passed);
        assert!(outcome.max_rel_error > 0.1);
    }

    #[test]
    fn zero_output_of_nonzero_inputs_fails() {
        let n = 16;
        let a = vec![0.5f32; n * n];
        let b = vec![0.5f32; n * n];
        let c = vec![0.0f32; n * n];
        assert!(!verify_sampled(n, &a, &b, &c, 32, 1, 1e-5).passed);
    }

    #[test]
    fn dense_verify_passes_identical_outputs() {
        let n = 24;
        let a = det_matrix(n, 5);
        let b = det_matrix(n, 6);
        let mut c = vec![0.0f32; n * n];
        reference_gemm(n, &a, &b, &mut c);
        let outcome = verify_dense(&c, &c, 0.0);
        assert!(outcome.passed);
        assert_eq!(outcome.mismatches, 0);
        assert_eq!(outcome.max_ulp, 0);
        assert_eq!(outcome.compared, n * n);
    }

    #[test]
    fn dense_verify_counts_and_bounds_corruption() {
        let n = 8;
        let a = det_matrix(n, 7);
        let b = det_matrix(n, 8);
        let mut c = vec![0.0f32; n * n];
        reference_gemm(n, &a, &b, &mut c);
        let mut bad = c.clone();
        bad[3] += 0.5;
        bad[40] -= 0.25;
        let outcome = verify_dense(&bad, &c, 1e-4);
        assert!(!outcome.passed);
        assert_eq!(outcome.mismatches, 2);
        assert!(outcome.max_abs_diff >= 0.5);
        assert!(outcome.max_ulp > 0);
    }

    #[test]
    fn dense_verify_rejects_length_mismatch() {
        let outcome = verify_dense(&[1.0, 2.0], &[1.0], 0.0);
        assert!(!outcome.passed, "shorter reference must not pass");
        assert_eq!(outcome.compared, 1);
    }
}
