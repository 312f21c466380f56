//! Equivalence proofs: every unrolled kernel against its scalar twin.
//!
//! Bitwise for the fused STREAM iteration (against the four literal
//! passes), for the SGEMM microkernel (one in-order accumulator per
//! output element), and for the cache-blocked macrokernel (KC panels
//! ascend and re-seed from stored f32 partials); error-bounded for the
//! reordered strided dot, using the standard summation bound
//! `|err| <= c · n · eps · Σ|terms|`. Deterministic sweeps cover the
//! awkward lengths (0, 1, lane−1, lane+1, primes) and sizes straddling
//! every MC/KC/NC panel boundary; proptests cover the space in between.
//! One release-only test times the blocked macrokernel against the
//! unblocked microkernel it replaces.

use oranges_kernels::block::{sgemm_f32_blocked, sgemm_f32_blocked_with, BlockSizes, CacheParams};
use oranges_kernels::{gemm, reduce, stream};
use proptest::collection::vec;
use proptest::prelude::*;
use std::hint::black_box;
use std::time::Instant;

fn series_f32(n: usize, seed: u32) -> Vec<f32> {
    let mut state = seed.wrapping_mul(2654435761).wrapping_add(11);
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            (state >> 8) as f32 / (1u32 << 24) as f32 - 0.5
        })
        .collect()
}

/// Lengths around the strided dot's 4 accumulators, and prime sizes
/// that never divide evenly.
const AWKWARD: [usize; 13] = [0, 1, 2, 7, 8, 9, 13, 15, 16, 17, 31, 97, 257];

fn assert_reduction_close_f64(fast: f64, slow: f64, terms: impl Iterator<Item = f64>, n: usize) {
    let sum_abs: f64 = terms.map(f64::abs).sum();
    let tol = 4.0 * (n as f64 + 8.0) * f64::EPSILON * sum_abs + 1e-300;
    assert!(
        (fast - slow).abs() <= tol,
        "fast {fast} vs scalar {slow} beyond summation bound {tol} (n={n})"
    );
}

#[test]
fn strided_dot_matches_twin_on_awkward_lengths_and_strides() {
    for n in AWKWARD {
        for stride in [1usize, 2, 3, 7] {
            let a = series_f32(n, 5);
            let col_len = if n == 0 { 0 } else { (n - 1) * stride + 1 };
            let b = series_f32(col_len, 6);
            assert_reduction_close_f64(
                reduce::dot_f32_to_f64_strided(&a, &b, stride),
                reduce::dot_f32_to_f64_strided_scalar(&a, &b, stride),
                a.iter()
                    .enumerate()
                    .map(|(i, &x)| f64::from(x) * f64::from(b[i * stride])),
                n,
            );
        }
    }
}

#[test]
fn sgemm_matches_twin_bitwise_on_awkward_shapes() {
    // Around the MR=4 / NR=8 tile edges and at primes.
    for &(m, n, k) in &[
        (1usize, 1usize, 1usize),
        (3, 7, 5),
        (4, 8, 16),
        (5, 9, 17),
        (7, 15, 3),
        (13, 11, 13),
        (16, 16, 16),
        (17, 17, 17),
        (2, 31, 1),
    ] {
        let a = series_f32(m * k, 11);
        let b = series_f32(k * n, 12);
        let mut fast = vec![f32::NAN; m * n];
        let mut slow = vec![f32::NAN; m * n];
        gemm::sgemm_f32(m, n, k, &a, k, &b, n, &mut fast, n);
        gemm::sgemm_f32_scalar(m, n, k, &a, k, &b, n, &mut slow, n);
        assert_eq!(fast, slow, "m={m} n={n} k={k}");
    }
}

/// Small explicit blocks so modest matrices cross every panel loop:
/// MC = 8 (2 tile rows), KC = 12 (3 k-unroll groups), NC = 16 (2 tile
/// columns).
const TEST_BLOCKS: BlockSizes = BlockSizes {
    mc: 8,
    kc: 12,
    nc: 16,
};

#[test]
fn blocked_sgemm_matches_twin_bitwise_at_panel_boundaries() {
    // m/n/k at MC/NC/KC ± 1, exact multiples, primes, and k = 0.
    let mut shapes = Vec::new();
    for m in [7usize, 8, 9, 16, 17, 23] {
        for n in [15usize, 16, 17, 32, 31] {
            for k in [11usize, 12, 13, 24, 37, 0] {
                shapes.push((m, n, k));
            }
        }
    }
    shapes.extend_from_slice(&[(1, 1, 1), (3, 5, 7), (29, 31, 37)]);
    for (m, n, k) in shapes {
        let a = series_f32(m * k, 21);
        let b = series_f32(k * n, 22);
        let mut fast = vec![f32::NAN; m * n];
        let mut slow = vec![f32::NAN; m * n];
        sgemm_f32_blocked_with(m, n, k, &a, k.max(1), &b, n, &mut fast, n, &TEST_BLOCKS);
        gemm::sgemm_f32_scalar(m, n, k, &a, k.max(1), &b, n, &mut slow, n);
        assert_eq!(fast, slow, "m={m} n={n} k={k}");
    }
}

#[test]
fn blocked_sgemm_matches_twin_bitwise_with_odd_leading_dimensions() {
    let (m, n, k) = (9usize, 17usize, 13usize);
    let (lda, ldb, ldc) = (k + 3, n + 5, n + 7); // odd, non-packed strides
    let a = series_f32(m * lda, 23);
    let b = series_f32(k * ldb, 24);
    let mut fast = vec![-3.0f32; m * ldc];
    let mut slow = vec![-3.0f32; m * ldc];
    sgemm_f32_blocked_with(m, n, k, &a, lda, &b, ldb, &mut fast, ldc, &TEST_BLOCKS);
    gemm::sgemm_f32_scalar(m, n, k, &a, lda, &b, ldb, &mut slow, ldc);
    assert_eq!(fast, slow);
    // Storage beyond each row's n columns is untouched.
    for r in 0..m {
        assert_eq!(
            &fast[r * ldc + n..(r + 1) * ldc],
            &slow[r * ldc + n..(r + 1) * ldc]
        );
        assert!(fast[r * ldc + n..(r + 1) * ldc].iter().all(|&v| v == -3.0));
    }
}

#[test]
fn blocked_sgemm_handles_degenerate_blocks_larger_than_the_matrix() {
    // MC > m, NC > n, KC > k: a single partial block in every loop.
    let sizes = BlockSizes {
        mc: 64,
        kc: 64,
        nc: 64,
    };
    for (m, n, k) in [(3usize, 5usize, 7usize), (1, 9, 2), (13, 1, 1)] {
        let a = series_f32(m * k, 25);
        let b = series_f32(k * n, 26);
        let mut fast = vec![f32::NAN; m * n];
        let mut slow = vec![f32::NAN; m * n];
        sgemm_f32_blocked_with(m, n, k, &a, k, &b, n, &mut fast, n, &sizes);
        gemm::sgemm_f32_scalar(m, n, k, &a, k, &b, n, &mut slow, n);
        assert_eq!(fast, slow, "m={m} n={n} k={k}");
    }
}

#[test]
fn blocked_sgemm_matches_twin_with_host_default_geometry() {
    // The production parameter path (larger-than-matrix blocks collapse
    // to one panel each) and a size big enough to split KC at least once
    // under the test geometry.
    let params = CacheParams::host_default();
    for (m, n, k) in [(33usize, 29usize, 41usize), (64, 64, 64)] {
        let a = series_f32(m * k, 27);
        let b = series_f32(k * n, 28);
        let mut fast = vec![f32::NAN; m * n];
        let mut slow = vec![f32::NAN; m * n];
        sgemm_f32_blocked(m, n, k, &a, k, &b, n, &mut fast, n, &params);
        gemm::sgemm_f32_scalar(m, n, k, &a, k, &b, n, &mut slow, n);
        assert_eq!(fast, slow, "m={m} n={n} k={k}");
    }
}

#[test]
fn blocked_sgemm_agrees_with_unblocked_microkernel_bitwise() {
    // Transitivity check made explicit: both paths equal the scalar twin,
    // so they must equal each other.
    let (m, n, k) = (23usize, 31usize, 29usize);
    let a = series_f32(m * k, 29);
    let b = series_f32(k * n, 30);
    let mut blocked = vec![f32::NAN; m * n];
    let mut micro = vec![f32::NAN; m * n];
    sgemm_f32_blocked_with(m, n, k, &a, k, &b, n, &mut blocked, n, &TEST_BLOCKS);
    gemm::sgemm_f32(m, n, k, &a, k, &b, n, &mut micro, n);
    assert_eq!(blocked, micro);
}

/// The blocking must pay for itself: at n = 128 and n = 256 the blocked
/// macrokernel takes no longer than the unblocked microkernel it
/// replaces. Each side is timed as the minimum of 3 calls after one
/// warm-up call, since the minimum filters scheduler noise. Timings mean
/// nothing unoptimized, so this runs in release only.
#[test]
#[cfg_attr(debug_assertions, ignore = "timing gate; run with --release")]
fn blocked_sgemm_is_no_slower_than_the_unblocked_microkernel() {
    fn min_of_3_secs(mut call: impl FnMut()) -> f64 {
        call();
        (0..3)
            .map(|_| {
                let started = Instant::now();
                call();
                started.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    }
    let params = CacheParams::host_default();
    for n in [128usize, 256] {
        let a = series_f32(n * n, 31);
        let b = series_f32(n * n, 32);
        let mut c = vec![0.0f32; n * n];
        let unblocked_s = min_of_3_secs(|| {
            gemm::sgemm_f32(n, n, n, black_box(&a), n, black_box(&b), n, &mut c, n);
            black_box(&c);
        });
        let blocked_s = min_of_3_secs(|| {
            sgemm_f32_blocked(
                n,
                n,
                n,
                black_box(&a),
                n,
                black_box(&b),
                n,
                &mut c,
                n,
                &params,
            );
            black_box(&c);
        });
        assert!(
            blocked_s <= unblocked_s,
            "n={n}: blocked {:.3} ms is slower than unblocked {:.3} ms",
            blocked_s * 1e3,
            unblocked_s * 1e3
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_fused_iteration_is_bitwise_the_four_passes(
        seed in vec(any::<f64>(), 0..600),
        iterations in 1u32..4,
    ) {
        let n = seed.len();
        let (mut a1, mut a2) = (seed.clone(), seed.clone());
        let (mut b1, mut b2) = (vec![2.0; n], vec![2.0; n]);
        let (mut c1, mut c2) = (vec![0.0; n], vec![0.0; n]);
        for _ in 0..iterations {
            stream::fused_iteration_f64(&mut a1, &mut b1, &mut c1, 3.0);
            stream::fused_iteration_f64_scalar(&mut a2, &mut b2, &mut c2, 3.0);
        }
        prop_assert_eq!(a1, a2);
        prop_assert_eq!(b1, b2);
        prop_assert_eq!(c1, c2);
    }

    #[test]
    fn prop_sgemm_is_bitwise_scalar(
        m in 0usize..24,
        n in 0usize..24,
        k in 0usize..24,
        seed in 0u32..1000,
    ) {
        let a = series_f32(m * k, seed);
        let b = series_f32(k * n, seed.wrapping_add(1));
        let mut fast = vec![f32::NAN; m * n];
        let mut slow = vec![f32::NAN; m * n];
        gemm::sgemm_f32(m, n, k, &a, k.max(1), &b, n, &mut fast, n);
        gemm::sgemm_f32_scalar(m, n, k, &a, k.max(1), &b, n, &mut slow, n);
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn prop_blocked_sgemm_is_bitwise_scalar(
        m in 0usize..40,
        n in 0usize..40,
        k in 0usize..40,
        mc in 1usize..12,
        kc in 1usize..16,
        nc in 1usize..20,
        seed in 0u32..1000,
    ) {
        // Arbitrary (even tile-misaligned) block sizes must stay bitwise.
        let sizes = BlockSizes { mc, kc, nc };
        let a = series_f32(m * k, seed);
        let b = series_f32(k * n, seed.wrapping_add(1));
        let mut fast = vec![f32::NAN; m * n];
        let mut slow = vec![f32::NAN; m * n];
        sgemm_f32_blocked_with(m, n, k, &a, k.max(1), &b, n, &mut fast, n, &sizes);
        gemm::sgemm_f32_scalar(m, n, k, &a, k.max(1), &b, n, &mut slow, n);
        prop_assert_eq!(fast, slow);
    }
}
