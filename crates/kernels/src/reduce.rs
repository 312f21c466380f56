//! Multi-accumulator reductions.
//!
//! A naive `acc += x[i] * y[i]` loop serializes on the FP add: every
//! iteration waits the full add latency (~3–4 cycles) before the next can
//! issue, and LLVM may not reassociate strict IEEE arithmetic, so the
//! loop runs at a fraction of the machine's FP throughput. Splitting the
//! reduction across 4–8 *independent* accumulators breaks that chain —
//! the adds pipeline, and the blocked body vectorizes.
//!
//! Reordering a float sum changes the rounding, so these kernels are
//! **ULP-bounded** (not bitwise) against their scalar twins; the combine
//! order is fixed (pairwise tree over the accumulators, then the scalar
//! tail) so results are deterministic for a given input.

/// Accumulator lanes used by the unrolled reductions.
pub const ACC_LANES: usize = 8;

#[inline]
fn tree8_f32(acc: [f32; ACC_LANES]) -> f32 {
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}

#[inline]
fn tree8_f64(acc: [f64; ACC_LANES]) -> f64 {
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}

/// Dot product over the common prefix of `a` and `b`, 8 accumulators.
pub fn dot_f32(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut acc = [0.0f32; ACC_LANES];
    let mut ac = a.chunks_exact(ACC_LANES);
    let mut bc = b.chunks_exact(ACC_LANES);
    for (x, y) in (&mut ac).zip(&mut bc) {
        for lane in 0..ACC_LANES {
            acc[lane] += x[lane] * y[lane];
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in ac.remainder().iter().zip(bc.remainder()) {
        tail += x * y;
    }
    tree8_f32(acc) + tail
}

/// Scalar twin of [`dot_f32`]: one sequential accumulator.
pub fn dot_f32_scalar(a: &[f32], b: &[f32]) -> f32 {
    let n = a.len().min(b.len());
    let mut acc = 0.0f32;
    for i in 0..n {
        acc += a[i] * b[i];
    }
    acc
}

/// Dot product over the common prefix of `a` and `b`, 8 accumulators.
pub fn dot_f64(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut acc = [0.0f64; ACC_LANES];
    let mut ac = a.chunks_exact(ACC_LANES);
    let mut bc = b.chunks_exact(ACC_LANES);
    for (x, y) in (&mut ac).zip(&mut bc) {
        for lane in 0..ACC_LANES {
            acc[lane] += x[lane] * y[lane];
        }
    }
    let mut tail = 0.0f64;
    for (x, y) in ac.remainder().iter().zip(bc.remainder()) {
        tail += x * y;
    }
    tree8_f64(acc) + tail
}

/// Scalar twin of [`dot_f64`].
pub fn dot_f64_scalar(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let mut acc = 0.0f64;
    for i in 0..n {
        acc += a[i] * b[i];
    }
    acc
}

/// Sum of `a`, 8 accumulators.
pub fn sum_f32(a: &[f32]) -> f32 {
    let mut acc = [0.0f32; ACC_LANES];
    let mut chunks = a.chunks_exact(ACC_LANES);
    for x in &mut chunks {
        for lane in 0..ACC_LANES {
            acc[lane] += x[lane];
        }
    }
    let mut tail = 0.0f32;
    for x in chunks.remainder() {
        tail += x;
    }
    tree8_f32(acc) + tail
}

/// Scalar twin of [`sum_f32`].
pub fn sum_f32_scalar(a: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for &x in a {
        acc += x;
    }
    acc
}

/// Sum of `a`, 8 accumulators.
pub fn sum_f64(a: &[f64]) -> f64 {
    let mut acc = [0.0f64; ACC_LANES];
    let mut chunks = a.chunks_exact(ACC_LANES);
    for x in &mut chunks {
        for lane in 0..ACC_LANES {
            acc[lane] += x[lane];
        }
    }
    let mut tail = 0.0f64;
    for x in chunks.remainder() {
        tail += x;
    }
    tree8_f64(acc) + tail
}

/// Scalar twin of [`sum_f64`].
pub fn sum_f64_scalar(a: &[f64]) -> f64 {
    let mut acc = 0.0f64;
    for &x in a {
        acc += x;
    }
    acc
}

/// Maximum element, 8 lanes (identity `-inf` on empty input, NaN-ignoring
/// like [`f32::max`]).
///
/// The lane fold is the branch-free select `if x > acc { x } else
/// { acc }` rather than [`f32::max`]: the latter lowers to `llvm.maxnum`,
/// whose NaN-propagation rules cost a branchy fixup sequence per element
/// on x86, which is what regressed this kernel below its scalar twin.
/// The select form compiles to a plain packed-max/blend. NaN inputs are
/// still ignored (`NaN > acc` is false and the accumulator starts at
/// `-inf`, so it can never become NaN).
///
/// Max is order-insensitive, so this is value-equal to its scalar twin.
pub fn max_f32(a: &[f32]) -> f32 {
    let mut acc = [f32::NEG_INFINITY; ACC_LANES];
    let mut chunks = a.chunks_exact(ACC_LANES);
    for x in &mut chunks {
        for lane in 0..ACC_LANES {
            acc[lane] = if x[lane] > acc[lane] {
                x[lane]
            } else {
                acc[lane]
            };
        }
    }
    let mut m = ((acc[0].max(acc[1])).max(acc[2].max(acc[3])))
        .max((acc[4].max(acc[5])).max(acc[6].max(acc[7])));
    for &x in chunks.remainder() {
        m = m.max(x);
    }
    m
}

/// Scalar twin of [`max_f32`].
pub fn max_f32_scalar(a: &[f32]) -> f32 {
    a.iter().copied().fold(f32::NEG_INFINITY, f32::max)
}

/// f64-widening dot product of f32 inputs as the literal loop (each
/// product computed exactly in f64 — the precision the GEMM verifier
/// needs): the contiguous reference for [`dot_f32_to_f64_strided`].
pub fn dot_f32_to_f64_scalar(a: &[f32], b: &[f32]) -> f64 {
    let n = a.len().min(b.len());
    let mut acc = 0.0f64;
    for i in 0..n {
        acc += a[i] as f64 * b[i] as f64;
    }
    acc
}

/// f64-widening dot of a contiguous row `a` against a strided column
/// `b[i * stride]` (the row-major column access of sampled GEMM
/// verification), 4 accumulators.
///
/// Uses all of `a`; `b` must hold at least `(a.len() - 1) * stride + 1`
/// elements (`stride >= 1`).
pub fn dot_f32_to_f64_strided(a: &[f32], b: &[f32], stride: usize) -> f64 {
    let n = a.len();
    if n == 0 {
        return 0.0;
    }
    assert!(stride >= 1, "stride must be at least 1");
    assert!(
        b.len() > (n - 1) * stride,
        "b holds {} elements, needs {}",
        b.len(),
        (n - 1) * stride + 1
    );
    let mut acc = [0.0f64; 4];
    let mut i = 0;
    while i + 4 <= n {
        acc[0] += a[i] as f64 * b[i * stride] as f64;
        acc[1] += a[i + 1] as f64 * b[(i + 1) * stride] as f64;
        acc[2] += a[i + 2] as f64 * b[(i + 2) * stride] as f64;
        acc[3] += a[i + 3] as f64 * b[(i + 3) * stride] as f64;
        i += 4;
    }
    let mut tail = 0.0f64;
    while i < n {
        tail += a[i] as f64 * b[i * stride] as f64;
        i += 1;
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// Scalar twin of [`dot_f32_to_f64_strided`].
pub fn dot_f32_to_f64_strided_scalar(a: &[f32], b: &[f32], stride: usize) -> f64 {
    let n = a.len();
    if n == 0 {
        return 0.0;
    }
    assert!(stride >= 1, "stride must be at least 1");
    assert!(
        b.len() > (n - 1) * stride,
        "b holds {} elements, needs {}",
        b.len(),
        (n - 1) * stride + 1
    );
    let mut acc = 0.0f64;
    for (i, &x) in a.iter().enumerate() {
        acc += x as f64 * b[i * stride] as f64;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ulp::ulp_distance_f64;

    fn series_f32(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| ((i * 7 + 3) % 23) as f32 / 23.0 - 0.4)
            .collect()
    }

    #[test]
    fn dot_exact_on_small_integers() {
        // Fully inside the tail path: order matches the scalar twin.
        assert_eq!(dot_f32(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot_f64(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }

    #[test]
    fn dot_truncates_to_common_prefix() {
        assert_eq!(dot_f32(&[1.0, 2.0, 3.0], &[10.0]), 10.0);
        assert_eq!(dot_f32_scalar(&[1.0, 2.0, 3.0], &[10.0]), 10.0);
    }

    #[test]
    fn empty_inputs_reduce_to_identities() {
        assert_eq!(dot_f32(&[], &[]), 0.0);
        assert_eq!(sum_f64(&[]), 0.0);
        assert_eq!(max_f32(&[]), f32::NEG_INFINITY);
        assert_eq!(dot_f32_to_f64_strided(&[], &[], 3), 0.0);
    }

    #[test]
    fn max_matches_scalar_exactly() {
        for n in [0, 1, 7, 8, 9, 64, 97] {
            let a = series_f32(n);
            assert_eq!(max_f32(&a), max_f32_scalar(&a), "n={n}");
        }
    }

    #[test]
    fn max_ignores_nans_like_its_twin() {
        let mut a = series_f32(41);
        a[0] = f32::NAN;
        a[9] = f32::NAN;
        a[40] = f32::NAN;
        let m = max_f32(&a);
        assert!(!m.is_nan());
        assert_eq!(m, max_f32_scalar(&a));
        // All-NaN input degrades to the empty identity, as f32::max does.
        let nans = vec![f32::NAN; 17];
        assert_eq!(max_f32(&nans), f32::NEG_INFINITY);
        assert_eq!(max_f32_scalar(&nans), f32::NEG_INFINITY);
    }

    #[test]
    fn strided_dot_matches_contiguous_at_stride_one() {
        let a = series_f32(37);
        let b = series_f32(37);
        let strided = dot_f32_to_f64_strided(&a, &b, 1);
        let contiguous = dot_f32_to_f64_scalar(&a, &b);
        assert!(ulp_distance_f64(strided, contiguous) < 8);
    }

    #[test]
    #[should_panic(expected = "needs")]
    fn strided_dot_rejects_short_columns() {
        dot_f32_to_f64_strided(&[1.0, 2.0], &[1.0, 2.0], 4);
    }
}
