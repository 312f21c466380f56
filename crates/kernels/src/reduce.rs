//! The f64-widening dot product behind sampled GEMM verification.
//!
//! A naive `acc += x[i] * y[i]` loop serializes on the FP add: every
//! iteration waits the full add latency (~3–4 cycles) before the next can
//! issue, and LLVM may not reassociate strict IEEE arithmetic, so the
//! loop runs at a fraction of the machine's FP throughput. Splitting the
//! reduction across 4 *independent* accumulators breaks that chain, and
//! the adds pipeline.
//!
//! Reordering a float sum changes the rounding, so
//! [`dot_f32_to_f64_strided`] is **ULP-bounded** (not bitwise) against its
//! scalar twin; the combine order is fixed (pairwise over the
//! accumulators, then the scalar tail) so results are deterministic for a
//! given input.

/// f64-widening dot product of f32 inputs as the literal loop (each
/// product computed exactly in f64 — the precision the GEMM verifier
/// needs): the contiguous reference for [`dot_f32_to_f64_strided`].
#[cfg(test)]
fn dot_f32_to_f64_scalar(a: &[f32], b: &[f32]) -> f64 {
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
    fn empty_inputs_reduce_to_identities() {
        assert_eq!(dot_f32_to_f64_strided(&[], &[], 3), 0.0);
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
