//! An unrolled f32 `axpy`, which the kernels bench times against its
//! scalar twin.
//!
//! It operates on the common prefix of its slices and is **bitwise**-equal
//! to the twin: elementwise ops are unrolled, never reordered, and never
//! contracted into FMAs.

/// `out[i] += s * x[i]` (one multiply then one add per element;
/// deliberately *not* `mul_add`, which would change rounding).
pub fn axpy_f32(s: f32, x: &[f32], out: &mut [f32]) {
    let n = x.len().min(out.len());
    let (x, out) = (&x[..n], &mut out[..n]);
    let mut xc = x.chunks_exact(8);
    let mut oc = out.chunks_exact_mut(8);
    for (xv, o) in (&mut xc).zip(&mut oc) {
        for lane in 0..8 {
            o[lane] += s * xv[lane];
        }
    }
    for (xv, o) in xc.remainder().iter().zip(oc.into_remainder()) {
        *o += s * xv;
    }
}

/// Scalar twin of [`axpy_f32`].
pub fn axpy_f32_scalar(s: f32, x: &[f32], out: &mut [f32]) {
    let n = x.len().min(out.len());
    for i in 0..n {
        out[i] += s * x[i];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(n: usize, seed: u32) -> Vec<f32> {
        (0..n)
            .map(|i| ((i as u32 * 13 + seed * 5 + 2) % 89) as f32 / 89.0 - 0.4)
            .collect()
    }

    #[test]
    fn elementwise_kernels_match_scalar_twins_bitwise() {
        for n in [0usize, 1, 7, 8, 9, 15, 16, 17, 61] {
            let a = series(n, 1);
            let mut fast_acc = series(n, 3);
            let mut slow_acc = fast_acc.clone();
            axpy_f32(0.6, &a, &mut fast_acc);
            axpy_f32_scalar(0.6, &a, &mut slow_acc);
            assert_eq!(fast_acc, slow_acc, "axpy n={n}");
        }
    }
}
