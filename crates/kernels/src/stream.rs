//! STREAM array kernels (f64): the four passes as literal loops and a
//! fused single-sweep full iteration.
//!
//! stream.c's iteration is Copy → Scale → Add → Triad, four passes over
//! three arrays (10 words of memory traffic per element). Every pass is
//! elementwise *on the same index* — `c[i] = a[i]`, `b[i] = q·c[i]`,
//! `c[i] = a[i] + b[i]`, `a[i] = b[i] + q·c[i]` — so the whole iteration
//! can legally fuse into one sweep that reads `a[i]` once and writes
//! `a[i]`, `b[i]`, `c[i]`: 4 words of traffic instead of 10, with
//! **bitwise-identical** results (the same IEEE operations in the same
//! per-element order, and no element ever reads another element's slot).
//!
//! All kernels operate on the common prefix of their slices. The
//! `*_scalar` passes are stream.c's loops as written, and
//! [`fused_iteration_f64_scalar`] runs all four of them: it is the oracle
//! the fused sweep is proved bitwise-equal to.

/// STREAM Copy as the literal loop: `dst[i] = src[i]`.
// It must stay the naive loop it documents.
#[allow(clippy::manual_memcpy)]
pub(crate) fn copy_f64_scalar(src: &[f64], dst: &mut [f64]) {
    let n = src.len().min(dst.len());
    for i in 0..n {
        dst[i] = src[i];
    }
}

/// STREAM Scale as the literal loop: `dst[i] = q * src[i]`.
pub(crate) fn scale_f64_scalar(q: f64, src: &[f64], dst: &mut [f64]) {
    let n = src.len().min(dst.len());
    for i in 0..n {
        dst[i] = q * src[i];
    }
}

/// STREAM Add as the literal loop: `dst[i] = a[i] + b[i]`.
pub(crate) fn add_f64_scalar(a: &[f64], b: &[f64], dst: &mut [f64]) {
    let n = a.len().min(b.len()).min(dst.len());
    for i in 0..n {
        dst[i] = a[i] + b[i];
    }
}

/// STREAM Triad as the literal loop: `dst[i] = b[i] + q * c[i]`.
pub(crate) fn triad_f64_scalar(q: f64, b: &[f64], c: &[f64], dst: &mut [f64]) {
    let n = b.len().min(c.len()).min(dst.len());
    for i in 0..n {
        dst[i] = b[i] + q * c[i];
    }
}

/// One full STREAM iteration — Copy, Scale, Add, Triad — fused into a
/// single memory sweep. Bitwise-identical to running the four passes in
/// sequence (see the module docs for the legality argument).
pub fn fused_iteration_f64(a: &mut [f64], b: &mut [f64], c: &mut [f64], q: f64) {
    let n = a.len().min(b.len()).min(c.len());
    let (a, b, c) = (&mut a[..n], &mut b[..n], &mut c[..n]);
    let mut ac = a.chunks_exact_mut(4);
    let mut bc = b.chunks_exact_mut(4);
    let mut cc = c.chunks_exact_mut(4);
    for ((av, bv), cv) in (&mut ac).zip(&mut bc).zip(&mut cc) {
        for lane in 0..4 {
            let ai = av[lane];
            let copy = ai; // c[i] = a[i]
            let scale = q * copy; // b[i] = q * c[i]
            let add = ai + scale; // c[i] = a[i] + b[i]
            av[lane] = scale + q * add; // a[i] = b[i] + q * c[i]
            bv[lane] = scale;
            cv[lane] = add;
        }
    }
    for ((ai, bi), ci) in ac
        .into_remainder()
        .iter_mut()
        .zip(bc.into_remainder())
        .zip(cc.into_remainder())
    {
        let copy = *ai;
        let scale = q * copy;
        let add = *ai + scale;
        *ai = scale + q * add;
        *bi = scale;
        *ci = add;
    }
}

/// Scalar twin of [`fused_iteration_f64`]: the literal four passes.
pub fn fused_iteration_f64_scalar(a: &mut [f64], b: &mut [f64], c: &mut [f64], q: f64) {
    copy_f64_scalar(a, c);
    scale_f64_scalar(q, c, b);
    add_f64_scalar(a, b, c);
    triad_f64_scalar(q, b, c, a);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(n: usize, seed: u64) -> Vec<f64> {
        (0..n)
            .map(|i| ((i as u64 * 31 + seed * 7 + 5) % 101) as f64 / 101.0 - 0.3)
            .collect()
    }

    #[test]
    fn fused_iteration_equals_four_passes_bitwise() {
        for n in [0usize, 1, 3, 4, 5, 31, 256, 977] {
            let (mut a1, mut b1, mut c1) = (series(n, 1), series(n, 2), series(n, 3));
            let (mut a2, mut b2, mut c2) = (a1.clone(), b1.clone(), c1.clone());
            for _ in 0..3 {
                fused_iteration_f64(&mut a1, &mut b1, &mut c1, 3.0);
                fused_iteration_f64_scalar(&mut a2, &mut b2, &mut c2, 3.0);
            }
            assert_eq!(a1, a2, "a n={n}");
            assert_eq!(b1, b2, "b n={n}");
            assert_eq!(c1, c2, "c n={n}");
        }
    }

    #[test]
    fn stream_recurrence_holds_after_fused_iteration() {
        let mut a = vec![1.0; 100];
        let mut b = vec![2.0; 100];
        let mut c = vec![0.0; 100];
        fused_iteration_f64(&mut a, &mut b, &mut c, 3.0);
        // c = 1; b = 3; c = 1 + 3 = 4; a = 3 + 12 = 15.
        assert!(c.iter().all(|&v| v == 4.0));
        assert!(b.iter().all(|&v| v == 3.0));
        assert!(a.iter().all(|&v| v == 15.0));
    }
}
