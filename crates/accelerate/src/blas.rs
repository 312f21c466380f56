//! `cblas_sgemm` — the call the paper's Listing 1 makes.
//!
//! ```c
//! cblas_sgemm(CblasRowMajor, CblasNoTrans, CblasNoTrans,
//!             n, n, n, 1, left, n, right, n, 0, out, n);
//! ```
//!
//! The Rust-shaped equivalent keeps the full argument surface (order,
//! transposes, alpha/beta, leading dimensions), computes real FP32 results
//! on host threads (blocked over the performance-core count), and reports
//! modeled time from [`AccelerateModel`].

use crate::threading::parallel_row_blocks;
use crate::timing::AccelerateModel;
use oranges_kernels::{sgemm_f32_blocked, CacheParams};
use oranges_soc::chip::ChipGeneration;
use oranges_soc::time::SimDuration;
use serde::Serialize;

/// Matrix storage order (only row-major, like the paper's call).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Order {
    /// `CblasRowMajor`.
    RowMajor,
}

/// Transposition flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Transpose {
    /// `CblasNoTrans`.
    NoTrans,
    /// `CblasTrans`.
    Trans,
}

/// Outcome of one BLAS call.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct BlasReport {
    /// Modeled duration on the AMX unit.
    pub duration: SimDuration,
    /// FLOPs of the call (`m·n·(2k−1)` plus beta/alpha fix-ups).
    pub flops: u64,
    /// Whether real arithmetic ran (below the functional limit).
    pub functional: bool,
}

impl BlasReport {
    /// Achieved GFLOPS over the modeled duration.
    pub fn gflops(&self) -> f64 {
        let secs = self.duration.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.flops as f64 / secs / 1e9
        }
    }
}

/// Default functional ceiling: matches the Metal device's
/// (`oranges_metal::device::DEFAULT_FUNCTIONAL_LIMIT`).
pub const DEFAULT_FUNCTIONAL_LIMIT: u64 = 600_000_000;

/// The BLAS entry points for one chip.
#[derive(Debug, Clone)]
pub struct Blas {
    model: AccelerateModel,
    workers: usize,
    functional_limit: u64,
    cache: CacheParams,
}

impl Blas {
    /// BLAS bound to a chip generation; functional work is parallelized
    /// over as many host threads as the chip has performance cores (at
    /// most the host's parallelism), with cache-blocking geometry from the
    /// chip's per-core L1/L2.
    pub fn new(chip: ChipGeneration) -> Self {
        let spec = chip.spec();
        Blas {
            model: AccelerateModel::of(chip),
            workers: spec.p_cores as usize,
            functional_limit: DEFAULT_FUNCTIONAL_LIMIT,
            cache: CacheParams::new(
                spec.l1_p_kib as usize * 1024,
                spec.l2_p_mib as usize * 1024 * 1024,
            ),
        }
    }

    /// Override the functional ceiling (0 = model-only, `u64::MAX` = always
    /// compute).
    pub fn with_functional_limit(mut self, limit: u64) -> Self {
        self.functional_limit = limit;
        self
    }

    /// The timing model.
    pub fn model(&self) -> &AccelerateModel {
        &self.model
    }

    /// `cblas_sgemm`: `C := alpha·op(A)·op(B) + beta·C`.
    ///
    /// Row-major. `op(A)` is `m×k`, `op(B)` is `k×n`, `C` is `m×n`.
    #[allow(clippy::too_many_arguments)]
    pub fn sgemm(
        &self,
        _order: Order,
        trans_a: Transpose,
        trans_b: Transpose,
        m: usize,
        n: usize,
        k: usize,
        alpha: f32,
        a: &[f32],
        lda: usize,
        b: &[f32],
        ldb: usize,
        beta: f32,
        c: &mut [f32],
        ldc: usize,
    ) -> Result<BlasReport, String> {
        // Dimension validation (CBLAS would abort; we return Err).
        let (a_rows, a_cols) = match trans_a {
            Transpose::NoTrans => (m, k),
            Transpose::Trans => (k, m),
        };
        let (b_rows, b_cols) = match trans_b {
            Transpose::NoTrans => (k, n),
            Transpose::Trans => (n, k),
        };
        if lda < a_cols.max(1) {
            return Err(format!("lda {lda} < op-source columns {a_cols}"));
        }
        if ldb < b_cols.max(1) {
            return Err(format!("ldb {ldb} < op-source columns {b_cols}"));
        }
        if ldc < n.max(1) {
            return Err(format!("ldc {ldc} < n {n}"));
        }
        let need_a = a_rows.saturating_sub(1) * lda + a_cols;
        let need_b = b_rows.saturating_sub(1) * ldb + b_cols;
        let need_c = m.saturating_sub(1) * ldc + n;
        if a.len() < need_a {
            return Err(format!("A holds {} elements, needs {need_a}", a.len()));
        }
        if b.len() < need_b {
            return Err(format!("B holds {} elements, needs {need_b}", b.len()));
        }
        if c.len() < need_c {
            return Err(format!("C holds {} elements, needs {need_c}", c.len()));
        }

        let flops = (m as u64) * (n as u64) * (2 * k as u64).max(1).saturating_sub(1).max(1);
        let functional = flops <= self.functional_limit;
        if functional && m > 0 && n > 0 {
            self.compute(
                trans_a, trans_b, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc,
            );
        }

        Ok(BlasReport {
            duration: self.model.gemm_duration(m as u64, n as u64, k as u64),
            flops: if k == 0 { 0 } else { flops },
            functional,
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn compute(
        &self,
        trans_a: Transpose,
        trans_b: Transpose,
        m: usize,
        n: usize,
        k: usize,
        alpha: f32,
        a: &[f32],
        lda: usize,
        b: &[f32],
        ldb: usize,
        beta: f32,
        c: &mut [f32],
        ldc: usize,
    ) {
        // The paper's Listing 1 shape — no transposes, alpha 1, beta 0,
        // packed C — routes through the cache-blocked macrokernel, one
        // row slab and private pack buffers per worker. Bitwise-identical
        // to the scalar triple loop.
        if trans_a == Transpose::NoTrans
            && trans_b == Transpose::NoTrans
            && alpha == 1.0
            && beta == 0.0
            && ldc == n
            && n > 0
        {
            parallel_row_blocks(c, m, n, self.workers, |rows, block| {
                sgemm_f32_blocked(
                    rows.len(),
                    n,
                    k,
                    &a[rows.start * lda..],
                    lda,
                    b,
                    ldb,
                    block,
                    n,
                    &self.cache,
                );
            });
            return;
        }
        // General fast path when C rows are packed; strided C falls back
        // to the single-threaded loop (parallel_row_blocks needs
        // contiguity).
        if ldc == n && n > 0 {
            parallel_row_blocks(c, m, n, self.workers, |rows, block| {
                for (local_i, i) in rows.clone().enumerate() {
                    let row = &mut block[local_i * n..(local_i + 1) * n];
                    for v in row.iter_mut() {
                        *v *= beta;
                    }
                    for l in 0..k {
                        let a_il = match trans_a {
                            Transpose::NoTrans => a[i * lda + l],
                            Transpose::Trans => a[l * lda + i],
                        } * alpha;
                        if a_il == 0.0 {
                            continue;
                        }
                        match trans_b {
                            Transpose::NoTrans => {
                                let b_row = &b[l * ldb..l * ldb + n];
                                for (v, &bv) in row.iter_mut().zip(b_row) {
                                    *v += a_il * bv;
                                }
                            }
                            Transpose::Trans => {
                                for (j, v) in row.iter_mut().enumerate() {
                                    *v += a_il * b[j * ldb + l];
                                }
                            }
                        }
                    }
                }
            });
        } else {
            for i in 0..m {
                for j in 0..n {
                    let mut acc = 0.0f32;
                    for l in 0..k {
                        let a_il = match trans_a {
                            Transpose::NoTrans => a[i * lda + l],
                            Transpose::Trans => a[l * lda + i],
                        };
                        let b_lj = match trans_b {
                            Transpose::NoTrans => b[l * ldb + j],
                            Transpose::Trans => b[j * ldb + l],
                        };
                        acc += a_il * b_lj;
                    }
                    c[i * ldc + j] = alpha * acc + beta * c[i * ldc + j];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(clippy::too_many_arguments)] // mirrors the cblas_sgemm signature
    fn reference(
        trans_a: Transpose,
        trans_b: Transpose,
        m: usize,
        n: usize,
        k: usize,
        alpha: f32,
        a: &[f32],
        lda: usize,
        b: &[f32],
        ldb: usize,
        beta: f32,
        c0: &[f32],
        ldc: usize,
    ) -> Vec<f32> {
        let mut c = c0.to_vec();
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for l in 0..k {
                    let a_il = match trans_a {
                        Transpose::NoTrans => a[i * lda + l],
                        Transpose::Trans => a[l * lda + i],
                    };
                    let b_lj = match trans_b {
                        Transpose::NoTrans => b[l * ldb + j],
                        Transpose::Trans => b[j * ldb + l],
                    };
                    acc += a_il * b_lj;
                }
                c[i * ldc + j] = alpha * acc + beta * c0[i * ldc + j];
            }
        }
        c
    }

    fn det_matrix(len: usize, seed: u32) -> Vec<f32> {
        let mut state = seed.wrapping_mul(747796405).wrapping_add(2891336453);
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                ((state >> 9) as f32 / (1u32 << 23) as f32) - 1.0
            })
            .collect()
    }

    fn assert_close(actual: &[f32], expected: &[f32], scale: usize) {
        let tol = 1e-4 * scale as f32 + 1e-5;
        for (i, (x, y)) in actual.iter().zip(expected).enumerate() {
            assert!((x - y).abs() <= tol, "idx {i}: {x} vs {y}");
        }
    }

    #[test]
    fn listing1_call_shape() {
        // The paper's exact call: square, no transposes, alpha 1, beta 0.
        let n = 32;
        let a = det_matrix(n * n, 1);
        let b = det_matrix(n * n, 2);
        let mut c = vec![0.0f32; n * n];
        let blas = Blas::new(ChipGeneration::M1);
        let report = blas
            .sgemm(
                Order::RowMajor,
                Transpose::NoTrans,
                Transpose::NoTrans,
                n,
                n,
                n,
                1.0,
                &a,
                n,
                &b,
                n,
                0.0,
                &mut c,
                n,
            )
            .unwrap();
        let expected = reference(
            Transpose::NoTrans,
            Transpose::NoTrans,
            n,
            n,
            n,
            1.0,
            &a,
            n,
            &b,
            n,
            0.0,
            &vec![0.0; n * n],
            n,
        );
        assert_close(&c, &expected, n);
        assert!(report.functional);
        assert_eq!(report.flops, (n as u64).pow(2) * (2 * n as u64 - 1));
        assert!(report.duration.as_nanos() > 0);
    }

    #[test]
    fn transposes_and_scalars() {
        let (m, n, k) = (7, 5, 9);
        let a = det_matrix(k * m, 3); // stored k×m for Trans
        let b = det_matrix(n * k, 4); // stored n×k for Trans
        let c0 = det_matrix(m * n, 5);
        let mut c = c0.clone();
        let blas = Blas::new(ChipGeneration::M2);
        blas.sgemm(
            Order::RowMajor,
            Transpose::Trans,
            Transpose::Trans,
            m,
            n,
            k,
            0.5,
            &a,
            m,
            &b,
            k,
            2.0,
            &mut c,
            n,
        )
        .unwrap();
        let expected = reference(
            Transpose::Trans,
            Transpose::Trans,
            m,
            n,
            k,
            0.5,
            &a,
            m,
            &b,
            k,
            2.0,
            &c0,
            n,
        );
        assert_close(&c, &expected, k);
    }

    #[test]
    fn strided_c_falls_back_correctly() {
        let (m, n, k) = (4, 3, 4);
        let ldc = 8; // strided output
        let a = det_matrix(m * k, 6);
        let b = det_matrix(k * n, 7);
        let c0 = vec![1.0f32; m * ldc];
        let mut c = c0.clone();
        let blas = Blas::new(ChipGeneration::M3);
        blas.sgemm(
            Order::RowMajor,
            Transpose::NoTrans,
            Transpose::NoTrans,
            m,
            n,
            k,
            1.0,
            &a,
            k,
            &b,
            n,
            0.0,
            &mut c,
            ldc,
        )
        .unwrap();
        let expected = reference(
            Transpose::NoTrans,
            Transpose::NoTrans,
            m,
            n,
            k,
            1.0,
            &a,
            k,
            &b,
            n,
            0.0,
            &c0,
            ldc,
        );
        // Checked positions: the m×n window; padding untouched.
        for i in 0..m {
            for j in 0..n {
                let idx = i * ldc + j;
                assert!((c[idx] - expected[idx]).abs() < 1e-3);
            }
            for j in n..ldc {
                assert_eq!(c[i * ldc + j], 1.0, "padding must be untouched");
            }
        }
    }

    #[test]
    fn dimension_validation() {
        let blas = Blas::new(ChipGeneration::M1);
        let a = vec![0.0f32; 8];
        let b = vec![0.0f32; 8];
        let mut c = vec![0.0f32; 8];
        // lda too small.
        assert!(blas
            .sgemm(
                Order::RowMajor,
                Transpose::NoTrans,
                Transpose::NoTrans,
                2,
                2,
                4,
                1.0,
                &a,
                2,
                &b,
                2,
                0.0,
                &mut c,
                2
            )
            .is_err());
        // A too short.
        assert!(blas
            .sgemm(
                Order::RowMajor,
                Transpose::NoTrans,
                Transpose::NoTrans,
                4,
                2,
                4,
                1.0,
                &a,
                4,
                &b,
                2,
                0.0,
                &mut c,
                2
            )
            .is_err());
    }

    #[test]
    fn model_only_above_limit() {
        let blas = Blas::new(ChipGeneration::M4).with_functional_limit(0);
        let n = 8;
        let a = det_matrix(n * n, 8);
        let b = det_matrix(n * n, 9);
        let mut c = vec![0.0f32; n * n];
        let report = blas
            .sgemm(
                Order::RowMajor,
                Transpose::NoTrans,
                Transpose::NoTrans,
                n,
                n,
                n,
                1.0,
                &a,
                n,
                &b,
                n,
                0.0,
                &mut c,
                n,
            )
            .unwrap();
        assert!(!report.functional);
        assert!(c.iter().all(|&v| v == 0.0), "no functional write");
        assert!(report.duration.as_nanos() > 0, "still timed");
        assert!(report.gflops() > 0.0);
    }

    #[test]
    fn faster_chips_report_shorter_durations() {
        let n = 512;
        let mut last = SimDuration::from_secs_f64(f64::MAX);
        for chip in ChipGeneration::ALL {
            let blas = Blas::new(chip).with_functional_limit(0);
            let mut c = vec![0.0f32; 1];
            let report = blas
                .sgemm(
                    Order::RowMajor,
                    Transpose::NoTrans,
                    Transpose::NoTrans,
                    n,
                    n,
                    n,
                    1.0,
                    &vec![0.0; n * n],
                    n,
                    &vec![0.0; n * n],
                    n,
                    0.0,
                    &mut vec![0.0; n * n],
                    n,
                )
                .unwrap();
            let _ = &mut c;
            assert!(report.duration < last, "{chip} not faster");
            last = report.duration;
        }
    }
}
