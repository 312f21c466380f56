//! CPU-Accelerate: BLAS/vDSP on AMX (Table 2 row "BLAS/vDSP").
//!
//! The paper's Listing 1 call, through our Accelerate-shaped crate. §5.2:
//! "The vDSP and BLAS implementations perform nearly identically, and
//! thus, only vDSP is considered (listed as 'Accelerate') — they assumedly
//! both run on AMX." The AMX call has negligible launch overhead, so the
//! duty cycle is effectively 1.

use crate::error::GemmError;
use crate::suite::Hardware;
use crate::{GemmImplementation, GemmOutcome};
use oranges_accelerate::blas::{Blas, Order, Transpose};
use oranges_accelerate::timing::CALL_OVERHEAD;
use oranges_powermetrics::WorkClass;
use oranges_soc::chip::ChipGeneration;

/// Accelerate-backed CPU GEMM.
#[derive(Debug)]
pub struct CpuAccelerate {
    blas: Blas,
}

impl CpuAccelerate {
    /// Implementation for a chip.
    pub fn new(chip: ChipGeneration) -> Self {
        CpuAccelerate {
            blas: Blas::new(chip),
        }
    }
}

impl GemmImplementation for CpuAccelerate {
    fn name(&self) -> &'static str {
        "CPU-Accelerate"
    }

    fn framework(&self) -> &'static str {
        "Accelerate"
    }

    fn hardware(&self) -> Hardware {
        Hardware::Cpu
    }

    fn work_class(&self) -> WorkClass {
        WorkClass::CpuAccelerate
    }

    fn run(
        &mut self,
        n: usize,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
    ) -> Result<GemmOutcome, GemmError> {
        if n == 0 {
            return Err(GemmError::Dimension("n must be positive".into()));
        }
        // Listing 1: cblas_sgemm(RowMajor, NoTrans, NoTrans, n, n, n,
        //                        1, left, n, right, n, 0, out, n).
        let report = self
            .blas
            .sgemm(
                Order::RowMajor,
                Transpose::NoTrans,
                Transpose::NoTrans,
                n,
                n,
                n,
                1.0,
                a,
                n,
                b,
                n,
                0.0,
                c,
                n,
            )
            .map_err(GemmError::Blas)?;
        let duty = {
            let total = report.duration.as_secs_f64();
            if total <= 0.0 {
                0.0
            } else {
                (report.duration.saturating_sub(CALL_OVERHEAD)).as_secs_f64() / total
            }
        };
        Ok(GemmOutcome {
            duration: report.duration,
            flops: report.flops,
            functional: report.functional,
            duty,
        })
    }

    fn model_run(&mut self, n: usize) -> Result<GemmOutcome, GemmError> {
        if n == 0 {
            return Err(GemmError::Dimension("n must be positive".into()));
        }
        let duration = self.blas.model().sgemm_duration(n as u64);
        let duty = {
            let total = duration.as_secs_f64();
            if total <= 0.0 {
                0.0
            } else {
                (duration.saturating_sub(CALL_OVERHEAD)).as_secs_f64() / total
            }
        };
        Ok(GemmOutcome {
            duration,
            flops: crate::gemm_flops(n as u64),
            functional: false,
            duty,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::reference_gemm;

    #[test]
    fn computes_correct_products() {
        let n = 48;
        let a: Vec<f32> = (0..n * n)
            .map(|i| ((i * 29 + 1) % 17) as f32 * 0.06)
            .collect();
        let b: Vec<f32> = (0..n * n)
            .map(|i| ((i * 23 + 9) % 13) as f32 * 0.08)
            .collect();
        let mut c = vec![0.0f32; n * n];
        let mut expected = vec![0.0f32; n * n];
        CpuAccelerate::new(ChipGeneration::M2)
            .run(n, &a, &b, &mut c)
            .unwrap();
        reference_gemm(n, &a, &b, &mut expected);
        for (idx, (x, y)) in c.iter().zip(&expected).enumerate() {
            assert!(
                (x - y).abs() < 1e-3 * (1.0 + y.abs()),
                "idx={idx}: {x} vs {y}"
            );
        }
    }

    #[test]
    fn peaks_match_figure2_anchors() {
        let expected = [
            (ChipGeneration::M1, 900.0),
            (ChipGeneration::M2, 1090.0),
            (ChipGeneration::M3, 1380.0),
            (ChipGeneration::M4, 1490.0),
        ];
        for (chip, gflops) in expected {
            let g = CpuAccelerate::new(chip).model_run(16384).unwrap().gflops();
            assert!((g - gflops).abs() / gflops < 0.02, "{chip}: {g}");
        }
    }

    #[test]
    fn duty_is_high_for_real_problems() {
        let mut implementation = CpuAccelerate::new(ChipGeneration::M1);
        let outcome = implementation.model_run(1024).unwrap();
        assert!(outcome.duty > 0.99, "{}", outcome.duty);
        assert!(!outcome.functional);
    }

    #[test]
    fn metadata() {
        let implementation = CpuAccelerate::new(ChipGeneration::M3);
        assert_eq!(implementation.name(), "CPU-Accelerate");
        assert_eq!(implementation.framework(), "Accelerate");
        assert_eq!(implementation.hardware(), Hardware::Cpu);
        assert_eq!(implementation.work_class(), WorkClass::CpuAccelerate);
    }
}
