//! CPU-OMP: the multi-threaded tiled CPU GEMM (§3.2).
//!
//! The paper uses an open-source "Block-Matrix-Multiplication-OpenMP"
//! implementation — blocked loops parallelized with OpenMP but not
//! hand-vectorized, which is why Figure 2 shows it only a few times faster
//! than the naive baseline (and why Figure 4 keeps both CPU loops below
//! 1 GFLOPS/W). Functionally we run the cache-blocked macrokernel
//! ([`oranges_kernels::block`]) across all host cores: each worker owns a
//! disjoint row slab and its own pack buffers, with block sizes derived
//! from the simulated chip's per-core cache geometry. Timing comes from
//! the calibrated model.

use crate::error::GemmError;
use crate::gemm_flops;
use crate::{chip_cache_params, GemmImplementation, GemmOutcome, DEFAULT_FUNCTIONAL_LIMIT};
use oranges_accelerate::threading::parallel_row_blocks;
use oranges_kernels::sgemm_f32_blocked;
use oranges_powermetrics::WorkClass;
use oranges_soc::chip::ChipGeneration;
use oranges_soc::time::SimDuration;

/// Sustained full-complex GFLOPS at large n: the naive per-core rate times
/// a parallel-efficiency-weighted core count. The open-source blocked
/// OpenMP code is not hand-vectorized and contends on the shared L2, so
/// parallel efficiency is poor (~0.5 on P-cores, ~0.2 on E-cores) — which
/// is what keeps both plain-CPU loops under 1 GFLOPS/W in Figure 4.
fn peak_gflops(chip: ChipGeneration) -> f64 {
    let spec = chip.spec();
    let single = spec.p_clock_ghz * 0.69;
    let effective_cores = spec.p_cores as f64 * 0.52
        + spec.e_cores as f64 * 0.22 * (spec.e_clock_ghz / spec.p_clock_ghz);
    single * effective_cores
}

/// Thread-spawn overhead visible at small sizes.
fn ramp(n: usize) -> f64 {
    let nf = n as f64;
    1.0 / (1.0 + (110.0 / nf).powf(1.4))
}

/// OpenMP-style blocked multi-threaded CPU GEMM.
#[derive(Debug)]
pub struct CpuOmp {
    chip: ChipGeneration,
    workers: usize,
}

impl CpuOmp {
    /// Implementation for a chip (worker count = physical cores, the best
    /// configuration of the paper's `OMP_NUM_THREADS` sweep).
    pub fn new(chip: ChipGeneration) -> Self {
        CpuOmp {
            chip,
            workers: chip.spec().total_cores() as usize,
        }
    }

    /// Modeled sustained GFLOPS at size `n`.
    pub(crate) fn modeled_gflops(&self, n: usize) -> f64 {
        peak_gflops(self.chip) * ramp(n)
    }
}

impl GemmImplementation for CpuOmp {
    fn name(&self) -> &'static str {
        "CPU-OMP"
    }

    fn work_class(&self) -> WorkClass {
        WorkClass::CpuOmp
    }

    fn run(
        &mut self,
        n: usize,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
    ) -> Result<GemmOutcome, GemmError> {
        if n == 0 || a.len() < n * n || b.len() < n * n || c.len() < n * n {
            return Err(GemmError::Dimension(format!(
                "need n>0 and n² elements (n={n})"
            )));
        }
        let flops = gemm_flops(n as u64);
        let functional = flops <= DEFAULT_FUNCTIONAL_LIMIT;
        if functional {
            // Blocked macrokernel per worker: each thread runs the Goto
            // schedule over its disjoint row slab with private pack
            // buffers, block sizes from the chip's per-core caches.
            let cache = chip_cache_params(self.chip);
            parallel_row_blocks(c, n, n, self.workers, |rows, block| {
                sgemm_f32_blocked(
                    rows.len(),
                    n,
                    n,
                    &a[rows.start * n..],
                    n,
                    b,
                    n,
                    block,
                    n,
                    &cache,
                );
            });
        }
        let duration = SimDuration::from_secs_f64(flops as f64 / (self.modeled_gflops(n) * 1e9));
        Ok(GemmOutcome {
            duration,
            flops,
            functional,
            duty: 1.0,
        })
    }

    fn model_run(&mut self, n: usize) -> Result<GemmOutcome, GemmError> {
        if n == 0 {
            return Err(GemmError::Dimension("n must be positive".into()));
        }
        let flops = gemm_flops(n as u64);
        let duration = SimDuration::from_secs_f64(flops as f64 / (self.modeled_gflops(n) * 1e9));
        Ok(GemmOutcome {
            duration,
            flops,
            functional: false,
            duty: 1.0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::reference_gemm;

    #[test]
    fn computes_products_bitwise_equal_to_reference() {
        // The blocked macrokernel is bitwise-identical to the scalar
        // reference.
        for n in [8usize, 64, 100] {
            let a: Vec<f32> = (0..n * n)
                .map(|i| ((i * 13 + 5) % 11) as f32 * 0.1)
                .collect();
            let b: Vec<f32> = (0..n * n).map(|i| ((i * 7 + 3) % 9) as f32 * 0.2).collect();
            let mut c = vec![0.0f32; n * n];
            let mut expected = vec![0.0f32; n * n];
            CpuOmp::new(ChipGeneration::M1)
                .run(n, &a, &b, &mut c)
                .unwrap();
            reference_gemm(n, &a, &b, &mut expected);
            assert_eq!(c, expected, "n={n}");
        }
    }

    #[test]
    fn sits_between_naive_and_accelerate() {
        use crate::cpu_single::CpuSingle;
        for chip in ChipGeneration::ALL {
            let omp = CpuOmp::new(chip).modeled_gflops(2048);
            let single = CpuSingle::new(chip).modeled_gflops(2048);
            let accelerate =
                oranges_accelerate::timing::AccelerateModel::of(chip).sustained_gflops(2048);
            assert!(omp > 2.0 * single, "{chip}: OMP {omp} vs single {single}");
            assert!(
                omp < accelerate / 10.0,
                "{chip}: OMP {omp} vs Accelerate {accelerate}"
            );
        }
    }

    #[test]
    fn keeps_under_one_gflops_per_watt() {
        // Figure 4: CPU-Single and CPU-OMP both < 1 GFLOPS/W everywhere.
        use oranges_powermetrics::PowerModel;
        for chip in ChipGeneration::ALL {
            let gflops = CpuOmp::new(chip).modeled_gflops(4096);
            let watts = PowerModel::of(chip).active_watts(WorkClass::CpuOmp);
            assert!(gflops / watts < 1.0, "{chip}: {}", gflops / watts);
        }
    }

    #[test]
    fn small_sizes_pay_thread_overhead() {
        let implementation = CpuOmp::new(ChipGeneration::M3);
        assert!(implementation.modeled_gflops(32) < 0.35 * implementation.modeled_gflops(2048));
    }

    #[test]
    fn metadata() {
        let implementation = CpuOmp::new(ChipGeneration::M2);
        assert_eq!(implementation.name(), "CPU-OMP");
        assert_eq!(implementation.work_class(), WorkClass::CpuOmp);
    }
}
