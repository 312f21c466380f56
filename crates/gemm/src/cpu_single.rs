//! CPU-Single: the naive triple-nested-loop baseline (Table 2 row 1).
//!
//! "An implementation of the standard algorithm with a triple nested loop
//! provides a reference baseline" (§3.2). It runs on one performance core,
//! never vectorizes across the k-loop's dependent accumulation, and falls
//! off further once the three matrices spill the P-cluster L2 — which is
//! why the paper skips n ≥ 8192 for it ("due to the long execution time",
//! §4). The timing model prices exactly that loop.
//!
//! Functionally, the product comes from one worker of the cache-blocked
//! macrokernel ([`oranges_kernels::block`]) over the whole output, with
//! the chip's per-core cache geometry — the call CPU-OMP makes per row
//! slab. Every output element still accumulates its k terms in ascending
//! order from zero, so the result is bitwise the triple loop's
//! ([`oranges_kernels::gemm::sgemm_f32_scalar`], the reference twin);
//! only the host time to verify it shrinks.

use crate::error::GemmError;
use crate::gemm_flops;
use crate::{chip_cache_params, GemmImplementation, GemmOutcome, DEFAULT_FUNCTIONAL_LIMIT};
use oranges_kernels::sgemm_f32_blocked;
use oranges_powermetrics::WorkClass;
use oranges_soc::cache::CacheHierarchy;
use oranges_soc::chip::ChipGeneration;
use oranges_soc::time::SimDuration;

/// Sustained single-thread GFLOPS while the working set is cache-resident
/// (scalar FMA chain on one P-core; scales with clock across generations).
fn base_gflops(chip: ChipGeneration) -> f64 {
    // One scalar FMA per ~2.9 cycles on the dependent k-loop.
    chip.spec().p_clock_ghz * 0.69
}

/// Naive single-threaded CPU GEMM.
#[derive(Debug)]
pub struct CpuSingle {
    chip: ChipGeneration,
    hierarchy: CacheHierarchy,
}

impl CpuSingle {
    /// Implementation for a chip.
    pub fn new(chip: ChipGeneration) -> Self {
        CpuSingle {
            chip,
            hierarchy: CacheHierarchy::of(chip.spec()),
        }
    }

    /// Cache-spill degradation: the naive j-inner access pattern re-walks
    /// B column-wise, so DRAM-resident problems lose roughly half their
    /// throughput.
    fn cache_factor(&self, n: usize) -> f64 {
        let working_set = 3 * (n * n * 4) as u64;
        match self.hierarchy.residency(working_set) {
            oranges_soc::cache::Residency::L1 => 1.0,
            oranges_soc::cache::Residency::L2 => 0.95,
            oranges_soc::cache::Residency::Slc => 0.78,
            oranges_soc::cache::Residency::Dram => 0.52,
        }
    }

    /// Modeled sustained GFLOPS at size `n`.
    pub(crate) fn modeled_gflops(&self, n: usize) -> f64 {
        base_gflops(self.chip) * self.cache_factor(n)
    }
}

impl GemmImplementation for CpuSingle {
    fn name(&self) -> &'static str {
        "CPU-Single"
    }

    fn work_class(&self) -> WorkClass {
        WorkClass::CpuSingle
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
                "need n>0 and n² elements (n={n}, a={}, b={}, c={})",
                a.len(),
                b.len(),
                c.len()
            )));
        }
        let flops = gemm_flops(n as u64);
        let functional = flops <= DEFAULT_FUNCTIONAL_LIMIT;
        if functional {
            let cache = chip_cache_params(self.chip);
            sgemm_f32_blocked(n, n, n, a, n, b, n, c, n, &cache);
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
    fn computes_correct_products() {
        let n = 16;
        let a: Vec<f32> = (0..n * n).map(|i| (i % 5) as f32 * 0.5).collect();
        let b: Vec<f32> = (0..n * n).map(|i| (i % 3) as f32 * 0.25).collect();
        let mut c = vec![0.0f32; n * n];
        let mut expected = vec![0.0f32; n * n];
        CpuSingle::new(ChipGeneration::M1)
            .run(n, &a, &b, &mut c)
            .unwrap();
        reference_gemm(n, &a, &b, &mut expected);
        assert_eq!(c, expected);
    }

    #[test]
    fn throughput_is_around_one_gflops() {
        // The defining property of the baseline: orders of magnitude below
        // Accelerate, roughly constant-per-clock across chips.
        for chip in ChipGeneration::ALL {
            let implementation = CpuSingle::new(chip);
            let g = implementation.modeled_gflops(512);
            assert!((1.5..4.0).contains(&g), "{chip}: {g}");
        }
    }

    #[test]
    fn large_problems_degrade() {
        let implementation = CpuSingle::new(ChipGeneration::M2);
        assert!(implementation.modeled_gflops(4096) < 0.6 * implementation.modeled_gflops(256));
    }

    #[test]
    fn cubic_time_growth() {
        let mut implementation = CpuSingle::new(ChipGeneration::M3);
        let run = |imp: &mut CpuSingle, n: usize| imp.model_run(n).unwrap().duration;
        let t256 = run(&mut implementation, 256);
        let t512 = run(&mut implementation, 512);
        let ratio = t512.as_secs_f64() / t256.as_secs_f64();
        assert!(ratio > 7.0 && ratio < 9.5, "{ratio}");
    }

    #[test]
    fn dimension_errors() {
        let mut implementation = CpuSingle::new(ChipGeneration::M1);
        let mut c = vec![0.0f32; 4];
        assert!(implementation.run(0, &[], &[], &mut c).is_err());
        assert!(implementation
            .run(4, &[0.0; 4], &[0.0; 16], &mut c)
            .is_err());
    }

    #[test]
    fn metadata() {
        let implementation = CpuSingle::new(ChipGeneration::M4);
        assert_eq!(implementation.name(), "CPU-Single");
        assert_eq!(implementation.work_class(), WorkClass::CpuSingle);
    }
}
