//! The naive SGEMM shader — one thread per output element.
//!
//! Equivalent of the paper's "Naive algorithm as shader" (Table 2): each
//! work-item walks a full row of A and column of B with no tiling or
//! threadgroup-memory reuse. On real hardware its throughput is limited by
//! redundant memory traffic; the calibrated efficiency table reflects the
//! paper's measured peaks (0.20 / 0.39 / 0.45 / 0.54 TFLOPS on M1–M4).

use crate::kernel::{size_ramp, BandInvocation, ComputeKernel, KernelParams, Workload};
use crate::shaders::{gemm_bytes, gemm_flops, sgemm_band};
use oranges_soc::chip::ChipGeneration;
use oranges_soc::time::SimDuration;

/// Peak sustained fraction of the FP32 roofline, per generation
/// (paper Fig. 2 anchors ÷ Table 1 theoretical TFLOPS).
fn peak_efficiency(chip: ChipGeneration) -> f64 {
    match chip {
        ChipGeneration::M1 => 0.20 / 2.61,
        ChipGeneration::M2 => 0.39 / 3.57,
        ChipGeneration::M3 => 0.45 / 3.53,
        ChipGeneration::M4 => 0.54 / 4.26,
    }
}

/// Size at which the kernel reaches half its peak efficiency.
const RAMP_N_HALF: f64 = 180.0;
/// Ramp steepness.
const RAMP_POWER: f64 = 1.4;
/// Command-buffer + pipeline overhead per dispatch.
const DISPATCH_OVERHEAD: SimDuration = SimDuration::from_micros(180);

/// Naive one-thread-per-element SGEMM (`c := a · b`, row-major, square).
#[derive(Debug, Default)]
pub struct SgemmNaive;

impl ComputeKernel for SgemmNaive {
    fn name(&self) -> &'static str {
        "sgemm_naive"
    }

    fn validate(
        &self,
        params: &KernelParams,
        input_lens: &[usize],
        output_len: usize,
    ) -> Result<(), String> {
        let n = params.uint(0).ok_or("missing n constant")? as usize;
        if n == 0 {
            return Err("n must be positive".into());
        }
        if input_lens.len() != 2 {
            return Err(format!("expected A and B inputs, got {}", input_lens.len()));
        }
        for (name, len) in [
            ("A", input_lens[0]),
            ("B", input_lens[1]),
            ("C", output_len),
        ] {
            if len < n * n {
                return Err(format!("{name} holds {len} elements, need {}", n * n));
            }
        }
        Ok(())
    }

    fn execute_band(&self, inv: BandInvocation<'_>) {
        // Functional semantics are the per-element ascending-k loop; the
        // shared band helper computes exactly that (bitwise) while running
        // the band's full rows through the cache-blocked macrokernel.
        let n = inv.params.n() as usize;
        sgemm_band(
            n,
            n,
            n,
            inv.inputs[0],
            inv.inputs[1],
            inv.range.start,
            inv.output,
        );
    }

    fn workload(&self, chip: ChipGeneration, params: &KernelParams, _out: usize) -> Workload {
        let n = params.n();
        let (read_bytes, write_bytes) = gemm_bytes(n);
        Workload {
            flops: gemm_flops(n),
            read_bytes,
            write_bytes,
            compute_efficiency: peak_efficiency(chip)
                * size_ramp(n as f64, RAMP_N_HALF, RAMP_POWER),
            dispatch_overhead: DISPATCH_OVERHEAD,
            stream_kernel: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_full(n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; n * n];
        SgemmNaive.execute_band(BandInvocation {
            range: 0..n * n,
            inputs: &[a, b],
            output: &mut out,
            params: &KernelParams::with_n(n as u64),
        });
        out
    }

    #[test]
    fn multiplies_small_matrices() {
        // [1 2; 3 4] × [5 6; 7 8] = [19 22; 43 50]
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let b = vec![5.0, 6.0, 7.0, 8.0];
        assert_eq!(run_full(2, &a, &b), vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn identity_preserves() {
        let n = 8;
        let mut identity = vec![0.0f32; n * n];
        for i in 0..n {
            identity[i * n + i] = 1.0;
        }
        let m: Vec<f32> = (0..n * n).map(|i| i as f32 * 0.25).collect();
        assert_eq!(run_full(n, &identity, &m), m);
    }

    #[test]
    fn band_execution_composes() {
        let n = 6usize;
        let a: Vec<f32> = (0..n * n).map(|i| (i % 7) as f32).collect();
        let b: Vec<f32> = (0..n * n).map(|i| (i % 5) as f32 * 0.5).collect();
        let full = run_full(n, &a, &b);
        // Execute in 4 bands and compare.
        let mut banded = vec![0.0f32; n * n];
        let band_len = (n * n).div_ceil(4);
        for (bi, chunk) in banded.chunks_mut(band_len).enumerate() {
            let start = bi * band_len;
            SgemmNaive.execute_band(BandInvocation {
                range: start..start + chunk.len(),
                inputs: &[&a, &b],
                output: chunk,
                params: &KernelParams::with_n(n as u64),
            });
        }
        assert_eq!(banded, full);
    }

    #[test]
    fn efficiency_anchors_match_figure2() {
        // At n = 16384 the ramp is ≈1, so achieved TFLOPS ≈ anchor.
        for (chip, anchor) in [
            (ChipGeneration::M1, 0.20),
            (ChipGeneration::M2, 0.39),
            (ChipGeneration::M3, 0.45),
            (ChipGeneration::M4, 0.54),
        ] {
            let w = SgemmNaive.workload(chip, &KernelParams::with_n(16384), 0);
            let sustained_tflops = chip.spec().gpu_tflops_published * w.compute_efficiency;
            assert!(
                (sustained_tflops - anchor).abs() / anchor < 0.02,
                "{chip}: {sustained_tflops} vs {anchor}"
            );
        }
    }

    #[test]
    fn small_sizes_are_inefficient() {
        let small = SgemmNaive.workload(ChipGeneration::M2, &KernelParams::with_n(64), 0);
        let large = SgemmNaive.workload(ChipGeneration::M2, &KernelParams::with_n(8192), 0);
        assert!(small.compute_efficiency < 0.35 * large.compute_efficiency);
    }

    #[test]
    fn validation() {
        assert!(SgemmNaive
            .validate(&KernelParams::with_n(4), &[16, 16], 16)
            .is_ok());
        assert!(SgemmNaive
            .validate(&KernelParams::with_n(4), &[15, 16], 16)
            .is_err());
        assert!(SgemmNaive
            .validate(&KernelParams::with_n(4), &[16], 16)
            .is_err());
        assert!(SgemmNaive
            .validate(&KernelParams::with_n(0), &[16, 16], 16)
            .is_err());
    }
}
