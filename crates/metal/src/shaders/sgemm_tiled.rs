//! The tiled "Cutlass-style" SGEMM shader.
//!
//! Equivalent of the paper's second custom shader (Table 2): threadgroup
//! tiles staged through shared memory, k-blocked accumulation. Curiously,
//! the paper *measures it slower than the naive shader* on every chip
//! (0.15 / 0.16 / 0.27 / 0.34 TFLOPS vs. the naive 0.20–0.54) — tile-memory
//! traffic without register-level blocking loses to the TBDR cache
//! hierarchy — and it burns the most power on M4 (Fig. 3). The calibrated
//! efficiency table preserves that inversion; the functional path routes
//! through the same cache-blocked macrokernel as every other backend, so
//! tiled results are now **bitwise identical** to the naive kernel's
//! (both equal the scalar triple loop) — the shaders differ only in their
//! calibrated timing, which is where the paper's inversion lives.

use crate::kernel::{size_ramp, BandInvocation, ComputeKernel, KernelParams, Workload};
use crate::shaders::{gemm_bytes, gemm_flops, sgemm_band};
use oranges_soc::chip::ChipGeneration;
use oranges_soc::time::SimDuration;

/// Peak sustained fraction of the FP32 roofline (paper Fig. 2 anchors).
fn peak_efficiency(chip: ChipGeneration) -> f64 {
    match chip {
        ChipGeneration::M1 => 0.15 / 2.61,
        ChipGeneration::M2 => 0.16 / 3.57,
        ChipGeneration::M3 => 0.27 / 3.53,
        ChipGeneration::M4 => 0.34 / 4.26,
    }
}

const RAMP_N_HALF: f64 = 200.0;
const RAMP_POWER: f64 = 1.4;
/// Tile staging adds launch cost over the naive kernel.
const DISPATCH_OVERHEAD: SimDuration = SimDuration::from_micros(220);

/// Tiled threadgroup-memory SGEMM (`c := a · b`, row-major, square).
#[derive(Debug, Default)]
pub struct SgemmTiled;

impl ComputeKernel for SgemmTiled {
    fn name(&self) -> &'static str {
        "sgemm_tiled"
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
    use crate::shaders::sgemm_naive::SgemmNaive;

    fn run(kernel: &dyn ComputeKernel, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; n * n];
        kernel.execute_band(BandInvocation {
            range: 0..n * n,
            inputs: &[a, b],
            output: &mut out,
            params: &KernelParams::with_n(n as u64),
        });
        out
    }

    #[test]
    fn agrees_with_naive_kernel() {
        for n in [3usize, 16, 33, 64] {
            let a: Vec<f32> = (0..n * n)
                .map(|i| ((i * 31 + 7) % 13) as f32 * 0.125)
                .collect();
            let b: Vec<f32> = (0..n * n)
                .map(|i| ((i * 17 + 3) % 11) as f32 * 0.25)
                .collect();
            let tiled = run(&SgemmTiled, n, &a, &b);
            let naive = run(&SgemmNaive, n, &a, &b);
            // Both route through the blocked macrokernel: bitwise equal.
            assert_eq!(tiled, naive, "n={n}");
        }
    }

    #[test]
    fn efficiency_anchors_match_figure2() {
        for (chip, anchor) in [
            (ChipGeneration::M1, 0.15),
            (ChipGeneration::M2, 0.16),
            (ChipGeneration::M3, 0.27),
            (ChipGeneration::M4, 0.34),
        ] {
            let w = SgemmTiled.workload(chip, &KernelParams::with_n(16384), 0);
            let sustained = chip.spec().gpu_tflops_published * w.compute_efficiency;
            assert!(
                (sustained - anchor).abs() / anchor < 0.02,
                "{chip}: {sustained}"
            );
        }
    }

    #[test]
    fn paper_inversion_tiled_slower_than_naive() {
        // The paper's counter-intuitive result: the "Cutlass-style" shader
        // never beats the naive one on these chips.
        for chip in ChipGeneration::ALL {
            let tiled = SgemmTiled.workload(chip, &KernelParams::with_n(8192), 0);
            let naive = SgemmNaive.workload(chip, &KernelParams::with_n(8192), 0);
            assert!(
                tiled.compute_efficiency < naive.compute_efficiency,
                "{chip}: tiled must stay below naive"
            );
        }
    }

    #[test]
    fn overhead_exceeds_naive() {
        let tiled = SgemmTiled.workload(ChipGeneration::M1, &KernelParams::with_n(256), 0);
        let naive = SgemmNaive.workload(ChipGeneration::M1, &KernelParams::with_n(256), 0);
        assert!(tiled.dispatch_overhead > naive.dispatch_overhead);
    }
}
