//! GPU-MPS: Metal Performance Shaders (Table 2 row 6) — Listing 2.
//!
//! The paper's dominant GPU implementation: `MPSMatrixDescriptor` +
//! `MPSMatrix` over shared no-copy buffers, one `MPSMatrixMultiplication`
//! encoded per run, `commit` + `waitUntilCompleted`.

use crate::error::GemmError;
use crate::{GemmImplementation, GemmOutcome};
use oranges_metal::mps::{Matrix as MpsMatrix, MatrixDescriptor, MatrixMultiplication};
use oranges_metal::Device;
use oranges_powermetrics::WorkClass;
use oranges_soc::chip::ChipGeneration;
use oranges_umem::StorageMode;

/// MPS-backed GPU GEMM.
pub struct GpuMps {
    device: Device,
}

impl GpuMps {
    /// Implementation on a chip's default device.
    pub fn new(chip: ChipGeneration) -> Self {
        GpuMps {
            device: Device::system_default(chip),
        }
    }
}

impl GemmImplementation for GpuMps {
    fn name(&self) -> &'static str {
        "GPU-MPS"
    }

    fn work_class(&self) -> WorkClass {
        WorkClass::GpuMps
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
        let desc = MatrixDescriptor::new(n, n, n * 4)?;
        let mat_a = MpsMatrix::new(
            self.device
                .new_buffer_with_data(&a[..n * n], StorageMode::Shared)?,
            desc,
        )?;
        let mat_b = MpsMatrix::new(
            self.device
                .new_buffer_with_data(&b[..n * n], StorageMode::Shared)?,
            desc,
        )?;
        let mat_c = MpsMatrix::new(self.device.new_buffer(n * n, StorageMode::Shared)?, desc)?;

        let multiplication = MatrixMultiplication::new(n, n, n);
        let queue = self.device.new_command_queue();
        let mut cb = queue.command_buffer();
        multiplication.encode(&mut cb, &mat_a, &mat_b, &mat_c)?;
        cb.commit()?;
        let report = &cb.wait_until_completed()?[0];
        if report.functional {
            mat_c
                .buffer()
                .with_read(|out| c[..n * n].copy_from_slice(out))?;
        }
        Ok(GemmOutcome {
            duration: report.duration,
            flops: report.flops,
            functional: report.functional,
            duty: report.duty(),
        })
    }

    fn model_run(&mut self, n: usize) -> Result<GemmOutcome, GemmError> {
        use oranges_metal::kernel::{ComputeKernel, KernelParams};
        use oranges_metal::mps::MpsSgemm;
        if n == 0 {
            return Err(GemmError::Dimension("n must be positive".into()));
        }
        let params = KernelParams {
            uints: vec![n as u64, n as u64, n as u64],
            floats: vec![],
        };
        let kernel = MpsSgemm;
        let workload = kernel.workload(self.device.chip(), &params, n * n);
        // MPS's own grid: ceil(n/32)² threadgroups of 32×32.
        let tgs = (n as u64).div_ceil(32).max(1);
        let breakdown = self.device.timing().price(&workload, tgs * tgs * 1024);
        let duty = {
            let total = breakdown.total.as_secs_f64();
            if total <= 0.0 {
                0.0
            } else {
                (breakdown.total.saturating_sub(breakdown.overhead)).as_secs_f64() / total
            }
        };
        Ok(GemmOutcome {
            duration: breakdown.total,
            flops: workload.flops,
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
        let n = 36;
        let a: Vec<f32> = (0..n * n)
            .map(|i| ((i * 5 + 2) % 29) as f32 * 0.03)
            .collect();
        let b: Vec<f32> = (0..n * n)
            .map(|i| ((i * 17 + 11) % 31) as f32 * 0.02)
            .collect();
        let mut c = vec![0.0f32; n * n];
        let mut expected = vec![0.0f32; n * n];
        GpuMps::new(ChipGeneration::M2)
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
    fn dominates_every_other_implementation_at_large_n() {
        // Figure 2's headline: MPS wins on every chip at large sizes.
        use crate::cpu_accelerate::CpuAccelerate;
        use crate::gpu_shader::GpuShader;
        let n = 4096;
        for chip in ChipGeneration::ALL {
            let g_mps = GpuMps::new(chip).model_run(n).unwrap().gflops();
            let g_acc = CpuAccelerate::new(chip).model_run(n).unwrap().gflops();
            let g_naive = GpuShader::naive(chip).model_run(n).unwrap().gflops();
            assert!(g_mps > g_acc, "{chip}: MPS {g_mps} vs Accelerate {g_acc}");
            assert!(
                g_mps > g_naive,
                "{chip}: MPS {g_mps} vs GPU-Naive {g_naive}"
            );
        }
    }

    #[test]
    fn m1_cpu_and_gpu_are_close_but_later_chips_diverge() {
        // §1: "the M1 CPU and GPU have similar performance … starting from
        // the M2, the GPU significantly outperforms the CPU".
        use crate::cpu_accelerate::CpuAccelerate;
        let n = 8192;
        let run_pair = |chip| {
            let g = GpuMps::new(chip).model_run(n).unwrap().gflops();
            let a = CpuAccelerate::new(chip).model_run(n).unwrap().gflops();
            (g, a)
        };
        let (m1_gpu, m1_cpu) = run_pair(ChipGeneration::M1);
        assert!(
            m1_gpu / m1_cpu < 1.8,
            "M1 GPU/CPU ratio {}",
            m1_gpu / m1_cpu
        );
        let (m4_gpu, m4_cpu) = run_pair(ChipGeneration::M4);
        assert!(
            m4_gpu / m4_cpu > 1.8,
            "M4 GPU/CPU ratio {}",
            m4_gpu / m4_cpu
        );
    }

    #[test]
    fn metadata() {
        let implementation = GpuMps::new(ChipGeneration::M4);
        assert_eq!(implementation.name(), "GPU-MPS");
        assert_eq!(implementation.work_class(), WorkClass::GpuMps);
    }
}
