//! GPU-Naive and GPU-CUTLASS: the custom Metal shaders (Table 2 rows 4–5).
//!
//! §3.2: the naive and tiled ("Cutlass-style") shaders come from an
//! open-source repository, compiled into a `.metallib` and loaded at
//! startup; "eight horizontal and eight vertical thread groups were used".
//! Here the same two kernels live in the device's standard library and are
//! dispatched with the paper's 8×8 threadgroup grid.

use crate::error::GemmError;
use crate::suite::Hardware;
use crate::{GemmImplementation, GemmOutcome};
use oranges_metal::kernel::KernelParams;
use oranges_metal::library::ComputePipelineState;
use oranges_metal::types::MtlSize;
use oranges_metal::Device;
use oranges_powermetrics::WorkClass;
use oranges_soc::chip::ChipGeneration;
use oranges_umem::StorageMode;

/// Which custom shader to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ShaderKind {
    /// One thread per output element, no tiling.
    Naive,
    /// Threadgroup-memory tiled ("Cutlass-style").
    Tiled,
}

impl ShaderKind {
    fn function_name(&self) -> &'static str {
        match self {
            ShaderKind::Naive => "sgemm_naive",
            ShaderKind::Tiled => "sgemm_tiled",
        }
    }
}

/// A custom-shader GPU GEMM implementation.
pub(crate) struct GpuShader {
    device: Device,
    pipeline: ComputePipelineState,
    kind: ShaderKind,
}

impl GpuShader {
    /// The naive shader on a chip's default device.
    pub fn naive(chip: ChipGeneration) -> Self {
        GpuShader::with_device(Device::system_default(chip), ShaderKind::Naive)
    }

    /// The tiled ("Cutlass-style") shader.
    pub fn tiled(chip: ChipGeneration) -> Self {
        GpuShader::with_device(Device::system_default(chip), ShaderKind::Tiled)
    }

    /// Build over an explicit device (e.g. with a custom functional limit).
    pub(crate) fn with_device(device: Device, kind: ShaderKind) -> Self {
        let pipeline = device
            .new_default_library()
            .pipeline(kind.function_name())
            .expect("standard library always contains the sgemm shaders");
        GpuShader {
            device,
            pipeline,
            kind,
        }
    }
}

impl GemmImplementation for GpuShader {
    fn name(&self) -> &'static str {
        match self.kind {
            ShaderKind::Naive => "GPU-Naive",
            ShaderKind::Tiled => "GPU-CUTLASS",
        }
    }

    fn framework(&self) -> &'static str {
        "Metal"
    }

    fn hardware(&self) -> Hardware {
        Hardware::Gpu
    }

    fn work_class(&self) -> WorkClass {
        match self.kind {
            ShaderKind::Naive => WorkClass::GpuNaive,
            ShaderKind::Tiled => WorkClass::GpuCutlass,
        }
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
        let buf_a = self
            .device
            .new_buffer_with_data(&a[..n * n], StorageMode::Shared)?;
        let buf_b = self
            .device
            .new_buffer_with_data(&b[..n * n], StorageMode::Shared)?;
        let buf_c = self.device.new_buffer(n * n, StorageMode::Shared)?;

        let queue = self.device.new_command_queue();
        let mut cb = queue.command_buffer();
        {
            let mut enc = cb.compute_command_encoder();
            enc.set_compute_pipeline_state(&self.pipeline);
            enc.set_buffer(0, &buf_a);
            enc.set_buffer(1, &buf_b);
            enc.set_buffer(2, &buf_c);
            enc.set_params(KernelParams::with_n(n as u64));
            // The paper's 8×8 threadgroups; 32×32 threads each.
            enc.dispatch_threadgroups(MtlSize::d2(8, 8), MtlSize::d2(32, 32))?;
            enc.end_encoding();
        }
        cb.commit()?;
        let report = &cb.wait_until_completed()?[0];
        if report.functional {
            buf_c.with_read(|out| c[..n * n].copy_from_slice(out))?;
        }
        Ok(GemmOutcome {
            duration: report.duration,
            flops: report.flops,
            functional: report.functional,
            duty: report.duty(),
        })
    }

    fn model_run(&mut self, n: usize) -> Result<GemmOutcome, GemmError> {
        if n == 0 {
            return Err(GemmError::Dimension("n must be positive".into()));
        }
        let params = KernelParams::with_n(n as u64);
        let workload = self
            .pipeline
            .kernel()
            .workload(self.device.chip(), &params, n * n);
        // Same grid as `run`: 8×8 threadgroups of 32×32 threads.
        let breakdown = self.device.timing().price(&workload, 64 * 1024);
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
    fn both_shaders_compute_correct_products() {
        let n = 40;
        let a: Vec<f32> = (0..n * n)
            .map(|i| ((i * 3 + 1) % 19) as f32 * 0.05)
            .collect();
        let b: Vec<f32> = (0..n * n)
            .map(|i| ((i * 11 + 7) % 23) as f32 * 0.04)
            .collect();
        let mut expected = vec![0.0f32; n * n];
        reference_gemm(n, &a, &b, &mut expected);
        for mut implementation in [
            GpuShader::naive(ChipGeneration::M1),
            GpuShader::tiled(ChipGeneration::M1),
        ] {
            let mut c = vec![0.0f32; n * n];
            let outcome = implementation.run(n, &a, &b, &mut c).unwrap();
            assert!(outcome.functional);
            for (idx, (x, y)) in c.iter().zip(&expected).enumerate() {
                assert!(
                    (x - y).abs() < 1e-3 * (1.0 + y.abs()),
                    "{} idx={idx}: {x} vs {y}",
                    implementation.name()
                );
            }
        }
    }

    #[test]
    fn naive_outperforms_tiled_in_the_model() {
        // The paper's inversion, end to end through the dispatch path.
        let n = 2048;
        let a = vec![0.0f32; 1]; // modeled-only run, data unused
        for chip in ChipGeneration::ALL {
            let device = Device::system_default(chip).with_functional_limit(0);
            let mut naive = GpuShader::with_device(device.clone(), ShaderKind::Naive);
            let mut tiled = GpuShader::with_device(device, ShaderKind::Tiled);
            let _ = a;
            let zeros = vec![0.0f32; n * n];
            let mut c = vec![0.0f32; n * n];
            let t_naive = naive.run(n, &zeros, &zeros, &mut c).unwrap();
            let t_tiled = tiled.run(n, &zeros, &zeros, &mut c).unwrap();
            assert!(
                t_naive.gflops() > t_tiled.gflops(),
                "{chip}: naive {} vs tiled {}",
                t_naive.gflops(),
                t_tiled.gflops()
            );
        }
    }

    #[test]
    fn small_sizes_are_overhead_dominated() {
        let device = Device::system_default(ChipGeneration::M4).with_functional_limit(0);
        let mut implementation = GpuShader::with_device(device, ShaderKind::Naive);
        let small = {
            let mut c = vec![0.0f32; 32 * 32];
            implementation
                .run(32, &vec![0.0; 32 * 32], &vec![0.0; 32 * 32], &mut c)
                .unwrap()
        };
        assert!(
            small.duty < 0.1,
            "duty {} should be overhead-dominated",
            small.duty
        );
    }

    #[test]
    fn metadata() {
        let naive = GpuShader::naive(ChipGeneration::M1);
        assert_eq!(naive.name(), "GPU-Naive");
        assert_eq!(naive.work_class(), WorkClass::GpuNaive);
        let tiled = GpuShader::tiled(ChipGeneration::M1);
        assert_eq!(tiled.name(), "GPU-CUTLASS");
        assert_eq!(tiled.work_class(), WorkClass::GpuCutlass);
        assert_eq!(tiled.framework(), "Metal");
        assert_eq!(tiled.hardware(), Hardware::Gpu);
    }
}
