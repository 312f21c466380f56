//! GPU STREAM — the MSL port, driven through the Metal-shaped API.
//!
//! §3.1: the paper adopts a CUDA/HIP GPU STREAM, ports Copy/Scale/Add/
//! Triad to MSL and drives them from Objective-C++; twenty repetitions,
//! maximum bandwidth considered (§4). Arrays are FP32 (the M-series GPU
//! has no FP64). Each repetition encodes all four kernels into one command
//! buffer in stream.c order, so array contents evolve exactly like the CPU
//! benchmark's (modulo precision).

use crate::{warmup_factor, KernelResult, StreamRun};
use oranges_metal::kernel::KernelParams;
use oranges_metal::types::MtlSize;
use oranges_metal::{Buffer, Device, MetalError};
use oranges_soc::cache::CacheHierarchy;
use oranges_soc::chip::ChipGeneration;
use oranges_soc::time::SimDuration;
use oranges_umem::bandwidth::StreamKernelKind;
use oranges_umem::StorageMode;

/// Configuration of a GPU STREAM run.
#[derive(Debug, Clone, Copy)]
pub struct GpuStreamConfig {
    /// Array length in f32 elements.
    pub elements: usize,
    /// Repetitions (paper: 20).
    pub reps: u32,
    /// Run the kernels functionally (real arithmetic + validation).
    pub functional: bool,
    /// Warm-up curve amplitude.
    pub noise_amplitude: f64,
    /// Threadgroups per dispatch (the kernels are memory-bound; the grid
    /// just needs to cover the device).
    pub threadgroups: u64,
    /// Threads per threadgroup.
    pub threads_per_threadgroup: u64,
}

impl GpuStreamConfig {
    /// The paper's configuration for a chip: cache-defeating f32 arrays.
    pub fn paper_default(chip: ChipGeneration) -> Self {
        GpuStreamConfig {
            // Same byte volume as the CPU arrays (f32 → twice the elements).
            elements: CacheHierarchy::of(chip.spec()).stream_min_elements() * 2,
            reps: 20,
            functional: false,
            noise_amplitude: 0.05,
            threadgroups: 512,
            threads_per_threadgroup: 256,
        }
    }

    /// A small functional configuration for tests and examples.
    pub fn functional_small() -> Self {
        GpuStreamConfig {
            elements: 200_000,
            reps: 3,
            functional: true,
            noise_amplitude: 0.05,
            threadgroups: 64,
            threads_per_threadgroup: 128,
        }
    }
}

/// The GPU STREAM benchmark for one chip.
pub struct GpuStream {
    device: Device,
    config: GpuStreamConfig,
}

impl GpuStream {
    /// Benchmark with the paper's defaults.
    pub fn new(chip: ChipGeneration) -> Self {
        GpuStream::with_config(chip, GpuStreamConfig::paper_default(chip))
    }

    /// Benchmark with an explicit configuration.
    pub fn with_config(chip: ChipGeneration, config: GpuStreamConfig) -> Self {
        let device = if config.functional {
            Device::system_default(chip).with_functional_limit(u64::MAX)
        } else {
            Device::system_default(chip).with_functional_limit(0)
        };
        GpuStream { device, config }
    }

    /// The device in use.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Run the benchmark: `reps` repetitions of the four-kernel sequence.
    pub fn run(&self) -> Result<StreamRun, MetalError> {
        self.run_keeping_arrays().map(|(run, _)| run)
    }

    /// [`GpuStream::run`], also handing back the `a`, `b`, `c` arrays.
    fn run_keeping_arrays(&self) -> Result<(StreamRun, [Buffer; 3]), MetalError> {
        let n = self.config.elements;
        let lib = self.device.new_default_library();
        let copy = lib.pipeline("stream_copy")?;
        let scale = lib.pipeline("stream_scale")?;
        let add = lib.pipeline("stream_add")?;
        let triad = lib.pipeline("stream_triad")?;

        // stream.c initialization, f32. The fills are recorded, not
        // written: a model-only run never reads the arrays, so their host
        // storage is only built if a functional pass or validation does.
        let buf_a = self.device.new_buffer(n, StorageMode::Shared)?;
        buf_a.fill(1.0)?;
        let buf_b = self.device.new_buffer(n, StorageMode::Shared)?;
        buf_b.fill(2.0)?;
        let buf_c = self.device.new_buffer(n, StorageMode::Shared)?;

        let queue = self.device.new_command_queue();
        let grid = MtlSize::d1(self.config.threadgroups);
        let tpg = MtlSize::d1(self.config.threads_per_threadgroup);
        let params = KernelParams {
            uints: vec![n as u64],
            floats: vec![crate::STREAM_SCALAR as f32],
        };

        // Collect per-kernel durations across reps.
        let mut durations: Vec<Vec<SimDuration>> = vec![Vec::new(); 4];
        for rep in 0..self.config.reps {
            let mut cb = queue.command_buffer();
            {
                let mut enc = cb.compute_command_encoder();
                // Copy: c = a.
                enc.set_compute_pipeline_state(&copy);
                enc.set_buffer(0, &buf_a);
                enc.set_buffer(1, &buf_c);
                enc.set_params(params.clone());
                enc.dispatch_threadgroups(grid, tpg)?;
                // Scale: b = q·c.
                enc.set_compute_pipeline_state(&scale);
                enc.set_buffer(0, &buf_c);
                enc.set_buffer(1, &buf_b);
                enc.set_params(params.clone());
                enc.dispatch_threadgroups(grid, tpg)?;
                // Add: c = a + b.
                enc.set_compute_pipeline_state(&add);
                enc.set_buffer(0, &buf_a);
                enc.set_buffer(1, &buf_b);
                enc.set_buffer(2, &buf_c);
                enc.set_params(params.clone());
                enc.dispatch_threadgroups(grid, tpg)?;
                // Triad: a = b + q·c.
                enc.set_compute_pipeline_state(&triad);
                enc.set_buffer(0, &buf_b);
                enc.set_buffer(1, &buf_c);
                enc.set_buffer(2, &buf_a);
                enc.set_params(params.clone());
                enc.dispatch_threadgroups(grid, tpg)?;
                enc.end_encoding();
            }
            cb.commit()?;
            let reports = cb.wait_until_completed()?;
            let warm = warmup_factor(rep, self.config.reps, self.config.noise_amplitude);
            for (slot, report) in reports.iter().enumerate() {
                // Apply the deterministic warm-up to the modeled duration
                // (earlier reps run slower).
                let t = report.duration.as_secs_f64() / warm;
                durations[slot].push(SimDuration::from_secs_f64(t));
            }
        }

        // Validate functional results against the f32 recurrence.
        let validated = if self.config.functional {
            let expected = expected_f32_after(self.config.reps);
            let a = buf_a.read_to_vec()?;
            let b = buf_b.read_to_vec()?;
            let c = buf_c.read_to_vec()?;
            for (name, arr, want) in [
                ("a", &a, expected.0),
                ("b", &b, expected.1),
                ("c", &c, expected.2),
            ] {
                for (i, &v) in arr.iter().enumerate() {
                    let err = ((v - want) / want).abs();
                    assert!(err < 1e-4, "GPU STREAM {name}[{i}] = {v}, expected {want}");
                }
            }
            true
        } else {
            false
        };

        let kinds = StreamKernelKind::ALL;
        let mut results = Vec::with_capacity(4);
        for (slot, kind) in kinds.iter().enumerate() {
            let times = &durations[slot];
            let bytes = kind.bytes_per_element(4) * n as u64;
            let min_time = times.iter().copied().min().unwrap_or(SimDuration::ZERO);
            let max_time = times.iter().copied().max().unwrap_or(SimDuration::ZERO);
            let avg_time = times.iter().copied().sum::<SimDuration>() / times.len().max(1) as u64;
            // Bandwidth excludes the fixed dispatch overhead only in so far
            // as the model's best rep approaches the calibrated value; the
            // paper likewise reports kernel-loop bandwidth.
            let overhead = SimDuration::from_micros(100);
            let best_busy = min_time.saturating_sub(overhead);
            let best_gbs = if best_busy.is_zero() {
                0.0
            } else {
                bytes as f64 / best_busy.as_secs_f64() / 1e9
            };
            results.push(KernelResult {
                kernel: *kind,
                best_gbs,
                min_time,
                avg_time,
                max_time,
                best_threads: 0,
            });
        }

        let run = StreamRun {
            agent: "GPU",
            elements: n,
            element_bytes: 4,
            reps: self.config.reps,
            results,
            validated,
        };
        Ok((run, [buf_a, buf_b, buf_c]))
    }
}

/// The stream.c recurrence in f32 (the GPU arrays are single precision).
fn expected_f32_after(iterations: u32) -> (f32, f32, f32) {
    let (mut a, mut b, mut c) = (1.0f32, 2.0f32, 0.0f32);
    let q = crate::STREAM_SCALAR as f32;
    for _ in 0..iterations {
        c = a;
        b = q * c;
        c = a + b;
        a = b + q * c;
    }
    (a, b, c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_bandwidth_matches_figure1_anchors() {
        let expected = [
            (ChipGeneration::M1, 60.0),
            (ChipGeneration::M2, 91.0),
            (ChipGeneration::M3, 92.0),
            (ChipGeneration::M4, 100.0),
        ];
        for (chip, gbs) in expected {
            let run = GpuStream::new(chip).run().unwrap();
            assert!(
                (run.best_gbs() - gbs).abs() / gbs < 0.03,
                "{chip}: {} vs {gbs}",
                run.best_gbs()
            );
        }
    }

    #[test]
    fn functional_run_validates_the_recurrence() {
        let (run, arrays) =
            GpuStream::with_config(ChipGeneration::M1, GpuStreamConfig::functional_small())
                .run_keeping_arrays()
                .unwrap();
        assert!(run.validated);
        assert_eq!(run.element_bytes, 4);
        assert!(arrays.iter().all(Buffer::is_materialized));
    }

    #[test]
    fn model_only_run_never_materializes_its_arrays() {
        let (run, arrays) = GpuStream::new(ChipGeneration::M4)
            .run_keeping_arrays()
            .unwrap();
        assert!(!run.validated);
        assert!(arrays.iter().all(|a| a.len() == run.elements));
        assert!(arrays.iter().all(|a| !a.is_materialized()));
    }

    #[test]
    fn twenty_reps_by_default() {
        let run = GpuStream::new(ChipGeneration::M2).run().unwrap();
        assert_eq!(run.reps, 20);
        assert_eq!(run.results.len(), 4);
    }

    #[test]
    fn gpu_needs_no_thread_sweep() {
        let run = GpuStream::new(ChipGeneration::M3).run().unwrap();
        for r in &run.results {
            assert_eq!(r.best_threads, 0);
        }
    }

    #[test]
    fn add_triad_move_more_bytes_and_take_longer() {
        let run = GpuStream::new(ChipGeneration::M4).run().unwrap();
        let copy = run.kernel(StreamKernelKind::Copy).unwrap();
        let add = run.kernel(StreamKernelKind::Add).unwrap();
        assert!(
            add.min_time > copy.min_time,
            "3 arrays beat 2 arrays in time"
        );
    }
}
