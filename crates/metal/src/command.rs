//! Command queues, command buffers and compute encoders.
//!
//! Mirrors the Metal flow the paper uses (Listing 2):
//!
//! ```text
//! queue = device.newCommandQueue()
//! cb    = queue.commandBuffer()
//! enc   = cb.computeCommandEncoder()
//! enc.setComputePipelineState(...); enc.setBuffer(...); enc.dispatchThreadgroups(...)
//! enc.endEncoding(); cb.commit(); cb.waitUntilCompleted()
//! ```
//!
//! `commit` executes each encoded pass: functionally (real FP32 results)
//! when the work volume is under the device's functional limit, and
//! always through the timing model. Functional execution splits the
//! output into contiguous bands, the caller's own core plus at most one
//! band per spare core ([`oranges_kernels::core_budget`]) and at most one
//! per threadgroup, and runs them on crossbeam scoped threads, the
//! calling thread taking the first. `wait_until_completed` then exposes
//! per-pass [`PassReport`]s — the numbers every benchmark in the paper
//! reads.

use crate::buffer::Buffer;
use crate::device::Device;
use crate::error::MetalError;
use crate::kernel::{BandInvocation, ComputeKernel, KernelParams};
use crate::library::ComputePipelineState;
use crate::types::MtlSize;
use oranges_soc::time::SimDuration;
use std::sync::Arc;

/// One encoded compute dispatch.
struct ComputePass {
    kernel: Arc<dyn ComputeKernel>,
    buffers: Vec<Option<Buffer>>,
    params: KernelParams,
    threadgroups: MtlSize,
    threads_per_threadgroup: MtlSize,
}

/// Execution record of one dispatch.
#[derive(Debug, Clone)]
pub struct PassReport {
    /// Kernel function name.
    pub kernel: String,
    /// Modeled duration (including dispatch overhead).
    pub duration: SimDuration,
    /// Fixed dispatch overhead contained in `duration` (the engine idles
    /// through it — power accounting uses this to derive the duty cycle).
    pub overhead: SimDuration,
    /// FP32 FLOPs retired.
    pub flops: u64,
    /// DRAM bytes read.
    pub read_bytes: u64,
    /// DRAM bytes written.
    pub write_bytes: u64,
    /// Whether the pass also executed functionally (real arithmetic).
    pub functional: bool,
    /// Whether the memory roofline bound the dispatch.
    pub memory_bound: bool,
    /// Sustained fraction of the FP32 roofline.
    pub compute_utilization: f64,
    /// Sustained fraction of theoretical DRAM bandwidth.
    pub memory_utilization: f64,
}

impl PassReport {
    /// Busy fraction of the pass: (duration − overhead) / duration.
    pub fn duty(&self) -> f64 {
        let total = self.duration.as_secs_f64();
        if total <= 0.0 {
            return 0.0;
        }
        (self.duration.saturating_sub(self.overhead)).as_secs_f64() / total
    }

    /// Achieved GFLOPS over the modeled duration.
    pub fn achieved_gflops(&self) -> f64 {
        let secs = self.duration.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.flops as f64 / secs / 1e9
        }
    }

    /// Achieved GB/s over the modeled duration.
    pub fn achieved_gbs(&self) -> f64 {
        let secs = self.duration.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            (self.read_bytes + self.write_bytes) as f64 / secs / 1e9
        }
    }
}

/// Command-buffer lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Recording,
    Committed,
}

/// `MTLCommandQueue`.
#[derive(Clone)]
pub struct CommandQueue {
    device: Device,
}

impl CommandQueue {
    pub(crate) fn new(device: Device) -> Self {
        CommandQueue { device }
    }

    /// The owning device.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// `commandBuffer` — a fresh recording buffer.
    pub fn command_buffer(&self) -> CommandBuffer {
        CommandBuffer {
            device: self.device.clone(),
            passes: Vec::new(),
            state: State::Recording,
            reports: Vec::new(),
        }
    }
}

/// `MTLCommandBuffer`.
pub struct CommandBuffer {
    device: Device,
    passes: Vec<ComputePass>,
    state: State,
    reports: Vec<PassReport>,
}

impl CommandBuffer {
    /// `computeCommandEncoder`.
    pub fn compute_command_encoder(&mut self) -> ComputeCommandEncoder<'_> {
        ComputeCommandEncoder {
            command_buffer: self,
            pipeline: None,
            buffers: Vec::new(),
            params: KernelParams::default(),
        }
    }

    /// `commit` — execute every encoded pass.
    pub fn commit(&mut self) -> Result<(), MetalError> {
        if self.state == State::Committed {
            return Err(MetalError::InvalidState("commit called twice"));
        }
        self.state = State::Committed;
        let passes = std::mem::take(&mut self.passes);
        for pass in &passes {
            let report = execute_pass(&self.device, pass)?;
            self.reports.push(report);
        }
        Ok(())
    }

    /// `waitUntilCompleted` — in the simulator, commit is synchronous, so
    /// this just validates state and returns the reports.
    pub fn wait_until_completed(&self) -> Result<&[PassReport], MetalError> {
        if self.state != State::Committed {
            return Err(MetalError::InvalidState("waitUntilCompleted before commit"));
        }
        Ok(&self.reports)
    }

    /// Total modeled GPU time across all passes (`GPUEndTime − GPUStartTime`).
    pub fn gpu_duration(&self) -> SimDuration {
        self.reports.iter().map(|r| r.duration).sum()
    }

    /// Per-pass reports (empty before commit).
    pub fn reports(&self) -> &[PassReport] {
        &self.reports
    }
}

/// `MTLComputeCommandEncoder`.
pub struct ComputeCommandEncoder<'a> {
    command_buffer: &'a mut CommandBuffer,
    pipeline: Option<ComputePipelineState>,
    buffers: Vec<Option<Buffer>>,
    params: KernelParams,
}

impl ComputeCommandEncoder<'_> {
    /// `setComputePipelineState:`.
    pub fn set_compute_pipeline_state(&mut self, pipeline: &ComputePipelineState) {
        self.pipeline = Some(pipeline.clone());
    }

    /// `setBuffer:offset:atIndex:`.
    pub fn set_buffer(&mut self, index: usize, buffer: &Buffer) {
        if self.buffers.len() <= index {
            self.buffers.resize(index + 1, None);
        }
        self.buffers[index] = Some(buffer.clone());
    }

    /// `setBytes:` — kernel constants.
    pub fn set_params(&mut self, params: KernelParams) {
        self.params = params;
    }

    /// `dispatchThreadgroups:threadsPerThreadgroup:` — snapshot the current
    /// pipeline/bindings/params as one pass.
    pub fn dispatch_threadgroups(
        &mut self,
        threadgroups: MtlSize,
        threads_per_threadgroup: MtlSize,
    ) -> Result<(), MetalError> {
        let pipeline = self
            .pipeline
            .as_ref()
            .ok_or(MetalError::IncompletePass("no compute pipeline state set"))?;
        if threadgroups.is_empty() || threads_per_threadgroup.is_empty() {
            return Err(MetalError::BadDispatch("zero-sized grid".into()));
        }
        let max_tg = self.command_buffer.device.gpu().max_threads_per_threadgroup as u64;
        if threads_per_threadgroup.count() > max_tg {
            return Err(MetalError::BadDispatch(format!(
                "threads per threadgroup {} exceeds device limit {max_tg}",
                threads_per_threadgroup.count()
            )));
        }
        self.command_buffer.passes.push(ComputePass {
            kernel: pipeline.kernel_arc(),
            buffers: self.buffers.clone(),
            params: self.params.clone(),
            threadgroups,
            threads_per_threadgroup,
        });
        Ok(())
    }

    /// `endEncoding` (drops the encoder).
    pub fn end_encoding(self) {}
}

fn execute_pass(device: &Device, pass: &ComputePass) -> Result<PassReport, MetalError> {
    // Resolve bindings: indices 0..k-1 inputs, index k output (convention
    // documented on `ComputeKernel`).
    let bound: Vec<&Buffer> = pass
        .buffers
        .iter()
        .enumerate()
        .map(|(i, b)| b.as_ref().ok_or(MetalError::MissingBinding(i)))
        .collect::<Result<_, _>>()?;
    if bound.is_empty() {
        return Err(MetalError::IncompletePass("no buffers bound"));
    }
    let (inputs, output) = bound.split_at(bound.len() - 1);
    let output = output[0];
    for (i, input) in inputs.iter().enumerate() {
        if input.aliases(output) {
            return Err(MetalError::BadDispatch(format!(
                "output buffer aliases input binding {i}"
            )));
        }
    }

    // Validate against the kernel's contract.
    let input_lens: Vec<usize> = inputs.iter().map(|b| b.len()).collect();
    let output_len = output.len();
    pass.kernel
        .validate(&pass.params, &input_lens, output_len)
        .map_err(MetalError::BadDispatch)?;

    // Price the dispatch.
    let workload = pass
        .kernel
        .workload(device.chip(), &pass.params, output_len);
    let total_threads = pass.threadgroups.count() * pass.threads_per_threadgroup.count();
    let breakdown = device.timing().price(&workload, total_threads);

    // Functional execution when under the ceiling.
    let volume = workload.flops.max(workload.total_bytes());
    let functional = volume <= device.functional_limit();
    if functional {
        run_functional(pass, inputs, output)?;
    }

    Ok(PassReport {
        kernel: pass.kernel.name().to_string(),
        duration: breakdown.total,
        overhead: breakdown.overhead,
        flops: workload.flops,
        read_bytes: workload.read_bytes,
        write_bytes: workload.write_bytes,
        functional,
        memory_bound: breakdown.memory_bound,
        compute_utilization: breakdown.compute_utilization,
        memory_utilization: breakdown.memory_utilization,
    })
}

fn run_functional(
    pass: &ComputePass,
    inputs: &[&Buffer],
    output: &Buffer,
) -> Result<(), MetalError> {
    let input_guards: Vec<_> = inputs.iter().map(|b| b.device_read()).collect();
    let input_slices: Vec<&[f32]> = input_guards
        .iter()
        .map(|g| {
            let len = g.len();
            &g.device_slice()[..len]
        })
        .collect();

    let mut out_guard = output.device_write();
    let out_len = out_guard.len();
    let out_slice = &mut out_guard.device_mut_slice()[..out_len];

    // One contiguous band per core the budget leaves this caller (never
    // more bands than threadgroups or output elements): an SGEMM band
    // then packs B once for all of its rows.
    let band_count = oranges_kernels::core_budget()
        .threads()
        .min(pass.threadgroups.count() as usize)
        .min(out_len)
        .max(1);
    let band_len = out_len.div_ceil(band_count).max(1);
    let kernel: &dyn ComputeKernel = pass.kernel.as_ref();
    let params = &pass.params;
    let input_slices = &input_slices;
    let run_band = move |band_index: usize, output: &mut [f32]| {
        let start = band_index * band_len;
        kernel.execute_band(BandInvocation {
            range: start..start + output.len(),
            inputs: input_slices,
            output,
            params,
        });
    };

    // The calling thread runs the first band itself.
    let mut bands = out_slice.chunks_mut(band_len).enumerate();
    let first = bands.next();
    crossbeam::thread::scope(|scope| {
        for (band_index, chunk) in bands {
            scope.spawn(move |_| run_band(band_index, chunk));
        }
        if let Some((band_index, chunk)) = first {
            run_band(band_index, chunk);
        }
    })
    .expect("functional shader execution panicked");

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use oranges_soc::chip::ChipGeneration;
    use oranges_umem::StorageMode;

    fn device() -> Device {
        Device::with_memory(ChipGeneration::M1, 1)
    }

    #[test]
    fn lifecycle_errors() {
        let dev = device();
        let queue = dev.new_command_queue();
        let mut cb = queue.command_buffer();
        assert!(matches!(
            cb.wait_until_completed(),
            Err(MetalError::InvalidState("waitUntilCompleted before commit"))
        ));
        cb.commit().unwrap();
        assert!(cb.wait_until_completed().is_ok());
        assert!(matches!(
            cb.commit(),
            Err(MetalError::InvalidState("commit called twice"))
        ));
    }

    #[test]
    fn dispatch_without_pipeline_fails() {
        let dev = device();
        let queue = dev.new_command_queue();
        let mut cb = queue.command_buffer();
        let mut enc = cb.compute_command_encoder();
        let err = enc
            .dispatch_threadgroups(MtlSize::d2(8, 8), MtlSize::d2(8, 8))
            .unwrap_err();
        assert!(matches!(err, MetalError::IncompletePass(_)));
    }

    #[test]
    fn stream_copy_end_to_end() {
        let dev = device();
        let lib = dev.new_default_library();
        let pipeline = lib.pipeline("stream_copy").unwrap();
        let n = 10_000usize;
        let a: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let buf_a = dev.new_buffer_with_data(&a, StorageMode::Shared).unwrap();
        let buf_c = dev.new_buffer(n, StorageMode::Shared).unwrap();

        let queue = dev.new_command_queue();
        let mut cb = queue.command_buffer();
        {
            let mut enc = cb.compute_command_encoder();
            enc.set_compute_pipeline_state(&pipeline);
            enc.set_buffer(0, &buf_a);
            enc.set_buffer(1, &buf_c);
            enc.set_params(KernelParams::with_n(n as u64));
            enc.dispatch_threadgroups(MtlSize::d1(64), MtlSize::d1(256))
                .unwrap();
            enc.end_encoding();
        }
        cb.commit().unwrap();
        let reports = cb.wait_until_completed().unwrap();
        assert_eq!(reports.len(), 1);
        assert!(reports[0].functional);
        assert!(reports[0].memory_bound);
        assert!(reports[0].duration.as_nanos() > 0);
        assert_eq!(buf_c.read_to_vec().unwrap(), a);
    }

    #[test]
    fn output_aliasing_input_is_rejected() {
        let dev = device();
        let lib = dev.new_default_library();
        let pipeline = lib.pipeline("stream_copy").unwrap();
        let buf = dev.new_buffer(128, StorageMode::Shared).unwrap();
        let queue = dev.new_command_queue();
        let mut cb = queue.command_buffer();
        {
            let mut enc = cb.compute_command_encoder();
            enc.set_compute_pipeline_state(&pipeline);
            enc.set_buffer(0, &buf);
            enc.set_buffer(1, &buf);
            enc.set_params(KernelParams::with_n(128));
            enc.dispatch_threadgroups(MtlSize::d1(8), MtlSize::d1(16))
                .unwrap();
        }
        assert!(matches!(cb.commit(), Err(MetalError::BadDispatch(_))));
    }

    #[test]
    fn missing_binding_is_reported() {
        let dev = device();
        let lib = dev.new_default_library();
        let pipeline = lib.pipeline("stream_copy").unwrap();
        let buf = dev.new_buffer(128, StorageMode::Shared).unwrap();
        let queue = dev.new_command_queue();
        let mut cb = queue.command_buffer();
        {
            let mut enc = cb.compute_command_encoder();
            enc.set_compute_pipeline_state(&pipeline);
            enc.set_buffer(1, &buf); // binding 0 left unbound
            enc.set_params(KernelParams::with_n(128));
            enc.dispatch_threadgroups(MtlSize::d1(8), MtlSize::d1(16))
                .unwrap();
        }
        assert!(matches!(cb.commit(), Err(MetalError::MissingBinding(0))));
    }

    #[test]
    fn modeled_only_above_functional_limit() {
        let dev = device().with_functional_limit(0);
        let lib = dev.new_default_library();
        let pipeline = lib.pipeline("stream_copy").unwrap();
        let n = 1024usize;
        let buf_a = dev
            .new_buffer_with_data(&vec![1.0; n], StorageMode::Shared)
            .unwrap();
        let buf_c = dev.new_buffer(n, StorageMode::Shared).unwrap();
        let queue = dev.new_command_queue();
        let mut cb = queue.command_buffer();
        {
            let mut enc = cb.compute_command_encoder();
            enc.set_compute_pipeline_state(&pipeline);
            enc.set_buffer(0, &buf_a);
            enc.set_buffer(1, &buf_c);
            enc.set_params(KernelParams::with_n(n as u64));
            enc.dispatch_threadgroups(MtlSize::d1(8), MtlSize::d1(128))
                .unwrap();
        }
        cb.commit().unwrap();
        let reports = cb.wait_until_completed().unwrap();
        assert!(!reports[0].functional);
        // Output untouched in modeled-only mode: not even its storage is
        // built until the CPU reads it.
        assert!(!buf_c.is_materialized());
        assert!(buf_c.read_to_vec().unwrap().iter().all(|&v| v == 0.0));
        assert!(buf_c.is_materialized());
        // But timing still present.
        assert!(reports[0].duration.as_nanos() > 0);
    }

    #[test]
    fn oversized_threadgroup_rejected() {
        let dev = device();
        let lib = dev.new_default_library();
        let pipeline = lib.pipeline("stream_copy").unwrap();
        let queue = dev.new_command_queue();
        let mut cb = queue.command_buffer();
        let mut enc = cb.compute_command_encoder();
        enc.set_compute_pipeline_state(&pipeline);
        let err = enc
            .dispatch_threadgroups(MtlSize::d1(1), MtlSize::d2(64, 64))
            .unwrap_err();
        assert!(matches!(err, MetalError::BadDispatch(_)));
    }
}
