//! The device — `MTLCreateSystemDefaultDevice()` for a simulated chip.

use crate::buffer::Buffer;
use crate::command::CommandQueue;
use crate::error::MetalError;
use crate::library::Library;
use crate::timing::TimingModel;
use oranges_soc::chip::ChipGeneration;
use oranges_soc::device::DeviceModel;
use oranges_soc::gpu::GpuSpec;
use oranges_umem::bandwidth::BandwidthModel;
use oranges_umem::buffer::{SharedAddressSpace, UnifiedBuffer};
use oranges_umem::StorageMode;
use std::sync::Arc;

/// Work-volume ceiling (max of FLOPs and bytes) below which dispatches run
/// functionally by default. Above it, only the timing model runs (the
/// paper's n = 16384 GEMM is 8.8 TFLOP — infeasible to execute in tests).
pub const DEFAULT_FUNCTIONAL_LIMIT: u64 = 600_000_000;

pub(crate) struct DeviceInner {
    pub chip: ChipGeneration,
    pub gpu: GpuSpec,
    pub space: SharedAddressSpace,
    pub timing: TimingModel,
    pub functional_limit: u64,
}

/// A simulated Metal device.
#[derive(Clone)]
pub struct Device {
    pub(crate) inner: Arc<DeviceInner>,
}

impl std::fmt::Debug for Device {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Device")
            .field("chip", &self.inner.chip)
            .field("gpu_cores", &self.inner.gpu.cores)
            .field("functional_limit", &self.inner.functional_limit)
            .finish()
    }
}

impl Device {
    /// The system-default device for a chip generation, sized like the
    /// paper's Table 3 machine for that chip.
    pub fn system_default(chip: ChipGeneration) -> Self {
        let memory_gb = DeviceModel::of(chip).memory_gb;
        Device::with_memory(chip, memory_gb)
    }

    /// A device with an explicit unified-memory size in GiB.
    pub fn with_memory(chip: ChipGeneration, memory_gb: u32) -> Self {
        let gpu = GpuSpec::of(chip.spec());
        let bandwidth = BandwidthModel::of(chip);
        Device {
            inner: Arc::new(DeviceInner {
                chip,
                gpu,
                space: SharedAddressSpace::with_gib(memory_gb),
                timing: TimingModel::new(gpu, bandwidth),
                functional_limit: DEFAULT_FUNCTIONAL_LIMIT,
            }),
        }
    }

    /// Override the functional-execution ceiling (0 disables functional
    /// execution entirely; `u64::MAX` forces it for every size).
    pub fn with_functional_limit(self, limit: u64) -> Self {
        let inner = self.inner;
        Device {
            inner: Arc::new(DeviceInner {
                chip: inner.chip,
                gpu: inner.gpu,
                space: inner.space.clone(),
                timing: inner.timing.clone(),
                functional_limit: limit,
            }),
        }
    }

    /// Chip generation this device simulates.
    pub fn chip(&self) -> ChipGeneration {
        self.inner.chip
    }

    /// GPU configuration.
    pub fn gpu(&self) -> &GpuSpec {
        &self.inner.gpu
    }

    /// The timing model (exposed for the harness and tests).
    pub fn timing(&self) -> &TimingModel {
        &self.inner.timing
    }

    /// Unified-memory address space backing this device's buffers.
    pub fn address_space(&self) -> &SharedAddressSpace {
        &self.inner.space
    }

    /// The functional-execution ceiling.
    pub fn functional_limit(&self) -> u64 {
        self.inner.functional_limit
    }

    /// `newBufferWithLength:options:`.
    pub fn new_buffer(&self, len: usize, mode: StorageMode) -> Result<Buffer, MetalError> {
        Buffer::new(&self.inner.space, len, mode)
    }

    /// `newBufferWithBytes:` (copy-in).
    pub fn new_buffer_with_data(
        &self,
        data: &[f32],
        mode: StorageMode,
    ) -> Result<Buffer, MetalError> {
        Buffer::with_data(&self.inner.space, data, mode)
    }

    /// `newBufferWithBytesNoCopy:` over an existing unified allocation.
    pub fn new_buffer_no_copy(&self, unified: UnifiedBuffer<f32>) -> Result<Buffer, MetalError> {
        Buffer::from_unified_no_copy(unified)
    }

    /// Allocate a unified buffer in this device's space (for later no-copy
    /// wrapping — the paper's `aligned_alloc` step).
    pub fn allocate_unified(&self, len: usize) -> Result<UnifiedBuffer<f32>, MetalError> {
        Ok(UnifiedBuffer::allocate(
            &self.inner.space,
            len,
            StorageMode::Shared,
        )?)
    }

    /// `newCommandQueue`.
    pub fn new_command_queue(&self) -> CommandQueue {
        CommandQueue::new(self.clone())
    }

    /// The default shader library (our compiled-in `.metallib`).
    pub fn new_default_library(&self) -> Library {
        Library::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_default_uses_table3_memory() {
        let m1 = Device::system_default(ChipGeneration::M1);
        // M1 MacBook Air: 8 GB.
        assert_eq!(m1.address_space().available(), 8 * 1024 * 1024 * 1024);
        let m4 = Device::system_default(ChipGeneration::M4);
        assert_eq!(m4.address_space().available(), 16 * 1024 * 1024 * 1024);
    }

    #[test]
    fn buffers_allocate_from_device_space() {
        let dev = Device::with_memory(ChipGeneration::M2, 1);
        let before = dev.address_space().available();
        let _buf = dev.new_buffer(1 << 20, StorageMode::Shared).unwrap();
        assert!(dev.address_space().available() < before);
    }

    #[test]
    fn functional_limit_is_configurable() {
        let dev = Device::system_default(ChipGeneration::M3);
        assert_eq!(dev.functional_limit(), DEFAULT_FUNCTIONAL_LIMIT);
        let dev = dev.with_functional_limit(0);
        assert_eq!(dev.functional_limit(), 0);
    }

    #[test]
    fn no_copy_round_trip() {
        let dev = Device::with_memory(ChipGeneration::M4, 1);
        let mut unified = dev.allocate_unified(5000).unwrap();
        unified.as_mut_slice().unwrap()[42] = 7.0;
        let buf = dev.new_buffer_no_copy(unified).unwrap();
        assert_eq!(buf.read_to_vec().unwrap()[42], 7.0);
    }

    #[test]
    fn gpu_spec_matches_chip() {
        let dev = Device::system_default(ChipGeneration::M4);
        assert_eq!(dev.gpu().cores, 10);
        assert_eq!(dev.chip(), ChipGeneration::M4);
    }
}
