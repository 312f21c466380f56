//! The compute-kernel contract.
//!
//! A kernel in this simulator plays the role of an MSL compute function: it
//! can *execute* (real FP32 arithmetic over buffer slices, parallelized
//! across output bands) and it can *describe* its workload so the
//! timing model can price the dispatch without executing it. Keeping both
//! behind one trait guarantees the modeled time and the functional results
//! always refer to the same computation.

use oranges_soc::chip::ChipGeneration;
use oranges_soc::time::SimDuration;
use oranges_umem::bandwidth::StreamKernelKind;
use std::ops::Range;

/// Constants passed to a kernel (the analogue of Metal's `setBytes`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelParams {
    /// Unsigned integer constants (dimensions, strides).
    pub uints: Vec<u64>,
    /// Float constants (scalars like STREAM's `q`).
    pub floats: Vec<f32>,
}

impl KernelParams {
    /// Params with only one dimension constant (common case).
    pub fn with_n(n: u64) -> Self {
        KernelParams {
            uints: vec![n],
            floats: Vec::new(),
        }
    }

    /// First uint (panics if absent — kernels validate in `validate`).
    pub fn n(&self) -> u64 {
        self.uints[0]
    }

    /// Fetch a uint constant.
    pub fn uint(&self, idx: usize) -> Option<u64> {
        self.uints.get(idx).copied()
    }

    /// Fetch a float constant.
    pub fn float(&self, idx: usize) -> Option<f32> {
        self.floats.get(idx).copied()
    }
}

/// What a dispatch costs — consumed by [`crate::timing::TimingModel`].
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// FP32 FLOPs the dispatch retires.
    pub flops: u64,
    /// Bytes read from DRAM (after cache filtering).
    pub read_bytes: u64,
    /// Bytes written to DRAM.
    pub write_bytes: u64,
    /// Compute efficiency η_c ∈ (0, 1]: fraction of the GPU FP32 roofline
    /// this kernel sustains at this size on this chip (already including
    /// size ramp-up). Calibration anchors live with each kernel.
    pub compute_efficiency: f64,
    /// Fixed per-dispatch overhead (command encoding, pipeline state,
    /// threadgroup scheduling).
    pub dispatch_overhead: SimDuration,
    /// When the kernel is one of the STREAM four, the timing model uses
    /// the calibrated per-kernel bandwidth table instead of the generic
    /// streaming efficiency.
    pub stream_kernel: Option<StreamKernelKind>,
}

impl Workload {
    /// Total DRAM traffic.
    pub fn total_bytes(&self) -> u64 {
        self.read_bytes + self.write_bytes
    }
}

/// One band's view of the dispatch during functional execution.
///
/// The simulator partitions the *output* buffer into contiguous bands —
/// one per host thread, never more than the dispatch has threadgroups —
/// and runs bands in parallel: the same disjoint-write discipline a real
/// Metal grid enforces spatially. A band boundary may fall anywhere,
/// including mid-row; a kernel's result must not depend on where.
pub struct BandInvocation<'a> {
    /// Output element range this band owns.
    pub range: Range<usize>,
    /// Read-only views of the input buffers, in binding order.
    pub inputs: &'a [&'a [f32]],
    /// The band's slice of the output buffer.
    pub output: &'a mut [f32],
    /// Kernel constants.
    pub params: &'a KernelParams,
}

/// A compute function (the analogue of an MSL kernel).
pub trait ComputeKernel: Send + Sync {
    /// Function name as it appears in the library.
    fn name(&self) -> &'static str;

    /// Validate params/bindings before dispatch; return a human-readable
    /// reason on failure.
    fn validate(
        &self,
        params: &KernelParams,
        input_lens: &[usize],
        output_len: usize,
    ) -> Result<(), String>;

    /// Execute one output band functionally.
    fn execute_band(&self, inv: BandInvocation<'_>);

    /// Describe the dispatch for the timing model.
    fn workload(&self, chip: ChipGeneration, params: &KernelParams, output_len: usize) -> Workload;
}

/// Smooth size ramp used by kernel efficiency curves:
/// `ramp(n) = 1 / (1 + (n_half / n)^p)` — 0.5 at `n_half`, → 1 for large n.
pub(crate) fn size_ramp(n: f64, n_half: f64, p: f64) -> f64 {
    if n <= 0.0 {
        return 0.0;
    }
    1.0 / (1.0 + (n_half / n).powf(p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_accessors() {
        let p = KernelParams {
            uints: vec![64, 2],
            floats: vec![3.0],
        };
        assert_eq!(p.n(), 64);
        assert_eq!(p.uint(1), Some(2));
        assert_eq!(p.uint(2), None);
        assert_eq!(p.float(0), Some(3.0));
        assert_eq!(KernelParams::with_n(7).n(), 7);
    }

    #[test]
    fn workload_byte_accounting() {
        let w = Workload {
            flops: 100,
            read_bytes: 30,
            write_bytes: 12,
            compute_efficiency: 0.5,
            dispatch_overhead: SimDuration::ZERO,
            stream_kernel: None,
        };
        assert_eq!(w.total_bytes(), 42);
    }

    #[test]
    fn size_ramp_shape() {
        assert_eq!(size_ramp(0.0, 512.0, 2.0), 0.0);
        let at_half = size_ramp(512.0, 512.0, 2.0);
        assert!((at_half - 0.5).abs() < 1e-12);
        assert!(size_ramp(8192.0, 512.0, 2.0) > 0.99);
        // Monotone increasing.
        let mut last = 0.0;
        for n in [32.0, 64.0, 128.0, 256.0, 1024.0, 4096.0] {
            let r = size_ramp(n, 512.0, 2.0);
            assert!(r > last);
            last = r;
        }
    }
}
