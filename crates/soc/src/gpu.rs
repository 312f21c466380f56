//! GPU configuration model (§2.2).
//!
//! The M-series GPUs are tile-based deferred renderers used here purely as
//! compute devices: cores × 128 FP32 ALUs, one FMA per ALU per clock.
//! Native precisions are FP32/FP16/INT8 — no FP64 (paper §1, §7) — which the
//! model enforces: requesting FP64 yields an emulation cost factor instead
//! of native throughput.

use crate::chip::{ChipSpec, GPU_ALUS_PER_CORE};

/// Numeric precision on the GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GpuPrecision {
    /// Native single precision.
    Fp32,
    /// Native half precision (2× FP32 rate on M-series shader cores).
    Fp16,
    /// Native 8-bit integer dot paths.
    Int8,
    /// Software-emulated double precision (paper §1: "can be emulated").
    Fp64Emulated,
}

impl GpuPrecision {
    /// Throughput multiplier relative to FP32.
    pub const fn throughput_factor(&self) -> f64 {
        match self {
            GpuPrecision::Fp32 => 1.0,
            GpuPrecision::Fp16 => 2.0,
            GpuPrecision::Int8 => 4.0,
            // Double-single style emulation costs ~1/8 of FP32 throughput.
            GpuPrecision::Fp64Emulated => 0.125,
        }
    }

    /// Whether the hardware executes this precision natively.
    pub const fn is_native(&self) -> bool {
        !matches!(self, GpuPrecision::Fp64Emulated)
    }
}

/// GPU execution configuration for one chip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSpec {
    /// Number of GPU cores in the tested configuration.
    pub cores: u32,
    /// FP32 ALUs per core.
    pub alus_per_core: u32,
    /// Nominal clock, GHz.
    pub clock_ghz: f64,
    /// SIMD-group width (threads per SIMD group, Apple: 32).
    pub simd_width: u32,
    /// Max threads per threadgroup (Metal: 1024).
    pub max_threads_per_threadgroup: u32,
    /// Threadgroup (tile) memory per core, KiB (Metal: 32 KiB).
    pub threadgroup_memory_kib: u32,
    /// Published theoretical FP32 TFLOPS (Table 1) — used as the roofline.
    pub tflops_published: f64,
}

impl GpuSpec {
    /// The max-core configuration of a chip (what the paper tests).
    pub fn of(spec: &ChipSpec) -> Self {
        GpuSpec {
            cores: spec.gpu_cores_max,
            alus_per_core: GPU_ALUS_PER_CORE,
            clock_ghz: spec.gpu_clock_ghz,
            simd_width: 32,
            max_threads_per_threadgroup: 1024,
            threadgroup_memory_kib: 32,
            tflops_published: spec.gpu_tflops_published,
        }
    }

    /// Theoretical FP32 GFLOPS from the ALU model at nominal clock.
    pub fn gflops_nominal(&self) -> f64 {
        self.cores as f64 * self.alus_per_core as f64 * 2.0 * self.clock_ghz
    }

    /// Roofline GFLOPS used by the timing model: the published figure
    /// (which for M4 includes the boost clock).
    pub fn gflops_roofline(&self) -> f64 {
        self.tflops_published * 1e3
    }

    /// GFLOPS at a given precision.
    pub fn gflops_at(&self, precision: GpuPrecision) -> f64 {
        self.gflops_roofline() * precision.throughput_factor()
    }

    /// Total concurrent hardware threads (ALUs) on the device.
    pub fn total_alus(&self) -> u64 {
        self.cores as u64 * self.alus_per_core as u64
    }

    /// Occupancy fraction for a dispatch of `total_threads` work-items:
    /// small dispatches cannot fill the machine.
    pub fn occupancy(&self, total_threads: u64) -> f64 {
        if total_threads == 0 {
            return 0.0;
        }
        // The device needs several waves per ALU to hide latency; about
        // 4 waves reaches full throughput.
        let full = self.total_alus() * 4;
        ((total_threads as f64) / (full as f64)).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::ChipGeneration;

    #[test]
    fn of_uses_max_core_configuration() {
        let g = GpuSpec::of(ChipGeneration::M1.spec());
        assert_eq!(g.cores, 8);
        assert_eq!(g.alus_per_core, 128);
        let g4 = GpuSpec::of(ChipGeneration::M4.spec());
        assert_eq!(g4.cores, 10);
    }

    #[test]
    fn nominal_gflops_matches_published_for_m1_to_m3() {
        for gen in [ChipGeneration::M1, ChipGeneration::M2, ChipGeneration::M3] {
            let g = GpuSpec::of(gen.spec());
            let rel = (g.gflops_nominal() - g.gflops_roofline()).abs() / g.gflops_roofline();
            assert!(rel < 0.015, "{gen}: {rel}");
        }
    }

    #[test]
    fn m4_roofline_exceeds_nominal() {
        let g = GpuSpec::of(ChipGeneration::M4.spec());
        assert!(g.gflops_roofline() > g.gflops_nominal());
    }

    #[test]
    fn precision_factors() {
        let g = GpuSpec::of(ChipGeneration::M2.spec());
        assert_eq!(g.gflops_at(GpuPrecision::Fp16), g.gflops_roofline() * 2.0);
        assert_eq!(g.gflops_at(GpuPrecision::Int8), g.gflops_roofline() * 4.0);
        assert!(g.gflops_at(GpuPrecision::Fp64Emulated) < g.gflops_roofline() / 4.0);
        assert!(!GpuPrecision::Fp64Emulated.is_native());
        assert!(GpuPrecision::Fp32.is_native());
    }

    #[test]
    fn occupancy_saturates() {
        let g = GpuSpec::of(ChipGeneration::M1.spec());
        assert_eq!(g.occupancy(0), 0.0);
        let small = g.occupancy(256);
        let large = g.occupancy(10_000_000);
        assert!(small > 0.0 && small < 0.1);
        assert_eq!(large, 1.0);
        // Monotone.
        let mut last = 0.0;
        for threads in [1u64, 64, 1024, 16384, 262144, 4_194_304] {
            let o = g.occupancy(threads);
            assert!(o >= last);
            last = o;
        }
    }

    #[test]
    fn metal_limits_are_exposed() {
        let g = GpuSpec::of(ChipGeneration::M3.spec());
        assert_eq!(g.simd_width, 32);
        assert_eq!(g.max_threads_per_threadgroup, 1024);
        assert_eq!(g.threadgroup_memory_kib, 32);
    }
}
