//! Extension experiment: mixed-precision headroom.
//!
//! §7 names this as future work: "future studies could explore the
//! impact of mixed-precision workloads on computational efficiency and
//! accuracy". The M-series GPU natively runs FP16 at 2× and INT8 at 4×
//! the FP32 rate (§2.2, Table 1 "Native Precision Support"), while FP64
//! is emulation-only (§1). This extension projects the Figure 2 GPU-MPS
//! peaks across precisions and pairs each with its accuracy cost,
//! quantified by an actual FP16-emulation error measurement on real
//! matrices.

use crate::experiments::experiment::{
    chip_mismatch, Experiment, ExperimentError, ExperimentOutput,
};
use crate::platform::Platform;
use oranges_harness::metric::MetricSet;
use oranges_harness::RepetitionProtocol;
use oranges_soc::chip::ChipGeneration;
use oranges_soc::gpu::{GpuPrecision, GpuSpec};

/// Projected throughput of the MPS-class kernel at one precision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrecisionPoint {
    /// Chip.
    pub chip: ChipGeneration,
    /// Precision.
    pub precision: GpuPrecision,
    /// Projected sustained TFLOPS (FP32 MPS efficiency × precision rate).
    pub tflops: f64,
    /// Whether the precision is hardware-native.
    pub native: bool,
}

/// FP32-anchored MPS sustained efficiency (Figure 2 peak ÷ roofline).
fn mps_efficiency(chip: ChipGeneration) -> f64 {
    let fp32_peak = match chip {
        ChipGeneration::M1 => 1.36,
        ChipGeneration::M2 => 2.24,
        ChipGeneration::M3 => 2.47,
        ChipGeneration::M4 => 2.90,
    };
    fp32_peak / chip.spec().gpu_tflops_published
}

/// Project the MPS peak across the precision ladder for one chip.
pub fn run_chip(chip: ChipGeneration) -> Vec<PrecisionPoint> {
    let precisions = [
        GpuPrecision::Fp16,
        GpuPrecision::Fp32,
        GpuPrecision::Int8,
        GpuPrecision::Fp64Emulated,
    ];
    let gpu = GpuSpec::of(chip.spec());
    precisions
        .into_iter()
        .map(|precision| PrecisionPoint {
            chip,
            precision,
            tflops: gpu.gflops_at(precision) / 1e3 * mps_efficiency(chip),
            native: precision.is_native(),
        })
        .collect()
}

/// Project the MPS peak across the precision ladder for every chip.
pub fn run() -> Vec<PrecisionPoint> {
    ChipGeneration::ALL
        .iter()
        .flat_map(|&chip| run_chip(chip))
        .collect()
}

/// The mixed-precision extension as a schedulable unit: one chip's
/// precision ladder plus the FP16 accuracy measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MixedPrecisionExperiment {
    /// Chip under test.
    pub chip: ChipGeneration,
}

impl Experiment for MixedPrecisionExperiment {
    fn id(&self) -> &'static str {
        "mixed_precision"
    }

    fn params(&self) -> String {
        format!("chip={};ladder=fp16,fp32,int8,fp64e", self.chip.name())
    }

    fn chip(&self) -> Option<ChipGeneration> {
        Some(self.chip)
    }

    fn protocol(&self) -> RepetitionProtocol {
        RepetitionProtocol { reps: 1, warmup: 0 }
    }

    fn run(&self, platform: &mut Platform) -> Result<ExperimentOutput, ExperimentError> {
        if platform.chip() != self.chip {
            return Err(chip_mismatch(self.chip, platform.chip()));
        }
        let mut sets: Vec<MetricSet> = run_chip(self.chip)
            .iter()
            .map(|p| {
                self.base_set()
                    .with_implementation(&format!("{:?}", p.precision))
                    .metric("projected_tflops", p.tflops, "TFLOPS")
                    .metric("native", p.native, "flag")
            })
            .collect();
        sets.push(self.base_set().metric(
            "fp16_dot_rel_err_k1024",
            fp16_dot_relative_error(1024, 42),
            "rel",
        ));
        ExperimentOutput::from_sets(sets, None)
    }
}

/// Measure the relative error of computing a dot product in simulated
/// FP16 (round-to-nearest-even via `f32 -> half bits -> f32` on every
/// operand and partial sum) versus f64, over a length-`k` product of
/// `R ∈ [0,1)` values. This is the accuracy side of the trade-off.
pub fn fp16_dot_relative_error(k: usize, seed: u64) -> f64 {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 40) as f32 / (1u32 << 24) as f32
    };
    let a: Vec<f32> = (0..k).map(|_| next()).collect();
    let b: Vec<f32> = (0..k).map(|_| next()).collect();

    let exact: f64 = a.iter().zip(&b).map(|(x, y)| *x as f64 * *y as f64).sum();
    let mut half_acc = 0.0f32;
    for (x, y) in a.iter().zip(&b) {
        let hx = to_fp16(*x);
        let hy = to_fp16(*y);
        half_acc = to_fp16(half_acc + hx * hy);
    }
    ((half_acc as f64 - exact) / exact.abs().max(1e-30)).abs()
}

/// Round an f32 to the nearest representable FP16 value (returned as
/// f32). Handles normals, subnormals flush-to-zero, and overflow→inf —
/// enough fidelity for error studies on `[0, 1)` data.
fn to_fp16(value: f32) -> f32 {
    if value == 0.0 || !value.is_finite() {
        return value;
    }
    let bits = value.to_bits();
    let sign = bits >> 31;
    let exp = ((bits >> 23) & 0xFF) as i32 - 127;
    if exp > 15 {
        return if sign == 1 {
            f32::NEG_INFINITY
        } else {
            f32::INFINITY
        };
    }
    if exp < -14 {
        return 0.0; // flush subnormals for simplicity
    }
    // Keep 10 mantissa bits with round-to-nearest-even.
    let mantissa = bits & 0x007F_FFFF;
    let shift = 13;
    let lsb = 1u32 << shift;
    let round_bit = lsb >> 1;
    let mut rounded = mantissa & !(lsb - 1);
    let remainder = mantissa & (lsb - 1);
    if remainder > round_bit || (remainder == round_bit && (rounded & lsb) != 0) {
        rounded = rounded.wrapping_add(lsb);
    }
    let out = (bits & 0xFF80_0000 & !(0x007F_FFFF)) | (bits & 0x8000_0000);
    let _ = out;
    let rebuilt = (sign << 31) | (((exp + 127) as u32) << 23) | (rounded & 0x007F_FFFF);
    // Mantissa rounding may carry into the exponent; f32 arithmetic does
    // that automatically if we reassemble through from_bits addition.
    if rounded > 0x007F_FFFF {
        f32::from_bits((sign << 31) | (((exp + 128) as u32) << 23))
    } else {
        f32::from_bits(rebuilt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp16_doubles_and_int8_quadruples_fp32() {
        let points = run();
        for chip in ChipGeneration::ALL {
            let get = |precision| {
                points
                    .iter()
                    .find(|p| p.chip == chip && p.precision == precision)
                    .unwrap()
                    .tflops
            };
            let fp32 = get(GpuPrecision::Fp32);
            assert!((get(GpuPrecision::Fp16) / fp32 - 2.0).abs() < 1e-9);
            assert!((get(GpuPrecision::Int8) / fp32 - 4.0).abs() < 1e-9);
            assert!(get(GpuPrecision::Fp64Emulated) < fp32 / 4.0);
        }
    }

    #[test]
    fn fp32_projection_equals_figure2_peak() {
        let points = run();
        let m4 = points
            .iter()
            .find(|p| p.chip == ChipGeneration::M4 && p.precision == GpuPrecision::Fp32)
            .unwrap();
        assert!((m4.tflops - 2.90).abs() < 0.01, "{}", m4.tflops);
        assert!(m4.native);
    }

    #[test]
    fn fp16_dot_error_is_small_but_visible() {
        // Half precision on unit-interval data: error well above FP32's
        // ~1e-7 but far below 1% for k = 1024.
        let error = fp16_dot_relative_error(1024, 7);
        assert!(error > 1e-6, "{error}");
        assert!(error < 1e-2, "{error}");
        // Error grows with accumulation length.
        let long = fp16_dot_relative_error(16384, 7);
        assert!(long > error / 2.0, "long {long} vs short {error}");
    }

    #[test]
    fn fp16_conversion_basics() {
        assert_eq!(to_fp16(0.0), 0.0);
        assert_eq!(to_fp16(1.0), 1.0);
        assert_eq!(to_fp16(0.5), 0.5);
        // 1/3 is inexact in half precision: nearest is 0.33325195.
        let third = to_fp16(1.0 / 3.0);
        assert!((third - 1.0 / 3.0).abs() < 1e-3);
        assert!(third != 1.0 / 3.0);
        // Overflow saturates to infinity (FP16 max ≈ 65504).
        assert!(to_fp16(1e6).is_infinite());
        // Tiny values flush to zero.
        assert_eq!(to_fp16(1e-8), 0.0);
    }
}
