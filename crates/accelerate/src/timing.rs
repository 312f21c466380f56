//! Sustained-throughput model for Accelerate SGEMM on the AMX unit.
//!
//! Calibration anchors are the paper's Figure 2 Accelerate peaks
//! (0.90 / 1.09 / 1.38 / 1.49 TFLOPS for M1–M4); the per-size ramp and the
//! call overhead shape the small-`n` end, and both are validated against
//! the AMX theoretical peak (the sustained fraction lands at the 55–66%
//! the hardware plausibly delivers).

use oranges_soc::chip::ChipGeneration;
use oranges_soc::time::SimDuration;

/// Measured Accelerate SGEMM peak, TFLOPS (paper Fig. 2).
pub(crate) fn peak_tflops(chip: ChipGeneration) -> f64 {
    match chip {
        ChipGeneration::M1 => 0.90,
        ChipGeneration::M2 => 1.09,
        ChipGeneration::M3 => 1.38,
        ChipGeneration::M4 => 1.49,
    }
}

/// Size at which SGEMM reaches half its sustained peak. AMX has very low
/// launch overhead compared to a GPU dispatch, so the ramp is early.
const RAMP_N_HALF: f64 = 96.0;
const RAMP_POWER: f64 = 1.6;

/// Fixed per-call overhead (library entry, tile setup).
pub const CALL_OVERHEAD: SimDuration = SimDuration::from_micros(4);

/// The Accelerate timing model for one chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccelerateModel {
    chip: ChipGeneration,
}

impl AccelerateModel {
    /// Model for a generation.
    pub fn of(chip: ChipGeneration) -> Self {
        AccelerateModel { chip }
    }

    /// Sustained GFLOPS for a square SGEMM of size `n`.
    pub fn sustained_gflops(&self, n: u64) -> f64 {
        let ramp = {
            let nf = n as f64;
            if nf <= 0.0 {
                0.0
            } else {
                1.0 / (1.0 + (RAMP_N_HALF / nf).powf(RAMP_POWER))
            }
        };
        peak_tflops(self.chip) * 1e3 * ramp
    }

    /// Modeled duration of a square SGEMM (`flops = n²(2n−1)`).
    pub fn sgemm_duration(&self, n: u64) -> SimDuration {
        if n == 0 {
            return CALL_OVERHEAD;
        }
        let flops = n * n * (2 * n - 1);
        let gflops = self.sustained_gflops(n);
        CALL_OVERHEAD + SimDuration::from_secs_f64(flops as f64 / (gflops * 1e9))
    }

    /// Modeled duration of a rectangular GEMM `m×k · k×n`.
    pub fn gemm_duration(&self, m: u64, n: u64, k: u64) -> SimDuration {
        if m == 0 || n == 0 || k == 0 {
            return CALL_OVERHEAD;
        }
        let flops = m * n * (2 * k - 1);
        // Rate keyed to the smallest dimension (tile-limited).
        let gflops = self.sustained_gflops(m.min(n).min(k));
        CALL_OVERHEAD + SimDuration::from_secs_f64(flops as f64 / (gflops * 1e9))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchors_match_figure2() {
        let expected = [
            (ChipGeneration::M1, 0.90),
            (ChipGeneration::M2, 1.09),
            (ChipGeneration::M3, 1.38),
            (ChipGeneration::M4, 1.49),
        ];
        for (chip, tflops) in expected {
            let m = AccelerateModel::of(chip);
            let sustained = m.sustained_gflops(16384) / 1e3;
            assert!(
                (sustained - tflops).abs() / tflops < 0.02,
                "{chip}: {sustained}"
            );
        }
    }

    /// Fraction of the chip's AMX theoretical peak sustained at size `n`.
    fn amx_efficiency(chip: ChipGeneration, n: u64) -> f64 {
        AccelerateModel::of(chip).sustained_gflops(n) / chip.spec().amx_gflops()
    }

    #[test]
    fn amx_efficiency_is_plausible() {
        // Sustained fraction of the AMX peak must land in the 50–70% band
        // (the paper's measurements ÷ our 512-flops/cycle peak).
        for chip in ChipGeneration::ALL {
            let eff = amx_efficiency(chip, 16384);
            assert!((0.5..=0.7).contains(&eff), "{chip}: {eff}");
        }
    }

    #[test]
    fn efficiency_rises_across_generations() {
        let effs: Vec<f64> = ChipGeneration::ALL
            .iter()
            .map(|c| amx_efficiency(*c, 8192))
            .collect();
        for pair in effs.windows(2) {
            assert!(
                pair[1] > pair[0] - 0.01,
                "later AMX revisions are no worse: {effs:?}"
            );
        }
    }

    #[test]
    fn small_sizes_ramp_up() {
        let m = AccelerateModel::of(ChipGeneration::M3);
        assert!(m.sustained_gflops(32) < 0.35 * m.sustained_gflops(4096));
        let half = m.sustained_gflops(96);
        let peak = m.sustained_gflops(1 << 20);
        assert!((half / peak - 0.5).abs() < 0.01);
    }

    #[test]
    fn duration_has_floor_and_grows_cubically() {
        let m = AccelerateModel::of(ChipGeneration::M2);
        assert_eq!(m.sgemm_duration(0), CALL_OVERHEAD);
        let t1k = m.sgemm_duration(1024);
        let t2k = m.sgemm_duration(2048);
        let ratio = t2k.as_secs_f64() / t1k.as_secs_f64();
        assert!(ratio > 6.5 && ratio < 9.0, "{ratio}");
    }

    #[test]
    fn rectangular_durations() {
        let m = AccelerateModel::of(ChipGeneration::M4);
        // Degenerate dims are overhead-only.
        assert_eq!(m.gemm_duration(0, 10, 10), CALL_OVERHEAD);
        // Square case agrees with sgemm_duration.
        assert_eq!(m.gemm_duration(256, 256, 256), m.sgemm_duration(256));
    }
}
