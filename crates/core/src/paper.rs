//! The paper's published numbers.
//!
//! These constants serve two purposes: they are the calibration anchors
//! the substrate models were fit to, and they are the expected values the
//! paper ledger ([`crate::ledger`]) compares measured results against.
//! Keeping them in one table makes the provenance of every model constant
//! auditable.

use oranges_soc::chip::ChipGeneration;

/// §5.1 / Figure 1: best CPU STREAM bandwidth, GB/s (M1..M4).
pub const FIG1_CPU_BEST_GBS: [(ChipGeneration, f64); 4] = [
    (ChipGeneration::M1, 59.0),
    (ChipGeneration::M2, 78.0),
    (ChipGeneration::M3, 92.0),
    (ChipGeneration::M4, 103.0),
];

/// §5.1 / Figure 1: best GPU STREAM bandwidth, GB/s.
pub const FIG1_GPU_BEST_GBS: [(ChipGeneration, f64); 4] = [
    (ChipGeneration::M1, 60.0),
    (ChipGeneration::M2, 91.0),
    (ChipGeneration::M3, 92.0),
    (ChipGeneration::M4, 100.0),
];

/// Table 1: theoretical memory bandwidth, GB/s.
pub const THEORETICAL_GBS: [(ChipGeneration, f64); 4] = [
    (ChipGeneration::M1, 67.0),
    (ChipGeneration::M2, 100.0),
    (ChipGeneration::M3, 100.0),
    (ChipGeneration::M4, 120.0),
];

/// §5.2 / Figure 2 peaks, TFLOPS, per implementation.
pub fn fig2_peak_tflops(implementation: &str, chip: ChipGeneration) -> Option<f64> {
    use ChipGeneration::*;
    let value = match implementation {
        "CPU-Accelerate" => match chip {
            M1 => 0.90,
            M2 => 1.09,
            M3 => 1.38,
            M4 => 1.49,
        },
        "GPU-MPS" => match chip {
            M1 => 1.36,
            M2 => 2.24,
            M3 => 2.47,
            M4 => 2.90,
        },
        "GPU-Naive" => match chip {
            M1 => 0.20,
            M2 => 0.39,
            M3 => 0.45,
            M4 => 0.54,
        },
        "GPU-CUTLASS" => match chip {
            M1 => 0.15,
            M2 => 0.16,
            M3 => 0.27,
            M4 => 0.34,
        },
        _ => return None,
    };
    Some(value)
}

/// §5.3 / Figure 4 peaks, TFLOPS/W, per implementation.
pub fn fig4_peak_tflops_per_watt(implementation: &str, chip: ChipGeneration) -> Option<f64> {
    use ChipGeneration::*;
    let value = match implementation {
        "GPU-MPS" => match chip {
            M1 => 0.21,
            M2 => 0.40,
            M3 => 0.46,
            M4 => 0.33,
        },
        "CPU-Accelerate" => match chip {
            M1 => 0.25,
            M2 => 0.20,
            M3 => 0.27,
            M4 => 0.23,
        },
        _ => return None,
    };
    Some(value)
}

/// §5.3: every chip reaches at least this efficiency with GPU-MPS.
pub const FIG4_MPS_FLOOR_GFLOPS_PER_W: f64 = 200.0;

/// §5.3: CPU-Single and CPU-OMP stay below this on every chip.
pub const FIG4_PLAIN_CPU_CEILING_GFLOPS_PER_W: f64 = 1.0;

/// §5.1 HPC Perspective: GH200 reference bandwidth points, GB/s.
pub const GH200_GRACE_STREAM_GBS: f64 = 310.0;
/// GH200 HBM3 STREAM, GB/s.
pub const GH200_HOPPER_STREAM_GBS: f64 = 3700.0;
/// §5.2: GH200 cublasSgemm on CUDA cores, TFLOPS.
pub const GH200_CUBLAS_FP32_TFLOPS: f64 = 41.0;
/// §5.2: GH200 TF32 tensor cores, TFLOPS.
pub const GH200_TF32_TFLOPS: f64 = 338.0;
/// §5.3: Green500 #1, GFLOPS/W.
pub const GREEN500_TOP_GFLOPS_PER_W: f64 = 72.0;

/// A stable digest of every model constant in this module — the
/// calibration anchors all simulated results ultimately derive from.
///
/// The campaign result cache stamps this digest into its disk envelope:
/// a cache file written under one set of constants is *stale* under
/// another (the same unit key would now produce different numbers), so
/// the loader invalidates mismatched files instead of letting stale
/// entries surface later as inexplicable merge conflicts. The digest is
/// FNV-1a 64 over a canonical rendering of the tables, so it changes
/// exactly when a constant changes.
///
/// The value is a per-build constant, so it is computed once and cached
/// (result caches are constructed on hot paths).
pub fn model_constants_digest() -> String {
    static DIGEST: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    DIGEST.get_or_init(compute_model_constants_digest).clone()
}

fn compute_model_constants_digest() -> String {
    let mut text = String::new();
    let mut push = |label: &str, value: f64| {
        text.push_str(label);
        text.push('=');
        text.push_str(&format!("{value:.6}"));
        text.push(';');
    };
    for (table, label) in [
        (&FIG1_CPU_BEST_GBS, "fig1_cpu"),
        (&FIG1_GPU_BEST_GBS, "fig1_gpu"),
        (&THEORETICAL_GBS, "theoretical"),
    ] {
        for (chip, value) in table.iter() {
            push(&format!("{label}.{}", chip.name()), *value);
        }
    }
    for implementation in ["CPU-Accelerate", "GPU-MPS", "GPU-Naive", "GPU-CUTLASS"] {
        for chip in ChipGeneration::ALL {
            if let Some(value) = fig2_peak_tflops(implementation, chip) {
                push(&format!("fig2.{implementation}.{}", chip.name()), value);
            }
            if let Some(value) = fig4_peak_tflops_per_watt(implementation, chip) {
                push(&format!("fig4.{implementation}.{}", chip.name()), value);
            }
        }
    }
    push("fig4_mps_floor", FIG4_MPS_FLOOR_GFLOPS_PER_W);
    push("fig4_cpu_ceiling", FIG4_PLAIN_CPU_CEILING_GFLOPS_PER_W);
    push("gh200_grace", GH200_GRACE_STREAM_GBS);
    push("gh200_hopper", GH200_HOPPER_STREAM_GBS);
    push("gh200_cublas", GH200_CUBLAS_FP32_TFLOPS);
    push("gh200_tf32", GH200_TF32_TFLOPS);
    push("green500", GREEN500_TOP_GFLOPS_PER_W);

    oranges_harness::fnv1a_64_hex(&text)
}

/// Relative error between a measured value and the paper's.
pub fn relative_error(measured: f64, published: f64) -> f64 {
    if published == 0.0 {
        return f64::INFINITY;
    }
    (measured - published).abs() / published.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchors_cover_all_chips() {
        for chip in ChipGeneration::ALL {
            assert!(fig2_peak_tflops("GPU-MPS", chip).is_some());
            assert!(fig2_peak_tflops("CPU-Accelerate", chip).is_some());
            assert!(fig2_peak_tflops("GPU-Naive", chip).is_some());
            assert!(fig2_peak_tflops("GPU-CUTLASS", chip).is_some());
            assert!(fig4_peak_tflops_per_watt("GPU-MPS", chip).is_some());
        }
        assert!(fig2_peak_tflops("CPU-Single", ChipGeneration::M1).is_none());
    }

    #[test]
    fn m4_peak_is_the_headline_2_9_tflops() {
        assert_eq!(fig2_peak_tflops("GPU-MPS", ChipGeneration::M4), Some(2.90));
    }

    #[test]
    fn model_digest_is_stable_and_well_formed() {
        let digest = model_constants_digest();
        assert_eq!(digest.len(), 16);
        assert!(digest.chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(digest, model_constants_digest(), "deterministic");
    }

    #[test]
    fn relative_error_math() {
        assert_eq!(relative_error(110.0, 100.0), 0.1);
        assert_eq!(relative_error(90.0, 100.0), 0.1);
        assert!(relative_error(1.0, 0.0).is_infinite());
    }
}
