//! HPC reference systems quoted by the paper's "HPC Perspective" boxes.
//!
//! The paper grounds every result against the state of the art: the Nvidia
//! GH200 superchip (tested by the authors), and literature points for the
//! AMD MI250X, Intel Xeon Max 9468, Nvidia A100, Nvidia RTX 4090, and the
//! Green500 #1 machine. These are *reported* numbers, not simulations — the
//! reference module stores them with their provenance so comparison tables
//! can cite them exactly as the paper does.

use crate::error::SocError;
use std::fmt;

/// Broad class of a reference system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReferenceKind {
    /// CPU (or CPU side of a superchip).
    Cpu,
    /// Discrete or superchip GPU.
    Gpu,
    /// Whole supercomputer.
    System,
}

/// A memory-bandwidth data point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthPoint {
    /// Theoretical peak, GB/s.
    pub theoretical_gbs: f64,
    /// Measured (STREAM-class), GB/s.
    pub measured_gbs: f64,
}

impl BandwidthPoint {
    /// Measured / theoretical.
    pub fn efficiency(&self) -> f64 {
        if self.theoretical_gbs <= 0.0 {
            0.0
        } else {
            self.measured_gbs / self.theoretical_gbs
        }
    }
}

/// A compute data point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputePoint {
    /// Theoretical peak, TFLOPS.
    pub theoretical_tflops: f64,
    /// Measured, TFLOPS.
    pub measured_tflops: f64,
    /// What was measured (precision / engine), e.g. `"FP32 CUDA cores"`.
    pub regime: &'static str,
}

impl ComputePoint {
    /// Measured / theoretical.
    pub fn efficiency(&self) -> f64 {
        if self.theoretical_tflops <= 0.0 {
            0.0
        } else {
            self.measured_tflops / self.theoretical_tflops
        }
    }
}

/// One reference system with the data points the paper quotes.
#[derive(Debug, Clone, PartialEq)]
pub struct ReferenceSystem {
    /// Name as used in the paper.
    pub name: &'static str,
    /// CPU / GPU / full system.
    pub kind: ReferenceKind,
    /// Bandwidth points (may be several, e.g. GH200 LPDDR5X and HBM3).
    pub bandwidth: Vec<BandwidthPoint>,
    /// Compute points (may be several, e.g. CUDA cores and tensor cores).
    pub compute: Vec<ComputePoint>,
    /// Efficiency if the paper quotes one, GFLOPS/W.
    pub gflops_per_watt: Option<f64>,
    /// Observed power if quoted, W.
    pub power_watts: Option<f64>,
    /// Where the number comes from (paper section or citation).
    pub provenance: &'static str,
}

impl fmt::Display for ReferenceSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({:?})", self.name, self.kind)
    }
}

/// The database of reference systems used in the paper.
pub fn all() -> Vec<ReferenceSystem> {
    vec![
        ReferenceSystem {
            name: "Nvidia GH200 (Grace CPU)",
            kind: ReferenceKind::Cpu,
            // §5.1: "the GH200 attained 310 GB/s (81%) when using CPU memory".
            bandwidth: vec![BandwidthPoint {
                theoretical_gbs: 382.7,
                measured_gbs: 310.0,
            }],
            compute: vec![],
            gflops_per_watt: None,
            power_watts: None,
            provenance: "§5.1 HPC Perspective (authors' measurement, Nvidia HPC benchmark 24.9)",
        },
        ReferenceSystem {
            name: "Nvidia GH200 (Hopper GPU)",
            kind: ReferenceKind::Gpu,
            // §5.1: "3700 GB/s (94%) using HBM3".
            bandwidth: vec![BandwidthPoint {
                theoretical_gbs: 3936.0,
                measured_gbs: 3700.0,
            }],
            compute: vec![
                // §5.2: cublasSgemm 41 TFLOPS = 61% of peak on CUDA cores.
                ComputePoint {
                    theoretical_tflops: 67.0,
                    measured_tflops: 41.0,
                    regime: "FP32 CUDA cores (cublasSgemm)",
                },
                // §5.2: 338 TFLOPS = 69% of peak on TF32 tensor cores.
                ComputePoint {
                    theoretical_tflops: 494.7,
                    measured_tflops: 338.0,
                    regime: "TF32 tensor cores (cublasSgemm, TF32 path)",
                },
            ],
            gflops_per_watt: None,
            power_watts: None,
            provenance: "§5.2 HPC Perspective (authors' measurement, cuBLAS 12.4.2)",
        },
        ReferenceSystem {
            name: "AMD MI250X (CPU-attached link)",
            kind: ReferenceKind::Gpu,
            // §5.1: "observed to reach 85% of its theoretical peak at only
            // 28 GB/s" — a host-link STREAM figure from [21].
            bandwidth: vec![BandwidthPoint {
                theoretical_gbs: 32.9,
                measured_gbs: 28.0,
            }],
            compute: vec![],
            gflops_per_watt: None,
            power_watts: None,
            provenance: "§5.1 HPC Perspective, citing Schieffer et al. [21]",
        },
        ReferenceSystem {
            name: "Intel Xeon CPU Max 9468",
            kind: ReferenceKind::Cpu,
            bandwidth: vec![],
            // §5.2: "achieves 5.7 TFLOPS with double-precision matrix
            // multiplication" (Sapphire Rapids + HBM, [24]).
            compute: vec![ComputePoint {
                theoretical_tflops: 6.8,
                measured_tflops: 5.7,
                regime: "FP64 GEMM (AMX/AVX-512)",
            }],
            gflops_per_watt: None,
            power_watts: None,
            provenance: "§5.2 HPC Perspective, citing Siegmann et al. [24]",
        },
        ReferenceSystem {
            name: "Nvidia A100",
            kind: ReferenceKind::Gpu,
            bandwidth: vec![],
            compute: vec![],
            // §5.3: "an Nvidia A100 achieve 0.7 TFLOPS per Watt using mma".
            gflops_per_watt: Some(700.0),
            power_watts: None,
            provenance: "§5.3 HPC Perspective, citing Luo et al. [13]",
        },
        ReferenceSystem {
            name: "Nvidia RTX 4090",
            kind: ReferenceKind::Gpu,
            bandwidth: vec![],
            compute: vec![],
            // §7: "consume 174 W while reaching 0.51 TFLOPS/W tensor core
            // performance (albeit in MMA, not SGEMM)".
            gflops_per_watt: Some(510.0),
            power_watts: Some(174.0),
            provenance: "§7 Discussion, citing Luo et al. [13]",
        },
        ReferenceSystem {
            name: "Green500 #1 (Nov 2024)",
            kind: ReferenceKind::System,
            bandwidth: vec![],
            compute: vec![],
            // §5.3: "the most power-efficient supercomputer on Green500 runs
            // at 72 GFLOPS/Watt" (HPL, FP64).
            gflops_per_watt: Some(72.0),
            power_watts: None,
            provenance: "§5.3 HPC Perspective, citing Green500 Nov 2024 [27]",
        },
    ]
}

/// Look up a reference system by (sub)name, case-insensitive.
pub fn lookup(name: &str) -> Result<ReferenceSystem, SocError> {
    let needle = name.trim().to_ascii_lowercase();
    all()
        .into_iter()
        .find(|r| r.name.to_ascii_lowercase().contains(&needle))
        .ok_or_else(|| SocError::UnknownReference(name.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gh200_grace_stream_matches_paper() {
        let grace = lookup("Grace CPU").unwrap();
        let bw = grace.bandwidth[0];
        assert_eq!(bw.measured_gbs, 310.0);
        // Paper: 81% efficiency.
        assert!((bw.efficiency() - 0.81).abs() < 0.01, "{}", bw.efficiency());
    }

    #[test]
    fn gh200_hopper_numbers_match_paper() {
        let hopper = lookup("Hopper GPU").unwrap();
        let hbm = hopper.bandwidth[0];
        assert_eq!(hbm.measured_gbs, 3700.0);
        assert!((hbm.efficiency() - 0.94).abs() < 0.01);
        let cuda = &hopper.compute[0];
        assert_eq!(cuda.measured_tflops, 41.0);
        assert!((cuda.efficiency() - 0.61).abs() < 0.01);
        let tf32 = &hopper.compute[1];
        assert_eq!(tf32.measured_tflops, 338.0);
        assert!((tf32.efficiency() - 0.69).abs() < 0.015);
    }

    #[test]
    fn mi250x_efficiency_point() {
        let mi = lookup("MI250X").unwrap();
        let bw = mi.bandwidth[0];
        assert_eq!(bw.measured_gbs, 28.0);
        assert!((bw.efficiency() - 0.85).abs() < 0.01);
    }

    #[test]
    fn xeon_max_fp64_gemm() {
        let xeon = lookup("Xeon").unwrap();
        assert_eq!(xeon.compute[0].measured_tflops, 5.7);
        assert!(xeon.compute[0].regime.contains("FP64"));
    }

    #[test]
    fn efficiency_references() {
        assert_eq!(lookup("A100").unwrap().gflops_per_watt, Some(700.0));
        assert_eq!(lookup("RTX 4090").unwrap().gflops_per_watt, Some(510.0));
        assert_eq!(lookup("RTX 4090").unwrap().power_watts, Some(174.0));
        assert_eq!(lookup("Green500").unwrap().gflops_per_watt, Some(72.0));
    }

    #[test]
    fn lookup_is_case_insensitive_and_partial() {
        assert!(lookup("green500").is_ok());
        assert!(lookup("HOPPER").is_ok());
        assert!(matches!(lookup("Cray"), Err(SocError::UnknownReference(_))));
    }

    #[test]
    fn all_entries_have_provenance() {
        for r in all() {
            assert!(!r.provenance.is_empty(), "{}", r.name);
            assert!(
                !r.bandwidth.is_empty() || !r.compute.is_empty() || r.gflops_per_watt.is_some(),
                "{} carries no data",
                r.name
            );
        }
    }

    #[test]
    fn zero_theoretical_yields_zero_efficiency() {
        let bw = BandwidthPoint {
            theoretical_gbs: 0.0,
            measured_gbs: 10.0,
        };
        assert_eq!(bw.efficiency(), 0.0);
        let c = ComputePoint {
            theoretical_tflops: 0.0,
            measured_tflops: 1.0,
            regime: "x",
        };
        assert_eq!(c.efficiency(), 0.0);
    }
}
