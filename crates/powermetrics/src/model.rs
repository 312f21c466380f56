//! The per-chip power model.
//!
//! `powermetrics` readings are software estimates (paper §5.3); the model
//! here estimates the same quantities from first principles plus
//! calibration:
//!
//! ```text
//! P(window) = P_idle + P_active(chip, class) × duty
//! ```
//!
//! where `class` identifies the implementation (the paper's six GEMM
//! implementations plus the two STREAM variants), `P_active` is the
//! calibrated full-tilt package power of that class on that chip, and
//! `duty` is the busy fraction of the window (dispatch overhead leaves the
//! engine idle — which is exactly why the paper sees GPU power collapse at
//! small matrix sizes while CPU implementations still burn full power).
//!
//! **Calibration provenance.** Active powers for `CpuAccelerate` and
//! `GpuMps` are derived from Figure 2 peak TFLOPS ÷ Figure 4 peak TFLOPS/W;
//! the custom-shader and plain-CPU classes are set from Figure 3's bands
//! (few W at the bottom, M4 Cutlass ~18.5 W at the top). Every value is
//! then clamped by the device's cooling envelope (Table 3: passive
//! MacBook Air vs. active Mac mini), which reproduces §7's observation
//! that the laptop parts dissipate less than the desktop parts.

use crate::rails::RailPowers;
use oranges_soc::chip::ChipGeneration;
use oranges_soc::device::DeviceModel;

/// Which benchmark implementation class is running — the calibration key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkClass {
    /// Nothing running (between windows).
    Idle,
    /// Naive single-threaded CPU GEMM.
    CpuSingle,
    /// OpenMP-style tiled multi-threaded CPU GEMM.
    CpuOmp,
    /// Accelerate (BLAS/vDSP on AMX).
    CpuAccelerate,
    /// Naive Metal shader GEMM.
    GpuNaive,
    /// Tiled "Cutlass-style" Metal shader GEMM.
    GpuCutlass,
    /// Metal Performance Shaders GEMM.
    GpuMps,
    /// CPU STREAM (McCalpin, full thread sweep).
    CpuStream,
    /// GPU STREAM (MSL kernels).
    GpuStream,
}

impl WorkClass {
    /// Whether the class runs on the GPU rail.
    pub(crate) const fn is_gpu(&self) -> bool {
        matches!(
            self,
            WorkClass::GpuNaive | WorkClass::GpuCutlass | WorkClass::GpuMps | WorkClass::GpuStream
        )
    }

    /// Stable label used in reports.
    pub const fn label(&self) -> &'static str {
        match self {
            WorkClass::Idle => "Idle",
            WorkClass::CpuSingle => "CPU-Single",
            WorkClass::CpuOmp => "CPU-OMP",
            WorkClass::CpuAccelerate => "CPU-Accelerate",
            WorkClass::GpuNaive => "GPU-Naive",
            WorkClass::GpuCutlass => "GPU-CUTLASS",
            WorkClass::GpuMps => "GPU-MPS",
            WorkClass::CpuStream => "CPU-STREAM",
            WorkClass::GpuStream => "GPU-STREAM",
        }
    }
}

/// Full-tilt active package power (W) for a class on a chip.
fn active_watts(chip: ChipGeneration, class: WorkClass) -> f64 {
    use ChipGeneration::*;
    match class {
        WorkClass::Idle => 0.0,
        // Figure 3 bands: single-threaded CPU work burns one P-core + DRAM.
        WorkClass::CpuSingle => match chip {
            M1 => 3.5,
            M2 => 4.5,
            M3 => 4.0,
            M4 => 5.0,
        },
        // Full CPU complex spinning on a non-vectorized tiled loop.
        WorkClass::CpuOmp => match chip {
            M1 => 7.0,
            M2 => 9.0,
            M3 => 8.0,
            M4 => 10.0,
        },
        // Fig.2 peak ÷ Fig.4 peak: 0.90/0.25, 1.09/0.20, 1.38/0.27, 1.49/0.23.
        WorkClass::CpuAccelerate => match chip {
            M1 => 3.60,
            M2 => 5.45,
            M3 => 5.11,
            M4 => 6.48,
        },
        WorkClass::GpuNaive => match chip {
            M1 => 7.0,
            M2 => 9.0,
            M3 => 10.0,
            M4 => 12.0,
        },
        // The paper's hottest configuration: M4 + Cutlass-style shader.
        WorkClass::GpuCutlass => match chip {
            M1 => 7.5,
            M2 => 10.0,
            M3 => 12.0,
            M4 => 18.5,
        },
        // Fig.2 peak ÷ Fig.4 peak: 1.36/0.21, 2.24/0.40, 2.47/0.46, 2.90/0.33.
        WorkClass::GpuMps => match chip {
            M1 => 6.48,
            M2 => 5.60,
            M3 => 5.37,
            M4 => 8.79,
        },
        WorkClass::CpuStream => match chip {
            M1 => 4.0,
            M2 => 6.0,
            M3 => 5.0,
            M4 => 6.5,
        },
        WorkClass::GpuStream => match chip {
            M1 => 3.5,
            M2 => 5.0,
            M3 => 4.5,
            M4 => 6.0,
        },
    }
}

/// Fraction of a class's active power drawn by the DRAM rail.
fn dram_fraction(class: WorkClass) -> f64 {
    match class {
        WorkClass::Idle => 0.0,
        WorkClass::CpuStream | WorkClass::GpuStream => 0.40,
        _ => 0.15,
    }
}

/// The power model of one device under test.
#[derive(Debug, Clone, Copy)]
pub struct PowerModel {
    chip: ChipGeneration,
    burst_watts: f64,
}

impl PowerModel {
    /// Model for a chip in its Table 3 enclosure.
    pub fn of(chip: ChipGeneration) -> Self {
        let device = DeviceModel::of(chip);
        PowerModel {
            chip,
            burst_watts: device.cooling.burst_watts(),
        }
    }

    /// The chip.
    pub fn chip(&self) -> ChipGeneration {
        self.chip
    }

    /// Idle rail powers — the floor the sampler sees between workloads.
    pub(crate) fn idle_powers(&self) -> RailPowers {
        RailPowers {
            cpu_mw: 45.0,
            gpu_mw: 12.0,
            ane_mw: 1.0,
            dram_mw: 85.0,
        }
    }

    /// Rail powers while `class` runs at duty cycle `duty ∈ [0, 1]`
    /// (busy-time fraction of the window).
    pub fn powers(&self, class: WorkClass, duty: f64) -> RailPowers {
        let duty = duty.clamp(0.0, 1.0);
        let total_mw = active_watts(self.chip, class) * 1e3 * duty;
        let dram = total_mw * dram_fraction(class);
        let engine = total_mw - dram;
        let active = if class.is_gpu() {
            RailPowers {
                cpu_mw: 0.0,
                gpu_mw: engine,
                ane_mw: 0.0,
                dram_mw: dram,
            }
        } else {
            RailPowers {
                cpu_mw: engine,
                gpu_mw: 0.0,
                ane_mw: 0.0,
                dram_mw: dram,
            }
        };
        (self.idle_powers() + active).clamped_to_watts(self.burst_watts)
    }

    /// Calibrated full-tilt package power of a class, W (before clamping).
    pub fn active_watts(&self, class: WorkClass) -> f64 {
        active_watts(self.chip, class)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_floor_is_small() {
        for chip in ChipGeneration::ALL {
            let p = PowerModel::of(chip).idle_powers();
            assert!(p.package_watts() < 0.25, "{chip}: {}", p.package_watts());
        }
    }

    #[test]
    fn duty_scales_power() {
        let m = PowerModel::of(ChipGeneration::M2);
        let full = m.powers(WorkClass::GpuMps, 1.0).package_mw();
        let half = m.powers(WorkClass::GpuMps, 0.5).package_mw();
        let idle = m.powers(WorkClass::GpuMps, 0.0).package_mw();
        assert!(full > half && half > idle);
        // Linear in duty above the idle floor.
        let active_full = full - idle;
        let active_half = half - idle;
        assert!((active_half / active_full - 0.5).abs() < 1e-9);
    }

    #[test]
    fn gpu_classes_draw_on_the_gpu_rail() {
        let m = PowerModel::of(ChipGeneration::M3);
        let gpu = m.powers(WorkClass::GpuNaive, 1.0);
        assert!(gpu.gpu_mw > 10.0 * gpu.cpu_mw.max(1.0) || gpu.gpu_mw > 5000.0);
        let cpu = m.powers(WorkClass::CpuOmp, 1.0);
        assert!(cpu.cpu_mw > cpu.gpu_mw);
    }

    #[test]
    fn m4_cutlass_is_the_hottest_configuration() {
        // Paper: "M4 exhibited the highest power consumption using the
        // Cutlass-style shader" — close to 20 W in Figure 3.
        let mut max_w = 0.0;
        let mut arg = (ChipGeneration::M1, WorkClass::Idle);
        for chip in ChipGeneration::ALL {
            let m = PowerModel::of(chip);
            for class in [
                WorkClass::CpuSingle,
                WorkClass::CpuOmp,
                WorkClass::CpuAccelerate,
                WorkClass::GpuNaive,
                WorkClass::GpuCutlass,
                WorkClass::GpuMps,
            ] {
                let w = m.powers(class, 1.0).package_watts();
                if w > max_w {
                    max_w = w;
                    arg = (chip, class);
                }
            }
        }
        assert_eq!(arg, (ChipGeneration::M4, WorkClass::GpuCutlass));
        assert!((15.0..=22.0).contains(&max_w), "{max_w}");
    }

    #[test]
    fn mps_efficiency_anchors_reproduce_figure4() {
        // TFLOPS (Fig. 2) ÷ active W must give back Fig. 4's TFLOPS/W.
        let expected = [
            (ChipGeneration::M1, 1.36, 0.21),
            (ChipGeneration::M2, 2.24, 0.40),
            (ChipGeneration::M3, 2.47, 0.46),
            (ChipGeneration::M4, 2.90, 0.33),
        ];
        for (chip, tflops, tflops_per_w) in expected {
            let m = PowerModel::of(chip);
            let eff = tflops / m.active_watts(WorkClass::GpuMps);
            assert!(
                (eff - tflops_per_w).abs() / tflops_per_w < 0.02,
                "{chip}: {eff}"
            );
        }
    }

    #[test]
    fn accelerate_efficiency_anchors_reproduce_figure4() {
        let expected = [
            (ChipGeneration::M1, 0.90, 0.25),
            (ChipGeneration::M2, 1.09, 0.20),
            (ChipGeneration::M3, 1.38, 0.27),
            (ChipGeneration::M4, 1.49, 0.23),
        ];
        for (chip, tflops, tflops_per_w) in expected {
            let m = PowerModel::of(chip);
            let eff = tflops / m.active_watts(WorkClass::CpuAccelerate);
            assert!(
                (eff - tflops_per_w).abs() / tflops_per_w < 0.02,
                "{chip}: {eff}"
            );
        }
    }

    #[test]
    fn laptops_dissipate_less_than_their_desktop_successors() {
        // §7: M1/M3 (MacBook Air) lower than M2/M4 (Mac mini), per class.
        for class in [
            WorkClass::CpuOmp,
            WorkClass::GpuNaive,
            WorkClass::GpuCutlass,
        ] {
            let w = |chip| PowerModel::of(chip).active_watts(class);
            assert!(w(ChipGeneration::M1) < w(ChipGeneration::M2), "{class:?}");
            assert!(w(ChipGeneration::M3) < w(ChipGeneration::M4), "{class:?}");
        }
    }

    #[test]
    fn all_powers_respect_the_cooling_envelope() {
        for chip in ChipGeneration::ALL {
            let m = PowerModel::of(chip);
            let burst = DeviceModel::of(chip).cooling.burst_watts();
            for class in [
                WorkClass::CpuSingle,
                WorkClass::CpuOmp,
                WorkClass::CpuAccelerate,
                WorkClass::GpuNaive,
                WorkClass::GpuCutlass,
                WorkClass::GpuMps,
                WorkClass::CpuStream,
                WorkClass::GpuStream,
            ] {
                let w = m.powers(class, 1.0).package_watts();
                assert!(w <= burst + 1e-9, "{chip} {class:?}: {w} W > {burst} W");
            }
        }
    }

    #[test]
    fn labels_match_figure_legends() {
        assert_eq!(WorkClass::CpuSingle.label(), "CPU-Single");
        assert_eq!(WorkClass::CpuOmp.label(), "CPU-OMP");
        assert_eq!(WorkClass::CpuAccelerate.label(), "CPU-Accelerate");
        assert_eq!(WorkClass::GpuNaive.label(), "GPU-Naive");
        assert_eq!(WorkClass::GpuCutlass.label(), "GPU-CUTLASS");
        assert_eq!(WorkClass::GpuMps.label(), "GPU-MPS");
    }
}
