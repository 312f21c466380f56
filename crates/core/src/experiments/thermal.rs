//! Extension experiment: sustained-load thermal behaviour.
//!
//! §7 observes that "the Apple laptops with M1, and M3 SoCs have
//! relatively lower Power Dissipation compared to desktops (M2, M4),
//! which might show the impact of power strategy and cooling methods of
//! different device models". The paper's runs are short; this extension
//! integrates the thermal model over minutes of continuous GEMM to show
//! *when* the passive enclosures throttle and what the sustained clock
//! cap becomes — the mechanism behind the paper's observation.

use crate::experiments::experiment::{
    chip_mismatch, Experiment, ExperimentError, ExperimentOutput,
};
use crate::platform::Platform;
use oranges_harness::metric::PowerContext;
use oranges_powermetrics::{PowerModel, WorkClass};
use oranges_soc::chip::ChipGeneration;
use oranges_soc::device::DeviceModel;
use oranges_soc::time::SimDuration;

/// Outcome of a sustained run on one device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SustainedPoint {
    /// Chip.
    pub chip: ChipGeneration,
    /// Whether the device is passively cooled (MacBook Air).
    pub passive: bool,
    /// Steady package power demanded by the workload, W.
    pub demand_watts: f64,
    /// Package temperature after the run, °C.
    pub final_temperature_c: f64,
    /// DVFS cap at the end of the run (1.0 = never throttled).
    pub final_dvfs_cap: f64,
    /// Time until the cap first dropped below 1.0 (None = never).
    pub throttle_onset: Option<SimDuration>,
    /// Total energy actually dissipated over the run (accounting for
    /// throttling), joules.
    pub energy_j: f64,
    /// Run length, seconds.
    pub window_s: f64,
}

impl SustainedPoint {
    /// The run's power/thermal provenance: end-state cap, integrated
    /// energy, and the mean effective power over the window.
    pub(crate) fn power_context(&self) -> PowerContext {
        PowerContext {
            package_watts: if self.window_s > 0.0 {
                self.energy_j / self.window_s
            } else {
                self.demand_watts
            },
            energy_j: self.energy_j,
            window_s: self.window_s,
            dvfs_cap: self.final_dvfs_cap,
        }
    }
}

/// Run `minutes` of continuous full-tilt work of `class` on every chip.
pub fn run(class: WorkClass, minutes: f64) -> Vec<SustainedPoint> {
    ChipGeneration::ALL
        .iter()
        .map(|&chip| run_chip(chip, class, minutes))
        .collect()
}

/// One chip's sustained run.
pub(crate) fn run_chip(chip: ChipGeneration, class: WorkClass, minutes: f64) -> SustainedPoint {
    let step = SimDuration::from_secs_f64(1.0);
    let steps = (minutes * 60.0) as u64;
    let device = DeviceModel::of(chip);
    let mut thermal = device.thermal_model();
    let demand = PowerModel::of(chip).active_watts(class);
    let mut throttle_onset = None;
    let mut energy_j = 0.0;
    for s in 0..steps {
        // Thermally capped power: once the cap drops, the chip
        // clocks down and burns proportionally less.
        let effective = demand * thermal.dvfs_cap();
        energy_j += effective * step.as_secs_f64();
        thermal.integrate(effective, step);
        if throttle_onset.is_none() && thermal.dvfs_cap() < 1.0 {
            throttle_onset = Some(step * (s + 1));
        }
    }
    SustainedPoint {
        chip,
        passive: device.is_laptop(),
        demand_watts: demand,
        final_temperature_c: thermal.temperature_c(),
        final_dvfs_cap: thermal.dvfs_cap(),
        throttle_onset,
        energy_j,
        window_s: steps as f64 * step.as_secs_f64(),
    }
}

/// The thermal extension as a schedulable unit: one chip, one work
/// class, `minutes` of sustained load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalExperiment {
    /// Chip under test.
    pub chip: ChipGeneration,
    /// Sustained workload class.
    pub class: WorkClass,
    /// Minutes of continuous load.
    pub minutes: f64,
}

impl ThermalExperiment {
    /// The default sustained scenario: ten minutes of the hottest paper
    /// configuration (the Cutlass-style shader).
    pub fn sustained_cutlass(chip: ChipGeneration) -> Self {
        ThermalExperiment {
            chip,
            class: WorkClass::GpuCutlass,
            minutes: 10.0,
        }
    }
}

impl Experiment for ThermalExperiment {
    fn id(&self) -> &'static str {
        "thermal"
    }

    fn params(&self) -> String {
        format!(
            "chip={};class={};minutes={}",
            self.chip.name(),
            self.class.label(),
            self.minutes
        )
    }

    fn chip(&self) -> Option<ChipGeneration> {
        Some(self.chip)
    }

    fn run(&self, platform: &mut Platform) -> Result<ExperimentOutput, ExperimentError> {
        if platform.chip() != self.chip {
            return Err(chip_mismatch(self.chip, platform.chip()));
        }
        let point = run_chip(self.chip, self.class, self.minutes);
        let mut set = self
            .base_set()
            .with_implementation(self.class.label())
            .with_power(point.power_context())
            .metric("demand_watts", point.demand_watts, "W")
            .metric("final_temperature_c", point.final_temperature_c, "C")
            .metric("final_dvfs_cap", point.final_dvfs_cap, "x")
            .metric("energy_j", point.energy_j, "J")
            .metric("throttled", point.throttle_onset.is_some(), "flag");
        if let Some(onset) = point.throttle_onset {
            set = set.metric("throttle_onset_s", onset.as_secs_f64(), "s");
        }
        ExperimentOutput::from_sets(vec![set], None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn light_loads_never_throttle() {
        // Accelerate at ~4-7 W sits inside every envelope.
        for p in run(WorkClass::CpuAccelerate, 10.0) {
            assert_eq!(p.final_dvfs_cap, 1.0, "{:?}", p);
            assert!(p.throttle_onset.is_none());
        }
    }

    #[test]
    fn cutlass_throttles_the_m4_eventually_or_holds_with_active_cooling() {
        // GPU-CUTLASS on M4 demands 18.5 W < the Mac mini's 28 W
        // sustained envelope: even the hottest paper configuration holds.
        let points = run(WorkClass::GpuCutlass, 10.0);
        let m4 = points
            .iter()
            .find(|p| p.chip == ChipGeneration::M4)
            .unwrap();
        assert!(!m4.passive);
        assert_eq!(m4.final_dvfs_cap, 1.0, "{m4:?}");
        // But the passively cooled M3 (12 W demand vs 14 W sustained)
        // also holds — the paper's figures are consistent with
        // throttle-free runs.
        let m3 = points
            .iter()
            .find(|p| p.chip == ChipGeneration::M3)
            .unwrap();
        assert!(m3.passive);
        assert_eq!(m3.final_dvfs_cap, 1.0, "{m3:?}");
    }

    #[test]
    fn hypothetical_heavy_load_throttles_laptops_first() {
        // Push every chip at its *burst* power: passive enclosures must
        // throttle, active ones hold longer or cap higher.
        let step = SimDuration::from_secs_f64(1.0);
        let mut caps = Vec::new();
        for chip in ChipGeneration::ALL {
            let device = DeviceModel::of(chip);
            let mut thermal = device.thermal_model();
            let demand = device.cooling.burst_watts();
            for _ in 0..1200 {
                thermal.integrate(demand * thermal.dvfs_cap(), step);
            }
            caps.push((chip, device.is_laptop(), thermal.dvfs_cap()));
        }
        for (chip, is_laptop, cap) in &caps {
            if *is_laptop {
                assert!(
                    *cap < 1.0,
                    "{chip} (passive) must throttle at burst power: {cap}"
                );
            }
        }
    }
}
