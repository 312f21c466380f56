//! The piggyback measurement session.
//!
//! §4: "The power measurement occurs during the run in which CPU/GPU
//! performance is measured" — power sampling wraps the very same run the
//! FLOPS numbers come from. [`PowerSession::measure`] reproduces the
//! paper's sequence end to end: start the monitor, idle two seconds, send
//! the reset SIGINFO, meter the workload, send the closing SIGINFO, shut
//! down — then round-trips the sample through the text format (because the
//! paper's numbers all passed through that file).

use crate::format;
use crate::model::{PowerModel, WorkClass};
use crate::sampler::{Activity, Sampler, SamplerError};
use oranges_soc::chip::ChipGeneration;
use oranges_soc::time::SimDuration;

/// Result of one measured run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerReading {
    /// Average CPU rail power over the workload window, mW.
    pub cpu_mw: f64,
    /// Average GPU rail power, mW.
    pub gpu_mw: f64,
    /// Average DRAM rail power, mW.
    pub dram_mw: f64,
    /// The tool's combined line (CPU + GPU + ANE), mW.
    pub combined_mw: f64,
    /// Workload window length.
    pub window: SimDuration,
    /// Energy over the window, joules.
    pub energy_j: f64,
}

impl PowerReading {
    /// Package power (combined + DRAM) in watts.
    pub fn package_watts(&self) -> f64 {
        (self.combined_mw + self.dram_mw) / 1e3
    }

    /// GFLOPS/W given the FLOPs the metered run performed — the Figure 4
    /// quantity.
    pub fn gflops_per_watt(&self, flops: u64) -> f64 {
        let secs = self.window.as_secs_f64();
        let watts = self.package_watts();
        if secs <= 0.0 || watts <= 0.0 {
            return 0.0;
        }
        (flops as f64 / secs / 1e9) / watts
    }
}

/// A measurement session bound to one chip's power model.
#[derive(Debug, Clone, Copy)]
pub struct PowerSession {
    model: PowerModel,
    warmup: SimDuration,
}

impl PowerSession {
    /// Session for a chip with the paper's two-second warm-up.
    pub fn new(chip: ChipGeneration) -> Self {
        PowerSession {
            model: PowerModel::of(chip),
            warmup: SimDuration::from_secs_f64(2.0),
        }
    }

    /// The underlying model.
    pub fn model(&self) -> &PowerModel {
        &self.model
    }

    /// Measure a workload interval: `class` running for `duration` at
    /// `duty`. Follows the full start → warm-up → SIGINFO → run → SIGINFO
    /// → stop protocol and round-trips through the text format.
    pub fn measure(
        &self,
        class: WorkClass,
        duration: SimDuration,
        duty: f64,
    ) -> Result<PowerReading, SamplerError> {
        let mut sampler = Sampler::start(self.model);
        // Warm-up, discarded by the first SIGINFO.
        sampler.idle(self.warmup)?;
        sampler.siginfo()?;
        // The metered run.
        sampler.record(Activity {
            class,
            duration,
            duty,
        })?;
        let sample = sampler.siginfo()?;
        sampler.stop();

        // The paper's pipeline goes through the text file; so do we, so
        // that any formatting loss (integer mW) is part of the result.
        let text = format::write_sample(&sample);
        let parsed = format::parse_sample(&text).expect("emitter output must parse");

        Ok(PowerReading {
            cpu_mw: parsed.powers.cpu_mw,
            gpu_mw: parsed.powers.gpu_mw,
            dram_mw: parsed.powers.dram_mw,
            combined_mw: parsed.combined_mw,
            window: sample.window(),
            energy_j: sample.energy_j,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_protocol_yields_calibrated_power() {
        let session = PowerSession::new(ChipGeneration::M4);
        let reading = session
            .measure(WorkClass::GpuCutlass, SimDuration::from_secs_f64(2.0), 1.0)
            .unwrap();
        // M4 + Cutlass: the paper's ~18.5 W hotspot (± rounding to mW).
        assert!(
            (reading.package_watts() - 18.5).abs() < 0.3,
            "{}",
            reading.package_watts()
        );
        assert!(reading.gpu_mw > reading.cpu_mw);
        assert_eq!(reading.window, SimDuration::from_secs_f64(2.0));
    }

    #[test]
    fn warmup_is_excluded_from_the_window() {
        let session = PowerSession::new(ChipGeneration::M1);
        let reading = session
            .measure(WorkClass::CpuSingle, SimDuration::from_secs_f64(0.5), 1.0)
            .unwrap();
        assert_eq!(reading.window, SimDuration::from_secs_f64(0.5));
        // Energy is power × window, not power × (warmup + window).
        let implied_w = reading.energy_j / reading.window.as_secs_f64();
        assert!((implied_w - reading.package_watts()).abs() < 0.01);
    }

    #[test]
    fn gflops_per_watt_matches_figure4_for_mps() {
        // 1 second of M3 MPS at its measured 2.47 TFLOPS.
        let session = PowerSession::new(ChipGeneration::M3);
        let reading = session
            .measure(WorkClass::GpuMps, SimDuration::from_secs_f64(1.0), 1.0)
            .unwrap();
        let flops = 2.47e12 as u64;
        let eff = reading.gflops_per_watt(flops);
        // Paper: 0.46 TFLOPS/W on M3. Idle floor + mW rounding cost a bit.
        assert!((eff / 1e3 - 0.46).abs() < 0.02, "{eff}");
    }

    #[test]
    fn cpu_classes_report_cpu_rail() {
        let session = PowerSession::new(ChipGeneration::M2);
        let reading = session
            .measure(
                WorkClass::CpuAccelerate,
                SimDuration::from_secs_f64(1.0),
                1.0,
            )
            .unwrap();
        assert!(reading.cpu_mw > 10.0 * reading.gpu_mw.max(1.0));
    }

    #[test]
    fn degenerate_inputs() {
        let session = PowerSession::new(ChipGeneration::M1);
        let err = session.measure(WorkClass::Idle, SimDuration::ZERO, 0.0);
        assert_eq!(err.unwrap_err(), SamplerError::EmptyWindow);
        let reading = session
            .measure(WorkClass::GpuMps, SimDuration::from_nanos(1), 0.0)
            .unwrap();
        assert!(reading.package_watts() < 0.25, "idle duty gives the floor");
    }
}
