//! The manual sampler — `powermetrics -i 0 -a 0` with SIGINFO windows.
//!
//! The paper's protocol (§3.3): start the monitor without automatic
//! sampling; after a two-second warm-up send SIGINFO to *reset* the
//! sampler; run the multiplication; send SIGINFO again — the tool then
//! reports totals "between startup/previous signals", which the paper
//! "confirmed empirically while exploring the tool". The simulator
//! reproduces those exact semantics over virtual time.

use crate::model::{PowerModel, WorkClass};
use crate::rails::{RailEnergy, RailPowers};
use oranges_soc::time::{SimDuration, SimInstant};
use std::fmt;

/// A workload interval to be metered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Activity {
    /// Implementation class (the calibration key).
    pub class: WorkClass,
    /// Total interval length.
    pub duration: SimDuration,
    /// Busy fraction of the interval (engine-active time ÷ total; dispatch
    /// overhead counts as idle).
    pub duty: f64,
}

impl Activity {
    /// An activity fully busy for `duration`.
    pub fn busy(class: WorkClass, duration: SimDuration) -> Self {
        Activity {
            class,
            duration,
            duty: 1.0,
        }
    }
}

/// One emitted sample (a SIGINFO window).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Window start on the virtual timeline.
    pub window_start: SimInstant,
    /// Window end.
    pub window_end: SimInstant,
    /// Average rail powers over the window.
    pub powers: RailPowers,
    /// Total energy over the window, joules.
    pub energy_j: f64,
}

impl Sample {
    /// Window length.
    pub fn window(&self) -> SimDuration {
        self.window_end - self.window_start
    }
}

/// Sampler misuse errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplerError {
    /// Signal or record after `stop`.
    Stopped,
    /// A zero-length window (two signals with no time in between).
    EmptyWindow,
}

impl fmt::Display for SamplerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SamplerError::Stopped => write!(f, "sampler already stopped"),
            SamplerError::EmptyWindow => write!(f, "SIGINFO window contains no elapsed time"),
        }
    }
}

impl std::error::Error for SamplerError {}

/// The manual sampler.
#[derive(Debug)]
pub struct Sampler {
    model: PowerModel,
    now: SimInstant,
    window_start: SimInstant,
    energy: RailEnergy,
    samples: Vec<Sample>,
    stopped: bool,
}

impl Sampler {
    /// Start the monitor (`powermetrics -i 0 -a 0 -s cpu_power,gpu_power`).
    pub fn start(model: PowerModel) -> Self {
        Sampler {
            model,
            now: SimInstant::EPOCH,
            window_start: SimInstant::EPOCH,
            energy: RailEnergy::ZERO,
            samples: Vec::new(),
            stopped: false,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimInstant {
        self.now
    }

    /// Meter a workload interval.
    pub fn record(&mut self, activity: Activity) -> Result<(), SamplerError> {
        if self.stopped {
            return Err(SamplerError::Stopped);
        }
        let powers = self.model.powers(activity.class, activity.duty);
        self.energy
            .accumulate(powers, activity.duration.as_secs_f64());
        self.now = self.now + activity.duration;
        Ok(())
    }

    /// Let the system idle for `duration` (the paper's warm-up and
    /// settle periods).
    pub fn idle(&mut self, duration: SimDuration) -> Result<(), SamplerError> {
        self.record(Activity {
            class: WorkClass::Idle,
            duration,
            duty: 0.0,
        })
    }

    /// SIGINFO: close the current window, emit a sample, reset the
    /// accumulator. The first SIGINFO after start discards the warm-up
    /// exactly like the paper's reset signal.
    pub fn siginfo(&mut self) -> Result<Sample, SamplerError> {
        if self.stopped {
            return Err(SamplerError::Stopped);
        }
        let window = self.now - self.window_start;
        if window.is_zero() {
            return Err(SamplerError::EmptyWindow);
        }
        let sample = Sample {
            window_start: self.window_start,
            window_end: self.now,
            powers: self.energy.average_over(window.as_secs_f64()),
            energy_j: self.energy.total_joules(),
        };
        self.samples.push(sample);
        self.window_start = self.now;
        self.energy = RailEnergy::ZERO;
        Ok(sample)
    }

    /// Shut the monitor down; returns every emitted sample.
    pub fn stop(mut self) -> Vec<Sample> {
        self.stopped = true;
        std::mem::take(&mut self.samples)
    }

    /// Samples emitted so far.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oranges_soc::chip::ChipGeneration;

    fn sampler() -> Sampler {
        Sampler::start(PowerModel::of(ChipGeneration::M2))
    }

    #[test]
    fn paper_protocol_isolates_the_workload_window() {
        let mut s = sampler();
        // 2 s warm-up, then the reset SIGINFO.
        s.idle(SimDuration::from_secs_f64(2.0)).unwrap();
        let warmup = s.siginfo().unwrap();
        // The workload window: 1 s of full-tilt MPS.
        s.record(Activity::busy(
            WorkClass::GpuMps,
            SimDuration::from_secs_f64(1.0),
        ))
        .unwrap();
        let run = s.siginfo().unwrap();

        // Warm-up window: idle floor only.
        assert!(warmup.powers.package_watts() < 0.25);
        // Run window: the calibrated MPS power (idle floor included).
        let expected = PowerModel::of(ChipGeneration::M2).powers(WorkClass::GpuMps, 1.0);
        assert!((run.powers.package_mw() - expected.package_mw()).abs() < 1.0);
        assert_eq!(run.window(), SimDuration::from_secs_f64(1.0));
    }

    #[test]
    fn duty_cycle_dilutes_window_average() {
        let mut s = sampler();
        // Half the window busy, half overhead-idle.
        s.record(Activity {
            class: WorkClass::GpuNaive,
            duration: SimDuration::from_secs_f64(1.0),
            duty: 0.5,
        })
        .unwrap();
        let sample = s.siginfo().unwrap();
        let full = PowerModel::of(ChipGeneration::M2).powers(WorkClass::GpuNaive, 1.0);
        assert!(sample.powers.package_mw() < 0.6 * full.package_mw());
    }

    #[test]
    fn empty_window_is_an_error() {
        let mut s = sampler();
        assert_eq!(s.siginfo().unwrap_err(), SamplerError::EmptyWindow);
        s.idle(SimDuration::from_millis(10)).unwrap();
        assert!(s.siginfo().is_ok());
        // Immediately again: empty.
        assert_eq!(s.siginfo().unwrap_err(), SamplerError::EmptyWindow);
    }

    #[test]
    fn energy_is_power_times_time() {
        let mut s = sampler();
        s.record(Activity::busy(
            WorkClass::CpuAccelerate,
            SimDuration::from_secs_f64(3.0),
        ))
        .unwrap();
        let sample = s.siginfo().unwrap();
        let expected_j = sample.powers.package_mw() / 1e3 * 3.0;
        assert!((sample.energy_j - expected_j).abs() < 1e-6);
    }

    #[test]
    fn mixed_window_averages_components() {
        let mut s = sampler();
        s.record(Activity::busy(
            WorkClass::CpuSingle,
            SimDuration::from_secs_f64(1.0),
        ))
        .unwrap();
        s.idle(SimDuration::from_secs_f64(1.0)).unwrap();
        let sample = s.siginfo().unwrap();
        let model = PowerModel::of(ChipGeneration::M2);
        let busy = model.powers(WorkClass::CpuSingle, 1.0).package_mw();
        let idle = model.idle_powers().package_mw();
        let expected = (busy + idle) / 2.0;
        assert!((sample.powers.package_mw() - expected).abs() < 1.0);
    }

    #[test]
    fn stop_finalizes() {
        let mut s = sampler();
        s.idle(SimDuration::from_secs_f64(1.0)).unwrap();
        s.siginfo().unwrap();
        let samples = s.stop();
        assert_eq!(samples.len(), 1);
    }

    #[test]
    fn virtual_time_advances() {
        let mut s = sampler();
        assert_eq!(s.now(), SimInstant::EPOCH);
        s.idle(SimDuration::from_secs_f64(2.5)).unwrap();
        assert_eq!(s.now().as_nanos(), 2_500_000_000);
    }
}
