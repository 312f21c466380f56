//! Simulated time for the SoC models.
//!
//! The paper measures kernel time with
//! `std::chrono::high_resolution_clock::now()` deltas at nanosecond
//! granularity (§4). The simulation mirrors that: every modeled engine
//! (CPU cluster, Accelerate, GPU, memory controller) prices its work as a
//! [`SimDuration`], a power sampler's windows run between [`SimInstant`]s,
//! and all reported FLOPS/bandwidth/power numbers are derived from those
//! spans, never from host wall-clock. This keeps every experiment
//! bit-reproducible regardless of the machine running it.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A span of simulated time with nanosecond resolution.
///
/// Stored as integer nanoseconds (like the paper's reported time deltas);
/// `u64` nanoseconds cover ~584 years, far beyond any benchmark run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration {
    nanos: u64,
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration { nanos: 0 };

    /// Construct from integer nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration { nanos }
    }

    /// Construct from integer microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration {
            nanos: micros * 1_000,
        }
    }

    /// Construct from integer milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration {
            nanos: millis * 1_000_000,
        }
    }

    /// Construct from fractional seconds, saturating at the `u64` range and
    /// clamping negatives/NaN to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs.is_nan() || secs <= 0.0 {
            return SimDuration::ZERO;
        }
        let nanos = secs * 1e9;
        if nanos >= u64::MAX as f64 {
            SimDuration { nanos: u64::MAX }
        } else {
            SimDuration {
                nanos: nanos.round() as u64,
            }
        }
    }

    /// Integer nanoseconds.
    pub const fn as_nanos(&self) -> u64 {
        self.nanos
    }

    /// Fractional seconds.
    pub fn as_secs_f64(&self) -> f64 {
        self.nanos as f64 / 1e9
    }

    /// Fractional milliseconds.
    pub fn as_millis_f64(&self) -> f64 {
        self.nanos as f64 / 1e6
    }

    /// True if this is the zero duration.
    pub const fn is_zero(&self) -> bool {
        self.nanos == 0
    }

    /// Saturating subtraction.
    pub const fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration {
            nanos: self.nanos.saturating_sub(rhs.nanos),
        }
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration {
            nanos: self.nanos.saturating_add(rhs.nanos),
        }
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.nanos = self.nanos.saturating_add(rhs.nanos);
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration {
            nanos: self.nanos.saturating_sub(rhs.nanos),
        }
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.nanos = self.nanos.saturating_sub(rhs.nanos);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration {
            nanos: self.nanos.saturating_mul(rhs),
        }
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.as_secs_f64() * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration {
            nanos: self.nanos / rhs.max(1),
        }
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |acc, d| acc + d)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.nanos;
        if ns < 1_000 {
            write!(f, "{ns} ns")
        } else if ns < 1_000_000 {
            write!(f, "{:.3} us", ns as f64 / 1e3)
        } else if ns < 1_000_000_000 {
            write!(f, "{:.3} ms", ns as f64 / 1e6)
        } else {
            write!(f, "{:.3} s", ns as f64 / 1e9)
        }
    }
}

/// A point on the virtual timeline (nanoseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimInstant {
    nanos: u64,
}

impl SimInstant {
    /// The simulation epoch (t = 0).
    pub const EPOCH: SimInstant = SimInstant { nanos: 0 };

    /// Construct from nanoseconds since epoch.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimInstant { nanos }
    }

    /// Nanoseconds since the epoch.
    pub const fn as_nanos(&self) -> u64 {
        self.nanos
    }

    /// Duration since an earlier instant (saturating at zero if `earlier` is
    /// actually later).
    pub const fn duration_since(&self, earlier: SimInstant) -> SimDuration {
        SimDuration::from_nanos(self.nanos.saturating_sub(earlier.nanos))
    }
}

impl Add<SimDuration> for SimInstant {
    type Output = SimInstant;
    fn add(self, rhs: SimDuration) -> SimInstant {
        SimInstant {
            nanos: self.nanos.saturating_add(rhs.as_nanos()),
        }
    }
}

impl Sub<SimInstant> for SimInstant {
    type Output = SimDuration;
    fn sub(self, rhs: SimInstant) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl fmt::Display for SimInstant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration::from_nanos(self.nanos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_micros(1).as_nanos(), 1_000);
        assert_eq!(SimDuration::from_millis(1).as_nanos(), 1_000_000);
        assert_eq!(SimDuration::from_secs_f64(1.5).as_nanos(), 1_500_000_000);
    }

    #[test]
    fn from_secs_f64_clamps_pathological_inputs() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_secs_f64(f64::INFINITY).as_nanos(),
            u64::MAX
        );
    }

    #[test]
    fn arithmetic_saturates() {
        let max = SimDuration::from_nanos(u64::MAX);
        assert_eq!((max + SimDuration::from_nanos(1)).as_nanos(), u64::MAX);
        assert_eq!(
            SimDuration::ZERO - SimDuration::from_nanos(5),
            SimDuration::ZERO
        );
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12 ns");
        assert_eq!(SimDuration::from_nanos(12_345).to_string(), "12.345 us");
        assert_eq!(SimDuration::from_millis(3).to_string(), "3.000 ms");
        assert_eq!(SimDuration::from_secs_f64(2.5).to_string(), "2.500 s");
    }

    #[test]
    fn instants_subtract_saturating() {
        let a = SimInstant::from_nanos(100);
        let b = SimInstant::from_nanos(250);
        assert_eq!((b - a).as_nanos(), 150);
        assert_eq!((a - b).as_nanos(), 0);
        assert_eq!((a + SimDuration::from_nanos(50)).as_nanos(), 150);
    }

    #[test]
    fn durations_sum() {
        let total: SimDuration = (1..=4).map(SimDuration::from_nanos).sum();
        assert_eq!(total.as_nanos(), 10);
    }

    #[test]
    fn min_max_behave() {
        let a = SimDuration::from_nanos(10);
        let b = SimDuration::from_nanos(20);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }
}
