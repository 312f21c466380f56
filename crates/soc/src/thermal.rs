//! Thermal envelope model.
//!
//! Table 3 shows the devices under test split between passively cooled
//! MacBook Airs (M1, M3) and actively cooled Mac minis (M2, M4), and §7
//! observes "Apple laptops with M1 and M3 SoCs have relatively lower Power
//! Dissipation compared to desktops (M2, M4), which might show the impact
//! of power strategy and cooling methods". The model is a first-order
//! lumped-capacitance system: package temperature integrates power in and
//! cooling out; crossing the throttle threshold lowers the DVFS cap.

use crate::time::SimDuration;

/// How a device sheds heat (Table 3 "Cooling").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoolingKind {
    /// Passive (fanless MacBook Air).
    Passive,
    /// Active air (Mac mini fan).
    ActiveAir,
}

impl CoolingKind {
    /// Sustained package power the solution can remove indefinitely, W.
    pub(crate) const fn sustained_watts(&self) -> f64 {
        match self {
            CoolingKind::Passive => 14.0,
            CoolingKind::ActiveAir => 28.0,
        }
    }

    /// Short-burst package power allowed before heat soak, W.
    pub const fn burst_watts(&self) -> f64 {
        match self {
            CoolingKind::Passive => 22.0,
            CoolingKind::ActiveAir => 40.0,
        }
    }

    /// Table 3 label.
    pub const fn label(&self) -> &'static str {
        match self {
            CoolingKind::Passive => "Passive",
            CoolingKind::ActiveAir => "Air",
        }
    }
}

/// First-order thermal state of a package.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalModel {
    cooling: CoolingKind,
    /// Thermal capacitance, J/°C (package + heat spreader).
    capacitance_j_per_c: f64,
    /// Ambient temperature, °C.
    ambient_c: f64,
    /// Junction temperature at which throttling begins, °C.
    throttle_c: f64,
    /// Current modeled package temperature, °C.
    temperature_c: f64,
}

impl ThermalModel {
    /// New model at ambient for a cooling solution.
    pub fn new(cooling: CoolingKind) -> Self {
        ThermalModel {
            cooling,
            capacitance_j_per_c: match cooling {
                CoolingKind::Passive => 60.0,
                CoolingKind::ActiveAir => 90.0,
            },
            ambient_c: 22.0,
            throttle_c: 95.0,
            temperature_c: 22.0,
        }
    }

    /// The cooling solution.
    pub fn cooling(&self) -> CoolingKind {
        self.cooling
    }

    /// Current modeled package temperature.
    pub fn temperature_c(&self) -> f64 {
        self.temperature_c
    }

    /// Integrate `power_w` dissipated over `dt`.
    ///
    /// Heat removal scales with the temperature delta to ambient, pinned so
    /// that at the throttle temperature the solution removes exactly its
    /// sustained wattage.
    pub fn integrate(&mut self, power_w: f64, dt: SimDuration) {
        let secs = dt.as_secs_f64();
        if secs <= 0.0 {
            return;
        }
        let delta_t = (self.temperature_c - self.ambient_c).max(0.0);
        // Pin the heat-removal curve so that dissipating exactly the
        // sustained wattage reaches equilibrium at 85% of the ambient→
        // throttle range, i.e. comfortably below the throttle point.
        let full_delta = 0.85 * (self.throttle_c - self.ambient_c);
        let removed_w = self.cooling.sustained_watts() * (delta_t / full_delta);
        let net_w = power_w.max(0.0) - removed_w;
        self.temperature_c += net_w * secs / self.capacitance_j_per_c;
        self.temperature_c = self.temperature_c.clamp(self.ambient_c, 130.0);
    }

    /// DVFS cap implied by the current temperature: 1.0 while cool,
    /// shrinking linearly once the package is within 5 °C of throttle.
    pub fn dvfs_cap(&self) -> f64 {
        let margin = self.throttle_c - self.temperature_c;
        if margin >= 5.0 {
            1.0
        } else if margin <= 0.0 {
            // Hard throttle floor: roughly the sustained/burst power ratio.
            self.cooling.sustained_watts() / self.cooling.burst_watts()
        } else {
            let floor = self.cooling.sustained_watts() / self.cooling.burst_watts();
            floor + (1.0 - floor) * (margin / 5.0)
        }
    }

    /// Reset to ambient (the paper reboots and idles between runs).
    pub fn reset(&mut self) {
        self.temperature_c = self.ambient_c;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passive_envelope_is_smaller() {
        assert!(CoolingKind::Passive.sustained_watts() < CoolingKind::ActiveAir.sustained_watts());
        assert!(CoolingKind::Passive.burst_watts() < CoolingKind::ActiveAir.burst_watts());
        assert_eq!(CoolingKind::Passive.label(), "Passive");
        assert_eq!(CoolingKind::ActiveAir.label(), "Air");
    }

    #[test]
    fn integrating_power_heats_the_package() {
        let mut t = ThermalModel::new(CoolingKind::Passive);
        let start = t.temperature_c();
        t.integrate(20.0, SimDuration::from_secs_f64(10.0));
        assert!(t.temperature_c() > start);
    }

    #[test]
    fn sustained_power_never_reaches_throttle() {
        let mut t = ThermalModel::new(CoolingKind::Passive);
        // Run at exactly the sustained wattage for a long time.
        for _ in 0..10_000 {
            t.integrate(
                CoolingKind::Passive.sustained_watts(),
                SimDuration::from_secs_f64(1.0),
            );
        }
        assert!(
            t.dvfs_cap() > 0.9,
            "cap {} at {:.1}C",
            t.dvfs_cap(),
            t.temperature_c()
        );
    }

    #[test]
    fn burst_power_eventually_throttles_passive() {
        let mut t = ThermalModel::new(CoolingKind::Passive);
        for _ in 0..10_000 {
            t.integrate(
                CoolingKind::Passive.burst_watts(),
                SimDuration::from_secs_f64(1.0),
            );
        }
        assert!(
            t.dvfs_cap() < 1.0,
            "cap {} at {:.1}C",
            t.dvfs_cap(),
            t.temperature_c()
        );
    }

    #[test]
    fn active_cooling_outlasts_passive_at_same_power() {
        let mut passive = ThermalModel::new(CoolingKind::Passive);
        let mut active = ThermalModel::new(CoolingKind::ActiveAir);
        for _ in 0..2_000 {
            passive.integrate(20.0, SimDuration::from_secs_f64(1.0));
            active.integrate(20.0, SimDuration::from_secs_f64(1.0));
        }
        assert!(active.temperature_c() < passive.temperature_c());
        assert!(active.dvfs_cap() >= passive.dvfs_cap());
    }

    #[test]
    fn reset_returns_to_ambient() {
        let mut t = ThermalModel::new(CoolingKind::ActiveAir);
        t.integrate(35.0, SimDuration::from_secs_f64(100.0));
        assert!(t.temperature_c() > 22.0);
        t.reset();
        assert_eq!(t.temperature_c(), 22.0);
        assert_eq!(t.dvfs_cap(), 1.0);
    }

    #[test]
    fn zero_duration_is_a_no_op() {
        let mut t = ThermalModel::new(CoolingKind::Passive);
        let before = t.temperature_c();
        t.integrate(100.0, SimDuration::ZERO);
        assert_eq!(t.temperature_c(), before);
    }

    #[test]
    fn temperature_is_clamped() {
        let mut t = ThermalModel::new(CoolingKind::Passive);
        t.integrate(10_000.0, SimDuration::from_secs_f64(1_000.0));
        assert!(t.temperature_c() <= 130.0);
        t.integrate(-10_000.0, SimDuration::from_secs_f64(1_000.0));
        assert!(t.temperature_c() >= 22.0);
    }
}
