//! Power rails — the quantities `powermetrics` reports.

use std::ops::{Add, AddAssign, Mul};

/// Instantaneous (or window-averaged) power per rail, in milliwatts.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RailPowers {
    /// CPU clusters (P + E + AMX).
    pub cpu_mw: f64,
    /// GPU.
    pub gpu_mw: f64,
    /// Neural Engine.
    pub ane_mw: f64,
    /// Unified-memory DRAM.
    pub dram_mw: f64,
}

impl RailPowers {
    /// All-zero rails.
    pub const ZERO: RailPowers = RailPowers {
        cpu_mw: 0.0,
        gpu_mw: 0.0,
        ane_mw: 0.0,
        dram_mw: 0.0,
    };

    /// The "Combined Power (CPU + GPU + ANE)" line of the tool's output.
    /// (Real powermetrics excludes DRAM from this line; so do we.)
    pub fn combined_mw(&self) -> f64 {
        self.cpu_mw + self.gpu_mw + self.ane_mw
    }

    /// Total package power including DRAM, mW.
    pub fn package_mw(&self) -> f64 {
        self.combined_mw() + self.dram_mw
    }

    /// Package power in watts.
    pub fn package_watts(&self) -> f64 {
        self.package_mw() / 1e3
    }

    /// Clamp package power to a budget (thermal envelope), scaling every
    /// rail proportionally.
    pub fn clamped_to_watts(&self, budget_w: f64) -> RailPowers {
        let package = self.package_mw();
        let budget_mw = budget_w * 1e3;
        if package <= budget_mw || package <= 0.0 {
            return *self;
        }
        let scale = budget_mw / package;
        *self * scale
    }
}

impl Add for RailPowers {
    type Output = RailPowers;
    fn add(self, rhs: RailPowers) -> RailPowers {
        RailPowers {
            cpu_mw: self.cpu_mw + rhs.cpu_mw,
            gpu_mw: self.gpu_mw + rhs.gpu_mw,
            ane_mw: self.ane_mw + rhs.ane_mw,
            dram_mw: self.dram_mw + rhs.dram_mw,
        }
    }
}

impl AddAssign for RailPowers {
    fn add_assign(&mut self, rhs: RailPowers) {
        *self = *self + rhs;
    }
}

impl Mul<f64> for RailPowers {
    type Output = RailPowers;
    fn mul(self, s: f64) -> RailPowers {
        RailPowers {
            cpu_mw: self.cpu_mw * s,
            gpu_mw: self.gpu_mw * s,
            ane_mw: self.ane_mw * s,
            dram_mw: self.dram_mw * s,
        }
    }
}

/// Energy accumulated per rail, in millijoules.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RailEnergy {
    /// CPU energy, mJ.
    pub cpu_mj: f64,
    /// GPU energy, mJ.
    pub gpu_mj: f64,
    /// ANE energy, mJ.
    pub ane_mj: f64,
    /// DRAM energy, mJ.
    pub dram_mj: f64,
}

impl RailEnergy {
    /// Zero energy.
    pub const ZERO: RailEnergy = RailEnergy {
        cpu_mj: 0.0,
        gpu_mj: 0.0,
        ane_mj: 0.0,
        dram_mj: 0.0,
    };

    /// Accumulate `powers` held for `secs`.
    pub fn accumulate(&mut self, powers: RailPowers, secs: f64) {
        self.cpu_mj += powers.cpu_mw * secs;
        self.gpu_mj += powers.gpu_mw * secs;
        self.ane_mj += powers.ane_mw * secs;
        self.dram_mj += powers.dram_mw * secs;
    }

    /// Average powers over a window of `secs`.
    pub fn average_over(&self, secs: f64) -> RailPowers {
        if secs <= 0.0 {
            return RailPowers::ZERO;
        }
        RailPowers {
            cpu_mw: self.cpu_mj / secs,
            gpu_mw: self.gpu_mj / secs,
            ane_mw: self.ane_mj / secs,
            dram_mw: self.dram_mj / secs,
        }
    }

    /// Total energy in joules (all rails).
    pub fn total_joules(&self) -> f64 {
        (self.cpu_mj + self.gpu_mj + self.ane_mj + self.dram_mj) / 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combined_excludes_dram() {
        let p = RailPowers {
            cpu_mw: 100.0,
            gpu_mw: 200.0,
            ane_mw: 10.0,
            dram_mw: 50.0,
        };
        assert_eq!(p.combined_mw(), 310.0);
        assert_eq!(p.package_mw(), 360.0);
        assert!((p.package_watts() - 0.36).abs() < 1e-12);
    }

    #[test]
    fn clamp_scales_proportionally() {
        let p = RailPowers {
            cpu_mw: 10_000.0,
            gpu_mw: 20_000.0,
            ane_mw: 0.0,
            dram_mw: 10_000.0,
        };
        let clamped = p.clamped_to_watts(20.0);
        assert!((clamped.package_mw() - 20_000.0).abs() < 1e-6);
        // Ratios preserved.
        assert!((clamped.gpu_mw / clamped.cpu_mw - 2.0).abs() < 1e-9);
        // Below-budget rails untouched.
        let small = RailPowers {
            cpu_mw: 1000.0,
            ..RailPowers::ZERO
        };
        assert_eq!(small.clamped_to_watts(20.0), small);
    }

    #[test]
    fn energy_accumulates_and_averages() {
        let mut e = RailEnergy::ZERO;
        let p = RailPowers {
            cpu_mw: 5000.0,
            gpu_mw: 1000.0,
            ane_mw: 0.0,
            dram_mw: 500.0,
        };
        e.accumulate(p, 2.0);
        assert_eq!(e.cpu_mj, 10_000.0);
        let avg = e.average_over(4.0);
        assert_eq!(avg.cpu_mw, 2500.0);
        assert_eq!(avg.gpu_mw, 500.0);
        assert!((e.total_joules() - 13.0).abs() < 1e-9);
        assert_eq!(e.average_over(0.0), RailPowers::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = RailPowers {
            cpu_mw: 1.0,
            gpu_mw: 2.0,
            ane_mw: 3.0,
            dram_mw: 4.0,
        };
        let b = a + a;
        assert_eq!(b.cpu_mw, 2.0);
        assert_eq!((a * 3.0).dram_mw, 12.0);
        let mut c = a;
        c += a;
        assert_eq!(c, b);
    }
}
