//! The unified-memory controller.
//!
//! One controller per SoC arbitrates CPU, GPU and accelerator traffic into
//! the LPDDR channels (§2.4: "the memory controller dynamically allocates
//! resources across different compute units"). The controller owns the
//! theoretical-bandwidth math (channel count × transfer rate × bus width)
//! and the arbitration policy used when several agents stream at once.

use oranges_soc::chip::{ChipGeneration, ChipSpec, MemoryTechnology};

/// A bus agent — a client of the memory controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Agent {
    /// The CPU complex (both clusters; AMX loads/stores also arrive here).
    Cpu,
    /// The GPU.
    Gpu,
    /// The Neural Engine (modeled for arbitration completeness; the paper
    /// runs no ANE workloads).
    NeuralEngine,
}

impl Agent {
    /// Display label.
    pub const fn label(&self) -> &'static str {
        match self {
            Agent::Cpu => "CPU",
            Agent::Gpu => "GPU",
            Agent::NeuralEngine => "ANE",
        }
    }
}

/// The memory controller of one chip.
#[derive(Debug, Clone)]
pub struct MemoryController {
    chip: ChipGeneration,
    /// Total bus width in bits (128 on all baseline M-series chips).
    bus_width_bits: u32,
    /// Theoretical bandwidth, GB/s (Table 1).
    theoretical_gbs: f64,
}

impl MemoryController {
    /// Controller for a chip generation.
    pub fn of(chip: ChipGeneration) -> Self {
        let spec = chip.spec();
        MemoryController {
            chip,
            bus_width_bits: 128,
            theoretical_gbs: spec.memory_bandwidth_gbs,
        }
    }

    /// The chip this controller belongs to.
    pub fn chip(&self) -> ChipGeneration {
        self.chip
    }

    /// Theoretical bandwidth, GB/s.
    pub fn theoretical_gbs(&self) -> f64 {
        self.theoretical_gbs
    }

    /// Theoretical bandwidth from first principles:
    /// `transfer rate × bus width / 8`. Table 1's numbers are these values
    /// rounded to marketing figures; the derivation is exposed so tests can
    /// assert consistency.
    pub fn derived_gbs(&self) -> f64 {
        let spec: &ChipSpec = self.chip.spec();
        spec.memory.transfer_rate_mts() as f64 * 1e6 * (self.bus_width_bits as f64 / 8.0) / 1e9
    }

    /// The memory technology backing the pool.
    pub fn technology(&self) -> MemoryTechnology {
        self.chip.spec().memory
    }

    /// Share of bandwidth granted to each of `n` simultaneously streaming
    /// agents. Arbitration is near-fair with a small loss to switching
    /// overhead (3% per extra agent).
    pub fn arbitration_share(&self, active_agents: u32) -> f64 {
        if active_agents == 0 {
            return 0.0;
        }
        let fair = 1.0 / active_agents as f64;
        let overhead = 0.03 * (active_agents.saturating_sub(1)) as f64;
        fair * (1.0 - overhead).max(0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theoretical_matches_table1() {
        assert_eq!(
            MemoryController::of(ChipGeneration::M1).theoretical_gbs(),
            67.0
        );
        assert_eq!(
            MemoryController::of(ChipGeneration::M2).theoretical_gbs(),
            100.0
        );
        assert_eq!(
            MemoryController::of(ChipGeneration::M3).theoretical_gbs(),
            100.0
        );
        assert_eq!(
            MemoryController::of(ChipGeneration::M4).theoretical_gbs(),
            120.0
        );
    }

    #[test]
    fn derived_bandwidth_is_close_to_published() {
        // LPDDR4X-4266 × 128 bit = 68.3 GB/s vs published 67 (±3%).
        // LPDDR5-6400 × 128 bit = 102.4 vs 100; LPDDR5X-7500 × 128 = 120.
        for gen in ChipGeneration::ALL {
            let c = MemoryController::of(gen);
            let rel = (c.derived_gbs() - c.theoretical_gbs()).abs() / c.theoretical_gbs();
            assert!(
                rel < 0.03,
                "{gen}: derived {} vs published {}",
                c.derived_gbs(),
                c.theoretical_gbs()
            );
        }
    }

    #[test]
    fn technology_per_generation() {
        assert_eq!(
            MemoryController::of(ChipGeneration::M1).technology().name(),
            "LPDDR4X"
        );
        assert_eq!(
            MemoryController::of(ChipGeneration::M4).technology().name(),
            "LPDDR5X"
        );
    }

    #[test]
    fn arbitration_is_near_fair() {
        let c = MemoryController::of(ChipGeneration::M2);
        assert_eq!(c.arbitration_share(0), 0.0);
        assert_eq!(c.arbitration_share(1), 1.0);
        let two = c.arbitration_share(2);
        assert!(two < 0.5 && two > 0.45, "{two}");
        let three = c.arbitration_share(3);
        assert!(three < two);
    }

    #[test]
    fn agent_labels() {
        assert_eq!(Agent::Cpu.label(), "CPU");
        assert_eq!(Agent::Gpu.label(), "GPU");
        assert_eq!(Agent::NeuralEngine.label(), "ANE");
    }
}
