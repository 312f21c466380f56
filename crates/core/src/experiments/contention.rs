//! Extension experiment: unified-memory contention.
//!
//! §2.4 motivates the single memory controller that "dynamically
//! allocates resources across different compute units". The paper never
//! runs CPU and GPU STREAM *simultaneously*; this extension does, using
//! the controller's arbitration model — the natural next question for a
//! unified-memory SoC (and a real concern for heterogeneous HPC codes
//! that stream from both sides at once).

use crate::experiments::experiment::{
    chip_mismatch, Experiment, ExperimentError, ExperimentOutput,
};
use crate::platform::Platform;
use oranges_soc::chip::ChipGeneration;
use oranges_umem::bandwidth::{BandwidthModel, StreamKernelKind};
use oranges_umem::controller::Agent;

/// Bandwidth split when CPU and GPU stream concurrently.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContentionPoint {
    /// Chip.
    pub chip: ChipGeneration,
    /// CPU Triad bandwidth running alone, GB/s.
    pub cpu_alone_gbs: f64,
    /// GPU Triad bandwidth running alone, GB/s.
    pub gpu_alone_gbs: f64,
    /// CPU share under contention, GB/s.
    pub cpu_contended_gbs: f64,
    /// GPU share under contention, GB/s.
    pub gpu_contended_gbs: f64,
}

impl ContentionPoint {
    /// Aggregate bandwidth under contention.
    pub(crate) fn aggregate_gbs(&self) -> f64 {
        self.cpu_contended_gbs + self.gpu_contended_gbs
    }

    /// Aggregate as a fraction of the theoretical peak.
    pub(crate) fn aggregate_fraction(&self, chip: ChipGeneration) -> f64 {
        self.aggregate_gbs() / chip.spec().memory_bandwidth_gbs
    }
}

/// Run the contention experiment across all chips.
///
/// Each agent's solo Triad bandwidth is scaled by the controller's
/// two-agent arbitration share; the aggregate shows whether the unified
/// pool is fully utilized under mixed load.
pub fn run() -> Vec<ContentionPoint> {
    ChipGeneration::ALL
        .iter()
        .map(|&chip| run_chip(chip))
        .collect()
}

/// One chip's contention split.
pub(crate) fn run_chip(chip: ChipGeneration) -> ContentionPoint {
    let model = BandwidthModel::of(chip);
    let threads = chip.spec().total_cores();
    let cpu_alone = model.stream_gbs(Agent::Cpu, StreamKernelKind::Triad, threads);
    let gpu_alone = model.stream_gbs(Agent::Gpu, StreamKernelKind::Triad, 0);
    let share = model.controller().arbitration_share(2);
    // Each agent gets its arbitration share of the controller; it
    // can never use more than it could alone.
    let theoretical = chip.spec().memory_bandwidth_gbs;
    let cpu_contended = cpu_alone.min(theoretical * share);
    let gpu_contended = gpu_alone.min(theoretical * share);
    ContentionPoint {
        chip,
        cpu_alone_gbs: cpu_alone,
        gpu_alone_gbs: gpu_alone,
        cpu_contended_gbs: cpu_contended,
        gpu_contended_gbs: gpu_contended,
    }
}

/// The contention extension as a schedulable unit: one chip's split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContentionExperiment {
    /// Chip under test.
    pub chip: ChipGeneration,
}

impl Experiment for ContentionExperiment {
    fn id(&self) -> &'static str {
        "contention"
    }

    fn params(&self) -> String {
        format!("chip={};kernel=Triad", self.chip.name())
    }

    fn chip(&self) -> Option<ChipGeneration> {
        Some(self.chip)
    }

    fn run(&self, platform: &mut Platform) -> Result<ExperimentOutput, ExperimentError> {
        if platform.chip() != self.chip {
            return Err(chip_mismatch(self.chip, platform.chip()));
        }
        let point = run_chip(self.chip);
        let set = self
            .base_set()
            .metric("cpu_alone_gbs", point.cpu_alone_gbs, "GB/s")
            .metric("gpu_alone_gbs", point.gpu_alone_gbs, "GB/s")
            .metric("cpu_contended_gbs", point.cpu_contended_gbs, "GB/s")
            .metric("gpu_contended_gbs", point.gpu_contended_gbs, "GB/s")
            .metric("aggregate_gbs", point.aggregate_gbs(), "GB/s")
            .metric(
                "aggregate_fraction",
                point.aggregate_fraction(self.chip),
                "ratio",
            );
        ExperimentOutput::from_sets(vec![set], None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contention_degrades_each_agent_but_raises_aggregate() {
        for p in run() {
            assert!(p.cpu_contended_gbs <= p.cpu_alone_gbs, "{:?}", p);
            assert!(p.gpu_contended_gbs <= p.gpu_alone_gbs, "{:?}", p);
            // The shared pool still beats either agent alone.
            assert!(p.aggregate_gbs() > p.cpu_alone_gbs * 0.9, "{:?}", p);
            assert!(p.aggregate_gbs() > p.gpu_alone_gbs * 0.9, "{:?}", p);
        }
    }

    #[test]
    fn aggregate_never_exceeds_theoretical() {
        for p in run() {
            assert!(p.aggregate_fraction(p.chip) <= 1.0, "{:?}", p);
            // …but gets close: the controller is the shared bottleneck.
            assert!(p.aggregate_fraction(p.chip) > 0.80, "{:?}", p);
        }
    }
}
