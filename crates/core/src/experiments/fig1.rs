//! Figure 1 — STREAM bandwidth per chip, CPU and GPU, vs theoretical.

use crate::experiments::experiment::{
    chip_mismatch, Experiment, ExperimentError, ExperimentOutput,
};
use crate::platform::Platform;
use oranges_harness::figure::{grouped_bar_chart, Bar, BarGroup};
use oranges_harness::metric::{self, MetricSet};
use oranges_soc::chip::ChipGeneration;
use oranges_stream::cpu::CpuStream;
use oranges_stream::gpu::GpuStream;
use oranges_umem::bandwidth::StreamKernelKind;

/// One bandwidth measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig1Point {
    /// Chip.
    pub chip: ChipGeneration,
    /// "CPU" or "GPU".
    pub agent: &'static str,
    /// Kernel name.
    pub kernel: &'static str,
    /// Best bandwidth across reps (and thread sweep for CPU), GB/s.
    pub gbs: f64,
}

/// The full Figure 1 dataset.
#[derive(Debug, Clone)]
pub struct Fig1Data {
    /// All 32 bars (4 chips × 2 agents × 4 kernels).
    pub points: Vec<Fig1Point>,
    /// The theoretical line per chip.
    pub theoretical: Vec<(ChipGeneration, f64)>,
}

impl Fig1Data {
    /// Best bandwidth for (chip, agent).
    pub fn best(&self, chip: ChipGeneration, agent: &str) -> f64 {
        self.points
            .iter()
            .filter(|p| p.chip == chip && p.agent == agent)
            .map(|p| p.gbs)
            .fold(0.0, f64::max)
    }

    /// One bar's value.
    pub fn value(&self, chip: ChipGeneration, agent: &str, kernel: &str) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.chip == chip && p.agent == agent && p.kernel == kernel)
            .map(|p| p.gbs)
    }
}

/// One chip's bars (8: 2 agents × 4 kernels) with the paper's
/// configuration (10 CPU reps with thread sweep, 20 GPU reps, maxima
/// reported).
pub(crate) fn run_chip(chip: ChipGeneration) -> Vec<Fig1Point> {
    let mut points = Vec::with_capacity(8);
    let cpu = CpuStream::new(chip).run();
    for result in &cpu.results {
        points.push(Fig1Point {
            chip,
            agent: "CPU",
            kernel: result.kernel.name(),
            gbs: result.best_gbs,
        });
    }
    let gpu = GpuStream::new(chip)
        .run()
        .expect("standard kernels present");
    for result in &gpu.results {
        points.push(Fig1Point {
            chip,
            agent: "GPU",
            kernel: result.kernel.name(),
            gbs: result.best_gbs,
        });
    }
    points
}

/// Run the full experiment across all chips.
pub fn run() -> Fig1Data {
    let mut points = Vec::with_capacity(32);
    let mut theoretical = Vec::with_capacity(4);
    for chip in ChipGeneration::ALL {
        theoretical.push((chip, chip.spec().memory_bandwidth_gbs));
        points.extend(run_chip(chip));
    }
    Fig1Data {
        points,
        theoretical,
    }
}

/// Render the ASCII version of Figure 1.
pub fn render(data: &Fig1Data) -> String {
    let groups: Vec<BarGroup> = ChipGeneration::ALL
        .iter()
        .map(|chip| {
            let mut bars = Vec::with_capacity(8);
            for agent in ["CPU", "GPU"] {
                for kernel in StreamKernelKind::ALL {
                    if let Some(gbs) = data.value(*chip, agent, kernel.name()) {
                        bars.push(Bar {
                            label: format!("{} ({agent})", kernel.name()),
                            value: gbs,
                        });
                    }
                }
            }
            let reference = data
                .theoretical
                .iter()
                .find(|(c, _)| c == chip)
                .map(|(_, gbs)| *gbs);
            BarGroup {
                label: chip.name().to_string(),
                bars,
                reference,
            }
        })
        .collect();
    grouped_bar_chart(
        "Fig. 1. STREAM benchmark results of each processor (GB/s, | = theoretical)",
        "GB/s",
        &groups,
        48,
    )
}

/// Convert bandwidth points to provenance-stamped [`MetricSet`]s — one
/// per bar, implementation `"Kernel (Agent)"`, metric `gbs`.
pub(crate) fn metric_sets(points: &[Fig1Point]) -> Vec<MetricSet> {
    points
        .iter()
        .map(|p| {
            MetricSet::for_chip("fig1", &format!("chip={}", p.chip.name()), p.chip.name())
                .with_implementation(&format!("{} ({})", p.kernel, p.agent))
                .metric("gbs", p.gbs, "GB/s")
        })
        .collect()
}

/// The kernel and agent of an implementation label [`metric_sets`]
/// writes (`"Triad (GPU)"` → `("Triad", "GPU")`); `None` for any other
/// label.
pub(crate) fn kernel_and_agent(implementation: &str) -> Option<(&str, &str)> {
    implementation.strip_suffix(')')?.split_once(" (")
}

/// CSV of the dataset, through the generic metric emitter.
pub fn to_csv(data: &Fig1Data) -> String {
    metric::rows_to_csv(&metric::rows(&metric_sets(&data.points)))
}

/// Figure 1 as a schedulable unit: one chip's STREAM bars.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fig1Experiment {
    /// Chip under test.
    pub chip: ChipGeneration,
}

impl Experiment for Fig1Experiment {
    fn id(&self) -> &'static str {
        "fig1"
    }

    fn params(&self) -> String {
        format!("chip={}", self.chip.name())
    }

    fn chip(&self) -> Option<ChipGeneration> {
        Some(self.chip)
    }

    fn run(&self, platform: &mut Platform) -> Result<ExperimentOutput, ExperimentError> {
        if platform.chip() != self.chip {
            return Err(chip_mismatch(self.chip, platform.chip()));
        }
        ExperimentOutput::from_sets(metric_sets(&run_chip(self.chip)), None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;

    #[test]
    fn dataset_shape() {
        let data = run();
        assert_eq!(data.points.len(), 32, "4 chips x 2 agents x 4 kernels");
        assert_eq!(data.theoretical.len(), 4);
    }

    #[test]
    fn matches_paper_anchors() {
        let data = run();
        for (chip, expected) in paper::FIG1_CPU_BEST_GBS {
            let got = data.best(chip, "CPU");
            assert!(
                paper::relative_error(got, expected) < 0.02,
                "{chip} CPU: {got}"
            );
        }
        for (chip, expected) in paper::FIG1_GPU_BEST_GBS {
            let got = data.best(chip, "GPU");
            assert!(
                paper::relative_error(got, expected) < 0.03,
                "{chip} GPU: {got}"
            );
        }
    }

    #[test]
    fn render_and_csv() {
        let data = run();
        let chart = render(&data);
        assert!(chart.contains("M1"));
        assert!(chart.contains("Triad (GPU)"));
        assert!(chart.contains("theoretical"));
        let csv = to_csv(&data);
        assert_eq!(csv.lines().count(), 33);
        assert!(csv.starts_with("experiment,chip,implementation,n,metric,type,value,unit"));
        assert!(csv.contains("fig1,M1,Triad (GPU),,gbs,float,"));
    }

    #[test]
    fn experiment_unit_emits_provenance_stamped_sets() {
        use crate::experiments::Experiment as _;
        let mut platform = crate::platform::Platform::new(ChipGeneration::M1);
        let experiment = Fig1Experiment {
            chip: ChipGeneration::M1,
        };
        let output = experiment.run(&mut platform).unwrap();
        assert_eq!(output.sets.len(), 8, "2 agents x 4 kernels");
        for set in &output.sets {
            assert_eq!(set.provenance.experiment, "fig1");
            assert_eq!(set.provenance.chip.as_deref(), Some("M1"));
            assert_eq!(set.provenance.params, experiment.params());
            assert_eq!(set.metrics.len(), 1);
            assert_eq!(set.metrics[0].unit, "GB/s");
        }
    }

    #[test]
    fn kernel_and_agent_reads_back_every_label_metric_sets_writes() {
        let points = run().points;
        for (set, point) in metric_sets(&points).iter().zip(&points) {
            let label = set.implementation.as_deref().expect("labelled");
            assert_eq!(kernel_and_agent(label), Some((point.kernel, point.agent)));
        }
        assert_eq!(kernel_and_agent("GPU-MPS"), None);
        assert_eq!(kernel_and_agent("Triad GPU"), None);
    }
}
