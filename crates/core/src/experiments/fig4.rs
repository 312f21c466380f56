//! Figure 4 — power efficiency (GFLOPS/W), higher is better.
//!
//! Derived from the same runs as Figures 2–3: each cell's efficiency is
//! achieved-GFLOPS divided by window-averaged package watts.

use crate::experiments::experiment::{
    chip_mismatch, digest_sizes, Experiment, ExperimentError, ExperimentOutput,
};
use crate::platform::Platform;
use oranges_gemm::suite::skips_size;
use oranges_gemm::GemmError;
use oranges_harness::figure::{series_chart, Series, SeriesChartConfig};
use oranges_harness::metric::{self, MetricSet, PowerContext};
use oranges_harness::RepetitionProtocol;
use oranges_soc::chip::ChipGeneration;

/// Experiment configuration (same grid as Figure 3).
#[derive(Debug, Clone)]
pub struct Fig4Config {
    /// Matrix sizes (paper: 2048…16384).
    pub sizes: Vec<usize>,
    /// Chips to run.
    pub chips: Vec<ChipGeneration>,
}

impl Default for Fig4Config {
    fn default() -> Self {
        Fig4Config {
            sizes: vec![2048, 4096, 8192, 16384],
            chips: ChipGeneration::ALL.to_vec(),
        }
    }
}

/// One cell of the Figure 4 grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig4Point {
    /// Chip.
    pub chip: ChipGeneration,
    /// Implementation legend name.
    pub implementation: &'static str,
    /// Matrix size.
    pub n: usize,
    /// Efficiency, GFLOPS per watt.
    pub gflops_per_watt: f64,
    /// Power/thermal context of the measured window.
    pub power: PowerContext,
}

/// The full Figure 4 dataset.
#[derive(Debug, Clone)]
pub struct Fig4Data {
    /// All cells.
    pub points: Vec<Fig4Point>,
}

impl Fig4Data {
    /// Look up one cell.
    pub fn cell(&self, chip: ChipGeneration, implementation: &str, n: usize) -> Option<&Fig4Point> {
        self.points
            .iter()
            .find(|p| p.chip == chip && p.implementation == implementation && p.n == n)
    }

    /// Peak efficiency of an implementation on a chip.
    pub fn peak(&self, chip: ChipGeneration, implementation: &str) -> f64 {
        self.points
            .iter()
            .filter(|p| p.chip == chip && p.implementation == implementation)
            .map(|p| p.gflops_per_watt)
            .fold(0.0, f64::max)
    }
}

/// Run one chip's grid on an existing platform (the campaign path).
/// `config.chips` is ignored; the platform's chip decides the cells.
pub fn run_chip(platform: &mut Platform, config: &Fig4Config) -> Result<Vec<Fig4Point>, GemmError> {
    let chip = platform.chip();
    let mut points = Vec::new();
    for name in platform.implementation_names() {
        for &n in &config.sizes {
            if skips_size(name, n) {
                continue;
            }
            let run = platform.gemm_modeled(name, n)?;
            points.push(Fig4Point {
                chip,
                implementation: name,
                n,
                gflops_per_watt: run.gflops_per_watt(),
                power: run.power_context(),
            });
        }
    }
    Ok(points)
}

/// Run the experiment.
pub fn run(config: &Fig4Config) -> Result<Fig4Data, GemmError> {
    let mut points = Vec::new();
    for &chip in &config.chips {
        let mut platform = Platform::new(chip);
        points.extend(run_chip(&mut platform, config)?);
    }
    Ok(Fig4Data { points })
}

/// Figure 4 as a schedulable unit: one chip's efficiency grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fig4Experiment {
    /// Chip under test.
    pub chip: ChipGeneration,
    /// Matrix sizes (paper: 2048…16384).
    pub sizes: Vec<usize>,
}

impl Fig4Experiment {
    /// The paper's full per-chip grid.
    pub fn paper(chip: ChipGeneration) -> Self {
        Fig4Experiment {
            chip,
            sizes: Fig4Config::default().sizes,
        }
    }
}

impl Experiment for Fig4Experiment {
    fn id(&self) -> &'static str {
        "fig4"
    }

    fn params(&self) -> String {
        format!(
            "chip={};sizes={}",
            self.chip.name(),
            digest_sizes(&self.sizes)
        )
    }

    fn chip(&self) -> Option<ChipGeneration> {
        Some(self.chip)
    }

    fn protocol(&self) -> RepetitionProtocol {
        RepetitionProtocol::GEMM
    }

    fn run(&self, platform: &mut Platform) -> Result<ExperimentOutput, ExperimentError> {
        if platform.chip() != self.chip {
            return Err(chip_mismatch(self.chip, platform.chip()));
        }
        let config = Fig4Config {
            sizes: self.sizes.clone(),
            chips: vec![self.chip],
        };
        let points = run_chip(platform, &config)?;
        ExperimentOutput::from_sets(metric_sets(&points, &self.params()), None)
    }
}

/// Render one chip's panel (log-y efficiency, like the paper).
pub fn render_panel(data: &Fig4Data, chip: ChipGeneration) -> String {
    let mut names: Vec<&'static str> = data
        .points
        .iter()
        .filter(|p| p.chip == chip)
        .map(|p| p.implementation)
        .collect();
    names.dedup();
    let series: Vec<Series> = names
        .into_iter()
        .map(|name| Series {
            label: name.to_string(),
            points: data
                .points
                .iter()
                .filter(|p| p.chip == chip && p.implementation == name)
                .map(|p| (p.n as f64, Some(p.gflops_per_watt)))
                .collect(),
        })
        .collect();
    series_chart(
        &format!("Fig. 4 ({chip}). Power efficiency in GFLOPS per Watt, higher is better"),
        "GFLOPS/W",
        &series,
        SeriesChartConfig::default(),
    )
}

/// Convert efficiency cells to provenance-stamped [`MetricSet`]s.
pub fn metric_sets(points: &[Fig4Point], params: &str) -> Vec<MetricSet> {
    points
        .iter()
        .map(|p| {
            MetricSet::for_chip("fig4", params, p.chip.name())
                .with_implementation(p.implementation)
                .with_n(p.n as u64)
                .with_power(p.power)
                .metric("gflops_per_watt", p.gflops_per_watt, "GFLOPS/W")
        })
        .collect()
}

/// CSV of the dataset, through the generic metric emitter.
pub fn to_csv(data: &Fig4Data) -> String {
    metric::rows_to_csv(&metric::rows(&metric_sets(&data.points, "standalone")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;

    #[test]
    fn mps_and_accelerate_peaks_match_figure4() {
        let data = run(&Fig4Config::default()).unwrap();
        for implementation in ["GPU-MPS", "CPU-Accelerate"] {
            for chip in ChipGeneration::ALL {
                let expected =
                    paper::fig4_peak_tflops_per_watt(implementation, chip).unwrap() * 1e3;
                let got = data.peak(chip, implementation);
                assert!(
                    paper::relative_error(got, expected) < 0.08,
                    "{implementation} on {chip}: {got} vs {expected}"
                );
            }
        }
    }

    #[test]
    fn all_chips_reach_200_gflops_per_watt_with_mps() {
        // §5.3: "All four chips reached the efficiency of 200 GFLOPS per
        // Watt with GPU-MPS".
        let data = run(&Fig4Config::default()).unwrap();
        for chip in ChipGeneration::ALL {
            let peak = data.peak(chip, "GPU-MPS");
            assert!(peak >= paper::FIG4_MPS_FLOOR_GFLOPS_PER_W, "{chip}: {peak}");
        }
    }

    #[test]
    fn plain_cpu_loops_stay_under_one_gflops_per_watt() {
        // §5.3: "both CPU-single and OMP achieve less than 1 GFLOPS per
        // Watt across all four chips".
        let data = run(&Fig4Config::default()).unwrap();
        for chip in ChipGeneration::ALL {
            for implementation in ["CPU-Single", "CPU-OMP"] {
                let peak = data.peak(chip, implementation);
                assert!(
                    peak < paper::FIG4_PLAIN_CPU_CEILING_GFLOPS_PER_W,
                    "{implementation} on {chip}: {peak}"
                );
            }
        }
    }

    #[test]
    fn mps_roughly_10x_the_custom_shaders() {
        // §5.3: "about 10× higher efficiency than the other two GPU-based
        // implementations" — allow a wide band, it is a log-scale claim.
        let data = run(&Fig4Config::default()).unwrap();
        for chip in ChipGeneration::ALL {
            let mps = data.peak(chip, "GPU-MPS");
            for other in ["GPU-Naive", "GPU-CUTLASS"] {
                let ratio = mps / data.peak(chip, other);
                assert!(
                    (4.0..40.0).contains(&ratio),
                    "{chip} {other}: ratio {ratio}"
                );
            }
        }
    }

    #[test]
    fn render_and_csv() {
        let config = Fig4Config {
            chips: vec![ChipGeneration::M3],
            ..Fig4Config::default()
        };
        let data = run(&config).unwrap();
        let panel = render_panel(&data, ChipGeneration::M3);
        assert!(panel.contains("GFLOPS per Watt"));
        let csv = to_csv(&data);
        assert!(csv.starts_with("experiment,chip,implementation,n,metric,type,value,unit"));
        assert!(csv.contains("fig4,M3,GPU-MPS,2048,gflops_per_watt,float,"));
        // Every efficiency number carries its measurement context.
        let sets = metric_sets(&data.points, "test");
        assert!(sets
            .iter()
            .all(|s| s.provenance.power.unwrap().package_watts > 0.0));
    }
}
