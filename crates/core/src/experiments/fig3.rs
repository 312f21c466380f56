//! Figure 3 — power dissipation (mW) per implementation and matrix size.
//!
//! §4: "The power measurement occurs during the run in which CPU/GPU
//! performance is measured" — each cell wraps the same modeled run Figure 2
//! times in the powermetrics protocol and reads the sampled window back.
//! The figure's x-axis covers n ∈ {2048 … 16384}.

use crate::experiments::experiment::{
    chip_mismatch, digest_sizes, Experiment, ExperimentError, ExperimentOutput, GEMM_REPETITIONS,
};
use crate::platform::Platform;
use oranges_gemm::suite::skips_size;
use oranges_gemm::GemmError;
use oranges_harness::figure::{series_chart, Series, SeriesChartConfig};
use oranges_harness::metric::{self, MetricSet, PowerContext};
use oranges_soc::chip::ChipGeneration;

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct Fig3Config {
    /// Matrix sizes (the paper's Figure 3 shows 2048…16384).
    pub sizes: Vec<usize>,
    /// Chips to run.
    pub chips: Vec<ChipGeneration>,
}

impl Default for Fig3Config {
    fn default() -> Self {
        Fig3Config {
            sizes: vec![2048, 4096, 8192, 16384],
            chips: ChipGeneration::ALL.to_vec(),
        }
    }
}

/// One cell of the Figure 3 grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig3Point {
    /// Chip.
    pub chip: ChipGeneration,
    /// Implementation legend name.
    pub implementation: &'static str,
    /// Matrix size.
    pub n: usize,
    /// Package power over the run window, mW (mean over reps).
    pub power_mw: f64,
    /// Window duration of one run, seconds.
    pub window_s: f64,
    /// Energy of one run, joules.
    pub energy_j: f64,
}

/// The full Figure 3 dataset.
#[derive(Debug, Clone)]
pub struct Fig3Data {
    /// All cells.
    pub points: Vec<Fig3Point>,
}

impl Fig3Data {
    /// Look up one cell.
    pub fn cell(&self, chip: ChipGeneration, implementation: &str, n: usize) -> Option<&Fig3Point> {
        self.points
            .iter()
            .find(|p| p.chip == chip && p.implementation == implementation && p.n == n)
    }

    /// The hottest cell of the whole grid.
    pub fn hottest(&self) -> Option<&Fig3Point> {
        self.points
            .iter()
            .max_by(|a, b| a.power_mw.partial_cmp(&b.power_mw).expect("finite"))
    }
}

/// Run one chip's grid on an existing platform (the campaign path).
/// `config.chips` is ignored; the platform's chip decides the cells.
pub(crate) fn run_chip(
    platform: &mut Platform,
    config: &Fig3Config,
) -> Result<Vec<Fig3Point>, GemmError> {
    let chip = platform.chip();
    let mut points = Vec::new();
    for name in platform.implementation_names() {
        for &n in &config.sizes {
            if skips_size(name, n) {
                continue;
            }
            // Power piggybacks the five GEMM repetitions. One modeled run
            // stands for all five (the model path is pure, as the
            // platform test `modeled_runs_are_pure_functions_of_their_cell`
            // proves); its copies are still averaged, because the mean of
            // five equal f64s is not always that value and the campaign
            // fingerprints pin the averaged bits.
            let run = platform.gemm_modeled(name, n)?;
            let sample = (
                run.power.package_watts() * 1e3,
                run.power.window.as_secs_f64(),
                run.power.energy_j,
            );
            let samples = [sample; GEMM_REPETITIONS];
            let count = samples.len() as f64;
            let power_mw = samples.iter().map(|s| s.0).sum::<f64>() / count;
            let window_s = samples.iter().map(|s| s.1).sum::<f64>() / count;
            let energy_j = samples.iter().map(|s| s.2).sum::<f64>() / count;
            points.push(Fig3Point {
                chip,
                implementation: name,
                n,
                power_mw,
                window_s,
                energy_j,
            });
        }
    }
    Ok(points)
}

/// Run the experiment.
pub fn run(config: &Fig3Config) -> Result<Fig3Data, GemmError> {
    let mut points = Vec::new();
    for &chip in &config.chips {
        let mut platform = Platform::new(chip);
        points.extend(run_chip(&mut platform, config)?);
    }
    Ok(Fig3Data { points })
}

/// Figure 3 as a schedulable unit: one chip's power grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fig3Experiment {
    /// Chip under test.
    pub chip: ChipGeneration,
    /// Matrix sizes (paper: 2048…16384).
    pub sizes: Vec<usize>,
}

impl Fig3Experiment {
    /// The paper's full per-chip grid.
    pub fn paper(chip: ChipGeneration) -> Self {
        Fig3Experiment {
            chip,
            sizes: Fig3Config::default().sizes,
        }
    }
}

impl Experiment for Fig3Experiment {
    fn id(&self) -> &'static str {
        "fig3"
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

    fn run(&self, platform: &mut Platform) -> Result<ExperimentOutput, ExperimentError> {
        if platform.chip() != self.chip {
            return Err(chip_mismatch(self.chip, platform.chip()));
        }
        let config = Fig3Config {
            sizes: self.sizes.clone(),
            chips: vec![self.chip],
        };
        let points = run_chip(platform, &config)?;
        ExperimentOutput::from_sets(metric_sets(&points, &self.params()), None)
    }
}

/// Render one chip's panel (linear power axis, like the paper).
pub fn render_panel(data: &Fig3Data, chip: ChipGeneration) -> String {
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
                .map(|p| (p.n as f64, Some(p.power_mw)))
                .collect(),
        })
        .collect();
    series_chart(
        &format!("Fig. 3 ({chip}). Power utilization of each implementation varying matrix size"),
        "mW",
        &series,
        SeriesChartConfig {
            log_y: false,
            ..SeriesChartConfig::default()
        },
    )
}

/// Convert power cells to provenance-stamped [`MetricSet`]s; the cell's
/// window/energy become its [`PowerContext`].
pub(crate) fn metric_sets(points: &[Fig3Point], params: &str) -> Vec<MetricSet> {
    points
        .iter()
        .map(|p| {
            MetricSet::for_chip("fig3", params, p.chip.name())
                .with_implementation(p.implementation)
                .with_n(p.n as u64)
                .with_power(PowerContext {
                    package_watts: p.power_mw / 1e3,
                    energy_j: p.energy_j,
                    window_s: p.window_s,
                    dvfs_cap: 1.0,
                })
                .metric("power_mw", p.power_mw, "mW")
                .metric("energy_j", p.energy_j, "J")
        })
        .collect()
}

/// CSV of the dataset, through the generic metric emitter.
pub fn to_csv(data: &Fig3Data) -> String {
    metric::rows_to_csv(&metric::rows(&metric_sets(&data.points, "standalone")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> Fig3Config {
        Fig3Config {
            chips: vec![ChipGeneration::M1, ChipGeneration::M4],
            ..Fig3Config::default()
        }
    }

    #[test]
    fn m4_cutlass_is_the_hottest_cell() {
        // §5.3: "M4 exhibited the highest power consumption using the
        // Cutlass-style shader" — close to 20 W.
        let data = run(&Fig3Config::default()).unwrap();
        let hottest = data.hottest().unwrap();
        assert_eq!(hottest.chip, ChipGeneration::M4);
        assert_eq!(hottest.implementation, "GPU-CUTLASS");
        assert!(
            (15_000.0..=21_000.0).contains(&hottest.power_mw),
            "{}",
            hottest.power_mw
        );
    }

    #[test]
    fn power_range_matches_paper_band() {
        // §1: "Power consumption varies from a few Watts to 10-20 Watts".
        let data = run(&Fig3Config::default()).unwrap();
        for p in &data.points {
            assert!(p.power_mw < 21_000.0, "{p:?}");
        }
        // Large runs burn at least ~2 W somewhere.
        let max = data.hottest().unwrap().power_mw;
        assert!(max > 10_000.0);
    }

    #[test]
    fn gpu_power_collapses_at_small_sizes() {
        // §5.3: "CPU implementations in single and OMP for small problems
        // consume significantly higher power than GPU-based
        // implementations" — overhead leaves the GPU idle.
        let config = Fig3Config {
            sizes: vec![64],
            chips: vec![ChipGeneration::M2],
        };
        let data = run(&config).unwrap();
        let cpu = data
            .cell(ChipGeneration::M2, "CPU-Single", 64)
            .unwrap()
            .power_mw;
        let gpu = data
            .cell(ChipGeneration::M2, "GPU-MPS", 64)
            .unwrap()
            .power_mw;
        assert!(cpu > 3.0 * gpu, "CPU {cpu} mW vs GPU {gpu} mW");
    }

    #[test]
    fn skip_rules_and_csv() {
        let data = run(&small_config()).unwrap();
        assert!(data.cell(ChipGeneration::M1, "CPU-Single", 8192).is_none());
        let csv = to_csv(&data);
        assert!(csv.starts_with("experiment,chip,implementation,n,metric,type,value,unit"));
        assert!(csv.contains("fig3,M4,GPU-CUTLASS,16384,power_mw,float,"));
        let panel = render_panel(&data, ChipGeneration::M4);
        assert!(panel.contains("GPU-CUTLASS"));
    }

    #[test]
    fn sets_carry_the_window_as_power_context() {
        let data = run(&small_config()).unwrap();
        let sets = metric_sets(&data.points, "test");
        for (set, point) in sets.iter().zip(&data.points) {
            let power = set.provenance.power.expect("fig3 always measures power");
            assert!((power.package_watts - point.power_mw / 1e3).abs() < 1e-12);
            assert_eq!(power.window_s, point.window_s);
            assert_eq!(set.value("power_mw"), Some(point.power_mw));
        }
    }
}
