//! Figure 2 — GFLOPS for every implementation, size and chip.
//!
//! §4's protocol: sizes 32…16384 (powers of two), five repetitions each,
//! CPU-Single and CPU-OMP skipping 8192/16384. Functional verification
//! runs once per cell up to a configurable FLOP ceiling (the paper's
//! harness verifies numerics at small scale for the same reason: full
//! verification of an 8.8 TFLOP product is itself an 8.8 TFLOP job).
//! The ceiling is clamped to the backends' own functional ceiling
//! ([`DEFAULT_FUNCTIONAL_LIMIT`]): above it no backend computes, so a cell
//! there is reported unverified rather than generating operands that
//! nothing multiplies.

use crate::experiments::experiment::{
    chip_mismatch, digest_sizes, Experiment, ExperimentError, ExperimentOutput,
};
use crate::platform::Platform;
use oranges_gemm::suite::{paper_sizes, skips_size};
use oranges_gemm::{gemm_flops, verify_sampled, GemmError, Matrix, DEFAULT_FUNCTIONAL_LIMIT};
use oranges_harness::experiment::RepetitionProtocol;
use oranges_harness::figure::{series_chart, Series, SeriesChartConfig};
use oranges_harness::metric::{self, MetricSet, PowerContext};
use oranges_harness::stats::Summary;
use oranges_soc::chip::ChipGeneration;
use std::collections::HashMap;

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct Fig2Config {
    /// Matrix sizes to sweep.
    pub sizes: Vec<usize>,
    /// Repetition protocol (paper: 5 reps).
    pub protocol: RepetitionProtocol,
    /// Verify numerics functionally for cells at or below this many FLOPs
    /// (at most [`DEFAULT_FUNCTIONAL_LIMIT`]; a larger value is clamped).
    pub verify_max_flops: u64,
    /// Chips to run (default all four).
    pub chips: Vec<ChipGeneration>,
}

impl Default for Fig2Config {
    fn default() -> Self {
        Fig2Config {
            sizes: paper_sizes(),
            protocol: RepetitionProtocol::GEMM,
            verify_max_flops: gemm_flops(256),
            chips: ChipGeneration::ALL.to_vec(),
        }
    }
}

impl Fig2Config {
    /// A reduced grid for tests: three sizes, one verification cell.
    pub fn smoke() -> Self {
        Fig2Config {
            sizes: vec![64, 256, 1024],
            protocol: RepetitionProtocol::GEMM,
            verify_max_flops: gemm_flops(64),
            chips: vec![ChipGeneration::M1, ChipGeneration::M4],
        }
    }
}

/// One cell of the Figure 2 grid.
#[derive(Debug, Clone)]
pub struct Fig2Point {
    /// Chip.
    pub chip: ChipGeneration,
    /// Implementation legend name.
    pub implementation: &'static str,
    /// Matrix size.
    pub n: usize,
    /// Mean GFLOPS over the repetitions.
    pub gflops: f64,
    /// Repetition statistics (of GFLOPS).
    pub stats: Summary,
    /// The cell's one-shot functional verification: `Some(passed)` when
    /// its FLOPs are within the verification ceiling (the configured
    /// `verify_max_flops`, clamped to [`DEFAULT_FUNCTIONAL_LIMIT`]), `None`
    /// above it — those cells are only modeled, and carry no `verified`
    /// metric.
    pub verified: Option<bool>,
    /// Power/thermal context of the measured window (mean over reps).
    pub power: PowerContext,
}

/// The full Figure 2 dataset.
#[derive(Debug, Clone)]
pub struct Fig2Data {
    /// All grid cells, in (chip, implementation, size) order.
    pub points: Vec<Fig2Point>,
}

impl Fig2Data {
    /// Look up one cell.
    pub fn cell(&self, chip: ChipGeneration, implementation: &str, n: usize) -> Option<&Fig2Point> {
        self.points
            .iter()
            .find(|p| p.chip == chip && p.implementation == implementation && p.n == n)
    }

    /// Peak GFLOPS of an implementation on a chip across sizes.
    pub fn peak(&self, chip: ChipGeneration, implementation: &str) -> f64 {
        self.points
            .iter()
            .filter(|p| p.chip == chip && p.implementation == implementation)
            .map(|p| p.gflops)
            .fold(0.0, f64::max)
    }
}

/// Run one chip's grid on an existing platform (the campaign path; the
/// platform's chip decides the cells). `config.chips` is ignored here.
pub fn run_chip(platform: &mut Platform, config: &Fig2Config) -> Result<Vec<Fig2Point>, GemmError> {
    let chip = platform.chip();
    let names = platform.implementation_names();
    let verdicts = verify_sizes(platform, &names, config)?;
    let mut points = Vec::new();
    for name in names {
        for &n in &config.sizes {
            if skips_size(name, n) {
                continue;
            }
            // The five timed repetitions (model path — deterministic),
            // with power piggybacked on the same windows.
            let runs = config
                .protocol
                .try_run(|_| platform.gemm_modeled(name, n))?;
            let samples: Vec<f64> = runs.iter().map(|r| r.gflops()).collect();
            let stats = Summary::of(&samples).expect("non-empty repetitions");
            let count = runs.len() as f64;
            let mean = |f: &dyn Fn(&PowerContext) -> f64| {
                runs.iter().map(|r| f(&r.power_context())).sum::<f64>() / count
            };
            points.push(Fig2Point {
                chip,
                implementation: name,
                n,
                gflops: stats.mean,
                stats,
                verified: verdicts.get(&(name, n)).copied(),
                power: PowerContext {
                    package_watts: mean(&|p| p.package_watts),
                    energy_j: mean(&|p| p.energy_j),
                    window_s: mean(&|p| p.window_s),
                    dvfs_cap: 1.0,
                },
            });
        }
    }
    Ok(points)
}

/// The verification ceiling a requested one amounts to: no backend
/// computes above [`DEFAULT_FUNCTIONAL_LIMIT`].
fn verify_ceiling(requested: u64) -> u64 {
    requested.min(DEFAULT_FUNCTIONAL_LIMIT)
}

/// One-shot functional verification of every (implementation, size) cell
/// under the ceiling, size by size: each verified size's A and B are
/// generated once and shared by the whole suite.
fn verify_sizes(
    platform: &mut Platform,
    names: &[&'static str],
    config: &Fig2Config,
) -> Result<HashMap<(&'static str, usize), bool>, GemmError> {
    let ceiling = verify_ceiling(config.verify_max_flops);
    let mut sizes: Vec<usize> = config
        .sizes
        .iter()
        .copied()
        .filter(|&n| gemm_flops(n as u64) <= ceiling)
        .collect();
    sizes.sort_unstable();
    sizes.dedup();
    let mut verdicts = HashMap::new();
    for n in sizes {
        let a = Matrix::random(platform.address_space(), n, 1)?;
        let b = Matrix::random(platform.address_space(), n, 2)?;
        let mut c = vec![0.0f32; n * n];
        for &name in names {
            if skips_size(name, n) {
                continue;
            }
            c.fill(0.0);
            let outcome = platform.gemm_on(name, n, a.as_slice(), b.as_slice(), &mut c)?;
            let passed = outcome.functional
                && verify_sampled(n, a.as_slice(), b.as_slice(), &c, 64, 7, 1e-5).passed;
            verdicts.insert((name, n), passed);
        }
    }
    Ok(verdicts)
}

/// Run the experiment.
pub fn run(config: &Fig2Config) -> Result<Fig2Data, GemmError> {
    let mut points = Vec::new();
    for &chip in &config.chips {
        let mut platform = Platform::new(chip);
        points.extend(run_chip(&mut platform, config)?);
    }
    Ok(Fig2Data { points })
}

/// Render one chip's panel of Figure 2 (log-y GFLOPS vs size).
pub fn render_panel(data: &Fig2Data, chip: ChipGeneration) -> String {
    let mut series = Vec::new();
    let implementations: Vec<&'static str> = {
        let mut names: Vec<&'static str> = data
            .points
            .iter()
            .filter(|p| p.chip == chip)
            .map(|p| p.implementation)
            .collect();
        names.dedup();
        names
    };
    for name in implementations {
        let points: Vec<(f64, Option<f64>)> = data
            .points
            .iter()
            .filter(|p| p.chip == chip && p.implementation == name)
            .map(|p| (p.n as f64, Some(p.gflops)))
            .collect();
        series.push(Series {
            label: name.to_string(),
            points,
        });
    }
    series_chart(
        &format!("Fig. 2 ({chip}). GFLOPS for all implementations and matrix sizes"),
        "GFLOPS",
        &series,
        SeriesChartConfig::default(),
    )
}

/// Convert grid cells to provenance-stamped [`MetricSet`]s. `params` is
/// the producing configuration's digest (campaign units pass their cache
/// key; standalone callers a descriptive label).
pub fn metric_sets(points: &[Fig2Point], params: &str) -> Vec<MetricSet> {
    points
        .iter()
        .map(|p| {
            let mut set = MetricSet::for_chip("fig2", params, p.chip.name())
                .with_implementation(p.implementation)
                .with_n(p.n as u64)
                .with_power(p.power)
                .metric("gflops", p.gflops, "GFLOPS");
            if let Some(verified) = p.verified {
                set = set.metric("verified", verified, "flag");
            }
            set
        })
        .collect()
}

/// CSV of the dataset, through the generic metric emitter.
pub fn to_csv(data: &Fig2Data) -> String {
    metric::rows_to_csv(&metric::rows(&metric_sets(&data.points, "standalone")))
}

/// Figure 2 as a schedulable unit: one chip's GFLOPS grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fig2Experiment {
    /// Chip under test.
    pub chip: ChipGeneration,
    /// Matrix sizes to sweep.
    pub sizes: Vec<usize>,
    /// Verification ceiling in FLOPs (clamped to
    /// [`DEFAULT_FUNCTIONAL_LIMIT`] when run and in [`Experiment::params`]).
    pub verify_max_flops: u64,
}

impl Fig2Experiment {
    /// The paper's full per-chip grid.
    pub fn paper(chip: ChipGeneration) -> Self {
        let defaults = Fig2Config::default();
        Fig2Experiment {
            chip,
            sizes: defaults.sizes,
            verify_max_flops: defaults.verify_max_flops,
        }
    }

    fn config(&self) -> Fig2Config {
        Fig2Config {
            sizes: self.sizes.clone(),
            protocol: Experiment::protocol(self),
            verify_max_flops: self.verify_max_flops,
            chips: vec![self.chip],
        }
    }
}

impl Experiment for Fig2Experiment {
    fn id(&self) -> &'static str {
        "fig2"
    }

    fn params(&self) -> String {
        format!(
            "chip={};sizes={};verify_max_flops={}",
            self.chip.name(),
            digest_sizes(&self.sizes),
            verify_ceiling(self.verify_max_flops)
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
        let points = run_chip(platform, &self.config())?;
        ExperimentOutput::from_sets(metric_sets(&points, &self.params()), None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;

    #[test]
    fn smoke_grid_runs_and_verifies() {
        let data = run(&Fig2Config::smoke()).unwrap();
        // 2 chips × (6 impls × 3 sizes) = 36 cells.
        assert_eq!(data.points.len(), 36);
        // n=64 cells are verified.
        let verified: Vec<&Fig2Point> = data
            .points
            .iter()
            .filter(|p| p.verified.is_some())
            .collect();
        assert!(!verified.is_empty());
        assert!(
            verified.iter().all(|p| p.verified == Some(true)),
            "all verifications pass"
        );
    }

    #[test]
    fn skip_rules_applied() {
        let config = Fig2Config {
            sizes: vec![4096, 8192, 16384],
            chips: vec![ChipGeneration::M1],
            ..Fig2Config::default()
        };
        let data = run(&config).unwrap();
        assert!(data.cell(ChipGeneration::M1, "CPU-Single", 8192).is_none());
        assert!(data.cell(ChipGeneration::M1, "CPU-OMP", 16384).is_none());
        assert!(data.cell(ChipGeneration::M1, "GPU-MPS", 16384).is_some());
    }

    #[test]
    fn peaks_match_figure2_anchors() {
        let config = Fig2Config {
            sizes: vec![4096, 8192, 16384],
            verify_max_flops: 0,
            ..Fig2Config::default()
        };
        let data = run(&config).unwrap();
        for implementation in ["GPU-MPS", "CPU-Accelerate", "GPU-Naive", "GPU-CUTLASS"] {
            for chip in ChipGeneration::ALL {
                let expected = paper::fig2_peak_tflops(implementation, chip).unwrap() * 1e3;
                let got = data.peak(chip, implementation);
                assert!(
                    paper::relative_error(got, expected) < 0.05,
                    "{implementation} on {chip}: {got} vs {expected}"
                );
            }
        }
    }

    #[test]
    fn render_and_csv() {
        let data = run(&Fig2Config::smoke()).unwrap();
        let panel = render_panel(&data, ChipGeneration::M1);
        assert!(panel.contains("GPU-MPS"));
        assert!(panel.contains("CPU-Single"));
        let csv = to_csv(&data);
        assert!(csv.starts_with("experiment,chip,implementation,n,metric,type,value,unit"));
        // 36 cells, each a gflops row; n=64 cells add a verified row.
        let verified_cells = data.points.iter().filter(|p| p.verified.is_some()).count();
        assert_eq!(csv.lines().count(), 1 + 36 + verified_cells);
        assert!(csv.contains("fig2,M1,GPU-MPS,1024,gflops,float,"));
    }

    #[test]
    fn cells_carry_power_context() {
        let data = run(&Fig2Config::smoke()).unwrap();
        for p in &data.points {
            assert!(p.power.package_watts > 0.0, "{p:?}");
            assert!(p.power.window_s > 0.0 && p.power.energy_j > 0.0, "{p:?}");
        }
        let sets = metric_sets(&data.points, "smoke");
        assert!(sets.iter().all(|s| s.provenance.power.is_some()));
    }
}
