//! The HPC Perspective comparisons — R1–R3 in the experiment index.
//!
//! The paper frames every M-series result against the state of the art:
//! GH200 STREAM and cublasSgemm (measured by the authors), MI250X, Xeon
//! Max, A100, RTX 4090 and the Green500 leader (literature). The
//! [`Ledger`] renders those comparisons next to our measured simulator
//! numbers; this module schedules them as one unit.

use crate::experiments::experiment::{Experiment, ExperimentError, ExperimentOutput};
use crate::experiments::{fig1, fig2, fig4};
use crate::ledger::Ledger;
use crate::platform::Platform;
use oranges_harness::metric::MetricSet;
use oranges_soc::chip::ChipGeneration;

/// The HPC Perspective comparisons (R1–R3) as one chip-independent
/// schedulable unit. Dependency-free: it runs the Figure 1/2/4 inputs it
/// needs internally rather than waiting on other units, and reads them
/// through a [`Ledger`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReferencesExperiment;

impl Experiment for ReferencesExperiment {
    fn id(&self) -> &'static str {
        "references"
    }

    fn params(&self) -> String {
        "comparisons=R1,R2,R3".to_string()
    }

    fn chip(&self) -> Option<ChipGeneration> {
        None
    }

    fn run(&self, _platform: &mut Platform) -> Result<ExperimentOutput, ExperimentError> {
        let fig1_data = fig1::run();
        let fig4_data = fig4::run(&fig4::Fig4Config::default())?;
        // R2 compares achieved TFLOPS; derive them from the same modeled
        // runs Figure 2 reports (peak over the paper's largest sizes).
        let fig2_data = fig2::run(&fig2::Fig2Config {
            sizes: vec![4096, 8192, 16384],
            verify_max_flops: 0,
            ..fig2::Fig2Config::default()
        })?;
        let params = self.params();
        let inputs: Vec<MetricSet> = fig1::metric_sets(&fig1_data.points)
            .into_iter()
            .chain(fig2::metric_sets(&fig2_data.points, &params))
            .chain(fig4::metric_sets(&fig4_data.points, &params))
            .collect();
        let ledger = Ledger::new(&inputs);
        // One chip-scoped set per chip, both peaks together — the
        // experiment itself is chip-independent, the measurements inside
        // it are not.
        let sets: Vec<MetricSet> = ChipGeneration::ALL
            .iter()
            .map(|&chip| {
                let gflops = ledger
                    .gflops_peak(chip, "GPU-MPS")
                    .expect("Figure 2 ran on every chip");
                let efficiency = ledger
                    .efficiency_peak(chip, "GPU-MPS")
                    .expect("Figure 4 ran on every chip");
                MetricSet::for_chip("references", &params, chip.name())
                    .with_implementation("GPU-MPS")
                    .metric("mps_peak_tflops", gflops / 1e3, "TFLOPS")
                    .metric("mps_peak_gflops_per_watt", efficiency, "GFLOPS/W")
            })
            .collect();
        ExperimentOutput::from_sets(sets, Some(ledger.references()))
    }
}
