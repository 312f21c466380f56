//! The paper ledger: the paper's anchors ([`crate::paper`], from arXiv
//! 2502.05317) next to the values a campaign measured, read from its
//! [`MetricSet`]s.
//!
//! A [`Ledger`] is built from any sets: a campaign report's, a fleet
//! merge's, or a standalone pipeline's through its `metric_sets`. It
//! holds the 32 anchored rows, each with its relative error:
//!
//! - Figure 1's best STREAM bandwidth, per chip and agent;
//! - Figure 2's peak of the four anchored implementations;
//! - Figure 4's peak efficiency of GPU-MPS and CPU-Accelerate.
//!
//! It also holds Figure 3's hottest cell and renders the HPC Perspective
//! comparisons R1–R3. Peaks are taken over whatever cells the sets hold.
//! An anchor with no cell in the sets is reported as missing, never as a
//! 100% error.

use crate::experiments::fig1;
use crate::paper;
use oranges_harness::metric::MetricSet;
use oranges_harness::table::TextTable;
use oranges_soc::chip::ChipGeneration;
use oranges_soc::reference;
use std::fmt::Write as _;

/// The relative error within which every anchored row must reproduce
/// the paper.
pub const FAITHFUL_WITHIN: f64 = 0.10;

/// The implementations the paper gives a Figure 2 peak and a Figure 4
/// peak efficiency for, in the ledger's row order.
const PEAK_ANCHORS: [(&str, &str); 6] = [
    ("fig2", "CPU-Accelerate"),
    ("fig2", "GPU-Naive"),
    ("fig2", "GPU-CUTLASS"),
    ("fig2", "GPU-MPS"),
    ("fig4", "GPU-MPS"),
    ("fig4", "CPU-Accelerate"),
];

/// One measured figure cell: the figure's metric at a coordinate. Figure
/// 1's implementation label is `"<Kernel> (<Agent>)"`.
#[derive(Debug)]
struct Cell {
    chip: ChipGeneration,
    implementation: String,
    n: Option<u64>,
    value: f64,
}

/// One anchor of the paper next to the value the sets hold for it.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerRow {
    /// The figure the anchor comes from: `"fig1"`, `"fig2"` or `"fig4"`.
    pub figure: &'static str,
    /// Chip.
    pub chip: ChipGeneration,
    /// Figure 1: the agent (`"CPU"` or `"GPU"`); otherwise the
    /// implementation.
    pub subject: &'static str,
    /// The paper's value.
    pub published: f64,
    /// The measured value; `None` when the sets hold no cell for the
    /// anchor.
    pub measured: Option<f64>,
    /// Unit label.
    pub unit: &'static str,
}

impl LedgerRow {
    /// What is compared ("M1 CPU STREAM best", "M4 GPU-MPS peak", …).
    pub fn quantity(&self) -> String {
        let what = match self.figure {
            "fig1" => "STREAM best",
            "fig2" => "peak",
            _ => "peak efficiency",
        };
        format!("{} {} {what}", self.chip, self.subject)
    }

    /// Relative error against the paper; `None` for a missing anchor.
    pub fn relative_error(&self) -> Option<f64> {
        self.measured
            .map(|measured| paper::relative_error(measured, self.published))
    }
}

/// The paper-vs-measured ledger of a set of [`MetricSet`]s.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Figure 1 `gbs` cells.
    stream: Vec<Cell>,
    /// Figure 2 `gflops` cells.
    gemm: Vec<Cell>,
    /// Figure 3 `power_mw` cells.
    power: Vec<Cell>,
    /// Figure 4 `gflops_per_watt` cells.
    efficiency: Vec<Cell>,
    rows: Vec<LedgerRow>,
}

impl Ledger {
    /// Read the figure cells out of `sets`. Sets of other experiments,
    /// and sets without a known chip, an implementation or the figure's
    /// metric, are skipped.
    pub fn new<'a>(sets: impl IntoIterator<Item = &'a MetricSet>) -> Self {
        let mut ledger = Ledger::default();
        for set in sets {
            let (cells, metric) = match set.provenance.experiment.as_str() {
                "fig1" => (&mut ledger.stream, "gbs"),
                "fig2" => (&mut ledger.gemm, "gflops"),
                "fig3" => (&mut ledger.power, "power_mw"),
                "fig4" => (&mut ledger.efficiency, "gflops_per_watt"),
                _ => continue,
            };
            let chip = set.provenance.chip.as_deref().map(ChipGeneration::parse);
            if let (Some(Ok(chip)), Some(implementation), Some(value)) =
                (chip, &set.implementation, set.value(metric))
            {
                cells.push(Cell {
                    chip,
                    implementation: implementation.clone(),
                    n: set.n,
                    value,
                });
            }
        }
        ledger.rows = ledger.anchored_rows();
        ledger
    }

    fn anchored_rows(&self) -> Vec<LedgerRow> {
        let mut rows = Vec::with_capacity(32);
        for (agent, anchors) in [
            ("CPU", paper::FIG1_CPU_BEST_GBS),
            ("GPU", paper::FIG1_GPU_BEST_GBS),
        ] {
            for (chip, published) in anchors {
                rows.push(LedgerRow {
                    figure: "fig1",
                    chip,
                    subject: agent,
                    published,
                    measured: self.stream_best(chip, agent),
                    unit: "GB/s",
                });
            }
        }
        for (figure, implementation) in PEAK_ANCHORS {
            for chip in ChipGeneration::ALL {
                let (published, cells, unit) = match figure {
                    "fig2" => (
                        paper::fig2_peak_tflops(implementation, chip),
                        &self.gemm,
                        "TFLOPS",
                    ),
                    _ => (
                        paper::fig4_peak_tflops_per_watt(implementation, chip),
                        &self.efficiency,
                        "TFLOPS/W",
                    ),
                };
                if let Some(published) = published {
                    rows.push(LedgerRow {
                        figure,
                        chip,
                        subject: implementation,
                        published,
                        // GFLOPS(/W) to the paper's TFLOPS(/W).
                        measured: peak(of(cells, chip, implementation)).map(|v| v / 1e3),
                        unit,
                    });
                }
            }
        }
        rows
    }

    /// The 32 anchored rows: Figure 1 CPU then GPU per chip, Figure 2 per
    /// implementation and chip, Figure 4 the same.
    pub fn rows(&self) -> &[LedgerRow] {
        &self.rows
    }

    /// The measured row furthest from the paper, with its relative error.
    pub fn worst(&self) -> Option<(&LedgerRow, f64)> {
        self.rows
            .iter()
            .filter_map(|row| Some((row, row.relative_error()?)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// Figure 1: one bar's bandwidth, GB/s.
    pub fn stream_gbs(&self, chip: ChipGeneration, agent: &str, kernel: &str) -> Option<f64> {
        self.stream
            .iter()
            .find(|c| {
                c.chip == chip && fig1::kernel_and_agent(&c.implementation) == Some((kernel, agent))
            })
            .map(|c| c.value)
    }

    /// Figure 1: an agent's best bandwidth on a chip, GB/s.
    pub fn stream_best(&self, chip: ChipGeneration, agent: &str) -> Option<f64> {
        peak(self.stream.iter().filter(|c| {
            c.chip == chip
                && fig1::kernel_and_agent(&c.implementation).is_some_and(|(_, a)| a == agent)
        }))
    }

    /// Figure 2: one cell's GFLOPS.
    pub fn gflops(&self, chip: ChipGeneration, implementation: &str, n: u64) -> Option<f64> {
        of(&self.gemm, chip, implementation)
            .find(|c| c.n == Some(n))
            .map(|c| c.value)
    }

    /// Figure 2: an implementation's peak GFLOPS on a chip.
    pub fn gflops_peak(&self, chip: ChipGeneration, implementation: &str) -> Option<f64> {
        peak(of(&self.gemm, chip, implementation))
    }

    /// Figure 4: an implementation's peak GFLOPS/W on a chip.
    pub fn efficiency_peak(&self, chip: ChipGeneration, implementation: &str) -> Option<f64> {
        peak(of(&self.efficiency, chip, implementation))
    }

    /// Figure 3: the hottest cell, in mW.
    fn hottest(&self) -> Option<&Cell> {
        self.power.iter().max_by(|a, b| a.value.total_cmp(&b.value))
    }

    /// One line: how many anchors the sets measure, and the worst row.
    pub fn summary(&self) -> String {
        let measured = self.rows.iter().filter(|r| r.measured.is_some()).count();
        let worst = match self.worst() {
            Some((row, error)) => {
                format!(", worst {} off by {:.2}%", row.quantity(), error * 100.0)
            }
            None => String::new(),
        };
        format!(
            "Paper ledger: {measured}/{} anchors measured{worst}",
            self.rows.len()
        )
    }

    /// The whole ledger as text: the anchored rows per figure, Figure 3's
    /// hottest cell, and R1–R3.
    pub fn render(&self) -> String {
        let mut out = String::new();
        writeln!(out, "## Figure 1 — STREAM bandwidth\n").unwrap();
        writeln!(out, "{}", self.comparison_table("fig1")).unwrap();
        writeln!(out, "## Figure 2 — GEMM FP32 throughput (peaks)\n").unwrap();
        writeln!(out, "{}", self.comparison_table("fig2")).unwrap();
        writeln!(out, "## Figure 3 — power dissipation\n").unwrap();
        match self.hottest() {
            Some(cell) => writeln!(
                out,
                "Hottest cell: {} {} at n = {} → {:.1} W (paper: M4 + Cutlass-style shader, ~17–20 W).\n",
                cell.chip,
                cell.implementation,
                cell.n.unwrap_or(0),
                cell.value / 1e3,
            ),
            None => writeln!(out, "Hottest cell: missing.\n"),
        }
        .unwrap();
        writeln!(out, "## Figure 4 — efficiency (peaks)\n").unwrap();
        writeln!(out, "{}", self.comparison_table("fig4")).unwrap();
        out.push_str(&self.references());
        out
    }

    fn comparison_table(&self, figure: &str) -> String {
        let mut table =
            TextTable::new(vec!["Quantity", "Paper", "Measured", "Unit", "Rel. err"]).numeric();
        for row in self.rows.iter().filter(|r| r.figure == figure) {
            let (measured, error) = match (row.measured, row.relative_error()) {
                (Some(measured), Some(error)) => {
                    (format!("{measured:.3}"), format!("{:.1}%", error * 100.0))
                }
                _ => ("missing".to_string(), "-".to_string()),
            };
            table.row(vec![
                row.quantity(),
                format!("{:.3}", row.published),
                measured,
                row.unit.to_string(),
                error,
            ]);
        }
        table.render()
    }

    /// R1–R3, the HPC Perspective comparisons (the `references` unit's
    /// rendered text). A chip with no cell in the sets has no row.
    pub fn references(&self) -> String {
        [
            self.bandwidth_comparison(),
            self.compute_comparison(),
            self.efficiency_comparison(),
        ]
        .join("\n\n")
    }

    /// R1: bandwidth comparison (paper §5.1 HPC Perspective).
    fn bandwidth_comparison(&self) -> String {
        let mut table = TextTable::new(vec![
            "System",
            "Measured GB/s",
            "Theoretical GB/s",
            "Efficiency",
        ])
        .numeric();
        for chip in ChipGeneration::ALL {
            for agent in ["CPU", "GPU"] {
                let Some(measured) = self.stream_best(chip, agent) else {
                    continue;
                };
                let theoretical = chip.spec().memory_bandwidth_gbs;
                table.row(vec![
                    format!("Apple {chip} ({agent})"),
                    format!("{measured:.0}"),
                    format!("{theoretical:.0}"),
                    format!("{:.0}%", measured / theoretical * 100.0),
                ]);
            }
        }
        for system in reference::all() {
            for bw in &system.bandwidth {
                table.row(vec![
                    system.name.to_string(),
                    format!("{:.0}", bw.measured_gbs),
                    format!("{:.0}", bw.theoretical_gbs),
                    format!("{:.0}%", bw.efficiency() * 100.0),
                ]);
            }
        }
        format!(
            "R1. Memory bandwidth vs HPC state of the art (§5.1)\n{}",
            table.render()
        )
    }

    /// R2: compute comparison (paper §5.2 HPC Perspective).
    fn compute_comparison(&self) -> String {
        let mut table =
            TextTable::new(vec!["System", "Regime", "Measured TFLOPS", "Efficiency"]).numeric();
        for chip in ChipGeneration::ALL {
            let Some(gflops) = self.gflops_peak(chip, "GPU-MPS") else {
                continue;
            };
            let tflops = gflops / 1e3;
            let theoretical = chip.spec().gpu_tflops_published;
            table.row(vec![
                format!("Apple {chip} (GPU-MPS)"),
                "FP32 (MPS)".to_string(),
                format!("{tflops:.2}"),
                format!("{:.0}%", tflops / theoretical * 100.0),
            ]);
        }
        for system in reference::all() {
            for c in &system.compute {
                table.row(vec![
                    system.name.to_string(),
                    c.regime.to_string(),
                    format!("{:.1}", c.measured_tflops),
                    format!("{:.0}%", c.efficiency() * 100.0),
                ]);
            }
        }
        format!(
            "R2. FP32 GEMM vs HPC state of the art (§5.2)\n{}",
            table.render()
        )
    }

    /// R3: efficiency comparison (paper §5.3 + §7).
    fn efficiency_comparison(&self) -> String {
        let mut table = TextTable::new(vec!["System", "GFLOPS/W", "Notes"]).numeric();
        for chip in ChipGeneration::ALL {
            let Some(efficiency) = self.efficiency_peak(chip, "GPU-MPS") else {
                continue;
            };
            table.row(vec![
                format!("Apple {chip} (GPU-MPS)"),
                format!("{efficiency:.0}"),
                "FP32 SGEMM, powermetrics estimate".to_string(),
            ]);
        }
        for system in reference::all() {
            if let Some(eff) = system.gflops_per_watt {
                let note = match system.power_watts {
                    Some(w) => format!("{} ({w:.0} W)", system.provenance),
                    None => system.provenance.to_string(),
                };
                table.row(vec![system.name.to_string(), format!("{eff:.0}"), note]);
            }
        }
        format!(
            "R3. Power efficiency vs HPC state of the art (§5.3, §7)\n{}",
            table.render()
        )
    }
}

/// The cells of one implementation on one chip.
fn of<'a>(
    cells: &'a [Cell],
    chip: ChipGeneration,
    implementation: &'a str,
) -> impl Iterator<Item = &'a Cell> {
    cells
        .iter()
        .filter(move |c| c.chip == chip && c.implementation == implementation)
}

/// The largest value; `None` for no cells.
fn peak<'a>(cells: impl Iterator<Item = &'a Cell>) -> Option<f64> {
    cells.map(|c| c.value).reduce(f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::fig2::Fig2Config;
    use crate::experiments::fig3::Fig3Config;
    use crate::experiments::fig4::Fig4Config;
    use crate::experiments::{fig2, fig3, fig4};

    #[test]
    fn full_report_contains_all_sections_and_small_errors() {
        let fig2_data = fig2::run(&Fig2Config {
            sizes: vec![8192, 16384],
            verify_max_flops: 0,
            ..Fig2Config::default()
        })
        .unwrap();
        let fig3_data = fig3::run(&Fig3Config::default()).unwrap();
        let fig4_data = fig4::run(&Fig4Config::default()).unwrap();
        let sets: Vec<MetricSet> = fig1::metric_sets(&fig1::run().points)
            .into_iter()
            .chain(fig2::metric_sets(&fig2_data.points, "test"))
            .chain(fig3::metric_sets(&fig3_data.points, "test"))
            .chain(fig4::metric_sets(&fig4_data.points, "test"))
            .collect();
        let ledger = Ledger::new(&sets);
        let report = ledger.render();
        assert!(report.contains("## Figure 1"));
        assert!(report.contains("## Figure 2"));
        assert!(report.contains("## Figure 3"));
        assert!(report.contains("## Figure 4"));
        assert!(report.contains("Hottest cell: M4 GPU-CUTLASS"));
        for section in ["R1.", "R2.", "R3."] {
            assert!(report.contains(section), "{section}");
        }
        // Every anchored row is measured and lands within 10% of the paper.
        assert_eq!(ledger.rows().len(), 32);
        for row in ledger.rows() {
            let error = row.relative_error().expect("every anchor measured");
            assert!(error < 0.10, "{}: {:.1}%", row.quantity(), error * 100.0);
        }
        assert!(ledger
            .summary()
            .starts_with("Paper ledger: 32/32 anchors measured, worst "));
    }

    #[test]
    fn an_anchor_without_cells_is_missing_not_a_full_error() {
        let sets = fig1::metric_sets(&fig1::run_chip(ChipGeneration::M1));
        let ledger = Ledger::new(&sets);
        assert_eq!(ledger.rows().len(), 32);
        let measured: Vec<String> = ledger
            .rows()
            .iter()
            .filter(|r| r.measured.is_some())
            .map(LedgerRow::quantity)
            .collect();
        assert_eq!(measured, ["M1 CPU STREAM best", "M1 GPU STREAM best"]);
        assert!(ledger
            .rows()
            .iter()
            .filter(|r| r.chip != ChipGeneration::M1 || r.figure != "fig1")
            .all(|r| r.relative_error().is_none()));
        assert_eq!(
            ledger.worst().map(|(r, _)| r.chip),
            Some(ChipGeneration::M1)
        );
        assert!(ledger
            .summary()
            .starts_with("Paper ledger: 2/32 anchors measured, worst M1 "));
        let report = ledger.render();
        assert!(report.contains("missing"));
        assert!(report.contains("Hottest cell: missing."));
        assert!(report.contains("Apple M1 (GPU)"));
        assert!(!report.contains("Apple M2 (CPU)"));
        assert!(!report.contains("(GPU-MPS)"));
    }

    #[test]
    fn r1_contains_gh200_and_all_chips() {
        let ledger = Ledger::new(&fig1::metric_sets(&fig1::run().points));
        let text = ledger.bandwidth_comparison();
        assert!(text.contains("Apple M1 (CPU)"));
        assert!(text.contains("Apple M4 (GPU)"));
        assert!(text.contains("Grace CPU"));
        assert!(text.contains("3700"));
        assert!(text.contains("MI250X"));
    }

    #[test]
    fn r2_contains_cublas_and_tensor_rows() {
        let sets = [MetricSet::for_chip("fig2", "test", "M4")
            .with_implementation("GPU-MPS")
            .with_n(16384)
            .metric("gflops", 2900.0, "GFLOPS")];
        let text = Ledger::new(&sets).compute_comparison();
        assert!(text.contains("cublasSgemm"));
        assert!(text.contains("41.0"));
        assert!(text.contains("TF32"));
        assert!(text.contains("338.0"));
        assert!(text.contains("Xeon"));
        assert!(text.contains("Apple M4 (GPU-MPS)"));
    }

    #[test]
    fn r3_contains_green500_and_gpus() {
        let data = fig4::run(&Fig4Config {
            chips: vec![ChipGeneration::M3],
            ..Fig4Config::default()
        })
        .unwrap();
        let text = Ledger::new(&fig4::metric_sets(&data.points, "test")).efficiency_comparison();
        assert!(text.contains("Green500"));
        assert!(text.contains("72"));
        assert!(text.contains("A100"));
        assert!(text.contains("RTX 4090"));
        assert!(text.contains("Apple M3 (GPU-MPS)"));
    }
}
