//! Tables 1–3, rendered from the model databases.

use crate::experiments::experiment::{Experiment, ExperimentError, ExperimentOutput};
use crate::platform::Platform;
use oranges_gemm::suite::TABLE2;
use oranges_harness::table::{Align, TextTable};
use oranges_soc::chip::{ChipGeneration, ChipSpec};
use oranges_soc::device::DeviceModel;

/// Render Table 1 ("Comparison of Baseline Apple Silicon M Series
/// Architecture").
pub fn table1() -> String {
    let specs = ChipSpec::all();
    let mut table = TextTable::new(vec!["Feature", "M1", "M2", "M3", "M4"]).numeric();
    let row = |label: &str, f: &dyn Fn(&ChipSpec) -> String| -> Vec<String> {
        let mut cells = vec![label.to_string()];
        cells.extend(specs.iter().map(|s| f(s)));
        cells
    };
    table.row(row("Process Technology (nm)", &|s| {
        s.process.table_label().to_string()
    }));
    table.row(row("CPU Architecture", &|s| s.isa.name().to_string()));
    table.row(row("Performance/Efficiency Cores", &|s| {
        format!("{}/{}", s.p_cores, s.e_cores)
    }));
    table.row(row("Clock Frequency (GHz)", &|s| {
        format!("{:.2} (P)/{:.2} (E)", s.p_clock_ghz, s.e_clock_ghz)
    }));
    table.row(row("Vector Unit (name/size)", &|s| {
        format!("NEON/{}", s.vector_bits)
    }));
    table.row(row("L1 Cache (KB)", &|s| {
        format!("{} (P)/{} (E)", s.l1_p_kib, s.l1_e_kib)
    }));
    table.row(row("L2 Cache (MB)", &|s| {
        format!("{} (P)/{} (E)", s.l2_p_mib, s.l2_e_mib)
    }));
    table.row(row("AMX Characteristics", &|s| s.amx.table_label()));
    table.row(row("GPU Cores", &|s| {
        format!("{}-{}", s.gpu_cores_min, s.gpu_cores_max)
    }));
    table.row(row("GPU Clock Frequency (GHz)", &|s| {
        format!("{:.2}", s.gpu_clock_ghz)
    }));
    table.row(row("Theoretical FP32 (TFLOPS)", &|s| {
        if (s.gpu_tflops_from_alus() - s.gpu_tflops_published).abs() > 0.1 {
            format!("{:.2}", s.gpu_tflops_published)
        } else {
            format!(
                "{:.2}-{:.2}",
                s.gpu_tflops_min_config(),
                s.gpu_tflops_published
            )
        }
    }));
    table.row(row("Neural Engine Units (Core)", &|s| {
        s.neural_engine_cores.to_string()
    }));
    table.row(row("Memory Technology", &|s| s.memory.name().to_string()));
    table.row(row("Max Unified Memory (GB)", &|s| {
        s.memory_options
            .capacities_gb
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join("-")
    }));
    table.row(row("Memory Bandwidth (GB/s)", &|s| {
        format!("{:.0}", s.memory_bandwidth_gbs)
    }));
    format!(
        "Table 1. Comparison of Baseline Apple Silicon M Series Architecture.\n{}",
        table.render()
    )
}

/// Render Table 2 ("Overview of matrix multiplication implementations").
pub fn table2() -> String {
    let mut table = TextTable::new(vec!["Implementation", "Framework", "Hardware"]);
    for info in TABLE2 {
        table.row(vec![
            info.implementation,
            info.framework,
            info.hardware.label(),
        ]);
    }
    format!(
        "Table 2. Overview of matrix multiplication implementations.\n{}",
        table.render()
    )
}

/// Render Table 3 ("Basic information of devices used").
pub fn table3() -> String {
    let devices = DeviceModel::all();
    let mut table = TextTable::new(vec!["Feature", "M1", "M2", "M3", "M4"])
        .align(0, Align::Left)
        .numeric();
    let row = |label: &str, f: &dyn Fn(&DeviceModel) -> String| -> Vec<String> {
        let mut cells = vec![label.to_string()];
        cells.extend(devices.iter().map(f));
        cells
    };
    table.row(row("Device", &|d| d.form_factor.name().to_string()));
    table.row(row("Release", &|d| d.release_year.to_string()));
    table.row(row("Memory", &|d| format!("{}GB", d.memory_gb)));
    table.row(row("Cooling", &|d| d.cooling.label().to_string()));
    table.row(row("MacOS", &|d| d.macos_version.to_string()));
    format!(
        "Table 3. Basic information of devices used.\n{}",
        table.render()
    )
}

/// Tables 1–3 as one chip-independent schedulable unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TablesExperiment;

impl Experiment for TablesExperiment {
    fn id(&self) -> &'static str {
        "tables"
    }

    fn params(&self) -> String {
        "tables=1,2,3".to_string()
    }

    fn chip(&self) -> Option<ChipGeneration> {
        None
    }

    fn run(&self, _platform: &mut Platform) -> Result<ExperimentOutput, ExperimentError> {
        let rendered = [table1(), table2(), table3()];
        let mut set = self.base_set();
        for (i, text) in rendered.iter().enumerate() {
            set = set.metric(
                &format!("table{}_lines", i + 1),
                text.lines().count() as i64,
                "lines",
            );
        }
        ExperimentOutput::from_sets(vec![set], Some(rendered.join("\n\n")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_contains_every_row_of_the_paper() {
        let text = table1();
        for needle in [
            "Process Technology",
            "ARMv8.5-A",
            "ARMv9.2-A",
            "4/6",
            "NEON/128",
            "FP16,32,64/BF16 (SME)",
            "LPDDR4X",
            "LPDDR5X",
            "120",
        ] {
            assert!(text.contains(needle), "missing {needle}:\n{text}");
        }
    }

    #[test]
    fn table2_matches_paper() {
        let text = table2();
        for needle in [
            "Naive algorithm",
            "BLAS/vDSP",
            "Cutlass-style tiled shader",
            "Accelerate",
            "Metal",
        ] {
            assert!(text.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn table3_matches_paper() {
        let text = table3();
        for needle in [
            "MacBook Air",
            "Mac mini",
            "2020",
            "Passive",
            "Air",
            "14.7.2",
            "15.2",
        ] {
            assert!(text.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn m4_published_tflops_shown_verbatim() {
        // The M4 row shows the published 4.26 (not the ALU-derived value).
        assert!(table1().contains("4.26"));
    }

    #[test]
    fn chips_in_release_order() {
        let text = table1();
        let m1_pos = text.find("M1").unwrap();
        let m4_pos = text.find("M4").unwrap();
        assert!(m1_pos < m4_pos);
        let _ = oranges_soc::chip::ChipGeneration::ALL;
    }
}
