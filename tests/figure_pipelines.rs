//! End-to-end figure pipelines at reduced scale: run → data → chart → CSV.

use oranges::experiments::{fig1, fig2, fig3, fig4, tables};
use oranges::prelude::*;
use oranges_harness::csv;

#[test]
fn fig1_pipeline() {
    let data = fig1::run();
    assert_eq!(data.points.len(), 32);
    let chart = fig1::render(&data);
    for label in ["M1", "M2", "M3", "M4", "Copy (CPU)", "Triad (GPU)"] {
        assert!(chart.contains(label), "chart missing {label}");
    }
    let parsed = csv::parse(&fig1::to_csv(&data));
    assert_eq!(parsed.len(), 33);
    assert_eq!(parsed[0], oranges_harness::metric::CSV_HEADER);
    // The generic emitter round-trips the dataset losslessly.
    let rows = oranges_harness::metric::rows_from_csv(&fig1::to_csv(&data)).unwrap();
    assert_eq!(rows.len(), 32);
    assert!(rows.iter().all(|r| r.unit == "GB/s" && r.metric == "gbs"));
}

#[test]
fn fig2_pipeline_small_grid() {
    let config = fig2::Fig2Config::smoke();
    let data = fig2::run(&config).unwrap();
    // Chart renders for each chip in the config.
    for chip in &config.chips {
        let chart = fig2::render_panel(&data, *chip);
        assert!(chart.contains("GFLOPS"));
    }
    // Monotone in n for GPU-MPS (ramp + overhead amortization).
    let g64 = data.cell(ChipGeneration::M4, "GPU-MPS", 64).unwrap().gflops;
    let g1024 = data
        .cell(ChipGeneration::M4, "GPU-MPS", 1024)
        .unwrap()
        .gflops;
    assert!(g1024 > g64);
}

#[test]
fn fig3_and_fig4_pipelines_are_consistent() {
    let chips = vec![ChipGeneration::M3];
    let fig3_data = fig3::run(&fig3::Fig3Config {
        sizes: vec![2048, 4096],
        chips: chips.clone(),
    })
    .unwrap();
    let fig4_data = fig4::run(&fig4::Fig4Config {
        sizes: vec![2048, 4096],
        chips,
    })
    .unwrap();

    // Efficiency = GFLOPS / W must be consistent between the two datasets:
    // recompute fig4 from fig3's power and the modeled duration.
    for p4 in &fig4_data.points {
        let p3 = fig3_data.cell(p4.chip, p4.implementation, p4.n).unwrap();
        let flops = oranges_gemm::gemm_flops(p4.n as u64) as f64;
        let gflops = flops / p3.window_s / 1e9;
        let watts = p3.power_mw / 1e3;
        let expected = gflops / watts;
        let rel = (p4.gflops_per_watt - expected).abs() / expected;
        assert!(
            rel < 0.01,
            "{:?}: {} vs {}",
            p4,
            p4.gflops_per_watt,
            expected
        );
    }
}

#[test]
fn tables_render() {
    let t1 = tables::table1();
    let t2 = tables::table2();
    let t3 = tables::table3();
    assert!(t1.contains("Apple Silicon M Series"));
    assert!(t2.contains("matrix multiplication"));
    assert!(t3.contains("devices used"));
}
