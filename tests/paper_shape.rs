//! The paper's qualitative claims, asserted end-to-end ("shape" tests):
//! who wins, by roughly what factor, and where crossovers fall.
//!
//! Every claim reads the paper ledger of one paper-grid campaign. It
//! runs without functional verification, which changes no value these
//! claims read (`tests/campaign_integration.rs` checks the verified
//! grid's ledger against the standalone pipelines).

use oranges::prelude::*;
use oranges_campaign::prelude::{run_campaign, CampaignSpec, ResultCache};
use std::sync::OnceLock;

/// The ledger of the paper grid, run once for all claims.
fn ledger() -> &'static Ledger {
    static LEDGER: OnceLock<Ledger> = OnceLock::new();
    LEDGER.get_or_init(|| {
        let spec = CampaignSpec::paper_grid().with_verify_max_flops(0);
        let report = run_campaign(&spec, &ResultCache::new()).expect("paper grid runs");
        Ledger::new(report.sets())
    })
}

#[test]
fn stream_reaches_about_85_percent_of_theoretical_peak() {
    // §5.1: "All chips get to ≈ 85% of theoretical peak bandwidth".
    let ledger = ledger();
    for chip in ChipGeneration::ALL {
        let theoretical = chip.spec().memory_bandwidth_gbs;
        let best = ledger
            .stream_best(chip, "CPU")
            .unwrap()
            .max(ledger.stream_best(chip, "GPU").unwrap());
        let fraction = best / theoretical;
        assert!((0.80..=0.95).contains(&fraction), "{chip}: {fraction}");
    }
}

#[test]
fn m2_cpu_copy_scale_gap_reproduces() {
    // §5.1: "The M2 CPU deviates with a 20-30 GB/s gap comparing the Copy
    // and Scale to other kernels."
    let copy = ledger()
        .stream_gbs(ChipGeneration::M2, "CPU", "Copy")
        .unwrap();
    let triad = ledger()
        .stream_gbs(ChipGeneration::M2, "CPU", "Triad")
        .unwrap();
    assert!(
        (20.0..=30.0).contains(&(triad - copy)),
        "gap {}",
        triad - copy
    );
}

#[test]
fn generational_improvement_holds_for_cpu_and_gpu_peaks() {
    // §5.2: "Incremental improvements from M1 to M4 processors are
    // evident" — for Accelerate and MPS peaks.
    for implementation in ["CPU-Accelerate", "GPU-MPS"] {
        let peaks: Vec<f64> = ChipGeneration::ALL
            .iter()
            .map(|c| ledger().gflops_peak(*c, implementation).unwrap())
            .collect();
        for pair in peaks.windows(2) {
            assert!(pair[1] > pair[0], "{implementation}: {peaks:?}");
        }
    }
}

#[test]
fn m1_gpu_and_cpu_are_close_but_gpu_pulls_ahead_from_m2() {
    // §1: "the M1 CPU and GPU have similar performance with a peak
    // measured at 1.36 FP32 TFLOPS, while starting from the M2, the GPU
    // significantly outperforms the CPU".
    let peak = |chip, implementation| ledger().gflops_peak(chip, implementation).unwrap();
    let ratio = |chip| peak(chip, "GPU-MPS") / peak(chip, "CPU-Accelerate");
    assert!(
        ratio(ChipGeneration::M1) < 1.6,
        "M1 ratio {}",
        ratio(ChipGeneration::M1)
    );
    for chip in [ChipGeneration::M2, ChipGeneration::M3, ChipGeneration::M4] {
        assert!(ratio(chip) > 1.6, "{chip} ratio {}", ratio(chip));
    }
}

#[test]
fn gpu_loses_to_cpu_at_small_sizes_crossover_by_1024() {
    // §5.2: "GPU-based methods significantly outpace their CPU
    // counterparts for larger matrix sizes ... though they are less
    // optimal at smaller sizes for their large overhead."
    let mps = |n| ledger().gflops(ChipGeneration::M4, "GPU-MPS", n).unwrap();
    let accelerate = |n| {
        ledger()
            .gflops(ChipGeneration::M4, "CPU-Accelerate", n)
            .unwrap()
    };
    // CPU wins at 32–256 (AMX has negligible launch cost).
    for n in [32u64, 64, 128, 256] {
        assert!(
            accelerate(n) > mps(n),
            "n={n}: CPU {} vs GPU {}",
            accelerate(n),
            mps(n)
        );
    }
    // GPU wins by 2048 at the latest.
    assert!(mps(2048) > accelerate(2048));
}

#[test]
fn naive_shader_beats_cutlass_style_shader_everywhere() {
    // The paper's curious inversion, across all chips and large sizes.
    let peak = |chip, implementation| ledger().gflops_peak(chip, implementation).unwrap();
    for chip in ChipGeneration::ALL {
        assert!(
            peak(chip, "GPU-Naive") > peak(chip, "GPU-CUTLASS"),
            "{chip}"
        );
    }
}

#[test]
fn every_chip_clears_200_gflops_per_watt_with_mps_only() {
    let peak = |chip, implementation| ledger().efficiency_peak(chip, implementation).unwrap();
    for chip in ChipGeneration::ALL {
        assert!(peak(chip, "GPU-MPS") >= 200.0, "{chip}");
        // And nothing else comes close to MPS on the same chip except
        // Accelerate (which also clears 200 per the paper's Figure 4).
        assert!(peak(chip, "CPU-Accelerate") >= 190.0, "{chip}");
        assert!(peak(chip, "GPU-Naive") < 100.0, "{chip}");
        assert!(peak(chip, "CPU-OMP") < 1.0, "{chip}");
    }
}

#[test]
fn apple_vs_gh200_is_apples_to_oranges() {
    // §7: GH200 delivers "similar efficiencies at two orders of magnitude
    // better performance" in bandwidth.
    use oranges_soc::reference;
    let hopper = reference::lookup("Hopper GPU").unwrap();
    let hbm = hopper.bandwidth[0];
    let best_apple = ChipGeneration::ALL
        .iter()
        .map(|c| ledger().stream_best(*c, "GPU").unwrap())
        .fold(0.0, f64::max);
    let ratio = hbm.measured_gbs / best_apple;
    assert!(
        ratio > 30.0,
        "GH200 HBM3 is {ratio:.0}x the best M-series GPU"
    );
    // Similar *efficiency* though: both ≈ 85-95%.
    assert!((hbm.efficiency() - 0.94).abs() < 0.01);
    // And GEMM: 41 TFLOPS vs the M4's measured GPU-MPS peak (≈2.9
    // TFLOPS) ≈ 14x.
    let gh200_fp32 = hopper.compute[0].measured_tflops;
    let m4_mps_tflops = ledger().gflops_peak(ChipGeneration::M4, "GPU-MPS").unwrap() / 1e3;
    assert!(
        gh200_fp32 / m4_mps_tflops > 10.0,
        "GH200 FP32 is {:.1}x the M4's GPU-MPS peak",
        gh200_fp32 / m4_mps_tflops
    );
}
