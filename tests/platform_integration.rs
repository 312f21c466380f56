//! Cross-crate integration: the Platform facade wiring every substrate.

use oranges::prelude::*;
use oranges_umem::page::PAGE_SIZE;
use proptest::prelude::*;

#[test]
fn every_chip_builds_a_full_platform() {
    for chip in ChipGeneration::ALL {
        let platform = Platform::new(chip);
        assert_eq!(platform.chip(), chip);
        assert_eq!(platform.device_model().chip, chip);
        assert_eq!(platform.implementation_names().len(), 6);
        // Device memory matches Table 3.
        let expected_gb = platform.device_model().memory_gb as u64;
        assert_eq!(
            platform.address_space().available(),
            expected_gb * 1024 * 1024 * 1024
        );
    }
}

#[test]
fn functional_gemm_flows_through_unified_memory() {
    let mut platform = Platform::new(ChipGeneration::M2);
    let before = platform.address_space().allocated();
    let run = platform.gemm("GPU-MPS", 128).unwrap();
    assert!(run.outcome.functional);
    // Matrices were freed when the call returned.
    assert_eq!(platform.address_space().allocated(), before);
    // 128×128×4 B = 64 KiB = exactly 4 pages per matrix.
    assert_eq!((128u64 * 128 * 4) % PAGE_SIZE, 0);
}

#[test]
fn all_six_implementations_run_on_all_chips() {
    for chip in ChipGeneration::ALL {
        let mut platform = Platform::new(chip);
        for name in platform.implementation_names() {
            let run = platform
                .gemm(name, 64)
                .unwrap_or_else(|e| panic!("{chip} {name}: {e}"));
            assert!(run.gflops() > 0.0, "{chip} {name}");
            assert!(run.power.package_watts() > 0.0, "{chip} {name}");
        }
    }
}

#[test]
fn gemm_performance_ranking_is_stable_at_scale() {
    // The Figure 2 ordering at the paper's largest size, via the facade.
    let mut platform = Platform::new(ChipGeneration::M4);
    let mps = platform.gemm_modeled("GPU-MPS", 16384).unwrap().gflops();
    let accelerate = platform
        .gemm_modeled("CPU-Accelerate", 16384)
        .unwrap()
        .gflops();
    let naive_gpu = platform.gemm_modeled("GPU-Naive", 16384).unwrap().gflops();
    let cutlass = platform
        .gemm_modeled("GPU-CUTLASS", 16384)
        .unwrap()
        .gflops();
    assert!(mps > accelerate && accelerate > naive_gpu && naive_gpu > cutlass);
    // §1: M4 GPU ≈ 2.9 TFLOPS, CPU ≈ 1.5 TFLOPS.
    assert!((mps / 1e3 - 2.9).abs() < 0.15, "{mps}");
    assert!((accelerate / 1e3 - 1.49).abs() < 0.1, "{accelerate}");
}

#[test]
fn stream_and_gemm_share_the_platform() {
    let mut platform = Platform::new(ChipGeneration::M1);
    let stream = platform.stream_cpu_quick();
    assert!(stream.validated);
    let gemm = platform.gemm("CPU-Accelerate", 96).unwrap();
    assert!(gemm.outcome.functional);
    let gpu_stream = platform.stream_gpu_quick();
    assert!(gpu_stream.validated);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A modeled run is a pure function of (chip, backend, n): five
    /// consecutive calls on a fresh platform print exactly what one call
    /// prints on a platform that first ran functional products through
    /// every backend and modeled runs in reverse order. Figures 2 and 3
    /// let one modeled run stand for all five repetitions on this basis.
    #[test]
    fn modeled_runs_do_not_depend_on_platform_history(
        chip in 0usize..4,
        backend in 0usize..6,
        n in 2usize..=65_536,
    ) {
        let chip = ChipGeneration::ALL[chip];
        let mut fresh = Platform::new(chip);
        let name = fresh.implementation_names()[backend];
        let runs: Vec<String> = (0..5)
            .map(|_| format!("{:?}", fresh.gemm_modeled(name, n).unwrap()))
            .collect();

        let mut used = Platform::new(chip);
        let names = used.implementation_names();
        let side = 32;
        let a = vec![0.5f32; side * side];
        let b = vec![0.25f32; side * side];
        let mut c = vec![0.0f32; side * side];
        for &other in &names {
            used.gemm_on(other, side, &a, &b, &mut c).unwrap();
        }
        for &other in names.iter().rev() {
            used.gemm_modeled(other, n).unwrap();
        }
        let reference = format!("{:?}", used.gemm_modeled(name, n).unwrap());
        for run in &runs {
            prop_assert_eq!(run, &reference);
        }
    }
}
