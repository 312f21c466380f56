//! Property tests: all six implementations agree on random inputs — bit
//! for bit with the scalar reference — and the model invariants hold
//! across the size grid.

use oranges_gemm::gemm_flops;
use oranges_gemm::suite::{paper_sizes, skips_size, suite_for};
use oranges_gemm::verify::{reference_gemm, verify_sampled};
use oranges_soc::chip::ChipGeneration;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

fn any_generation() -> impl Strategy<Value = ChipGeneration> {
    prop_oneof![
        Just(ChipGeneration::M1),
        Just(ChipGeneration::M2),
        Just(ChipGeneration::M3),
        Just(ChipGeneration::M4),
    ]
}

fn random_matrix(n: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(99);
    (0..n * n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / (1u32 << 24) as f32
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn model_run_matches_run_timing(gen in any_generation(), n in 8usize..64) {
        // The model-only path must price identically to the full path.
        let a = random_matrix(n, 3);
        let b = random_matrix(n, 4);
        for mut implementation in suite_for(gen) {
            let mut c = vec![0.0f32; n * n];
            let full = implementation.run(n, &a, &b, &mut c).unwrap();
            let modeled = implementation.model_run(n).unwrap();
            prop_assert_eq!(full.duration, modeled.duration, "{}", implementation.name());
            prop_assert_eq!(full.flops, modeled.flops);
        }
    }

    #[test]
    fn modeled_time_monotone_in_n(gen in any_generation(), step in 1usize..5) {
        for mut implementation in suite_for(gen) {
            let n1 = 128 * step;
            let n2 = n1 * 2;
            let t1 = implementation.model_run(n1).unwrap().duration;
            let t2 = implementation.model_run(n2).unwrap().duration;
            prop_assert!(t2 > t1, "{}: {} !> {}", implementation.name(), t2, t1);
        }
    }

    #[test]
    fn duty_is_a_fraction(gen in any_generation(), n in 1usize..2048) {
        for mut implementation in suite_for(gen) {
            let outcome = implementation.model_run(n).unwrap();
            prop_assert!((0.0..=1.0).contains(&outcome.duty), "{}", implementation.name());
        }
    }

    #[test]
    fn verifier_accepts_reference_products(n in 1usize..48, seed in 0u64..200) {
        let a = random_matrix(n, seed);
        let b = random_matrix(n, seed + 7);
        let mut c = vec![0.0f32; n * n];
        reference_gemm(n, &a, &b, &mut c);
        let outcome = verify_sampled(n, &a, &b, &c, 32, seed, 1e-5);
        prop_assert!(outcome.passed, "max rel {}", outcome.max_rel_error);
    }

    #[test]
    fn skip_rules_only_affect_plain_cpu(n_idx in 0usize..10) {
        let n = paper_sizes()[n_idx];
        for name in ["CPU-Accelerate", "GPU-Naive", "GPU-CUTLASS", "GPU-MPS"] {
            prop_assert!(!skips_size(name, n));
        }
        prop_assert_eq!(skips_size("CPU-Single", n), n >= 8192);
        prop_assert_eq!(skips_size("CPU-OMP", n), n >= 8192);
    }
}

/// Every suite backend for `gen` computes `n`×`n` bitwise like the scalar
/// reference on signed operands drawn from `seed`.
fn all_agree(gen: ChipGeneration, n: usize, seed: u64) -> Result<(), TestCaseError> {
    let signed = |m: Vec<f32>| m.into_iter().map(|v| v - 0.5).collect::<Vec<f32>>();
    let a = signed(random_matrix(n, seed));
    let b = signed(random_matrix(n, seed + 1));
    let mut expected = vec![0.0f32; n * n];
    reference_gemm(n, &a, &b, &mut expected);
    for mut implementation in suite_for(gen) {
        let mut c = vec![f32::NAN; n * n];
        let outcome = implementation.run(n, &a, &b, &mut c).unwrap();
        prop_assert!(outcome.functional);
        prop_assert_eq!(outcome.flops, gemm_flops(n as u64));
        let mismatch = c
            .iter()
            .zip(&expected)
            .position(|(got, want)| got.to_bits() != want.to_bits());
        prop_assert!(
            mismatch.is_none(),
            "{} on {gen} n={n}: first differing element {mismatch:?}",
            implementation.name()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every functional path — CPU-Single and CPU-OMP (one blocked worker
    /// and per-core row slabs), Accelerate, and the three Metal paths
    /// (one band per host thread) — is bitwise `sgemm_f32_scalar`. The
    /// sizes include n that are not multiples of MR = 4 or NR = 8, and
    /// fewer rows than the chip has cores.
    #[test]
    fn all_implementations_agree(
        gen in any_generation(),
        n in 1usize..=80,
        seed in 0u64..500,
    ) {
        all_agree(gen, n, seed)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The same bits when every host core is claimed, as under an engine
    /// with a worker per core: the row slabs and Metal bands each shrink
    /// to one, on the caller's own thread.
    #[test]
    fn all_implementations_agree_with_every_core_claimed(
        gen in any_generation(),
        n in 1usize..=80,
        seed in 0u64..500,
    ) {
        let budget = oranges_kernels::core_budget();
        let _claims: Vec<_> = (0..oranges_kernels::host_parallelism())
            .map(|_| budget.claim())
            .collect();
        prop_assert_eq!(budget.threads(), 1);
        all_agree(gen, n, seed)?;
    }
}

/// Figure 2 verifies each size with one product, CPU-Single's, and every
/// implementation takes that product's verdict. That stands only while
/// all six compute the verified paper sizes (n = 32 to 256, the default
/// verification ceiling) bit for bit alike, on every chip. A backend
/// whose arithmetic changes fails here, and then needs a product of its
/// own in `fig2::verify_sizes`.
#[test]
fn all_implementations_agree_at_the_verified_paper_sizes() -> Result<(), TestCaseError> {
    for gen in ChipGeneration::ALL {
        for n in [32, 64, 128, 256] {
            all_agree(gen, n, 1)?;
        }
    }
    Ok(())
}

/// The same bits up to the functional ceiling, as a spec may ask Figure 2
/// to verify: the MR/NR tails around the largest paper size, the Metal
/// bands' host-default KC (512), above which k is split (the chips' KC of
/// 1024 never splits it), and n = 669, the largest size any backend
/// computes (598,389,057 FLOPs). At n = 670 every backend is modeled only.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "six backends up to n = 669 on four chips take minutes in debug; run with --release"
)]
fn all_implementations_agree_up_to_the_functional_ceiling() -> Result<(), TestCaseError> {
    let over = 670;
    let (a, b) = (vec![0.0f32; over * over], vec![0.0f32; over * over]);
    for gen in ChipGeneration::ALL {
        for n in [255, 257, 511, 512, 513, 668, 669] {
            all_agree(gen, n, 2)?;
        }
        for mut implementation in suite_for(gen) {
            let mut c = vec![0.0f32; over * over];
            let outcome = implementation.run(over, &a, &b, &mut c).unwrap();
            prop_assert!(
                !outcome.functional,
                "{} on {gen} computes n = {over}",
                implementation.name()
            );
        }
    }
    Ok(())
}
