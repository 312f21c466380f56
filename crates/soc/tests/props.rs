//! Property-based tests for the SoC models.

use oranges_soc::cache::CacheHierarchy;
use oranges_soc::chip::{ChipGeneration, ChipSpec};
use oranges_soc::cores::CpuComplex;
use oranges_soc::thermal::{CoolingKind, ThermalModel};
use oranges_soc::time::{SimDuration, SimInstant};
use proptest::prelude::*;

fn any_generation() -> impl Strategy<Value = ChipGeneration> {
    prop_oneof![
        Just(ChipGeneration::M1),
        Just(ChipGeneration::M2),
        Just(ChipGeneration::M3),
        Just(ChipGeneration::M4),
    ]
}

proptest! {
    #[test]
    fn duration_roundtrip_secs(ns in 0u64..10_000_000_000_000) {
        let d = SimDuration::from_nanos(ns);
        let back = SimDuration::from_secs_f64(d.as_secs_f64());
        // f64 has 53 bits of mantissa; round-trip is exact below 2^53 ns
        // and within 1 part in 2^52 above.
        let err = (back.as_nanos() as i128 - ns as i128).unsigned_abs();
        prop_assert!(err <= 1 + ns as u128 / (1 << 52));
    }

    #[test]
    fn duration_add_commutes(a in 0u64..u64::MAX / 2, b in 0u64..u64::MAX / 2) {
        let x = SimDuration::from_nanos(a);
        let y = SimDuration::from_nanos(b);
        prop_assert_eq!(x + y, y + x);
        prop_assert_eq!((x + y).as_nanos(), a + b);
    }

    #[test]
    fn instant_ordering_consistent(a in 0u64..u64::MAX / 2, b in 0u64..u64::MAX / 2) {
        let ia = SimInstant::from_nanos(a);
        let ib = SimInstant::from_nanos(b);
        if a <= b {
            prop_assert_eq!((ib - ia).as_nanos(), b - a);
            // Saturating in both directions: the reverse difference
            // clamps to zero whether or not a == b.
            prop_assert_eq!((ia - ib).as_nanos().min(1), 0);
        }
    }

    #[test]
    fn thread_placement_conserves_threads(gen in any_generation(), threads in 0u32..64) {
        let complex = CpuComplex::of(gen.spec());
        let p = complex.place_threads(threads);
        prop_assert_eq!(p.p_threads + p.e_threads + p.oversubscribed, threads);
        prop_assert!(p.p_threads <= complex.p_cluster.cores);
        prop_assert!(p.e_threads <= complex.e_cluster.cores);
        // Never oversubscribe before both clusters are full.
        if p.oversubscribed > 0 {
            prop_assert_eq!(p.p_threads, complex.p_cluster.cores);
            prop_assert_eq!(p.e_threads, complex.e_cluster.cores);
        }
    }

    #[test]
    fn gflops_monotone_in_threads(gen in any_generation(), t in 1u32..32) {
        let complex = CpuComplex::of(gen.spec());
        prop_assert!(complex.gflops_for_threads(t + 1) >= complex.gflops_for_threads(t));
        prop_assert!(complex.gflops_for_threads(t) <= complex.gflops() + 1e-9);
    }

    #[test]
    fn memory_demand_bounded(gen in any_generation(), t in 0u32..128) {
        let complex = CpuComplex::of(gen.spec());
        let w = complex.memory_demand_weight(t);
        prop_assert!((0.0..=1.0).contains(&w));
    }

    #[test]
    fn residency_monotone(gen in any_generation(), a in 1u64..1 << 34, b in 1u64..1 << 34) {
        let h = CacheHierarchy::of(gen.spec());
        let (small, large) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(h.residency(small) <= h.residency(large));
    }

    #[test]
    fn thermal_never_cools_below_ambient(
        powers in proptest::collection::vec(0.0f64..50.0, 1..100)
    ) {
        let mut t = ThermalModel::new(CoolingKind::Passive);
        for p in powers {
            t.integrate(p, SimDuration::from_millis(500));
            prop_assert!(t.temperature_c() >= 22.0);
            prop_assert!(t.temperature_c() <= 130.0);
            let cap = t.dvfs_cap();
            prop_assert!(cap > 0.0 && cap <= 1.0);
        }
    }

    #[test]
    fn amx_and_gpu_peaks_positive(gen in any_generation()) {
        let spec: &ChipSpec = gen.spec();
        prop_assert!(spec.amx_gflops() > 0.0);
        prop_assert!(spec.gpu_tflops_from_alus() > 0.0);
        prop_assert!(spec.cpu_neon_gflops() > 0.0);
        // Published theoretical figures bound the ALU model within 15%.
        let rel = (spec.gpu_tflops_from_alus() - spec.gpu_tflops_published).abs()
            / spec.gpu_tflops_published;
        prop_assert!(rel < 0.15);
    }
}
