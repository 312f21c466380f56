//! Property-based tests for unified memory.

use oranges_soc::chip::ChipGeneration;
use oranges_umem::address::AddressSpace;
use oranges_umem::bandwidth::{AccessPattern, BandwidthModel, StreamKernelKind};
use oranges_umem::buffer::{SharedAddressSpace, UnifiedBuffer};
use oranges_umem::controller::Agent;
use oranges_umem::page::{is_page_aligned, pages_for, round_up_to_page, PAGE_SIZE};
use oranges_umem::StorageMode;
use proptest::prelude::*;

fn any_generation() -> impl Strategy<Value = ChipGeneration> {
    prop_oneof![
        Just(ChipGeneration::M1),
        Just(ChipGeneration::M2),
        Just(ChipGeneration::M3),
        Just(ChipGeneration::M4),
    ]
}

fn any_kernel() -> impl Strategy<Value = StreamKernelKind> {
    prop_oneof![
        Just(StreamKernelKind::Copy),
        Just(StreamKernelKind::Scale),
        Just(StreamKernelKind::Add),
        Just(StreamKernelKind::Triad),
    ]
}

proptest! {
    #[test]
    fn round_up_is_idempotent_and_minimal(bytes in 0u64..1 << 40) {
        let rounded = round_up_to_page(bytes);
        prop_assert!(rounded >= bytes);
        prop_assert!(rounded - bytes < PAGE_SIZE);
        prop_assert_eq!(round_up_to_page(rounded), rounded);
        prop_assert!(is_page_aligned(rounded));
        prop_assert_eq!(pages_for(bytes) * PAGE_SIZE, rounded);
    }

    #[test]
    fn allocator_never_overlaps(sizes in proptest::collection::vec(1u64..256 * 1024, 1..40)) {
        let mut space = AddressSpace::with_gib(4);
        let mut regions: Vec<(u64, u64)> = Vec::new();
        for size in sizes {
            let a = space.allocate(size).unwrap();
            prop_assert!(is_page_aligned(a.addr));
            for (addr, len) in &regions {
                let disjoint = a.addr + a.len <= *addr || addr + len <= a.addr;
                prop_assert!(disjoint, "overlap: [{}, {}) vs [{}, {})", a.addr, a.addr + a.len, addr, addr + len);
            }
            regions.push((a.addr, a.len));
        }
    }

    #[test]
    fn alloc_free_alloc_reuses(size in 1u64..1024 * 1024) {
        let mut space = AddressSpace::with_gib(1);
        let a = space.allocate(size).unwrap();
        let addr = a.addr;
        space.free(a);
        let b = space.allocate(size).unwrap();
        prop_assert_eq!(b.addr, addr, "first-fit must reuse the freed region");
        prop_assert_eq!(space.allocated(), b.len);
    }

    #[test]
    fn buffer_round_trips_data(values in proptest::collection::vec(any::<f32>(), 1..4096)) {
        let space = SharedAddressSpace::with_gib(1);
        let mut buf = UnifiedBuffer::<f32>::allocate(&space, values.len(), StorageMode::Shared).unwrap();
        buf.copy_from_slice(&values).unwrap();
        let read = buf.as_slice().unwrap();
        for (a, b) in read.iter().zip(values.iter()) {
            prop_assert!(a == b || (a.is_nan() && b.is_nan()));
        }
    }

    /// Lazy backing is invisible: a random mix of fills, copies, logical
    /// and padding writes and reads leaves the buffer bit-identical to an
    /// eagerly built `Vec` model, and storage is built exactly when the
    /// first element access happens.
    #[test]
    fn lazy_buffer_matches_an_eager_model(
        len in prop_oneof![1usize..64, 1usize..5000],
        ops in proptest::collection::vec(
            (
                0u8..6,
                any::<usize>(),
                prop_oneof![any::<f32>(), Just(-0.0f32), Just(f32::NAN)],
                0usize..80,
            ),
            0..24,
        ),
    ) {
        let space = SharedAddressSpace::with_gib(1);
        let mut buf = UnifiedBuffer::<f32>::allocate(&space, len, StorageMode::Shared).unwrap();
        let mut model = vec![0.0f32; buf.capacity_bytes() as usize / 4];
        let mut touched = false;
        for (op, at, value, span) in ops {
            match op {
                0 => {
                    buf.fill(value).unwrap();
                    model[..len].fill(value);
                }
                1 => {
                    let src: Vec<f32> =
                        (0..span).map(|i| f32::from_bits(value.to_bits() ^ i as u32)).collect();
                    if span > len {
                        prop_assert!(buf.copy_from_slice(&src).is_err());
                    } else {
                        buf.copy_from_slice(&src).unwrap();
                        model[..span].copy_from_slice(&src);
                        touched = true;
                    }
                }
                2 => {
                    buf.as_mut_slice().unwrap()[at % len] = value;
                    model[at % len] = value;
                    touched = true;
                }
                3 => {
                    let padding = model.len() - len;
                    let index = if padding == 0 { at % len } else { len + at % padding };
                    buf.device_mut_slice()[index] = value;
                    model[index] = value;
                    touched = true;
                }
                4 => {
                    let read: Vec<u32> = buf.as_slice().unwrap().iter().map(|v| v.to_bits()).collect();
                    let want: Vec<u32> = model[..len].iter().map(|v| v.to_bits()).collect();
                    prop_assert_eq!(read, want);
                    touched = true;
                }
                _ => {
                    let read: Vec<u32> = buf.device_slice().iter().map(|v| v.to_bits()).collect();
                    let want: Vec<u32> = model.iter().map(|v| v.to_bits()).collect();
                    prop_assert_eq!(read, want);
                    touched = true;
                }
            }
            prop_assert_eq!(buf.is_materialized(), touched);
        }
        let read: Vec<u32> = buf.device_slice().iter().map(|v| v.to_bits()).collect();
        let want: Vec<u32> = model.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(read, want);
    }

    #[test]
    fn stream_bandwidth_bounded_by_theoretical(
        gen in any_generation(),
        kernel in any_kernel(),
        threads in 0u32..32,
    ) {
        let m = BandwidthModel::of(gen);
        for agent in [Agent::Cpu, Agent::Gpu] {
            let gbs = m.stream_gbs(agent, kernel, threads);
            prop_assert!(gbs >= 0.0);
            prop_assert!(gbs <= gen.spec().memory_bandwidth_gbs + 1e-9);
        }
    }

    #[test]
    fn more_threads_never_less_bandwidth(
        gen in any_generation(),
        kernel in any_kernel(),
        t in 1u32..16,
    ) {
        let m = BandwidthModel::of(gen);
        let lo = m.stream_gbs(Agent::Cpu, kernel, t);
        let hi = m.stream_gbs(Agent::Cpu, kernel, t + 1);
        prop_assert!(hi + 1e-12 >= lo);
    }

    #[test]
    fn transfer_time_monotone_in_bytes(
        gen in any_generation(),
        a in 1u64..1 << 32,
        b in 1u64..1 << 32,
    ) {
        let m = BandwidthModel::of(gen);
        let (small, large) = if a <= b { (a, b) } else { (b, a) };
        let ts = m.transfer_time(Agent::Gpu, StreamKernelKind::Triad, 0, small);
        let tl = m.transfer_time(Agent::Gpu, StreamKernelKind::Triad, 0, large);
        prop_assert!(tl >= ts);
    }

    #[test]
    fn pattern_bytes_account(r in 0u64..1 << 30, w in 0u64..1 << 30, seq in any::<bool>()) {
        let p = AccessPattern { read_bytes: r, write_bytes: w, sequential: seq };
        prop_assert_eq!(p.total_bytes(), r + w);
        prop_assert!(p.pattern_factor() > 0.0 && p.pattern_factor() <= 1.0);
    }
}
