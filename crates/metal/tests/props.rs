//! Property tests: shader functional correctness through the full
//! command-buffer path, and timing-model invariants.

use oranges_metal::kernel::{BandInvocation, ComputeKernel, KernelParams};
use oranges_metal::mps::{Matrix, MatrixDescriptor, MatrixMultiplication, MpsSgemm};
use oranges_metal::shaders::{SgemmNaive, SgemmTiled};
use oranges_metal::types::MtlSize;
use oranges_metal::Device;
use oranges_soc::chip::ChipGeneration;
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

fn reference_gemm(n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
    let mut c = vec![0.0f32; n * n];
    for i in 0..n {
        for j in 0..n {
            let mut acc = 0.0f32;
            for k in 0..n {
                acc += a[i * n + k] * b[k * n + j];
            }
            c[i * n + j] = acc;
        }
    }
    c
}

/// Bit patterns, so results compare exactly (and NaN never hides).
fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn run_shader(dev: &Device, shader: &str, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
    let lib = dev.new_default_library();
    let pipeline = lib.pipeline(shader).unwrap();
    let buf_a = dev.new_buffer_with_data(a, StorageMode::Shared).unwrap();
    let buf_b = dev.new_buffer_with_data(b, StorageMode::Shared).unwrap();
    let buf_c = dev.new_buffer(n * n, StorageMode::Shared).unwrap();
    let queue = dev.new_command_queue();
    let mut cb = queue.command_buffer();
    {
        let mut enc = cb.compute_command_encoder();
        enc.set_compute_pipeline_state(&pipeline);
        enc.set_buffer(0, &buf_a);
        enc.set_buffer(1, &buf_b);
        enc.set_buffer(2, &buf_c);
        enc.set_params(KernelParams::with_n(n as u64));
        enc.dispatch_threadgroups(MtlSize::d2(8, 8), MtlSize::d2(8, 8))
            .unwrap();
        enc.end_encoding();
    }
    cb.commit().unwrap();
    cb.wait_until_completed().unwrap();
    buf_c.read_to_vec().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn custom_shaders_match_reference(
        gen in any_generation(),
        n in 1usize..24,
        seed in 0u64..500,
    ) {
        let mut s = seed.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(11);
        let mut next = move || {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            ((s >> 40) as f32 / (1u32 << 24) as f32) - 0.5
        };
        let a: Vec<f32> = (0..n * n).map(|_| next()).collect();
        let b: Vec<f32> = (0..n * n).map(|_| next()).collect();
        let expected = reference_gemm(n, &a, &b);
        let dev = Device::with_memory(gen, 1);
        for shader in ["sgemm_naive", "sgemm_tiled"] {
            let got = run_shader(&dev, shader, n, &a, &b);
            for idx in 0..n * n {
                let tol = 1e-4f32 * n as f32 + 1e-5;
                prop_assert!((got[idx] - expected[idx]).abs() <= tol,
                    "{shader} n={n} idx={idx}: {} vs {}", got[idx], expected[idx]);
            }
        }
    }

    #[test]
    fn mps_matches_reference(gen in any_generation(), n in 1usize..24, seed in 0u64..500) {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(3);
        let mut next = move || {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            ((s >> 40) as f32 / (1u32 << 24) as f32) - 0.5
        };
        let a: Vec<f32> = (0..n * n).map(|_| next()).collect();
        let b: Vec<f32> = (0..n * n).map(|_| next()).collect();
        let expected = reference_gemm(n, &a, &b);

        let dev = Device::with_memory(gen, 1);
        let desc = MatrixDescriptor::new(n, n, n * 4).unwrap();
        let mat_a = Matrix::new(dev.new_buffer_with_data(&a, StorageMode::Shared).unwrap(), desc).unwrap();
        let mat_b = Matrix::new(dev.new_buffer_with_data(&b, StorageMode::Shared).unwrap(), desc).unwrap();
        let mat_c = Matrix::new(dev.new_buffer(n * n, StorageMode::Shared).unwrap(), desc).unwrap();
        let mm = MatrixMultiplication::new(n, n, n);
        let queue = dev.new_command_queue();
        let mut cb = queue.command_buffer();
        mm.encode(&mut cb, &mat_a, &mat_b, &mat_c).unwrap();
        cb.commit().unwrap();
        let got = mat_c.buffer().read_to_vec().unwrap();
        for idx in 0..n * n {
            let tol = 1e-4f32 * n as f32 + 1e-5;
            prop_assert!((got[idx] - expected[idx]).abs() <= tol);
        }
    }

    /// Functional dispatch runs one band per host thread, so a dispatch
    /// alone would only ever see one or two bands. Drive `execute_band`
    /// directly instead: arbitrary uneven cuts of the output (most of
    /// them through the middle of a row) must reassemble, for every
    /// SGEMM kernel, into exactly the unbanded result. One dispatch
    /// through a command buffer with an arbitrary threadgroup grid keeps
    /// the banding in `commit` itself under the same check.
    #[test]
    fn band_count_does_not_change_results(
        n in 1usize..20,
        cuts in proptest::collection::vec(0usize..400, 0..12),
        bands_x in 1u64..16,
        bands_y in 1u64..16,
        seed in 0u64..100,
    ) {
        let mut s = seed.wrapping_mul(0x853C49E6748FEA9B).wrapping_add(7);
        let mut next = move || {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            ((s >> 40) as f32 / (1u32 << 24) as f32) - 0.5
        };
        let a: Vec<f32> = (0..n * n).map(|_| next()).collect();
        let b: Vec<f32> = (0..n * n).map(|_| next()).collect();
        let expected = reference_gemm(n, &a, &b);

        let total = n * n;
        let mut bounds: Vec<usize> = cuts.iter().map(|cut| cut % (total + 1)).collect();
        bounds.extend([0, total]);
        bounds.sort_unstable();
        bounds.dedup();
        let square = KernelParams::with_n(n as u64);
        let mps = KernelParams { uints: vec![n as u64; 3], floats: Vec::new() };
        let kernels: [(&dyn ComputeKernel, &KernelParams); 3] =
            [(&SgemmNaive, &square), (&SgemmTiled, &square), (&MpsSgemm, &mps)];
        for (kernel, params) in kernels {
            let mut out = vec![f32::NAN; total];
            let mut rest = out.as_mut_slice();
            for band in bounds.windows(2) {
                let (output, tail) = std::mem::take(&mut rest).split_at_mut(band[1] - band[0]);
                rest = tail;
                kernel.execute_band(BandInvocation {
                    range: band[0]..band[1],
                    inputs: &[&a, &b],
                    output,
                    params,
                });
            }
            prop_assert!(
                bits(&out) == bits(&expected),
                "{} n={n} bounds={bounds:?}", kernel.name()
            );
        }

        let dev = Device::with_memory(ChipGeneration::M1, 1);
        let lib = dev.new_default_library();
        let pipeline = lib.pipeline("sgemm_naive").unwrap();
        let buf_a = dev.new_buffer_with_data(&a, StorageMode::Shared).unwrap();
        let buf_b = dev.new_buffer_with_data(&b, StorageMode::Shared).unwrap();
        let buf_c = dev.new_buffer(n * n, StorageMode::Shared).unwrap();
        let queue = dev.new_command_queue();
        let mut cb = queue.command_buffer();
        {
            let mut enc = cb.compute_command_encoder();
            enc.set_compute_pipeline_state(&pipeline);
            enc.set_buffer(0, &buf_a);
            enc.set_buffer(1, &buf_b);
            enc.set_buffer(2, &buf_c);
            enc.set_params(KernelParams::with_n(n as u64));
            enc.dispatch_threadgroups(MtlSize::d2(bands_x, bands_y), MtlSize::d2(8, 8)).unwrap();
        }
        cb.commit().unwrap();
        prop_assert_eq!(bits(&buf_c.read_to_vec().unwrap()), bits(&expected));
    }

    #[test]
    fn modeled_duration_monotone_in_n(gen in any_generation(), step in 1usize..6) {
        // Pure timing query via workload pricing — no functional execution.
        let dev = Device::with_memory(gen, 1);
        let n1 = 128 * step as u64;
        let n2 = n1 * 2;
        let w1 = SgemmNaive.workload(gen, &KernelParams::with_n(n1), 0);
        let w2 = SgemmNaive.workload(gen, &KernelParams::with_n(n2), 0);
        let t1 = dev.timing().price(&w1, n1 * n1);
        let t2 = dev.timing().price(&w2, n2 * n2);
        prop_assert!(t2.total >= t1.total);
    }
}
