//! Numerical agreement across engines: every implementation (CPU scalar,
//! CPU blocked, Accelerate BLAS, three GPU paths) must compute the same
//! product, up to FP32 reassociation.

use oranges_gemm::suite::suite_for;
use oranges_gemm::verify::reference_gemm;
use oranges_soc::chip::ChipGeneration;

fn random_matrix(n: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(12345);
    (0..n * n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / (1u32 << 24) as f32
        })
        .collect()
}

#[test]
fn all_engines_agree_with_the_reference() {
    let n = 48;
    let a = random_matrix(n, 1);
    let b = random_matrix(n, 2);
    let mut expected = vec![0.0f32; n * n];
    reference_gemm(n, &a, &b, &mut expected);

    for chip in [ChipGeneration::M1, ChipGeneration::M4] {
        for mut implementation in suite_for(chip) {
            let mut c = vec![0.0f32; n * n];
            let outcome = implementation.run(n, &a, &b, &mut c).unwrap();
            assert!(outcome.functional, "{chip} {}", implementation.name());
            let tolerance = 1e-4f32 * n as f32;
            for (idx, (x, y)) in c.iter().zip(&expected).enumerate() {
                assert!(
                    (x - y).abs() <= tolerance * (1.0 + y.abs()),
                    "{chip} {} at {idx}: {x} vs {y}",
                    implementation.name()
                );
            }
        }
    }
}

#[test]
fn stream_cpu_and_gpu_use_the_same_byte_accounting() {
    use oranges_umem::bandwidth::StreamKernelKind;
    // Copy moves 2 arrays, Add/Triad 3 — identical on both agents, only
    // the element size differs (f64 CPU, f32 GPU).
    for kind in StreamKernelKind::ALL {
        let cpu_bytes = kind.bytes_per_element(8);
        let gpu_bytes = kind.bytes_per_element(4);
        assert_eq!(cpu_bytes, gpu_bytes * 2);
    }
}
