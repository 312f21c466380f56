//! The Table 2 suite: every implementation, the paper's size grid, and the
//! §4 skip rules.

use crate::cpu_accelerate::CpuAccelerate;
use crate::cpu_omp::CpuOmp;
use crate::cpu_single::CpuSingle;
use crate::gpu_mps::GpuMps;
use crate::gpu_shader::GpuShader;
use crate::GemmImplementation;
use oranges_soc::chip::ChipGeneration;

/// Hardware column of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Hardware {
    /// Runs on the CPU complex (incl. AMX).
    Cpu,
    /// Runs on the GPU.
    Gpu,
}

impl Hardware {
    /// Table label.
    pub const fn label(&self) -> &'static str {
        match self {
            Hardware::Cpu => "CPU",
            Hardware::Gpu => "GPU",
        }
    }
}

/// Static description of one Table 2 row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImplementationInfo {
    /// Figure legend name.
    pub name: &'static str,
    /// Table 2 "Implementation" column.
    pub implementation: &'static str,
    /// Table 2 "Framework" column.
    pub framework: &'static str,
    /// Table 2 "Hardware" column.
    pub hardware: Hardware,
}

/// Table 2, as data.
pub const TABLE2: [ImplementationInfo; 6] = [
    ImplementationInfo {
        name: "CPU-Single",
        implementation: "Naive algorithm",
        framework: "C++",
        hardware: Hardware::Cpu,
    },
    ImplementationInfo {
        name: "CPU-OMP",
        implementation: "Tiled algorithm (OpenMP)",
        framework: "C++/OpenMP",
        hardware: Hardware::Cpu,
    },
    ImplementationInfo {
        name: "CPU-Accelerate",
        implementation: "BLAS/vDSP",
        framework: "Accelerate",
        hardware: Hardware::Cpu,
    },
    ImplementationInfo {
        name: "GPU-Naive",
        implementation: "Naive algorithm as shader",
        framework: "Metal",
        hardware: Hardware::Gpu,
    },
    ImplementationInfo {
        name: "GPU-CUTLASS",
        implementation: "Cutlass-style tiled shader",
        framework: "Metal",
        hardware: Hardware::Gpu,
    },
    ImplementationInfo {
        name: "GPU-MPS",
        implementation: "Metal Performance Shaders (MPS)",
        framework: "Metal",
        hardware: Hardware::Gpu,
    },
];

/// The paper's matrix sizes (§4): powers of two from 32 to 16384.
pub fn paper_sizes() -> Vec<usize> {
    vec![32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384]
}

/// §4's skip rule: "Except for CPU-Single (Baseline) and CPU-OMP, which
/// did not execute 8,192 and 16,384 due to the long execution time."
pub fn skips_size(name: &str, n: usize) -> bool {
    (name == "CPU-Single" || name == "CPU-OMP") && n >= 8192
}

/// Construct every Table 2 implementation for a chip, in table order.
pub fn suite_for(chip: ChipGeneration) -> Vec<Box<dyn GemmImplementation>> {
    vec![
        Box::new(CpuSingle::new(chip)),
        Box::new(CpuOmp::new(chip)),
        Box::new(CpuAccelerate::new(chip)),
        Box::new(GpuShader::naive(chip)),
        Box::new(GpuShader::tiled(chip)),
        Box::new(GpuMps::new(chip)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{reference_gemm, verify_sampled};

    #[test]
    fn table2_has_six_rows_with_expected_frameworks() {
        assert_eq!(TABLE2.len(), 6);
        let cpu_rows = TABLE2
            .iter()
            .filter(|r| r.hardware == Hardware::Cpu)
            .count();
        let gpu_rows = TABLE2
            .iter()
            .filter(|r| r.hardware == Hardware::Gpu)
            .count();
        assert_eq!(cpu_rows, 3);
        assert_eq!(gpu_rows, 3);
        assert!(TABLE2.iter().any(|r| r.framework == "Accelerate"));
        assert_eq!(TABLE2.iter().filter(|r| r.framework == "Metal").count(), 3);
    }

    #[test]
    fn suite_matches_table2_order() {
        let suite = suite_for(ChipGeneration::M1);
        assert_eq!(suite.len(), 6);
        for (implementation, info) in suite.iter().zip(TABLE2.iter()) {
            assert_eq!(implementation.name(), info.name);
        }
    }

    #[test]
    fn paper_sizes_are_powers_of_two() {
        let sizes = paper_sizes();
        assert_eq!(sizes.first(), Some(&32));
        assert_eq!(sizes.last(), Some(&16384));
        for pair in sizes.windows(2) {
            assert_eq!(pair[1], pair[0] * 2);
        }
    }

    #[test]
    fn skip_rules_match_section4() {
        assert!(skips_size("CPU-Single", 8192));
        assert!(skips_size("CPU-Single", 16384));
        assert!(skips_size("CPU-OMP", 8192));
        assert!(!skips_size("CPU-Single", 4096));
        assert!(!skips_size("CPU-Accelerate", 16384));
        assert!(!skips_size("GPU-MPS", 16384));
    }

    #[test]
    fn all_implementations_agree_on_a_small_problem() {
        let n = 32;
        let a: Vec<f32> = (0..n * n)
            .map(|i| ((i * 7 + 1) % 13) as f32 / 13.0)
            .collect();
        let b: Vec<f32> = (0..n * n)
            .map(|i| ((i * 11 + 5) % 17) as f32 / 17.0)
            .collect();
        let mut expected = vec![0.0f32; n * n];
        reference_gemm(n, &a, &b, &mut expected);
        for mut implementation in suite_for(ChipGeneration::M2) {
            let mut c = vec![0.0f32; n * n];
            let outcome = implementation.run(n, &a, &b, &mut c).unwrap();
            assert!(outcome.functional, "{}", implementation.name());
            let verdict = verify_sampled(n, &a, &b, &c, 64, 7, 1e-5);
            assert!(
                verdict.passed,
                "{}: max rel error {}",
                implementation.name(),
                verdict.max_rel_error
            );
        }
    }

    #[test]
    fn figure2_ordering_holds_at_large_sizes() {
        // At n = 4096 (modeled-only): MPS > Accelerate > GPU-Naive >
        // GPU-CUTLASS > CPU-OMP > CPU-Single on every chip except where
        // the paper shows otherwise (Accelerate vs GPU-Naive ordering
        // differs per chip; we check the universal relations only).
        let n = 4096;
        for chip in ChipGeneration::ALL {
            let mut gflops = std::collections::HashMap::new();
            for mut implementation in suite_for(chip) {
                let outcome = implementation.model_run(n).unwrap();
                gflops.insert(implementation.name(), outcome.gflops());
            }
            assert!(gflops["GPU-MPS"] > gflops["CPU-Accelerate"], "{chip}");
            assert!(gflops["CPU-Accelerate"] > gflops["GPU-Naive"], "{chip}");
            assert!(gflops["GPU-Naive"] > gflops["GPU-CUTLASS"], "{chip}");
            assert!(gflops["GPU-CUTLASS"] > gflops["CPU-OMP"], "{chip}");
            assert!(gflops["CPU-OMP"] > gflops["CPU-Single"], "{chip}");
        }
    }
}
