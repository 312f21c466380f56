//! Chip generation database — the paper's Table 1.
//!
//! Every field of Table 1 ("Comparison of Baseline Apple Silicon M Series
//! Architecture") is represented, plus the derived quantities the benchmarks
//! need (per-engine theoretical FLOPS, AMX peak, byte-exact cache capacities).

use crate::error::SocError;
use std::fmt;

/// The four M-series generations the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ChipGeneration {
    /// Apple M1 (2020, Firestorm/Icestorm).
    M1,
    /// Apple M2 (2022, Avalanche/Blizzard).
    M2,
    /// Apple M3 (2023, Everest/Sawtooth-class cores).
    M3,
    /// Apple M4 (2024, first ARMv9.2-A M-series with SME).
    M4,
}

impl ChipGeneration {
    /// All generations in release order — the x-axis of every paper figure.
    pub const ALL: [ChipGeneration; 4] = [
        ChipGeneration::M1,
        ChipGeneration::M2,
        ChipGeneration::M3,
        ChipGeneration::M4,
    ];

    /// Marketing name ("M1" … "M4").
    pub const fn name(&self) -> &'static str {
        match self {
            ChipGeneration::M1 => "M1",
            ChipGeneration::M2 => "M2",
            ChipGeneration::M3 => "M3",
            ChipGeneration::M4 => "M4",
        }
    }

    /// Parse a marketing name (case-insensitive).
    pub fn parse(name: &str) -> Result<Self, SocError> {
        match name.trim().to_ascii_uppercase().as_str() {
            "M1" => Ok(ChipGeneration::M1),
            "M2" => Ok(ChipGeneration::M2),
            "M3" => Ok(ChipGeneration::M3),
            "M4" => Ok(ChipGeneration::M4),
            other => Err(SocError::UnknownChip(other.to_string())),
        }
    }

    /// Full Table 1 specification for this generation.
    pub fn spec(&self) -> &'static ChipSpec {
        ChipSpec::of(*self)
    }
}

impl fmt::Display for ChipGeneration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Process technology node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcessNode {
    /// TSMC N5 (5 nm) — M1.
    N5,
    /// TSMC N5P (5 nm refined, marketed "5/4") — M2.
    N5P,
    /// TSMC N3B (3 nm) — M3.
    N3B,
    /// TSMC N3E (3 nm) — M4.
    N3E,
}

impl ProcessNode {
    /// Nominal feature size in nanometres (Table 1 row "Process Technology").
    pub(crate) const fn nanometres(&self) -> u8 {
        match self {
            ProcessNode::N5 | ProcessNode::N5P => 5,
            ProcessNode::N3B | ProcessNode::N3E => 3,
        }
    }

    /// The string as printed in Table 1.
    pub const fn table_label(&self) -> &'static str {
        match self {
            ProcessNode::N5 => "5",
            ProcessNode::N5P => "5/4",
            ProcessNode::N3B => "3",
            ProcessNode::N3E => "3",
        }
    }
}

/// ARM ISA revision (Table 1 row "CPU Architecture").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ArmIsa {
    /// ARMv8.5-A — M1.
    V8_5A,
    /// ARMv8.6-A — M2, M3.
    V8_6A,
    /// ARMv9.2-A — M4 (brings standardized SME).
    V9_2A,
}

impl ArmIsa {
    /// Canonical name, e.g. `"ARMv8.5-A"`.
    pub const fn name(&self) -> &'static str {
        match self {
            ArmIsa::V8_5A => "ARMv8.5-A",
            ArmIsa::V8_6A => "ARMv8.6-A",
            ArmIsa::V9_2A => "ARMv9.2-A",
        }
    }
}

/// Memory technology generation (Table 1 row "Memory Technology").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryTechnology {
    /// LPDDR4X — M1 (67 GB/s class).
    Lpddr4x,
    /// LPDDR5 — M2, M3 (100 GB/s class).
    Lpddr5,
    /// LPDDR5X — M4 (120 GB/s class).
    Lpddr5x,
}

impl MemoryTechnology {
    /// Canonical name.
    pub const fn name(&self) -> &'static str {
        match self {
            MemoryTechnology::Lpddr4x => "LPDDR4X",
            MemoryTechnology::Lpddr5 => "LPDDR5",
            MemoryTechnology::Lpddr5x => "LPDDR5X",
        }
    }

    /// Per-pin data rate in mega-transfers per second, base-model config.
    pub const fn transfer_rate_mts(&self) -> u32 {
        match self {
            MemoryTechnology::Lpddr4x => 4_266,
            MemoryTechnology::Lpddr5 => 6_400,
            MemoryTechnology::Lpddr5x => 7_500,
        }
    }
}

/// AMX / SME coprocessor capabilities (Table 1 row "AMX Characteristics").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AmxCapabilities {
    /// FP16 tile arithmetic.
    pub fp16: bool,
    /// FP32 tile arithmetic.
    pub fp32: bool,
    /// FP64 tile arithmetic.
    pub fp64: bool,
    /// BF16 tile arithmetic (M2 onwards).
    pub bf16: bool,
    /// Standardized ARM SME interface (M4 onwards; paper §2.1 and \[17\]).
    pub sme: bool,
}

impl AmxCapabilities {
    /// The label as printed in Table 1, e.g. `"FP16,32,64/BF16"`.
    pub fn table_label(&self) -> String {
        let mut label = String::from("FP16,32,64");
        if self.bf16 {
            label.push_str("/BF16");
        }
        if self.sme {
            label.push_str(" (SME)");
        }
        label
    }
}

/// Unified-memory capacity options (Table 1 row "Max Unified Memory").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryOptions {
    /// Available capacities in GiB for the base chip.
    pub capacities_gb: &'static [u32],
}

/// One row-set of Table 1: the complete baseline-chip specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipSpec {
    /// Which generation this spec describes.
    pub generation: ChipGeneration,
    /// Process node.
    pub process: ProcessNode,
    /// ARM ISA revision.
    pub isa: ArmIsa,
    /// Performance ("big") core count.
    pub p_cores: u32,
    /// Efficiency ("LITTLE") core count.
    pub e_cores: u32,
    /// Performance-core max clock in GHz.
    pub p_clock_ghz: f64,
    /// Efficiency-core max clock in GHz.
    pub e_clock_ghz: f64,
    /// SIMD vector width in bits (NEON: 128 for all four generations).
    pub vector_bits: u32,
    /// L1 data cache per performance core, KiB.
    pub l1_p_kib: u32,
    /// L1 data cache per efficiency core, KiB.
    pub l1_e_kib: u32,
    /// Shared L2 for the performance cluster, MiB.
    pub l2_p_mib: u32,
    /// Shared L2 for the efficiency cluster, MiB.
    pub l2_e_mib: u32,
    /// System-level cache, MiB (not in Table 1; architectural estimate used
    /// by the cache model: 8 MiB on M1/M2, 8 MiB M3, 12 MiB M4-class).
    pub slc_mib: u32,
    /// AMX/SME capabilities.
    pub amx: AmxCapabilities,
    /// GPU core count range for the baseline chip (min binned, max full).
    pub gpu_cores_min: u32,
    /// Full (maximum) GPU core count of the baseline chip — the paper tests
    /// the max configuration (§4: "maximum number of CPU and GPU cores of
    /// the base models").
    pub gpu_cores_max: u32,
    /// GPU clock in GHz (Table 1).
    pub gpu_clock_ghz: f64,
    /// GPU FP32 theoretical TFLOPS as published in Table 1 (max config).
    ///
    /// For M1–M3 this equals `cores × 128 ALUs × 2 flops × clock` to within
    /// 1%. The published M4 figure (4.26) implies a boost clock of ~1.66 GHz
    /// rather than the nominal 1.47; we keep the published value as ground
    /// truth and expose both (see [`ChipSpec::gpu_tflops_from_alus`]).
    pub gpu_tflops_published: f64,
    /// Neural Engine core count (16 across all four generations).
    pub neural_engine_cores: u32,
    /// Memory technology.
    pub memory: MemoryTechnology,
    /// Unified-memory capacity options.
    pub memory_options: MemoryOptions,
    /// Theoretical memory bandwidth, GB/s (Table 1).
    pub memory_bandwidth_gbs: f64,
    /// Performance-core microarchitecture name.
    pub p_core_name: &'static str,
    /// Efficiency-core microarchitecture name.
    pub e_core_name: &'static str,
}

/// Scalar FP32 FLOPs per cycle of one NEON FMA pipe (4 lanes × 2 flops).
pub(crate) const NEON_F32_FLOPS_PER_PIPE_CYCLE: u32 = 8;

/// Number of 128-bit FP/NEON execution pipes on a performance core.
///
/// Apple's big cores (Firestorm onwards) issue four FP/SIMD micro-ops per
/// cycle; efficiency cores issue two.
pub(crate) const P_CORE_NEON_PIPES: u32 = 4;
/// FP/NEON pipes on an efficiency core.
pub(crate) const E_CORE_NEON_PIPES: u32 = 2;

/// FP32 MACs per AMX instruction: a 16×16 outer product of two 64-byte
/// operand registers (16 f32 each), i.e. 256 MACs = 512 FLOPs per issue.
pub(crate) const AMX_F32_FLOPS_PER_ISSUE: u32 = 512;

/// GPU shader ALUs per GPU core (Apple G13/G14/G15/G16 family: 128 FP32
/// lanes per core, each capable of one FMA per cycle).
pub(crate) const GPU_ALUS_PER_CORE: u32 = 128;

static M1: ChipSpec = ChipSpec {
    generation: ChipGeneration::M1,
    process: ProcessNode::N5,
    isa: ArmIsa::V8_5A,
    p_cores: 4,
    e_cores: 4,
    p_clock_ghz: 3.2,
    e_clock_ghz: 2.06,
    vector_bits: 128,
    l1_p_kib: 128,
    l1_e_kib: 64,
    l2_p_mib: 12,
    l2_e_mib: 4,
    slc_mib: 8,
    amx: AmxCapabilities {
        fp16: true,
        fp32: true,
        fp64: true,
        bf16: false,
        sme: false,
    },
    gpu_cores_min: 7,
    gpu_cores_max: 8,
    gpu_clock_ghz: 1.27,
    gpu_tflops_published: 2.61,
    neural_engine_cores: 16,
    memory: MemoryTechnology::Lpddr4x,
    memory_options: MemoryOptions {
        capacities_gb: &[8, 16],
    },
    memory_bandwidth_gbs: 67.0,
    p_core_name: "Firestorm",
    e_core_name: "Icestorm",
};

static M2: ChipSpec = ChipSpec {
    generation: ChipGeneration::M2,
    process: ProcessNode::N5P,
    isa: ArmIsa::V8_6A,
    p_cores: 4,
    e_cores: 4,
    p_clock_ghz: 3.5,
    e_clock_ghz: 2.42,
    vector_bits: 128,
    l1_p_kib: 128,
    l1_e_kib: 64,
    l2_p_mib: 16,
    l2_e_mib: 4,
    slc_mib: 8,
    amx: AmxCapabilities {
        fp16: true,
        fp32: true,
        fp64: true,
        bf16: true,
        sme: false,
    },
    gpu_cores_min: 8,
    gpu_cores_max: 10,
    gpu_clock_ghz: 1.39,
    gpu_tflops_published: 3.57,
    neural_engine_cores: 16,
    memory: MemoryTechnology::Lpddr5,
    memory_options: MemoryOptions {
        capacities_gb: &[8, 16, 24],
    },
    memory_bandwidth_gbs: 100.0,
    p_core_name: "Avalanche",
    e_core_name: "Blizzard",
};

static M3: ChipSpec = ChipSpec {
    generation: ChipGeneration::M3,
    process: ProcessNode::N3B,
    isa: ArmIsa::V8_6A,
    p_cores: 4,
    e_cores: 4,
    p_clock_ghz: 4.05,
    e_clock_ghz: 2.75,
    vector_bits: 128,
    l1_p_kib: 128,
    l1_e_kib: 64,
    l2_p_mib: 16,
    l2_e_mib: 4,
    slc_mib: 8,
    amx: AmxCapabilities {
        fp16: true,
        fp32: true,
        fp64: true,
        bf16: true,
        sme: false,
    },
    gpu_cores_min: 8,
    gpu_cores_max: 10,
    gpu_clock_ghz: 1.38,
    gpu_tflops_published: 3.53,
    neural_engine_cores: 16,
    memory: MemoryTechnology::Lpddr5,
    memory_options: MemoryOptions {
        capacities_gb: &[8, 16, 24],
    },
    memory_bandwidth_gbs: 100.0,
    p_core_name: "Everest",
    e_core_name: "Sawtooth",
};

static M4: ChipSpec = ChipSpec {
    generation: ChipGeneration::M4,
    process: ProcessNode::N3E,
    isa: ArmIsa::V9_2A,
    p_cores: 4,
    e_cores: 6,
    p_clock_ghz: 4.4,
    e_clock_ghz: 2.85,
    vector_bits: 128,
    l1_p_kib: 128,
    l1_e_kib: 64,
    l2_p_mib: 16,
    l2_e_mib: 4,
    slc_mib: 12,
    amx: AmxCapabilities {
        fp16: true,
        fp32: true,
        fp64: true,
        bf16: true,
        sme: true,
    },
    gpu_cores_min: 8,
    gpu_cores_max: 10,
    gpu_clock_ghz: 1.47,
    gpu_tflops_published: 4.26,
    neural_engine_cores: 16,
    memory: MemoryTechnology::Lpddr5x,
    memory_options: MemoryOptions {
        capacities_gb: &[16, 24, 32],
    },
    memory_bandwidth_gbs: 120.0,
    p_core_name: "M4 P-core",
    e_core_name: "M4 E-core",
};

impl ChipSpec {
    /// Look up the Table 1 spec of a generation.
    pub fn of(generation: ChipGeneration) -> &'static ChipSpec {
        match generation {
            ChipGeneration::M1 => &M1,
            ChipGeneration::M2 => &M2,
            ChipGeneration::M3 => &M3,
            ChipGeneration::M4 => &M4,
        }
    }

    /// All four specs in release order.
    pub fn all() -> [&'static ChipSpec; 4] {
        [&M1, &M2, &M3, &M4]
    }

    /// Total CPU core count (P + E).
    pub const fn total_cores(&self) -> u32 {
        self.p_cores + self.e_cores
    }

    /// Theoretical FP32 GFLOPS of the NEON units across the whole CPU
    /// (both clusters at max clock).
    pub fn cpu_neon_gflops(&self) -> f64 {
        let p = self.p_cores as f64
            * self.p_clock_ghz
            * (P_CORE_NEON_PIPES * NEON_F32_FLOPS_PER_PIPE_CYCLE) as f64;
        let e = self.e_cores as f64
            * self.e_clock_ghz
            * (E_CORE_NEON_PIPES * NEON_F32_FLOPS_PER_PIPE_CYCLE) as f64;
        p + e
    }

    /// Theoretical FP32 GFLOPS of the AMX/SME unit.
    ///
    /// One AMX block issues a 16×16 FP32 outer product per P-cluster clock:
    /// `512 flops × p_clock`. This matches the ~0.9–1.5 TFLOPS the paper
    /// measures through Accelerate at 55–66% efficiency, and the ~2 TFLOPS
    /// SME figure of Remke & Breuer \[17\] for M4-class hardware.
    pub fn amx_gflops(&self) -> f64 {
        AMX_F32_FLOPS_PER_ISSUE as f64 * self.p_clock_ghz
    }

    /// GPU theoretical FP32 TFLOPS derived from the ALU model
    /// (`cores × 128 × 2 × clock`), max-core configuration.
    pub fn gpu_tflops_from_alus(&self) -> f64 {
        self.gpu_cores_max as f64 * GPU_ALUS_PER_CORE as f64 * 2.0 * self.gpu_clock_ghz / 1e3
    }

    /// GPU theoretical FP32 TFLOPS for the minimum (binned) configuration.
    pub fn gpu_tflops_min_config(&self) -> f64 {
        self.gpu_cores_min as f64 * GPU_ALUS_PER_CORE as f64 * 2.0 * self.gpu_clock_ghz / 1e3
    }

    /// Effective GPU clock implied by the published TFLOPS figure. For
    /// M1–M3 this equals the nominal clock (±1%); for M4 it reveals the
    /// ~1.66 GHz boost clock behind the published 4.26 TFLOPS.
    pub fn gpu_implied_clock_ghz(&self) -> f64 {
        self.gpu_tflops_published * 1e3
            / (self.gpu_cores_max as f64 * GPU_ALUS_PER_CORE as f64 * 2.0)
    }
}

impl fmt::Display for ChipSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} nm, {}, {}P+{}E @ {:.2}/{:.2} GHz, {} GPU cores @ {:.2} GHz, {} {} GB/s)",
            self.generation,
            self.process.nanometres(),
            self.isa.name(),
            self.p_cores,
            self.e_cores,
            self.p_clock_ghz,
            self.e_clock_ghz,
            self.gpu_cores_max,
            self.gpu_clock_ghz,
            self.memory.name(),
            self.memory_bandwidth_gbs,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_row_process_technology() {
        assert_eq!(ChipSpec::of(ChipGeneration::M1).process.table_label(), "5");
        assert_eq!(
            ChipSpec::of(ChipGeneration::M2).process.table_label(),
            "5/4"
        );
        assert_eq!(ChipSpec::of(ChipGeneration::M3).process.nanometres(), 3);
        assert_eq!(ChipSpec::of(ChipGeneration::M4).process.nanometres(), 3);
    }

    #[test]
    fn table1_row_cpu_architecture() {
        assert_eq!(ChipGeneration::M1.spec().isa.name(), "ARMv8.5-A");
        assert_eq!(ChipGeneration::M2.spec().isa.name(), "ARMv8.6-A");
        assert_eq!(ChipGeneration::M3.spec().isa.name(), "ARMv8.6-A");
        assert_eq!(ChipGeneration::M4.spec().isa.name(), "ARMv9.2-A");
    }

    #[test]
    fn table1_row_core_counts() {
        for gen in [ChipGeneration::M1, ChipGeneration::M2, ChipGeneration::M3] {
            assert_eq!(gen.spec().p_cores, 4);
            assert_eq!(gen.spec().e_cores, 4);
        }
        assert_eq!(ChipGeneration::M4.spec().p_cores, 4);
        assert_eq!(ChipGeneration::M4.spec().e_cores, 6);
        assert_eq!(ChipGeneration::M4.spec().total_cores(), 10);
    }

    #[test]
    fn table1_row_clock_frequencies() {
        let clocks: Vec<(f64, f64)> = ChipSpec::all()
            .iter()
            .map(|s| (s.p_clock_ghz, s.e_clock_ghz))
            .collect();
        assert_eq!(
            clocks,
            vec![(3.2, 2.06), (3.5, 2.42), (4.05, 2.75), (4.4, 2.85)]
        );
    }

    #[test]
    fn table1_row_vector_unit_is_neon_128_everywhere() {
        for spec in ChipSpec::all() {
            assert_eq!(spec.vector_bits, 128);
        }
    }

    #[test]
    fn table1_row_caches() {
        for spec in ChipSpec::all() {
            assert_eq!(spec.l1_p_kib, 128);
            assert_eq!(spec.l1_e_kib, 64);
            assert_eq!(spec.l2_e_mib, 4);
        }
        assert_eq!(ChipGeneration::M1.spec().l2_p_mib, 12);
        assert_eq!(ChipGeneration::M2.spec().l2_p_mib, 16);
        assert_eq!(ChipGeneration::M3.spec().l2_p_mib, 16);
        assert_eq!(ChipGeneration::M4.spec().l2_p_mib, 16);
    }

    #[test]
    fn table1_row_amx_capabilities() {
        assert_eq!(ChipGeneration::M1.spec().amx.table_label(), "FP16,32,64");
        assert_eq!(
            ChipGeneration::M2.spec().amx.table_label(),
            "FP16,32,64/BF16"
        );
        assert_eq!(
            ChipGeneration::M3.spec().amx.table_label(),
            "FP16,32,64/BF16"
        );
        assert_eq!(
            ChipGeneration::M4.spec().amx.table_label(),
            "FP16,32,64/BF16 (SME)"
        );
    }

    #[test]
    fn table1_row_gpu_cores_and_clocks() {
        let gpu: Vec<(u32, u32, f64)> = ChipSpec::all()
            .iter()
            .map(|s| (s.gpu_cores_min, s.gpu_cores_max, s.gpu_clock_ghz))
            .collect();
        assert_eq!(
            gpu,
            vec![(7, 8, 1.27), (8, 10, 1.39), (8, 10, 1.38), (8, 10, 1.47)]
        );
    }

    #[test]
    fn table1_row_theoretical_tflops_range_matches_alu_model_m1_to_m3() {
        // Table 1 publishes 2.29–2.61 (M1), 2.86–3.57 (M2), 2.82–3.53 (M3);
        // the ALU model must land within 1.5% of the max-config numbers.
        for (gen, published_max) in [
            (ChipGeneration::M1, 2.61),
            (ChipGeneration::M2, 3.57),
            (ChipGeneration::M3, 3.53),
        ] {
            let derived = gen.spec().gpu_tflops_from_alus();
            let rel = (derived - published_max).abs() / published_max;
            assert!(
                rel < 0.015,
                "{gen}: derived {derived:.3} vs published {published_max}"
            );
        }
        // Min-config sanity: M1 7-core ≈ 2.28 TFLOPS.
        let m1_min = ChipGeneration::M1.spec().gpu_tflops_min_config();
        assert!(
            (m1_min - 2.29).abs() / 2.29 < 0.01,
            "M1 min config {m1_min:.3}"
        );
    }

    #[test]
    fn m4_published_tflops_implies_boost_clock() {
        let spec = ChipGeneration::M4.spec();
        let implied = spec.gpu_implied_clock_ghz();
        assert!(
            implied > spec.gpu_clock_ghz,
            "published 4.26 TFLOPS implies boost"
        );
        assert!(
            (implied - 1.664).abs() < 0.01,
            "implied clock {implied:.3} GHz"
        );
    }

    #[test]
    fn table1_row_neural_engine() {
        for spec in ChipSpec::all() {
            assert_eq!(spec.neural_engine_cores, 16);
        }
    }

    #[test]
    fn table1_row_memory() {
        assert_eq!(ChipGeneration::M1.spec().memory.name(), "LPDDR4X");
        assert_eq!(ChipGeneration::M2.spec().memory.name(), "LPDDR5");
        assert_eq!(ChipGeneration::M3.spec().memory.name(), "LPDDR5");
        assert_eq!(ChipGeneration::M4.spec().memory.name(), "LPDDR5X");
        let bw: Vec<f64> = ChipSpec::all()
            .iter()
            .map(|s| s.memory_bandwidth_gbs)
            .collect();
        assert_eq!(bw, vec![67.0, 100.0, 100.0, 120.0]);
        let max_gb = |gen: ChipGeneration| gen.spec().memory_options.capacities_gb.iter().max();
        assert_eq!(max_gb(ChipGeneration::M1), Some(&16));
        assert_eq!(max_gb(ChipGeneration::M2), Some(&24));
        assert_eq!(max_gb(ChipGeneration::M4), Some(&32));
    }

    #[test]
    fn amx_peak_rises_with_generation() {
        let peaks: Vec<f64> = ChipSpec::all().iter().map(|s| s.amx_gflops()).collect();
        for window in peaks.windows(2) {
            assert!(window[1] > window[0], "AMX peak must rise: {peaks:?}");
        }
        // M1: 512 flops × 3.2 GHz = 1638.4 GFLOPS.
        assert!((peaks[0] - 1638.4).abs() < 0.1);
        // M4: 512 × 4.4 = 2252.8 GFLOPS — consistent with ~2 TFLOPS SME
        // measurements in the literature.
        assert!((peaks[3] - 2252.8).abs() < 0.1);
    }

    #[test]
    fn neon_gflops_are_far_below_amx() {
        // The paper's premise: Accelerate (AMX) dominates CPU GEMM. NEON
        // alone peaks at ~0.4–0.6 TFLOPS, well below the AMX 1.6–2.2.
        for spec in ChipSpec::all() {
            assert!(spec.cpu_neon_gflops() < spec.amx_gflops());
        }
    }

    #[test]
    fn parse_round_trips() {
        for gen in ChipGeneration::ALL {
            assert_eq!(ChipGeneration::parse(gen.name()).unwrap(), gen);
            assert_eq!(
                ChipGeneration::parse(&gen.name().to_lowercase()).unwrap(),
                gen
            );
        }
        assert!(matches!(
            ChipGeneration::parse("M99"),
            Err(SocError::UnknownChip(_))
        ));
    }

    #[test]
    fn display_mentions_key_facts() {
        let s = ChipGeneration::M4.spec().to_string();
        assert!(s.contains("M4"));
        assert!(s.contains("LPDDR5X"));
        assert!(s.contains("120"));
    }

    #[test]
    fn debug_output_names_the_chip() {
        let spec = ChipGeneration::M2.spec();
        assert!(format!("{spec:?}").contains("M2"));
    }
}
