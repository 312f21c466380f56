//! Effective-bandwidth model — the engine behind Figure 1.
//!
//! STREAM measures *effective* bandwidth, which differs from the
//! theoretical channel bandwidth by an agent- and kernel-dependent
//! efficiency. The model here is:
//!
//! ```text
//! BW(chip, agent, kernel, threads) =
//!     theoretical(chip) × η(chip, agent, kernel) × s(threads)
//! ```
//!
//! where `η` is a calibration table anchored to the paper's published
//! measurements (M1–M4 CPU max 59/78/92/103 GB/s, GPU max 60/91/92/100
//! GB/s, all ≈85% of peak; the M2 CPU Copy/Scale deficit of 20–30 GB/s),
//! and `s` is the CPU thread-scaling curve: one core cannot fill the
//! memory controller, so bandwidth grows concavely until the P-cluster
//! saturates the link (the reason the paper sweeps `OMP_NUM_THREADS`).
//!
//! `η` anchors are *measurements reported by the paper*, recorded as model
//! constants; the crossover behaviour, thread scaling and multi-agent
//! arbitration are produced by the model.

use crate::controller::{Agent, MemoryController};
use oranges_soc::chip::ChipGeneration;
use oranges_soc::cores::CpuComplex;
use oranges_soc::time::SimDuration;

/// The four STREAM kernels (McCalpin).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamKernelKind {
    /// `c[i] = a[i]` — 1 read + 1 write per element.
    Copy,
    /// `b[i] = q * c[i]` — 1 read + 1 write.
    Scale,
    /// `c[i] = a[i] + b[i]` — 2 reads + 1 write.
    Add,
    /// `a[i] = b[i] + q * c[i]` — 2 reads + 1 write.
    Triad,
}

impl StreamKernelKind {
    /// All kernels in the STREAM reporting order.
    pub const ALL: [StreamKernelKind; 4] = [
        StreamKernelKind::Copy,
        StreamKernelKind::Scale,
        StreamKernelKind::Add,
        StreamKernelKind::Triad,
    ];

    /// Kernel name as printed by stream.c.
    pub const fn name(&self) -> &'static str {
        match self {
            StreamKernelKind::Copy => "Copy",
            StreamKernelKind::Scale => "Scale",
            StreamKernelKind::Add => "Add",
            StreamKernelKind::Triad => "Triad",
        }
    }

    /// Bytes moved per element of array length, for element size `elem`
    /// (stream.c counts 2 arrays for Copy/Scale, 3 for Add/Triad).
    pub const fn bytes_per_element(&self, elem: usize) -> u64 {
        match self {
            StreamKernelKind::Copy | StreamKernelKind::Scale => 2 * elem as u64,
            StreamKernelKind::Add | StreamKernelKind::Triad => 3 * elem as u64,
        }
    }

    /// FLOPs per element (Scale and Triad multiply; Add adds; Copy none).
    pub const fn flops_per_element(&self) -> u64 {
        match self {
            StreamKernelKind::Copy => 0,
            StreamKernelKind::Scale => 1,
            StreamKernelKind::Add => 1,
            StreamKernelKind::Triad => 2,
        }
    }
}

/// Generic access-pattern descriptor for non-STREAM workloads (GEMM uses
/// this to account its DRAM traffic).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessPattern {
    /// Bytes read from DRAM.
    pub read_bytes: u64,
    /// Bytes written to DRAM.
    pub write_bytes: u64,
    /// Whether accesses are sequential (streaming) or strided/random.
    pub sequential: bool,
}

impl AccessPattern {
    /// Total bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.read_bytes + self.write_bytes
    }

    /// Efficiency penalty for non-sequential traffic.
    pub fn pattern_factor(&self) -> f64 {
        if self.sequential {
            1.0
        } else {
            0.55
        }
    }
}

/// Calibration: efficiency (fraction of theoretical bandwidth) for
/// (chip, agent, kernel), at full thread count / full occupancy.
///
/// Anchors (paper §5.1): CPU best 59/78/92/103 GB/s, GPU best
/// 60/91/92/100 GB/s on M1/M2/M3/M4 against theoretical 67/100/100/120;
/// the M2 CPU shows a 20–30 GB/s Copy/Scale deficit.
fn efficiency(chip: ChipGeneration, agent: Agent, kernel: StreamKernelKind) -> f64 {
    use ChipGeneration::*;
    use StreamKernelKind::*;
    match (chip, agent) {
        (M1, Agent::Cpu) => match kernel {
            Copy => 0.830,
            Scale => 0.840,
            Add => 0.860,
            Triad => 0.880, // 59.0 GB/s
        },
        (M2, Agent::Cpu) => match kernel {
            // The anomaly: Copy/Scale land 20–30 GB/s under Add/Triad.
            Copy => 0.520,
            Scale => 0.540,
            Add => 0.760,
            Triad => 0.780, // 78.0 GB/s
        },
        (M3, Agent::Cpu) => match kernel {
            Copy => 0.870,
            Scale => 0.880,
            Add => 0.900,
            Triad => 0.920, // 92.0 GB/s
        },
        (M4, Agent::Cpu) => match kernel {
            Copy => 0.810,
            Scale => 0.820,
            Add => 0.840,
            Triad => 0.858, // 103.0 GB/s
        },
        (M1, Agent::Gpu) => match kernel {
            Copy => 0.870,
            Scale => 0.870,
            Add => 0.890,
            Triad => 0.895, // 60.0 GB/s
        },
        (M2, Agent::Gpu) => match kernel {
            Copy => 0.880,
            Scale => 0.880,
            Add => 0.900,
            Triad => 0.910, // 91.0 GB/s
        },
        (M3, Agent::Gpu) => match kernel {
            Copy => 0.890,
            Scale => 0.890,
            Add => 0.910,
            Triad => 0.920, // 92.0 GB/s
        },
        (M4, Agent::Gpu) => match kernel {
            Copy => 0.800,
            Scale => 0.800,
            Add => 0.820,
            Triad => 0.833, // 100.0 GB/s
        },
        // The ANE is never benchmarked by the paper; give it a GPU-like
        // streaming efficiency for arbitration modeling.
        (_, Agent::NeuralEngine) => 0.80,
    }
}

/// The effective-bandwidth model for one chip.
#[derive(Debug, Clone)]
pub struct BandwidthModel {
    controller: MemoryController,
    cpu: CpuComplex,
}

impl BandwidthModel {
    /// Model for a chip generation.
    pub fn of(chip: ChipGeneration) -> Self {
        BandwidthModel {
            controller: MemoryController::of(chip),
            cpu: CpuComplex::of(chip.spec()),
        }
    }

    /// The underlying controller.
    pub fn controller(&self) -> &MemoryController {
        &self.controller
    }

    /// CPU thread-scaling factor in (0, 1]: a concave saturating curve on
    /// the core-weighted memory demand. One P-core reaches ~35–40% of the
    /// saturated link; the P-cluster (4 threads) ~85%; all cores ≈100%.
    pub(crate) fn thread_scaling(&self, threads: u32) -> f64 {
        if threads == 0 {
            return 0.0;
        }
        let w = self.cpu.memory_demand_weight(threads);
        const K: f64 = 0.35;
        w / (w + K * (1.0 - w))
    }

    /// Effective STREAM bandwidth in GB/s for an agent running `kernel`
    /// with `threads` CPU threads (ignored for GPU agents — a full-size
    /// dispatch saturates occupancy).
    pub fn stream_gbs(&self, agent: Agent, kernel: StreamKernelKind, threads: u32) -> f64 {
        let eta = efficiency(self.controller.chip(), agent, kernel);
        let scale = match agent {
            Agent::Cpu => self.thread_scaling(threads),
            Agent::Gpu | Agent::NeuralEngine => 1.0,
        };
        self.controller.theoretical_gbs() * eta * scale
    }

    /// Effective bandwidth for a generic access pattern at full occupancy,
    /// GB/s. Uses the agent's Triad-class streaming efficiency degraded by
    /// the pattern factor.
    pub fn pattern_gbs(&self, agent: Agent, pattern: &AccessPattern) -> f64 {
        let eta = efficiency(self.controller.chip(), agent, StreamKernelKind::Triad);
        self.controller.theoretical_gbs() * eta * pattern.pattern_factor()
    }

    /// Time to move `bytes` at the modeled STREAM bandwidth.
    pub fn transfer_time(
        &self,
        agent: Agent,
        kernel: StreamKernelKind,
        threads: u32,
        bytes: u64,
    ) -> SimDuration {
        let gbs = self.stream_gbs(agent, kernel, threads);
        if gbs <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_secs_f64(bytes as f64 / (gbs * 1e9))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(gen: ChipGeneration) -> BandwidthModel {
        BandwidthModel::of(gen)
    }

    #[test]
    fn kernel_byte_accounting_matches_stream_c() {
        assert_eq!(StreamKernelKind::Copy.bytes_per_element(8), 16);
        assert_eq!(StreamKernelKind::Scale.bytes_per_element(8), 16);
        assert_eq!(StreamKernelKind::Add.bytes_per_element(8), 24);
        assert_eq!(StreamKernelKind::Triad.bytes_per_element(8), 24);
        assert_eq!(StreamKernelKind::Triad.bytes_per_element(4), 12);
    }

    #[test]
    fn flops_per_element() {
        assert_eq!(StreamKernelKind::Copy.flops_per_element(), 0);
        assert_eq!(StreamKernelKind::Triad.flops_per_element(), 2);
    }

    #[test]
    fn cpu_peak_bandwidth_matches_paper_anchors() {
        // Paper §5.1: 59 / 78 / 92 / 103 GB/s for M1..M4 CPU (best kernel,
        // full thread sweep).
        let expected = [
            (ChipGeneration::M1, 59.0),
            (ChipGeneration::M2, 78.0),
            (ChipGeneration::M3, 92.0),
            (ChipGeneration::M4, 103.0),
        ];
        for (gen, gbs) in expected {
            let m = model(gen);
            let best = StreamKernelKind::ALL
                .iter()
                .map(|k| m.stream_gbs(Agent::Cpu, *k, gen.spec().total_cores()))
                .fold(0.0, f64::max);
            assert!((best - gbs).abs() / gbs < 0.01, "{gen}: {best} vs {gbs}");
        }
    }

    #[test]
    fn gpu_peak_bandwidth_matches_paper_anchors() {
        // Paper §5.1: 60 / 91 / 92 / 100 GB/s for M1..M4 GPU.
        let expected = [
            (ChipGeneration::M1, 60.0),
            (ChipGeneration::M2, 91.0),
            (ChipGeneration::M3, 92.0),
            (ChipGeneration::M4, 100.0),
        ];
        for (gen, gbs) in expected {
            let m = model(gen);
            let best = StreamKernelKind::ALL
                .iter()
                .map(|k| m.stream_gbs(Agent::Gpu, *k, 0))
                .fold(0.0, f64::max);
            assert!((best - gbs).abs() / gbs < 0.01, "{gen}: {best} vs {gbs}");
        }
    }

    #[test]
    fn m2_cpu_copy_scale_anomaly() {
        // Paper: "The M2 CPU deviates with a 20-30 GB/s gap comparing the
        // Copy and Scale to other kernels".
        let m = model(ChipGeneration::M2);
        let threads = ChipGeneration::M2.spec().total_cores();
        let copy = m.stream_gbs(Agent::Cpu, StreamKernelKind::Copy, threads);
        let triad = m.stream_gbs(Agent::Cpu, StreamKernelKind::Triad, threads);
        let gap = triad - copy;
        assert!((20.0..=30.0).contains(&gap), "gap {gap} GB/s");
        // No other chip shows a gap anywhere near that.
        for gen in [ChipGeneration::M1, ChipGeneration::M3, ChipGeneration::M4] {
            let m = model(gen);
            let t = gen.spec().total_cores();
            let gap = m.stream_gbs(Agent::Cpu, StreamKernelKind::Triad, t)
                - m.stream_gbs(Agent::Cpu, StreamKernelKind::Copy, t);
            assert!(gap < 10.0, "{gen} gap {gap}");
        }
    }

    #[test]
    fn all_chips_reach_about_85_percent_of_peak() {
        // Paper: "All chips get to ≈ 85% of theoretical peak bandwidth".
        for gen in ChipGeneration::ALL {
            let m = model(gen);
            let best_any = StreamKernelKind::ALL
                .iter()
                .flat_map(|k| {
                    [
                        m.stream_gbs(Agent::Cpu, *k, gen.spec().total_cores()),
                        m.stream_gbs(Agent::Gpu, *k, 0),
                    ]
                })
                .fold(0.0, f64::max);
            let frac = best_any / gen.spec().memory_bandwidth_gbs;
            assert!((0.82..=0.95).contains(&frac), "{gen}: {frac}");
        }
    }

    #[test]
    fn thread_scaling_is_concave_and_saturating() {
        let m = model(ChipGeneration::M1);
        assert_eq!(m.thread_scaling(0), 0.0);
        let s1 = m.thread_scaling(1);
        let s2 = m.thread_scaling(2);
        let s3 = m.thread_scaling(3);
        let s4 = m.thread_scaling(4);
        let s8 = m.thread_scaling(8);
        assert!(s1 > 0.3 && s1 < 0.45, "single core ~35-40%: {s1}");
        assert!(s2 > s1 && s3 > s2 && s4 > s3 && s8 > s4);
        assert!((s8 - 1.0).abs() < 1e-9, "all cores saturate: {s8}");
        // Diminishing returns per added thread (concavity).
        assert!(s2 - s1 > s3 - s2 - 1e-12);
    }

    #[test]
    fn transfer_time_scales_linearly_with_bytes() {
        let m = model(ChipGeneration::M3);
        let t1 = m.transfer_time(Agent::Gpu, StreamKernelKind::Copy, 0, 1 << 30);
        let t2 = m.transfer_time(Agent::Gpu, StreamKernelKind::Copy, 0, 2 << 30);
        let ratio = t2.as_secs_f64() / t1.as_secs_f64();
        assert!((ratio - 2.0).abs() < 1e-6);
    }

    #[test]
    fn pattern_bandwidth_penalizes_random_access() {
        let m = model(ChipGeneration::M4);
        let seq = AccessPattern {
            read_bytes: 1 << 20,
            write_bytes: 1 << 20,
            sequential: true,
        };
        let rand = AccessPattern {
            read_bytes: 1 << 20,
            write_bytes: 1 << 20,
            sequential: false,
        };
        assert!(m.pattern_gbs(Agent::Gpu, &seq) > m.pattern_gbs(Agent::Gpu, &rand));
        assert_eq!(seq.total_bytes(), 2 << 20);
    }

    #[test]
    fn bandwidth_never_exceeds_theoretical() {
        for gen in ChipGeneration::ALL {
            let m = model(gen);
            for agent in [Agent::Cpu, Agent::Gpu, Agent::NeuralEngine] {
                for kernel in StreamKernelKind::ALL {
                    for threads in [1, 2, 4, 8, 16] {
                        let gbs = m.stream_gbs(agent, kernel, threads);
                        assert!(gbs <= gen.spec().memory_bandwidth_gbs);
                        assert!(gbs >= 0.0);
                    }
                }
            }
        }
    }
}
