//! big.LITTLE CPU complex model.
//!
//! The M-series uses performance (P) and efficiency (E) clusters (§2.1:
//! Firestorm/Icestorm on M1, Avalanche/Blizzard on M2, …). The model exposes
//! per-core and per-cluster FP32 throughput for the NEON units and answers
//! the scheduling question the STREAM thread sweep asks: "given `t` software
//! threads, which cores are busy and what aggregate compute/bandwidth share
//! do they get?" macOS schedules demanding threads onto P-cores first, then
//! spills onto E-cores — the model follows that policy.

use crate::chip::{ChipSpec, E_CORE_NEON_PIPES, NEON_F32_FLOPS_PER_PIPE_CYCLE, P_CORE_NEON_PIPES};
use std::fmt;

/// Which kind of core a hardware thread lands on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoreKind {
    /// High-performance ("big") core.
    Performance,
    /// High-efficiency ("LITTLE") core.
    Efficiency,
}

impl fmt::Display for CoreKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreKind::Performance => f.write_str("P"),
            CoreKind::Efficiency => f.write_str("E"),
        }
    }
}

/// One homogeneous cluster of cores.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreCluster {
    /// P or E.
    pub kind: CoreKind,
    /// Number of cores in the cluster.
    pub cores: u32,
    /// Max clock, GHz.
    pub clock_ghz: f64,
    /// NEON pipes per core.
    pub neon_pipes: u32,
    /// Microarchitecture name (e.g. "Firestorm").
    pub microarch: &'static str,
}

impl CoreCluster {
    /// FP32 GFLOPS of one core at max clock.
    pub(crate) fn gflops_per_core(&self) -> f64 {
        self.clock_ghz * (self.neon_pipes * NEON_F32_FLOPS_PER_PIPE_CYCLE) as f64
    }

    /// FP32 GFLOPS of the whole cluster at max clock.
    pub fn gflops(&self) -> f64 {
        self.gflops_per_core() * self.cores as f64
    }
}

/// The full CPU complex of a chip: one P cluster + one E cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuComplex {
    /// Performance cluster.
    pub p_cluster: CoreCluster,
    /// Efficiency cluster.
    pub e_cluster: CoreCluster,
}

/// The set of cores assigned to a workload of `t` threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadPlacement {
    /// Threads running on performance cores.
    pub p_threads: u32,
    /// Threads running on efficiency cores.
    pub e_threads: u32,
    /// Threads that exceed the physical core count (time-shared; the STREAM
    /// sweep never goes past physical cores, mirroring the paper's
    /// `OMP_NUM_THREADS` from one to the number of physical cores).
    pub oversubscribed: u32,
}

impl CpuComplex {
    /// Build the complex for a chip spec.
    pub fn of(spec: &ChipSpec) -> Self {
        CpuComplex {
            p_cluster: CoreCluster {
                kind: CoreKind::Performance,
                cores: spec.p_cores,
                clock_ghz: spec.p_clock_ghz,
                neon_pipes: P_CORE_NEON_PIPES,
                microarch: spec.p_core_name,
            },
            e_cluster: CoreCluster {
                kind: CoreKind::Efficiency,
                cores: spec.e_cores,
                clock_ghz: spec.e_clock_ghz,
                neon_pipes: E_CORE_NEON_PIPES,
                microarch: spec.e_core_name,
            },
        }
    }

    /// Physical core count.
    pub fn total_cores(&self) -> u32 {
        self.p_cluster.cores + self.e_cluster.cores
    }

    /// Aggregate FP32 NEON GFLOPS at max clock.
    pub fn gflops(&self) -> f64 {
        self.p_cluster.gflops() + self.e_cluster.gflops()
    }

    /// macOS-style placement: fill P-cores first, then E-cores, then
    /// oversubscribe.
    pub fn place_threads(&self, threads: u32) -> ThreadPlacement {
        let p = threads.min(self.p_cluster.cores);
        let remaining = threads - p;
        let e = remaining.min(self.e_cluster.cores);
        ThreadPlacement {
            p_threads: p,
            e_threads: e,
            oversubscribed: remaining - e,
        }
    }

    /// Aggregate FP32 GFLOPS available to a `threads`-wide workload.
    pub fn gflops_for_threads(&self, threads: u32) -> f64 {
        let placement = self.place_threads(threads);
        placement.p_threads as f64 * self.p_cluster.gflops_per_core()
            + placement.e_threads as f64 * self.e_cluster.gflops_per_core()
    }

    /// Relative memory-demand weight of a `threads`-wide STREAM workload.
    ///
    /// A single core cannot saturate the memory controller; demand grows
    /// with placed threads, with P-cores generating roughly twice the
    /// outstanding-miss traffic of E-cores (deeper load/store queues).
    /// Returned as an abstract weight normalized so the full complex = 1.0.
    pub fn memory_demand_weight(&self, threads: u32) -> f64 {
        let placement = self.place_threads(threads);
        let full = self.p_cluster.cores as f64 * 2.0 + self.e_cluster.cores as f64;
        if full == 0.0 {
            return 0.0;
        }
        let used = placement.p_threads as f64 * 2.0 + placement.e_threads as f64;
        used / full
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::ChipGeneration;

    fn m1() -> CpuComplex {
        CpuComplex::of(ChipGeneration::M1.spec())
    }

    fn m4() -> CpuComplex {
        CpuComplex::of(ChipGeneration::M4.spec())
    }

    #[test]
    fn clusters_carry_microarch_names() {
        let c = m1();
        assert_eq!(c.p_cluster.microarch, "Firestorm");
        assert_eq!(c.e_cluster.microarch, "Icestorm");
        assert_eq!(c.p_cluster.kind, CoreKind::Performance);
    }

    #[test]
    fn per_core_gflops_model() {
        let c = m1();
        // Firestorm: 3.2 GHz × 4 pipes × 8 flops = 102.4 GFLOPS.
        assert!((c.p_cluster.gflops_per_core() - 102.4).abs() < 1e-9);
        // Icestorm: 2.06 GHz × 2 pipes × 8 flops = 32.96 GFLOPS.
        assert!((c.e_cluster.gflops_per_core() - 32.96).abs() < 1e-9);
    }

    #[test]
    fn placement_fills_p_cores_first() {
        let c = m1();
        assert_eq!(
            c.place_threads(2),
            ThreadPlacement {
                p_threads: 2,
                e_threads: 0,
                oversubscribed: 0
            }
        );
        assert_eq!(
            c.place_threads(4),
            ThreadPlacement {
                p_threads: 4,
                e_threads: 0,
                oversubscribed: 0
            }
        );
        assert_eq!(
            c.place_threads(6),
            ThreadPlacement {
                p_threads: 4,
                e_threads: 2,
                oversubscribed: 0
            }
        );
        assert_eq!(
            c.place_threads(12),
            ThreadPlacement {
                p_threads: 4,
                e_threads: 4,
                oversubscribed: 4
            }
        );
    }

    #[test]
    fn m4_has_six_e_cores() {
        let c = m4();
        assert_eq!(c.total_cores(), 10);
        let placement = c.place_threads(10);
        assert_eq!(placement.e_threads, 6);
        assert_eq!(placement.oversubscribed, 0);
    }

    #[test]
    fn gflops_grow_monotonically_with_threads() {
        let c = m4();
        let mut last = 0.0;
        for t in 1..=c.total_cores() {
            let g = c.gflops_for_threads(t);
            assert!(g > last, "thread {t}: {g} <= {last}");
            last = g;
        }
        // Saturates at the full complex.
        assert!((c.gflops_for_threads(c.total_cores()) - c.gflops()).abs() < 1e-9);
        assert!((c.gflops_for_threads(64) - c.gflops()).abs() < 1e-9);
    }

    #[test]
    fn memory_demand_weight_saturates_at_one() {
        let c = m1();
        assert_eq!(c.memory_demand_weight(0), 0.0);
        let w1 = c.memory_demand_weight(1);
        let w4 = c.memory_demand_weight(4);
        let w8 = c.memory_demand_weight(8);
        assert!(w1 > 0.0 && w1 < w4 && w4 < w8);
        assert!((w8 - 1.0).abs() < 1e-12);
        assert!((c.memory_demand_weight(100) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn p_threads_dominate_memory_demand() {
        let c = m1();
        // First 4 threads are P-cores: 2/12 of weight each.
        assert!((c.memory_demand_weight(1) - 2.0 / 12.0).abs() < 1e-12);
        // Threads 5..8 are E-cores: 1/12 each.
        let delta_e = c.memory_demand_weight(5) - c.memory_demand_weight(4);
        assert!((delta_e - 1.0 / 12.0).abs() < 1e-12);
    }
}
