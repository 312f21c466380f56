//! CPU cache hierarchy model.
//!
//! STREAM and GEMM behave differently depending on whether the working set
//! fits in L1, L2, the system-level cache (SLC), or spills to DRAM. The
//! benchmarks use this model two ways: STREAM sizes its arrays to defeat the
//! hierarchy (four times the largest level, per McCalpin's rule), and the
//! GEMM timing model uses the residency level to pick an effective-bandwidth
//! tier for small matrices.

use crate::chip::ChipSpec;

/// One level of the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheLevel {
    /// Human name ("L1d (P)", "L2 (P)", "SLC", …).
    pub name: &'static str,
    /// Capacity in bytes visible to one workload.
    pub capacity_bytes: u64,
    /// Load-use latency in CPU cycles (architectural estimates for the
    /// Firestorm-class cores; used for reporting, not the roofline).
    pub latency_cycles: u32,
}

/// Which level a working set resides in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Residency {
    /// Fits in per-core L1 data cache.
    L1,
    /// Fits in the cluster-shared L2.
    L2,
    /// Fits in the system-level cache.
    Slc,
    /// Spills to DRAM — the regime STREAM measures.
    Dram,
}

/// The cache hierarchy of one chip as seen by a P-cluster workload.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheHierarchy {
    /// L1 data (single P core).
    pub l1: CacheLevel,
    /// Cluster L2 (shared across P cores).
    pub l2: CacheLevel,
    /// System-level cache (shared across the whole SoC).
    pub slc: CacheLevel,
}

impl CacheHierarchy {
    /// Build from a chip spec.
    pub fn of(spec: &ChipSpec) -> Self {
        CacheHierarchy {
            l1: CacheLevel {
                name: "L1d (P)",
                capacity_bytes: spec.l1_p_kib as u64 * 1024,
                latency_cycles: 3,
            },
            l2: CacheLevel {
                name: "L2 (P)",
                capacity_bytes: spec.l2_p_mib as u64 * 1024 * 1024,
                latency_cycles: 18,
            },
            slc: CacheLevel {
                name: "SLC",
                capacity_bytes: spec.slc_mib as u64 * 1024 * 1024,
                latency_cycles: 40,
            },
        }
    }

    /// Where a working set of `bytes` lives.
    pub fn residency(&self, bytes: u64) -> Residency {
        if bytes <= self.l1.capacity_bytes {
            Residency::L1
        } else if bytes <= self.l2.capacity_bytes {
            Residency::L2
        } else if bytes <= self.l2.capacity_bytes + self.slc.capacity_bytes {
            Residency::Slc
        } else {
            Residency::Dram
        }
    }

    /// Bandwidth amplification available when the working set is
    /// cache-resident, relative to DRAM bandwidth. Caches on Apple's big
    /// cores deliver several times DRAM bandwidth; the exact factors are
    /// architectural estimates that only shape the small-`n` end of GEMM.
    pub fn bandwidth_multiplier(&self, residency: Residency) -> f64 {
        match residency {
            Residency::L1 => 8.0,
            Residency::L2 => 4.0,
            Residency::Slc => 1.8,
            Residency::Dram => 1.0,
        }
    }

    /// Minimum STREAM array length (in f64 elements) that defeats the
    /// hierarchy: each of the three arrays must be ≥ 4× the biggest level
    /// (McCalpin's sizing rule applied to the outermost cache).
    pub fn stream_min_elements(&self) -> usize {
        let biggest = self
            .l2
            .capacity_bytes
            .max(self.slc.capacity_bytes)
            .max(self.l1.capacity_bytes);
        ((biggest * 4) / std::mem::size_of::<f64>() as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::ChipGeneration;

    fn hierarchy() -> CacheHierarchy {
        CacheHierarchy::of(ChipGeneration::M1.spec())
    }

    #[test]
    fn capacities_match_table1() {
        let h = hierarchy();
        assert_eq!(h.l1.capacity_bytes, 128 * 1024);
        assert_eq!(h.l2.capacity_bytes, 12 * 1024 * 1024);
        assert_eq!(h.slc.capacity_bytes, 8 * 1024 * 1024);
    }

    #[test]
    fn residency_tiers_are_ordered() {
        let h = hierarchy();
        assert_eq!(h.residency(64 * 1024), Residency::L1);
        assert_eq!(h.residency(1024 * 1024), Residency::L2);
        assert_eq!(h.residency(14 * 1024 * 1024), Residency::Slc);
        assert_eq!(h.residency(64 * 1024 * 1024), Residency::Dram);
    }

    #[test]
    fn residency_boundaries_are_inclusive() {
        let h = hierarchy();
        assert_eq!(h.residency(h.l1.capacity_bytes), Residency::L1);
        assert_eq!(h.residency(h.l1.capacity_bytes + 1), Residency::L2);
        assert_eq!(h.residency(h.l2.capacity_bytes), Residency::L2);
        assert_eq!(h.residency(h.l2.capacity_bytes + 1), Residency::Slc);
    }

    #[test]
    fn bandwidth_multiplier_decays_outward() {
        let h = hierarchy();
        let tiers = [
            Residency::L1,
            Residency::L2,
            Residency::Slc,
            Residency::Dram,
        ];
        let mults: Vec<f64> = tiers.iter().map(|t| h.bandwidth_multiplier(*t)).collect();
        for pair in mults.windows(2) {
            assert!(pair[0] > pair[1]);
        }
        assert_eq!(mults[3], 1.0);
    }

    #[test]
    fn stream_sizing_defeats_every_cache() {
        for gen in ChipGeneration::ALL {
            let h = CacheHierarchy::of(gen.spec());
            let elements = h.stream_min_elements();
            let bytes = elements as u64 * 8;
            assert_eq!(h.residency(bytes), Residency::Dram, "{gen}");
            // And it is 4x the largest level.
            assert!(bytes >= 4 * h.l2.capacity_bytes);
        }
    }

    #[test]
    fn latencies_increase_outward() {
        let h = hierarchy();
        assert!(h.l1.latency_cycles < h.l2.latency_cycles);
        assert!(h.l2.latency_cycles < h.slc.latency_cycles);
    }
}
