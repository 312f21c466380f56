//! Portable SIMD-style microkernels for the workspace's host hot loops.
//!
//! Every experiment figure ultimately rests on kernel throughput — STREAM
//! bandwidth (Fig. 1) and GEMM FLOPS (Fig. 2) — so the host-side loops
//! that *run* those kernels are the measured product. This crate collects
//! them in one place, written in the standard single-core style that lets
//! LLVM emit wide code and keeps the FP pipelines full:
//!
//! - [`stream`] — the four STREAM array passes plus a **fused
//!   full-iteration** that performs Copy → Scale → Add → Triad in one
//!   memory sweep (legal because all four passes are elementwise on the
//!   same index: 4 words of traffic per element instead of 10);
//! - [`gemm`] — an `MR×NR` register-tiled SGEMM microkernel over packed
//!   panels with a k-unrolled inner loop;
//! - [`block`] — the Goto/BLIS cache-blocked macrokernel above that tile:
//!   NC/KC/MC panel loops with [`block::CacheParams`]-derived block sizes,
//!   packing once per panel and seeding tile accumulators from C so the
//!   KC split stays bitwise-faithful to the scalar loop. Its tile stays in
//!   registers for the whole k loop, with no stack round trip per k step.
//!   On an x86-64 CPU with AVX2 it runs an AVX2 build of the same body,
//!   chosen per call at run time, and the target's baseline build
//!   everywhere else;
//! - [`reduce`] — the f64-widening strided dot that sampled GEMM
//!   verification runs.
//!
//! [`core_budget`] sizes the host-parallel functional GEMMs built on these
//! kernels: a call gets its caller's own core plus every core no other
//! engine worker holds.
//!
//! # Equivalence contract
//!
//! Every kernel has a scalar reference twin (`*_scalar`) defining its
//! semantics, and a test proving the pair agrees:
//!
//! | kernel family | twin relation |
//! |---|---|
//! | `stream::fused_iteration_f64` | **bitwise** — the four literal passes' elementwise ops, not reordered |
//! | `gemm::sgemm_f32` | **bitwise** — one accumulator per output element, k-order preserved (the tile itself supplies the ILP) |
//! | `block::sgemm_f32_blocked` | **bitwise** — KC panels ascend and re-seed from stored f32 partials (store/load is exact), so the element-wise op sequence equals the scalar loop, in the AVX2 build and the baseline build alike (no FMA in either) |
//! | `reduce::dot_f32_to_f64_strided` | **ULP-bounded** — four accumulators reorder the sum |
//!
//! The bitwise rows are what let consumers swap these kernels in without
//! perturbing campaign value-identity fingerprints; the ULP row feeds
//! tolerance-checked paths only (sampled GEMM verification). Two
//! release-only tests also time the blocked macrokernel. One times the
//! public entry against the unblocked microkernel. The other times each
//! speed-up within one ISA: the baseline build against the unblocked
//! microkernel, so the blocking keeps paying for itself, and, on an AVX2
//! CPU, the AVX2 build against the baseline build.
//!
//! # Unsafe code
//!
//! The crate denies `unsafe_code`, and allows it on one item:
//! [`block::sgemm_f32_blocked_with`], whose one `unsafe` block calls the
//! AVX2 build after `is_x86_feature_detected!("avx2")` has found the
//! feature on the running CPU. That detection is the call's only
//! precondition. CI fails on any other `unsafe` in this crate.

#![deny(unsafe_code)]

pub mod block;
pub mod gemm;
pub mod reduce;
pub mod stream;
#[cfg(test)]
mod ulp;

pub use block::{sgemm_f32_blocked, sgemm_f32_blocked_with, BlockSizes, CacheParams};
pub use gemm::{sgemm_f32, sgemm_f32_scalar};
pub use stream::fused_iteration_f64;

use std::sync::atomic::{AtomicUsize, Ordering};

/// The host's available parallelism (4 if it cannot be read), read once
/// per process. Every host-parallel functional path sizes its worker
/// count from this one reading, through [`core_budget`]: the Accelerate
/// row blocks and the Metal shader bands.
pub fn host_parallelism() -> usize {
    static HOST: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *HOST.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    })
}

/// Counts callers that each keep one host core busy, and sizes a
/// host-parallel call to the cores they leave it: the caller's own core
/// plus every core no other claim holds.
///
/// The campaign engine holds one claim per worker that is computing a
/// unit, so two workers on a 2-core host run their functional GEMMs on
/// one thread each instead of both fanning out over both cores. A call
/// made outside the engine, with no claim held, gets the whole host.
#[derive(Debug, Default)]
pub struct CoreBudget {
    claimed: AtomicUsize,
}

impl CoreBudget {
    /// A budget with no claims.
    pub const fn new() -> Self {
        Self {
            claimed: AtomicUsize::new(0),
        }
    }

    /// Hold one core until the returned guard drops, also when the
    /// holder unwinds.
    pub fn claim(&self) -> CoreClaim<'_> {
        // Relaxed: the count is a sizing hint and publishes no data.
        self.claimed.fetch_add(1, Ordering::Relaxed);
        CoreClaim { budget: self }
    }

    /// Threads a host-parallel call may use: [`host_parallelism`] with no
    /// claims held; with `k` claims, the caller's own (one of the `k`)
    /// plus the `host − k` unclaimed cores, never fewer than one.
    pub fn threads(&self) -> usize {
        let others = self.claimed.load(Ordering::Relaxed).saturating_sub(1);
        host_parallelism().saturating_sub(others).max(1)
    }
}

/// One core held in a [`CoreBudget`]; dropping it releases the core.
#[derive(Debug)]
#[must_use = "the core is released as soon as the claim drops"]
pub struct CoreClaim<'a> {
    budget: &'a CoreBudget,
}

impl Drop for CoreClaim<'_> {
    fn drop(&mut self) {
        self.budget.claimed.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The process-wide budget: one claim per engine worker computing a
/// unit.
pub fn core_budget() -> &'static CoreBudget {
    static ENGINE_WORKERS: CoreBudget = CoreBudget::new();
    &ENGINE_WORKERS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_unclaimed_budget_gives_the_whole_host() {
        assert_eq!(CoreBudget::new().threads(), host_parallelism());
    }

    #[test]
    fn each_claim_past_the_first_takes_one_core() {
        let budget = CoreBudget::new();
        let host = host_parallelism();
        let mut claims = Vec::new();
        for k in 1..=host + 2 {
            claims.push(budget.claim());
            assert_eq!(budget.threads(), host.saturating_sub(k - 1).max(1), "k={k}");
        }
    }

    #[test]
    fn a_dropped_claim_is_released() {
        let budget = CoreBudget::new();
        let host = host_parallelism();
        let first = budget.claim();
        let second = budget.claim();
        assert_eq!(budget.threads(), host.saturating_sub(1).max(1));
        drop(second);
        assert_eq!(budget.threads(), host);
        drop(first);
        assert_eq!(budget.threads(), host);
        let _third = budget.claim();
        let _fourth = budget.claim();
        assert_eq!(budget.threads(), host.saturating_sub(1).max(1));
    }

    #[test]
    fn a_claim_held_by_a_panicking_closure_is_released() {
        let budget = CoreBudget::new();
        let _own = budget.claim();
        let unwound = std::panic::catch_unwind(|| {
            let _claim = budget.claim();
            let _another = budget.claim();
            panic!("experiment failed");
        });
        assert!(unwound.is_err());
        assert_eq!(budget.threads(), host_parallelism());
    }
}
