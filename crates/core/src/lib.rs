//! # oranges — "Apple vs. Oranges" in Rust
//!
//! A benchmarking framework reproducing *"Apple vs. Oranges: Evaluating
//! the Apple Silicon M-Series SoCs for HPC Performance and Efficiency"*
//! (Hübner, Hu, Peng, Markidis — IPPS 2025) over a deterministic
//! simulation of the M1–M4 SoCs.
//!
//! The stack, bottom-up:
//!
//! | crate | role |
//! |---|---|
//! | `oranges-soc` | chip/device models (Tables 1 & 3), cores, caches, thermal, references |
//! | `oranges-umem` | unified memory: 16 KiB pages, storage modes, calibrated bandwidth |
//! | `oranges-metal` | Metal-shaped GPU API, shaders, MPS, dispatch timing |
//! | `oranges-accelerate` | `cblas_sgemm`, timed by a model calibrated to Fig. 2's Accelerate peaks |
//! | `oranges-powermetrics` | the power sampler, text format, SIGINFO windows |
//! | `oranges-stream` | STREAM for CPU (thread sweep) and GPU |
//! | `oranges-gemm` | the six Table 2 GEMM implementations |
//! | `oranges-harness` | stats, tables, figures, CSV/JSON, run records |
//! | `oranges-campaign` | concurrent campaign orchestration: plan, worker pool, result cache |
//!
//! This crate ties the substrate together:
//!
//! - [`platform::Platform`]: one handle per simulated device under test
//!   (and [`platform::PlatformPool`], the campaign workers' lazily-built
//!   per-chip set);
//! - [`experiments`]: a runner per paper artifact — Tables 1–3,
//!   Figures 1–4, and the HPC-reference comparisons — each also exposed
//!   as a schedulable [`experiments::Experiment`] unit;
//! - [`paper`]: the published numbers (calibration anchors and the
//!   values the ledger compares against);
//! - [`ledger`]: the paper ledger, the paper-vs-measured comparison read
//!   from any campaign's [`MetricSet`](oranges_harness::metric::MetricSet)s.
//!
//! `oranges-campaign` sits above this crate and fans whole experiment
//! grids out across a worker pool with content-keyed result caching; its
//! service mode serves specs over a Unix socket or TCP and its fleet
//! orchestrator shards campaigns across daemons. The data flow, end to
//! end:
//!
//! ```text
//!  CampaignSpec ──► Plan ──► scheduler ──► ResultCache ──► CampaignReport
//!  (kinds×chips)  (units)   (worker pool,  (content-keyed,  (MetricSets in
//!       ▲                    PlatformPool   disk-persistent, plan order →
//!       │                    per worker)    mergeable)       CSV/JSON/table)
//!       │                        │
//!  socket service            Experiment::run(&mut Platform)   ◄── this crate
//!  orchestrator                  │
//!  (oranges-campaign)            ▼
//!                            MetricSet (typed value + unit + provenance)
//! ```
//!
//! ## Quickstart
//!
//! ```
//! use oranges::platform::Platform;
//! use oranges_soc::chip::ChipGeneration;
//!
//! let mut platform = Platform::new(ChipGeneration::M4);
//! let run = platform.gemm("GPU-MPS", 256).unwrap();
//! assert!(run.gflops() > 0.0);
//! let stream = platform.stream_cpu_quick();
//! assert!(stream.best_gbs() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod ledger;
pub mod paper;
pub mod platform;

pub use platform::Platform;

/// Convenience prelude.
pub mod prelude {
    pub use crate::experiments;
    pub use crate::ledger::Ledger;
    pub use crate::paper;
    pub use crate::platform::Platform;
    pub use oranges_soc::chip::ChipGeneration;
}
