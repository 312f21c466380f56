//! # oranges-accelerate — Accelerate-shaped CPU numerics
//!
//! The paper's fastest CPU implementation calls Apple's Accelerate
//! framework (`cblas_sgemm`, Listing 1) and vDSP, both of which "assumedly
//! run on AMX" (§5.2) — that is how the M-series CPU reaches 0.90–1.49
//! TFLOPS FP32 where the NEON units alone top out around 0.5. The paper
//! finds the two "perform nearly identically", so one model prices both.
//!
//! This crate reproduces that stack:
//!
//! - [`blas`]: a `cblas_sgemm`-shaped API (row-major, transposes,
//!   alpha/beta) executing real FP32 arithmetic on host threads and timed
//!   by [`AccelerateModel`];
//! - [`threading`]: the scoped row-block thread pool behind blocked
//!   `sgemm` (`std::thread::scope`; one worker per performance core,
//!   capped at the host's parallelism);
//! - [`timing`]: the calibrated sustained-throughput model (Figure 2
//!   Accelerate anchors: 0.90 / 1.09 / 1.38 / 1.49 TFLOPS on M1–M4).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blas;
pub mod threading;
pub mod timing;

pub use blas::{Blas, BlasReport, Order, Transpose};
pub use timing::AccelerateModel;
