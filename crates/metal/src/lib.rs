//! # oranges-metal — a Metal-shaped compute API over a simulated TBDR GPU
//!
//! The paper programs the M-series GPU through Apple's Metal framework:
//! `MTLDevice`, page-aligned `MTLBuffer`s wrapped zero-copy around host
//! allocations, compute pipelines built from MSL shaders in a `.metallib`,
//! command queues/buffers with `commit` + `waitUntilCompleted`, and the
//! first-party Metal Performance Shaders for GEMM (Listing 2).
//!
//! This crate reproduces that programming model in Rust over a simulated
//! GPU:
//!
//! - [`device::Device`] — `MTLCreateSystemDefaultDevice()` for a chosen
//!   chip generation;
//! - [`buffer::Buffer`] — shared-mode, page-aligned buffers with
//!   `new_buffer_with_bytes_no_copy` semantics (page-divisibility checks);
//! - [`library`] — the compiled shader registry (our `.metallib`):
//!   naive SGEMM, tiled "Cutlass-style" SGEMM, and the four STREAM kernels;
//! - [`kernel`] — the `ComputeKernel` trait: every shader both *executes*
//!   (real FP32 arithmetic over contiguous output bands, one per host
//!   thread, on `std::thread::scope` threads) and *describes itself* (a
//!   [`kernel::Workload`] consumed by the timing model);
//! - [`command`] — `CommandQueue` / `CommandBuffer` / compute encoder with
//!   commit/wait semantics and per-pass execution reports;
//! - [`timing`] — the analytic dispatch-time model (roofline + overhead);
//! - [`mps`] — Metal Performance Shaders: `MatrixDescriptor`, `Matrix`,
//!   `MatrixMultiplication` (the paper's fastest GPU path).
//!
//! **Execution modes.** Each dispatch runs *functionally* (computing real
//! results on host threads) when its work volume is below the device's
//! functional limit, and in *modeled-only* mode above it (the paper's
//! largest size, n = 16384, is an 8.8 TFLOP GEMM — numerically verified at
//! smaller sizes instead). Reported durations always come from the timing
//! model, never from host wall-clock, so results are reproducible anywhere.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buffer;
pub mod command;
pub mod device;
pub mod error;
pub mod kernel;
pub mod library;
pub mod mps;
pub mod shaders;
pub mod timing;
pub mod types;

pub use buffer::Buffer;
pub use command::{CommandBuffer, CommandQueue, PassReport};
pub use device::Device;
pub use error::MetalError;
pub use kernel::{ComputeKernel, KernelParams, Workload};
pub use types::MtlSize;
