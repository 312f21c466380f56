//! # oranges-soc — Apple Silicon M-series SoC architecture models
//!
//! This crate is the bottom substrate of the `oranges` workspace. It encodes
//! the architectural facts the paper's Table 1 and Table 3 report — chip
//! generations, CPU core clusters, caches, GPU configurations, the AMX/SME
//! coprocessor capabilities, memory technology — together with the analytic
//! machine models every higher layer consumes:
//!
//! - [`chip`]: the [`chip::ChipSpec`] database for M1–M4 (paper Table 1);
//! - [`cores`]: big.LITTLE CPU cluster model with per-core FP32 throughput;
//! - [`cache`]: L1/L2/SLC hierarchy with working-set spill estimation;
//! - [`gpu`]: TBDR GPU configuration and theoretical FLOPS accounting;
//! - [`thermal`]: passive vs. active cooling envelopes (paper Table 3 and the
//!   §7 observation that laptops dissipate less than desktops);
//! - [`device`]: the four devices under test (paper Table 3);
//! - [`reference`](mod@reference): the HPC reference systems quoted in the paper's "HPC
//!   Perspective" boxes (GH200, A100, RTX 4090, MI250X, Xeon Max, Green500);
//! - [`time`]: simulated time — the durations and instants every model
//!   reports in.
//!
//! Nothing in this crate performs I/O or reads the host machine: it is a
//! deterministic model of the hardware the paper measures, so that the
//! benchmarks built on top are reproducible anywhere.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod chip;
pub mod cores;
pub mod device;
pub mod error;
pub mod gpu;
pub mod reference;
pub mod thermal;
pub mod time;

pub use chip::{ChipGeneration, ChipSpec};
pub use device::DeviceModel;
pub use error::SocError;
pub use time::{SimDuration, SimInstant};
