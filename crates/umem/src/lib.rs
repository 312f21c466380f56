//! # oranges-umem — unified memory subsystem
//!
//! Apple Silicon's unified memory (paper §2.4) is a single LPDDR pool on the
//! SoC package, shared by CPU, GPU, Neural Engine and coprocessors through
//! one memory controller. This crate simulates that subsystem:
//!
//! - [`page`]: the 16384-byte page geometry the paper allocates against
//!   (§3.2: `aligned_alloc` with 16,384-byte pages, lengths rounded up to
//!   page multiples "such that the GPU could bypass memory copying");
//! - [`address`]: a simulated physical address space handing out
//!   page-aligned allocations;
//! - [`buffer`]: [`buffer::UnifiedBuffer`] — a typed, page-aligned
//!   allocation with Metal-style storage modes (`Shared` / `Private`);
//! - [`controller`]: the per-chip memory controller — LPDDR channel math,
//!   per-agent arbitration;
//! - [`bandwidth`]: the effective-bandwidth model calibrated against the
//!   paper's Figure 1 (STREAM), including the M2 CPU Copy/Scale anomaly and
//!   CPU thread-count scaling.
//!
//! Functional data lives in ordinary host `Vec`s; *addresses* and *timing*
//! are simulated. That split lets kernels compute real results while
//! bandwidth/latency numbers stay deterministic and faithful to the modeled
//! hardware.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod address;
pub mod bandwidth;
pub mod buffer;
pub mod controller;
pub mod error;
pub mod page;

pub use address::AddressSpace;
pub use bandwidth::{BandwidthModel, StreamKernelKind};
pub use buffer::{StorageMode, UnifiedBuffer};
pub use controller::{Agent, MemoryController};
pub use error::UmemError;
pub use page::{round_up_to_page, PAGE_SIZE};
