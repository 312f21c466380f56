//! # oranges-powermetrics — power telemetry in the shape of Apple's tool
//!
//! The paper measures energy with the first-party `powermetrics` utility
//! (§3.3): the monitor is started with `-i 0 -a 0 -s cpu_power,gpu_power
//! -o FILE`, warmed up for two seconds, then driven by SIGINFO signals that
//! bound the measurement window around each matrix multiplication; the text
//! output is parsed back into numbers. §5.3's HPC-Perspective box is
//! explicit that the tool's readings are *software estimates* — which is
//! precisely what this crate provides, from a calibrated model instead of
//! an undocumented one:
//!
//! - [`rails`]: the power rails the tool reports (CPU, GPU, ANE, DRAM);
//! - [`model`]: per-chip, per-implementation-class active power (calibrated
//!   to Figures 3–4), duty-cycle scaling, cooling-envelope clamps;
//! - [`sampler`]: the `-i 0` manual sampler with the SIGINFO window
//!   protocol, integrating rail energy over virtual time;
//! - [`format`](mod@format): the text emitter and the parser the harness feeds from it
//!   (the paper's "written into a text file, which is then parsed");
//! - [`session`]: the piggyback API that wraps a benchmark run in the
//!   paper's exact warm-up / signal / run / signal sequence.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod format;
pub mod model;
pub mod rails;
pub mod sampler;
pub mod session;

pub use model::{PowerModel, WorkClass};
pub use rails::RailPowers;
pub use sampler::{Activity, Sample, Sampler, SamplerError};
pub use session::{PowerReading, PowerSession};
