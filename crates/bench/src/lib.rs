//! # oranges-bench — ablation and throughput benchmark targets
//!
//! Bench targets (run with `cargo bench -p oranges-bench --bench NAME`):
//!
//! | target | measures |
//! |---|---|
//! | `ablation` | design-choice ablations (thread sweep, no-copy, duty cycle) |
//! | `kernels` | host-kernel trajectory: each microkernel vs its scalar twin (`BENCH_kernels.json`) |
//! | `campaign` | campaign-orchestrator throughput (cold vs cached, worker sweep; `BENCH_campaign.json`) |
//! | `coalescing` | duplicate-spec wall time with and without the shared engine's in-flight dedupe |
//! | `service` | daemon connection scaling: 10/100/1000 idle connections (`BENCH_service.json`) |
//!
//! The paper-vs-measured comparison is not a bench target: the campaign
//! example prints and gates `oranges::ledger::Ledger` over its own sets.

#![forbid(unsafe_code)]
