//! # oranges-campaign — concurrent experiment-campaign orchestration
//!
//! The paper's result set is a *grid* — Figures 1–4 and Tables 1–3, each
//! swept over chips × implementations × sizes — and the runners in
//! `oranges::experiments` reproduce it one artifact at a time. This crate
//! turns those one-shot runners into a throughput-oriented service core:
//!
//! - [`spec::CampaignSpec`] — *what* to run: experiment kinds × chips
//!   (+ size overrides, worker count);
//! - [`plan::Plan`] — the spec expanded into dependency-free,
//!   content-keyed units (one [`Experiment`] instance each);
//! - [`engine::ExecutionEngine`] — the unit-granular scheduling core:
//!   persistent worker threads (each owning its own
//!   [`PlatformPool`](oranges::platform::PlatformPool), so no simulator
//!   state is shared), per-subscription delivery channels, and a shared
//!   in-flight table that **coalesces** overlapping submissions — two
//!   concurrent campaigns compute each shared unit exactly once;
//! - [`scheduler`] — thin campaign adapters over the engine:
//!   [`run_campaign`] (call-scoped engine) and [`run_campaign_on`] (a
//!   caller-owned engine, re-entered by concurrent campaigns), both
//!   assembling unit deliveries back into deterministic plan order;
//! - [`cache::ResultCache`] — a content-keyed result store
//!   (experiment id + chip + params) that deduplicates repeated units,
//!   makes re-runs near-free, and persists to disk
//!   ([`save`](cache::ResultCache::save)/[`load`](cache::ResultCache::load))
//!   so a *second process* re-running the same spec gets 100% hits; the
//!   disk envelope is **versioned** by the workspace
//!   [model-constants digest](oranges::paper::model_constants_digest),
//!   so a constants change invalidates stale files on load instead of
//!   surfacing later as merge conflicts;
//! - [`report::CampaignReport`] — the aggregate: per-unit
//!   [`MetricSet`](oranges_harness::metric::MetricSet)s in deterministic
//!   plan order with per-unit wall-time accounting, emitted generically
//!   as rows/CSV/JSON, plus throughput, cache, and coalescing
//!   statistics.
//!
//! Every number a campaign emits is a typed, unit-carrying metric with
//! provenance (chip, experiment id, params digest, wall-time,
//! power/thermal context) — the single `MetricSet` currency from the
//! platform layer to the emitters. Plans shard deterministically
//! ([`Plan::shard`](plan::Plan::shard) /
//! [`CampaignSpec::with_shard`](spec::CampaignSpec::with_shard)) for
//! fleet scale-out: the union of all shards equals the unsharded
//! campaign.
//!
//! Two layers scale the pipeline beyond one process:
//!
//! - [`service`] — **service mode**: a long-running daemon
//!   ([`service::CampaignService`]) accepting spec requests over a
//!   pluggable [`Transport`](oranges_harness::transport::Transport)
//!   (newline-delimited JSON envelopes over a `unix:` socket or a
//!   `tcp:` connection — `docs/PROTOCOL.md` is the normative wire
//!   spec), every connection served by one readiness-driven reactor
//!   loop ([`oranges_harness::reactor`]), all submitting units to one
//!   shared engine over the warm cache — overlapping requests from
//!   different clients coalesce, and each client's provenance-stamped
//!   `MetricSet` JSON streams back the moment its units complete;
//! - [`orchestrate`] — the **fleet orchestrator**
//!   ([`Orchestrator::fleet`](orchestrate::Orchestrator::fleet)): N
//!   campaign daemons addressed by
//!   [`Endpoint`](oranges_harness::transport::Endpoint), one per
//!   measurement host (or N loopback daemons for process isolation on
//!   one host), each given one round-robin
//!   [`Plan::shard`](plan::Plan::shard); shard results merge under a
//!   strict conflict rule (and the model-digest staleness rule) into
//!   one unified report, value-identical to a single-process run.
//!
//! ```text
//!              CampaignSpec ──► Plan ──► ExecutionEngine ──► ResultCache ──► CampaignReport
//!                   ▲          (units)   │ unit-granular:      │  content-keyed   (plan order)
//!      JSON in/out  │                    │ in-flight table,    │  disk-persistent
//!  (to_json /       │                    │ coalescing, per-    │  versioned, mergeable
//!   from_json)      │                    │ subscription        ▼
//!  ┌────────────────┴───┐               ▼ channels      save/load/merge_from
//!  │ service (socket,   │      Experiment::run                 ▲
//!  │ multiplexed)       │      (oranges crate)                 │
//!  │ orchestrator (one  │                                      │
//!  │ shard per daemon) ─┴──────────────────────────────────────┘
//!  └────────────────────┘
//! ```
//!
//! The simulation is deterministic per unit, so a concurrent campaign is
//! *value-identical* to a serial one — [`report::CampaignReport::digest`]
//! makes that checkable, and `tests/campaign_integration.rs` checks it.
//! (Wall-time is excluded from canonical serialization, so timing noise
//! never perturbs identity.) The same identity underpins the service
//! (fingerprints over the wire) and the orchestrator (merge conflicts
//! are identity mismatches).
//!
//! ## Quickstart
//!
//! ```
//! use oranges_campaign::prelude::*;
//!
//! // A small grid: Figures 3 and 4 on two chips, four workers.
//! let spec = CampaignSpec::new(
//!     vec![ExperimentKind::Fig3, ExperimentKind::Fig4],
//!     vec![ChipGeneration::M1, ChipGeneration::M4],
//! )
//! .with_workers(4);
//!
//! let cache = ResultCache::new();
//! let report = run_campaign(&spec, &cache).unwrap();
//! assert_eq!(report.units.len(), 4);
//!
//! // An immediate re-run of the same spec is served from the cache.
//! let rerun = run_campaign(&spec, &cache).unwrap();
//! assert_eq!(rerun.digest(), report.digest());
//! assert!(rerun.units.iter().all(|u| u.from_cache()));
//! ```
//!
//! ## Specs as JSON
//!
//! Specs cross process and socket boundaries as JSON
//! ([`CampaignSpec::to_json`](spec::CampaignSpec::to_json) /
//! [`from_json`](spec::CampaignSpec::from_json)) — the wire format the
//! service accepts and the orchestrator sends each daemon:
//!
//! ```
//! use oranges_campaign::prelude::*;
//!
//! let spec = CampaignSpec::new(
//!     vec![ExperimentKind::Fig1],
//!     vec![ChipGeneration::M2],
//! )
//! .with_workers(2);
//! let json = spec.to_json();
//! assert_eq!(json, r#"{"experiments":["fig1"],"chips":["M2"],"workers":2}"#);
//! assert_eq!(CampaignSpec::from_json(&json).unwrap(), spec);
//! ```
//!
//! ## Caches on disk
//!
//! [`ResultCache::save`](cache::ResultCache::save) /
//! [`load`](cache::ResultCache::load) persist the store as one canonical
//! JSON document, so warmth survives the process:
//!
//! ```
//! use oranges_campaign::prelude::*;
//!
//! let spec = CampaignSpec::new(vec![ExperimentKind::Fig4], vec![ChipGeneration::M1])
//!     .with_power_sizes(vec![2048]);
//! let cache = ResultCache::new();
//! run_campaign(&spec, &cache).unwrap();
//!
//! let path = std::env::temp_dir().join(format!("oranges-doc-{}.json", std::process::id()));
//! cache.save(&path).unwrap();
//!
//! // A "second process": rebuild from disk, re-run, compute nothing.
//! let warm = ResultCache::load(&path).unwrap();
//! let report = run_campaign(&spec, &warm).unwrap();
//! assert_eq!(report.computed_units(), 0);
//! std::fs::remove_file(&path).ok();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod engine;
#[cfg(unix)]
pub mod orchestrate;
pub mod plan;
pub mod report;
pub mod scheduler;
#[cfg(unix)]
pub mod service;
pub mod spec;

// The unit abstraction is defined next to the runners that implement it
// (`oranges::experiments`); this crate is its consumer-facing home.
pub use oranges::experiments::{Experiment, ExperimentError, ExperimentOutput};

pub use cache::{
    CacheLoad, CacheMergeError, CachePersistError, CacheStats, MergeStats, ResultCache,
};
pub use engine::{
    AdmitError, CancelHandle, CancelOutcome, EngineStats, ExecutionEngine, Priority, SubmitOptions,
    Subscription, UnitDelivery, UnitOutcome, UnitSource,
};
#[cfg(unix)]
pub use orchestrate::{OrchestrateError, OrchestratedRun, Orchestrator};
pub use plan::{Plan, PlanUnit, UnitKey};
pub use report::{CampaignReport, UnitReport};
pub use scheduler::{run_campaign, run_campaign_on, run_campaign_serial, CampaignError};
#[cfg(unix)]
pub use service::{CancelAck, HealthReport, RunOptions, ServiceGauges, ServiceSummary};
pub use spec::{CampaignSpec, ExperimentKind, SpecParseError};

/// Convenience prelude.
pub mod prelude {
    pub use crate::cache::ResultCache;
    pub use crate::engine::{ExecutionEngine, Priority, SubmitOptions, UnitSource};
    #[cfg(unix)]
    pub use crate::orchestrate::Orchestrator;
    pub use crate::report::CampaignReport;
    pub use crate::scheduler::{run_campaign, run_campaign_on, run_campaign_serial};
    pub use crate::spec::{CampaignSpec, ExperimentKind};
    pub use crate::Experiment;
    pub use oranges_harness::metric::{MetricRow, MetricSet, MetricValue};
    #[cfg(unix)]
    pub use oranges_harness::transport::Endpoint;
    pub use oranges_soc::chip::ChipGeneration;
}
