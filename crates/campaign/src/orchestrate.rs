//! Fleet orchestration: run a campaign as N round-robin
//! [`Plan::shard`](crate::plan::Plan::shard)s across a **fleet** of
//! campaign daemons, then join the shard results into one unified
//! report.
//!
//! The paper measures each M-series chip on its own machine, so the
//! natural scale-out is one daemon per measurement host. The
//! [`Orchestrator`]
//!
//! 1. probes every [`Endpoint`]'s `health` and fails fast, with a typed
//!    error naming the shard, if any host is unreachable or not ready;
//! 2. sends shard *i* of *N* to the *i*-th endpoint as a `run` request
//!    (the spec's own `shard` field carries the assignment). Endpoints
//!    are `tcp:host:port` daemons on other machines or `unix:` daemons
//!    locally, mixed freely. Each shard's unit responses stream back
//!    through the service subscription machinery
//!    ([`ServiceClient::run_with`]);
//! 3. merges each shard's units into the caller's [`ResultCache`] under
//!    the versioned-cache rules of [`ResultCache::merge_from`]. A daemon
//!    answering with a different `model_digest` is **stale**: its units
//!    are dropped, counted in [`MergeStats::stale`], and recomputed by
//!    the assembly pass. Same-version shards must agree byte for byte,
//!    or the merge fails loudly with
//!    [`OrchestrateError::RemoteConflict`];
//! 4. re-enters the scheduler over the merged cache to assemble one
//!    [`CampaignReport`] in plan order. Every unit is a cache hit unless
//!    a stale shard was dropped.
//!
//! A fleet run is therefore value-identical to a single-process run
//! (`tests/fleet.rs` proves fingerprint equality against loopback
//! daemons). For process isolation on one host, start N loopback
//! daemons and list them all as the fleet.

use crate::cache::{CacheMergeError, MergeStats, ResultCache};
use crate::engine::Priority;
use crate::report::CampaignReport;
use crate::scheduler::{run_campaign, CampaignError};
use crate::service::{RunOptions, RunOutcome, ServiceClient, ServiceError};
use crate::spec::CampaignSpec;
use oranges_harness::transport::{AnyTransport, Endpoint};
use std::fmt;

/// Failure of an orchestrated campaign.
#[derive(Debug, Clone, PartialEq)]
pub enum OrchestrateError {
    /// The assembly run over the merged cache failed.
    Campaign(CampaignError),
    /// The fleet or the spec cannot be orchestrated (no endpoints, or
    /// a spec that is already sharded).
    Args(String),
    /// A fleet shard's remote service call failed (connect, protocol,
    /// or an in-band error from the daemon).
    Remote {
        /// Which shard (0-based).
        shard: usize,
        /// The endpoint that failed, in display form.
        endpoint: String,
        /// The underlying [`ServiceError`], rendered.
        message: String,
    },
    /// A fleet endpoint answered its pre-dispatch `health` probe but
    /// reported itself not ready (draining, or dead worker threads) —
    /// the shard was never dispatched, so the campaign fails in
    /// milliseconds instead of timing out mid-run.
    Unhealthy {
        /// Which shard (0-based).
        shard: usize,
        /// The endpoint that reported unhealthy, in display form.
        endpoint: String,
        /// Why it is not ready, as reported by the daemon.
        reason: String,
    },
    /// A same-version fleet shard disagreed with the shared cache on a
    /// unit's value identity — a corrupt or dishonest daemon, never an
    /// honest one (the simulation is deterministic per model version).
    RemoteConflict {
        /// The underlying conflict.
        error: CacheMergeError,
        /// The endpoint whose shard conflicted, in display form.
        endpoint: String,
    },
}

impl fmt::Display for OrchestrateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OrchestrateError::Campaign(e) => write!(f, "orchestrator assembly: {e}"),
            OrchestrateError::Args(message) => write!(f, "orchestrator: {message}"),
            OrchestrateError::Remote {
                shard,
                endpoint,
                message,
            } => write!(f, "fleet shard {shard} ({endpoint}) failed: {message}"),
            OrchestrateError::Unhealthy {
                shard,
                endpoint,
                reason,
            } => write!(
                f,
                "fleet shard {shard} ({endpoint}) is not ready: {reason}; \
                 nothing was dispatched"
            ),
            OrchestrateError::RemoteConflict { error, endpoint } => write!(
                f,
                "fleet merge: {error} (shard served by {endpoint}; \
                 compare its model constants and cache file against this host's)"
            ),
        }
    }
}

impl std::error::Error for OrchestrateError {}

impl From<CampaignError> for OrchestrateError {
    fn from(e: CampaignError) -> Self {
        OrchestrateError::Campaign(e)
    }
}

/// The result of an orchestrated campaign.
#[derive(Debug)]
pub struct OrchestratedRun {
    /// The unified report, in plan order — value-identical to a
    /// single-process run of the same spec.
    pub report: CampaignReport,
    /// Totals of the shard merges.
    pub merged: MergeStats,
}

/// Dispatches one shard per campaign daemon and joins their results
/// into one report.
#[derive(Debug, Clone)]
pub struct Orchestrator {
    endpoints: Vec<Endpoint>,
}

impl Orchestrator {
    /// An orchestrator dispatching one shard to each of `endpoints` —
    /// running campaign daemons (`cargo run --example serve -- --listen
    /// tcp:…`), one per measurement host. Shard *i* of *N* travels as a
    /// `run` request to endpoint *i*; results stream back over the
    /// service protocol and merge under the versioned-cache rules, so
    /// the unified report is value-identical to a single-process run.
    /// An endpoint may repeat: each listing is its own connection and
    /// shard.
    ///
    /// ```no_run
    /// use oranges_campaign::prelude::*;
    ///
    /// let endpoints = vec![
    ///     "tcp:m1-host.local:7771".parse::<Endpoint>()?,
    ///     "tcp:m3-host.local:7771".parse::<Endpoint>()?,
    /// ];
    /// let cache = ResultCache::new();
    /// let run = Orchestrator::fleet(endpoints).run(&CampaignSpec::paper_grid(), &cache)?;
    /// println!("fleet fingerprint: {}", run.report.fingerprint());
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn fleet(endpoints: Vec<Endpoint>) -> Self {
        Orchestrator { endpoints }
    }

    /// Run `spec` across the fleet, one shard per endpoint, merging
    /// every shard into `cache` so the caller can persist the union
    /// afterwards.
    ///
    /// `spec` must be unsharded: shard assignment is the orchestrator's
    /// job, and silently combining a caller shard with orchestrator
    /// sharding would compute one thing and report another.
    pub fn run(
        &self,
        spec: &CampaignSpec,
        cache: &ResultCache,
    ) -> Result<OrchestratedRun, OrchestrateError> {
        if spec.shard.is_some() {
            return Err(OrchestrateError::Args(
                "cannot orchestrate an already-sharded spec: drop the shard \
                 (the orchestrator assigns one shard per endpoint)"
                    .to_string(),
            ));
        }
        let endpoints = &self.endpoints;
        if endpoints.is_empty() {
            return Err(OrchestrateError::Args(
                "a fleet needs at least one endpoint".to_string(),
            ));
        }
        let count = endpoints.len();
        // Health pre-poll: probe every endpoint's `health` before
        // dispatching anything. An unreachable host is a typed
        // connect failure and an unhealthy one (draining, dead worker
        // threads) a typed `Unhealthy` — either way the campaign fails
        // in milliseconds with the shard and endpoint named, instead
        // of a shard timing out mid-run with work already dispatched.
        for (index, endpoint) in endpoints.iter().enumerate() {
            let remote = |error: ServiceError| OrchestrateError::Remote {
                shard: index,
                endpoint: endpoint.to_string(),
                message: error.to_string(),
            };
            let mut probe = ServiceClient::<AnyTransport>::connect(endpoint).map_err(remote)?;
            let health = probe.health().map_err(remote)?;
            if !health.ready {
                return Err(OrchestrateError::Unhealthy {
                    shard: index,
                    endpoint: endpoint.to_string(),
                    reason: if health.draining {
                        "draining after shutdown".to_string()
                    } else {
                        format!(
                            "{}/{} engine workers alive",
                            health.workers_alive, health.workers_configured
                        )
                    },
                });
            }
        }
        // Dispatch every shard concurrently and join them all before
        // judging any (no shard is abandoned mid-flight when a sibling
        // fails), then report the earliest failed shard.
        let outcomes: Vec<Result<RunOutcome, ServiceError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = endpoints
                .iter()
                .enumerate()
                .map(|(index, endpoint)| {
                    scope.spawn(move || {
                        let shard_spec = spec.clone().with_shard(index, count)?;
                        let mut client = ServiceClient::<AnyTransport>::connect(endpoint)?;
                        // Fleet shards are bulk work: dispatch at batch
                        // priority so an interactive probe against the
                        // same daemon overtakes them in the queue.
                        client.run_with(&shard_spec, &RunOptions::priority(Priority::Batch))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().expect("fleet client thread"))
                .collect()
        });

        // Join: each shard's served units land in a local cache and
        // merge into the caller's under the versioned-cache rules.
        let mut merged = MergeStats::default();
        for (index, (endpoint, outcome)) in endpoints.iter().zip(outcomes).enumerate() {
            let outcome = outcome.map_err(|error| OrchestrateError::Remote {
                shard: index,
                endpoint: endpoint.to_string(),
                message: error.to_string(),
            })?;
            if outcome.model_digest != cache.model_digest() {
                // A stale shard's entries are dropped (counted), never
                // merged and never conflicting; the assembly pass
                // recomputes them under this host's constants.
                eprintln!(
                    "orchestrator: fleet shard {index} ({endpoint}) is stale \
                     (model digest {} != {}); recomputing its {} units locally",
                    outcome.model_digest,
                    cache.model_digest(),
                    outcome.units.len(),
                );
                merged.stale += outcome.units.len();
                continue;
            }
            let shard_cache = ResultCache::new();
            for unit in outcome.units {
                shard_cache.insert(unit.key, unit.output);
            }
            let stats = cache.merge_from(&shard_cache).map_err(|error| {
                OrchestrateError::RemoteConflict {
                    error,
                    endpoint: endpoint.to_string(),
                }
            })?;
            merged.added += stats.added;
            merged.identical += stats.identical;
            merged.stale += stats.stale;
        }

        // Assembly: re-enter the scheduler over the merged cache for one
        // plan-ordered, value-identical report (every unit a hit unless a
        // stale shard was dropped).
        let report = run_campaign(spec, cache)?;
        Ok(OrchestratedRun { report, merged })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orchestrator_rejects_already_sharded_specs() {
        let spec = CampaignSpec::smoke().with_shard(0, 2).expect("valid shard");
        // The spec is checked before any endpoint is dialed.
        let endpoint = "tcp:127.0.0.1:1".parse().expect("endpoint");
        let error = Orchestrator::fleet(vec![endpoint])
            .run(&spec, &ResultCache::new())
            .expect_err("shard assignment belongs to the orchestrator");
        assert!(matches!(error, OrchestrateError::Args(_)), "{error}");
        assert!(error.to_string().contains("already-sharded"));
    }
}
