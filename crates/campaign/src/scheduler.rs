//! Campaign-level adapters over the unit-granular [`ExecutionEngine`].
//!
//! The engine schedules *units*; campaigns are just batches of them.
//! [`run_campaign_on`] expands a spec to its plan, submits every unit
//! under one subscription to a caller-owned engine, and assembles the
//! deliveries back into deterministic plan order. [`run_campaign`] does
//! the same on a private, call-scoped engine (the one-shot CLI shape:
//! threads live exactly as long as the campaign). A caller that keeps
//! one engine alive across calls gets warm platform pools, and
//! *concurrent* calls on it coalesce overlapping units instead of
//! computing them twice.
//!
//! Because each unit is deterministic and assembly sorts by plan index,
//! a concurrent campaign is value-identical to a serial one — the same
//! property the pre-engine scheduler had, now inherited from a core
//! that also dedupes across campaigns.

use crate::cache::ResultCache;
use crate::engine::{ExecutionEngine, Subscription, UnitDelivery};
use crate::plan::{Plan, UnitKey};
use crate::report::{CampaignReport, UnitReport};
use crate::spec::{CampaignSpec, SpecParseError};
use oranges::experiments::ExperimentError;
use std::fmt;
use std::time::Instant;

/// Campaign failure.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignError {
    /// The spec did not describe a runnable campaign (e.g. a degenerate
    /// shard assignment patched directly into the struct).
    Spec(SpecParseError),
    /// A unit's experiment failed.
    Unit {
        /// Which unit.
        key: UnitKey,
        /// Its error.
        error: ExperimentError,
    },
    /// A unit's experiment *panicked*. The engine catches the unwind —
    /// only the subscriptions waiting on this unit fail, the engine and
    /// its workers keep serving.
    UnitPanicked {
        /// Which unit.
        key: UnitKey,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The engine itself misbehaved (shut down mid-campaign).
    Worker(String),
    /// The unit's subscription was cancelled (explicitly or by
    /// dropping it) before this unit ran. Coalesced siblings of the
    /// same unit are unaffected.
    Cancelled {
        /// Which unit.
        key: UnitKey,
    },
    /// The subscription's deadline expired before this unit resolved.
    /// If the computation was already running it still completes into
    /// the cache — only this delivery fails.
    DeadlineExceeded {
        /// Which unit.
        key: UnitKey,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Spec(e) => write!(f, "campaign spec: {e}"),
            CampaignError::Unit { key, error } => write!(f, "unit {key} failed: {error}"),
            CampaignError::UnitPanicked { key, message } => {
                write!(f, "unit {key} panicked: {message}")
            }
            CampaignError::Worker(msg) => write!(f, "worker failure: {msg}"),
            CampaignError::Cancelled { key } => {
                write!(f, "unit {key} cancelled before it ran")
            }
            CampaignError::DeadlineExceeded { key } => {
                write!(f, "unit {key} missed its submission deadline")
            }
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<SpecParseError> for CampaignError {
    fn from(e: SpecParseError) -> Self {
        CampaignError::Spec(e)
    }
}

/// Expand a spec into its (possibly sharded) plan — the one expansion
/// path every entry point (CLI adapters and the service) goes through.
pub(crate) fn expand_plan(spec: &CampaignSpec) -> Result<Plan, CampaignError> {
    spec.validate_sizes()?;
    let plan = Plan::expand(spec);
    match spec.shard {
        Some((index, count)) => Ok(plan.shard(index, count)?),
        None => Ok(plan),
    }
}

/// The deliveries of one whole-plan subscription, assembled in plan
/// order. Every unit is awaited (units are independent, so siblings of a
/// failing unit finish and land in the cache for the next run); the
/// error reported is the earliest failing unit's, matching serial
/// semantics. Receiving stays with the caller: [`assemble`] blocks on
/// each delivery, the service's reactor drains what is queued on each
/// wakeup.
pub(crate) struct Assembly {
    slots: Vec<Option<UnitReport>>,
    first_error: Option<(usize, CampaignError)>,
    received: usize,
}

impl Assembly {
    pub(crate) fn new(plan: &Plan) -> Self {
        Assembly {
            slots: (0..plan.len()).map(|_| None).collect(),
            first_error: None,
            received: 0,
        }
    }

    /// Whether every unit of the plan was delivered.
    pub(crate) fn is_complete(&self) -> bool {
        self.received == self.slots.len()
    }

    /// Slot a delivery by its plan index and return its report, or keep
    /// its error if no earlier unit failed.
    pub(crate) fn deliver(&mut self, plan: &Plan, delivery: UnitDelivery) -> Option<&UnitReport> {
        self.received += 1;
        match delivery.outcome {
            Ok(outcome) => {
                let unit = &plan.units[delivery.index];
                Some(self.slots[delivery.index].insert(UnitReport {
                    index: unit.index,
                    key: unit.key.clone(),
                    source: outcome.source,
                    wall: outcome.wall,
                    output: outcome.output,
                }))
            }
            Err(error) => {
                if self
                    .first_error
                    .as_ref()
                    .is_none_or(|(index, _)| delivery.index < *index)
                {
                    self.first_error = Some((delivery.index, error));
                }
                None
            }
        }
    }

    /// The engine shut down with deliveries missing: that fails the run,
    /// whatever else failed.
    pub(crate) fn engine_gone(&mut self) {
        self.first_error = Some((
            0,
            CampaignError::Worker("engine shut down mid-campaign".to_string()),
        ));
    }

    /// The reports in plan order, or the error that decides the run.
    pub(crate) fn finish(self, plan: &Plan) -> Result<Vec<UnitReport>, CampaignError> {
        if let Some((_, error)) = self.first_error {
            return Err(error);
        }
        plan.units
            .iter()
            .zip(self.slots)
            .map(|(unit, slot)| {
                slot.ok_or_else(|| {
                    CampaignError::Worker(format!("unit {} never reported", unit.key))
                })
            })
            .collect()
    }
}

/// Drain a whole-plan subscription into plan-ordered unit reports.
fn assemble(plan: &Plan, subscription: &Subscription) -> Result<Vec<UnitReport>, CampaignError> {
    let mut assembly = Assembly::new(plan);
    while !assembly.is_complete() {
        let Some(delivery) = subscription.recv() else {
            assembly.engine_gone();
            break;
        };
        assembly.deliver(plan, delivery);
    }
    assembly.finish(plan)
}

/// Run a campaign on a private, call-scoped engine sized by
/// `spec.workers` (clamped to the plan). The cache persists across
/// calls: pass the same instance again and an identical spec re-run is
/// served entirely from it.
pub fn run_campaign(
    spec: &CampaignSpec,
    cache: &ResultCache,
) -> Result<CampaignReport, CampaignError> {
    let plan = expand_plan(spec)?;
    let engine = ExecutionEngine::new(spec.workers.clamp(1, plan.len().max(1)));
    run_plan_on(&engine, &plan, cache)
}

/// Run a campaign on a caller-owned engine — the persistent shape: the
/// engine's workers stay warm across calls, any number of threads may
/// call this at once on the same engine, and overlapping campaigns
/// against the same [`ResultCache`] compute each shared unit exactly
/// once (the later one coalesces). Semantically identical to
/// [`run_campaign`] (same plan expansion, sharding, cache protocol,
/// deterministic assembly, earliest-failure error); `spec.workers` is
/// ignored — the engine's own size governs parallelism.
pub fn run_campaign_on(
    engine: &ExecutionEngine,
    spec: &CampaignSpec,
    cache: &ResultCache,
) -> Result<CampaignReport, CampaignError> {
    run_plan_on(engine, &expand_plan(spec)?, cache)
}

fn run_plan_on(
    engine: &ExecutionEngine,
    plan: &Plan,
    cache: &ResultCache,
) -> Result<CampaignReport, CampaignError> {
    let started = Instant::now();
    let subscription = engine.submit(&plan.units, cache);
    let units = assemble(plan, &subscription)?;
    Ok(CampaignReport::new(
        units,
        engine.workers().clamp(1, plan.len().max(1)),
        started.elapsed(),
        cache.stats(),
    ))
}

/// The serial baseline: the same plan, one worker, a private throwaway
/// cache (every unit computes). Concurrent campaigns are asserted
/// value-identical to this.
pub fn run_campaign_serial(spec: &CampaignSpec) -> Result<CampaignReport, CampaignError> {
    let serial_spec = spec.clone().with_workers(1);
    run_campaign(&serial_spec, &ResultCache::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ExperimentKind;
    use oranges_soc::chip::ChipGeneration;
    use std::time::Duration;

    fn tiny_spec(workers: usize) -> CampaignSpec {
        CampaignSpec::new(
            vec![ExperimentKind::Fig4, ExperimentKind::Contention],
            vec![ChipGeneration::M1, ChipGeneration::M3],
        )
        .with_power_sizes(vec![2048])
        .with_workers(workers)
    }

    #[test]
    fn inline_and_pooled_runs_agree() {
        let serial = run_campaign_serial(&tiny_spec(1)).unwrap();
        let pooled = run_campaign(&tiny_spec(3), &ResultCache::new()).unwrap();
        assert_eq!(serial.digest(), pooled.digest());
        assert_eq!(serial.units.len(), 4);
        assert_eq!(pooled.workers, 3);
    }

    #[test]
    fn rerun_is_fully_cached() {
        let cache = ResultCache::new();
        let first = run_campaign(&tiny_spec(2), &cache).unwrap();
        assert!(first.units.iter().all(|u| !u.from_cache()));
        let second = run_campaign(&tiny_spec(2), &cache).unwrap();
        assert!(second.units.iter().all(|u| u.from_cache()));
        assert_eq!(first.digest(), second.digest());
        let (hits, misses) = (second.cache.hits, second.cache.misses);
        assert_eq!((hits, misses), (4, 4), "4 misses then 4 hits");
    }

    #[test]
    fn duplicate_units_coalesce_within_one_campaign() {
        let cache = ResultCache::new();
        let spec = CampaignSpec::new(
            vec![ExperimentKind::Fig4, ExperimentKind::Fig4],
            vec![ChipGeneration::M2],
        )
        .with_power_sizes(vec![2048])
        .with_workers(1);
        let report = run_campaign(&spec, &cache).unwrap();
        assert_eq!(report.units.len(), 2);
        assert!(!report.units[0].from_cache());
        assert!(report.units[1].from_cache(), "second occurrence coalesced");
        assert_eq!(report.units[0].output.json(), report.units[1].output.json());
        assert_eq!(report.computed_units(), 1);
        assert_eq!(report.coalesced_units(), 1);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn worker_count_exceeding_plan_is_clamped() {
        let report = run_campaign(&tiny_spec(64), &ResultCache::new()).unwrap();
        assert_eq!(report.workers, 4, "clamped to the 4 plan units");
    }

    #[test]
    fn computed_units_carry_wall_time_everywhere() {
        let cache = ResultCache::new();
        let report = run_campaign(&tiny_spec(2), &cache).unwrap();
        for unit in &report.units {
            assert!(unit.wall > Duration::ZERO, "{}", unit.key);
            let compute = unit.output.wall_time_s().expect("stamped at compute time");
            assert!(compute > 0.0, "{}", unit.key);
            assert!(unit
                .output
                .sets
                .iter()
                .all(|s| s.provenance.wall_time_s == Some(compute)));
        }
        // Cache hits keep the original compute wall in provenance.
        let rerun = run_campaign(&tiny_spec(2), &cache).unwrap();
        for (unit, original) in rerun.units.iter().zip(&report.units) {
            assert!(unit.from_cache());
            assert_eq!(unit.output.wall_time_s(), original.output.wall_time_s());
        }
    }

    #[test]
    fn a_persistent_engine_matches_the_scoped_scheduler_and_reenters_warm() {
        let engine = ExecutionEngine::new(3);
        let cache = ResultCache::new();
        let first = run_campaign_on(&engine, &tiny_spec(3), &cache).unwrap();
        let scoped = run_campaign(&tiny_spec(3), &ResultCache::new()).unwrap();
        assert_eq!(first.digest(), scoped.digest(), "same values either way");
        assert_eq!(first.workers, 3);
        assert!(first.units.iter().all(|u| !u.from_cache()));

        // Re-entry over the warm cache: zero computed units.
        let second = run_campaign_on(&engine, &tiny_spec(3), &cache).unwrap();
        assert!(second.units.iter().all(|u| u.from_cache()));
        assert_eq!(second.computed_units(), 0);
        assert_eq!(second.fingerprint(), first.fingerprint());

        // A different spec re-enters the same threads.
        let sharded = tiny_spec(3).with_shard(0, 2).expect("valid shard");
        let other = run_campaign_on(&engine, &sharded, &cache).unwrap();
        assert_eq!(other.units.len(), 2);
        assert_eq!(engine.stats().units_computed, 4, "nothing recomputed");
        drop(engine); // joins cleanly
    }

    #[test]
    fn a_degenerate_shard_patched_into_the_spec_is_a_typed_error() {
        // `with_shard` rejects this at build time; patching the field
        // directly must surface the same typed error, not a panic.
        let mut spec = tiny_spec(1);
        spec.shard = Some((9, 2));
        match run_campaign(&spec, &ResultCache::new()) {
            Err(CampaignError::Spec(error)) => {
                assert!(error.to_string().contains("out of range"), "{error}")
            }
            other => panic!("expected a spec error, got {other:?}"),
        }
    }

    #[test]
    fn an_assembly_keeps_the_earliest_error_and_names_what_never_arrived() {
        use crate::engine::{UnitOutcome, UnitSource};
        let plan = Plan::expand(&tiny_spec(1));
        let cancelled = |index: usize| UnitDelivery {
            index,
            outcome: Err(CampaignError::Cancelled {
                key: plan.units[index].key.clone(),
            }),
        };
        let computed = |index: usize| UnitDelivery {
            index,
            outcome: Ok(UnitOutcome {
                source: UnitSource::Computed,
                output: std::sync::Arc::new(
                    oranges::experiments::ExperimentOutput::from_sets(vec![], None)
                        .expect("no sets serialize"),
                ),
                wall: Duration::ZERO,
            }),
        };

        // Slotted by plan index, whatever the arrival order; the
        // earliest plan index's error decides the run.
        let mut assembly = Assembly::new(&plan);
        assert_eq!(
            assembly.deliver(&plan, computed(3)).map(|r| r.index),
            Some(3)
        );
        assert!(assembly.deliver(&plan, cancelled(2)).is_none());
        assembly.deliver(&plan, cancelled(1));
        assert!(!assembly.is_complete());
        assembly.deliver(&plan, computed(0));
        assert!(assembly.is_complete());
        let key = plan.units[1].key.clone();
        assert_eq!(
            assembly.finish(&plan).err(),
            Some(CampaignError::Cancelled { key })
        );

        // A slot nothing filled is named; an engine that went away fails
        // the run whatever else failed.
        let never = CampaignError::Worker(format!("unit {} never reported", plan.units[0].key));
        assert_eq!(Assembly::new(&plan).finish(&plan).err(), Some(never));
        let mut assembly = Assembly::new(&plan);
        assembly.deliver(&plan, cancelled(0));
        assembly.engine_gone();
        let gone = CampaignError::Worker("engine shut down mid-campaign".to_string());
        assert_eq!(assembly.finish(&plan).err(), Some(gone));
    }

    #[test]
    fn sharded_specs_run_their_subset_only() {
        let whole = run_campaign(&tiny_spec(1), &ResultCache::new()).unwrap();
        let mut union: Vec<String> = Vec::new();
        for index in 0..2 {
            let spec = tiny_spec(1).with_shard(index, 2).expect("valid shard");
            let shard = run_campaign(&spec, &ResultCache::new()).unwrap();
            assert_eq!(shard.units.len(), 2, "4 units split 2/2");
            union.extend(shard.units.iter().map(|u| u.key.to_string()));
        }
        let mut expected: Vec<String> = whole.units.iter().map(|u| u.key.to_string()).collect();
        union.sort();
        expected.sort();
        assert_eq!(union, expected);
    }
}
