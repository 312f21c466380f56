//! Execution-engine semantics, through the public API:
//!
//! (a) two concurrent overlapping campaigns on one shared engine +
//!     cache compute each shared unit exactly once, and
//!     both reports stay digest-identical to serial runs;
//! (b) a panicking unit fails only its subscribers — the engine, its
//!     workers, and unrelated submissions keep going.

use oranges::platform::Platform;
use oranges_campaign::prelude::*;
use oranges_campaign::{
    CampaignError, ExecutionEngine, ExperimentError, ExperimentOutput, Plan, PlanUnit, UnitKey,
};
use std::sync::Arc;

fn overlapping_specs() -> (CampaignSpec, CampaignSpec) {
    // Overlap: contention x (M3) is in both; each spec also has units
    // the other lacks.
    let spec_a = CampaignSpec::new(
        vec![ExperimentKind::Fig4, ExperimentKind::Contention],
        vec![ChipGeneration::M1, ChipGeneration::M3],
    )
    .with_power_sizes(vec![2048]);
    let spec_b = CampaignSpec::new(
        vec![ExperimentKind::Contention, ExperimentKind::Fig1],
        vec![ChipGeneration::M3, ChipGeneration::M4],
    )
    .with_power_sizes(vec![2048]);
    (spec_a, spec_b)
}

#[test]
fn concurrent_overlapping_campaigns_compute_each_shared_unit_exactly_once() {
    let (spec_a, spec_b) = overlapping_specs();
    // 4 + 4 units with contention[M3] shared: 7 distinct keys.
    let engine = ExecutionEngine::new(3);
    let cache = ResultCache::new();

    let (report_a, report_b) = std::thread::scope(|scope| {
        let a = scope.spawn(|| run_campaign_on(&engine, &spec_a, &cache).expect("campaign A"));
        let b = scope.spawn(|| run_campaign_on(&engine, &spec_b, &cache).expect("campaign B"));
        (a.join().expect("thread A"), b.join().expect("thread B"))
    });

    // Value identity: concurrency and sharing never change the numbers.
    assert_eq!(
        report_a.digest(),
        run_campaign_serial(&spec_a).expect("serial A").digest()
    );
    assert_eq!(
        report_b.digest(),
        run_campaign_serial(&spec_b).expect("serial B").digest()
    );

    // Exactly-once: however the two campaigns interleaved, the shared
    // unit was computed by one of them and *reused* by the other —
    // whether as a coalesced join (temporal overlap) or a cache hit.
    let stats = engine.stats();
    assert_eq!(stats.units_submitted, 8);
    assert_eq!(stats.units_computed, 7, "7 distinct keys, each once");
    assert_eq!(
        stats.cache_hits + stats.coalesced_joins,
        1,
        "the shared unit was reused, not recomputed"
    );
    assert_eq!(cache.stats().entries, 7);
    assert_eq!(
        report_a.computed_units() + report_b.computed_units(),
        7,
        "the reports agree with the engine counters"
    );
}

/// A unit that always panics, schedulable through the public engine API.
struct PanickingExperiment;

impl Experiment for PanickingExperiment {
    fn id(&self) -> &'static str {
        "panicker"
    }
    fn params(&self) -> String {
        "mode=always".to_string()
    }
    fn chip(&self) -> Option<ChipGeneration> {
        None
    }
    fn run(&self, _platform: &mut Platform) -> Result<ExperimentOutput, ExperimentError> {
        panic!("deliberate unit panic");
    }
}

#[test]
fn a_panicking_unit_fails_its_subscribers_but_not_other_campaigns() {
    let engine = ExecutionEngine::new(2);
    let cache = ResultCache::new();

    let experiment: Arc<dyn Experiment> = Arc::new(PanickingExperiment);
    let doomed_unit = PlanUnit {
        index: 0,
        key: UnitKey::of(experiment.as_ref()),
        experiment,
    };
    let doomed = engine.submit(&[doomed_unit], &cache);
    let delivery = doomed.recv().expect("the failure is delivered, not lost");
    match delivery.outcome {
        Err(CampaignError::UnitPanicked { key, message }) => {
            assert_eq!(key.id, "panicker");
            assert!(message.contains("deliberate unit panic"), "{message}");
        }
        other => panic!("expected a unit panic, got {other:?}"),
    }
    assert_eq!(engine.stats().units_failed, 1);

    // The same engine still serves a real campaign afterwards: both of
    // its worker threads survived the unwound unit.
    let spec = CampaignSpec::new(
        vec![ExperimentKind::Fig4],
        vec![ChipGeneration::M1, ChipGeneration::M2],
    )
    .with_power_sizes(vec![2048]);
    let plan = Plan::expand(&spec);
    let subscription = engine.submit(&plan.units, &cache);
    for _ in 0..subscription.expected() {
        let delivery = subscription.recv().expect("engine still delivering");
        assert!(delivery.outcome.is_ok(), "healthy units run fine");
    }
    assert_eq!(engine.stats().units_computed, 2);
}

#[test]
fn a_panicking_unit_fails_the_whole_campaign_with_a_typed_error() {
    // Through the campaign adapter: the report-level error names the
    // unit and the panic, and the engine survives for the next campaign.
    let engine = ExecutionEngine::new(2);
    let cache = ResultCache::new();

    let experiment: Arc<dyn Experiment> = Arc::new(PanickingExperiment);
    let plan_unit = PlanUnit {
        index: 0,
        key: UnitKey::of(experiment.as_ref()),
        experiment,
    };
    let subscription = engine.submit(&[plan_unit], &cache);
    let delivery = subscription.recv().expect("delivered");
    assert!(matches!(
        delivery.outcome,
        Err(CampaignError::UnitPanicked { .. })
    ));

    // The engine still runs ordinary campaigns to completion.
    let spec = CampaignSpec::new(vec![ExperimentKind::Fig1], vec![ChipGeneration::M3]);
    let report = run_campaign_on(&engine, &spec, &cache).expect("engine survived the panic");
    assert_eq!(report.units.len(), 1);
    assert!(!report.units[0].from_cache());
}
