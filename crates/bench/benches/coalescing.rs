//! Cross-request coalescing: duplicate-spec wall time with and without
//! the shared engine's in-flight dedupe.
//!
//! Two "clients" submit the same spec at the same moment. Without
//! coalescing (separate engines and caches, the pre-engine behaviour)
//! both compute the full grid; with one shared engine + cache the
//! second client attaches to the first's in-flight units and is served
//! essentially for free.
//!
//! Run with `cargo bench -p oranges-bench --bench coalescing`.

use oranges_campaign::prelude::*;
use std::time::{Duration, Instant};

fn spec() -> CampaignSpec {
    CampaignSpec::paper_grid()
}

/// Wall time of two concurrent runs of `spec` given an engine+cache per
/// client (`shared == false`) or one engine+cache for both (`true`).
/// Returns (total wall, computed units, coalesced joins).
fn duplicate_clients(shared: bool) -> (Duration, u64, u64) {
    let engine_a = ExecutionEngine::new(4);
    let cache_a = ResultCache::new();
    let (engine_b, cache_b) = if shared {
        (None, None)
    } else {
        (Some(ExecutionEngine::new(4)), Some(ResultCache::new()))
    };
    let started = Instant::now();
    std::thread::scope(|scope| {
        let a = scope.spawn(|| run_campaign_on(&engine_a, &spec(), &cache_a).expect("client A"));
        let b = scope.spawn(|| {
            let engine = engine_b.as_ref().unwrap_or(&engine_a);
            let cache = cache_b.as_ref().unwrap_or(&cache_a);
            run_campaign_on(engine, &spec(), cache).expect("client B")
        });
        let report_a = a.join().expect("thread A");
        let report_b = b.join().expect("thread B");
        assert_eq!(report_a.fingerprint(), report_b.fingerprint());
    });
    let wall = started.elapsed();
    let mut computed = engine_a.stats().units_computed;
    let mut coalesced = engine_a.stats().coalesced_joins;
    if let Some(engine_b) = &engine_b {
        computed += engine_b.stats().units_computed;
        coalesced += engine_b.stats().coalesced_joins;
    }
    (wall, computed, coalesced)
}

fn main() {
    println!("=== Duplicate-spec clients: coalescing on vs off (Fig. 1-4 x M1-M4) ===\n");

    // Baseline for scale: one client alone.
    let solo_engine = ExecutionEngine::new(4);
    let solo_started = Instant::now();
    run_campaign_on(&solo_engine, &spec(), &ResultCache::new()).expect("solo run");
    let solo = solo_started.elapsed();
    println!(
        "single client:          {:8.3} s (16 units computed)",
        solo.as_secs_f64()
    );

    let (isolated, isolated_computed, _) = duplicate_clients(false);
    println!(
        "2 clients, no sharing:  {:8.3} s ({} units computed — everything twice)",
        isolated.as_secs_f64(),
        isolated_computed
    );

    let (coalesced_wall, coalesced_computed, joins) = duplicate_clients(true);
    println!(
        "2 clients, coalescing:  {:8.3} s ({} units computed, {} coalesced joins)",
        coalesced_wall.as_secs_f64(),
        coalesced_computed,
        joins
    );
    assert_eq!(
        coalesced_computed, 16,
        "shared engine computes the grid exactly once"
    );

    let second_client_cost = coalesced_wall.as_secs_f64() - solo.as_secs_f64();
    println!(
        "\nsecond client marginal cost with coalescing: {:+.3} s \
         ({:.1}% of a full duplicate computation)",
        second_client_cost,
        100.0 * second_client_cost.max(0.0) / solo.as_secs_f64().max(1e-9),
    );
}
