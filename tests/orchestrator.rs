//! Orchestrator integration over a loopback fleet: N campaign daemons
//! on OS-assigned TCP ports stand in for N worker processes (one per
//! measurement host), one shared cache joins their shards, and the
//! acceptance property holds — an orchestrated N-daemon campaign is
//! value-identical to a single-process run, and its merged cache
//! persists to a fully warm rerun.

use oranges_campaign::prelude::*;
use oranges_campaign::service::{CampaignService, ServiceClient, ServiceConfig, ServiceSummary};
use oranges_harness::transport::{AnyTransport, TcpTransport};
use std::path::PathBuf;
use std::thread::JoinHandle;

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("oranges-orch-{}-{name}", std::process::id()))
}

fn grid_spec() -> CampaignSpec {
    // 3 kinds x 2 chips + 1 chip-independent = 7 units, so 4 daemons
    // get uneven shards (2/2/2/1) — the merge must still cover exactly.
    CampaignSpec::new(
        vec![
            ExperimentKind::Fig4,
            ExperimentKind::Contention,
            ExperimentKind::Tables,
            ExperimentKind::MixedPrecision,
        ],
        vec![ChipGeneration::M1, ChipGeneration::M4],
    )
    .with_power_sizes(vec![2048])
    .with_workers(2)
}

/// Start `count` loopback TCP daemons and return their endpoints.
fn start_daemons(count: usize) -> (Vec<Endpoint>, Vec<JoinHandle<ServiceSummary>>) {
    (0..count)
        .map(|_| {
            let config =
                ServiceConfig::new("tcp:127.0.0.1:0".parse::<Endpoint>().expect("endpoint"))
                    .with_workers(1);
            let service = CampaignService::<TcpTransport>::bind(config).expect("bind tcp daemon");
            let endpoint = service.local_endpoint().clone();
            (
                endpoint,
                std::thread::spawn(move || service.serve().expect("serve")),
            )
        })
        .unzip()
}

/// Ask every daemon for its engine counters, shut it down, and return
/// the units each one computed.
fn shut_down(endpoints: &[Endpoint], daemons: Vec<JoinHandle<ServiceSummary>>) -> Vec<u64> {
    let computed = endpoints
        .iter()
        .map(|endpoint| {
            let mut client = ServiceClient::<AnyTransport>::connect(endpoint).expect("connect");
            let stats = client.stats().expect("stats");
            client.shutdown().expect("shutdown");
            stats.summary.units_computed
        })
        .collect();
    for daemon in daemons {
        daemon.join().expect("daemon thread");
    }
    computed
}

#[test]
fn four_process_campaign_is_value_identical_to_single_process() {
    let single = run_campaign(&grid_spec(), &ResultCache::new()).expect("single-process run");

    let (endpoints, daemons) = start_daemons(4);
    let cache = ResultCache::new();
    let run = Orchestrator::fleet(endpoints.clone())
        .run(&grid_spec(), &cache)
        .expect("orchestrated run");

    assert_eq!(run.report.units.len(), single.units.len());
    // The acceptance property: same digests, unit for unit.
    assert_eq!(run.report.digest(), single.digest());
    assert_eq!(run.report.fingerprint(), single.fingerprint());
    // The shards covered the whole plan, so assembly computed nothing.
    assert_eq!(run.report.computed_units(), 0);
    assert!(run.report.units.iter().all(|u| u.from_cache()));
    // Every distinct unit arrived from exactly one shard.
    assert_eq!(run.merged.added, 7);
    assert_eq!(run.merged.identical, 0);

    // All four daemons did shard work, 7 units between them.
    let computed = shut_down(&endpoints, daemons);
    assert!(computed.iter().all(|&units| units > 0), "{computed:?}");
    assert_eq!(computed.iter().sum::<u64>(), 7);
}

#[test]
fn orchestrated_cache_file_round_trips_to_a_fully_warm_rerun() {
    let cache_file = temp_path("shared.json");
    std::fs::remove_file(&cache_file).ok();

    let (endpoints, daemons) = start_daemons(3);
    let cache = ResultCache::new();
    let run = Orchestrator::fleet(endpoints.clone())
        .run(&grid_spec(), &cache)
        .expect("orchestrated run");
    shut_down(&endpoints, daemons);
    cache.save(&cache_file).expect("persist the merged cache");

    // A later process loads the one shared cache file and recomputes
    // nothing — fleet warmth survives on disk.
    let warm = ResultCache::load(&cache_file).expect("load shared cache");
    let rerun = run_campaign(&grid_spec(), &warm).expect("warm rerun");
    assert_eq!(rerun.computed_units(), 0);
    assert_eq!(rerun.fingerprint(), run.report.fingerprint());
    std::fs::remove_file(&cache_file).ok();
}
