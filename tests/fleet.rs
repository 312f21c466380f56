//! Fleet-mode integration: real campaign daemons on loopback TCP (and
//! mixed unix+tcp) endpoints, a fleet orchestrator sharding one
//! campaign across them, and the acceptance property — the merged
//! report is **value-identical to a single-process run** (same
//! `CampaignReport::fingerprint`), with every unit computed remotely.
//! Also covers daemons warm-started from their own cache files, the
//! versioned-cache staleness rule for remote shards, the loud failure
//! on a daemon serving a forged value, and the typed errors for
//! unreachable fleets.

use oranges_campaign::cache::CacheMergeError;
use oranges_campaign::prelude::*;
use oranges_campaign::service::{CampaignService, ServiceClient, ServiceConfig, ServiceSummary};
use oranges_campaign::{ExperimentOutput, OrchestrateError, Plan};
#[cfg(unix)]
use oranges_harness::transport::UnixTransport;
use oranges_harness::transport::{AnyTransport, TcpTransport};
use std::path::PathBuf;
use std::thread::JoinHandle;

/// 3 kinds x 2 chips + 1 chip-independent = 7 units, so 2 fleet
/// endpoints get uneven shards (4/3) — the merge must still cover
/// exactly.
fn grid_spec() -> CampaignSpec {
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

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("oranges-fleet-{}-{name}", std::process::id()))
}

fn tcp_config() -> ServiceConfig {
    ServiceConfig::new("tcp:127.0.0.1:0".parse::<Endpoint>().expect("endpoint")).with_workers(2)
}

/// A loopback TCP daemon on an OS-assigned port — the test stand-in
/// for a remote measurement host.
fn start_tcp_daemon() -> (Endpoint, JoinHandle<ServiceSummary>) {
    start_daemon(tcp_config())
}

fn start_daemon(config: ServiceConfig) -> (Endpoint, JoinHandle<ServiceSummary>) {
    let service = CampaignService::<TcpTransport>::bind(config).expect("bind tcp daemon");
    let endpoint = service.local_endpoint().clone();
    let daemon = std::thread::spawn(move || service.serve().expect("serve"));
    (endpoint, daemon)
}

/// Probe a daemon's engine counters, then ask it to exit.
fn stats_and_shutdown(endpoint: &Endpoint) -> ServiceSummary {
    let mut client = ServiceClient::<AnyTransport>::connect(endpoint).expect("probe connect");
    let stats = client.stats().expect("stats");
    client.shutdown().expect("shutdown");
    stats.summary
}

#[test]
fn fleet_campaign_is_value_identical_to_single_process() {
    let single = run_campaign(&grid_spec(), &ResultCache::new()).expect("single-process run");

    let (endpoint_a, daemon_a) = start_tcp_daemon();
    let (endpoint_b, daemon_b) = start_tcp_daemon();

    let cache = ResultCache::new();
    let run = Orchestrator::fleet(vec![endpoint_a.clone(), endpoint_b.clone()])
        .run(&grid_spec(), &cache)
        .expect("fleet run");

    // The acceptance property: same digests, unit for unit.
    assert_eq!(run.report.units.len(), single.units.len());
    assert_eq!(run.report.digest(), single.digest());
    assert_eq!(run.report.fingerprint(), single.fingerprint());
    // The fleet covered the whole plan, so assembly computed nothing…
    assert_eq!(run.report.computed_units(), 0);
    assert!(run.report.units.iter().all(|u| u.from_cache()));
    // …and every distinct unit arrived from exactly one daemon.
    assert_eq!(run.merged.added, 7);
    assert_eq!(run.merged.identical, 0);
    assert_eq!(run.merged.stale, 0);

    // Both daemons did real shard work, and together computed exactly
    // the 7-unit plan (round-robin 4/3 split — no duplicates anywhere).
    let summary_a = stats_and_shutdown(&endpoint_a);
    let summary_b = stats_and_shutdown(&endpoint_b);
    assert!(summary_a.units_computed > 0, "daemon A sat idle");
    assert!(summary_b.units_computed > 0, "daemon B sat idle");
    assert_eq!(summary_a.units_computed + summary_b.units_computed, 7);
    daemon_a.join().expect("daemon A");
    daemon_b.join().expect("daemon B");
}

#[cfg(unix)]
#[test]
fn fleet_spans_mixed_transports() {
    // One unix daemon (this host) + one TCP daemon ("remote"): the
    // fleet dispatcher dials each endpoint with its own scheme and the
    // merged result is still value-identical.
    let socket =
        std::env::temp_dir().join(format!("oranges-fleet-mixed-{}.sock", std::process::id()));
    let unix_service = CampaignService::<UnixTransport>::bind(
        ServiceConfig::new(Endpoint::Unix(socket)).with_workers(2),
    )
    .expect("bind unix daemon");
    let unix_endpoint = unix_service.local_endpoint().clone();
    let unix_daemon = std::thread::spawn(move || unix_service.serve().expect("serve"));
    let (tcp_endpoint, tcp_daemon) = start_tcp_daemon();

    let run = Orchestrator::fleet(vec![unix_endpoint.clone(), tcp_endpoint.clone()])
        .run(&grid_spec(), &ResultCache::new())
        .expect("mixed fleet run");
    let single = run_campaign(&grid_spec(), &ResultCache::new()).expect("single-process run");
    assert_eq!(run.report.fingerprint(), single.fingerprint());
    assert_eq!(run.merged.added, 7);

    stats_and_shutdown(&unix_endpoint);
    stats_and_shutdown(&tcp_endpoint);
    unix_daemon.join().expect("unix daemon");
    tcp_daemon.join().expect("tcp daemon");
}

#[test]
fn fleet_merges_into_a_warm_parent_cache_as_identical() {
    // The parent already knows every unit; the daemons (cold, their own
    // caches) recompute their shards, and the merge must recognize all
    // 7 as identical — determinism across processes and the wire.
    let cache = ResultCache::new();
    let first = run_campaign(&grid_spec(), &cache).expect("warm-up run");

    let (endpoint_a, daemon_a) = start_tcp_daemon();
    let (endpoint_b, daemon_b) = start_tcp_daemon();
    let run = Orchestrator::fleet(vec![endpoint_a.clone(), endpoint_b.clone()])
        .run(&grid_spec(), &cache)
        .expect("fleet over warm cache");

    assert_eq!(run.merged.added, 0);
    assert_eq!(run.merged.identical, 7);
    assert_eq!(run.report.fingerprint(), first.fingerprint());

    stats_and_shutdown(&endpoint_a);
    stats_and_shutdown(&endpoint_b);
    daemon_a.join().expect("daemon A");
    daemon_b.join().expect("daemon B");
}

#[test]
fn daemons_started_on_a_warm_cache_file_compute_nothing() {
    // Each daemon warm-starts from its own `--cache` file written by a
    // prior run, so a cold parent gets every unit without any daemon
    // recomputing one.
    let prior = ResultCache::new();
    let first = run_campaign(&grid_spec(), &prior).expect("prior run");
    let files = [temp_path("warm-a.json"), temp_path("warm-b.json")];
    for file in &files {
        prior.save(file).expect("write a daemon cache file");
    }
    let (endpoint_a, daemon_a) = start_daemon(tcp_config().with_cache_path(&files[0]));
    let (endpoint_b, daemon_b) = start_daemon(tcp_config().with_cache_path(&files[1]));

    let run = Orchestrator::fleet(vec![endpoint_a.clone(), endpoint_b.clone()])
        .run(&grid_spec(), &ResultCache::new())
        .expect("fleet over warm daemons");
    assert_eq!(run.merged.added, 7);
    assert_eq!(run.report.computed_units(), 0);
    assert_eq!(run.report.fingerprint(), first.fingerprint());

    let summary_a = stats_and_shutdown(&endpoint_a);
    let summary_b = stats_and_shutdown(&endpoint_b);
    assert_eq!(summary_a.units_computed + summary_b.units_computed, 0);
    assert_eq!(summary_a.unit_cache_hits + summary_b.unit_cache_hits, 7);
    daemon_a.join().expect("daemon A");
    daemon_b.join().expect("daemon B");
    for file in &files {
        std::fs::remove_file(file).ok();
    }
}

#[test]
fn a_daemon_serving_a_forged_value_fails_the_merge_loudly() {
    // Daemon B warm-starts from a cache file holding a forged output
    // under an honest key in its shard. The parent already knows the
    // honest value, so the join must fail loudly, name the key and the
    // endpoint, and leave the parent's value untouched.
    let parent = ResultCache::new();
    run_campaign(&grid_spec(), &parent).expect("honest run");
    // Round-robin over 2 endpoints: plan unit 1 is shard 1's.
    let disputed_key = Plan::expand(&grid_spec()).units[1].key.clone();
    let honest_json = parent
        .get(&disputed_key)
        .expect("honest entry")
        .json()
        .to_string();

    let forged = ResultCache::new();
    forged.insert(
        disputed_key.clone(),
        ExperimentOutput::from_sets(
            vec![
                MetricSet::for_chip("fig4", &disputed_key.params, "M1").metric(
                    "gflops_per_watt",
                    9999.0,
                    "GFLOPS/W",
                ),
            ],
            None,
        )
        .expect("serializable forgery"),
    );
    let forged_file = temp_path("forged.json");
    forged
        .save(&forged_file)
        .expect("write the forged cache file");

    let (endpoint_a, daemon_a) = start_tcp_daemon();
    let (endpoint_b, daemon_b) = start_daemon(tcp_config().with_cache_path(&forged_file));
    let error = Orchestrator::fleet(vec![endpoint_a.clone(), endpoint_b.clone()])
        .run(&grid_spec(), &parent)
        .expect_err("a forged value must fail the merge");
    match &error {
        OrchestrateError::RemoteConflict {
            error: CacheMergeError::Conflict { key, .. },
            endpoint,
        } => {
            assert_eq!(key, &disputed_key);
            assert_eq!(endpoint, &endpoint_b.to_string());
        }
        other => panic!("expected a remote conflict, got {other}"),
    }
    assert!(error.to_string().contains("merge conflict"), "{error}");
    assert_eq!(
        parent.get(&disputed_key).expect("honest entry").json(),
        honest_json,
        "the parent keeps the honest value"
    );

    stats_and_shutdown(&endpoint_a);
    stats_and_shutdown(&endpoint_b);
    daemon_a.join().expect("daemon A");
    daemon_b.join().expect("daemon B");
    std::fs::remove_file(&forged_file).ok();
}

#[test]
fn stale_remote_shards_are_dropped_and_recomputed_locally() {
    // A parent cache stamped with a *different* model digest makes
    // every remote result stale — the versioned-cache rule a stale
    // cache *file* gets: dropped and counted, never merged and never a
    // conflict. The assembly pass recomputes locally, so the campaign
    // still succeeds with this host's values.
    let (endpoint_a, daemon_a) = start_tcp_daemon();
    let (endpoint_b, daemon_b) = start_tcp_daemon();

    let foreign = ResultCache::with_model_digest("0123456789abcdef");
    let run = Orchestrator::fleet(vec![endpoint_a.clone(), endpoint_b.clone()])
        .run(&grid_spec(), &foreign)
        .expect("fleet run survives stale remotes");

    assert_eq!(run.merged.stale, 7, "every remote unit judged stale");
    assert_eq!(run.merged.added, 0);
    assert_eq!(
        run.report.computed_units(),
        7,
        "assembly recomputed the whole plan locally"
    );
    let single = run_campaign(&grid_spec(), &ResultCache::new()).expect("single-process run");
    assert_eq!(
        run.report.fingerprint(),
        single.fingerprint(),
        "recomputed values are this host's own"
    );

    stats_and_shutdown(&endpoint_a);
    stats_and_shutdown(&endpoint_b);
    daemon_a.join().expect("daemon A");
    daemon_b.join().expect("daemon B");
}

#[test]
fn degenerate_fleets_are_typed_errors() {
    // No endpoints: nothing could cover the plan.
    let error = Orchestrator::fleet(vec![])
        .run(&grid_spec(), &ResultCache::new())
        .expect_err("empty fleet must be rejected");
    assert!(matches!(error, OrchestrateError::Args(_)), "{error}");
    assert!(error.to_string().contains("at least one endpoint"));

    // Pre-sharded specs: shard assignment belongs to the orchestrator.
    let sharded = grid_spec().with_shard(0, 2).expect("valid shard");
    let error = Orchestrator::fleet(vec!["tcp:127.0.0.1:1".parse().expect("endpoint")])
        .run(&sharded, &ResultCache::new())
        .expect_err("sharded spec must be rejected");
    assert!(error.to_string().contains("already-sharded"), "{error}");
}

#[test]
fn unhealthy_endpoints_fail_fast_before_any_shard_is_dispatched() {
    // A host that *answers* its health probe but reports not-ready
    // (here: draining after shutdown) must produce the typed
    // `Unhealthy` error naming the shard — and the healthy sibling
    // must never receive a shard. Stand up a minimal wire-level fake
    // so the not-ready answer is deterministic, not a drain race.
    use oranges_harness::envelope::Request;
    use std::io::{BufRead, BufReader, Write};

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind fake daemon");
    let draining = format!(
        "tcp:127.0.0.1:{}",
        listener.local_addr().expect("addr").port()
    )
    .parse::<Endpoint>()
    .expect("endpoint");
    let fake_endpoint = draining.clone();
    let fake = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept probe");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("read probe request");
        let request = Request::from_line(&line).expect("parse probe request");
        assert_eq!(request.method, "health", "the probe leads with health");
        // A draining daemon's answer, as PROTOCOL § 6.2 spells it.
        let answer = format!(
            "{{\"id\":{},\"kind\":\"health\",\"body\":{{\"ready\":false,\"draining\":true,\
             \"workers_alive\":2,\"workers_configured\":2,\"cache_entries\":0,\
             \"endpoint\":\"{fake_endpoint}\"}}}}\n",
            request.id
        );
        let mut stream = stream;
        stream.write_all(answer.as_bytes()).expect("answer probe");
    });
    let (live, daemon) = start_tcp_daemon();

    let error = Orchestrator::fleet(vec![live.clone(), draining.clone()])
        .run(&grid_spec(), &ResultCache::new())
        .expect_err("a draining endpoint must fail the campaign");
    match &error {
        OrchestrateError::Unhealthy {
            shard,
            endpoint,
            reason,
        } => {
            assert_eq!(*shard, 1, "the draining endpoint is shard 1");
            assert_eq!(endpoint, &draining.to_string());
            assert!(reason.contains("draining"), "{reason}");
        }
        other => panic!("expected an unhealthy error, got {other}"),
    }
    assert!(
        error.to_string().contains("nothing was dispatched"),
        "{error}"
    );
    fake.join().expect("fake daemon");

    // Fail-fast means the healthy sibling never saw a run request.
    let summary = stats_and_shutdown(&live);
    assert_eq!(
        summary.runs, 0,
        "no shard was dispatched to the live daemon"
    );
    assert_eq!(summary.units_computed, 0);
    daemon.join().expect("daemon");
}

#[test]
fn unreachable_endpoints_are_typed_remote_errors_naming_the_shard() {
    // Reserve a port, then close the listener: connecting to it must
    // fail fast (loopback refuses), and the orchestrator must say which
    // shard and which endpoint died.
    let vacant = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("reserve port");
        let port = listener.local_addr().expect("addr").port();
        drop(listener);
        format!("tcp:127.0.0.1:{port}")
            .parse::<Endpoint>()
            .expect("endpoint")
    };
    let (live, daemon) = start_tcp_daemon();

    let error = Orchestrator::fleet(vec![live.clone(), vacant.clone()])
        .run(&grid_spec(), &ResultCache::new())
        .expect_err("a dead endpoint must fail the campaign");
    match &error {
        OrchestrateError::Remote {
            shard, endpoint, ..
        } => {
            assert_eq!(*shard, 1, "the vacant endpoint is shard 1");
            assert_eq!(endpoint, &vacant.to_string());
        }
        other => panic!("expected a remote error, got {other}"),
    }
    assert!(error.to_string().contains("fleet shard 1"), "{error}");

    stats_and_shutdown(&live);
    daemon.join().expect("daemon");
}
