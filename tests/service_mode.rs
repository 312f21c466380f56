//! Service-mode integration: a real daemon on a real endpoint, real
//! clients, and the two acceptance properties — an identical second
//! request is served *entirely* from the warm cache (0 computed units),
//! and what crosses the wire is value-identical to a local run.
//!
//! The **whole matrix runs twice** — once over `UnixTransport`, once
//! over `TcpTransport` (loopback, port 0) — because the transport
//! refactor's contract is that every service property (streaming,
//! coalescing counters, warm-start, idle-drain, error handling) holds
//! identically under both address families. Each test is a generic
//! body over [`TestTransport`]; the `transport_matrix!` macro at the
//! bottom instantiates it per transport.

use oranges_campaign::prelude::*;
use oranges_campaign::service::{
    CampaignService, RunOptions, ServiceClient, ServiceConfig, ServiceError, ServiceSummary,
};
#[cfg(unix)]
use oranges_harness::transport::UnixTransport;
use oranges_harness::transport::{Endpoint, TcpTransport, Transport};
use std::path::PathBuf;
use std::thread::JoinHandle;

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("oranges-svc-{}-{name}", std::process::id()))
}

/// How each transport under test mints a private, collision-free
/// endpoint to bind.
trait TestTransport: Transport {
    /// Name used in scratch-file names so the two matrix instances
    /// never collide.
    const TAG: &'static str;
    /// A bindable endpoint for the named test.
    fn endpoint(name: &str) -> Endpoint;
}

#[cfg(unix)]
impl TestTransport for UnixTransport {
    const TAG: &'static str = "unix";
    fn endpoint(name: &str) -> Endpoint {
        Endpoint::Unix(temp_path(&format!("{name}.sock")))
    }
}

impl TestTransport for TcpTransport {
    const TAG: &'static str = "tcp";
    fn endpoint(_name: &str) -> Endpoint {
        // Port 0: the OS assigns a private port at bind; the daemon's
        // resolved endpoint is what clients dial.
        "tcp:127.0.0.1:0".parse().expect("static endpoint")
    }
}

fn small_spec() -> CampaignSpec {
    CampaignSpec::new(
        vec![ExperimentKind::Fig4, ExperimentKind::Contention],
        vec![ChipGeneration::M1, ChipGeneration::M3],
    )
    .with_power_sizes(vec![2048])
    .with_workers(2)
}

/// Bind a daemon on a private endpoint and serve it from a thread,
/// returning the *resolved* endpoint clients should dial.
fn start_daemon<T: TestTransport>(
    name: &str,
    config: impl FnOnce(ServiceConfig) -> ServiceConfig,
) -> (Endpoint, JoinHandle<ServiceSummary>) {
    let listen = T::endpoint(&format!("{}-{name}", T::TAG));
    let service = CampaignService::<T>::bind(config(ServiceConfig::new(listen).with_workers(2)))
        .expect("bind service");
    let endpoint = service.local_endpoint().clone();
    let daemon = std::thread::spawn(move || service.serve().expect("serve"));
    (endpoint, daemon)
}

fn second_identical_request_is_served_entirely_from_cache_over<T: TestTransport>() {
    let (endpoint, daemon) = start_daemon::<T>("repeat", |c| c);
    let mut client = ServiceClient::<T>::connect(&endpoint).expect("connect");

    let first = client.run(&small_spec()).expect("first run");
    assert_eq!(first.units.len(), 4);
    assert_eq!(first.computed_units, 4, "cold start computes everything");
    assert!(first.units.iter().all(|u| !u.from_cache()));

    // The acceptance property: an identical spec re-submitted to the
    // warm daemon computes *zero* units…
    let second = client.run(&small_spec()).expect("second run");
    assert_eq!(second.computed_units, 0, "served entirely from cache");
    assert!(second.units.iter().all(|u| u.from_cache()));

    // …and is value-identical: same fingerprint, same canonical JSON,
    // unit by unit.
    assert_eq!(second.fingerprint, first.fingerprint);
    for (a, b) in first.units.iter().zip(&second.units) {
        assert_eq!(a.key, b.key);
        assert_eq!(a.output.json, b.output.json);
    }

    client.shutdown().expect("shutdown");
    let summary = daemon.join().expect("daemon");
    assert_eq!(summary.runs, 2);
    assert_eq!(summary.units_streamed, 8);
}

fn served_results_are_value_identical_to_a_local_run_over<T: TestTransport>() {
    let (endpoint, daemon) = start_daemon::<T>("identity", |c| c);
    let mut client = ServiceClient::<T>::connect(&endpoint).expect("connect");

    let served = client.run(&small_spec()).expect("served run");
    let local = run_campaign(&small_spec(), &ResultCache::new()).expect("local run");

    assert_eq!(served.units.len(), local.units.len());
    for (wire, direct) in served.units.iter().zip(&local.units) {
        assert_eq!(wire.key, direct.key);
        assert_eq!(
            wire.output.json, direct.output.json,
            "canonical sets JSON survives the wire for {}",
            wire.key
        );
        // Wall-time stamps are timing noise (two separate runs), so
        // normalize them before comparing the typed sets.
        let mut wire_output = wire.output.clone();
        let mut direct_output = (*direct.output).clone();
        wire_output.stamp_wall_time(0.0);
        direct_output.stamp_wall_time(0.0);
        assert_eq!(wire_output.sets, direct_output.sets);
        // Provenance-stamped: every set names its chip and experiment.
        for set in &wire.output.sets {
            assert!(!set.provenance.experiment.is_empty());
        }
    }
    assert_eq!(served.fingerprint, local.fingerprint());

    client.shutdown().expect("shutdown");
    daemon.join().expect("daemon");
}

fn daemon_persists_its_cache_and_warm_starts_the_next_incarnation_over<T: TestTransport>() {
    let cache_file = temp_path(&format!("persist-{}.json", T::TAG));
    std::fs::remove_file(&cache_file).ok();

    let (endpoint, daemon) = start_daemon::<T>("persist-a", |c| c.with_cache_path(&cache_file));
    let mut client = ServiceClient::<T>::connect(&endpoint).expect("connect");
    let first = client.run(&small_spec()).expect("run");
    assert_eq!(first.computed_units, 4);
    client.shutdown().expect("shutdown");
    daemon.join().expect("daemon");
    assert!(cache_file.exists(), "cache saved on shutdown");

    // A brand-new daemon process (modelled by a new service instance)
    // warm-starts from the file and computes nothing.
    let (endpoint, daemon) = start_daemon::<T>("persist-b", |c| c.with_cache_path(&cache_file));
    let mut client = ServiceClient::<T>::connect(&endpoint).expect("connect");
    let warm = client.run(&small_spec()).expect("warm run");
    assert_eq!(warm.computed_units, 0, "warm start across daemon restarts");
    assert_eq!(warm.fingerprint, first.fingerprint);
    client.shutdown().expect("shutdown");
    daemon.join().expect("daemon");
    std::fs::remove_file(&cache_file).ok();
}

fn protocol_errors_are_in_band_and_do_not_kill_the_connection_over<T: TestTransport>() {
    let (endpoint, daemon) = start_daemon::<T>("errors", |c| c);
    let mut client = ServiceClient::<T>::connect(&endpoint).expect("connect");

    // Unknown method.
    match client.raw_request("frobnicate", None) {
        Err(ServiceError::Remote(message)) => assert!(message.contains("frobnicate")),
        other => panic!("expected remote error, got {other:?}"),
    }
    // Run without a body.
    match client.raw_request("run", None) {
        Err(ServiceError::Remote(message)) => assert!(message.contains("no spec body")),
        other => panic!("expected remote error, got {other:?}"),
    }
    // Run with an invalid spec.
    let bad_spec = oranges_harness::json::parse(r#"{"experiments":["fig9"],"chips":["M1"]}"#)
        .expect("test document parses");
    match client.raw_request("run", Some(bad_spec)) {
        Err(ServiceError::Remote(message)) => assert!(message.contains("fig9")),
        other => panic!("expected remote error, got {other:?}"),
    }

    // The connection survived all of that.
    client.ping().expect("still serving");
    let outcome = client.run(&small_spec()).expect("real run still works");
    assert_eq!(outcome.units.len(), 4);

    client.shutdown().expect("shutdown");
    let summary = daemon.join().expect("daemon");
    assert_eq!(summary.runs, 1, "failed requests are not runs");
}

fn hostile_nesting_is_an_in_band_error_and_the_daemon_survives_over<T: TestTransport>() {
    use oranges_harness::envelope::Response;
    use std::io::{BufRead, BufReader, Write};

    let (endpoint, daemon) = start_daemon::<T>("nesting", |c| c);
    // Unbounded recursion on either line would overflow the dispatch
    // thread's stack and abort the whole process.
    for hostile in ["[".repeat(1_000_000), "{\"a\":".repeat(200_000)] {
        let mut stream = T::connect(&endpoint).expect("connect hostile client");
        stream.write_all(hostile.as_bytes()).expect("send line");
        stream.write_all(b"\n").expect("send newline");
        let mut line = String::new();
        BufReader::new(stream)
            .read_line(&mut line)
            .expect("read reply");
        let reply = Response::from_line(&line).expect("reply is an envelope");
        assert_eq!((reply.id, reply.kind.as_str()), (0, "error"), "{line}");
        assert!(
            reply.error.unwrap_or_default().contains("nesting"),
            "{line}"
        );

        let mut client = ServiceClient::<T>::connect(&endpoint).expect("fresh connection");
        client.ping().expect("daemon survived the hostile line");
    }

    let mut client = ServiceClient::<T>::connect(&endpoint).expect("connect");
    client.shutdown().expect("shutdown");
    daemon.join().expect("daemon");
}

fn a_client_vanishing_mid_request_does_not_kill_the_daemon_over<T: TestTransport>() {
    use std::io::Write;

    let (endpoint, daemon) = start_daemon::<T>("vanish", |c| c);

    // A rude client: submit a run, then slam the connection shut before
    // reading a single response byte — the daemon's writes will fail.
    {
        let mut rude = T::connect(&endpoint).expect("connect rude client");
        let body = small_spec().to_json();
        rude.write_all(format!("{{\"id\":1,\"method\":\"run\",\"body\":{body}}}\n").as_bytes())
            .expect("send request");
        // Drop without reading: the response stream hits a dead socket.
    }

    // The daemon must still be alive and warm for the next client.
    let mut client = loop {
        // The rude connection may still be draining; retry briefly.
        match ServiceClient::<T>::connect(&endpoint) {
            Ok(client) => break client,
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
        }
    };
    client.ping().expect("daemon survived the dead connection");
    let outcome = client.run(&small_spec()).expect("daemon still serves");
    assert_eq!(outcome.units.len(), 4, "full report despite the rude peer");

    // With multiplexed connections this run may race the rude client's
    // (whose dead socket now *cancels* whatever of its run nobody else
    // wants — queued units are abandoned, computed ones land in the warm
    // cache) — but the engine's guarantees hold regardless of
    // interleaving: 4 distinct units, each computed exactly once
    // (cancelled-then-resubmitted units compute for the second run),
    // and the counter identity accounts for every submitted unit.
    let stats = client.stats().expect("stats");
    assert_eq!(stats.summary.units_computed, 4, "no duplicate computation");
    assert_eq!(
        stats.summary.units_computed
            + stats.summary.unit_cache_hits
            + stats.summary.coalesced_joins
            + stats.summary.units_failed
            + stats.summary.units_cancelled,
        8,
        "both runs' units fully accounted for (cancellations included)"
    );

    client.shutdown().expect("shutdown");
    let summary = daemon.join().expect("daemon");
    assert_eq!(summary.connections, 2);
}

fn shutdown_drains_even_with_an_idle_connection_open_over<T: TestTransport>() {
    // Regression: a client that connects and then goes quiet must not
    // block shutdown — its handler thread is parked in a blocking read,
    // and the daemon half-closes the read side to wake it.
    let (endpoint, daemon) = start_daemon::<T>("idle-drain", |c| c);

    let mut idle = ServiceClient::<T>::connect(&endpoint).expect("idle client connects");
    idle.ping().expect("idle client is live");
    // `idle` stays open and silent while another client asks to stop.

    let mut closer = ServiceClient::<T>::connect(&endpoint).expect("closer connects");
    closer.shutdown().expect("shutdown accepted");

    let summary = daemon
        .join()
        .expect("daemon returned despite the idle peer");
    assert_eq!(summary.connections, 2);
    assert_eq!(summary.active_connections, 0, "idle connection drained");
    drop(idle);
}

fn sequential_connections_share_the_warm_cache_over<T: TestTransport>() {
    let (endpoint, daemon) = start_daemon::<T>("connections", |c| c);

    let first = {
        let mut client = ServiceClient::<T>::connect(&endpoint).expect("connect 1");
        client.run(&small_spec()).expect("run 1")
        // client drops; connection closes
    };
    assert_eq!(first.computed_units, 4);

    let mut client = ServiceClient::<T>::connect(&endpoint).expect("connect 2");
    let second = client.run(&small_spec()).expect("run 2");
    assert_eq!(second.computed_units, 0, "warmth crosses connections");
    assert_eq!(second.fingerprint, first.fingerprint);

    let stats = client.stats().expect("stats");
    assert_eq!(stats.summary.connections, 2);
    assert_eq!(stats.cache.entries, 4);
    assert_eq!(
        stats.model_digest,
        oranges::paper::model_constants_digest(),
        "stats name the daemon's model digest"
    );

    client.shutdown().expect("shutdown");
    daemon.join().expect("daemon");
}

fn stats_reports_cumulative_engine_and_connection_counters_over<T: TestTransport>() {
    let (endpoint, daemon) = start_daemon::<T>("counters", |c| c);
    let mut client = ServiceClient::<T>::connect(&endpoint).expect("connect");

    let first = client.run(&small_spec()).expect("cold run");
    assert_eq!(first.computed_units, 4);
    assert_eq!(
        first.model_digest,
        oranges::paper::model_constants_digest(),
        "done bodies carry the versioned-cache digest"
    );
    let second = client.run(&small_spec()).expect("warm run");
    assert_eq!(second.computed_units, 0);

    let stats = client.stats().expect("stats");
    assert_eq!(stats.summary.runs, 2);
    assert_eq!(stats.summary.units_streamed, 8);
    assert_eq!(
        stats.summary.units_computed, 4,
        "cold run computed the grid"
    );
    assert_eq!(
        stats.summary.unit_cache_hits, 4,
        "warm run hit for every unit"
    );
    assert_eq!(stats.summary.coalesced_joins, 0, "nothing overlapped");
    assert_eq!(
        stats.summary.active_connections, 1,
        "this connection is the only live one"
    );
    assert_eq!(stats.summary.connections, 1);
    assert_eq!(stats.summary.requests, 3, "run + run + stats");

    client.shutdown().expect("shutdown");
    let summary = daemon.join().expect("daemon");
    assert_eq!(summary.units_computed, 4);
    assert_eq!(summary.unit_cache_hits, 4);
    assert_eq!(summary.active_connections, 0, "final summary: all drained");
}

/// The multiplexing acceptance property: two clients submit overlapping
/// specs *concurrently*; every shared unit is computed exactly once
/// (the engine counters prove it), and both streamed reports are
/// digest-identical to local serial runs of their specs.
fn two_concurrent_clients_compute_shared_units_exactly_once_over<T: TestTransport>() {
    let (endpoint, daemon) = start_daemon::<T>("concurrent", |c| c);

    // Overlap: both specs cover (fig4, contention) x (M1, M3); each
    // also duplicates a kind, so coalescing is exercised even if one
    // client finishes before the other starts.
    let spec_a = CampaignSpec::new(
        vec![
            ExperimentKind::Fig4,
            ExperimentKind::Contention,
            ExperimentKind::Fig4,
        ],
        vec![ChipGeneration::M1, ChipGeneration::M3],
    )
    .with_power_sizes(vec![2048]);
    let spec_b = CampaignSpec::new(
        vec![
            ExperimentKind::Contention,
            ExperimentKind::Fig4,
            ExperimentKind::Contention,
        ],
        vec![ChipGeneration::M1, ChipGeneration::M3],
    )
    .with_power_sizes(vec![2048]);

    let spawn_client = |spec: CampaignSpec, endpoint: Endpoint| {
        std::thread::spawn(move || {
            let mut client = ServiceClient::<T>::connect(&endpoint).expect("connect");
            client.run(&spec).expect("run")
        })
    };
    let handle_a = spawn_client(spec_a.clone(), endpoint.clone());
    let handle_b = spawn_client(spec_b.clone(), endpoint.clone());
    let outcome_a = handle_a.join().expect("client A");
    let outcome_b = handle_b.join().expect("client B");

    // Each client's streamed report is value-identical to a serial
    // single-process run of its spec.
    assert_eq!(
        outcome_a.fingerprint,
        run_campaign_serial(&spec_a)
            .expect("serial A")
            .fingerprint()
    );
    assert_eq!(
        outcome_b.fingerprint,
        run_campaign_serial(&spec_b)
            .expect("serial B")
            .fingerprint()
    );
    // Units come back reassembled in plan order with full provenance.
    assert_eq!(outcome_a.units.len(), 6);
    assert!(outcome_a
        .units
        .iter()
        .enumerate()
        .all(|(i, u)| u.index == i));

    let mut client = ServiceClient::<T>::connect(&endpoint).expect("probe connect");
    let stats = client.stats().expect("stats");
    // 4 distinct units across both specs — computed exactly once each,
    // however the two clients interleaved.
    assert_eq!(stats.summary.units_computed, 4, "no duplicate computation");
    // 12 submitted units total: the other 8 were hits or coalesced
    // joins, and the in-batch duplicates guarantee joins happened.
    assert_eq!(
        stats.summary.units_computed
            + stats.summary.unit_cache_hits
            + stats.summary.coalesced_joins,
        12
    );
    assert!(stats.summary.coalesced_joins > 0, "overlap coalesced");
    let coalesced_reported = outcome_a.coalesced_units + outcome_b.coalesced_units;
    assert_eq!(coalesced_reported as u64, stats.summary.coalesced_joins);

    client.shutdown().expect("shutdown");
    daemon.join().expect("daemon");
}

/// Unit responses stream as units complete: the client's observer sees
/// every unit before the `done` summary is parsed, in the order the
/// engine finished them.
fn unit_responses_stream_before_the_run_completes_over<T: TestTransport>() {
    let (endpoint, daemon) = start_daemon::<T>("streaming", |c| c);
    let mut client = ServiceClient::<T>::connect(&endpoint).expect("connect");

    let mut streamed: Vec<String> = Vec::new();
    let outcome = client
        .run_streamed(&small_spec(), |unit| {
            streamed.push(unit.key.to_string());
            assert!(!unit.output.sets.is_empty(), "full payload streams");
        })
        .expect("streamed run");
    assert_eq!(streamed.len(), 4, "observer saw every unit");
    assert_eq!(outcome.units.len(), 4);
    // The final report is plan-ordered regardless of completion order.
    let mut sorted = streamed.clone();
    sorted.sort();
    let mut plan_order: Vec<String> = outcome.units.iter().map(|u| u.key.to_string()).collect();
    plan_order.sort();
    assert_eq!(sorted, plan_order);

    client.shutdown().expect("shutdown");
    daemon.join().expect("daemon");
}

/// The observability surface: `metrics` returns a parseable exposition
/// carrying per-experiment latency histograms, `health` reports ready,
/// and the exposition agrees with the `stats` counter set.
fn metrics_and_health_expose_one_agreeing_counter_set_over<T: TestTransport>() {
    let (endpoint, daemon) = start_daemon::<T>("metrics", |c| c);
    let mut client = ServiceClient::<T>::connect(&endpoint).expect("connect");

    let health = client.health().expect("health");
    assert!(health.ready, "fresh daemon is ready: {health:?}");
    assert!(!health.draining);
    assert_eq!(health.workers_alive, 2);
    assert_eq!(health.workers_configured, 2);
    assert_eq!(health.cache_entries, 0, "cold cache is healthy");
    assert_eq!(health.endpoint, endpoint.to_string());

    let first = client.run(&small_spec()).expect("cold run");
    assert_eq!(first.computed_units, 4);
    let second = client.run(&small_spec()).expect("warm run");
    assert_eq!(second.computed_units, 0);

    let stats = client.stats().expect("stats");
    let text = client.metrics().expect("metrics");

    // stats and metrics agree on one counter set.
    for (name, value) in [
        ("oranges_runs_total", stats.summary.runs),
        (
            "oranges_units_submitted_total",
            stats.summary.units_submitted,
        ),
        ("oranges_units_failed_total", stats.summary.units_failed),
        ("oranges_events_dropped_total", stats.summary.events_dropped),
        ("oranges_units_streamed_total", stats.summary.units_streamed),
    ] {
        let needle = format!("{name} {value}");
        assert!(
            text.contains(&needle),
            "metrics missing {needle:?}:\n{text}"
        );
    }
    assert!(text.contains(&format!(
        "oranges_units_total{{source=\"computed\"}} {}",
        stats.summary.units_computed
    )));
    assert!(text.contains(&format!(
        "oranges_units_total{{source=\"cache\"}} {}",
        stats.summary.unit_cache_hits
    )));
    assert_eq!(stats.summary.units_submitted, 8);
    assert_eq!(stats.summary.units_failed, 0);

    // Per-experiment latency histograms: both experiments of the spec,
    // cumulative buckets ending in a +Inf count of the computed units.
    for experiment in ["fig4", "contention"] {
        assert!(
            text.contains(&format!(
                "oranges_unit_latency_seconds_bucket{{experiment=\"{experiment}\",le=\"+Inf\"}} 2"
            )),
            "missing {experiment} histogram:\n{text}"
        );
        assert!(text.contains(&format!(
            "oranges_unit_latency_seconds_count{{experiment=\"{experiment}\"}} 2"
        )));
    }
    assert!(text.contains("# TYPE oranges_unit_latency_seconds histogram"));

    // Gauges at rest: nothing queued, nothing in flight, all workers up.
    assert_eq!(stats.gauges.queue_depth, 0);
    assert_eq!(stats.gauges.units_inflight, 0);
    assert_eq!(stats.gauges.workers_alive, 2);
    assert!(text.contains("oranges_queue_depth 0"));
    assert!(text.contains("oranges_workers_alive 2"));

    client.shutdown().expect("shutdown");
    daemon.join().expect("daemon");
}

/// The `subscribe` acceptance property: a watching client sees the
/// complete lifecycle of a concurrent two-client run — every distinct
/// unit gets a started + completed pair, coalesced/cached submissions
/// emit exactly one compute per unit, and the shutdown drain ends the
/// stream cleanly.
fn a_subscriber_observes_the_complete_lifecycle_of_a_concurrent_run_over<T: TestTransport>() {
    let (endpoint, daemon) = start_daemon::<T>("subscribe", |c| c);

    // Watcher first, so no event can outrun it.
    let watcher_endpoint = endpoint.clone();
    let watcher = std::thread::spawn(move || {
        let client = ServiceClient::<T>::connect(&watcher_endpoint).expect("watcher connect");
        let mut events = Vec::new();
        client
            .subscribe(|event| {
                events.push(event.clone());
                true
            })
            .expect("subscription ends cleanly on drain");
        events
    });
    let mut probe = ServiceClient::<T>::connect(&endpoint).expect("probe connect");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while probe.stats().expect("stats").gauges.event_subscribers == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "subscriber never registered"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    // The same overlapping pair the concurrency test uses: 12 units
    // submitted, 4 distinct, in-batch duplicates guarantee coalescing.
    let spec_a = CampaignSpec::new(
        vec![
            ExperimentKind::Fig4,
            ExperimentKind::Contention,
            ExperimentKind::Fig4,
        ],
        vec![ChipGeneration::M1, ChipGeneration::M3],
    )
    .with_power_sizes(vec![2048]);
    let spec_b = CampaignSpec::new(
        vec![
            ExperimentKind::Contention,
            ExperimentKind::Fig4,
            ExperimentKind::Contention,
        ],
        vec![ChipGeneration::M1, ChipGeneration::M3],
    )
    .with_power_sizes(vec![2048]);
    let spawn_client = |spec: CampaignSpec, endpoint: Endpoint| {
        std::thread::spawn(move || {
            let mut client = ServiceClient::<T>::connect(&endpoint).expect("connect");
            client.run(&spec).expect("run")
        })
    };
    let handle_a = spawn_client(spec_a, endpoint.clone());
    let handle_b = spawn_client(spec_b, endpoint.clone());
    let outcome_a = handle_a.join().expect("client A");
    let outcome_b = handle_b.join().expect("client B");

    let stats = probe.stats().expect("stats");
    assert_eq!(stats.summary.units_computed, 4);
    assert_eq!(
        stats.summary.events_dropped, 0,
        "the watcher kept up; completeness below is meaningful"
    );
    probe.shutdown().expect("shutdown");
    daemon.join().expect("daemon");

    // The drain ended the watcher's stream; judge what it saw.
    let events = watcher.join().expect("watcher thread");
    use oranges_harness::obs::EventKind;
    let of_kind =
        |kind: EventKind| -> Vec<_> { events.iter().filter(|e| e.kind == kind).collect() };
    let started = of_kind(EventKind::UnitStarted);
    let completed = of_kind(EventKind::UnitCompleted);
    assert_eq!(started.len(), 4, "one compute per distinct unit");
    assert_eq!(completed.len(), 4, "every started unit completed");
    assert!(of_kind(EventKind::UnitFailed).is_empty());
    // Every distinct unit key has a started + completed pair, and the
    // keys match what the clients were served.
    let keys = |events: &[&oranges_harness::obs::CampaignEvent]| -> Vec<String> {
        let mut keys: Vec<String> = events
            .iter()
            .map(|e| e.unit.clone().expect("unit events carry their key"))
            .collect();
        keys.sort();
        keys.dedup();
        keys
    };
    let started_keys = keys(&started);
    let completed_keys = keys(&completed);
    assert_eq!(started_keys, completed_keys);
    assert_eq!(started_keys.len(), 4, "4 distinct units, once each");
    let mut served_keys: Vec<String> = outcome_a
        .units
        .iter()
        .chain(&outcome_b.units)
        .map(|u| u.key.to_string())
        .collect();
    served_keys.sort();
    served_keys.dedup();
    assert_eq!(started_keys, served_keys);
    // The other 8 submissions were answered without computing, each
    // announced as a cache hit or coalesced join.
    let cheap = of_kind(EventKind::CacheHit).len() + of_kind(EventKind::Coalesced).len();
    assert_eq!(cheap, 8, "12 submitted - 4 computed");
    // Completions carry wall time.
    assert!(completed.iter().all(|e| e.wall_s.is_some()));
}

/// Admission over the wire: an oversized cold run against a capped
/// daemon is rejected with a *typed* `busy` (not an opaque error), a
/// fitting high-priority run on the same daemon is then admitted and
/// served, a malformed `priority` answers in-band, and cancelling a
/// token that names no active run acks `active: false` instead of
/// erroring.
fn busy_rejections_and_priorities_are_typed_over<T: TestTransport>() {
    let (endpoint, daemon) = start_daemon::<T>("busy", |c| c.with_workers(1).with_queue_cap(2));
    let mut client = ServiceClient::<T>::connect(&endpoint).expect("connect");

    // 4 fresh units against a cap of 2 on an idle daemon: deterministic
    // all-or-nothing rejection.
    match client.run(&small_spec()) {
        Err(ServiceError::Busy { queued, cap }) => {
            assert_eq!(queued, 0, "the queue was empty; the spec was just too big");
            assert_eq!(cap, 2);
        }
        other => panic!("expected a typed busy rejection, got {other:?}"),
    }

    // The connection survives the rejection, and a fitting spec — at
    // explicit high priority, with a deadline it will easily beat — is
    // admitted and fully served.
    let fitting = CampaignSpec::new(vec![ExperimentKind::Fig4], vec![ChipGeneration::M1])
        .with_power_sizes(vec![2048]);
    let options = RunOptions::priority(Priority::High).with_deadline_ms(30_000);
    let outcome = client.run_with(&fitting, &options).expect("admitted run");
    assert_eq!(outcome.units.len(), 1);

    // A malformed priority token answers in-band; the connection stays.
    let mut body = oranges_harness::json::parse(&fitting.to_json()).expect("spec parses");
    if let oranges_harness::json::JsonValue::Object(fields) = &mut body {
        fields.push((
            "priority".to_string(),
            oranges_harness::json::JsonValue::String("urgent".to_string()),
        ));
    }
    match client.raw_request("run", Some(body)) {
        Err(ServiceError::Remote(message)) => {
            assert!(message.contains("unknown priority"), "{message}");
        }
        other => panic!("expected an in-band error, got {other:?}"),
    }

    // Cancelling a token nobody registered is a no-op ack, not an error
    // (the race against normal completion is inherent to cancellation).
    let ack = client.cancel("no-such-run").expect("cancel answers");
    assert!(!ack.active);
    assert_eq!(ack.waiters_cancelled, 0);
    assert_eq!(ack.jobs_abandoned, 0);

    let stats = client.stats().expect("stats");
    assert_eq!(stats.summary.submissions_rejected, 1);
    assert_eq!(stats.summary.units_computed, 1, "only the admitted run ran");

    client.shutdown().expect("shutdown");
    daemon.join().expect("daemon");
}

/// The cancellation contract over the wire: a batch run registered
/// under a `run_token` is cancelled from another connection and gets a
/// *typed* `cancelled` terminal; a sibling whose units coalesced onto
/// the cancelled run's in-flight computations still receives every one
/// of its units.
fn cancelling_a_run_spares_a_coalesced_sibling_over<T: TestTransport>() {
    // Cancellation inherently races completion; the choreography below
    // makes the cancel win overwhelmingly (16-unit victim, 1 worker,
    // the sibling's synchronous run buys the window) — but it *is* a
    // race, so an attempt where the victim finished first is retried.
    for attempt in 0..3 {
        let (endpoint, daemon) =
            start_daemon::<T>(&format!("cancel{attempt}"), |c| c.with_workers(1));

        // The victim: the 16-unit smoke grid at batch priority, under a
        // cancellation token. Signal the moment its first unit streams.
        let (first_unit_tx, first_unit_rx) = std::sync::mpsc::channel::<()>();
        let victim_endpoint = endpoint.clone();
        let victim = std::thread::spawn(move || {
            let mut client = ServiceClient::<T>::connect(&victim_endpoint).expect("victim connect");
            let options = RunOptions::priority(Priority::Batch).with_token("victim-run");
            let mut signalled = false;
            client.run_streamed_with(&CampaignSpec::smoke(), &options, |_| {
                if !signalled {
                    signalled = true;
                    let _ = first_unit_tx.send(());
                }
            })
        });
        first_unit_rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("victim's first unit streamed");

        // The sibling: a 4-unit subset of the victim's grid (same key
        // overrides), run synchronously at default priority — its units
        // ride the victim's in-flight computations (coalesce or hit),
        // and its completion guarantees the victim is still mid-run
        // with a deep batch backlog when the cancel lands.
        let sibling_spec =
            CampaignSpec::new(vec![ExperimentKind::Fig4], ChipGeneration::ALL.to_vec())
                .with_gemm_sizes(vec![256, 1024])
                .with_power_sizes(vec![2048, 4096])
                .with_verify_max_flops(0);
        let mut sibling = ServiceClient::<T>::connect(&endpoint).expect("sibling connect");
        let sibling_outcome = sibling.run(&sibling_spec).expect("sibling run");

        // Cancel the victim by token, from the sibling's connection.
        let ack = sibling.cancel("victim-run").expect("cancel answers");
        let victim_result = victim.join().expect("victim thread");
        if !ack.active || victim_result.is_ok() {
            // The victim finished before the cancel landed — legal, rare.
            sibling.shutdown().expect("shutdown");
            daemon.join().expect("daemon");
            continue;
        }
        assert!(
            ack.jobs_abandoned > 0,
            "the victim's un-started batch backlog was abandoned"
        );
        match victim_result {
            Err(ServiceError::Cancelled(unit)) => {
                assert!(
                    !unit.is_empty(),
                    "the terminal names the first cancelled unit"
                )
            }
            other => panic!("expected a typed cancelled terminal, got {other:?}"),
        }

        // The sibling was untouched: all 4 of its units arrived, each
        // served off the victim's work (coalesced or cached) — and the
        // engine's books balance with cancellations in the story.
        assert_eq!(sibling_outcome.units.len(), 4);
        // The worker may still be finishing the unit it held when the
        // cancel landed; the counter identity is a quiescence property.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let stats = loop {
            let stats = sibling.stats().expect("stats");
            if stats.gauges.queue_depth == 0 && stats.gauges.units_inflight == 0 {
                break stats;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "engine never quiesced after the cancel"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        };
        assert_eq!(
            stats.summary.unit_cache_hits + stats.summary.coalesced_joins,
            4,
            "every sibling unit rode the victim's computations"
        );
        assert!(stats.summary.units_cancelled > 0);
        assert_eq!(
            stats.summary.units_submitted,
            stats.summary.units_computed
                + stats.summary.unit_cache_hits
                + stats.summary.coalesced_joins
                + stats.summary.units_failed
                + stats.summary.units_cancelled,
            "counter identity over the wire"
        );

        sibling.shutdown().expect("shutdown");
        daemon.join().expect("daemon");
        return;
    }
    panic!("the cancel never beat the 16-unit victim across 3 attempts");
}

/// Soft fd limit for this process (Linux `/proc/self/limits`), if
/// readable — the soak sizes its connection count to it.
fn fd_soft_limit() -> Option<usize> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
    line.split_whitespace().nth(3)?.parse().ok()
}

/// One idle subscriber in the soak: a raw socket, the reassembly
/// buffer for its event stream, and what it has seen so far.
struct SoakSub<S> {
    stream: S,
    frame: oranges_harness::reactor::FrameBuffer,
    acked: bool,
    events: usize,
    eof: bool,
}

/// One nonblocking read pass over every subscriber socket, reassembling
/// and checking each framed response; returns how many streams have
/// reached EOF. Any socket error other than `WouldBlock` fails the test
/// — the drain contract is a *clean* EOF, not a reset.
fn soak_drain_pass<S: oranges_harness::transport::Stream>(subs: &mut [SoakSub<S>]) -> usize {
    use oranges_harness::envelope::Response;

    let mut eofs = 0;
    let mut chunk = [0u8; 8192];
    for sub in subs.iter_mut() {
        if sub.eof {
            eofs += 1;
            continue;
        }
        loop {
            match sub.stream.read(&mut chunk) {
                Ok(0) => {
                    sub.eof = true;
                    eofs += 1;
                    break;
                }
                Ok(n) => {
                    sub.frame.extend(&chunk[..n]);
                    while let Some(line) = sub
                        .frame
                        .next_line()
                        .expect("subscriber stream is valid UTF-8")
                    {
                        let response = Response::from_line(&line).expect("stream frames envelopes");
                        if !sub.acked {
                            assert_eq!(response.kind, "subscribed", "first frame is the ack");
                            sub.acked = true;
                        } else {
                            assert_eq!(response.kind, "event", "subscribe streams only events");
                            sub.events += 1;
                        }
                    }
                }
                Err(error) if error.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(error) => panic!("subscriber socket failed (not a clean EOF): {error}"),
            }
        }
    }
    eofs
}

/// The connection-scaling soak (ignored by default; CI runs it at
/// `--release`): one daemon holds ~1000 concurrent idle subscriptions
/// as reactor table entries — not parked threads — while 8 active
/// clients run overlapping campaigns through it. Exactly-once unit
/// accounting holds across all 8 runs, no subscriber event is dropped
/// (the load stays below the documented per-subscriber buffer bound),
/// and the shutdown drain delivers a clean EOF to every stream.
fn a_thousand_idle_subscribers_ride_along_eight_active_clients_over<T: TestTransport>() {
    use oranges_harness::transport::Stream as _;
    use std::io::Write;

    // Size to the fd budget: each subscriber costs one fd on the test
    // side and one in the daemon (same process), plus slack for the
    // daemon's own plumbing.
    let target: usize = 1000;
    let subscribers = match fd_soft_limit() {
        Some(limit) if limit < 2 * target + 128 => (limit.saturating_sub(128)) / 2,
        _ => target,
    };
    assert!(
        subscribers >= 64,
        "fd limit too low for a meaningful soak; raise `ulimit -n`"
    );

    let (endpoint, daemon) = start_daemon::<T>("soak", |c| c);
    let mut probe = ServiceClient::<T>::connect(&endpoint).expect("probe connect");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(180);

    // Open every subscription, draining as we go so no subscriber is
    // ever owed more than its buffer bound while the fleet builds up.
    let mut subs: Vec<SoakSub<T::Stream>> = Vec::with_capacity(subscribers);
    for i in 0..subscribers {
        let mut stream = loop {
            // The accept backlog can overflow while the fleet floods
            // in; retry until the daemon catches up.
            match T::connect(&endpoint) {
                Ok(stream) => break stream,
                Err(error) => {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "connect {i} kept failing: {error}"
                    );
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
            }
        };
        stream
            .write_all(format!("{{\"id\":{i},\"method\":\"subscribe\"}}\n").as_bytes())
            .expect("send subscribe");
        stream
            .set_nonblocking(true)
            .expect("subscriber goes nonblocking");
        subs.push(SoakSub {
            stream,
            frame: oranges_harness::reactor::FrameBuffer::new(),
            acked: false,
            events: 0,
            eof: false,
        });
        if i % 64 == 0 {
            soak_drain_pass(&mut subs);
        }
    }
    while !subs.iter().all(|s| s.acked) {
        assert!(
            std::time::Instant::now() < deadline,
            "not every subscription was acknowledged"
        );
        soak_drain_pass(&mut subs);
        std::thread::sleep(std::time::Duration::from_millis(1));
    }

    // The whole fleet is parked in the daemon: every subscriber (plus
    // this probe) is a reactor table entry, and all of them are live
    // event subscribers.
    let stats = probe.stats().expect("stats under load");
    assert_eq!(stats.gauges.event_subscribers as usize, subscribers);
    assert_eq!(
        stats.gauges.reactor_registered_connections as usize,
        subscribers + 1,
        "every idle subscription is a reactor table entry"
    );
    assert_eq!(stats.summary.active_connections as usize, subscribers + 1);
    assert_eq!(stats.summary.events_dropped, 0);

    // 8 active clients, all racing the same 4-unit spec: the engine
    // must compute each distinct unit exactly once and serve the rest
    // from coalescing joins or the warm cache.
    let runners: Vec<_> = (0..8)
        .map(|_| {
            let endpoint = endpoint.clone();
            std::thread::spawn(move || {
                let mut client = ServiceClient::<T>::connect(&endpoint).expect("runner connect");
                client.run(&small_spec()).expect("runner run")
            })
        })
        .collect();
    while runners.iter().any(|r| !r.is_finished()) {
        assert!(std::time::Instant::now() < deadline, "runners hung");
        soak_drain_pass(&mut subs);
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let outcomes: Vec<_> = runners
        .into_iter()
        .map(|r| r.join().expect("runner thread"))
        .collect();
    let fingerprint = &outcomes[0].fingerprint;
    for outcome in &outcomes {
        assert_eq!(outcome.units.len(), 4);
        assert_eq!(&outcome.fingerprint, fingerprint, "identical digests");
    }

    let stats = probe.stats().expect("stats after runs");
    assert_eq!(
        stats.summary.units_computed, 4,
        "4 distinct units, each computed exactly once across 8 clients"
    );
    assert_eq!(
        stats.summary.units_computed
            + stats.summary.unit_cache_hits
            + stats.summary.coalesced_joins
            + stats.summary.units_failed
            + stats.summary.units_cancelled,
        32,
        "all 8 x 4 submitted units accounted for"
    );
    assert_eq!(stats.summary.units_submitted, 32);
    assert_eq!(
        stats.summary.events_dropped, 0,
        "no subscriber fell behind its buffer bound"
    );

    // Drain: every one of the streams must end in a clean EOF.
    probe.shutdown().expect("shutdown");
    while soak_drain_pass(&mut subs) < subscribers {
        assert!(
            std::time::Instant::now() < deadline,
            "drain left subscriber streams open"
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    for sub in &subs {
        assert!(sub.eof, "every stream saw EOF");
        assert_eq!(sub.frame.buffered(), 0, "no torn frame at EOF");
    }
    assert!(
        subs.iter().all(|s| s.events > 0),
        "every subscriber saw lifecycle traffic"
    );

    let summary = daemon.join().expect("daemon");
    assert_eq!(summary.events_dropped, 0);
    assert_eq!(summary.active_connections, 0, "all drained");
    assert_eq!(summary.connections as usize, subscribers + 9);
}

/// Instantiate the whole matrix for one transport.
macro_rules! transport_matrix {
    ($module:ident, $transport:ty) => {
        mod $module {
            use super::*;

            #[test]
            fn second_identical_request_is_served_entirely_from_cache() {
                second_identical_request_is_served_entirely_from_cache_over::<$transport>();
            }

            #[test]
            fn served_results_are_value_identical_to_a_local_run() {
                served_results_are_value_identical_to_a_local_run_over::<$transport>();
            }

            #[test]
            fn daemon_persists_its_cache_and_warm_starts_the_next_incarnation() {
                daemon_persists_its_cache_and_warm_starts_the_next_incarnation_over::<$transport>();
            }

            #[test]
            fn protocol_errors_are_in_band_and_do_not_kill_the_connection() {
                protocol_errors_are_in_band_and_do_not_kill_the_connection_over::<$transport>();
            }

            #[test]
            fn hostile_nesting_is_an_in_band_error_and_the_daemon_survives() {
                hostile_nesting_is_an_in_band_error_and_the_daemon_survives_over::<$transport>();
            }

            #[test]
            fn a_client_vanishing_mid_request_does_not_kill_the_daemon() {
                a_client_vanishing_mid_request_does_not_kill_the_daemon_over::<$transport>();
            }

            #[test]
            fn shutdown_drains_even_with_an_idle_connection_open() {
                shutdown_drains_even_with_an_idle_connection_open_over::<$transport>();
            }

            #[test]
            fn sequential_connections_share_the_warm_cache() {
                sequential_connections_share_the_warm_cache_over::<$transport>();
            }

            #[test]
            fn stats_reports_cumulative_engine_and_connection_counters() {
                stats_reports_cumulative_engine_and_connection_counters_over::<$transport>();
            }

            #[test]
            fn two_concurrent_clients_compute_shared_units_exactly_once() {
                two_concurrent_clients_compute_shared_units_exactly_once_over::<$transport>();
            }

            #[test]
            fn unit_responses_stream_before_the_run_completes() {
                unit_responses_stream_before_the_run_completes_over::<$transport>();
            }

            #[test]
            fn metrics_and_health_expose_one_agreeing_counter_set() {
                metrics_and_health_expose_one_agreeing_counter_set_over::<$transport>();
            }

            #[test]
            fn a_subscriber_observes_the_complete_lifecycle_of_a_concurrent_run() {
                a_subscriber_observes_the_complete_lifecycle_of_a_concurrent_run_over::<$transport>(
                );
            }

            #[test]
            fn busy_rejections_and_priorities_are_typed() {
                busy_rejections_and_priorities_are_typed_over::<$transport>();
            }

            #[test]
            fn cancelling_a_run_spares_a_coalesced_sibling() {
                cancelling_a_run_spares_a_coalesced_sibling_over::<$transport>();
            }

            /// Connection-scaling soak: expensive, so ignored by
            /// default; CI runs it at `--release` with `-- --ignored`.
            #[test]
            #[ignore = "many-clients soak; run with --release -- --ignored"]
            fn a_thousand_idle_subscribers_ride_along_eight_active_clients() {
                a_thousand_idle_subscribers_ride_along_eight_active_clients_over::<$transport>();
            }
        }
    };
}

#[cfg(unix)]
transport_matrix!(unix_transport, UnixTransport);
transport_matrix!(tcp_transport, TcpTransport);
