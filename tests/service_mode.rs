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
    /// Close the write half of a client stream: the peer reads EOF.
    fn shutdown_write(stream: &Self::Stream);
}

#[cfg(unix)]
impl TestTransport for UnixTransport {
    const TAG: &'static str = "unix";
    fn endpoint(name: &str) -> Endpoint {
        Endpoint::Unix(temp_path(&format!("{name}.sock")))
    }
    fn shutdown_write(stream: &Self::Stream) {
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
    }
}

impl TestTransport for TcpTransport {
    const TAG: &'static str = "tcp";
    fn endpoint(_name: &str) -> Endpoint {
        // Port 0: the OS assigns a private port at bind; the daemon's
        // resolved endpoint is what clients dial.
        "tcp:127.0.0.1:0".parse().expect("static endpoint")
    }
    fn shutdown_write(stream: &Self::Stream) {
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
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
        assert_eq!(a.output.json(), b.output.json());
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
            wire.output.json(),
            direct.output.json(),
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

/// A cache file torn by a crash mid-write must not keep the daemon
/// down: bind moves it aside byte for byte, the daemon starts cold, and
/// its shutdown writes a valid cache back at the original path.
fn a_torn_cache_file_is_quarantined_and_the_daemon_starts_cold_over<T: TestTransport>() {
    let dir = temp_path(&format!("torn-{}", T::TAG));
    let cache_file = dir.join("cache.json");
    let warm = ResultCache::new();
    run_campaign(&small_spec(), &warm).expect("local run");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    warm.save(&cache_file).expect("save");
    let full = std::fs::read_to_string(&cache_file).expect("saved text");
    // A torn write, and a value forged to decode to +inf (which would
    // re-emit as `null` and fail the daemon's next save).
    let float = full.find("{\"Float\":").expect("a Float metric") + "{\"Float\":".len();
    let end = float + full[float..].find('}').expect("the value's close");
    let forged = format!("{}1e999{}", &full[..float], &full[end..]);
    for damaged in [&full[..full.len() / 2], forged.as_str()] {
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("scratch dir");
        std::fs::write(&cache_file, damaged).expect("damage the file");

        let (endpoint, daemon) = start_daemon::<T>("torn", |c| c.with_cache_path(&cache_file));
        let quarantined: Vec<PathBuf> = std::fs::read_dir(&dir)
            .expect("list dir")
            .map(|entry| entry.expect("dir entry").path())
            .filter(|path| {
                let name = path.file_name().unwrap_or_default().to_string_lossy();
                name.starts_with("cache.json.corrupt-")
            })
            .collect();
        assert_eq!(quarantined.len(), 1, "the damaged file was moved aside");
        assert_eq!(
            std::fs::read_to_string(&quarantined[0]).expect("quarantined bytes"),
            damaged,
            "kept byte for byte"
        );

        let mut client = ServiceClient::<T>::connect(&endpoint).expect("connect");
        let cold = client.run(&small_spec()).expect("cold run");
        assert_eq!(cold.computed_units, 4, "the daemon started cold");
        client.shutdown().expect("shutdown");
        daemon.join().expect("daemon");

        let saved = ResultCache::load(&cache_file).expect("shutdown wrote a valid cache");
        assert_eq!(saved.stats().entries, 4);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A cache file whose entry carries an infinite wall stamp (`1e999`, as
/// a hand edit or another writer might leave it) loads, and the daemon
/// serves that entry with a `null` stamp, which the client ignores like
/// any stamp that is not a number. The run ends in `done` with the
/// fingerprint of the unforged file.
fn an_infinite_wall_stamp_in_the_cache_file_is_served_as_null_over<T: TestTransport>() {
    let dir = temp_path(&format!("inf-wall-{}", T::TAG));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let (clean_file, forged_file) = (dir.join("clean.json"), dir.join("forged.json"));
    let warm = ResultCache::new();
    run_campaign(&small_spec(), &warm).expect("local run");
    warm.save(&clean_file).expect("save");
    let clean = std::fs::read_to_string(&clean_file).expect("saved text");
    let stamp = clean.find("\"wall_time_s\":").expect("a wall stamp") + "\"wall_time_s\":".len();
    let end = stamp + clean[stamp..].find(',').expect("the stamp's end");
    let forged = format!("{}1e999{}", &clean[..stamp], &clean[end..]);
    std::fs::write(&forged_file, &forged).expect("write the forged file");
    let loaded = ResultCache::load(&forged_file).expect("the forged file loads");
    assert_eq!(loaded.stats().entries, 4);

    let mut outcomes = Vec::new();
    for (name, file) in [
        ("inf-wall-clean", &clean_file),
        ("inf-wall-forged", &forged_file),
    ] {
        let (endpoint, daemon) = start_daemon::<T>(name, |c| c.with_cache_path(file));
        let mut client = ServiceClient::<T>::connect(&endpoint).expect("connect");
        outcomes.push(
            client
                .run(&small_spec())
                .expect("run over the loaded cache"),
        );
        client.shutdown().expect("shutdown");
        daemon.join().expect("daemon");
    }
    let (clean, forged) = (&outcomes[0], &outcomes[1]);
    assert_eq!((clean.computed_units, forged.computed_units), (0, 0));
    assert_eq!(forged.fingerprint, clean.fingerprint);
    let stamps = |outcome: &oranges_campaign::service::RunOutcome| {
        outcome
            .units
            .iter()
            .filter(|unit| unit.output.wall_time_s().is_some())
            .count()
    };
    assert_eq!(stamps(clean), 4);
    assert_eq!(stamps(forged), 3, "the forged stamp arrived as null");
    std::fs::remove_dir_all(&dir).ok();
}

/// Run tokens written the way Python's `json.dumps` writes characters
/// past U+FFFF, as escaped surrogate pairs, decode to the characters
/// themselves: a run under one completes, and a `cancel` naming either
/// one echoes that token, not a replacement character shared by both.
fn escaped_astral_run_tokens_stay_distinct_over<T: TestTransport>() {
    use oranges_harness::envelope::Response;
    use oranges_harness::json::JsonValue;
    use oranges_harness::transport::Stream;
    use std::io::{BufRead, BufReader, Write};

    let (endpoint, daemon) = start_daemon::<T>("astral", |c| c);
    let stream = T::connect(&endpoint).expect("connect raw client");
    let mut writer = stream.try_clone().expect("clone the connection");
    let mut reader = BufReader::new(stream);
    let mut next_response = || {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read a reply");
        Response::from_line(&line).expect("replies are envelopes")
    };
    writer
        .write_all(
            b"{\"id\":1,\"method\":\"run\",\"body\":{\"experiments\":[\"fig4\"],\
              \"chips\":[\"M1\"],\"power_sizes\":[2048],\"run_token\":\"\\ud83d\\ude00\"}}\n",
        )
        .expect("send the run");
    assert_eq!(next_response().kind, "unit");
    assert_eq!(next_response().kind, "done");
    for (id, escaped, token) in [
        (2, "\\ud83d\\ude01", "\u{1f601}"),
        (3, "\\ud83d\\ude00", "\u{1f600}"),
    ] {
        writer
            .write_all(
                format!(
                    "{{\"id\":{id},\"method\":\"cancel\",\"body\":{{\"token\":\"{escaped}\"}}}}\n"
                )
                .as_bytes(),
            )
            .expect("send the cancel");
        let ack = next_response();
        assert_eq!(ack.kind, "cancelled");
        let body = ack.body.expect("a cancel ack body");
        assert_eq!(body.get("token").and_then(JsonValue::as_str), Some(token));
        assert_eq!(body.get("active"), Some(&JsonValue::Bool(false)));
    }

    let mut client = ServiceClient::<T>::connect(&endpoint).expect("connect");
    client.shutdown().expect("shutdown");
    daemon.join().expect("daemon");
}

/// A `run_token` is registered exactly as long as its run (PROTOCOL
/// § 4.1): a run pipelined behind a finished run in the same write may
/// reuse its token, and a `cancel` pipelined after both finds nothing
/// active.
fn a_pipelined_run_may_reuse_a_finished_run_token_over<T: TestTransport>() {
    use oranges_harness::envelope::Response;
    use oranges_harness::json::JsonValue;
    use oranges_harness::transport::Stream;
    use std::io::{BufRead, BufReader, Write};

    let (endpoint, daemon) = start_daemon::<T>("token-reuse", |c| c);
    let stream = T::connect(&endpoint).expect("connect raw client");
    let mut writer = stream.try_clone().expect("clone the connection");
    let mut reader = BufReader::new(stream);
    let run = |id: u64| {
        format!(
            "{{\"id\":{id},\"method\":\"run\",\"body\":{{\"experiments\":[\"fig4\"],\
             \"chips\":[\"M1\"],\"power_sizes\":[2048],\"run_token\":\"t\"}}}}\n"
        )
    };
    let pipeline = [
        run(1),
        run(2),
        "{\"id\":3,\"method\":\"cancel\",\"body\":{\"token\":\"t\"}}\n".to_string(),
        "{\"id\":4,\"method\":\"shutdown\"}\n".to_string(),
    ]
    .concat();
    writer
        .write_all(pipeline.as_bytes())
        .expect("send the pipeline");
    let mut responses = Vec::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).expect("read a reply") == 0 {
            break;
        }
        responses.push(Response::from_line(&line).expect("replies are envelopes"));
    }
    let kinds: Vec<(u64, &str)> = responses.iter().map(|r| (r.id, r.kind.as_str())).collect();
    assert_eq!(
        kinds,
        [
            (1, "unit"),
            (1, "done"),
            (2, "unit"),
            (2, "done"),
            (3, "cancelled"),
            (4, "bye")
        ],
        "{responses:?}"
    );
    let ack = responses[4].body.as_ref().expect("a cancel ack body");
    assert_eq!(ack.get("token").and_then(JsonValue::as_str), Some("t"));
    assert_eq!(ack.get("active"), Some(&JsonValue::Bool(false)));
    daemon.join().expect("daemon");
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

fn an_over_long_line_gets_one_error_then_the_connection_closes_over<T: TestTransport>() {
    use oranges_harness::envelope::Response;
    use oranges_harness::reactor::MAX_LINE_BYTES;
    use std::io::{BufRead, BufReader, Write};

    let (endpoint, daemon) = start_daemon::<T>("line-cap", |c| c);
    // One byte over the cap and no newline: uncapped, the daemon would
    // buffer it for as long as the peer kept sending.
    let mut stream = T::connect(&endpoint).expect("connect hostile client");
    stream
        .write_all(&vec![b'x'; MAX_LINE_BYTES + 1])
        .expect("send the line");
    T::shutdown_write(&stream);
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read reply");
    let reply = Response::from_line(&line).expect("reply is an envelope");
    assert_eq!((reply.id, reply.kind.as_str()), (0, "error"), "{line}");
    assert!(
        reply
            .error
            .unwrap_or_default()
            .contains(&MAX_LINE_BYTES.to_string()),
        "the error names the limit: {line}"
    );
    line.clear();
    assert_eq!(
        reader.read_line(&mut line).expect("read EOF"),
        0,
        "one error, then the daemon closes: {line}"
    );

    let mut client = ServiceClient::<T>::connect(&endpoint).expect("fresh connection");
    client.ping().expect("daemon survived the over-long line");
    client.shutdown().expect("shutdown");
    daemon.join().expect("daemon");
}

/// The client lines of the recorded session in `docs/PROTOCOL.md` § 10,
/// without `shutdown`.
const RECORDED_REQUESTS: [&str; 4] = [
    r#"{"id":1,"method":"ping"}"#,
    r#"{"id":2,"method":"run","body":{"experiments":["fig4"],"chips":["M2"],"power_sizes":[2048]}}"#,
    r#"{"id":3,"method":"stats"}"#,
    r#"{"id":4,"method":"nonesuch"}"#,
];

/// Seeded truncations and single-byte substitutions of the recorded
/// lines. A substitute is any ASCII byte but `\n` (which would split the
/// line in two) and the digits (which could turn the recorded `fig4` run
/// into a far costlier valid one, such as `fig2`).
fn hostile_variants(seed: u64) -> Vec<String> {
    let mut rng = proptest::test_runner::TestRng::new(seed);
    let substitutes: Vec<u8> = (0u8..0x80)
        .filter(|b| *b != b'\n' && !b.is_ascii_digit())
        .collect();
    let mut lines = Vec::new();
    for recorded in RECORDED_REQUESTS {
        let len = recorded.len() as u64;
        for _ in 0..6 {
            lines.push(recorded[..1 + rng.below(len - 1) as usize].to_string());
        }
        for _ in 0..14 {
            let mut bytes = recorded.as_bytes().to_vec();
            let at = rng.below(len) as usize;
            bytes[at] = substitutes[rng.below(substitutes.len() as u64) as usize];
            lines.push(String::from_utf8(bytes).expect("ASCII stays UTF-8"));
        }
    }
    lines
}

fn hostile_request_lines_each_get_one_terminal_response_over<T: TestTransport>() {
    use oranges_harness::envelope::Response;
    use oranges_harness::transport::Stream;
    use std::io::{BufRead, BufReader, Write};

    let (endpoint, daemon) = start_daemon::<T>("hostile-lines", |c| c);
    let stream = T::connect(&endpoint).expect("connect");
    let mut writer = stream.try_clone().expect("clone the connection");
    let mut reader = BufReader::new(stream);
    let mut next_line = |sent: &str| {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read a response");
        assert!(line.ends_with('\n'), "the daemon hung up after {sent:?}");
        line
    };
    // The recorded session's garbage line gets its recorded reply, byte
    // for byte.
    writer
        .write_all(b"this is not json\n")
        .expect("send the garbage line");
    assert_eq!(
        next_line("this is not json"),
        "{\"id\":0,\"kind\":\"error\",\"error\":\"envelope error: json parse error at byte 0: expected 'true'\"}\n"
    );
    let mut next_response =
        |sent: &str| Response::from_line(&next_line(sent)).expect("responses are envelopes");
    for (case, line) in hostile_variants(0x5eed).iter().enumerate() {
        writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send the hostile line");
        // One terminal response: an id-0 error for a line that does not
        // parse, a typed error, or a complete answer (a run streams its
        // units first).
        let mut units = 0;
        let terminal = loop {
            let response = next_response(line);
            if response.kind != "unit" {
                break response;
            }
            units += 1;
        };
        match terminal.kind.as_str() {
            "error" => assert!(terminal.error.is_some(), "{line:?}: {terminal:?}"),
            "pong" | "stats" => assert_eq!(units, 0, "{line:?}"),
            "done" => {
                let streamed = terminal.body.as_ref().and_then(|b| b.get("units"));
                assert_eq!(
                    streamed.and_then(|n| n.as_u64()),
                    Some(units),
                    "{line:?}: the run stream is complete"
                );
            }
            other => panic!("{line:?} got a '{other}' response"),
        }
        // Nothing else was queued behind it, and the same connection
        // still serves.
        let probe = 1_000_000 + case as u64;
        writer
            .write_all(format!("{{\"id\":{probe},\"method\":\"ping\"}}\n").as_bytes())
            .expect("send ping");
        let pong = next_response(line);
        assert_eq!(
            (pong.id, pong.kind.as_str()),
            (probe, "pong"),
            "after {line:?}"
        );
    }

    let mut client = ServiceClient::<T>::connect(&endpoint).expect("connect");
    let stats = client.stats().expect("stats").summary;
    assert_eq!(
        stats.units_submitted,
        stats.units_computed
            + stats.unit_cache_hits
            + stats.coalesced_joins
            + stats.units_failed
            + stats.units_cancelled,
        "counter identity: {stats:?}"
    );
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

/// Strict-enough exposition parse: every non-comment line must be
/// `name{labels} value` (or `name value`) with a float-parseable value
/// and balanced, quote-escaped labels. Returns the sample count.
fn assert_exposition_parses(text: &str) -> usize {
    let mut samples = 0;
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("no value separator in {line:?}"));
        assert!(
            value == "+Inf" || value == "-Inf" || value == "NaN" || value.parse::<f64>().is_ok(),
            "unparseable value in {line:?}"
        );
        let name = series.split('{').next().unwrap_or("");
        assert!(
            !name.is_empty()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "illegal metric name in {line:?}"
        );
        if let Some(open) = series.find('{') {
            assert!(series.ends_with('}'), "unterminated labels in {line:?}");
            let labels = &series[open + 1..series.len() - 1];
            // Quotes must balance after unescaping — the cheap proof
            // that label values were escaped correctly.
            let unescaped_quotes = labels
                .as_bytes()
                .iter()
                .enumerate()
                .filter(|(i, b)| **b == b'"' && (*i == 0 || labels.as_bytes()[i - 1] != b'\\'))
                .count();
            assert!(
                unescaped_quotes % 2 == 0,
                "unbalanced label quotes in {line:?}"
            );
        }
        samples += 1;
    }
    samples
}

/// The observability surface: `metrics` returns an exposition that
/// parses line by line and carries per-experiment latency histograms,
/// `health` reports ready, the exposition agrees with the `stats`
/// counter set, and once the drain completes the endpoint refuses
/// connections — the supervisor's not-ready signal after exit.
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
    let samples = assert_exposition_parses(&text);
    assert!(samples > 20, "suspiciously small exposition: {samples}");

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
    assert!(
        ServiceClient::<T>::connect(&endpoint).is_err(),
        "daemon still reachable after the drain"
    );
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
    assert!(
        of_kind(EventKind::ConnectionOpened).len() >= 2,
        "both run clients' connections were announced: {events:?}"
    );
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

    // A malformed priority token, or a `priority` or `run_token` that is
    // not a string, answers in-band naming the member; the connection
    // stays.
    for (member, value, needle) in [
        ("priority", r#""urgent""#, "unknown priority"),
        ("priority", "1", "priority"),
        ("priority", "null", "priority"),
        ("run_token", "7", "run_token"),
        ("run_token", r#"["a"]"#, "run_token"),
    ] {
        let mut body = oranges_harness::json::parse(&fitting.to_json()).expect("spec parses");
        if let oranges_harness::json::JsonValue::Object(fields) = &mut body {
            fields.push((
                member.to_string(),
                oranges_harness::json::parse(value).expect("member value parses"),
            ));
        }
        match client.raw_request("run", Some(body)) {
            Err(ServiceError::Remote(message)) => {
                assert!(message.contains(needle), "{member}={value}: {message}");
            }
            other => panic!("{member}={value}: expected an in-band error, got {other:?}"),
        }
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
    assert_eq!(
        stats.summary.units_submitted, 1,
        "the in-band rejections never reached the engine"
    );

    client.shutdown().expect("shutdown");
    daemon.join().expect("daemon");
}

/// The cancellation contract over the wire: a batch run registered
/// under a `run_token` — its units visibly queued in the batch class —
/// is cancelled from another connection and gets a *typed* `cancelled`
/// terminal; a sibling whose units coalesced onto the cancelled run's
/// in-flight computations still receives every one of its units.
fn cancelling_a_run_spares_a_coalesced_sibling_over<T: TestTransport>() {
    // Cancellation inherently races completion; the choreography below
    // makes the cancel win overwhelmingly (16-unit victim whose 4-unit
    // tail each functionally verifies a GEMM, 1 worker, the sibling's
    // synchronous run buys the window) — but it *is* a race, so an
    // attempt where the victim's backlog drained first is retried.
    for attempt in 0..3 {
        let (endpoint, daemon) =
            start_daemon::<T>(&format!("cancel{attempt}"), |c| c.with_workers(1));

        // The victim: a 16-unit grid at batch priority, under a
        // cancellation token. Fig4 runs first, so the sibling below can
        // ride it; the Fig2 tail verifies a 320³ GEMM per chip (one
        // product per size stands for all six backends; at 176³ an
        // optimized build often drained it before the sibling's `stats`)
        // — a backlog far slower than the sibling's round trips, which
        // the cancel abandons before most of it ever runs. Signal the
        // moment the first unit streams.
        let victim_spec = CampaignSpec::new(
            vec![
                ExperimentKind::Fig4,
                ExperimentKind::Fig1,
                ExperimentKind::Fig3,
                ExperimentKind::Fig2,
            ],
            ChipGeneration::ALL.to_vec(),
        )
        .with_gemm_sizes(vec![320])
        .with_power_sizes(vec![2048, 4096])
        .with_verify_max_flops(2 * 320 * 320 * 320);
        let (first_unit_tx, first_unit_rx) = std::sync::mpsc::channel::<()>();
        let victim_endpoint = endpoint.clone();
        let victim = std::thread::spawn(move || {
            let mut client = ServiceClient::<T>::connect(&victim_endpoint).expect("victim connect");
            let options = RunOptions::priority(Priority::Batch).with_token("victim-run");
            let mut signalled = false;
            client.run_streamed_with(&victim_spec, &options, |_| {
                if !signalled {
                    signalled = true;
                    let _ = first_unit_tx.send(());
                }
            })
        });
        first_unit_rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("victim's first unit streamed");

        // The sibling: the victim's 4 Fig4 units (whose keys depend
        // only on chip and power sizes), run synchronously at default
        // priority — its units ride the victim's computations (coalesce
        // or hit), and its completion guarantees the victim is still
        // mid-run with a batch backlog when the cancel lands.
        let sibling_spec =
            CampaignSpec::new(vec![ExperimentKind::Fig4], ChipGeneration::ALL.to_vec())
                .with_power_sizes(vec![2048, 4096]);
        let mut sibling = ServiceClient::<T>::connect(&endpoint).expect("sibling connect");
        let sibling_outcome = sibling.run(&sibling_spec).expect("sibling run");
        let queued = sibling.stats().expect("stats before the cancel").gauges;
        if queued.queue_batch == 0 {
            // The victim's batch backlog drained before the cancel could
            // land. Nothing cancels it, so it must finish whole.
            let outcome = victim
                .join()
                .expect("victim thread")
                .expect("an uncancelled victim completes");
            assert_eq!(outcome.units.len(), 16);
            sibling.shutdown().expect("shutdown");
            daemon.join().expect("daemon");
            continue;
        }

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

/// One Fig. 2 unit per chip, each verifying a 256³ and a 320³ GEMM:
/// work that holds a daemon's worker for about 6 ms a unit in an
/// optimized build and 1 s unoptimized.
fn gemm_verifying_spec(chips: Vec<ChipGeneration>) -> CampaignSpec {
    CampaignSpec::new(vec![ExperimentKind::Fig2], chips)
        .with_gemm_sizes(vec![256, 320])
        .with_verify_max_flops(2 * 320 * 320 * 320)
}

/// Poll `stats` until the daemon has admitted `units` units in all.
fn await_submitted<T: TestTransport>(client: &mut ServiceClient<T>, units: u64) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while client.stats().expect("stats").summary.units_submitted < units {
        assert!(
            std::time::Instant::now() < deadline,
            "{units} units never admitted"
        );
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

/// The deadline contract over the wire: a run that waits behind work
/// occupying the daemon's only worker gets a *typed*
/// `deadline_exceeded` terminal naming its lost unit, `stats` counts the
/// expired delivery, and the connection goes on serving.
fn a_run_past_its_deadline_gets_a_typed_terminal_over<T: TestTransport>() {
    // The probe queues behind all four blocker units (one worker, one
    // priority class, FIFO): about 25 ms of optimized work against a
    // 5 ms deadline. Expiry still races completion, so an attempt where
    // the backlog drained before the deadline fired is retried.
    for attempt in 0..3 {
        let (endpoint, daemon) =
            start_daemon::<T>(&format!("deadline{attempt}"), |c| c.with_workers(1));
        let blocker_endpoint = endpoint.clone();
        let blocker = std::thread::spawn(move || {
            let mut client =
                ServiceClient::<T>::connect(&blocker_endpoint).expect("blocker connect");
            let options = RunOptions::default().with_token("blocker");
            client.run_with(&gemm_verifying_spec(ChipGeneration::ALL.to_vec()), &options)
        });
        let mut client = ServiceClient::<T>::connect(&endpoint).expect("connect");
        await_submitted(&mut client, 4);

        let probe = CampaignSpec::new(vec![ExperimentKind::Fig4], vec![ChipGeneration::M1])
            .with_power_sizes(vec![2048]);
        let late = client.run_with(&probe, &RunOptions::default().with_deadline_ms(5));
        // Cancel the backlog, so only the unit on the worker still runs.
        client.cancel("blocker").expect("cancel answers");
        let _ = blocker.join().expect("blocker thread");
        match late {
            Err(ServiceError::DeadlineExceeded(unit)) => {
                assert!(unit.starts_with("fig4["), "names the lost unit: {unit}");
            }
            Ok(_) => {
                client.shutdown().expect("shutdown");
                daemon.join().expect("daemon");
                continue;
            }
            other => panic!("expected a typed deadline_exceeded terminal, got {other:?}"),
        }
        assert_eq!(client.stats().expect("stats").summary.deadline_expired, 1);

        // The same connection answers and completes a run.
        client.ping().expect("ping after the deadline");
        let outcome = client.run(&probe).expect("a run with no deadline");
        assert_eq!(outcome.units.len(), 1);
        client.shutdown().expect("shutdown");
        daemon.join().expect("daemon");
        return;
    }
    panic!("the deadline never beat the blocker's backlog across 3 attempts");
}

/// `health` turns not-ready when the drain begins: a request pipelined
/// behind a run that is still queued when `shutdown` arrives is answered
/// during the drain, with `ready: false`.
fn health_answers_not_ready_during_the_drain_over<T: TestTransport>() {
    use std::io::{BufRead, BufReader, Write};
    let (endpoint, daemon) = start_daemon::<T>("drain-health", |c| c.with_workers(1));
    // Two units hold the only worker: one on it, one queued.
    let blocker_endpoint = endpoint.clone();
    let blocker = std::thread::spawn(move || {
        let mut client = ServiceClient::<T>::connect(&blocker_endpoint).expect("blocker connect");
        client.run(&gemm_verifying_spec(vec![
            ChipGeneration::M1,
            ChipGeneration::M2,
        ]))
    });
    let mut control = ServiceClient::<T>::connect(&endpoint).expect("connect");
    await_submitted(&mut control, 2);

    // A run queued behind them, with `health` pipelined after it.
    let mut stream = T::connect(&endpoint).expect("connect");
    let run = r#"{"id":1,"method":"run","body":{"experiments":["fig4"],"chips":["M1"],"power_sizes":[2048]}}"#;
    let health = r#"{"id":2,"method":"health"}"#;
    stream
        .write_all(format!("{run}\n{health}\n").as_bytes())
        .expect("pipeline");
    await_submitted(&mut control, 3);
    control.shutdown().expect("shutdown");

    let lines: Vec<String> = BufReader::new(stream)
        .lines()
        .map(|line| line.expect("a line"))
        .collect();
    assert!(lines
        .iter()
        .any(|l| l.starts_with(r#"{"id":1,"kind":"done""#)));
    let health = lines
        .iter()
        .find(|l| l.starts_with(r#"{"id":2,"kind":"health""#))
        .expect("the pipelined health is answered in the drain");
    assert!(
        health.contains(r#""ready":false,"draining":true"#),
        "{health}"
    );
    blocker
        .join()
        .expect("blocker thread")
        .expect("a run streaming when the drain began completes");
    daemon.join().expect("daemon");
}

/// A deadline belongs to its run: a warm run completes from cache well
/// inside its deadline, and the next run on the same connection, which
/// has none and outlasts that deadline, still ends `done`.
fn a_finished_runs_deadline_does_not_expire_the_next_run_over<T: TestTransport>() {
    let (endpoint, daemon) = start_daemon::<T>("stale-deadline", |c| c.with_workers(1));
    let mut client = ServiceClient::<T>::connect(&endpoint).expect("connect");
    let warm = CampaignSpec::new(vec![ExperimentKind::Fig4], vec![ChipGeneration::M1])
        .with_power_sizes(vec![2048]);
    client.run(&warm).expect("cold run");

    // Time one chip's GEMM-verifying unit, then give the warm run a
    // quarter of that as its deadline, so the next such unit outlasts it
    // in any build.
    let started = std::time::Instant::now();
    client
        .run(&gemm_verifying_spec(vec![ChipGeneration::M1]))
        .expect("timing run");
    let deadline_ms = (started.elapsed().as_millis() as u64 / 4).max(1);
    let outcome = client
        .run_with(&warm, &RunOptions::default().with_deadline_ms(deadline_ms))
        .expect("the warm run beats its deadline");
    assert_eq!(outcome.computed_units, 0, "served from cache");

    let started = std::time::Instant::now();
    let outcome = client
        .run(&gemm_verifying_spec(vec![ChipGeneration::M2]))
        .expect("a run with no deadline ends done");
    assert!(
        started.elapsed() > std::time::Duration::from_millis(deadline_ms),
        "the run outlasted the earlier run's {deadline_ms} ms deadline"
    );
    assert_eq!(outcome.computed_units, 1);
    assert_eq!(client.stats().expect("stats").summary.deadline_expired, 0);
    client.shutdown().expect("shutdown");
    daemon.join().expect("daemon");
}

/// Soft fd limit for this process (Linux `/proc/self/limits`), if
/// readable — the soak sizes its connection count to it.
fn fd_soft_limit() -> Option<usize> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
    line.split_whitespace().nth(3)?.parse().ok()
}

/// This process's thread count (Linux `/proc/self/status`), if readable.
/// The daemon under test serves from this process, so the count includes
/// all of its threads.
fn thread_census() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("Threads:"))?;
    line.trim().parse().ok()
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
/// `--release`, one test at a time): one daemon holds ~1000 concurrent
/// idle subscriptions as reactor table entries — not parked threads —
/// while 8 active clients run overlapping campaigns through it. The
/// process runs as many threads with the whole fleet parked as with 10
/// subscribers. Exactly-once unit accounting holds across all 8 runs, no
/// subscriber event is dropped (the load stays below the documented
/// per-subscriber buffer bound), and the shutdown drain delivers a clean
/// EOF to every stream.
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
    let baseline_workers = probe.health().expect("health").workers_alive;
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(180);

    let await_acks = |subs: &mut [SoakSub<T::Stream>]| {
        while !subs.iter().all(|s| s.acked) {
            assert!(
                std::time::Instant::now() < deadline,
                "not every subscription was acknowledged"
            );
            soak_drain_pass(subs);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    };

    // Open every subscription, draining as we go so no subscriber is
    // ever owed more than its buffer bound while the fleet builds up.
    // Take the first thread census once 10 subscriptions are acknowledged.
    let mut subs: Vec<SoakSub<T::Stream>> = Vec::with_capacity(subscribers);
    let mut census_at_ten = None;
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
        if subs.len() == 10 {
            await_acks(&mut subs);
            census_at_ten = thread_census();
        }
    }
    await_acks(&mut subs);

    // A parked subscriber is a table entry, not a thread: the census
    // reads the same with the whole fleet parked as with 10 subscribers.
    // It counts the whole test process, so a test running beside this
    // one moves it. Skipped where `/proc` is missing.
    if let (Some(at_ten), Some(parked)) = (census_at_ten, thread_census()) {
        assert_eq!(
            at_ten, parked,
            "thread census changed between 10 and {subscribers} parked subscribers"
        );
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
    assert_eq!(
        stats.gauges.workers_alive, baseline_workers,
        "idle connections must not touch the compute plane"
    );

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
            fn a_torn_cache_file_is_quarantined_and_the_daemon_starts_cold() {
                a_torn_cache_file_is_quarantined_and_the_daemon_starts_cold_over::<$transport>();
            }

            #[test]
            fn an_infinite_wall_stamp_in_the_cache_file_is_served_as_null() {
                an_infinite_wall_stamp_in_the_cache_file_is_served_as_null_over::<$transport>();
            }

            #[test]
            fn escaped_astral_run_tokens_stay_distinct() {
                escaped_astral_run_tokens_stay_distinct_over::<$transport>();
            }

            #[test]
            fn a_pipelined_run_may_reuse_a_finished_run_token() {
                a_pipelined_run_may_reuse_a_finished_run_token_over::<$transport>();
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
            fn an_over_long_line_gets_one_error_then_the_connection_closes() {
                an_over_long_line_gets_one_error_then_the_connection_closes_over::<$transport>();
            }

            #[test]
            fn hostile_request_lines_each_get_one_terminal_response() {
                hostile_request_lines_each_get_one_terminal_response_over::<$transport>();
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

            #[test]
            fn a_run_past_its_deadline_gets_a_typed_terminal() {
                a_run_past_its_deadline_gets_a_typed_terminal_over::<$transport>();
            }

            #[test]
            fn a_finished_runs_deadline_does_not_expire_the_next_run() {
                a_finished_runs_deadline_does_not_expire_the_next_run_over::<$transport>();
            }

            #[test]
            fn health_answers_not_ready_during_the_drain() {
                health_answers_not_ready_during_the_drain_over::<$transport>();
            }

            /// Connection-scaling soak: expensive, so ignored by
            /// default; CI runs the whole binary at `--release` with
            /// `-- --include-ignored --test-threads=1`, so that its
            /// thread census reads one daemon.
            #[test]
            #[ignore = "many-clients soak; run with --release -- --include-ignored --test-threads=1"]
            fn a_thousand_idle_subscribers_ride_along_eight_active_clients() {
                a_thousand_idle_subscribers_ride_along_eight_active_clients_over::<$transport>();
            }
        }
    };
}

#[cfg(unix)]
transport_matrix!(unix_transport, UnixTransport);
transport_matrix!(tcp_transport, TcpTransport);

/// A daemon bound to every interface reports the wildcard, is reached on
/// loopback at its port, and still shuts down: `shutdown` answers `bye`
/// and `serve` returns.
#[test]
fn a_daemon_bound_to_the_wildcard_address_still_shuts_down() {
    let listen: Endpoint = "tcp:0.0.0.0:0".parse().expect("static endpoint");
    let service = CampaignService::<TcpTransport>::bind(ServiceConfig::new(listen).with_workers(1))
        .expect("bind service");
    let local = service.local_endpoint().to_string();
    let port = local
        .strip_prefix("tcp:0.0.0.0:")
        .unwrap_or_else(|| panic!("the wildcard stays a wildcard: {local}"));
    let loopback: Endpoint = format!("tcp:127.0.0.1:{port}").parse().expect("endpoint");
    let daemon = std::thread::spawn(move || service.serve());
    let mut client = ServiceClient::<TcpTransport>::connect(&loopback).expect("connect");
    client.ping().expect("ping");
    client.shutdown().expect("bye");
    let summary = daemon
        .join()
        .expect("daemon thread")
        .expect("serve returns");
    assert_eq!(summary.connections, 1);
}

/// Spec bodies with arbitrary `u64` sizes, sent to a live daemon.
mod size_limits {
    use super::*;
    use oranges_campaign::spec::{MAX_SIZE, MAX_SIZES, MIN_SIZE};
    use oranges_campaign::ExperimentOutput;
    use oranges_harness::envelope::Response;
    use oranges_harness::metric::MetricValue;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;
    use std::io::{BufRead, BufReader, Write};

    const FIELDS: [&str; 2] = ["gemm_sizes", "power_sizes"];

    fn pick<T: Copy>(rng: &mut TestRng, items: &[T]) -> T {
        items[rng.below(items.len() as u64) as usize]
    }

    /// One size: any `u64`, a value at or around a limit, or one inside
    /// the range (small enough, sometimes, to be verified).
    fn size(rng: &mut TestRng) -> u64 {
        let (min, max) = (MIN_SIZE as u64, MAX_SIZE as u64);
        match rng.below(4) {
            0 => rng.next_u64(),
            1 => pick(
                rng,
                &[
                    0,
                    min - 1,
                    min,
                    max,
                    max + 1,
                    1 << 21,
                    (1 << 63) + 64,
                    u64::MAX,
                ],
            ),
            2 => min + rng.below(64),
            _ => min + rng.below(max - min + 1),
        }
    }

    /// A size list: absent, short, or at or one past the length cap.
    fn size_list(rng: &mut TestRng) -> Option<Vec<u64>> {
        let len = match rng.below(8) {
            0 => return None,
            1 => MAX_SIZES,
            2 => MAX_SIZES + 1,
            _ => rng.below(4) as usize,
        };
        let mut sizes: Vec<u64> = (0..len).map(|_| 2048 + rng.below(64)).collect();
        // A long list carries at most one drawn size among in-range
        // fillers, so that some long lists are admitted.
        let drawn = if len > 3 { rng.below(2) as usize } else { len };
        for _ in 0..drawn {
            let at = rng.below(len as u64) as usize;
            sizes[at] = size(rng);
        }
        Some(sizes)
    }

    /// The member the daemon must name when it refuses `lists`, if any.
    fn refused_member(lists: &[Option<Vec<u64>>; 2]) -> Option<&'static str> {
        let range = MIN_SIZE as u64..=MAX_SIZE as u64;
        FIELDS.into_iter().zip(lists).find_map(|(field, list)| {
            list.as_ref()
                .filter(|sizes| sizes.len() > MAX_SIZES || sizes.iter().any(|n| !range.contains(n)))
                .map(|_| field)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every body either gets an in-band `error` naming the member,
        /// with no unit before it, or runs every unit with no unit
        /// failure or panic and only finite values.
        #[test]
        fn out_of_range_sizes_are_refused_in_band_and_in_range_sizes_run_clean(
            seed in any::<u64>(),
        ) {
            let mut rng = TestRng::new(seed);
            let experiments: Vec<&str> = ["fig2", "fig3", "fig4"]
                .into_iter()
                .filter(|_| rng.below(2) == 0)
                .collect();
            let experiments = if experiments.is_empty() { vec!["fig2"] } else { experiments };
            let chip = pick(&mut rng, &ChipGeneration::ALL);
            let lists = [size_list(&mut rng), size_list(&mut rng)];
            let mut body = format!(
                r#"{{"experiments":["{}"],"chips":["{}"],"verify_max_flops":{}"#,
                experiments.join(r#"",""#),
                chip.name(),
                pick(&mut rng, &[0u64, 32 * 32 * 63]),
            );
            for (field, list) in FIELDS.into_iter().zip(&lists) {
                if let Some(sizes) = list {
                    let sizes: Vec<String> = sizes.iter().map(u64::to_string).collect();
                    body.push_str(&format!(r#","{field}":[{}]"#, sizes.join(",")));
                }
            }
            body.push('}');

            let (endpoint, daemon) = start_daemon::<TcpTransport>("size-limits", |c| c);
            let stream = TcpTransport::connect(&endpoint).expect("connect");
            let mut writer = stream.try_clone().expect("clone the connection");
            let mut reader = BufReader::new(stream);
            writer
                .write_all(format!("{{\"id\":7,\"method\":\"run\",\"body\":{body}}}\n").as_bytes())
                .expect("send the run");
            let mut units = Vec::new();
            let terminal = loop {
                let mut line = String::new();
                reader.read_line(&mut line).expect("read a response");
                let response = Response::from_line(&line).expect("responses are envelopes");
                if response.kind != "unit" {
                    break response;
                }
                units.push(response);
            };
            match refused_member(&lists) {
                Some(field) => {
                    prop_assert_eq!(terminal.kind.as_str(), "error", "{}", body);
                    prop_assert!(units.is_empty(), "{}", body);
                    let message = terminal.error.unwrap_or_default();
                    prop_assert!(message.contains(field), "{} named by {}", body, message);
                }
                None => {
                    prop_assert_eq!(terminal.kind.as_str(), "done", "{} got {:?}", body, terminal);
                    prop_assert_eq!(units.len(), experiments.len());
                    for unit in &units {
                        let output = unit
                            .body
                            .as_ref()
                            .map(ExperimentOutput::from_json_value)
                            .expect("a unit has a body")
                            .expect("a unit body decodes");
                        let values = output.sets.iter().flat_map(|set| &set.metrics);
                        for metric in values {
                            if let MetricValue::Float(value) = metric.value {
                                prop_assert!(value.is_finite(), "{}: {:?}", body, metric);
                            }
                        }
                    }
                }
            }

            let mut client = ServiceClient::<TcpTransport>::connect(&endpoint).expect("connect");
            let stats = client.stats().expect("stats").summary;
            prop_assert_eq!(stats.units_failed, 0, "{}", body);
            client.shutdown().expect("shutdown");
            daemon.join().expect("daemon");
        }
    }
}
