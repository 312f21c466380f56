//! Connection-scaling proof for the reactor-based service: one daemon,
//! swept over idle-connection counts (10 / 100 / 1000), measuring the
//! resource a parked connection actually costs.
//!
//! With the poll-style reactor an idle subscription is a table entry,
//! so the daemon's thread census must stay **flat** across the sweep
//! (the pre-reactor design parked one thread per connection), accept
//! latency must stay interactive, and a probe run submitted while the
//! whole fleet is parked must still be served promptly.
//!
//! Run with `cargo bench -p oranges-bench --bench service`.
//!
//! Besides the human-readable table, the run writes its numbers to
//! `BENCH_service.json` at the workspace root — one machine-readable
//! document per sweep level (threads, RSS, accept latency, probe-run
//! latency) so later changes can be diffed against this baseline.

use oranges_campaign::prelude::*;
use oranges_campaign::service::{CampaignService, ServiceClient, ServiceConfig};
use oranges_harness::json::JsonValue;
use oranges_harness::reactor::FrameBuffer;
use oranges_harness::transport::{Endpoint, TcpTransport, Transport};
use std::io::{Read, Write};
use std::time::Instant;

type T = TcpTransport;

fn probe_spec() -> CampaignSpec {
    CampaignSpec::new(
        vec![ExperimentKind::Fig4, ExperimentKind::Contention],
        vec![ChipGeneration::M1, ChipGeneration::M3],
    )
    .with_power_sizes(vec![2048])
    .with_workers(2)
}

/// A numeric field from `/proc/self/status` (`Threads`, `VmRSS`, …);
/// `None` off Linux.
fn proc_status(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status
        .lines()
        .find(|l| l.starts_with(field) && l[field.len()..].starts_with(':'))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Soft fd limit (Linux); the 1000-connection level needs headroom
/// for two fds per connection (client + daemon end, same process).
fn fd_soft_limit() -> Option<usize> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
    line.split_whitespace().nth(3)?.parse().ok()
}

/// One parked subscriber: subscribe sent, ack awaited, then left idle.
struct IdleSub {
    stream: <T as Transport>::Stream,
    frame: FrameBuffer,
    acked: bool,
}

/// Nonblocking drain pass: consume acks and event traffic so no
/// subscriber's kernel buffer backs the daemon up during the sweep.
fn drain(subs: &mut [IdleSub]) {
    let mut chunk = [0u8; 8192];
    for sub in subs.iter_mut() {
        loop {
            match sub.stream.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => {
                    sub.frame.extend(&chunk[..n]);
                    while let Some(_line) = sub.frame.next_line().expect("utf8 stream") {
                        sub.acked = true;
                    }
                }
                Err(error) if error.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(error) => panic!("idle subscriber socket failed: {error}"),
            }
        }
    }
}

struct Level {
    idle_connections: usize,
    threads: Option<u64>,
    vm_rss_kb: Option<u64>,
    accept_p50_ms: f64,
    accept_max_ms: f64,
    cold_run_ms: f64,
    warm_run_ms: f64,
}

fn run_level(idle_connections: usize) -> Level {
    let listen: Endpoint = "tcp:127.0.0.1:0".parse().expect("static endpoint");
    let service = CampaignService::<T>::bind(ServiceConfig::new(listen).with_workers(2))
        .expect("bind service");
    let endpoint = service.local_endpoint().clone();
    let daemon = std::thread::spawn(move || service.serve().expect("serve"));

    // Park the fleet: open every idle subscription up front.
    let mut subs = Vec::with_capacity(idle_connections);
    for i in 0..idle_connections {
        let mut stream = loop {
            match T::connect(&endpoint) {
                Ok(stream) => break stream,
                // Accept backlog overflow under the flood; retry.
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(1)),
            }
        };
        stream
            .write_all(format!("{{\"id\":{i},\"method\":\"subscribe\"}}\n").as_bytes())
            .expect("send subscribe");
        stream
            .set_nonblocking(true)
            .expect("nonblocking subscriber");
        subs.push(IdleSub {
            stream,
            frame: FrameBuffer::new(),
            acked: false,
        });
        if i % 64 == 0 {
            drain(&mut subs);
        }
    }
    // A lost wake would leave acks unsent forever: fail, do not hang.
    let deadline = Instant::now() + std::time::Duration::from_secs(60);
    while !subs.iter().all(|s| s.acked) {
        assert!(Instant::now() < deadline, "subscribe acks never arrived");
        drain(&mut subs);
        std::thread::sleep(std::time::Duration::from_millis(1));
    }

    // Accept latency under load: connect + ping round trip, which
    // includes the reactor registering the new connection.
    let mut accept_ms = Vec::with_capacity(20);
    for _ in 0..20 {
        let started = Instant::now();
        let mut client = ServiceClient::<T>::connect(&endpoint).expect("latency probe connect");
        client.ping().expect("ping");
        accept_ms.push(started.elapsed().as_secs_f64() * 1e3);
        drain(&mut subs);
    }
    accept_ms.sort_by(f64::total_cmp);
    let accept_p50_ms = accept_ms[accept_ms.len() / 2];
    let accept_max_ms = *accept_ms.last().expect("non-empty");

    // Probe run latency while the whole fleet is parked: cold (all 4
    // units computed) and warm (served from cache — pure I/O plane).
    let mut probe = ServiceClient::<T>::connect(&endpoint).expect("probe connect");
    let started = Instant::now();
    let cold = probe.run(&probe_spec()).expect("cold probe run");
    let cold_run_ms = started.elapsed().as_secs_f64() * 1e3;
    assert_eq!(cold.units.len(), 4);
    drain(&mut subs);
    let started = Instant::now();
    let warm = probe.run(&probe_spec()).expect("warm probe run");
    let warm_run_ms = started.elapsed().as_secs_f64() * 1e3;
    assert_eq!(warm.computed_units, 0, "warm probe is pure service path");
    drain(&mut subs);

    // The proof reading: thread census and RSS with the fleet parked.
    let stats = probe.stats().expect("stats");
    assert_eq!(
        stats.gauges.reactor_registered_connections as usize,
        idle_connections + 1,
        "every idle connection is a reactor table entry"
    );
    let threads = proc_status("Threads");
    let vm_rss_kb = proc_status("VmRSS");

    probe.shutdown().expect("shutdown");
    // Every parked stream must end in the drain's clean EOF.
    let deadline = Instant::now() + std::time::Duration::from_secs(60);
    loop {
        let mut open = 0;
        let mut chunk = [0u8; 8192];
        for sub in subs.iter_mut() {
            match sub.stream.read(&mut chunk) {
                Ok(0) => {}
                Ok(_) | Err(_) => open += 1,
            }
        }
        if open == 0 {
            break;
        }
        assert!(Instant::now() < deadline, "drain left streams open");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    daemon.join().expect("daemon");

    Level {
        idle_connections,
        threads,
        vm_rss_kb,
        accept_p50_ms,
        accept_max_ms,
        cold_run_ms,
        warm_run_ms,
    }
}

fn main() {
    println!("=== Idle-connection scaling: reactor table entries, not threads ===\n");

    let mut sweep = vec![10usize, 100, 1000];
    if let Some(limit) = fd_soft_limit() {
        sweep.retain(|n| 2 * n + 128 <= limit);
        if sweep.len() < 3 {
            eprintln!(
                "fd soft limit {limit} truncates the sweep to {sweep:?}; \
                 raise `ulimit -n` for the full 1000-connection level"
            );
        }
    }

    println!(
        "{:>6} {:>8} {:>10} {:>12} {:>12} {:>10} {:>10}",
        "idle", "threads", "rss (MiB)", "accept p50", "accept max", "cold run", "warm run"
    );
    let levels: Vec<Level> = sweep.iter().map(|&n| run_level(n)).collect();
    for level in &levels {
        println!(
            "{:>6} {:>8} {:>10} {:>9.3} ms {:>9.3} ms {:>7.1} ms {:>7.1} ms",
            level.idle_connections,
            level.threads.map_or("n/a".to_string(), |t| t.to_string()),
            level
                .vm_rss_kb
                .map_or("n/a".to_string(), |kb| format!("{:.1}", kb as f64 / 1024.0)),
            level.accept_p50_ms,
            level.accept_max_ms,
            level.cold_run_ms,
            level.warm_run_ms,
        );
    }

    // The O(1)-threads proof: the census must not grow with the fleet.
    if let (Some(first), Some(last)) = (levels.first(), levels.last()) {
        if let (Some(a), Some(b)) = (first.threads, last.threads) {
            assert_eq!(
                a, b,
                "thread census grew with idle connections — the reactor is not O(1) threads"
            );
            println!(
                "\nthread census flat at {a} across {}..{} idle connections (O(1) service threads)",
                first.idle_connections, last.idle_connections
            );
        }
    }

    let document = JsonValue::Object(vec![
        (
            "bench".to_string(),
            JsonValue::String("service".to_string()),
        ),
        (
            "transport".to_string(),
            JsonValue::String("tcp:127.0.0.1".to_string()),
        ),
        (
            "levels".to_string(),
            JsonValue::Array(
                levels
                    .iter()
                    .map(|level| {
                        let mut fields = vec![
                            (
                                "idle_connections".to_string(),
                                JsonValue::integer(level.idle_connections as u64),
                            ),
                            (
                                "accept_p50_ms".to_string(),
                                JsonValue::number(level.accept_p50_ms),
                            ),
                            (
                                "accept_max_ms".to_string(),
                                JsonValue::number(level.accept_max_ms),
                            ),
                            (
                                "cold_run_ms".to_string(),
                                JsonValue::number(level.cold_run_ms),
                            ),
                            (
                                "warm_run_ms".to_string(),
                                JsonValue::number(level.warm_run_ms),
                            ),
                        ];
                        if let Some(threads) = level.threads {
                            fields.push(("threads".to_string(), JsonValue::integer(threads)));
                        }
                        if let Some(kb) = level.vm_rss_kb {
                            fields.push(("vm_rss_kb".to_string(), JsonValue::integer(kb)));
                        }
                        JsonValue::Object(fields)
                    })
                    .collect(),
            ),
        ),
    ]);
    // Anchor at the workspace root regardless of the invocation cwd
    // (cargo runs benches from the package directory).
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_service.json");
    match std::fs::write(&path, document.to_json_string() + "\n") {
        Ok(()) => println!("wrote {}", path.display()),
        Err(error) => eprintln!("could not write {}: {error}", path.display()),
    }
}
