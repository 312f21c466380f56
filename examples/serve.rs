//! Campaign service mode: a long-running daemon serving `CampaignSpec`
//! requests over a pluggable transport (`unix:` socket or `tcp:`),
//! answering from a warm cache.
//!
//! ```text
//! cargo run --release --example serve [-- OPTIONS]
//!
//! Options:
//!   --listen URI    endpoint to bind: unix:/path/to.sock or
//!                   tcp:host:port (tcp port 0 = OS-assigned; the
//!                   resolved endpoint is printed at startup).
//!                   Default: unix:$TMPDIR/oranges-campaign.sock
//!   --workers N     persistent worker threads (default 4)
//!   --queue-cap N   bound the engine's admission queue: a run whose
//!                   fresh units outnumber the free slots is refused
//!                   whole with a typed `busy` response instead of
//!                   queueing unboundedly (default: unbounded)
//!   --cache PATH    warm-start the cache from PATH and save it back on
//!                   shutdown
//!
//! Protocol (newline-delimited JSON; see docs/PROTOCOL.md):
//!   {"id":1,"method":"run","body":{"experiments":["fig4"],"chips":["M1"]}}
//!   {"id":2,"method":"stats"}   {"id":3,"method":"ping"}   {"id":4,"method":"shutdown"}
//! ```
//!
//! Talk to it from a shell with e.g.
//! `nc -U /tmp/oranges-campaign.sock` (unix) or `nc 127.0.0.1 7771`
//! (tcp). The service's properties — streaming, coalescing, admission,
//! observability, the reactor's connection scaling, fleet dispatch —
//! are proven by `tests/service_mode.rs`, `tests/admission.rs` and
//! `tests/fleet.rs`; this binary only launches the daemon.

use oranges_campaign::prelude::*;
use oranges_campaign::service::{CampaignService, ServiceConfig};
use oranges_harness::transport::AnyTransport;
use std::path::PathBuf;

struct Options {
    listen: Endpoint,
    workers: usize,
    queue_cap: Option<usize>,
    cache: Option<PathBuf>,
}

/// The daemon's default endpoint: a well-known unix socket where unix
/// sockets exist, a fixed TCP loopback port elsewhere.
fn default_listen() -> Endpoint {
    if cfg!(unix) {
        Endpoint::Unix(std::env::temp_dir().join("oranges-campaign.sock"))
    } else {
        "tcp:127.0.0.1:7771".parse().expect("static endpoint")
    }
}

fn parse_options() -> Options {
    let mut options = Options {
        listen: default_listen(),
        workers: 4,
        queue_cap: None,
        cache: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match flag.as_str() {
            "--listen" => {
                options.listen = value("--listen")
                    .parse()
                    .unwrap_or_else(|error| panic!("--listen: {error}"))
            }
            "--workers" => options.workers = value("--workers").parse().expect("--workers N"),
            "--queue-cap" => {
                options.queue_cap = Some(value("--queue-cap").parse().expect("--queue-cap N"))
            }
            "--cache" => options.cache = Some(PathBuf::from(value("--cache"))),
            other => panic!("unknown option {other}"),
        }
    }
    options
}

fn main() {
    let options = parse_options();
    let mut config = ServiceConfig::new(options.listen).with_workers(options.workers);
    if let Some(cap) = options.queue_cap {
        config = config.with_queue_cap(cap);
    }
    if let Some(cache) = &options.cache {
        config = config.with_cache_path(cache);
    }
    let service = CampaignService::<AnyTransport>::bind(config).expect("bind service");
    println!(
        "oranges campaign service: listening on {} ({} workers, {} queue cap, {} cached units)",
        service.local_endpoint(),
        options.workers,
        options
            .queue_cap
            .map_or("unbounded".to_string(), |cap| cap.to_string()),
        service.cache().stats().entries,
    );
    println!("send {{\"id\":1,\"method\":\"shutdown\"}} to stop\n");
    let summary = service.serve().expect("serve");
    println!(
        "served {} connections / {} requests ({} runs, {} units streamed; \
         {} computed, {} cache hits, {} coalesced joins)",
        summary.connections,
        summary.requests,
        summary.runs,
        summary.units_streamed,
        summary.units_computed,
        summary.unit_cache_hits,
        summary.coalesced_joins,
    );
}
