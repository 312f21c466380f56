//! Campaign service mode: a multiplexed daemon serving specs over a
//! pluggable [`Transport`], all connections feeding one shared
//! [`ExecutionEngine`] and one warm [`ResultCache`].
//!
//! The ROADMAP's north star is a spec-in/`MetricSet`-out *service*, not
//! a one-shot CLI. This module is that service:
//!
//! ```text
//!  client A ──run──►┐                          ┌─► worker threads
//!  client B ──run──►├─ one readiness REACTOR   │   (ExecutionEngine,
//!  client C ──stats►┤  multiplexing every      │    warm PlatformPools)
//!                   │  connection, all         │
//!                   │  submitting units to ────┤
//!                   │  the SHARED engine       └─► shared in-flight table:
//!                   │                              overlapping specs from
//!                   │  unit responses stream       different clients
//!                   ◄─ back on completion          coalesce onto ONE
//!                      wakeups                     computation
//! ```
//!
//! Protocol: newline-delimited JSON envelopes
//! ([`oranges_harness::envelope`]) over any [`Transport`] stream — a
//! Unix-domain socket on one host, TCP across a fleet (the normative
//! wire spec lives in `docs/PROTOCOL.md`). Methods:
//!
//! | method | body | response stream |
//! |---|---|---|
//! | `run` | [`CampaignSpec`] JSON (+ optional `priority`, `deadline_ms`, `run_token`) | `unit` × N (as they finish), then `done` — or terminal `busy` / `cancelled` / `deadline_exceeded` |
//! | `cancel` | `{token}` | `cancelled` ack (`active`, `waiters_cancelled`, `jobs_abandoned`) |
//! | `stats` | — | `stats` (cache + engine + service counters) |
//! | `metrics` | — | `metrics` (Prometheus text exposition as a string body) |
//! | `health` | — | `health` (liveness + readiness for supervisors) |
//! | `subscribe` | — | `subscribed`, then one `event` per lifecycle event |
//! | `ping` | — | `pong` |
//! | `shutdown` | — | `bye`, then the daemon drains connections and exits |
//!
//! The service stack is generic over [`Transport`]: [`CampaignService`]
//! binds whatever scheme its configured [`Endpoint`] names, the
//! live-connection registry holds that transport's streams, and the
//! shutdown drain self-dials through the same transport. Use
//! [`UnixTransport`](oranges_harness::transport::UnixTransport) or
//! [`TcpTransport`](oranges_harness::transport::TcpTransport) when the
//! scheme is fixed at compile time, or
//! [`AnyTransport`](oranges_harness::transport::AnyTransport) to
//! dispatch on a runtime `--listen`/`--fleet` endpoint. Every service
//! property — idle-drain, coalescing counters, cache warm-start —
//! holds identically under both schemes (`tests/service_mode.rs` runs
//! the whole matrix over each).
//!
//! Connections are handled **concurrently** on a single I/O thread: a
//! readiness reactor ([`oranges_harness::reactor`]) owns every accepted
//! stream as a nonblocking table entry, so an idle connection or a
//! parked `subscribe` stream costs a table row, not an OS thread — the
//! daemon's thread census is O(1) in its connection count (accept +
//! dispatch + the engine's workers and reaper). Compute stays
//! thread-based in the engine; engine unit completions reach the
//! reactor through coalescing wakeup notifies, and `unit` responses
//! for a `run` are written the moment the engine delivers them, not
//! after the whole campaign: a client watching a long run sees results
//! incrementally (each `unit` body carries its plan `index`;
//! [`ServiceClient`] reassembles plan order). Because all connections
//! share one engine and one cache, two clients submitting overlapping
//! specs compute each shared unit exactly once: the second
//! subscription *coalesces* onto the in-flight computation, visible in
//! the `stats` counters (`coalesced_joins`) and per-run in the `done`
//! body (`coalesced_units`).
//!
//! Any failure is an in-band `error` response carrying the request id
//! (id 0 if the request line itself would not parse); the connection
//! stays up. The one exception is a line longer than
//! [`MAX_LINE_BYTES`](oranges_harness::reactor::MAX_LINE_BYTES): it
//! gets an id-0 `error` naming the limit, and the connection closes
//! once the peer hangs up. A `run` that fails mid-campaign may have
//! streamed some `unit` responses already — the terminal line is then
//! an `error` instead of `done`.
//!
//! The shared cache warm-starts from disk when
//! [`ServiceConfig::cache_path`] is set (a file stamped with a stale
//! model digest is invalidated, and one that does not parse is moved
//! aside — neither is an error) and is saved back, crash-safely, on
//! shutdown, so a repeat of any spec the daemon has seen — in this
//! process or a previous one — computes nothing: `tests/service_mode.rs`
//! proves it. `done` and `stats` bodies carry the daemon's
//! `model_digest`, so a fleet orchestrator can tell a same-version
//! remote from a stale one before merging its results.
//!
//! A complete round trip over TCP loopback (port 0 — the listener
//! reports the resolved endpoint):
//!
//! ```
//! use oranges_campaign::prelude::*;
//! use oranges_campaign::service::{CampaignService, ServiceClient, ServiceConfig};
//! use oranges_harness::transport::TcpTransport;
//!
//! let config = ServiceConfig::new("tcp:127.0.0.1:0".parse::<Endpoint>().unwrap());
//! let service = CampaignService::<TcpTransport>::bind(config)?;
//! let endpoint = service.local_endpoint().clone();
//! let daemon = std::thread::spawn(move || service.serve());
//!
//! let mut client = ServiceClient::<TcpTransport>::connect(&endpoint)?;
//! client.ping()?;
//! let spec = CampaignSpec::new(vec![ExperimentKind::Fig4], vec![ChipGeneration::M2])
//!     .with_power_sizes(vec![2048]);
//! let outcome = client.run(&spec)?;
//! assert!(outcome.units[0].output.sets[0].provenance.chip.is_some());
//! client.shutdown()?;
//! daemon.join().unwrap()?;
//! # Ok::<(), oranges_campaign::service::ServiceError>(())
//! ```

use crate::cache::{CachePersistError, CacheStats, ResultCache};
use crate::engine::{
    AdmitError, CancelHandle, ExecutionEngine, Priority, SubmitOptions, Subscription, UnitSource,
};
use crate::plan::{Plan, UnitKey};
use crate::report::{CampaignReport, UnitReport};
use crate::scheduler::CampaignError;
use crate::spec::{CampaignSpec, SpecParseError};
use oranges::experiments::ExperimentOutput;
use oranges_harness::envelope::{EnvelopeError, Request, Response};
use oranges_harness::json::{self, JsonValue};
use oranges_harness::obs::{CampaignEvent, EventKind, EventStream, Exposition};
use oranges_harness::reactor::{
    Event, FrameError, Reactor, ReadInterest, Token, WakeHandle, WRITE_BACKLOG_THRESHOLD,
};
use oranges_harness::transport::{Endpoint, Listener, Stream, Transport};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::TryRecvError;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Failure anywhere in the service stack (daemon or client side).
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// Socket or filesystem failure (context, cause).
    Io(String, String),
    /// A wire envelope would not parse.
    Envelope(EnvelopeError),
    /// A `run` request carried an invalid spec.
    Spec(SpecParseError),
    /// The campaign itself failed.
    Campaign(CampaignError),
    /// The warm cache would not load or save.
    Cache(CachePersistError),
    /// The server reported a failure in-band (client side).
    Remote(String),
    /// The peer violated the protocol (unexpected kind, bad body).
    Protocol(String),
    /// The daemon's engine rejected the run at admission: it needed
    /// more queue slots than the cap has free. Retry later, shrink the
    /// spec, or raise the daemon's `--queue-cap`.
    Busy {
        /// Jobs queued at rejection time.
        queued: u64,
        /// The daemon's queue cap.
        cap: u64,
    },
    /// The run was cancelled (via its `run_token` from another
    /// connection, or engine-side). Carries the first cancelled unit.
    Cancelled(String),
    /// The run's `deadline_ms` expired before every unit resolved.
    /// Carries the first expired unit.
    DeadlineExceeded(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Io(context, cause) => write!(f, "service io ({context}): {cause}"),
            ServiceError::Envelope(e) => write!(f, "service wire: {e}"),
            ServiceError::Spec(e) => write!(f, "service spec: {e}"),
            ServiceError::Campaign(e) => write!(f, "service campaign: {e}"),
            ServiceError::Cache(e) => write!(f, "service cache: {e}"),
            ServiceError::Remote(message) => write!(f, "server reported: {message}"),
            ServiceError::Protocol(message) => write!(f, "protocol violation: {message}"),
            ServiceError::Busy { queued, cap } => {
                write!(f, "daemon busy: engine queue {queued}/{cap} full")
            }
            ServiceError::Cancelled(unit) => write!(f, "run cancelled (first unit: {unit})"),
            ServiceError::DeadlineExceeded(unit) => {
                write!(f, "run deadline exceeded (first unit: {unit})")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<EnvelopeError> for ServiceError {
    fn from(e: EnvelopeError) -> Self {
        ServiceError::Envelope(e)
    }
}

impl From<SpecParseError> for ServiceError {
    fn from(e: SpecParseError) -> Self {
        ServiceError::Spec(e)
    }
}

impl From<CampaignError> for ServiceError {
    fn from(e: CampaignError) -> Self {
        ServiceError::Campaign(e)
    }
}

impl From<CachePersistError> for ServiceError {
    fn from(e: CachePersistError) -> Self {
        ServiceError::Cache(e)
    }
}

fn io_err(context: &str, error: std::io::Error) -> ServiceError {
    ServiceError::Io(context.to_string(), error.to_string())
}

/// How to run a [`CampaignService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Where to listen. `unix:` endpoints own their socket path (a
    /// stale *socket* file is replaced at bind time — any other kind of
    /// file is refused, not deleted — and the socket file is removed on
    /// shutdown); `tcp:` endpoints may use port 0 to let the OS pick —
    /// [`CampaignService::local_endpoint`] reports the resolved
    /// address either way.
    pub listen: Endpoint,
    /// Persistent worker threads in the shared engine.
    pub workers: usize,
    /// Warm-start the cache from this file when present, and save the
    /// (possibly grown) cache back to it on shutdown.
    pub cache_path: Option<PathBuf>,
    /// Bound the engine's job queue: a `run` needing more fresh
    /// computations than the cap has free slots is rejected whole with
    /// a typed `busy` response. `None` (the default) admits everything.
    pub queue_cap: Option<usize>,
}

impl ServiceConfig {
    /// A config with 4 workers and no disk cache. Bare paths convert to
    /// `unix:` endpoints; parse a string (`"tcp:host:port"`) for TCP.
    pub fn new(listen: impl Into<Endpoint>) -> Self {
        ServiceConfig {
            listen: listen.into(),
            workers: 4,
            cache_path: None,
            queue_cap: None,
        }
    }

    /// Set the engine worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Warm-start from / persist to `path`.
    pub fn with_cache_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.cache_path = Some(path.into());
        self
    }

    /// Bound the engine's job queue (see
    /// [`queue_cap`](ServiceConfig::queue_cap)).
    pub fn with_queue_cap(mut self, cap: usize) -> Self {
        self.queue_cap = Some(cap);
        self
    }
}

/// Cumulative service counters, reported by `stats` responses and
/// returned by [`CampaignService::serve`] on shutdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceSummary {
    /// Connections accepted over the daemon's lifetime.
    pub connections: u64,
    /// Connections currently open (0 in the final summary).
    pub active_connections: u64,
    /// Requests dispatched (all methods).
    pub requests: u64,
    /// `run` requests completed successfully.
    pub runs: u64,
    /// `unit` responses streamed.
    pub units_streamed: u64,
    /// Units the shared engine actually computed.
    pub units_computed: u64,
    /// Units served from the cache at submit time.
    pub unit_cache_hits: u64,
    /// Units that coalesced onto another request's in-flight
    /// computation — the cross-request dedupe proof.
    pub coalesced_joins: u64,
    /// Units submitted to the shared engine across all requests (every
    /// one resolves to computed, cache hit, or coalesced join).
    pub units_submitted: u64,
    /// Units that failed (experiment error or contained panic).
    pub units_failed: u64,
    /// Queued computations abandoned by cancellation or deadline
    /// expiry before a worker picked them up.
    pub units_cancelled: u64,
    /// Unit deliveries failed because their run's deadline expired.
    pub deadline_expired: u64,
    /// Whole submissions turned away with a typed `busy` rejection.
    pub submissions_rejected: u64,
    /// Lifecycle events dropped because a `subscribe` client's buffer
    /// was full — publishing never blocks an engine worker.
    pub events_dropped: u64,
    /// Reactor wakeups delivered for engine completion notifies
    /// (coalesced: a burst of unit completions between two dispatch
    /// turns costs one wakeup).
    pub reactor_notify_wakeups: u64,
    /// Reactor timer expirations delivered (subscribe heartbeats).
    pub reactor_timer_wakeups: u64,
}

/// Point-in-time gauges reported alongside the cumulative
/// [`ServiceSummary`] in `stats` responses (and as gauges in the
/// `metrics` exposition).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceGauges {
    /// Jobs queued in the engine but not yet picked up by a worker.
    pub queue_depth: u64,
    /// Jobs queued in the high-priority class.
    pub queue_high: u64,
    /// Jobs queued in the normal-priority class.
    pub queue_normal: u64,
    /// Jobs queued in the batch-priority class.
    pub queue_batch: u64,
    /// Units currently in flight (queued or computing).
    pub units_inflight: u64,
    /// Live event subscribers (`subscribe` connections and in-process
    /// streams).
    pub event_subscribers: u64,
    /// Engine worker threads still running (readiness wants this equal
    /// to the configured worker count).
    pub workers_alive: u64,
    /// Connections registered in the reactor's table right now (the
    /// per-connection cost of this daemon is this gauge times one table
    /// entry — not a thread).
    pub reactor_registered_connections: u64,
}

/// Mutable daemon state shared by the accept thread and the reactor
/// dispatch loop (and read by `stats`/`metrics` handlers).
struct ServiceShared {
    engine: ExecutionEngine,
    cache: ResultCache,
    config: ServiceConfig,
    /// The *resolved* bound endpoint (a `tcp:…:0` config becomes the
    /// real port; a wildcard host stays a wildcard, faithful to the
    /// bind) — what `local_endpoint()` reports.
    local: Endpoint,
    /// The self-dialable form of `local` (wildcard host → loopback) —
    /// what the shutdown handler dials to wake the accept loop.
    dial: Endpoint,
    shutdown: AtomicBool,
    /// Active runs that registered a `run_token`, so a `cancel` request
    /// — from *any* connection — can reach their engine subscription.
    /// Entries are removed when their run finishes.
    cancels: Arc<Mutex<HashMap<String, CancelHandle>>>,
    connections: AtomicU64,
    active_connections: AtomicU64,
    requests: AtomicU64,
    runs: AtomicU64,
    units_streamed: AtomicU64,
    /// Reactor counters, mirrored out of the (single-threaded) dispatch
    /// loop so `serve`'s final summary and concurrent readers see them.
    reactor_notify_wakeups: AtomicU64,
    reactor_timer_wakeups: AtomicU64,
    reactor_connections: AtomicU64,
}

impl ServiceShared {
    fn summary(&self) -> ServiceSummary {
        let engine = self.engine.stats();
        ServiceSummary {
            connections: self.connections.load(Ordering::Relaxed),
            active_connections: self.active_connections.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            runs: self.runs.load(Ordering::Relaxed),
            units_streamed: self.units_streamed.load(Ordering::Relaxed),
            units_computed: engine.units_computed,
            unit_cache_hits: engine.cache_hits,
            coalesced_joins: engine.coalesced_joins,
            units_submitted: engine.units_submitted,
            units_failed: engine.units_failed,
            units_cancelled: engine.units_cancelled,
            deadline_expired: engine.deadline_expired,
            submissions_rejected: engine.submissions_rejected,
            events_dropped: engine.events_dropped,
            reactor_notify_wakeups: self.reactor_notify_wakeups.load(Ordering::Relaxed),
            reactor_timer_wakeups: self.reactor_timer_wakeups.load(Ordering::Relaxed),
        }
    }

    fn gauges(&self) -> ServiceGauges {
        let depths = self.engine.queue_depths();
        ServiceGauges {
            queue_depth: depths.iter().sum::<usize>() as u64,
            queue_high: depths[0] as u64,
            queue_normal: depths[1] as u64,
            queue_batch: depths[2] as u64,
            units_inflight: self.engine.inflight() as u64,
            event_subscribers: self.engine.event_subscribers() as u64,
            workers_alive: self.engine.alive_workers() as u64,
            reactor_registered_connections: self.reactor_connections.load(Ordering::Relaxed),
        }
    }

    fn health(&self) -> HealthReport {
        HealthReport::of(
            self.shutdown.load(Ordering::Relaxed),
            self.engine.alive_workers(),
            self.engine.workers(),
            self.cache.stats().entries,
            &self.local,
        )
    }
}

/// Liveness + readiness, answered by the `health` method. A daemon that
/// answers at all is *live*; it is *ready* only while it is not
/// draining and every configured engine worker thread is still running
/// — the signal a supervisor or fleet orchestrator should gate
/// dispatch on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthReport {
    /// Overall readiness: not draining, all workers alive.
    pub ready: bool,
    /// The daemon received `shutdown` and is draining connections.
    pub draining: bool,
    /// Engine worker threads still running.
    pub workers_alive: u64,
    /// Engine worker threads configured at bind.
    pub workers_configured: u64,
    /// Entries in the warm cache (0 is healthy — a cold daemon).
    pub cache_entries: u64,
    /// The resolved listening endpoint.
    pub endpoint: String,
}

impl HealthReport {
    /// Derive readiness from the raw signals. Kept separate from the
    /// service so the drain transition (`draining: true` ⇒ not ready)
    /// is testable without a socket.
    pub fn of(
        draining: bool,
        workers_alive: usize,
        workers_configured: usize,
        cache_entries: usize,
        endpoint: &Endpoint,
    ) -> HealthReport {
        HealthReport {
            ready: !draining && workers_alive == workers_configured,
            draining,
            workers_alive: workers_alive as u64,
            workers_configured: workers_configured as u64,
            cache_entries: cache_entries as u64,
            endpoint: endpoint.to_string(),
        }
    }

    /// The `health` response body.
    pub fn to_body(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("ready".to_string(), JsonValue::Bool(self.ready)),
            ("draining".to_string(), JsonValue::Bool(self.draining)),
            (
                "workers_alive".to_string(),
                JsonValue::integer(self.workers_alive),
            ),
            (
                "workers_configured".to_string(),
                JsonValue::integer(self.workers_configured),
            ),
            (
                "cache_entries".to_string(),
                JsonValue::integer(self.cache_entries),
            ),
            (
                "endpoint".to_string(),
                JsonValue::String(self.endpoint.clone()),
            ),
        ])
    }

    /// Parse a `health` response body (the client side).
    pub fn from_body(body: &JsonValue) -> Result<HealthReport, ServiceError> {
        let flag = |name: &str| {
            body.get(name)
                .and_then(JsonValue::as_bool)
                .ok_or_else(|| ServiceError::Protocol(format!("health body has no bool '{name}'")))
        };
        let counter = |name: &str| {
            body.get(name).and_then(JsonValue::as_u64).ok_or_else(|| {
                ServiceError::Protocol(format!("health body has no integer '{name}'"))
            })
        };
        Ok(HealthReport {
            ready: flag("ready")?,
            draining: flag("draining")?,
            workers_alive: counter("workers_alive")?,
            workers_configured: counter("workers_configured")?,
            cache_entries: counter("cache_entries")?,
            endpoint: body
                .get("endpoint")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| ServiceError::Protocol("health body has no 'endpoint'".into()))?
                .to_string(),
        })
    }
}

/// The long-running campaign daemon: one listener (any [`Transport`]),
/// one warm cache, one shared execution engine, and one readiness
/// reactor multiplexing every live connection — the daemon's thread
/// count does not grow with its connection count.
pub struct CampaignService<T: Transport> {
    listener: T::Listener,
    shared: Arc<ServiceShared>,
}

impl<T: Transport> CampaignService<T> {
    /// Bind the configured endpoint and warm-start the cache. A cache
    /// file stamped with a stale model digest is invalidated; one that
    /// does not parse (a torn write, say) is renamed to
    /// `<path>.corrupt-<unix_ms>` and the daemon starts cold — both
    /// logged, neither fatal. An unreadable file still fails the bind.
    /// The service is not serving yet — call
    /// [`serve`](CampaignService::serve).
    pub fn bind(config: ServiceConfig) -> Result<Self, ServiceError> {
        let cache = match &config.cache_path {
            Some(path) if path.exists() => match ResultCache::load_checked(path) {
                Ok(load) => {
                    if load.invalidated > 0 {
                        eprintln!(
                            "campaign service: cache {} invalidated ({} stale units, \
                             model digest {} != {})",
                            path.display(),
                            load.invalidated,
                            load.file_digest,
                            load.cache.model_digest(),
                        );
                    }
                    load.cache
                }
                Err(CachePersistError::Parse(cause)) => {
                    let quarantine = quarantine_path(path);
                    std::fs::rename(path, &quarantine).map_err(|e| {
                        io_err(&format!("quarantining cache {}", path.display()), e)
                    })?;
                    eprintln!(
                        "campaign service: warning: cache {} does not parse ({cause}); \
                         kept as {}, starting cold",
                        path.display(),
                        quarantine.display(),
                    );
                    ResultCache::new()
                }
                Err(error) => return Err(error.into()),
            },
            _ => ResultCache::new(),
        };
        let listener = T::bind(&config.listen)
            .map_err(|e| io_err(&format!("binding {}", config.listen), e))?;
        let local = listener.local_endpoint().clone();
        let dial = listener.dial_endpoint().clone();
        let engine = ExecutionEngine::with_queue_cap(config.workers, config.queue_cap);
        Ok(CampaignService {
            listener,
            shared: Arc::new(ServiceShared {
                engine,
                cache,
                config,
                local,
                dial,
                shutdown: AtomicBool::new(false),
                cancels: Arc::new(Mutex::new(HashMap::new())),
                connections: AtomicU64::new(0),
                active_connections: AtomicU64::new(0),
                requests: AtomicU64::new(0),
                runs: AtomicU64::new(0),
                units_streamed: AtomicU64::new(0),
                reactor_notify_wakeups: AtomicU64::new(0),
                reactor_timer_wakeups: AtomicU64::new(0),
                reactor_connections: AtomicU64::new(0),
            }),
        })
    }

    /// The shared warm cache (e.g. to pre-seed it before serving).
    pub fn cache(&self) -> &ResultCache {
        &self.shared.cache
    }

    /// The resolved listening endpoint, faithful to the bind: port 0 is
    /// replaced by the OS-assigned port, and a wildcard host
    /// (`tcp:0.0.0.0:…`) is reported as such — it means "all
    /// interfaces", which is exactly what an operator starting a fleet
    /// daemon wants to see. (Clients on *this* host can always dial a
    /// concrete-host endpoint verbatim; the daemon's own shutdown
    /// self-dial uses the loopback form internally.)
    pub fn local_endpoint(&self) -> &Endpoint {
        &self.shared.local
    }

    /// Accept connections and serve them all from one readiness
    /// reactor — every live connection is a table entry, not a thread —
    /// until a `shutdown` request arrives, then drain the live
    /// connections (idle ones get a clean EOF immediately; a connection
    /// mid-`run` finishes streaming first), persist the cache (when
    /// configured), release the listener (removing a `unix:` socket
    /// file), and return the lifetime counters. The cache is persisted
    /// even if the accept thread has to give up, so computed results
    /// are never lost to a socket-level failure.
    pub fn serve(self) -> Result<ServiceSummary, ServiceError> {
        let mut reactor: Reactor<T::Stream> = Reactor::new();
        let wake = reactor.wake_handle();
        let listener = &self.listener;
        let shared = &self.shared;
        // Two service threads, regardless of connection count: this
        // caller becomes the dispatch loop, and one scoped thread runs
        // the blocking accept. The accept thread hands streams to the
        // reactor over its wakeup channel; the `shutdown` handler wakes
        // the blocked accept by dialing the endpoint itself.
        let give_up = std::thread::scope(|scope| {
            let acceptor = scope.spawn(move || accept_loop::<T>(listener, shared, wake));
            Dispatcher::<T> {
                shared,
                reactor: &mut reactor,
                conns: HashMap::new(),
                draining: false,
            }
            .run();
            acceptor.join().unwrap_or(None)
        });
        self.persist_and_cleanup()?;
        match give_up {
            Some(error) => Err(error),
            None => Ok(self.shared.summary()),
        }
    }

    /// Save the warm cache (when configured) and release the listener's
    /// on-disk residue (the `unix:` socket file; nothing for `tcp:`).
    fn persist_and_cleanup(&self) -> Result<(), ServiceError> {
        if let Some(path) = &self.shared.config.cache_path {
            self.shared.cache.save(path)?;
            self.shared.engine.events().publish(
                &CampaignEvent::new(EventKind::CachePersisted)
                    .with_detail(&path.display().to_string()),
            );
        }
        self.listener.cleanup();
        Ok(())
    }
}

/// Where [`CampaignService::bind`] moves a cache file that does not
/// parse: `<path>.corrupt-<unix_ms>`, beside the original.
fn quarantine_path(path: &std::path::Path) -> PathBuf {
    let unix_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap_or_default()
        .as_millis();
    let mut name = path.as_os_str().to_owned();
    name.push(format!(".corrupt-{unix_ms}"));
    PathBuf::from(name)
}

/// The accept thread's whole job: hand accepted streams to the reactor
/// over its wakeup channel. Transient accept failures (EMFILE under fd
/// pressure, say) are retried; only a persistent streak aborts the
/// daemon — by flagging the drain and waking the dispatch loop, so the
/// cache is still persisted.
fn accept_loop<T: Transport>(
    listener: &T::Listener,
    shared: &ServiceShared,
    wake: WakeHandle<T::Stream>,
) -> Option<ServiceError> {
    const MAX_CONSECUTIVE_ACCEPT_FAILURES: u32 = 64;
    let mut accept_failures = 0u32;
    loop {
        if shared.shutdown.load(Ordering::Relaxed) {
            return None;
        }
        match listener.accept() {
            Ok(stream) => {
                accept_failures = 0;
                if shared.shutdown.load(Ordering::Relaxed) {
                    return None; // the drain's wake-up dial, not a client
                }
                wake.accepted(stream);
            }
            Err(error) => {
                accept_failures += 1;
                eprintln!("campaign service: accept error: {error}");
                if accept_failures >= MAX_CONSECUTIVE_ACCEPT_FAILURES {
                    shared.shutdown.store(true, Ordering::Relaxed);
                    wake.shutdown();
                    return Some(io_err("accepting connection (giving up)", error));
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

/// Protocol state of one reactor-registered connection.
struct Conn {
    state: ConnState,
    /// Requests framed while a `run` was streaming (the protocol is
    /// sequential per connection): replayed in order once the run's
    /// terminal response is enqueued — the behavior a blocking
    /// `BufReader` gave pipelined clients.
    deferred: VecDeque<String>,
}

enum ConnState {
    /// Reading framed requests.
    Command,
    /// A `run` is streaming; reads are paused, deliveries arrive via
    /// notify wakeups.
    Running(RunState),
    /// A `subscribe` stream; reads watch only for hangup, events arrive
    /// via notify wakeups, heartbeats via the reactor timer.
    Subscribing(SubState),
}

/// One in-flight `run`, pumped incrementally from notify wakeups — the
/// reactor-shaped twin of the scheduler's blocking assembly, preserving
/// its semantics exactly: units stream as delivered, the
/// earliest-plan-index error wins, a shut-down engine or a
/// never-reported unit is a worker error.
struct RunState {
    id: u64,
    plan: Plan,
    subscription: Subscription,
    slots: Vec<Option<UnitReport>>,
    first_error: Option<(usize, CampaignError)>,
    received: usize,
    started: Instant,
    /// Deregisters the run's `run_token` when the run state drops — on
    /// every exit path, including a connection that dies mid-stream.
    _guard: TokenGuard,
}

struct SubState {
    id: u64,
    events: EventStream,
    /// The write queue crossed the backpressure threshold: stop
    /// draining events (let the broadcaster's bounded buffer fill and
    /// count drops) until [`Event::Writable`] reports recovery.
    paused: bool,
}

/// What one completed delivery asks the dispatch loop to do — computed
/// under the connection-table borrow, acted on after it ends.
enum PumpStep {
    /// Write a `unit` response; `bool` = that was the final delivery.
    Unit(String, bool),
    /// An error delivery was recorded; `bool` = final delivery.
    Recorded(bool),
    /// No delivery queued.
    Idle,
}

/// The reactor dispatch loop: the daemon's single I/O thread. Owns the
/// per-connection protocol state and interprets reactor events; the
/// engine's worker threads only ever touch it through coalescing
/// notify wakeups.
struct Dispatcher<'a, T: Transport> {
    shared: &'a ServiceShared,
    reactor: &'a mut Reactor<T::Stream>,
    conns: HashMap<u64, Conn>,
    draining: bool,
}

impl<T: Transport> Dispatcher<'_, T> {
    fn run(mut self) {
        loop {
            if self.draining && self.reactor.is_empty() {
                // The registration table is empty, but the final close
                // notifications may still be queued: drain them so every
                // connection's teardown (gauge decrement, lifecycle
                // event) lands before serve returns its summary.
                while let Some(event) = self.reactor.poll_timeout(Duration::ZERO) {
                    self.dispatch(event);
                }
                break;
            }
            let event = self.reactor.poll();
            self.dispatch(event);
            self.sync_reactor_counters();
        }
        self.sync_reactor_counters();
    }

    fn dispatch(&mut self, event: Event) {
        match event {
            Event::Accepted(token) => self.on_accepted(token),
            Event::Line(token, line) => self.on_line(token, line),
            // The reactor already stopped framing this connection; it
            // closes once the answer is flushed and the peer hangs up.
            Event::LineTooLong(token) => self.respond(
                token,
                &Response::failure(
                    0,
                    format!("{}; closing the connection", FrameError::TooLong),
                ),
            ),
            Event::Notify(token) => self.on_notify(token),
            Event::Timer(token) => self.on_timer(token),
            Event::Writable(token) => self.on_writable(token),
            Event::Closed(token, reason) => self.on_closed(token, reason),
            Event::Rejected(reason) => {
                eprintln!("campaign service: refusing connection: {reason}")
            }
            Event::Shutdown => self.begin_drain(false),
        }
    }

    /// Mirror the reactor's counters into the shared atomics that
    /// `stats`, `metrics`, and the final summary read.
    fn sync_reactor_counters(&mut self) {
        self.shared
            .reactor_notify_wakeups
            .store(self.reactor.notify_wakeups(), Ordering::Relaxed);
        self.shared
            .reactor_timer_wakeups
            .store(self.reactor.timer_wakeups(), Ordering::Relaxed);
        self.shared
            .reactor_connections
            .store(self.reactor.connections() as u64, Ordering::Relaxed);
    }

    fn on_accepted(&mut self, token: Token) {
        self.shared.connections.fetch_add(1, Ordering::Relaxed);
        self.shared
            .active_connections
            .fetch_add(1, Ordering::Relaxed);
        self.shared
            .engine
            .events()
            .publish(&CampaignEvent::new(EventKind::ConnectionOpened).with_connection(token.id()));
        self.conns.insert(
            token.id(),
            Conn {
                state: ConnState::Command,
                deferred: VecDeque::new(),
            },
        );
        if self.draining {
            // Raced past the shutdown flag in the accept thread:
            // counted, then drained immediately with a clean EOF.
            self.reactor.close_after_flush(token);
        }
    }

    fn on_closed(&mut self, token: Token, reason: Option<String>) {
        if let Some(reason) = reason {
            // One connection's I/O failure (a client vanishing
            // mid-response, say) must never take the daemon — and its
            // warm cache — down with it.
            eprintln!("campaign service: connection error: {reason}");
        }
        // Dropping the state runs the teardown the threaded service got
        // from stack unwinding: a mid-run subscription cancels whatever
        // of the run nobody else wants, the token guard deregisters,
        // a subscriber's event stream unregisters.
        if self.conns.remove(&token.id()).is_some() {
            self.shared
                .active_connections
                .fetch_sub(1, Ordering::Relaxed);
            self.shared.engine.events().publish(
                &CampaignEvent::new(EventKind::ConnectionClosed).with_connection(token.id()),
            );
        }
    }

    fn on_line(&mut self, token: Token, line: String) {
        let line = {
            let Some(conn) = self.conns.get_mut(&token.id()) else {
                return;
            };
            match &conn.state {
                // Pipelined while a run streams: replay after the run.
                ConnState::Running(_) => {
                    conn.deferred.push_back(line);
                    return;
                }
                // The connection is dedicated to the event stream; a
                // line that raced the subscribe ack is discarded.
                ConnState::Subscribing(_) => return,
                ConnState::Command => line,
            }
        };
        self.handle_command_line(token, line);
    }

    fn on_notify(&mut self, token: Token) {
        let running = {
            let Some(conn) = self.conns.get(&token.id()) else {
                return;
            };
            matches!(conn.state, ConnState::Running(_))
        };
        if running {
            self.pump_run(token);
        } else {
            self.pump_events(token);
        }
    }

    fn on_timer(&mut self, token: Token) {
        // The only armed timer is the subscribe heartbeat — both a
        // liveness signal for the watcher and how the daemon notices a
        // vanished client promptly (the heartbeat write fails).
        let line = {
            let Some(conn) = self.conns.get(&token.id()) else {
                return;
            };
            let ConnState::Subscribing(sub) = &conn.state else {
                return;
            };
            Response::ok(sub.id, "event")
                .with_body(CampaignEvent::new(EventKind::Heartbeat).to_json())
                .to_line()
        };
        self.reactor.enqueue_write(token, line.as_bytes());
        if self.reactor.is_registered(token) {
            self.reactor.set_timer(token, SUBSCRIBE_HEARTBEAT);
        }
    }

    fn on_writable(&mut self, token: Token) {
        let resumed = {
            let Some(conn) = self.conns.get_mut(&token.id()) else {
                return;
            };
            match &mut conn.state {
                ConnState::Subscribing(sub) if sub.paused => {
                    sub.paused = false;
                    true
                }
                _ => false,
            }
        };
        if resumed {
            self.pump_events(token);
        }
    }

    fn respond(&mut self, token: Token, response: &Response) {
        self.reactor
            .enqueue_write(token, response.to_line().as_bytes());
    }

    fn handle_command_line(&mut self, token: Token, line: String) {
        if line.trim().is_empty() {
            // Nothing to answer, so no flush will re-check an EOF-seen
            // connection for close — sweep explicitly.
            self.reactor.sweep_eof(token);
            return;
        }
        let request = match Request::from_line(&line) {
            Ok(request) => request,
            Err(error) => {
                // Id 0 is reserved for lines we could not correlate.
                self.respond(token, &Response::failure(0, error.to_string()));
                return;
            }
        };
        self.shared.requests.fetch_add(1, Ordering::Relaxed);
        match request.method.as_str() {
            "ping" => self.respond(token, &Response::ok(request.id, "pong")),
            "stats" => {
                self.sync_reactor_counters();
                let body = stats_body(
                    &self.shared.cache.stats(),
                    self.shared.cache.model_digest(),
                    &self.shared.summary(),
                    &self.shared.gauges(),
                );
                self.respond(token, &Response::ok(request.id, "stats").with_body(body));
            }
            "metrics" => {
                self.sync_reactor_counters();
                let text = metrics_text(self.shared);
                self.respond(
                    token,
                    &Response::ok(request.id, "metrics").with_body(JsonValue::String(text)),
                );
            }
            "health" => {
                let body = self.shared.health().to_body();
                self.respond(token, &Response::ok(request.id, "health").with_body(body));
            }
            "subscribe" => self.handle_subscribe(token, &request),
            "run" => self.handle_run(token, &request),
            "cancel" => self.handle_cancel(token, &request),
            "shutdown" => {
                self.respond(token, &Response::ok(request.id, "bye"));
                self.begin_drain(true);
            }
            other => self.respond(
                token,
                &Response::failure(request.id, format!("unknown method '{other}'")),
            ),
        }
    }

    /// Serve one `run` request: parse the spec (plus optional
    /// `priority`, `deadline_ms` and `run_token` fields), submit its
    /// plan to the shared engine with this connection's notify hook,
    /// and switch the connection to the `Running` state — `unit`
    /// responses are then written from notify wakeups the moment each
    /// unit completes, and a concurrent client's overlapping units
    /// coalesce onto the same computations. The terminal response is
    /// `done` on success, a typed `busy` when admission rejected the
    /// run, a typed `cancelled` / `deadline_exceeded` when scheduling
    /// tore it down, or an in-band `error` after a unit failure. Spec
    /// failures answer in-band without touching the engine.
    fn handle_run(&mut self, token: Token, request: &Request) {
        let (spec, run_options) = match &request.body {
            Some(body) => {
                let spec = match CampaignSpec::from_json_value(body) {
                    Ok(spec) => spec,
                    Err(error) => {
                        return self
                            .respond(token, &Response::failure(request.id, error.to_string()));
                    }
                };
                match parse_run_options(body) {
                    Ok(options) => (spec, options),
                    Err(error) => {
                        return self.respond(token, &Response::failure(request.id, error));
                    }
                }
            }
            None => {
                return self.respond(
                    token,
                    &Response::failure(request.id, "run request has no spec body"),
                );
            }
        };
        let plan = match crate::scheduler::expand_plan(&spec) {
            Ok(plan) => plan,
            Err(error) => {
                return self.respond(token, &Response::failure(request.id, error.to_string()));
            }
        };
        let Some(notify) = self.reactor.notify_handle(token) else {
            return; // the connection died under us; its Closed event is queued
        };

        let started = Instant::now();
        let subscription = match self.shared.engine.submit_with_notify(
            &plan.units,
            &self.shared.cache,
            run_options.options,
            Some(notify.callback()),
        ) {
            Ok(subscription) => subscription,
            Err(AdmitError::Busy {
                queued,
                cap,
                needed,
            }) => {
                // Typed rejection: the engine is exactly as it was, the
                // client knows to back off and retry.
                return self.respond(
                    token,
                    &Response::ok(request.id, "busy").with_body(JsonValue::Object(vec![
                        ("queued".to_string(), JsonValue::integer(queued as u64)),
                        ("cap".to_string(), JsonValue::integer(cap as u64)),
                        ("needed".to_string(), JsonValue::integer(needed as u64)),
                    ])),
                );
            }
        };
        // Register the run's cancel handle under its token (if any)
        // only *after* admission, and hold it in a guard so every exit
        // path — done, error, dead socket — deregisters it. Registering
        // a token that is already active is refused (the first run owns
        // it).
        let mut guard = TokenGuard {
            cancels: Arc::clone(&self.shared.cancels),
            token: None,
        };
        if let Some(run_token) = run_options.token {
            let mut cancels = self
                .shared
                .cancels
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if cancels.contains_key(&run_token) {
                drop(cancels);
                return self.respond(
                    token,
                    &Response::failure(
                        request.id,
                        format!("run_token '{run_token}' is already active"),
                    ),
                );
            }
            cancels.insert(run_token.clone(), subscription.cancel_handle());
            drop(cancels);
            guard.token = Some(run_token);
        }
        let slots = (0..plan.len()).map(|_| None).collect();
        let run = RunState {
            id: request.id,
            plan,
            subscription,
            slots,
            first_error: None,
            received: 0,
            started,
            _guard: guard,
        };
        let Some(conn) = self.conns.get_mut(&token.id()) else {
            return; // dropping `run` cancels the fresh subscription
        };
        conn.state = ConnState::Running(run);
        // The protocol is sequential per connection: the next request
        // must not be framed until this response stream finishes.
        self.reactor.set_read_interest(token, ReadInterest::Paused);
        // Submit-time cache hits were delivered before the subscription
        // returned; their notify fired into a not-yet-polled channel.
        self.pump_run(token);
    }

    /// Drain every delivery the engine has queued for the connection's
    /// run, writing `unit` responses as they land; on the final
    /// delivery, finish the run with its terminal response.
    fn pump_run(&mut self, token: Token) {
        loop {
            let step = {
                let Some(conn) = self.conns.get_mut(&token.id()) else {
                    return;
                };
                let ConnState::Running(run) = &mut conn.state else {
                    return;
                };
                let expected = run.subscription.expected();
                match run.subscription.try_recv() {
                    Ok(delivery) => {
                        run.received += 1;
                        let done = run.received == expected;
                        match delivery.outcome {
                            Ok(outcome) => {
                                let unit = &run.plan.units[delivery.index];
                                let report = UnitReport {
                                    index: unit.index,
                                    key: unit.key.clone(),
                                    source: outcome.source,
                                    wall: outcome.wall,
                                    output: outcome.output,
                                };
                                let line = unit_line(run.id, &report);
                                run.slots[delivery.index] = Some(report);
                                PumpStep::Unit(line, done)
                            }
                            Err(error) => {
                                // The earliest-plan-index error becomes
                                // the terminal response, like the
                                // blocking assembly always did.
                                if run
                                    .first_error
                                    .as_ref()
                                    .map(|(index, _)| delivery.index < *index)
                                    .unwrap_or(true)
                                {
                                    run.first_error = Some((delivery.index, error));
                                }
                                PumpStep::Recorded(done)
                            }
                        }
                    }
                    Err(TryRecvError::Empty) => PumpStep::Idle,
                    Err(TryRecvError::Disconnected) => {
                        if run.received < expected {
                            // Deliveries are missing and no sender is
                            // left: the engine shut down underneath us.
                            run.first_error = Some((
                                0,
                                CampaignError::Worker("engine shut down mid-campaign".to_string()),
                            ));
                            PumpStep::Recorded(true)
                        } else {
                            PumpStep::Idle
                        }
                    }
                }
            };
            match step {
                PumpStep::Unit(line, done) => {
                    self.reactor.enqueue_write(token, line.as_bytes());
                    self.shared.units_streamed.fetch_add(1, Ordering::Relaxed);
                    if !self.reactor.is_registered(token) {
                        // The write failed (client vanished): its Closed
                        // event is queued, and dropping the run state
                        // there cancels whatever nobody else wants.
                        return;
                    }
                    if done {
                        return self.finish_run(token);
                    }
                }
                PumpStep::Recorded(done) => {
                    if done {
                        return self.finish_run(token);
                    }
                }
                PumpStep::Idle => return,
            }
        }
    }

    /// Every delivery is in: write the terminal response, release the
    /// run state (subscription, token guard), and hand the connection
    /// back to the command state — or into the drain, if one began
    /// while the run was streaming.
    fn finish_run(&mut self, token: Token) {
        let Some(conn) = self.conns.get_mut(&token.id()) else {
            return;
        };
        let state = std::mem::replace(&mut conn.state, ConnState::Command);
        let ConnState::Running(run) = state else {
            conn.state = state;
            return;
        };
        let RunState {
            id,
            plan,
            subscription,
            slots,
            first_error,
            started,
            _guard,
            received: _,
        } = run;
        let response = match first_error {
            Some((_, CampaignError::Cancelled { key })) => {
                Response::ok(id, "cancelled").with_body(JsonValue::Object(vec![(
                    "unit".to_string(),
                    JsonValue::String(key.to_string()),
                )]))
            }
            Some((_, CampaignError::DeadlineExceeded { key })) => {
                Response::ok(id, "deadline_exceeded").with_body(JsonValue::Object(vec![(
                    "unit".to_string(),
                    JsonValue::String(key.to_string()),
                )]))
            }
            Some((_, error)) => Response::failure(id, error.to_string()),
            None => {
                let mut units = Vec::with_capacity(plan.len());
                let mut missing = None;
                for (unit, slot) in plan.units.iter().zip(slots) {
                    match slot {
                        Some(report) => units.push(report),
                        None => {
                            missing = Some(format!("unit {} never reported", unit.key));
                            break;
                        }
                    }
                }
                match missing {
                    Some(message) => Response::failure(id, message),
                    None => {
                        let report = CampaignReport::new(
                            units,
                            self.shared.engine.workers().clamp(1, plan.len().max(1)),
                            started.elapsed(),
                            self.shared.cache.stats(),
                        );
                        self.shared.runs.fetch_add(1, Ordering::Relaxed);
                        Response::ok(id, "done")
                            .with_body(done_body(&report, self.shared.cache.model_digest()))
                    }
                }
            }
        };
        // The subscription resolved every unit; dropping it (and the
        // token guard) now is the threaded handler's end-of-run scope.
        drop(subscription);
        self.respond(token, &response);
        self.after_command(token);
    }

    /// The connection is back in the command state: replay requests
    /// that were pipelined behind the finished run, then restore read
    /// interest — or finish the drain's close for this connection.
    fn after_command(&mut self, token: Token) {
        loop {
            let line = {
                let Some(conn) = self.conns.get_mut(&token.id()) else {
                    return;
                };
                if !matches!(conn.state, ConnState::Command) {
                    return; // a replayed request became a run/subscribe
                }
                conn.deferred.pop_front()
            };
            match line {
                Some(line) => self.handle_command_line(token, line),
                None => break,
            }
        }
        if self.draining {
            self.reactor.close_after_flush(token);
        } else {
            // Re-framing buffered bytes happens inside the reactor, so
            // a request that arrived during the run is not lost; if the
            // peer already hung up, this surfaces the clean close.
            self.reactor.set_read_interest(token, ReadInterest::Framed);
        }
    }

    /// Serve one `cancel` request: look the token up in the active-run
    /// registry and cancel that run's engine subscription. Cancelling a
    /// token that is not active — never registered, or its run already
    /// finished — is *not* an error (the race against normal completion
    /// is inherent); the ack reports `active: false` and zero counts.
    fn handle_cancel(&mut self, token: Token, request: &Request) {
        let run_token = request
            .body
            .as_ref()
            .and_then(|body| body.get("token"))
            .and_then(JsonValue::as_str)
            .map(str::to_string);
        let Some(run_token) = run_token else {
            return self.respond(
                token,
                &Response::failure(request.id, "cancel request has no 'token'"),
            );
        };
        let handle = self
            .shared
            .cancels
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(&run_token)
            .cloned();
        let (active, outcome) = match handle {
            Some(handle) => (true, handle.cancel()),
            None => (false, Default::default()),
        };
        self.respond(
            token,
            &Response::ok(request.id, "cancelled").with_body(JsonValue::Object(vec![
                ("token".to_string(), JsonValue::String(run_token)),
                ("active".to_string(), JsonValue::Bool(active)),
                (
                    "waiters_cancelled".to_string(),
                    JsonValue::integer(outcome.waiters_cancelled as u64),
                ),
                (
                    "jobs_abandoned".to_string(),
                    JsonValue::integer(outcome.jobs_abandoned as u64),
                ),
            ])),
        );
    }

    /// Serve one `subscribe` request: acknowledge, then dedicate the
    /// connection to the event stream — reads switch to hangup-only
    /// watching, events are written from notify wakeups, and the idle
    /// heartbeat rides the reactor timer. A parked subscriber costs a
    /// table entry, not a thread, which is what lets one daemon hold
    /// thousands of them.
    fn handle_subscribe(&mut self, token: Token, request: &Request) {
        let Some(notify) = self.reactor.notify_handle(token) else {
            return;
        };
        let events = self
            .shared
            .engine
            .events()
            .subscribe_with_notify(SUBSCRIBE_BUFFER, notify.callback());
        self.respond(token, &Response::ok(request.id, "subscribed"));
        if !self.reactor.is_registered(token) {
            return; // the ack write failed; the stream unregisters here
        }
        let Some(conn) = self.conns.get_mut(&token.id()) else {
            return;
        };
        conn.state = ConnState::Subscribing(SubState {
            id: request.id,
            events,
            paused: false,
        });
        self.reactor.set_read_interest(token, ReadInterest::EofOnly);
        self.reactor.set_timer(token, SUBSCRIBE_HEARTBEAT);
    }

    /// Write every queued lifecycle event to the subscriber — stopping
    /// at the backpressure threshold, so a slow watcher fills the
    /// broadcaster's bounded buffer (whose counted drops are the
    /// documented overflow policy) instead of growing an unbounded
    /// write queue here.
    fn pump_events(&mut self, token: Token) {
        loop {
            let line = {
                let Some(conn) = self.conns.get_mut(&token.id()) else {
                    return;
                };
                let ConnState::Subscribing(sub) = &mut conn.state else {
                    return;
                };
                if sub.paused {
                    return;
                }
                if self.reactor.write_backlog(token) > WRITE_BACKLOG_THRESHOLD {
                    sub.paused = true;
                    return;
                }
                match sub.events.try_recv() {
                    Ok(event) => Some(
                        Response::ok(sub.id, "event")
                            .with_body(event.to_json())
                            .to_line(),
                    ),
                    Err(TryRecvError::Empty) => return,
                    // The broadcaster is gone (engine teardown): end the
                    // stream cleanly.
                    Err(TryRecvError::Disconnected) => None,
                }
            };
            match line {
                Some(line) => {
                    self.reactor.enqueue_write(token, line.as_bytes());
                    if !self.reactor.is_registered(token) {
                        return; // the write failed; Closed is queued
                    }
                    self.reactor.set_timer(token, SUBSCRIBE_HEARTBEAT);
                }
                None => {
                    self.reactor.close_after_flush(token);
                    return;
                }
            }
        }
    }

    /// Begin the shutdown drain (idempotent): flag it, wake the accept
    /// thread (when the trigger was a `shutdown` request — an accept
    /// give-up arrives with the thread already gone), half-close every
    /// read side, and close every connection that is not mid-`run` once
    /// its queued output flushes — the clean EOF idle clients and
    /// subscribers are promised. Mid-`run` connections finish streaming
    /// first and join the drain from `after_command`.
    fn begin_drain(&mut self, dial: bool) {
        if self.draining {
            return;
        }
        self.draining = true;
        self.shared.shutdown.store(true, Ordering::Relaxed);
        if dial {
            // The accept thread is parked in a blocking accept; dial
            // the self-dialable endpoint so it wakes, sees the flag,
            // and exits. If the dial fails (a host that cannot reach
            // even its own loopback), say so loudly: the accept thread
            // — and so the daemon — will not exit until the next real
            // connection arrives.
            if let Err(error) = T::connect(&self.shared.dial) {
                eprintln!(
                    "campaign service: shutdown wake-up dial to {} failed ({error}); \
                     the daemon drains on the next incoming connection",
                    self.shared.dial,
                );
            }
        }
        self.reactor.shutdown_reads();
        for token in self.reactor.tokens() {
            let mid_run = self
                .conns
                .get(&token.id())
                .is_some_and(|conn| matches!(conn.state, ConnState::Running(_)));
            if !mid_run {
                self.reactor.close_after_flush(token);
            }
        }
    }
}

/// Scheduling fields a `run` request may carry alongside its spec
/// (`priority`, `deadline_ms`, `run_token` — the spec parser ignores
/// sibling keys it does not know, so they ride in the same body).
struct RunRequestOptions {
    options: SubmitOptions,
    token: Option<String>,
}

fn parse_run_options(body: &JsonValue) -> Result<RunRequestOptions, String> {
    let priority = match body.get("priority").and_then(JsonValue::as_str) {
        Some(token) => {
            Priority::parse(token).ok_or_else(|| format!("unknown priority '{token}'"))?
        }
        None => Priority::Normal,
    };
    let deadline = match body.get("deadline_ms") {
        Some(value) => {
            let ms = value
                .as_u64()
                .ok_or_else(|| "deadline_ms must be a non-negative integer".to_string())?;
            Some(Duration::from_millis(ms))
        }
        None => None,
    };
    let token = body
        .get("run_token")
        .and_then(JsonValue::as_str)
        .map(str::to_string);
    Ok(RunRequestOptions {
        options: SubmitOptions { priority, deadline },
        token,
    })
}

/// Removes a `run_token` registration when the run ends, on every exit
/// path (including a dead client socket mid-stream).
struct TokenGuard {
    cancels: Arc<Mutex<HashMap<String, CancelHandle>>>,
    token: Option<String>,
}

impl Drop for TokenGuard {
    fn drop(&mut self) {
        if let Some(token) = self.token.take() {
            self.cancels
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .remove(&token);
        }
    }
}

/// How many events a `subscribe` connection may buffer before the
/// broadcaster starts dropping (and counting) events for it.
const SUBSCRIBE_BUFFER: usize = 1024;

/// Idle heartbeat period on a `subscribe` stream — both a liveness
/// signal for the watcher and how the daemon notices a vanished client
/// (the heartbeat write fails).
const SUBSCRIBE_HEARTBEAT: Duration = Duration::from_secs(5);

/// Render the full metrics exposition: service + engine counters, the
/// point-in-time gauges, and one latency histogram per experiment —
/// the same counter set `stats` reports, in scrapeable form.
fn metrics_text(shared: &ServiceShared) -> String {
    let summary = shared.summary();
    let gauges = shared.gauges();
    let cache = shared.cache.stats();
    let mut exp = Exposition::new();
    exp.counter(
        "oranges_connections_total",
        "Connections accepted over the daemon's lifetime.",
        &[],
        summary.connections,
    );
    exp.counter(
        "oranges_requests_total",
        "Requests dispatched (all methods).",
        &[],
        summary.requests,
    );
    exp.counter(
        "oranges_runs_total",
        "Run requests completed successfully.",
        &[],
        summary.runs,
    );
    exp.counter(
        "oranges_units_streamed_total",
        "Unit responses streamed to clients.",
        &[],
        summary.units_streamed,
    );
    exp.counter(
        "oranges_units_submitted_total",
        "Units submitted to the shared engine.",
        &[],
        summary.units_submitted,
    );
    exp.counter(
        "oranges_units_total",
        "Units resolved, by how the engine satisfied them.",
        &[("source", "computed")],
        summary.units_computed,
    );
    exp.counter(
        "oranges_units_total",
        "Units resolved, by how the engine satisfied them.",
        &[("source", "cache")],
        summary.unit_cache_hits,
    );
    exp.counter(
        "oranges_units_total",
        "Units resolved, by how the engine satisfied them.",
        &[("source", "coalesced")],
        summary.coalesced_joins,
    );
    exp.counter(
        "oranges_units_failed_total",
        "Units that failed (experiment error or contained panic).",
        &[],
        summary.units_failed,
    );
    exp.counter(
        "oranges_units_cancelled_total",
        "Queued units abandoned by cancellation before a worker ran them.",
        &[],
        summary.units_cancelled,
    );
    exp.counter(
        "oranges_deadline_expired_total",
        "Unit deliveries failed because their submission's deadline passed.",
        &[],
        summary.deadline_expired,
    );
    exp.counter(
        "oranges_submissions_rejected_total",
        "Whole submissions rejected at admission (engine queue full).",
        &[],
        summary.submissions_rejected,
    );
    exp.counter(
        "oranges_events_dropped_total",
        "Lifecycle events dropped on full subscriber buffers.",
        &[],
        summary.events_dropped,
    );
    exp.counter(
        "oranges_reactor_wakeups_total",
        "Reactor wakeups dispatched, by kind.",
        &[("kind", "notify")],
        summary.reactor_notify_wakeups,
    );
    exp.counter(
        "oranges_reactor_wakeups_total",
        "Reactor wakeups dispatched, by kind.",
        &[("kind", "timer")],
        summary.reactor_timer_wakeups,
    );
    exp.counter(
        "oranges_cache_lookups_total",
        "Warm-cache lookups, by result.",
        &[("result", "hit")],
        cache.hits,
    );
    exp.counter(
        "oranges_cache_lookups_total",
        "Warm-cache lookups, by result.",
        &[("result", "miss")],
        cache.misses,
    );
    exp.gauge(
        "oranges_cache_entries",
        "Entries in the warm cache.",
        &[],
        cache.entries as f64,
    );
    exp.gauge(
        "oranges_active_connections",
        "Connections currently open.",
        &[],
        summary.active_connections as f64,
    );
    exp.gauge(
        "oranges_queue_depth",
        "Engine jobs queued but not yet picked up by a worker.",
        &[],
        gauges.queue_depth as f64,
    );
    exp.gauge(
        "oranges_priority_queue_depth",
        "Engine jobs queued, by priority class.",
        &[("priority", "high")],
        gauges.queue_high as f64,
    );
    exp.gauge(
        "oranges_priority_queue_depth",
        "Engine jobs queued, by priority class.",
        &[("priority", "normal")],
        gauges.queue_normal as f64,
    );
    exp.gauge(
        "oranges_priority_queue_depth",
        "Engine jobs queued, by priority class.",
        &[("priority", "batch")],
        gauges.queue_batch as f64,
    );
    exp.gauge(
        "oranges_units_inflight",
        "Units currently in flight (queued or computing).",
        &[],
        gauges.units_inflight as f64,
    );
    exp.gauge(
        "oranges_event_subscribers",
        "Live event subscribers.",
        &[],
        gauges.event_subscribers as f64,
    );
    exp.gauge(
        "oranges_workers_alive",
        "Engine worker threads still running.",
        &[],
        gauges.workers_alive as f64,
    );
    exp.gauge(
        "oranges_reactor_registered_connections",
        "Connections registered in the service reactor's table.",
        &[],
        gauges.reactor_registered_connections as f64,
    );
    exp.gauge(
        "oranges_workers_configured",
        "Engine worker threads configured at bind.",
        &[],
        shared.engine.workers() as f64,
    );
    exp.gauge(
        "oranges_build_info",
        "Constant 1, labeled with the model-constants digest.",
        &[("model_digest", shared.cache.model_digest())],
        1.0,
    );
    for (experiment, snapshot) in shared.engine.latency_snapshots() {
        exp.histogram(
            "oranges_unit_latency_seconds",
            "Compute wall time per unit, by experiment.",
            &[("experiment", &experiment)],
            &snapshot,
        );
    }
    exp.finish()
}

/// The `unit` response line: the unit's coordinates plus its full
/// provenance-stamped sets — exactly the envelope shape
/// [`ExperimentOutput::from_json_value`] rebuilds on the client.
///
/// The envelope and the body fields before `sets` go through the
/// emitter; `sets` is the unit's cached canonical JSON, spliced in as
/// bytes rather than parsed into a tree and emitted again. That is
/// byte-identical to emitting the whole tree, because `sets` is the
/// body's last field and `output.json` is emitter output, which never
/// holds a raw newline.
fn unit_line(id: u64, unit: &UnitReport) -> String {
    let mut line = Response::ok(id, "unit")
        .with_body(JsonValue::Object(unit_head(unit)))
        .to_line();
    // Reopen the body: drop its closing brace, the envelope's, and the
    // newline.
    line.truncate(line.len() - "}}\n".len());
    line.reserve(unit.output.json.len() + ",\"sets\":}}\n".len());
    line.push_str(",\"sets\":");
    line.push_str(&unit.output.json);
    line.push_str("}}\n");
    line
}

/// The `unit` body fields before `sets`, in wire order.
fn unit_head(unit: &UnitReport) -> Vec<(String, JsonValue)> {
    let mut fields = vec![
        ("index".to_string(), JsonValue::integer(unit.index as u64)),
        ("id".to_string(), JsonValue::String(unit.key.id.clone())),
        (
            "params".to_string(),
            JsonValue::String(unit.key.params.clone()),
        ),
        (
            "source".to_string(),
            JsonValue::String(unit.source.as_str().to_string()),
        ),
        ("from_cache".to_string(), JsonValue::Bool(unit.from_cache())),
    ];
    if let Some(wall) = unit.output.wall_time_s() {
        fields.push(("wall_time_s".to_string(), JsonValue::number(wall)));
    }
    if let Some(rendered) = &unit.output.rendered {
        fields.push(("rendered".to_string(), JsonValue::String(rendered.clone())));
    }
    fields
}

/// The `unit` body as a tree: the reference [`unit_line`] must match
/// byte for byte once emitted.
#[cfg(test)]
fn unit_body(unit: &UnitReport) -> JsonValue {
    let sets = json::parse(&unit.output.json).expect("canonical JSON parses");
    let mut fields = unit_head(unit);
    fields.push(("sets".to_string(), sets));
    JsonValue::Object(fields)
}

/// The `done` response body: campaign totals, the value-identity
/// fingerprint, and the daemon's model-constants digest (so a remote
/// caller can apply the versioned-cache staleness rule).
fn done_body(report: &CampaignReport, model_digest: &str) -> JsonValue {
    JsonValue::Object(vec![
        (
            "units".to_string(),
            JsonValue::integer(report.units.len() as u64),
        ),
        (
            "computed_units".to_string(),
            JsonValue::integer(report.computed_units() as u64),
        ),
        (
            "coalesced_units".to_string(),
            JsonValue::integer(report.coalesced_units() as u64),
        ),
        (
            "fingerprint".to_string(),
            JsonValue::String(report.fingerprint()),
        ),
        (
            "model_digest".to_string(),
            JsonValue::String(model_digest.to_string()),
        ),
        (
            "wall_s".to_string(),
            JsonValue::number(report.wall.as_secs_f64()),
        ),
        ("cache".to_string(), cache_body(&report.cache)),
    ])
}

fn cache_body(stats: &CacheStats) -> JsonValue {
    JsonValue::Object(vec![
        ("hits".to_string(), JsonValue::integer(stats.hits)),
        ("misses".to_string(), JsonValue::integer(stats.misses)),
        (
            "entries".to_string(),
            JsonValue::integer(stats.entries as u64),
        ),
    ])
}

fn stats_body(
    stats: &CacheStats,
    model_digest: &str,
    summary: &ServiceSummary,
    gauges: &ServiceGauges,
) -> JsonValue {
    JsonValue::Object(vec![
        ("cache".to_string(), cache_body(stats)),
        (
            "model_digest".to_string(),
            JsonValue::String(model_digest.to_string()),
        ),
        (
            "connections".to_string(),
            JsonValue::integer(summary.connections),
        ),
        (
            "active_connections".to_string(),
            JsonValue::integer(summary.active_connections),
        ),
        ("requests".to_string(), JsonValue::integer(summary.requests)),
        ("runs".to_string(), JsonValue::integer(summary.runs)),
        (
            "units_streamed".to_string(),
            JsonValue::integer(summary.units_streamed),
        ),
        (
            "units_computed".to_string(),
            JsonValue::integer(summary.units_computed),
        ),
        (
            "unit_cache_hits".to_string(),
            JsonValue::integer(summary.unit_cache_hits),
        ),
        (
            "coalesced_joins".to_string(),
            JsonValue::integer(summary.coalesced_joins),
        ),
        (
            "units_submitted".to_string(),
            JsonValue::integer(summary.units_submitted),
        ),
        (
            "units_failed".to_string(),
            JsonValue::integer(summary.units_failed),
        ),
        (
            "units_cancelled".to_string(),
            JsonValue::integer(summary.units_cancelled),
        ),
        (
            "deadline_expired".to_string(),
            JsonValue::integer(summary.deadline_expired),
        ),
        (
            "submissions_rejected".to_string(),
            JsonValue::integer(summary.submissions_rejected),
        ),
        (
            "events_dropped".to_string(),
            JsonValue::integer(summary.events_dropped),
        ),
        (
            "reactor_notify_wakeups".to_string(),
            JsonValue::integer(summary.reactor_notify_wakeups),
        ),
        (
            "reactor_timer_wakeups".to_string(),
            JsonValue::integer(summary.reactor_timer_wakeups),
        ),
        (
            "queue_depth".to_string(),
            JsonValue::integer(gauges.queue_depth),
        ),
        (
            "queue_high".to_string(),
            JsonValue::integer(gauges.queue_high),
        ),
        (
            "queue_normal".to_string(),
            JsonValue::integer(gauges.queue_normal),
        ),
        (
            "queue_batch".to_string(),
            JsonValue::integer(gauges.queue_batch),
        ),
        (
            "units_inflight".to_string(),
            JsonValue::integer(gauges.units_inflight),
        ),
        (
            "event_subscribers".to_string(),
            JsonValue::integer(gauges.event_subscribers),
        ),
        (
            "workers_alive".to_string(),
            JsonValue::integer(gauges.workers_alive),
        ),
        (
            "reactor_registered_connections".to_string(),
            JsonValue::integer(gauges.reactor_registered_connections),
        ),
    ])
}

fn parse_cache_body(value: &JsonValue) -> Result<CacheStats, ServiceError> {
    let field = |name: &str| {
        value
            .get(name)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| ServiceError::Protocol(format!("cache body has no integer '{name}'")))
    };
    Ok(CacheStats {
        hits: field("hits")?,
        misses: field("misses")?,
        entries: field("entries")? as usize,
    })
}

/// One unit as served over the wire, rebuilt into the same typed
/// output a local campaign would produce.
#[derive(Debug, Clone)]
pub struct ServedUnit {
    /// Plan position.
    pub index: usize,
    /// Content key.
    pub key: UnitKey,
    /// How the daemon's engine satisfied the unit.
    pub source: UnitSource,
    /// The rebuilt output — value-identical to a locally computed one.
    pub output: ExperimentOutput,
}

impl ServedUnit {
    /// Whether the daemon answered without computing (cache hit or
    /// coalesced join) — derived from [`source`](ServedUnit::source), so
    /// the two can never disagree (the wire carries both; the parser
    /// rejects a contradictory pair).
    pub fn from_cache(&self) -> bool {
        self.source.from_cache()
    }
}

/// What one `run` request returned.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Served units, in plan order (the daemon streams them in
    /// completion order; the client reassembles by index).
    pub units: Vec<ServedUnit>,
    /// How many units the daemon had to compute (0 = fully warm).
    pub computed_units: usize,
    /// How many units coalesced onto another request's in-flight
    /// computation.
    pub coalesced_units: usize,
    /// The daemon-side [`CampaignReport::fingerprint`].
    pub fingerprint: String,
    /// The daemon's model-constants digest — results computed under a
    /// different digest are *stale* to this workspace (the same rule
    /// [`ResultCache::load_checked`] applies to disk files).
    pub model_digest: String,
    /// Daemon cache statistics after the run.
    pub cache: CacheStats,
}

/// Client-side scheduling options for a `run` request — the wire twin
/// of the engine's [`SubmitOptions`], plus an optional *run token* the
/// submitter (or anyone who knows the token) can [`cancel`] with from
/// another connection.
///
/// [`cancel`]: ServiceClient::cancel
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Scheduling class for every unit of the run.
    pub priority: Priority,
    /// Fail deliveries still pending after this many milliseconds.
    pub deadline_ms: Option<u64>,
    /// Token registering the run for out-of-band cancellation. Must be
    /// unique among *active* runs on the daemon; reusable once the run
    /// ends.
    pub run_token: Option<String>,
}

impl RunOptions {
    /// Options at the given priority, no deadline, no token.
    pub fn priority(priority: Priority) -> Self {
        RunOptions {
            priority,
            ..RunOptions::default()
        }
    }

    /// Set a delivery deadline in milliseconds.
    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_ms = Some(ms);
        self
    }

    /// Register the run under a cancellation token.
    pub fn with_token(mut self, token: impl Into<String>) -> Self {
        self.run_token = Some(token.into());
        self
    }
}

/// The daemon's acknowledgement of a `cancel` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CancelAck {
    /// Whether the token named an active run when the cancel landed.
    /// `false` is not an error — the run may simply have finished first.
    pub active: bool,
    /// Pending deliveries the cancel tore down.
    pub waiters_cancelled: u64,
    /// Queued jobs abandoned outright (no other submission wanted them).
    pub jobs_abandoned: u64,
}

/// Daemon-side statistics from a `stats` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceStats {
    /// Cache statistics.
    pub cache: CacheStats,
    /// The daemon's model-constants digest.
    pub model_digest: String,
    /// Cumulative service + engine counters.
    pub summary: ServiceSummary,
    /// Point-in-time gauges at the moment the daemon answered.
    pub gauges: ServiceGauges,
}

/// A blocking client for the service protocol, generic over the same
/// [`Transport`] the daemon binds.
pub struct ServiceClient<T: Transport> {
    reader: BufReader<T::Stream>,
    writer: T::Stream,
    next_id: u64,
}

impl<T: Transport> ServiceClient<T> {
    /// Connect to a serving daemon. Bare paths convert to `unix:`
    /// endpoints; parse a string for TCP
    /// (`"tcp:host:port".parse::<Endpoint>()`).
    pub fn connect(endpoint: impl Into<Endpoint>) -> Result<Self, ServiceError> {
        let endpoint = endpoint.into();
        let stream =
            T::connect(&endpoint).map_err(|e| io_err(&format!("connecting {endpoint}"), e))?;
        let writer = stream
            .try_clone()
            .map_err(|e| io_err("cloning connection", e))?;
        Ok(ServiceClient {
            reader: BufReader::new(stream),
            writer,
            next_id: 1,
        })
    }

    fn send(&mut self, method: &str, body: Option<JsonValue>) -> Result<u64, ServiceError> {
        let id = self.next_id;
        self.next_id += 1;
        let mut request = Request::new(id, method);
        if let Some(body) = body {
            request = request.with_body(body);
        }
        self.writer
            .write_all(request.to_line().as_bytes())
            .map_err(|e| io_err("writing request", e))?;
        Ok(id)
    }

    fn read_response(&mut self, id: u64) -> Result<Response, ServiceError> {
        let mut line = String::new();
        let read = self
            .reader
            .read_line(&mut line)
            .map_err(|e| io_err("reading response", e))?;
        if read == 0 {
            return Err(ServiceError::Protocol(
                "server closed the connection".into(),
            ));
        }
        let response = Response::from_line(&line)?;
        if response.id != id {
            return Err(ServiceError::Protocol(format!(
                "response id {} does not match request id {id}",
                response.id
            )));
        }
        if let Some(message) = &response.error {
            return Err(ServiceError::Remote(message.clone()));
        }
        Ok(response)
    }

    /// Submit a spec and collect the full streamed answer. Units arrive
    /// in completion order and are reassembled into plan order; pass an
    /// observer to [`run_streamed`](ServiceClient::run_streamed) to see
    /// them as they land.
    pub fn run(&mut self, spec: &CampaignSpec) -> Result<RunOutcome, ServiceError> {
        self.run_streamed(spec, |_| {})
    }

    /// [`run`](ServiceClient::run) with explicit scheduling options —
    /// priority class, delivery deadline, cancellation token.
    pub fn run_with(
        &mut self,
        spec: &CampaignSpec,
        options: &RunOptions,
    ) -> Result<RunOutcome, ServiceError> {
        self.run_streamed_with(spec, options, |_| {})
    }

    /// Submit a spec and invoke `on_unit` for every `unit` response as
    /// it is read off the wire — i.e. in the order the daemon's
    /// engine completed them, long before the campaign is done.
    pub fn run_streamed(
        &mut self,
        spec: &CampaignSpec,
        on_unit: impl FnMut(&ServedUnit),
    ) -> Result<RunOutcome, ServiceError> {
        self.run_streamed_with(spec, &RunOptions::default(), on_unit)
    }

    /// [`run_streamed`](ServiceClient::run_streamed) with explicit
    /// scheduling options. Typed terminal responses surface as typed
    /// errors: `busy` → [`ServiceError::Busy`], `cancelled` →
    /// [`ServiceError::Cancelled`], `deadline_exceeded` →
    /// [`ServiceError::DeadlineExceeded`].
    pub fn run_streamed_with(
        &mut self,
        spec: &CampaignSpec,
        options: &RunOptions,
        mut on_unit: impl FnMut(&ServedUnit),
    ) -> Result<RunOutcome, ServiceError> {
        let mut body = json::parse(&spec.to_json())
            .map_err(|e| ServiceError::Protocol(format!("spec JSON did not re-parse: {e}")))?;
        if let JsonValue::Object(fields) = &mut body {
            if options.priority != Priority::Normal {
                fields.push((
                    "priority".to_string(),
                    JsonValue::String(options.priority.as_str().to_string()),
                ));
            }
            if let Some(ms) = options.deadline_ms {
                fields.push(("deadline_ms".to_string(), JsonValue::integer(ms)));
            }
            if let Some(token) = &options.run_token {
                fields.push(("run_token".to_string(), JsonValue::String(token.clone())));
            }
        }
        let id = self.send("run", Some(body))?;
        let mut units: Vec<ServedUnit> = Vec::new();
        loop {
            let response = self.read_response(id)?;
            let body = response
                .body
                .as_ref()
                .ok_or_else(|| ServiceError::Protocol(format!("{} has no body", response.kind)))?;
            match response.kind.as_str() {
                "unit" => {
                    let unit = parse_served_unit(body)?;
                    on_unit(&unit);
                    units.push(unit);
                }
                "done" => {
                    let str_field = |name: &str| {
                        body.get(name).and_then(JsonValue::as_str).ok_or_else(|| {
                            ServiceError::Protocol(format!("done body has no '{name}'"))
                        })
                    };
                    let int_field = |name: &str| {
                        body.get(name).and_then(JsonValue::as_u64).ok_or_else(|| {
                            ServiceError::Protocol(format!("done body has no '{name}'"))
                        })
                    };
                    let cache = parse_cache_body(body.get("cache").unwrap_or(&JsonValue::Null))?;
                    units.sort_by_key(|unit| unit.index);
                    return Ok(RunOutcome {
                        computed_units: int_field("computed_units")? as usize,
                        coalesced_units: int_field("coalesced_units")? as usize,
                        fingerprint: str_field("fingerprint")?.to_string(),
                        model_digest: str_field("model_digest")?.to_string(),
                        cache,
                        units,
                    });
                }
                "busy" => {
                    let int = |name: &str| body.get(name).and_then(JsonValue::as_u64);
                    return Err(ServiceError::Busy {
                        queued: int("queued").unwrap_or(0),
                        cap: int("cap").unwrap_or(0),
                    });
                }
                "cancelled" => {
                    let unit = body
                        .get("unit")
                        .and_then(JsonValue::as_str)
                        .unwrap_or("?")
                        .to_string();
                    return Err(ServiceError::Cancelled(unit));
                }
                "deadline_exceeded" => {
                    let unit = body
                        .get("unit")
                        .and_then(JsonValue::as_str)
                        .unwrap_or("?")
                        .to_string();
                    return Err(ServiceError::DeadlineExceeded(unit));
                }
                other => {
                    return Err(ServiceError::Protocol(format!(
                        "unexpected response kind '{other}' during run"
                    )))
                }
            }
        }
    }

    /// Cancel an active run by its token, from *any* connection. The
    /// ack is race-free: a token whose run already finished (or never
    /// existed) answers `active: false` with zero counts — cancelling
    /// late is not an error.
    pub fn cancel(&mut self, token: &str) -> Result<CancelAck, ServiceError> {
        let body = JsonValue::Object(vec![(
            "token".to_string(),
            JsonValue::String(token.to_string()),
        )]);
        let id = self.send("cancel", Some(body))?;
        let response = self.read_response(id)?;
        if response.kind != "cancelled" {
            return Err(ServiceError::Protocol(format!(
                "expected cancelled, got '{}'",
                response.kind
            )));
        }
        let body = response
            .body
            .as_ref()
            .ok_or_else(|| ServiceError::Protocol("cancelled has no body".into()))?;
        let int = |name: &str| {
            body.get(name)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| ServiceError::Protocol(format!("cancelled body has no '{name}'")))
        };
        Ok(CancelAck {
            active: body
                .get("active")
                .and_then(JsonValue::as_bool)
                .ok_or_else(|| ServiceError::Protocol("cancelled body has no 'active'".into()))?,
            waiters_cancelled: int("waiters_cancelled")?,
            jobs_abandoned: int("jobs_abandoned")?,
        })
    }

    /// Round-trip liveness probe.
    pub fn ping(&mut self) -> Result<(), ServiceError> {
        let id = self.send("ping", None)?;
        let response = self.read_response(id)?;
        match response.kind.as_str() {
            "pong" => Ok(()),
            other => Err(ServiceError::Protocol(format!(
                "expected pong, got '{other}'"
            ))),
        }
    }

    /// Fetch daemon statistics.
    pub fn stats(&mut self) -> Result<ServiceStats, ServiceError> {
        let id = self.send("stats", None)?;
        let response = self.read_response(id)?;
        let body = response
            .body
            .as_ref()
            .ok_or_else(|| ServiceError::Protocol("stats has no body".into()))?;
        let counter = |name: &str| {
            body.get(name)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| ServiceError::Protocol(format!("stats body has no '{name}'")))
        };
        Ok(ServiceStats {
            cache: parse_cache_body(body.get("cache").unwrap_or(&JsonValue::Null))?,
            model_digest: body
                .get("model_digest")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| ServiceError::Protocol("stats body has no 'model_digest'".into()))?
                .to_string(),
            summary: ServiceSummary {
                connections: counter("connections")?,
                active_connections: counter("active_connections")?,
                requests: counter("requests")?,
                runs: counter("runs")?,
                units_streamed: counter("units_streamed")?,
                units_computed: counter("units_computed")?,
                unit_cache_hits: counter("unit_cache_hits")?,
                coalesced_joins: counter("coalesced_joins")?,
                units_submitted: counter("units_submitted")?,
                units_failed: counter("units_failed")?,
                units_cancelled: counter("units_cancelled")?,
                deadline_expired: counter("deadline_expired")?,
                submissions_rejected: counter("submissions_rejected")?,
                events_dropped: counter("events_dropped")?,
                reactor_notify_wakeups: counter("reactor_notify_wakeups")?,
                reactor_timer_wakeups: counter("reactor_timer_wakeups")?,
            },
            gauges: ServiceGauges {
                queue_depth: counter("queue_depth")?,
                queue_high: counter("queue_high")?,
                queue_normal: counter("queue_normal")?,
                queue_batch: counter("queue_batch")?,
                units_inflight: counter("units_inflight")?,
                event_subscribers: counter("event_subscribers")?,
                workers_alive: counter("workers_alive")?,
                reactor_registered_connections: counter("reactor_registered_connections")?,
            },
        })
    }

    /// Fetch the daemon's metrics exposition (Prometheus text format).
    pub fn metrics(&mut self) -> Result<String, ServiceError> {
        let id = self.send("metrics", None)?;
        let response = self.read_response(id)?;
        if response.kind != "metrics" {
            return Err(ServiceError::Protocol(format!(
                "expected metrics, got '{}'",
                response.kind
            )));
        }
        response
            .body
            .as_ref()
            .and_then(JsonValue::as_str)
            .map(str::to_string)
            .ok_or_else(|| ServiceError::Protocol("metrics has no string body".into()))
    }

    /// Probe the daemon's liveness and readiness.
    pub fn health(&mut self) -> Result<HealthReport, ServiceError> {
        let id = self.send("health", None)?;
        let response = self.read_response(id)?;
        if response.kind != "health" {
            return Err(ServiceError::Protocol(format!(
                "expected health, got '{}'",
                response.kind
            )));
        }
        let body = response
            .body
            .as_ref()
            .ok_or_else(|| ServiceError::Protocol("health has no body".into()))?;
        HealthReport::from_body(body)
    }

    /// Subscribe to the daemon's live event stream, consuming the
    /// connection (the protocol dedicates it to the stream). `on_event`
    /// is invoked for every lifecycle event — heartbeats are filtered
    /// out — and returning `false` ends the subscription by dropping
    /// the connection. Returns `Ok(())` when the daemon drains (clean
    /// EOF) or the callback stops the stream.
    pub fn subscribe(
        mut self,
        mut on_event: impl FnMut(&CampaignEvent) -> bool,
    ) -> Result<(), ServiceError> {
        let id = self.send("subscribe", None)?;
        let ack = self.read_response(id)?;
        if ack.kind != "subscribed" {
            return Err(ServiceError::Protocol(format!(
                "expected subscribed, got '{}'",
                ack.kind
            )));
        }
        loop {
            let mut line = String::new();
            let read = self
                .reader
                .read_line(&mut line)
                .map_err(|e| io_err("reading event", e))?;
            if read == 0 {
                return Ok(()); // daemon drained — the stream's clean end
            }
            let response = Response::from_line(&line)?;
            if let Some(message) = &response.error {
                return Err(ServiceError::Remote(message.clone()));
            }
            if response.kind != "event" {
                return Err(ServiceError::Protocol(format!(
                    "expected event, got '{}'",
                    response.kind
                )));
            }
            let body = response
                .body
                .as_ref()
                .ok_or_else(|| ServiceError::Protocol("event has no body".into()))?;
            let event = CampaignEvent::from_json(body).map_err(ServiceError::Protocol)?;
            if event.kind == EventKind::Heartbeat {
                continue;
            }
            if !on_event(&event) {
                return Ok(());
            }
        }
    }

    /// Ask the daemon to exit after answering.
    pub fn shutdown(&mut self) -> Result<(), ServiceError> {
        let id = self.send("shutdown", None)?;
        let response = self.read_response(id)?;
        match response.kind.as_str() {
            "bye" => Ok(()),
            other => Err(ServiceError::Protocol(format!(
                "expected bye, got '{other}'"
            ))),
        }
    }

    /// Submit an arbitrary method (protocol testing).
    pub fn raw_request(
        &mut self,
        method: &str,
        body: Option<JsonValue>,
    ) -> Result<Response, ServiceError> {
        let id = self.send(method, body)?;
        self.read_response(id)
    }
}

fn parse_served_unit(body: &JsonValue) -> Result<ServedUnit, ServiceError> {
    let str_field = |name: &str| {
        body.get(name)
            .and_then(JsonValue::as_str)
            .ok_or_else(|| ServiceError::Protocol(format!("unit body has no '{name}'")))
    };
    let output = ExperimentOutput::from_json_value(body)
        .map_err(|e| ServiceError::Protocol(format!("unit body did not rebuild: {e}")))?;
    let source = UnitSource::parse(str_field("source")?)
        .ok_or_else(|| ServiceError::Protocol("unit body has an unknown 'source'".into()))?;
    // The wire carries `from_cache` alongside `source` for raw (non-Rust)
    // clients; the typed client derives it from `source`, so the pair
    // must agree — a contradiction means a daemon bug, not a preference.
    let from_cache = body
        .get("from_cache")
        .and_then(JsonValue::as_bool)
        .ok_or_else(|| ServiceError::Protocol("unit body has no 'from_cache'".into()))?;
    if from_cache != source.from_cache() {
        return Err(ServiceError::Protocol(format!(
            "unit body contradicts itself: source '{}' with from_cache {from_cache}",
            source.as_str()
        )));
    }
    Ok(ServedUnit {
        index: body
            .get("index")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| ServiceError::Protocol("unit body has no 'index'".into()))?
            as usize,
        key: UnitKey {
            id: str_field("id")?.to_string(),
            params: str_field("params")?.to_string(),
        },
        source,
        output,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use oranges_harness::metric::MetricSet;
    use std::sync::Arc as StdArc;

    /// A fig4 unit with the given coordinates, rendering and wall stamp.
    fn unit_with(params: &str, rendered: Option<&str>, wall: Option<f64>) -> UnitReport {
        let mut output = ExperimentOutput::from_sets(
            vec![MetricSet::for_chip("fig4", params, "M2")
                .with_implementation("GPU-MPS")
                .with_n(2048)
                .metric("gflops_per_watt", 214.5, "GFLOPS/W")],
            rendered.map(str::to_string),
        )
        .expect("serializable");
        if let Some(wall) = wall {
            output.stamp_wall_time(wall);
        }
        UnitReport {
            index: 3,
            key: UnitKey {
                id: "fig4".to_string(),
                params: params.to_string(),
            },
            source: UnitSource::Coalesced,
            wall: Duration::from_millis(1),
            output: StdArc::new(output),
        }
    }

    #[test]
    fn spliced_unit_lines_equal_the_emitted_tree() {
        let mut units = Vec::new();
        for rendered in [None, Some("chart")] {
            for wall in [None, Some(0.05)] {
                units.push(unit_with("chip=M2", rendered, wall));
            }
        }
        units.push(unit_with(
            "chip=\"M2\";path=a\\b;note=one\ntwo",
            Some("a \"quoted\" \\ chart\nline two"),
            Some(0.05),
        ));
        let spec = CampaignSpec::new(
            vec![crate::ExperimentKind::Fig3, crate::ExperimentKind::Fig4],
            oranges_soc::chip::ChipGeneration::ALL.to_vec(),
        );
        let report = crate::run_campaign(&spec, &ResultCache::new()).expect("campaign runs");
        assert_eq!(report.units.len(), 8);
        units.extend(report.units);
        for unit in &units {
            let tree = Response::ok(41, "unit")
                .with_body(unit_body(unit))
                .to_line();
            assert_eq!(unit_line(41, unit), tree, "{}", unit.key);
        }
    }

    #[test]
    fn unit_body_round_trips_through_the_client_parser() {
        let report = unit_with("chip=M2", Some("chart"), Some(0.05));
        let body = Response::from_line(&unit_line(3, &report))
            .expect("the unit line parses")
            .body
            .expect("a unit line has a body");
        let served = parse_served_unit(&body).expect("parses");
        assert_eq!(served.index, 3);
        assert_eq!(served.key, report.key);
        assert_eq!(served.source, UnitSource::Coalesced);
        assert!(served.from_cache());
        assert_eq!(
            served.output.json, report.output.json,
            "value identity crosses the wire"
        );
        assert_eq!(served.output.sets, report.output.sets);
        assert_eq!(served.output.rendered.as_deref(), Some("chart"));
        assert_eq!(served.output.wall_time_s(), Some(0.05));
    }

    #[test]
    fn done_and_stats_bodies_round_trip() {
        let report = CampaignReport::new(
            vec![],
            2,
            Duration::from_millis(10),
            CacheStats {
                hits: 5,
                misses: 2,
                entries: 2,
            },
        );
        let digest = oranges::paper::model_constants_digest();
        let body = done_body(&report, &digest);
        assert_eq!(
            body.get("fingerprint").and_then(JsonValue::as_str),
            Some(report.fingerprint().as_str())
        );
        assert_eq!(
            body.get("model_digest").and_then(JsonValue::as_str),
            Some(digest.as_str()),
            "done carries the versioned-cache digest"
        );
        assert_eq!(
            body.get("coalesced_units").and_then(JsonValue::as_u64),
            Some(0)
        );
        let cache = parse_cache_body(body.get("cache").unwrap()).unwrap();
        assert_eq!(cache, report.cache);

        let summary = ServiceSummary {
            connections: 3,
            active_connections: 1,
            requests: 4,
            runs: 2,
            units_streamed: 8,
            units_computed: 6,
            unit_cache_hits: 1,
            coalesced_joins: 1,
            units_submitted: 8,
            units_failed: 0,
            units_cancelled: 1,
            deadline_expired: 0,
            submissions_rejected: 2,
            events_dropped: 2,
            reactor_notify_wakeups: 7,
            reactor_timer_wakeups: 3,
        };
        let gauges = ServiceGauges {
            queue_depth: 3,
            queue_high: 1,
            queue_normal: 0,
            queue_batch: 2,
            units_inflight: 5,
            event_subscribers: 1,
            workers_alive: 4,
            reactor_registered_connections: 2,
        };
        let stats = stats_body(&report.cache, &digest, &summary, &gauges);
        assert_eq!(stats.get("runs").and_then(JsonValue::as_u64), Some(2));
        assert_eq!(
            stats.get("model_digest").and_then(JsonValue::as_str),
            Some(digest.as_str())
        );
        assert_eq!(
            stats.get("coalesced_joins").and_then(JsonValue::as_u64),
            Some(1)
        );
        assert_eq!(
            stats.get("active_connections").and_then(JsonValue::as_u64),
            Some(1)
        );
        assert_eq!(
            stats.get("units_submitted").and_then(JsonValue::as_u64),
            Some(8)
        );
        assert_eq!(
            stats.get("units_failed").and_then(JsonValue::as_u64),
            Some(0)
        );
        assert_eq!(
            stats.get("units_cancelled").and_then(JsonValue::as_u64),
            Some(1)
        );
        assert_eq!(
            stats
                .get("submissions_rejected")
                .and_then(JsonValue::as_u64),
            Some(2)
        );
        assert_eq!(
            stats.get("queue_batch").and_then(JsonValue::as_u64),
            Some(2)
        );
        assert_eq!(
            stats.get("events_dropped").and_then(JsonValue::as_u64),
            Some(2)
        );
        assert_eq!(
            stats.get("queue_depth").and_then(JsonValue::as_u64),
            Some(3)
        );
        assert_eq!(
            stats.get("units_inflight").and_then(JsonValue::as_u64),
            Some(5)
        );
        assert_eq!(
            stats.get("event_subscribers").and_then(JsonValue::as_u64),
            Some(1)
        );
        assert_eq!(
            stats.get("workers_alive").and_then(JsonValue::as_u64),
            Some(4)
        );
        assert_eq!(
            stats
                .get("reactor_notify_wakeups")
                .and_then(JsonValue::as_u64),
            Some(7)
        );
        assert_eq!(
            stats
                .get("reactor_timer_wakeups")
                .and_then(JsonValue::as_u64),
            Some(3)
        );
        assert_eq!(
            stats
                .get("reactor_registered_connections")
                .and_then(JsonValue::as_u64),
            Some(2)
        );
        assert_eq!(
            parse_cache_body(stats.get("cache").unwrap()).unwrap(),
            report.cache
        );
    }

    #[test]
    fn health_flips_to_not_ready_during_drain_and_on_dead_workers() {
        let endpoint: Endpoint = "tcp:127.0.0.1:7771".parse().unwrap();
        let healthy = HealthReport::of(false, 4, 4, 16, &endpoint);
        assert!(healthy.ready);
        assert!(!healthy.draining);

        // The shutdown drain flips readiness even with all workers up.
        let draining = HealthReport::of(true, 4, 4, 16, &endpoint);
        assert!(!draining.ready);
        assert!(draining.draining);

        // So does a dead worker thread, even outside a drain.
        let degraded = HealthReport::of(false, 3, 4, 16, &endpoint);
        assert!(!degraded.ready);
        assert!(!degraded.draining);

        // A cold cache is healthy.
        assert!(HealthReport::of(false, 1, 1, 0, &endpoint).ready);
    }

    #[test]
    fn health_body_round_trips_through_the_client_parser() {
        let endpoint: Endpoint = "unix:/tmp/oranges.sock".parse().unwrap();
        let report = HealthReport::of(true, 2, 4, 7, &endpoint);
        let parsed = HealthReport::from_body(&report.to_body()).expect("parses");
        assert_eq!(parsed, report);
        assert_eq!(parsed.endpoint, "unix:/tmp/oranges.sock");
        // A body missing a field is a typed protocol error.
        assert!(HealthReport::from_body(&JsonValue::Object(vec![])).is_err());
    }
}
