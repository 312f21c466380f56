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
//! binds whatever scheme its configured [`Endpoint`] names, and its
//! reactor accepts that transport's streams and holds them. Use
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
//! readiness reactor ([`oranges_harness::reactor`]) watches the
//! listener and owns every accepted stream as a nonblocking table
//! entry, so an idle connection or a parked `subscribe` stream costs a
//! table row, not an OS thread — the daemon runs the engine's workers
//! and the thread that calls [`CampaignService::serve`], whatever its
//! connection count. That thread waits in one `poll(2)` for
//! connections, requests, engine completions, `subscribe` heartbeats
//! and run deadlines alike. Compute stays
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
    AdmitError, CancelHandle, ExecutionEngine, Priority, Subscription, UnitSource,
};
use crate::plan::{Plan, UnitKey};
use crate::report::{CampaignReport, UnitReport};
use crate::scheduler::{Assembly, CampaignError};
use crate::spec::{CampaignSpec, SpecParseError};
use oranges::experiments::ExperimentOutput;
use oranges_harness::envelope::{EnvelopeError, Request, Response};
use oranges_harness::json::{self, JsonParseError, JsonValue, Member::Known, Tokenizer};
use oranges_harness::obs::{CampaignEvent, EventKind, EventStream, Exposition};
use oranges_harness::reactor::{
    Event, FrameError, Reactor, ReadInterest, Token, WRITE_BACKLOG_THRESHOLD,
};
use oranges_harness::transport::{Endpoint, Listener, Stream, Transport};
use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::fmt::{self, Write as _};
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
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

impl From<JsonParseError> for ServiceError {
    fn from(e: JsonParseError) -> Self {
        ServiceError::Envelope(e.into())
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

/// A response body member's value: how the daemon writes it into the
/// line and how the client reads it back.
pub(crate) trait WireValue {
    /// Append the value's JSON text.
    fn write(&self, line: &mut String);

    /// Read the next value into `self`: `false` when it has another type,
    /// which the caller rejects. `kind` names an object in its errors.
    fn read(&mut self, tokens: &mut Tokenizer<'_>, kind: &str) -> Result<bool, ServiceError>;
}

/// Implements [`WireValue`] for each scalar member type, from how its
/// value is written and the typed read that takes it.
macro_rules! wire_scalars {
    ($($ty:ty: |$value:ident, $line:ident| $write:expr, |$tokens:ident| $read:expr;)+) => {$(
        impl WireValue for $ty {
            fn write(&self, $line: &mut String) {
                let $value = self;
                $write;
            }

            fn read(&mut self, $tokens: &mut Tokenizer<'_>, _: &str) -> Result<bool, ServiceError> {
                let value: Option<$ty> = $read;
                Ok(value.map(|value| *self = value).is_some())
            }
        }
    )+};
}

wire_scalars! {
    u64: |value, line| write!(line, "{value}").expect("writing to a String cannot fail"),
        |tokens| tokens.u64_value()?;
    usize: |value, line| write!(line, "{value}").expect("writing to a String cannot fail"),
        |tokens| tokens.u64_value()?.and_then(|value| usize::try_from(value).ok());
    f64: |value, line| json::write_f64(line, *value),
        |tokens| tokens.f64_value()?.map(|(value, _)| value);
    bool: |value, line| line.push_str(if *value { "true" } else { "false" }),
        |tokens| match tokens.next_value()? {
            json::Token::Bool(flag) => Some(flag),
            _ => None,
        };
    String: |value, line| json::escape_into(line, value),
        |tokens| tokens.string_value()?.map(Cow::into_owned);
}

/// Write `members` as a JSON object, in their order.
fn write_object<'a>(
    line: &mut String,
    members: impl IntoIterator<Item = (&'static str, &'a dyn WireValue)>,
) {
    let mut separator = '{';
    for (name, value) in members {
        json::write_key(line, separator, name);
        value.write(line);
        separator = ',';
    }
    line.push('}');
}

/// Read the object at `tokens` into `members`, in any order: the first
/// occurrence of each is read, repeated and unknown members are skipped,
/// and a missing or mistyped member is an error naming it. `false` when
/// the value is not an object.
fn read_object(
    tokens: &mut Tokenizer<'_>,
    kind: &str,
    mut members: Vec<(&'static str, &mut dyn WireValue)>,
) -> Result<bool, ServiceError> {
    if !tokens.begin_object()? {
        return Ok(false);
    }
    let names: Vec<&str> = members.iter().map(|(name, _)| *name).collect();
    let mut unread = vec![true; names.len()];
    let mut next = 0;
    while let Some(member) = tokens.next_member(&names, &mut next)? {
        match member {
            Known(index) if unread[index] => {
                unread[index] = false;
                let (name, value) = &mut members[index];
                if !value.read(tokens, name)? {
                    let message = format!("{kind} body member '{name}' has the wrong type");
                    return Err(ServiceError::Protocol(message));
                }
            }
            _ => tokens.skip_value()?,
        }
    }
    let Some(index) = unread.iter().position(|&unread| unread) else {
        return Ok(true);
    };
    let message = format!("{kind} body has no '{}'", names[index]);
    Err(ServiceError::Protocol(message))
}

/// Declares every response body except `unit` and `event` once: each
/// struct's members in wire order, with their types. A `..{ … }` block
/// ends a body with [`service_series!`] structs, whose fields are written
/// as members of the body itself. An `impl` entry declares the members of
/// a struct defined elsewhere. Generates the structs, with `Default` (the
/// value a reader fills), and per struct its [`WireValue`] writer and
/// reader.
macro_rules! response_bodies {
    () => {};
    (
        impl $name:ident {
            $($field:ident: $ty:ty,)+
            $(..{$($series:ident: $series_ty:ty,)+})?
        }
        $($rest:tt)*
    ) => {
        impl WireValue for $name {
            fn write(&self, line: &mut String) {
                let members = vec![$((stringify!($field), &self.$field as &dyn WireValue)),+];
                write_object(line, members.into_iter()$($(.chain(self.$series.members()))+)?);
            }

            fn read(
                &mut self,
                tokens: &mut Tokenizer<'_>,
                kind: &str,
            ) -> Result<bool, ServiceError> {
                let members =
                    vec![$((stringify!($field), &mut self.$field as &mut dyn WireValue)),+];
                let members = members.into_iter()$($(.chain(self.$series.members_mut()))+)?;
                read_object(tokens, kind, members.collect())
            }
        }

        response_bodies!($($rest)*);
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$doc:meta])* $field:ident: $ty:ty,)+
            $(..{$($(#[$series_doc:meta])* $series:ident: $series_ty:ty,)+})?
        }
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        #[derive(Default)]
        $vis struct $name {
            $($(#[$doc])* $vis $field: $ty,)+
            $($($(#[$series_doc])* $vis $series: $series_ty,)+)?
        }

        response_bodies! {
            impl $name {
                $($field: $ty,)+
                $(..{$($series: $series_ty,)+})?
            }
            $($rest)*
        }
    };
}

/// How a series renders in the `metrics` exposition.
enum SeriesKind {
    Counter,
    Gauge,
}

/// The exposition sample one flat `stats` member renders as.
struct Series {
    kind: SeriesKind,
    /// The exposition family.
    family: &'static str,
    /// The family's `# HELP` text.
    help: &'static str,
    /// What tells this sample apart within a labeled family.
    labels: &'static [(&'static str, &'static str)],
}

/// Declares every flat `stats` series once. Each struct lists its
/// exposition families in `stats` member order: kind, family name and
/// HELP text, then each member's doc comment, field name (also its
/// `stats` member name) and, in a labeled family, its label. Generates
/// the structs, [`SERIES`], and per struct its member names and values
/// in member order, for the `stats` body in [`response_bodies!`].
macro_rules! service_series {
    ($(
        $(#[$meta:meta])*
        pub struct $name:ident {$(
            $kind:ident $family:literal $help:literal {$(
                $(#[$doc:meta])*
                $field:ident $(: $label:ident = $value:literal)?
            ),+ $(,)?}
        )+}
    )+) => {
        $(
            $(#[$meta])*
            #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
            pub struct $name {
                $($($(#[$doc])* pub $field: u64,)+)+
            }

            impl $name {
                /// The fields' values, in `stats` member order.
                pub(crate) fn values(&self) -> Vec<u64> {
                    vec![$($(self.$field),+),+]
                }

                /// The fields as `stats` members, in member order.
                pub(crate) fn members(&self) -> Vec<(&'static str, &dyn WireValue)> {
                    vec![$($((stringify!($field), &self.$field as &dyn WireValue)),+),+]
                }

                /// [`members`](Self::members), to read into.
                pub(crate) fn members_mut(&mut self) -> Vec<(&'static str, &mut dyn WireValue)> {
                    vec![$($((stringify!($field), &mut self.$field as &mut dyn WireValue)),+),+]
                }
            }
        )+

        /// Every flat `stats` series, in `stats` member order.
        const SERIES: &[Series] = &[$($($(Series {
            kind: SeriesKind::$kind,
            family: $family,
            help: $help,
            labels: &[$((stringify!($label), $value))?],
        },)+)+)+];
    };
}

service_series! {
    /// Cumulative service counters, reported by `stats` responses and
    /// returned by [`CampaignService::serve`] on shutdown.
    pub struct ServiceSummary {
        Counter "oranges_connections_total" "Connections accepted over the daemon's lifetime." {
            /// Connections accepted over the daemon's lifetime.
            connections,
        }
        Gauge "oranges_active_connections" "Connections currently open." {
            /// Connections currently open (0 in the final summary).
            active_connections,
        }
        Counter "oranges_requests_total" "Requests dispatched (all methods)." {
            /// Requests dispatched (all methods).
            requests,
        }
        Counter "oranges_runs_total" "Run requests completed successfully." {
            /// `run` requests completed successfully.
            runs,
        }
        Counter "oranges_units_streamed_total" "Unit responses streamed to clients." {
            /// `unit` responses streamed.
            units_streamed,
        }
        Counter "oranges_units_total" "Units resolved, by how the engine satisfied them." {
            /// Units the shared engine actually computed.
            units_computed: source = "computed",
            /// Units served from the cache at submit time.
            unit_cache_hits: source = "cache",
            /// Units that coalesced onto another request's in-flight
            /// computation — the cross-request dedupe proof.
            coalesced_joins: source = "coalesced",
        }
        Counter "oranges_units_submitted_total" "Units submitted to the shared engine." {
            /// Units submitted to the shared engine across all requests (every
            /// one resolves to computed, cache hit, or coalesced join).
            units_submitted,
        }
        Counter "oranges_units_failed_total"
            "Units that failed (experiment error or contained panic)." {
            /// Units that failed (experiment error or contained panic).
            units_failed,
        }
        Counter "oranges_units_cancelled_total"
            "Queued units abandoned by cancellation before a worker ran them." {
            /// Queued computations abandoned by cancellation or deadline
            /// expiry before a worker picked them up.
            units_cancelled,
        }
        Counter "oranges_deadline_expired_total"
            "Unit deliveries failed because their submission's deadline passed." {
            /// Unit deliveries failed because their run's deadline expired.
            deadline_expired,
        }
        Counter "oranges_submissions_rejected_total"
            "Whole submissions rejected at admission (engine queue full)." {
            /// Whole submissions turned away with a typed `busy` rejection.
            submissions_rejected,
        }
        Counter "oranges_events_dropped_total"
            "Lifecycle events dropped on full subscriber buffers." {
            /// Lifecycle events dropped because a `subscribe` client's buffer
            /// was full — publishing never blocks an engine worker.
            events_dropped,
        }
        Counter "oranges_reactor_wakeups_total" "Reactor wakeups dispatched, by kind." {
            /// Reactor wakeups delivered for engine completion notifies
            /// (coalesced: a burst of unit completions between two dispatch
            /// turns costs one wakeup).
            reactor_notify_wakeups: kind = "notify",
            /// Reactor timer expirations delivered (subscribe heartbeats and
            /// run deadlines).
            reactor_timer_wakeups: kind = "timer",
        }
    }

    /// Point-in-time gauges reported alongside the cumulative
    /// [`ServiceSummary`] in `stats` responses (and as gauges in the
    /// `metrics` exposition).
    pub struct ServiceGauges {
        Gauge "oranges_queue_depth" "Engine jobs queued but not yet picked up by a worker." {
            /// Jobs queued in the engine but not yet picked up by a worker.
            queue_depth,
        }
        Gauge "oranges_priority_queue_depth" "Engine jobs queued, by priority class." {
            /// Jobs queued in the high-priority class.
            queue_high: priority = "high",
            /// Jobs queued in the normal-priority class.
            queue_normal: priority = "normal",
            /// Jobs queued in the batch-priority class.
            queue_batch: priority = "batch",
        }
        Gauge "oranges_units_inflight" "Units currently in flight (queued or computing)." {
            /// Units currently in flight (queued or computing).
            units_inflight,
        }
        Gauge "oranges_event_subscribers" "Live event subscribers." {
            /// Live event subscribers (`subscribe` connections and in-process
            /// streams).
            event_subscribers,
        }
        Gauge "oranges_workers_alive" "Engine worker threads still running." {
            /// Engine worker threads still running (readiness wants this equal
            /// to the configured worker count).
            workers_alive,
        }
        Gauge "oranges_reactor_registered_connections"
            "Connections registered in the service reactor's table." {
            /// Connections registered in the reactor's table right now (the
            /// per-connection cost of this daemon is this gauge times one table
            /// entry — not a thread).
            reactor_registered_connections,
        }
    }
}

/// Every flat `stats` series paired with its value, in `stats` member
/// order.
fn series_values(
    summary: &ServiceSummary,
    gauges: &ServiceGauges,
) -> impl Iterator<Item = (&'static Series, u64)> {
    SERIES
        .iter()
        .zip(summary.values().into_iter().chain(gauges.values()))
}

/// The daemon's engine, cache and counters, which the dispatch loop
/// serves from (and the `stats`/`metrics` handlers read).
struct ServiceShared {
    engine: ExecutionEngine,
    cache: ResultCache,
    config: ServiceConfig,
    /// The *resolved* bound endpoint (a `tcp:…:0` config becomes the
    /// real port; a wildcard host stays a wildcard, faithful to the
    /// bind) — what `local_endpoint()` reports.
    local: Endpoint,
    /// Active runs that registered a `run_token`, so a `cancel` request
    /// — from *any* connection — can reach their engine subscription.
    /// Entries are removed when their run finishes.
    cancels: Arc<Mutex<HashMap<String, CancelHandle>>>,
    connections: AtomicU64,
    active_connections: AtomicU64,
    requests: AtomicU64,
    runs: AtomicU64,
    units_streamed: AtomicU64,
}

impl ServiceShared {
    /// The counters; the reactor's come from the dispatch loop's own
    /// reactor, which no other thread touches.
    fn summary<S: Stream>(&self, reactor: &Reactor<'_, S>) -> ServiceSummary {
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
            reactor_notify_wakeups: reactor.notify_wakeups(),
            reactor_timer_wakeups: reactor.timer_wakeups(),
        }
    }

    /// The gauges. One `queue_depths` read yields all four queue gauges,
    /// so the classes always sum to `queue_depth`.
    fn gauges<S: Stream>(&self, reactor: &Reactor<'_, S>) -> ServiceGauges {
        let depths = self.engine.queue_depths();
        ServiceGauges {
            queue_depth: depths.iter().sum::<usize>() as u64,
            queue_high: depths[0] as u64,
            queue_normal: depths[1] as u64,
            queue_batch: depths[2] as u64,
            units_inflight: self.engine.inflight() as u64,
            event_subscribers: self.engine.event_subscribers() as u64,
            workers_alive: self.engine.alive_workers() as u64,
            reactor_registered_connections: reactor.connections() as u64,
        }
    }

    fn health(&self, draining: bool) -> HealthReport {
        HealthReport::of(
            draining,
            self.engine.alive_workers(),
            self.engine.workers(),
            self.cache.stats().entries,
            &self.local,
        )
    }
}

response_bodies! {
    /// Liveness + readiness, answered by the `health` method. A daemon
    /// that answers at all is *live*; it is *ready* only while it is not
    /// draining and every configured engine worker thread is still
    /// running — the signal a supervisor or fleet orchestrator should
    /// gate dispatch on.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct HealthReport {
        /// Overall readiness: not draining, all workers alive.
        ready: bool,
        /// The daemon received `shutdown` and is draining connections.
        draining: bool,
        /// Engine worker threads still running.
        workers_alive: u64,
        /// Engine worker threads configured at bind.
        workers_configured: u64,
        /// Entries in the warm cache (0 is healthy — a cold daemon).
        cache_entries: u64,
        /// The resolved listening endpoint.
        endpoint: String,
    }

    /// Daemon-side statistics from a `stats` request.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ServiceStats {
        /// Cache statistics.
        cache: CacheStats,
        /// The daemon's model-constants digest.
        model_digest: String,
        ..{
            /// Cumulative service + engine counters.
            summary: ServiceSummary,
            /// Point-in-time gauges at the moment the daemon answered.
            gauges: ServiceGauges,
        }
    }

    // The `cache` object of the `done` and `stats` bodies.
    impl CacheStats {
        hits: u64,
        misses: u64,
        entries: usize,
    }

    /// The `done` body: campaign totals, the value-identity fingerprint,
    /// and the daemon's model-constants digest (so a remote caller can
    /// apply the versioned-cache staleness rule).
    pub(crate) struct DoneBody {
        units: usize,
        computed_units: usize,
        coalesced_units: usize,
        fingerprint: String,
        model_digest: String,
        wall_s: f64,
        cache: CacheStats,
    }

    /// The `busy` terminal: the run needed more queue slots than the cap
    /// had free.
    pub(crate) struct BusyBody {
        queued: usize,
        cap: usize,
        needed: usize,
    }

    /// The `cancelled` and `deadline_exceeded` terminals: the first unit
    /// the run lost.
    pub(crate) struct LostUnit {
        unit: String,
    }

    /// The `cancelled` answer to a `cancel` request.
    pub(crate) struct CancelAckBody {
        token: String,
        active: bool,
        waiters_cancelled: u64,
        jobs_abandoned: u64,
    }
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
}

/// The `kind` response line whose body the table declares.
pub(crate) fn body_line(id: u64, kind: &str, body: &impl WireValue) -> String {
    Response::ok(id, kind).write_line(Some(|line: &mut String| body.write(line)))
}

/// Read a `kind` response body the table declares.
pub(crate) fn read_body<B: WireValue + Default>(
    tokens: &mut Tokenizer<'_>,
    kind: &str,
) -> Result<B, ServiceError> {
    let mut body = B::default();
    let read = body.read(tokens, kind)?;
    read.then_some(body)
        .ok_or_else(|| ServiceError::Protocol(format!("{kind} body has the wrong type")))
}

/// The long-running campaign daemon: one listener (any [`Transport`]),
/// one warm cache, one shared execution engine, and one readiness
/// reactor multiplexing every live connection — the daemon's thread
/// count does not grow with its connection count.
pub struct CampaignService<T: Transport> {
    listener: T::Listener,
    shared: ServiceShared,
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
        let engine = ExecutionEngine::with_queue_cap(config.workers, config.queue_cap);
        Ok(CampaignService {
            listener,
            shared: ServiceShared {
                engine,
                cache,
                config,
                local,
                cancels: Arc::new(Mutex::new(HashMap::new())),
                connections: AtomicU64::new(0),
                active_connections: AtomicU64::new(0),
                requests: AtomicU64::new(0),
                runs: AtomicU64::new(0),
                units_streamed: AtomicU64::new(0),
            },
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
    /// daemon wants to see. (A client on *this* host dials a concrete
    /// host verbatim, and a wildcard at loopback on the same port.)
    pub fn local_endpoint(&self) -> &Endpoint {
        &self.shared.local
    }

    /// Accept connections and serve them all from one readiness
    /// reactor on the calling thread — the listener and every live
    /// connection are entries in its poll set, not threads — until a
    /// `shutdown` request arrives, then stop accepting and drain the
    /// live connections (idle ones get a clean EOF immediately; a
    /// connection mid-`run` finishes streaming first), persist the
    /// cache (when configured), release the listener (removing a
    /// `unix:` socket file), and return the lifetime counters. The cache
    /// is persisted even if accepting has to be given up, so computed
    /// results are never lost to a socket-level failure.
    pub fn serve(self) -> Result<ServiceSummary, ServiceError> {
        let reactor = Reactor::listen(&self.listener)
            .map_err(|e| io_err("switching the listener to nonblocking mode", e))?;
        let mut dispatcher = Dispatcher::<T> {
            shared: &self.shared,
            reactor,
            conns: HashMap::new(),
            draining: false,
            accept_failures: 0,
            exhausted: false,
            give_up: None,
        };
        dispatcher.run();
        self.persist_and_cleanup()?;
        match dispatcher.give_up {
            Some(error) => Err(error),
            None => Ok(self.shared.summary(&dispatcher.reactor)),
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

/// Whether `accept` failed for want of descriptors or buffers (EMFILE,
/// ENFILE, ENOBUFS, ENOMEM) rather than because the listener broke.
fn is_resource_exhaustion(error: &std::io::Error) -> bool {
    const ENOMEM: i32 = 12;
    const ENFILE: i32 = 23;
    const EMFILE: i32 = 24;
    #[cfg(any(target_os = "linux", target_os = "android"))]
    const ENOBUFS: i32 = 105;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    const ENOBUFS: i32 = 55;
    matches!(
        error.raw_os_error(),
        Some(ENOMEM | ENFILE | EMFILE | ENOBUFS)
    )
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
    Running(Box<RunState>),
    /// A `subscribe` stream; reads watch only for hangup, events arrive
    /// via notify wakeups, heartbeats via the reactor timer.
    Subscribing(SubState),
}

/// One in-flight `run`, pumped incrementally from notify wakeups into
/// the scheduler's [`Assembly`]; each unit streams as it is delivered.
struct RunState {
    id: u64,
    plan: Plan,
    subscription: Subscription,
    assembly: Assembly,
    started: Instant,
    /// When the run's `deadline_ms` falls due; the connection's reactor
    /// timer is armed for it.
    deadline: Option<Instant>,
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

/// The reactor dispatch loop: the daemon's single I/O thread. Owns the
/// reactor and the per-connection protocol state and interprets reactor
/// events; the engine's worker threads only ever touch it through
/// coalescing notify wakeups.
struct Dispatcher<'a, T: Transport> {
    shared: &'a ServiceShared,
    reactor: Reactor<'a, T::Stream>,
    conns: HashMap<u64, Conn>,
    draining: bool,
    /// Failed `accept`s in a row, resource exhaustion not counted.
    accept_failures: u32,
    /// Whether the current streak of exhaustion failures was logged.
    exhausted: bool,
    /// The error that made the daemon give up accepting; `serve`
    /// returns it once the drain is done.
    give_up: Option<ServiceError>,
}

impl<T: Transport> Dispatcher<'_, T> {
    fn run(&mut self) {
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
        }
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
            Event::AcceptFailed(error) => self.on_accept_failed(error),
        }
    }

    /// Running out of descriptors or buffers is back-pressure: the open
    /// connections keep being served, and the reactor retries `accept`
    /// until one closes, with one log line per streak. Other failures
    /// are retried too; only a streak of them gives up, through the
    /// drain, so the cache is still persisted.
    fn on_accept_failed(&mut self, error: std::io::Error) {
        const MAX_CONSECUTIVE_ACCEPT_FAILURES: u32 = 64;
        if is_resource_exhaustion(&error) {
            if !self.exhausted {
                self.exhausted = true;
                eprintln!(
                    "campaign service: accept error: {error}; \
                     retrying until a connection closes"
                );
            }
            return;
        }
        self.accept_failures += 1;
        eprintln!("campaign service: accept error: {error}");
        if self.accept_failures >= MAX_CONSECUTIVE_ACCEPT_FAILURES {
            self.give_up = Some(io_err("accepting connection (giving up)", error));
            self.begin_drain();
        }
    }

    fn on_accepted(&mut self, token: Token) {
        self.accept_failures = 0;
        self.exhausted = false;
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
            // Accepted in the turn that also read the `shutdown`
            // request: counted, then drained with a clean EOF.
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
        let line = match self.conns.get(&token.id()).map(|conn| &conn.state) {
            // A run's deadline. A timer armed by an earlier run on this
            // connection is not due for this one, and is ignored.
            Some(ConnState::Running(run)) => {
                if run.deadline.is_some_and(|due| due <= Instant::now()) {
                    // Each lost unit is delivered as `DeadlineExceeded`;
                    // its notify pumps the run to the terminal.
                    run.subscription.expire();
                }
                return;
            }
            // The subscribe heartbeat: both a liveness signal for the
            // watcher and how the daemon notices a vanished client
            // promptly (the heartbeat write fails).
            Some(ConnState::Subscribing(sub)) => Response::ok(sub.id, "event")
                .with_body(CampaignEvent::new(EventKind::Heartbeat).to_json())
                .to_line(),
            _ => return,
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
        self.write(token, response.to_line());
    }

    fn write(&mut self, token: Token, line: String) {
        self.reactor.enqueue_write(token, line.as_bytes());
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
                let stats = ServiceStats {
                    cache: self.shared.cache.stats(),
                    model_digest: self.shared.cache.model_digest().to_string(),
                    summary: self.shared.summary(&self.reactor),
                    gauges: self.shared.gauges(&self.reactor),
                };
                self.write(token, body_line(request.id, "stats", &stats));
            }
            "metrics" => {
                let text = metrics_text(
                    self.shared,
                    &self.shared.summary(&self.reactor),
                    &self.shared.gauges(&self.reactor),
                );
                self.write(token, body_line(request.id, "metrics", &text));
            }
            "health" => self.write(
                token,
                body_line(request.id, "health", &self.shared.health(self.draining)),
            ),
            "subscribe" => self.handle_subscribe(token, &request),
            "run" => self.handle_run(token, &request),
            "cancel" => self.handle_cancel(token, &request),
            "shutdown" => {
                self.respond(token, &Response::ok(request.id, "bye"));
                self.begin_drain();
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
            run_options.priority,
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
                let busy = BusyBody {
                    queued,
                    cap,
                    needed,
                };
                return self.write(token, body_line(request.id, "busy", &busy));
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
        let run = RunState {
            id: request.id,
            assembly: Assembly::new(&plan),
            plan,
            subscription,
            started,
            deadline: run_options.deadline.map(|after| started + after),
            _guard: guard,
        };
        let Some(conn) = self.conns.get_mut(&token.id()) else {
            return; // dropping `run` cancels the fresh subscription
        };
        conn.state = ConnState::Running(Box::new(run));
        if let Some(after) = run_options.deadline {
            // Fires no earlier than the due instant, which was taken
            // before this call.
            self.reactor.set_timer(token, after);
        }
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
            // Under the connection-table borrow: the `unit` line to
            // write, and whether the run is complete.
            let (line, complete) = {
                let Some(conn) = self.conns.get_mut(&token.id()) else {
                    return;
                };
                let ConnState::Running(run) = &mut conn.state else {
                    return;
                };
                match run.subscription.try_recv() {
                    Ok(delivery) => {
                        let line = run
                            .assembly
                            .deliver(&run.plan, delivery)
                            .map(|report| unit_line(run.id, report));
                        (line, run.assembly.is_complete())
                    }
                    Err(TryRecvError::Disconnected) if !run.assembly.is_complete() => {
                        // Deliveries are missing and no sender is left:
                        // the engine shut down underneath us.
                        run.assembly.engine_gone();
                        (None, true)
                    }
                    Err(_) => return,
                }
            };
            if let Some(line) = line {
                self.write(token, line);
                self.shared.units_streamed.fetch_add(1, Ordering::Relaxed);
                if !self.reactor.is_registered(token) {
                    // The write failed (client vanished): its Closed
                    // event is queued, and dropping the run state there
                    // cancels whatever nobody else wants.
                    return;
                }
            }
            if complete {
                return self.finish_run(token);
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
            assembly,
            started,
            _guard: guard,
            ..
        } = *run;
        let lost = |kind, key: UnitKey| {
            let unit = key.to_string();
            body_line(id, kind, &LostUnit { unit })
        };
        let line = match assembly.finish(&plan) {
            Ok(units) => {
                let report = CampaignReport::new(
                    units,
                    self.shared.engine.workers().clamp(1, plan.len().max(1)),
                    started.elapsed(),
                    self.shared.cache.stats(),
                );
                self.shared.runs.fetch_add(1, Ordering::Relaxed);
                let done = DoneBody {
                    units: report.units.len(),
                    computed_units: report.computed_units(),
                    coalesced_units: report.coalesced_units(),
                    fingerprint: report.fingerprint(),
                    model_digest: self.shared.cache.model_digest().to_string(),
                    wall_s: report.wall.as_secs_f64(),
                    cache: report.cache,
                };
                body_line(id, "done", &done)
            }
            Err(CampaignError::Cancelled { key }) => lost("cancelled", key),
            Err(CampaignError::DeadlineExceeded { key }) => lost("deadline_exceeded", key),
            Err(error) => Response::failure(id, error.to_string()).to_line(),
        };
        // The subscription resolved every unit. Release it and the
        // `run_token` registration before the terminal line: the run
        // ends here, and a request pipelined behind it, replayed below,
        // may reuse the token (PROTOCOL § 4.1).
        drop((subscription, guard));
        self.write(token, line);
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
        let [.., member] = REQUEST_MEMBERS;
        let run_token = request
            .body
            .as_ref()
            .and_then(|body| body.get(member))
            .and_then(JsonValue::as_str)
            .map(str::to_string);
        let Some(run_token) = run_token else {
            return self.respond(
                token,
                &Response::failure(request.id, format!("cancel request has no '{member}'")),
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
        let ack = CancelAckBody {
            token: run_token,
            active,
            waiters_cancelled: outcome.waiters_cancelled as u64,
            jobs_abandoned: outcome.jobs_abandoned as u64,
        };
        self.write(token, body_line(request.id, "cancelled", &ack));
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

    /// Begin the shutdown drain (idempotent): flag it, stop accepting,
    /// half-close every read side, and close every connection that is
    /// not mid-`run` once its queued output flushes — the clean EOF idle
    /// clients and subscribers are promised. Mid-`run` connections
    /// finish streaming first and join the drain from `after_command`.
    fn begin_drain(&mut self) {
        if self.draining {
            return;
        }
        self.draining = true;
        self.reactor.stop_accepting();
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

/// Request body members for the client's writer and the daemon's reader:
/// the scheduling fields a `run` body carries beside its spec (the spec
/// parser ignores keys it does not know), then a `cancel` body's token.
const REQUEST_MEMBERS: [&str; 4] = ["priority", "deadline_ms", "run_token", "token"];

/// The scheduling fields of a `run` request.
struct RunRequestOptions {
    priority: Priority,
    deadline: Option<Duration>,
    token: Option<String>,
}

fn parse_run_options(body: &JsonValue) -> Result<RunRequestOptions, String> {
    let [priority, deadline_ms, run_token, _] = REQUEST_MEMBERS;
    let string = |name: &str| {
        body.get(name)
            .map(|value| {
                value
                    .as_str()
                    .ok_or_else(|| format!("{name} must be a string"))
            })
            .transpose()
    };
    let priority = match string(priority)? {
        Some(token) => {
            Priority::parse(token).ok_or_else(|| format!("unknown priority '{token}'"))?
        }
        None => Priority::Normal,
    };
    let deadline = match body.get(deadline_ms) {
        Some(value) => {
            let ms = value
                .as_u64()
                .ok_or_else(|| format!("{deadline_ms} must be a non-negative integer"))?;
            Some(Duration::from_millis(ms))
        }
        None => None,
    };
    Ok(RunRequestOptions {
        priority,
        deadline,
        token: string(run_token)?.map(str::to_string),
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

/// Render the full metrics exposition: the cache counters, every
/// [`SERIES`] sample, the configured worker count, build info, and one
/// latency histogram per experiment — the same counter set `stats`
/// reports, in scrapeable form.
fn metrics_text(
    shared: &ServiceShared,
    summary: &ServiceSummary,
    gauges: &ServiceGauges,
) -> String {
    let cache = shared.cache.stats();
    let mut exp = Exposition::new();
    let lookups = "Warm-cache lookups, by result.";
    exp.counter(
        "oranges_cache_lookups_total",
        lookups,
        &[("result", "hit")],
        cache.hits,
    );
    exp.counter(
        "oranges_cache_lookups_total",
        lookups,
        &[("result", "miss")],
        cache.misses,
    );
    exp.gauge(
        "oranges_cache_entries",
        "Entries in the warm cache.",
        &[],
        cache.entries as f64,
    );
    for (series, value) in series_values(summary, gauges) {
        match series.kind {
            SeriesKind::Counter => exp.counter(series.family, series.help, series.labels, value),
            SeriesKind::Gauge => exp.gauge(series.family, series.help, series.labels, value as f64),
        }
    }
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
/// [`ExperimentOutput::decode`] reads on the client. `sets` is the
/// unit's cached canonical JSON, copied in as bytes rather than parsed
/// and emitted again; it is emitter output, which never holds a raw
/// newline.
pub(crate) fn unit_line(id: u64, unit: &UnitReport) -> String {
    let [index, key_id, params, source, from_cache] = UNIT_MEMBERS;
    let [wall_time_s, rendered, sets] = ExperimentOutput::MEMBERS;
    Response::ok(id, "unit").write_line(Some(|line: &mut String| {
        line.reserve(unit.output.json().len() + 256);
        json::write_key(line, '{', index);
        unit.index.write(line);
        json::write_key(line, ',', key_id);
        unit.key.id.write(line);
        json::write_key(line, ',', params);
        unit.key.params.write(line);
        json::write_key(line, ',', source);
        json::escape_into(line, unit.source.as_str());
        json::write_key(line, ',', from_cache);
        unit.from_cache().write(line);
        if let Some(wall) = unit.output.wall_time_s() {
            json::write_key(line, ',', wall_time_s);
            wall.write(line);
        }
        if let Some(text) = &unit.output.rendered {
            json::write_key(line, ',', rendered);
            text.write(line);
        }
        json::write_key(line, ',', sets);
        line.push_str(unit.output.json());
        line.push('}');
    }))
}

/// The `unit` body's own members, written before its output's
/// [`ExperimentOutput::MEMBERS`].
const UNIT_MEMBERS: [&str; 5] = ["index", "id", "params", "source", "from_cache"];

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

/// Client-side scheduling options for a `run` request: the engine
/// [`Priority`], a delivery deadline the daemon times, and an optional
/// *run token* the submitter (or anyone who knows the token) can
/// [`cancel`] with from another connection.
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

    /// Read one response line, decoding its body with `decode_body` (see
    /// [`Response::decode_line`]), and check that it answers `id`.
    fn read_decoded<B>(
        &mut self,
        id: u64,
        decode_body: impl FnMut(&str, &mut Tokenizer<'_>) -> Result<B, ServiceError>,
    ) -> Result<(Response, Option<B>), ServiceError> {
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
        let (response, body) = Response::decode_line(&line, decode_body)?;
        if response.id != id {
            return Err(ServiceError::Protocol(format!(
                "response id {} does not match request id {id}",
                response.id
            )));
        }
        if let Some(message) = &response.error {
            return Err(ServiceError::Remote(message.clone()));
        }
        Ok((response, body))
    }

    /// Send one request and read its one answer, which must be of
    /// `kind`, reading its body, if it has one, with `read`.
    fn call<B>(
        &mut self,
        method: &str,
        body: Option<JsonValue>,
        kind: &str,
        mut read: impl FnMut(&mut Tokenizer<'_>) -> Result<B, ServiceError>,
    ) -> Result<Option<B>, ServiceError> {
        let id = self.send(method, body)?;
        let (response, body) = self.read_decoded(id, |got, tokens| {
            if got == kind {
                read(tokens).map(Some)
            } else {
                skip_body(tokens).map(|()| None)
            }
        })?;
        if response.kind != kind {
            return Err(ServiceError::Protocol(format!(
                "expected {kind}, got '{}'",
                response.kind
            )));
        }
        Ok(body.flatten())
    }

    /// [`call`](ServiceClient::call) for an answer whose body the table
    /// declares.
    fn call_body<B: WireValue + Default>(
        &mut self,
        method: &str,
        body: Option<JsonValue>,
        kind: &str,
    ) -> Result<B, ServiceError> {
        self.call(method, body, kind, |tokens| read_body(tokens, kind))?
            .ok_or_else(|| ServiceError::Protocol(format!("{kind} has no body")))
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
        let [priority, deadline_ms, run_token, _] = REQUEST_MEMBERS;
        let mut body = spec.to_json_value();
        if let JsonValue::Object(fields) = &mut body {
            if options.priority != Priority::Normal {
                let value = JsonValue::String(options.priority.as_str().to_string());
                fields.push((priority.to_string(), value));
            }
            if let Some(ms) = options.deadline_ms {
                fields.push((deadline_ms.to_string(), JsonValue::integer(ms)));
            }
            if let Some(token) = &options.run_token {
                fields.push((run_token.to_string(), JsonValue::String(token.clone())));
            }
        }
        let id = self.send("run", Some(body))?;
        let mut units: Vec<ServedUnit> = Vec::new();
        loop {
            let (response, body) = self.read_decoded(id, |kind, tokens| match kind {
                "unit" => decode_served_unit(tokens).map(RunBody::Unit),
                _ => read_terminal(kind, tokens).map(RunBody::End),
            })?;
            match body {
                Some(RunBody::Unit(unit)) => {
                    on_unit(&unit);
                    units.push(unit);
                }
                Some(RunBody::End(end)) => {
                    let done = end?;
                    units.sort_by_key(|unit| unit.index);
                    return Ok(RunOutcome {
                        units,
                        computed_units: done.computed_units,
                        coalesced_units: done.coalesced_units,
                        fingerprint: done.fingerprint,
                        model_digest: done.model_digest,
                        cache: done.cache,
                    });
                }
                None => {
                    return Err(ServiceError::Protocol(format!(
                        "{} has no body",
                        response.kind
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
        let [.., member] = REQUEST_MEMBERS;
        let body = JsonValue::Object(vec![(
            member.to_string(),
            JsonValue::String(token.to_string()),
        )]);
        let CancelAckBody {
            active,
            waiters_cancelled,
            jobs_abandoned,
            ..
        } = self.call_body("cancel", Some(body), "cancelled")?;
        Ok(CancelAck {
            active,
            waiters_cancelled,
            jobs_abandoned,
        })
    }

    /// Round-trip liveness probe.
    pub fn ping(&mut self) -> Result<(), ServiceError> {
        self.call("ping", None, "pong", skip_body).map(drop)
    }

    /// Fetch daemon statistics.
    pub fn stats(&mut self) -> Result<ServiceStats, ServiceError> {
        self.call_body("stats", None, "stats")
    }

    /// Fetch the daemon's metrics exposition (Prometheus text format).
    pub fn metrics(&mut self) -> Result<String, ServiceError> {
        self.call_body("metrics", None, "metrics")
    }

    /// Probe the daemon's liveness and readiness.
    pub fn health(&mut self) -> Result<HealthReport, ServiceError> {
        self.call_body("health", None, "health")
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
        self.call("subscribe", None, "subscribed", skip_body)?;
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
        self.call("shutdown", None, "bye", skip_body).map(drop)
    }

    /// Submit an arbitrary method (protocol testing).
    pub fn raw_request(
        &mut self,
        method: &str,
        body: Option<JsonValue>,
    ) -> Result<Response, ServiceError> {
        let id = self.send(method, body)?;
        let (mut response, body) =
            self.read_decoded(id, |_, tokens| Ok(json::read_value(tokens)?))?;
        response.body = body;
        Ok(response)
    }
}

/// A `run` stream response body, decoded by kind.
enum RunBody {
    /// A `unit` body, decoded straight into the typed unit.
    Unit(ServedUnit),
    /// The terminal body: see [`read_terminal`].
    End(Result<DoneBody, ServiceError>),
}

/// Read the terminal body of a `run` stream: `done`, or the typed error
/// that `busy`, `cancelled` or `deadline_exceeded` stands for.
pub(crate) fn read_terminal(
    kind: &str,
    tokens: &mut Tokenizer<'_>,
) -> Result<Result<DoneBody, ServiceError>, ServiceError> {
    let lost = |tokens: &mut Tokenizer<'_>| read_body(tokens, kind).map(|lost: LostUnit| lost.unit);
    Ok(match kind {
        "done" => Ok(read_body(tokens, kind)?),
        "busy" => {
            let BusyBody { queued, cap, .. } = read_body(tokens, kind)?;
            let (queued, cap) = (queued as u64, cap as u64);
            Err(ServiceError::Busy { queued, cap })
        }
        "cancelled" => Err(ServiceError::Cancelled(lost(tokens)?)),
        "deadline_exceeded" => Err(ServiceError::DeadlineExceeded(lost(tokens)?)),
        other => {
            tokens.skip_value()?;
            Err(ServiceError::Protocol(format!(
                "unexpected response kind '{other}' during run"
            )))
        }
    })
}

fn skip_body(tokens: &mut Tokenizer<'_>) -> Result<(), ServiceError> {
    Ok(tokens.skip_value()?)
}

/// Decode a `unit` body straight into a [`ServedUnit`], with no tree in
/// between: [`ExperimentOutput::decode`] reads the output envelope and
/// hands the unit's own members back here.
pub(crate) fn decode_served_unit(tokens: &mut Tokenizer<'_>) -> Result<ServedUnit, ServiceError> {
    let (mut index, mut id, mut params, mut source, mut from_cache) =
        (None, None, None, None, None);
    let output = ExperimentOutput::decode_carried(tokens, &UNIT_MEMBERS, |member, tokens| {
        match member {
            Known(0) if index.is_none() => index = Some(tokens.read_or_skip(Tokenizer::u64_value)?),
            Known(1) if id.is_none() => id = Some(tokens.read_or_skip(Tokenizer::string_value)?),
            Known(2) if params.is_none() => {
                params = Some(tokens.read_or_skip(Tokenizer::string_value)?)
            }
            Known(3) if source.is_none() => {
                source = Some(tokens.read_or_skip(Tokenizer::string_value)?)
            }
            Known(4) if from_cache.is_none() => {
                from_cache = Some(match tokens.next_value()? {
                    json::Token::Bool(flag) => Some(flag),
                    _ => None,
                })
            }
            _ => return Ok(false),
        }
        Ok(true)
    })
    .map_err(|e| ServiceError::Protocol(format!("unit body did not rebuild: {e}")))?;
    let missing = |name: &str| ServiceError::Protocol(format!("unit body has no '{name}'"));
    let source = UnitSource::parse(&source.flatten().ok_or_else(|| missing("source"))?)
        .ok_or_else(|| ServiceError::Protocol("unit body has an unknown 'source'".into()))?;
    // The wire carries `from_cache` alongside `source` for raw (non-Rust)
    // clients; the typed client derives it from `source`, so the pair
    // must agree — a contradiction means a daemon bug, not a preference.
    let from_cache = from_cache.flatten().ok_or_else(|| missing("from_cache"))?;
    if from_cache != source.from_cache() {
        return Err(ServiceError::Protocol(format!(
            "unit body contradicts itself: source '{}' with from_cache {from_cache}",
            source.as_str()
        )));
    }
    Ok(ServedUnit {
        index: index.flatten().ok_or_else(|| missing("index"))? as usize,
        key: UnitKey {
            id: id.flatten().ok_or_else(|| missing("id"))?.into_owned(),
            params: params
                .flatten()
                .ok_or_else(|| missing("params"))?
                .into_owned(),
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

    /// The `unit` body as a tree: the reference [`unit_line`] must match
    /// byte for byte once emitted.
    fn unit_body(unit: &UnitReport) -> JsonValue {
        let [index, id, params, source, from_cache] = UNIT_MEMBERS;
        let [wall_time_s, rendered, sets] = ExperimentOutput::MEMBERS;
        let text = |value: &str| JsonValue::String(value.to_string());
        let mut fields = vec![
            (index.to_string(), JsonValue::integer(unit.index as u64)),
            (id.to_string(), text(&unit.key.id)),
            (params.to_string(), text(&unit.key.params)),
            (source.to_string(), text(unit.source.as_str())),
            (from_cache.to_string(), JsonValue::Bool(unit.from_cache())),
        ];
        if let Some(wall) = unit.output.wall_time_s() {
            fields.push((wall_time_s.to_string(), JsonValue::number(wall)));
        }
        if let Some(rendering) = &unit.output.rendered {
            fields.push((rendered.to_string(), text(rendering)));
        }
        let tree = json::parse(unit.output.json()).expect("canonical JSON parses");
        fields.push((sets.to_string(), tree));
        JsonValue::Object(fields)
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
    fn unit_lines_write_the_members_the_client_reads_in_its_order() {
        let unit = unit_with("chip=M2", Some("chart"), Some(0.05));
        let line = unit_line(7, &unit);
        let mut tokens = Tokenizer::new(line.trim_end());
        assert_eq!(tokens.next_token().unwrap(), Some(json::Token::BeginObject));
        while tokens.next_key().unwrap().expect("the envelope has a body") != "body" {
            tokens.skip_value().unwrap();
        }
        assert_eq!(tokens.next_token().unwrap(), Some(json::Token::BeginObject));
        let mut keys = Vec::new();
        while let Some(key) = tokens.next_key().unwrap() {
            keys.push(key.into_owned());
            tokens.skip_value().unwrap();
        }
        let expected: Vec<&str> = UNIT_MEMBERS
            .iter()
            .chain(&ExperimentOutput::MEMBERS)
            .copied()
            .collect();
        assert_eq!(keys, expected);
    }

    #[test]
    fn unit_body_round_trips_through_the_client_parser() {
        let report = unit_with("chip=M2", Some("chart"), Some(0.05));
        let (_, served) = Response::decode_line(&unit_line(3, &report), |_, tokens| {
            decode_served_unit(tokens)
        })
        .expect("the unit line decodes");
        let served = served.expect("a unit line has a body");
        assert_eq!(served.index, 3);
        assert_eq!(served.key, report.key);
        assert_eq!(served.source, UnitSource::Coalesced);
        assert!(served.from_cache());
        assert_eq!(
            served.output.json(),
            report.output.json(),
            "value identity crosses the wire"
        );
        assert_eq!(served.output.sets, report.output.sets);
        assert_eq!(served.output.rendered.as_deref(), Some("chart"));
        assert_eq!(served.output.wall_time_s(), Some(0.05));
    }

    #[test]
    fn unit_lines_with_values_that_decode_to_infinity_are_protocol_errors() {
        // A fleet daemon's unit line is merged into the parent's cache;
        // an infinite value would re-emit as `null` there.
        let line = unit_line(3, &unit_with("chip=M2", None, None));
        let forged = line.replace("{\"Float\":214.5}", "{\"Float\":1e999}");
        assert_ne!(forged, line, "the forgery took effect");
        let decoded = Response::decode_line(&forged, |_, tokens| decode_served_unit(tokens));
        assert!(
            matches!(decoded, Err(ServiceError::Protocol(_))),
            "{decoded:?}"
        );
    }

    #[test]
    fn done_and_stats_bodies_round_trip() {
        let cache = CacheStats {
            hits: 5,
            misses: 2,
            entries: 2,
        };
        let report = CampaignReport::new(vec![], 2, Duration::from_millis(10), cache);
        let digest = oranges::paper::model_constants_digest();
        let done = DoneBody {
            units: 0,
            computed_units: 0,
            coalesced_units: 0,
            fingerprint: report.fingerprint(),
            model_digest: digest.clone(),
            wall_s: 0.01,
            cache,
        };
        let (_, end) = Response::decode_line(&body_line(2, "done", &done), read_terminal)
            .expect("the done line decodes");
        let back = end.expect("done has a body").expect("done is no error");
        assert_eq!(back.fingerprint, report.fingerprint());
        assert_eq!(
            back.model_digest, digest,
            "done carries the versioned-cache digest"
        );
        assert_eq!((back.cache, back.wall_s), (cache, 0.01));

        // Every series member crosses the wire with a distinct value:
        // writer, reader and the table agree on names and order.
        let stats = crate::decode_equivalence::stats_with(cache, &digest, 1..);
        let line = body_line(3, "stats", &stats);
        let (_, back) = Response::decode_line(&line, |kind, tokens| read_body(tokens, kind))
            .expect("the stats line decodes");
        assert_eq!(back.as_ref(), Some(&stats));
        assert_eq!(SERIES.len(), 24);
        let values: Vec<u64> = series_values(&stats.summary, &stats.gauges)
            .map(|(_, value)| value)
            .collect();
        assert_eq!(values, (1..=24).collect::<Vec<u64>>());
    }

    #[test]
    fn escaped_astral_run_tokens_stay_distinct_at_the_request_boundary() {
        // Python's `json.dumps` writes every character past U+FFFF as an
        // escaped surrogate pair. The cancel table is keyed by the decoded
        // token, so two such tokens must decode to two keys.
        let token = |spelling: &str| {
            let line = format!(
                r#"{{"id":1,"method":"run","body":{{"experiments":["fig4"],"chips":["M1"],"run_token":"{spelling}"}}}}"#
            );
            let request = Request::from_line(&line).expect("a request line");
            parse_run_options(request.body.as_ref().expect("a body"))
                .expect("valid options")
                .token
        };
        let (grinning, beaming) = (token(r"\ud83d\ude00"), token(r"\ud83d\ude01"));
        assert_eq!(grinning.as_deref(), Some("\u{1f600}"));
        assert_eq!(beaming.as_deref(), Some("\u{1f601}"));
        assert_ne!(grinning, beaming);
        assert_eq!(token("\u{1f600}"), grinning, "raw and escaped name one run");
    }

    #[test]
    fn the_series_table_matches_the_protocol_doc() {
        let doc = include_str!("../../../docs/PROTOCOL.md");
        // § 10's recorded `stats` line lists every member in wire order.
        let line = doc
            .lines()
            .find(|line| line.starts_with(r#"{"id":3,"kind":"stats","body":"#))
            .expect("PROTOCOL.md records a stats response");
        let response = Response::from_line(line).expect("the recorded line parses");
        let Some(JsonValue::Object(body)) = &response.body else {
            panic!("the recorded stats body is not an object");
        };
        let recorded: Vec<&str> = body.iter().map(|(name, _)| name.as_str()).collect();
        let mut expected = vec!["cache", "model_digest"];
        let (summary, gauges) = (ServiceSummary::default(), ServiceGauges::default());
        expected.extend(
            summary
                .members()
                .into_iter()
                .chain(gauges.members())
                .map(|(name, _)| name),
        );
        assert_eq!(recorded, expected);

        // § 6.1's family table names every family and label value.
        let families = &doc[doc.find("### 6.1").unwrap()..doc.find("### 6.2").unwrap()];
        for series in SERIES {
            let row = match series.labels {
                [] => format!("`{}`", series.family),
                [(label, _)] => format!("`{}{{{label}=", series.family),
                _ => unreachable!("a series carries at most one label"),
            };
            let row = families
                .lines()
                .find(|line| line.starts_with('|') && line.contains(&row))
                .unwrap_or_else(|| panic!("§ 6.1 has no row for {row}"));
            for (_, value) in series.labels {
                assert!(row.contains(&format!("\"{value}\"")), "{row} lacks {value}");
            }
        }
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
}
