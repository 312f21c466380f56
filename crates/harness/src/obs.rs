//! Observability primitives: Prometheus-style text exposition,
//! concurrent histograms, and a non-blocking campaign event stream.
//!
//! Three independent pieces, all dependency-free:
//!
//! - [`Exposition`]: a writer for the Prometheus *text exposition
//!   format* (`# HELP` / `# TYPE` headers emitted once per family,
//!   label values escaped per the format's rules, histograms rendered
//!   as cumulative `_bucket{le="…"}` series plus `_sum`/`_count`);
//! - [`Histogram`]: a lock-free fixed-bucket histogram safe to observe
//!   from many threads (per-bucket atomic counters, compare-exchange
//!   float sum), with [`log_spaced_buckets`] for latency-style
//!   distributions;
//! - [`CampaignEvent`] / [`EventBroadcaster`]: structured lifecycle
//!   events (unit started/completed/failed/cache-hit/coalesced,
//!   connection open/close, cache persist) fanned out over bounded
//!   channels. Publishing **never blocks**: a subscriber whose channel
//!   is full loses that event and the loss is counted in
//!   [`EventBroadcaster::events_dropped`].
//!
//! The campaign engine and service build their `metrics` endpoint and
//! `subscribe` stream out of these; nothing here knows about the wire
//! protocol.

use crate::json::JsonValue;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TryRecvError, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

// ---------------------------------------------------------------------------
// Text exposition writer
// ---------------------------------------------------------------------------

/// Writer for the Prometheus text exposition format.
///
/// `# HELP` and `# TYPE` headers are emitted exactly once per metric
/// family (the first write wins; later writes to the same family append
/// samples only). Metric and label names are sanitized to the format's
/// legal character set, and label values are escaped (`\\`, `\"`,
/// `\n`), so arbitrary strings — unit parameter digests, experiment
/// names with spaces — always produce a parseable exposition.
///
/// ```
/// use oranges_harness::obs::Exposition;
///
/// let mut exp = Exposition::new();
/// exp.counter("units_total", "Units submitted.", &[("experiment", "fig4")], 16);
/// let text = exp.finish();
/// assert!(text.contains("# TYPE units_total counter"));
/// assert!(text.contains("units_total{experiment=\"fig4\"} 16"));
/// ```
#[derive(Debug, Default)]
pub struct Exposition {
    body: String,
    families: BTreeSet<String>,
}

impl Exposition {
    /// New empty exposition.
    pub fn new() -> Exposition {
        Exposition::default()
    }

    /// Append a counter sample.
    pub fn counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: u64) {
        let name = sanitize_metric_name(name);
        self.family(&name, "counter", help);
        let _ = writeln!(self.body, "{}{} {}", name, render_labels(labels), value);
    }

    /// Append a gauge sample.
    pub fn gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        let name = sanitize_metric_name(name);
        self.family(&name, "gauge", help);
        let _ = writeln!(
            self.body,
            "{}{} {}",
            name,
            render_labels(labels),
            render_float(value)
        );
    }

    /// Append a full histogram: one cumulative `_bucket` sample per
    /// upper bound plus the `+Inf` bucket, then `_sum` and `_count`.
    pub fn histogram(
        &mut self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        snapshot: &HistogramSnapshot,
    ) {
        let name = sanitize_metric_name(name);
        self.family(&name, "histogram", help);
        for (upper, cumulative) in &snapshot.buckets {
            let mut with_le: Vec<(&str, String)> =
                labels.iter().map(|(k, v)| (*k, (*v).to_string())).collect();
            with_le.push(("le", render_float(*upper)));
            let rendered: Vec<(&str, &str)> =
                with_le.iter().map(|(k, v)| (*k, v.as_str())).collect();
            let _ = writeln!(
                self.body,
                "{}_bucket{} {}",
                name,
                render_labels(&rendered),
                cumulative
            );
        }
        let mut with_inf: Vec<(&str, &str)> = labels.to_vec();
        with_inf.push(("le", "+Inf"));
        let _ = writeln!(
            self.body,
            "{}_bucket{} {}",
            name,
            render_labels(&with_inf),
            snapshot.count
        );
        let _ = writeln!(
            self.body,
            "{}_sum{} {}",
            name,
            render_labels(labels),
            render_float(snapshot.sum)
        );
        let _ = writeln!(
            self.body,
            "{}_count{} {}",
            name,
            render_labels(labels),
            snapshot.count
        );
    }

    /// Consume the writer and return the exposition text.
    pub fn finish(self) -> String {
        self.body
    }

    fn family(&mut self, name: &str, kind: &str, help: &str) {
        if self.families.insert(name.to_string()) {
            let _ = writeln!(self.body, "# HELP {} {}", name, escape_help(help));
            let _ = writeln!(self.body, "# TYPE {name} {kind}");
        }
    }
}

fn render_labels(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let inner: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", sanitize_label_name(k), escape_label_value(v)))
        .collect();
    format!("{{{}}}", inner.join(","))
}

fn render_float(value: f64) -> String {
    if value.is_nan() {
        "NaN".to_string()
    } else if value == f64::INFINITY {
        "+Inf".to_string()
    } else if value == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{value}")
    }
}

/// Map `name` onto the exposition format's metric-name alphabet
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): every illegal character becomes `_`,
/// a leading digit is prefixed with `_`, and an empty name becomes
/// `_`. Deterministic, so distinct callers sanitize identically.
pub fn sanitize_metric_name(name: &str) -> String {
    sanitize_name(name, true)
}

/// Map `name` onto the label-name alphabet (`[a-zA-Z_][a-zA-Z0-9_]*` —
/// like metric names but without `:`).
pub fn sanitize_label_name(name: &str) -> String {
    sanitize_name(name, false)
}

fn sanitize_name(name: &str, allow_colon: bool) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, ch) in name.chars().enumerate() {
        let legal = ch.is_ascii_alphabetic()
            || ch == '_'
            || (allow_colon && ch == ':')
            || (i > 0 && ch.is_ascii_digit());
        if legal {
            out.push(ch);
        } else if i == 0 && ch.is_ascii_digit() {
            out.push('_');
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escape a label value per the exposition format: backslash, double
/// quote, and newline become `\\`, `\"`, and `\n`.
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for ch in value.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

fn escape_help(help: &str) -> String {
    let mut out = String::with_capacity(help.len());
    for ch in help.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// `count` log-spaced upper bounds starting at `start`, each `factor`×
/// the previous. Panics if `start <= 0`, `factor <= 1`, or `count == 0`
/// — bucket layouts are compile-time decisions, not runtime inputs.
pub fn log_spaced_buckets(start: f64, factor: f64, count: usize) -> Vec<f64> {
    assert!(
        start > 0.0 && factor > 1.0 && count > 0,
        "degenerate bucket layout"
    );
    let mut bounds = Vec::with_capacity(count);
    let mut upper = start;
    for _ in 0..count {
        bounds.push(upper);
        upper *= factor;
    }
    bounds
}

/// The workspace's fixed latency bucket layout: 20 log-spaced bounds
/// from 100 µs to ~52 s (factor 2). Wide enough for both a cache-hit
/// lookup and a long simulated campaign unit; fixed so histograms from
/// different daemons are mergeable bucket-by-bucket.
pub(crate) fn default_latency_buckets() -> Vec<f64> {
    log_spaced_buckets(1e-4, 2.0, 20)
}

/// Fixed-bucket histogram observable from many threads without locks.
///
/// Per-bucket counts and the total count are plain atomic counters; the
/// running sum is an `f64` accumulated by compare-exchange on its bit
/// pattern (no `unsafe`, no mutex on the hot path). Reads take a
/// consistent-enough [`snapshot`](Histogram::snapshot) — exposition
/// scrapes tolerate the usual monotonic-counter skew.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<AtomicU64>,
    total: AtomicU64,
    sum_bits: AtomicU64,
}

impl Histogram {
    /// New histogram over ascending `bounds` (upper bucket edges; the
    /// `+Inf` bucket is implicit). Panics on empty or unsorted bounds.
    pub fn new(bounds: Vec<f64>) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        let counts = bounds.iter().map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds,
            counts,
            total: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// New histogram with the workspace's fixed latency layout: 20
    /// log-spaced bounds from 100 µs to ~52 s (factor 2).
    pub fn latency() -> Histogram {
        Histogram::new(default_latency_buckets())
    }

    /// Record one observation. Non-finite values count toward `_count`
    /// and the `+Inf` bucket but are excluded from the sum (a NaN sum
    /// would poison every later scrape).
    pub fn observe(&self, value: f64) {
        for (bound, count) in self.bounds.iter().zip(&self.counts) {
            if value <= *bound {
                count.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.total.fetch_add(1, Ordering::Relaxed);
        if value.is_finite() {
            let mut current = self.sum_bits.load(Ordering::Relaxed);
            loop {
                let next = (f64::from_bits(current) + value).to_bits();
                match self.sum_bits.compare_exchange_weak(
                    current,
                    next,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break,
                    Err(seen) => current = seen,
                }
            }
        }
    }

    /// Point-in-time copy: cumulative per-bucket counts (already
    /// cumulative, ready for `_bucket{le=…}` rendering), total count,
    /// and sum.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .bounds
                .iter()
                .zip(&self.counts)
                .map(|(b, c)| (*b, c.load(Ordering::Relaxed)))
                .collect(),
            count: self.total.load(Ordering::Relaxed),
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
        }
    }

    /// Total number of observations so far.
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }
}

/// Frozen view of a [`Histogram`] for rendering or assertions.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// `(upper_bound, cumulative_count)` per configured bucket,
    /// ascending; the implicit `+Inf` bucket is `count`.
    pub buckets: Vec<(f64, u64)>,
    /// Total observations (the `_count` sample and the `+Inf` bucket).
    pub count: u64,
    /// Sum of all finite observations (the `_sum` sample).
    pub sum: f64,
}

// ---------------------------------------------------------------------------
// Campaign events
// ---------------------------------------------------------------------------

/// What happened. One variant per lifecycle edge the engine and
/// service emit; [`EventKind::Heartbeat`] is a liveness tick injected
/// by long-lived `subscribe` streams so dead clients are detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A worker picked a unit off the queue and began computing.
    UnitStarted,
    /// A unit finished computing successfully.
    UnitCompleted,
    /// A unit's experiment panicked; the failure was contained.
    UnitFailed,
    /// A submitted unit was answered from the warm cache.
    CacheHit,
    /// A submitted unit joined an identical in-flight computation.
    Coalesced,
    /// The service accepted a client connection.
    ConnectionOpened,
    /// A client connection ended (EOF, error, or drain).
    ConnectionClosed,
    /// The service persisted its cache to disk.
    CachePersisted,
    /// Periodic liveness tick on a `subscribe` stream.
    Heartbeat,
    /// A queued, not-yet-started unit was abandoned because every
    /// subscriber waiting on it cancelled (or timed out).
    UnitCancelled,
    /// A subscription's deadline expired, failing one of its pending
    /// unit deliveries.
    DeadlineExpired,
    /// A whole submission was turned away at admission (queue full).
    SubmissionRejected,
}

impl EventKind {
    /// Stable wire token (snake_case).
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::UnitStarted => "unit_started",
            EventKind::UnitCompleted => "unit_completed",
            EventKind::UnitFailed => "unit_failed",
            EventKind::CacheHit => "cache_hit",
            EventKind::Coalesced => "coalesced",
            EventKind::ConnectionOpened => "connection_opened",
            EventKind::ConnectionClosed => "connection_closed",
            EventKind::CachePersisted => "cache_persisted",
            EventKind::Heartbeat => "heartbeat",
            EventKind::UnitCancelled => "unit_cancelled",
            EventKind::DeadlineExpired => "deadline_expired",
            EventKind::SubmissionRejected => "submission_rejected",
        }
    }

    /// Inverse of [`as_str`](EventKind::as_str).
    pub fn parse(token: &str) -> Option<EventKind> {
        Some(match token {
            "unit_started" => EventKind::UnitStarted,
            "unit_completed" => EventKind::UnitCompleted,
            "unit_failed" => EventKind::UnitFailed,
            "cache_hit" => EventKind::CacheHit,
            "coalesced" => EventKind::Coalesced,
            "connection_opened" => EventKind::ConnectionOpened,
            "connection_closed" => EventKind::ConnectionClosed,
            "cache_persisted" => EventKind::CachePersisted,
            "heartbeat" => EventKind::Heartbeat,
            "unit_cancelled" => EventKind::UnitCancelled,
            "deadline_expired" => EventKind::DeadlineExpired,
            "submission_rejected" => EventKind::SubmissionRejected,
            _ => return None,
        })
    }
}

/// Milliseconds since the Unix epoch, for event timestamps.
pub(crate) fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// One structured lifecycle event. Serializes to a flat JSON object
/// (`kind`, `timestamp_ms`, then only the optional fields that are
/// set) and parses back losslessly — the `subscribe` wire body.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignEvent {
    /// What happened.
    pub kind: EventKind,
    /// When, in milliseconds since the Unix epoch.
    pub timestamp_ms: u64,
    /// The unit's cache key (`experiment` + params digest), for
    /// unit-lifecycle kinds.
    pub unit: Option<String>,
    /// The experiment name, for unit-lifecycle kinds.
    pub experiment: Option<String>,
    /// Service connection id, for connection kinds.
    pub connection: Option<u64>,
    /// Compute wall time in seconds, on [`EventKind::UnitCompleted`].
    pub wall_s: Option<f64>,
    /// Free-form context (failure message, cache path, …).
    pub detail: Option<String>,
}

impl CampaignEvent {
    /// New event of `kind` stamped with the current time.
    pub fn new(kind: EventKind) -> CampaignEvent {
        CampaignEvent {
            kind,
            timestamp_ms: now_ms(),
            unit: None,
            experiment: None,
            connection: None,
            wall_s: None,
            detail: None,
        }
    }

    /// New unit-lifecycle event carrying the unit's cache key and
    /// experiment name.
    pub fn unit(kind: EventKind, unit_key: &str, experiment: &str) -> CampaignEvent {
        let mut event = CampaignEvent::new(kind);
        event.unit = Some(unit_key.to_string());
        event.experiment = Some(experiment.to_string());
        event
    }

    /// Attach a connection id.
    pub fn with_connection(mut self, id: u64) -> CampaignEvent {
        self.connection = Some(id);
        self
    }

    /// Attach a compute wall time.
    pub fn with_wall(mut self, wall_s: f64) -> CampaignEvent {
        self.wall_s = Some(wall_s);
        self
    }

    /// Attach free-form detail text.
    pub fn with_detail(mut self, detail: &str) -> CampaignEvent {
        self.detail = Some(detail.to_string());
        self
    }

    /// Serialize to the wire JSON object.
    pub fn to_json(&self) -> JsonValue {
        let mut fields = vec![
            (
                "kind".to_string(),
                JsonValue::String(self.kind.as_str().to_string()),
            ),
            (
                "timestamp_ms".to_string(),
                JsonValue::integer(self.timestamp_ms),
            ),
        ];
        if let Some(unit) = &self.unit {
            fields.push(("unit".to_string(), JsonValue::String(unit.clone())));
        }
        if let Some(experiment) = &self.experiment {
            fields.push((
                "experiment".to_string(),
                JsonValue::String(experiment.clone()),
            ));
        }
        if let Some(connection) = self.connection {
            fields.push(("connection".to_string(), JsonValue::integer(connection)));
        }
        if let Some(wall_s) = self.wall_s {
            fields.push(("wall_s".to_string(), JsonValue::number(wall_s)));
        }
        if let Some(detail) = &self.detail {
            fields.push(("detail".to_string(), JsonValue::String(detail.clone())));
        }
        JsonValue::Object(fields)
    }

    /// Parse an event from its wire JSON object.
    pub fn from_json(value: &JsonValue) -> Result<CampaignEvent, String> {
        let kind_token = value
            .get("kind")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| "event missing string `kind`".to_string())?;
        let kind = EventKind::parse(kind_token)
            .ok_or_else(|| format!("unknown event kind {kind_token:?}"))?;
        let timestamp_ms = value
            .get("timestamp_ms")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| "event missing integer `timestamp_ms`".to_string())?;
        Ok(CampaignEvent {
            kind,
            timestamp_ms,
            unit: value
                .get("unit")
                .and_then(JsonValue::as_str)
                .map(String::from),
            experiment: value
                .get("experiment")
                .and_then(JsonValue::as_str)
                .map(String::from),
            connection: value.get("connection").and_then(JsonValue::as_u64),
            wall_s: value.get("wall_s").and_then(JsonValue::as_f64),
            detail: value
                .get("detail")
                .and_then(JsonValue::as_str)
                .map(String::from),
        })
    }
}

// ---------------------------------------------------------------------------
// Event broadcasting
// ---------------------------------------------------------------------------

struct Subscriber {
    id: u64,
    sender: SyncSender<CampaignEvent>,
    notify: Option<Arc<dyn Fn() + Send + Sync>>,
}

#[derive(Default)]
struct BroadcasterInner {
    subscribers: Mutex<Vec<Subscriber>>,
    next_id: AtomicU64,
    dropped: AtomicU64,
}

/// Bounded fan-out of [`CampaignEvent`]s.
///
/// Each subscriber gets its own bounded channel;
/// [`publish`](EventBroadcaster::publish) delivers a clone to each
/// with a non-blocking `try_send`. A subscriber that cannot keep up
/// loses that event (counted in
/// [`events_dropped`](EventBroadcaster::events_dropped)) — a slow
/// dashboard can never
/// stall an engine worker. A dropped [`EventStream`] unregisters
/// itself, so abandoned subscriptions cost nothing.
///
/// Cloning the broadcaster is cheap and shares the subscriber set.
#[derive(Clone, Default)]
pub struct EventBroadcaster {
    inner: Arc<BroadcasterInner>,
}

impl EventBroadcaster {
    /// New broadcaster with no subscribers.
    pub fn new() -> EventBroadcaster {
        EventBroadcaster::default()
    }

    /// Register a subscriber whose channel buffers up to `capacity`
    /// events. Events published while the buffer is full are dropped
    /// for this subscriber (and counted), not queued.
    pub fn subscribe(&self, capacity: usize) -> EventStream {
        self.register(capacity, None)
    }

    /// Like [`subscribe`](EventBroadcaster::subscribe), but invoking
    /// `notify` after each successfully buffered event — the hook a
    /// readiness-driven consumer (the service reactor) installs so it
    /// is woken instead of polling
    /// [`try_recv`](EventStream::try_recv). Dropped (buffer-full)
    /// events do not notify: there is nothing new to read.
    pub fn subscribe_with_notify(
        &self,
        capacity: usize,
        notify: Arc<dyn Fn() + Send + Sync>,
    ) -> EventStream {
        self.register(capacity, Some(notify))
    }

    fn register(
        &self,
        capacity: usize,
        notify: Option<Arc<dyn Fn() + Send + Sync>>,
    ) -> EventStream {
        let (sender, receiver) = std::sync::mpsc::sync_channel(capacity.max(1));
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        self.inner
            .subscribers
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .push(Subscriber { id, sender, notify });
        EventStream {
            id,
            receiver,
            registry: Arc::clone(&self.inner),
        }
    }

    /// Deliver `event` to every live subscriber without blocking.
    /// Full channels drop the event (counted); disconnected receivers
    /// are pruned.
    pub fn publish(&self, event: &CampaignEvent) {
        let mut subscribers = self
            .inner
            .subscribers
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        subscribers.retain(|sub| match sub.sender.try_send(event.clone()) {
            Ok(()) => {
                if let Some(notify) = &sub.notify {
                    notify();
                }
                true
            }
            Err(TrySendError::Full(_)) => {
                self.inner.dropped.fetch_add(1, Ordering::Relaxed);
                true
            }
            Err(TrySendError::Disconnected(_)) => false,
        });
    }

    /// Current number of registered subscribers.
    pub fn subscriber_count(&self) -> usize {
        self.inner
            .subscribers
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .len()
    }

    /// Lifetime count of events lost to full subscriber buffers.
    pub fn events_dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for EventBroadcaster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventBroadcaster")
            .field("subscribers", &self.subscriber_count())
            .field("events_dropped", &self.events_dropped())
            .finish()
    }
}

/// Receiving end of one subscription. Dropping it unregisters the
/// subscriber from the broadcaster.
pub struct EventStream {
    id: u64,
    receiver: Receiver<CampaignEvent>,
    registry: Arc<BroadcasterInner>,
}

impl EventStream {
    /// Wait up to `timeout` for the next event. `Err(Timeout)` means
    /// no event arrived; `Err(Disconnected)` cannot happen while the
    /// broadcaster is alive (senders are pruned only on our drop).
    pub fn recv_timeout(&self, timeout: Duration) -> Result<CampaignEvent, RecvTimeoutError> {
        self.receiver.recv_timeout(timeout)
    }

    /// Take the next buffered event without waiting.
    pub fn try_recv(&self) -> Result<CampaignEvent, TryRecvError> {
        self.receiver.try_recv()
    }

    /// Drain every currently buffered event.
    pub fn drain(&self) -> Vec<CampaignEvent> {
        let mut events = Vec::new();
        while let Ok(event) = self.receiver.try_recv() {
            events.push(event);
        }
        events
    }
}

impl Drop for EventStream {
    fn drop(&mut self) {
        self.registry
            .subscribers
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .retain(|sub| sub.id != self.id);
    }
}

impl std::fmt::Debug for EventStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventStream").field("id", &self.id).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn exposition_emits_headers_once_per_family() {
        let mut exp = Exposition::new();
        exp.counter("hits", "Cache hits.", &[("chip", "M1")], 3);
        exp.counter("hits", "Cache hits.", &[("chip", "M3")], 5);
        let text = exp.finish();
        assert_eq!(text.matches("# HELP hits").count(), 1);
        assert_eq!(text.matches("# TYPE hits counter").count(), 1);
        assert!(text.contains("hits{chip=\"M1\"} 3"));
        assert!(text.contains("hits{chip=\"M3\"} 5"));
    }

    #[test]
    fn exposition_escapes_label_values_and_sanitizes_names() {
        let mut exp = Exposition::new();
        exp.gauge("queue depth!", "Queue.", &[("unit key", "a\"b\\c\nd")], 2.0);
        let text = exp.finish();
        assert!(text.contains("queue_depth_{unit_key=\"a\\\"b\\\\c\\nd\"} 2"));
        assert_eq!(sanitize_metric_name("9lives"), "_9lives");
        assert_eq!(sanitize_metric_name(""), "_");
        assert_eq!(sanitize_label_name("le:gal"), "le_gal");
    }

    #[test]
    fn histogram_renders_cumulative_buckets_sum_and_count() {
        let hist = Histogram::new(vec![0.1, 1.0, 10.0]);
        hist.observe(0.05);
        hist.observe(0.5);
        hist.observe(5.0);
        hist.observe(50.0);
        let snap = hist.snapshot();
        assert_eq!(snap.buckets, vec![(0.1, 1), (1.0, 2), (10.0, 3)]);
        assert_eq!(snap.count, 4);
        assert!((snap.sum - 55.55).abs() < 1e-9);

        let mut exp = Exposition::new();
        exp.histogram(
            "latency_seconds",
            "Unit latency.",
            &[("experiment", "fig4")],
            &snap,
        );
        let text = exp.finish();
        assert!(text.contains("latency_seconds_bucket{experiment=\"fig4\",le=\"0.1\"} 1"));
        assert!(text.contains("latency_seconds_bucket{experiment=\"fig4\",le=\"+Inf\"} 4"));
        assert!(text.contains("latency_seconds_sum{experiment=\"fig4\"} 55.5"));
        assert!(text.contains("latency_seconds_count{experiment=\"fig4\"} 4"));
    }

    #[test]
    fn histogram_is_safe_under_concurrent_observation() {
        let hist = Arc::new(Histogram::latency());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let hist = Arc::clone(&hist);
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        hist.observe(1e-4 * ((t * 1000 + i) as f64 % 17.0 + 1.0));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = hist.snapshot();
        assert_eq!(snap.count, 4000);
        assert!(snap.sum > 0.0);
        // The widest bucket is cumulative over everything.
        assert_eq!(snap.buckets.last().unwrap().1, 4000);
    }

    #[test]
    fn log_spaced_buckets_grow_by_factor() {
        let b = log_spaced_buckets(1e-4, 2.0, 5);
        assert_eq!(b.len(), 5);
        assert!((b[0] - 1e-4).abs() < 1e-12);
        for w in b.windows(2) {
            assert!((w[1] / w[0] - 2.0).abs() < 1e-9);
        }
        assert_eq!(default_latency_buckets().len(), 20);
    }

    #[test]
    fn events_round_trip_through_json() {
        let event = CampaignEvent::unit(EventKind::UnitCompleted, "fig4|abc123", "fig4")
            .with_connection(7)
            .with_wall(0.125)
            .with_detail("computed");
        let text = event.to_json().to_json_string();
        let back =
            CampaignEvent::from_json(&crate::json::parse(&text).expect("parses")).expect("decodes");
        assert_eq!(back, event);

        // Every kind token survives the round trip.
        for kind in [
            EventKind::UnitStarted,
            EventKind::UnitCompleted,
            EventKind::UnitFailed,
            EventKind::CacheHit,
            EventKind::Coalesced,
            EventKind::ConnectionOpened,
            EventKind::ConnectionClosed,
            EventKind::CachePersisted,
            EventKind::Heartbeat,
            EventKind::UnitCancelled,
            EventKind::DeadlineExpired,
            EventKind::SubmissionRejected,
        ] {
            assert_eq!(EventKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(EventKind::parse("no_such_kind"), None);
    }

    #[test]
    fn broadcast_reaches_every_subscriber() {
        let bus = EventBroadcaster::new();
        let a = bus.subscribe(8);
        let b = bus.subscribe(8);
        assert_eq!(bus.subscriber_count(), 2);
        bus.publish(&CampaignEvent::new(EventKind::CachePersisted));
        assert_eq!(a.drain().len(), 1);
        assert_eq!(b.drain().len(), 1);
        drop(a);
        assert_eq!(bus.subscriber_count(), 1);
        drop(b);
        assert_eq!(bus.subscriber_count(), 0);
        // Publishing into the void is fine.
        bus.publish(&CampaignEvent::new(EventKind::Heartbeat));
        assert_eq!(bus.events_dropped(), 0);
    }

    #[test]
    fn slow_subscriber_drops_events_and_never_blocks_the_publisher() {
        let bus = EventBroadcaster::new();
        let slow = bus.subscribe(1); // capacity 1, never read
        let started = Instant::now();
        for _ in 0..100 {
            bus.publish(&CampaignEvent::new(EventKind::Heartbeat));
        }
        // Non-blocking by construction: 100 publishes into a full
        // buffer complete immediately, dropping all but the first.
        assert!(started.elapsed() < Duration::from_secs(1));
        assert_eq!(bus.events_dropped(), 99);
        assert_eq!(slow.drain().len(), 1);
        // A fresh subscriber still receives events after the drops.
        let fresh = bus.subscribe(8);
        bus.publish(&CampaignEvent::new(EventKind::Heartbeat));
        assert_eq!(fresh.drain().len(), 1);
    }
}
