//! The unit-granular execution engine: the crate's scheduling core.
//!
//! Earlier revisions scheduled whole campaigns — one call blocked on
//! one spec end to end, so a long-running service serialized
//! clients and two overlapping specs computed the same units twice. The
//! paper's grid is embarrassingly parallel at the *unit* level, though,
//! and the unit (experiment id + chip + params digest) is the natural
//! scheduling quantum. This module inverts the scheduler around it:
//!
//! - [`ExecutionEngine`] owns a fixed set of persistent worker threads
//!   (each with its own warm [`PlatformPool`]) and a shared **in-flight
//!   table** keyed by `(cache instance, UnitKey)`;
//! - callers [`submit`](ExecutionEngine::submit) a batch of plan units
//!   under a [`Subscription`]; every unit resolves to exactly one of
//!   - an **immediate cache hit** (delivered before `submit` returns),
//!   - a **computation** this subscription triggered, or
//!   - a **coalesced join**: the unit is already in flight for another
//!     subscription (possibly another service connection), so this one
//!     attaches as a waiter and receives the same outcome when the one
//!     computation finishes — cross-request dedupe with zero recompute;
//! - completed [`UnitOutcome`]s are delivered over the subscription's
//!   private channel *as they finish*, tagged with the submitter's unit
//!   index, so consumers can stream results long before the whole batch
//!   is done (the campaign service does exactly that).
//!
//! Failure is unit-scoped: an experiment error — or a **panic**, which
//! the worker catches and converts into
//! [`CampaignError::UnitPanicked`](crate::scheduler::CampaignError) —
//! fails only the subscriptions waiting on that unit. The engine and its
//! threads stay up, and the worker discards its platform pool (the only
//! state a panicking unit could have corrupted) before taking the next
//! job.
//!
//! The layers above are thin adapters: [`run_campaign`] and
//! [`run_campaign_on`] submit a whole plan and assemble deliveries back
//! into deterministic plan order (value-identical to a serial run), and
//! [`CampaignService`] feeds every client connection into one shared
//! engine.
//!
//! [`run_campaign`]: crate::scheduler::run_campaign
//! [`run_campaign_on`]: crate::scheduler::run_campaign_on
//! [`CampaignService`]: crate::service::CampaignService

use crate::cache::ResultCache;
use crate::plan::{PlanUnit, UnitKey};
use crate::scheduler::CampaignError;
use oranges::experiments::ExperimentOutput;
use oranges::platform::PlatformPool;
use oranges_harness::obs::{
    CampaignEvent, EventBroadcaster, EventKind, Histogram, HistogramSnapshot,
};
use oranges_soc::chip::ChipGeneration;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, Weak};
use std::thread;
use std::time::{Duration, Instant};

/// Scheduling class of a submission. The engine runs **weighted fair
/// queueing** across the three classes (see `DISPATCH_PATTERN`): when
/// several classes have queued work, workers serve them in a fixed 4:2:1
/// high:normal:batch rotation, so a saturating batch campaign cannot
/// starve a small high-priority probe, while a backed-up high class
/// still leaks batch work through (no class starves outright).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Priority {
    /// Interactive probes; 4 of every 7 dispatch slots.
    High,
    /// The default; 2 of every 7 dispatch slots.
    #[default]
    Normal,
    /// Bulk campaigns (the fleet orchestrator submits shards here);
    /// 1 of every 7 dispatch slots.
    Batch,
}

/// The weighted round-robin dispatch rotation. Workers scan this
/// pattern from a rotating cursor and pop from the first class with
/// queued work, which yields the 4:2:1 service weights.
const DISPATCH_PATTERN: [Priority; 7] = [
    Priority::High,
    Priority::High,
    Priority::High,
    Priority::High,
    Priority::Normal,
    Priority::Normal,
    Priority::Batch,
];

impl Priority {
    /// Stable wire token (`"high"` / `"normal"` / `"batch"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Batch => "batch",
        }
    }

    /// Parse a wire token (the inverse of [`as_str`](Priority::as_str)).
    pub fn parse(token: &str) -> Option<Priority> {
        match token {
            "high" => Some(Priority::High),
            "normal" => Some(Priority::Normal),
            "batch" => Some(Priority::Batch),
            _ => None,
        }
    }

    /// Index into the per-class queue array.
    fn index(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Batch => 2,
        }
    }

    /// Strictly increasing with urgency, for promotion comparisons.
    fn urgency(self) -> u8 {
        match self {
            Priority::High => 2,
            Priority::Normal => 1,
            Priority::Batch => 0,
        }
    }

    /// All classes, in queue-array order.
    pub const ALL: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Batch];
}

/// Per-submission scheduling options for
/// [`ExecutionEngine::submit_with`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SubmitOptions {
    /// Scheduling class (default [`Priority::Normal`]).
    pub priority: Priority,
    /// Fail this subscription's still-unresolved units with
    /// [`CampaignError::DeadlineExceeded`] once this much time has
    /// passed since submit. Units whose computation is already running
    /// when the deadline fires still complete (and land in the cache)
    /// — the deadline fails *deliveries*, never other subscribers.
    pub deadline: Option<Duration>,
}

impl SubmitOptions {
    /// Options at the given priority, no deadline.
    pub fn priority(priority: Priority) -> SubmitOptions {
        SubmitOptions {
            priority,
            deadline: None,
        }
    }

    /// Builder-style deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> SubmitOptions {
        self.deadline = Some(deadline);
        self
    }
}

/// Typed admission rejection from
/// [`ExecutionEngine::submit_with`]. A rejected submission leaves the
/// engine exactly as it found it: no units counted, no queue slots or
/// in-flight entries taken, no cache reads recorded — only
/// [`EngineStats::submissions_rejected`] ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// The submission needed more queue slots than the engine's cap
    /// has free. Retry later, shrink the batch, or raise the cap.
    Busy {
        /// Jobs queued (all classes) at rejection time.
        queued: usize,
        /// The engine's queue cap.
        cap: usize,
        /// Fresh computations this submission would have enqueued.
        needed: usize,
    },
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmitError::Busy {
                queued,
                cap,
                needed,
            } => write!(
                f,
                "engine busy: submission needs {needed} queue slots but {queued}/{cap} are taken"
            ),
        }
    }
}

impl std::error::Error for AdmitError {}

/// What a cancellation (explicit, drop, or deadline) actually undid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CancelOutcome {
    /// Deliveries this subscriber will no longer receive (each was
    /// answered with a typed error instead).
    pub waiters_cancelled: usize,
    /// Queued, not-yet-started computations abandoned because this
    /// subscriber was their only waiter. In-flight computations with
    /// other waiters — coalesced siblings — are never touched.
    pub jobs_abandoned: usize,
}

/// How a subscription's unit was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnitSource {
    /// Computed by a worker for this subscription (it was the first
    /// submitter of the key).
    Computed,
    /// Served from the result cache at submit time.
    CacheHit,
    /// Attached to a computation another submission already had in
    /// flight; the outcome is shared, nothing was recomputed.
    Coalesced,
}

impl UnitSource {
    /// Stable wire token (`"computed"` / `"cache"` / `"coalesced"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            UnitSource::Computed => "computed",
            UnitSource::CacheHit => "cache",
            UnitSource::Coalesced => "coalesced",
        }
    }

    /// Parse a wire token (the inverse of [`as_str`](UnitSource::as_str)).
    pub fn parse(token: &str) -> Option<UnitSource> {
        match token {
            "computed" => Some(UnitSource::Computed),
            "cache" => Some(UnitSource::CacheHit),
            "coalesced" => Some(UnitSource::Coalesced),
            _ => None,
        }
    }

    /// Whether the subscription got the result without computing it
    /// (cache hit or coalesced join).
    pub fn from_cache(&self) -> bool {
        !matches!(self, UnitSource::Computed)
    }
}

/// One satisfied unit: how it was satisfied, the shared output, and the
/// worker wall time this subscription is charged for it — the compute
/// time when this subscription triggered the computation, near-zero
/// otherwise (cache hits and coalesced joins cost no worker time, so
/// unit-wall totals never double-count a shared computation).
#[derive(Debug, Clone)]
pub struct UnitOutcome {
    /// How this subscription got the result.
    pub source: UnitSource,
    /// The unit's output (shared — coalesced subscribers receive the
    /// very same allocation the producer stored).
    pub output: Arc<ExperimentOutput>,
    /// Worker wall time charged to this subscription for the unit.
    pub wall: Duration,
}

/// One message on a subscription channel: the submitter's unit index
/// plus the unit's outcome (or its unit-scoped failure).
#[derive(Debug, Clone)]
pub struct UnitDelivery {
    /// Index of the unit within the submitted batch (plan index for
    /// whole-plan submissions).
    pub index: usize,
    /// The unit's result.
    pub outcome: Result<UnitOutcome, CampaignError>,
}

/// Lifetime counters of an [`ExecutionEngine`].
///
/// # Counter identity
///
/// Every accepted unit is classified at submit time as a cache hit, a
/// coalesced join, or the enqueueing submission of a fresh job — and
/// every fresh job retires as exactly one of computed, failed, or
/// cancelled (abandoned while still queued). So at quiescence (no
/// queued or in-flight units):
///
/// ```text
/// units_submitted == units_computed + cache_hits + coalesced_joins
///                    + units_failed + units_cancelled
/// ```
///
/// `deadline_expired` and `submissions_rejected` sit *outside* the
/// identity: the former counts failed deliveries (the unit itself may
/// still compute for a coalesced sibling, or be double-counted in
/// `units_cancelled` when its queued job was abandoned too), and the
/// latter counts whole rejected submissions, whose units were never
/// admitted into `units_submitted` at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Units accepted across all subscriptions (rejected submissions
    /// contribute nothing).
    pub units_submitted: u64,
    /// Units actually computed by a worker.
    pub units_computed: u64,
    /// Units served from the cache at submit time.
    pub cache_hits: u64,
    /// Units that attached to an already-in-flight computation instead
    /// of recomputing — the cross-request dedupe counter.
    pub coalesced_joins: u64,
    /// Units that failed (experiment error or panic).
    pub units_failed: u64,
    /// Queued computations abandoned by cancellation or deadline
    /// expiry before a worker picked them up.
    pub units_cancelled: u64,
    /// Unit deliveries failed with
    /// [`CampaignError::DeadlineExceeded`].
    pub deadline_expired: u64,
    /// Whole submissions turned away with [`AdmitError::Busy`].
    pub submissions_rejected: u64,
    /// Lifecycle events lost to full subscriber buffers (see
    /// [`ExecutionEngine::events`]).
    pub events_dropped: u64,
}

impl EngineStats {
    /// The right-hand side of the counter identity (see the type-level
    /// docs): equals [`units_submitted`](EngineStats::units_submitted)
    /// at quiescence.
    pub fn units_resolved(&self) -> u64 {
        self.units_computed
            + self.cache_hits
            + self.coalesced_joins
            + self.units_failed
            + self.units_cancelled
    }
}

/// A completion wakeup callback, invoked after each delivery lands on
/// a subscription's channel (see
/// [`ExecutionEngine::submit_with_notify`]). Must be cheap and
/// non-blocking — it runs on engine worker threads.
pub(crate) type DeliveryNotify = Arc<dyn Fn() + Send + Sync>;

/// A waiter attached to one in-flight computation.
struct Waiter {
    index: usize,
    source: UnitSource,
    sender: mpsc::Sender<UnitDelivery>,
    /// Owning subscription, so cancellation can surgically remove this
    /// waiter without touching coalesced siblings.
    sub: u64,
    /// Completion hook fired after each send on `sender`.
    notify: Option<DeliveryNotify>,
}

/// One queued computation.
struct Job {
    slot: InflightKey,
    unit: PlanUnit,
    cache: ResultCache,
}

/// In-flight computations are keyed per cache *instance*: two
/// submissions coalesce only when they would read and fill the same
/// store (campaigns over distinct caches must each populate their own).
type InflightKey = (usize, UnitKey);

/// One in-flight computation: its waiters, the class its job is queued
/// under, and whether it is still in a queue (a worker flips `queued`
/// off when it picks the job up — cancellation may only abandon jobs
/// that are still queued).
struct Flight {
    waiters: Vec<Waiter>,
    priority: Priority,
    queued: bool,
}

#[derive(Default)]
struct EngineState {
    /// One FIFO per priority class, indexed by [`Priority::index`].
    queues: [VecDeque<Job>; 3],
    /// Rotating position in [`DISPATCH_PATTERN`].
    cursor: usize,
    inflight: HashMap<InflightKey, Flight>,
}

impl EngineState {
    fn queued_total(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Weighted-fair pop: scan the dispatch pattern from the cursor and
    /// take the head of the first class with queued work. Marks the
    /// job's flight as no longer queued (it is now owned by a worker).
    fn pop_job(&mut self) -> Option<Job> {
        for step in 0..DISPATCH_PATTERN.len() {
            let position = (self.cursor + step) % DISPATCH_PATTERN.len();
            let class = DISPATCH_PATTERN[position];
            if let Some(job) = self.queues[class.index()].pop_front() {
                self.cursor = (position + 1) % DISPATCH_PATTERN.len();
                if let Some(flight) = self.inflight.get_mut(&job.slot) {
                    flight.queued = false;
                }
                return Some(job);
            }
        }
        None
    }
}

/// A subscription deadline awaiting the reaper.
struct DeadlineEntry {
    at: Instant,
    sub: u64,
}

struct EngineShared {
    state: Mutex<EngineState>,
    wake: Condvar,
    shutdown: AtomicBool,
    /// Queue cap for bounded admission; `None` = unbounded.
    queue_cap: Option<usize>,
    /// Subscription id allocator (cancellation's addressing scheme).
    next_sub: AtomicU64,
    /// Registered deadlines, serviced by the reaper thread. Locked
    /// strictly non-nested with `state`.
    deadlines: Mutex<Vec<DeadlineEntry>>,
    deadline_wake: Condvar,
    units_submitted: AtomicU64,
    units_computed: AtomicU64,
    cache_hits: AtomicU64,
    coalesced_joins: AtomicU64,
    units_failed: AtomicU64,
    units_cancelled: AtomicU64,
    deadline_expired: AtomicU64,
    submissions_rejected: AtomicU64,
    events: EventBroadcaster,
    /// Per-experiment compute-latency histograms, keyed by experiment
    /// id. The lock guards only the map; observations on a retrieved
    /// histogram are lock-free.
    latency: Mutex<HashMap<String, Arc<Histogram>>>,
}

impl EngineShared {
    /// The state lock, recovering from poisoning. A panic while the
    /// lock is held would poison it; every critical section here is a
    /// queue/map operation that cannot leave the state torn, and
    /// refusing to continue would wedge every subscriber — so the
    /// engine shrugs the poison off instead of propagating it.
    fn state(&self) -> std::sync::MutexGuard<'_, EngineState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The deadline registry lock (same poison-shrugging rationale as
    /// [`state`](EngineShared::state)).
    fn deadlines(&self) -> std::sync::MutexGuard<'_, Vec<DeadlineEntry>> {
        self.deadlines
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Record one computed-unit latency in the experiment's histogram,
    /// creating the histogram on first observation.
    fn record_latency(&self, experiment: &str, seconds: f64) {
        let histogram = {
            let mut map = self
                .latency
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            Arc::clone(
                map.entry(experiment.to_string())
                    .or_insert_with(|| Arc::new(Histogram::latency())),
            )
        };
        histogram.observe(seconds);
    }
}

/// A handle to one submission's result stream.
///
/// Dropping the subscription **cancels** whatever of it has not
/// resolved: queued computations nobody else is waiting on are
/// abandoned (freeing their queue slots), while computations with
/// coalesced siblings — or already running on a worker — are left
/// strictly alone. Dropping after draining every delivery is therefore
/// a no-op.
pub struct Subscription {
    receiver: mpsc::Receiver<UnitDelivery>,
    expected: usize,
    sub: u64,
    shared: Arc<EngineShared>,
}

impl Subscription {
    /// How many deliveries this subscription will receive in total (one
    /// per submitted unit, counting immediate cache hits).
    pub fn expected(&self) -> usize {
        self.expected
    }

    /// Block until the next delivery. Returns `None` once every unit has
    /// been delivered — or if the engine shut down underneath us, which
    /// callers should treat as a failure when deliveries are missing.
    pub fn recv(&self) -> Option<UnitDelivery> {
        self.receiver.recv().ok()
    }

    /// Next delivery, waiting at most `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<UnitDelivery, mpsc::RecvTimeoutError> {
        self.receiver.recv_timeout(timeout)
    }

    /// Next delivery if one is already queued, without blocking — the
    /// companion to a submission with a delivery notify: a reactor
    /// drains this on each delivery wakeup instead of parking a thread.
    pub fn try_recv(&self) -> Result<UnitDelivery, mpsc::TryRecvError> {
        self.receiver.try_recv()
    }

    /// Cancel the subscription's unresolved units now: each is answered
    /// with [`CampaignError::Cancelled`] over this channel, and queued
    /// jobs with no other waiter are abandoned. Idempotent, and safe to
    /// race with workers — a job a worker already picked up completes
    /// normally (into the cache, for any coalesced siblings).
    pub fn cancel(&self) -> CancelOutcome {
        cancel_subscription(&self.shared, self.sub, CancelKind::Cancelled)
    }

    /// A clonable handle that can cancel this subscription from
    /// anywhere — the service's `cancel` wire method keeps one per
    /// `run_token`. Holding it does not keep the engine alive.
    pub(crate) fn cancel_handle(&self) -> CancelHandle {
        CancelHandle {
            sub: self.sub,
            shared: Arc::downgrade(&self.shared),
        }
    }
}

impl fmt::Debug for Subscription {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Subscription")
            .field("sub", &self.sub)
            .field("expected", &self.expected)
            .finish_non_exhaustive()
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        cancel_subscription(&self.shared, self.sub, CancelKind::Cancelled);
    }
}

/// Cancels one subscription from outside it (the daemon holds one per
/// running request). Cancelling an already-resolved or
/// already-cancelled subscription is a harmless no-op that reports
/// zeros.
#[derive(Clone)]
pub(crate) struct CancelHandle {
    sub: u64,
    shared: Weak<EngineShared>,
}

impl CancelHandle {
    /// Cancel the subscription (same semantics as
    /// [`Subscription::cancel`]).
    pub fn cancel(&self) -> CancelOutcome {
        match self.shared.upgrade() {
            Some(shared) => cancel_subscription(&shared, self.sub, CancelKind::Cancelled),
            None => CancelOutcome::default(),
        }
    }
}

/// The shared, unit-granular execution core: persistent worker threads,
/// one in-flight table, per-subscription delivery channels. `Sync` by
/// design — any number of callers (service connections, concurrent
/// `run_campaign_on`s, tests) may submit at once, and overlapping
/// submissions against the same cache coalesce instead of recomputing.
pub struct ExecutionEngine {
    shared: Arc<EngineShared>,
    handles: Vec<thread::JoinHandle<()>>,
    reaper: Option<thread::JoinHandle<()>>,
    workers: usize,
}

impl ExecutionEngine {
    /// Spawn `workers` (≥ 1 enforced) persistent worker threads with an
    /// unbounded queue.
    pub fn new(workers: usize) -> Self {
        Self::with_queue_cap(workers, None)
    }

    /// Spawn `workers` (≥ 1 enforced) persistent worker threads,
    /// bounding the job queue at `queue_cap` when given: submissions
    /// that would enqueue more fresh computations than the cap has free
    /// slots are rejected whole with [`AdmitError::Busy`]. Coalesced
    /// joins and cache hits take no slots, so they are always admitted.
    pub fn with_queue_cap(workers: usize, queue_cap: Option<usize>) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(EngineShared {
            state: Mutex::new(EngineState::default()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            queue_cap,
            next_sub: AtomicU64::new(0),
            deadlines: Mutex::new(Vec::new()),
            deadline_wake: Condvar::new(),
            units_submitted: AtomicU64::new(0),
            units_computed: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            coalesced_joins: AtomicU64::new(0),
            units_failed: AtomicU64::new(0),
            units_cancelled: AtomicU64::new(0),
            deadline_expired: AtomicU64::new(0),
            submissions_rejected: AtomicU64::new(0),
            events: EventBroadcaster::new(),
            latency: Mutex::new(HashMap::new()),
        });
        let handles: Vec<thread::JoinHandle<()>> = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || engine_worker_loop(&shared))
            })
            .collect();
        // The deadline reaper rides along as one more engine thread
        // (tracked apart from the workers so health gauges stay
        // honest); it sleeps until the earliest registered deadline and
        // costs nothing when deadlines are unused.
        let reaper = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || deadline_reaper_loop(&shared))
        };
        ExecutionEngine {
            shared,
            handles,
            reaper: Some(reaper),
            workers,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The queue cap this engine admits against, if bounded.
    pub fn queue_cap(&self) -> Option<usize> {
        self.shared.queue_cap
    }

    /// Lifetime counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            units_submitted: self.shared.units_submitted.load(Ordering::Relaxed),
            units_computed: self.shared.units_computed.load(Ordering::Relaxed),
            cache_hits: self.shared.cache_hits.load(Ordering::Relaxed),
            coalesced_joins: self.shared.coalesced_joins.load(Ordering::Relaxed),
            units_failed: self.shared.units_failed.load(Ordering::Relaxed),
            units_cancelled: self.shared.units_cancelled.load(Ordering::Relaxed),
            deadline_expired: self.shared.deadline_expired.load(Ordering::Relaxed),
            submissions_rejected: self.shared.submissions_rejected.load(Ordering::Relaxed),
            events_dropped: self.shared.events.events_dropped(),
        }
    }

    /// Number of jobs queued but not yet picked up by a worker, summed
    /// across all priority classes.
    pub fn queue_depth(&self) -> usize {
        self.shared.state().queued_total()
    }

    /// Per-class queue depths, indexed like [`Priority::ALL`]
    /// (high, normal, batch).
    pub fn queue_depths(&self) -> [usize; 3] {
        let state = self.shared.state();
        [
            state.queues[0].len(),
            state.queues[1].len(),
            state.queues[2].len(),
        ]
    }

    /// Number of units currently in flight (queued or computing).
    pub fn inflight(&self) -> usize {
        self.shared.state().inflight.len()
    }

    /// Number of worker threads still running. Anything less than
    /// [`workers`](ExecutionEngine::workers) means a worker died to an
    /// engine bug — the readiness signal a health probe wants.
    pub(crate) fn alive_workers(&self) -> usize {
        self.handles.iter().filter(|h| !h.is_finished()).count()
    }

    /// The engine's event broadcaster — the service publishes its own
    /// connection/cache events onto the same bus so one `subscribe`
    /// stream carries everything.
    pub fn events(&self) -> &EventBroadcaster {
        &self.shared.events
    }

    /// Current subscriber count on the event bus.
    pub fn event_subscribers(&self) -> usize {
        self.shared.events.subscriber_count()
    }

    /// Per-experiment compute-latency snapshots, sorted by experiment
    /// id for deterministic exposition output.
    pub(crate) fn latency_snapshots(&self) -> Vec<(String, HistogramSnapshot)> {
        let map = self
            .shared
            .latency
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut snapshots: Vec<(String, HistogramSnapshot)> = map
            .iter()
            .map(|(id, histogram)| (id.clone(), histogram.snapshot()))
            .collect();
        snapshots.sort_by(|a, b| a.0.cmp(&b.0));
        snapshots
    }

    /// Submit a batch of units against `cache` and receive their
    /// outcomes over a private channel, tagged with each unit's position
    /// in `units`. Per unit, exactly one of three things happens
    /// atomically under the engine lock:
    ///
    /// 1. the key is already **in flight** for this cache → attach as a
    ///    waiter (coalesced join; the one computation serves everyone);
    /// 2. the cache already **holds** the key → deliver immediately;
    /// 3. otherwise → enter the in-flight table and enqueue a job.
    ///
    /// Duplicate keys *within* one batch coalesce too (the second
    /// occurrence attaches to the first's computation).
    ///
    /// Uses default [`SubmitOptions`] (normal priority, no deadline)
    /// and bypasses nothing: on an engine with a queue cap this
    /// **panics** when the cap would reject the submission — capped
    /// engines should call [`submit_with`](ExecutionEngine::submit_with)
    /// and handle [`AdmitError::Busy`].
    pub fn submit(&self, units: &[PlanUnit], cache: &ResultCache) -> Subscription {
        self.submit_with(units, cache, SubmitOptions::default())
            .expect("submission rejected; use submit_with on a capped engine")
    }

    /// [`submit`](ExecutionEngine::submit) with explicit scheduling
    /// options, and with bounded admission: on a capped engine, a
    /// submission that would enqueue more fresh computations than the
    /// cap has free slots is rejected whole with [`AdmitError::Busy`],
    /// leaving the engine value-identical to never having been asked —
    /// no counters (beyond the rejection itself), queue slots,
    /// in-flight entries, or cache reads.
    pub fn submit_with(
        &self,
        units: &[PlanUnit],
        cache: &ResultCache,
        options: SubmitOptions,
    ) -> Result<Subscription, AdmitError> {
        self.submit_with_notify(units, cache, options, None)
    }

    /// [`submit_with`](ExecutionEngine::submit_with) plus a delivery
    /// wakeup hook: `notify` is invoked after **every** delivery lands
    /// on the subscription's channel — submit-time cache hits, worker
    /// completions and failures, cancellations, and deadline expiries
    /// alike — so a readiness-driven consumer (the service reactor)
    /// can drain [`Subscription::try_recv`] on wakeups instead of
    /// parking a thread in [`Subscription::recv`].
    pub(crate) fn submit_with_notify(
        &self,
        units: &[PlanUnit],
        cache: &ResultCache,
        options: SubmitOptions,
        notify: Option<DeliveryNotify>,
    ) -> Result<Subscription, AdmitError> {
        let (sender, receiver) = mpsc::channel();
        let cache_id = cache.instance_id();
        let sub = self.shared.next_sub.fetch_add(1, Ordering::Relaxed);
        let mut queued_any = false;
        let mut pending_waiters = false;
        // Events are collected under the lock (so their order matches
        // the classification order) but broadcast only after it is
        // released — the critical section stays queue-work only.
        let mut events: Vec<CampaignEvent> = Vec::new();
        {
            let mut state = self.shared.state();
            // Admission pass: count the fresh computations this batch
            // would enqueue, without mutating anything. Uses the
            // non-counting `ResultCache::contains` so a rejected
            // submission perturbs no cache statistics either. (Cache
            // entries are never removed, so a key that reads as a hit
            // here cannot become a fresh job in the commit pass below.)
            if let Some(cap) = self.shared.queue_cap {
                let queued = state.queued_total();
                let mut fresh: HashSet<InflightKey> = HashSet::new();
                for unit in units {
                    let slot = (cache_id, unit.key.clone());
                    if state.inflight.contains_key(&slot) || cache.contains(&unit.key) {
                        continue;
                    }
                    fresh.insert(slot);
                }
                let needed = fresh.len();
                if queued + needed > cap {
                    drop(state);
                    self.shared
                        .submissions_rejected
                        .fetch_add(1, Ordering::Relaxed);
                    self.shared.events.publish(
                        &CampaignEvent::new(EventKind::SubmissionRejected).with_detail(&format!(
                            "needs {needed} queue slots, {queued}/{cap} taken"
                        )),
                    );
                    return Err(AdmitError::Busy {
                        queued,
                        cap,
                        needed,
                    });
                }
            }
            // Commit pass: classify every unit, as before.
            for unit in units {
                self.shared.units_submitted.fetch_add(1, Ordering::Relaxed);
                let slot = (cache_id, unit.key.clone());
                let mut promotion: Option<Priority> = None;
                if let Some(flight) = state.inflight.get_mut(&slot) {
                    self.shared.coalesced_joins.fetch_add(1, Ordering::Relaxed);
                    events.push(CampaignEvent::unit(
                        EventKind::Coalesced,
                        &unit.key.to_string(),
                        &unit.key.id,
                    ));
                    flight.waiters.push(Waiter {
                        index: unit.index,
                        source: UnitSource::Coalesced,
                        sender: sender.clone(),
                        sub,
                        notify: notify.clone(),
                    });
                    pending_waiters = true;
                    // Priority inheritance: a high-priority join must
                    // not wait behind the batch queue its producer
                    // chose, so the queued job moves to the joiner's
                    // class.
                    if flight.queued && options.priority.urgency() > flight.priority.urgency() {
                        promotion = Some(flight.priority);
                        flight.priority = options.priority;
                    }
                }
                if let Some(from) = promotion {
                    let queue = &mut state.queues[from.index()];
                    if let Some(position) = queue.iter().position(|job| job.slot == slot) {
                        if let Some(job) = queue.remove(position) {
                            state.queues[options.priority.index()].push_back(job);
                        }
                    }
                    continue;
                }
                if state.inflight.contains_key(&slot) {
                    continue;
                }
                let probe = Instant::now();
                if let Some(hit) = cache.get(&unit.key) {
                    self.shared.cache_hits.fetch_add(1, Ordering::Relaxed);
                    events.push(CampaignEvent::unit(
                        EventKind::CacheHit,
                        &unit.key.to_string(),
                        &unit.key.id,
                    ));
                    let _ = sender.send(UnitDelivery {
                        index: unit.index,
                        outcome: Ok(UnitOutcome {
                            source: UnitSource::CacheHit,
                            output: hit,
                            wall: probe.elapsed(),
                        }),
                    });
                    if let Some(notify) = &notify {
                        notify();
                    }
                    continue;
                }
                state.inflight.insert(
                    slot.clone(),
                    Flight {
                        waiters: vec![Waiter {
                            index: unit.index,
                            source: UnitSource::Computed,
                            sender: sender.clone(),
                            sub,
                            notify: notify.clone(),
                        }],
                        priority: options.priority,
                        queued: true,
                    },
                );
                state.queues[options.priority.index()].push_back(Job {
                    slot,
                    unit: unit.clone(),
                    cache: cache.clone(),
                });
                queued_any = true;
                pending_waiters = true;
            }
        }
        if queued_any {
            self.shared.wake.notify_all();
        }
        for event in &events {
            self.shared.events.publish(event);
        }
        // Register the deadline only when something is actually left to
        // wait for (all-cache-hit submissions resolve before return).
        if let Some(deadline) = options.deadline {
            if pending_waiters {
                self.shared.deadlines().push(DeadlineEntry {
                    at: Instant::now() + deadline,
                    sub,
                });
                self.shared.deadline_wake.notify_all();
            }
        }
        Ok(Subscription {
            receiver,
            expected: units.len(),
            sub,
            shared: Arc::clone(&self.shared),
        })
    }
}

impl Drop for ExecutionEngine {
    fn drop(&mut self) {
        {
            // Store under the state lock so a worker can never check the
            // flag and then miss the wakeup.
            let _state = self.shared.state();
            self.shared.shutdown.store(true, Ordering::Relaxed);
        }
        self.shared.wake.notify_all();
        {
            // Same dance for the reaper, which waits on its own lock.
            let _deadlines = self.shared.deadlines();
        }
        self.shared.deadline_wake.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
        if let Some(reaper) = self.reaper.take() {
            let _ = reaper.join();
        }
    }
}

/// The chip a chip-independent unit borrows a platform for.
fn platform_chip(unit: &PlanUnit) -> ChipGeneration {
    unit.experiment.chip().unwrap_or(ChipGeneration::ALL[0])
}

fn engine_worker_loop(shared: &EngineShared) {
    // The platform pool persists across jobs — the warmth a long-running
    // engine buys over per-campaign threads.
    let mut pool = PlatformPool::new();
    loop {
        let job = {
            let mut state = shared.state();
            loop {
                if shared.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                match state.pop_job() {
                    Some(job) => break job,
                    None => {
                        state = shared
                            .wake
                            .wait(state)
                            .unwrap_or_else(std::sync::PoisonError::into_inner)
                    }
                }
            }
        };
        shared.events.publish(&CampaignEvent::unit(
            EventKind::UnitStarted,
            &job.unit.key.to_string(),
            &job.unit.key.id,
        ));
        // The engine must never wedge: `service_job` retires the job's
        // in-flight entry and notifies every waiter on all of its own
        // paths, and if it panics anyway (a bug in *our* code, not the
        // experiment's — those are caught inside), the catch here keeps
        // the worker thread alive and `abort_job` unblocks the waiters
        // with a typed error so no subscriber waits on a dead entry.
        let serviced = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            service_job(shared, &job, &mut pool)
        }));
        if serviced.is_err() {
            pool = PlatformPool::new();
            abort_job(shared, &job);
        }
    }
}

/// Run one job end to end: compute (or fail) the unit, retire its
/// in-flight entry, and deliver the shared outcome to every waiter.
fn service_job(shared: &EngineShared, job: &Job, pool: &mut PlatformPool) {
    let started = Instant::now();
    // Unit failure must be unit-scoped: a panicking experiment fails its
    // subscribers, not the engine. The catch is wrapped tightly around
    // the experiment call so the failure is attributed to the unit.
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        // This worker's core stays claimed while it computes, so the
        // unit's host-parallel GEMMs fan out only onto cores no sibling
        // worker is computing on. The guard also releases on unwind.
        let _core = oranges_kernels::core_budget().claim();
        job.unit
            .experiment
            .run(pool.platform(platform_chip(&job.unit)))
    }));
    let outcome: Result<Arc<ExperimentOutput>, CampaignError> = match run {
        Ok(Ok(mut output)) => {
            output.stamp_wall_time(started.elapsed().as_secs_f64());
            shared.units_computed.fetch_add(1, Ordering::Relaxed);
            // Insert *before* retiring the in-flight entry, so a
            // concurrent submit always finds the key in one of the two
            // places.
            Ok(job.cache.insert(job.unit.key.clone(), output))
        }
        Ok(Err(error)) => {
            shared.units_failed.fetch_add(1, Ordering::Relaxed);
            Err(CampaignError::Unit {
                key: job.unit.key.clone(),
                error,
            })
        }
        Err(panic) => {
            shared.units_failed.fetch_add(1, Ordering::Relaxed);
            // The unwound experiment may have left this worker's
            // platforms in a torn state; discard them. Fresh pools are
            // cheap next to the corruption risk.
            *pool = PlatformPool::new();
            Err(CampaignError::UnitPanicked {
                key: job.unit.key.clone(),
                message: panic_message(panic.as_ref()),
            })
        }
    };
    let wall = started.elapsed();
    let event = match &outcome {
        Ok(_) => {
            shared.record_latency(&job.unit.key.id, wall.as_secs_f64());
            CampaignEvent::unit(
                EventKind::UnitCompleted,
                &job.unit.key.to_string(),
                &job.unit.key.id,
            )
            .with_wall(wall.as_secs_f64())
        }
        Err(error) => CampaignEvent::unit(
            EventKind::UnitFailed,
            &job.unit.key.to_string(),
            &job.unit.key.id,
        )
        .with_detail(&error.to_string()),
    };
    shared.events.publish(&event);

    let waiters = shared
        .state()
        .inflight
        .remove(&job.slot)
        .map(|flight| flight.waiters)
        .unwrap_or_default();
    for waiter in waiters {
        let _ = waiter.sender.send(UnitDelivery {
            index: waiter.index,
            outcome: outcome.clone().map(|output| UnitOutcome {
                source: waiter.source,
                output,
                // The compute wall belongs to the one subscription that
                // triggered the computation; coalesced waiters spent no
                // worker time (their delivery latency shows up in their
                // campaign's own wall clock), so charging them too would
                // double-count in unit-wall/utilization accounting.
                wall: if waiter.source == UnitSource::Computed {
                    wall
                } else {
                    Duration::ZERO
                },
            }),
        });
        if let Some(notify) = &waiter.notify {
            notify();
        }
    }
}

/// Last-ditch cleanup when servicing a job panicked in engine code:
/// retire the in-flight entry (if it is still there) and fail its
/// waiters with a typed error, so nothing ever blocks on a job the
/// engine could not finish.
fn abort_job(shared: &EngineShared, job: &Job) {
    shared.units_failed.fetch_add(1, Ordering::Relaxed);
    shared.events.publish(
        &CampaignEvent::unit(
            EventKind::UnitFailed,
            &job.unit.key.to_string(),
            &job.unit.key.id,
        )
        .with_detail("engine worker panicked servicing the unit"),
    );
    let waiters = shared
        .state()
        .inflight
        .remove(&job.slot)
        .map(|flight| flight.waiters)
        .unwrap_or_default();
    for waiter in waiters {
        let _ = waiter.sender.send(UnitDelivery {
            index: waiter.index,
            outcome: Err(CampaignError::Worker(format!(
                "engine worker panicked servicing unit {}",
                job.unit.key
            ))),
        });
        if let Some(notify) = &waiter.notify {
            notify();
        }
    }
}

/// Why a subscription's unresolved units are being torn down — decides
/// the typed error delivered and which counter ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CancelKind {
    /// Explicit cancel, or the subscription was dropped.
    Cancelled,
    /// The subscription's deadline expired.
    Deadline,
}

/// Tear down one subscription's unresolved units: remove its waiters
/// (each answered with a typed error over its own channel), and abandon
/// queued jobs left with no waiter at all. The subtle invariant lives
/// here: waiters are matched by subscription id, so a cancelled
/// *producer* never takes an in-flight unit away from coalesced
/// siblings — and a job a worker already picked up (`queued == false`)
/// is never abandoned; it completes into the cache for whoever remains.
///
/// Idempotent: a second call (or a cancel racing a deadline) finds
/// nothing left to remove and reports zeros.
fn cancel_subscription(shared: &EngineShared, sub: u64, kind: CancelKind) -> CancelOutcome {
    type Orphan = (
        usize,
        mpsc::Sender<UnitDelivery>,
        UnitKey,
        Option<DeliveryNotify>,
    );
    let mut orphaned: Vec<Orphan> = Vec::new();
    let mut abandoned: Vec<UnitKey> = Vec::new();
    {
        let mut state = shared.state();
        let mut emptied: Vec<InflightKey> = Vec::new();
        for (slot, flight) in state.inflight.iter_mut() {
            let before = flight.waiters.len();
            let mut kept = Vec::with_capacity(before);
            for waiter in flight.waiters.drain(..) {
                if waiter.sub == sub {
                    orphaned.push((waiter.index, waiter.sender, slot.1.clone(), waiter.notify));
                } else {
                    kept.push(waiter);
                }
            }
            flight.waiters = kept;
            if flight.waiters.is_empty() && flight.queued && before > 0 {
                emptied.push(slot.clone());
            }
        }
        for slot in emptied {
            let Some(flight) = state.inflight.remove(&slot) else {
                continue;
            };
            let queue = &mut state.queues[flight.priority.index()];
            if let Some(position) = queue.iter().position(|job| job.slot == slot) {
                queue.remove(position);
            }
            abandoned.push(slot.1);
        }
    }
    if !abandoned.is_empty() {
        shared
            .units_cancelled
            .fetch_add(abandoned.len() as u64, Ordering::Relaxed);
    }
    if kind == CancelKind::Deadline && !orphaned.is_empty() {
        shared
            .deadline_expired
            .fetch_add(orphaned.len() as u64, Ordering::Relaxed);
    }
    // The subscription's deadline (if any) is spent either way.
    shared.deadlines().retain(|entry| entry.sub != sub);
    // Deliveries and events go out after every lock is released.
    let outcome = CancelOutcome {
        waiters_cancelled: orphaned.len(),
        jobs_abandoned: abandoned.len(),
    };
    for (index, sender, key, notify) in orphaned {
        let error = match kind {
            CancelKind::Cancelled => CampaignError::Cancelled { key: key.clone() },
            CancelKind::Deadline => CampaignError::DeadlineExceeded { key: key.clone() },
        };
        let _ = sender.send(UnitDelivery {
            index,
            outcome: Err(error),
        });
        if let Some(notify) = &notify {
            notify();
        }
        if kind == CancelKind::Deadline {
            shared.events.publish(&CampaignEvent::unit(
                EventKind::DeadlineExpired,
                &key.to_string(),
                &key.id,
            ));
        }
    }
    for key in &abandoned {
        shared.events.publish(&CampaignEvent::unit(
            EventKind::UnitCancelled,
            &key.to_string(),
            &key.id,
        ));
    }
    outcome
}

/// The deadline reaper: one engine-owned thread that sleeps until the
/// earliest registered deadline, then expires that subscription's
/// unresolved units with [`CampaignError::DeadlineExceeded`].
fn deadline_reaper_loop(shared: &EngineShared) {
    let mut deadlines = shared.deadlines();
    loop {
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        let now = Instant::now();
        let mut expired: Vec<u64> = Vec::new();
        deadlines.retain(|entry| {
            if entry.at <= now {
                expired.push(entry.sub);
                false
            } else {
                true
            }
        });
        if !expired.is_empty() {
            // Expiry takes the state lock; never hold both.
            drop(deadlines);
            for sub in expired {
                cancel_subscription(shared, sub, CancelKind::Deadline);
            }
            deadlines = shared.deadlines();
            continue;
        }
        let next = deadlines.iter().map(|entry| entry.at).min();
        deadlines = match next {
            Some(at) => {
                shared
                    .deadline_wake
                    .wait_timeout(deadlines, at.saturating_duration_since(now))
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .0
            }
            None => shared
                .deadline_wake
                .wait(deadlines)
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        };
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = panic.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = panic.downcast_ref::<String>() {
        message.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oranges::experiments::{Experiment, ExperimentError};
    use oranges::platform::Platform;
    use std::sync::atomic::AtomicUsize;

    type Gate = Arc<(Mutex<bool>, Condvar)>;

    /// A test experiment that blocks until released, so tests control
    /// exactly when a unit is "in flight".
    struct GatedExperiment {
        tag: String,
        gate: Gate,
        runs: Arc<AtomicUsize>,
    }

    impl GatedExperiment {
        fn new(tag: &str) -> (Arc<Self>, Gate, Arc<AtomicUsize>) {
            let gate = Arc::new((Mutex::new(false), Condvar::new()));
            let runs = Arc::new(AtomicUsize::new(0));
            let experiment = Arc::new(GatedExperiment {
                tag: tag.to_string(),
                gate: Arc::clone(&gate),
                runs: Arc::clone(&runs),
            });
            (experiment, gate, runs)
        }
    }

    fn release(gate: &Gate) {
        *gate.0.lock().expect("gate") = true;
        gate.1.notify_all();
    }

    impl Experiment for GatedExperiment {
        fn id(&self) -> &'static str {
            "gated"
        }
        fn params(&self) -> String {
            format!("tag={}", self.tag)
        }
        fn chip(&self) -> Option<ChipGeneration> {
            None
        }
        fn run(&self, _platform: &mut Platform) -> Result<ExperimentOutput, ExperimentError> {
            let (lock, condvar) = &*self.gate;
            let mut released = lock.lock().expect("gate");
            while !*released {
                released = condvar.wait(released).expect("gate");
            }
            self.runs.fetch_add(1, Ordering::SeqCst);
            ExperimentOutput::from_sets(vec![self.base_set().metric("value", 1.0, "unit")], None)
        }
    }

    /// A test experiment that panics mid-run.
    struct PanickingExperiment;

    impl Experiment for PanickingExperiment {
        fn id(&self) -> &'static str {
            "panicker"
        }
        fn params(&self) -> String {
            "tag=panic".to_string()
        }
        fn chip(&self) -> Option<ChipGeneration> {
            None
        }
        fn run(&self, _platform: &mut Platform) -> Result<ExperimentOutput, ExperimentError> {
            panic!("intentional test panic");
        }
    }

    /// A test experiment that meets its siblings at barriers, so they
    /// are all inside `run` at once, and records the thread budget a
    /// host-parallel call would get there.
    struct BudgetProbe {
        tag: &'static str,
        together: Arc<std::sync::Barrier>,
        threads: Arc<Mutex<Vec<usize>>>,
    }

    impl Experiment for BudgetProbe {
        fn id(&self) -> &'static str {
            "budget"
        }
        fn params(&self) -> String {
            format!("tag={}", self.tag)
        }
        fn chip(&self) -> Option<ChipGeneration> {
            None
        }
        fn run(&self, _platform: &mut Platform) -> Result<ExperimentOutput, ExperimentError> {
            // Read between two barriers, so no sibling has left `run`
            // (and dropped its claim) yet.
            self.together.wait();
            let threads = oranges_kernels::core_budget().threads();
            self.together.wait();
            self.threads.lock().expect("threads").push(threads);
            ExperimentOutput::from_sets(vec![self.base_set().metric("value", 1.0, "unit")], None)
        }
    }

    fn unit_of(index: usize, experiment: Arc<dyn Experiment>) -> PlanUnit {
        PlanUnit {
            index,
            key: UnitKey::of(experiment.as_ref()),
            experiment,
        }
    }

    #[test]
    fn source_tokens_round_trip() {
        for source in [
            UnitSource::Computed,
            UnitSource::CacheHit,
            UnitSource::Coalesced,
        ] {
            assert_eq!(UnitSource::parse(source.as_str()), Some(source));
        }
        assert_eq!(UnitSource::parse("nope"), None);
        assert!(!UnitSource::Computed.from_cache());
        assert!(UnitSource::CacheHit.from_cache());
        assert!(UnitSource::Coalesced.from_cache());
    }

    #[test]
    fn overlapping_submissions_coalesce_onto_one_computation() {
        let engine = ExecutionEngine::new(2);
        let cache = ResultCache::new();
        let (experiment, gate, runs) = GatedExperiment::new("shared");

        // First submission takes the unit in flight (worker blocks on
        // the gate), second and third attach as waiters — including a
        // duplicate within one batch.
        let first = engine.submit(&[unit_of(0, experiment.clone())], &cache);
        let second = engine.submit(
            &[
                unit_of(0, experiment.clone()),
                unit_of(1, experiment.clone()),
            ],
            &cache,
        );
        let stats = engine.stats();
        assert_eq!(stats.units_submitted, 3);
        assert_eq!(stats.coalesced_joins, 2, "both later submissions attached");

        release(&gate);
        let produced = first.recv().expect("producer delivery");
        let joined_a = second.recv().expect("waiter delivery");
        let joined_b = second.recv().expect("waiter delivery");

        assert_eq!(runs.load(Ordering::SeqCst), 1, "computed exactly once");
        let produced = produced.outcome.expect("produced ok");
        assert_eq!(produced.source, UnitSource::Computed);
        for joined in [joined_a, joined_b] {
            let joined = joined.outcome.expect("joined ok");
            assert_eq!(joined.source, UnitSource::Coalesced);
            assert!(
                Arc::ptr_eq(&joined.output, &produced.output),
                "waiters share the very allocation the producer stored"
            );
        }
        assert_eq!(engine.stats().units_computed, 1);
        assert_eq!(cache.stats().entries, 1);

        // A later submission is an immediate cache hit.
        let third = engine.submit(&[unit_of(0, experiment)], &cache);
        let hit = third.recv().expect("hit delivery").outcome.expect("ok");
        assert_eq!(hit.source, UnitSource::CacheHit);
        assert_eq!(engine.stats().cache_hits, 1);
    }

    #[test]
    fn workers_computing_at_once_each_leave_the_others_core_alone() {
        let engine = ExecutionEngine::new(2);
        let cache = ResultCache::new();
        let together = Arc::new(std::sync::Barrier::new(2));
        let threads = Arc::new(Mutex::new(Vec::new()));
        let units: Vec<PlanUnit> = ["a", "b"]
            .into_iter()
            .enumerate()
            .map(|(index, tag)| {
                let probe = BudgetProbe {
                    tag,
                    together: Arc::clone(&together),
                    threads: Arc::clone(&threads),
                };
                unit_of(index, Arc::new(probe))
            })
            .collect();
        let subscription = engine.submit(&units, &cache);
        for _ in 0..units.len() {
            subscription.recv().expect("delivery").outcome.expect("ok");
        }
        // Both workers hold a claim inside `run`: each gets its own core
        // plus at most the host's other cores minus the sibling's. Claims
        // from tests running alongside can only lower it further.
        let ceiling = oranges_kernels::host_parallelism().saturating_sub(1).max(1);
        let threads = threads.lock().expect("threads");
        assert_eq!(threads.len(), 2);
        assert!(
            threads.iter().all(|&t| t <= ceiling),
            "{threads:?} > {ceiling}"
        );
    }

    #[test]
    fn distinct_caches_do_not_coalesce() {
        let engine = ExecutionEngine::new(2);
        let (experiment, gate, runs) = GatedExperiment::new("percache");
        let (cache_a, cache_b) = (ResultCache::new(), ResultCache::new());

        let first = engine.submit(&[unit_of(0, experiment.clone())], &cache_a);
        let second = engine.submit(&[unit_of(0, experiment.clone())], &cache_b);
        assert_eq!(engine.stats().coalesced_joins, 0, "separate stores");

        release(&gate);
        assert!(first.recv().expect("a").outcome.is_ok());
        assert!(second.recv().expect("b").outcome.is_ok());
        assert_eq!(runs.load(Ordering::SeqCst), 2, "each cache filled once");
        assert_eq!(cache_a.stats().entries, 1);
        assert_eq!(cache_b.stats().entries, 1);
    }

    #[test]
    fn a_panicking_unit_fails_its_subscribers_but_not_the_engine() {
        let engine = ExecutionEngine::new(1);
        let cache = ResultCache::new();

        let doomed = engine.submit(&[unit_of(0, Arc::new(PanickingExperiment))], &cache);
        let delivery = doomed.recv().expect("failure is delivered");
        match delivery.outcome {
            Err(CampaignError::UnitPanicked { key, message }) => {
                assert_eq!(key.id, "panicker");
                assert!(message.contains("intentional test panic"));
            }
            other => panic!("expected a panic outcome, got {other:?}"),
        }
        assert_eq!(engine.stats().units_failed, 1);
        assert_eq!(cache.stats().entries, 0, "nothing poisoned the cache");

        // The engine (and its single worker) is still fully serviceable.
        let (experiment, gate, _) = GatedExperiment::new("after-panic");
        release(&gate);
        let next = engine.submit(&[unit_of(0, experiment)], &cache);
        let outcome = next.recv().expect("delivery").outcome.expect("runs fine");
        assert_eq!(outcome.source, UnitSource::Computed);
    }

    /// Pull events off `stream` until `want` of them match `kind` (or
    /// a generous timeout expires), returning everything seen.
    fn collect_until(
        stream: &oranges_harness::obs::EventStream,
        kind: EventKind,
        want: usize,
    ) -> Vec<CampaignEvent> {
        let mut seen = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while seen
            .iter()
            .filter(|e: &&CampaignEvent| e.kind == kind)
            .count()
            < want
            && Instant::now() < deadline
        {
            if let Ok(event) = stream.recv_timeout(Duration::from_millis(50)) {
                seen.push(event);
            }
        }
        seen
    }

    #[test]
    fn lifecycle_events_and_latency_histograms_cover_every_path() {
        let engine = ExecutionEngine::new(2);
        let cache = ResultCache::new();
        let stream = engine.events().subscribe(64);
        assert_eq!(engine.event_subscribers(), 1);

        let (experiment, gate, _) = GatedExperiment::new("observed");
        let first = engine.submit(&[unit_of(0, experiment.clone())], &cache);
        // Attach a second submission while the first is gated in
        // flight, so a coalesced event is emitted deterministically.
        let second = engine.submit(&[unit_of(0, experiment.clone())], &cache);
        release(&gate);
        assert!(first.recv().expect("first").outcome.is_ok());
        assert!(second.recv().expect("second").outcome.is_ok());
        // A third submission after completion is a cache hit.
        let third = engine.submit(&[unit_of(0, experiment)], &cache);
        assert!(third.recv().expect("third").outcome.is_ok());

        let events = collect_until(&stream, EventKind::CacheHit, 1);
        let kind_count = |k: EventKind| events.iter().filter(|e| e.kind == k).count();
        assert_eq!(kind_count(EventKind::UnitStarted), 1, "one computation");
        assert_eq!(kind_count(EventKind::UnitCompleted), 1);
        assert_eq!(kind_count(EventKind::Coalesced), 1);
        assert_eq!(kind_count(EventKind::CacheHit), 1);
        let completed = events
            .iter()
            .find(|e| e.kind == EventKind::UnitCompleted)
            .expect("completed event");
        assert!(completed.wall_s.is_some(), "completion carries wall time");
        assert_eq!(completed.experiment.as_deref(), Some("gated"));
        assert!(completed.unit.as_deref().unwrap_or("").contains("gated"));

        // The computation landed in the per-experiment histogram.
        let latency = engine.latency_snapshots();
        assert_eq!(latency.len(), 1);
        assert_eq!(latency[0].0, "gated");
        assert_eq!(latency[0].1.count, 1);

        // Failures are events too.
        let doomed = engine.submit(&[unit_of(0, Arc::new(PanickingExperiment))], &cache);
        assert!(doomed.recv().expect("failure delivered").outcome.is_err());
        let failures = collect_until(&stream, EventKind::UnitFailed, 1);
        let failed = failures
            .iter()
            .find(|e| e.kind == EventKind::UnitFailed)
            .expect("failure event");
        assert!(failed.detail.as_deref().unwrap_or("").contains("panic"));
    }

    #[test]
    fn a_slow_event_subscriber_drops_events_but_never_stalls_the_engine() {
        let engine = ExecutionEngine::new(2);
        let cache = ResultCache::new();
        // Capacity-1 subscriber that never reads: every unit's started+
        // completed pair overflows it immediately.
        let _slow = engine.events().subscribe(1);
        for round in 0..8 {
            let (experiment, gate, _) = GatedExperiment::new(&format!("burst{round}"));
            release(&gate);
            let sub = engine.submit(&[unit_of(0, experiment)], &cache);
            assert!(sub.recv().expect("delivery").outcome.is_ok());
        }
        let stats = engine.stats();
        assert_eq!(stats.units_computed, 8, "all units completed despite drops");
        assert!(
            stats.events_dropped > 0,
            "a full subscriber buffer counts drops: {stats:?}"
        );
    }

    #[test]
    fn queue_and_inflight_gauges_track_pending_work() {
        let engine = ExecutionEngine::new(1);
        let cache = ResultCache::new();
        assert_eq!(engine.queue_depth(), 0);
        assert_eq!(engine.inflight(), 0);
        assert_eq!(engine.alive_workers(), 1);

        let (a, gate_a, _) = GatedExperiment::new("gauge-a");
        let (b, gate_b, _) = GatedExperiment::new("gauge-b");
        let (c, gate_c, _) = GatedExperiment::new("gauge-c");
        let sub = engine.submit(&[unit_of(0, a), unit_of(1, b), unit_of(2, c)], &cache);
        // All three are in flight; the single worker holds one off the
        // queue (gated), leaving two queued once it picks up.
        assert_eq!(engine.inflight(), 3);
        let deadline = Instant::now() + Duration::from_secs(5);
        while engine.queue_depth() > 2 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(engine.queue_depth(), 2);

        release(&gate_a);
        release(&gate_b);
        release(&gate_c);
        for _ in 0..3 {
            assert!(sub.recv().expect("delivery").outcome.is_ok());
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while engine.inflight() > 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(engine.queue_depth(), 0);
        assert_eq!(engine.inflight(), 0);
    }

    #[test]
    fn dropping_a_subscription_mid_compute_is_harmless() {
        let engine = ExecutionEngine::new(1);
        let cache = ResultCache::new();
        let (experiment, gate, runs) = GatedExperiment::new("dropped");

        let abandoned = engine.submit(&[unit_of(0, experiment.clone())], &cache);
        // Wait until the worker owns the job: once it is off the queue,
        // dropping the subscription may not abandon it.
        let deadline = Instant::now() + Duration::from_secs(5);
        while engine.queue_depth() > 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(2));
        }
        drop(abandoned);
        release(&gate);

        // The computation still completes and fills the cache; the next
        // subscriber is served from it.
        let next = engine.submit(&[unit_of(0, experiment)], &cache);
        let outcome = next.recv().expect("delivery").outcome.expect("ok");
        assert!(outcome.source.from_cache());
        assert_eq!(runs.load(Ordering::SeqCst), 1);
        assert_eq!(engine.stats().units_cancelled, 0, "nothing was queued");
    }

    #[test]
    fn dropping_a_subscription_abandons_its_queued_units() {
        let engine = ExecutionEngine::new(1);
        let cache = ResultCache::new();
        let (blocker, gate, _) = GatedExperiment::new("drop-blocker");
        let (doomed, _gate_doomed, doomed_runs) = GatedExperiment::new("drop-doomed");

        // The single worker blocks on the gated unit; the second
        // submission's unit stays queued.
        let holder = engine.submit(&[unit_of(0, blocker)], &cache);
        let deadline = Instant::now() + Duration::from_secs(5);
        while engine.queue_depth() > 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(2));
        }
        let queued = engine.submit(&[unit_of(0, doomed)], &cache);
        assert_eq!(engine.queue_depth(), 1);
        drop(queued);
        assert_eq!(engine.queue_depth(), 0, "the queue slot was freed");
        assert_eq!(engine.stats().units_cancelled, 1);

        release(&gate);
        assert!(holder.recv().expect("blocker delivery").outcome.is_ok());
        assert_eq!(doomed_runs.load(Ordering::SeqCst), 0, "never computed");
    }

    #[test]
    fn priority_tokens_round_trip() {
        for priority in Priority::ALL {
            assert_eq!(Priority::parse(priority.as_str()), Some(priority));
        }
        assert_eq!(Priority::parse("urgent"), None);
        assert_eq!(Priority::default(), Priority::Normal);
    }
}
