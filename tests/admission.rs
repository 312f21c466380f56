//! Admission-control semantics of the execution engine, through the
//! public API:
//!
//! (a) **weighted fair queueing** — a high-priority probe overtakes a
//!     saturating batch backlog within a bounded number of completions,
//!     and a backed-up high class still leaks batch work through;
//! (b) **bounded admission** — a `Busy` rejection leaves the engine
//!     value-identical to never having submitted, and cancellation
//!     frees queue slots a retry can use;
//! (c) **cancellation** — dropping or cancelling a subscription
//!     abandons only computations nobody else wants: a coalesced
//!     sibling's unit still computes exactly once;
//! (d) **deadlines** — expiry fails only the expiring subscription's
//!     deliveries, never a sibling's;
//! (e) the **counter identity** documented on `EngineStats`:
//!     `units_submitted == units_computed + cache_hits +
//!     coalesced_joins + units_failed + units_cancelled` at quiescence;
//! (f) randomized submit/cancel interleavings (proptest) never violate
//!     exactly-once compute or leak in-flight entries.

use oranges::experiments::{ExperimentError, ExperimentOutput};
use oranges::platform::Platform;
use oranges_campaign::prelude::*;
use oranges_campaign::{
    AdmitError, CampaignError, ExecutionEngine, PlanUnit, Subscription, UnitKey,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

type Gate = Arc<(Mutex<bool>, Condvar)>;

/// A unit that blocks until its gate is released, so tests control
/// exactly when the engine's workers can make progress.
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

/// A unit that appends its tag to a shared completion log when it runs,
/// so tests can assert *dispatch order* across priority classes.
struct LoggingExperiment {
    tag: String,
    log: Arc<Mutex<Vec<String>>>,
}

impl Experiment for LoggingExperiment {
    fn id(&self) -> &'static str {
        "logged"
    }
    fn params(&self) -> String {
        format!("tag={}", self.tag)
    }
    fn chip(&self) -> Option<ChipGeneration> {
        None
    }
    fn run(&self, _platform: &mut Platform) -> Result<ExperimentOutput, ExperimentError> {
        self.log.lock().expect("log").push(self.tag.clone());
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

fn logging_unit(index: usize, tag: &str, log: &Arc<Mutex<Vec<String>>>) -> PlanUnit {
    unit_of(
        index,
        Arc::new(LoggingExperiment {
            tag: tag.to_string(),
            log: Arc::clone(log),
        }),
    )
}

/// Block until the condition holds (the engine's worker handoffs are
/// asynchronous), failing the test on timeout.
fn wait_until(what: &str, mut condition: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !condition() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Drain every delivery of a subscription, asserting all are `Ok`.
fn drain_ok(subscription: &Subscription) {
    for _ in 0..subscription.expected() {
        let delivery = subscription
            .recv_timeout(Duration::from_secs(10))
            .expect("delivery");
        delivery.outcome.expect("ok outcome");
    }
}

/// Hold the engine's single worker on a gated blocker so submissions
/// made next stay queued; returns `(subscription, gate)` — release the
/// gate to let the backlog drain.
fn occupy_single_worker(engine: &ExecutionEngine, cache: &ResultCache) -> (Subscription, Gate) {
    let (blocker, gate, _) = GatedExperiment::new("blocker");
    let subscription = engine.submit(&[unit_of(0, blocker)], cache);
    // The worker has the job once it leaves the queue.
    wait_until("worker to pick up the blocker", || {
        engine.queue_depth() == 0
    });
    (subscription, gate)
}

// ---------------------------------------------------------------------------
// (a) Weighted fair queueing.
// ---------------------------------------------------------------------------

#[test]
fn a_high_priority_probe_overtakes_a_saturating_batch_backlog() {
    let engine = ExecutionEngine::new(1);
    let cache = ResultCache::new();
    let log = Arc::new(Mutex::new(Vec::new()));
    let (blocker_sub, blocker_gate) = occupy_single_worker(&engine, &cache);

    // Six batch units queue up behind the held worker...
    let backlog: Vec<PlanUnit> = (0..6)
        .map(|i| logging_unit(i, &format!("batch{i}"), &log))
        .collect();
    let batch = engine
        .submit_with(&backlog, &cache, SubmitOptions::priority(Priority::Batch))
        .expect("uncapped engine admits");
    // ...then a single high-priority probe arrives last.
    let probe = engine
        .submit_with(
            &[logging_unit(0, "probe", &log)],
            &cache,
            SubmitOptions::priority(Priority::High),
        )
        .expect("uncapped engine admits");
    assert_eq!(engine.queue_depths(), [1, 0, 6], "per-class depths");

    release(&blocker_gate);
    drain_ok(&probe);
    drain_ok(&batch);
    drain_ok(&blocker_sub);

    // WFQ bound: however the dispatch cursor was positioned, at most
    // one batch unit may be served before the probe (the probe would
    // run FIRST in strict-priority scheduling; WFQ allows exactly the
    // one batch pop a cursor sitting on the batch slot yields).
    let log = log.lock().expect("log");
    let position = log
        .iter()
        .position(|tag| tag == "probe")
        .expect("probe ran");
    assert!(
        position <= 1,
        "probe overtook the backlog (ran at position {position} of {log:?})"
    );
}

#[test]
fn fair_queueing_bounds_both_classes_under_saturation() {
    let engine = ExecutionEngine::new(1);
    let cache = ResultCache::new();
    let log = Arc::new(Mutex::new(Vec::new()));
    let (blocker_sub, blocker_gate) = occupy_single_worker(&engine, &cache);

    let high_units: Vec<PlanUnit> = (0..8)
        .map(|i| logging_unit(i, &format!("high{i}"), &log))
        .collect();
    let batch_units: Vec<PlanUnit> = (0..8)
        .map(|i| logging_unit(i, &format!("batch{i}"), &log))
        .collect();
    let batch = engine
        .submit_with(
            &batch_units,
            &cache,
            SubmitOptions::priority(Priority::Batch),
        )
        .expect("admitted");
    let high = engine
        .submit_with(&high_units, &cache, SubmitOptions::priority(Priority::High))
        .expect("admitted");

    release(&blocker_gate);
    drain_ok(&high);
    drain_ok(&batch);
    drain_ok(&blocker_sub);

    let log = log.lock().expect("log");
    // High:batch service weight under saturation is 4:1 (batch inherits
    // the idle normal slots), so all 8 high units finish within the
    // first 10 completions...
    let high_done_by_10 = log[..10].iter().filter(|t| t.starts_with("high")).count();
    assert_eq!(high_done_by_10, 8, "high class got its fair share: {log:?}");
    // ...while batch is *not starved*: at least one batch unit ran
    // among the first 10 despite 8 queued high units.
    assert!(
        log[..10].iter().any(|t| t.starts_with("batch")),
        "batch class leaked through: {log:?}"
    );
}

#[test]
fn a_coalesced_higher_priority_join_promotes_the_queued_job() {
    let engine = ExecutionEngine::new(1);
    let cache = ResultCache::new();
    let (_blocker_sub, blocker_gate) = occupy_single_worker(&engine, &cache);

    let (shared, shared_gate, runs) = GatedExperiment::new("promoted");
    release(&shared_gate); // runs freely once dispatched
    let batch = engine
        .submit_with(
            &[unit_of(0, shared.clone())],
            &cache,
            SubmitOptions::priority(Priority::Batch),
        )
        .expect("admitted");
    assert_eq!(engine.queue_depths(), [0, 0, 1]);

    // A high-priority submission of the same key coalesces — and drags
    // the queued job into the high class with it.
    let probe = engine
        .submit_with(
            &[unit_of(0, shared)],
            &cache,
            SubmitOptions::priority(Priority::High),
        )
        .expect("admitted");
    assert_eq!(
        engine.queue_depths(),
        [1, 0, 0],
        "the queued job moved classes with its most urgent waiter"
    );
    assert_eq!(engine.stats().coalesced_joins, 1);

    release(&blocker_gate);
    drain_ok(&probe);
    drain_ok(&batch);
    assert_eq!(
        runs.load(Ordering::SeqCst),
        1,
        "still computed exactly once"
    );
}

// ---------------------------------------------------------------------------
// (b) Bounded admission.
// ---------------------------------------------------------------------------

#[test]
fn a_busy_rejection_leaves_the_engine_value_identical_to_never_submitted() {
    let engine = ExecutionEngine::with_queue_cap(1, Some(2));
    assert_eq!(engine.queue_cap(), Some(2));
    let cache = ResultCache::new();
    let (blocker_sub, blocker_gate) = occupy_single_worker(&engine, &cache);
    let before_stats = engine.stats();
    let before_cache = cache.stats();

    // Four fresh units against a cap of 2: rejected whole.
    let log = Arc::new(Mutex::new(Vec::new()));
    let units: Vec<PlanUnit> = (0..4)
        .map(|i| logging_unit(i, &format!("big{i}"), &log))
        .collect();
    let error = engine
        .submit_with(&units, &cache, SubmitOptions::default())
        .expect_err("needs 4 slots, cap is 2");
    assert_eq!(
        error,
        AdmitError::Busy {
            queued: 0,
            cap: 2,
            needed: 4
        }
    );

    // Value identity: no unit counted, no queue slot or in-flight entry
    // taken, not even a cache-lookup counter moved — only the rejection
    // counter ticked.
    let after = engine.stats();
    assert_eq!(after.units_submitted, before_stats.units_submitted);
    assert_eq!(after.units_resolved(), before_stats.units_resolved());
    assert_eq!(
        after.submissions_rejected,
        before_stats.submissions_rejected + 1
    );
    assert_eq!(cache.stats(), before_cache, "admission peeks don't count");
    assert_eq!(engine.queue_depth(), 0);
    assert_eq!(engine.inflight(), 1, "only the blocker");
    assert!(log.lock().expect("log").is_empty(), "nothing ran");

    // A submission that fits is admitted on the very same engine.
    let fitting: Vec<PlanUnit> = (0..2)
        .map(|i| logging_unit(i, &format!("fit{i}"), &log))
        .collect();
    let admitted = engine
        .submit_with(&fitting, &cache, SubmitOptions::default())
        .expect("2 fresh units fit a cap of 2");
    release(&blocker_gate);
    drain_ok(&admitted);
    drain_ok(&blocker_sub);
}

#[test]
fn cache_hits_and_coalesced_joins_need_no_queue_slots() {
    let engine = ExecutionEngine::with_queue_cap(1, Some(1));
    let cache = ResultCache::new();

    // Warm one key, then hold the worker.
    let log = Arc::new(Mutex::new(Vec::new()));
    let warm = logging_unit(0, "warm", &log);
    drain_ok(&engine.submit(std::slice::from_ref(&warm), &cache));
    let (blocker_sub, blocker_gate) = occupy_single_worker(&engine, &cache);

    // Fill the single queue slot with a fresh unit...
    let fresh = engine
        .submit_with(
            &[logging_unit(0, "fresh", &log)],
            &cache,
            SubmitOptions::default(),
        )
        .expect("one fresh unit fits");
    assert_eq!(engine.queue_depth(), 1, "cap reached");

    // ...and a submission of only warm + already-queued keys is still
    // admitted: it needs zero fresh computations.
    let riding = engine
        .submit_with(
            &[warm, logging_unit(1, "fresh", &log)],
            &cache,
            SubmitOptions::default(),
        )
        .expect("hits and joins are free at admission");
    let stats = engine.stats();
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.coalesced_joins, 1);

    release(&blocker_gate);
    drain_ok(&riding);
    drain_ok(&fresh);
    drain_ok(&blocker_sub);
}

#[test]
fn cancellation_frees_queue_slots_a_retry_can_use() {
    let engine = ExecutionEngine::with_queue_cap(1, Some(2));
    let cache = ResultCache::new();
    let (blocker_sub, blocker_gate) = occupy_single_worker(&engine, &cache);
    let log = Arc::new(Mutex::new(Vec::new()));

    // Fill the queue, then get rejected.
    let filler: Vec<PlanUnit> = (0..2)
        .map(|i| logging_unit(i, &format!("filler{i}"), &log))
        .collect();
    let occupant = engine
        .submit_with(&filler, &cache, SubmitOptions::default())
        .expect("fills the cap exactly");
    let probe_unit = logging_unit(0, "retry", &log);
    let error = engine
        .submit_with(
            std::slice::from_ref(&probe_unit),
            &cache,
            SubmitOptions::default(),
        )
        .expect_err("queue full");
    assert_eq!(
        error,
        AdmitError::Busy {
            queued: 2,
            cap: 2,
            needed: 1
        }
    );

    // Cancelling the occupant abandons its queued, un-started units...
    let outcome = occupant.cancel();
    assert_eq!(outcome.waiters_cancelled, 2);
    assert_eq!(outcome.jobs_abandoned, 2);
    assert_eq!(engine.queue_depth(), 0, "slots freed");
    assert_eq!(engine.stats().units_cancelled, 2);
    // ...and the cancelled subscription's pending deliveries resolved
    // as typed errors, not silence.
    for _ in 0..2 {
        let delivery = occupant
            .recv_timeout(Duration::from_secs(5))
            .expect("cancelled delivery");
        assert!(
            matches!(delivery.outcome, Err(CampaignError::Cancelled { .. })),
            "typed cancellation"
        );
    }

    // The rejected submission now fits.
    let retried = engine
        .submit_with(&[probe_unit], &cache, SubmitOptions::default())
        .expect("slot freed by cancellation");
    release(&blocker_gate);
    drain_ok(&retried);
    drain_ok(&blocker_sub);
    assert_eq!(
        log.lock().expect("log").as_slice(),
        ["retry"],
        "the abandoned units never ran"
    );
}

// ---------------------------------------------------------------------------
// (c) Cancellation vs coalescing: exactly-once with a survivor.
// ---------------------------------------------------------------------------

#[test]
fn cancelling_a_submitter_never_cancels_a_coalesced_siblings_unit() {
    let engine = ExecutionEngine::new(1);
    let cache = ResultCache::new();
    let (blocker_sub, blocker_gate) = occupy_single_worker(&engine, &cache);

    let (shared, shared_gate, runs) = GatedExperiment::new("contested");
    release(&shared_gate);
    // A enqueues the job; B coalesces onto it.
    let submitter = engine.submit(&[unit_of(0, shared.clone())], &cache);
    let sibling = engine.submit(&[unit_of(0, shared)], &cache);
    assert_eq!(engine.stats().coalesced_joins, 1);

    // Cancelling the *enqueuing* submitter must not abandon the job:
    // the sibling still wants it.
    let outcome = submitter.cancel();
    assert_eq!(outcome.waiters_cancelled, 1);
    assert_eq!(outcome.jobs_abandoned, 0, "the sibling keeps the job alive");
    assert_eq!(engine.queue_depth(), 1, "still queued for the sibling");

    release(&blocker_gate);
    let delivery = sibling
        .recv_timeout(Duration::from_secs(10))
        .expect("sibling delivery");
    let unit = delivery
        .outcome
        .expect("sibling gets a result, not an error");
    assert_eq!(runs.load(Ordering::SeqCst), 1, "computed exactly once");
    assert_eq!(unit.output.sets.len(), 1);

    let cancelled = submitter
        .recv_timeout(Duration::from_secs(5))
        .expect("cancelled delivery");
    assert!(matches!(
        cancelled.outcome,
        Err(CampaignError::Cancelled { .. })
    ));
    drain_ok(&blocker_sub);

    // Quiescence: the counter identity holds with a cancelled waiter in
    // the story (the job retired as computed — for the sibling).
    wait_until("quiescence", || {
        engine.queue_depth() == 0 && engine.inflight() == 0
    });
    let stats = engine.stats();
    assert_eq!(stats.units_submitted, stats.units_resolved());
    assert_eq!(stats.units_cancelled, 0, "no job was abandoned");
}

#[test]
fn dropping_a_subscription_cancels_like_an_explicit_cancel() {
    let engine = ExecutionEngine::new(1);
    let cache = ResultCache::new();
    let (blocker_sub, blocker_gate) = occupy_single_worker(&engine, &cache);
    let log = Arc::new(Mutex::new(Vec::new()));

    let doomed = engine.submit(&[logging_unit(0, "dropped", &log)], &cache);
    assert_eq!(engine.queue_depth(), 1);
    drop(doomed);
    assert_eq!(engine.queue_depth(), 0, "drop freed the queue slot");
    assert_eq!(engine.stats().units_cancelled, 1);

    release(&blocker_gate);
    drain_ok(&blocker_sub);
    wait_until("quiescence", || engine.inflight() == 0);
    assert!(
        log.lock().expect("log").is_empty(),
        "the dropped unit never ran"
    );
    let stats = engine.stats();
    assert_eq!(stats.units_submitted, stats.units_resolved());
}

// ---------------------------------------------------------------------------
// (d) Deadlines.
// ---------------------------------------------------------------------------

#[test]
fn a_deadline_fails_only_its_own_subscribers() {
    let engine = ExecutionEngine::new(1);
    let cache = ResultCache::new();
    let (blocker_sub, blocker_gate) = occupy_single_worker(&engine, &cache);

    let (shared, shared_gate, runs) = GatedExperiment::new("slow");
    release(&shared_gate);
    // The impatient submission enqueues the job with a short deadline;
    // a patient sibling coalesces with none.
    let impatient = engine
        .submit_with(
            &[unit_of(0, shared.clone())],
            &cache,
            SubmitOptions::default().with_deadline(Duration::from_millis(50)),
        )
        .expect("admitted");
    let patient = engine.submit(&[unit_of(0, shared)], &cache);

    // The reaper fails the impatient delivery while the worker is still
    // held — typed, not silent.
    let delivery = impatient
        .recv_timeout(Duration::from_secs(10))
        .expect("deadline delivery");
    assert!(
        matches!(
            delivery.outcome,
            Err(CampaignError::DeadlineExceeded { .. })
        ),
        "typed deadline failure"
    );
    assert_eq!(engine.stats().deadline_expired, 1);
    assert_eq!(
        engine.queue_depth(),
        1,
        "the job survives: the patient sibling still wants it"
    );

    release(&blocker_gate);
    let delivery = patient
        .recv_timeout(Duration::from_secs(10))
        .expect("patient delivery");
    delivery.outcome.expect("the sibling is unaffected");
    assert_eq!(runs.load(Ordering::SeqCst), 1);
    drain_ok(&blocker_sub);

    wait_until("quiescence", || {
        engine.queue_depth() == 0 && engine.inflight() == 0
    });
    let stats = engine.stats();
    assert_eq!(stats.units_submitted, stats.units_resolved());
}

#[test]
fn a_deadline_with_no_siblings_abandons_the_queued_job() {
    let engine = ExecutionEngine::new(1);
    let cache = ResultCache::new();
    let (blocker_sub, blocker_gate) = occupy_single_worker(&engine, &cache);
    let log = Arc::new(Mutex::new(Vec::new()));

    let doomed = engine
        .submit_with(
            &[logging_unit(0, "expired", &log)],
            &cache,
            SubmitOptions::default().with_deadline(Duration::from_millis(50)),
        )
        .expect("admitted");
    let delivery = doomed
        .recv_timeout(Duration::from_secs(10))
        .expect("deadline delivery");
    assert!(matches!(
        delivery.outcome,
        Err(CampaignError::DeadlineExceeded { .. })
    ));
    wait_until("the abandoned job to leave the queue", || {
        engine.queue_depth() == 0
    });
    let stats = engine.stats();
    assert_eq!(stats.deadline_expired, 1);
    assert_eq!(stats.units_cancelled, 1, "nobody else wanted the job");

    release(&blocker_gate);
    drain_ok(&blocker_sub);
    wait_until("quiescence", || engine.inflight() == 0);
    assert!(
        log.lock().expect("log").is_empty(),
        "the expired unit never ran"
    );
    let stats = engine.stats();
    assert_eq!(stats.units_submitted, stats.units_resolved());
}

// ---------------------------------------------------------------------------
// (e) The documented counter identity, end to end.
// ---------------------------------------------------------------------------

/// A unit that always fails, for the `units_failed` leg of the identity.
struct FailingExperiment;

impl Experiment for FailingExperiment {
    fn id(&self) -> &'static str {
        "failer"
    }
    fn params(&self) -> String {
        "mode=always".to_string()
    }
    fn chip(&self) -> Option<ChipGeneration> {
        None
    }
    fn run(&self, _platform: &mut Platform) -> Result<ExperimentOutput, ExperimentError> {
        Err(ExperimentError::Serialization("deliberate failure".into()))
    }
}

#[test]
fn the_engine_stats_counter_identity_holds_with_every_leg_exercised() {
    let engine = ExecutionEngine::with_queue_cap(1, Some(8));
    let cache = ResultCache::new();
    let (blocker_sub, blocker_gate) = occupy_single_worker(&engine, &cache);
    let log = Arc::new(Mutex::new(Vec::new()));

    // computed + cache_hits: one unit, twice.
    let warm = logging_unit(0, "warm", &log);
    let first = engine.submit(std::slice::from_ref(&warm), &cache);
    // coalesced_joins: same key again while queued.
    let joined = engine.submit(&[warm], &cache);
    // units_failed: a failing unit.
    let failing = engine.submit(&[unit_of(0, Arc::new(FailingExperiment))], &cache);
    // units_cancelled: a unit nobody else wants, cancelled while queued.
    let doomed = engine.submit(&[logging_unit(0, "doomed", &log)], &cache);
    doomed.cancel();
    // submissions_rejected (outside the identity): a too-big batch.
    let big: Vec<PlanUnit> = (0..9)
        .map(|i| logging_unit(i, &format!("big{i}"), &log))
        .collect();
    engine
        .submit_with(&big, &cache, SubmitOptions::default())
        .expect_err("9 fresh units against a cap of 8");

    release(&blocker_gate);
    drain_ok(&first);
    drain_ok(&joined);
    let failure = failing
        .recv_timeout(Duration::from_secs(10))
        .expect("delivery");
    assert!(failure.outcome.is_err());
    drain_ok(&blocker_sub);

    // cache_hits leg: the warm key once more, now from the cache.
    drain_ok(&engine.submit(&[logging_unit(0, "warm", &log)], &cache));

    wait_until("quiescence", || {
        engine.queue_depth() == 0 && engine.inflight() == 0
    });
    let stats = engine.stats();
    assert_eq!(
        stats.units_submitted, 6,
        "blocker + warm×3 + failer + doomed"
    );
    assert_eq!(
        stats.units_computed, 2,
        "blocker and warm (the failer counts as failed)"
    );
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.coalesced_joins, 1);
    assert_eq!(stats.units_failed, 1);
    assert_eq!(stats.units_cancelled, 1);
    assert_eq!(stats.submissions_rejected, 1);
    // The documented identity, with every right-hand leg nonzero:
    assert_eq!(
        stats.units_submitted,
        stats.units_computed
            + stats.cache_hits
            + stats.coalesced_joins
            + stats.units_failed
            + stats.units_cancelled,
        "EngineStats counter identity"
    );
    assert_eq!(stats.units_submitted, stats.units_resolved());
}

// ---------------------------------------------------------------------------
// (f) Randomized submit/cancel interleavings (proptest).
// ---------------------------------------------------------------------------

mod interleavings {
    use super::*;
    use proptest::prelude::*;

    /// Decode one opcode pair into a scripted action.
    enum Op {
        /// Submit the non-empty key subset in the mask at a priority.
        Submit { mask: u8, priority: Priority },
        /// Cancel the selector-th oldest still-active subscription.
        Cancel { selector: u8 },
    }

    fn decode(pairs: &[(u8, u8)]) -> Vec<Op> {
        pairs
            .iter()
            .map(|&(op, arg)| {
                if op % 3 == 2 {
                    Op::Cancel { selector: arg }
                } else {
                    Op::Submit {
                        mask: (arg % 15) + 1, // 1..=15: always non-empty
                        priority: Priority::ALL[(arg >> 4) as usize % 3],
                    }
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Any interleaving of submissions and cancellations over a
        /// small shared key set — with all computation gated until the
        /// script finishes — preserves exactly-once compute per key,
        /// delivers every un-cancelled subscription in full, leaks no
        /// in-flight entries, and keeps the counter identity.
        #[test]
        fn random_submit_cancel_interleavings_preserve_exactly_once(
            pairs in proptest::collection::vec((0u8..=255, 0u8..=255), 2..40),
        ) {
            let ops = decode(&pairs);
            let engine = ExecutionEngine::new(2);
            let cache = ResultCache::new();

            // Four gated keys; every gate stays closed while the script
            // runs, so submissions and cancellations interleave against
            // genuinely pending work.
            let keyed: Vec<(Arc<GatedExperiment>, Gate, Arc<AtomicUsize>)> = (0..4)
                .map(|i| GatedExperiment::new(&format!("k{i}")))
                .collect();

            let mut active: Vec<(Subscription, u8)> = Vec::new();
            let mut cancelled: Vec<Subscription> = Vec::new();
            let mut abandoned_total = 0usize;
            for op in ops {
                match op {
                    Op::Submit { mask, priority } => {
                        let units: Vec<PlanUnit> = (0..4)
                            .filter(|i| mask & (1 << i) != 0)
                            .enumerate()
                            .map(|(index, i)| super::unit_of(index, keyed[i].0.clone()))
                            .collect();
                        let sub = engine
                            .submit_with(&units, &cache, SubmitOptions::priority(priority))
                            .expect("uncapped engine admits everything");
                        active.push((sub, mask));
                    }
                    Op::Cancel { selector } => {
                        if active.is_empty() {
                            continue;
                        }
                        let (sub, _) = active.remove(selector as usize % active.len());
                        let outcome = sub.cancel();
                        abandoned_total += outcome.jobs_abandoned;
                        cancelled.push(sub);
                    }
                }
            }

            // Release the world and drain.
            for (_, gate, _) in &keyed {
                super::release(gate);
            }
            for (sub, mask) in &active {
                prop_assert_eq!(sub.expected(), mask.count_ones() as usize);
                for _ in 0..sub.expected() {
                    let delivery = sub
                        .recv_timeout(Duration::from_secs(10))
                        .expect("active subscriptions deliver in full");
                    prop_assert!(
                        delivery.outcome.is_ok(),
                        "an un-cancelled subscription never sees an error"
                    );
                }
            }

            let deadline = Instant::now() + Duration::from_secs(10);
            while engine.queue_depth() != 0 || engine.inflight() != 0 {
                prop_assert!(Instant::now() < deadline, "engine reached quiescence");
                std::thread::sleep(Duration::from_millis(2));
            }

            // Exactly-once: all computes were deferred past the script,
            // so each key has at most one compute — cancellation storms
            // included — and exactly one if anyone still wants it.
            let mut runs_total = 0usize;
            for (i, (_, _, runs)) in keyed.iter().enumerate() {
                let runs = runs.load(Ordering::SeqCst);
                runs_total += runs;
                prop_assert!(runs <= 1, "key {i} computed {runs} times");
                if active.iter().any(|(_, mask)| mask & (1 << i) != 0) {
                    prop_assert_eq!(runs, 1, "key {} had a live subscriber", i);
                }
            }

            let stats = engine.stats();
            prop_assert_eq!(stats.units_computed as usize, runs_total);
            prop_assert_eq!(stats.units_cancelled as usize, abandoned_total);
            prop_assert_eq!(
                stats.units_submitted,
                stats.units_resolved(),
                "counter identity at quiescence"
            );
            drop(cancelled); // idempotent: drop after explicit cancel
        }
    }
}

// ---------------------------------------------------------------------------
// Soak: 64 mixed-priority clients against one TCP daemon (release-mode
// CI runs this via `cargo test --release --test admission -- --ignored`).
// ---------------------------------------------------------------------------

#[test]
#[ignore = "soak test: run explicitly (CI runs it in release mode)"]
fn soak_64_mixed_priority_clients_starve_nobody() {
    use oranges_campaign::service::{CampaignService, RunOptions, ServiceClient, ServiceConfig};
    use oranges_harness::transport::TcpTransport;

    let config = ServiceConfig::new("tcp:127.0.0.1:0".parse::<Endpoint>().expect("endpoint"))
        .with_workers(4);
    let service = CampaignService::<TcpTransport>::bind(config).expect("bind");
    let endpoint = service.local_endpoint().clone();
    let daemon = std::thread::spawn(move || service.serve());

    // 16 interactive probes, 48 bulk clients, all hammering the same
    // daemon. Every client's spec is distinct (size-parameterized), so
    // the engine genuinely computes under contention.
    let slow_high = Arc::new(AtomicUsize::new(0));
    std::thread::scope(|scope| {
        for client_index in 0..64 {
            let endpoint = endpoint.clone();
            let slow_high = Arc::clone(&slow_high);
            scope.spawn(move || {
                let high = client_index < 16;
                let options = if high {
                    RunOptions::priority(Priority::High)
                } else {
                    RunOptions::priority(Priority::Batch)
                };
                let mut client =
                    ServiceClient::<TcpTransport>::connect(&endpoint).expect("connect");
                for round in 0..3 {
                    let spec =
                        CampaignSpec::new(vec![ExperimentKind::Fig4], vec![ChipGeneration::M1])
                            .with_power_sizes(vec![1024 + 16 * (client_index * 3 + round)]);
                    let started = Instant::now();
                    let outcome = client.run_with(&spec, &options).expect("run");
                    assert_eq!(outcome.units.len(), 1);
                    // Starvation check: high-priority rounds must finish
                    // promptly even while 48 batch clients saturate the
                    // queue. The bound is generous — it catches
                    // starvation (unbounded wait), not jitter.
                    if high && started.elapsed() > Duration::from_secs(30) {
                        slow_high.fetch_add(1, Ordering::SeqCst);
                    }
                }
            });
        }
    });
    assert_eq!(
        slow_high.load(Ordering::SeqCst),
        0,
        "every high-priority round beat the starvation bound"
    );

    let mut admin = ServiceClient::<TcpTransport>::connect(&endpoint).expect("connect");
    let stats = admin.stats().expect("stats");
    assert_eq!(
        stats.summary.events_dropped, 0,
        "no subscriber, so the event path dropped nothing"
    );
    assert_eq!(stats.summary.runs, 64 * 3);
    assert_eq!(
        stats.summary.units_submitted,
        stats.summary.units_computed
            + stats.summary.unit_cache_hits
            + stats.summary.coalesced_joins
            + stats.summary.units_failed
            + stats.summary.units_cancelled,
        "counter identity after the soak"
    );
    admin.shutdown().expect("shutdown");
    daemon.join().expect("daemon thread").expect("clean exit");
}
