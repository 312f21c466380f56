//! A minimal readiness-driven event loop for service connections.
//!
//! The campaign service used to park one OS thread per connection in a
//! blocking `read_line` — simple, but a daemon's connection ceiling
//! became its thread ceiling. This module is the replacement I/O plane:
//! every connection is a **table entry** on one reactor thread, and the
//! service's thread census is O(1) in the number of connections.
//!
//! The reactor blocks in `poll(2)` on its sockets plus a wake pipe. The
//! call goes through the `poll` shim in `crates/vendor/poll`, which holds
//! the workspace's one `unsafe` block; this crate forbids `unsafe`.
//!
//! - **Registration table** — the reactor *owns* each registered
//!   [`Stream`], switched to nonblocking mode. Each entry carries a
//!   [`FrameBuffer`] (incremental newline framing over arbitrary byte
//!   segmentation), a [`WriteQueue`] (short-write- and
//!   `WouldBlock`-tolerant output), a read-interest mode, and an
//!   optional timer.
//! - **Wakeup channel** — the accept thread posts new connections,
//!   engine completions post coalesced [`NotifyHandle`] wakes, and
//!   shutdown posts a drain signal. A poster sends on an in-process
//!   channel, then rings a *bell*: one byte into a socket pair whose
//!   read end sits in the poll set. A shared flag keeps a burst of wakes
//!   to one bell write.
//! - **Level-triggered dispatch** — [`Reactor::poll`] returns one
//!   [`Event`] at a time; readiness that has not been consumed
//!   (buffered complete lines, queued notifies) is re-reported until
//!   the owner acts on it.
//!
//! A connection is watched for input while it is not paused and its
//! peer has not hung up, and for output while its write queue holds
//! bytes. An idle daemon therefore sleeps until a byte, a timer or a
//! wake arrives; each wait hands `poll` the whole table, O(connections).
//!
//! What belongs to the reactor vs. its owner:
//!
//! - the reactor frames lines (at most [`MAX_LINE_BYTES`] each),
//!   flushes queued writes, detects EOF and I/O errors, fires timers,
//!   and forwards wakes;
//! - the owner (the campaign service) interprets lines, decides read
//!   interest per connection state, enqueues responses, and removes
//!   connections when the protocol says so.

use crate::transport::Stream;
use poll::{PollFd, POLLIN, POLLOUT};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::os::fd::AsFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A registered connection's identity in the reactor table.
///
/// Tokens are minted monotonically and never reused, so a stale token
/// (kept by a notify source after its connection died) can never alias
/// a live connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Token(u64);

impl Token {
    /// The raw table id, for diagnostics.
    pub fn id(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for Token {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "conn:{}", self.0)
    }
}

/// What a connection's read half is watched for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadInterest {
    /// Frame complete lines and emit [`Event::Line`] — the command
    /// state of a protocol connection.
    Framed,
    /// Read and discard peer bytes, watching only for EOF — a
    /// `subscribe` stream after its ack, where the peer's only
    /// remaining signal is hanging up.
    EofOnly,
    /// Do not read at all. Bytes already buffered stay buffered; bytes
    /// the peer sends wait in the kernel. The mid-run state, where the
    /// protocol is sequential and the next request must not be framed
    /// until the current response stream finishes.
    Paused,
}

/// One readiness occurrence, returned by [`Reactor::poll`].
#[derive(Debug)]
pub enum Event {
    /// A new connection was registered from the wakeup channel.
    Accepted(Token),
    /// A complete newline-framed line arrived (terminator stripped).
    Line(Token, String),
    /// The peer sent a line longer than [`MAX_LINE_BYTES`]. The reactor
    /// dropped the buffered input and switched the connection to
    /// [`ReadInterest::EofOnly`]: the owner answers, and the connection
    /// closes once that answer is flushed and the peer hangs up.
    LineTooLong(Token),
    /// The connection left the table. `None` is a clean close (peer
    /// EOF, or a requested close-after-flush that finished); `Some`
    /// describes an I/O failure. Either way the token is now dead and
    /// the stream is gone.
    Closed(Token, Option<String>),
    /// A [`NotifyHandle`] for this connection fired since the last
    /// time this event was reported. The notify flag is re-armed
    /// *before* this event is returned, so a source that fires during
    /// handling produces a fresh event rather than being lost.
    Notify(Token),
    /// The connection's timer (see [`Reactor::set_timer`]) expired.
    Timer(Token),
    /// A write queue that had been above the backpressure threshold
    /// drained back to empty — whatever was paused on it may resume.
    Writable(Token),
    /// A connection posted through the wakeup channel could not be
    /// registered (its switch to nonblocking mode failed). It was
    /// dropped without ever appearing in the table.
    Rejected(String),
    /// The shutdown wake was posted; the owner should begin its drain.
    Shutdown,
}

enum Wake<S> {
    NewConn(S),
    Notify(Token),
    Shutdown,
}

/// The posting end of the reactor's wake pipe.
struct Bell {
    /// Set by the poster that wrote the byte now in the pipe; cleared by
    /// the reactor only after it has read the pipe dry.
    rung: AtomicBool,
    pipe: UnixStream,
}

/// A clonable handle for posting wakes into the reactor from other
/// threads — the accept loop's and shutdown path's end of the wakeup
/// channel.
pub struct WakeHandle<S> {
    tx: Sender<Wake<S>>,
    bell: Arc<Bell>,
}

impl<S> Clone for WakeHandle<S> {
    fn clone(&self) -> Self {
        WakeHandle {
            tx: self.tx.clone(),
            bell: Arc::clone(&self.bell),
        }
    }
}

impl<S> WakeHandle<S> {
    /// Send `wake`, then ring the bell unless a ring is already pending.
    fn post(&self, wake: Wake<S>) {
        if self.tx.send(wake).is_ok() && !self.bell.rung.swap(true, Ordering::AcqRel) {
            (&self.bell.pipe).write_all(&[1]).ok();
        }
    }
}

impl<S: Stream> WakeHandle<S> {
    /// Hand a freshly accepted connection to the reactor. The reactor
    /// takes ownership, switches it to nonblocking mode, and reports
    /// it as [`Event::Accepted`].
    pub fn accepted(&self, stream: S) {
        self.post(Wake::NewConn(stream));
    }

    /// Post the shutdown wake ([`Event::Shutdown`]).
    pub fn shutdown(&self) {
        self.post(Wake::Shutdown);
    }
}

/// A coalescing completion-notify hook bound to one registered
/// connection.
///
/// `notify()` is cheap and idempotent-until-consumed: the first call
/// after the reactor last reported [`Event::Notify`] posts one wake;
/// further calls before the reactor re-arms the flag are free. This is
/// what the service installs as the engine's unit-completion hook — a
/// worker thread finishing a unit costs one atomic swap, at most one
/// channel send, and at most one bell write, never a syscall against
/// the connection.
pub struct NotifyHandle {
    pending: Arc<AtomicBool>,
    send: Arc<dyn Fn() + Send + Sync>,
}

impl Clone for NotifyHandle {
    fn clone(&self) -> Self {
        NotifyHandle {
            pending: Arc::clone(&self.pending),
            send: Arc::clone(&self.send),
        }
    }
}

impl NotifyHandle {
    /// Request an [`Event::Notify`] for the bound connection.
    pub fn notify(&self) {
        if !self.pending.swap(true, Ordering::AcqRel) {
            (self.send)();
        }
    }

    /// This handle as a bare callback, the shape completion hooks take.
    pub fn callback(&self) -> Arc<dyn Fn() + Send + Sync> {
        let handle = self.clone();
        Arc::new(move || handle.notify())
    }
}

impl std::fmt::Debug for NotifyHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NotifyHandle")
            .field("pending", &self.pending.load(Ordering::Relaxed))
            .finish()
    }
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// The longest line a peer may send, terminator excluded: 1 MiB. A
/// `run` spec is a few KB, so the cap only stops a peer that would
/// otherwise pin daemon memory with one unterminated line.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Why buffered bytes could not be framed into a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// A line, terminated or not, is longer than [`MAX_LINE_BYTES`].
    TooLong,
    /// A complete line is not valid UTF-8.
    NotUtf8,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TooLong => write!(f, "line exceeds the {MAX_LINE_BYTES}-byte limit"),
            FrameError::NotUtf8 => f.write_str("line is not valid UTF-8"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<FrameError> for io::Error {
    fn from(error: FrameError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, error)
    }
}

/// Incremental newline framing over arbitrarily segmented bytes.
///
/// The wire protocol is newline-delimited JSON in which a raw `0x0A`
/// only ever means end-of-envelope (interior newlines are escaped), so
/// framing is a byte-level scan: split at `0x0A`, convert *complete*
/// lines to UTF-8. Because conversion happens only on complete lines,
/// a read boundary may fall anywhere — mid-envelope, mid-UTF-8
/// sequence — and reassembly is exact; the property tests in
/// `crates/harness/tests/props.rs` split recorded sessions at every
/// kind of boundary to prove it.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buffer: Vec<u8>,
    /// Bytes before this offset were framed already.
    start: usize,
    /// Bytes before this offset hold no newline after `start`.
    scanned: usize,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        FrameBuffer::default()
    }

    /// Append a freshly read segment.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact lazily: reclaim the framed prefix once it dominates.
        if self.start > 4096 && self.start * 2 > self.buffer.len() {
            self.buffer.drain(..self.start);
            self.scanned -= self.start;
            self.start = 0;
        }
        self.buffer.extend_from_slice(bytes);
    }

    /// Pop the next complete line (terminator stripped), or `None` if
    /// no full line is buffered yet. A line longer than
    /// [`MAX_LINE_BYTES`] — complete, or still unterminated past the
    /// cap — and a complete line that is not valid UTF-8 are protocol
    /// errors.
    pub fn next_line(&mut self) -> Result<Option<String>, FrameError> {
        let Some(offset) = self.buffer[self.scanned..].iter().position(|&b| b == b'\n') else {
            // Remember how far we scanned so a long line arriving in
            // many segments is not rescanned from the start each time.
            self.scanned = self.buffer.len();
            if self.buffered() > MAX_LINE_BYTES {
                return Err(FrameError::TooLong);
            }
            return Ok(None);
        };
        let newline = self.scanned + offset;
        if newline - self.start > MAX_LINE_BYTES {
            return Err(FrameError::TooLong);
        }
        self.pop(newline, newline + 1)
    }

    /// Drain the unterminated tail at EOF, if any. A peer that sends a
    /// final line and closes without a trailing newline still gets it
    /// processed — the behavior a buffered blocking reader had.
    pub fn take_remainder(&mut self) -> Result<Option<String>, FrameError> {
        if self.buffered() == 0 {
            return Ok(None);
        }
        if self.buffered() > MAX_LINE_BYTES {
            return Err(FrameError::TooLong);
        }
        let end = self.buffer.len();
        self.pop(end, end)
    }

    /// Take the bytes from the cursor to `end` as a line, and move the
    /// cursor to `next`, past any terminator.
    fn pop(&mut self, end: usize, next: usize) -> Result<Option<String>, FrameError> {
        let line = std::str::from_utf8(&self.buffer[self.start..end])
            .map(|line| Some(line.to_owned()))
            .map_err(|_| FrameError::NotUtf8);
        self.start = next;
        self.scanned = next;
        line
    }

    /// Bytes buffered and not yet framed.
    pub fn buffered(&self) -> usize {
        self.buffer.len() - self.start
    }
}

// ---------------------------------------------------------------------
// Write queue
// ---------------------------------------------------------------------

/// Buffered output for a nonblocking connection.
///
/// `flush_into` writes as much as the peer will take and keeps the
/// rest: short writes and `WouldBlock` are normal outcomes, not
/// errors. The reactor retries whenever `poll(2)` reports the socket
/// writable, until the queue drains.
#[derive(Debug, Default)]
pub struct WriteQueue {
    buffer: Vec<u8>,
    offset: usize,
}

impl WriteQueue {
    /// An empty queue.
    pub fn new() -> Self {
        WriteQueue::default()
    }

    /// Append bytes to be written.
    pub fn enqueue(&mut self, bytes: &[u8]) {
        // Compact lazily: reclaim the flushed prefix once it dominates.
        if self.offset > 4096 && self.offset * 2 > self.buffer.len() {
            self.buffer.drain(..self.offset);
            self.offset = 0;
        }
        self.buffer.extend_from_slice(bytes);
    }

    /// Write as much as possible into `writer`. Returns the byte count
    /// actually written; `WouldBlock` stops the flush without error.
    pub fn flush_into<W: Write>(&mut self, writer: &mut W) -> io::Result<usize> {
        let mut written = 0;
        while self.offset < self.buffer.len() {
            match writer.write(&self.buffer[self.offset..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "peer accepts no bytes",
                    ));
                }
                Ok(n) => {
                    self.offset += n;
                    written += n;
                }
                Err(error) if error.kind() == io::ErrorKind::WouldBlock => break,
                Err(error) if error.kind() == io::ErrorKind::Interrupted => continue,
                Err(error) => return Err(error),
            }
        }
        if self.offset == self.buffer.len() {
            self.buffer.clear();
            self.offset = 0;
        }
        Ok(written)
    }

    /// Bytes enqueued and not yet written.
    pub fn pending(&self) -> usize {
        self.buffer.len() - self.offset
    }

    /// Whether everything enqueued has been written.
    pub fn is_empty(&self) -> bool {
        self.pending() == 0
    }
}

// ---------------------------------------------------------------------
// The reactor
// ---------------------------------------------------------------------

/// Per-scan read budget, so one firehose peer cannot starve the table.
const SCAN_READ_BUDGET: usize = 64 * 1024;

/// A write queue deeper than this counts as *backlogged*: the owner
/// should stop feeding it discretionary output (subscriber events)
/// until [`Event::Writable`] reports the drain.
pub const WRITE_BACKLOG_THRESHOLD: usize = 256 * 1024;

struct Registration<S> {
    stream: S,
    frame: FrameBuffer,
    writes: WriteQueue,
    interest: ReadInterest,
    notify_pending: Arc<AtomicBool>,
    timer_generation: u64,
    close_after_flush: bool,
    backlogged: bool,
    peer_eof: bool,
}

/// The event loop: a registration table of owned nonblocking streams,
/// a wakeup channel, timers, and a level-triggered [`poll`].
///
/// [`poll`]: Reactor::poll
pub struct Reactor<S: Stream> {
    rx: Receiver<Wake<S>>,
    wake: WakeHandle<S>,
    /// The read end of the wake pipe, the first entry of every poll set.
    bell: UnixStream,
    table: HashMap<u64, Registration<S>>,
    next_token: u64,
    timers: BinaryHeap<Reverse<(Instant, u64, u64)>>,
    next_timer_generation: u64,
    pending: VecDeque<Event>,
    notify_wakeups: u64,
    timer_wakeups: u64,
}

impl<S: Stream> Default for Reactor<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: Stream> Reactor<S> {
    /// A reactor with an empty table.
    ///
    /// # Panics
    ///
    /// If the process cannot open the two descriptors of the wake pipe.
    pub fn new() -> Self {
        let (tx, rx) = channel();
        let (bell, pipe) =
            UnixStream::pair().expect("the reactor's wake pipe needs two descriptors");
        for end in [&bell, &pipe] {
            end.set_nonblocking(true)
                .expect("a fresh socket accepts nonblocking mode");
        }
        Reactor {
            rx,
            wake: WakeHandle {
                tx,
                bell: Arc::new(Bell {
                    rung: AtomicBool::new(false),
                    pipe,
                }),
            },
            bell,
            table: HashMap::new(),
            next_token: 0,
            timers: BinaryHeap::new(),
            next_timer_generation: 0,
            pending: VecDeque::new(),
            notify_wakeups: 0,
            timer_wakeups: 0,
        }
    }

    /// A handle other threads use to post wakes.
    pub fn wake_handle(&self) -> WakeHandle<S> {
        self.wake.clone()
    }

    /// A coalescing notify hook bound to `token`. Firing it from any
    /// thread makes [`Reactor::poll`] report [`Event::Notify`] for the
    /// connection; fires are coalesced until that report happens.
    pub fn notify_handle(&self, token: Token) -> Option<NotifyHandle> {
        let registration = self.table.get(&token.0)?;
        let pending = Arc::clone(&registration.notify_pending);
        let wake = self.wake.clone();
        Some(NotifyHandle {
            pending,
            send: Arc::new(move || wake.post(Wake::Notify(token))),
        })
    }

    /// Directly register a stream (the in-thread form of
    /// [`WakeHandle::accepted`]); returns its token, or the underlying
    /// error if the stream refused nonblocking mode.
    pub fn register(&mut self, stream: S) -> io::Result<Token> {
        stream.set_nonblocking(true)?;
        let token = Token(self.next_token);
        self.next_token += 1;
        self.table.insert(
            token.0,
            Registration {
                stream,
                frame: FrameBuffer::new(),
                writes: WriteQueue::new(),
                interest: ReadInterest::Framed,
                notify_pending: Arc::new(AtomicBool::new(false)),
                timer_generation: 0,
                close_after_flush: false,
                backlogged: false,
                peer_eof: false,
            },
        );
        Ok(token)
    }

    /// Live connections in the table.
    pub fn connections(&self) -> usize {
        self.table.len()
    }

    /// Whether the table is empty (the drain-complete condition).
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Tokens of every live connection, for drain sweeps.
    pub fn tokens(&self) -> Vec<Token> {
        let mut tokens: Vec<Token> = self.table.keys().map(|&id| Token(id)).collect();
        tokens.sort();
        tokens
    }

    /// Whether `token` is still in the table. Owners use this after an
    /// [`enqueue_write`](Reactor::enqueue_write) to notice a write
    /// failure (the failure's [`Event::Closed`] is queued, but the
    /// registration is already gone) before producing more output.
    pub fn is_registered(&self, token: Token) -> bool {
        self.table.contains_key(&token.0)
    }

    /// Re-check an EOF-seen connection for clean close. Needed when the
    /// owner consumed a delivered line without producing any output —
    /// with nothing queued to flush, no flush completion will re-run
    /// the close check on its own.
    pub fn sweep_eof(&mut self, token: Token) {
        if registration_is_closable(self.table.get(&token.0)) {
            self.close_clean(token);
        }
    }

    /// Total notify wakes delivered as [`Event::Notify`].
    pub fn notify_wakeups(&self) -> u64 {
        self.notify_wakeups
    }

    /// Total timer expirations delivered as [`Event::Timer`].
    pub fn timer_wakeups(&self) -> u64 {
        self.timer_wakeups
    }

    /// Change what the connection's read half is watched for. Lines
    /// already buffered are (re-)framed immediately on a switch to
    /// [`ReadInterest::Framed`] — level triggering across pauses.
    pub fn set_read_interest(&mut self, token: Token, interest: ReadInterest) {
        let mut lines = Vec::new();
        let mut framing_error = None;
        let mut too_long = false;
        {
            let Some(registration) = self.table.get_mut(&token.0) else {
                return;
            };
            registration.interest = interest;
            if interest == ReadInterest::Framed {
                // Re-framing may surface buffered lines (a pipelined
                // request that arrived during a run) without any new
                // bytes.
                match registration.frame_lines(&mut lines) {
                    Ok(over) => too_long = over,
                    Err(error) => framing_error = Some(error),
                }
            }
        }
        for line in lines {
            self.pending.push_back(Event::Line(token, line));
        }
        if too_long {
            self.pending.push_back(Event::LineTooLong(token));
            return; // the owner's answer flushes before any close
        }
        if let Some(error) = framing_error {
            self.fail(token, error);
            return;
        }
        if interest != ReadInterest::Paused && registration_is_closable(self.table.get(&token.0)) {
            self.close_clean(token);
        }
    }

    /// Queue bytes for the connection and start flushing immediately.
    pub fn enqueue_write(&mut self, token: Token, bytes: &[u8]) {
        // Opportunistic immediate flush: the common case (responsive
        // peer, small response) completes here without a poll.
        let flushed = {
            let Some(registration) = self.table.get_mut(&token.0) else {
                return;
            };
            registration.writes.enqueue(bytes);
            if registration.writes.pending() > WRITE_BACKLOG_THRESHOLD {
                registration.backlogged = true;
            }
            registration
                .writes
                .flush_into(&mut registration.stream)
                .map(|_| registration.writes.is_empty())
        };
        match flushed {
            Ok(true) => self.writes_drained(token),
            Ok(false) => {}
            Err(error) => self.fail(token, error),
        }
    }

    /// Unflushed output bytes queued for the connection (0 for dead
    /// tokens).
    pub fn write_backlog(&self, token: Token) -> usize {
        self.table
            .get(&token.0)
            .map(|r| r.writes.pending())
            .unwrap_or(0)
    }

    /// Close the connection once everything queued has been written.
    /// Reports [`Event::Closed`] with a clean reason when it happens.
    /// Read interest is dropped immediately — this is a goodbye.
    pub fn close_after_flush(&mut self, token: Token) {
        let flushed = {
            let Some(registration) = self.table.get_mut(&token.0) else {
                return;
            };
            registration.close_after_flush = true;
            registration.interest = ReadInterest::Paused;
            registration.writes.is_empty()
        };
        if flushed {
            self.close_clean(token);
        }
    }

    /// Remove the connection immediately, dropping queued output. No
    /// [`Event::Closed`] is reported — the caller initiated this and
    /// already knows.
    pub fn close(&mut self, token: Token) {
        self.drop_registration(token);
    }

    /// Half-close the read side of every registered connection — the
    /// drain's first act, mirroring what the threaded service did to
    /// wake parked readers. Under the reactor nothing is parked, but
    /// the half-close still tells well-behaved peers no further
    /// requests will be read.
    pub fn shutdown_reads(&mut self) {
        for registration in self.table.values() {
            registration.stream.shutdown_read().ok();
        }
    }

    /// Arm (or re-arm) the connection's single timer to fire after
    /// `delay`. Replaces any previously armed timer.
    pub fn set_timer(&mut self, token: Token, delay: Duration) {
        let Some(registration) = self.table.get_mut(&token.0) else {
            return;
        };
        self.next_timer_generation += 1;
        registration.timer_generation = self.next_timer_generation;
        self.timers.push(Reverse((
            Instant::now() + delay,
            token.0,
            self.next_timer_generation,
        )));
    }

    /// Disarm the connection's timer.
    pub fn clear_timer(&mut self, token: Token) {
        if let Some(registration) = self.table.get_mut(&token.0) {
            self.next_timer_generation += 1;
            registration.timer_generation = self.next_timer_generation;
        }
    }

    /// Block until the next event. This is the dispatch loop's one
    /// call: wakes, timers, frame-complete lines, flush completions,
    /// EOFs, and errors all surface here, one at a time.
    pub fn poll(&mut self) -> Event {
        loop {
            if let Some(event) = self.pending.pop_front() {
                return event;
            }
            self.turn();
        }
    }

    /// Like [`poll`](Reactor::poll), but gives up after `timeout` and
    /// returns `None` — for owners that interleave the reactor with
    /// other periodic work.
    pub fn poll_timeout(&mut self, timeout: Duration) -> Option<Event> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(event) = self.pending.pop_front() {
                return Some(event);
            }
            if Instant::now() >= deadline {
                return None;
            }
            self.turn_until(Some(deadline));
        }
    }

    fn turn(&mut self) {
        self.turn_until(None);
    }

    /// One scheduling turn: fire due timers; otherwise wait in
    /// `poll(2)` until a watched socket or the bell is ready, the next
    /// timer falls due, or `cap` passes; then serve the ready
    /// connections and drain the wakeup channel, in that order.
    fn turn_until(&mut self, cap: Option<Instant>) {
        let now = Instant::now();
        self.fire_due_timers(now);
        if !self.pending.is_empty() {
            return;
        }
        let next_timer = self.timers.peek().map(|Reverse((at, _, _))| *at);
        let deadline = next_timer.into_iter().chain(cap).min();

        let mut fds = vec![PollFd::new(self.bell.as_fd(), POLLIN)];
        let mut ids = Vec::new();
        for (&id, registration) in &self.table {
            let mut events = 0;
            if !registration.peer_eof && registration.interest != ReadInterest::Paused {
                events |= POLLIN;
            }
            if !registration.writes.is_empty() {
                events |= POLLOUT;
            }
            // Hangups are reported even when no event is asked for, so
            // a connection watched for nothing stays out of the set.
            if events != 0 {
                fds.push(PollFd::new(registration.stream.as_fd(), events));
                ids.push(id);
            }
        }
        let timeout = deadline.map(|at| at.saturating_duration_since(now));
        if poll::poll(&mut fds, timeout).is_err() {
            // Over descriptors the reactor owns, poll fails only for
            // want of kernel memory; back off instead of spinning.
            std::thread::sleep(Duration::from_millis(1));
            return;
        }
        for (fd, id) in fds[1..].iter().zip(ids) {
            if fd.revents() != 0 {
                self.scan_connection(Token(id));
            }
        }
        if fds[0].revents() != 0 {
            self.drain_wakes();
        }
    }

    /// Read the bell, re-arm it, then drain the channel. The order is
    /// what keeps wakes from being lost: re-arming first could swallow
    /// the byte of a poster that rang in between, leaving the flag set
    /// over an empty pipe, and no later post would ring again. One read
    /// empties the pipe: each byte needs the flag to go from clear to
    /// set, and only this function clears it, so it never holds more
    /// than two.
    fn drain_wakes(&mut self) {
        let _ = (&self.bell).read(&mut [0; 64]);
        self.wake.bell.rung.swap(false, Ordering::AcqRel);
        while let Ok(wake) = self.rx.try_recv() {
            self.process_wake(wake);
        }
    }

    fn process_wake(&mut self, wake: Wake<S>) {
        match wake {
            Wake::NewConn(stream) => match self.register(stream) {
                Ok(token) => self.pending.push_back(Event::Accepted(token)),
                Err(error) => self.pending.push_back(Event::Rejected(format!(
                    "cannot switch accepted connection to nonblocking mode: {error}"
                ))),
            },
            Wake::Notify(token) => {
                if let Some(registration) = self.table.get(&token.0) {
                    // Re-arm before reporting: a notify that fires
                    // while the owner handles this event posts a fresh
                    // wake instead of being swallowed.
                    registration.notify_pending.store(false, Ordering::Release);
                    self.notify_wakeups += 1;
                    self.pending.push_back(Event::Notify(token));
                }
            }
            Wake::Shutdown => self.pending.push_back(Event::Shutdown),
        }
    }

    fn fire_due_timers(&mut self, now: Instant) {
        while let Some(Reverse((at, id, generation))) = self.timers.peek().copied() {
            if at > now {
                break;
            }
            self.timers.pop();
            let live = self
                .table
                .get(&id)
                .is_some_and(|r| r.timer_generation == generation);
            if live {
                self.timer_wakeups += 1;
                self.pending.push_back(Event::Timer(Token(id)));
            }
        }
    }

    /// One nonblocking service pass over a ready connection: flush
    /// queued writes, then read per interest.
    fn scan_connection(&mut self, token: Token) {
        // Writes first: a queued response should never wait on reads.
        let flush = {
            let Some(registration) = self.table.get_mut(&token.0) else {
                return;
            };
            if registration.writes.is_empty() {
                Ok(false)
            } else {
                registration
                    .writes
                    .flush_into(&mut registration.stream)
                    .map(|_| registration.writes.is_empty())
            }
        };
        match flush {
            Ok(true) => {
                self.writes_drained(token);
                if !self.table.contains_key(&token.0) {
                    return;
                }
            }
            Ok(false) => {}
            Err(error) => {
                self.fail(token, error);
                return;
            }
        }

        // Read per interest, collecting framed lines locally so the
        // table borrow never overlaps event emission.
        let mut lines: Vec<String> = Vec::new();
        let mut failure: Option<io::Error> = None;
        let mut too_long = false;
        let saw_eof = {
            let registration = self
                .table
                .get_mut(&token.0)
                .expect("registration survives a clean flush");
            if !registration.peer_eof && registration.interest != ReadInterest::Paused {
                let mut scratch = [0u8; 4096];
                let mut total = 0;
                loop {
                    match registration.stream.read(&mut scratch) {
                        Ok(0) => {
                            registration.peer_eof = true;
                            break;
                        }
                        Ok(n) => {
                            if registration.interest == ReadInterest::Framed {
                                registration.frame.extend(&scratch[..n]);
                            }
                            total += n;
                            if total >= SCAN_READ_BUDGET {
                                break;
                            }
                        }
                        Err(error) if error.kind() == io::ErrorKind::WouldBlock => break,
                        Err(error) if error.kind() == io::ErrorKind::Interrupted => continue,
                        Err(error) => {
                            failure = Some(error);
                            break;
                        }
                    }
                }
            }

            // Frame complete lines out of whatever is buffered.
            if registration.interest == ReadInterest::Framed && failure.is_none() {
                match registration.frame_lines(&mut lines) {
                    Ok(over) => too_long = over,
                    Err(error) => failure = Some(error),
                }
                if registration.peer_eof && failure.is_none() && !too_long {
                    match registration.frame.take_remainder() {
                        Ok(Some(tail)) => lines.push(tail),
                        Ok(None) => {}
                        Err(error) => failure = Some(error.into()),
                    }
                }
            }
            registration.peer_eof
        };

        let delivered = !lines.is_empty() || too_long;
        for line in lines {
            self.pending.push_back(Event::Line(token, line));
        }
        if too_long {
            self.pending.push_back(Event::LineTooLong(token));
        }
        if let Some(error) = failure {
            self.fail(token, error);
            return;
        }
        // Close on EOF only when nothing was delivered this scan: a
        // peer that wrote a request and closed its write half still
        // gets its response — the close follows the response flush (or
        // an explicit [`sweep_eof`](Reactor::sweep_eof)) instead.
        if saw_eof && !delivered && registration_is_closable(self.table.get(&token.0)) {
            self.close_clean(token);
        }
    }

    /// A write queue reached empty: resolve close-after-flush and
    /// backpressure release.
    fn writes_drained(&mut self, token: Token) {
        enum Then {
            Close,
            Writable,
            Nothing,
        }
        let then = {
            let Some(registration) = self.table.get_mut(&token.0) else {
                return;
            };
            if registration.close_after_flush || registration_is_closable(Some(registration)) {
                Then::Close
            } else if registration.backlogged {
                registration.backlogged = false;
                Then::Writable
            } else {
                Then::Nothing
            }
        };
        match then {
            Then::Close => self.close_clean(token),
            Then::Writable => self.pending.push_back(Event::Writable(token)),
            Then::Nothing => {}
        }
    }

    fn close_clean(&mut self, token: Token) {
        if self.drop_registration(token) {
            self.pending.push_back(Event::Closed(token, None));
        }
    }

    fn fail(&mut self, token: Token, error: io::Error) {
        if self.drop_registration(token) {
            self.pending
                .push_back(Event::Closed(token, Some(error.to_string())));
        }
    }

    fn drop_registration(&mut self, token: Token) -> bool {
        self.table.remove(&token.0).is_some()
    }
}

impl<S> Registration<S> {
    /// Frame every complete buffered line into `lines`. A line over
    /// [`MAX_LINE_BYTES`] drops the buffered input and switches the
    /// connection to [`ReadInterest::EofOnly`], so reads continue (a
    /// peer's unread bytes would turn the close into a reset that can
    /// destroy the answer) but nothing more is buffered; `Ok(true)`
    /// tells the caller to report [`Event::LineTooLong`].
    fn frame_lines(&mut self, lines: &mut Vec<String>) -> io::Result<bool> {
        loop {
            match self.frame.next_line() {
                Ok(Some(line)) => lines.push(line),
                Ok(None) => return Ok(false),
                Err(FrameError::TooLong) => {
                    self.frame = FrameBuffer::new();
                    self.interest = ReadInterest::EofOnly;
                    return Ok(true);
                }
                Err(error) => return Err(error.into()),
            }
        }
    }
}

/// Whether an EOF-seen registration has nothing left to deliver and
/// should close cleanly: no queued output, no buffered input still
/// awaiting framing, and not paused (a paused connection belongs to an
/// in-flight run whose owner decides its fate).
fn registration_is_closable<S>(registration: Option<&Registration<S>>) -> bool {
    registration.is_some_and(|r| {
        r.peer_eof
            && r.writes.is_empty()
            && r.interest != ReadInterest::Paused
            && (r.interest != ReadInterest::Framed || r.frame.buffered() == 0)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{Endpoint, Listener, TcpTransport, Transport};
    use std::io::Read;
    use std::net::TcpStream;

    #[test]
    fn frame_buffer_reassembles_lines_across_arbitrary_segments() {
        let mut frame = FrameBuffer::new();
        // "héllo\nwörld\n" delivered one byte at a time — boundaries
        // fall inside the multi-byte UTF-8 sequences.
        for &byte in "héllo\nwörld\n".as_bytes() {
            frame.extend(&[byte]);
        }
        assert_eq!(frame.next_line().unwrap(), Some("héllo".to_string()));
        assert_eq!(frame.next_line().unwrap(), Some("wörld".to_string()));
        assert_eq!(frame.next_line().unwrap(), None);
        assert_eq!(frame.buffered(), 0);
    }

    #[test]
    fn frame_buffer_holds_partial_lines_and_drains_the_tail_at_eof() {
        let mut frame = FrameBuffer::new();
        frame.extend(b"complete\npart");
        assert_eq!(frame.next_line().unwrap(), Some("complete".to_string()));
        assert_eq!(frame.next_line().unwrap(), None);
        assert_eq!(frame.buffered(), 4);
        frame.extend(b"ial");
        assert_eq!(frame.next_line().unwrap(), None, "still unterminated");
        assert_eq!(
            frame.take_remainder().unwrap(),
            Some("partial".to_string()),
            "EOF flushes the unterminated tail"
        );
        assert_eq!(frame.take_remainder().unwrap(), None);
    }

    #[test]
    fn frame_buffer_rejects_invalid_utf8_only_on_complete_lines() {
        let mut frame = FrameBuffer::new();
        // A split multi-byte sequence is fine while incomplete…
        frame.extend(&[0xC3]);
        assert_eq!(frame.next_line().unwrap(), None);
        frame.extend(&[0xA9]);
        frame.extend(b"ok\n");
        assert_eq!(frame.next_line().unwrap(), Some("éok".to_string()));
        // …but a complete line with a stray continuation byte errors.
        frame.extend(&[b'x', 0x80, b'\n']);
        assert!(frame.next_line().is_err());
    }

    #[test]
    fn frame_buffer_caps_lines_at_max_line_bytes() {
        // Exactly the cap frames, terminated now or later…
        let mut frame = FrameBuffer::new();
        frame.extend(&vec![b'x'; MAX_LINE_BYTES]);
        assert_eq!(frame.next_line(), Ok(None), "may still be terminated");
        frame.extend(b"\n");
        let line = frame.next_line().unwrap().expect("a full line");
        assert_eq!(line.len(), MAX_LINE_BYTES);
        // …one more byte errors, terminated or not.
        for tail in [&b""[..], b"\n"] {
            let mut frame = FrameBuffer::new();
            frame.extend(&vec![b'x'; MAX_LINE_BYTES + 1]);
            frame.extend(tail);
            assert_eq!(frame.next_line(), Err(FrameError::TooLong));
        }
    }

    /// A writer that accepts at most `cap` bytes per call and
    /// interleaves `WouldBlock` refusals — the adversarial peer the
    /// write queue must tolerate.
    struct ShortWriter {
        cap: usize,
        refuse_next: bool,
        written: Vec<u8>,
    }

    impl Write for ShortWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.refuse_next {
                self.refuse_next = false;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "try later"));
            }
            self.refuse_next = true;
            let n = buf.len().min(self.cap);
            self.written.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_queue_survives_short_writes_and_would_block() {
        let mut queue = WriteQueue::new();
        let mut writer = ShortWriter {
            cap: 3,
            refuse_next: false,
            written: Vec::new(),
        };
        queue.enqueue(b"the quick brown fox\n");
        queue.enqueue(b"jumps over\n");
        let mut rounds = 0;
        while !queue.is_empty() {
            queue.flush_into(&mut writer).expect("flush");
            rounds += 1;
            assert!(rounds < 100, "flush must make progress");
        }
        assert_eq!(writer.written, b"the quick brown fox\njumps over\n");
        assert_eq!(queue.pending(), 0);
    }

    fn pair() -> (Reactor<TcpStream>, Token, TcpStream) {
        let listener = TcpTransport::bind(&"tcp:127.0.0.1:0".parse::<Endpoint>().unwrap())
            .expect("bind loopback");
        let client = TcpTransport::connect(listener.local_endpoint()).expect("connect");
        let served = listener.accept().expect("accept");
        let mut reactor = Reactor::new();
        let token = reactor.register(served).expect("register");
        (reactor, token, client)
    }

    #[test]
    fn reactor_frames_segmented_requests_and_flushes_responses() {
        let (mut reactor, token, mut client) = pair();
        // The request arrives in two segments split mid-envelope.
        client.write_all(b"{\"id\":1,\"met").expect("first half");
        client.write_all(b"hod\":\"ping\"}\n").expect("second half");
        let line = loop {
            match reactor.poll() {
                Event::Line(t, line) => {
                    assert_eq!(t, token);
                    break line;
                }
                Event::Accepted(_) | Event::Writable(_) => continue,
                other => panic!("unexpected event {other:?}"),
            }
        };
        assert_eq!(line, "{\"id\":1,\"method\":\"ping\"}");

        reactor.enqueue_write(token, b"pong\n");
        let mut response = [0u8; 5];
        client.read_exact(&mut response).expect("response");
        assert_eq!(&response, b"pong\n");
    }

    #[test]
    fn reactor_reports_clean_eof_and_flushes_goodbyes() {
        let (mut reactor, token, mut client) = pair();
        reactor.enqueue_write(token, b"bye\n");
        reactor.close_after_flush(token);
        let mut all = Vec::new();
        client.read_to_end(&mut all).expect("drain to EOF");
        assert_eq!(all, b"bye\n", "goodbye flushed before the close");
        match reactor.poll() {
            Event::Closed(t, reason) => {
                assert_eq!(t, token);
                assert!(reason.is_none(), "clean close: {reason:?}");
            }
            other => panic!("unexpected event {other:?}"),
        }
        assert!(reactor.is_empty());
    }

    #[test]
    fn reactor_delivers_final_unterminated_line_then_eof() {
        let (mut reactor, token, mut client) = pair();
        client.write_all(b"last words").expect("send tail");
        drop(client);
        let mut saw_line = false;
        loop {
            match reactor.poll() {
                Event::Line(t, line) => {
                    assert_eq!(t, token);
                    assert_eq!(line, "last words");
                    saw_line = true;
                    // A line delivered at EOF defers the close until the
                    // owner reacts; reacting with no output means an
                    // explicit sweep.
                    reactor.sweep_eof(t);
                }
                Event::Closed(t, reason) => {
                    assert_eq!(t, token);
                    assert!(reason.is_none(), "peer hangup is clean: {reason:?}");
                    break;
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
        assert!(saw_line, "the unterminated tail was still delivered");
    }

    #[test]
    fn notify_handles_coalesce_and_rearm() {
        let (mut reactor, token, _client) = pair();
        let notify = reactor.notify_handle(token).expect("live token");
        // A burst of fires before the reactor runs coalesces to one
        // event…
        for _ in 0..100 {
            notify.notify();
        }
        match reactor.poll() {
            Event::Notify(t) => assert_eq!(t, token),
            other => panic!("unexpected event {other:?}"),
        }
        assert_eq!(reactor.notify_wakeups(), 1, "burst coalesced");
        // …and the flag re-armed: the next fire produces a fresh event.
        notify.notify();
        match reactor.poll() {
            Event::Notify(t) => assert_eq!(t, token),
            other => panic!("unexpected event {other:?}"),
        }
        assert_eq!(reactor.notify_wakeups(), 2);
    }

    #[test]
    fn timers_fire_once_and_rearms_replace() {
        let (mut reactor, token, _client) = pair();
        // Re-arming replaces: only the second deadline fires.
        reactor.set_timer(token, Duration::from_millis(5));
        reactor.set_timer(token, Duration::from_millis(20));
        let started = Instant::now();
        match reactor.poll() {
            Event::Timer(t) => assert_eq!(t, token),
            other => panic!("unexpected event {other:?}"),
        }
        assert!(
            started.elapsed() >= Duration::from_millis(15),
            "the replaced 5 ms deadline must not fire"
        );
        assert_eq!(reactor.timer_wakeups(), 1, "one firing, not two");
        // A cleared timer never fires.
        reactor.set_timer(token, Duration::from_millis(5));
        reactor.clear_timer(token);
        assert!(
            reactor.poll_timeout(Duration::from_millis(40)).is_none(),
            "cleared timer stayed silent"
        );
    }

    #[test]
    fn paused_interest_defers_framing_until_resumed() {
        let (mut reactor, token, mut client) = pair();
        reactor.set_read_interest(token, ReadInterest::Paused);
        client.write_all(b"queued-while-paused\n").expect("send");
        assert!(
            reactor.poll_timeout(Duration::from_millis(50)).is_none(),
            "paused connections are not read"
        );
        reactor.set_read_interest(token, ReadInterest::Framed);
        let line = match reactor.poll() {
            Event::Line(t, line) => {
                assert_eq!(t, token);
                line
            }
            other => panic!("unexpected event {other:?}"),
        };
        assert_eq!(line, "queued-while-paused");
    }

    #[test]
    fn eof_only_interest_discards_input_but_reports_hangup() {
        let (mut reactor, token, mut client) = pair();
        reactor.set_read_interest(token, ReadInterest::EofOnly);
        client.write_all(b"ignored chatter\n").expect("send");
        assert!(
            reactor.poll_timeout(Duration::from_millis(50)).is_none(),
            "subscriber chatter is discarded, not framed"
        );
        drop(client);
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match reactor.poll_timeout(Duration::from_millis(100)) {
                Some(Event::Closed(t, reason)) => {
                    assert_eq!(t, token);
                    assert!(reason.is_none(), "hangup is clean: {reason:?}");
                    break;
                }
                Some(other) => panic!("unexpected event {other:?}"),
                None => assert!(Instant::now() < deadline, "hangup never reported"),
            }
        }
    }

    /// One thread rings the bell nonstop through B's notify handle while
    /// another fires A's once per round. Clearing the bell's flag before
    /// the pipe is read dry loses a ring within a few thousand rounds,
    /// and every wake after it.
    #[test]
    fn wakes_are_never_lost_while_another_handle_keeps_ringing() {
        const ROUNDS: usize = 20_000;
        let mut reactor: Reactor<UnixStream> = Reactor::new();
        let (served_a, _peer_a) = UnixStream::pair().expect("socket pair");
        let (served_b, _peer_b) = UnixStream::pair().expect("socket pair");
        let a = reactor.register(served_a).expect("register A");
        let b = reactor.register(served_b).expect("register B");
        let notify_a = reactor.notify_handle(a).expect("live token");
        let notify_b = reactor.notify_handle(b).expect("live token");
        let stop = AtomicBool::new(false);
        let lost = std::thread::scope(|scope| {
            let (round_tx, round_rx) = channel::<()>();
            scope.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    notify_b.notify();
                }
            });
            scope.spawn(move || {
                for () in round_rx {
                    notify_a.notify();
                }
            });
            let lost = (0..ROUNDS).find(|_| {
                round_tx.send(()).expect("the firing thread is alive");
                let deadline = Instant::now() + Duration::from_secs(5);
                loop {
                    let left = deadline.saturating_duration_since(Instant::now());
                    match reactor.poll_timeout(left) {
                        Some(Event::Notify(token)) if token == a => return false,
                        Some(_) => {}
                        None => return true,
                    }
                }
            });
            stop.store(true, Ordering::Relaxed);
            lost
        });
        assert_eq!(lost, None, "Notify(A) never arrived in that round");
    }

    /// A served stream that counts the reads made on it.
    struct CountingStream {
        inner: UnixStream,
        reads: Arc<std::sync::atomic::AtomicUsize>,
    }

    impl Read for CountingStream {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads.fetch_add(1, Ordering::Relaxed);
            self.inner.read(buf)
        }
    }

    impl Write for CountingStream {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.inner.write(buf)
        }

        fn flush(&mut self) -> io::Result<()> {
            self.inner.flush()
        }
    }

    impl AsFd for CountingStream {
        fn as_fd(&self) -> std::os::fd::BorrowedFd<'_> {
            self.inner.as_fd()
        }
    }

    impl Stream for CountingStream {
        fn try_clone(&self) -> io::Result<Self> {
            Ok(CountingStream {
                inner: self.inner.try_clone()?,
                reads: Arc::clone(&self.reads),
            })
        }

        fn shutdown_read(&self) -> io::Result<()> {
            Stream::shutdown_read(&self.inner)
        }

        fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
            self.inner.set_nonblocking(nonblocking)
        }
    }

    #[test]
    fn an_idle_connection_costs_no_reads() {
        let (served, mut client) = UnixStream::pair().expect("socket pair");
        let reads = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let mut reactor = Reactor::new();
        let token = reactor
            .register(CountingStream {
                inner: served,
                reads: Arc::clone(&reads),
            })
            .expect("register");
        assert!(
            reactor.poll_timeout(Duration::from_millis(300)).is_none(),
            "a silent peer produces no events"
        );
        assert_eq!(
            reads.load(Ordering::Relaxed),
            0,
            "the idle connection was read"
        );
        client.write_all(b"late\n").expect("send");
        match reactor.poll() {
            Event::Line(t, line) => {
                assert_eq!(t, token);
                assert_eq!(line, "late");
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn wake_handle_registers_connections_and_shutdown_is_reported() {
        let listener = TcpTransport::bind(&"tcp:127.0.0.1:0".parse::<Endpoint>().unwrap())
            .expect("bind loopback");
        let endpoint = listener.local_endpoint().clone();
        let mut reactor: Reactor<TcpStream> = Reactor::new();
        let wake = reactor.wake_handle();
        let poster = std::thread::spawn(move || {
            let _client = TcpTransport::connect(&endpoint).expect("connect");
            let served = listener.accept().expect("accept");
            wake.accepted(served);
            wake.shutdown();
            _client
        });
        match reactor.poll() {
            Event::Accepted(_) => {}
            other => panic!("unexpected event {other:?}"),
        }
        assert_eq!(reactor.connections(), 1);
        match reactor.poll() {
            Event::Shutdown => {}
            other => panic!("unexpected event {other:?}"),
        }
        poster.join().expect("poster thread");
    }
}
