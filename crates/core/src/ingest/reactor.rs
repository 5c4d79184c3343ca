//! The event-driven ingestion reactor: one thread readiness-polls thousands
//! of nonblocking sockets, decodes wire-format frames incrementally, and
//! hands complete [`TelemetryBatch`]es to channel-fed fleet devices.
//!
//! # Data flow
//!
//! ```text
//!  telemetry_serve / device gateways            one reactor thread
//!  ┌──────────┐  TCP   ┌───────────────────────────────────────────┐
//!  │ stream 0 │───────▶│ poll(2) ─ readable fds ─▶ StreamParser ──┐│
//!  │ stream 1 │───────▶│   ▲                                      ││
//!  │   ...    │        │   └─ park fd while its ring is full      ││
//!  │ stream N │───────▶│                  TelemetrySender.try_send◀┘│
//!  └──────────┘        └──────────────┬────────────────────────────┘
//!                                     │ bounded telemetry_channel rings
//!                            ┌────────▼─────────┐
//!                            │ FleetScheduler   │  ChannelSource feeds
//!                            │ (lockstep ticks) │  via FleetRunBuilder
//!                            └──────────────────┘
//! ```
//!
//! Each subscription ([`IngestReactor::subscribe`]) dials one stream and
//! returns the [`ChannelSource`] end of a bounded
//! [`telemetry_channel`](crate::ingest::telemetry_channel()); the scheduler
//! consumes it like any other [`ExternalDevice`](crate::fleet::ExternalDevice)
//! feed.  Backpressure never blocks the event loop: when a device's ring is
//! full the decoded batch waits in an overflow queue, and once 32 batches
//! wait there the connection is *parked* (dropped from the poll set) until
//! the runtime drains it.
//!
//! # What wakes the loop
//!
//! The loop sleeps in `poll(2)` and wakes only for work:
//!
//! * a feed socket turns readable (data, EOF or an error);
//! * a [`ReactorHandle`] churn command: `subscribe` and `unsubscribe` write
//!   one byte to a wake socket that sits in the poll set while any handle is
//!   alive, and the last handle's drop shows up there as EOF;
//! * a deadline: a dialing feed's next redial (`delay` after its last dial
//!   under the [`ReconnectPolicy`]), and a 1 ms re-check for every feed that
//!   holds decoded batches its full channel ring has not taken yet — the
//!   consumer frees ring room without telling the reactor.
//!
//! With none of these pending the poll waits indefinitely.  Each pass
//! services only live feeds: a completed, departed or failed feed is folded
//! into [`ReactorStats`] and dropped from the loop.
//!
//! # Failure handling
//!
//! * **Torn connection** (EOF or I/O error before the END frame): the
//!   reactor redials per its [`ReconnectPolicy`] and sends a RESUME frame
//!   naming the next batch index it has not yet received; the server replays
//!   the remainder.  Because every delivered batch is counted exactly once,
//!   a resumed fleet run is bit-identical to an uninterrupted one.
//! * **Corrupt frame** (bad header, bad length prefix, unknown kind, torn
//!   payload): the stream has lost framing, so the feed fails with an
//!   [`AdaSenseError`] recorded in [`ReactorStats::errors`]; its channel
//!   closes (the device simply ends early) and every other feed is
//!   untouched.  One bad client cannot take down the fleet.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use polling::{poll_fds, PollFd, POLLIN};

use adasense_sensor::TelemetryBatch;

use super::socket::Stream;
pub use super::socket::UNIX_ADDR_SCHEME;
use super::{
    telemetry_channel, ChannelSource, FrameEncoder, FrameKind, ReconnectPolicy, StreamParser,
    TelemetrySender,
};
use crate::error::AdaSenseError;

/// Per-read scratch size: large enough to drain several frames per
/// readiness event, small enough to keep per-connection memory trivial.
const READ_BLOCK: usize = 8192;

/// Decoded-but-undelivered batches a feed may hold before its connection is
/// parked.  This is the reactor-side overflow on top of the channel ring.
const PARK_THRESHOLD: usize = 32;

/// How soon a feed holding undelivered batches re-checks its channel ring
/// for room.
const REFILL_CHECK: Duration = Duration::from_millis(1);

/// Per-feed failures kept in [`ReactorStats::errors`]; later ones are only
/// counted in [`ReactorStats::failed`], so the record stays bounded however
/// large the cohort.
const MAX_RECORDED_ERRORS: usize = 64;

/// Counters and outcomes for one [`IngestReactor::run`], returned when every
/// feed has completed or failed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReactorStats {
    /// Feeds subscribed.
    pub feeds: u64,
    /// Feeds whose stream completed (END frame, every batch delivered).
    pub completed: u64,
    /// Feeds that failed (corrupt stream, redials exhausted, or consumer
    /// gone before end-of-stream).
    pub failed: u64,
    /// Batches handed to device channels across all feeds.
    pub batches: u64,
    /// Successful reconnects after a torn connection.
    pub reconnects: u64,
    /// Feeds dropped because their stream lost framing (corrupt bytes).
    pub corrupt_streams: u64,
    /// Highest number of simultaneously connected feeds observed.
    pub peak_open: u64,
    /// Feeds subscribed while the reactor was already running (via
    /// [`ReactorHandle::subscribe`]).
    pub joined: u64,
    /// Feeds unsubscribed mid-run (via [`ReactorHandle::unsubscribe`]): their
    /// channels closed at the last delivered batch, so the device finalized
    /// at its last completed epoch.
    pub departed: u64,
    /// `poll(2)` calls the event loop made.
    pub polls: u64,
    /// Polls that returned with nothing ready: a deadline fired rather than
    /// a socket or a churn command.
    pub idle_polls: u64,
    /// Feeds the loop serviced, summed over its iterations (one visit per
    /// live feed per iteration).
    pub feed_visits: u64,
    /// The first 64 per-feed failures, in the order they happened:
    /// `(device_id, error)`.  [`failed`](Self::failed) counts every one.
    pub errors: Vec<(u64, AdaSenseError)>,
}

impl ReactorStats {
    /// Counts one failed feed, keeping its error if the record has room.
    fn record_failure(&mut self, device_id: u64, error: AdaSenseError) {
        self.failed += 1;
        if self.errors.len() < MAX_RECORDED_ERRORS {
            self.errors.push((device_id, error));
        }
    }
}

/// Lifecycle of one subscription.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FeedState {
    /// Needs a (re)connect.
    Dialing,
    /// Connected and reading frames.
    Streaming,
    /// END seen; delivering the overflow queue, then closing the channel.
    Draining,
    /// All batches delivered and the channel closed.
    Completed,
    /// Unsubscribed mid-run; the channel closed at the last delivered batch.
    Departed,
    /// Gave up; error recorded.
    Failed,
}

impl FeedState {
    /// Completed, departed and failed feeds are done: the loop retires them.
    fn is_terminal(self) -> bool {
        matches!(self, Self::Completed | Self::Departed | Self::Failed)
    }
}

#[derive(Debug)]
struct Conn {
    stream: Stream,
    parser: StreamParser,
    /// Batches received on *this* connection (END validates against it).
    received_this_stream: u64,
}

/// A churn command sent from a [`ReactorHandle`] to its running reactor.
enum Command {
    Subscribe { device_id: u64, addr: String, sender: TelemetrySender },
    Unsubscribe { device_id: u64 },
}

/// A cloneable handle for subscribing and unsubscribing feeds while the
/// reactor runs (see [`IngestReactor::handle`]).  The reactor keeps running
/// until every feed is terminal *and* every handle has been dropped, so hold
/// a handle only as long as the fleet may still churn.
///
/// Each command wakes the reactor at once: the handle queues it, then writes
/// one byte to a wake socket in the reactor's poll set.  A full wake socket
/// already holds a pending wake, and a write error means the reactor is gone,
/// so write errors are ignored.
#[derive(Clone)]
pub struct ReactorHandle {
    commands: Sender<Command>,
    /// Write end of the reactor's wake socket; `None` only if the socket
    /// could not be created, which [`IngestReactor::run`] then reports.
    wake: Option<Arc<UnixStream>>,
    capacity: usize,
}

impl ReactorHandle {
    /// Registers a new feed with the *running* reactor: device `device_id`
    /// served at `addr` (`host:port`, or `unix:<path>`), starting from batch
    /// `0`.  Returns the [`ChannelSource`] the device runtime consumes —
    /// typically handed to the fleet through
    /// [`FleetRunBuilder::intake`](crate::fleet::FleetRunBuilder::intake).
    /// If the reactor has already exited, the source reports end-of-stream
    /// immediately.
    pub fn subscribe(&self, addr: &str, device_id: u64) -> ChannelSource {
        let (sender, source) = telemetry_channel(self.capacity);
        self.send(Command::Subscribe { device_id, addr: addr.to_string(), sender });
        source
    }

    /// Removes a live feed: its connection is dropped, undelivered batches
    /// are discarded and its channel closes, so the device finalizes at its
    /// last completed epoch.  Unknown or already-terminal device ids are
    /// ignored.
    pub fn unsubscribe(&self, device_id: u64) {
        self.send(Command::Unsubscribe { device_id });
    }

    /// Queues `command`, then wakes the reactor.  A command the reactor can
    /// no longer receive is dropped (with its sender, which ends the source).
    fn send(&self, command: Command) {
        if self.commands.send(command).is_ok() {
            if let Some(wake) = &self.wake {
                let _ = (&**wake).write(&[1]);
            }
        }
    }
}

impl std::fmt::Debug for ReactorHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReactorHandle").field("capacity", &self.capacity).finish_non_exhaustive()
    }
}

struct Feed {
    device_id: u64,
    addr: String,
    sender: Option<TelemetrySender>,
    conn: Option<Conn>,
    state: FeedState,
    /// Total batches received across all of this feed's connections — the
    /// RESUME index sent on reconnect.
    received_total: u64,
    /// Decoded batches waiting for room in the channel ring.
    overflow: VecDeque<TelemetryBatch>,
    /// Redials left for the current disconnect burst.
    redials_left: u32,
    /// When the last dial was attempted, pacing redials by the policy delay.
    last_dial: Option<Instant>,
    /// Whether any connection has ever been established (a later dial is a
    /// reconnect).
    ever_connected: bool,
    reconnects: u64,
}

impl std::fmt::Debug for Feed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Feed")
            .field("device_id", &self.device_id)
            .field("addr", &self.addr)
            .field("state", &self.state)
            .field("received_total", &self.received_total)
            .field("overflow", &self.overflow.len())
            .finish()
    }
}

/// The event-driven ingestion reactor.  Subscribe feeds, hand their
/// [`ChannelSource`]s to the fleet scheduler, then [`run`](Self::run) the
/// reactor on its own thread; it returns a [`ReactorStats`] once every feed
/// has either completed or failed.  See the [module docs](self).
///
/// One reactor thread comfortably sustains thousands of concurrent feeds:
/// per feed it keeps one nonblocking socket, one incremental parser and a
/// bounded overflow queue — no per-connection threads, no unbounded buffers.
#[derive(Debug)]
pub struct IngestReactor {
    /// Live feeds in subscription order; terminal ones are retired by `run`.
    feeds: Vec<Feed>,
    policy: ReconnectPolicy,
    capacity: usize,
    stats: ReactorStats,
    /// The reactor's end of its [`ReactorHandle`]s, created on the first
    /// [`handle`](Self::handle) call and closed once every handle is gone.
    intake: Option<Intake>,
    /// The reactor's own handle, kept only until [`run`](Self::run) starts
    /// so `handle` can clone it; dropped at run start so EOF on the wake
    /// socket means "every user handle is gone".
    own_handle: Option<ReactorHandle>,
    /// Why the wake socket could not be created; `run` fails with it.
    wake_error: Option<std::io::Error>,
    /// Poll slots (the wake socket first, while the intake is open, then
    /// one per readable-eligible feed) and the feed index behind each feed
    /// slot, reused across iterations.
    fds: Vec<PollFd>,
    owners: Vec<usize>,
}

/// The reactor's end of its handles: the command queue and the read end of
/// the wake socket.
#[derive(Debug)]
struct Intake {
    commands: Receiver<Command>,
    wake: UnixStream,
}

impl IngestReactor {
    /// A reactor with the default [`ReconnectPolicy`] and a per-feed channel
    /// ring of 8 batches.
    pub fn new() -> Self {
        Self {
            feeds: Vec::new(),
            policy: ReconnectPolicy::default(),
            capacity: 8,
            stats: ReactorStats::default(),
            intake: None,
            own_handle: None,
            wake_error: None,
            fds: Vec::new(),
            owners: Vec::new(),
        }
    }

    /// Returns a cloneable [`ReactorHandle`] for subscribing and
    /// unsubscribing feeds *while the reactor runs*.  With at least one
    /// handle outstanding the reactor keeps running after its current feeds
    /// finish, waiting for churn; it exits once every handle is dropped and
    /// every feed is terminal.
    pub fn handle(&mut self) -> ReactorHandle {
        let own = self.own_handle.get_or_insert_with(|| {
            let (commands, rx) = std::sync::mpsc::channel();
            let wake = UnixStream::pair().and_then(|(reader, writer)| {
                reader.set_nonblocking(true)?;
                writer.set_nonblocking(true)?;
                self.intake = Some(Intake { commands: rx, wake: reader });
                Ok(Arc::new(writer))
            });
            let wake = wake.map_err(|e| self.wake_error = Some(e)).ok();
            ReactorHandle { commands, wake, capacity: self.capacity }
        });
        ReactorHandle { capacity: self.capacity, ..own.clone() }
    }

    /// Replaces the reconnect policy (applies per disconnect: each torn
    /// connection gets `attempts` redials, `delay` apart).
    pub fn with_policy(mut self, policy: ReconnectPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the per-feed channel ring capacity, in batches, for subsequent
    /// [`subscribe`](Self::subscribe) calls.
    pub fn with_channel_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Registers one feed: device `device_id` served at `addr`
    /// (`host:port`, or `unix:<path>` for a Unix-domain socket), starting
    /// from batch `0`.  Returns the [`ChannelSource`] the device runtime
    /// consumes.  The connection is dialed when [`run`](Self::run) starts;
    /// to subscribe feeds *after* that, take a [`handle`](Self::handle)
    /// first.
    pub fn subscribe(&mut self, addr: &str, device_id: u64) -> ChannelSource {
        let (sender, source) = telemetry_channel(self.capacity);
        self.admit(device_id, addr.to_string(), sender);
        source
    }

    /// Adds one feed in its initial dialing state.
    fn admit(&mut self, device_id: u64, addr: String, sender: TelemetrySender) {
        self.feeds.push(Feed {
            device_id,
            addr,
            sender: Some(sender),
            conn: None,
            state: FeedState::Dialing,
            received_total: 0,
            overflow: VecDeque::new(),
            redials_left: self.policy.attempts,
            last_dial: None,
            ever_connected: false,
            reconnects: 0,
        });
    }

    /// Number of subscribed feeds.
    pub fn feed_count(&self) -> usize {
        self.feeds.len()
    }

    /// Runs the event loop until every feed has completed or failed, then
    /// returns the final [`ReactorStats`].
    ///
    /// # Errors
    ///
    /// Returns [`AdaSenseError::Ingest`] only for reactor-global failures
    /// (the `poll(2)` syscall itself, or a wake socket for
    /// [`handle`](Self::handle) that could not be created); per-feed
    /// failures are recorded in [`ReactorStats::errors`] instead.
    pub fn run(mut self) -> Result<ReactorStats, AdaSenseError> {
        // Drop the reactor's own handle: from here on, EOF on the wake socket
        // means every user handle is gone and no further churn can arrive.
        self.own_handle = None;
        if let Some(e) = self.wake_error.take() {
            return Err(AdaSenseError::ingest(format!(
                "creating the reactor wake socket failed: {e}"
            )));
        }
        self.stats.feeds = self.feeds.len() as u64;
        loop {
            for i in 0..self.feeds.len() {
                self.service_feed(i);
            }
            self.stats.feed_visits += self.feeds.len() as u64;
            let stats = &mut self.stats;
            self.feeds.retain(|feed| {
                if feed.state.is_terminal() {
                    stats.reconnects += feed.reconnects;
                }
                !feed.state.is_terminal()
            });
            if self.feeds.is_empty() && self.intake.is_none() {
                break;
            }
            self.poll_ready()?;
        }
        Ok(self.stats)
    }

    /// Drains the wake socket, then applies every queued churn command.
    /// Draining first means a command queued after the drain leaves a byte
    /// behind, so the next poll wakes for it.  EOF means every handle is
    /// gone: the intake closes once its last commands are applied.
    fn drain_intake(&mut self) {
        let Some(mut intake) = self.intake.take() else { return };
        let mut drained = [0u8; 64];
        let open = loop {
            match intake.wake.read(&mut drained) {
                Ok(0) => break false,
                Ok(_) => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock => break true,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => break false,
            }
        };
        while let Ok(command) = intake.commands.try_recv() {
            self.apply(command);
        }
        if open {
            self.intake = Some(intake);
        }
    }

    /// Applies one churn command from a [`ReactorHandle`].
    fn apply(&mut self, command: Command) {
        match command {
            Command::Subscribe { device_id, addr, sender } => {
                self.admit(device_id, addr, sender);
                self.stats.feeds += 1;
                self.stats.joined += 1;
            }
            Command::Unsubscribe { device_id } => {
                // Latest matching live feed wins; terminal feeds are left
                // alone so a departure cannot retroactively fail a stream.
                let Some(i) = self
                    .feeds
                    .iter()
                    .rposition(|f| f.device_id == device_id && !f.state.is_terminal())
                else {
                    return;
                };
                let feed = &mut self.feeds[i];
                feed.conn = None;
                feed.overflow.clear();
                // Dropping the sender closes the channel at the last
                // *delivered* batch: the device runtime sees end-of-stream on
                // its next tick and finalizes at its last completed epoch.
                feed.sender = None;
                feed.state = FeedState::Departed;
                self.stats.departed += 1;
            }
        }
    }

    /// Polls the wake socket and every streaming, un-parked connection for
    /// readability, reading and decoding whatever arrived, then applies any
    /// churn commands.  The timeout runs to the nearest feed deadline (a
    /// redial, or a ring re-check for undelivered batches); with none due
    /// the poll waits indefinitely.
    fn poll_ready(&mut self) -> Result<(), AdaSenseError> {
        self.fds.clear();
        self.owners.clear();
        if let Some(intake) = &self.intake {
            self.fds.push(PollFd::new(intake.wake.as_raw_fd(), POLLIN));
        }
        let first_feed_slot = self.fds.len();
        let now = Instant::now();
        let mut wait: Option<Duration> = None;
        let mut due_in = |d: Duration| wait = Some(wait.map_or(d, |w| w.min(d)));
        let mut open = 0;
        for (i, feed) in self.feeds.iter().enumerate() {
            if let Some(conn) = &feed.conn {
                open += 1;
                // Parked feeds (overflow at the threshold) stay out of the
                // poll set until their backlog drains.
                if feed.overflow.len() < PARK_THRESHOLD {
                    self.fds.push(PollFd::new(conn.stream.as_raw_fd(), POLLIN));
                    self.owners.push(i);
                }
            }
            if !feed.overflow.is_empty() {
                // Waiting on ring room, which the consumer frees silently.
                due_in(REFILL_CHECK);
            }
            if feed.state == FeedState::Dialing {
                let last = feed.last_dial.unwrap_or(now);
                due_in((last + self.policy.delay).saturating_duration_since(now));
            }
        }
        self.stats.peak_open = self.stats.peak_open.max(open);
        // Round up, so a deadline is never polled for before it is due.
        let timeout_ms =
            wait.map_or(-1, |d| d.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32);
        let ready = poll_fds(&mut self.fds, timeout_ms)
            .map_err(|e| AdaSenseError::ingest(format!("reactor poll failed: {e}")))?;
        self.stats.polls += 1;
        if ready == 0 {
            self.stats.idle_polls += 1;
            return Ok(());
        }
        for slot in first_feed_slot..self.fds.len() {
            if self.fds[slot].readable() {
                self.read_feed(self.owners[slot - first_feed_slot]);
            }
        }
        if first_feed_slot > 0 && self.fds[0].readable() {
            self.drain_intake();
        }
        Ok(())
    }

    /// Advances one feed's non-read work: dials, drains overflow into the
    /// channel, closes finished channels.
    fn service_feed(&mut self, i: usize) {
        // Deliver overflow first: room may have opened since the last pass.
        self.drain_overflow(i);
        match self.feeds[i].state {
            FeedState::Dialing => self.dial(i),
            FeedState::Draining if self.feeds[i].overflow.is_empty() => {
                // Dropping the sender is the end-of-stream signal.
                self.feeds[i].sender = None;
                self.feeds[i].state = FeedState::Completed;
                self.stats.completed += 1;
            }
            _ => {}
        }
    }

    /// Hands as many overflow batches to the channel as it will take
    /// without blocking.
    fn drain_overflow(&mut self, i: usize) {
        let feed = &mut self.feeds[i];
        while let Some(batch) = feed.overflow.pop_front() {
            let Some(sender) = feed.sender.as_mut() else {
                feed.overflow.clear();
                break;
            };
            match sender.try_send(batch) {
                Ok(None) => self.stats.batches += 1,
                Ok(Some(batch)) => {
                    feed.overflow.push_front(batch);
                    break;
                }
                Err(_) => {
                    // The runtime dropped its source (e.g. a bounded-duration
                    // device finished).  Nothing is left to deliver to.
                    let state = feed.state;
                    self.finish_consumer_gone(i, state);
                    break;
                }
            }
        }
    }

    /// The consumer went away mid-stream: a draining feed just completes,
    /// anything else counts as a failure.
    fn finish_consumer_gone(&mut self, i: usize, state: FeedState) {
        let feed = &mut self.feeds[i];
        feed.overflow.clear();
        feed.conn = None;
        feed.sender = None;
        if state == FeedState::Draining {
            feed.state = FeedState::Completed;
            self.stats.completed += 1;
        } else {
            feed.state = FeedState::Failed;
            self.stats.record_failure(
                feed.device_id,
                AdaSenseError::ingest("the telemetry consumer disconnected mid-stream"),
            );
        }
    }

    /// Attempts one (re)connect + handshake for a dialing feed, honoring the
    /// policy's pacing and attempt budget.
    fn dial(&mut self, i: usize) {
        let feed = &mut self.feeds[i];
        if let Some(last) = feed.last_dial {
            if last.elapsed() < self.policy.delay {
                return; // not due yet; poll_ready wakes at the deadline
            }
        }
        feed.last_dial = Some(Instant::now());
        match Self::connect(&feed.addr, feed.device_id, feed.received_total) {
            Ok(stream) => {
                if feed.ever_connected {
                    feed.reconnects += 1;
                }
                feed.ever_connected = true;
                feed.conn = Some(Conn {
                    stream,
                    parser: StreamParser::telemetry(),
                    received_this_stream: 0,
                });
                feed.redials_left = self.policy.attempts;
                feed.state = FeedState::Streaming;
            }
            Err(e) => {
                feed.redials_left = feed.redials_left.saturating_sub(1);
                let error = AdaSenseError::ingest(format!(
                    "connecting to {} failed after {} attempts: {e}",
                    feed.addr, self.policy.attempts
                ));
                if feed.redials_left == 0 {
                    self.fail_feed(i, error, false);
                }
            }
        }
    }

    /// Dials `addr` (TCP or `unix:<path>`) and performs the client half of
    /// the handshake: stream header + RESUME naming the next batch wanted.
    /// The handshake is 29 bytes — it always fits the socket send buffer —
    /// so it is written before the socket goes nonblocking.
    fn connect(addr: &str, device_id: u64, next_batch: u64) -> std::io::Result<Stream> {
        let mut stream = Stream::connect(addr)?;
        let mut encoder = FrameEncoder::new();
        stream.write_all(encoder.header())?;
        stream.write_all(encoder.resume(device_id, next_batch))?;
        stream.set_nonblocking(true)?;
        Ok(stream)
    }

    /// Reads everything available on one feed's connection and decodes it.
    fn read_feed(&mut self, i: usize) {
        let mut torn = false;
        {
            let feed = &mut self.feeds[i];
            let Some(conn) = feed.conn.as_mut() else { return };
            let mut block = [0u8; READ_BLOCK];
            // Bounded per readiness event so a flooding peer cannot starve
            // the other feeds or grow the parse buffer without limit.
            for _ in 0..16 {
                match conn.stream.read(&mut block) {
                    Ok(0) => {
                        torn = true;
                        break;
                    }
                    Ok(n) => conn.parser.feed(&block[..n]),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => {
                        torn = true;
                        break;
                    }
                }
            }
        }
        self.decode_feed(i, torn);
    }

    /// Decodes every complete frame buffered on feed `i`, then handles a
    /// torn connection if the read hit EOF/error.
    fn decode_feed(&mut self, i: usize, torn: bool) {
        let mut batch = TelemetryBatch::placeholder();
        loop {
            let feed = &mut self.feeds[i];
            let Some(conn) = feed.conn.as_mut() else { return };
            match conn.parser.next_frame(&mut batch) {
                Ok(None) => break,
                Ok(Some(FrameKind::Batch)) => {
                    conn.received_this_stream += 1;
                    feed.received_total += 1;
                    feed.overflow
                        .push_back(std::mem::replace(&mut batch, TelemetryBatch::placeholder()));
                    self.drain_overflow(i);
                }
                Ok(Some(FrameKind::End { batches })) => {
                    let received = conn.received_this_stream;
                    if batches == received {
                        feed.conn = None;
                        feed.state = FeedState::Draining;
                    } else {
                        self.fail_feed(
                            i,
                            AdaSenseError::ingest(format!(
                                "end-of-stream count {batches} disagrees with the {received} \
                                 batches this stream delivered"
                            )),
                            true,
                        );
                    }
                    return;
                }
                Ok(Some(FrameKind::Join { device_id, .. })) => {
                    // Servers open every stream (fresh or resumed) with a
                    // join handshake; validate it and move on.  The carried
                    // config/start-epoch are advisory to the fleet layer.
                    if device_id != feed.device_id {
                        let expected = feed.device_id;
                        self.fail_feed(
                            i,
                            AdaSenseError::ingest(format!(
                                "join handshake names device {device_id}, but this feed \
                                 subscribed device {expected}"
                            )),
                            true,
                        );
                        return;
                    }
                    if conn.received_this_stream > 0 {
                        self.fail_feed(
                            i,
                            AdaSenseError::ingest(
                                "join handshake arrived mid-stream (after a batch frame)",
                            ),
                            true,
                        );
                        return;
                    }
                }
                Ok(Some(other)) => {
                    self.fail_feed(
                        i,
                        AdaSenseError::ingest(format!(
                            "unexpected {other:?} frame on a device telemetry feed"
                        )),
                        true,
                    );
                    return;
                }
                Err(e) => {
                    self.fail_feed(i, e, true);
                    return;
                }
            }
        }
        if torn {
            let feed = &mut self.feeds[i];
            // Partial frame bytes die with the connection; RESUME re-fetches
            // from the last complete batch.
            feed.conn = None;
            feed.state = FeedState::Dialing;
        }
    }

    /// Marks feed `i` failed with `error`; `corrupt` distinguishes lost
    /// framing from connect exhaustion in the stats.
    fn fail_feed(&mut self, i: usize, error: AdaSenseError, corrupt: bool) {
        let feed = &mut self.feeds[i];
        feed.conn = None;
        feed.sender = None; // closes the channel; the device ends early
        feed.overflow.clear();
        feed.state = FeedState::Failed;
        if corrupt {
            self.stats.corrupt_streams += 1;
        }
        self.stats.record_failure(feed.device_id, error);
    }
}

impl Default for IngestReactor {
    /// Equivalent to [`IngestReactor::new`].
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::serve::TelemetryServe;
    use crate::ingest::TelemetryTrace;
    use crate::runtime::{SampleSource, SourceStatus};
    use adasense_sensor::{Sample3, SensorConfig};
    use std::time::Duration;

    fn sample_trace(batches: usize) -> TelemetryTrace {
        let config = SensorConfig::paper_pareto_front()[0];
        let mut trace = TelemetryTrace::new();
        for i in 0..batches {
            trace.batches.push(TelemetryBatch::new(
                config,
                2.0 * (i + 1) as f64,
                2.0,
                0,
                vec![Sample3::new(i as f64, 0.25, -0.25, 1.0)],
            ));
        }
        trace
    }

    /// Drains every batch out of `source` by walking the known tick
    /// schedule, returning the reassembled trace.
    fn drain(mut source: ChannelSource, batches: usize) -> TelemetryTrace {
        let config = SensorConfig::paper_pareto_front()[0];
        let mut out = TelemetryTrace::new();
        for i in 0..batches {
            assert_eq!(source.status(), SourceStatus::Ready, "batch {i} should be coming");
            let mut window = Vec::new();
            let t_end = 2.0 * (i + 1) as f64;
            source.capture_window(config, t_end, 2.0, &mut window);
            out.batches.push(TelemetryBatch::new(config, t_end, 2.0, 0, window));
        }
        assert_eq!(source.status(), SourceStatus::Exhausted);
        out
    }

    fn fast_policy() -> ReconnectPolicy {
        ReconnectPolicy { attempts: 10, delay: Duration::from_millis(1) }
    }

    #[test]
    fn delivers_a_full_stream() {
        let trace = sample_trace(5);
        let mut serve = TelemetryServe::bind("127.0.0.1:0", vec![(3, trace.clone())]).unwrap();
        let addr = serve.local_addr().to_string();
        let server = std::thread::spawn(move || {
            serve.serve_streams(1, 50).unwrap();
            serve.stats()
        });

        let mut reactor = IngestReactor::new().with_policy(fast_policy());
        let source = reactor.subscribe(&addr, 3);
        let consumer = std::thread::spawn(move || drain(source, 5));
        let stats = reactor.run().unwrap();

        assert_eq!(consumer.join().unwrap().batches, trace.batches);
        assert_eq!(
            (stats.completed, stats.failed, stats.batches, stats.reconnects),
            (1, 0, 5, 0),
            "{stats:?}"
        );
        assert_eq!(server.join().unwrap().streams_completed, 1);
    }

    #[test]
    fn kill_and_resume_delivers_every_batch_exactly_once() {
        let trace = sample_trace(6);
        // One batch frame is 60 bytes (4-byte length prefix + 24-byte head +
        // one 32-byte sample) after the 8-byte header and 22-byte JOIN
        // handshake: killing at byte 100 tears the stream inside the *second*
        // batch frame, so the client resumes from batch index 1.
        let mut serve = TelemetryServe::bind("127.0.0.1:0", vec![(9, trace.clone())])
            .unwrap()
            .with_kill_at(100);
        let addr = serve.local_addr().to_string();
        let server = std::thread::spawn(move || {
            serve.serve_streams(1, 50).unwrap();
            serve.stats()
        });

        let mut reactor = IngestReactor::new().with_policy(fast_policy());
        let source = reactor.subscribe(&addr, 9);
        let consumer = std::thread::spawn(move || drain(source, 6));
        let stats = reactor.run().unwrap();

        assert_eq!(consumer.join().unwrap().batches, trace.batches, "no gap, no duplicate");
        assert_eq!((stats.completed, stats.failed, stats.batches), (1, 0, 6), "{stats:?}");
        assert!(stats.reconnects >= 1, "the torn stream forced a resume: {stats:?}");
        let served = server.join().unwrap();
        assert_eq!(served.killed_streams, 1);
        assert_eq!(served.resume_requests, 1, "the reconnect asked to resume mid-trace");
    }

    #[test]
    fn a_corrupt_stream_fails_only_its_own_feed() {
        use std::io::Write as _;
        let trace = sample_trace(4);
        let mut serve = TelemetryServe::bind("127.0.0.1:0", vec![(1, trace.clone())]).unwrap();
        let good_addr = serve.local_addr().to_string();
        let server = std::thread::spawn(move || {
            serve.serve_streams(1, 50).unwrap();
        });
        // A rogue peer: valid header, then garbage that can never frame.
        let rogue = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let rogue_addr = rogue.local_addr().unwrap().to_string();
        let rogue_thread = std::thread::spawn(move || {
            let (mut conn, _) = rogue.accept().unwrap();
            let mut encoder = FrameEncoder::new();
            let mut bytes = encoder.header().to_vec();
            bytes.extend_from_slice(&[0u8; 8]); // length prefix 0: instant framing error
            conn.write_all(&bytes).unwrap();
            // Hold the socket open: the reactor must fail on the bad bytes,
            // not on EOF.
            std::thread::sleep(Duration::from_millis(300));
        });

        let mut reactor = IngestReactor::new().with_policy(fast_policy());
        let good = reactor.subscribe(&good_addr, 1);
        let bad = reactor.subscribe(&rogue_addr, 2);
        let consumer = std::thread::spawn(move || drain(good, 4));
        let bad_consumer = std::thread::spawn(move || {
            // The failed feed's channel just ends: no batch ever arrives.
            let mut source = bad;
            assert_eq!(source.status(), SourceStatus::Exhausted);
        });
        let stats = reactor.run().unwrap();

        assert_eq!(consumer.join().unwrap().batches, trace.batches, "good feed unharmed");
        bad_consumer.join().unwrap();
        assert_eq!((stats.completed, stats.failed, stats.corrupt_streams), (1, 1, 1), "{stats:?}");
        assert_eq!(stats.errors.len(), 1);
        assert_eq!(stats.errors[0].0, 2, "the failure names the corrupt feed's device");
        assert!(
            stats.errors[0].1.to_string().contains("frame length"),
            "surfaced as a framing AdaSenseError: {}",
            stats.errors[0].1
        );
        server.join().unwrap();
        rogue_thread.join().unwrap();
    }

    #[test]
    fn handle_subscribes_feeds_while_the_reactor_runs() {
        let trace = sample_trace(4);
        let mut serve =
            TelemetryServe::bind("127.0.0.1:0", vec![(3, trace.clone()), (4, trace.clone())])
                .unwrap();
        let addr = serve.local_addr().to_string();
        let server = std::thread::spawn(move || serve.serve_streams(2, 50).unwrap());

        // The reactor starts with zero feeds: only the open handle keeps it
        // alive, waiting for churn.
        let mut reactor = IngestReactor::new().with_policy(fast_policy());
        let handle = reactor.handle();
        let runner = std::thread::spawn(move || reactor.run().unwrap());

        let first = handle.subscribe(&addr, 3);
        assert_eq!(drain(first, 4).batches, trace.batches);
        let second = handle.subscribe(&addr, 4);
        assert_eq!(drain(second, 4).batches, trace.batches);
        drop(handle); // last handle gone: the reactor may now exit

        let stats = runner.join().unwrap();
        assert_eq!(
            (stats.feeds, stats.joined, stats.completed, stats.failed),
            (2, 2, 2, 0),
            "{stats:?}"
        );
        server.join().unwrap();
    }

    /// A server that streams `trace` to its first dial and never sends END:
    /// without a departure the feed would sit in Streaming forever.  It holds
    /// the socket open until the reactor drops it.
    fn serve_without_end(trace: TelemetryTrace) -> (String, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut encoder = FrameEncoder::new();
            let mut bytes = encoder.header().to_vec();
            for batch in &trace.batches {
                bytes.extend_from_slice(encoder.batch(batch));
            }
            conn.write_all(&bytes).unwrap();
            let mut sink = [0u8; 64];
            while matches!(conn.read(&mut sink), Ok(n) if n > 0) {}
        });
        (addr, server)
    }

    /// Consumes `batches` batches of the known tick schedule on a thread,
    /// signals, then expects end-of-stream; the thread returns the count.
    fn consume_then_expect_end(
        mut source: ChannelSource,
        batches: usize,
    ) -> (std::sync::mpsc::Receiver<()>, std::thread::JoinHandle<usize>) {
        let (got_batches, done) = std::sync::mpsc::channel();
        let consumer = std::thread::spawn(move || {
            let config = SensorConfig::paper_pareto_front()[0];
            let mut delivered = 0usize;
            for i in 0..batches {
                assert_eq!(source.status(), SourceStatus::Ready, "batch {i} should arrive");
                let mut window = Vec::new();
                source.capture_window(config, 2.0 * (i + 1) as f64, 2.0, &mut window);
                delivered += 1;
            }
            got_batches.send(()).unwrap();
            // After the departure the channel just ends — no error, no hang.
            assert_eq!(source.status(), SourceStatus::Exhausted);
            delivered
        });
        (done, consumer)
    }

    #[test]
    fn unsubscribe_departs_the_feed_at_the_last_delivered_batch() {
        let (addr, server) = serve_without_end(sample_trace(3));
        let mut reactor = IngestReactor::new().with_policy(fast_policy());
        let handle = reactor.handle();
        let source = reactor.subscribe(&addr, 9);
        let runner = std::thread::spawn(move || reactor.run().unwrap());

        let (done, consumer) = consume_then_expect_end(source, 3);
        done.recv().unwrap();
        handle.unsubscribe(9);
        drop(handle);
        let stats = runner.join().unwrap();
        assert_eq!(consumer.join().unwrap(), 3, "every delivered batch was consumed");
        assert_eq!(
            (stats.departed, stats.completed, stats.failed),
            (1, 0, 0),
            "a departure is neither a completion nor a failure: {stats:?}"
        );
        server.join().unwrap();
    }

    /// Churn is event-driven and the loop's work tracks live feeds: hundreds
    /// of sequential sessions make the poll fire on wake bytes and socket
    /// data alone, never on a timer, and each iteration visits only the one
    /// or two feeds still live, not every session admitted so far.
    #[test]
    fn churn_needs_no_timer_and_loop_work_stays_flat() {
        const SESSIONS: u64 = 200;
        let trace = sample_trace(1);
        let mut serve = TelemetryServe::bind(
            "127.0.0.1:0",
            (0..SESSIONS).map(|id| (id, trace.clone())).collect(),
        )
        .unwrap();
        let addr = serve.local_addr().to_string();
        let server = std::thread::spawn(move || serve.serve_streams(SESSIONS, 50).unwrap());
        let (endless_addr, endless) = serve_without_end(sample_trace(2));

        let mut reactor = IngestReactor::new().with_policy(fast_policy());
        let handle = reactor.handle();
        let runner = std::thread::spawn(move || reactor.run().unwrap());
        for id in 0..SESSIONS {
            assert_eq!(drain(handle.subscribe(&addr, id), 1).batches, trace.batches);
        }
        let (done, consumer) =
            consume_then_expect_end(handle.subscribe(&endless_addr, SESSIONS), 2);
        done.recv().unwrap();
        handle.unsubscribe(SESSIONS);
        drop(handle);

        let stats = runner.join().unwrap();
        assert_eq!(consumer.join().unwrap(), 2);
        assert_eq!(
            (stats.joined, stats.completed, stats.departed, stats.failed, stats.batches),
            (SESSIONS + 1, SESSIONS, 1, 0, SESSIONS + 2),
            "{stats:?}"
        );
        assert_eq!(stats.idle_polls, 0, "a join or departure waited on a timer: {stats:?}");
        assert!(
            stats.feed_visits <= 2 * stats.polls,
            "the loop visits retired feeds: {} visits over {} polls",
            stats.feed_visits,
            stats.polls
        );
        server.join().unwrap();
        endless.join().unwrap();
    }

    #[test]
    fn subscribing_after_the_reactor_is_gone_ends_the_source_at_once() {
        let mut reactor = IngestReactor::new();
        let handle = reactor.handle();
        drop(reactor);
        let mut source = handle.subscribe("127.0.0.1:9", 1);
        assert_eq!(source.status(), SourceStatus::Exhausted);
        handle.unsubscribe(1);
    }

    /// Batches decoded while the channel ring was full reach the consumer
    /// even when their socket then goes quiet: the ring re-check covers a
    /// backlog below the park threshold, not only a parked or draining feed.
    #[test]
    fn a_backlog_behind_a_quiet_socket_still_reaches_the_consumer() {
        // One read decodes the whole burst far faster than the consumer
        // drains a one-batch ring, so most of it waits in the overflow queue
        // (below PARK_THRESHOLD: the feed is never parked).
        const BACKLOG: usize = 24;
        let (addr, server) = serve_without_end(sample_trace(BACKLOG));
        let mut reactor = IngestReactor::new().with_channel_capacity(1).with_policy(fast_policy());
        let handle = reactor.handle();
        let source = reactor.subscribe(&addr, 9);
        let runner = std::thread::spawn(move || reactor.run().unwrap());

        let (done, consumer) = consume_then_expect_end(source, BACKLOG);
        done.recv_timeout(Duration::from_secs(10))
            .expect("the batches queued behind the one-batch ring never arrived");
        handle.unsubscribe(9);
        drop(handle);
        let stats = runner.join().unwrap();
        assert_eq!(consumer.join().unwrap(), BACKLOG);
        assert_eq!(
            (stats.batches, stats.departed, stats.failed),
            (BACKLOG as u64, 1, 0),
            "{stats:?}"
        );
        server.join().unwrap();
    }

    #[test]
    fn unix_domain_feeds_deliver_like_tcp() {
        let trace = sample_trace(5);
        let dir = std::env::temp_dir().join(format!("adasense-reactor-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("feed.sock");
        let path_str = path.to_str().unwrap().to_string();
        let mut serve =
            TelemetryServe::bind(&format!("unix:{path_str}"), vec![(6, trace.clone())]).unwrap();
        let server = std::thread::spawn(move || {
            serve.serve_streams(1, 50).unwrap();
            serve.stats()
        });

        let mut reactor = IngestReactor::new().with_policy(fast_policy());
        let source = reactor.subscribe(&format!("unix:{path_str}"), 6);
        let consumer = std::thread::spawn(move || drain(source, 5));
        let stats = reactor.run().unwrap();

        assert_eq!(consumer.join().unwrap().batches, trace.batches);
        assert_eq!((stats.completed, stats.failed, stats.batches), (1, 0, 5), "{stats:?}");
        assert_eq!(server.join().unwrap().streams_completed, 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn exhausted_redials_fail_the_feed_with_an_error() {
        // Nothing listens on this ephemeral port (bind then drop to claim a
        // dead address).
        let dead = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().to_string()
        };
        let mut reactor = IngestReactor::new()
            .with_policy(ReconnectPolicy { attempts: 2, delay: Duration::from_millis(1) });
        let source = reactor.subscribe(&dead, 4);
        let stats = reactor.run().unwrap();
        assert_eq!((stats.completed, stats.failed), (0, 1), "{stats:?}");
        assert_eq!(stats.errors[0].0, 4);
        drop(source);
    }

    /// `errors` keeps the first failures only, so a cohort that fails
    /// wholesale cannot grow the record without bound; `failed` counts all.
    #[test]
    fn errors_keep_the_first_failures_and_failed_counts_them_all() {
        let dead = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().to_string()
        };
        let mut reactor = IngestReactor::new().with_policy(ReconnectPolicy::once());
        // Descending ids, so subscription order is not numeric order.
        let ids: Vec<u64> = (0..100).rev().collect();
        let sources: Vec<_> = ids.iter().map(|&id| reactor.subscribe(&dead, id)).collect();
        let stats = reactor.run().unwrap();
        assert_eq!((stats.feeds, stats.failed), (100, 100));
        let recorded: Vec<u64> = stats.errors.iter().map(|(id, _)| *id).collect();
        assert_eq!(recorded, ids[..MAX_RECORDED_ERRORS], "the first 64, in subscription order");
        drop(sources);
    }

    /// A feed whose first dial finds nobody listening keeps redialing under
    /// its policy and streams normally once the server comes up: a first
    /// connection is not a reconnect.
    #[test]
    fn a_feed_reaches_a_server_that_comes_up_late() {
        let trace = sample_trace(4);
        let dir = std::env::temp_dir().join(format!("adasense-reactor-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("late.sock");
        let _ = std::fs::remove_file(&path);
        let addr = format!("unix:{}", path.display());

        let mut reactor = IngestReactor::new()
            .with_policy(ReconnectPolicy { attempts: 1_000, delay: Duration::from_millis(2) });
        let source = reactor.subscribe(&addr, 5);
        // The first dial, made here so that it certainly precedes the bind.
        reactor.dial(0);
        assert_eq!(reactor.feeds[0].state, FeedState::Dialing, "nobody listens yet");
        assert_eq!(reactor.feeds[0].redials_left, 999, "the failed dial spent one attempt");
        let consumer = std::thread::spawn(move || drain(source, 4));
        let runner = std::thread::spawn(move || reactor.run().unwrap());

        let mut serve = TelemetryServe::bind(&addr, vec![(5, trace.clone())]).unwrap();
        serve.serve_streams(1, 50).unwrap();
        let stats = runner.join().unwrap();
        assert_eq!(consumer.join().unwrap().batches, trace.batches, "every batch delivered");
        assert_eq!(
            (stats.completed, stats.failed, stats.reconnects, stats.batches),
            (1, 0, 0, 4),
            "{stats:?}"
        );
        let _ = std::fs::remove_file(&path);
    }
}
