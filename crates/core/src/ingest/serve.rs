//! The live-telemetry server: one thread exposes a whole simulated fleet's
//! recorded traces as per-device socket streams, with server-side frame
//! resume (the other half of the RESUME handshake in `docs/WIRE_FORMAT.md`).
//!
//! A [`TelemetryServe`] binds one listening socket — a TCP `host:port`, or
//! a Unix-domain socket at `unix:<path>` (see [`bind`](TelemetryServe::bind))
//! — and readiness-polls it together with every accepted connection on a
//! single thread (via `poll(2)`, like the [`reactor`](crate::ingest::reactor)
//! on the consuming side).  Each connection speaks one stream of the
//! protocol:
//!
//! 1. The client sends a stream header followed by one RESUME frame naming
//!    the device it wants and the index of the next batch it has not yet
//!    received (`0` for a fresh subscription).
//! 2. The server answers with a stream header, a JOIN handshake frame naming
//!    the device, its sensor configuration and its fleet start-epoch, the
//!    device's batch frames from the requested index on, and an END frame
//!    whose count covers *this* stream, then closes the connection.
//!
//! # Write-readiness backpressure
//!
//! Responses are *streamed*, not buffered per client: each connection holds a
//! cursor into the shared pre-encoded frame table plus a few bytes of
//! head/tail framing, so a slow reader pins O(1) memory no matter how long
//! its trace is.  Writes go through `POLLOUT` readiness, so a stalled reader
//! degrades only its own connection: after
//! [`with_stall_timeouts`](TelemetryServe::with_stall_timeouts)' park
//! deadline it is counted as parked (still polled, costing one fd slot), and
//! after the drop deadline its connection is closed and counted in
//! [`ServeStats::dropped`].  Healthy clients are never delayed by more than
//! one poll cycle.
//!
//! A malformed request (bad header, torn frame, any frame kind other than
//! RESUME, an unknown device, an index past the trace) drops only that
//! connection and is counted in [`ServeStats`] — one bad client cannot harm
//! the rest of the fleet.
//!
//! For soak-testing the reconnect path, [`TelemetryServe::with_kill_at`]
//! makes the server tear each device's *first* stream at a fixed byte
//! offset; the resumed second stream is then served in full.  The
//! `telemetry_serve` binary wraps all of this behind a CLI.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::SocketAddr;
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

use polling::{poll_fds, PollFd, POLLIN, POLLOUT};

use adasense_sensor::{SensorConfig, TelemetryBatch};

use super::socket::{Listener, Stream};
use super::{FrameEncoder, FrameKind, StreamParser, TelemetryTrace};
use crate::error::AdaSenseError;

/// Per-read scratch size.  Requests are tiny (29 bytes), so one block always
/// holds a whole request; the constant exists to bound hostile senders.
const READ_BLOCK: usize = 4096;

/// Counters describing everything a [`TelemetryServe`] did, readable at any
/// point between polls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Connections accepted.
    pub accepted: u64,
    /// Streams served to completion (END frame fully written).
    pub streams_completed: u64,
    /// Requests that resumed mid-trace (`next_batch > 0`).
    pub resume_requests: u64,
    /// Connections dropped for a malformed or unserviceable request.
    pub rejected_requests: u64,
    /// Streams deliberately torn by [`TelemetryServe::with_kill_at`].
    pub killed_streams: u64,
    /// Highest number of simultaneously open connections observed.
    pub peak_open: u64,
    /// Connections that stalled past the park deadline while a response was
    /// in flight (counted once per stall; the connection keeps its slot).
    pub parked: u64,
    /// Stalled connections closed at the drop deadline with the response
    /// unfinished.
    pub dropped: u64,
}

/// One device's pre-encoded stream: the batch frames, individually framed so
/// any suffix can be served on resume, plus the metadata the JOIN handshake
/// announces.
#[derive(Debug)]
struct DeviceStream {
    frames: Vec<Vec<u8>>,
    /// Sensor configuration announced in the JOIN frame (the first batch's,
    /// or the head of the paper Pareto front for an empty trace).
    config: SensorConfig,
    /// Fleet epoch at which this device joins the cohort, announced in the
    /// JOIN frame (see [`TelemetryServe::set_start_epoch`]).
    start_epoch: u64,
}

/// Which segment of the streamed response a write cursor is inside.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WriteStage {
    /// The stream header + JOIN handshake.
    Head,
    /// The shared pre-encoded batch frames.
    Frames,
    /// The END frame.
    Tail,
}

/// What one accepted connection is currently doing.
#[derive(Debug)]
enum ConnState {
    /// Waiting for the header + RESUME request.
    Reading,
    /// Streaming the response: a cursor into the shared frame table.  Only
    /// `head`/`tail` are owned per connection; the batch frames are read
    /// from the device table by index.
    Writing {
        device_id: u64,
        head: Vec<u8>,
        tail: Vec<u8>,
        stage: WriteStage,
        /// Next frame index (absolute into the device's frame table).
        frame: usize,
        /// Bytes of the current segment already written.
        offset: usize,
        /// Total response bytes written so far (the chaos-kill odometer).
        written: usize,
        kill_at: Option<usize>,
    },
}

#[derive(Debug)]
struct ServeConn {
    stream: Stream,
    parser: StreamParser,
    state: ConnState,
    /// When this connection last made progress (accept, read, or write).
    last_progress: Instant,
    /// Whether the current stall has already been counted as parked.
    parked: bool,
}

/// A single-threaded, poll-driven server exposing recorded per-device
/// telemetry traces as live socket streams.  See the [module
/// docs](self) for the protocol and the backpressure model.
#[derive(Debug)]
pub struct TelemetryServe {
    listener: Listener,
    devices: HashMap<u64, DeviceStream>,
    conns: Vec<Option<ServeConn>>,
    stats: ServeStats,
    kill_at: Option<usize>,
    /// With [`with_kill_below`](Self::with_kill_below): only devices below
    /// this id are chaos-killed.
    kill_below: Option<u64>,
    /// Devices whose first stream has already been torn by `kill_at`.
    killed: std::collections::HashSet<u64>,
    /// A writing connection idle this long is counted as parked.
    park_after: Duration,
    /// A writing connection idle this long is closed and counted as dropped.
    drop_after: Duration,
}

impl TelemetryServe {
    /// Binds `addr` and pre-encodes one stream per `(device_id, trace)`
    /// pair.  `addr` is a TCP `host:port` (e.g. `"127.0.0.1:0"` for an
    /// ephemeral port) or `unix:<path>` for a Unix-domain socket, the same
    /// scheme the [`reactor`](crate::ingest::reactor) dials.  A socket file
    /// already at the path is replaced; any other file there fails the bind
    /// and is left untouched.  Everything else — the RESUME handshake, JOIN
    /// frames, chaos kills, backpressure — behaves identically on both
    /// transports.
    ///
    /// # Errors
    ///
    /// Returns [`AdaSenseError::Ingest`] if the listener cannot be bound.
    pub fn bind(addr: &str, traces: Vec<(u64, TelemetryTrace)>) -> Result<Self, AdaSenseError> {
        Ok(Self {
            listener: Listener::bind(addr)?,
            devices: Self::encode_devices(traces),
            conns: Vec::new(),
            stats: ServeStats::default(),
            kill_at: None,
            kill_below: None,
            killed: std::collections::HashSet::new(),
            park_after: Duration::from_millis(100),
            drop_after: Duration::from_secs(5),
        })
    }

    /// Like [`bind`](TelemetryServe::bind), but every batch is served as a
    /// COMPRESSED frame at roughly `ratio`× compression, seeded per frame by
    /// [`compressed_frame_seed`](crate::ingest::compressed_frame_seed).
    /// Everything else — the RESUME handshake, per-frame resume offsets,
    /// chaos kills — behaves identically, which is exactly the point:
    /// compressed payloads ride the same frame machinery.
    ///
    /// # Errors
    ///
    /// Returns [`AdaSenseError::Ingest`] if the listener cannot be bound.
    pub fn bind_compressed(
        addr: &str,
        traces: Vec<(u64, TelemetryTrace)>,
        ratio: u32,
    ) -> Result<Self, AdaSenseError> {
        let mut serve = Self::bind(addr, Vec::new())?;
        let mut encoder = FrameEncoder::new();
        serve.devices = traces
            .into_iter()
            .map(|(device_id, trace)| {
                let config = Self::trace_config(&trace);
                let frames = trace
                    .batches
                    .iter()
                    .enumerate()
                    .map(|(index, b)| {
                        let seed = crate::ingest::compressed_frame_seed(device_id, index as u64);
                        encoder.compressed(b, ratio, seed).to_vec()
                    })
                    .collect();
                (device_id, DeviceStream { frames, config, start_epoch: 0 })
            })
            .collect();
        Ok(serve)
    }

    fn encode_devices(traces: Vec<(u64, TelemetryTrace)>) -> HashMap<u64, DeviceStream> {
        let mut encoder = FrameEncoder::new();
        traces
            .into_iter()
            .map(|(device_id, trace)| {
                let config = Self::trace_config(&trace);
                let frames = trace.batches.iter().map(|b| encoder.batch(b).to_vec()).collect();
                (device_id, DeviceStream { frames, config, start_epoch: 0 })
            })
            .collect()
    }

    /// The configuration the JOIN handshake announces for a trace.
    fn trace_config(trace: &TelemetryTrace) -> SensorConfig {
        trace.batches.first().map_or_else(|| SensorConfig::paper_pareto_front()[0], |b| b.config)
    }

    /// Tears each eligible device's *first* stream after `bytes` of the
    /// response have been written (clamped so at least the stream's final
    /// byte is still unsent), forcing the client through the RESUME
    /// reconnect path.  The device's next stream is served in full.
    pub fn with_kill_at(mut self, bytes: usize) -> Self {
        self.kill_at = Some(bytes);
        self
    }

    /// Restricts [`with_kill_at`](Self::with_kill_at) chaos kills to devices
    /// with `device_id < below`, so a soak can tear an exact subset of its
    /// fleet while the rest streams clean.
    pub fn with_kill_below(mut self, below: u64) -> Self {
        self.kill_below = Some(below);
        self
    }

    /// Replaces the stall deadlines: a connection whose response write makes
    /// no progress for `park_after` is counted in [`ServeStats::parked`]
    /// (once per stall; it keeps its slot and unparks on the next byte), and
    /// one idle for `drop_after` is closed and counted in
    /// [`ServeStats::dropped`].  Defaults: 100 ms / 5 s.
    pub fn with_stall_timeouts(mut self, park_after: Duration, drop_after: Duration) -> Self {
        self.park_after = park_after;
        self.drop_after = drop_after;
        self
    }

    /// Sets the fleet start-epoch announced in `device_id`'s JOIN handshake
    /// (default `0`).  Unknown devices are ignored.
    pub fn set_start_epoch(&mut self, device_id: u64, start_epoch: u64) {
        if let Some(device) = self.devices.get_mut(&device_id) {
            device.start_epoch = start_epoch;
        }
    }

    /// The bound listening address.
    ///
    /// # Panics
    ///
    /// Panics on a Unix-domain server (the caller chose the path) or if the
    /// OS cannot report the local address of a bound listener.
    pub fn local_addr(&self) -> SocketAddr {
        match &self.listener {
            Listener::Tcp(l) => l.local_addr().expect("a bound listener has a local address"),
            Listener::Unix(_) => {
                panic!("a unix-domain server has no TCP address; dial the bound path instead")
            }
        }
    }

    /// The server's counters so far.
    pub fn stats(&self) -> ServeStats {
        self.stats
    }

    /// Number of currently open connections.
    pub fn open_connections(&self) -> usize {
        self.conns.iter().filter(|c| c.is_some()).count()
    }

    /// Serves until `streams` streams have completed (torn streams do not
    /// count), polling in `timeout_ms` slices.
    ///
    /// # Errors
    ///
    /// Propagates `poll(2)` failures; per-connection errors only drop that
    /// connection.
    pub fn serve_streams(&mut self, streams: u64, timeout_ms: i32) -> Result<(), AdaSenseError> {
        while self.stats.streams_completed < streams {
            self.poll_once(timeout_ms)?;
        }
        Ok(())
    }

    /// One pass of the event loop: polls the listener and every open
    /// connection for readiness (read-side `POLLIN`, write-side `POLLOUT`),
    /// accepts, reads requests, streams responses, and sweeps stalled
    /// writers past their park/drop deadlines.  Returns the number of
    /// descriptors that were ready.
    ///
    /// # Errors
    ///
    /// Propagates `poll(2)` failures; per-connection errors only drop that
    /// connection.
    pub fn poll_once(&mut self, timeout_ms: i32) -> Result<usize, AdaSenseError> {
        let mut fds = Vec::with_capacity(self.conns.len() + 1);
        fds.push(PollFd::new(self.listener.as_raw_fd(), POLLIN));
        for conn in &self.conns {
            fds.push(match conn {
                None => PollFd::parked(),
                Some(c) => PollFd::new(
                    c.stream.as_raw_fd(),
                    match c.state {
                        ConnState::Reading => POLLIN,
                        ConnState::Writing { .. } => POLLOUT,
                    },
                ),
            });
        }
        let ready = poll_fds(&mut fds, timeout_ms)
            .map_err(|e| AdaSenseError::ingest(format!("poll failed: {e}")))?;
        if ready == 0 {
            self.sweep_stalls();
            return Ok(0);
        }
        // Snapshot before accepting: newly accepted connections have no slot
        // in this poll round's fd array.
        let polled = fds.len() - 1;
        if fds[0].readable() {
            self.accept_ready();
        }
        for i in 0..polled {
            let slot = &fds[i + 1];
            if !(slot.readable() || slot.writable()) {
                continue;
            }
            if let Some(mut conn) = self.conns[i].take() {
                if self.advance(&mut conn) {
                    self.conns[i] = Some(conn);
                }
            }
        }
        self.sweep_stalls();
        Ok(ready)
    }

    /// Parks or drops writing connections that have made no progress past
    /// their deadlines.  Reading connections are exempt: a client that never
    /// sends a request holds no response state worth reclaiming here.
    fn sweep_stalls(&mut self) {
        for slot in &mut self.conns {
            let Some(conn) = slot else { continue };
            if !matches!(conn.state, ConnState::Writing { .. }) {
                continue;
            }
            let stalled = conn.last_progress.elapsed();
            if stalled >= self.drop_after {
                self.stats.dropped += 1;
                let _ = conn.stream.shutdown();
                *slot = None;
            } else if stalled >= self.park_after && !conn.parked {
                conn.parked = true;
                self.stats.parked += 1;
            }
        }
    }

    /// Accepts every pending connection.
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok(stream) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    self.stats.accepted += 1;
                    let conn = ServeConn {
                        stream,
                        parser: StreamParser::telemetry(),
                        state: ConnState::Reading,
                        last_progress: Instant::now(),
                        parked: false,
                    };
                    match self.conns.iter().position(Option::is_none) {
                        Some(slot) => self.conns[slot] = Some(conn),
                        None => self.conns.push(Some(conn)),
                    }
                    self.stats.peak_open = self.stats.peak_open.max(self.open_connections() as u64);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
    }

    /// Drives one ready connection as far as it will go without blocking.
    /// Returns `false` when the connection is finished (served, torn or
    /// rejected) and its slot should be freed.
    fn advance(&mut self, conn: &mut ServeConn) -> bool {
        match &mut conn.state {
            ConnState::Reading => {
                let mut block = [0u8; READ_BLOCK];
                loop {
                    match conn.stream.read(&mut block) {
                        Ok(0) => {
                            // Peer went away before completing a request.
                            self.stats.rejected_requests += 1;
                            return false;
                        }
                        Ok(n) => {
                            conn.parser.feed(&block[..n]);
                            conn.last_progress = Instant::now();
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(_) => {
                            self.stats.rejected_requests += 1;
                            return false;
                        }
                    }
                }
                let mut scratch = TelemetryBatch::placeholder();
                match conn.parser.next_frame(&mut scratch) {
                    Ok(None) => true, // request still incomplete; keep waiting
                    Ok(Some(FrameKind::Resume { device_id, next_batch })) => {
                        match self.build_response(device_id, next_batch) {
                            Some(state) => {
                                if next_batch > 0 {
                                    self.stats.resume_requests += 1;
                                }
                                conn.state = state;
                                // Try to write immediately; the socket is
                                // almost certainly writable already.
                                self.advance_write(conn)
                            }
                            None => {
                                self.stats.rejected_requests += 1;
                                false
                            }
                        }
                    }
                    Ok(Some(_)) | Err(_) => {
                        // Wrong first frame or torn/corrupt request bytes.
                        self.stats.rejected_requests += 1;
                        false
                    }
                }
            }
            ConnState::Writing { .. } => self.advance_write(conn),
        }
    }

    /// Streams as much of the response as the socket accepts, walking the
    /// head → shared frames → tail cursor and honoring a pending chaos kill.
    /// Returns `false` when the connection is done.
    fn advance_write(&mut self, conn: &mut ServeConn) -> bool {
        let ConnState::Writing { device_id, head, tail, stage, frame, offset, written, kill_at } =
            &mut conn.state
        else {
            return true;
        };
        loop {
            let bytes: &[u8] = match *stage {
                WriteStage::Head => head,
                WriteStage::Frames => {
                    let frames =
                        &self.devices.get(device_id).expect("writing streams name a device").frames;
                    match frames.get(*frame) {
                        Some(frame_bytes) => frame_bytes,
                        None => {
                            *stage = WriteStage::Tail;
                            *offset = 0;
                            continue;
                        }
                    }
                }
                WriteStage::Tail => tail,
            };
            if *offset == bytes.len() {
                match *stage {
                    WriteStage::Head => *stage = WriteStage::Frames,
                    WriteStage::Frames => *frame += 1,
                    WriteStage::Tail => {
                        self.stats.streams_completed += 1;
                        return false;
                    }
                }
                *offset = 0;
                continue;
            }
            if let Some(kill) = *kill_at {
                if *written >= kill {
                    // Tear the stream mid-flight: the client must reconnect
                    // and resume.
                    self.stats.killed_streams += 1;
                    let _ = conn.stream.shutdown();
                    return false;
                }
            }
            // Never write past the kill offset, so the tear lands exactly
            // where the chaos schedule says.
            let end = kill_at.map_or(bytes.len(), |k| bytes.len().min(*offset + (k - *written)));
            match conn.stream.write(&bytes[*offset..end]) {
                Ok(0) => return false,
                Ok(n) => {
                    *offset += n;
                    *written += n;
                    conn.last_progress = Instant::now();
                    conn.parked = false;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
                Err(_) => return false,
            }
        }
    }

    /// Builds the write cursor for one request — head (header + JOIN), a
    /// frame index, tail (END) — and decides whether this stream is the
    /// device's designated chaos kill.  Returns `None` for an unknown device
    /// or an index past its trace.
    fn build_response(&mut self, device_id: u64, next_batch: u64) -> Option<ConnState> {
        let device = self.devices.get(&device_id)?;
        let total = device.frames.len() as u64;
        if next_batch > total {
            return None;
        }
        let mut encoder = FrameEncoder::new();
        let mut head = Vec::new();
        head.extend_from_slice(encoder.header());
        head.extend_from_slice(encoder.join(device_id, device.config, device.start_epoch));
        let tail = encoder.end(total - next_batch).to_vec();
        let response_len = head.len()
            + device.frames[next_batch as usize..].iter().map(Vec::len).sum::<usize>()
            + tail.len();
        let eligible = self.kill_below.is_none_or(|below| device_id < below);
        let kill_at = match self.kill_at {
            Some(bytes) if eligible && !self.killed.contains(&device_id) => {
                self.killed.insert(device_id);
                // Clamp so the END frame is never fully delivered: the
                // client must observe a torn stream, not a complete one.
                Some(bytes.min(response_len - 1))
            }
            _ => None,
        };
        Some(ConnState::Writing {
            device_id,
            head,
            tail,
            stage: WriteStage::Head,
            frame: next_batch as usize,
            offset: 0,
            written: 0,
            kill_at,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ingest::FrameDecoder;
    use adasense_sensor::{Sample3, SensorConfig};
    use std::net::TcpStream;

    fn sample_trace(batches: usize) -> TelemetryTrace {
        let config = SensorConfig::paper_pareto_front()[0];
        let mut trace = TelemetryTrace::new();
        for i in 0..batches {
            trace.batches.push(TelemetryBatch::new(
                config,
                2.0 * (i + 1) as f64,
                2.0,
                0,
                vec![Sample3::new(i as f64, 0.5, -0.5, 1.0)],
            ));
        }
        trace
    }

    /// Connects to `addr` (`host:port` or `unix:<path>`), sends the RESUME
    /// handshake, and returns everything the server streamed back.
    fn request(addr: impl std::fmt::Display, device_id: u64, next_batch: u64) -> Vec<u8> {
        let mut stream = Stream::connect(&addr.to_string()).unwrap();
        let mut encoder = FrameEncoder::new();
        stream.write_all(encoder.header()).unwrap();
        stream.write_all(encoder.resume(device_id, next_batch)).unwrap();
        let mut response = Vec::new();
        stream.read_to_end(&mut response).unwrap();
        response
    }

    /// Decodes a served stream: the JOIN handshake, then batches up to END.
    fn decode_stream(bytes: &[u8]) -> (Vec<TelemetryBatch>, u64) {
        let (_join, batches, count) = decode_stream_with_join(bytes);
        (batches, count)
    }

    /// Like [`decode_stream`], also returning the JOIN handshake fields
    /// `(device_id, config, start_epoch)`.
    fn decode_stream_with_join(
        bytes: &[u8],
    ) -> ((u64, SensorConfig, u64), Vec<TelemetryBatch>, u64) {
        let mut reader = bytes;
        let mut decoder = FrameDecoder::new();
        decoder.read_header(&mut reader).unwrap();
        let mut batch = TelemetryBatch::placeholder();
        let join = match decoder.read_frame(&mut reader, &mut batch).unwrap() {
            FrameKind::Join { device_id, config, start_epoch } => (device_id, config, start_epoch),
            other => panic!("streams open with a JOIN handshake, got {other:?}"),
        };
        let mut batches = Vec::new();
        loop {
            let mut batch = TelemetryBatch::placeholder();
            match decoder.read_frame(&mut reader, &mut batch).unwrap() {
                FrameKind::Batch => batches.push(batch),
                FrameKind::End { batches: count } => return (join, batches, count),
                other => panic!("unexpected frame {other:?}"),
            }
        }
    }

    #[test]
    fn serves_full_and_resumed_streams() {
        let trace = sample_trace(4);
        let mut serve = TelemetryServe::bind("127.0.0.1:0", vec![(7, trace.clone())]).unwrap();
        serve.set_start_epoch(7, 11);
        let addr = serve.local_addr();
        let client = std::thread::spawn(move || (request(addr, 7, 0), request(addr, 7, 3)));
        serve.serve_streams(2, 50).unwrap();
        let (full, resumed) = client.join().unwrap();
        let (join, batches, count) = decode_stream_with_join(&full);
        assert_eq!(batches, trace.batches);
        assert_eq!(count, 4);
        assert_eq!(
            join,
            (7, trace.batches[0].config, 11),
            "the JOIN handshake names the device, its config and its start epoch"
        );
        let (resumed_join, tail, tail_count) = decode_stream_with_join(&resumed);
        assert_eq!(tail, trace.batches[3..]);
        assert_eq!(tail_count, 1, "END counts only this stream's batches");
        assert_eq!(resumed_join.0, 7, "resumed streams are JOIN-prefixed too");
        assert_eq!(serve.stats().streams_completed, 2);
        assert_eq!(serve.stats().resume_requests, 1);
        assert_eq!(serve.open_connections(), 0, "served connections are closed");
    }

    /// A scratch directory for Unix-socket tests: the system temp directory
    /// exists whatever the build directory is, and keeps paths short of the
    /// 108-byte socket-path limit.
    fn socket_dir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("adasense-serve-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn unix_domain_server_speaks_the_same_protocol() {
        let trace = sample_trace(3);
        let path = socket_dir().join("uds-parity.sock");
        let addr = format!("unix:{}", path.display());
        let mut serve = TelemetryServe::bind(&addr, vec![(2, trace.clone())]).unwrap();
        let client = std::thread::spawn(move || request(addr, 2, 0));
        serve.serve_streams(1, 50).unwrap();
        let response = client.join().unwrap();
        let (join, batches, count) = decode_stream_with_join(&response);
        assert_eq!(join.0, 2);
        assert_eq!(batches, trace.batches);
        assert_eq!(count, 3);
        let _ = std::fs::remove_file(&path);
    }

    /// Binding a `unix:` path replaces a socket file that a dropped listener
    /// left behind, but never deletes anything else found at the path.
    #[test]
    fn a_unix_bind_replaces_a_stale_socket_but_not_a_regular_file() {
        let notes = socket_dir().join("notes.txt");
        std::fs::write(&notes, b"field notes").unwrap();
        let error = TelemetryServe::bind(&format!("unix:{}", notes.display()), Vec::new())
            .expect_err("a regular file is not a socket");
        assert!(matches!(error, AdaSenseError::Ingest { .. }), "{error}");
        assert!(
            error.to_string().contains(&notes.display().to_string()),
            "the error names the path: {error}"
        );
        assert_eq!(std::fs::read(&notes).unwrap(), b"field notes", "the file is untouched");
        let _ = std::fs::remove_file(&notes);

        let path = socket_dir().join("stale.sock");
        let addr = format!("unix:{}", path.display());
        let _ = std::fs::remove_file(&path);
        drop(TelemetryServe::bind(&addr, Vec::new()).unwrap());
        assert!(path.exists(), "a dropped listener leaves its socket file behind");
        let trace = sample_trace(2);
        let mut serve = TelemetryServe::bind(&addr, vec![(4, trace.clone())])
            .expect("a stale socket is replaced");
        let client = std::thread::spawn(move || request(addr, 4, 0));
        serve.serve_streams(1, 50).unwrap();
        assert_eq!(decode_stream(&client.join().unwrap()).0, trace.batches);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bad_requests_are_rejected_without_harming_good_ones() {
        let trace = sample_trace(2);
        let mut serve = TelemetryServe::bind("127.0.0.1:0", vec![(1, trace.clone())]).unwrap();
        let addr = serve.local_addr();
        let client = std::thread::spawn(move || {
            // Garbage magic: rejected at the stream header.
            let mut bad = TcpStream::connect(addr).unwrap();
            bad.write_all(b"NOPEnope____").unwrap();
            let mut sink = Vec::new();
            assert_eq!(bad.read_to_end(&mut sink).unwrap(), 0, "server closed on us");
            // Unknown device: valid frames, unserviceable request.
            let mut stream = TcpStream::connect(addr).unwrap();
            let mut encoder = FrameEncoder::new();
            stream.write_all(encoder.header()).unwrap();
            stream.write_all(encoder.resume(99, 0)).unwrap();
            let mut sink = Vec::new();
            assert_eq!(stream.read_to_end(&mut sink).unwrap(), 0);
            // Index past the trace: also rejected.
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(encoder.header()).unwrap();
            stream.write_all(encoder.resume(1, 3)).unwrap();
            let mut sink = Vec::new();
            assert_eq!(stream.read_to_end(&mut sink).unwrap(), 0);
            // The good request still goes through.
            request(addr, 1, 0)
        });
        serve.serve_streams(1, 50).unwrap();
        let good = client.join().unwrap();
        assert_eq!(decode_stream(&good).0, trace.batches);
        assert_eq!(serve.stats().rejected_requests, 3);
        assert_eq!(serve.stats().streams_completed, 1);
    }

    #[test]
    fn kill_at_tears_only_the_first_stream_per_device() {
        let trace = sample_trace(3);
        let mut serve =
            TelemetryServe::bind("127.0.0.1:0", vec![(5, trace.clone())]).unwrap().with_kill_at(20);
        let addr = serve.local_addr();
        let client = std::thread::spawn(move || {
            let torn = request(addr, 5, 0);
            let retry = request(addr, 5, 0);
            (torn, retry)
        });
        serve.serve_streams(1, 50).unwrap();
        let (torn, retry) = client.join().unwrap();
        assert!(torn.len() <= 20, "first stream dies at the kill offset");
        assert_eq!(decode_stream(&retry).0, trace.batches, "second stream is whole");
        assert_eq!(serve.stats().killed_streams, 1);
        assert_eq!(serve.stats().streams_completed, 1);
    }

    #[test]
    fn kill_below_spares_devices_at_or_above_the_cutoff() {
        let trace = sample_trace(2);
        let mut serve = TelemetryServe::bind(
            "127.0.0.1:0",
            vec![(0, trace.clone()), (1, trace.clone()), (2, trace.clone())],
        )
        .unwrap()
        .with_kill_at(15)
        .with_kill_below(1);
        let addr = serve.local_addr();
        let client = std::thread::spawn(move || {
            let torn = request(addr, 0, 0);
            let spared_1 = request(addr, 1, 0);
            let spared_2 = request(addr, 2, 0);
            (torn, spared_1, spared_2)
        });
        serve.serve_streams(2, 50).unwrap();
        let (torn, spared_1, spared_2) = client.join().unwrap();
        assert!(torn.len() <= 15, "device 0 is below the cutoff: torn");
        assert_eq!(decode_stream(&spared_1).0, trace.batches, "device 1 streams clean");
        assert_eq!(decode_stream(&spared_2).0, trace.batches, "device 2 streams clean");
        assert_eq!(serve.stats().killed_streams, 1, "exactly one chaos kill");
    }

    #[test]
    fn a_stalled_reader_is_parked_then_dropped_without_delaying_others() {
        // A long trace (~24 MB encoded) so the response overflows the kernel
        // socket buffers and the server actually has to wait for the stalled
        // reader instead of parking the whole stream in the send buffer.
        let trace = sample_trace(400_000);
        let mut serve =
            TelemetryServe::bind("127.0.0.1:0", vec![(1, trace.clone()), (2, sample_trace(3))])
                .unwrap()
                .with_stall_timeouts(Duration::from_millis(20), Duration::from_millis(120));
        let addr = serve.local_addr();

        // The staller: requests the long stream, then never reads a byte.
        let staller = TcpStream::connect(addr).unwrap();
        {
            let mut stream = &staller;
            let mut encoder = FrameEncoder::new();
            stream.write_all(encoder.header()).unwrap();
            stream.write_all(encoder.resume(1, 0)).unwrap();
        }

        // The healthy client completes while the staller sits on its buffer.
        let healthy = std::thread::spawn(move || request(addr, 2, 0));
        let deadline = Instant::now() + Duration::from_secs(10);
        while serve.stats().dropped == 0 {
            assert!(Instant::now() < deadline, "staller never dropped: {:?}", serve.stats());
            serve.poll_once(10).unwrap();
        }
        let healthy_bytes = healthy.join().unwrap();
        assert_eq!(decode_stream(&healthy_bytes).0, sample_trace(3).batches);

        let stats = serve.stats();
        assert_eq!(stats.streams_completed, 1, "only the healthy stream completed: {stats:?}");
        assert!(stats.parked >= 1, "the staller was parked first: {stats:?}");
        assert_eq!(stats.dropped, 1, "then dropped at the deadline: {stats:?}");
        assert_eq!(stats.killed_streams, 0, "a stall drop is not a chaos kill");
        drop(staller);
    }
}
