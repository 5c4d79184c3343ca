//! The benchmark's clock, its span records, and [`Metered`], the
//! [`SampleSource`] wrapper that stamps every label and, in traced runs,
//! times the calls the runtime makes into its source.

use std::cell::RefCell;
use std::io::Write;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use adasense::runtime::{SampleSource, SourceStatus};
use adasense_data::Activity;
use adasense_sensor::{Sample3, SensorConfig};

use crate::Outcome;

static ORIGIN: OnceLock<Instant> = OnceLock::new();

/// The instant every benchmark timestamp counts from.
pub fn origin() -> Instant {
    *ORIGIN.get_or_init(Instant::now)
}

/// Nanoseconds since [`origin`].
pub fn now_ns() -> u64 {
    origin().elapsed().as_nanos() as u64
}

/// Which layer boundary a span covers.  The parent of each kind is fixed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One lockstep tick of a chunk (root).
    ChunkTick,
    /// `DeviceRuntime::begin_tick` of one device (parent: chunk tick).
    BeginTick,
    /// `SampleSource::status`, where a live feed blocks for its next batch
    /// (parent: begin tick).
    Status,
    /// `SampleSource::capture_window` (parent: begin tick).
    Capture,
    /// `Classifier::predict_batch_staged` over one backend's pool (parent:
    /// chunk tick).
    PredictBatch,
    /// `DeviceRuntime::complete_tick_staged` of one device (parent: chunk
    /// tick).
    CompleteTick,
    /// The instant a label exists (`SampleSource::ground_truth`; parent:
    /// complete tick).
    Label,
}

impl SpanKind {
    fn name(self) -> &'static str {
        match self {
            SpanKind::ChunkTick => "chunk_tick",
            SpanKind::BeginTick => "begin_tick",
            SpanKind::Status => "status",
            SpanKind::Capture => "capture",
            SpanKind::PredictBatch => "predict_batch",
            SpanKind::CompleteTick => "complete_tick",
            SpanKind::Label => "label",
        }
    }

    fn parent(self) -> &'static str {
        match self {
            SpanKind::ChunkTick => "-",
            SpanKind::BeginTick | SpanKind::PredictBatch | SpanKind::CompleteTick => "chunk_tick",
            SpanKind::Status | SpanKind::Capture => "begin_tick",
            SpanKind::Label => "complete_tick",
        }
    }
}

/// One recorded span.  Spans of one device-epoch share `id`
/// ([`epoch_id`]); chunk ticks and batch predictions carry the id of their
/// chunk tick ([`chunk_tick_id`]).  `parent` is the id of the parent span
/// (whose kind [`SpanKind`] fixes): the chunk tick for begin/predict/complete
/// spans, the device-epoch itself for status/capture/label spans.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: SpanKind,
    pub id: u64,
    pub parent: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Configuration index (capture), row count (predict) or 0.
    pub detail: u32,
}

/// The id shared by every span of one device-epoch.
pub fn epoch_id(device_id: u64, tick: u64) -> u64 {
    (device_id << 24) | tick
}

/// The id of one lockstep tick of one chunk.
pub fn chunk_tick_id(chunk: u64, tick: u64) -> u64 {
    (1 << 63) | (chunk << 24) | tick
}

/// Writes spans as tab-separated lines: name, parent name, id, parent id,
/// start and end (ns on the benchmark clock), detail.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name\tparent\tid\tparent_id\tstart_ns\tend_ns\tdetail")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.kind.name(),
            s.kind.parent(),
            s.id,
            s.parent,
            s.start_ns,
            s.end_ns,
            s.detail
        )?;
    }
    out.flush()
}

/// When the input behind each label was due.
#[derive(Debug, Clone, Copy)]
pub enum Due {
    /// When the device asked for it: the `status` call opening its tick
    /// (closed loops, where input is due as soon as the consumer wants it).
    AtAsk,
    /// On the generator's fleet clock: the k-th label's batch was due at
    /// `first_ns + k * period_ns` (the paced open loop).
    Schedule { first_ns: u64, period_ns: u64 },
}

/// Everything one metered device session recorded.
#[derive(Debug, Clone, Default)]
pub struct Record {
    pub device_id: u64,
    /// When the session was subscribed (or built).
    pub subscribed_ns: u64,
    pub first_label_ns: Option<u64>,
    pub labels: u64,
    /// Due time → label, per label.
    pub lags_ns: Vec<u64>,
    /// Traced only: time blocked inside `status`, and its call count.
    pub wait_ns: u64,
    pub status_calls: u64,
    /// Traced only: capture time and count per configuration index.
    pub capture_ns: Vec<u64>,
    pub captures: Vec<u64>,
    pub spans: Vec<Span>,
}

/// A [`SampleSource`] decorator that stamps the instant each label exists
/// (the runtime calls `ground_truth` once per classified epoch, right after
/// classifying it) and, when traced, times `status` and `capture_window`.
/// The record is handed to `sink` when the wrapper is dropped, which happens
/// inside the scheduler when the device's runtime is finalised.
pub struct Metered<S> {
    inner: S,
    traced: bool,
    due: Due,
    ask_ns: u64,
    tick: u64,
    last_config: Option<SensorConfig>,
    rec: RefCell<Record>,
    sink: Option<Arc<Mutex<Vec<Record>>>>,
}

impl<S> Metered<S> {
    pub fn new(inner: S, device_id: u64, traced: bool, due: Due) -> Self {
        let rec = Record {
            device_id,
            subscribed_ns: now_ns(),
            capture_ns: vec![0; SensorConfig::COUNT],
            captures: vec![0; SensorConfig::COUNT],
            ..Record::default()
        };
        Self {
            inner,
            traced,
            due,
            ask_ns: 0,
            tick: 0,
            last_config: None,
            rec: rec.into(),
            sink: None,
        }
    }

    /// Hands the record to `sink` when this wrapper is dropped.
    pub fn with_sink(mut self, sink: Arc<Mutex<Vec<Record>>>) -> Self {
        self.sink = Some(sink);
        self
    }

    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The configuration of the last captured window.
    pub fn last_config(&self) -> Option<SensorConfig> {
        self.last_config
    }
}

impl<S> Drop for Metered<S> {
    fn drop(&mut self) {
        if let Some(sink) = &self.sink {
            let rec = std::mem::take(self.rec.get_mut());
            if let Ok(mut records) = sink.lock() {
                records.push(rec);
            }
        }
    }
}

impl<S: SampleSource> SampleSource for Metered<S> {
    fn capture_window(
        &mut self,
        config: SensorConfig,
        t_end: f64,
        window_s: f64,
        out: &mut Vec<Sample3>,
    ) {
        self.last_config = Some(config);
        if !self.traced {
            self.inner.capture_window(config, t_end, window_s, out);
            return;
        }
        let start = now_ns();
        self.inner.capture_window(config, t_end, window_s, out);
        let end = now_ns();
        let rec = self.rec.get_mut();
        rec.capture_ns[config.index()] += end - start;
        rec.captures[config.index()] += 1;
        rec.spans.push(Span {
            kind: SpanKind::Capture,
            id: epoch_id(rec.device_id, self.tick),
            parent: epoch_id(rec.device_id, self.tick),
            start_ns: start,
            end_ns: end,
            detail: config.index() as u32,
        });
    }

    fn ground_truth(&self, t_s: f64) -> Option<Activity> {
        let label = self.inner.ground_truth(t_s);
        let now = now_ns();
        let mut rec = self.rec.borrow_mut();
        let due = match self.due {
            Due::AtAsk => self.ask_ns,
            Due::Schedule { first_ns, period_ns } => first_ns + rec.labels * period_ns,
        };
        rec.lags_ns.push(now.saturating_sub(due));
        rec.first_label_ns.get_or_insert(now);
        rec.labels += 1;
        if self.traced {
            let id = epoch_id(rec.device_id, self.tick);
            rec.spans.push(Span {
                kind: SpanKind::Label,
                id,
                parent: id,
                start_ns: now,
                end_ns: now,
                detail: 0,
            });
        }
        label
    }

    fn status(&mut self) -> SourceStatus {
        let start = now_ns();
        self.ask_ns = start;
        self.tick += 1;
        let status = self.inner.status();
        if self.traced {
            let end = now_ns();
            let rec = self.rec.get_mut();
            rec.wait_ns += end - start;
            rec.status_calls += 1;
            rec.spans.push(Span {
                kind: SpanKind::Status,
                id: epoch_id(rec.device_id, self.tick),
                parent: epoch_id(rec.device_id, self.tick),
                start_ns: start,
                end_ns: end,
                detail: 0,
            });
        }
        status
    }
}

/// Sums of what a set of [`Metered`] wrappers recorded.
#[derive(Debug, Default)]
pub struct Meters {
    pub lags_ms: Vec<f64>,
    /// Subscribe → first label, per session.
    pub joins_ms: Vec<f64>,
    pub labels: u64,
    pub wait_ns: u64,
    pub status_calls: u64,
    pub capture_ns: Vec<u64>,
    pub captures: Vec<u64>,
    pub spans: Vec<Span>,
}

impl Meters {
    pub fn new() -> Self {
        Self {
            capture_ns: vec![0; SensorConfig::COUNT],
            captures: vec![0; SensorConfig::COUNT],
            ..Self::default()
        }
    }

    pub fn add(&mut self, records: Vec<Record>) {
        for record in records {
            self.lags_ms.extend(record.lags_ns.iter().map(|&n| n as f64 / 1e6));
            if let Some(first) = record.first_label_ns {
                self.joins_ms.push(first.saturating_sub(record.subscribed_ns) as f64 / 1e6);
            }
            self.labels += record.labels;
            self.wait_ns += record.wait_ns;
            self.status_calls += record.status_calls;
            for c in 0..SensorConfig::COUNT {
                self.capture_ns[c] += record.capture_ns[c];
                self.captures[c] += record.captures[c];
            }
            self.spans.extend(record.spans);
        }
    }

    /// Records the source-side layers of traced wrappers: capture time per
    /// window, overall and per Pareto configuration, its share of
    /// `worker_ns`, and the time the consumer was blocked per `status` call.
    pub fn report(&self, out: &mut Outcome, worker_ns: u64) {
        let total_ns: u64 = self.capture_ns.iter().sum();
        let total: u64 = self.captures.iter().sum();
        out.set("capture.us", total_ns as f64 / 1e3 / total.max(1) as f64);
        for (name, config) in [
            "capture.us.F100_A128",
            "capture.us.F50_A16",
            "capture.us.F12.5_A16",
            "capture.us.F12.5_A8",
        ]
        .into_iter()
        .zip(SensorConfig::paper_pareto_front())
        {
            let i = config.index();
            out.set(name, self.capture_ns[i] as f64 / 1e3 / self.captures[i].max(1) as f64);
        }
        out.set("capture.share", total_ns as f64 / worker_ns.max(1) as f64);
        out.set(
            "ingest.wait_us_per_batch",
            self.wait_ns as f64 / 1e3 / self.status_calls.max(1) as f64,
        );
    }
}
