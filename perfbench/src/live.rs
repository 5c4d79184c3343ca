//! The live workloads: recorded device traces served over loopback TCP,
//! decoded by one `IngestReactor` and classified by the fleet scheduler.
//!
//! * `live_burst` — a closed loop: `TelemetryServe` streams two long traces
//!   as fast as backpressure allows into static reactor feeds
//!   (`FleetRunBuilder::feeds`).
//! * `live_churn` — an open loop: the benchmark's own single-thread generator
//!   plays the serve protocol on a fleet clock, one batch per device per 2 ms
//!   epoch, while devices arrive in pairs through `ReactorHandle::subscribe`
//!   and `FleetRunBuilder::intake` and depart when their traces end.

use std::io::{Cursor, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use adasense::fleet::{DeviceSummary, ExternalDevice, FleetScheduler, FleetSpec};
use adasense::ingest::reactor::{IngestReactor, ReactorHandle, ReactorStats};
use adasense::ingest::serve::TelemetryServe;
use adasense::ingest::{
    ChannelSource, FrameEncoder, FrameKind, SocketSource, StreamParser, TelemetryTrace,
    TraceRecorder,
};
use adasense::runtime::DeviceRuntime;
use adasense::scenario::{FaultLevel, PopulationSpec, RoutinePreset};
use adasense::{ExperimentSpec, TrainedSystem};
use adasense_ml::BackendKind;
use adasense_sensor::{SensorConfig, TelemetryBatch};

use crate::lockstep::{run_chunk, set_stages, LoopStats, RowMeta, StageInputs};
use crate::meter::{now_ns, Due, Metered, Meters, Record, Span};
use crate::probe::{self, ThreadUsage};
use crate::stats::{median, percentile};
use crate::{fnv, set_up, Args, Outcome, Setup};

/// One device session as the live fleet sees it: the summary metadata of
/// the recorded device it replays, under its own session id.
#[derive(Debug, Clone)]
pub struct LiveDevice {
    pub meta: RowMeta,
    /// Index of the recorded trace it streams.
    pub trace: usize,
}

/// A recorded trace, kept only as its wire encoding (so the benchmark's own
/// copy stays small next to the program's memory) and shared by every
/// session that streams it.
pub struct Recorded {
    pub meta: RowMeta,
    /// The whole stream: header, batch frames, END.
    pub stream: Arc<[u8]>,
    /// Byte offset of each batch frame in `stream`, plus the offset of END.
    pub frames: Vec<usize>,
    /// The configuration of the first batch, which the JOIN frame announces.
    pub config: SensorConfig,
}

impl Recorded {
    fn new(meta: RowMeta, trace: &TelemetryTrace) -> Self {
        let stream: Arc<[u8]> = Arc::from(trace.encode());
        let mut encoder = FrameEncoder::new();
        let mut frames = vec![encoder.header().len()];
        for batch in &trace.batches {
            let last = *frames.last().expect("starts with the header length");
            frames.push(last + encoder.batch(batch).len());
        }
        let config = trace.batches.first().expect("a recorded device classified").config;
        Self { meta, stream, frames, config }
    }

    /// Number of batches in the trace.
    pub fn batches(&self) -> usize {
        self.frames.len() - 1
    }

    /// The trace, decoded back from its stream.
    pub fn trace(&self) -> TelemetryTrace {
        TelemetryTrace::decode(&self.stream).expect("the benchmark's own encoding decodes")
    }

    fn fingerprint(&self) -> u64 {
        fnv(self.stream.chunks(8).map(|c| c.iter().fold(0, |w, &b| w << 8 | u64::from(b))))
    }
}

/// The backend a live device classifies with: alternating full precision and
/// cascade, so every pair of sessions exercises both.
fn live_backend(index: u64) -> BackendKind {
    if index.is_multiple_of(2) {
        BackendKind::F64
    } else {
        BackendKind::Cascade
    }
}

/// Records devices `0..devices` over `lifetime_s` seconds each, on up to
/// `workers` threads.  Device `i` lives the plan of `fleets[i % fleets.len()]`
/// (so a list of single-routine specs gives a cohort with fixed routine
/// shares) and classifies with [`live_backend`].
fn record(
    spec: &ExperimentSpec,
    system: &TrainedSystem,
    fleets: &[FleetSpec],
    devices: u64,
    lifetime_s: f64,
    workers: usize,
) -> Result<Vec<Recorded>, String> {
    let scheduler = FleetScheduler::new(spec, system);
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Recorded>>> = (0..devices).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| -> Result<(), String> {
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= slots.len() {
                            return Ok(());
                        }
                        let fleet = &fleets[i % fleets.len()];
                        let plan = fleet.device_plan(i as u64);
                        let backend = live_backend(i as u64);
                        let mut runtime = DeviceRuntime::for_source(
                            spec,
                            system,
                            fleet.controller,
                            TraceRecorder::new(scheduler.device_source(fleet, &plan)),
                            lifetime_s,
                        )
                        .map_err(|e| e.to_string())?
                        .with_recording(false)
                        .with_classifier(system.backend(backend));
                        runtime.run_to_completion();
                        let meta = RowMeta {
                            device_id: i as u64,
                            seed: plan.seed,
                            routine: plan.routine,
                            backend,
                            start_epoch: 0,
                        };
                        let recorded = Recorded::new(meta, runtime.source().trace());
                        *slots[i].lock().expect("no recorder panicked") = Some(recorded);
                    }
                })
            })
            .collect();
        handles.into_iter().try_for_each(|h| h.join().expect("a recorder thread panicked"))
    })?;
    Ok(slots
        .into_iter()
        .map(|s| s.into_inner().expect("no recorder panicked").expect("every slot recorded"))
        .collect())
}

fn external(
    device: &LiveDevice,
    source: impl adasense::runtime::SampleSource + Send + 'static,
) -> ExternalDevice {
    ExternalDevice::new(device.meta.device_id, source)
        .with_metadata(device.meta.seed, device.meta.routine.clone())
        .with_backend(device.meta.backend)
        .with_start_epoch(device.meta.start_epoch)
}

/// What both live workloads hold once set up.
pub struct Live {
    pub spec: ExperimentSpec,
    pub system: TrainedSystem,
    /// The feed-only fleet every live run and its reference run under.
    pub feed_only: FleetSpec,
    pub recorded: Vec<Recorded>,
    pub workers: usize,
}

/// The static reference of one session list.
pub struct Reference {
    pub report: Vec<u8>,
    pub rows: Vec<DeviceSummary>,
    pub accuracy_pct: f64,
    pub mean_current_ua: f64,
}

impl Reference {
    /// Counts sessions whose row disagrees with the reference (all of them
    /// when the report bytes do), plus failed feeds.
    pub fn failures(&self, report: &[u8], rows: &mut [DeviceSummary], failed_feeds: u64) -> u64 {
        rows.sort_by_key(|r| r.device_id);
        let sessions = self.rows.len() as u64;
        if rows.len() != self.rows.len() || report != self.report {
            return sessions;
        }
        let wrong = rows.iter().zip(&self.rows).filter(|(a, b)| a != b).count() as u64;
        (wrong + failed_feeds).min(sessions)
    }
}

impl Live {
    pub fn scheduler(&self) -> FleetScheduler<'_> {
        FleetScheduler::new(&self.spec, &self.system).with_threads(self.workers)
    }

    /// The static reference: every session's trace fed from memory through
    /// `SocketSource`, in one feed-only fleet run.
    pub fn reference(&self, devices: &[LiveDevice]) -> Result<Reference, String> {
        let feeds = devices
            .iter()
            .map(|d| {
                let bytes = Cursor::new(self.recorded[d.trace].stream.clone());
                SocketSource::from_reader(bytes)
                    .map(|source| external(d, source))
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, String>>()?;
        let run = self
            .scheduler()
            .builder()
            .spec(&self.feed_only)
            .feeds(feeds)
            .collect()
            .run()
            .map_err(|e| format!("reference run failed: {e}"))?;
        let mut rows = run.summaries;
        rows.sort_by_key(|r| r.device_id);
        Ok(Reference {
            report: run.report.encode(),
            rows,
            accuracy_pct: 100.0 * run.report.mean_accuracy(),
            mean_current_ua: run.report.mean_current_ua(),
        })
    }

    /// The per-layer figures the scheduler's live loops cannot split: the
    /// workload's own traces (`devices`) replayed from memory through the
    /// traced lockstep loop in chunks of `chunk` sessions (rows must equal
    /// the reference), then the stage calls on the same inputs.  Writes the
    /// replay's spans together with the live path's `spans`.
    fn trace_layers(
        &self,
        out: &mut Outcome,
        args: &Args,
        devices: &[LiveDevice],
        chunk: usize,
        reference: &Reference,
        mut spans: Vec<Span>,
    ) -> Result<(), String> {
        let system = &self.system;
        let mut stats = LoopStats::new();
        let sink = Arc::new(Mutex::new(Vec::new()));
        let started = now_ns();
        let mut rows = Vec::new();
        for (c, group) in devices.chunks(chunk).enumerate() {
            let mut runtimes = Vec::new();
            for d in group {
                let stream = Cursor::new(self.recorded[d.trace].stream.clone());
                let source = SocketSource::from_reader(stream).map_err(|e| e.to_string())?;
                let metered = Metered::new(source, d.meta.device_id, true, Due::AtAsk)
                    .with_sink(sink.clone());
                runtimes.push(
                    DeviceRuntime::new(&self.spec, system, self.feed_only.controller, metered)
                        .with_recording(false)
                        .with_classifier(system.backend(d.meta.backend)),
                );
            }
            let metas = group.iter().map(|d| d.meta.clone()).collect();
            rows.extend(run_chunk(
                system,
                c as u64,
                metas,
                runtimes,
                |_| 0,
                &mut spans,
                &mut stats,
            ));
        }
        stats.worker_ns = now_ns() - started;
        rows.sort_by_key(|r| r.device_id);
        let expected: Vec<&DeviceSummary> = reference
            .rows
            .iter()
            .filter(|r| rows.iter().any(|x| x.device_id == r.device_id))
            .collect();
        out.attempted += rows.len() as u64;
        if rows.len() != expected.len() || rows.iter().zip(&expected).any(|(a, b)| a != *b) {
            out.failed += rows.len() as u64;
        }
        let mut meters = Meters::new();
        meters.add(std::mem::take(&mut *sink.lock().expect("no replay panicked")));
        stats.report(out, &meters);

        let traces: Vec<TelemetryTrace> = self.recorded.iter().map(Recorded::trace).collect();
        let streams = self.recorded.iter().map(|r| r.stream.clone()).collect();
        let inputs = StageInputs::sample(&traces.iter().collect::<Vec<_>>(), streams);
        set_stages(out, system, &inputs, stats.rows_per_batch());
        // Live feeds transmit nothing: the fleet spec has no radio.
        out.set("tx.compressed_share", 0.0);
        let exits: usize = reference.rows.iter().map(|r| r.early_exit_epochs).sum();
        let escalations: usize = reference.rows.iter().map(|r| r.escalated_epochs).sum();
        out.set("ml.cascade_exit_rate", exits as f64 / (exits + escalations).max(1) as f64);
        out.write_spans(args, &spans);
        Ok(())
    }
}

/// Thread usage and counters of the reactor and the serving thread, summed
/// over a run's passes.
#[derive(Default)]
struct Threads {
    reactor: Vec<Option<ThreadUsage>>,
    serve: Vec<Option<ThreadUsage>>,
    reactor_wall_s: f64,
    batches: u64,
    failed: u64,
    reconnects: u64,
    joined: u64,
    peak_open: u64,
}

impl Threads {
    fn add(
        &mut self,
        stats: &ReactorStats,
        reactor: Option<ThreadUsage>,
        reactor_wall_s: f64,
        serve: Option<ThreadUsage>,
    ) {
        self.reactor.push(reactor);
        self.serve.push(serve);
        self.reactor_wall_s += reactor_wall_s;
        self.batches += stats.batches;
        self.failed += stats.failed;
        self.reconnects += stats.reconnects;
        self.joined += stats.joined;
        self.peak_open = self.peak_open.max(stats.peak_open);
    }

    fn report(&self, out: &mut Outcome) {
        // Unavailable if any pass's probe was.
        let total = |usages: &[Option<ThreadUsage>]| {
            usages.iter().try_fold(ThreadUsage::default(), |sum, u| Some(sum.add((*u)?)))
        };
        let (reactor, serve) = (total(&self.reactor), total(&self.serve));
        let batches = self.batches.max(1) as f64;
        out.set_probe("reactor.cpu_us_per_batch", reactor.map(|u| u.cpu_s * 1e6 / batches));
        out.set_probe("reactor.wakeups_per_batch", reactor.map(|u| u.wakeups as f64 / batches));
        out.set_probe(
            "reactor.wakeups_per_s",
            reactor.map(|u| u.wakeups as f64 / self.reactor_wall_s.max(1e-9)),
        );
        out.set_probe("serve.cpu_us_per_batch", serve.map(|u| u.cpu_s * 1e6 / batches));
        out.set_probe("serve.wakeups_per_batch", serve.map(|u| u.wakeups as f64 / batches));
        out.set("reactor.batches", self.batches as f64);
        out.set("reactor.failed", self.failed as f64);
        out.set("reactor.reconnects", self.reconnects as f64);
        out.set("reactor.joined", self.joined as f64);
        out.set("reactor.peak_open", self.peak_open as f64);
    }
}

fn set_live_metrics(out: &mut Outcome, rates: &[f64], meters: &Meters, reference: &Reference) {
    out.set("ticks_per_s", median(rates));
    out.set("lag_p50_ms", percentile(&meters.lags_ms, 50.0));
    out.set("lag_p99_ms", percentile(&meters.lags_ms, 99.0));
    out.set("join_p50_ms", median(&meters.joins_ms));
    out.set("accuracy_pct", reference.accuracy_pct);
    out.set("mean_current_ua", reference.mean_current_ua);
}

// ---------------------------------------------------------------------------
// live_burst
// ---------------------------------------------------------------------------

const BURST_DEVICES: u64 = 2;
const BURST_DURATION_S: f64 = 3000.0;

struct BurstInputs {
    recorded: Vec<Recorded>,
    serve: TelemetryServe,
}

/// One burst pass: fresh reactor, both traces streamed, one feed chunk.
struct Pass {
    wall_s: f64,
    cpu_s: Option<f64>,
    epochs: u64,
    report: Vec<u8>,
    rows: Vec<DeviceSummary>,
    reactor: ReactorStats,
    reactor_usage: Option<ThreadUsage>,
    reactor_wall_s: f64,
    serve_usage: Option<ThreadUsage>,
    records: Vec<Record>,
}

fn burst_pass(
    live: &Live,
    devices: &[LiveDevice],
    serve: &mut Option<TelemetryServe>,
    traced: bool,
) -> Result<Pass, String> {
    let mut server = serve.take().expect("the server is returned after every pass");
    let addr = server.local_addr().to_string();
    let target = server.stats().streams_completed + devices.len() as u64;
    let sink = Arc::new(Mutex::new(Vec::new()));
    let cpu = probe::process_cpu_s();
    let start = now_ns();
    let mut reactor = IngestReactor::new();
    let feeds: Vec<ExternalDevice> = devices
        .iter()
        .map(|d| {
            let source = reactor.subscribe(&addr, d.meta.device_id);
            external(
                d,
                Metered::new(source, d.meta.device_id, traced, Due::AtAsk).with_sink(sink.clone()),
            )
        })
        .collect();
    let (run, reactor_result, served) = std::thread::scope(|scope| {
        let serving = scope.spawn(move || {
            let result = server.serve_streams(target, 50);
            let usage = probe::thread_self();
            (server, result, usage)
        });
        let reacting = scope.spawn(move || {
            let started = now_ns();
            let result = reactor.run();
            (result, probe::thread_self(), (now_ns() - started) as f64 / 1e9)
        });
        let run = live.scheduler().builder().spec(&live.feed_only).feeds(feeds).collect().run();
        (
            run,
            reacting.join().expect("the reactor thread panicked"),
            serving.join().expect("the serve thread panicked"),
        )
    });
    let wall_s = (now_ns() - start) as f64 / 1e9;
    let cpu_s = probe::process_cpu_s().zip(cpu).map(|(b, a)| b - a);
    let (server, serve_result, serve_usage) = served;
    *serve = Some(server);
    serve_result.map_err(|e| format!("serving failed: {e}"))?;
    let run = run.map_err(|e| format!("live run failed: {e}"))?;
    let (reactor, reactor_usage, reactor_wall_s) = reactor_result;
    let reactor = reactor.map_err(|e| format!("the reactor failed: {e}"))?;
    let records = std::mem::take(&mut *sink.lock().expect("no consumer panicked"));
    Ok(Pass {
        wall_s,
        cpu_s,
        epochs: run.report.total_epochs(),
        report: run.report.encode(),
        rows: run.summaries,
        reactor,
        reactor_usage,
        reactor_wall_s,
        serve_usage,
        records,
    })
}

pub fn run_burst(args: &Args) -> Result<Outcome, String> {
    let mut fleet = FleetSpec::new(BURST_DEVICES, BURST_DURATION_S, args.seed);
    fleet.population = PopulationSpec::single(RoutinePreset::OfficeDay, FaultLevel::None);
    let workers = args.workers();
    let setup: Setup<BurstInputs> = set_up(
        |spec, system| {
            let recorded = record(
                spec,
                system,
                std::slice::from_ref(&fleet),
                BURST_DEVICES,
                BURST_DURATION_S,
                workers,
            )?;
            let traces = recorded.iter().map(|r| (r.meta.device_id, r.trace())).collect();
            let serve = TelemetryServe::bind("127.0.0.1:0", traces).map_err(|e| e.to_string())?;
            Ok(BurstInputs { recorded, serve })
        },
        |inputs| fnv(inputs.recorded.iter().map(Recorded::fingerprint)),
    )?;
    let Setup { spec, system, inputs, times } = setup;
    let BurstInputs { recorded, serve } = inputs;
    let feed_only = FleetSpec { devices: 0, ..fleet };
    let live = Live { spec, system, feed_only, recorded, workers };
    let devices: Vec<LiveDevice> = live
        .recorded
        .iter()
        .enumerate()
        .map(|(i, r)| LiveDevice { meta: r.meta.clone(), trace: i })
        .collect();
    let reference = live.reference(&devices)?;

    let mut out = Outcome::default();
    let mut serve = Some(serve);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let begin = now_ns();
    loop {
        for trace_this in [false, true] {
            if trace_this && !args.trace {
                continue;
            }
            let mut pass = burst_pass(&live, &devices, &mut serve, trace_this)?;
            out.attempted += devices.len() as u64;
            out.failed += reference.failures(&pass.report, &mut pass.rows, pass.reactor.failed);
            for (device_id, error) in &pass.reactor.errors {
                out.note(format!("device {device_id} failed: {error}"));
            }
            if trace_this {
                // Every traced pass is timed; the first one's spans are kept
                // for the span file, which stays a few MB.
                if !traced.is_empty() {
                    pass.records.iter_mut().for_each(|r| r.spans.clear());
                }
                traced.push(pass)
            } else {
                plain.push(pass)
            }
        }
        let elapsed = (now_ns() - begin) as f64 / 1e9;
        if elapsed + elapsed / plain.len() as f64 / 2.0 > args.seconds {
            break;
        }
    }

    let rates: Vec<f64> = plain.iter().map(|p| p.epochs as f64 / p.wall_s).collect();
    let mut meters = Meters::new();
    for pass in &mut plain {
        meters.add(std::mem::take(&mut pass.records));
    }
    out.set_setup(times);
    set_live_metrics(&mut out, &rates, &meters, &reference);
    let mut sorted = rates.clone();
    sorted.sort_by(f64::total_cmp);
    out.note(format!(
        "live_burst: closed loop, {} connections, {} untraced passes (ticks/s min {:.0} median \
         {:.0} max {:.0}) of {} labels, {} lag samples, {} sessions",
        devices.len(),
        plain.len(),
        sorted[0],
        median(&sorted),
        sorted[sorted.len() - 1],
        meters.labels / plain.len() as u64,
        meters.lags_ms.len(),
        meters.joins_ms.len()
    ));

    if args.trace {
        let mut traced_meters = Meters::new();
        for pass in &mut traced {
            traced_meters.add(std::mem::take(&mut pass.records));
        }
        let traced_wall_ns = traced.iter().map(|p| (p.wall_s * 1e9) as u64).sum();
        traced_meters.report(&mut out, traced_wall_ns);
        let mut threads = Threads::default();
        for pass in plain.iter().chain(&traced) {
            threads.add(&pass.reactor, pass.reactor_usage, pass.reactor_wall_s, pass.serve_usage);
        }
        threads.report(&mut out);
        let stats = serve.as_ref().expect("the server came back").stats();
        out.set("serve.parked", stats.parked as f64);
        out.set("serve.dropped", stats.dropped as f64);
        let wall: f64 = plain.iter().map(|p| p.wall_s).sum();
        let cpu: Option<f64> = plain.iter().map(|p| p.cpu_s).sum();
        out.set_probe("fleet.cpu_util", cpu.map(|c| c / (wall * workers as f64)));
        out.set_overhead(
            &plain.iter().map(|p| p.wall_s).collect::<Vec<_>>(),
            &traced.iter().map(|p| p.wall_s).collect::<Vec<_>>(),
        );
        live.trace_layers(
            &mut out,
            args,
            &devices,
            devices.len(),
            &reference,
            traced_meters.spans,
        )?;
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// live_churn
// ---------------------------------------------------------------------------

/// Distinct recorded devices the sessions cycle through.
const POOL: u64 = 48;
/// Device time per session: 100 one-second epochs, 99 classified.
const SESSION_S: f64 = 100.0;
/// Wall time per fleet epoch: each device emits one batch per epoch.
pub const EPOCH_NS: u64 = 2_000_000;

/// The paced schedule: sessions arrive in pairs, the next pair one epoch
/// after the previous pair's last batch, and `pairs` pairs in all.  Session
/// `s` streams recorded device `s % pool` under session id `s`.
pub fn churn_sessions(recorded: &[Recorded], pairs: u64) -> Vec<LiveDevice> {
    let pool = recorded.len() as u64;
    let mut start = 0;
    let mut sessions = Vec::new();
    for pair in 0..pairs {
        let mut longest = 0;
        for member in 0..2 {
            let s = 2 * pair + member;
            let trace = (s % pool) as usize;
            longest = longest.max(recorded[trace].batches() as u64);
            sessions.push(LiveDevice {
                meta: RowMeta { device_id: s, start_epoch: start, ..recorded[trace].meta.clone() },
                trace,
            });
        }
        start += longest + 1;
    }
    sessions
}

/// What the generator observed about itself and the system.
#[derive(Debug, Default)]
pub struct GenReport {
    /// Subscribe → the generator accepts the dial, per session.
    pub dial_ns: Vec<u64>,
    /// How late the generator ran: arrivals and batch writes after their due
    /// time, for batches whose connection was already streaming.
    pub late_ns: Vec<u64>,
    pub batches: u64,
    /// Writes that found a connection's socket buffer full.
    pub stalls: u64,
    pub usage: Option<ThreadUsage>,
}

enum Phase {
    Waiting,
    Dialing { subscribed_ns: u64 },
    Streaming { conn: TcpStream, next: usize, out: Vec<u8>, since_ns: u64, ended: bool },
    Done,
}

/// The open-loop generator: one thread that plays the serve protocol from
/// the public encoders.  At each session's arrival it subscribes the device
/// (`handle`) and hands it to the fleet (`intake`); it accepts dials without
/// blocking, reads each header + RESUME with `StreamParser`, answers with
/// header + JOIN, writes each batch at its due time on the fleet clock
/// (`origin_ns + (start_epoch + k) * EPOCH_NS`; batches already due when the
/// connection arrives go out at once), then END, and closes.  It never
/// waits on the system: between events it sleeps until the next due time.
pub fn generate(
    listener: &TcpListener,
    sessions: &[LiveDevice],
    recorded: &[Recorded],
    origin_ns: u64,
    handle: ReactorHandle,
    intake: Sender<ExternalDevice>,
    make_feed: &dyn Fn(&LiveDevice, ChannelSource) -> ExternalDevice,
) -> Result<GenReport, String> {
    let io = |what: &str, e: std::io::Error| format!("generator {what} failed: {e}");
    listener.set_nonblocking(true).map_err(|e| io("listen", e))?;
    let addr = listener.local_addr().map_err(|e| io("listen", e))?.to_string();
    let due = |epoch: u64| origin_ns + epoch * EPOCH_NS;
    let mut report = GenReport::default();
    let mut handle = Some(handle);
    let mut intake = Some(intake);
    let mut phases: Vec<Phase> = sessions.iter().map(|_| Phase::Waiting).collect();
    let mut pending: Vec<(TcpStream, StreamParser, u64)> = Vec::new();
    let mut encoder = FrameEncoder::new();
    let mut scratch = TelemetryBatch::placeholder();
    let mut block = [0u8; 512];
    let (mut arrived, mut done) = (0, 0);
    while done < sessions.len() {
        let now = now_ns();
        while arrived < sessions.len() && due(sessions[arrived].meta.start_epoch) <= now {
            let session = &sessions[arrived];
            report.late_ns.push(now - due(session.meta.start_epoch));
            let subscriber = handle.as_ref().expect("open until the last arrival");
            let source = subscriber.subscribe(&addr, session.meta.device_id);
            let subscribed_ns = now_ns();
            intake
                .as_ref()
                .expect("open until the last arrival")
                .send(make_feed(session, source))
                .map_err(|_| "the fleet stopped taking arrivals".to_string())?;
            phases[arrived] = Phase::Dialing { subscribed_ns };
            arrived += 1;
        }
        if arrived == sessions.len() {
            // No more churn: let the reactor and the fleet finish.
            handle = None;
            intake = None;
        }
        loop {
            match listener.accept() {
                Ok((conn, _)) => {
                    conn.set_nonblocking(true).map_err(|e| io("accept", e))?;
                    conn.set_nodelay(true).map_err(|e| io("accept", e))?;
                    pending.push((conn, StreamParser::new(), now_ns()));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => return Err(io("accept", e)),
            }
        }
        let mut i = 0;
        while i < pending.len() {
            let (conn, parser, accepted_ns) = &mut pending[i];
            match conn.read(&mut block) {
                Ok(0) => return Err("a client hung up before sending its request".to_string()),
                Ok(n) => parser.feed(&block[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) => return Err(io("request read", e)),
            }
            let request = parser.next_frame(&mut scratch).map_err(|e| e.to_string())?;
            let Some(kind) = request else {
                i += 1;
                continue;
            };
            let FrameKind::Resume { device_id, next_batch } = kind else {
                return Err(format!("a client opened with {kind:?} instead of RESUME"));
            };
            let index = sessions
                .iter()
                .position(|s| s.meta.device_id == device_id)
                .ok_or_else(|| format!("a client asked for unknown device {device_id}"))?;
            let Phase::Dialing { subscribed_ns } = phases[index] else {
                return Err(format!("device {device_id} dialled twice"));
            };
            if next_batch != 0 {
                return Err(format!("device {device_id} resumed at batch {next_batch}"));
            }
            report.dial_ns.push(accepted_ns.saturating_sub(subscribed_ns));
            let (conn, _, _) = pending.swap_remove(i);
            let session = &sessions[index];
            let mut out = encoder.header().to_vec();
            let config = recorded[session.trace].config;
            out.extend_from_slice(encoder.join(device_id, config, session.meta.start_epoch));
            phases[index] =
                Phase::Streaming { conn, next: 0, out, since_ns: now_ns(), ended: false };
        }

        let now = now_ns();
        let mut next_event = sessions.get(arrived).map_or(u64::MAX, |s| due(s.meta.start_epoch));
        let mut impatient = !pending.is_empty();
        for (index, phase) in phases.iter_mut().enumerate() {
            match phase {
                Phase::Dialing { .. } => impatient = true,
                Phase::Streaming { conn, next, out, since_ns, ended } => {
                    let session = &sessions[index];
                    let recorded = &recorded[session.trace];
                    let frames = recorded.batches();
                    while *next < frames {
                        let at = due(session.meta.start_epoch + *next as u64);
                        if at > now {
                            next_event = next_event.min(at);
                            break;
                        }
                        if at >= *since_ns {
                            report.late_ns.push(now - at);
                        }
                        out.extend_from_slice(
                            &recorded.stream[recorded.frames[*next]..recorded.frames[*next + 1]],
                        );
                        *next += 1;
                        report.batches += 1;
                    }
                    if *next == frames && !*ended {
                        out.extend_from_slice(encoder.end(frames as u64));
                        *ended = true;
                    }
                    while !out.is_empty() {
                        match conn.write(out) {
                            Ok(n) => {
                                out.drain(..n);
                            }
                            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                                report.stalls += 1;
                                impatient = true;
                                break;
                            }
                            Err(e) => return Err(io("write", e)),
                        }
                    }
                    if *ended && out.is_empty() {
                        *phase = Phase::Done;
                        done += 1;
                    }
                }
                Phase::Waiting | Phase::Done => {}
            }
        }
        let mut wait = next_event.saturating_sub(now_ns());
        if impatient {
            wait = wait.min(100_000);
        }
        if wait > 0 && done < sessions.len() {
            std::thread::sleep(Duration::from_nanos(wait));
        }
    }
    report.usage = probe::thread_self();
    Ok(report)
}

/// One run of the paced schedule through a fresh reactor and the fleet's
/// intake.
pub struct ChurnRun {
    pub wall_s: f64,
    pub cpu_s: Option<f64>,
    pub report: Vec<u8>,
    pub rows: Vec<DeviceSummary>,
    pub reactor: ReactorStats,
    pub reactor_usage: Option<ThreadUsage>,
    pub reactor_wall_s: f64,
    pub generator: GenReport,
    pub records: Vec<Record>,
}

pub fn churn_run(live: &Live, sessions: &[LiveDevice], traced: bool) -> Result<ChurnRun, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let sink = Arc::new(Mutex::new(Vec::new()));
    let mut reactor = IngestReactor::new();
    let handle = reactor.handle();
    let (intake_tx, intake_rx) = std::sync::mpsc::channel();
    let cpu = probe::process_cpu_s();
    // The first arrival is due a little after the threads start.
    let origin_ns = now_ns() + 5_000_000;
    let make_feed = |session: &LiveDevice, source: ChannelSource| {
        let due = Due::Schedule {
            first_ns: origin_ns + session.meta.start_epoch * EPOCH_NS,
            period_ns: EPOCH_NS,
        };
        let metered =
            Metered::new(source, session.meta.device_id, traced, due).with_sink(sink.clone());
        external(session, metered)
    };
    let (run, reacted, generated) = std::thread::scope(|scope| {
        let reacting = scope.spawn(move || {
            let started = now_ns();
            let result = reactor.run();
            (result, probe::thread_self(), (now_ns() - started) as f64 / 1e9)
        });
        let generating = scope.spawn(|| {
            generate(&listener, sessions, &live.recorded, origin_ns, handle, intake_tx, &make_feed)
        });
        let run =
            live.scheduler().builder().spec(&live.feed_only).intake(intake_rx).collect().run();
        (
            run,
            reacting.join().expect("the reactor thread panicked"),
            generating.join().expect("the generator thread panicked"),
        )
    });
    let wall_s = (now_ns() - origin_ns) as f64 / 1e9;
    let cpu_s = probe::process_cpu_s().zip(cpu).map(|(b, a)| b - a);
    let generator = generated?;
    let run = run.map_err(|e| format!("live run failed: {e}"))?;
    let (reactor, reactor_usage, reactor_wall_s) = reacted;
    let reactor = reactor.map_err(|e| format!("the reactor failed: {e}"))?;
    let records = std::mem::take(&mut *sink.lock().expect("no consumer panicked"));
    Ok(ChurnRun {
        wall_s,
        cpu_s,
        report: run.report.encode(),
        rows: run.summaries,
        reactor,
        reactor_usage,
        reactor_wall_s,
        generator,
        records,
    })
}

/// The churn workload's device plans: one single-routine spec per routine,
/// so the pool holds each routine in equal shares whatever the seed.
fn churn_fleets(seed: u64, session_s: f64) -> Vec<FleetSpec> {
    RoutinePreset::ALL
        .iter()
        .map(|&routine| {
            let mut fleet = FleetSpec::new(POOL, session_s, seed);
            fleet.population = PopulationSpec::single(routine, FaultLevel::None);
            fleet
        })
        .collect()
}

pub fn run_churn(args: &Args) -> Result<Outcome, String> {
    let fleets = churn_fleets(args.seed, SESSION_S);
    let workers = args.workers();
    let setup: Setup<Vec<Recorded>> = set_up(
        |spec, system| record(spec, system, &fleets, POOL, SESSION_S, workers),
        |recorded| fnv(recorded.iter().map(Recorded::fingerprint)),
    )?;
    let Setup { spec, system, inputs: recorded, times } = setup;
    let feed_only = FleetSpec { devices: 0, ..fleets[0].clone() };
    let live = Live { spec, system, feed_only, recorded, workers };
    // A traced run measures the schedule twice, untraced then traced, on the
    // same session list, so each half gets half the time.
    let halves = if args.trace { 2.0 } else { 1.0 };
    let period_s = (SESSION_S as u64 * EPOCH_NS) as f64 / 1e9;
    let pairs = ((args.seconds / halves / period_s).floor() as u64).max(1);
    let sessions = churn_sessions(&live.recorded, pairs);
    let reference = live.reference(&sessions)?;

    let mut out = Outcome::default();
    let mut runs = Vec::new();
    for trace_this in [false, true] {
        if trace_this && !args.trace {
            continue;
        }
        let mut run = churn_run(&live, &sessions, trace_this)?;
        out.attempted += sessions.len() as u64;
        out.failed += reference.failures(&run.report, &mut run.rows, run.reactor.failed);
        for (device_id, error) in &run.reactor.errors {
            out.note(format!("device {device_id} failed: {error}"));
        }
        runs.push(run);
    }

    let mut meters = Meters::new();
    meters.add(std::mem::take(&mut runs[0].records));
    let plain = &runs[0];
    out.set_setup(times);
    set_live_metrics(&mut out, &[meters.labels as f64 / plain.wall_s], &meters, &reference);
    let late_ms: Vec<f64> = plain.generator.late_ns.iter().map(|&n| n as f64 / 1e6).collect();
    out.note(format!(
        "live_churn: open loop, {} sessions in pairs, 1 batch per device per {} ms \
         ({} batches/s offered), {} labels, generator late p50 {:.3} ms p99 {:.3} ms",
        sessions.len(),
        EPOCH_NS as f64 / 1e6,
        2e9 / EPOCH_NS as f64,
        meters.labels,
        percentile(&late_ms, 50.0),
        percentile(&late_ms, 99.0)
    ));

    if args.trace {
        let mut traced_meters = Meters::new();
        traced_meters.add(std::mem::take(&mut runs[1].records));
        let (plain, traced) = (&runs[0], &runs[1]);
        traced_meters.report(&mut out, (traced.wall_s * 1e9) as u64);
        out.set("gen.late_p50_ms", percentile(&late_ms, 50.0));
        out.set("gen.late_p99_ms", percentile(&late_ms, 99.0));
        let dial_ms: Vec<f64> = plain.generator.dial_ns.iter().map(|&n| n as f64 / 1e6).collect();
        out.set("join.dial_ms", median(&dial_ms));
        let mut threads = Threads::default();
        for run in &runs {
            threads.add(&run.reactor, run.reactor_usage, run.reactor_wall_s, run.generator.usage);
        }
        threads.report(&mut out);
        out.set("serve.parked", runs.iter().map(|r| r.generator.stalls).sum::<u64>() as f64);
        out.set("serve.dropped", 0.0);
        out.set_probe("fleet.cpu_util", plain.cpu_s.map(|c| c / (plain.wall_s * workers as f64)));
        // The open loop's wall is set by its schedule, so tracing overhead
        // shows in the label lag instead.
        let lag_plain = percentile(&meters.lags_ms, 50.0);
        let lag_traced = percentile(&traced_meters.lags_ms, 50.0);
        out.set("trace.overhead_s", (lag_traced - lag_plain) / 1e3);
        out.set("trace.overhead_pct", 100.0 * (lag_traced - lag_plain) / lag_plain);
        // One pass over the pool, in the pairs the schedule runs them in.
        let replayed = &sessions[..(2 * POOL as usize).min(sessions.len())];
        live.trace_layers(&mut out, args, replayed, 2, &reference, traced_meters.spans)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A short paced schedule through the reactor and the fleet intake
    /// reports byte-identically to the static per-lifetime reference.
    #[test]
    fn a_short_paced_schedule_matches_the_static_per_lifetime_reference() {
        let spec = ExperimentSpec::quick();
        let system = TrainedSystem::train(&spec).unwrap();
        let fleets = churn_fleets(11, 12.0);
        let recorded = record(&spec, &system, &fleets, 4, 12.0, 2).unwrap();
        let feed_only = FleetSpec { devices: 0, ..fleets[0].clone() };
        let live = Live { spec, system, feed_only, recorded, workers: 2 };
        let sessions = churn_sessions(&live.recorded, 3);
        assert_eq!(sessions.len(), 6);
        assert_eq!(sessions[2].meta.start_epoch, 12, "the second pair follows the first");
        let reference = live.reference(&sessions).unwrap();
        let mut run = churn_run(&live, &sessions, false).unwrap();
        assert_eq!(run.reactor.failed, 0, "{:?}", run.reactor.errors);
        assert_eq!(run.reactor.joined, 6);
        assert_eq!(run.generator.dial_ns.len(), 6);
        assert_eq!(run.generator.batches, 6 * 11);
        assert!(run.report == reference.report, "live churned report differs from the reference");
        assert_eq!(reference.failures(&run.report, &mut run.rows, 0), 0);
        // Every batch after the first window's fill yields one label.
        let labels: u64 = run.records.iter().map(|r| r.labels).sum();
        assert_eq!(labels, 6 * 11);
    }
}
