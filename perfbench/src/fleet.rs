//! `fleet_scenario`: a closed batch job of 256 scenario devices, 120 s each,
//! with light sensor faults, a half-cascade backend mix and compressed-sensing
//! radios, run in-process through `FleetRunBuilder`.  It is the only workload
//! that synthesises windows and reconstructs compressed ones.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use adasense::fleet::{DeviceSummary, FleetReport, FleetScheduler, FleetSpec};
use adasense::ingest::TraceRecorder;
use adasense::runtime::{DeviceRuntime, TxSetup};
use adasense::scenario::{BackendSpec, FaultLevel, PopulationSpec};
use adasense::shard::SummarySink;
use adasense::{AdaSenseError, ExperimentSpec, TrainedSystem};
use adasense_sensor::TxPolicy;

use crate::lockstep::{run_chunk, set_stages, summary, LoopStats, RowMeta, StageInputs, TX_RATIO};
use crate::meter::{now_ns, Due, Metered, Meters, Record, Span};
use crate::stats::{median, percentile};
use crate::{fnv, probe, set_up, Args, Outcome, Setup};

const DEVICES: u64 = 256;
const DURATION_S: f64 = 120.0;
/// Devices re-simulated standalone as the untraced run's reference.
const REFERENCE_DEVICES: [u64; 6] = [0, 51, 102, 153, 204, 255];
/// Devices whose recorded windows feed the stage calls.
const STAGE_DEVICES: u64 = 6;

pub fn fleet_spec(seed: u64) -> FleetSpec {
    let mut fleet = FleetSpec::new(DEVICES, DURATION_S, seed);
    fleet.population =
        PopulationSpec::mixed(FaultLevel::Light).with_backend(BackendSpec::half_cascade());
    fleet.tx_ratio = Some(TX_RATIO);
    fleet
}

/// Stamps the instant each row reaches the report, and on which worker.  In
/// a batch job a device's result is due at job start, so that is its lag.
struct RowClock {
    start_ns: u64,
    lags_ns: Vec<u64>,
    workers: Vec<std::thread::ThreadId>,
}

impl SummarySink for RowClock {
    fn push(&mut self, _row: &DeviceSummary) -> Result<(), AdaSenseError> {
        // The scheduler observes a chunk's rows on the worker that ran it.
        self.lags_ns.push(now_ns() - self.start_ns);
        self.workers.push(std::thread::current().id());
        Ok(())
    }
}

impl RowClock {
    /// How long each lockstep chunk took from the moment its worker could
    /// start it (job start, or the worker's previous chunk) to its rows: a
    /// session's time from admission to result.  A chunk's rows arrive
    /// together, so each run of `chunk` consecutive rows is one chunk.
    fn chunk_turnarounds_ns(&self, chunk: usize) -> Vec<u64> {
        let mut last: Vec<(std::thread::ThreadId, u64)> = Vec::new();
        let mut out = Vec::new();
        for (lags, workers) in self.lags_ns.chunks(chunk).zip(self.workers.chunks(chunk)) {
            let done = lags[lags.len() - 1];
            let worker = workers[0];
            let since = match last.iter_mut().find(|(w, _)| *w == worker) {
                Some((_, previous)) => std::mem::replace(previous, done),
                None => {
                    last.push((worker, done));
                    0
                }
            };
            out.push(done - since);
        }
        out
    }
}

/// One untraced repetition of the job.
struct Rep {
    wall_s: f64,
    cpu_s: Option<f64>,
    epochs: u64,
    lags_ns: Vec<u64>,
    turnarounds_ns: Vec<u64>,
    report: FleetReport,
}

fn untraced_rep(
    scheduler: &FleetScheduler<'_>,
    fleet: &FleetSpec,
) -> Result<(Rep, Vec<DeviceSummary>), String> {
    let mut clock = RowClock { start_ns: 0, lags_ns: Vec::new(), workers: Vec::new() };
    let cpu = probe::process_cpu_s();
    clock.start_ns = now_ns();
    let run = scheduler.builder().spec(fleet).sink(&mut clock).collect().run();
    let wall_s = (now_ns() - clock.start_ns) as f64 / 1e9;
    let cpu_s = probe::process_cpu_s().zip(cpu).map(|(b, a)| b - a);
    let run = run.map_err(|e| format!("fleet run failed: {e}"))?;
    let rep = Rep {
        wall_s,
        cpu_s,
        epochs: run.report.total_epochs(),
        turnarounds_ns: clock.chunk_turnarounds_ns(fleet.lockstep_devices),
        lags_ns: clock.lags_ns,
        report: run.report,
    };
    Ok((rep, run.summaries))
}

/// One traced worker's rows, spans and loop sums.
type WorkerTrace = (Vec<DeviceSummary>, Vec<Span>, LoopStats);

/// The same job through the benchmark's traced lockstep loop: the same plans,
/// sources and runtimes, chunked like the scheduler, on the same number of
/// workers.
struct TracedRep {
    wall_s: f64,
    rows: Vec<DeviceSummary>,
    spans: Vec<Span>,
    stats: LoopStats,
    records: Vec<Record>,
}

fn traced_rep(
    spec: &ExperimentSpec,
    system: &TrainedSystem,
    fleet: &FleetSpec,
    workers: usize,
) -> Result<TracedRep, String> {
    let scheduler = FleetScheduler::new(spec, system);
    let chunk = fleet.lockstep_devices as u64;
    let chunks = DEVICES.div_ceil(chunk);
    let next = AtomicUsize::new(0);
    let records = Arc::new(Mutex::new(Vec::new()));
    let start = now_ns();
    let per_worker: Vec<Result<WorkerTrace, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let started = now_ns();
                    let (mut rows, mut spans, mut stats) =
                        (Vec::new(), Vec::new(), LoopStats::new());
                    loop {
                        let c = next.fetch_add(1, Ordering::Relaxed) as u64;
                        if c >= chunks {
                            break;
                        }
                        let (mut metas, mut runtimes) = (Vec::new(), Vec::new());
                        for device_id in c * chunk..((c + 1) * chunk).min(DEVICES) {
                            let plan = fleet.device_plan(device_id);
                            let source = Metered::new(
                                scheduler.device_source(fleet, &plan),
                                device_id,
                                true,
                                Due::AtAsk,
                            )
                            .with_sink(records.clone());
                            let runtime = DeviceRuntime::for_source(
                                spec,
                                system,
                                fleet.controller,
                                source,
                                plan.scenario.duration_s(),
                            )
                            .map_err(|e| e.to_string())?
                            .with_recording(false)
                            .with_classifier(system.backend(plan.backend))
                            .with_tx(TxSetup::ble(TX_RATIO).with_seed(plan.seed));
                            metas.push(RowMeta {
                                device_id,
                                seed: plan.seed,
                                routine: plan.routine,
                                backend: plan.backend,
                                start_epoch: 0,
                            });
                            runtimes.push(runtime);
                        }
                        rows.extend(run_chunk(
                            system,
                            c,
                            metas,
                            runtimes,
                            |s| s.faulted_captures(),
                            &mut spans,
                            &mut stats,
                        ));
                    }
                    stats.worker_ns = now_ns() - started;
                    Ok((rows, spans, stats))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("a traced worker panicked")).collect()
    });
    let wall_s = (now_ns() - start) as f64 / 1e9;
    let (mut rows, mut spans, mut stats) = (Vec::new(), Vec::new(), LoopStats::new());
    for result in per_worker {
        let (r, s, st) = result?;
        rows.extend(r);
        spans.extend(s);
        stats.merge(&st);
    }
    rows.sort_by_key(|r| r.device_id);
    let records = std::mem::take(&mut *records.lock().expect("no worker panicked"));
    Ok(TracedRep { wall_s, rows, spans, stats, records })
}

/// The rows of the reference devices, each simulated on its own through
/// `DeviceRuntime::step` (single-row classification).
fn reference_rows(
    spec: &ExperimentSpec,
    system: &TrainedSystem,
    fleet: &FleetSpec,
) -> Result<Vec<DeviceSummary>, String> {
    let scheduler = FleetScheduler::new(spec, system);
    REFERENCE_DEVICES
        .iter()
        .map(|&device_id| {
            let plan = fleet.device_plan(device_id);
            let mut runtime = DeviceRuntime::for_source(
                spec,
                system,
                fleet.controller,
                scheduler.device_source(fleet, &plan),
                plan.scenario.duration_s(),
            )
            .map_err(|e| e.to_string())?
            .with_recording(false)
            .with_classifier(system.backend(plan.backend))
            .with_tx(TxSetup::ble(TX_RATIO).with_seed(plan.seed));
            runtime.run_to_completion();
            let faulted = runtime.source().faulted_captures();
            let meta = RowMeta {
                device_id,
                seed: plan.seed,
                routine: plan.routine,
                backend: plan.backend,
                start_epoch: 0,
            };
            Ok(summary(meta, &runtime, faulted))
        })
        .collect()
}

/// Windows and streams of a few of the job's own devices, for the stages.
fn stage_inputs(
    spec: &ExperimentSpec,
    system: &TrainedSystem,
    fleet: &FleetSpec,
) -> Result<StageInputs, String> {
    let scheduler = FleetScheduler::new(spec, system);
    let mut traces = Vec::new();
    for device_id in 0..STAGE_DEVICES {
        let plan = fleet.device_plan(device_id);
        let mut runtime = DeviceRuntime::for_source(
            spec,
            system,
            fleet.controller,
            TraceRecorder::new(scheduler.device_source(fleet, &plan)),
            plan.scenario.duration_s(),
        )
        .map_err(|e| e.to_string())?
        .with_recording(false)
        .with_classifier(system.backend(plan.backend));
        runtime.run_to_completion();
        traces.push(runtime.source().trace().clone());
    }
    let streams = traces.iter().map(|t| Arc::from(t.encode())).collect();
    Ok(StageInputs::sample(&traces.iter().collect::<Vec<_>>(), streams))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let fleet = fleet_spec(args.seed);
    // The job's inputs are its device plans: realised routines, fault plans
    // and backend assignments, all drawn from the seed.
    let setup: Setup<Vec<u64>> = set_up(
        |_, _| {
            Ok((0..DEVICES)
                .map(|id| {
                    let plan = fleet.device_plan(id);
                    fnv([plan.seed, plan.scenario.duration_s().to_bits(), plan.backend as u64])
                })
                .collect())
        },
        |prints: &Vec<u64>| fnv(prints.iter().copied()),
    )?;
    let (spec, system) = (&setup.spec, &setup.system);
    let workers = args.workers();
    let scheduler = FleetScheduler::new(spec, system).with_threads(workers);
    let reference = reference_rows(spec, system, &fleet)?;

    let mut out = Outcome::default();
    let mut reps: Vec<Rep> = Vec::new();
    let mut traced_reps: Vec<TracedRep> = Vec::new();
    let mut first_rows: Option<Vec<DeviceSummary>> = None;
    let begin = now_ns();
    loop {
        let (rep, rows) = untraced_rep(&scheduler, &fleet)?;
        out.attempted += DEVICES;
        out.failed += check_rows(&rows, &reference, first_rows.as_deref());
        if args.trace {
            let traced = traced_rep(spec, system, &fleet, workers)?;
            out.attempted += DEVICES;
            // The traced loop must reproduce the scheduler's rows exactly.
            out.failed += mismatches(&traced.rows, &rows);
            traced_reps.push(traced);
        }
        first_rows.get_or_insert(rows);
        reps.push(rep);
        let elapsed = (now_ns() - begin) as f64 / 1e9;
        let per_round = elapsed / reps.len() as f64;
        if elapsed + per_round / 2.0 > args.seconds {
            break;
        }
    }
    let report = &reps[0].report;
    if reps.iter().any(|r| r.report.encode() != report.encode()) {
        return Err("repeated runs of the same job produced different reports".to_string());
    }

    out.set_setup(setup.times);
    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let rates: Vec<f64> = reps.iter().map(|r| r.epochs as f64 / r.wall_s).collect();
    let lags: Vec<f64> =
        reps.iter().flat_map(|r| r.lags_ns.iter().map(|&n| n as f64 / 1e6)).collect();
    let turnarounds: Vec<f64> =
        reps.iter().flat_map(|r| r.turnarounds_ns.iter().map(|&n| n as f64 / 1e6)).collect();
    out.set("ticks_per_s", median(&rates));
    out.set("lag_p50_ms", percentile(&lags, 50.0));
    out.set("lag_p99_ms", percentile(&lags, 99.0));
    out.set("join_p50_ms", median(&turnarounds));
    out.set("accuracy_pct", 100.0 * report.mean_accuracy());
    out.set("mean_current_ua", report.mean_current_ua());
    out.note(format!(
        "fleet_scenario: closed loop, {DEVICES} devices x {DURATION_S} s, {} repetitions, \
         {} classified epochs each, walls {walls:.3?} s, {} row latencies",
        reps.len(),
        report.total_epochs(),
        lags.len()
    ));

    if args.trace {
        layer_metrics(&mut out, args, &setup, &fleet, &reps, traced_reps, workers)?;
    }
    Ok(out)
}

/// Counts devices whose row differs from the reference devices' standalone
/// rows or from the first repetition's rows.
fn check_rows(
    rows: &[DeviceSummary],
    reference: &[DeviceSummary],
    first: Option<&[DeviceSummary]>,
) -> u64 {
    if rows.len() != DEVICES as usize
        || rows.iter().enumerate().any(|(i, r)| r.device_id != i as u64)
    {
        return DEVICES;
    }
    let mut failed =
        reference.iter().filter(|expected| rows[expected.device_id as usize] != **expected).count()
            as u64;
    if let Some(first) = first {
        failed += mismatches(rows, first);
    }
    failed.min(DEVICES)
}

fn mismatches(rows: &[DeviceSummary], expected: &[DeviceSummary]) -> u64 {
    if rows.len() != expected.len() {
        return expected.len() as u64;
    }
    rows.iter().zip(expected).filter(|(a, b)| a != b).count() as u64
}

fn layer_metrics(
    out: &mut Outcome,
    args: &Args,
    setup: &Setup<Vec<u64>>,
    fleet: &FleetSpec,
    reps: &[Rep],
    traced: Vec<TracedRep>,
    workers: usize,
) -> Result<(), String> {
    let (spec, system) = (&setup.spec, &setup.system);
    let mut stats = LoopStats::new();
    let mut meters = Meters::new();
    let mut spans: Vec<Span> = Vec::new();
    let mut traced_walls = Vec::new();
    for rep in traced {
        stats.merge(&rep.stats);
        meters.add(rep.records);
        spans.extend(rep.spans);
        traced_walls.push(rep.wall_s);
    }
    meters.report(out, stats.worker_ns);
    stats.report(out, &meters);

    let report = &reps[0].report;
    out.set(
        "tx.compressed_share",
        report.tx_epochs(TxPolicy::Compressed) as f64 / report.total_epochs() as f64,
    );
    out.set("ml.cascade_exit_rate", report.cascade_exit_rate());
    let wall: f64 = reps.iter().map(|r| r.wall_s).sum();
    let cpu: Option<f64> = reps.iter().map(|r| r.cpu_s).sum();
    out.set_probe("fleet.cpu_util", cpu.map(|c| c / (wall * workers as f64)));
    out.set_overhead(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>(), &traced_walls);

    let mut inputs = stage_inputs(spec, system, fleet)?;
    inputs.capture_weights = meters.captures.iter().map(|&n| n as f64).collect();
    inputs.compressed_weights = stats.compressed.iter().map(|&n| n as f64).collect();
    set_stages(out, system, &inputs, stats.rows_per_batch());

    spans.append(&mut meters.spans);
    out.write_spans(args, &spans);
    Ok(())
}
