//! The benchmark-side traced lockstep loop and the stage calls.
//!
//! The scheduler's lockstep loop is private, so the traced run drives the
//! same device runtimes through this copy of it: the same chunking, the same
//! per-backend batch pools resolved in device order, and a span around every
//! call into the runtime and the classifier.  Rows it produces must equal the
//! scheduler's, which is the traced run's oracle.
//!
//! Stage calls time one public function at a time on the workload's own
//! inputs, for the layers the fleet path cannot split: decode, extraction,
//! projection + reconstruction, and batch classification.  Stages run in
//! interleaved repeats and report medians.

use adasense::fleet::DeviceSummary;
use std::sync::Arc;

use adasense::ingest::{FrameKind, StreamParser, TelemetryTrace};
use adasense::runtime::{DeviceRuntime, SampleSource, TickPhase};
use adasense::TrainedSystem;
use adasense_dsp::{ProjectionScratch, SparseProjection};
use adasense_ml::{BackendKind, CascadeStage, Prediction};
use adasense_sensor::{Sample3, SensorConfig, TelemetryBatch, TxPolicy};

use crate::meter::{chunk_tick_id, epoch_id, now_ns, Metered, Meters, Span, SpanKind};
use crate::stats::median;
use crate::Outcome;

/// The compression ratio of the fleet workload's radios.
pub const TX_RATIO: u32 = 4;

/// The summary metadata of one device the loop drives.
#[derive(Debug, Clone)]
pub struct RowMeta {
    pub device_id: u64,
    pub seed: u64,
    pub routine: String,
    pub backend: BackendKind,
    pub start_epoch: u64,
}

/// What the traced loop measured, summed over every chunk it ran.
#[derive(Debug, Clone, Default)]
pub struct LoopStats {
    pub begin_ns: u64,
    pub begin_calls: u64,
    pub complete_ns: u64,
    pub completes: u64,
    pub predict_ns: u64,
    pub predict_calls: u64,
    pub predict_rows: u64,
    /// Classified epochs whose window went out compressed, per config index.
    pub compressed: Vec<u64>,
    /// Wall time of the worker threads that ran the loop.
    pub worker_ns: u64,
}

impl LoopStats {
    pub fn new() -> Self {
        Self { compressed: vec![0; SensorConfig::COUNT], ..Self::default() }
    }

    /// Records the tick-loop figures: begin_tick's self time (without the
    /// capture and status spans the `meters` of its sources covered),
    /// complete_tick, rows per batch, and worker time no span covers.
    pub fn report(&self, out: &mut Outcome, meters: &Meters) {
        let per_tick = |ns: u64| ns as f64 / 1e3 / self.begin_calls.max(1) as f64;
        let children = meters.capture_ns.iter().sum::<u64>() + meters.wait_ns;
        out.set("tick.begin_self_us", per_tick(self.begin_ns.saturating_sub(children)));
        out.set("tick.complete_us", self.complete_ns as f64 / 1e3 / self.completes.max(1) as f64);
        out.set("ml.rows_per_batch", self.rows_per_batch());
        let covered = self.begin_ns + self.predict_ns + self.complete_ns;
        out.set("fleet.self_us_per_tick", per_tick(self.worker_ns.saturating_sub(covered)));
    }

    pub fn rows_per_batch(&self) -> f64 {
        self.predict_rows as f64 / self.predict_calls.max(1) as f64
    }

    pub fn merge(&mut self, other: &LoopStats) {
        self.begin_ns += other.begin_ns;
        self.begin_calls += other.begin_calls;
        self.complete_ns += other.complete_ns;
        self.completes += other.completes;
        self.predict_ns += other.predict_ns;
        self.predict_calls += other.predict_calls;
        self.predict_rows += other.predict_rows;
        for (a, b) in self.compressed.iter_mut().zip(&other.compressed) {
            *a += b;
        }
        self.worker_ns += other.worker_ns;
    }
}

/// One lockstep tick's retained pool of feature rows for one backend.
#[derive(Default)]
struct Pool {
    rows: Vec<Vec<f64>>,
    members: Vec<usize>,
    used: usize,
}

/// Runs one chunk of runtimes to completion in lockstep, recording spans into
/// `spans` and sums into `stats`, and returns one summary row per device
/// (with `faulted` giving a source's fault exposure).  The runtimes are
/// dropped on return, which hands each [`Metered`] record to its sink.
pub fn run_chunk<S: SampleSource>(
    system: &TrainedSystem,
    chunk: u64,
    metas: Vec<RowMeta>,
    mut runtimes: Vec<DeviceRuntime<'_, Metered<S>>>,
    faulted: impl Fn(&S) -> usize,
    spans: &mut Vec<Span>,
    stats: &mut LoopStats,
) -> Vec<DeviceSummary> {
    let mut pools: Vec<Pool> = BackendKind::ALL.iter().map(|_| Pool::default()).collect();
    let mut predictions: Vec<Prediction> = Vec::new();
    let mut stages: Vec<CascadeStage> = Vec::new();
    let mut tick = 0;
    loop {
        tick += 1;
        let tick_id = chunk_tick_id(chunk, tick);
        let tick_start = now_ns();
        for pool in &mut pools {
            pool.members.clear();
            pool.used = 0;
        }
        let mut any_live = false;
        for (i, runtime) in runtimes.iter_mut().enumerate() {
            if runtime.is_complete() {
                continue;
            }
            let compressed_before = runtime.tx_tally().epochs[TxPolicy::Compressed.index()];
            let start = now_ns();
            let phase = runtime.begin_tick();
            let end = now_ns();
            stats.begin_ns += end - start;
            stats.begin_calls += 1;
            spans.push(Span {
                kind: SpanKind::BeginTick,
                id: epoch_id(metas[i].device_id, runtime.ticks() as u64),
                parent: tick_id,
                start_ns: start,
                end_ns: end,
                detail: 0,
            });
            match phase {
                TickPhase::Exhausted => {}
                TickPhase::Idle(_) => any_live = true,
                TickPhase::Classify => {
                    any_live = true;
                    if runtime.tx_tally().epochs[TxPolicy::Compressed.index()] > compressed_before {
                        let config = runtime.source().last_config().expect("a window was captured");
                        stats.compressed[config.index()] += 1;
                    }
                    assert!(
                        runtime.batches_with_unified(),
                        "every benchmark device classifies with its unified backend"
                    );
                    let pool = &mut pools[backend_index(metas[i].backend)];
                    pool.members.push(i);
                    if pool.used == pool.rows.len() {
                        pool.rows.push(Vec::new());
                    }
                    let row = &mut pool.rows[pool.used];
                    row.clear();
                    row.extend_from_slice(runtime.pending_features());
                    pool.used += 1;
                }
            }
        }
        if !any_live {
            break;
        }
        for (pool, kind) in pools.iter().zip(BackendKind::ALL) {
            if pool.used == 0 {
                continue;
            }
            let start = now_ns();
            system.backend(kind).predict_batch_staged(
                &pool.rows[..pool.used],
                &mut predictions,
                &mut stages,
            );
            let end = now_ns();
            stats.predict_ns += end - start;
            stats.predict_calls += 1;
            stats.predict_rows += pool.used as u64;
            spans.push(Span {
                kind: SpanKind::PredictBatch,
                id: tick_id,
                parent: tick_id,
                start_ns: start,
                end_ns: end,
                detail: pool.used as u32,
            });
            for ((&i, prediction), stage) in
                pool.members.iter().zip(predictions.drain(..)).zip(stages.drain(..))
            {
                let start = now_ns();
                runtimes[i].complete_tick_staged(prediction, stage);
                let end = now_ns();
                stats.complete_ns += end - start;
                stats.completes += 1;
                spans.push(Span {
                    kind: SpanKind::CompleteTick,
                    id: epoch_id(metas[i].device_id, runtimes[i].ticks() as u64),
                    parent: tick_id,
                    start_ns: start,
                    end_ns: end,
                    detail: 0,
                });
            }
        }
        spans.push(Span {
            kind: SpanKind::ChunkTick,
            id: tick_id,
            parent: 0,
            start_ns: tick_start,
            end_ns: now_ns(),
            detail: 0,
        });
    }
    metas
        .into_iter()
        .zip(&runtimes)
        .map(|(meta, runtime)| summary(meta, runtime, faulted(runtime.source().inner())))
        .collect()
}

/// The summary row the scheduler writes for a device, built the same way.
pub fn summary<S: SampleSource>(
    meta: RowMeta,
    runtime: &DeviceRuntime<'_, S>,
    faulted_epochs: usize,
) -> DeviceSummary {
    let tally = runtime.cascade_tally();
    let tx = runtime.tx_tally();
    DeviceSummary {
        device_id: meta.device_id,
        seed: meta.seed,
        routine: meta.routine,
        backend: meta.backend.label().to_string(),
        faulted_epochs,
        epochs: runtime.epochs(),
        correct_epochs: runtime.correct_epochs(),
        early_exit_epochs: tally.early_exit_epochs,
        early_exit_correct: tally.early_exit_correct,
        escalated_epochs: tally.escalated_epochs,
        escalated_correct: tally.escalated_correct,
        accuracy: runtime.accuracy(),
        average_current_ua: runtime.average_current_ua(),
        total_charge_uc: runtime.total_charge().micro_coulombs(),
        duration_s: runtime.elapsed_s(),
        residency_s: runtime.residency_seconds().to_vec(),
        tx_epochs: tx.epochs.to_vec(),
        tx_bytes: tx.bytes.to_vec(),
        tx_charge_uc: tx.charge_uc.to_vec(),
        start_epoch: meta.start_epoch,
        departed: false,
    }
}

fn backend_index(kind: BackendKind) -> usize {
    BackendKind::ALL.iter().position(|k| *k == kind).expect("ALL lists every backend kind")
}

// ---------------------------------------------------------------------------
// Stage calls
// ---------------------------------------------------------------------------

/// The workload's own inputs for the stage calls.
pub struct StageInputs {
    /// Sample windows per configuration index.
    pub windows: Vec<Vec<Vec<Sample3>>>,
    /// The workload's wire streams, as it sends them.
    pub streams: Vec<Arc<[u8]>>,
    /// How often the workload captures each configuration (weights the
    /// per-config extraction cost into one mean).
    pub capture_weights: Vec<f64>,
    /// How often each configuration's window went out compressed (weights
    /// the projection cost); all zero where nothing is compressed, and the
    /// capture weights apply instead.
    pub compressed_weights: Vec<f64>,
}

/// Windows kept per configuration for the stage calls.
const WINDOWS_PER_CONFIG: usize = 48;
/// Of those, windows projected and reconstructed per repeat.
const PROJECTED_PER_CONFIG: usize = 8;

impl StageInputs {
    /// Samples windows evenly from recorded traces whose wire encodings are
    /// `streams`.
    pub fn sample(traces: &[&TelemetryTrace], streams: Vec<Arc<[u8]>>) -> Self {
        let mut windows: Vec<Vec<Vec<Sample3>>> = vec![Vec::new(); SensorConfig::COUNT];
        let mut capture_weights = vec![0.0; SensorConfig::COUNT];
        for batch in traces.iter().flat_map(|t| t.batches.iter()) {
            capture_weights[batch.config.index()] += 1.0;
        }
        for (index, total) in capture_weights.iter().enumerate() {
            if *total == 0.0 {
                continue;
            }
            let stride = (*total as usize / WINDOWS_PER_CONFIG).max(1);
            windows[index] = traces
                .iter()
                .flat_map(|t| t.batches.iter())
                .filter(|b| b.config.index() == index)
                .step_by(stride)
                .take(WINDOWS_PER_CONFIG)
                .map(|b| b.samples.clone())
                .collect();
        }
        Self {
            windows,
            streams,
            capture_weights,
            compressed_weights: vec![0.0; SensorConfig::COUNT],
        }
    }
}

/// Median per-stage costs over interleaved repeats.
#[derive(Debug, Clone, Default)]
pub struct StageResults {
    /// µs per window, per configuration index (NaN where none was sampled).
    pub extract_us: Vec<f64>,
    pub extract_us_mean: f64,
    /// µs per window projected and reconstructed on three axes, weighted
    /// over the compressed configurations.
    pub project_us: f64,
    /// µs per row at `batch_rows` rows per call: (cascade, f64).
    pub classify_us_per_row: (f64, f64),
    pub decode_us_per_mib: f64,
}

/// Runs every stage `repeats` times, interleaved, and returns the medians.
pub fn run_stages(
    system: &TrainedSystem,
    inputs: &StageInputs,
    batch_rows: usize,
    repeats: usize,
) -> StageResults {
    let extractor = system.extractor();
    let configs: Vec<usize> =
        (0..SensorConfig::COUNT).filter(|&c| !inputs.windows[c].is_empty()).collect();
    let mut features = Vec::new();
    let mut rows: Vec<Vec<f64>> = Vec::new();
    for &c in &configs {
        let hz = SensorConfig::from_index(c).expect("a valid index").frequency.hz();
        for window in &inputs.windows[c] {
            extractor.extract_into(window, hz, &mut features);
            rows.push(features.clone());
        }
    }
    let batch_rows = batch_rows.clamp(1, rows.len().max(1));
    let batches: Vec<Vec<Vec<f64>>> =
        rows.chunks(batch_rows).filter(|c| c.len() == batch_rows).map(|c| c.to_vec()).collect();

    let mut extract_samples = vec![Vec::new(); SensorConfig::COUNT];
    let mut project_samples = vec![Vec::new(); SensorConfig::COUNT];
    let mut classify_samples = [Vec::new(), Vec::new()];
    let mut decode_samples = Vec::new();
    let mut scratch = ProjectionScratch::default();
    let (mut axis, mut measurements, mut recon) = (Vec::new(), Vec::new(), Vec::new());
    let mut predictions = Vec::new();
    let mut stages = Vec::new();
    let mut batch = TelemetryBatch::placeholder();
    for _ in 0..repeats {
        for &c in &configs {
            let hz = SensorConfig::from_index(c).expect("a valid index").frequency.hz();
            let windows = &inputs.windows[c];
            let start = now_ns();
            for window in windows {
                extractor.extract_into(std::hint::black_box(window), hz, &mut features);
                std::hint::black_box(&features);
            }
            extract_samples[c].push((now_ns() - start) as f64 / 1e3 / windows.len() as f64);

            // Reconstruction costs milliseconds per large window; a few
            // windows per configuration keep the stage short.
            let projected = &windows[..windows.len().min(PROJECTED_PER_CONFIG)];
            let start = now_ns();
            for (i, window) in projected.iter().enumerate() {
                let n = window.len();
                let projection = SparseProjection::new(i as u64, n, TX_RATIO);
                axis.resize(n, 0.0);
                measurements.resize(projection.output_len(), 0.0);
                recon.resize(n, 0.0);
                for pick in [|s: &Sample3| s.x, |s: &Sample3| s.y, |s: &Sample3| s.z] {
                    for (slot, sample) in axis.iter_mut().zip(window) {
                        *slot = pick(sample);
                    }
                    projection.project_into(&axis, &mut measurements);
                    projection.reconstruct_into(&measurements, &mut recon, &mut scratch);
                    std::hint::black_box(&recon);
                }
            }
            project_samples[c].push((now_ns() - start) as f64 / 1e3 / projected.len() as f64);
        }
        for (slot, kind) in [BackendKind::Cascade, BackendKind::F64].into_iter().enumerate() {
            let classifier = system.backend(kind);
            let start = now_ns();
            for batch in &batches {
                classifier.predict_batch_staged(
                    std::hint::black_box(batch),
                    &mut predictions,
                    &mut stages,
                );
                std::hint::black_box(&predictions);
            }
            let rows = (batches.len() * batch_rows).max(1);
            classify_samples[slot].push((now_ns() - start) as f64 / 1e3 / rows as f64);
        }
        let start = now_ns();
        let mut bytes = 0usize;
        for stream in &inputs.streams {
            let mut parser = StreamParser::telemetry();
            for block in stream.chunks(8192) {
                parser.feed(block);
                while let Some(kind) = parser.next_frame(&mut batch).expect("own streams decode") {
                    std::hint::black_box(kind == FrameKind::Batch);
                }
            }
            bytes += stream.len();
        }
        let mib = bytes as f64 / (1024.0 * 1024.0);
        decode_samples.push((now_ns() - start) as f64 / 1e3 / mib.max(1e-12));
    }

    let extract_us: Vec<f64> =
        extract_samples.iter().map(|s| if s.is_empty() { f64::NAN } else { median(s) }).collect();
    let project_us: Vec<f64> =
        project_samples.iter().map(|s| if s.is_empty() { f64::NAN } else { median(s) }).collect();
    let project_weights = if inputs.compressed_weights.iter().sum::<f64>() > 0.0 {
        &inputs.compressed_weights
    } else {
        &inputs.capture_weights
    };
    StageResults {
        extract_us_mean: weighted(&extract_us, &inputs.capture_weights),
        extract_us,
        project_us: weighted(&project_us, project_weights),
        classify_us_per_row: (median(&classify_samples[0]), median(&classify_samples[1])),
        decode_us_per_mib: median(&decode_samples),
    }
}

/// Runs the stage calls at `rows_per_batch` rows per classification and
/// records their medians.
pub fn set_stages(
    out: &mut Outcome,
    system: &TrainedSystem,
    inputs: &StageInputs,
    rows_per_batch: f64,
) {
    let stages = run_stages(system, inputs, rows_per_batch.round() as usize, 15);
    out.set("dsp.extract_us", stages.extract_us_mean);
    for (name, config) in [
        "dsp.extract_us.F100_A128",
        "dsp.extract_us.F50_A16",
        "dsp.extract_us.F12.5_A16",
        "dsp.extract_us.F12.5_A8",
    ]
    .into_iter()
    .zip(SensorConfig::paper_pareto_front())
    {
        // A configuration the workload never captured costs it nothing.
        let value = stages.extract_us[config.index()];
        out.set(name, if value.is_finite() { value } else { 0.0 });
    }
    out.set("dsp.project_us", stages.project_us);
    out.set("ml.classify_us_per_row.cascade", stages.classify_us_per_row.0);
    out.set("ml.classify_us_per_row.f64", stages.classify_us_per_row.1);
    out.set("ingest.decode_us_per_mib", stages.decode_us_per_mib);
}

/// The `weights`-weighted mean of the finite `values`.
fn weighted(values: &[f64], weights: &[f64]) -> f64 {
    let (mut sum, mut total) = (0.0, 0.0);
    for (v, w) in values.iter().zip(weights) {
        if v.is_finite() && *w > 0.0 {
            sum += v * w;
            total += w;
        }
    }
    sum / total
}
