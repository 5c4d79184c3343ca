//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fleet_scenario|live_burst|live_churn> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Builds its inputs from `--seed`, sets up (trains the HAR system and
//! generates the workload's inputs) several times and reports the median,
//! measures for about `--seconds` seconds, checks every output against a
//! reference, prints one line per metric and, as the last line of standard
//! output, one JSON object.  `--trace 0` reports the end-to-end metrics;
//! `--trace 1` runs traced and untraced repetitions and reports the
//! per-layer metrics.  A run whose outputs are wrong exits with code 1.
//! See `perfbench/README.md` for the workloads and what each metric means.

mod fleet;
mod live;
mod lockstep;
mod meter;
mod probe;
mod stats;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};

use adasense::{ExperimentSpec, TrainedSystem};

use crate::stats::median;

/// End-to-end metrics, in output order, with their units.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("ticks_per_s", "1/s"),
    ("lag_p50_ms", "ms"),
    ("lag_p99_ms", "ms"),
    ("join_p50_ms", "ms"),
    ("accuracy_pct", "%"),
    ("mean_current_ua", "uA"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, in output order, with their units.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("capture.us", "us"),
    ("capture.us.F100_A128", "us"),
    ("capture.us.F50_A16", "us"),
    ("capture.us.F12.5_A16", "us"),
    ("capture.us.F12.5_A8", "us"),
    ("capture.share", "share"),
    ("tick.begin_self_us", "us"),
    ("tick.complete_us", "us"),
    ("tx.compressed_share", "share"),
    ("dsp.project_us", "us"),
    ("dsp.extract_us", "us"),
    ("dsp.extract_us.F100_A128", "us"),
    ("dsp.extract_us.F50_A16", "us"),
    ("dsp.extract_us.F12.5_A16", "us"),
    ("dsp.extract_us.F12.5_A8", "us"),
    ("ml.classify_us_per_row.cascade", "us"),
    ("ml.classify_us_per_row.f64", "us"),
    ("ml.rows_per_batch", "rows"),
    ("ml.cascade_exit_rate", "share"),
    ("fleet.cpu_util", "share"),
    ("fleet.self_us_per_tick", "us"),
    ("ingest.decode_us_per_mib", "us/MiB"),
    ("ingest.wait_us_per_batch", "us"),
    ("reactor.cpu_us_per_batch", "us"),
    ("reactor.wakeups_per_batch", "count"),
    ("reactor.wakeups_per_s", "1/s"),
    ("reactor.batches", "count"),
    ("reactor.failed", "count"),
    ("reactor.reconnects", "count"),
    ("reactor.joined", "count"),
    ("reactor.peak_open", "count"),
    ("join.dial_ms", "ms"),
    ("serve.cpu_us_per_batch", "us"),
    ("serve.wakeups_per_batch", "count"),
    ("serve.parked", "count"),
    ("serve.dropped", "count"),
    ("gen.late_p50_ms", "ms"),
    ("gen.late_p99_ms", "ms"),
    ("setup.train_s", "s"),
    ("setup.record_s", "s"),
    ("failed_share", "share"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_pct", "%"),
];

/// How many times a run sets up, to report the median set-up time.
const SETUPS: usize = 5;

/// The parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut values: BTreeMap<String, String> = BTreeMap::new();
        let mut args = args.skip(1);
        while let Some(flag) = args.next() {
            let name = match flag.as_str() {
                "--workload" | "--seed" | "--seconds" | "--trace" => flag,
                other => return Err(format!("unknown argument `{other}`")),
            };
            let value = args.next().ok_or_else(|| format!("{name} needs a value"))?;
            values.insert(name, value);
        }
        let take = |name: &str| values.get(name).ok_or_else(|| format!("{name} is required"));
        let number = |name: &str| -> Result<u64, String> {
            take(name)?.parse().map_err(|_| format!("{name} expects a whole number"))
        };
        let workload = take("--workload")?.clone();
        if !["fleet_scenario", "live_burst", "live_churn"].contains(&workload.as_str()) {
            return Err(format!("unknown workload `{workload}`"));
        }
        let seconds = number("--seconds")?;
        if seconds == 0 {
            return Err("--seconds must be at least 1".to_string());
        }
        let trace = match number("--trace")? {
            0 => false,
            1 => true,
            _ => return Err("--trace expects 0 or 1".to_string()),
        };
        Ok(Self { workload, seed: number("--seed")?, seconds: seconds as f64, trace })
    }

    /// Worker threads and generator threads are capped at the machine's
    /// parallelism and at two, the size of the machine the bounds were set on.
    pub fn workers(&self) -> usize {
        std::thread::available_parallelism().map(usize::from).unwrap_or(1).min(2)
    }
}

/// What a workload measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Device sessions run and sessions whose output disagreed with the
    /// reference (or whose feed failed).
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, Option<f64>>,
    /// Human-readable context printed before the metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, Some(value));
    }

    /// A figure whose probe could not be read on this machine.
    pub fn set_probe(&mut self, name: &'static str, value: Option<f64>) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn set_setup(&mut self, times: SetupTimes) {
        self.set("setup_s", times.setup_s);
        self.set("setup.train_s", times.train_s);
        self.set("setup.record_s", times.record_s);
    }

    /// Tracing overhead: the median traced wall minus the median untraced
    /// wall.
    pub fn set_overhead(&mut self, untraced_s: &[f64], traced_s: &[f64]) {
        let (plain, traced) = (median(untraced_s), median(traced_s));
        self.set("trace.overhead_s", traced - plain);
        self.set("trace.overhead_pct", 100.0 * (traced - plain) / plain);
    }

    /// Writes the spans to `.bench_out/` in the working directory.
    pub fn write_spans(&mut self, args: &Args, spans: &[meter::Span]) {
        let path = std::path::PathBuf::from(".bench_out")
            .join(format!("{}-seed{}.spans.tsv", args.workload, args.seed));
        match meter::write_spans(&path, spans) {
            Ok(()) => self.note(format!("{} spans written to {}", spans.len(), path.display())),
            Err(e) => self.note(format!("spans not written to {}: {e}", path.display())),
        }
    }
}

/// The trained system every workload shares, plus the workload's inputs.
pub struct Setup<T> {
    pub spec: ExperimentSpec,
    pub system: TrainedSystem,
    pub inputs: T,
    pub times: SetupTimes,
}

/// Median seconds of the whole set-up, of training, and of generating
/// inputs, over [`SETUPS`] repetitions.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub setup_s: f64,
    pub train_s: f64,
    pub record_s: f64,
}

/// Trains the system and builds the workload's inputs [`SETUPS`] times,
/// keeping only the last; every repetition must produce the same inputs
/// (`fingerprint`) and the same trained system.
pub fn set_up<T>(
    mut inputs: impl FnMut(&ExperimentSpec, &TrainedSystem) -> Result<T, String>,
    fingerprint: impl Fn(&T) -> u64,
) -> Result<Setup<T>, String> {
    let (mut totals, mut trains, mut records) = (Vec::new(), Vec::new(), Vec::new());
    let mut seen: Option<(u64, u64)> = None;
    let mut kept: Option<Setup<T>> = None;
    for _ in 0..SETUPS {
        // Drop the previous repetition first, so only one is ever resident.
        drop(kept.take());
        let start = std::time::Instant::now();
        let spec = ExperimentSpec::quick();
        let system = TrainedSystem::train(&spec).map_err(|e| format!("training failed: {e}"))?;
        let trained = start.elapsed().as_secs_f64();
        let made = inputs(&spec, &system)?;
        let total = start.elapsed().as_secs_f64();
        let print = (system.unified_test_accuracy().to_bits(), fingerprint(&made));
        if seen.is_some_and(|s| s != print) {
            return Err("two set-ups from the same seed produced different inputs".to_string());
        }
        seen = Some(print);
        totals.push(total);
        trains.push(trained);
        records.push(total - trained);
        kept = Some(Setup { spec, system, inputs: made, times: SetupTimes::default() });
    }
    let mut setup = kept.expect("at least one set-up ran");
    setup.times = SetupTimes {
        setup_s: median(&totals),
        train_s: median(&trains),
        record_s: median(&records),
    };
    Ok(setup)
}

/// FNV-1a over 64-bit words: a cheap fingerprint of generated inputs.
pub fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for word in words {
        hash = (hash ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn json_number(value: Option<f64>) -> String {
    match value {
        Some(v) if v.is_finite() => format!("{v}"),
        _ => "null".to_string(),
    }
}

/// A run that has not finished by then is stuck; it exits non-zero without
/// printing a result.
const WATCHDOG_S: u64 = 175;

/// Wakes every millisecond until `stop`, so the virtual CPUs never idle long
/// enough for the host to stop polling them.  On the 2-vCPU virtual machine
/// the bounds were set on, an idle guest CPU's wake-up latency drifts between
/// two modes over tens of seconds; the live workloads wait on wake-ups, and
/// without this thread `live_burst`'s `ticks_per_s` moved by a third between
/// runs.  It costs about one percent of one CPU.
fn keep_awake(stop: &AtomicBool) {
    while !stop.load(Ordering::Relaxed) {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

fn main() {
    meter::origin();
    std::thread::spawn(|| {
        std::thread::sleep(std::time::Duration::from_secs(WATCHDOG_S));
        eprintln!("perfbench: still running after {WATCHDOG_S} s; giving up");
        std::process::exit(3);
    });
    let args = match Args::parse(std::env::args()) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload <fleet_scenario|live_burst|live_churn> --seed <n> \
                 --seconds <n> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let stop = AtomicBool::new(false);
    let result = std::thread::scope(|scope| {
        scope.spawn(|| keep_awake(&stop));
        let result = match args.workload.as_str() {
            "fleet_scenario" => fleet::run(&args),
            "live_burst" => live::run_burst(&args),
            _ => live::run_churn(&args),
        };
        stop.store(true, Ordering::Relaxed);
        result
    });
    let mut outcome = match result {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("perfbench: {} failed: {message}", args.workload);
            std::process::exit(1);
        }
    };
    outcome.set_probe("peak_rss_mib", probe::peak_rss_mib());
    outcome.note(format!(
        "workers {} (available parallelism {})",
        args.workers(),
        std::thread::available_parallelism().map(usize::from).unwrap_or(1)
    ));
    outcome.set(
        "failed_share",
        if outcome.attempted == 0 { 1.0 } else { outcome.failed as f64 / outcome.attempted as f64 },
    );

    for line in &outcome.notes {
        println!("# {line}");
    }
    let catalog: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::new();
    for (name, unit) in catalog {
        let value = match outcome.metrics.get(name) {
            Some(value) => *value,
            // A layer this workload's path never reaches did no work.
            None if args.trace => Some(0.0),
            None => unreachable!("every workload reports end-to-end metric {name}"),
        };
        let shown = value.map_or("unavailable".to_string(), |v| format!("{v:.6}"));
        println!("# {name:<32} {shown:>18} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    );
    if !correct {
        eprintln!(
            "perfbench: {} of {} sessions disagreed with the reference",
            outcome.failed, outcome.attempted
        );
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        Args::parse(
            std::iter::once("perfbench".to_string()).chain(line.split(' ').map(String::from)),
        )
    }

    #[test]
    fn the_command_line_is_strict() {
        let parsed = args("--workload live_churn --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!((parsed.seed, parsed.seconds, parsed.trace), (7, 10.0, true));
        assert!(args("--workload nope --seed 7 --seconds 10 --trace 0").is_err());
        assert!(args("--workload live_churn --seed 7 --seconds 10 --trace 2").is_err());
        assert!(args("--workload live_churn --seconds 10 --trace 0").is_err());
        assert!(args("--workload live_churn --seed 7 --seconds 10 --trace 0 --x 1").is_err());
    }

    /// The metric catalogs here and in `BENCHMARK.json` must agree.
    #[test]
    fn catalogs_match_the_benchmark_definition() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = text.matches("\"unit\":").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists other metrics"
        );
    }
}
