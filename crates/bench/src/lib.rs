//! # adasense-bench
//!
//! Benchmark and experiment harness for the AdaSense reproduction.
//!
//! This crate contains two things:
//!
//! * **Experiment binaries** (`src/bin/`), one per paper table/figure.  Each binary
//!   trains the HAR system, runs the corresponding experiment from
//!   [`adasense::experiments`] and prints the same rows/series the paper reports.
//!   Pass `--quick` for a reduced, fast run or `--paper` (the default) for the
//!   full-scale reproduction.
//! * **Criterion benches** (`benches/`), which measure the runtime cost of the
//!   pipeline components (feature extraction, classification, controller decisions,
//!   sensor capture) and of the experiment building blocks.
//!
//! The library part only holds small helpers shared by the binaries.

use adasense::prelude::*;

/// How large an experiment the binaries should run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunScale {
    /// Reduced dataset and shorter scenarios — finishes in seconds.
    Quick,
    /// The paper-scale experiment.
    Paper,
}

impl RunScale {
    /// Parses the scale from command-line arguments: `--quick` selects
    /// [`RunScale::Quick`], anything else (including `--paper`) the full run.
    pub fn from_args() -> Self {
        if std::env::args().any(|a| a == "--quick") {
            RunScale::Quick
        } else {
            RunScale::Paper
        }
    }

    /// The experiment specification for this scale.
    pub fn spec(self) -> ExperimentSpec {
        match self {
            RunScale::Quick => ExperimentSpec::quick(),
            RunScale::Paper => ExperimentSpec::paper(),
        }
    }

    /// The stability-sweep settings for this scale.
    pub fn sweep_settings(self) -> experiments::StabilitySweepSettings {
        match self {
            RunScale::Quick => experiments::StabilitySweepSettings::quick(),
            RunScale::Paper => experiments::StabilitySweepSettings::paper(),
        }
    }

    /// The intensity-comparison settings for this scale.
    pub fn iba_settings(self) -> experiments::IbaComparisonSettings {
        match self {
            RunScale::Quick => experiments::IbaComparisonSettings::quick(),
            RunScale::Paper => experiments::IbaComparisonSettings::paper(),
        }
    }
}

/// The string following `name` on the command line, or an error if the value is
/// missing.  Shared by the experiment binaries (a silently ignored flag would
/// run the default configuration and still exit 0).
///
/// # Errors
///
/// Returns a message naming the flag when no value follows it.
pub fn string_arg(name: &str) -> Result<Option<String>, String> {
    let mut args = std::env::args();
    while let Some(arg) = args.next() {
        if arg == name {
            return args.next().map(Some).ok_or_else(|| format!("{name} requires a value"));
        }
    }
    Ok(None)
}

/// The integer following `name` on the command line, or an error if it is
/// missing or not a number.
///
/// # Errors
///
/// Returns a message naming the flag when the value is missing or malformed.
pub fn int_arg(name: &str) -> Result<Option<u64>, String> {
    match string_arg(name)? {
        None => Ok(None),
        Some(value) => {
            value.parse().map(Some).map_err(|_| format!("{name} expects an integer, got `{value}`"))
        }
    }
}

/// Records the listed devices of `fleet` as wire-format telemetry traces,
/// each `(device_id, length_s)` pair for `length_s` seconds, by replaying
/// the device's scenario through a standalone runtime under a
/// `TraceRecorder`.  `telemetry_serve` serves these traces, `reactor_fleet
/// --churn` builds its reference from them, and `telemetry_replay` writes
/// them to trace files.  A full-lifetime recording passes the device plan's
/// `scenario.duration_s()`; a churn soak passes each
/// [`ChurnEntry::lifetime_s`].
///
/// # Errors
///
/// Propagates runtime construction errors.
pub fn record_fleet_traces(
    spec: &ExperimentSpec,
    system: &TrainedSystem,
    fleet: &FleetSpec,
    lengths: impl IntoIterator<Item = (u64, f64)>,
) -> Result<Vec<(u64, TelemetryTrace)>, AdaSenseError> {
    let scheduler = FleetScheduler::new(spec, system);
    lengths
        .into_iter()
        .map(|(device_id, length_s)| {
            let plan = fleet.device_plan(device_id);
            let recorder =
                adasense::ingest::TraceRecorder::new(scheduler.device_source(fleet, &plan));
            let mut runtime =
                DeviceRuntime::for_source(spec, system, fleet.controller, recorder, length_s)?
                    .with_classifier(system.backend(plan.backend));
            runtime.run_to_completion();
            Ok((device_id, runtime.source().trace().clone()))
        })
        .collect()
}

/// One device's lifetime in a churn soak: when it joins the fleet clock and
/// how much of the full duration it streams before departing.  Produced by
/// [`churn_plan`], consumed identically by `telemetry_serve --churn` (trace
/// lengths, JOIN start-epochs) and `reactor_fleet --churn` (reference
/// lifetimes, feed metadata) — the two processes must agree or the
/// byte-identity gate fails, which is the point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnEntry {
    /// The device's id within the fleet.
    pub device_id: u64,
    /// Fleet epoch at which the device joins the cohort (0 = present from
    /// the start).
    pub start_epoch: u64,
    /// Seconds of its scenario the device streams before its trace ends.
    pub lifetime_s: f64,
    /// Whether the device departs before the full fleet duration.
    pub departed: bool,
}

/// The deterministic churn schedule for a `devices`-strong soak over
/// `duration_s` seconds: every odd device joins late (half the fleet), every
/// `4k+2` device departs early (a quarter), and lifetimes/start-epochs vary
/// with the device id so no two shards of the timeline look alike.
pub fn churn_plan(devices: u64, duration_s: f64) -> Vec<ChurnEntry> {
    (0..devices)
        .map(|device_id| {
            let start_epoch = if device_id % 2 == 1 { 1 + device_id % 7 } else { 0 };
            let departed = device_id % 4 == 2;
            let lifetime_s = if departed {
                // A quarter, half or three quarters of the run, but never
                // below one full capture window.
                ((device_id % 3 + 1) as f64 * duration_s / 4.0).max(2.0)
            } else {
                duration_s
            };
            ChurnEntry { device_id, start_epoch, lifetime_s, departed }
        })
        .collect()
}

/// Trains the HAR system for the selected scale, printing a short progress note.
///
/// # Errors
///
/// Propagates training errors from [`TrainedSystem::train`].
pub fn train_system(scale: RunScale) -> Result<(ExperimentSpec, TrainedSystem), AdaSenseError> {
    let spec = scale.spec();
    eprintln!(
        "[adasense-bench] training on {} windows across {} configurations…",
        spec.dataset.total_windows(),
        spec.dataset.configs.len()
    );
    let system = TrainedSystem::train(&spec)?;
    eprintln!(
        "[adasense-bench] unified classifier held-out accuracy: {:.2}%",
        100.0 * system.unified_test_accuracy()
    );
    Ok((spec, system))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_plan_is_deterministic_and_hits_the_soak_quotas() {
        let plan = churn_plan(512, 8.0);
        assert_eq!(plan.len(), 512);
        assert_eq!(plan.iter().filter(|e| e.start_epoch > 0).count(), 256, "half join late");
        assert_eq!(plan.iter().filter(|e| e.departed).count(), 128, "a quarter depart early");
        assert!(plan.iter().all(|e| e.lifetime_s >= 2.0 && e.lifetime_s <= 8.0));
        assert!(plan.iter().filter(|e| e.departed).all(|e| e.lifetime_s < 8.0));
        assert_eq!(plan, churn_plan(512, 8.0), "the schedule is a pure function of its inputs");
    }

    #[test]
    fn scales_map_to_the_expected_specs() {
        assert_eq!(RunScale::Quick.spec(), ExperimentSpec::quick());
        assert_eq!(RunScale::Paper.spec(), ExperimentSpec::paper());
        assert!(
            RunScale::Paper.sweep_settings().thresholds.len()
                > RunScale::Quick.sweep_settings().thresholds.len()
        );
        assert!(
            RunScale::Paper.iba_settings().scenario_duration_s
                > RunScale::Quick.iba_settings().scenario_duration_s
        );
    }
}
