//! The scenario library: daily-routine scripts, population priors and sensor
//! fault injection.
//!
//! The paper evaluates AdaSense only on dwell-time-randomized activity switches
//! (the High/Medium/Low settings of Fig. 7).  Real deployments are harsher and
//! more structured at the same time: people live *routines* (office days,
//! active commutes, nights in bed), populations mix those routines in uneven
//! proportions, and sensors fail transiently.  This module provides the three
//! missing axes as composable pieces:
//!
//! * [`RoutineScript`] — a cycle of [`JitteredSegment`]s realized into an
//!   [`ActivitySchedule`] of any duration; [`RoutinePreset`] names the built-in
//!   scripts (`office_day`, `active_commute`, `sedentary_night`).
//! * [`PopulationPrior`] / [`PopulationSpec`] — per-device routine assignment
//!   and per-device dwell-time bias, both derived deterministically from the
//!   device seed, so heterogeneous cohorts stay bit-reproducible at any worker
//!   count.
//! * [`FaultLevel`] / [`FaultPlan`] / [`FaultInjector`] — a decorator over any
//!   [`SampleSource`] that injects sensor dropout windows, stuck axes and noise
//!   bursts ([`FaultKind`]) into the captured sample stream, with per-kind time
//!   budgets that never exceed the configured fractions.
//! * [`BackendSpec`] — per-device inference-backend assignment (full-precision
//!   f64 vs quantized int8, see [`BackendKind`]), again a pure function of the
//!   device seed.
//!
//! The fleet scheduler ([`crate::fleet`]) wires all three through
//! [`FleetSpec::population`](crate::fleet::FleetSpec::population), and the
//! `scenario_sweep` binary reports SPOT vs static-hold accuracy/power under
//! each routine and fault level.

use adasense_data::{Activity, ActivitySchedule, JitteredSegment};
use adasense_ml::BackendKind;
use adasense_sensor::{FaultKind, Sample3, SensorConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::error::AdaSenseError;
use crate::fleet::device_seed;
use crate::runtime::{SampleSource, SourceStatus};
use crate::simulation::ScenarioSpec;

/// Salt mixed into the device seed to derive the routine-assignment stream.
const ROUTINE_SALT: u64 = 0x0052_4F55_5449_4E45;
/// Salt mixed into the device seed to derive the fault-plan stream.
const FAULT_PLAN_SALT: u64 = 0xFA17_9A11;
/// Salt mixed into the device seed to derive the fault-application stream
/// (noise-burst randomness).
const FAULT_RNG_SALT: u64 = 0xFA17_0B57;
/// Salt mixed into the device seed to derive the backend-assignment stream.
const BACKEND_SALT: u64 = 0x00BA_C4E2_D000_0001;

/// The per-device dwell-scale factors accepted by [`RoutineScript::realize`]
/// and [`PopulationPrior::validate`].  The bounds cap how many segments one
/// realized routine can hold: a microscopic scale would otherwise build a
/// multi-million-segment schedule per device instead of failing fast.
pub const DWELL_SCALE_BOUNDS: std::ops::RangeInclusive<f64> = 0.01..=100.0;

// ---------------------------------------------------------------------------
// Routine scripts
// ---------------------------------------------------------------------------

/// The built-in daily-routine scripts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RoutinePreset {
    /// Long sitting blocks broken by short walks, stair trips and stand-ups.
    OfficeDay,
    /// Mostly walking with stairs, waits and a short sit.
    ActiveCommute,
    /// Lying down with brief interruptions (a typical night).
    SedentaryNight,
}

impl RoutinePreset {
    /// All built-in presets, in the order the `scenario_sweep` binary reports.
    pub const ALL: [RoutinePreset; 3] =
        [RoutinePreset::OfficeDay, RoutinePreset::ActiveCommute, RoutinePreset::SedentaryNight];

    /// The snake_case name used by reports and the CLI.
    pub fn label(self) -> &'static str {
        match self {
            RoutinePreset::OfficeDay => "office_day",
            RoutinePreset::ActiveCommute => "active_commute",
            RoutinePreset::SedentaryNight => "sedentary_night",
        }
    }

    /// Parses a preset from its [`label`](RoutinePreset::label).
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|p| p.label() == name)
    }

    /// The script this preset names.
    pub fn script(self) -> RoutineScript {
        match self {
            RoutinePreset::OfficeDay => RoutineScript::office_day(),
            RoutinePreset::ActiveCommute => RoutineScript::active_commute(),
            RoutinePreset::SedentaryNight => RoutineScript::sedentary_night(),
        }
    }
}

impl std::fmt::Display for RoutinePreset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A daily-routine script: a named cycle of jittered segments.
///
/// Realizing a script walks the cycle, drawing each segment's dwell time from
/// its jitter range (scaled by the device's dwell bias), until the requested
/// duration is covered — so the same script yields statistically matched but
/// distinct timelines across seeds.
///
/// # Examples
///
/// ```
/// use adasense::scenario::RoutineScript;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let script = RoutineScript::office_day();
/// let schedule = script.realize(600.0, 1.0, &mut StdRng::seed_from_u64(7));
/// assert!(schedule.total_duration_s() >= 600.0);
/// // The same seed realizes the same timeline.
/// let again = script.realize(600.0, 1.0, &mut StdRng::seed_from_u64(7));
/// assert_eq!(schedule, again);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoutineScript {
    /// Name used in reports.
    pub name: String,
    /// The repeating cycle of jittered segments.
    pub blocks: Vec<JitteredSegment>,
}

impl RoutineScript {
    /// Creates a script from an explicit block cycle.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is empty.
    pub fn new(name: impl Into<String>, blocks: Vec<JitteredSegment>) -> Self {
        assert!(!blocks.is_empty(), "a routine script needs at least one block");
        Self { name: name.into(), blocks }
    }

    /// Office day: long sitting blocks broken by short walks, one stair trip
    /// and stand-ups.
    pub fn office_day() -> Self {
        Self::new(
            "office_day",
            vec![
                JitteredSegment::new(Activity::Sit, 40.0, 0.3),
                JitteredSegment::new(Activity::Walk, 8.0, 0.4),
                JitteredSegment::new(Activity::Sit, 35.0, 0.3),
                JitteredSegment::new(Activity::Stand, 6.0, 0.5),
                JitteredSegment::new(Activity::Upstairs, 4.0, 0.4),
                JitteredSegment::new(Activity::Sit, 30.0, 0.3),
                JitteredSegment::new(Activity::Walk, 6.0, 0.4),
                JitteredSegment::new(Activity::Downstairs, 4.0, 0.4),
            ],
        )
    }

    /// Active commute: mostly walking, with stairs, platform waits and a short
    /// ride.
    pub fn active_commute() -> Self {
        Self::new(
            "active_commute",
            vec![
                JitteredSegment::new(Activity::Walk, 25.0, 0.3),
                JitteredSegment::new(Activity::Upstairs, 6.0, 0.3),
                JitteredSegment::new(Activity::Walk, 20.0, 0.3),
                JitteredSegment::new(Activity::Stand, 8.0, 0.5),
                JitteredSegment::new(Activity::Downstairs, 6.0, 0.3),
                JitteredSegment::new(Activity::Walk, 15.0, 0.4),
                JitteredSegment::new(Activity::Sit, 10.0, 0.5),
            ],
        )
    }

    /// Sedentary night: long lying blocks with brief interruptions.
    pub fn sedentary_night() -> Self {
        Self::new(
            "sedentary_night",
            vec![
                JitteredSegment::new(Activity::LieDown, 90.0, 0.2),
                JitteredSegment::new(Activity::Sit, 10.0, 0.5),
                JitteredSegment::new(Activity::LieDown, 70.0, 0.2),
                JitteredSegment::new(Activity::Stand, 4.0, 0.5),
                JitteredSegment::new(Activity::Walk, 5.0, 0.4),
                JitteredSegment::new(Activity::LieDown, 80.0, 0.2),
            ],
        )
    }

    /// Realizes the script into a schedule covering at least `duration_s`
    /// seconds, cycling the blocks and scaling every dwell by `dwell_scale`
    /// (the per-device transition bias; `1.0` is neutral).
    ///
    /// # Panics
    ///
    /// Panics if `dwell_scale` is outside [`DWELL_SCALE_BOUNDS`] — a microscopic
    /// scale would otherwise grow the segment list without practical bound
    /// before the duration is covered.
    pub fn realize<R: Rng + ?Sized>(
        &self,
        duration_s: f64,
        dwell_scale: f64,
        rng: &mut R,
    ) -> ActivitySchedule {
        assert!(
            DWELL_SCALE_BOUNDS.contains(&dwell_scale),
            "dwell scale {dwell_scale} is outside {DWELL_SCALE_BOUNDS:?}"
        );
        let mut segments = Vec::new();
        let mut elapsed = 0.0;
        'outer: loop {
            for block in &self.blocks {
                let segment = block.realize(dwell_scale, rng);
                elapsed += segment.duration_s;
                segments.push(segment);
                if elapsed >= duration_s {
                    break 'outer;
                }
            }
        }
        segments.into_iter().collect()
    }

    /// Realizes the script into a [`ScenarioSpec`] for `seed` — the routine
    /// counterpart of [`ScenarioSpec::random`].  The schedule rng and the
    /// scenario's subject/noise seeds all derive from `seed`.
    pub fn scenario(&self, duration_s: f64, dwell_scale: f64, seed: u64) -> ScenarioSpec {
        let mut rng = StdRng::seed_from_u64(seed);
        ScenarioSpec::from_schedule(self.realize(duration_s, dwell_scale, &mut rng), seed)
    }
}

// ---------------------------------------------------------------------------
// Population priors
// ---------------------------------------------------------------------------

/// What one device was assigned by a [`PopulationPrior`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceProfile {
    /// The routine the device lives, or `None` for the legacy dwell-randomized
    /// timeline of [`FleetSpec::setting`](crate::fleet::FleetSpec::setting).
    pub routine: Option<RoutinePreset>,
    /// The device's dwell-time bias: every routine dwell is scaled by this
    /// factor (slow movers > 1, restless subjects < 1).
    pub dwell_scale: f64,
}

/// Population-level activity prior: which routines a cohort lives, in which
/// proportions, and how much per-subject dwell bias to apply.
///
/// Assignment is a pure function of the device seed, so a population splits
/// identically across any sharding or worker count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PopulationPrior {
    /// `(routine, weight)` mix.  Weights are relative; an empty mix means every
    /// device replays the legacy dwell-randomized setting.
    pub mix: Vec<(RoutinePreset, f64)>,
    /// Range the per-device dwell-time bias is drawn from (uniform).
    pub dwell_scale_range: (f64, f64),
}

impl PopulationPrior {
    /// The legacy prior: no routines, neutral dwell bias — every device replays
    /// the fleet's dwell-randomized [`ActivityChangeSetting`]
    /// (matching the pre-scenario-library behaviour bit for bit).
    ///
    /// [`ActivityChangeSetting`]: adasense_data::ActivityChangeSetting
    pub fn legacy() -> Self {
        Self { mix: Vec::new(), dwell_scale_range: (1.0, 1.0) }
    }

    /// A single-routine cohort with neutral dwell bias.
    pub fn single(routine: RoutinePreset) -> Self {
        Self { mix: vec![(routine, 1.0)], dwell_scale_range: (1.0, 1.0) }
    }

    /// A default heterogeneous cohort: half office days, a third commutes, the
    /// rest nights, with ±25 % per-subject dwell bias.
    pub fn mixed() -> Self {
        Self {
            mix: vec![
                (RoutinePreset::OfficeDay, 3.0),
                (RoutinePreset::ActiveCommute, 2.0),
                (RoutinePreset::SedentaryNight, 1.0),
            ],
            dwell_scale_range: (0.75, 1.25),
        }
    }

    /// Checks the prior for consistency.
    ///
    /// # Errors
    ///
    /// Returns [`AdaSenseError::InvalidSpec`] for negative/non-finite weights,
    /// an all-zero mix, or a degenerate dwell-scale range.
    pub fn validate(&self) -> Result<(), AdaSenseError> {
        let mut total = 0.0;
        for (routine, weight) in &self.mix {
            if !weight.is_finite() || *weight < 0.0 {
                return Err(AdaSenseError::invalid_spec(format!(
                    "routine {routine} has invalid weight {weight}"
                )));
            }
            total += weight;
        }
        if !self.mix.is_empty() && total <= 0.0 {
            return Err(AdaSenseError::invalid_spec("the routine mix has no positive weight"));
        }
        let (lo, hi) = self.dwell_scale_range;
        let bounded = lo.is_finite() && hi.is_finite() && DWELL_SCALE_BOUNDS.contains(&lo);
        if !bounded || hi < lo || hi > *DWELL_SCALE_BOUNDS.end() {
            return Err(AdaSenseError::invalid_spec(format!(
                "dwell-scale range ({lo}, {hi}) must satisfy \
                 {} <= lo <= hi <= {}",
                DWELL_SCALE_BOUNDS.start(),
                DWELL_SCALE_BOUNDS.end()
            )));
        }
        Ok(())
    }

    /// Assigns a routine and dwell bias to the device with the given seed.
    ///
    /// The assignment stream is decorrelated from the device's schedule/noise
    /// streams by salting the seed, so adding a population to an existing fleet
    /// never perturbs the underlying signal randomness.
    pub fn assign(&self, seed: u64) -> DeviceProfile {
        let mut rng = StdRng::seed_from_u64(device_seed(seed, ROUTINE_SALT));
        let routine = if self.mix.is_empty() {
            None
        } else {
            let total: f64 = self.mix.iter().map(|(_, w)| w).sum();
            let mut pick = rng.random_range(0.0..total);
            let mut chosen = self.mix.last().map(|(r, _)| *r);
            for (routine, weight) in &self.mix {
                if pick < *weight {
                    chosen = Some(*routine);
                    break;
                }
                pick -= weight;
            }
            chosen
        };
        let (lo, hi) = self.dwell_scale_range;
        let dwell_scale = if hi > lo { rng.random_range(lo..hi) } else { lo };
        DeviceProfile { routine, dwell_scale }
    }
}

impl Default for PopulationPrior {
    fn default() -> Self {
        Self::legacy()
    }
}

/// How a cohort's devices are assigned their inference backend
/// ([`BackendKind`]): uniformly, or as a deterministic per-device mix.
///
/// Like routine assignment, the backend of one device is a pure function of
/// its seed (via a salted stream), so heterogeneous-backend fleets stay
/// bit-reproducible at any worker count or sharding.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum BackendSpec {
    /// Every device runs the same backend.  `Uniform(BackendKind::F64)` is the
    /// default and reproduces the historic full-precision fleet bit for bit.
    Uniform(BackendKind),
    /// Each device is assigned int8 with probability `int8_fraction` (and f64
    /// otherwise), deterministically from its seed.
    Mixed {
        /// Fraction of the cohort on the int8 backend, in `[0, 1]`.
        int8_fraction: f64,
    },
    /// Each device is assigned the early-exit cascade with probability
    /// `cascade_fraction` (and f64 otherwise), deterministically from its
    /// seed — the heterogeneous cohort for comparing the cascade against the
    /// full-precision path within one fleet.
    MixedCascade {
        /// Fraction of the cohort on the cascade backend, in `[0, 1]`.
        cascade_fraction: f64,
    },
}

impl BackendSpec {
    /// A half-and-half f64/int8 cohort.
    pub fn half_int8() -> Self {
        BackendSpec::Mixed { int8_fraction: 0.5 }
    }

    /// A half-and-half f64/cascade cohort.
    pub fn half_cascade() -> Self {
        BackendSpec::MixedCascade { cascade_fraction: 0.5 }
    }

    /// Checks the spec for consistency.
    ///
    /// # Errors
    ///
    /// Returns [`AdaSenseError::InvalidSpec`] if the int8 fraction is outside
    /// `[0, 1]` or not finite.
    pub fn validate(&self) -> Result<(), AdaSenseError> {
        let (name, fraction) = match self {
            BackendSpec::Uniform(_) => return Ok(()),
            BackendSpec::Mixed { int8_fraction } => ("int8_fraction", *int8_fraction),
            BackendSpec::MixedCascade { cascade_fraction } => {
                ("cascade_fraction", *cascade_fraction)
            }
        };
        if !fraction.is_finite() || !(0.0..=1.0).contains(&fraction) {
            return Err(AdaSenseError::invalid_spec(format!(
                "{name} {fraction} must lie in [0, 1]"
            )));
        }
        Ok(())
    }

    /// The backend of the device with the given seed.  A pure function of
    /// `(self, seed)`: the assignment stream is salted so it never perturbs
    /// the device's schedule, noise or fault randomness.
    pub fn assign(&self, seed: u64) -> BackendKind {
        match self {
            BackendSpec::Uniform(kind) => *kind,
            BackendSpec::Mixed { int8_fraction } => {
                let mut rng = StdRng::seed_from_u64(device_seed(seed, BACKEND_SALT));
                if rng.random_range(0.0..1.0) < *int8_fraction {
                    BackendKind::Int8
                } else {
                    BackendKind::F64
                }
            }
            BackendSpec::MixedCascade { cascade_fraction } => {
                // Same salted stream as `Mixed`: a device sitting at the same
                // fraction quantile gets the non-f64 backend either way.
                let mut rng = StdRng::seed_from_u64(device_seed(seed, BACKEND_SALT));
                if rng.random_range(0.0..1.0) < *cascade_fraction {
                    BackendKind::Cascade
                } else {
                    BackendKind::F64
                }
            }
        }
    }
}

impl Default for BackendSpec {
    fn default() -> Self {
        BackendSpec::Uniform(BackendKind::F64)
    }
}

/// A full population description: the routine prior, the fault level every
/// device's sensor is exposed to, and the inference-backend assignment.
/// [`FleetSpec`](crate::fleet::FleetSpec) carries one of these.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct PopulationSpec {
    /// Routine mix and per-device dwell bias.
    pub prior: PopulationPrior,
    /// Sensor-fault exposure of the cohort.
    pub fault: FaultLevel,
    /// How devices are assigned their inference backend.
    pub backend: BackendSpec,
}

impl PopulationSpec {
    /// The legacy population: dwell-randomized timelines, no faults, every
    /// device on the full-precision f64 backend.  Fleets built with this
    /// population reproduce the pre-scenario-library reports bit for bit.
    pub fn legacy() -> Self {
        Self {
            prior: PopulationPrior::legacy(),
            fault: FaultLevel::None,
            backend: BackendSpec::default(),
        }
    }

    /// A single-routine cohort under the given fault level (f64 backend).
    pub fn single(routine: RoutinePreset, fault: FaultLevel) -> Self {
        Self { prior: PopulationPrior::single(routine), fault, backend: BackendSpec::default() }
    }

    /// The default heterogeneous cohort under the given fault level (f64
    /// backend).
    pub fn mixed(fault: FaultLevel) -> Self {
        Self { prior: PopulationPrior::mixed(), fault, backend: BackendSpec::default() }
    }

    /// Replaces the backend assignment of this population.
    pub fn with_backend(mut self, backend: BackendSpec) -> Self {
        self.backend = backend;
        self
    }

    /// Checks the population for consistency (see [`PopulationPrior::validate`]
    /// and [`BackendSpec::validate`]).
    ///
    /// # Errors
    ///
    /// Returns [`AdaSenseError::InvalidSpec`] for an inconsistent prior or
    /// backend mix.
    pub fn validate(&self) -> Result<(), AdaSenseError> {
        self.prior.validate()?;
        self.backend.validate()
    }
}

// ---------------------------------------------------------------------------
// Fault levels, plans and the injector
// ---------------------------------------------------------------------------

/// How much transient sensor failure a cohort is exposed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum FaultLevel {
    /// Pristine sensors (the paper's implicit assumption).
    #[default]
    None,
    /// Occasional short faults: ~2 % dropout, ~3 % stuck axis, ~5 % noise
    /// bursts.
    Light,
    /// Degraded hardware: ~10 % dropout, ~10 % stuck axis, ~15 % noise bursts.
    Heavy,
}

impl FaultLevel {
    /// All levels, mildest first.
    pub const ALL: [FaultLevel; 3] = [FaultLevel::None, FaultLevel::Light, FaultLevel::Heavy];

    /// The name used by reports and the CLI.
    pub fn label(self) -> &'static str {
        match self {
            FaultLevel::None => "none",
            FaultLevel::Light => "light",
            FaultLevel::Heavy => "heavy",
        }
    }

    /// Parses a level from its [`label`](FaultLevel::label).
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|l| l.label() == name)
    }

    /// The concrete time-budget parameters of this level.
    pub fn profile(self) -> FaultProfile {
        match self {
            FaultLevel::None => FaultProfile {
                dropout_fraction: 0.0,
                stuck_fraction: 0.0,
                burst_fraction: 0.0,
                burst_std_g: 0.0,
                window_s: (1.0, 4.0),
                gap_s: (10.0, 30.0),
            },
            FaultLevel::Light => FaultProfile {
                dropout_fraction: 0.02,
                stuck_fraction: 0.03,
                burst_fraction: 0.05,
                burst_std_g: 0.15,
                window_s: (1.0, 4.0),
                gap_s: (10.0, 30.0),
            },
            FaultLevel::Heavy => FaultProfile {
                dropout_fraction: 0.10,
                stuck_fraction: 0.10,
                burst_fraction: 0.15,
                burst_std_g: 0.35,
                window_s: (2.0, 8.0),
                gap_s: (4.0, 15.0),
            },
        }
    }
}

impl std::fmt::Display for FaultLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Time-budget parameters of one fault level: for each fault kind, the maximum
/// fraction of the run it may cover, plus the window/gap length ranges.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultProfile {
    /// Maximum fraction of the run covered by dropout windows.
    pub dropout_fraction: f64,
    /// Maximum fraction covered by stuck-axis windows.
    pub stuck_fraction: f64,
    /// Maximum fraction covered by noise bursts.
    pub burst_fraction: f64,
    /// Standard deviation of burst noise, in g.
    pub burst_std_g: f64,
    /// Length range of one fault window, in seconds.
    pub window_s: (f64, f64),
    /// Gap range between consecutive windows of the same kind, in seconds.
    pub gap_s: (f64, f64),
}

/// One scheduled fault: a time window and the transform active inside it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultWindow {
    /// Start of the window, in seconds.
    pub start_s: f64,
    /// End of the window (exclusive), in seconds.
    pub end_s: f64,
    /// The fault active during the window.
    pub kind: FaultKind,
}

impl FaultWindow {
    /// Length of the window, in seconds.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// The precomputed fault timeline of one device: which transform is active
/// when.  Generated once per device from a salted seed, so the plan — like the
/// schedule — is a pure function of `(base_seed, device_id)`.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    windows: Vec<FaultWindow>,
}

impl FaultPlan {
    /// An empty plan (pristine sensor).
    pub fn none() -> Self {
        Self::default()
    }

    /// Generates the fault timeline for a run of `duration_s` seconds.
    ///
    /// Each fault kind gets its own derived randomness stream and its own time
    /// budget (`fraction × duration_s`); the summed window lengths of a kind
    /// never exceed that budget.  Windows of different kinds may overlap, which
    /// mirrors real failure modes (a noisy axis can also drop out).
    pub fn generate(profile: FaultProfile, duration_s: f64, seed: u64) -> Self {
        let mut windows = Vec::new();
        let stuck_axis_of = |rng: &mut StdRng| FaultKind::StuckAxis(rng.random_range(0..3usize));
        Self::fill(
            &mut windows,
            profile.dropout_fraction,
            duration_s,
            profile,
            StdRng::seed_from_u64(device_seed(seed, 1)),
            |_| FaultKind::Dropout,
        );
        Self::fill(
            &mut windows,
            profile.stuck_fraction,
            duration_s,
            profile,
            StdRng::seed_from_u64(device_seed(seed, 2)),
            stuck_axis_of,
        );
        Self::fill(
            &mut windows,
            profile.burst_fraction,
            duration_s,
            profile,
            StdRng::seed_from_u64(device_seed(seed, 3)),
            |_| FaultKind::NoiseBurst { std_g: profile.burst_std_g },
        );
        windows.sort_by(|a, b| a.start_s.total_cmp(&b.start_s));
        Self { windows }
    }

    /// Lays out the windows of one fault kind along the run.
    fn fill(
        windows: &mut Vec<FaultWindow>,
        fraction: f64,
        duration_s: f64,
        profile: FaultProfile,
        mut rng: StdRng,
        kind_of: impl Fn(&mut StdRng) -> FaultKind,
    ) {
        if fraction <= 0.0 || duration_s <= 0.0 {
            return;
        }
        let mut budget = fraction * duration_s;
        let (win_lo, win_hi) = profile.window_s;
        let (gap_lo, gap_hi) = profile.gap_s;
        // Start after a partial gap so faults are not synchronized to t = 0.
        let mut t = rng.random_range(0.0..gap_hi);
        while budget > 0.25 && t < duration_s {
            let len = rng.random_range(win_lo..win_hi).min(budget).min(duration_s - t);
            if len <= 0.0 {
                break;
            }
            let kind = kind_of(&mut rng);
            windows.push(FaultWindow { start_s: t, end_s: t + len, kind });
            budget -= len;
            t += len + rng.random_range(gap_lo..gap_hi);
        }
    }

    /// The scheduled fault windows, sorted by start time.
    pub fn windows(&self) -> &[FaultWindow] {
        &self.windows
    }

    /// Whether the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Total seconds covered by dropout windows.
    pub fn dropout_seconds(&self) -> f64 {
        self.seconds_of(|k| matches!(k, FaultKind::Dropout))
    }

    /// Total seconds covered by stuck-axis windows.
    pub fn stuck_seconds(&self) -> f64 {
        self.seconds_of(|k| matches!(k, FaultKind::StuckAxis(_)))
    }

    /// Total seconds covered by noise-burst windows.
    pub fn burst_seconds(&self) -> f64 {
        self.seconds_of(|k| matches!(k, FaultKind::NoiseBurst { .. }))
    }

    fn seconds_of(&self, select: impl Fn(&FaultKind) -> bool) -> f64 {
        self.windows.iter().filter(|w| select(&w.kind)).map(FaultWindow::duration_s).sum()
    }
}

/// A composable [`SampleSource`] decorator that injects the faults of a
/// [`FaultPlan`] into the captured sample stream.
///
/// Ground truth passes through untouched — faults corrupt what the *sensor*
/// reports, not what the user does — so recognition accuracy under faults is
/// scored against the true activity.
///
/// # Examples
///
/// ```
/// use adasense::prelude::*;
/// use adasense::scenario::{FaultInjector, FaultPlan};
///
/// let spec = ExperimentSpec::quick();
/// let scenario = ScenarioSpec::sit_then_walk(10.0, 10.0);
/// // An empty plan is a bit-exact pass-through decorator.
/// let mut source =
///     FaultInjector::new(ScenarioSource::new(&spec, &scenario), FaultPlan::none(), 1);
/// let mut window = Vec::new();
/// source.capture_window(SensorConfig::paper_pareto_front()[0], 2.0, 2.0, &mut window);
/// assert!(!window.is_empty());
/// assert_eq!(source.faulted_captures(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct FaultInjector<S> {
    inner: S,
    plan: FaultPlan,
    rng: StdRng,
    captures: usize,
    faulted_captures: usize,
}

impl<S> FaultInjector<S> {
    /// Wraps `inner`, injecting the faults of `plan`.  `seed` drives the
    /// randomness of noise bursts (pure transforms consume none).
    pub fn new(inner: S, plan: FaultPlan, seed: u64) -> Self {
        Self { inner, plan, rng: StdRng::seed_from_u64(seed), captures: 0, faulted_captures: 0 }
    }

    /// Convenience constructor from a fault level: generates the plan for a run
    /// of `duration_s` seconds using streams salted off the device seed.
    pub fn for_device(
        inner: S,
        level: FaultLevel,
        duration_s: f64,
        device_seed_value: u64,
    ) -> Self {
        let plan = FaultPlan::generate(
            level.profile(),
            duration_s,
            device_seed(device_seed_value, FAULT_PLAN_SALT),
        );
        Self::new(inner, plan, device_seed(device_seed_value, FAULT_RNG_SALT))
    }

    /// The fault timeline being injected.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Number of windows captured so far.
    pub fn captures(&self) -> usize {
        self.captures
    }

    /// Number of captured windows that overlapped at least one fault window —
    /// the device's fault exposure in classification epochs.
    pub fn faulted_captures(&self) -> usize {
        self.faulted_captures
    }

    /// Consumes the decorator, returning the wrapped source.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: SampleSource> SampleSource for FaultInjector<S> {
    fn capture_window(
        &mut self,
        config: SensorConfig,
        t_end: f64,
        window_s: f64,
        out: &mut Vec<Sample3>,
    ) {
        self.inner.capture_window(config, t_end, window_s, out);
        self.captures += 1;
        let start = t_end - window_s;
        let mut faulted = false;
        for fault in &self.plan.windows {
            if fault.end_s <= start {
                continue;
            }
            if fault.start_s >= t_end {
                break; // windows are sorted by start time
            }
            // The captured samples are evenly spaced from `start`; restrict the
            // transform to the ones inside the fault window.
            let lo = out.partition_point(|s| s.t < fault.start_s);
            let hi = out.partition_point(|s| s.t < fault.end_s);
            if lo < hi {
                fault.kind.apply(&mut out[lo..hi], &mut self.rng);
                faulted = true;
            }
        }
        if faulted {
            self.faulted_captures += 1;
        }
    }

    fn ground_truth(&self, t_s: f64) -> Option<Activity> {
        self.inner.ground_truth(t_s)
    }

    fn status(&mut self) -> SourceStatus {
        self.inner.status()
    }

    fn faulted_captures(&self) -> usize {
        self.faulted_captures
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::ScenarioSource;
    use crate::training::ExperimentSpec;

    #[test]
    fn presets_round_trip_their_names() {
        for preset in RoutinePreset::ALL {
            assert_eq!(RoutinePreset::from_name(preset.label()), Some(preset));
            assert!(!preset.script().blocks.is_empty());
        }
        assert_eq!(RoutinePreset::from_name("couch_surfing"), None);
        for level in FaultLevel::ALL {
            assert_eq!(FaultLevel::from_name(level.label()), Some(level));
        }
    }

    #[test]
    fn realized_routines_cover_the_requested_duration() {
        let mut rng = StdRng::seed_from_u64(11);
        for preset in RoutinePreset::ALL {
            let schedule = preset.script().realize(300.0, 1.0, &mut rng);
            assert!(schedule.total_duration_s() >= 300.0, "{preset}");
            assert!(schedule.activity_at(299.0).is_some());
        }
    }

    #[test]
    fn dwell_scale_stretches_the_timeline() {
        let script = RoutineScript::office_day();
        let fast = script.realize(600.0, 0.5, &mut StdRng::seed_from_u64(3));
        let slow = script.realize(600.0, 2.0, &mut StdRng::seed_from_u64(3));
        assert!(
            fast.len() > 2 * slow.len(),
            "halved dwells should need ~4x the segments of doubled dwells ({} vs {})",
            fast.len(),
            slow.len()
        );
    }

    #[test]
    #[should_panic(expected = "dwell scale")]
    fn microscopic_dwell_scales_panic_instead_of_hanging() {
        // realize() is public API; an unvalidated tiny scale must fail fast
        // rather than grow a multi-million-segment schedule.
        let _ = RoutineScript::office_day().realize(600.0, 1e-6, &mut StdRng::seed_from_u64(1));
    }

    #[test]
    fn office_day_is_mostly_sitting_and_night_mostly_lying() {
        let mut rng = StdRng::seed_from_u64(8);
        let office = RoutineScript::office_day().realize(2000.0, 1.0, &mut rng);
        assert!(office.time_in(Activity::Sit) > 0.6 * office.total_duration_s());
        let night = RoutineScript::sedentary_night().realize(2000.0, 1.0, &mut rng);
        assert!(night.time_in(Activity::LieDown) > 0.7 * night.total_duration_s());
        let commute = RoutineScript::active_commute().realize(2000.0, 1.0, &mut rng);
        assert!(commute.time_in(Activity::Walk) > 0.4 * commute.total_duration_s());
    }

    #[test]
    fn prior_assignment_is_deterministic_and_respects_the_mix() {
        let prior = PopulationPrior::mixed();
        prior.validate().unwrap();
        let mut counts = std::collections::BTreeMap::new();
        for id in 0..600u64 {
            let seed = device_seed(42, id);
            let a = prior.assign(seed);
            let b = prior.assign(seed);
            assert_eq!(a, b, "assignment must be a pure function of the seed");
            let routine = a.routine.expect("mixed prior always assigns a routine");
            *counts.entry(routine.label()).or_insert(0usize) += 1;
            assert!(a.dwell_scale >= 0.75 && a.dwell_scale < 1.25);
        }
        // 3:2:1 mix over 600 devices — allow generous sampling slack.
        assert!(counts["office_day"] > counts["active_commute"]);
        assert!(counts["active_commute"] > counts["sedentary_night"]);
        assert!(counts["sedentary_night"] > 40);
    }

    #[test]
    fn legacy_prior_assigns_no_routine() {
        let profile = PopulationPrior::legacy().assign(7);
        assert_eq!(profile.routine, None);
        assert_eq!(profile.dwell_scale, 1.0);
    }

    #[test]
    fn invalid_priors_are_rejected() {
        let negative = PopulationPrior {
            mix: vec![(RoutinePreset::OfficeDay, -1.0)],
            ..PopulationPrior::legacy()
        };
        assert!(negative.validate().is_err());
        let zero_sum = PopulationPrior {
            mix: vec![(RoutinePreset::OfficeDay, 0.0)],
            ..PopulationPrior::legacy()
        };
        assert!(zero_sum.validate().is_err());
        let bad_range =
            PopulationPrior { dwell_scale_range: (0.0, 1.0), ..PopulationPrior::legacy() };
        assert!(bad_range.validate().is_err());
        let inverted =
            PopulationPrior { dwell_scale_range: (2.0, 1.0), ..PopulationPrior::legacy() };
        assert!(inverted.validate().is_err());
        // Scales outside [0.01, 100] would realize absurdly dense (or endless)
        // schedules; they must fail fast instead of hanging in realize().
        let microscopic =
            PopulationPrior { dwell_scale_range: (1e-6, 1.0), ..PopulationPrior::legacy() };
        assert!(microscopic.validate().is_err());
        let astronomic =
            PopulationPrior { dwell_scale_range: (1.0, 1e6), ..PopulationPrior::legacy() };
        assert!(astronomic.validate().is_err());
        assert!(PopulationSpec::mixed(FaultLevel::Heavy).validate().is_ok());
    }

    #[test]
    fn backend_assignment_is_deterministic_and_respects_the_fraction() {
        let spec = BackendSpec::Mixed { int8_fraction: 0.25 };
        spec.validate().unwrap();
        let mut int8 = 0usize;
        for id in 0..800u64 {
            let seed = device_seed(7, id);
            let a = spec.assign(seed);
            assert_eq!(a, spec.assign(seed), "assignment must be a pure function of the seed");
            if a == BackendKind::Int8 {
                int8 += 1;
            }
        }
        // 25 % of 800 with generous sampling slack.
        assert!((120..=280).contains(&int8), "expected ~200 int8 devices, got {int8}");

        assert_eq!(BackendSpec::default().assign(1), BackendKind::F64);
        assert_eq!(BackendSpec::Uniform(BackendKind::Int8).assign(1), BackendKind::Int8);
        assert_eq!(BackendSpec::Mixed { int8_fraction: 0.0 }.assign(9), BackendKind::F64);
        assert_eq!(BackendSpec::Mixed { int8_fraction: 1.0 }.assign(9), BackendKind::Int8);
        assert_eq!(BackendSpec::MixedCascade { cascade_fraction: 0.0 }.assign(9), BackendKind::F64);
        assert_eq!(
            BackendSpec::MixedCascade { cascade_fraction: 1.0 }.assign(9),
            BackendKind::Cascade
        );
        // Same salted draw as `Mixed`: equal fractions pick the same devices.
        for seed in 0..32u64 {
            let int8 = BackendSpec::Mixed { int8_fraction: 0.5 }.assign(seed);
            let cascade = BackendSpec::MixedCascade { cascade_fraction: 0.5 }.assign(seed);
            assert_eq!(int8 == BackendKind::Int8, cascade == BackendKind::Cascade);
        }
    }

    #[test]
    fn invalid_backend_specs_are_rejected() {
        assert!(BackendSpec::Mixed { int8_fraction: -0.1 }.validate().is_err());
        assert!(BackendSpec::Mixed { int8_fraction: 1.1 }.validate().is_err());
        assert!(BackendSpec::Mixed { int8_fraction: f64::NAN }.validate().is_err());
        assert!(BackendSpec::half_int8().validate().is_ok());
        assert!(BackendSpec::MixedCascade { cascade_fraction: 2.0 }.validate().is_err());
        assert!(BackendSpec::half_cascade().validate().is_ok());
        let population =
            PopulationSpec::legacy().with_backend(BackendSpec::Mixed { int8_fraction: 2.0 });
        assert!(population.validate().is_err());
    }

    #[test]
    fn fault_plans_respect_their_budgets() {
        for level in [FaultLevel::Light, FaultLevel::Heavy] {
            let profile = level.profile();
            for seed in 0..50u64 {
                let duration = 400.0;
                let plan = FaultPlan::generate(profile, duration, seed);
                assert!(plan.dropout_seconds() <= profile.dropout_fraction * duration + 1e-9);
                assert!(plan.stuck_seconds() <= profile.stuck_fraction * duration + 1e-9);
                assert!(plan.burst_seconds() <= profile.burst_fraction * duration + 1e-9);
                for w in plan.windows() {
                    assert!(w.start_s >= 0.0 && w.end_s <= duration + 1e-9);
                    assert!(w.duration_s() > 0.0);
                }
                for pair in plan.windows().windows(2) {
                    assert!(pair[0].start_s <= pair[1].start_s, "windows must be sorted");
                }
            }
        }
    }

    #[test]
    fn none_level_generates_an_empty_plan() {
        let plan = FaultPlan::generate(FaultLevel::None.profile(), 1000.0, 9);
        assert!(plan.is_empty());
        assert_eq!(plan.dropout_seconds(), 0.0);
    }

    #[test]
    fn empty_plan_injector_is_a_bit_exact_no_op() {
        let spec = ExperimentSpec::quick();
        let scenario = ScenarioSpec::random(adasense_data::ActivityChangeSetting::Medium, 30.0, 5);
        let mut plain = ScenarioSource::new(&spec, &scenario);
        let mut wrapped =
            FaultInjector::new(ScenarioSource::new(&spec, &scenario), FaultPlan::none(), 77);
        let config = SensorConfig::paper_pareto_front()[0];
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for tick in 2..30 {
            let t_end = tick as f64;
            plain.capture_window(config, t_end, 2.0, &mut a);
            wrapped.capture_window(config, t_end, 2.0, &mut b);
            assert_eq!(a, b, "a fault-free injector must not alter the stream");
            assert_eq!(plain.ground_truth(t_end - 1e-6), wrapped.ground_truth(t_end - 1e-6));
        }
        assert_eq!(wrapped.faulted_captures(), 0);
        assert_eq!(wrapped.captures(), 28);
    }

    #[test]
    fn dropout_windows_zero_the_affected_samples_only() {
        let spec = ExperimentSpec::quick();
        let scenario = ScenarioSpec::sit_then_walk(10.0, 10.0);
        let plan = FaultPlan {
            windows: vec![FaultWindow { start_s: 4.0, end_s: 6.0, kind: FaultKind::Dropout }],
        };
        let mut injector = FaultInjector::new(ScenarioSource::new(&spec, &scenario), plan, 3);
        let config = SensorConfig::paper_pareto_front()[0];
        let mut out = Vec::new();
        injector.capture_window(config, 6.0, 2.0, &mut out);
        assert!(!out.is_empty());
        assert!(out.iter().all(|s| s.axes() == [0.0, 0.0, 0.0]), "window inside the fault");
        injector.capture_window(config, 9.0, 2.0, &mut out);
        assert!(out.iter().any(|s| s.axes() != [0.0, 0.0, 0.0]), "window outside the fault");
        assert_eq!(injector.faulted_captures(), 1);
        assert_eq!(injector.captures(), 2);
    }

    #[test]
    fn heavy_faults_visibly_corrupt_the_stream() {
        let spec = ExperimentSpec::quick();
        let scenario = ScenarioSpec::random(adasense_data::ActivityChangeSetting::Low, 120.0, 21);
        let mut clean = ScenarioSource::new(&spec, &scenario);
        let mut faulty = FaultInjector::for_device(
            ScenarioSource::new(&spec, &scenario),
            FaultLevel::Heavy,
            120.0,
            21,
        );
        let config = SensorConfig::paper_pareto_front()[1];
        let (mut a, mut b) = (Vec::new(), Vec::new());
        let mut differing = 0usize;
        for tick in 2..120 {
            clean.capture_window(config, tick as f64, 2.0, &mut a);
            faulty.capture_window(config, tick as f64, 2.0, &mut b);
            if a != b {
                differing += 1;
            }
        }
        assert!(differing > 5, "heavy faults must corrupt multiple windows, got {differing}");
        assert_eq!(faulty.faulted_captures(), differing);
    }
}
