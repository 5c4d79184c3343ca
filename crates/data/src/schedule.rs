//! Activity timelines: what the simulated user is doing at each instant.
//!
//! The closed-loop experiments of the paper are driven by how often the user changes
//! activity: Fig. 5 uses an explicit "sit 60 s, then walk 60 s" scenario, and Fig. 7
//! compares three *user activity settings* — High (activity changes every ~10 s),
//! Medium, and Low (the user keeps an activity for at least a minute).

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::activity::Activity;

/// Offset subtracted from an epoch's end time when querying its ground-truth
/// label with [`ActivitySchedule::activity_at`], in seconds.
///
/// The device runtime classifies the window ending at `t_end` and scores it
/// against the activity at `t_end - EPOCH_LABEL_OFFSET_S` — an instant just
/// *inside* the epoch, so schedules defined over `[0, duration)` never see an
/// out-of-range query.  Trace recorders use the same offset so recorded labels
/// match what the runtime would have scored.
pub const EPOCH_LABEL_OFFSET_S: f64 = 1e-6;

/// One contiguous stretch of a single activity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Segment {
    /// The activity performed during this segment.
    pub activity: Activity,
    /// Duration of the segment, in seconds.
    pub duration_s: f64,
}

impl Segment {
    /// Creates a segment.
    ///
    /// # Panics
    ///
    /// Panics if `duration_s` is not strictly positive.
    pub fn new(activity: Activity, duration_s: f64) -> Self {
        assert!(duration_s > 0.0, "segment duration must be positive, got {duration_s}");
        Self { activity, duration_s }
    }
}

/// A timeline of activity segments starting at time zero.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ActivitySchedule {
    segments: Vec<Segment>,
}

impl ActivitySchedule {
    /// Creates a schedule from a list of segments.
    pub fn new(segments: Vec<Segment>) -> Self {
        Self { segments }
    }

    /// A fluent builder for explicit schedules.
    pub fn builder() -> ScheduleBuilder {
        ScheduleBuilder::new()
    }

    /// The segments of the schedule.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Total duration of the schedule, in seconds.
    pub fn total_duration_s(&self) -> f64 {
        self.segments.iter().map(|s| s.duration_s).sum()
    }

    /// The activity performed at time `t` seconds.
    ///
    /// Times before zero clamp to the first segment; times at or beyond the end clamp
    /// to the last segment.  Returns `None` only for an empty schedule.
    pub fn activity_at(&self, t: f64) -> Option<Activity> {
        if self.segments.is_empty() {
            return None;
        }
        if t <= 0.0 {
            return Some(self.segments[0].activity);
        }
        let mut elapsed = 0.0;
        for segment in &self.segments {
            elapsed += segment.duration_s;
            if t < elapsed {
                return Some(segment.activity);
            }
        }
        self.segments.last().map(|s| s.activity)
    }

    /// The times (seconds) at which the activity changes.
    pub fn change_times(&self) -> Vec<f64> {
        let mut out = Vec::new();
        let mut elapsed = 0.0;
        for pair in self.segments.windows(2) {
            elapsed += pair[0].duration_s;
            if pair[1].activity != pair[0].activity {
                out.push(elapsed);
            }
        }
        out
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// Whether the schedule has no segments.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Concatenates several schedules into one timeline, in order.
    pub fn concat(parts: impl IntoIterator<Item = ActivitySchedule>) -> Self {
        let mut segments = Vec::new();
        for part in parts {
            segments.extend(part.segments);
        }
        Self { segments }
    }

    /// Total seconds this schedule spends in `activity`.
    pub fn time_in(&self, activity: Activity) -> f64 {
        self.segments.iter().filter(|s| s.activity == activity).map(|s| s.duration_s).sum()
    }

    /// The Fig. 5 scenario of the paper: sit for `sit_s` seconds, then walk for
    /// `walk_s` seconds.
    pub fn sit_then_walk(sit_s: f64, walk_s: f64) -> Self {
        Self::builder().then(Activity::Sit, sit_s).then(Activity::Walk, walk_s).build()
    }

    /// Generates a randomized schedule of roughly `total_duration_s` seconds in which
    /// the dwell time of each activity follows `setting`.
    ///
    /// Consecutive segments always have different activities.
    pub fn random<R: Rng + ?Sized>(
        setting: ActivityChangeSetting,
        total_duration_s: f64,
        rng: &mut R,
    ) -> Self {
        let mut segments: Vec<Segment> = Vec::new();
        let mut elapsed = 0.0;
        let mut previous: Option<Activity> = None;
        while elapsed < total_duration_s {
            let activity = loop {
                let candidate = Activity::ALL[rng.random_range(0..Activity::COUNT)];
                if Some(candidate) != previous {
                    break candidate;
                }
            };
            let (lo, hi) = setting.dwell_range_s();
            let duration = rng.random_range(lo..hi);
            segments.push(Segment::new(activity, duration));
            elapsed += duration;
            previous = Some(activity);
        }
        Self { segments }
    }
}

impl FromIterator<Segment> for ActivitySchedule {
    fn from_iter<T: IntoIterator<Item = Segment>>(iter: T) -> Self {
        Self { segments: iter.into_iter().collect() }
    }
}

/// A schedule segment whose dwell time is drawn per realization: `dwell_s`
/// scaled by a uniform factor in `[1 - jitter, 1 + jitter)`.
///
/// These are the building blocks of composed daily-routine scripts: a routine
/// is a cycle of jittered segments, so two devices living the same routine
/// under different seeds produce different — but statistically matched —
/// timelines.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JitteredSegment {
    /// The activity performed during the segment.
    pub activity: Activity,
    /// Nominal dwell time, in seconds.
    pub dwell_s: f64,
    /// Relative jitter applied to the dwell time (`0.0..1.0`).
    pub jitter: f64,
}

impl JitteredSegment {
    /// Creates a jittered segment.
    ///
    /// # Panics
    ///
    /// Panics if `dwell_s` is not strictly positive or `jitter` is outside
    /// `[0, 1)` (a jitter of 1 could realize a zero-length segment).
    pub fn new(activity: Activity, dwell_s: f64, jitter: f64) -> Self {
        assert!(dwell_s > 0.0, "nominal dwell must be positive, got {dwell_s}");
        assert!((0.0..1.0).contains(&jitter), "jitter must be in [0, 1), got {jitter}");
        Self { activity, dwell_s, jitter }
    }

    /// Draws one concrete [`Segment`], scaling the nominal dwell by `scale`
    /// (a per-subject transition bias) and by a uniform jitter factor.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not strictly positive (a zero scale would realize a
    /// zero-length segment).
    pub fn realize<R: Rng + ?Sized>(&self, scale: f64, rng: &mut R) -> Segment {
        assert!(scale > 0.0, "dwell scale must be positive, got {scale}");
        let factor = if self.jitter > 0.0 {
            rng.random_range((1.0 - self.jitter)..(1.0 + self.jitter))
        } else {
            1.0
        };
        Segment::new(self.activity, self.dwell_s * scale * factor)
    }
}

/// Builder for explicit activity schedules.
#[derive(Debug, Clone, Default)]
pub struct ScheduleBuilder {
    segments: Vec<Segment>,
}

impl ScheduleBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a segment of `activity` lasting `duration_s` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `duration_s` is not strictly positive.
    pub fn then(mut self, activity: Activity, duration_s: f64) -> Self {
        self.segments.push(Segment::new(activity, duration_s));
        self
    }

    /// Appends every segment of an existing schedule.
    pub fn extend(mut self, schedule: &ActivitySchedule) -> Self {
        self.segments.extend_from_slice(schedule.segments());
        self
    }

    /// Finishes the schedule.
    pub fn build(self) -> ActivitySchedule {
        ActivitySchedule::new(self.segments)
    }
}

/// How frequently the simulated user changes activity (x-axis of Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ActivityChangeSetting {
    /// Unstable user: the activity changes roughly every 10 seconds.
    High,
    /// Typical user: the activity changes roughly every half minute.
    Medium,
    /// Stable user: each activity lasts at least a minute.
    Low,
}

impl ActivityChangeSetting {
    /// All three settings in the order used by Fig. 7.
    pub const ALL: [ActivityChangeSetting; 3] =
        [ActivityChangeSetting::High, ActivityChangeSetting::Medium, ActivityChangeSetting::Low];

    /// The dwell-time range (seconds) for one activity segment under this setting.
    pub fn dwell_range_s(self) -> (f64, f64) {
        match self {
            ActivityChangeSetting::High => (8.0, 14.0),
            ActivityChangeSetting::Medium => (25.0, 40.0),
            ActivityChangeSetting::Low => (60.0, 120.0),
        }
    }

    /// The label used in Fig. 7.
    pub fn label(self) -> &'static str {
        match self {
            ActivityChangeSetting::High => "High",
            ActivityChangeSetting::Medium => "Medium",
            ActivityChangeSetting::Low => "Low",
        }
    }
}

impl std::fmt::Display for ActivityChangeSetting {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn builder_preserves_order_and_durations() {
        let schedule = ActivitySchedule::builder()
            .then(Activity::Sit, 10.0)
            .then(Activity::Walk, 20.0)
            .then(Activity::Stand, 5.0)
            .build();
        assert_eq!(schedule.len(), 3);
        assert_eq!(schedule.total_duration_s(), 35.0);
        assert_eq!(schedule.segments()[1].activity, Activity::Walk);
    }

    #[test]
    fn activity_at_selects_the_right_segment() {
        let schedule = ActivitySchedule::sit_then_walk(60.0, 60.0);
        assert_eq!(schedule.activity_at(0.0), Some(Activity::Sit));
        assert_eq!(schedule.activity_at(59.9), Some(Activity::Sit));
        assert_eq!(schedule.activity_at(60.0), Some(Activity::Walk));
        assert_eq!(schedule.activity_at(119.9), Some(Activity::Walk));
        // Clamping behaviour at the boundaries.
        assert_eq!(schedule.activity_at(-5.0), Some(Activity::Sit));
        assert_eq!(schedule.activity_at(500.0), Some(Activity::Walk));
    }

    #[test]
    fn empty_schedule_has_no_activity() {
        let schedule = ActivitySchedule::default();
        assert!(schedule.is_empty());
        assert_eq!(schedule.activity_at(1.0), None);
        assert_eq!(schedule.total_duration_s(), 0.0);
    }

    #[test]
    fn change_times_reports_transitions_only() {
        let schedule = ActivitySchedule::builder()
            .then(Activity::Sit, 10.0)
            .then(Activity::Sit, 5.0)
            .then(Activity::Walk, 10.0)
            .build();
        assert_eq!(schedule.change_times(), vec![15.0]);
    }

    #[test]
    #[should_panic(expected = "duration must be positive")]
    fn zero_duration_segments_are_rejected() {
        let _ = Segment::new(Activity::Walk, 0.0);
    }

    #[test]
    fn random_schedules_cover_the_requested_duration() {
        let mut rng = StdRng::seed_from_u64(5);
        for setting in ActivityChangeSetting::ALL {
            let schedule = ActivitySchedule::random(setting, 600.0, &mut rng);
            assert!(schedule.total_duration_s() >= 600.0);
            assert!(!schedule.is_empty());
        }
    }

    #[test]
    fn random_schedules_never_repeat_consecutive_activities() {
        let mut rng = StdRng::seed_from_u64(17);
        let schedule = ActivitySchedule::random(ActivityChangeSetting::High, 2000.0, &mut rng);
        for pair in schedule.segments().windows(2) {
            assert_ne!(pair[0].activity, pair[1].activity);
        }
    }

    #[test]
    fn dwell_times_respect_the_setting() {
        let mut rng = StdRng::seed_from_u64(23);
        let high = ActivitySchedule::random(ActivityChangeSetting::High, 1000.0, &mut rng);
        let low = ActivitySchedule::random(ActivityChangeSetting::Low, 1000.0, &mut rng);
        let mean = |s: &ActivitySchedule| s.total_duration_s() / s.len() as f64;
        assert!(mean(&high) < 15.0);
        assert!(mean(&low) >= 60.0);
    }

    #[test]
    fn high_setting_changes_roughly_every_ten_seconds() {
        // The paper defines High as "changes every 10 seconds".
        let (lo, hi) = ActivityChangeSetting::High.dwell_range_s();
        assert!(lo <= 10.0 && 10.0 <= hi);
        let (lo, _) = ActivityChangeSetting::Low.dwell_range_s();
        assert!(lo >= 60.0, "Low setting keeps an activity for at least a minute");
    }

    #[test]
    fn concat_and_extend_preserve_segment_order() {
        let morning = ActivitySchedule::sit_then_walk(10.0, 5.0);
        let evening = ActivitySchedule::builder().then(Activity::LieDown, 20.0).build();
        let day = ActivitySchedule::concat([morning.clone(), evening.clone()]);
        assert_eq!(day.len(), 3);
        assert_eq!(day.total_duration_s(), 35.0);
        assert_eq!(day.activity_at(34.0), Some(Activity::LieDown));
        let extended = ActivitySchedule::builder().extend(&morning).extend(&evening).build();
        assert_eq!(extended, day);
    }

    #[test]
    fn time_in_sums_per_activity_seconds() {
        let schedule = ActivitySchedule::builder()
            .then(Activity::Sit, 10.0)
            .then(Activity::Walk, 5.0)
            .then(Activity::Sit, 2.5)
            .build();
        assert_eq!(schedule.time_in(Activity::Sit), 12.5);
        assert_eq!(schedule.time_in(Activity::Walk), 5.0);
        assert_eq!(schedule.time_in(Activity::Upstairs), 0.0);
    }

    #[test]
    fn jittered_segments_realize_within_their_bounds() {
        let mut rng = StdRng::seed_from_u64(31);
        let jittered = JitteredSegment::new(Activity::Walk, 100.0, 0.25);
        for _ in 0..200 {
            let segment = jittered.realize(1.0, &mut rng);
            assert_eq!(segment.activity, Activity::Walk);
            assert!(segment.duration_s >= 75.0 && segment.duration_s < 125.0);
        }
        let scaled = jittered.realize(2.0, &mut rng);
        assert!(scaled.duration_s >= 150.0 && scaled.duration_s < 250.0);
        let exact = JitteredSegment::new(Activity::Sit, 7.0, 0.0).realize(1.0, &mut rng);
        assert_eq!(exact.duration_s, 7.0);
    }

    #[test]
    #[should_panic(expected = "jitter must be in [0, 1)")]
    fn full_jitter_is_rejected() {
        let _ = JitteredSegment::new(Activity::Sit, 1.0, 1.0);
    }

    #[test]
    fn schedule_collects_from_iterator() {
        let schedule: ActivitySchedule =
            vec![Segment::new(Activity::Sit, 1.0), Segment::new(Activity::Walk, 2.0)]
                .into_iter()
                .collect();
        assert_eq!(schedule.len(), 2);
    }
}
