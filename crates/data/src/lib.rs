//! # adasense-data
//!
//! Synthetic human-activity data substrate for the AdaSense (DAC 2020) reproduction.
//!
//! The paper trains and evaluates on 7300 activity windows recorded with the authors'
//! own BMI160-based wearable.  That dataset is not public, so this crate generates a
//! synthetic equivalent: parametric continuous 3-axis acceleration signals for the six
//! daily activities of the paper (*sit, stand, walk, go upstairs, go downstairs, lie
//! down*), sampled through the simulated sensor of [`adasense_sensor`] under any
//! sensor configuration.
//!
//! Modules:
//!
//! * [`activity`] — the six-class activity label.
//! * [`signal`] — per-activity continuous signal models (orientation + gait harmonics
//!   + tremor) with per-subject variation.
//! * [`schedule`] — activity timelines: explicit segments, the randomized
//!   High/Medium/Low activity-change settings of Fig. 7, and the per-epoch
//!   instant ([`EPOCH_LABEL_OFFSET_S`]) at which a timeline is scored.
//! * [`generator`] — turns a schedule plus signal models into a
//!   [`adasense_sensor::SignalSource`] usable by the simulated accelerometer.
//! * [`dataset`] — labelled window datasets across sensor configurations, with
//!   deterministic train/test splits.
//!
//! # Example
//!
//! ```
//! use adasense_data::prelude::*;
//! use adasense_sensor::prelude::*;
//!
//! let spec = DatasetSpec {
//!     windows_per_class_per_config: 4,
//!     configs: SensorConfig::paper_pareto_front().to_vec(),
//!     ..DatasetSpec::default()
//! };
//! let dataset = WindowDataset::generate(&spec, 42);
//! assert_eq!(dataset.len(), 4 * 6 * 4);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod activity;
pub mod dataset;
pub mod generator;
pub mod schedule;
pub mod signal;

pub use activity::Activity;
pub use dataset::{DatasetSpec, LabeledWindow, TrainTestSplit, WindowDataset};
pub use generator::ActivityTrace;
pub use schedule::{
    ActivityChangeSetting, ActivitySchedule, JitteredSegment, ScheduleBuilder, Segment,
    EPOCH_LABEL_OFFSET_S,
};
pub use signal::{ActivitySignalModel, SubjectParams};

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::activity::Activity;
    pub use crate::dataset::{DatasetSpec, LabeledWindow, TrainTestSplit, WindowDataset};
    pub use crate::generator::ActivityTrace;
    pub use crate::schedule::{
        ActivityChangeSetting, ActivitySchedule, JitteredSegment, ScheduleBuilder, Segment,
        EPOCH_LABEL_OFFSET_S,
    };
    pub use crate::signal::{ActivitySignalModel, SubjectParams};
}
