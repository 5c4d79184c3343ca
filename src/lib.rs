//! # adasense-repro
//!
//! Workspace facade for the reproduction of *AdaSense: Adaptive Low-Power Sensing and
//! Activity Recognition for Wearable Devices* (Neseem, Nelson, Reda — DAC 2020).
//!
//! This crate simply re-exports the member crates so that the repository-level
//! examples and integration tests can use a single dependency:
//!
//! * [`sensor`] — simulated BMI160-style accelerometer, sensor configurations and
//!   the duty-cycle energy model.
//! * [`data`] — synthetic activity signal models, activity schedules and labelled
//!   window datasets.
//! * [`dsp`] — the unified 15-dimensional feature extraction (per-axis means,
//!   standard deviations and Goertzel magnitudes), the intensity estimate and the
//!   sparse projection for compressed payloads.
//! * [`ml`] — the from-scratch dense neural network, trainer and metrics.
//! * [`adasense`] — the AdaSense framework itself: classifier training, SPOT
//!   controllers, the per-device closed-loop runtime, design-space exploration and
//!   the power/accuracy simulator.
//!
//! # Example
//!
//! ```
//! use adasense_repro::adasense::prelude::*;
//!
//! # fn main() -> Result<(), AdaSenseError> {
//! let spec = ExperimentSpec::quick();
//! let trained = TrainedSystem::train(&spec)?;
//! let report = Simulator::new(&spec, &trained)
//!     .with_controller(ControllerKind::Spot { stability_threshold: 5 })
//!     .run(ScenarioSpec::sit_then_walk(30.0, 30.0))?;
//! assert!(report.average_current_ua() > 0.0);
//! # Ok(())
//! # }
//! ```

pub use adasense;
pub use adasense_data as data;
pub use adasense_dsp as dsp;
pub use adasense_ml as ml;
pub use adasense_sensor as sensor;
