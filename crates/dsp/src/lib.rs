//! # adasense-dsp
//!
//! Signal-processing substrate for the AdaSense (DAC 2020) reproduction.
//!
//! The paper's HAR framework (Fig. 1) buffers two seconds of accelerometer data,
//! pushes a batch through feature extraction every second (one second of overlap),
//! and feeds a fixed-size feature vector to the classifier.  The crucial property is
//! that the feature vector has the *same size regardless of the sensor
//! configuration*, which is what lets a single classifier serve every configuration.
//! The device runtime of `adasense` assembles each window from its sample source;
//! this crate computes what the classifier sees of it.
//!
//! Modules:
//!
//! * [`features`] — the unified 15-dimensional feature vector (3 means, 3 standard
//!   deviations, 3 × 3 low-frequency Fourier magnitudes) and its extractor.
//! * [`fft`] — the single-bin Goertzel evaluator and the direct DFT it is tested
//!   against.
//! * [`intensity`] — activity-intensity estimate (mean absolute first derivative),
//!   used by the intensity-based baseline of NK et al. \[8\].
//! * [`projection`] — the seeded sparse random projection that encodes compressed
//!   payloads.
//!
//! # Example
//!
//! ```
//! use adasense_dsp::prelude::*;
//! use adasense_sensor::Sample3;
//!
//! // A 2-second batch of 50 Hz samples of a 2 Hz vertical oscillation.
//! let samples: Vec<Sample3> = (0..100)
//!     .map(|k| {
//!         let t = k as f64 / 50.0;
//!         Sample3::new(t, 0.0, 0.0, 1.0 + 0.3 * (std::f64::consts::TAU * 2.0 * t).sin())
//!     })
//!     .collect();
//! let extractor = FeatureExtractor::paper();
//! let features = extractor.extract(&samples, 50.0);
//! assert_eq!(features.len(), 15);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod features;
pub mod fft;
pub mod intensity;
pub mod projection;

pub use features::{FeatureExtractor, FeatureVector, FEATURE_DIM, TIME_DOMAIN_DIM};
pub use fft::{dft_magnitudes, goertzel_magnitude, Complex};
pub use intensity::{mean_absolute_derivative, IntensityEstimator};
pub use projection::{ProjectionScratch, SparseProjection};

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::features::{FeatureExtractor, FeatureVector, FEATURE_DIM, TIME_DOMAIN_DIM};
    pub use crate::fft::{dft_magnitudes, goertzel_magnitude, Complex};
    pub use crate::intensity::{mean_absolute_derivative, IntensityEstimator};
    pub use crate::projection::{ProjectionScratch, SparseProjection};
}
