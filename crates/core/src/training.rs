//! Dataset construction and classifier training for the AdaSense system.
//!
//! The paper trains **one** network on feature vectors pooled from the four
//! Pareto-optimal sensor configurations (Section III-C, V-A).  The baselines need
//! something different: the intensity-based approach of NK et al. \[8\] retrains a
//! separate classifier per configuration, and the design-space exploration of Fig. 2
//! evaluates a dedicated classifier for each of the 16 Table I configurations.
//! [`TrainedSystem`] prepares all of the above from a single [`ExperimentSpec`].

use std::collections::BTreeMap;

use adasense_data::{Activity, DatasetSpec, WindowDataset};
use adasense_dsp::{FeatureExtractor, TIME_DOMAIN_DIM};
use adasense_ml::{
    accuracy, calibrate_margin_threshold, BackendKind, CascadeClassifier, CascadeOperatingPoint,
    Classifier, Mlp, MlpConfig, QuantizedMlp, Trainer, TrainerConfig,
};
use adasense_sensor::{AveragingWindow, SamplingFrequency, SensorConfig};
use serde::{Deserialize, Serialize};

use crate::error::AdaSenseError;

/// Maximum calibration-set accuracy the cascade may give up relative to the
/// full classifier when its margin threshold is calibrated (0.5 points —
/// half of the one-point budget the `backend_sweep` gate enforces end to end).
const CASCADE_ACCURACY_BUDGET: f64 = 0.005;

/// Everything needed to build, train and evaluate the HAR system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentSpec {
    /// How the training/evaluation windows are generated.
    pub dataset: DatasetSpec,
    /// Architecture of the classifier(s).
    pub architecture: MlpConfig,
    /// Training hyper-parameters.
    pub trainer: TrainerConfig,
    /// Fraction of windows used for training (the rest is held out for evaluation).
    pub train_fraction: f64,
    /// Master seed: dataset generation, splits and training all derive from it.
    pub seed: u64,
    /// The low-power configuration used by the intensity-based baseline
    /// (its high-power configuration is always `F100_A128`).
    pub intensity_low_config: SensorConfig,
}

impl ExperimentSpec {
    /// The paper-scale specification: ~7300 windows over the four Pareto
    /// configurations, 2-layer classifier, 60 training epochs.
    pub fn paper() -> Self {
        Self {
            dataset: DatasetSpec::paper_scale(),
            architecture: MlpConfig::paper(),
            trainer: TrainerConfig::default(),
            train_fraction: 0.8,
            seed: 2020,
            intensity_low_config: SensorConfig::new(SamplingFrequency::F25, AveragingWindow::A32),
        }
    }

    /// A reduced specification for tests and doc examples (smaller dataset, fewer
    /// epochs); everything else matches [`ExperimentSpec::paper`].
    pub fn quick() -> Self {
        Self {
            dataset: DatasetSpec::quick(),
            trainer: TrainerConfig { epochs: 30, ..TrainerConfig::default() },
            ..Self::paper()
        }
    }

    /// Checks the specification for consistency.
    ///
    /// # Errors
    ///
    /// Returns [`AdaSenseError::InvalidSpec`] when the configuration list is empty,
    /// the train fraction is outside `(0, 1)`, no windows are requested, or the
    /// classifier input size does not match the feature dimension.
    pub fn validate(&self) -> Result<(), AdaSenseError> {
        if self.dataset.configs.is_empty() {
            return Err(AdaSenseError::invalid_spec(
                "at least one sensor configuration is required",
            ));
        }
        if self.dataset.windows_per_class_per_config == 0 {
            return Err(AdaSenseError::invalid_spec(
                "windows_per_class_per_config must be non-zero",
            ));
        }
        if !(self.train_fraction > 0.0 && self.train_fraction < 1.0) {
            return Err(AdaSenseError::invalid_spec(format!(
                "train_fraction must lie strictly between 0 and 1, got {}",
                self.train_fraction
            )));
        }
        if self.architecture.input_dim != adasense_dsp::FEATURE_DIM {
            return Err(AdaSenseError::invalid_spec(format!(
                "classifier input dimension {} does not match the feature dimension {}",
                self.architecture.input_dim,
                adasense_dsp::FEATURE_DIM
            )));
        }
        if self.architecture.output_dim != Activity::COUNT {
            return Err(AdaSenseError::invalid_spec(format!(
                "classifier output dimension {} does not match the {} activity classes",
                self.architecture.output_dim,
                Activity::COUNT
            )));
        }
        Ok(())
    }

    /// The configurations the intensity-based baseline switches between:
    /// `[high, low]`.
    pub fn intensity_configs(&self) -> [SensorConfig; 2] {
        [
            SensorConfig::new(SamplingFrequency::F100, AveragingWindow::A128),
            self.intensity_low_config,
        ]
    }
}

impl Default for ExperimentSpec {
    fn default() -> Self {
        Self::paper()
    }
}

/// Converts labelled windows into (features, labels) pairs for the trainer.
pub fn features_and_labels(
    extractor: &FeatureExtractor,
    windows: &WindowDataset,
) -> (Vec<Vec<f64>>, Vec<usize>) {
    let mut x = Vec::with_capacity(windows.len());
    let mut y = Vec::with_capacity(windows.len());
    for window in windows.iter() {
        let features = extractor.extract(&window.samples, window.config.frequency.hz());
        x.push(features.into_inner());
        y.push(window.activity.index());
    }
    (x, y)
}

/// A classifier trained on windows from a single sensor configuration, with its
/// held-out accuracy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerConfigModel {
    /// The configuration the model was trained for.
    pub config: SensorConfig,
    /// The trained classifier.
    pub model: Mlp,
    /// Accuracy on the held-out windows of that configuration.
    pub test_accuracy: f64,
}

/// Trains one classifier on windows of a single configuration.
///
/// Used both by the classifier bank of the intensity-based baseline and by the
/// design-space exploration of Fig. 2.
///
/// # Errors
///
/// Returns [`AdaSenseError::Training`] if no windows could be generated.
pub fn train_for_config(
    spec: &ExperimentSpec,
    config: SensorConfig,
    seed_offset: u64,
) -> Result<PerConfigModel, AdaSenseError> {
    let dataset_spec = DatasetSpec { configs: vec![config], ..spec.dataset.clone() };
    let dataset = WindowDataset::generate(&dataset_spec, spec.seed.wrapping_add(seed_offset));
    if dataset.is_empty() {
        return Err(AdaSenseError::training(format!("no windows generated for {config}")));
    }
    let split =
        dataset.split(spec.train_fraction, spec.seed.wrapping_add(seed_offset).wrapping_add(1));
    let extractor = FeatureExtractor::paper();
    let (train_x, train_y) = features_and_labels(&extractor, &split.train);
    let (test_x, test_y) = features_and_labels(&extractor, &split.test);
    let trainer = Trainer::new(spec.trainer);
    let outcome =
        trainer.train(&spec.architecture, &train_x, &train_y, spec.seed.wrapping_add(seed_offset));
    let test_accuracy = accuracy(&outcome.model, &test_x, &test_y);
    Ok(PerConfigModel { config, model: outcome.model, test_accuracy })
}

/// The fully trained HAR system: the unified classifier plus the per-configuration
/// classifier bank used by the baselines.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainedSystem {
    spec: ExperimentSpec,
    extractor: FeatureExtractor,
    unified: Mlp,
    quantized: QuantizedMlp,
    cascade: CascadeClassifier,
    cascade_operating_point: CascadeOperatingPoint,
    unified_test_accuracy: f64,
    per_config_accuracy: Vec<(SensorConfig, f64)>,
    bank: BTreeMap<String, PerConfigModel>,
}

impl TrainedSystem {
    /// Generates the dataset described by `spec`, trains the unified classifier on
    /// the pooled training windows, evaluates it per configuration, and trains the
    /// per-configuration classifier bank needed by the intensity-based baseline.
    ///
    /// # Errors
    ///
    /// Returns [`AdaSenseError::InvalidSpec`] for inconsistent specifications and
    /// [`AdaSenseError::Training`] if any training set ends up empty.
    pub fn train(spec: &ExperimentSpec) -> Result<Self, AdaSenseError> {
        spec.validate()?;
        let extractor = FeatureExtractor::paper();

        // Unified classifier on pooled data from every requested configuration.
        let dataset = WindowDataset::generate(&spec.dataset, spec.seed);
        let split = dataset.split(spec.train_fraction, spec.seed.wrapping_add(1));
        if split.train.is_empty() || split.test.is_empty() {
            return Err(AdaSenseError::training(
                "train/test split produced an empty partition; increase windows_per_class_per_config",
            ));
        }
        let (train_x, train_y) = features_and_labels(&extractor, &split.train);
        let (test_x, test_y) = features_and_labels(&extractor, &split.test);
        let trainer = Trainer::new(spec.trainer);
        let outcome = trainer.train(&spec.architecture, &train_x, &train_y, spec.seed);
        let unified = outcome.model;
        let unified_test_accuracy = accuracy(&unified, &test_x, &test_y);

        // Per-configuration accuracy of the unified model (the quantity the paper's
        // single-classifier argument is about).
        let mut per_config_accuracy = Vec::with_capacity(spec.dataset.configs.len());
        for &config in &spec.dataset.configs {
            let subset = split.test.for_config(config);
            let (x, y) = features_and_labels(&extractor, &subset);
            per_config_accuracy.push((config, accuracy(&unified, &x, &y)));
        }

        // Classifier bank for the intensity-based baseline: one model per
        // configuration that baseline can select.
        let mut bank = BTreeMap::new();
        for (i, config) in spec.intensity_configs().into_iter().enumerate() {
            let per_config = train_for_config(spec, config, 100 + i as u64)?;
            bank.insert(config.label(), per_config);
        }

        // Post-training int8 quantization of the unified classifier, so device
        // cohorts can run the fixed-point backend without retraining.
        let quantized = QuantizedMlp::from_mlp(&unified);

        // Early-exit cascade: a tiny int8 network over the time-domain feature
        // prefix, gated by a margin threshold calibrated on the training rows
        // so the cascade gives up at most `CASCADE_ACCURACY_BUDGET` of the
        // full classifier's accuracy.
        let stage1_rows: Vec<Vec<f64>> =
            train_x.iter().map(|row| row[..TIME_DOMAIN_DIM].to_vec()).collect();
        let stage1_architecture =
            MlpConfig::new(TIME_DOMAIN_DIM, vec![8], spec.architecture.output_dim);
        let stage1_outcome =
            trainer.train(&stage1_architecture, &stage1_rows, &train_y, spec.seed.wrapping_add(9));
        let stage1 = QuantizedMlp::from_mlp(&stage1_outcome.model);
        let cascade_operating_point = calibrate_margin_threshold(
            &stage1,
            &quantized,
            &train_x,
            &train_y,
            CASCADE_ACCURACY_BUDGET,
        );
        let cascade = CascadeClassifier::new(
            stage1,
            quantized.clone(),
            cascade_operating_point.margin_threshold,
        );

        Ok(Self {
            spec: spec.clone(),
            extractor,
            unified,
            quantized,
            cascade,
            cascade_operating_point,
            unified_test_accuracy,
            per_config_accuracy,
            bank,
        })
    }

    /// The specification the system was trained from.
    pub fn spec(&self) -> &ExperimentSpec {
        &self.spec
    }

    /// The feature extractor shared by every classifier of the system.
    pub fn extractor(&self) -> &FeatureExtractor {
        &self.extractor
    }

    /// The unified classifier (trained on data from all configurations).
    pub fn unified_classifier(&self) -> &Mlp {
        &self.unified
    }

    /// The post-training int8 quantization of the unified classifier.
    pub fn quantized_classifier(&self) -> &QuantizedMlp {
        &self.quantized
    }

    /// The calibrated early-exit cascade (tiny int8 time-domain first stage,
    /// full int8 second stage).
    pub fn cascade_classifier(&self) -> &CascadeClassifier {
        &self.cascade
    }

    /// The calibration-set operating point of the cascade: the chosen margin
    /// threshold and the exit rate / accuracy measured while calibrating it.
    pub fn cascade_operating_point(&self) -> CascadeOperatingPoint {
        self.cascade_operating_point
    }

    /// The unified inference backend of the given kind, behind the object-safe
    /// [`Classifier`] trait — the seam the runtime and fleet layers plug
    /// device cohorts into.
    pub fn backend(&self, kind: BackendKind) -> &dyn Classifier {
        match kind {
            BackendKind::F64 => &self.unified,
            BackendKind::Int8 => &self.quantized,
            BackendKind::Cascade => &self.cascade,
        }
    }

    /// Held-out accuracy of the unified classifier over all configurations.
    pub fn unified_test_accuracy(&self) -> f64 {
        self.unified_test_accuracy
    }

    /// Held-out accuracy of the unified classifier per configuration.
    pub fn per_config_accuracy(&self) -> &[(SensorConfig, f64)] {
        &self.per_config_accuracy
    }

    /// The per-configuration classifier trained for `config`, if one exists in the
    /// bank (the bank covers the configurations the intensity-based baseline uses).
    pub fn bank_classifier(&self, config: SensorConfig) -> Option<&PerConfigModel> {
        self.bank.get(&config.label())
    }

    /// All per-configuration classifiers in the bank.
    pub fn bank(&self) -> impl Iterator<Item = &PerConfigModel> {
        self.bank.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> ExperimentSpec {
        ExperimentSpec {
            dataset: DatasetSpec {
                windows_per_class_per_config: 8,
                configs: SensorConfig::paper_pareto_front().to_vec(),
                ..DatasetSpec::paper_scale()
            },
            trainer: TrainerConfig { epochs: 20, ..TrainerConfig::default() },
            ..ExperimentSpec::quick()
        }
    }

    #[test]
    fn paper_spec_validates() {
        assert!(ExperimentSpec::paper().validate().is_ok());
        assert!(ExperimentSpec::quick().validate().is_ok());
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let mut spec = ExperimentSpec::quick();
        spec.dataset.configs.clear();
        assert!(matches!(spec.validate(), Err(AdaSenseError::InvalidSpec { .. })));

        let mut spec = ExperimentSpec::quick();
        spec.train_fraction = 1.0;
        assert!(spec.validate().is_err());

        let mut spec = ExperimentSpec::quick();
        spec.architecture = MlpConfig::new(3, vec![4], Activity::COUNT);
        assert!(spec.validate().is_err());

        let mut spec = ExperimentSpec::quick();
        spec.architecture = MlpConfig::new(adasense_dsp::FEATURE_DIM, vec![4], 2);
        assert!(spec.validate().is_err());

        let mut spec = ExperimentSpec::quick();
        spec.dataset.windows_per_class_per_config = 0;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn trained_system_learns_the_synthetic_activities() {
        let system = TrainedSystem::train(&tiny_spec()).expect("training succeeds");
        assert!(
            system.unified_test_accuracy() > 0.6,
            "unified accuracy {} unexpectedly low even for a tiny dataset",
            system.unified_test_accuracy()
        );
        assert_eq!(system.per_config_accuracy().len(), 4);
        // The bank contains the two configurations the intensity baseline needs.
        for config in tiny_spec().intensity_configs() {
            assert!(system.bank_classifier(config).is_some(), "missing bank model for {config}");
        }
    }

    #[test]
    fn backends_expose_the_unified_and_quantized_classifiers() {
        let system = TrainedSystem::train(&tiny_spec()).expect("training succeeds");
        assert_eq!(system.backend(BackendKind::F64).label(), "f64");
        assert_eq!(system.backend(BackendKind::Int8).label(), "int8");
        assert_eq!(
            system.quantized_classifier().config(),
            system.unified_classifier().config(),
            "quantization must preserve the architecture"
        );
        // The int8 copy agrees with the float model on most held-out-style
        // inputs: evaluate both on a fresh batch of training-distribution data.
        let spec = tiny_spec();
        let dataset = WindowDataset::generate(&spec.dataset, spec.seed.wrapping_add(9));
        let (x, y) = features_and_labels(&FeatureExtractor::paper(), &dataset);
        let f64_hits = x
            .iter()
            .zip(&y)
            .filter(|(f, &label)| system.unified_classifier().predict(f).class == label)
            .count();
        let int8_hits = x
            .iter()
            .zip(&y)
            .filter(|(f, &label)| {
                Classifier::predict(system.backend(BackendKind::Int8), f).class == label
            })
            .count();
        let delta = (f64_hits as f64 - int8_hits as f64).abs() / x.len() as f64;
        assert!(
            delta <= 0.02,
            "int8 accuracy drifted {:.2} pts from f64 ({f64_hits} vs {int8_hits} of {})",
            100.0 * delta,
            x.len()
        );
    }

    #[test]
    fn training_is_deterministic_in_the_spec_seed() {
        let spec = tiny_spec();
        let a = TrainedSystem::train(&spec).unwrap();
        let b = TrainedSystem::train(&spec).unwrap();
        assert_eq!(a.unified_classifier(), b.unified_classifier());
        assert_eq!(a.unified_test_accuracy(), b.unified_test_accuracy());
    }

    #[test]
    fn features_and_labels_align() {
        let spec = tiny_spec();
        let dataset = WindowDataset::generate(&spec.dataset, 0);
        let (x, y) = features_and_labels(&FeatureExtractor::paper(), &dataset);
        assert_eq!(x.len(), dataset.len());
        assert_eq!(y.len(), dataset.len());
        assert!(x.iter().all(|f| f.len() == adasense_dsp::FEATURE_DIM));
        assert!(y.iter().all(|&l| l < Activity::COUNT));
    }

    #[test]
    fn per_config_training_reports_accuracy() {
        let spec = tiny_spec();
        let config = SensorConfig::new(SamplingFrequency::F100, AveragingWindow::A128);
        let trained = train_for_config(&spec, config, 0).unwrap();
        assert_eq!(trained.config, config);
        assert!((0.0..=1.0).contains(&trained.test_accuracy));
    }
}
