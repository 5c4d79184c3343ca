//! End-to-end integration tests spanning every crate: synthetic data → simulated
//! sensor → feature extraction → classifier → adaptive controller → energy
//! accounting.

use adasense_repro::adasense::prelude::*;
use std::sync::OnceLock;

/// One shared small trained system for the whole integration suite (training takes a
/// couple of seconds in debug builds, so do it once).
fn shared() -> &'static (ExperimentSpec, TrainedSystem) {
    static SYSTEM: OnceLock<(ExperimentSpec, TrainedSystem)> = OnceLock::new();
    SYSTEM.get_or_init(|| {
        let spec = ExperimentSpec {
            dataset: DatasetSpec { windows_per_class_per_config: 14, ..DatasetSpec::quick() },
            ..ExperimentSpec::quick()
        };
        let system = TrainedSystem::train(&spec).expect("training the quick system succeeds");
        (spec, system)
    })
}

#[test]
fn unified_classifier_reaches_usable_accuracy_on_all_pareto_configs() {
    let (_, system) = shared();
    assert!(
        system.unified_test_accuracy() > 0.75,
        "pooled accuracy {} too low",
        system.unified_test_accuracy()
    );
    for (config, accuracy) in system.per_config_accuracy() {
        assert!(
            *accuracy > 0.55,
            "accuracy {accuracy} at {config} too low even for the quick dataset"
        );
    }
}

#[test]
fn accuracy_degrades_monotonically_ish_from_best_to_worst_configuration() {
    // The high-power configuration should classify at least as well as the
    // lowest-power one; that ordering is the entire premise of the Fig. 2 trade-off.
    let (_, system) = shared();
    let accuracies: Vec<(SensorConfig, f64)> = system.per_config_accuracy().to_vec();
    let high =
        accuracies.iter().find(|(c, _)| c.label() == "F100_A128").expect("high config evaluated").1;
    let low =
        accuracies.iter().find(|(c, _)| c.label() == "F12.5_A8").expect("low config evaluated").1;
    assert!(
        high + 1e-9 >= low,
        "expected F100_A128 ({high}) to be at least as accurate as F12.5_A8 ({low})"
    );
}

#[test]
fn spot_saves_power_and_stays_close_to_baseline_accuracy_on_stable_scenarios() {
    let (spec, system) = shared();
    let scenario = ScenarioSpec::random(ActivityChangeSetting::Low, 240.0, 11);
    let baseline = Simulator::new(spec, system)
        .with_controller(ControllerKind::StaticHigh)
        .run(scenario.clone())
        .unwrap();
    let spot = Simulator::new(spec, system)
        .with_controller(ControllerKind::Spot { stability_threshold: 10 })
        .run(scenario)
        .unwrap();
    let reduction = spot.power_reduction_vs(baseline.average_current_ua());
    assert!(
        reduction > 0.3,
        "SPOT should cut a large fraction of the sensor power on a stable day, got {reduction}"
    );
    assert!(
        baseline.accuracy() - spot.accuracy() < 0.15,
        "SPOT accuracy should stay in the neighbourhood of the baseline ({} vs {})",
        spot.accuracy(),
        baseline.accuracy()
    );
}

#[test]
fn spot_with_confidence_consumes_no_more_than_plain_spot_on_average() {
    // The confidence gate exists to suppress spurious resets, so across a few
    // scenarios it should not consume more power than plain SPOT.
    let (spec, system) = shared();
    let mut spot_total = 0.0;
    let mut confidence_total = 0.0;
    for seed in 0..3u64 {
        let scenario = ScenarioSpec::random(ActivityChangeSetting::Medium, 180.0, 20 + seed);
        let spot = Simulator::new(spec, system)
            .with_controller(ControllerKind::Spot { stability_threshold: 8 })
            .run(scenario.clone())
            .unwrap();
        let confidence = Simulator::new(spec, system)
            .with_controller(ControllerKind::SpotWithConfidence {
                stability_threshold: 8,
                confidence_threshold: 0.85,
            })
            .run(scenario)
            .unwrap();
        spot_total += spot.average_current_ua();
        confidence_total += confidence.average_current_ua();
    }
    assert!(
        confidence_total <= spot_total * 1.05,
        "SPOT+confidence ({confidence_total}) should not be meaningfully above SPOT ({spot_total})"
    );
}

#[test]
fn unstable_activity_keeps_spot_near_the_high_power_configuration() {
    let (spec, system) = shared();
    let fast = ScenarioSpec::random(ActivityChangeSetting::High, 120.0, 33);
    let report = Simulator::new(spec, system)
        .with_controller(ControllerKind::Spot { stability_threshold: 20 })
        .run(fast)
        .unwrap();
    // With a 20 s threshold and ~10 s dwell times, the controller should hardly
    // ever leave the first state.
    assert!(
        report.residency(SensorConfig::paper_pareto_front()[0]) > 0.8,
        "expected mostly high-power residency, got {:?}",
        report.seconds_in_config
    );
}

#[test]
fn energy_accounting_matches_residency_weighted_currents() {
    let (spec, system) = shared();
    let report = Simulator::new(spec, system)
        .with_controller(ControllerKind::Spot { stability_threshold: 5 })
        .run(ScenarioSpec::sit_then_walk(40.0, 20.0))
        .unwrap();
    let energy = spec.dataset.energy_model;
    let mut expected = 0.0;
    for (label, seconds) in &report.seconds_in_config {
        let config: SensorConfig = label.parse().expect("labels round-trip");
        expected += energy.current_ua(config) * seconds;
    }
    let measured = report.total_charge.micro_coulombs();
    assert!(
        (expected - measured).abs() < 1e-6 * expected.max(1.0),
        "charge accounting mismatch: {measured} vs {expected}"
    );
}

#[test]
fn feature_vectors_have_the_same_size_under_every_table_i_configuration() {
    // The unified feature extraction claim of Section III-B, checked end-to-end
    // through the simulated sensor.
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let extractor = FeatureExtractor::paper();
    let signal = ActivitySignalModel::canonical(Activity::Walk).realize(&SubjectParams::neutral());
    let mut rng = StdRng::seed_from_u64(3);
    for config in SensorConfig::table_i() {
        let accel = Accelerometer::new(config);
        let window = accel.capture(&signal, 0.0, 2.0, &mut rng);
        let features = extractor.extract(&window, config.frequency.hz());
        assert_eq!(features.len(), FEATURE_DIM, "under {config}");
        assert!(features.as_slice().iter().all(|v| v.is_finite()));
    }
}

#[test]
fn the_same_unified_model_classifies_batches_from_all_configurations() {
    let (_, system) = shared();
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(9);
    for config in SensorConfig::paper_pareto_front() {
        let signal =
            ActivitySignalModel::canonical(Activity::LieDown).realize(&SubjectParams::neutral());
        let accel = Accelerometer::new(config);
        let window = accel.capture(&signal, 0.0, 2.0, &mut rng);
        let features = system.extractor().extract(&window, config.frequency.hz());
        let prediction = system.unified_classifier().predict(features.as_slice());
        // Lie-down has a very distinctive orientation; any sane model should get it
        // right under every configuration.
        assert_eq!(
            Activity::from_index(prediction.class),
            Some(Activity::LieDown),
            "under {config}"
        );
    }
}
