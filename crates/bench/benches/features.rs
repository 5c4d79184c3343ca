//! Benchmarks of the unified feature extraction (Section III-B): cost per 2-second
//! batch at each Pareto configuration, plus the Goertzel-vs-full-DFT ablation.

use adasense_dsp::prelude::*;
use adasense_sensor::{Sample3, SensorConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn batch_for(config: SensorConfig) -> Vec<Sample3> {
    let rate = config.frequency.hz();
    let n = config.frequency.samples_in(2.0);
    (0..n)
        .map(|k| {
            let t = k as f64 / rate;
            Sample3::new(
                t,
                0.1 * (3.0 * t).sin(),
                0.2 * (12.0 * t).cos(),
                1.0 + 0.3 * (std::f64::consts::TAU * 1.9 * t).sin(),
            )
        })
        .collect()
}

fn bench_feature_extraction(c: &mut Criterion) {
    let extractor = FeatureExtractor::paper();
    let mut group = c.benchmark_group("feature_extraction_2s_batch");
    for config in SensorConfig::paper_pareto_front() {
        let batch = batch_for(config);
        group.bench_function(config.label(), |b| {
            b.iter(|| black_box(extractor.extract(black_box(&batch), config.frequency.hz())))
        });
    }
    group.finish();
}

fn bench_goertzel_vs_dft(c: &mut Criterion) {
    // Ablation: computing only the three needed bins (Goertzel) vs the full direct
    // DFT spectrum for a 200-sample window.
    let signal: Vec<f64> = (0..200).map(|k| (k as f64 * 0.13).sin()).collect();
    let mut group = c.benchmark_group("spectral_3bins_200_samples");
    group.bench_function("goertzel_three_bins", |b| {
        b.iter(|| {
            let a = goertzel_magnitude(black_box(&signal), 2.0);
            let bb = goertzel_magnitude(black_box(&signal), 4.0);
            let c2 = goertzel_magnitude(black_box(&signal), 6.0);
            black_box(a + bb + c2)
        })
    });
    group.bench_function("full_direct_dft", |b| {
        b.iter(|| black_box(dft_magnitudes(black_box(&signal), 100)))
    });
    group.finish();
}

criterion_group!(benches, bench_feature_extraction, bench_goertzel_vs_dft);
criterion_main!(benches);
