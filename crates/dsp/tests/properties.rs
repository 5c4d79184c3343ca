//! Property-based tests for the DSP substrate.

use adasense_dsp::prelude::*;
use adasense_sensor::Sample3;
use proptest::prelude::*;

fn finite_signal(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-2.0f64..2.0, 2..max_len)
}

proptest! {
    /// Goertzel agrees with the direct DFT on every integer bin of arbitrary-length
    /// signals.
    #[test]
    fn goertzel_matches_dft(signal in finite_signal(64), bin in 0usize..8) {
        prop_assume!(bin < signal.len());
        let direct = dft_magnitudes(&signal, bin + 1)[bin];
        let goertzel = goertzel_magnitude(&signal, bin as f64);
        prop_assert!((direct - goertzel).abs() < 1e-6 * (1.0 + direct.abs()));
    }

    /// Feature vectors always have exactly 15 finite entries, whatever the batch,
    /// and each fused Fourier slot is bit-identical to the single-bin reference
    /// [`goertzel_magnitude`] run on that axis alone.
    #[test]
    fn features_are_fixed_size_and_finite(
        len in 2usize..300,
        rate in prop::sample::select(vec![6.25f64, 12.5, 25.0, 50.0, 100.0]),
        amp in 0.0f64..1.0,
        freq in 0.1f64..4.0,
    ) {
        let samples: Vec<Sample3> = (0..len)
            .map(|k| {
                let t = k as f64 / rate;
                Sample3::new(t, amp * (freq * t).sin(), 0.2, 1.0 - amp * (freq * t).cos())
            })
            .collect();
        let extractor = FeatureExtractor::paper();
        let features = extractor.extract(&samples, rate);
        prop_assert_eq!(features.len(), FEATURE_DIM);
        prop_assert!(features.as_slice().iter().all(|v| v.is_finite()));
        // Standard deviations are non-negative by construction.
        prop_assert!(features.stds().iter().all(|v| *v >= 0.0));
        // Fourier magnitudes are non-negative.
        for axis in 0..3 {
            prop_assert!(features.fourier(axis).iter().all(|v| *v >= 0.0));
        }
        let n = len as f64;
        for axis in 0..3 {
            let values: Vec<f64> = samples.iter().map(|s| [s.x, s.y, s.z][axis]).collect();
            let probes = extractor.fourier_frequencies_hz;
            for (slot, f) in features.fourier(axis).into_iter().zip(probes) {
                let reference = 2.0 * goertzel_magnitude(&values, f * (n / rate)) / n;
                prop_assert_eq!(slot.to_bits(), reference.to_bits());
            }
        }
    }
}
