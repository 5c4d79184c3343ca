//! Spectral analysis: the Goertzel algorithm and a direct DFT.
//!
//! The paper keeps only the first three Fourier coefficients per axis ("representing
//! the frequency components up to 3 Hz", Section III-B).  Computing three isolated
//! bins is exactly what the Goertzel algorithm is for, and it is what AdaSense's
//! feature extractor uses.  [`goertzel_magnitude`] is the single-bin reference the
//! extractor's fused recurrences are tested against, and [`dft_magnitudes`] is the
//! direct evaluation the Goertzel recurrence itself is tested against.

use serde::{Deserialize, Serialize};

/// A complex number (minimal implementation sufficient for spectral analysis).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Creates a complex number from real and imaginary parts.
    pub fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// The complex number `e^{iθ}`.
    pub fn from_angle(theta: f64) -> Self {
        Self { re: theta.cos(), im: theta.sin() }
    }

    /// Magnitude (absolute value).
    pub fn magnitude(self) -> f64 {
        (self.re * self.re + self.im * self.im).sqrt()
    }
}

impl std::ops::Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl std::ops::Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(self.re * rhs.re - self.im * rhs.im, self.re * rhs.im + self.im * rhs.re)
    }
}

/// Magnitudes of the first `bins` DFT coefficients of `signal` (direct evaluation,
/// any length).
///
/// Bin `k` corresponds to frequency `k / (n / sample_rate)` Hz for an `n`-point
/// signal.  Bin 0 (the DC component) is included; callers interested in the paper's
/// "first three coefficients" typically request bins 1..=3 via
/// [`goertzel_magnitude`].
pub fn dft_magnitudes(signal: &[f64], bins: usize) -> Vec<f64> {
    let n = signal.len();
    let mut out = Vec::with_capacity(bins);
    if n == 0 {
        out.resize(bins, 0.0);
        return out;
    }
    for k in 0..bins {
        let mut acc = Complex::default();
        for (i, &v) in signal.iter().enumerate() {
            let angle = -std::f64::consts::TAU * k as f64 * i as f64 / n as f64;
            acc = acc + Complex::from_angle(angle) * Complex::new(v, 0.0);
        }
        out.push(acc.magnitude());
    }
    out
}

/// Magnitude of a single DFT bin of `signal`, computed with the Goertzel algorithm.
///
/// `bin` may be fractional, which allows evaluating a fixed physical frequency
/// (e.g. 1 Hz) on windows of any length and sampling rate: the bin for frequency
/// `f` is `f × n / sample_rate`.
///
/// Returns 0 for an empty signal.
pub fn goertzel_magnitude(signal: &[f64], bin: f64) -> f64 {
    let n = signal.len();
    if n == 0 {
        return 0.0;
    }
    let omega = std::f64::consts::TAU * bin / n as f64;
    let coeff = 2.0 * omega.cos();
    let mut s_prev = 0.0f64;
    let mut s_prev2 = 0.0f64;
    for &v in signal {
        let s = v + coeff * s_prev - s_prev2;
        s_prev2 = s_prev;
        s_prev = s;
    }
    let re = s_prev - s_prev2 * omega.cos();
    let im = s_prev2 * omega.sin();
    (re * re + im * im).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(n: usize, cycles: f64, amplitude: f64) -> Vec<f64> {
        (0..n)
            .map(|i| amplitude * (std::f64::consts::TAU * cycles * i as f64 / n as f64).sin())
            .collect()
    }

    #[test]
    fn goertzel_matches_dft_on_integer_bins() {
        let signal = tone(50, 3.0, 1.0);
        let direct = dft_magnitudes(&signal, 6);
        for (k, &d) in direct.iter().enumerate() {
            let g = goertzel_magnitude(&signal, k as f64);
            assert!((g - d).abs() < 1e-9, "bin {k}: {g} vs {d}");
        }
    }

    #[test]
    fn goertzel_handles_fractional_bins() {
        // A 2.5-cycle tone peaks at fractional bin 2.5.
        let signal = tone(40, 2.5, 1.0);
        let at_peak = goertzel_magnitude(&signal, 2.5);
        let off_peak = goertzel_magnitude(&signal, 1.0);
        assert!(at_peak > 3.0 * off_peak);
    }

    #[test]
    fn empty_inputs_are_handled() {
        assert_eq!(goertzel_magnitude(&[], 1.0), 0.0);
        assert_eq!(dft_magnitudes(&[], 3), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn dc_bin_is_the_sum() {
        let signal = vec![1.0, 2.0, 3.0, 4.0];
        assert!((dft_magnitudes(&signal, 1)[0] - 10.0).abs() < 1e-12);
        assert!((goertzel_magnitude(&signal, 0.0) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn complex_arithmetic() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        assert_eq!(a + b, Complex::new(4.0, 1.0));
        assert_eq!(a * b, Complex::new(5.0, 5.0));
        assert!((Complex::from_angle(0.0).re - 1.0).abs() < 1e-15);
    }
}
