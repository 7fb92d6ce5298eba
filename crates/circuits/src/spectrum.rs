//! Coherent-sampling spectral analysis: SNR, SINAD, SFDR, THD.
//!
//! The flash-ADC testbench drives the converter with a coherently sampled
//! sine (`f_in/f_s = M/N`, `M` odd and coprime to the power-of-two `N`), so
//! every signal and harmonic component lands exactly on an FFT bin and no
//! window is needed — the standard ADC characterisation setup.
//!
//! A real record's spectrum is conjugate-symmetric, so [`analyze`] reads
//! only the one-sided spectrum `X[0..=N/2]`, which it takes from the
//! half-length real-input transform of [`crate::fft`]. The ADC testbench
//! builds that transform's plan once and reuses it for every die.

use crate::fft::RealFftPlan;
use crate::{CircuitError, Result};
use bmf_linalg::Complex64;

/// Number of harmonics (2nd..) included in THD, per the common "first five
/// harmonics" convention.
pub const THD_HARMONICS: usize = 5;

/// Spectral performance metrics extracted from a coherently sampled tone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpectralMetrics {
    /// Signal-to-noise ratio in dB (noise excludes harmonics and DC).
    pub snr_db: f64,
    /// Signal-to-noise-and-distortion ratio in dB.
    pub sinad_db: f64,
    /// Spurious-free dynamic range in dB (signal vs. largest spur).
    pub sfdr_db: f64,
    /// Total harmonic distortion in dB (negative: harmonics below carrier).
    pub thd_db: f64,
}

/// Checks a coherent record's length `n` (a power of two, at least 8) and
/// tone bin (in `1..n/2`).
fn check_record(n: usize, bin: usize) -> Result<()> {
    if n < 8 || !n.is_power_of_two() {
        return Err(CircuitError::InvalidSignal {
            reason: format!("record length must be a power of two >= 8, got {n}"),
        });
    }
    if bin == 0 || bin >= n / 2 {
        return Err(CircuitError::InvalidSignal {
            reason: format!("signal bin {bin} outside 1..{}", n / 2),
        });
    }
    Ok(())
}

/// Analyses a coherently sampled record.
///
/// * `signal` — time-domain samples, length a power of two `N`.
/// * `signal_bin` — the input-tone bin `M` (`f_in = M/N · f_s`), in
///   `1..N/2`.
///
/// Harmonic bins are folded (aliased) into the first Nyquist zone. DC and
/// the signal bin are excluded from the noise estimate.
///
/// # Errors
///
/// * [`CircuitError::InvalidSignal`] for a bad length or bin, a non-finite
///   sample or spectrum, or a record with no signal energy.
///
/// # Example
///
/// ```
/// use bmf_circuits::spectrum::analyze;
///
/// # fn main() -> Result<(), bmf_circuits::CircuitError> {
/// let n = 1024;
/// let m = 31;
/// // Pure tone: SNR limited only by rounding — very large.
/// let signal: Vec<f64> = (0..n)
///     .map(|i| (2.0 * std::f64::consts::PI * m as f64 * i as f64 / n as f64).sin())
///     .collect();
/// let metrics = analyze(&signal, m)?;
/// assert!(metrics.snr_db > 100.0);
/// # Ok(())
/// # }
/// ```
pub fn analyze(signal: &[f64], signal_bin: usize) -> Result<SpectralMetrics> {
    check_record(signal.len(), signal_bin)?;
    analyze_with(&RealFftPlan::new(signal.len())?, signal, signal_bin)
}

/// [`analyze`] on a plan for `signal.len()`, for a record whose length and
/// bin are already checked.
pub(crate) fn analyze_with(
    plan: &RealFftPlan,
    signal: &[f64],
    signal_bin: usize,
) -> Result<SpectralMetrics> {
    bmf_obs::counters::SPECTRUM_ANALYSES.incr();
    let _timer = bmf_obs::histograms::SPECTRUM_NS.timer();
    let _span = bmf_obs::span("spectrum.analyze");
    if let Some(i) = signal.iter().position(|x| !x.is_finite()) {
        return Err(CircuitError::InvalidSignal {
            reason: format!("sample {i} is {}", signal[i]),
        });
    }
    metrics(&plan.half_spectrum(signal), signal.len(), signal_bin)
}

/// The metrics of an `n`-point record from its spectrum `spec`, of which
/// only bins `1..n/2` are read.
fn metrics(spec: &[Complex64], n: usize, signal_bin: usize) -> Result<SpectralMetrics> {
    // One-sided power spectrum over bins 1..N/2 (DC and Nyquist excluded
    // from the analysis set).
    let power = |bin: usize| -> f64 { spec[bin].abs_sq() };
    let p_signal = power(signal_bin);

    // Fold harmonic k·M into the first Nyquist zone.
    let fold = |k: usize| -> usize {
        let b = (k * signal_bin) % n;
        if b > n / 2 {
            n - b
        } else {
            b
        }
    };
    let harmonic_bins: Vec<usize> = (2..=THD_HARMONICS + 1)
        .map(fold)
        .filter(|&b| b >= 1 && b < n / 2 && b != signal_bin)
        .collect();
    let mut is_harmonic = vec![false; n / 2];
    for &b in &harmonic_bins {
        is_harmonic[b] = true;
    }

    let p_harmonics: f64 = harmonic_bins.iter().map(|&b| power(b)).sum();

    let mut p_noise = 0.0;
    let mut p_max_spur = 0.0;
    for (b, &harmonic) in is_harmonic.iter().enumerate().skip(1) {
        if b == signal_bin {
            continue;
        }
        let p = power(b);
        if !harmonic {
            p_noise += p;
        }
        if p > p_max_spur {
            p_max_spur = p;
        }
    }

    // Every bin other than the signal's is noise or harmonic, so these
    // three sums are finite only if the whole analysed spectrum is.
    if !(p_signal.is_finite() && p_noise.is_finite() && p_harmonics.is_finite()) {
        return Err(CircuitError::InvalidSignal {
            reason: "non-finite spectrum".to_string(),
        });
    }
    if p_signal <= 0.0 {
        return Err(CircuitError::InvalidSignal {
            reason: "no energy in the signal bin".to_string(),
        });
    }

    let db = |ratio: f64| 10.0 * ratio.max(1e-30).log10();
    Ok(SpectralMetrics {
        snr_db: db(p_signal / p_noise.max(1e-30)),
        sinad_db: db(p_signal / (p_noise + p_harmonics).max(1e-30)),
        sfdr_db: db(p_signal / p_max_spur.max(1e-30)),
        thd_db: db(p_harmonics.max(1e-30) / p_signal),
    })
}

/// [`analyze`] by the complex FFT of the full record: the path the
/// half-length real transform replaced, kept as its reference.
#[cfg(test)]
pub(crate) fn analyze_reference(signal: &[f64], signal_bin: usize) -> Result<SpectralMetrics> {
    check_record(signal.len(), signal_bin)?;
    let mut spec: Vec<Complex64> = signal.iter().map(|&x| Complex64::from_re(x)).collect();
    crate::fft::fft_in_place(&mut spec)?;
    metrics(&spec, signal.len(), signal_bin)
}

/// Generates a coherently sampled sine record:
/// `amplitude · sin(2π M i / N + phase) + offset`.
///
/// # Errors
///
/// Returns [`CircuitError::InvalidSignal`] for a non-power-of-two `n` or an
/// out-of-range bin.
pub fn coherent_sine(
    n: usize,
    bin: usize,
    amplitude: f64,
    offset: f64,
    phase: f64,
) -> Result<Vec<f64>> {
    check_record(n, bin)?;
    Ok((0..n)
        .map(|i| {
            amplitude
                * (2.0 * std::f64::consts::PI * bin as f64 * i as f64 / n as f64 + phase).sin()
                + offset
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validates_input() {
        assert!(analyze(&[0.0; 7], 1).is_err());
        assert!(analyze(&[0.0; 16], 0).is_err());
        assert!(analyze(&[0.0; 16], 8).is_err());
        assert!(analyze(&[0.0; 16], 3).is_err()); // zero energy
        assert!(coherent_sine(12, 1, 1.0, 0.0, 0.0).is_err());
        assert!(coherent_sine(16, 0, 1.0, 0.0, 0.0).is_err());
    }

    #[test]
    fn non_finite_records_are_invalid_signals() {
        // A bad sample must fail the record, not read as −300 dB on every
        // metric: a failed die is retried, a plausible-looking one is kept.
        let tone = coherent_sine(64, 5, 1.0, 0.0, 0.0).unwrap();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut signal = tone.clone();
            signal[17] = bad;
            assert!(
                matches!(analyze(&signal, 5), Err(CircuitError::InvalidSignal { .. })),
                "sample {bad} was accepted"
            );
        }
        // Finite samples whose spectrum overflows are refused too.
        let huge = coherent_sine(64, 5, 1e306, 0.0, 0.0).unwrap();
        assert!(huge.iter().all(|x| x.is_finite()));
        assert!(matches!(
            analyze(&huge, 5),
            Err(CircuitError::InvalidSignal { .. })
        ));
    }

    #[test]
    fn known_noise_level_gives_expected_snr() {
        // Tone + white-ish deterministic perturbation of known power.
        let n = 4096;
        let m = 127;
        let mut signal = coherent_sine(n, m, 1.0, 0.0, 0.0).unwrap();
        // Pseudo-noise with power ~ 1e-6 (amplitude 1.414e-3 rms).
        let mut state = 1u64;
        let mut noise_power = 0.0;
        for s in signal.iter_mut() {
            // xorshift for deterministic noise
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let u = (state as f64 / u64::MAX as f64) - 0.5;
            let nval = u * 4.9e-3; // uniform, var = (4.9e-3)²/12
            *s += nval;
            noise_power += nval * nval;
        }
        noise_power /= n as f64;
        let expected_snr = 10.0 * ((0.5) / noise_power).log10();
        let metrics = analyze(&signal, m).unwrap();
        assert!(
            (metrics.snr_db - expected_snr).abs() < 1.5,
            "snr = {}, expected ≈ {expected_snr}",
            metrics.snr_db
        );
        // With no harmonic structure, SINAD ≈ SNR.
        assert!((metrics.sinad_db - metrics.snr_db).abs() < 1.0);
    }

    #[test]
    fn third_harmonic_distortion_is_measured() {
        let n = 4096;
        let m = 127;
        let a3 = 0.01; // −40 dBc third harmonic
        let mut signal = coherent_sine(n, m, 1.0, 0.0, 0.0).unwrap();
        let h3 = coherent_sine(n, (3 * m) % n, a3, 0.0, 0.0).unwrap();
        for (s, h) in signal.iter_mut().zip(h3.iter()) {
            *s += h;
        }
        let metrics = analyze(&signal, m).unwrap();
        assert!(
            (metrics.thd_db + 40.0).abs() < 0.5,
            "thd = {}",
            metrics.thd_db
        );
        assert!(
            (metrics.sfdr_db - 40.0).abs() < 0.5,
            "sfdr = {}",
            metrics.sfdr_db
        );
        // SNR (excluding harmonics) stays huge; SINAD is harmonics-limited.
        assert!(metrics.snr_db > 100.0);
        assert!((metrics.sinad_db - 40.0).abs() < 0.5);
    }

    #[test]
    fn harmonic_aliasing_folds_correctly() {
        // Pick m such that 2m exceeds Nyquist: n=64, m=25 → 2m=50 → folds to 14.
        let n = 64;
        let m = 25;
        let mut signal = coherent_sine(n, m, 1.0, 0.0, 0.0).unwrap();
        let h2 = coherent_sine(n, 14, 0.05, 0.0, 0.0).unwrap(); // aliased 2nd
        for (s, h) in signal.iter_mut().zip(h2.iter()) {
            *s += h;
        }
        let metrics = analyze(&signal, m).unwrap();
        // The energy at bin 14 must be counted as distortion, not noise.
        assert!(
            metrics.thd_db > -30.0 && metrics.thd_db < -23.0,
            "thd = {}",
            metrics.thd_db
        );
        assert!(metrics.snr_db > 60.0, "snr = {}", metrics.snr_db);
    }

    #[test]
    fn quantisation_snr_matches_6db_per_bit() {
        // Ideal B-bit quantiser of a full-scale sine: SNR ≈ 6.02 B + 1.76 dB.
        let n = 8192;
        let m = 255;
        for bits in [6u32, 8, 10] {
            let levels = (1u64 << bits) as f64;
            let signal = coherent_sine(n, m, 1.0, 0.0, 0.3).unwrap();
            let quantised: Vec<f64> = signal
                .iter()
                .map(|&x| {
                    let code = ((x + 1.0) / 2.0 * levels).floor().clamp(0.0, levels - 1.0);
                    (code + 0.5) / levels * 2.0 - 1.0
                })
                .collect();
            let metrics = analyze(&quantised, m).unwrap();
            let expected = 6.02 * bits as f64 + 1.76;
            assert!(
                (metrics.sinad_db - expected).abs() < 2.0,
                "{bits} bits: sinad = {}, expected ≈ {expected}",
                metrics.sinad_db
            );
        }
    }

    #[test]
    fn offset_does_not_affect_metrics() {
        // Add identical deterministic noise to a clean and a DC-shifted tone;
        // since DC sits in the excluded bin 0, SNR must agree. (The noise
        // keeps SNR finite — without it both records sit on the rounding
        // floor where comparison is meaningless.)
        let n = 1024;
        let m = 31;
        let mut clean = coherent_sine(n, m, 0.8, 0.0, 0.0).unwrap();
        let mut shifted = coherent_sine(n, m, 0.8, 0.25, 0.0).unwrap();
        let mut state = 42u64;
        for i in 0..n {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let nval = ((state as f64 / u64::MAX as f64) - 0.5) * 2e-3;
            clean[i] += nval;
            shifted[i] += nval;
        }
        let a = analyze(&clean, m).unwrap();
        let b = analyze(&shifted, m).unwrap();
        assert!(
            (a.snr_db - b.snr_db).abs() < 0.01,
            "{} vs {}",
            a.snr_db,
            b.snr_db
        );
        assert!(a.snr_db > 40.0 && a.snr_db < 90.0);
    }
}
