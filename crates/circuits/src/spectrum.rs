//! Coherent-sampling spectral analysis: SNR, SINAD, SFDR, THD.
//!
//! The flash-ADC testbench drives the converter with a coherently sampled
//! sine (`f_in/f_s = M/N`, `M` odd and coprime to the power-of-two `N`), so
//! every signal and harmonic component lands exactly on an FFT bin and no
//! window is needed — the standard ADC characterisation setup.
//!
//! A real record's spectrum is conjugate-symmetric, so the metrics read
//! only the one-sided bins `1..N/2`. [`analyze`] packs its record into the
//! split-format buffer of [`crate::fft`], transforms it, and the
//! real-input split hands the power `|X_k|²` of each bin pair straight to
//! the signal, harmonic, noise and largest-spur sums: no spectrum is
//! stored. Which bins hold the tone and its folded harmonics depends only
//! on `N` and `M`, so a crate-private `SpectrumPlan` keeps them with the
//! FFT plan; the ADC testbench builds one for all its dies and writes each
//! die's record straight into the buffer.

use crate::fft::RealFftPlan;
use crate::{CircuitError, Result};

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
/// Harmonic bins are folded (aliased) into the first Nyquist zone, and
/// harmonics that fold onto one bin count it once. DC and the signal bin
/// are excluded from the noise estimate.
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
    let plan = SpectrumPlan::new(signal.len(), signal_bin)?;
    if let Some(i) = signal.iter().position(|x| !x.is_finite()) {
        return Err(CircuitError::InvalidSignal {
            reason: format!("sample {i} is {}", signal[i]),
        });
    }
    plan.analyze(&mut plan.fft.pack(signal))
}

/// The analysis of coherent records of one length and tone bin: the
/// real-input FFT plan and the bins the metrics single out.
#[derive(Debug, Clone)]
pub(crate) struct SpectrumPlan {
    fft: RealFftPlan,
    /// The tone bin `M`.
    signal: usize,
    /// The harmonics `2M..=(THD_HARMONICS + 1)·M` folded into `1..N/2`, as
    /// a sorted set without the signal bin.
    harmonics: Vec<usize>,
    /// The split's pairs `(k, N/2 − k)`, `k < N/4`, that hold the signal
    /// or a harmonic bin: `k` ascending.
    pairs: Vec<usize>,
}

/// What the bins of one record add up to.
#[derive(Default)]
struct Sums {
    signal: f64,
    harmonics: f64,
    noise: f64,
    spur: f64,
}

impl SpectrumPlan {
    /// Plans the analysis of `n`-point records with tone bin `signal_bin`.
    ///
    /// # Errors
    ///
    /// [`CircuitError::InvalidSignal`] unless `n` is a power of two of at
    /// least 8 and `signal_bin` lies in `1..n/2`.
    pub(crate) fn new(n: usize, signal_bin: usize) -> Result<Self> {
        check_record(n, signal_bin)?;
        let m = n / 2;
        let mut harmonics: Vec<usize> = (2..=THD_HARMONICS + 1)
            .map(|k| {
                let b = (k * signal_bin) % n;
                b.min(n - b)
            })
            .filter(|&b| b >= 1 && b < m && b != signal_bin)
            .collect();
        harmonics.sort_unstable();
        harmonics.dedup();
        let mut pairs: Vec<usize> = harmonics
            .iter()
            .chain([&signal_bin])
            .map(|&b| b.min(m - b))
            .filter(|&k| k < m / 2)
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        Ok(SpectrumPlan {
            fft: RealFftPlan::new(n)?,
            signal: signal_bin,
            harmonics,
            pairs,
        })
    }

    /// The FFT plan, whose [`RealFftPlan::slot`]s the record fills.
    pub(crate) fn fft(&self) -> &RealFftPlan {
        &self.fft
    }

    /// [`analyze`] of the record filled into `buf`, which it transforms in
    /// place. The samples are not checked: a non-finite one is refused
    /// only through the non-finite spectrum it causes.
    pub(crate) fn analyze(&self, buf: &mut [f64]) -> Result<SpectralMetrics> {
        bmf_obs::counters::SPECTRUM_ANALYSES.incr();
        let _timer = bmf_obs::histograms::SPECTRUM_NS.timer();
        let _span = bmf_obs::span("spectrum.analyze");
        self.fft.transform(buf);
        let m = self.fft.len() / 2;
        let centre = m / 2;
        // Noise and spur over the plain pairs, four bins to a step: one
        // lane for each of k, k + 1, m − k and m − k − 1.
        let (mut noise, mut spur) = ([0.0; 4], [0.0; 4]);
        let mut sums = Sums::default();
        let mut from = 1;
        for &k in self.pairs.iter().chain([&centre]) {
            self.fft.pair_powers(buf, from..k, |lo, hi| {
                for (i, p) in lo.into_iter().chain(hi).enumerate() {
                    noise[i] += p;
                    spur[i] = if p > spur[i] { p } else { spur[i] };
                }
            });
            if k < centre {
                self.fft.pair_powers(buf, k..k + 1, |lo, hi| {
                    self.add(k, lo[0], &mut sums);
                    self.add(m - k, hi[0], &mut sums);
                });
            }
            from = k + 1;
        }
        self.add(centre, self.fft.centre(buf).abs_sq(), &mut sums);
        sums.noise += (noise[0] + noise[1]) + (noise[2] + noise[3]);
        sums.spur = spur.into_iter().fold(sums.spur, f64::max);
        sums.metrics()
    }

    /// Adds the power `p` of `bin` (in `1..N/2`) to its sum.
    fn add(&self, bin: usize, p: f64, sums: &mut Sums) {
        if bin == self.signal {
            sums.signal = p;
            return;
        }
        if self.harmonics.contains(&bin) {
            sums.harmonics += p;
        } else {
            sums.noise += p;
        }
        sums.spur = sums.spur.max(p);
    }
}

impl Sums {
    fn metrics(&self) -> Result<SpectralMetrics> {
        // Every bin other than the signal's is noise or harmonic, so these
        // three sums are finite only if the whole analysed spectrum is.
        if !(self.signal.is_finite() && self.noise.is_finite() && self.harmonics.is_finite()) {
            return Err(CircuitError::InvalidSignal {
                reason: "non-finite spectrum".to_string(),
            });
        }
        if self.signal <= 0.0 {
            return Err(CircuitError::InvalidSignal {
                reason: "no energy in the signal bin".to_string(),
            });
        }
        let db = |ratio: f64| 10.0 * ratio.max(1e-30).log10();
        Ok(SpectralMetrics {
            snr_db: db(self.signal / self.noise.max(1e-30)),
            sinad_db: db(self.signal / (self.noise + self.harmonics).max(1e-30)),
            sfdr_db: db(self.signal / self.spur.max(1e-30)),
            thd_db: db(self.harmonics.max(1e-30) / self.signal),
        })
    }
}

/// [`analyze`] by the radix-2 array-of-structs FFT of the full complex
/// record, its bins summed in order: the path the split-format kernel
/// replaced, kept as its reference.
#[cfg(test)]
pub(crate) fn analyze_reference(signal: &[f64], signal_bin: usize) -> Result<SpectralMetrics> {
    use bmf_linalg::Complex64;
    let plan = SpectrumPlan::new(signal.len(), signal_bin)?;
    let mut spec: Vec<Complex64> = signal.iter().map(|&x| Complex64::from_re(x)).collect();
    crate::fft::fft_reference(&mut spec);
    let mut sums = Sums::default();
    for (bin, x) in spec.iter().enumerate().take(signal.len() / 2).skip(1) {
        plan.add(bin, x.abs_sq(), &mut sums);
    }
    sums.metrics()
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
    fn harmonics_folding_onto_one_bin_count_it_once() {
        // N = 16, M = 2: harmonics 2 and 6 fold to bin 4 (3 and 5 to 6).
        // N = 8, M = 3: harmonics 2 and 6 fold to bin 2, 3 and 5 to bin 1.
        for (n, m, h) in [(16, 2, 4), (8, 3, 2), (8, 3, 1)] {
            let mut signal = coherent_sine(n, m, 1.0, 0.0, 0.0).unwrap();
            let spur = coherent_sine(n, h, 0.1, 0.0, 0.0).unwrap();
            for (s, x) in signal.iter_mut().zip(&spur) {
                *s += x;
            }
            for metrics in [
                analyze(&signal, m).unwrap(),
                analyze_reference(&signal, m).unwrap(),
            ] {
                assert!(
                    (metrics.thd_db + 20.0).abs() < 1e-9,
                    "N = {n}, M = {m}, bin {h}: thd = {}",
                    metrics.thd_db
                );
                assert!(
                    (metrics.sinad_db - 20.0).abs() < 1e-9,
                    "N = {n}, M = {m}, bin {h}: sinad = {}",
                    metrics.sinad_db
                );
                assert!((metrics.sfdr_db - 20.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn split_metrics_match_the_reference_at_every_length() {
        let mut state = 7u64;
        for bits in 3..=12 {
            let n = 1usize << bits;
            for m in [1, n / 4 - 1, n / 4, n / 4 + 1, n / 2 - 1] {
                let mut signal = coherent_sine(n, m, 1.0, 0.1, 0.4).unwrap();
                for s in signal.iter_mut() {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    *s += ((state as f64 / u64::MAX as f64) - 0.5) * 1e-2;
                }
                let fast = analyze(&signal, m).unwrap();
                let slow = analyze_reference(&signal, m).unwrap();
                for (x, y) in [
                    (fast.snr_db, slow.snr_db),
                    (fast.sinad_db, slow.sinad_db),
                    (fast.sfdr_db, slow.sfdr_db),
                    (fast.thd_db, slow.thd_db),
                ] {
                    assert!(
                        (x - y).abs() <= 1e-9 * y.abs(),
                        "N = {n}, M = {m}: {x} vs {y}"
                    );
                }
            }
        }
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
