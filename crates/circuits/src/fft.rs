//! Radix-2 iterative fast Fourier transforms.
//!
//! The flash-ADC testbench measures its spectral metrics (SNR, SINAD, SFDR,
//! THD) from an FFT of the quantised sine wave; no allowed dependency
//! provides one, so this is a standard iterative Cooley–Tukey
//! implementation over [`Complex64`]. One butterfly kernel serves both
//! transforms:
//!
//! * [`fft_in_place`], the complex transform of a power-of-two buffer;
//! * the transform of a real record of length `N`, which packs the reals as
//!   `N/2` complex points `x[2m] + j·x[2m+1]`, runs one `N/2`-point
//!   transform and splits it into the one-sided spectrum `X[0..=N/2]`
//!   ([`fft_real`] mirrors the rest).
//!
//! The kernel reads its twiddles `e^{−j2πk/N}` from a table whose every
//! entry comes straight from `from_polar`, so no recurrence error grows
//! along a stage. The public functions build that table and the
//! bit-reversal indices per call; the ADC testbench keeps one real-input
//! plan for all its dies.

use crate::{CircuitError, Result};
use bmf_linalg::Complex64;

/// The twiddles `e^{−j2πk/l}` for `k` in `0..l/2`, each from `from_polar`.
fn twiddles(l: usize) -> Vec<Complex64> {
    (0..l / 2)
        .map(|k| Complex64::from_polar(1.0, -2.0 * std::f64::consts::PI * k as f64 / l as f64))
        .collect()
}

/// `rev[i]` is `i` with its low `log2 n` bits reversed (`rev = [0]` for
/// `n = 1`).
fn bit_reversal(n: usize) -> Vec<usize> {
    let bits = n.trailing_zeros();
    (0..n)
        .map(|i| {
            i.reverse_bits()
                .checked_shr(usize::BITS - bits)
                .unwrap_or(0)
        })
        .collect()
}

/// The radix-2 decimation-in-time butterflies of a buffer already in
/// bit-reversed order. `twiddles` is the table of some length
/// `l ≥ buf.len()` (so `l/2` entries); a stage of length `len` reads every
/// `(l/len)`-th entry.
fn butterflies(buf: &mut [Complex64], twiddles: &[Complex64]) {
    let mut len = 2;
    while len <= buf.len() {
        let stride = 2 * twiddles.len() / len;
        for group in buf.chunks_exact_mut(len) {
            let (lo, hi) = group.split_at_mut(len / 2);
            for ((u, v), &w) in lo
                .iter_mut()
                .zip(hi.iter_mut())
                .zip(twiddles.iter().step_by(stride))
            {
                let t = *v * w;
                *v = *u - t;
                *u += t;
            }
        }
        len <<= 1;
    }
}

/// The twiddles and bit-reversal indices of the FFT of a real record.
#[derive(Debug, Clone)]
pub(crate) struct RealFftPlan {
    /// `e^{−j2πk/N}` for `k` in `0..N/2`: the split's twiddles, and every
    /// other entry the `N/2`-point transform's.
    twiddles: Vec<Complex64>,
    /// Bit-reversal permutation of the `N/2`-point transform.
    rev: Vec<usize>,
}

impl RealFftPlan {
    /// Plans the transform of a real record of length `n`.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidSignal`] unless `n` is a power of two
    /// of at least 2.
    pub(crate) fn new(n: usize) -> Result<Self> {
        if n < 2 || !n.is_power_of_two() {
            return Err(CircuitError::InvalidSignal {
                reason: format!("real FFT length must be a power of two >= 2, got {n}"),
            });
        }
        Ok(RealFftPlan {
            twiddles: twiddles(n),
            rev: bit_reversal(n / 2),
        })
    }

    /// The one-sided spectrum `X[0..=N/2]` of `signal`, whose length must be
    /// the planned `N`.
    pub(crate) fn half_spectrum(&self, signal: &[f64]) -> Vec<Complex64> {
        bmf_obs::counters::FFT_CALLS.incr();
        let m = self.rev.len();
        assert_eq!(signal.len(), 2 * m, "record length differs from the plan");
        // Pack z[i] = x[2i] + j·x[2i+1] straight into bit-reversed order.
        let mut z = vec![Complex64::ZERO; m + 1];
        for (pair, &j) in signal.chunks_exact(2).zip(&self.rev) {
            z[j] = Complex64::new(pair[0], pair[1]);
        }
        butterflies(&mut z[..m], &self.twiddles);

        // Split. E_k = (Z_k + conj Z_{m−k})/2 and O_k = −j(Z_k − conj Z_{m−k})/2
        // are the spectra of the even and odd samples, so with W = e^{−j2π/N}
        // X_k = E_k + W^k O_k and X_{m−k} = conj(E_k − W^k O_k).
        let z0 = z[0];
        z[0] = Complex64::from_re(z0.re + z0.im);
        z[m] = Complex64::from_re(z0.re - z0.im);
        for k in 1..m.div_ceil(2) {
            let a = z[k];
            let b = z[m - k].conj();
            let e = (a + b) * 0.5;
            let d = a - b;
            let wo = self.twiddles[k] * Complex64::new(0.5 * d.im, -0.5 * d.re);
            z[k] = e + wo;
            z[m - k] = (e - wo).conj();
        }
        if m >= 2 {
            // At k = m/2, W^k = −j and the split reduces to a conjugate.
            z[m / 2] = z[m / 2].conj();
        }
        z
    }
}

/// In-place decimation-in-time FFT of a power-of-two-length buffer.
///
/// Forward transform, no normalisation (`X[k] = Σ x[n] e^{−j2πkn/N}`).
/// Length 1 is the identity.
///
/// # Errors
///
/// Returns [`CircuitError::InvalidSignal`] when the length is zero or not a
/// power of two.
///
/// # Example
///
/// ```
/// use bmf_circuits::fft::fft_in_place;
/// use bmf_linalg::Complex64;
///
/// # fn main() -> Result<(), bmf_circuits::CircuitError> {
/// // DC signal: all energy lands in bin 0.
/// let mut buf = vec![Complex64::ONE; 8];
/// fft_in_place(&mut buf)?;
/// assert!((buf[0].re - 8.0).abs() < 1e-12);
/// assert!(buf[1].abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn fft_in_place(buf: &mut [Complex64]) -> Result<()> {
    bmf_obs::counters::FFT_CALLS.incr();
    let n = buf.len();
    if n == 0 || !n.is_power_of_two() {
        return Err(CircuitError::InvalidSignal {
            reason: format!("FFT length must be a non-zero power of two, got {n}"),
        });
    }
    for (i, j) in bit_reversal(n).into_iter().enumerate() {
        if j > i {
            buf.swap(i, j);
        }
    }
    butterflies(buf, &twiddles(n));
    Ok(())
}

/// FFT of a real signal, returning all `N` bins of the complex spectrum.
///
/// The upper half is the mirror `X[N−k] = conj X[k]` of the one-sided
/// spectrum of the half-length transform.
///
/// # Errors
///
/// Returns [`CircuitError::InvalidSignal`] when the length is zero or not a
/// power of two.
pub fn fft_real(signal: &[f64]) -> Result<Vec<Complex64>> {
    let n = signal.len();
    if n < 2 {
        // Length 0 is refused and length 1 is the identity, as for the
        // complex transform.
        let mut buf: Vec<Complex64> = signal.iter().map(|&x| Complex64::from_re(x)).collect();
        fft_in_place(&mut buf)?;
        return Ok(buf);
    }
    let mut spec = RealFftPlan::new(n)?.half_spectrum(signal);
    for k in (1..n / 2).rev() {
        let mirrored = spec[k].conj();
        spec.push(mirrored);
    }
    Ok(spec)
}

/// Inverse FFT (in place, normalised by `1/N`).
///
/// # Errors
///
/// Returns [`CircuitError::InvalidSignal`] when the length is zero or not a
/// power of two.
pub fn ifft_in_place(buf: &mut [Complex64]) -> Result<()> {
    for z in buf.iter_mut() {
        *z = z.conj();
    }
    fft_in_place(buf)?;
    let n = buf.len() as f64;
    for z in buf.iter_mut() {
        *z = z.conj() / n;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// The direct O(N²) DFT, each twiddle `e^{−j2π(kn mod N)/N}` from
    /// `from_polar`.
    fn dft(x: &[Complex64]) -> Vec<Complex64> {
        let n = x.len();
        let w: Vec<Complex64> = (0..n)
            .map(|k| Complex64::from_polar(1.0, -2.0 * std::f64::consts::PI * k as f64 / n as f64))
            .collect();
        (0..n)
            .map(|k| {
                x.iter()
                    .enumerate()
                    .fold(Complex64::ZERO, |acc, (t, &v)| acc + v * w[k * t % n])
            })
            .collect()
    }

    /// `‖a − b‖₂ / ‖b‖₂`.
    fn rel_err(a: &[Complex64], b: &[Complex64]) -> f64 {
        let diff: f64 = a.iter().zip(b).map(|(x, y)| (*x - *y).abs_sq()).sum();
        let norm: f64 = b.iter().map(|y| y.abs_sq()).sum();
        (diff / norm).sqrt()
    }

    #[test]
    fn rejects_bad_lengths() {
        let mut b = vec![Complex64::ZERO; 3];
        assert!(fft_in_place(&mut b).is_err());
        let mut b: Vec<Complex64> = vec![];
        assert!(fft_in_place(&mut b).is_err());
        let mut b = vec![Complex64::ZERO; 4];
        assert!(fft_in_place(&mut b).is_ok());
        assert!(fft_real(&[]).is_err());
        assert!(fft_real(&[0.0; 6]).is_err());
        assert!(RealFftPlan::new(1).is_err());
        assert!(RealFftPlan::new(12).is_err());
    }

    #[test]
    fn length_one_is_the_identity() {
        let z = Complex64::new(0.75, -2.5);
        let mut b = [z];
        fft_in_place(&mut b).unwrap();
        assert_eq!(b, [z]);
        ifft_in_place(&mut b).unwrap();
        assert_eq!(b, [z]);
        assert_eq!(fft_real(&[-3.25]).unwrap(), [Complex64::from_re(-3.25)]);
    }

    #[test]
    fn kernel_matches_direct_dft() {
        let mut r = rand::rngs::StdRng::seed_from_u64(16);
        for bits in 3..=10 {
            let n = 1usize << bits;
            for _ in 0..3 {
                let x: Vec<Complex64> = (0..n)
                    .map(|_| Complex64::new(r.gen_range(-1.0..1.0), r.gen_range(-1.0..1.0)))
                    .collect();
                let mut fast = x.clone();
                fft_in_place(&mut fast).unwrap();
                let err = rel_err(&fast, &dft(&x));
                assert!(err < 1e-13, "n = {n}: relative error {err:e}");
            }
        }
    }

    #[test]
    fn single_tone_lands_in_its_bin() {
        let n = 64;
        let k = 5;
        let signal: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * k as f64 * i as f64 / n as f64).cos())
            .collect();
        let spec = fft_real(&signal).unwrap();
        // cos splits into bins k and n−k with magnitude n/2 each.
        assert!((spec[k].abs() - n as f64 / 2.0).abs() < 1e-9);
        assert!((spec[n - k].abs() - n as f64 / 2.0).abs() < 1e-9);
        for (i, z) in spec.iter().enumerate() {
            if i != k && i != n - k {
                assert!(z.abs() < 1e-9, "leakage at bin {i}: {}", z.abs());
            }
        }
    }

    #[test]
    fn linearity() {
        let n = 32;
        let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos()).collect();
        let sum: Vec<f64> = a.iter().zip(&b).map(|(x, y)| 2.0 * x + 3.0 * y).collect();
        let fa = fft_real(&a).unwrap();
        let fb = fft_real(&b).unwrap();
        let fsum = fft_real(&sum).unwrap();
        for i in 0..n {
            let expected = fa[i] * 2.0 + fb[i] * 3.0;
            assert!((fsum[i] - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn parseval_energy_conservation() {
        let n = 128;
        let signal: Vec<f64> = (0..n).map(|i| ((i * 37 % 11) as f64 - 5.0) * 0.1).collect();
        let spec = fft_real(&signal).unwrap();
        let time_energy: f64 = signal.iter().map(|x| x * x).sum();
        let freq_energy: f64 = spec.iter().map(|z| z.abs_sq()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() < 1e-9 * time_energy.max(1.0));
    }

    #[test]
    fn ifft_round_trip() {
        let n = 64;
        let signal: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin() + 0.3).collect();
        let mut buf: Vec<Complex64> = signal.iter().map(|&x| Complex64::from_re(x)).collect();
        fft_in_place(&mut buf).unwrap();
        ifft_in_place(&mut buf).unwrap();
        for (orig, rec) in signal.iter().zip(buf.iter()) {
            assert!((rec.re - orig).abs() < 1e-12);
            assert!(rec.im.abs() < 1e-12);
        }
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let n = 16;
        let mut signal = vec![0.0; n];
        signal[0] = 1.0;
        let spec = fft_real(&signal).unwrap();
        for z in &spec {
            assert!((z.abs() - 1.0).abs() < 1e-12);
        }
    }
}
