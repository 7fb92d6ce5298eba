//! Fast Fourier transforms on one split-format, radix-2² kernel.
//!
//! The flash-ADC testbench measures its spectral metrics (SNR, SINAD, SFDR,
//! THD) from an FFT of the quantised sine wave; no allowed dependency
//! provides one, so this module holds one iterative decimation-in-time
//! kernel. It works in *split format*: an `m`-point complex buffer is one
//! `[f64]` of length `2m`, real parts first, `[re(0..m) | im(0..m)]`,
//! filled in bit-reversed order and transformed in place to natural order.
//! Its stages are
//!
//! * a twiddle-free first pass: the radix-2 stages of lengths 2 and 4,
//!   whose twiddles are 1 and `−j` (a swap and a sign), or only the first
//!   of them when `m = 2`;
//! * radix-2² stages, each the radix-2 stages of lengths `L/2` and `L`
//!   fused into one pass that reads one contiguous twiddle run, `W_L^{2j}`
//!   and `W_L^j` for `j` in `0..L/4` (the odd quarter's `W_L^{j+L/4}` is
//!   `−j·W_L^j`);
//! * one trailing radix-2 stage when the fused pairs leave a level over,
//!   that is when `log₂ m` is odd (and at least 3).
//!
//! Every twiddle comes straight from `from_polar`, so no recurrence error
//! grows along a stage. The butterflies run two at a time on `[f64; 2]`
//! lanes (adjacent `j` of one stage, whose parts sit side by side in the
//! split buffer), which LLVM's SLP vectoriser turns into packed SSE2
//! arithmetic on baseline x86-64.
//!
//! A real record of length `N` is transformed as the `N/2` complex points
//! `x[2i] + j·x[2i+1]`. The real-input plan says in which slot of the buffer
//! each sample goes, so the ADC testbench writes its record straight into
//! it, and splits the half-length transform into the one-sided spectrum
//! `X[0..=N/2]` one bin pair `(k, N/2 − k)` at a time, which
//! [`crate::spectrum`] reads as powers without storing a spectrum.
//! [`fft_in_place`], [`fft_real`] and [`ifft_in_place`] pack their input
//! into the same buffer and plan per call.

use crate::{CircuitError, Result};
use bmf_linalg::Complex64;

/// One part (real or imaginary) of two adjacent butterflies.
type Lane = [f64; 2];

#[inline(always)]
fn add(a: Lane, b: Lane) -> Lane {
    [a[0] + b[0], a[1] + b[1]]
}

#[inline(always)]
fn sub(a: Lane, b: Lane) -> Lane {
    [a[0] - b[0], a[1] - b[1]]
}

#[inline(always)]
fn mul(a: Lane, b: Lane) -> Lane {
    [a[0] * b[0], a[1] * b[1]]
}

/// Two complex numbers as a real and an imaginary lane.
#[derive(Clone, Copy)]
struct Pair {
    re: Lane,
    im: Lane,
}

impl Pair {
    /// Lane `j` of a real and an imaginary part.
    #[inline(always)]
    fn load(re: &[Lane], im: &[Lane], j: usize) -> Pair {
        Pair {
            re: re[j],
            im: im[j],
        }
    }

    #[inline(always)]
    fn store(self, re: &mut [Lane], im: &mut [Lane], j: usize) {
        re[j] = self.re;
        im[j] = self.im;
    }

    #[inline(always)]
    fn add(self, o: Pair) -> Pair {
        Pair {
            re: add(self.re, o.re),
            im: add(self.im, o.im),
        }
    }

    #[inline(always)]
    fn sub(self, o: Pair) -> Pair {
        Pair {
            re: sub(self.re, o.re),
            im: sub(self.im, o.im),
        }
    }

    /// `self · w`, formed as `Complex64`'s `Mul` forms it.
    #[inline(always)]
    fn mul(self, w: Pair) -> Pair {
        Pair {
            re: sub(mul(self.re, w.re), mul(self.im, w.im)),
            im: add(mul(self.re, w.im), mul(self.im, w.re)),
        }
    }

    /// `self · (−j)`.
    #[inline(always)]
    fn mul_neg_j(self) -> Pair {
        Pair {
            re: self.im,
            im: [-self.re[0], -self.re[1]],
        }
    }
}

/// `e^{−j2πk/l}`, straight from `from_polar`.
fn twiddle(k: usize, l: usize) -> Complex64 {
    Complex64::from_polar(1.0, -2.0 * std::f64::consts::PI * k as f64 / l as f64)
}

/// `i` with its low `bits` bits reversed (`0` when `bits = 0`).
fn reverse(i: usize, bits: u32) -> usize {
    i.reverse_bits()
        .checked_shr(usize::BITS - bits)
        .unwrap_or(0)
}

/// The twiddles `e^{−j2π·step·i/l}` for `i` in `0..count`, real and
/// imaginary parts in separate arrays.
#[derive(Debug, Clone)]
struct Twiddles {
    re: Vec<f64>,
    im: Vec<f64>,
}

impl Twiddles {
    fn new(l: usize, step: usize, count: usize) -> Self {
        let (re, im) = (0..count)
            .map(|i| {
                let w = twiddle(step * i, l);
                (w.re, w.im)
            })
            .unzip();
        Twiddles { re, im }
    }

    /// The twiddles two at a time.
    fn lanes(&self) -> (&[Lane], &[Lane]) {
        (self.re.as_chunks().0, self.im.as_chunks().0)
    }
}

/// The plan of an `m`-point complex transform in split format.
#[derive(Debug, Clone)]
struct SplitFft {
    len: usize,
    /// Each radix-2² stage's `(W_L^{2j}, W_L^j)`, shortest stage first.
    quads: Vec<(Twiddles, Twiddles)>,
    /// `W_m^j` for `j` in `0..m/2`, when a trailing radix-2 stage is left.
    tail: Option<Twiddles>,
}

impl SplitFft {
    /// Plans a power-of-two length `len`.
    fn new(len: usize) -> Self {
        let mut quads = Vec::new();
        // The transform length the stages planned so far complete.
        let mut done = len.min(4);
        while 4 * done <= len {
            let l = 4 * done;
            quads.push((Twiddles::new(l, 2, l / 4), Twiddles::new(l, 1, l / 4)));
            done = l;
        }
        let tail = (done < len).then(|| Twiddles::new(len, 1, len / 2));
        SplitFft { len, quads, tail }
    }

    /// Transforms `re + j·im`, loaded in bit-reversed order, in place.
    fn run(&self, re: &mut [f64], im: &mut [f64]) {
        if self.len >= 4 {
            first_pass(re, im);
        } else {
            two_point(re);
            two_point(im);
        }
        for (w2, w1) in &self.quads {
            radix4(re, im, w2, w1);
        }
        if let Some(w) = &self.tail {
            radix2(re, im, w);
        }
    }
}

/// The radix-2 stage of length 2 alone, on one part: the whole transform
/// of length 2.
fn two_point(part: &mut [f64]) {
    for pair in part.as_chunks_mut::<2>().0 {
        let [a, b] = *pair;
        *pair = [a + b, a - b];
    }
}

/// The radix-2 stages of lengths 2 and 4, twiddle-free: per group of four,
/// `b = (a₀ + a₁, a₀ − a₁, a₂ + a₃, a₂ − a₃)`, then
/// `(b₀ + b₂, b₁ − j·b₃, b₀ − b₂, b₁ + j·b₃)`.
fn first_pass(re: &mut [f64], im: &mut [f64]) {
    let (re, im) = (re.as_chunks_mut::<4>().0, im.as_chunks_mut::<4>().0);
    for (r, i) in re.iter_mut().zip(im) {
        let [r0, r1, r2, r3] = *r;
        let [i0, i1, i2, i3] = *i;
        let (br0, bi0, br1, bi1) = (r0 + r1, i0 + i1, r0 - r1, i0 - i1);
        let (br2, bi2, br3, bi3) = (r2 + r3, i2 + i3, r2 - r3, i2 - i3);
        *r = [br0 + br2, br1 + bi3, br0 - br2, br1 - bi3];
        *i = [bi0 + bi2, bi1 - br3, bi0 - bi2, bi1 + br3];
    }
}

/// The four quarters of a stage group, as lanes of two.
fn quarters(part: &mut [f64]) -> [&mut [Lane]; 4] {
    let lanes = part.as_chunks_mut::<2>().0;
    let q = lanes.len() / 4;
    let (a, rest) = lanes.split_at_mut(q);
    let (b, rest) = rest.split_at_mut(q);
    let (c, d) = rest.split_at_mut(q);
    [a, b, c, &mut d[..q]]
}

/// One radix-2² stage of length `L = 4·w1.len() ≥ 16`: per group and `j`,
/// the length-`L/2` butterflies of quarters 0, 1 and 2, 3 (twiddle
/// `W_L^{2j}`), then the length-`L` butterflies of quarters 0, 2 (`W_L^j`)
/// and 1, 3 (`W_L^{j+L/4} = −j·W_L^j`).
fn radix4(re: &mut [f64], im: &mut [f64], w2: &Twiddles, w1: &Twiddles) {
    let l = 4 * w1.re.len();
    let (w2re, w2im) = w2.lanes();
    let (w1re, w1im) = w1.lanes();
    for (re, im) in re.chunks_exact_mut(l).zip(im.chunks_exact_mut(l)) {
        let [r0, r1, r2, r3] = quarters(re);
        let [i0, i1, i2, i3] = quarters(im);
        let n = r0.len();
        let (w2re, w2im, w1re, w1im) = (&w2re[..n], &w2im[..n], &w1re[..n], &w1im[..n]);
        let (i0, i1, i2, i3) = (&mut i0[..n], &mut i1[..n], &mut i2[..n], &mut i3[..n]);
        for j in 0..n {
            let (w2, w1) = (Pair::load(w2re, w2im, j), Pair::load(w1re, w1im, j));
            let t = Pair::load(r1, i1, j).mul(w2);
            let a0 = Pair::load(r0, i0, j);
            let (b0, b1) = (a0.add(t), a0.sub(t));
            let t = Pair::load(r3, i3, j).mul(w2);
            let a2 = Pair::load(r2, i2, j);
            let (b2, b3) = (a2.add(t), a2.sub(t));
            let t = b2.mul(w1);
            b0.add(t).store(r0, i0, j);
            b0.sub(t).store(r2, i2, j);
            let t = b3.mul(w1).mul_neg_j();
            b1.add(t).store(r1, i1, j);
            b1.sub(t).store(r3, i3, j);
        }
    }
}

/// The trailing radix-2 stage, of the whole length `2·w.len() ≥ 8`.
fn radix2(re: &mut [f64], im: &mut [f64], w: &Twiddles) {
    let (wre, wim) = w.lanes();
    let n = wre.len();
    let (r0, r1) = re.as_chunks_mut::<2>().0.split_at_mut(n);
    let (i0, i1) = im.as_chunks_mut::<2>().0.split_at_mut(n);
    let (r1, i0, i1, wim) = (&mut r1[..n], &mut i0[..n], &mut i1[..n], &wim[..n]);
    for j in 0..n {
        let t = Pair::load(r1, i1, j).mul(Pair::load(wre, wim, j));
        let u = Pair::load(r0, i0, j);
        u.add(t).store(r0, i0, j);
        u.sub(t).store(r1, i1, j);
    }
}

/// The real-input split of `Z_k` and `Z_{m−k}` (lane 0) and of `Z_{k+1}`
/// and `Z_{m−k−1}` (lane 1), with `w` holding `W^k` and `W^{k+1}`, into
/// `X_k`, `X_{k+1}` and `X_{m−k}`, `X_{m−k−1}`.
///
/// `E_k = (Z_k + conj Z_{m−k})/2` and `O_k = −j(Z_k − conj Z_{m−k})/2` are
/// the spectra of the even and odd samples, so with `W = e^{−j2π/N}`,
/// `X_k = E_k + W^k O_k` and `X_{m−k} = conj(E_k − W^k O_k)`.
#[inline(always)]
fn split(z: Pair, mirror: Pair, w: Pair) -> (Pair, Pair) {
    let half = [0.5; 2];
    let b = Pair {
        re: mirror.re,
        im: [-mirror.im[0], -mirror.im[1]],
    };
    let e = z.add(b);
    let e = Pair {
        re: mul(e.re, half),
        im: mul(e.im, half),
    };
    let d = z.sub(b);
    let wo = w.mul(Pair {
        re: mul(half, d.im),
        im: [-0.5 * d.re[0], -0.5 * d.re[1]],
    });
    let hi = e.sub(wo);
    (
        e.add(wo),
        Pair {
            re: hi.re,
            im: [-hi.im[0], -hi.im[1]],
        },
    )
}

/// The plan of the FFT of a real record of length `N`: the `N/2`-point
/// split-format transform and the twiddles of the real-input split.
#[derive(Debug, Clone)]
pub(crate) struct RealFftPlan {
    fft: SplitFft,
    /// `e^{−j2πk/N}` for `k` in `0..N/4`.
    split: Twiddles,
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
            fft: SplitFft::new(n / 2),
            split: Twiddles::new(n, 1, n / 4),
        })
    }

    /// The record length `N`, which is also the buffer's.
    pub(crate) fn len(&self) -> usize {
        2 * self.fft.len
    }

    /// The buffer slot of record sample `i`: sample `2i'` is the real part
    /// and `2i' + 1` the imaginary part of complex point `i'`, which sits
    /// at the bit reversal of `i'`.
    pub(crate) fn slot(&self, i: usize) -> usize {
        let m = self.fft.len;
        (i % 2) * m + reverse(i / 2, m.trailing_zeros())
    }

    /// The record sample in `slot`: the inverse of [`Self::slot`].
    #[cfg(test)]
    pub(crate) fn record_index(&self, slot: usize) -> usize {
        let m = self.fft.len;
        2 * reverse(slot % m, m.trailing_zeros()) + slot / m
    }

    /// A buffer holding `signal`, whose length must be the planned `N`.
    pub(crate) fn pack(&self, signal: &[f64]) -> Vec<f64> {
        assert_eq!(
            signal.len(),
            self.len(),
            "record length differs from the plan"
        );
        let mut buf = vec![0.0; signal.len()];
        for (i, &x) in signal.iter().enumerate() {
            buf[self.slot(i)] = x;
        }
        buf
    }

    /// Transforms a filled buffer in place into the half-length spectrum
    /// `Z`, in natural order, that [`Self::pair`] and [`Self::centre`]
    /// split.
    pub(crate) fn transform(&self, buf: &mut [f64]) {
        bmf_obs::counters::FFT_CALLS.incr();
        let (re, im) = buf.split_at_mut(self.fft.len);
        self.fft.run(re, im);
    }

    /// The bins `X_k` and `X_{m−k}` of a transformed buffer, for `k` in
    /// `1..m/2` with `m = N/2`.
    fn pair(&self, buf: &[f64], k: usize) -> (Complex64, Complex64) {
        let m = self.fft.len;
        let lane = |part: &[f64], j: usize| [part[j], 0.0];
        let (lo, hi) = split(
            Pair {
                re: lane(&buf[..m], k),
                im: lane(&buf[m..], k),
            },
            Pair {
                re: lane(&buf[..m], m - k),
                im: lane(&buf[m..], m - k),
            },
            Pair {
                re: lane(&self.split.re, k),
                im: lane(&self.split.im, k),
            },
        );
        (
            Complex64::new(lo.re[0], lo.im[0]),
            Complex64::new(hi.re[0], hi.im[0]),
        )
    }

    /// Hands `emit` the powers of the bins of a transformed buffer, two
    /// pairs at a time: `[|X_k|², |X_{k+1}|²]` and
    /// `[|X_{m−k}|², |X_{m−k−1}|²]` for `k` stepping by 2 through `ks`
    /// (within `1..m/2`); an odd last `k` comes with zeros in lane 1.
    #[inline(always)]
    pub(crate) fn pair_powers(
        &self,
        buf: &[f64],
        ks: std::ops::Range<usize>,
        mut emit: impl FnMut(Lane, Lane),
    ) {
        let m = self.fft.len;
        let (re, im) = buf.split_at(m);
        let power = |x: Pair| add(mul(x.re, x.re), mul(x.im, x.im));
        let mut k = ks.start;
        while k + 1 < ks.end {
            let z = Pair {
                re: [re[k], re[k + 1]],
                im: [im[k], im[k + 1]],
            };
            let mirror = Pair {
                re: [re[m - k], re[m - k - 1]],
                im: [im[m - k], im[m - k - 1]],
            };
            let w = Pair {
                re: [self.split.re[k], self.split.re[k + 1]],
                im: [self.split.im[k], self.split.im[k + 1]],
            };
            let (lo, hi) = split(z, mirror, w);
            emit(power(lo), power(hi));
            k += 2;
        }
        if k < ks.end {
            let (lo, hi) = self.pair(buf, k);
            emit([lo.abs_sq(), 0.0], [hi.abs_sq(), 0.0]);
        }
    }

    /// The bin `X_{m/2}` of a transformed buffer, for `m ≥ 2`: there
    /// `W^k = −j` and the split reduces to a conjugate.
    pub(crate) fn centre(&self, buf: &[f64]) -> Complex64 {
        let m = self.fft.len;
        Complex64::new(buf[m / 2], -buf[m + m / 2])
    }

    /// The one-sided spectrum `X[0..=N/2]` of a transformed buffer.
    fn half_spectrum(&self, buf: &[f64]) -> Vec<Complex64> {
        let m = self.fft.len;
        let mut x = vec![Complex64::ZERO; m + 1];
        x[0] = Complex64::from_re(buf[0] + buf[m]);
        x[m] = Complex64::from_re(buf[0] - buf[m]);
        for k in 1..m.div_ceil(2) {
            (x[k], x[m - k]) = self.pair(buf, k);
        }
        if m >= 2 {
            x[m / 2] = self.centre(buf);
        }
        x
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
    let mut split = vec![0.0; 2 * n];
    let (re, im) = split.split_at_mut(n);
    for (i, z) in buf.iter().enumerate() {
        let s = reverse(i, n.trailing_zeros());
        (re[s], im[s]) = (z.re, z.im);
    }
    SplitFft::new(n).run(re, im);
    for (z, (&r, &i)) in buf.iter_mut().zip(re.iter().zip(im.iter())) {
        *z = Complex64::new(r, i);
    }
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
    let plan = RealFftPlan::new(n)?;
    let mut buf = plan.pack(signal);
    plan.transform(&mut buf);
    let mut spec = plan.half_spectrum(&buf);
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

/// The radix-2 array-of-structs butterflies the split-format kernel
/// replaced, on a buffer of any power-of-two length: the reference of
/// `spectrum::analyze_reference`.
#[cfg(test)]
pub(crate) fn fft_reference(buf: &mut [Complex64]) {
    let n = buf.len();
    assert!(n.is_power_of_two());
    for i in 0..n {
        let j = reverse(i, n.trailing_zeros());
        if j > i {
            buf.swap(i, j);
        }
    }
    let twiddles: Vec<Complex64> = (0..n / 2).map(|k| twiddle(k, n)).collect();
    let mut len = 2;
    while len <= n {
        let stride = n / len;
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

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// The direct O(N²) DFT, each twiddle `e^{−j2π(kn mod N)/N}` from
    /// `from_polar`.
    fn dft(x: &[Complex64]) -> Vec<Complex64> {
        let n = x.len();
        let w: Vec<Complex64> = (0..n).map(|k| twiddle(k, n)).collect();
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

    /// Every power of two from 2 to 4,096, so both parities of the
    /// transform's `log₂` length (with and without a trailing radix-2
    /// stage) and the lengths with no fused stage: the complex transform,
    /// the real one (planned at half the length) and the reference
    /// butterflies against the direct DFT.
    #[test]
    fn kernel_matches_direct_dft() {
        let mut r = rand::rngs::StdRng::seed_from_u64(16);
        for bits in 1..=12 {
            let n = 1usize << bits;
            for _ in 0..2 {
                let x: Vec<Complex64> = (0..n)
                    .map(|_| Complex64::new(r.gen_range(-1.0..1.0), r.gen_range(-1.0..1.0)))
                    .collect();
                let exact = dft(&x);
                let mut fast = x.clone();
                fft_in_place(&mut fast).unwrap();
                let err = rel_err(&fast, &exact);
                assert!(err < 1e-13, "complex n = {n}: relative error {err:e}");
                let mut reference = x.clone();
                fft_reference(&mut reference);
                let err = rel_err(&reference, &exact);
                assert!(err < 1e-13, "reference n = {n}: relative error {err:e}");

                let real: Vec<f64> = x.iter().map(|z| z.re).collect();
                let as_complex: Vec<Complex64> =
                    x.iter().map(|z| Complex64::from_re(z.re)).collect();
                let err = rel_err(&fft_real(&real).unwrap(), &dft(&as_complex));
                assert!(err < 1e-13, "real n = {n}: relative error {err:e}");
            }
        }
    }

    #[test]
    fn slots_are_a_permutation_and_invert() {
        for bits in 1..=12 {
            let plan = RealFftPlan::new(1 << bits).unwrap();
            let mut seen = vec![false; plan.len()];
            for i in 0..plan.len() {
                let s = plan.slot(i);
                assert!(!seen[s], "n = {}: slot {s} taken twice", plan.len());
                seen[s] = true;
                assert_eq!(plan.record_index(s), i);
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
