//! Univariate samplers.
//!
//! `rand` only supplies uniform variates in this workspace; every
//! non-uniform sampler is implemented here from first principles.

use rand::Rng;

/// Draws one standard normal variate using the Marsaglia polar method.
///
/// The polar method avoids trigonometric functions and is numerically
/// well-behaved; the unused second variate is discarded for API simplicity
/// (sampling cost is not the bottleneck anywhere in this workspace).
///
/// # Example
///
/// ```
/// use bmf_stats::sample_standard_normal;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let z = sample_standard_normal(&mut rng);
/// assert!(z.is_finite());
/// ```
pub fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.gen_range(-1.0..1.0);
        let v: f64 = rng.gen_range(-1.0..1.0);
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Draws one `Gamma(shape, scale)` variate (mean `shape * scale`).
///
/// Uses the Marsaglia–Tsang squeeze method for `shape ≥ 1` and the boost
/// `Gamma(a) = Gamma(a+1) · U^{1/a}` for `shape < 1`.
///
/// # Panics
///
/// Panics when `shape <= 0` or `scale <= 0`.
///
/// # Example
///
/// ```
/// use bmf_stats::sample_gamma;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(2);
/// let x = sample_gamma(&mut rng, 3.0, 2.0);
/// assert!(x > 0.0);
/// ```
pub fn sample_gamma<R: Rng + ?Sized>(rng: &mut R, shape: f64, scale: f64) -> f64 {
    assert!(shape > 0.0, "gamma shape must be positive, got {shape}");
    assert!(scale > 0.0, "gamma scale must be positive, got {scale}");

    if shape < 1.0 {
        // Boost: X ~ Gamma(shape+1), return X * U^{1/shape}.
        let x = sample_gamma(rng, shape + 1.0, 1.0);
        let u: f64 = loop {
            let u = rng.gen::<f64>();
            if u > 0.0 {
                break u;
            }
        };
        return scale * x * u.powf(1.0 / shape);
    }

    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let z = sample_standard_normal(rng);
        let v = 1.0 + c * z;
        if v <= 0.0 {
            continue;
        }
        let v3 = v * v * v;
        let u: f64 = rng.gen();
        // Squeeze, then full acceptance test.
        if u < 1.0 - 0.0331 * z.powi(4) {
            return scale * d * v3;
        }
        if u > 0.0 && u.ln() < 0.5 * z * z + d * (1.0 - v3 + v3.ln()) {
            return scale * d * v3;
        }
    }
}

/// Draws one χ² variate with `dof` degrees of freedom.
///
/// `χ²(k) = Gamma(k/2, 2)`; used by the Bartlett decomposition of the
/// Wishart sampler.
///
/// # Panics
///
/// Panics when `dof <= 0`.
pub fn sample_chi_squared<R: Rng + ?Sized>(rng: &mut R, dof: f64) -> f64 {
    assert!(dof > 0.0, "chi-squared dof must be positive, got {dof}");
    sample_gamma(rng, dof / 2.0, 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(42)
    }

    fn sample_moments(samples: &[f64]) -> (f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        (mean, var)
    }

    #[test]
    fn standard_normal_moments() {
        let mut r = rng();
        let xs: Vec<f64> = (0..50_000)
            .map(|_| sample_standard_normal(&mut r))
            .collect();
        let (m, v) = sample_moments(&xs);
        assert!(m.abs() < 0.02, "mean = {m}");
        assert!((v - 1.0).abs() < 0.03, "var = {v}");
    }

    #[test]
    fn standard_normal_tail_fraction() {
        let mut r = rng();
        let n = 100_000;
        let beyond2: usize = (0..n)
            .filter(|_| sample_standard_normal(&mut r).abs() > 2.0)
            .count();
        let frac = beyond2 as f64 / n as f64;
        assert!((frac - 0.0455).abs() < 0.005, "P(|z|>2) = {frac}");
    }

    #[test]
    fn gamma_moments() {
        let mut r = rng();
        for &(shape, scale) in &[(0.5, 1.0), (1.0, 2.0), (3.0, 0.5), (10.0, 1.5)] {
            let xs: Vec<f64> = (0..40_000)
                .map(|_| sample_gamma(&mut r, shape, scale))
                .collect();
            let (m, v) = sample_moments(&xs);
            let em = shape * scale;
            let ev = shape * scale * scale;
            assert!(
                (m - em).abs() < 0.05 * em.max(0.5),
                "shape={shape}: mean {m} vs {em}"
            );
            assert!(
                (v - ev).abs() < 0.1 * ev.max(0.5),
                "shape={shape}: var {v} vs {ev}"
            );
            assert!(xs.iter().all(|&x| x > 0.0));
        }
    }

    #[test]
    #[should_panic(expected = "shape must be positive")]
    fn gamma_rejects_bad_shape() {
        let mut r = rng();
        let _ = sample_gamma(&mut r, 0.0, 1.0);
    }

    #[test]
    fn chi_squared_moments() {
        let mut r = rng();
        for &k in &[1.0, 2.0, 5.0, 30.0] {
            let xs: Vec<f64> = (0..40_000).map(|_| sample_chi_squared(&mut r, k)).collect();
            let (m, v) = sample_moments(&xs);
            assert!((m - k).abs() < 0.05 * k.max(1.0), "k={k}: mean {m}");
            assert!(
                (v - 2.0 * k).abs() < 0.15 * (2.0 * k).max(1.0),
                "k={k}: var {v}"
            );
        }
    }

    #[test]
    fn chi_squared_matches_cdf() {
        // Empirical CDF at the 95% point of χ²(5) should be ≈ 0.95.
        let mut r = rng();
        let n = 50_000;
        let below = (0..n)
            .filter(|_| sample_chi_squared(&mut r, 5.0) <= 11.070)
            .count();
        let frac = below as f64 / n as f64;
        assert!((frac - 0.95).abs() < 0.01, "frac = {frac}");
    }

    #[test]
    fn gamma_small_shape_boost_path() {
        // shape < 1 exercises the boost branch; check mean within tolerance.
        let mut r = rng();
        let xs: Vec<f64> = (0..60_000)
            .map(|_| sample_gamma(&mut r, 0.3, 1.0))
            .collect();
        let (m, _) = sample_moments(&xs);
        assert!((m - 0.3).abs() < 0.02, "mean = {m}");
    }
}
