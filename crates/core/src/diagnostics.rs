//! Gaussianity diagnostics for the BMF modelling assumption.
//!
//! The whole method rests on the jointly-Gaussian approximation (paper
//! §3.1, with the caveat acknowledged in §1). Before trusting a fused
//! estimate, a user can check how Gaussian the late-stage (or early-stage)
//! population actually looks. This module implements **Mardia's
//! multivariate skewness and kurtosis tests**:
//!
//! * skewness statistic `b₁ = (1/n²) ΣᵢΣⱼ (δᵢᵀ S⁻¹ δⱼ)³`, with
//!   `n·b₁/6 ~ χ²(d(d+1)(d+2)/6)` under normality,
//! * kurtosis statistic `b₂ = (1/n) Σᵢ (δᵢᵀ S⁻¹ δᵢ)²`, with
//!   `(b₂ − d(d+2)) / √(8d(d+2)/n) ~ N(0, 1)` under normality,
//!
//! where `δᵢ = xᵢ − x̄` and `S` is the biased sample covariance.

use crate::{BmfError, Result};
use bmf_linalg::{Cholesky, Matrix, Vector};
use bmf_stats::descriptive;
use bmf_stats::special::{chi_squared_cdf, standard_normal_cdf};
use serde::{Deserialize, Serialize};

/// Result of Mardia's two-part multivariate normality test.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MardiaTest {
    /// Multivariate skewness `b₁` (0 for a Gaussian population).
    pub skewness: f64,
    /// Multivariate kurtosis `b₂` (`d(d+2)` for a Gaussian population).
    pub kurtosis: f64,
    /// p-value of the skewness χ² test (small ⇒ reject normality).
    pub skewness_p_value: f64,
    /// Two-sided p-value of the kurtosis z test.
    pub kurtosis_p_value: f64,
    /// Dimension `d`.
    pub dim: usize,
    /// Sample count `n`.
    pub samples: usize,
}

impl MardiaTest {
    /// Whether the sample is consistent with multivariate normality at
    /// significance `alpha` (both sub-tests must survive).
    pub fn is_consistent_with_gaussian(&self, alpha: f64) -> bool {
        self.skewness_p_value > alpha && self.kurtosis_p_value > alpha
    }
}

/// Runs Mardia's test on an `n × d` sample matrix.
///
/// # Errors
///
/// * [`BmfError::InvalidSamples`] when `n < d + 2` (the sample covariance
///   must be invertible) or entries are non-finite.
/// * [`BmfError::Linalg`] when the sample covariance is numerically
///   singular (e.g. duplicated columns).
///
/// # Example
///
/// ```
/// use bmf_core::diagnostics::mardia_test;
/// use bmf_stats::MultivariateNormal;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), bmf_core::BmfError> {
/// let mvn = MultivariateNormal::standard(2)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let samples = mvn.sample_matrix(&mut rng, 500);
/// let test = mardia_test(&samples)?;
/// assert!(test.is_consistent_with_gaussian(0.01));
/// # Ok(())
/// # }
/// ```
pub fn mardia_test(samples: &Matrix) -> Result<MardiaTest> {
    let (n, d) = samples.shape();
    if n < d + 2 {
        return Err(BmfError::InvalidSamples {
            reason: format!("Mardia's test needs n >= d + 2, got n = {n}, d = {d}"),
        });
    }
    if !samples.is_finite() {
        return Err(BmfError::InvalidSamples {
            reason: "sample matrix contains non-finite entries".to_string(),
        });
    }
    let mean = descriptive::mean_vector(samples)?;
    let cov = descriptive::covariance_mle(samples)?;
    let chol = Cholesky::new(&cov)?;

    // Whitened deviations: w_i = L⁻¹ (x_i − x̄), so δᵢᵀS⁻¹δⱼ = wᵢᵀwⱼ.
    let mut whitened: Vec<Vector> = Vec::with_capacity(n);
    for i in 0..n {
        let delta = &samples.row_vec(i) - &mean;
        whitened.push(chol.solve_lower(&delta)?);
    }

    let nf = n as f64;
    let df = d as f64;

    let mut b1 = 0.0;
    for wi in &whitened {
        for wj in &whitened {
            let g = wi.dot(wj)?;
            b1 += g * g * g;
        }
    }
    b1 /= nf * nf;

    let mut b2 = 0.0;
    for wi in &whitened {
        let g = wi.dot(wi)?;
        b2 += g * g;
    }
    b2 /= nf;

    // Skewness: n·b1/6 ~ χ²(d(d+1)(d+2)/6).
    let chi_stat = nf * b1 / 6.0;
    let chi_dof = df * (df + 1.0) * (df + 2.0) / 6.0;
    let skewness_p_value = 1.0 - chi_squared_cdf(chi_stat.max(0.0), chi_dof);

    // Kurtosis: z = (b2 − d(d+2)) / sqrt(8d(d+2)/n) ~ N(0,1), two-sided.
    let z = (b2 - df * (df + 2.0)) / (8.0 * df * (df + 2.0) / nf).sqrt();
    let kurtosis_p_value = 2.0 * (1.0 - standard_normal_cdf(z.abs()));

    Ok(MardiaTest {
        skewness: b1,
        kurtosis: b2,
        skewness_p_value,
        kurtosis_p_value,
        dim: d,
        samples: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::robustness::{MarginalWarp, WarpedPopulation};
    use bmf_stats::MultivariateNormal;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(88)
    }

    #[test]
    fn gaussian_samples_pass() {
        let mvn = MultivariateNormal::new(
            Vector::from_slice(&[1.0, -2.0, 0.5]),
            Matrix::from_rows(&[&[1.0, 0.4, 0.1], &[0.4, 2.0, -0.3], &[0.1, -0.3, 0.7]]).unwrap(),
        )
        .unwrap();
        let mut r = rng();
        let samples = mvn.sample_matrix(&mut r, 800);
        let test = mardia_test(&samples).unwrap();
        assert!(test.is_consistent_with_gaussian(0.01), "{test:?}");
        // b2 near its Gaussian expectation d(d+2) = 15.
        assert!((test.kurtosis - 15.0).abs() < 2.0, "b2 = {}", test.kurtosis);
        assert_eq!(test.dim, 3);
        assert_eq!(test.samples, 800);
    }

    #[test]
    fn skewed_samples_fail() {
        let pop = WarpedPopulation::new(
            Matrix::identity(2),
            vec![
                MarginalWarp::Skewed { gamma: 0.8 },
                MarginalWarp::Skewed { gamma: 0.8 },
            ],
        )
        .unwrap();
        let mut r = rng();
        let samples = pop.sample_matrix(&mut r, 800);
        let test = mardia_test(&samples).unwrap();
        assert!(
            !test.is_consistent_with_gaussian(0.01),
            "strongly skewed data must be rejected: {test:?}"
        );
        assert!(test.skewness_p_value < 0.01);
    }

    #[test]
    fn heavy_tails_trip_the_kurtosis_branch() {
        let pop = WarpedPopulation::new(
            Matrix::identity(2),
            vec![
                MarginalWarp::HeavyTailed { gamma: 0.5 },
                MarginalWarp::HeavyTailed { gamma: 0.5 },
            ],
        )
        .unwrap();
        let mut r = rng();
        let samples = pop.sample_matrix(&mut r, 800);
        let test = mardia_test(&samples).unwrap();
        assert!(
            test.kurtosis_p_value < 0.01,
            "cubic-warped tails must inflate b2: {test:?}"
        );
        // b2 well above the Gaussian reference d(d+2) = 8.
        assert!(test.kurtosis > 10.0);
    }

    #[test]
    fn validates_input() {
        assert!(mardia_test(&Matrix::zeros(3, 2)).is_err()); // n < d+2
        let mut nan = Matrix::identity(6);
        nan[(0, 0)] = f64::NAN;
        assert!(mardia_test(&nan).is_err());
        // Degenerate (constant) dimension → singular covariance.
        let degenerate = Matrix::from_fn(10, 2, |i, j| if j == 0 { i as f64 } else { 7.0 });
        assert!(mardia_test(&degenerate).is_err());
    }

    #[test]
    fn circuit_metrics_are_near_gaussian_at_default_settings() {
        // The substrate was tuned so the paper's Gaussian assumption is
        // reasonable — quantify it.
        use bmf_circuits::monte_carlo::{run_monte_carlo_seeded, Stage};
        use bmf_circuits::opamp::OpAmpTestbench;
        let tb = OpAmpTestbench::default_45nm();
        let data = run_monte_carlo_seeded(&tb, Stage::Schematic, 400, 88, 2).unwrap();
        let test = mardia_test(&data.samples).unwrap();
        // Not a strict pass requirement (real circuits are mildly
        // non-Gaussian — the paper says as much), but kurtosis should sit
        // near the Gaussian reference d(d+2) = 35.
        assert!(
            (test.kurtosis - 35.0).abs() < 8.0,
            "op-amp b2 = {} (Gaussian reference 35)",
            test.kurtosis
        );
    }
}
