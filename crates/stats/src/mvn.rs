//! Multivariate normal distribution.

use crate::{sample_standard_normal, Result, StatsError};
use bmf_linalg::{Cholesky, Matrix, Vector};
use rand::Rng;

/// Multivariate normal distribution `N_d(μ, Σ)` (paper Eq. 5–8).
///
/// Construction factorises the covariance once (Cholesky); log-densities,
/// Mahalanobis distances and sampling all reuse the factor.
///
/// # Example
///
/// ```
/// use bmf_linalg::{Matrix, Vector};
/// use bmf_stats::MultivariateNormal;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), bmf_stats::StatsError> {
/// let mvn = MultivariateNormal::standard(3)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let x = mvn.sample(&mut rng);
/// assert_eq!(x.len(), 3);
/// assert!(mvn.ln_pdf(&Vector::zeros(3))? > mvn.ln_pdf(&x)? - 50.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MultivariateNormal {
    mean: Vector,
    cov: Matrix,
    chol: Cholesky,
}

impl MultivariateNormal {
    /// Creates a multivariate normal from a mean vector and covariance
    /// matrix.
    ///
    /// # Errors
    ///
    /// * [`StatsError::DimensionMismatch`] when `mean.len() != cov.nrows()`.
    /// * [`StatsError::Linalg`] when `cov` is not symmetric positive
    ///   definite.
    pub fn new(mean: Vector, cov: Matrix) -> Result<Self> {
        if mean.len() != cov.nrows() {
            return Err(StatsError::DimensionMismatch {
                op: "MultivariateNormal::new",
                expected: cov.nrows(),
                actual: mean.len(),
            });
        }
        let chol = Cholesky::new(&cov)?;
        Ok(MultivariateNormal { mean, cov, chol })
    }

    /// The standard multivariate normal `N_d(0, I)`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::Linalg`] when `d == 0`.
    pub fn standard(d: usize) -> Result<Self> {
        Self::new(Vector::zeros(d), Matrix::identity(d))
    }

    /// Dimension `d`.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Mean vector `μ`.
    pub fn mean(&self) -> &Vector {
        &self.mean
    }

    /// Covariance matrix `Σ`.
    pub fn cov(&self) -> &Matrix {
        &self.cov
    }

    /// Precision matrix `Λ = Σ⁻¹`.
    ///
    /// # Errors
    ///
    /// Propagates internal solve errors (unreachable for a valid
    /// factorisation).
    pub fn precision(&self) -> Result<Matrix> {
        Ok(self.chol.inverse()?)
    }

    /// Log-density at `x` (paper Eq. 8 in log form).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::DimensionMismatch`] for a wrong-length `x`.
    pub fn ln_pdf(&self, x: &Vector) -> Result<f64> {
        if x.len() != self.dim() {
            return Err(StatsError::DimensionMismatch {
                op: "ln_pdf",
                expected: self.dim(),
                actual: x.len(),
            });
        }
        let d = self.dim() as f64;
        let m2 = self.chol.mahalanobis_sq(x, &self.mean)?;
        Ok(-0.5 * (d * (2.0 * std::f64::consts::PI).ln() + self.chol.ln_det() + m2))
    }

    /// Joint log-likelihood of an `n × d` sample matrix (paper Eq. 9 in log
    /// form).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::DimensionMismatch`] when `samples.ncols() != d`.
    pub fn ln_likelihood(&self, samples: &Matrix) -> Result<f64> {
        if samples.ncols() != self.dim() {
            return Err(StatsError::DimensionMismatch {
                op: "ln_likelihood",
                expected: self.dim(),
                actual: samples.ncols(),
            });
        }
        let mut total = 0.0;
        for i in 0..samples.nrows() {
            total += self.ln_pdf(&samples.row_vec(i))?;
        }
        Ok(total)
    }

    /// Squared Mahalanobis distance of `x` from the mean.
    ///
    /// # Errors
    ///
    /// Returns a dimension error for a wrong-length `x`.
    pub fn mahalanobis_sq(&self, x: &Vector) -> Result<f64> {
        Ok(self.chol.mahalanobis_sq(x, &self.mean)?)
    }

    /// Draws one sample via `x = μ + L z` with `z` white Gaussian noise.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vector {
        let d = self.dim();
        let z = Vector::from_fn(d, |_| sample_standard_normal(rng));
        let coloured = self.chol.colour(&z).expect("dimension is consistent");
        &self.mean + &coloured
    }

    /// Draws `n` samples as an `n × d` matrix (one row per sample).
    pub fn sample_matrix<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Matrix {
        let d = self.dim();
        let mut out = Matrix::zeros(n, d);
        for i in 0..n {
            let x = self.sample(rng);
            out.row_mut(i).copy_from_slice(x.as_slice());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptive;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(11)
    }

    fn mvn2() -> MultivariateNormal {
        MultivariateNormal::new(
            Vector::from_slice(&[1.0, -2.0]),
            Matrix::from_rows(&[&[2.0, 0.8], &[0.8, 1.0]]).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(MultivariateNormal::new(Vector::zeros(2), Matrix::identity(3)).is_err());
        let not_spd = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert!(MultivariateNormal::new(Vector::zeros(2), not_spd).is_err());
        let std = MultivariateNormal::standard(4).unwrap();
        assert_eq!(std.dim(), 4);
    }

    #[test]
    fn ln_pdf_standard_normal_at_origin() {
        let mvn = MultivariateNormal::standard(2).unwrap();
        let expected = -(2.0 * std::f64::consts::PI).ln();
        assert!((mvn.ln_pdf(&Vector::zeros(2)).unwrap() - expected).abs() < 1e-12);
        assert!(mvn.ln_pdf(&Vector::zeros(3)).is_err());
    }

    #[test]
    fn pdf_integrates_to_one_univariate_grid() {
        // 1-D special case: compare against the scalar normal density.
        let mvn = MultivariateNormal::new(
            Vector::from_slice(&[2.0]),
            Matrix::from_rows(&[&[4.0]]).unwrap(),
        )
        .unwrap();
        let scalar = |x: f64| {
            (-(x - 2.0) * (x - 2.0) / 8.0).exp() / (2.0 * (2.0 * std::f64::consts::PI).sqrt())
        };
        for &x in &[-3.0, 0.0, 2.0, 5.0] {
            let a = mvn.ln_pdf(&Vector::from_slice(&[x])).unwrap().exp();
            let b = scalar(x);
            assert!((a - b).abs() < 1e-12, "x = {x}");
        }
    }

    #[test]
    fn density_peaks_at_mean() {
        let mvn = mvn2();
        let at_mean = mvn.ln_pdf(mvn.mean()).unwrap();
        let mut r = rng();
        for _ in 0..50 {
            let x = mvn.sample(&mut r);
            assert!(mvn.ln_pdf(&x).unwrap() <= at_mean + 1e-12);
        }
    }

    #[test]
    fn sample_moments_converge() {
        let mvn = mvn2();
        let mut r = rng();
        let samples = mvn.sample_matrix(&mut r, 60_000);
        let mean = descriptive::mean_vector(&samples).unwrap();
        let cov = descriptive::covariance_unbiased(&samples).unwrap();
        assert!((&mean - mvn.mean()).norm2() < 0.03);
        assert!(cov.max_abs_diff(mvn.cov()).unwrap() < 0.05);
    }

    #[test]
    fn likelihood_is_sum_of_ln_pdfs() {
        let mvn = mvn2();
        let mut r = rng();
        let samples = mvn.sample_matrix(&mut r, 10);
        let ll = mvn.ln_likelihood(&samples).unwrap();
        let manual: f64 = (0..10)
            .map(|i| mvn.ln_pdf(&samples.row_vec(i)).unwrap())
            .sum();
        assert!((ll - manual).abs() < 1e-10);
        assert!(mvn.ln_likelihood(&Matrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn true_model_has_higher_likelihood_than_wrong_model() {
        let mvn = mvn2();
        let wrong =
            MultivariateNormal::new(Vector::from_slice(&[5.0, 5.0]), Matrix::identity(2)).unwrap();
        let mut r = rng();
        let samples = mvn.sample_matrix(&mut r, 500);
        assert!(mvn.ln_likelihood(&samples).unwrap() > wrong.ln_likelihood(&samples).unwrap());
    }

    #[test]
    fn precision_is_inverse_of_cov() {
        let mvn = mvn2();
        let prec = mvn.precision().unwrap();
        let prod = mvn.cov().mat_mul(&prec).unwrap();
        assert!(prod.max_abs_diff(&Matrix::identity(2)).unwrap() < 1e-12);
    }

    #[test]
    fn mahalanobis_of_mean_is_zero() {
        let mvn = mvn2();
        assert!(mvn.mahalanobis_sq(mvn.mean()).unwrap().abs() < 1e-14);
    }
}
