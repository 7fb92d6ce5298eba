//! Principal component analysis of performance samples.
//!
//! Circuit metrics driven by shared process parameters are strongly
//! collinear (the op-amp's gain/bandwidth/phase-margin all ride the same
//! global corner). PCA exposes that structure: how many independent
//! degrees of freedom the variation really has, and which metric
//! combinations they excite. Built directly on the symmetric
//! eigen-decomposition from `bmf-linalg`.

use crate::{descriptive, Result, StatsError};
use bmf_linalg::{Matrix, SymmetricEigen, Vector};

/// A fitted principal-component decomposition.
///
/// # Example
///
/// ```
/// use bmf_linalg::Matrix;
/// use bmf_stats::pca::Pca;
///
/// # fn main() -> Result<(), bmf_stats::StatsError> {
/// // Two perfectly correlated columns: one real degree of freedom.
/// let samples = Matrix::from_fn(50, 2, |i, j| (i as f64) * if j == 0 { 1.0 } else { 2.0 });
/// let pca = Pca::fit(&samples)?;
/// assert!(pca.explained_variance_ratio()[0] > 0.999);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Pca {
    mean: Vector,
    /// Columns are principal directions, ordered by decreasing variance.
    components: Matrix,
    /// Variance along each component (eigenvalues, descending).
    variances: Vector,
}

impl Pca {
    /// Fits PCA to an `n × d` sample matrix (covariance method).
    ///
    /// # Errors
    ///
    /// * [`StatsError::InsufficientSamples`] when `n < 2`.
    /// * [`StatsError::Linalg`] if the eigen-decomposition fails.
    pub fn fit(samples: &Matrix) -> Result<Self> {
        if samples.nrows() < 2 {
            return Err(StatsError::InsufficientSamples {
                required: 2,
                available: samples.nrows(),
            });
        }
        let mean = descriptive::mean_vector(samples)?;
        let cov = descriptive::covariance_unbiased(samples)?;
        let eig = SymmetricEigen::new(&cov)?;
        Ok(Pca {
            mean,
            components: eig.eigenvectors().clone(),
            variances: eig.eigenvalues().map(|l| l.max(0.0)),
        })
    }

    /// Dimension `d` of the input space.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Sample mean the projection is centred on.
    pub fn mean(&self) -> &Vector {
        &self.mean
    }

    /// Principal directions as matrix columns (descending variance).
    pub fn components(&self) -> &Matrix {
        &self.components
    }

    /// Fraction of total variance explained by each component.
    pub fn explained_variance_ratio(&self) -> Vector {
        let total: f64 = self.variances.sum();
        if total <= 0.0 {
            return Vector::zeros(self.variances.len());
        }
        self.variances.map(|v| v / total)
    }

    /// Number of leading components needed to explain at least `fraction`
    /// of the variance.
    ///
    /// # Panics
    ///
    /// Panics when `fraction` is outside `(0, 1]`.
    pub fn components_for_variance(&self, fraction: f64) -> usize {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "fraction must be in (0, 1], got {fraction}"
        );
        let ratios = self.explained_variance_ratio();
        let mut acc = 0.0;
        for (k, r) in ratios.iter().enumerate() {
            acc += r;
            if acc >= fraction - 1e-12 {
                return k + 1;
            }
        }
        self.dim()
    }

    /// Projects samples onto the first `k` components (scores matrix
    /// `n × k`).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::DimensionMismatch`] for wrong widths or
    /// `k > d`.
    pub fn transform(&self, samples: &Matrix, k: usize) -> Result<Matrix> {
        let d = self.dim();
        if samples.ncols() != d {
            return Err(StatsError::DimensionMismatch {
                op: "pca transform",
                expected: d,
                actual: samples.ncols(),
            });
        }
        if k == 0 || k > d {
            return Err(StatsError::DimensionMismatch {
                op: "pca component count",
                expected: d,
                actual: k,
            });
        }
        let n = samples.nrows();
        let mut out = Matrix::zeros(n, k);
        for i in 0..n {
            for c in 0..k {
                let mut s = 0.0;
                for j in 0..d {
                    s += (samples[(i, j)] - self.mean[j]) * self.components[(j, c)];
                }
                out[(i, c)] = s;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MultivariateNormal;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(123)
    }

    /// Reconstructs samples from scores on the leading components: the
    /// mean plus `scores · componentsᵀ` (lossy below `d` components).
    fn reconstruct(pca: &Pca, scores: &Matrix) -> Matrix {
        let c = pca.components();
        Matrix::from_fn(scores.nrows(), pca.dim(), |i, j| {
            (0..scores.ncols()).fold(pca.mean()[j], |s, k| s + scores[(i, k)] * c[(j, k)])
        })
    }

    #[test]
    fn recovers_dominant_direction() {
        // Strongly anisotropic Gaussian: first PC aligns with the long
        // axis (1, 1)/√2.
        let cov = Matrix::from_rows(&[&[1.0, 0.95], &[0.95, 1.0]]).unwrap();
        let mvn = MultivariateNormal::new(Vector::zeros(2), cov).unwrap();
        let mut r = rng();
        let samples = mvn.sample_matrix(&mut r, 3000);
        let pca = Pca::fit(&samples).unwrap();
        let pc1 = pca.components().col_vec(0);
        let alignment = (pc1[0] * pc1[1]).signum() * pc1[0].abs().min(pc1[1].abs());
        assert!(alignment > 0.6, "pc1 = {pc1}");
        // Eigenvalues (the score variances) near 1.95 and 0.05.
        let scores = pca.transform(&samples, 2).unwrap();
        let score_cov = descriptive::covariance_unbiased(&scores).unwrap();
        assert!((score_cov[(0, 0)] - 1.95).abs() < 0.15);
        assert!((score_cov[(1, 1)] - 0.05).abs() < 0.05);
        assert!(pca.explained_variance_ratio()[0] > 0.9);
        assert_eq!(pca.components_for_variance(0.9), 1);
        assert_eq!(pca.components_for_variance(0.999), 2);
    }

    #[test]
    fn full_rank_round_trip() {
        let cov =
            Matrix::from_rows(&[&[2.0, 0.3, 0.1], &[0.3, 1.0, -0.2], &[0.1, -0.2, 0.5]]).unwrap();
        let mvn = MultivariateNormal::new(Vector::from_slice(&[1.0, 2.0, 3.0]), cov).unwrap();
        let mut r = rng();
        let samples = mvn.sample_matrix(&mut r, 100);
        let pca = Pca::fit(&samples).unwrap();
        let scores = pca.transform(&samples, 3).unwrap();
        let back = reconstruct(&pca, &scores);
        assert!(back.max_abs_diff(&samples).unwrap() < 1e-9);
        // Scores are uncorrelated, and their variances are the
        // eigenvalues, which share out the total variance by the ratios.
        let score_cov = descriptive::covariance_unbiased(&scores).unwrap();
        let total = descriptive::covariance_unbiased(&samples)
            .unwrap()
            .trace()
            .unwrap();
        let ratios = pca.explained_variance_ratio();
        for a in 0..3 {
            for b in 0..3 {
                if a != b {
                    assert!(score_cov[(a, b)].abs() < 1e-9);
                }
            }
            assert!((score_cov[(a, a)] - ratios[a] * total).abs() < 1e-9);
        }
    }

    #[test]
    fn truncated_reconstruction_reduces_error_with_more_components() {
        let cov =
            Matrix::from_rows(&[&[3.0, 1.0, 0.5], &[1.0, 2.0, 0.3], &[0.5, 0.3, 1.0]]).unwrap();
        let mvn = MultivariateNormal::new(Vector::zeros(3), cov).unwrap();
        let mut r = rng();
        let samples = mvn.sample_matrix(&mut r, 400);
        let pca = Pca::fit(&samples).unwrap();
        let mut prev_err = f64::INFINITY;
        for k in 1..=3 {
            let scores = pca.transform(&samples, k).unwrap();
            let back = reconstruct(&pca, &scores);
            let err = (&back - &samples).norm_frobenius();
            assert!(err < prev_err + 1e-9, "k = {k}");
            prev_err = err;
        }
        assert!(prev_err < 1e-9); // k = d is exact
    }

    #[test]
    fn validates_input() {
        let one = Matrix::zeros(1, 3);
        assert!(Pca::fit(&one).is_err());
        let samples = Matrix::from_fn(20, 2, |i, j| (i + j) as f64);
        let pca = Pca::fit(&samples).unwrap();
        assert!(pca.transform(&Matrix::zeros(5, 3), 1).is_err());
        assert!(pca.transform(&samples, 0).is_err());
        assert!(pca.transform(&samples, 3).is_err());
        assert_eq!(pca.dim(), 2);
        assert_eq!(pca.mean().len(), 2);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn bad_fraction_panics() {
        let samples = Matrix::from_fn(10, 2, |i, j| (i * (j + 1)) as f64);
        let pca = Pca::fit(&samples).unwrap();
        let _ = pca.components_for_variance(0.0);
    }

    #[test]
    fn circuit_metrics_compress_to_few_components() {
        // Op-amp metrics are driven by a handful of process factors: a
        // couple of PCs should carry most of the (normalised) variance.
        use bmf_linalg::Matrix as M;
        let _ = M::zeros(1, 1);
        // Synthetic stand-in: 5 metrics from 2 latent factors + noise.
        let mut r = rng();
        let n = 2000;
        let samples = Matrix::from_fn(n, 5, |i, j| {
            let _ = i;
            let _ = j;
            0.0
        });
        let mut samples = samples;
        for i in 0..n {
            let f1 = crate::sample_standard_normal(&mut r);
            let f2 = crate::sample_standard_normal(&mut r);
            let loads = [
                [1.0, 0.2],
                [0.8, -0.3],
                [-0.6, 0.5],
                [0.4, 0.9],
                [0.1, -0.7],
            ];
            for j in 0..5 {
                let noise = 0.1 * crate::sample_standard_normal(&mut r);
                samples[(i, j)] = loads[j][0] * f1 + loads[j][1] * f2 + noise;
            }
        }
        let pca = Pca::fit(&samples).unwrap();
        assert!(pca.components_for_variance(0.95) <= 3);
        let ratios = pca.explained_variance_ratio();
        assert!(ratios[0] + ratios[1] > 0.9, "ratios = {ratios}");
    }
}
