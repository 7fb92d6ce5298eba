//! Maximum-likelihood moment estimation — the paper's baseline (Eq. 10–11).

use crate::suffstats::SufficientStats;
use crate::{MomentEstimate, Result};
use bmf_linalg::Matrix;

/// The traditional MLE estimator: sample mean and biased sample covariance.
///
/// * `μ_MLE = (1/n) Σ Xᵢ` (Eq. 10)
/// * `Σ_MLE = (1/n) Σ (Xᵢ − μ)(Xᵢ − μ)ᵀ` (Eq. 11)
///
/// This is the method BMF is benchmarked against: unbiased asymptotically
/// but very noisy at the tiny sample sizes the paper targets.
///
/// # Example
///
/// ```
/// use bmf_core::mle::MleEstimator;
/// use bmf_linalg::Matrix;
///
/// # fn main() -> Result<(), bmf_core::BmfError> {
/// let samples = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
/// let est = MleEstimator::new().estimate(&samples)?;
/// assert_eq!(est.mean.as_slice(), &[2.0, 3.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MleEstimator;

impl MleEstimator {
    /// Creates the estimator (stateless).
    pub fn new() -> Self {
        MleEstimator
    }

    /// Estimates the moments of an `n × d` sample matrix: its sufficient
    /// statistics, then [`Self::estimate_from_stats`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::BmfError::InvalidSamples`] for an empty matrix or
    /// non-finite entries.
    pub fn estimate(&self, samples: &Matrix) -> Result<MomentEstimate> {
        self.estimate_from_stats(&SufficientStats::from_samples(samples)?)
    }

    /// Estimates the moments from sufficient statistics `(n, X̄, S)`:
    /// `μ_MLE = X̄`, `Σ_MLE = S/n`, the one path behind
    /// [`Self::estimate`] and sharded merges.
    ///
    /// # Errors
    ///
    /// Returns [`crate::BmfError::InvalidSamples`] for invalid statistics.
    pub fn estimate_from_stats(&self, stats: &SufficientStats) -> Result<MomentEstimate> {
        stats.validate()?;
        let est = MomentEstimate {
            mean: stats.mean.clone(),
            cov: &stats.scatter / stats.n as f64,
        };
        est.validate()?;
        Ok(est)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmf_linalg::Vector;
    use bmf_stats::MultivariateNormal;
    use rand::{Rng, SeedableRng};

    #[test]
    fn matches_hand_computation() {
        let samples = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 6.0], &[5.0, 4.0]]).unwrap();
        let est = MleEstimator::new().estimate(&samples).unwrap();
        assert_eq!(est.mean.as_slice(), &[3.0, 4.0]);
        // biased covariance = scatter/3 = [[8/3, 4/3], [4/3, 8/3]]
        assert!((est.cov[(0, 0)] - 8.0 / 3.0).abs() < 1e-14);
        assert!((est.cov[(0, 1)] - 4.0 / 3.0).abs() < 1e-14);
    }

    #[test]
    fn single_sample_gives_zero_covariance() {
        let samples = Matrix::from_rows(&[&[7.0, -2.0]]).unwrap();
        let est = MleEstimator::new().estimate(&samples).unwrap();
        assert_eq!(est.mean.as_slice(), &[7.0, -2.0]);
        assert_eq!(est.cov, Matrix::zeros(2, 2));
    }

    #[test]
    fn rejects_bad_input() {
        let mle = MleEstimator::new();
        assert!(mle.estimate(&Matrix::zeros(0, 2)).is_err());
        let mut nan = Matrix::zeros(2, 2);
        nan[(0, 0)] = f64::NAN;
        assert!(mle.estimate(&nan).is_err());
    }

    /// The pre-delegation MLE: its own mean, then `covariance_mle`.
    fn direct_estimate(samples: &Matrix) -> Result<MomentEstimate> {
        let mean = bmf_stats::descriptive::mean_vector(samples)?;
        let cov = bmf_stats::descriptive::covariance_mle(samples)?;
        Ok(MomentEstimate { mean, cov })
    }

    #[test]
    fn estimate_is_bit_identical_to_the_direct_formulas() {
        // Seeded matrices over n, d and scale: the sufficient-statistics
        // path gives the bits of the sample mean and `covariance_mle`.
        let bits = |e: &MomentEstimate| -> Vec<u64> {
            let (mean, cov) = (e.mean.as_slice(), e.cov.as_slice());
            mean.iter().chain(cov).map(|v| v.to_bits()).collect()
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for case in 0..2000 {
            let n = 1 + (case * 37) % 300;
            let d = 1 + case % 7;
            let scale = 10f64.powi((case % 9) as i32 - 4);
            let samples =
                Matrix::from_fn(n, d, |_, j| scale * (rng.gen_range(-1.0..1.0) + j as f64));
            let fused = MleEstimator::new().estimate(&samples).unwrap();
            let direct = direct_estimate(&samples).unwrap();
            assert_eq!(
                bits(&fused),
                bits(&direct),
                "n = {n}, d = {d}, scale = {scale:e}"
            );
        }
    }

    #[test]
    fn error_shrinks_with_sample_count() {
        let truth = MultivariateNormal::new(
            Vector::from_slice(&[1.0, -1.0, 0.5]),
            Matrix::from_rows(&[&[1.0, 0.3, 0.1], &[0.3, 2.0, 0.4], &[0.1, 0.4, 1.5]]).unwrap(),
        )
        .unwrap();
        let mle = MleEstimator::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let reps = 40;
        let mut err_small = 0.0;
        let mut err_large = 0.0;
        for _ in 0..reps {
            let s = truth.sample_matrix(&mut rng, 8);
            err_small += (&mle.estimate(&s).unwrap().mean - truth.mean()).norm2();
            let s = truth.sample_matrix(&mut rng, 512);
            err_large += (&mle.estimate(&s).unwrap().mean - truth.mean()).norm2();
        }
        // ~n^{-1/2} scaling: 64× the samples → ~8× smaller error.
        assert!(
            err_small / err_large > 4.0,
            "ratio = {}",
            err_small / err_large
        );
    }
}
