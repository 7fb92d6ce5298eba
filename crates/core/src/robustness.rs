//! Non-Gaussian robustness study — the paper's stated future work (§1).
//!
//! The BMF method *assumes* joint Gaussianity; the paper acknowledges AMS
//! metrics "may not be accurately modeled as a jointly Gaussian
//! distribution" and defers the study. This module provides the tooling:
//! controlled non-Gaussian population generators (per-dimension monotone
//! warps of a Gaussian core, so correlation structure is preserved while
//! marginals grow skew/heavy tails) plus a comparison harness measuring
//! how the BMF-vs-MLE advantage degrades with departure from normality.

use crate::{BmfError, Result};
use bmf_linalg::{Matrix, Vector};
use bmf_stats::MultivariateNormal;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Per-dimension marginal warp applied to a Gaussian core sample.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum MarginalWarp {
    /// Identity: the dimension stays Gaussian.
    Gaussian,
    /// Exponential warp `(e^{γz} − 1)/γ`: right-skewed (lognormal-like),
    /// approaches identity as `γ → 0`. The paper's circuits produce such
    /// metrics naturally (e.g. bandwidth).
    Skewed {
        /// Skew strength γ > 0 (0.5 is strongly skewed).
        gamma: f64,
    },
    /// Cubic warp `z + γz³`: symmetric heavy tails, kurtosis grows with γ.
    HeavyTailed {
        /// Tail strength γ ≥ 0.
        gamma: f64,
    },
}

impl MarginalWarp {
    /// Applies the warp to a standard-normal coordinate.
    pub fn apply(&self, z: f64) -> f64 {
        match *self {
            MarginalWarp::Gaussian => z,
            MarginalWarp::Skewed { gamma } => ((gamma * z).exp() - 1.0) / gamma,
            MarginalWarp::HeavyTailed { gamma } => z + gamma * z * z * z,
        }
    }

    /// Validates the warp parameters.
    ///
    /// # Errors
    ///
    /// Returns [`BmfError::InvalidConfig`] for non-positive/non-finite γ
    /// where positivity is required.
    pub fn validate(&self) -> Result<()> {
        match *self {
            MarginalWarp::Gaussian => Ok(()),
            MarginalWarp::Skewed { gamma } => {
                if gamma > 0.0 && gamma.is_finite() {
                    Ok(())
                } else {
                    Err(BmfError::InvalidConfig {
                        reason: format!("skew gamma must be positive, got {gamma}"),
                    })
                }
            }
            MarginalWarp::HeavyTailed { gamma } => {
                if gamma >= 0.0 && gamma.is_finite() {
                    Ok(())
                } else {
                    Err(BmfError::InvalidConfig {
                        reason: format!("tail gamma must be non-negative, got {gamma}"),
                    })
                }
            }
        }
    }
}

/// A non-Gaussian population: correlated Gaussian core + per-dimension
/// marginal warps (a Gaussian copula with non-Gaussian marginals).
///
/// # Example
///
/// ```
/// use bmf_core::robustness::{MarginalWarp, WarpedPopulation};
/// use bmf_linalg::Matrix;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), bmf_core::BmfError> {
/// let pop = WarpedPopulation::new(
///     Matrix::from_rows(&[&[1.0, 0.5], &[0.5, 1.0]]).unwrap(),
///     vec![MarginalWarp::Gaussian, MarginalWarp::Skewed { gamma: 0.4 }],
/// )?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let samples = pop.sample_matrix(&mut rng, 100);
/// assert_eq!(samples.shape(), (100, 2));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct WarpedPopulation {
    core: MultivariateNormal,
    warps: Vec<MarginalWarp>,
}

impl WarpedPopulation {
    /// Creates a warped population over a zero-mean Gaussian core with the
    /// given copula correlation.
    ///
    /// # Errors
    ///
    /// * [`BmfError::InvalidConfig`] for a warp-count mismatch or invalid
    ///   warp parameters.
    /// * [`BmfError::Stats`] when the core covariance is not SPD.
    pub fn new(core_cov: Matrix, warps: Vec<MarginalWarp>) -> Result<Self> {
        if warps.len() != core_cov.nrows() {
            return Err(BmfError::InvalidConfig {
                reason: format!(
                    "{} warps for a {}-dimensional core",
                    warps.len(),
                    core_cov.nrows()
                ),
            });
        }
        for w in &warps {
            w.validate()?;
        }
        let core = MultivariateNormal::new(Vector::zeros(core_cov.nrows()), core_cov)?;
        Ok(WarpedPopulation { core, warps })
    }

    /// Dimension `d`.
    pub fn dim(&self) -> usize {
        self.warps.len()
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vector {
        let z = self.core.sample(rng);
        Vector::from_fn(self.dim(), |j| self.warps[j].apply(z[j]))
    }

    /// Draws `n` samples as an `n × d` matrix.
    pub fn sample_matrix<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Matrix {
        let mut out = Matrix::zeros(n, self.dim());
        for i in 0..n {
            let x = self.sample(rng);
            out.row_mut(i).copy_from_slice(x.as_slice());
        }
        out
    }
}

/// Result of one robustness comparison at a given non-Gaussianity level.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RobustnessPoint {
    /// Warp strength used for every non-Gaussian dimension.
    pub gamma: f64,
    /// Mean (over repetitions) MLE covariance error.
    pub mle_cov_err: f64,
    /// Mean BMF covariance error.
    pub bmf_cov_err: f64,
    /// BMF/MLE error ratio (< 1 means BMF still wins).
    pub ratio: f64,
}

/// Sweeps skew strength and measures how the BMF advantage holds up when
/// the Gaussian assumption is violated. Both estimators target the
/// population's *true second moments* (estimated from a large reference
/// pool), with the BMF prior computed from an equally-warped early pool —
/// i.e. the paper's setting transplanted onto non-Gaussian data.
///
/// # Errors
///
/// Propagates generator and estimator failures.
pub fn skew_robustness_sweep<R: Rng + ?Sized>(
    core_cov: &Matrix,
    gammas: &[f64],
    n_late: usize,
    repetitions: usize,
    rng: &mut R,
) -> Result<Vec<RobustnessPoint>> {
    use crate::cv::CrossValidation;
    use crate::error_metrics::error_cov;
    use crate::map::BmfEstimator;
    use crate::mle::MleEstimator;
    use crate::prior::NormalWishartPrior;
    use crate::MomentEstimate;
    use bmf_stats::descriptive;

    let d = core_cov.nrows();
    let mut out = Vec::with_capacity(gammas.len());
    let cv = CrossValidation;
    let mle = MleEstimator::new();

    for &gamma in gammas {
        let warps: Vec<MarginalWarp> = (0..d)
            .map(|_| {
                if gamma == 0.0 {
                    MarginalWarp::Gaussian
                } else {
                    MarginalWarp::Skewed { gamma }
                }
            })
            .collect();
        let pop = WarpedPopulation::new(core_cov.clone(), warps)?;

        // Large pools: early prior + reference moments.
        let early_pool = pop.sample_matrix(rng, 4000);
        let ref_pool = pop.sample_matrix(rng, 4000);
        let early = MomentEstimate {
            mean: descriptive::mean_vector(&early_pool)?,
            cov: descriptive::covariance_mle(&early_pool)?,
        };
        let exact = MomentEstimate {
            mean: descriptive::mean_vector(&ref_pool)?,
            cov: descriptive::covariance_mle(&ref_pool)?,
        };

        let mut mle_err = 0.0;
        let mut bmf_err = 0.0;
        for _ in 0..repetitions {
            let few = pop.sample_matrix(rng, n_late);
            mle_err += error_cov(&mle.estimate(&few)?, &exact)?;
            let sel = cv.select(&early, &few, rng)?;
            let prior = NormalWishartPrior::from_early_moments(&early, sel.kappa0, sel.nu0)?;
            let est = BmfEstimator::new(prior)?.estimate(&few)?;
            bmf_err += error_cov(&est.map, &exact)?;
        }
        let r = repetitions as f64;
        out.push(RobustnessPoint {
            gamma,
            mle_cov_err: mle_err / r,
            bmf_cov_err: bmf_err / r,
            ratio: (bmf_err / r) / (mle_err / r).max(1e-300),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmf_stats::descriptive;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(44)
    }

    #[test]
    fn warp_validation() {
        assert!(MarginalWarp::Gaussian.validate().is_ok());
        assert!(MarginalWarp::Skewed { gamma: 0.5 }.validate().is_ok());
        assert!(MarginalWarp::Skewed { gamma: 0.0 }.validate().is_err());
        assert!(MarginalWarp::Skewed { gamma: -1.0 }.validate().is_err());
        assert!(MarginalWarp::HeavyTailed { gamma: 0.0 }.validate().is_ok());
        assert!(MarginalWarp::HeavyTailed { gamma: -0.1 }
            .validate()
            .is_err());
    }

    #[test]
    fn warps_are_monotone_and_anchor_zero() {
        for w in [
            MarginalWarp::Gaussian,
            MarginalWarp::Skewed { gamma: 0.7 },
            MarginalWarp::HeavyTailed { gamma: 0.3 },
        ] {
            assert!(w.apply(0.0).abs() < 1e-12);
            let mut prev = w.apply(-3.0);
            for k in 1..=60 {
                let z = -3.0 + 0.1 * k as f64;
                let y = w.apply(z);
                assert!(y > prev, "{w:?} not monotone at z = {z}");
                prev = y;
            }
        }
    }

    #[test]
    fn skew_warp_produces_positive_skewness() {
        let pop = WarpedPopulation::new(
            Matrix::identity(1),
            vec![MarginalWarp::Skewed { gamma: 0.6 }],
        )
        .unwrap();
        let mut r = rng();
        let samples = pop.sample_matrix(&mut r, 20_000);
        let mean = descriptive::mean_vector(&samples).unwrap()[0];
        let xs: Vec<f64> = (0..samples.nrows()).map(|i| samples[(i, 0)]).collect();
        let sd = (xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64).sqrt();
        let skew = xs.iter().map(|x| ((x - mean) / sd).powi(3)).sum::<f64>() / xs.len() as f64;
        assert!(skew > 0.8, "skewness = {skew}");
    }

    #[test]
    fn heavy_tail_warp_raises_kurtosis() {
        let pop = WarpedPopulation::new(
            Matrix::identity(1),
            vec![MarginalWarp::HeavyTailed { gamma: 0.4 }],
        )
        .unwrap();
        let mut r = rng();
        let samples = pop.sample_matrix(&mut r, 20_000);
        let xs: Vec<f64> = (0..samples.nrows()).map(|i| samples[(i, 0)]).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let sd = (xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64).sqrt();
        let kurt = xs.iter().map(|x| ((x - mean) / sd).powi(4)).sum::<f64>() / xs.len() as f64;
        assert!(kurt > 4.0, "kurtosis = {kurt} (Gaussian is 3)");
    }

    #[test]
    fn gaussian_warp_preserves_the_core() {
        let cov = Matrix::from_rows(&[&[1.0, 0.6], &[0.6, 1.0]]).unwrap();
        let pop = WarpedPopulation::new(
            cov.clone(),
            vec![MarginalWarp::Gaussian, MarginalWarp::Gaussian],
        )
        .unwrap();
        let mut r = rng();
        let samples = pop.sample_matrix(&mut r, 30_000);
        let est = descriptive::covariance_unbiased(&samples).unwrap();
        assert!(est.max_abs_diff(&cov).unwrap() < 0.05);
    }

    #[test]
    fn correlation_survives_warping() {
        let cov = Matrix::from_rows(&[&[1.0, 0.8], &[0.8, 1.0]]).unwrap();
        let pop = WarpedPopulation::new(
            cov,
            vec![
                MarginalWarp::Skewed { gamma: 0.5 },
                MarginalWarp::Skewed { gamma: 0.5 },
            ],
        )
        .unwrap();
        let mut r = rng();
        let samples = pop.sample_matrix(&mut r, 20_000);
        let c = descriptive::covariance_unbiased(&samples).unwrap();
        let corr = descriptive::correlation_from_cov(&c).unwrap();
        assert!(corr[(0, 1)] > 0.6, "warped correlation = {}", corr[(0, 1)]);
    }

    #[test]
    fn construction_validates() {
        assert!(WarpedPopulation::new(Matrix::identity(2), vec![MarginalWarp::Gaussian]).is_err());
        let not_spd = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert!(WarpedPopulation::new(
            not_spd,
            vec![MarginalWarp::Gaussian, MarginalWarp::Gaussian]
        )
        .is_err());
    }

    #[test]
    fn robustness_sweep_reports_all_points() {
        let cov = Matrix::from_rows(&[&[1.0, 0.5], &[0.5, 1.0]]).unwrap();
        let mut r = rng();
        let points = skew_robustness_sweep(&cov, &[0.0, 0.6], 12, 4, &mut r).unwrap();
        assert_eq!(points.len(), 2);
        for p in &points {
            assert!(p.mle_cov_err.is_finite() && p.bmf_cov_err.is_finite());
            assert!(p.ratio > 0.0);
        }
        // At the Gaussian point BMF must win clearly.
        assert!(
            points[0].ratio < 1.0,
            "gaussian ratio = {}",
            points[0].ratio
        );
    }
}
