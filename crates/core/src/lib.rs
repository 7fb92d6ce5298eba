//! Multivariate moment estimation via Bayesian model fusion (BMF).
//!
//! Reference implementation of *“Efficient Multivariate Moment Estimation
//! via Bayesian Model Fusion for Analog and Mixed-Signal Circuits”*
//! (Huang, Fang, Yang, Zeng, Li — DAC 2015).
//!
//! Given abundant **early-stage** data (e.g. schematic-level Monte Carlo)
//! and very few **late-stage** samples (e.g. post-layout simulation or
//! silicon measurement), the method estimates the late-stage mean vector
//! `μ` and covariance matrix `Σ` of `d` correlated performance metrics by:
//!
//! 1. **Shift & scale** (§4.1, [`transform::ShiftScale`]) — centre each
//!    stage on its nominal performance and normalise by the early-stage
//!    per-dimension spread, making the two distributions comparable.
//! 2. **Prior encoding** (§3.2, [`prior::NormalWishartPrior`]) — place a
//!    normal-Wishart prior whose mode sits on the early-stage moments.
//! 3. **Hyper-parameter selection** (§4.2, [`cv::CrossValidation`]) —
//!    pick the confidence parameters `(ν₀, κ₀)` by two-dimensional Q-fold
//!    cross-validation on the few late-stage samples.
//! 4. **MAP estimation** (§3.3, [`map::BmfEstimator`]) — the closed-form
//!    posterior mode of Eq. 31–32.
//!
//! The MLE baseline of the paper's comparison lives in [`mle`], the error
//! criteria of Eq. 37–38 in [`error_metrics`], and a complete
//! figure-regeneration harness in [`experiment`]. Parametric-yield
//! estimation from the fitted moments — the application motivating the
//! paper — is provided in [`yield_estimation`] (plain Monte Carlo over
//! the fitted Gaussian).
//!
//! The single-metric BMF the paper generalises (§2, ref. \[7\]) is
//! [`map::BmfEstimator`] at `d = 1`. Companion modules extend the
//! reproduction: [`diagnostics`] (Mardia normality test for the Gaussian
//! assumption), [`robustness`] (non-Gaussian stress harness) and [`io`]
//! (CSV interchange).
//!
//! # Quickstart
//!
//! ```
//! use bmf_core::prelude::*;
//! use bmf_linalg::{Matrix, Vector};
//! use bmf_stats::MultivariateNormal;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), bmf_core::BmfError> {
//! // Early-stage knowledge: moments of 10k cheap samples.
//! let truth = MultivariateNormal::new(
//!     Vector::from_slice(&[0.1, -0.1]),
//!     Matrix::from_rows(&[&[1.0, 0.6], &[0.6, 1.2]]).unwrap(),
//! ).unwrap();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//!
//! let early = MomentEstimate {
//!     mean: Vector::zeros(2),
//!     cov: Matrix::from_rows(&[&[1.0, 0.55], &[0.55, 1.15]]).unwrap(),
//! };
//!
//! // Very few late-stage samples.
//! let late_samples = truth.sample_matrix(&mut rng, 10);
//!
//! // Fuse: CV-select hyper-parameters, then MAP-estimate the moments.
//! let selection = CrossValidation.select(&early, &late_samples, &mut rng)?;
//! let prior = NormalWishartPrior::from_early_moments(
//!     &early, selection.kappa0, selection.nu0)?;
//! let estimate = BmfEstimator::new(prior)?.estimate(&late_samples)?;
//! assert_eq!(estimate.map.mean.len(), 2);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
// Validation deliberately uses `!(x > 0.0)`-style negated comparisons: they
// reject NaN along with out-of-domain values in one test, which is exactly
// the semantics every constructor here wants.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod cv;
pub mod diagnostics;
pub mod drift;
mod error;
pub mod error_metrics;
pub mod experiment;
pub mod guard;
pub mod health;
pub mod io;
pub mod map;
pub mod mle;
pub mod parallel;
pub mod pipeline;
pub mod prior;
pub mod robustness;
pub mod suffstats;
pub mod transform;
pub mod yield_estimation;

pub use error::BmfError;

/// Convenience result alias for fallible BMF operations.
pub type Result<T> = std::result::Result<T, BmfError>;

use bmf_linalg::{Matrix, Vector};
use serde::{Deserialize, Serialize};

/// A point estimate of the first two multivariate moments.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MomentEstimate {
    /// Estimated mean vector `μ` (length `d`).
    pub mean: Vector,
    /// Estimated covariance matrix `Σ` (`d × d`).
    pub cov: Matrix,
}

impl MomentEstimate {
    /// Dimension `d` of the estimate.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Validates internal consistency: matching shapes, finite entries,
    /// symmetric covariance.
    ///
    /// # Errors
    ///
    /// Returns [`BmfError::InvalidMoments`] when any check fails.
    pub fn validate(&self) -> Result<()> {
        if self.cov.shape() != (self.mean.len(), self.mean.len()) {
            return Err(BmfError::InvalidMoments {
                reason: format!(
                    "mean has length {} but covariance is {}x{}",
                    self.mean.len(),
                    self.cov.nrows(),
                    self.cov.ncols()
                ),
            });
        }
        if !self.mean.is_finite() || !self.cov.is_finite() {
            return Err(BmfError::InvalidMoments {
                reason: "non-finite moment entries".to_string(),
            });
        }
        if !self.cov.is_symmetric(1e-9) {
            return Err(BmfError::InvalidMoments {
                reason: "covariance is not symmetric".to_string(),
            });
        }
        Ok(())
    }
}

/// Common imports for downstream users.
pub mod prelude {
    pub use crate::cv::{CrossValidation, HyperParameterSelection};
    pub use crate::drift::DriftMonitor;
    pub use crate::error_metrics::{error_cov, error_mean};
    pub use crate::experiment::{SweepConfig, TwoStageData};
    pub use crate::guard::DataQualityReport;
    pub use crate::health::assess as assess_health;
    pub use crate::map::{BmfEstimate, BmfEstimator};
    pub use crate::mle::MleEstimator;
    pub use crate::pipeline::{FailureMode, FallbackLevel, FusionReport, RobustPipeline};
    pub use crate::prior::NormalWishartPrior;
    pub use crate::suffstats::SufficientStats;
    pub use crate::transform::ShiftScale;
    pub use crate::yield_estimation::{SpecLimits, YieldEstimate};
    pub use crate::{BmfError, MomentEstimate};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moment_estimate_validation() {
        let ok = MomentEstimate {
            mean: Vector::zeros(2),
            cov: Matrix::identity(2),
        };
        assert!(ok.validate().is_ok());
        assert_eq!(ok.dim(), 2);

        let bad_shape = MomentEstimate {
            mean: Vector::zeros(3),
            cov: Matrix::identity(2),
        };
        assert!(bad_shape.validate().is_err());

        let mut asym = Matrix::identity(2);
        asym[(0, 1)] = 0.5;
        let bad_sym = MomentEstimate {
            mean: Vector::zeros(2),
            cov: asym,
        };
        assert!(bad_sym.validate().is_err());

        let mut inf = Matrix::identity(2);
        inf[(0, 0)] = f64::INFINITY;
        let bad_finite = MomentEstimate {
            mean: Vector::zeros(2),
            cov: inf,
        };
        assert!(bad_finite.validate().is_err());
    }
}
