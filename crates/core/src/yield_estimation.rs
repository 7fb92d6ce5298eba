//! Parametric-yield estimation from fitted moments.
//!
//! The paper's introduction motivates multivariate moment estimation with
//! yield: "the parametric yield value of an AMS circuit is often defined by
//! multiple correlated performance metrics". Once BMF has produced
//! `(μ, Σ)`, the yield against a box of specification limits is the
//! Gaussian orthant probability — evaluated here by Monte Carlo over the
//! *fitted* distribution (cheap: no further circuit simulation is needed).

use crate::{BmfError, MomentEstimate, Result};
use bmf_stats::MultivariateNormal;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Specification limits per metric; `None` means unbounded on that side.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpecLimits {
    lower: Vec<Option<f64>>,
    upper: Vec<Option<f64>>,
}

impl SpecLimits {
    /// Creates limits from per-metric `(lower, upper)` option pairs.
    ///
    /// # Errors
    ///
    /// Returns [`BmfError::InvalidConfig`] for empty limits, a non-finite
    /// bound or an interval with `lower >= upper`.
    pub fn new(lower: Vec<Option<f64>>, upper: Vec<Option<f64>>) -> Result<Self> {
        if lower.is_empty() || lower.len() != upper.len() {
            return Err(BmfError::InvalidConfig {
                reason: format!(
                    "need matching non-empty limit vectors, got {} and {}",
                    lower.len(),
                    upper.len()
                ),
            });
        }
        for (i, (lo, hi)) in lower.iter().zip(upper.iter()).enumerate() {
            // A NaN bound fails every comparison in `passes` and so never
            // rejects a die; an infinite one rejects every die or none.
            if let Some(b) = lo.iter().chain(hi).find(|b| !b.is_finite()) {
                return Err(BmfError::InvalidConfig {
                    reason: format!("metric {i}: spec limit {b} is not finite"),
                });
            }
            if let (Some(l), Some(h)) = (lo, hi) {
                if l >= h {
                    return Err(BmfError::InvalidConfig {
                        reason: format!("metric {i}: lower {l} >= upper {h}"),
                    });
                }
            }
        }
        Ok(SpecLimits { lower, upper })
    }

    /// Number of metrics.
    pub fn dim(&self) -> usize {
        self.lower.len()
    }

    /// Whether a performance vector meets every specification.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != dim()`.
    pub fn passes(&self, x: &bmf_linalg::Vector) -> bool {
        assert_eq!(x.len(), self.dim(), "dimension mismatch in spec check");
        for i in 0..self.dim() {
            if let Some(l) = self.lower[i] {
                if x[i] < l {
                    return false;
                }
            }
            if let Some(h) = self.upper[i] {
                if x[i] > h {
                    return false;
                }
            }
        }
        true
    }
}

/// A yield estimate with its Monte Carlo standard error.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct YieldEstimate {
    /// Estimated pass probability in `[0, 1]`.
    pub yield_fraction: f64,
    /// Binomial standard error `sqrt(y(1−y)/n)`.
    pub std_error: f64,
    /// Number of Monte Carlo draws used.
    pub draws: usize,
}

/// Estimates the parametric yield of the Gaussian fitted by `(μ, Σ)`
/// against `specs`, using `draws` Monte Carlo samples of the fitted model.
///
/// # Errors
///
/// * [`BmfError::InvalidConfig`] for a dimension mismatch or `draws == 0`.
/// * [`BmfError::Stats`] when the covariance is not SPD.
///
/// # Example
///
/// ```
/// use bmf_core::yield_estimation::{estimate_yield, SpecLimits};
/// use bmf_core::MomentEstimate;
/// use bmf_linalg::{Matrix, Vector};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), bmf_core::BmfError> {
/// let moments = MomentEstimate {
///     mean: Vector::zeros(1),
///     cov: Matrix::identity(1),
/// };
/// // Spec: x >= 0 → exactly half the standard normal passes.
/// let specs = SpecLimits::new(vec![Some(0.0)], vec![None])?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let y = estimate_yield(&moments, &specs, 20_000, &mut rng)?;
/// assert!((y.yield_fraction - 0.5).abs() < 0.02);
/// # Ok(())
/// # }
/// ```
pub fn estimate_yield<R: Rng + ?Sized>(
    moments: &MomentEstimate,
    specs: &SpecLimits,
    draws: usize,
    rng: &mut R,
) -> Result<YieldEstimate> {
    moments.validate()?;
    if specs.dim() != moments.dim() {
        return Err(BmfError::InvalidConfig {
            reason: format!(
                "specs have dimension {}, moments have {}",
                specs.dim(),
                moments.dim()
            ),
        });
    }
    if draws == 0 {
        return Err(BmfError::InvalidConfig {
            reason: "need at least one Monte Carlo draw".to_string(),
        });
    }
    let model = MultivariateNormal::new(moments.mean.clone(), moments.cov.clone())?;
    let mut passes = 0usize;
    for _ in 0..draws {
        if specs.passes(&model.sample(rng)) {
            passes += 1;
        }
    }
    let y = passes as f64 / draws as f64;
    Ok(YieldEstimate {
        yield_fraction: y,
        std_error: (y * (1.0 - y) / draws as f64).sqrt(),
        draws,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmf_linalg::{Matrix, Vector};
    use bmf_stats::special::standard_normal_cdf;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(55)
    }

    #[test]
    fn spec_limit_validation() {
        assert!(SpecLimits::new(vec![], vec![]).is_err());
        assert!(SpecLimits::new(vec![None], vec![None, None]).is_err());
        assert!(SpecLimits::new(vec![Some(2.0)], vec![Some(1.0)]).is_err());
        assert!(SpecLimits::new(vec![Some(1.0)], vec![Some(2.0)]).is_ok());
        assert!(SpecLimits::new(vec![None], vec![None]).is_ok());
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(SpecLimits::new(vec![Some(bad)], vec![None]).is_err());
            assert!(SpecLimits::new(vec![None], vec![Some(bad)]).is_err());
        }
    }

    #[test]
    fn passes_checks_both_sides() {
        let s = SpecLimits::new(vec![Some(0.0), None], vec![Some(1.0), Some(5.0)]).unwrap();
        assert!(s.passes(&Vector::from_slice(&[0.5, -100.0])));
        assert!(!s.passes(&Vector::from_slice(&[-0.1, 0.0])));
        assert!(!s.passes(&Vector::from_slice(&[0.5, 6.0])));
        assert!(s.passes(&Vector::from_slice(&[0.0, 5.0]))); // inclusive bounds
        assert_eq!(s.dim(), 2);
    }

    #[test]
    fn unbounded_specs_give_full_yield() {
        let m = MomentEstimate {
            mean: Vector::zeros(2),
            cov: Matrix::identity(2),
        };
        let s = SpecLimits::new(vec![None, None], vec![None, None]).unwrap();
        let y = estimate_yield(&m, &s, 500, &mut rng()).unwrap();
        assert_eq!(y.yield_fraction, 1.0);
        assert_eq!(y.std_error, 0.0);
        assert_eq!(y.draws, 500);
    }

    #[test]
    fn matches_analytic_univariate_probability() {
        // Yield of N(0,1) above −1 is Φ(1) ≈ 0.8413.
        let m = MomentEstimate {
            mean: Vector::zeros(1),
            cov: Matrix::identity(1),
        };
        let s = SpecLimits::new(vec![Some(-1.0)], vec![None]).unwrap();
        let y = estimate_yield(&m, &s, 60_000, &mut rng()).unwrap();
        let expected = standard_normal_cdf(1.0);
        assert!(
            (y.yield_fraction - expected).abs() < 0.01,
            "yield = {}, expected {expected}",
            y.yield_fraction
        );
        assert!(y.std_error < 0.01);
    }

    #[test]
    fn correlation_matters_for_joint_yield() {
        // Two metrics, each with marginal pass probability Φ(1); strongly
        // positively correlated metrics pass together more often than
        // independent ones.
        let s = SpecLimits::new(vec![Some(-1.0), Some(-1.0)], vec![None, None]).unwrap();
        let indep = MomentEstimate {
            mean: Vector::zeros(2),
            cov: Matrix::identity(2),
        };
        let corr = MomentEstimate {
            mean: Vector::zeros(2),
            cov: Matrix::from_rows(&[&[1.0, 0.95], &[0.95, 1.0]]).unwrap(),
        };
        let mut r = rng();
        let yi = estimate_yield(&indep, &s, 40_000, &mut r).unwrap();
        let yc = estimate_yield(&corr, &s, 40_000, &mut r).unwrap();
        assert!(
            yc.yield_fraction > yi.yield_fraction + 0.03,
            "correlated {} vs independent {}",
            yc.yield_fraction,
            yi.yield_fraction
        );
    }

    #[test]
    fn rejects_bad_configuration() {
        let m = MomentEstimate {
            mean: Vector::zeros(2),
            cov: Matrix::identity(2),
        };
        let s1 = SpecLimits::new(vec![None], vec![None]).unwrap();
        assert!(estimate_yield(&m, &s1, 100, &mut rng()).is_err());
        let s2 = SpecLimits::new(vec![None, None], vec![None, None]).unwrap();
        assert!(estimate_yield(&m, &s2, 0, &mut rng()).is_err());
    }
}
