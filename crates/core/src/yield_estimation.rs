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

    /// Lower bound for metric `j`, when set.
    ///
    /// # Panics
    ///
    /// Panics when `j >= dim()`.
    pub fn lower_bound(&self, j: usize) -> Option<f64> {
        self.lower[j]
    }

    /// Upper bound for metric `j`, when set.
    ///
    /// # Panics
    ///
    /// Panics when `j >= dim()`.
    pub fn upper_bound(&self, j: usize) -> Option<f64> {
        self.upper[j]
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

/// A rare-event failure-probability estimate from importance sampling.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FailProbabilityEstimate {
    /// Estimated failure probability.
    pub fail_probability: f64,
    /// Standard error of the estimate (from the weighted-sample variance).
    pub std_error: f64,
    /// Number of draws used.
    pub draws: usize,
}

/// Estimates a **rare** failure probability by mean-shift importance
/// sampling: draws come from `N(μ + shift, Σ)` and are re-weighted by the
/// exact likelihood ratio `w(x) = exp(−δᵀΛ(x−μ) + ½ δᵀΛδ)`.
///
/// High-yield AMS circuits fail with probabilities of 1e-4 … 1e-8 — far
/// beyond what the plain Monte Carlo of [`estimate_yield`] can resolve
/// with affordable draws. Shifting the sampling mean toward the failure
/// region concentrates draws where failures live; the likelihood ratio
/// keeps the estimator unbiased.
///
/// `shift` should point at the dominant failure region; a reasonable
/// automatic choice is the vector from the mean to the nearest spec
/// boundary (see [`shift_to_nearest_boundary`]).
///
/// # Errors
///
/// * [`BmfError::InvalidConfig`] for dimension mismatches or `draws == 0`.
/// * [`BmfError::Stats`]/[`BmfError::Linalg`] for a non-SPD covariance.
///
/// # Example
///
/// ```
/// use bmf_core::yield_estimation::{estimate_fail_probability_is, SpecLimits};
/// use bmf_core::MomentEstimate;
/// use bmf_linalg::{Matrix, Vector};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), bmf_core::BmfError> {
/// let moments = MomentEstimate { mean: Vector::zeros(1), cov: Matrix::identity(1) };
/// // Fail when x > 4 (a 4-sigma event, p ≈ 3.17e-5).
/// let specs = SpecLimits::new(vec![None], vec![Some(4.0)])?;
/// let shift = Vector::from_slice(&[4.0]);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(9);
/// let est = estimate_fail_probability_is(&moments, &specs, &shift, 20_000, &mut rng)?;
/// assert!((est.fail_probability / 3.17e-5 - 1.0).abs() < 0.2);
/// # Ok(())
/// # }
/// ```
pub fn estimate_fail_probability_is<R: Rng + ?Sized>(
    moments: &MomentEstimate,
    specs: &SpecLimits,
    shift: &bmf_linalg::Vector,
    draws: usize,
    rng: &mut R,
) -> Result<FailProbabilityEstimate> {
    moments.validate()?;
    let d = moments.dim();
    if specs.dim() != d || shift.len() != d {
        return Err(BmfError::InvalidConfig {
            reason: format!(
                "dimension mismatch: moments {d}, specs {}, shift {}",
                specs.dim(),
                shift.len()
            ),
        });
    }
    if draws == 0 {
        return Err(BmfError::InvalidConfig {
            reason: "need at least one draw".to_string(),
        });
    }
    let shifted_mean = &moments.mean + shift;
    let proposal = MultivariateNormal::new(shifted_mean, moments.cov.clone())?;
    let chol = bmf_linalg::Cholesky::new(&moments.cov)?;
    // Precompute Λδ and ½ δᵀΛδ for the log-weight.
    let lambda_delta = chol.solve_vec(shift)?;
    let half_quad = 0.5 * shift.dot(&lambda_delta)?;

    let mut sum_w = 0.0;
    let mut sum_w2 = 0.0;
    for _ in 0..draws {
        let x = proposal.sample(rng);
        if specs.passes(&x) {
            continue; // weight counts only on failure
        }
        let centred = &x - &moments.mean;
        let log_w = -centred.dot(&lambda_delta)? + half_quad;
        let w = log_w.exp();
        sum_w += w;
        sum_w2 += w * w;
    }
    let nf = draws as f64;
    let p = sum_w / nf;
    let var = (sum_w2 / nf - p * p).max(0.0) / nf;
    Ok(FailProbabilityEstimate {
        fail_probability: p,
        std_error: var.sqrt(),
        draws,
    })
}

/// Heuristic importance-sampling shift: for every spec-bounded dimension,
/// moves the mean to the nearest boundary it currently satisfies (other
/// dimensions stay put). This targets the dominant single-boundary failure
/// mode; multi-boundary problems may need a hand-chosen shift.
///
/// # Errors
///
/// Returns [`BmfError::InvalidConfig`] on dimension mismatch.
pub fn shift_to_nearest_boundary(
    moments: &MomentEstimate,
    specs: &SpecLimits,
) -> Result<bmf_linalg::Vector> {
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
    let d = moments.dim();
    let mut shift = bmf_linalg::Vector::zeros(d);
    for j in 0..d {
        let m = moments.mean[j];
        let mut best: Option<f64> = None;
        if let Some(l) = specs.lower_bound(j) {
            if m >= l {
                let delta = l - m;
                if best.is_none_or(|b: f64| delta.abs() < b.abs()) {
                    best = Some(delta);
                }
            }
        }
        if let Some(h) = specs.upper_bound(j) {
            if m <= h {
                let delta = h - m;
                if best.is_none_or(|b: f64| delta.abs() < b.abs()) {
                    best = Some(delta);
                }
            }
        }
        shift[j] = best.unwrap_or(0.0);
    }
    Ok(shift)
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

    #[test]
    fn importance_sampling_hits_4_sigma_tail() {
        let m = MomentEstimate {
            mean: Vector::zeros(1),
            cov: Matrix::identity(1),
        };
        let specs = SpecLimits::new(vec![None], vec![Some(4.0)]).unwrap();
        let shift = Vector::from_slice(&[4.0]);
        let est = estimate_fail_probability_is(&m, &specs, &shift, 40_000, &mut rng()).unwrap();
        let exact = 1.0 - standard_normal_cdf(4.0); // ≈ 3.167e-5
        assert!(
            (est.fail_probability / exact - 1.0).abs() < 0.15,
            "IS p = {:.3e} vs exact {exact:.3e}",
            est.fail_probability
        );
        // IS relative error is a few percent; plain MC at 40k draws would
        // have a relative standard error of ~90 %.
        assert!(est.std_error / est.fail_probability < 0.10);
        assert_eq!(est.draws, 40_000);
    }

    #[test]
    fn importance_sampling_beats_plain_mc_variance() {
        // Moderate 3σ tail where both methods work: IS std error must be
        // well under the binomial MC std error at equal draws.
        let m = MomentEstimate {
            mean: Vector::zeros(1),
            cov: Matrix::identity(1),
        };
        let specs = SpecLimits::new(vec![Some(-3.0)], vec![None]).unwrap();
        let shift = Vector::from_slice(&[-3.0]);
        let mut r = rng();
        let is = estimate_fail_probability_is(&m, &specs, &shift, 10_000, &mut r).unwrap();
        let exact = 1.0 - standard_normal_cdf(3.0);
        let mc_std_error = (exact * (1.0 - exact) / 10_000.0).sqrt();
        assert!(
            is.std_error < mc_std_error / 3.0,
            "IS σ = {:.2e} vs MC σ = {mc_std_error:.2e}",
            is.std_error
        );
    }

    #[test]
    fn importance_sampling_is_consistent_in_2d() {
        // Correlated 2-D failure region; compare IS against a large plain
        // MC reference.
        let m = MomentEstimate {
            mean: Vector::zeros(2),
            cov: Matrix::from_rows(&[&[1.0, 0.5], &[0.5, 1.0]]).unwrap(),
        };
        let specs = SpecLimits::new(vec![None, None], vec![Some(2.5), None]).unwrap();
        let shift = shift_to_nearest_boundary(&m, &specs).unwrap();
        assert_eq!(shift.as_slice(), &[2.5, 0.0]);
        let mut r = rng();
        let is = estimate_fail_probability_is(&m, &specs, &shift, 30_000, &mut r).unwrap();
        // Marginal of x0 is N(0,1): P(x0 > 2.5) = 1 − Φ(2.5).
        let exact = 1.0 - standard_normal_cdf(2.5);
        assert!(
            (is.fail_probability / exact - 1.0).abs() < 0.1,
            "p = {:.4e} vs {exact:.4e}",
            is.fail_probability
        );
    }

    #[test]
    fn shift_helper_picks_nearest_boundary() {
        let m = MomentEstimate {
            mean: Vector::from_slice(&[0.0, 10.0]),
            cov: Matrix::identity(2),
        };
        let specs = SpecLimits::new(vec![Some(-4.0), Some(7.0)], vec![Some(3.0), None]).unwrap();
        let shift = shift_to_nearest_boundary(&m, &specs).unwrap();
        // dim 0: nearest satisfied boundary is the upper one at +3.
        assert_eq!(shift[0], 3.0);
        // dim 1: only the lower bound, 3 below the mean.
        assert_eq!(shift[1], -3.0);
        let wrong = SpecLimits::new(vec![None], vec![None]).unwrap();
        assert!(shift_to_nearest_boundary(&m, &wrong).is_err());
    }

    #[test]
    fn importance_sampling_validates() {
        let m = MomentEstimate {
            mean: Vector::zeros(2),
            cov: Matrix::identity(2),
        };
        let specs = SpecLimits::new(vec![None, None], vec![Some(1.0), None]).unwrap();
        let bad_shift = Vector::zeros(3);
        assert!(estimate_fail_probability_is(&m, &specs, &bad_shift, 10, &mut rng()).is_err());
        let shift = Vector::zeros(2);
        assert!(estimate_fail_probability_is(&m, &specs, &shift, 0, &mut rng()).is_err());
        let wrong_specs = SpecLimits::new(vec![None], vec![None]).unwrap();
        assert!(estimate_fail_probability_is(&m, &wrong_specs, &shift, 10, &mut rng()).is_err());
    }
}
