//! Integration tests pinning the implementation to the paper's equations,
//! exercised across crate boundaries on realistic data.

use bmf_ams::core::prelude::*;
use bmf_ams::linalg::{Cholesky, Matrix, Vector};
use bmf_ams::stats::{descriptive, MultivariateNormal};
use rand::SeedableRng;

fn early() -> MomentEstimate {
    MomentEstimate {
        mean: Vector::from_slice(&[0.5, -0.5, 0.0]),
        cov: Matrix::from_rows(&[&[1.0, 0.3, 0.1], &[0.3, 0.8, -0.2], &[0.1, -0.2, 1.2]]).unwrap(),
    }
}

fn samples(n: usize, seed: u64) -> Matrix {
    let truth = MultivariateNormal::new(Vector::from_slice(&[0.6, -0.4, 0.1]), early().cov.clone())
        .unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    truth.sample_matrix(&mut rng, n)
}

/// Eq. 31: μ_MAP = (κ₀ μ_E + n X̄)/(κ₀ + n), verified element-wise, and
/// against the known-Σ oracle: with Σ = Σ_E fixed, the posterior mean is
/// the product of the Gaussians N(μ_E, Σ_E/κ₀) and N(X̄, Σ_E/n).
#[test]
fn eq31_map_mean_formula() {
    let s = samples(10, 1);
    let xbar = descriptive::mean_vector(&s).unwrap();
    for &kappa0 in &[0.5, 4.0, 100.0] {
        let prior = NormalWishartPrior::from_early_moments(&early(), kappa0, 10.0).unwrap();
        let est = BmfEstimator::new(prior).unwrap().estimate(&s).unwrap();
        for j in 0..3 {
            let expected = (kappa0 * early().mean[j] + 10.0 * xbar[j]) / (kappa0 + 10.0);
            assert!(
                (est.map.mean[j] - expected).abs() < 1e-12,
                "kappa0 = {kappa0}, j = {j}"
            );
        }

        // μ = cov₂(cov₁+cov₂)⁻¹μ₁ + cov₁(cov₁+cov₂)⁻¹μ₂ for N(μ₁, cov₁)·N(μ₂, cov₂).
        let cov1 = early().cov / kappa0;
        let cov2 = early().cov / 10.0;
        let inv12 = Cholesky::new(&(&cov1 + &cov2)).unwrap().inverse().unwrap();
        let w1 = cov2.mat_mul(&inv12).unwrap();
        let w2 = cov1.mat_mul(&inv12).unwrap();
        let fused = &w1.mat_vec(&early().mean).unwrap() + &w2.mat_vec(&xbar).unwrap();
        assert!(
            (&est.map.mean - &fused).norm2() < 1e-10 * fused.norm2(),
            "kappa0 = {kappa0}: known-Σ fusion {fused} vs MAP {}",
            est.map.mean
        );
    }
}

/// Eq. 32: Σ_MAP = [(ν₀−d)Σ_E + S + κ₀n/(κ₀+n)(μ_E−X̄)(μ_E−X̄)ᵀ]/(ν₀+n−d),
/// verified entry-wise against a direct evaluation.
#[test]
fn eq32_map_covariance_formula() {
    let n = 7usize;
    let d = 3.0;
    let s = samples(n, 2);
    let xbar = descriptive::mean_vector(&s).unwrap();
    let scatter = descriptive::scatter_about(&s, &xbar).unwrap();
    let kappa0 = 3.0;
    let nu0 = 9.0;

    let diff = &early().mean - &xbar;
    let outer = Matrix::outer(&diff) * (kappa0 * n as f64 / (kappa0 + n as f64));
    let mut numerator = early().cov * (nu0 - d);
    numerator += &scatter;
    numerator += &outer;
    let expected = numerator / (nu0 + n as f64 - d);

    let prior = NormalWishartPrior::from_early_moments(&early(), kappa0, nu0).unwrap();
    let est = BmfEstimator::new(prior).unwrap().estimate(&s).unwrap();
    assert!(est.map.cov.max_abs_diff(&expected).unwrap() < 1e-12);
}

/// Eq. 33/35: dogmatic prior (κ₀, ν₀ → ∞) pins the MAP estimate to the
/// early-stage moments.
#[test]
fn eq33_35_dogmatic_limits() {
    let s = samples(6, 3);
    let prior = NormalWishartPrior::from_early_moments(&early(), 1e10, 1e10).unwrap();
    let est = BmfEstimator::new(prior).unwrap().estimate(&s).unwrap();
    assert!((&est.map.mean - &early().mean).norm2() < 1e-6);
    assert!(est.map.cov.max_abs_diff(&early().cov).unwrap() < 1e-6);
}

/// Eq. 34/36: uninformative prior (κ₀ → 0, ν₀ → d) recovers MLE.
#[test]
fn eq34_36_uninformative_limits() {
    let s = samples(9, 4);
    let prior = NormalWishartPrior::from_early_moments(&early(), 1e-10, 3.0 + 1e-10).unwrap();
    let bmf = BmfEstimator::new(prior).unwrap().estimate(&s).unwrap();
    let mle = MleEstimator::new().estimate(&s).unwrap();
    assert!((&bmf.map.mean - &mle.mean).norm2() < 1e-7);
    assert!(bmf.map.cov.max_abs_diff(&mle.cov).unwrap() < 1e-7);
}

/// Eq. 27/28: posterior counts are ν_n = ν₀ + n, κ_n = κ₀ + n.
#[test]
fn eq27_28_posterior_counts() {
    let s = samples(11, 5);
    let prior = NormalWishartPrior::from_early_moments(&early(), 2.5, 7.25).unwrap();
    let est = BmfEstimator::new(prior).unwrap().estimate(&s).unwrap();
    assert!((est.posterior.kappa_n - 13.5).abs() < 1e-12);
    assert!((est.posterior.nu_n - 18.25).abs() < 1e-12);
}

/// Eq. 15/16: the prior mode sits at (μ₀, (ν₀−d)T₀) — and maximises the
/// joint density (checked numerically through the stats crate).
#[test]
fn eq15_16_prior_mode() {
    let prior = NormalWishartPrior::from_early_moments(&early(), 4.0, 12.0).unwrap();
    let nw = prior.to_normal_wishart().unwrap();
    let (mu_m, lambda_m) = nw.mode();
    assert!((&mu_m - &early().mean).norm2() < 1e-12);
    // Λ_M = Λ_E  ⇔  Λ_M · Σ_E = I.
    let prod = lambda_m.mat_mul(&early().cov).unwrap();
    assert!(prod.max_abs_diff(&Matrix::identity(3)).unwrap() < 1e-10);

    let peak = nw.ln_pdf(&mu_m, &lambda_m).unwrap();
    let mut perturbed = lambda_m.clone();
    perturbed[(0, 1)] += 0.05;
    perturbed[(1, 0)] += 0.05;
    if Cholesky::new(&perturbed).is_ok() {
        assert!(nw.ln_pdf(&mu_m, &perturbed).unwrap() <= peak);
    }
}

/// Eq. 9: the likelihood used by the CV scoring equals the product of the
/// per-sample Gaussian densities.
#[test]
fn eq9_likelihood_factorises() {
    let s = samples(5, 6);
    let model = MultivariateNormal::new(early().mean.clone(), early().cov.clone()).unwrap();
    let joint = model.ln_likelihood(&s).unwrap();
    let manual: f64 = (0..5).map(|i| model.ln_pdf(&s.row_vec(i)).unwrap()).sum();
    assert!((joint - manual).abs() < 1e-10);
}

/// Eq. 37/38 behave as norms: zero at equality, triangle inequality.
#[test]
fn eq37_38_error_criteria_are_norms() {
    let a = early();
    let mut b = early();
    b.mean[0] += 1.0;
    b.cov[(0, 0)] += 0.5;
    let mut c = early();
    c.mean[0] += 2.0;
    c.cov[(0, 0)] += 1.0;

    assert_eq!(error_mean(&a, &a).unwrap(), 0.0);
    assert_eq!(error_cov(&a, &a).unwrap(), 0.0);
    // Triangle: d(a, c) <= d(a, b) + d(b, c).
    assert!(
        error_mean(&a, &c).unwrap()
            <= error_mean(&a, &b).unwrap() + error_mean(&b, &c).unwrap() + 1e-12
    );
    assert!(
        error_cov(&a, &c).unwrap()
            <= error_cov(&a, &b).unwrap() + error_cov(&b, &c).unwrap() + 1e-12
    );
}

/// The posterior predictive's covariance approaches the estimated Σ as
/// n grows (the Student-t widening vanishes).
#[test]
fn predictive_tightens_with_data() {
    let few = samples(6, 7);
    let many = samples(600, 7);
    let prior = NormalWishartPrior::from_early_moments(&early(), 2.0, 8.0).unwrap();
    let estimator = BmfEstimator::new(prior).unwrap();

    let widen = |s: &Matrix| -> f64 {
        let est = estimator.estimate(s).unwrap();
        let pred = est.predictive().unwrap();
        let pred_cov = pred.covariance().expect("dof > 2");
        // Ratio of predictive to MAP covariance scale (1 = no widening).
        pred_cov.norm_frobenius() / est.map.cov.norm_frobenius()
    };
    let w_few = widen(&few);
    let w_many = widen(&many);
    assert!(w_few > w_many, "widening {w_few} should exceed {w_many}");
    assert!((w_many - 1.0).abs() < 0.02);
}
