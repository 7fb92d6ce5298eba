//! Property-based tests over the estimation pipeline.

use bmf_ams::core::prelude::*;
use bmf_ams::linalg::{Cholesky, Matrix, Vector};
use bmf_ams::stats::{descriptive, MultivariateNormal};
use proptest::prelude::*;
use rand::SeedableRng;

fn spd2(vals: &[f64]) -> Matrix {
    let b = Matrix::from_vec(2, 2, vals.to_vec()).expect("shape");
    let mut a = b.mat_mul(&b.transpose()).expect("square");
    a[(0, 0)] += 0.5;
    a[(1, 1)] += 0.5;
    a
}

/// ln p(μ, Λ | X) up to a constant, built from its two factors alone: the
/// normal-Wishart prior density and the Gaussian likelihood of the samples.
fn ln_posterior(prior: &NormalWishartPrior, s: &Matrix, mu: &Vector, lambda: &Matrix) -> f64 {
    let nw = prior.to_normal_wishart().unwrap();
    let cov = Cholesky::new(lambda).unwrap().inverse().unwrap();
    let model = MultivariateNormal::new(mu.clone(), cov).unwrap();
    nw.ln_pdf(mu, lambda).unwrap() + model.ln_likelihood(s).unwrap()
}

proptest! {
    /// Eq. 31–32 is the argmax of the joint log-posterior: stepping away
    /// from (μ_MAP, Σ_MAP⁻¹) in either direction along a random line in
    /// (μ, symmetric Λ) lowers it, at every step size.
    #[test]
    fn map_is_the_argmax_of_the_log_posterior(
        vals in proptest::collection::vec(-1.0..1.0f64, 4),
        kappa0 in 0.05..200.0f64,
        nu0_excess in 0.05..200.0f64,
        n in 1usize..20,
        seed in 0u64..1000,
        dir in proptest::collection::vec(-1.0..1.0f64, 5),
        k in 1i32..4,
    ) {
        let early = MomentEstimate { mean: Vector::zeros(2), cov: spd2(&vals) };
        let truth = MultivariateNormal::new(
            Vector::from_slice(&[1.0, -1.0]),
            Matrix::from_rows(&[&[1.0, 0.3], &[0.3, 0.8]]).unwrap(),
        ).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let s = truth.sample_matrix(&mut rng, n);

        let prior = NormalWishartPrior::from_early_moments(&early, kappa0, 2.0 + nu0_excess).unwrap();
        let map = BmfEstimator::new(prior.clone()).unwrap().estimate(&s).unwrap().map;
        let lambda_map = Cholesky::new(&map.cov).unwrap().inverse().unwrap();
        let peak = ln_posterior(&prior, &s, &map.mean, &lambda_map);

        let norm = dir.iter().map(|v| v * v).sum::<f64>().sqrt();
        let u: Vec<f64> = dir.iter().map(|v| v / norm).collect();
        let eps = 10f64.powi(-k);
        for sign in [1.0, -1.0] {
            let step = sign * eps;
            let mu = &map.mean + &(Vector::from_slice(&u[..2]) * step);
            let mut lambda = lambda_map.clone();
            lambda[(0, 0)] += step * u[2];
            lambda[(1, 1)] += step * u[3];
            lambda[(0, 1)] += step * u[4];
            lambda[(1, 0)] += step * u[4];
            if Cholesky::new(&lambda).is_err() {
                continue;
            }
            let moved = ln_posterior(&prior, &s, &mu, &lambda);
            prop_assert!(
                moved < peak,
                "step {step}: ln posterior {moved} >= {peak} at the MAP"
            );
        }
    }

    /// μ_MAP always lies on the segment between μ_E and X̄ (Eq. 31 is a
    /// convex combination), for any positive κ₀.
    #[test]
    fn map_mean_is_between_prior_and_sample_mean(
        vals in proptest::collection::vec(-1.0..1.0f64, 4),
        kappa0 in 0.01..500.0f64,
        seed in 0u64..1000,
    ) {
        let early = MomentEstimate { mean: Vector::zeros(2), cov: spd2(&vals) };
        let truth = MultivariateNormal::new(
            Vector::from_slice(&[1.0, -1.0]), early.cov.clone()).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let s = truth.sample_matrix(&mut rng, 6);
        let xbar = descriptive::mean_vector(&s).unwrap();

        let prior = NormalWishartPrior::from_early_moments(&early, kappa0, 8.0).unwrap();
        let est = BmfEstimator::new(prior).unwrap().estimate(&s).unwrap();
        // Convexity: each coordinate between the two anchors.
        for j in 0..2 {
            let lo = early.mean[j].min(xbar[j]) - 1e-9;
            let hi = early.mean[j].max(xbar[j]) + 1e-9;
            prop_assert!(est.map.mean[j] >= lo && est.map.mean[j] <= hi);
        }
    }

    /// Σ_MAP is always symmetric positive definite, even with a single
    /// sample or a badly mismatched prior.
    #[test]
    fn map_covariance_is_always_spd(
        vals in proptest::collection::vec(-1.0..1.0f64, 4),
        kappa0 in 0.01..1000.0f64,
        nu0_excess in 0.01..1000.0f64,
        n in 1usize..30,
        seed in 0u64..1000,
    ) {
        let early = MomentEstimate { mean: Vector::zeros(2), cov: spd2(&vals) };
        let truth = MultivariateNormal::new(
            Vector::from_slice(&[3.0, -2.0]),
            Matrix::identity(2) * 4.0,
        ).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let s = truth.sample_matrix(&mut rng, n);

        let prior = NormalWishartPrior::from_early_moments(&early, kappa0, 2.0 + nu0_excess).unwrap();
        let est = BmfEstimator::new(prior).unwrap().estimate(&s).unwrap();
        prop_assert!(Cholesky::new(&est.map.cov).is_ok());
        prop_assert!(est.map.cov.is_symmetric(1e-9));
    }

    /// Shift-scale round-trips arbitrary sample matrices.
    #[test]
    fn shift_scale_round_trip(
        shift in proptest::collection::vec(-1e3..1e3f64, 3),
        scale in proptest::collection::vec(0.01..1e3f64, 3),
        rows in proptest::collection::vec(proptest::collection::vec(-1e3..1e3f64, 3), 1..10),
    ) {
        let t = ShiftScale::new(Vector::from(shift), Vector::from(scale)).unwrap();
        let n = rows.len();
        let flat: Vec<f64> = rows.into_iter().flatten().collect();
        let m = Matrix::from_vec(n, 3, flat).unwrap();
        let back = t.invert_samples(&t.apply_samples(&m).unwrap()).unwrap();
        let scale_mag = m.norm_max().max(1.0);
        prop_assert!(back.max_abs_diff(&m).unwrap() < 1e-9 * scale_mag);
    }

    /// Moment transforms commute with sample transforms.
    #[test]
    fn moment_transform_commutes(
        shift in proptest::collection::vec(-100.0..100.0f64, 2),
        scale in proptest::collection::vec(0.1..100.0f64, 2),
        seed in 0u64..500,
    ) {
        let t = ShiftScale::new(Vector::from(shift), Vector::from(scale)).unwrap();
        let truth = MultivariateNormal::new(
            Vector::from_slice(&[5.0, -3.0]),
            Matrix::from_rows(&[&[2.0, 0.5], &[0.5, 1.0]]).unwrap(),
        ).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let s = truth.sample_matrix(&mut rng, 40);

        let via_samples = {
            let norm = t.apply_samples(&s).unwrap();
            MomentEstimate {
                mean: descriptive::mean_vector(&norm).unwrap(),
                cov: descriptive::covariance_mle(&norm).unwrap(),
            }
        };
        let via_moments = t.apply_moments(&MomentEstimate {
            mean: descriptive::mean_vector(&s).unwrap(),
            cov: descriptive::covariance_mle(&s).unwrap(),
        }).unwrap();
        prop_assert!((&via_samples.mean - &via_moments.mean).norm2() < 1e-9);
        prop_assert!(via_samples.cov.max_abs_diff(&via_moments.cov).unwrap() < 1e-9);
    }

    /// More data monotonically reduces the pull of the prior on the MAP
    /// mean (n/(κ₀+n) → 1).
    #[test]
    fn prior_influence_vanishes_with_data(
        kappa0 in 0.1..100.0f64,
        seed in 0u64..300,
    ) {
        let early = MomentEstimate {
            mean: Vector::from_slice(&[10.0, 10.0]),
            cov: Matrix::identity(2),
        };
        let truth = MultivariateNormal::standard(2).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let prior = NormalWishartPrior::from_early_moments(&early, kappa0, 8.0).unwrap();
        let estimator = BmfEstimator::new(prior).unwrap();

        let small = truth.sample_matrix(&mut rng, 4);
        let large = truth.sample_matrix(&mut rng, 400);
        let d_small = (&estimator.estimate(&small).unwrap().map.mean - truth.mean()).norm2();
        let d_large = (&estimator.estimate(&large).unwrap().map.mean - truth.mean()).norm2();
        // With a 10σ-wrong prior, the large-n estimate must sit far closer
        // to the truth.
        prop_assert!(d_large < d_small);
    }

    /// Yield estimates are valid probabilities with consistent standard
    /// errors.
    #[test]
    fn yield_estimates_are_probabilities(
        threshold in -3.0..3.0f64,
        seed in 0u64..300,
    ) {
        let m = MomentEstimate { mean: Vector::zeros(1), cov: Matrix::identity(1) };
        let specs = SpecLimits::new(vec![Some(threshold)], vec![None]).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let y = bmf_ams::core::yield_estimation::estimate_yield(&m, &specs, 2000, &mut rng).unwrap();
        prop_assert!((0.0..=1.0).contains(&y.yield_fraction));
        prop_assert!(y.std_error >= 0.0 && y.std_error <= 0.5 / (2000f64).sqrt() + 1e-9);
    }
}
