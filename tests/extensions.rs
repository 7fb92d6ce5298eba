//! Integration tests for the extension modules, exercised on real circuit
//! data: multivariate vs per-metric BMF, moment-based yield vs the
//! empirical pass rate, Gaussianity diagnostics and PCA.

use bmf_ams::circuits::monte_carlo::{run_monte_carlo_seeded, Stage};
use bmf_ams::circuits::opamp::OpAmpTestbench;
use bmf_ams::core::diagnostics::mardia_test;
use bmf_ams::core::prelude::*;
use bmf_ams::core::yield_estimation::estimate_yield;
use bmf_ams::linalg::{Matrix, Vector};
use bmf_ams::stats::descriptive;
use bmf_ams::stats::pca::Pca;
use rand::SeedableRng;

fn opamp_pools(seed: u64, n: usize) -> (Matrix, Matrix) {
    let tb = OpAmpTestbench::default_45nm();
    let early = run_monte_carlo_seeded(&tb, Stage::Schematic, n, seed, 2).expect("early");
    let late = run_monte_carlo_seeded(&tb, Stage::PostLayout, n, seed, 2).expect("late");
    (early.samples, late.samples)
}

#[test]
fn multivariate_bmf_beats_per_metric_univariate_on_circuit_data() {
    // The paper's motivation (§2): per-metric fusion loses the correlation
    // structure. Measure both against the full-pool covariance.
    let (early_pool, late_pool) = opamp_pools(1, 800);
    // Centre each stage on its own pool mean (stand-in for the nominal
    // shift of §4.1) and scale both by the early σ, as the pipeline does.
    let early_sd = descriptive::column_stddevs(&early_pool).expect("sd");
    let early_mean = descriptive::mean_vector(&early_pool).expect("mean");
    let late_mean = descriptive::mean_vector(&late_pool).expect("mean");
    let t_early = ShiftScale::new(early_mean, early_sd.clone()).expect("transform");
    let t_late = ShiftScale::new(late_mean, early_sd).expect("transform");
    let early_norm = t_early.apply_samples(&early_pool).expect("norm");
    let late_norm = t_late.apply_samples(&late_pool).expect("norm");

    let early_moments = MomentEstimate {
        mean: descriptive::mean_vector(&early_norm).expect("mean"),
        cov: descriptive::covariance_mle(&early_norm).expect("cov"),
    };
    let exact = MomentEstimate {
        mean: descriptive::mean_vector(&late_norm).expect("mean"),
        cov: descriptive::covariance_mle(&late_norm).expect("cov"),
    };
    let few = Matrix::from_fn(16, 5, |i, j| late_norm[(i, j)]);

    // The single-metric BMF of ref. [7] is the same estimator at d = 1, run
    // once per column; only the diagonal of Σ survives.
    let mut per_metric = MomentEstimate {
        mean: Vector::zeros(5),
        cov: Matrix::zeros(5, 5),
    };
    for j in 0..5 {
        let early_j = MomentEstimate {
            mean: Vector::from_slice(&[early_moments.mean[j]]),
            cov: Matrix::from_fn(1, 1, |_, _| early_moments.cov[(j, j)]),
        };
        let prior_j = NormalWishartPrior::from_early_moments(&early_j, 5.0, 50.0).expect("prior");
        let column = Matrix::from_fn(few.nrows(), 1, |i, _| few[(i, j)]);
        let fused = BmfEstimator::new(prior_j)
            .expect("estimator")
            .estimate(&column)
            .expect("map");
        per_metric.mean[j] = fused.map.mean[0];
        per_metric.cov[(j, j)] = fused.map.cov[(0, 0)];
    }
    let prior = NormalWishartPrior::from_early_moments(&early_moments, 5.0, 50.0).expect("prior");
    let multi = BmfEstimator::new(prior)
        .expect("estimator")
        .estimate(&few)
        .expect("map");

    let uni_err = error_cov(&per_metric, &exact).expect("err");
    let multi_err = error_cov(&multi.map, &exact).expect("err");
    assert!(
        multi_err < uni_err,
        "multivariate ({multi_err:.4}) must beat correlation-blind per-metric ({uni_err:.4})"
    );
    // The gap is the off-diagonal mass the per-metric method cannot see.
    let corr = descriptive::correlation_from_cov(&exact.cov).expect("corr");
    let mut max_off = 0.0_f64;
    for i in 0..5 {
        for j in (i + 1)..5 {
            max_off = max_off.max(corr[(i, j)].abs());
        }
    }
    assert!(
        max_off > 0.5,
        "circuit data must be correlated for this test"
    );
}

#[test]
fn moment_based_yield_matches_empirical_pass_rate() {
    // The pool's moments → Gaussian yield must land near the pass rate
    // counted on the same dies.
    let (_, late_pool) = opamp_pools(2, 1200);
    let specs = SpecLimits::new(
        vec![Some(82.0), None, None, Some(-5e-3), Some(64.0)],
        vec![None, None, Some(1.30e-4), Some(5e-3), None],
    )
    .expect("specs");

    // Reference yield from the pool.
    let mut passes = 0usize;
    for i in 0..late_pool.nrows() {
        if specs.passes(&late_pool.row_vec(i)) {
            passes += 1;
        }
    }
    let reference = passes as f64 / late_pool.nrows() as f64;
    assert!(
        reference > 0.2 && reference < 0.995,
        "reference = {reference}"
    );

    let moments = MomentEstimate {
        mean: descriptive::mean_vector(&late_pool).expect("mean"),
        cov: descriptive::covariance_mle(&late_pool).expect("cov"),
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let gauss = estimate_yield(&moments, &specs, 40_000, &mut rng).expect("yield");
    assert!(
        (gauss.yield_fraction - reference).abs() < 0.05,
        "gaussian-model yield {} vs empirical {reference}",
        gauss.yield_fraction
    );
}

#[test]
fn mardia_diagnostics_run_on_both_stages() {
    let (early_pool, late_pool) = opamp_pools(4, 500);
    let e = mardia_test(&early_pool).expect("early test");
    let l = mardia_test(&late_pool).expect("late test");
    // The substrate is near-Gaussian by construction; kurtosis must sit
    // near d(d+2) = 35 for both stages.
    assert!((e.kurtosis - 35.0).abs() < 8.0, "early b2 = {}", e.kurtosis);
    assert!((l.kurtosis - 35.0).abs() < 8.0, "late b2 = {}", l.kurtosis);
}

#[test]
fn pca_compresses_opamp_metrics() {
    // Standardise first (metrics span orders of magnitude), then check
    // that the process-driven components dominate. On 100,000 seeded
    // schematic dies the cumulative variance shares read
    // 0.450/0.699/0.899/0.994/1.000: four components carry 99 %, while
    // three sit at the 90 % line, so a 3-for-90 % claim passes or fails
    // by the draw.
    let (early_pool, _) = opamp_pools(7, 1000);
    let sd = descriptive::column_stddevs(&early_pool).expect("sd");
    let mean = descriptive::mean_vector(&early_pool).expect("mean");
    let t = ShiftScale::new(mean, sd).expect("transform");
    let norm = t.apply_samples(&early_pool).expect("norm");
    let pca = Pca::fit(&norm).expect("pca");
    let k = pca.components_for_variance(0.99);
    assert!(
        k <= 4,
        "5 op-amp metrics should compress to <= 4 components for 99 % variance, got {k} \
         (explained shares {:?})",
        pca.explained_variance_ratio().as_slice()
    );
    // Projection round-trip sanity.
    let scores = pca.transform(&norm, k).expect("scores");
    assert_eq!(scores.shape(), (1000, k));
}
