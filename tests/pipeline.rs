//! Cross-crate integration tests: circuit substrate → estimator pipeline.

use bmf_ams::circuits::adc::AdcTestbench;
use bmf_ams::circuits::monte_carlo::{run_monte_carlo_seeded, two_stage_study_seeded, Stage};
use bmf_ams::circuits::opamp::OpAmpTestbench;
use bmf_ams::core::experiment::{
    cost_reduction, prepare, run_error_sweep_parallel, ErrorKind, SweepConfig, TwoStageData,
};
use bmf_ams::core::prelude::*;
use bmf_ams::linalg::Matrix;
use bmf_ams::stats::descriptive;
use rand::SeedableRng;

/// Worker threads of the Monte Carlo runs and sweeps below; every result
/// is bit-identical at any count.
const THREADS: usize = 2;

fn study_data<T: bmf_ams::circuits::monte_carlo::Testbench>(
    tb: &T,
    n: usize,
    seed: u64,
) -> TwoStageData {
    let study = two_stage_study_seeded(tb, n, n, seed, THREADS).expect("monte carlo");
    TwoStageData {
        metric_names: study.metric_names.iter().map(|s| s.to_string()).collect(),
        early_nominal: study.early.nominal.clone(),
        early_samples: study.early.samples.clone(),
        late_nominal: study.late.nominal.clone(),
        late_samples: study.late.samples.clone(),
    }
}

#[test]
fn opamp_full_pipeline_beats_mle_at_small_n() {
    let tb = OpAmpTestbench::default_45nm();
    let data = study_data(&tb, 600, 1);
    let prepared = prepare(&data).expect("prepare");
    let config = SweepConfig {
        sample_sizes: vec![8],
        repetitions: 8,
        seed: 2,
    };
    let result = run_error_sweep_parallel(&prepared, &config, THREADS).expect("sweep");
    let row = &result.rows[0];
    assert!(
        row.bmf_cov_err < 0.7 * row.mle_cov_err,
        "BMF covariance error ({}) should be well below MLE ({}) at n = 8",
        row.bmf_cov_err,
        row.mle_cov_err
    );
}

#[test]
fn adc_full_pipeline_beats_mle_in_both_moments() {
    let tb = AdcTestbench::default_180nm();
    let data = study_data(&tb, 400, 3);
    let prepared = prepare(&data).expect("prepare");
    let config = SweepConfig {
        sample_sizes: vec![8],
        repetitions: 8,
        seed: 4,
    };
    let result = run_error_sweep_parallel(&prepared, &config, THREADS).expect("sweep");
    let row = &result.rows[0];
    assert!(row.bmf_cov_err < row.mle_cov_err);
    assert!(row.bmf_mean_err < row.mle_mean_err);
}

#[test]
fn cost_reduction_exceeds_one_at_small_n() {
    let tb = AdcTestbench::default_180nm();
    let data = study_data(&tb, 400, 5);
    let prepared = prepare(&data).expect("prepare");
    let config = SweepConfig {
        sample_sizes: vec![8, 32, 128],
        repetitions: 6,
        seed: 6,
    };
    let result = run_error_sweep_parallel(&prepared, &config, THREADS).expect("sweep");
    let cr = cost_reduction(&result, ErrorKind::Covariance);
    assert!(
        cr[0].1 > 2.0 || cr[0].1.is_infinite(),
        "covariance cost reduction at n = 8 should be > 2x, got {}",
        cr[0].1
    );
}

#[test]
fn pipeline_is_fully_reproducible_from_seeds() {
    let tb = OpAmpTestbench::default_45nm();
    let a = study_data(&tb, 80, 7);
    let b = study_data(&tb, 80, 7);
    assert_eq!(a.early_samples, b.early_samples);
    assert_eq!(a.late_samples, b.late_samples);
    assert_eq!(a.early_nominal, b.early_nominal);

    let config = SweepConfig {
        sample_sizes: vec![8],
        repetitions: 3,
        seed: 8,
    };
    let ra =
        run_error_sweep_parallel(&prepare(&a).expect("prep"), &config, THREADS).expect("sweep");
    let rb =
        run_error_sweep_parallel(&prepare(&b).expect("prep"), &config, THREADS).expect("sweep");
    assert_eq!(ra, rb);
}

#[test]
fn normalised_early_stage_is_isotropic() {
    // The §4.1 guarantee, verified on real circuit data (paper Fig. 1).
    let tb = OpAmpTestbench::default_45nm();
    let data = study_data(&tb, 800, 9);
    let prepared = prepare(&data).expect("prepare");
    for j in 0..5 {
        let var = prepared.early_moments.cov[(j, j)];
        assert!(
            (var - 1.0).abs() < 0.05,
            "early metric {j} normalised variance = {var}"
        );
    }
    assert!(
        prepared.early_moments.mean.norm_inf() < 0.3,
        "early normalised mean = {}",
        prepared.early_moments.mean
    );
}

#[test]
fn opamp_signature_mean_prior_weak_cov_prior_strong() {
    // §5.1's qualitative finding, on our substrate: at small n the CV
    // chooses κ₀ ≪ ν₀ for the op-amp.
    let tb = OpAmpTestbench::default_45nm();
    let data = study_data(&tb, 600, 10);
    let prepared = prepare(&data).expect("prepare");
    let config = SweepConfig {
        sample_sizes: vec![32],
        repetitions: 10,
        seed: 11,
    };
    let result = run_error_sweep_parallel(&prepared, &config, THREADS).expect("sweep");
    let row = &result.rows[0];
    assert!(
        row.mean_nu0 > 5.0 * row.mean_kappa0,
        "expected nu0 ({}) >> kappa0 ({}) for the op-amp",
        row.mean_nu0,
        row.mean_kappa0
    );
}

#[test]
fn physical_unit_round_trip_through_the_pipeline() {
    // Estimate in normalised space, invert to physical units, verify the
    // result sits near the raw late-pool statistics.
    let tb = AdcTestbench::default_180nm();
    let early = run_monte_carlo_seeded(&tb, Stage::Schematic, 300, 12, THREADS).expect("early");
    let late = run_monte_carlo_seeded(&tb, Stage::PostLayout, 300, 12, THREADS).expect("late");
    let mut rng = rand::rngs::StdRng::seed_from_u64(12);

    let early_sd = descriptive::column_stddevs(&early.samples).expect("sd");
    let early_t = ShiftScale::from_nominal_and_early_sd(&early.nominal, &early_sd).expect("t");
    let late_t = ShiftScale::from_nominal_and_early_sd(&late.nominal, &early_sd).expect("t");

    let early_norm = early_t.apply_samples(&early.samples).expect("norm");
    let late_norm = late_t.apply_samples(&late.samples).expect("norm");
    let early_moments = MomentEstimate {
        mean: descriptive::mean_vector(&early_norm).expect("mean"),
        cov: descriptive::covariance_mle(&early_norm).expect("cov"),
    };
    let few = Matrix::from_fn(16, 5, |i, j| late_norm[(i, j)]);
    let sel = CrossValidation
        .select(&early_moments, &few, &mut rng)
        .expect("cv");
    let prior =
        NormalWishartPrior::from_early_moments(&early_moments, sel.kappa0, sel.nu0).expect("prior");
    let est = BmfEstimator::new(prior)
        .expect("est")
        .estimate(&few)
        .expect("map");
    let physical = late_t.invert_moments(&est.map).expect("invert");

    let raw_mean = descriptive::mean_vector(&late.samples).expect("raw mean");
    let raw_sd = descriptive::column_stddevs(&late.samples).expect("raw sd");
    for j in 0..5 {
        let err = (physical.mean[j] - raw_mean[j]).abs();
        assert!(
            err < 3.0 * raw_sd[j],
            "metric {j}: physical mean {} vs raw {} (sd {})",
            physical.mean[j],
            raw_mean[j],
            raw_sd[j]
        );
        assert!(physical.cov[(j, j)] > 0.0);
    }
}

#[test]
fn yield_from_bmf_is_closer_than_mle_on_average() {
    // The downstream task: yield against a spec box. Averaged over several
    // few-sample draws, |BMF − reference| ≤ |MLE − reference|.
    let tb = OpAmpTestbench::default_45nm();
    let early = run_monte_carlo_seeded(&tb, Stage::Schematic, 500, 13, THREADS).expect("early");
    let late = run_monte_carlo_seeded(&tb, Stage::PostLayout, 500, 13, THREADS).expect("late");
    let mut rng = rand::rngs::StdRng::seed_from_u64(13);

    let specs = SpecLimits::new(
        vec![Some(82.0), Some(5.0e3), None, Some(-5e-3), Some(64.0)],
        vec![None, None, Some(130e-6), Some(5e-3), None],
    )
    .expect("specs");
    let mut passes = 0usize;
    for i in 0..late.samples.nrows() {
        if specs.passes(&late.samples.row_vec(i)) {
            passes += 1;
        }
    }
    let reference = passes as f64 / late.samples.nrows() as f64;
    assert!(
        reference > 0.05 && reference < 0.999,
        "reference = {reference}"
    );

    let early_sd = descriptive::column_stddevs(&early.samples).expect("sd");
    let early_t = ShiftScale::from_nominal_and_early_sd(&early.nominal, &early_sd).expect("t");
    let late_t = ShiftScale::from_nominal_and_early_sd(&late.nominal, &early_sd).expect("t");
    let early_norm = early_t.apply_samples(&early.samples).expect("norm");
    let late_norm = late_t.apply_samples(&late.samples).expect("norm");
    let early_moments = MomentEstimate {
        mean: descriptive::mean_vector(&early_norm).expect("mean"),
        cov: descriptive::covariance_mle(&early_norm).expect("cov"),
    };

    let reps = 5;
    let n = 12;
    let mut bmf_abs = 0.0;
    let mut mle_abs = 0.0;
    for r in 0..reps {
        let offset = r * n;
        let few = Matrix::from_fn(n, 5, |i, j| late_norm[(offset + i, j)]);
        let sel = CrossValidation
            .select(&early_moments, &few, &mut rng)
            .expect("cv");
        let prior = NormalWishartPrior::from_early_moments(&early_moments, sel.kappa0, sel.nu0)
            .expect("prior");
        let bmf = BmfEstimator::new(prior)
            .expect("e")
            .estimate(&few)
            .expect("map");
        let bmf_phys = late_t.invert_moments(&bmf.map).expect("invert");
        let y_bmf =
            bmf_ams::core::yield_estimation::estimate_yield(&bmf_phys, &specs, 20_000, &mut rng)
                .expect("yield");
        bmf_abs += (y_bmf.yield_fraction - reference).abs();

        let mle = MleEstimator::new().estimate(&few).expect("mle");
        if let Ok(mle_phys) = late_t.invert_moments(&mle) {
            match bmf_ams::core::yield_estimation::estimate_yield(
                &mle_phys, &specs, 20_000, &mut rng,
            ) {
                Ok(y) => mle_abs += (y.yield_fraction - reference).abs(),
                Err(_) => mle_abs += 1.0, // singular MLE covariance: max error
            }
        } else {
            mle_abs += 1.0;
        }
    }
    assert!(
        bmf_abs <= mle_abs * 1.2,
        "BMF total yield error {bmf_abs} vs MLE {mle_abs}"
    );
}
