//! Ablation studies for the design choices called out in DESIGN.md §5:
//!
//! 1. **No shift/scale** — run BMF on raw (unnormalised) data to show why
//!    §4.1's pre-conditioning is necessary.
//! 2. **Fixed hyper-parameters vs CV** — compare the two-dimensional CV
//!    against naive fixed `(κ₀, ν₀)` settings.
//! 3. **Prior corruption** — corrupt `μ_E` or `Σ_E` and watch the CV shrink
//!    the corresponding confidence parameter (validating the §3.3
//!    interpretation of `κ₀`/`ν₀`).
//!
//! Usage: `cargo run --release -p bmf-bench --bin ablations [--quick] [--threads <n>] [--fault-rate <r>] [--trace-out <json>] [--profile] [--metrics-out <json>] [--dashboard-out <html>]`
//!
//! `--threads` defaults to the machine's available parallelism; every
//! ablation is bit-identical for every thread count. With
//! `--fault-rate r` the op-amp study data is generated through the fault
//! injector and screened by the data-quality guard before the ablations
//! run (the guard summary is printed), demonstrating that the analyses
//! survive dirty data. `--fault-rate` must be finite and in `[0, 1)`;
//! an unknown or malformed flag exits 2.

use bmf_bench::{finish, publish_dashboard_snapshot, study_data, StudyFlags};
use bmf_circuits::opamp::OpAmpTestbench;
use bmf_core::cv::CrossValidation;
use bmf_core::error_metrics::{error_cov, error_mean};
use bmf_core::experiment::{prepare, PreparedStudy};
use bmf_core::map::BmfEstimator;
use bmf_core::mle::MleEstimator;
use bmf_core::prior::NormalWishartPrior;
use bmf_core::MomentEstimate;
use bmf_linalg::Matrix;
use bmf_obs::Grammar;
use bmf_stats::descriptive;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::RngCore;
use rand::SeedableRng;
use std::process::ExitCode;

fn subsample<R: Rng>(pool: &Matrix, n: usize, rng: &mut R) -> Matrix {
    let mut idx: Vec<usize> = (0..pool.nrows()).collect();
    idx.shuffle(rng);
    idx.truncate(n);
    Matrix::from_fn(n, pool.ncols(), |i, j| pool[(idx[i], j)])
}

/// The MAP estimate (Eq. 31–32) of `samples` under the prior built from
/// `early` with confidence `(κ₀, ν₀)`.
fn map_estimate(
    early: &MomentEstimate,
    (kappa0, nu0): (f64, f64),
    samples: &Matrix,
) -> bmf_core::Result<MomentEstimate> {
    let prior = NormalWishartPrior::from_early_moments(early, kappa0, nu0)?;
    Ok(BmfEstimator::new(prior)?.estimate(samples)?.map)
}

/// [`map_estimate`] at the `(κ₀, ν₀)` the default two-dimensional CV
/// selects, seeded by `seed`.
fn cv_map_estimate(
    early: &MomentEstimate,
    samples: &Matrix,
    seed: u64,
    threads: usize,
) -> bmf_core::Result<MomentEstimate> {
    let sel = CrossValidation::default().select_seeded(early, samples, seed, threads)?;
    map_estimate(early, (sel.kappa0, sel.nu0), samples)
}

/// Ablation 1: estimate in raw space (no shift/scale) and report errors in
/// the same normalised space as the proper pipeline, for comparability.
fn ablation_no_shift_scale(
    study: &PreparedStudy,
    raw_late: &Matrix,
    raw_early_moments: &MomentEstimate,
    n: usize,
    reps: usize,
    seed: u64,
    threads: usize,
) {
    bmf_obs::outln!("--- ablation 1: BMF without shift & scale (n = {n}) ---");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut raw_cov_err = 0.0;
    let mut raw_mean_err = 0.0;
    let mut norm_cov_err = 0.0;
    let mut norm_mean_err = 0.0;
    let mut failures = 0usize;
    for _ in 0..reps {
        // Raw-space BMF: prior from raw early moments, samples raw; the
        // estimate is expressed in normalised space to compare against
        // the exact normalised moments.
        let raw_samples = subsample(raw_late, n, &mut rng);
        match cv_map_estimate(raw_early_moments, &raw_samples, rng.next_u64(), threads)
            .and_then(|est| study.late_transform.apply_moments(&est))
        {
            Ok(est) => {
                raw_cov_err += error_cov(&est, &study.exact_late).unwrap();
                raw_mean_err += error_mean(&est, &study.exact_late).unwrap();
            }
            Err(_) => failures += 1,
        }

        // Proper pipeline for reference.
        let norm_samples = subsample(&study.late_pool, n, &mut rng);
        let est = cv_map_estimate(&study.early_moments, &norm_samples, rng.next_u64(), threads)
            .expect("normalised CV estimate");
        norm_cov_err += error_cov(&est, &study.exact_late).unwrap();
        norm_mean_err += error_mean(&est, &study.exact_late).unwrap();
    }
    let ok = (reps - failures).max(1) as f64;
    bmf_obs::outln!(
        "  raw-space BMF   (normalised units): mean error {:.5}, cov error {:.5} ({failures} failures)",
        raw_mean_err / ok,
        raw_cov_err / ok
    );
    bmf_obs::outln!(
        "  shift+scale BMF                   : mean error {:.5}, cov error {:.5}",
        norm_mean_err / reps as f64,
        norm_cov_err / reps as f64
    );
    bmf_obs::outln!("  -> raw space skips the nominal-shift correction, so the prior mean is");
    bmf_obs::outln!("     biased by the layout shift and the magnitudes are badly conditioned.\n");
}

/// Ablation 2: fixed hyper-parameters vs cross-validated ones.
fn ablation_fixed_vs_cv(study: &PreparedStudy, n: usize, reps: usize, seed: u64, threads: usize) {
    bmf_obs::outln!("--- ablation 2: fixed hyper-parameters vs CV (n = {n}) ---");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let fixed_settings: Vec<(&str, f64, f64)> = vec![
        ("kappa0=nu0=1+d", 1.0, 1.0 + 5.0),
        ("kappa0=nu0=n", n as f64, n as f64 + 5.0),
        ("kappa0=nu0=1000", 1000.0, 1000.0),
    ];
    let mut fixed_err = vec![0.0; fixed_settings.len()];
    let mut fixed_mean_err = vec![0.0; fixed_settings.len()];
    let mut cv_err = 0.0;
    let mut cv_mean_err = 0.0;
    let mut mle_err = 0.0;
    let mut mle_mean_err = 0.0;
    for _ in 0..reps {
        let samples = subsample(&study.late_pool, n, &mut rng);
        for (k, &(_, kappa, nu)) in fixed_settings.iter().enumerate() {
            let est = map_estimate(&study.early_moments, (kappa, nu), &samples).expect("estimate");
            fixed_err[k] += error_cov(&est, &study.exact_late).unwrap();
            fixed_mean_err[k] += error_mean(&est, &study.exact_late).unwrap();
        }
        let est = cv_map_estimate(&study.early_moments, &samples, rng.next_u64(), threads)
            .expect("CV estimate");
        cv_err += error_cov(&est, &study.exact_late).unwrap();
        cv_mean_err += error_mean(&est, &study.exact_late).unwrap();
        let mle = MleEstimator::new().estimate(&samples).expect("mle");
        mle_err += error_cov(&mle, &study.exact_late).unwrap();
        mle_mean_err += error_mean(&mle, &study.exact_late).unwrap();
    }
    let r = reps as f64;
    for (k, (name, _, _)) in fixed_settings.iter().enumerate() {
        bmf_obs::outln!(
            "  fixed {name:18}: mean error {:.5}, cov error {:.5}",
            fixed_mean_err[k] / r,
            fixed_err[k] / r
        );
    }
    bmf_obs::outln!(
        "  two-dimensional CV       : mean error {:.5}, cov error {:.5}",
        cv_mean_err / r,
        cv_err / r
    );
    bmf_obs::outln!(
        "  MLE baseline             : mean error {:.5}, cov error {:.5}\n",
        mle_mean_err / r,
        mle_err / r
    );
}

/// Ablation 3: corrupt one half of the prior and watch CV shrink the
/// matching confidence parameter.
fn ablation_prior_corruption(
    study: &PreparedStudy,
    n: usize,
    reps: usize,
    seed: u64,
    threads: usize,
) {
    bmf_obs::outln!("--- ablation 3: prior corruption vs selected confidence (n = {n}) ---");
    let cv = CrossValidation::default();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);

    let mut corrupt_mean = study.early_moments.clone();
    for i in 0..corrupt_mean.mean.len() {
        corrupt_mean.mean[i] += 2.0; // 2σ offset in normalised units
    }
    let mut corrupt_cov = study.early_moments.clone();
    corrupt_cov.cov *= 16.0;

    let mut k_clean = 0.0;
    let mut k_cm = 0.0;
    let mut v_clean = 0.0;
    let mut v_cc = 0.0;
    for _ in 0..reps {
        let samples = subsample(&study.late_pool, n, &mut rng);
        let clean = cv
            .select_seeded(&study.early_moments, &samples, rng.next_u64(), threads)
            .expect("CV clean");
        let cm = cv
            .select_seeded(&corrupt_mean, &samples, rng.next_u64(), threads)
            .expect("CV cm");
        let cc = cv
            .select_seeded(&corrupt_cov, &samples, rng.next_u64(), threads)
            .expect("CV cc");
        k_clean += clean.kappa0;
        k_cm += cm.kappa0;
        v_clean += clean.nu0;
        v_cc += cc.nu0;
    }
    let r = reps as f64;
    bmf_obs::outln!(
        "  clean prior        : mean kappa0 = {:8.2}, mean nu0 = {:8.1}",
        k_clean / r,
        v_clean / r
    );
    bmf_obs::outln!(
        "  corrupted mean     : mean kappa0 = {:8.2}   (should shrink)",
        k_cm / r
    );
    bmf_obs::outln!(
        "  corrupted covariance: mean nu0   = {:8.1}   (should shrink)\n",
        v_cc / r
    );
}

/// Ablation 4: how the BMF advantage scales with the metric count `d` at
/// fixed budget n — the sample covariance has d(d+1)/2 free parameters, so
/// MLE degrades fast while a good prior keeps BMF flat (the structural
/// argument for the paper's multivariate extension).
fn ablation_dimensionality(n: usize, reps: usize, seed: u64, threads: usize) {
    use bmf_linalg::{Matrix, Vector};
    use bmf_stats::MultivariateNormal;

    bmf_obs::outln!("--- ablation 4: dimensionality scaling (synthetic, n = {n}) ---");
    bmf_obs::outln!("    d | MLE cov err | BMF cov err | ratio");
    bmf_obs::outln!("------+-------------+-------------+------");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    for d in [2usize, 4, 6, 8, 10] {
        // AR(1)-style correlation structure, identical for prior and truth.
        let cov = Matrix::from_fn(d, d, |i, j| 0.6f64.powi((i as i32 - j as i32).abs()));
        let truth = MultivariateNormal::new(Vector::zeros(d), cov.clone()).expect("spd");
        let early = MomentEstimate {
            mean: Vector::zeros(d),
            cov,
        };
        let mut mle_err = 0.0;
        let mut bmf_err = 0.0;
        for _ in 0..reps {
            let samples = truth.sample_matrix(&mut rng, n);
            let mle = MleEstimator::new().estimate(&samples).expect("mle");
            let exact = MomentEstimate {
                mean: Vector::zeros(d),
                cov: truth.cov().clone(),
            };
            mle_err += error_cov(&mle, &exact).expect("err");
            let est = cv_map_estimate(&early, &samples, rng.next_u64(), threads).expect("map");
            bmf_err += error_cov(&est, &exact).expect("err");
        }
        let r = reps as f64;
        bmf_obs::outln!(
            "  {d:3} | {:11.4} | {:11.4} | {:5.3}",
            mle_err / r,
            bmf_err / r,
            (bmf_err / r) / (mle_err / r)
        );
    }
    bmf_obs::outln!("");
}

fn main() -> ExitCode {
    let flags = StudyFlags::from_env(&Grammar::new("--threads --fault-rate", "--quick", ""));
    let quick = flags.args.switch("--quick");
    let (threads, fault_rate) = (flags.threads, flags.fault_rate);
    flags.obs.set_run(
        7,
        &format!("ablations quick={quick} fault_rate={fault_rate}"),
    );
    let (pool, reps) = if quick { (600, 10) } else { (3000, 40) };
    let n = 32;

    bmf_obs::info!(
        "ablations: op-amp, {pool} MC samples/stage, {reps} repetitions, {threads} thread(s), fault rate {fault_rate}"
    );
    let tb = OpAmpTestbench::default_45nm();
    let (data, guard_summary) = study_data(tb, pool, 7, threads, fault_rate).expect("study");
    if let Some(summary) = guard_summary {
        bmf_obs::info!("{summary}");
    }
    let prepared = prepare(&data).expect("prepare");

    let raw_early_moments = MomentEstimate {
        mean: descriptive::mean_vector(&data.early_samples).expect("mean"),
        cov: descriptive::covariance_mle(&data.early_samples).expect("cov"),
    };

    bmf_obs::outln!("=== Ablation studies (two-stage op-amp) ===\n");
    ablation_no_shift_scale(
        &prepared,
        &data.late_samples,
        &raw_early_moments,
        n,
        reps,
        101,
        threads,
    );
    ablation_fixed_vs_cv(&prepared, n, reps, 102, threads);
    ablation_prior_corruption(&prepared, n, reps, 103, threads);
    ablation_dimensionality(16, reps, 104, threads);
    publish_dashboard_snapshot(&flags, OpAmpTestbench::default_45nm(), 7);
    finish(&flags.obs)
}
