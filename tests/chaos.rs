//! Chaos tests: fault-injected Monte Carlo data through the self-healing
//! fusion pipeline.
//!
//! Two layers:
//!
//! * **Property tests** — for any fault mix (simulation failures, NaN'd
//!   metrics, gross outliers at randomized rates around the base rate),
//!   [`RobustPipeline`] never panics and always produces either
//!   `Ok((estimate, FusionReport))` or a typed [`BmfError`]. The base
//!   fault rate is read from `BMF_CHAOS_FAULT_RATE` (default `0.1`) so CI
//!   can run the same suite at several intensities.
//! * **Acceptance test** — the ISSUE's scenario: 10% injected simulation
//!   failures plus 2% NaN corruption on the op-amp testbench must leave
//!   the MAP covariance error within 2× of the fault-free run.

use bmf_ams::circuits::fault::{FaultConfig, FaultInjector};
use bmf_ams::circuits::monte_carlo::{
    run_monte_carlo_seeded_with_policy, RetryPolicy, Stage, Testbench,
};
use bmf_ams::circuits::opamp::OpAmpTestbench;
use bmf_ams::core::error_metrics::error_cov;
use bmf_ams::core::experiment::{prepare, PreparedStudy, TwoStageData};
use bmf_ams::core::pipeline::{FailureMode, FallbackLevel, RobustPipeline};
use bmf_ams::core::{BmfError, MomentEstimate};
use bmf_ams::linalg::Matrix;
use proptest::prelude::*;

/// Base fault rate for the property tests; CI's chaos job overrides it.
fn base_fault_rate() -> f64 {
    std::env::var("BMF_CHAOS_FAULT_RATE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.1)
}

/// A clean op-amp study, normalised: prior moments, exact late moments
/// and the transforms — the fault-free reference frame.
fn clean_study(n_early: usize, n_late_pool: usize, seed: u64) -> (PreparedStudy, TwoStageData) {
    let tb = OpAmpTestbench::default_45nm();
    let policy = RetryPolicy::default();
    let early =
        run_monte_carlo_seeded_with_policy(&tb, Stage::Schematic, n_early, seed, 1, &policy)
            .expect("clean early stage");
    let late =
        run_monte_carlo_seeded_with_policy(&tb, Stage::PostLayout, n_late_pool, seed, 1, &policy)
            .expect("clean late stage");
    let data = TwoStageData {
        metric_names: tb.metric_names().iter().map(|s| s.to_string()).collect(),
        early_nominal: early.nominal.clone(),
        early_samples: early.samples.clone(),
        late_nominal: late.nominal.clone(),
        late_samples: late.samples.clone(),
    };
    let study = prepare(&data).expect("prepare clean study");
    (study, data)
}

/// Late-stage samples from the fault-injected op-amp, normalised with the
/// clean study's late transform (NaN cells pass through the affine map).
fn faulted_late_samples(study: &PreparedStudy, config: FaultConfig, n: usize, seed: u64) -> Matrix {
    let tb = FaultInjector::new(OpAmpTestbench::default_45nm(), config).expect("fault config");
    // A generous retry budget: at sim-failure rates approaching 1 the
    // default 100 attempts can exhaust, which is a legitimate typed error
    // but not the path these tests exercise.
    let policy = RetryPolicy { max_attempts: 400 };
    let late = run_monte_carlo_seeded_with_policy(&tb, Stage::PostLayout, n, seed, 1, &policy)
        .expect("faulted late stage");
    study
        .late_transform
        .apply_samples(&late.samples)
        .expect("normalise faulted samples")
}

proptest! {
    /// The headline chaos property: for any fault mix around the base
    /// rate, the robust pipeline never panics and always returns either
    /// an estimate-with-report or a typed error.
    #[test]
    fn robust_pipeline_never_panics_under_fault_injection(
        seed in 0u64..10_000,
        fail_scale in 0.0..2.0f64,
        nan_scale in 0.0..2.0f64,
        outlier_scale in 0.0..2.0f64,
    ) {
        let base = base_fault_rate();
        let config = FaultConfig {
            sim_failure_rate: (base * fail_scale).min(0.9),
            nan_rate: (base / 5.0 * nan_scale).min(0.5),
            outlier_rate: (base / 5.0 * outlier_scale).min(0.5),
        };
        let (study, _) = clean_study(40, 40, 2015);
        let late = faulted_late_samples(&study, config, 12, seed);

        let pipeline = RobustPipeline::new().with_seed(seed);
        match pipeline.estimate(&study.early_moments, &late) {
            Ok((est, report)) => {
                // Whatever rung produced it, the estimate is structurally
                // valid and the report serializes.
                prop_assert!(est.validate().is_ok());
                let json = report.to_json();
                prop_assert!(json.starts_with('{') && json.ends_with('}'));
                prop_assert!(!report.summary().is_empty());
                // Book-keeping is consistent: dropped rows are counted.
                prop_assert_eq!(
                    report.data_quality.rows_out + report.data_quality.dropped_rows.len(),
                    report.data_quality.rows_in
                );
            }
            Err(e) => {
                // Typed error with a usable message — never a panic.
                prop_assert!(matches!(
                    e,
                    BmfError::InvalidSamples { .. }
                        | BmfError::InvalidConfig { .. }
                        | BmfError::InvalidMoments { .. }
                        | BmfError::InvalidHyperParameter { .. }
                        | BmfError::Stats(_)
                        | BmfError::Linalg(_)
                ), "unexpected error class: {e:?}");
                prop_assert!(!e.to_string().is_empty());
            }
        }
    }

    /// Strict mode under the same chaos: either a clean MAP estimate (no
    /// repairs, nothing dropped) or a typed error — never a silently
    /// patched result.
    #[test]
    fn strict_mode_never_hides_an_intervention(
        seed in 0u64..10_000,
        fail_scale in 0.0..2.0f64,
        nan_scale in 0.0..2.0f64,
    ) {
        let base = base_fault_rate();
        let config = FaultConfig {
            sim_failure_rate: (base * fail_scale).min(0.9),
            nan_rate: (base / 5.0 * nan_scale).min(0.5),
            ..FaultConfig::default()
        };
        let (study, _) = clean_study(40, 40, 2015);
        let late = faulted_late_samples(&study, config, 12, seed);

        let pipeline = RobustPipeline::new()
            .with_seed(seed)
            .with_mode(FailureMode::Strict);
        if let Ok((est, report)) = pipeline.estimate(&study.early_moments, &late) {
            prop_assert_eq!(report.fallback, FallbackLevel::Map);
            prop_assert!(report.data_quality.dropped_rows.is_empty());
            prop_assert!(!report.prior_repair.is_repaired());
            prop_assert!(est.validate().is_ok());
        }
    }
}

/// The ISSUE's acceptance scenario, deterministic: 10% injected
/// simulation failures + 2% NaN corruption on the op-amp testbench. The
/// pipeline must return a MAP-level estimate whose covariance error stays
/// within 2× of the fault-free run.
#[test]
fn faulted_map_covariance_error_within_2x_of_fault_free() {
    let (study, _) = clean_study(400, 600, 77);
    let n_late = 40;

    let run = |late: &Matrix| -> (MomentEstimate, FallbackLevel) {
        let (est, report) = RobustPipeline::new()
            .with_seed(7)
            .estimate(&study.early_moments, late)
            .expect("robust estimate");
        (est, report.fallback)
    };

    // Fault-free reference: the same late draw without an injector.
    let clean_late = faulted_late_samples(&study, FaultConfig::default(), n_late, 7);
    let (clean_est, clean_level) = run(&clean_late);
    assert_eq!(clean_level, FallbackLevel::Map);
    let clean_err = error_cov(&clean_est, &study.exact_late).unwrap();

    // Acceptance mix: 10% failed sims, 2% NaN corruption.
    let faulted_late = faulted_late_samples(
        &study,
        FaultConfig {
            sim_failure_rate: 0.10,
            nan_rate: 0.02,
            ..FaultConfig::default()
        },
        n_late,
        7,
    );
    let (faulted_est, faulted_level) = run(&faulted_late);
    assert!(
        matches!(
            faulted_level,
            FallbackLevel::Map | FallbackLevel::MapRepairedPrior
        ),
        "acceptance scenario should stay on a MAP rung, got {faulted_level}"
    );
    let faulted_err = error_cov(&faulted_est, &study.exact_late).unwrap();

    assert!(
        faulted_err <= 2.0 * clean_err,
        "faulted covariance error {faulted_err:.5} exceeds 2x the fault-free error {clean_err:.5}"
    );
}

/// Same acceptance mix, checked for thread-count invariance end to end:
/// faulted generation and robust estimation at 1, 2 and 7 threads give
/// bit-identical moments.
#[test]
fn faulted_robust_estimate_is_thread_count_invariant() {
    let (study, _) = clean_study(60, 60, 3);
    let config = FaultConfig {
        sim_failure_rate: 0.10,
        nan_rate: 0.02,
        ..FaultConfig::default()
    };
    let tb = FaultInjector::new(OpAmpTestbench::default_45nm(), config).unwrap();
    let policy = RetryPolicy::default();

    let mut reference: Option<MomentEstimate> = None;
    for threads in [1usize, 2, 7] {
        let late =
            run_monte_carlo_seeded_with_policy(&tb, Stage::PostLayout, 16, 5, threads, &policy)
                .unwrap();
        let norm = study.late_transform.apply_samples(&late.samples).unwrap();
        let (est, _) = RobustPipeline::new()
            .with_seed(5)
            .with_threads(threads)
            .estimate(&study.early_moments, &norm)
            .unwrap();
        match &reference {
            None => reference = Some(est),
            Some(r) => assert_eq!(r, &est, "threads = {threads}"),
        }
    }
}
