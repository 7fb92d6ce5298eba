//! Shared harness code for the figure-regeneration binaries.
//!
//! The paper's evaluation (§5) consists of Figure 4 (op-amp) and Figure 5
//! (ADC), each plotting mean-vector and covariance estimation error versus
//! the number of late-stage samples for MLE and BMF, plus in-text
//! cost-reduction factors and CV-selected hyper-parameters. The binaries
//! `fig4_opamp`, `fig5_adc` and `ablations` regenerate all of them.

pub mod plot;
pub mod stages;

use bmf_circuits::fault::{FaultConfig, FaultInjector};
use bmf_circuits::monte_carlo::{two_stage_study_seeded, Testbench, TwoStageStudy};
use bmf_core::drift::{DriftConfig, DriftMonitor};
use bmf_core::experiment::{
    cost_reduction, prepare, run_error_sweep_parallel, ErrorKind, SweepConfig, SweepResult,
    TwoStageData,
};
use bmf_core::guard::{self, GuardPolicy};
use bmf_core::pipeline::RobustPipeline;
use bmf_linalg::Matrix;

/// Converts the circuit crate's study format into the estimator crate's
/// experiment input.
pub fn study_to_data(study: &TwoStageStudy) -> TwoStageData {
    TwoStageData {
        metric_names: study.metric_names.iter().map(|s| s.to_string()).collect(),
        early_nominal: study.early.nominal.clone(),
        early_samples: study.early.samples.clone(),
        late_nominal: study.late.nominal.clone(),
        late_samples: study.late.samples.clone(),
    }
}

/// Runs the complete protocol for one circuit: Monte Carlo both stages,
/// prepare (shift & scale), sweep errors, and return the result.
///
/// Both the Monte Carlo stage and the error sweep use per-task seed
/// derivation, so the result is bit-identical for every `threads` value;
/// parallelism is purely a wall-clock optimisation.
///
/// # Errors
///
/// Returns a boxed error on simulation or estimation failure.
pub fn run_circuit_experiment<T: Testbench + ?Sized>(
    tb: &T,
    n_early: usize,
    n_late: usize,
    mc_seed: u64,
    config: &SweepConfig,
    threads: usize,
) -> Result<SweepResult, Box<dyn std::error::Error>> {
    let study = two_stage_study_seeded(tb, n_early, n_late, mc_seed, threads)?;
    let data = study_to_data(&study);
    let prepared = prepare(&data)?;
    Ok(run_error_sweep_parallel(&prepared, config, threads)?)
}

/// The fault mix the figure binaries use for a given `--fault-rate r`:
/// simulation failures at `r` (retried away by the Monte Carlo runner) and
/// NaN/outlier corruption each at `r/5` (screened by the data-quality
/// guard). `--fault-rate 0.1` therefore reproduces the robustness
/// acceptance scenario: 10% failed sims + 2% NaN corruption.
pub fn fault_config_for_rate(rate: f64) -> FaultConfig {
    FaultConfig {
        sim_failure_rate: rate,
        nan_rate: rate / 5.0,
        outlier_rate: rate / 5.0,
        ..FaultConfig::default()
    }
}

/// Generates a two-stage study with faults injected at `fault_rate` and
/// screens both stage pools through the data-quality guard (outlier rows
/// dropped). Returns the cleaned experiment data plus a human-readable
/// summary of what the guard found in each stage.
///
/// Fault decisions ride the per-sample seed streams, so the corrupted
/// pools — and therefore the whole downstream experiment — stay
/// bit-identical for every thread count.
///
/// # Errors
///
/// Returns a boxed error on an invalid fault rate, simulation failure, or
/// when the guard declares a pool unusable.
pub fn faulted_study_data<T: Testbench>(
    tb: T,
    n_early: usize,
    n_late: usize,
    mc_seed: u64,
    threads: usize,
    fault_rate: f64,
) -> Result<(TwoStageData, String), Box<dyn std::error::Error>> {
    let injector = FaultInjector::new(tb, fault_config_for_rate(fault_rate))?;
    let study = two_stage_study_seeded(&injector, n_early, n_late, mc_seed, threads)?;
    let mut data = study_to_data(&study);
    let policy = GuardPolicy {
        drop_outliers: true,
        ..GuardPolicy::default()
    };
    let (early_clean, early_dq) = guard::screen(&data.early_samples, &policy)?;
    let (late_clean, late_dq) = guard::screen(&data.late_samples, &policy)?;
    data.early_samples = early_clean;
    data.late_samples = late_clean;
    let summary = format!(
        "guard[early]: {}\nguard[late]:  {}",
        early_dq.summary(),
        late_dq.summary()
    );
    Ok((data, summary))
}

/// [`run_circuit_experiment`] under fault injection: wraps `tb` in a
/// [`FaultInjector`] at `fault_rate` (see [`fault_config_for_rate`]),
/// screens both stages with the data-quality guard, then runs the sweep
/// on the surviving samples. Also returns the guard summary for display.
///
/// # Errors
///
/// As [`faulted_study_data`] plus estimation failures.
pub fn run_circuit_experiment_with_faults<T: Testbench>(
    tb: T,
    n_early: usize,
    n_late: usize,
    mc_seed: u64,
    config: &SweepConfig,
    threads: usize,
    fault_rate: f64,
) -> Result<(SweepResult, String), Box<dyn std::error::Error>> {
    let (data, summary) = faulted_study_data(tb, n_early, n_late, mc_seed, threads, fault_rate)?;
    let prepared = prepare(&data)?;
    let result = run_error_sweep_parallel(&prepared, config, threads)?;
    Ok((result, summary))
}

/// Computes the statistical snapshot the figure bins attach to their
/// HTML dashboard: a robust fusion at n = 32 over a small dedicated
/// study (yielding the [`bmf_obs::HealthReport`]) and a drift scan of
/// that study's full late pool against its early-stage model (yielding
/// the [`bmf_obs::DriftTimeline`]).
///
/// The snapshot study is generated from its own explicit `mc_seed`, so
/// running it never perturbs the main experiment's RNG streams — figure
/// results stay bit-identical whether or not a dashboard was requested.
///
/// # Errors
///
/// Returns a boxed error on simulation, estimation, or drift-monitor
/// failure, and when the pipeline degraded so far that no health report
/// was produced.
pub fn dashboard_snapshot<T: Testbench + ?Sized>(
    tb: &T,
    mc_seed: u64,
    threads: usize,
) -> Result<(bmf_obs::HealthReport, bmf_obs::DriftTimeline), Box<dyn std::error::Error>> {
    let study = two_stage_study_seeded(tb, 200, 200, mc_seed, threads)?;
    let prepared = prepare(&study_to_data(&study))?;
    // Fuse the first 32 late-pool rows — the paper's headline n — for a
    // representative health report without re-running the whole sweep.
    let n = 32.min(prepared.late_pool.nrows());
    let late = Matrix::from_fn(n, prepared.late_pool.ncols(), |i, j| {
        prepared.late_pool[(i, j)]
    });
    let (_, report) = RobustPipeline::new()
        .with_threads(threads)
        .estimate(&prepared.early_moments, &late)?;
    let health = report
        .health
        .ok_or("pipeline produced no health report for the snapshot study")?;
    let mut monitor = DriftMonitor::new(&prepared.early_moments, DriftConfig::default())?;
    monitor.push_batch(&prepared.late_pool)?;
    Ok((health, monitor.into_timeline()))
}

/// Formats the cost-reduction summary the paper reports in-text.
pub fn format_cost_reduction(result: &SweepResult) -> String {
    let mut out = String::from("cost reduction vs MLE (same accuracy):\n");
    out.push_str("    n | mean-vector | covariance\n");
    out.push_str("------+-------------+-----------\n");
    let mean_cr = cost_reduction(result, ErrorKind::Mean);
    let cov_cr = cost_reduction(result, ErrorKind::Covariance);
    for ((n, m), (_, c)) in mean_cr.iter().zip(cov_cr.iter()) {
        let fmt = |x: f64| {
            if x.is_infinite() {
                "> range".to_string()
            } else {
                format!("{x:7.2}x")
            }
        };
        out.push_str(&format!("{n:5} | {:>11} | {:>10}\n", fmt(*m), fmt(*c)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmf_circuits::adc::AdcTestbench;
    use bmf_core::cv::CrossValidation;

    #[test]
    fn study_conversion_preserves_shapes() {
        let tb = AdcTestbench::default_180nm();
        let study = two_stage_study_seeded(&tb, 10, 12, 2, 1).unwrap();
        let data = study_to_data(&study);
        assert_eq!(data.metric_names.len(), 5);
        assert_eq!(data.early_samples.shape(), (10, 5));
        assert_eq!(data.late_samples.shape(), (12, 5));
        assert!(data.validate().is_ok());
    }

    #[test]
    fn smoke_end_to_end_tiny() {
        let tb = AdcTestbench::default_180nm();
        let config = SweepConfig {
            sample_sizes: vec![8],
            repetitions: 2,
            cv: CrossValidation::new(vec![1.0, 100.0], vec![10.0, 100.0], 2).unwrap(),
            seed: 3,
        };
        let result = run_circuit_experiment(&tb, 60, 60, 4, &config, 2).unwrap();
        assert_eq!(result.rows.len(), 1);
        assert!(result.rows[0].bmf_cov_err.is_finite());
        let summary = format_cost_reduction(&result);
        assert!(summary.contains("cost reduction"));
    }

    #[test]
    fn faulted_experiment_matches_acceptance_scenario() {
        // --fault-rate 0.1 == 10% failed sims + 2% NaN + 2% outliers; the
        // guarded experiment must survive it and stay deterministic.
        let tb = AdcTestbench::default_180nm();
        let config = SweepConfig {
            sample_sizes: vec![8],
            repetitions: 2,
            cv: CrossValidation::new(vec![1.0, 100.0], vec![10.0, 100.0], 2).unwrap(),
            seed: 3,
        };
        let (r1, summary) =
            run_circuit_experiment_with_faults(tb.clone(), 60, 60, 4, &config, 1, 0.1).unwrap();
        assert!(r1.rows[0].bmf_cov_err.is_finite());
        assert!(summary.contains("guard[early]"), "{summary}");
        assert!(summary.contains("guard[late]"), "{summary}");
        let (r2, _) = run_circuit_experiment_with_faults(tb, 60, 60, 4, &config, 2, 0.1).unwrap();
        assert_eq!(
            r1.rows[0].bmf_cov_err.to_bits(),
            r2.rows[0].bmf_cov_err.to_bits(),
            "faulted experiment must be thread-count invariant"
        );
    }

    #[test]
    fn fault_config_rate_mapping() {
        let c = fault_config_for_rate(0.1);
        assert_eq!(c.sim_failure_rate, 0.1);
        assert!((c.nan_rate - 0.02).abs() < 1e-15);
        assert!((c.outlier_rate - 0.02).abs() < 1e-15);
        assert!(fault_config_for_rate(0.0).is_quiet());
    }

    #[test]
    fn circuit_experiment_is_thread_count_invariant() {
        let tb = AdcTestbench::default_180nm();
        let config = SweepConfig {
            sample_sizes: vec![8],
            repetitions: 2,
            cv: CrossValidation::new(vec![1.0, 100.0], vec![10.0, 100.0], 2).unwrap(),
            seed: 3,
        };
        let serial = run_circuit_experiment(&tb, 40, 40, 4, &config, 1).unwrap();
        let parallel = run_circuit_experiment(&tb, 40, 40, 4, &config, 4).unwrap();
        assert_eq!(serial.rows.len(), parallel.rows.len());
        for (s, p) in serial.rows.iter().zip(parallel.rows.iter()) {
            assert_eq!(s.bmf_cov_err.to_bits(), p.bmf_cov_err.to_bits());
            assert_eq!(s.bmf_mean_err.to_bits(), p.bmf_mean_err.to_bits());
            assert_eq!(s.mle_cov_err.to_bits(), p.mle_cov_err.to_bits());
        }
    }
}
