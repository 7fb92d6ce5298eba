//! Shared harness code for the figure-regeneration binaries.
//!
//! The paper's evaluation (§5) consists of Figure 4 (op-amp) and Figure 5
//! (ADC), each plotting mean-vector and covariance estimation error versus
//! the number of late-stage samples for MLE and BMF, plus in-text
//! cost-reduction factors and CV-selected hyper-parameters. The binaries
//! `fig4_opamp`, `fig5_adc` and `ablations` regenerate all of them.
//!
//! Each figure is one [`FigureSpec`] ([`FIG4`], [`FIG5`]): its circuit,
//! seed, study sizes and captions. [`run_figure`] runs a figure's study
//! and renders its stdout, and [`figure_main`] is the whole of both
//! figure bins, so the bins, the claims test (`tests/paper_claims.rs`)
//! and the seed-band test (`tests/seed_band.rs`) read one definition.

pub mod plot;
pub mod stages;

use bmf_circuits::adc::AdcTestbench;
use bmf_circuits::fault::{check_study_fault_rate, FaultConfig, FaultInjector};
use bmf_circuits::monte_carlo::{two_stage_study_seeded, Testbench, TwoStageStudy};
use bmf_circuits::opamp::OpAmpTestbench;
use bmf_core::drift::DriftMonitor;
use bmf_core::experiment::{
    cost_reduction, prepare, run_error_sweep_parallel, ErrorKind, SweepConfig, SweepResult,
    TwoStageData,
};
use bmf_core::guard;
use bmf_core::pipeline::RobustPipeline;
use bmf_linalg::Matrix;
use bmf_obs::cli::{self, Args, Grammar, ObsOptions, UsageError};
use std::error::Error;
use std::process::ExitCode;

/// The size of one figure study: dies per stage, repetitions per
/// sample size, and the sample sizes swept.
#[derive(Debug, Clone, Copy)]
pub struct StudySize {
    /// Monte Carlo dies per stage.
    pub pool: usize,
    /// Repetitions per late-stage sample size.
    pub repetitions: usize,
    /// The late-stage sample sizes swept: the figure's x-axis.
    pub sample_sizes: &'static [usize],
}

/// One of the paper's figures: everything that differs between
/// `fig4_opamp` and `fig5_adc`.
#[derive(Debug, Clone, Copy)]
pub struct FigureSpec {
    /// Binary name: the log prefix and the run-id configuration.
    pub name: &'static str,
    /// Builds the circuit's testbench.
    pub testbench: fn() -> Box<dyn Testbench>,
    /// Monte Carlo seed of the study and of the dashboard snapshot.
    pub mc_seed: u64,
    /// The paper's study.
    pub full: StudySize,
    /// The `--quick` smoke study.
    pub quick: StudySize,
    /// First stdout line.
    pub banner: &'static str,
    /// Second stdout line: the metric names.
    pub metrics: &'static str,
    /// The paper's hyper-parameters, printed under the CV line.
    pub paper_note: &'static str,
    /// The circuit in the SVG panel titles.
    pub plot_title: &'static str,
}

/// Figure 4: the two-stage op-amp (45 nm), 5000 dies per stage and
/// 100 repetitions over n ∈ {8..512}, as in the paper.
pub const FIG4: FigureSpec = FigureSpec {
    name: "fig4_opamp",
    testbench: || Box::new(OpAmpTestbench::default_45nm()),
    mc_seed: 45,
    full: StudySize::new(5000, 100, &[8, 16, 32, 64, 128, 256, 512]),
    quick: StudySize::new(800, 15, &[8, 16, 32, 64, 128, 256]),
    banner: "=== Figure 4: two-stage op-amp (45 nm), MLE vs BMF ===",
    metrics: "metrics: gain_db, bandwidth_hz, power_w, offset_v, phase_margin_deg",
    paper_note: "(paper: kappa0 = 4.67, nu0 = 557.3 — mean prior weak, covariance prior strong)",
    plot_title: "two-stage op-amp (45 nm)",
};

/// Figure 5: the flash ADC (0.18 µm), 1000 dies per stage and 100
/// repetitions, as in the paper; a 1000-die pool stops the sweep at 256.
pub const FIG5: FigureSpec = FigureSpec {
    name: "fig5_adc",
    testbench: || Box::new(AdcTestbench::default_180nm()),
    mc_seed: 180,
    full: StudySize::new(1000, 100, &[8, 16, 32, 64, 128, 256]),
    quick: StudySize::new(400, 15, &[8, 16, 32, 64, 128, 256]),
    banner: "=== Figure 5: flash ADC (0.18 um), MLE vs BMF ===",
    metrics: "metrics: snr_db, sinad_db, sfdr_db, thd_db, power_w",
    paper_note: "(paper: kappa0 = 521.9, nu0 = 558.8 — both priors strong)",
    plot_title: "flash ADC (0.18 um)",
};

impl StudySize {
    const fn new(pool: usize, repetitions: usize, sample_sizes: &'static [usize]) -> Self {
        StudySize {
            pool,
            repetitions,
            sample_sizes,
        }
    }
}

impl FigureSpec {
    /// The full or the `--quick` study size.
    fn size(&self, quick: bool) -> &StudySize {
        if quick {
            &self.quick
        } else {
            &self.full
        }
    }

    /// Runs the full or `--quick` study at Monte Carlo seed `mc_seed`
    /// (the figure's own, or another for a seed-noise check): the
    /// paper's CV grid and subsampling seed at this figure's sizes.
    ///
    /// # Errors
    ///
    /// As [`run_circuit_experiment`].
    pub fn sweep(
        &self,
        quick: bool,
        mc_seed: u64,
        threads: usize,
        fault_rate: f64,
    ) -> Result<SweepResult, Box<dyn Error>> {
        let size = self.size(quick);
        let config = SweepConfig {
            sample_sizes: size.sample_sizes.to_vec(),
            repetitions: size.repetitions,
            ..SweepConfig::paper_default()
        };
        let tb = (self.testbench)();
        run_circuit_experiment(tb, size.pool, mc_seed, &config, threads, fault_rate)
    }
}

/// A figure's sweep and its rendered stdout. The `--svg` panels are
/// [`plot::figure_svgs`] of the sweep, drawn only where asked for.
#[derive(Debug, Clone)]
pub struct Figure {
    /// The sweep behind the figure.
    pub result: SweepResult,
    /// The figure's stdout, one entry per printed block; each block is
    /// printed with a trailing newline and, with `--events-out`,
    /// recorded as one `log` event.
    pub stdout: Vec<String>,
}

/// Runs the study of `spec` at its own seed (faults injected at
/// `fault_rate`, see [`study_data`]) and renders the figure.
///
/// # Errors
///
/// As [`run_circuit_experiment`].
pub fn run_figure(
    spec: &FigureSpec,
    quick: bool,
    threads: usize,
    fault_rate: f64,
) -> Result<Figure, Box<dyn Error>> {
    let size = spec.size(quick);
    bmf_obs::info!(
        "{}: {} MC samples/stage, {} repetitions, n = {:?}, {threads} thread(s), fault rate {fault_rate}",
        spec.name,
        size.pool,
        size.repetitions,
        size.sample_sizes
    );
    let result = spec.sweep(quick, spec.mc_seed, threads, fault_rate)?;
    let mut stdout = vec![
        spec.banner.to_string(),
        spec.metrics.to_string(),
        "errors per Eq. 37 (mean, 2-norm) / Eq. 38 (cov, Frobenius), shifted+scaled space"
            .to_string(),
        String::new(),
        result.to_table(),
        format_cost_reduction(&result),
    ];
    if let Some(r32) = result.rows.iter().find(|r| r.n == 32) {
        stdout.push(format!(
            "CV-selected hyper-parameters at n = 32: kappa0 = {:.2}, nu0 = {:.1}",
            r32.mean_kappa0, r32.mean_nu0
        ));
        stdout.push(spec.paper_note.to_string());
    }
    Ok(Figure { result, stdout })
}

/// The whole of `fig4_opamp` and `fig5_adc`: reads the flags, runs and
/// prints the figure, writes the `--svg <prefix>` pair as
/// `<prefix>_mean.svg` and `<prefix>_cov.svg`, publishes the dashboard
/// snapshot and writes the observability artifacts. A panel that cannot
/// be written fails the run (exit 1) once the rest is done.
pub fn figure_main(spec: &FigureSpec) -> ExitCode {
    let grammar = Grammar::new("--svg --threads --fault-rate", "--quick", "");
    let flags = StudyFlags::from_env(&grammar);
    let (quick, fault_rate) = (flags.args.switch("--quick"), flags.fault_rate);
    let config = format!("{} quick={quick} fault_rate={fault_rate}", spec.name);
    flags.obs.set_run(spec.mc_seed, &config);
    let t0 = std::time::Instant::now();
    let figure = match run_figure(spec, quick, flags.threads, fault_rate) {
        Ok(figure) => figure,
        Err(e) => {
            bmf_obs::error!("experiment failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for block in &figure.stdout {
        bmf_obs::outln!("{block}");
    }
    let mut svg_written = true;
    if let Some(prefix) = flags.args.value("--svg") {
        let (mean, cov) = plot::figure_svgs(spec.plot_title, &figure.result);
        for (suffix, doc) in [("mean", mean), ("cov", cov)] {
            let path = format!("{prefix}_{suffix}.svg");
            match bmf_obs::atomic_write(&path, doc) {
                Ok(()) => bmf_obs::info!("wrote {path}"),
                Err(e) => {
                    bmf_obs::error!("failed to write {path}: {e}");
                    svg_written = false;
                }
            }
        }
    }
    bmf_obs::info!("elapsed: {:.1?}", t0.elapsed());
    publish_dashboard_snapshot(&flags, (spec.testbench)(), spec.mc_seed);
    let flushed = finish(&flags.obs);
    if svg_written {
        flushed
    } else {
        ExitCode::FAILURE
    }
}

/// The flags the figure bins and `ablations` share, read and checked.
#[derive(Debug)]
pub struct StudyFlags {
    /// The whole parse, for the binary's own flags.
    pub args: Args,
    /// The observability flags, already started.
    pub obs: ObsOptions,
    /// `--threads`, resolved to the machine's parallelism when absent.
    pub threads: usize,
    /// `--fault-rate`: finite and in `[0, 1)`, 0 when absent.
    pub fault_rate: f64,
}

impl StudyFlags {
    /// Parses this process's command line against `grammar`, checks
    /// `--threads` and `--fault-rate`, and starts the observability
    /// flags. A usage error exits with code 2 before any work.
    pub fn from_env(grammar: &Grammar) -> StudyFlags {
        let parse = || -> Result<StudyFlags, UsageError> {
            let args = cli::parse(std::env::args(), grammar, &[])?;
            let obs = ObsOptions::from_args(&args)?;
            let threads = bmf_core::parallel::resolve_threads(args.positive("--threads")?);
            let fault_rate = args.get_or("--fault-rate", 0.0)?;
            check_study_fault_rate("--fault-rate", fault_rate)
                .map_err(|e| UsageError::new("--fault-rate", e.to_string()))?;
            obs.start(threads)?;
            Ok(StudyFlags {
                args,
                obs,
                threads,
                fault_rate,
            })
        };
        parse().unwrap_or_else(|e| e.exit("error"))
    }
}

/// Writes the observability artifacts at the end of a bin's `main`.
pub fn finish(obs: &ObsOptions) -> ExitCode {
    match obs.finish() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            bmf_obs::error!("failed to write observability output: {e}");
            ExitCode::FAILURE
        }
    }
}

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
    }
}

/// Simulates both stages of a study of `tb`, `pool` dies each from
/// `mc_seed`. With `fault_rate > 0` the dies run through a
/// [`FaultInjector`] (see [`fault_config_for_rate`]) and both pools are
/// screened by the data-quality guard, outlier rows dropped; the guard's
/// summary of each stage (`guard[early]`, `guard[late]`) comes back for
/// the caller to log. A fault-free study has no summary.
///
/// Every seed stream (faults included) is per die, so the data are
/// bit-identical for every `threads` value.
///
/// # Errors
///
/// Returns a boxed error on an invalid fault rate, simulation failure, or
/// when the guard declares a pool unusable.
pub fn study_data<T: Testbench>(
    tb: T,
    pool: usize,
    mc_seed: u64,
    threads: usize,
    fault_rate: f64,
) -> Result<(TwoStageData, Option<String>), Box<dyn Error>> {
    if fault_rate == 0.0 {
        let study = two_stage_study_seeded(&tb, pool, pool, mc_seed, threads)?;
        return Ok((study_to_data(&study), None));
    }
    let injector = FaultInjector::new(tb, fault_config_for_rate(fault_rate))?;
    let study = two_stage_study_seeded(&injector, pool, pool, mc_seed, threads)?;
    let mut data = study_to_data(&study);
    let (early_clean, early_dq) = guard::screen(&data.early_samples, true)?;
    let (late_clean, late_dq) = guard::screen(&data.late_samples, true)?;
    data.early_samples = early_clean;
    data.late_samples = late_clean;
    let summary = format!(
        "guard[early]: {}\nguard[late]:  {}",
        early_dq.summary(),
        late_dq.summary()
    );
    Ok((data, Some(summary)))
}

/// Runs the complete protocol for one circuit: [`study_data`] (its
/// guard summary logged), §4.1 (`prepare`) and the error sweep.
///
/// # Errors
///
/// As [`study_data`], plus estimation failures.
pub fn run_circuit_experiment<T: Testbench>(
    tb: T,
    pool: usize,
    mc_seed: u64,
    config: &SweepConfig,
    threads: usize,
    fault_rate: f64,
) -> Result<SweepResult, Box<dyn Error>> {
    let (data, guard_summary) = study_data(tb, pool, mc_seed, threads, fault_rate)?;
    if let Some(summary) = guard_summary {
        bmf_obs::info!("{summary}");
    }
    let prepared = prepare(&data)?;
    Ok(run_error_sweep_parallel(&prepared, config, threads)?)
}

/// With `--dashboard-out`, runs the statistical snapshot the figure bins
/// and `ablations` show on their dashboard: a robust fusion at n = 32 of
/// a small study with its own `mc_seed` (so the results keep their
/// bits), which publishes its health report, and a drift scan of that
/// study's late pool, whose final timeline is published as `bmf estimate`
/// publishes its own. A failure is logged.
pub fn publish_dashboard_snapshot<T: Testbench>(flags: &StudyFlags, tb: T, mc_seed: u64) {
    if flags.obs.dashboard_out.is_none() {
        return;
    }
    let snapshot = || -> Result<(), Box<dyn Error>> {
        let (data, _) = study_data(tb, 200, mc_seed, flags.threads, 0.0)?;
        let prepared = prepare(&data)?;
        let pool = &prepared.late_pool;
        let late = Matrix::from_fn(32.min(pool.nrows()), pool.ncols(), |i, j| pool[(i, j)]);
        RobustPipeline::new()
            .with_threads(flags.threads)
            .estimate(&prepared.early_moments, &late)?;
        let mut monitor = DriftMonitor::new(&prepared.early_moments)?;
        monitor.push_batch(pool)?;
        bmf_obs::serve::publish_drift(&monitor.into_timeline());
        Ok(())
    };
    if let Err(e) = snapshot() {
        bmf_obs::warn!("dashboard snapshot failed: {e}");
    }
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
    fn circuit_experiment_is_thread_count_invariant_with_and_without_faults() {
        // --fault-rate 0.1 == 10% failed sims + 2% NaN + 2% outliers; the
        // guarded experiment must survive it, report what the guard found
        // in both stages and stay deterministic.
        let config = SweepConfig {
            sample_sizes: vec![8],
            repetitions: 2,
            seed: 3,
        };
        for fault_rate in [0.0, 0.1] {
            let tb = AdcTestbench::default_180nm();
            let (_, summary) = study_data(tb, 60, 4, 2, fault_rate).unwrap();
            assert_eq!(summary.is_some(), fault_rate > 0.0);
            if let Some(summary) = summary {
                assert!(summary.contains("guard[early]"), "{summary}");
                assert!(summary.contains("guard[late]"), "{summary}");
            }
            let run = |threads| {
                let tb = AdcTestbench::default_180nm();
                run_circuit_experiment(tb, 60, 4, &config, threads, fault_rate).unwrap()
            };
            let (serial, parallel) = (run(1), run(4));
            assert_eq!(serial.rows.len(), 1);
            assert!(serial.rows[0].bmf_cov_err.is_finite());
            for (s, p) in serial.rows.iter().zip(parallel.rows.iter()) {
                assert_eq!(s.bmf_cov_err.to_bits(), p.bmf_cov_err.to_bits());
                assert_eq!(s.bmf_mean_err.to_bits(), p.bmf_mean_err.to_bits());
                assert_eq!(s.mle_cov_err.to_bits(), p.mle_cov_err.to_bits());
            }
            assert!(format_cost_reduction(&serial).contains("cost reduction"));
        }
    }

    #[test]
    fn fault_config_rate_mapping() {
        let c = fault_config_for_rate(0.1);
        assert_eq!(c.sim_failure_rate, 0.1);
        assert!((c.nan_rate - 0.02).abs() < 1e-15);
        assert!((c.outlier_rate - 0.02).abs() < 1e-15);
        assert!(fault_config_for_rate(0.0).is_quiet());
    }
}
