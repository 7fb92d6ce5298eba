//! Figure-regeneration harness: the paper's evaluation protocol (§5).
//!
//! For each circuit the paper plots estimation error versus the number of
//! late-stage samples `n`, comparing MLE against BMF (Fig. 4 for the
//! op-amp, Fig. 5 for the ADC). This module implements that protocol
//! end-to-end on a [`TwoStageData`] bundle:
//!
//! 1. normalise both stages with the shift-and-scale transform (§4.1),
//! 2. compute the early-stage prior moments and the "exact" late-stage
//!    moments from the full Monte Carlo pools,
//! 3. for every `n` in the sweep and every repetition: draw `n` late
//!    samples, run MLE and BMF (with two-dimensional CV), record the
//!    errors of Eq. 37–38,
//! 4. average over repetitions and derive the **cost-reduction factor**
//!    (how many MLE samples match BMF's accuracy — the paper's headline
//!    16×/3×/10× numbers).

use crate::cv::CrossValidation;
use crate::error_metrics::{error_cov, error_mean};
use crate::map::BmfEstimator;
use crate::mle::MleEstimator;
use crate::parallel;
use crate::prior::NormalWishartPrior;
use crate::transform::ShiftScale;
use crate::{BmfError, MomentEstimate, Result};
use bmf_linalg::{Matrix, Vector};
use bmf_stats::descriptive;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Raw two-stage Monte Carlo data for one circuit: the input of every
/// experiment. Produced by `bmf-circuits`' Monte Carlo engine (or any other
/// simulator/measurement source).
#[derive(Debug, Clone)]
pub struct TwoStageData {
    /// Metric names (length `d`).
    pub metric_names: Vec<String>,
    /// Early-stage nominal performance `P_E,NOM`.
    pub early_nominal: Vector,
    /// Early-stage sample pool (`N_E × d`).
    pub early_samples: Matrix,
    /// Late-stage nominal performance `P_L,NOM`.
    pub late_nominal: Vector,
    /// Late-stage sample pool (`N_L × d`) — subsampled in the sweep, with
    /// the full pool providing the "exact" reference moments.
    pub late_samples: Matrix,
}

impl TwoStageData {
    /// Validates shape consistency.
    ///
    /// # Errors
    ///
    /// Returns [`BmfError::InvalidSamples`] on any inconsistency.
    pub fn validate(&self) -> Result<()> {
        let d = self.metric_names.len();
        if d == 0 {
            return Err(BmfError::InvalidSamples {
                reason: "need at least one metric".to_string(),
            });
        }
        for (what, len) in [
            ("early_nominal", self.early_nominal.len()),
            ("late_nominal", self.late_nominal.len()),
            ("early_samples columns", self.early_samples.ncols()),
            ("late_samples columns", self.late_samples.ncols()),
        ] {
            if len != d {
                return Err(BmfError::InvalidSamples {
                    reason: format!("{what} has dimension {len}, expected {d}"),
                });
            }
        }
        if self.early_samples.nrows() < 2 || self.late_samples.nrows() < 2 {
            return Err(BmfError::InvalidSamples {
                reason: "both stages need at least 2 samples".to_string(),
            });
        }
        if !self.early_samples.is_finite() || !self.late_samples.is_finite() {
            return Err(BmfError::InvalidSamples {
                reason: "sample pools contain non-finite values".to_string(),
            });
        }
        Ok(())
    }

    /// Dimension `d`.
    pub fn dim(&self) -> usize {
        self.metric_names.len()
    }
}

/// Normalised study: everything the estimators need, in scaled space.
#[derive(Debug, Clone)]
pub struct PreparedStudy {
    /// Early-stage moments in normalised space — the BMF prior knowledge.
    pub early_moments: MomentEstimate,
    /// "Exact" late-stage moments (from the full pool) in normalised space.
    pub exact_late: MomentEstimate,
    /// Normalised late-stage pool for subsampling.
    pub late_pool: Matrix,
    /// The early-stage transform (shift = `P_E,NOM`, scale = early σ).
    pub early_transform: ShiftScale,
    /// The late-stage transform (shift = `P_L,NOM`, scale = early σ).
    pub late_transform: ShiftScale,
}

/// Applies §4.1 to raw two-stage data: shift each stage by its nominal,
/// scale both by the early-stage per-dimension standard deviation, then
/// compute prior and reference moments from the full pools.
///
/// # Errors
///
/// Propagates validation and descriptive-statistics failures.
pub fn prepare(data: &TwoStageData) -> Result<PreparedStudy> {
    data.validate()?;
    let early_sd = descriptive::column_stddevs(&data.early_samples)?;
    for (j, &s) in early_sd.iter().enumerate() {
        if !(s > 0.0) {
            // A constant metric is a study-configuration problem (the
            // metric does not vary, so it cannot be fused), not a bad
            // sample — surface it as InvalidConfig naming the metric
            // rather than letting ShiftScale emit a bare scale error.
            return Err(BmfError::InvalidConfig {
                reason: format!(
                    "metric '{}' (column {j}) has zero early-stage spread; \
                     §4.1 scaling is undefined — drop the metric or fix the testbench",
                    data.metric_names[j]
                ),
            });
        }
    }
    let early_transform = ShiftScale::from_nominal_and_early_sd(&data.early_nominal, &early_sd)?;
    let late_transform = ShiftScale::from_nominal_and_early_sd(&data.late_nominal, &early_sd)?;

    let early_norm = early_transform.apply_samples(&data.early_samples)?;
    let late_norm = late_transform.apply_samples(&data.late_samples)?;

    let early_moments = MomentEstimate {
        mean: descriptive::mean_vector(&early_norm)?,
        cov: descriptive::covariance_mle(&early_norm)?,
    };
    let exact_late = MomentEstimate {
        mean: descriptive::mean_vector(&late_norm)?,
        cov: descriptive::covariance_mle(&late_norm)?,
    };
    early_moments.validate()?;
    exact_late.validate()?;

    Ok(PreparedStudy {
        early_moments,
        exact_late,
        late_pool: late_norm,
        early_transform,
        late_transform,
    })
}

/// Configuration of one error-vs-n sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepConfig {
    /// Late-stage sample counts to evaluate (the figure's x-axis).
    pub sample_sizes: Vec<usize>,
    /// Repetitions per sample count (the paper uses 100).
    pub repetitions: usize,
    /// RNG seed for reproducible subsampling.
    pub seed: u64,
}

impl SweepConfig {
    /// The paper's op-amp/ADC protocol: `n ∈ {8, 16, …, 512}`, 100
    /// repetitions.
    pub fn paper_default() -> Self {
        SweepConfig {
            sample_sizes: vec![8, 16, 32, 64, 128, 256, 512],
            repetitions: 100,
            seed: 2015,
        }
    }

    /// Validates the configuration against a pool size.
    ///
    /// # Errors
    ///
    /// Returns [`BmfError::InvalidConfig`] for empty axes, zero
    /// repetitions, or sample sizes exceeding the pool.
    pub fn validate(&self, pool_size: usize) -> Result<()> {
        if self.sample_sizes.is_empty() {
            return Err(BmfError::InvalidConfig {
                reason: "sweep needs at least one sample size".to_string(),
            });
        }
        if self.repetitions == 0 {
            return Err(BmfError::InvalidConfig {
                reason: "sweep needs at least one repetition".to_string(),
            });
        }
        for &n in &self.sample_sizes {
            if n < 2 {
                return Err(BmfError::InvalidConfig {
                    reason: format!("sample size {n} too small (need >= 2)"),
                });
            }
            if n > pool_size {
                return Err(BmfError::InvalidConfig {
                    reason: format!("sample size {n} exceeds the late-stage pool ({pool_size})"),
                });
            }
        }
        Ok(())
    }
}

/// Aggregated errors for one sample count `n` — one point of each curve in
/// the paper's Figures 4/5.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepRow {
    /// Number of late-stage samples.
    pub n: usize,
    /// Mean (over repetitions) of Eq. 37 for the MLE estimator.
    pub mle_mean_err: f64,
    /// Mean of Eq. 37 for BMF.
    pub bmf_mean_err: f64,
    /// Mean of Eq. 38 for the MLE estimator.
    pub mle_cov_err: f64,
    /// Mean of Eq. 38 for BMF.
    pub bmf_cov_err: f64,
    /// Average CV-selected `κ₀` (paper reports these, e.g. 4.67@n=32).
    pub mean_kappa0: f64,
    /// Average CV-selected `ν₀` (e.g. 557.3@n=32).
    pub mean_nu0: f64,
}

/// Full sweep result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepResult {
    /// One row per sample count, ascending in `n`.
    pub rows: Vec<SweepRow>,
}

impl SweepResult {
    /// Renders the result as an aligned text table (the harness binaries
    /// print this).
    pub fn to_table(&self) -> String {
        let mut out = String::from(
            "    n |  mean_err MLE |  mean_err BMF |   cov_err MLE |   cov_err BMF |   kappa0 |      nu0\n",
        );
        out.push_str(
            "------+---------------+---------------+---------------+---------------+----------+---------\n",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{:5} | {:13.5} | {:13.5} | {:13.5} | {:13.5} | {:8.2} | {:8.1}\n",
                r.n,
                r.mle_mean_err,
                r.bmf_mean_err,
                r.mle_cov_err,
                r.bmf_cov_err,
                r.mean_kappa0,
                r.mean_nu0
            ));
        }
        out
    }
}

/// Draws `n` distinct rows from `pool` uniformly at random.
fn subsample<R: Rng + ?Sized>(pool: &Matrix, n: usize, rng: &mut R) -> Matrix {
    let total = pool.nrows();
    let mut idx: Vec<usize> = (0..total).collect();
    idx.shuffle(rng);
    idx.truncate(n);
    Matrix::from_fn(n, pool.ncols(), |i, j| pool[(idx[i], j)])
}

/// One repetition's contribution to a [`SweepRow`].
#[derive(Debug, Clone, Copy, Default)]
struct RepetitionOutcome {
    mle_mean_err: f64,
    bmf_mean_err: f64,
    mle_cov_err: f64,
    bmf_cov_err: f64,
    kappa0: f64,
    nu0: f64,
}

/// Deterministic seed for repetition `rep` of sample size `n`, so parallel
/// and sequential execution see identical random streams. The sample size
/// acts as the stream, the repetition as the task index; the mixing is
/// [`parallel::derive_seed`]'s.
fn repetition_seed(base: u64, n: usize, rep: usize) -> u64 {
    parallel::derive_seed(base, n as u64, rep as u64)
}

/// Runs one repetition (subsample → MLE + CV + BMF → errors) with its own
/// deterministic RNG.
fn run_repetition(
    study: &PreparedStudy,
    config: &SweepConfig,
    n: usize,
    rep: usize,
) -> Result<RepetitionOutcome> {
    let _span = bmf_obs::span("sweep.repetition");
    let mut rng = rand::rngs::StdRng::seed_from_u64(repetition_seed(config.seed, n, rep));
    let samples = subsample(&study.late_pool, n, &mut rng);

    let mle_est = MleEstimator::new().estimate(&samples)?;
    let selection = CrossValidation.select(&study.early_moments, &samples, &mut rng)?;
    let prior = NormalWishartPrior::from_early_moments(
        &study.early_moments,
        selection.kappa0,
        selection.nu0,
    )?;
    let bmf_est = BmfEstimator::new(prior)?.estimate(&samples)?;

    Ok(RepetitionOutcome {
        mle_mean_err: error_mean(&mle_est, &study.exact_late)?,
        bmf_mean_err: error_mean(&bmf_est.map, &study.exact_late)?,
        mle_cov_err: error_cov(&mle_est, &study.exact_late)?,
        bmf_cov_err: error_cov(&bmf_est.map, &study.exact_late)?,
        kappa0: selection.kappa0,
        nu0: selection.nu0,
    })
}

fn aggregate(n: usize, outcomes: &[RepetitionOutcome]) -> SweepRow {
    let r = outcomes.len() as f64;
    SweepRow {
        n,
        mle_mean_err: outcomes.iter().map(|o| o.mle_mean_err).sum::<f64>() / r,
        bmf_mean_err: outcomes.iter().map(|o| o.bmf_mean_err).sum::<f64>() / r,
        mle_cov_err: outcomes.iter().map(|o| o.mle_cov_err).sum::<f64>() / r,
        bmf_cov_err: outcomes.iter().map(|o| o.bmf_cov_err).sum::<f64>() / r,
        mean_kappa0: outcomes.iter().map(|o| o.kappa0).sum::<f64>() / r,
        mean_nu0: outcomes.iter().map(|o| o.nu0).sum::<f64>() / r,
    }
}

/// Runs the paper's error-vs-n sweep on a prepared study, its repetitions
/// distributed over `threads` scoped workers via [`parallel::map_range`].
///
/// Each repetition draws its RNG from a deterministic per-`(n, rep)` seed,
/// so the result is reproducible and **bit-identical** for every thread
/// count, including 1; `threads` may exceed the repetition count (the
/// surplus workers are simply not spawned).
///
/// # Errors
///
/// * [`BmfError::InvalidConfig`] when `threads == 0`.
/// * [`BmfError::Worker`] when a repetition panics — the panic is
///   contained instead of aborting the caller.
/// * Propagates the first repetition failure encountered.
pub fn run_error_sweep_parallel(
    study: &PreparedStudy,
    config: &SweepConfig,
    threads: usize,
) -> Result<SweepResult> {
    if threads == 0 {
        return Err(BmfError::InvalidConfig {
            reason: "need at least one worker thread".to_string(),
        });
    }
    config.validate(study.late_pool.nrows())?;
    let mut rows = Vec::with_capacity(config.sample_sizes.len());
    for &n in &config.sample_sizes {
        let _span = bmf_obs::span("sweep.sample_size");
        let outcomes = parallel::map_range(config.repetitions, threads, |rep| {
            run_repetition(study, config, n, rep)
        })?;
        let outcomes: Result<Vec<RepetitionOutcome>> = outcomes.into_iter().collect();
        rows.push(aggregate(n, &outcomes?));
    }
    Ok(SweepResult { rows })
}

/// Which error curve a cost-reduction query refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ErrorKind {
    /// Mean-vector error (Eq. 37).
    Mean,
    /// Covariance error (Eq. 38).
    Covariance,
}

/// Cost-reduction factors: for each BMF point `(n, err)`, the number of
/// samples MLE needs (log-log interpolated on the measured MLE curve) to
/// reach the same error, divided by `n`. This is the paper's headline
/// metric (16× for the op-amp covariance, ~3× for its mean, >10× for the
/// ADC).
///
/// Returns one `(n, factor)` pair per sweep row; `factor` is
/// `f64::INFINITY` when even the largest measured MLE run is worse than
/// BMF at `n` (the true factor exceeds the measured range).
pub fn cost_reduction(result: &SweepResult, kind: ErrorKind) -> Vec<(usize, f64)> {
    let pick = |r: &SweepRow| -> (f64, f64) {
        match kind {
            ErrorKind::Mean => (r.mle_mean_err, r.bmf_mean_err),
            ErrorKind::Covariance => (r.mle_cov_err, r.bmf_cov_err),
        }
    };
    // MLE error is monotone decreasing in n (up to noise); build the curve.
    let mle_curve: Vec<(f64, f64)> = result
        .rows
        .iter()
        .map(|r| (r.n as f64, pick(r).0))
        .collect();

    result
        .rows
        .iter()
        .map(|r| {
            let (_, bmf_err) = pick(r);
            let n_equiv = mle_samples_for_error(&mle_curve, bmf_err);
            let factor = match n_equiv {
                Some(ne) => ne / r.n as f64,
                None => f64::INFINITY,
            };
            (r.n, factor)
        })
        .collect()
}

/// Log-log interpolation: the MLE sample count whose error equals `target`.
/// Returns `None` when `target` is below the last measured MLE error.
fn mle_samples_for_error(curve: &[(f64, f64)], target: f64) -> Option<f64> {
    // Find the first segment where the (noisy but mostly decreasing) MLE
    // curve crosses the target.
    if curve.is_empty() {
        return None;
    }
    if target >= curve[0].1 {
        // BMF is no better than MLE at the smallest n.
        return Some(curve[0].0);
    }
    for w in curve.windows(2) {
        let (n0, e0) = w[0];
        let (n1, e1) = w[1];
        if (e0 >= target && target >= e1) || (e1 >= target && target >= e0) {
            // Log-log linear interpolation.
            let t = (target.ln() - e0.ln()) / (e1.ln() - e0.ln());
            return Some((n0.ln() + t * (n1.ln() - n0.ln())).exp());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmf_stats::MultivariateNormal;

    /// Builds a synthetic two-stage dataset with controllable prior
    /// quality: the late stage shares the early stage's covariance shape
    /// (scaled), with an optional unexplained mean discrepancy.
    fn synthetic_data(mean_offset: f64, n_pool: usize, seed: u64) -> TwoStageData {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let early_nominal = Vector::from_slice(&[10.0, -5.0]);
        let late_nominal = Vector::from_slice(&[12.0, -4.0]);
        let cov = Matrix::from_rows(&[&[1.0, 0.4], &[0.4, 0.8]]).unwrap();
        let early_dist = MultivariateNormal::new(early_nominal.clone(), cov.clone()).unwrap();
        // Late stage: same covariance, mean shifted beyond its nominal by
        // `mean_offset` (the part nominal shifting cannot explain).
        let late_mean = Vector::from_slice(&[12.0 + mean_offset, -4.0 + mean_offset]);
        let late_dist = MultivariateNormal::new(late_mean, cov).unwrap();
        TwoStageData {
            metric_names: vec!["m0".into(), "m1".into()],
            early_samples: early_dist.sample_matrix(&mut rng, n_pool),
            early_nominal,
            late_samples: late_dist.sample_matrix(&mut rng, n_pool),
            late_nominal,
        }
    }

    #[test]
    fn validate_catches_inconsistencies() {
        let mut d = synthetic_data(0.0, 50, 1);
        assert!(d.validate().is_ok());
        d.metric_names.push("extra".into());
        assert!(d.validate().is_err());

        let mut d = synthetic_data(0.0, 50, 1);
        d.late_nominal = Vector::zeros(3);
        assert!(d.validate().is_err());

        let mut d = synthetic_data(0.0, 50, 1);
        d.early_samples = Matrix::zeros(1, 2);
        assert!(d.validate().is_err());

        let mut d = synthetic_data(0.0, 50, 1);
        d.late_samples[(0, 0)] = f64::NAN;
        assert!(d.validate().is_err());
    }

    #[test]
    fn prepare_normalises_early_stage() {
        let data = synthetic_data(0.0, 2000, 2);
        let study = prepare(&data).unwrap();
        // Early stage: near-zero mean (nominal = true mean), near-unit σ.
        assert!(study.early_moments.mean.norm_inf() < 0.1);
        assert!((study.early_moments.cov[(0, 0)] - 1.0).abs() < 0.1);
        assert!((study.early_moments.cov[(1, 1)] - 1.0).abs() < 0.1);
        // Correlation is preserved: 0.4/sqrt(0.8) ≈ 0.447.
        let corr = study.early_moments.cov[(0, 1)]
            / (study.early_moments.cov[(0, 0)] * study.early_moments.cov[(1, 1)]).sqrt();
        assert!((corr - 0.447).abs() < 0.08, "corr = {corr}");
        assert_eq!(study.late_pool.nrows(), 2000);
    }

    #[test]
    fn prepare_rejects_zero_spread() {
        let mut data = synthetic_data(0.0, 50, 3);
        // Make metric 0 constant in the early stage.
        for i in 0..data.early_samples.nrows() {
            data.early_samples[(i, 0)] = 1.0;
        }
        let err = prepare(&data).unwrap_err();
        // The driver must classify this as a configuration problem and
        // name the offending metric — not surface a bare scale error.
        assert!(
            matches!(err, BmfError::InvalidConfig { .. }),
            "expected InvalidConfig, got {err:?}"
        );
        let msg = err.to_string();
        assert!(msg.contains("'m0'"), "missing metric name: {msg}");
        assert!(msg.contains("zero early-stage spread"), "{msg}");
    }

    #[test]
    fn constant_metric_surfaces_through_full_pipeline() {
        // Satellite: drive the complete experiment path (prepare → sweep)
        // with a constant early-stage metric and check the typed error
        // naming the metric is what callers actually see.
        let mut data = synthetic_data(0.0, 200, 14);
        data.metric_names[1] = "stuck_gain_db".into();
        for i in 0..data.early_samples.nrows() {
            data.early_samples[(i, 1)] = 42.0;
        }
        let err = match prepare(&data) {
            Err(e) => e,
            Ok(study) => {
                // Should be unreachable; if prepare ever stops catching
                // it, the sweep must still fail loudly rather than fuse a
                // degenerate metric.
                run_error_sweep_parallel(
                    &study,
                    &SweepConfig {
                        sample_sizes: vec![8],
                        repetitions: 2,
                        seed: 1,
                    },
                    1,
                )
                .unwrap_err()
            }
        };
        assert!(matches!(err, BmfError::InvalidConfig { .. }), "{err:?}");
        assert!(
            err.to_string().contains("stuck_gain_db"),
            "error must name the metric: {err}"
        );
    }

    #[test]
    fn sweep_config_validation() {
        let c = SweepConfig::paper_default();
        assert!(c.validate(5000).is_ok());
        assert!(c.validate(100).is_err()); // 512 > 100
        let mut c2 = c.clone();
        c2.sample_sizes.clear();
        assert!(c2.validate(5000).is_err());
        let mut c3 = c.clone();
        c3.repetitions = 0;
        assert!(c3.validate(5000).is_err());
        let mut c4 = c;
        c4.sample_sizes = vec![1];
        assert!(c4.validate(5000).is_err());
    }

    #[test]
    fn bmf_beats_mle_at_small_n_with_good_prior() {
        // Same covariance, aligned means: the prior is excellent; BMF must
        // dominate at n = 8.
        let data = synthetic_data(0.0, 3000, 4);
        let study = prepare(&data).unwrap();
        let config = SweepConfig {
            sample_sizes: vec![8, 64],
            repetitions: 20,
            seed: 7,
        };
        let result = run_error_sweep_parallel(&study, &config, 1).unwrap();
        let r8 = &result.rows[0];
        assert!(
            r8.bmf_cov_err < r8.mle_cov_err * 0.6,
            "bmf {} vs mle {}",
            r8.bmf_cov_err,
            r8.mle_cov_err
        );
        assert!(r8.bmf_mean_err < r8.mle_mean_err);
        // Errors decrease with n for MLE.
        assert!(result.rows[1].mle_cov_err < r8.mle_cov_err);
    }

    #[test]
    fn mean_discrepancy_drives_kappa_down() {
        // A late-stage mean shift the nominal cannot explain: CV should
        // respond with smaller κ₀ than in the aligned case (the op-amp
        // story of §5.1).
        let aligned = prepare(&synthetic_data(0.0, 3000, 5)).unwrap();
        let shifted = prepare(&synthetic_data(0.8, 3000, 5)).unwrap();
        let config = SweepConfig {
            sample_sizes: vec![32],
            repetitions: 20,
            seed: 11,
        };
        let ka = run_error_sweep_parallel(&aligned, &config, 1).unwrap().rows[0].mean_kappa0;
        let ks = run_error_sweep_parallel(&shifted, &config, 1).unwrap().rows[0].mean_kappa0;
        assert!(
            ks < ka,
            "kappa with shifted mean ({ks}) should be below aligned ({ka})"
        );
    }

    #[test]
    fn cost_reduction_is_large_for_good_prior() {
        let data = synthetic_data(0.0, 4000, 6);
        let study = prepare(&data).unwrap();
        let config = SweepConfig {
            sample_sizes: vec![8, 16, 32, 64, 128, 256],
            repetitions: 15,
            seed: 13,
        };
        let result = run_error_sweep_parallel(&study, &config, 1).unwrap();
        let cr = cost_reduction(&result, ErrorKind::Covariance);
        // At the smallest n the reduction should be substantial (>2×
        // conservatively; the paper reports 16× on its circuit).
        assert!(
            cr[0].1 > 2.0,
            "cost reduction at n=8 should exceed 2x, got {}",
            cr[0].1
        );
        assert_eq!(cr.len(), result.rows.len());
    }

    #[test]
    fn cost_reduction_handles_edge_cases() {
        // Synthetic rows: MLE error halves per doubling; BMF flat & tiny.
        let rows = vec![
            SweepRow {
                n: 8,
                mle_mean_err: 0.8,
                bmf_mean_err: 0.1,
                mle_cov_err: 1.6,
                bmf_cov_err: 0.2,
                mean_kappa0: 1.0,
                mean_nu0: 1.0,
            },
            SweepRow {
                n: 32,
                mle_mean_err: 0.4,
                bmf_mean_err: 0.1,
                mle_cov_err: 0.8,
                bmf_cov_err: 0.2,
                mean_kappa0: 1.0,
                mean_nu0: 1.0,
            },
            SweepRow {
                n: 128,
                mle_mean_err: 0.2,
                bmf_mean_err: 0.1,
                mle_cov_err: 0.4,
                bmf_cov_err: 0.2,
                mean_kappa0: 1.0,
                mean_nu0: 1.0,
            },
        ];
        let result = SweepResult { rows };
        let cr = cost_reduction(&result, ErrorKind::Mean);
        // BMF@8 has err 0.1 < MLE@128's 0.2 → beyond range → infinite.
        assert!(cr[0].1.is_infinite());
        let cr = cost_reduction(&result, ErrorKind::Covariance);
        assert!(cr[0].1.is_infinite());

        // A BMF error worse than MLE at the smallest n → factor <= 1.
        let rows = vec![SweepRow {
            n: 8,
            mle_mean_err: 0.1,
            bmf_mean_err: 0.5,
            mle_cov_err: 0.1,
            bmf_cov_err: 0.5,
            mean_kappa0: 1.0,
            mean_nu0: 1.0,
        }];
        let cr = cost_reduction(&SweepResult { rows }, ErrorKind::Mean);
        assert!(cr[0].1 <= 1.0);
    }

    #[test]
    fn interpolation_is_log_log_exact_on_power_law() {
        // err = n^{-1/2}: target err(n=50) → interpolated n = 50.
        let curve: Vec<(f64, f64)> = [8.0, 32.0, 128.0]
            .iter()
            .map(|&n: &f64| (n, n.powf(-0.5)))
            .collect();
        let n = mle_samples_for_error(&curve, 50f64.powf(-0.5)).unwrap();
        assert!((n - 50.0).abs() < 1.0, "n = {n}");
        // Out of range below.
        assert!(mle_samples_for_error(&curve, 0.01).is_none());
        // Above the first point clamps to the smallest n.
        assert_eq!(mle_samples_for_error(&curve, 10.0), Some(8.0));
        assert!(mle_samples_for_error(&[], 0.1).is_none());
    }

    #[test]
    fn table_rendering_contains_all_rows() {
        let data = synthetic_data(0.0, 500, 8);
        let study = prepare(&data).unwrap();
        let config = SweepConfig {
            sample_sizes: vec![8, 16],
            repetitions: 3,
            seed: 1,
        };
        let result = run_error_sweep_parallel(&study, &config, 1).unwrap();
        let table = result.to_table();
        assert!(table.contains("mean_err MLE"));
        assert_eq!(table.lines().count(), 4); // header + separator + 2 rows
    }

    #[test]
    fn sweep_is_reproducible() {
        let data = synthetic_data(0.3, 800, 9);
        let study = prepare(&data).unwrap();
        let config = SweepConfig {
            sample_sizes: vec![16],
            repetitions: 5,
            seed: 21,
        };
        let a = run_error_sweep_parallel(&study, &config, 1).unwrap();
        let b = run_error_sweep_parallel(&study, &config, 1).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_sweep_matches_sequential_exactly() {
        let data = synthetic_data(0.2, 600, 10);
        let study = prepare(&data).unwrap();
        let config = SweepConfig {
            sample_sizes: vec![8, 16],
            repetitions: 6,
            seed: 33,
        };
        let seq = run_error_sweep_parallel(&study, &config, 1).unwrap();
        for threads in [2, 4] {
            let par = run_error_sweep_parallel(&study, &config, threads).unwrap();
            assert_eq!(seq, par, "threads = {threads}");
        }
        assert!(run_error_sweep_parallel(&study, &config, 0).is_err());
    }

    #[test]
    fn parallel_sweep_accepts_more_threads_than_repetitions() {
        let data = synthetic_data(0.1, 400, 12);
        let study = prepare(&data).unwrap();
        let config = SweepConfig {
            sample_sizes: vec![8],
            repetitions: 2,
            seed: 5,
        };
        let seq = run_error_sweep_parallel(&study, &config, 1).unwrap();
        let par = run_error_sweep_parallel(&study, &config, 16).unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn repetition_seeds_are_distinct() {
        // Collisions across the (n, rep) grid would silently correlate
        // repetitions.
        let mut seen = std::collections::HashSet::new();
        for n in [8usize, 16, 32, 64, 128, 256, 512] {
            for rep in 0..100 {
                assert!(
                    seen.insert(repetition_seed(2015, n, rep)),
                    "collision at ({n}, {rep})"
                );
            }
        }
    }
}
