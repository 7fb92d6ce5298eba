//! Monte Carlo generation of early/late-stage performance sample matrices.
//!
//! This module is the interface between the circuit substrate and the BMF
//! estimator: it runs a [`Testbench`] many times per design [`Stage`] and
//! packages the results in the `n × d` sample-matrix convention used by
//! `bmf-stats`/`bmf-core`, together with the nominal performance vectors
//! the paper's shift operation needs (§4.1).

use crate::adc::AdcTestbench;
use crate::opamp::OpAmpTestbench;
use crate::{CircuitError, Result};
use bmf_linalg::{Matrix, Vector};
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Design stage of a simulation (the paper's early/late split).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Stage {
    /// Schematic-level (pre-layout) simulation — the paper's *early* stage.
    Schematic,
    /// Post-layout (parasitic-annotated) simulation — the *late* stage.
    PostLayout,
}

impl Stage {
    /// Human-readable stage name.
    pub fn name(&self) -> &'static str {
        match self {
            Stage::Schematic => "schematic",
            Stage::PostLayout => "post-layout",
        }
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A circuit testbench that can be Monte Carlo sampled.
///
/// Object-safe so heterogeneous benchmark harnesses can hold
/// `Box<dyn Testbench>`. `Sync` is a supertrait so one testbench can be
/// shared by the scoped workers of [`run_monte_carlo_seeded`] —
/// testbenches are immutable device/netlist descriptions, so this costs
/// implementations nothing.
pub trait Testbench: Sync {
    /// Number of performance metrics `d`.
    fn dim(&self) -> usize;

    /// Names of the metrics, length `d`.
    fn metric_names(&self) -> Vec<&'static str>;

    /// Deterministic nominal (variation-free) performance at `stage`.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    fn nominal(&self, stage: Stage) -> Result<Vector>;

    /// One Monte Carlo draw at `stage`.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    fn sample(&self, stage: Stage, rng: &mut dyn rand::RngCore) -> Result<Vector>;
}

// Boxed testbenches delegate, so wrappers like `FaultInjector<Box<dyn
// Testbench>>` compose with heterogeneous harnesses.
impl<T: Testbench + ?Sized> Testbench for Box<T> {
    fn dim(&self) -> usize {
        (**self).dim()
    }

    fn metric_names(&self) -> Vec<&'static str> {
        (**self).metric_names()
    }

    fn nominal(&self, stage: Stage) -> Result<Vector> {
        (**self).nominal(stage)
    }

    fn sample(&self, stage: Stage, rng: &mut dyn rand::RngCore) -> Result<Vector> {
        (**self).sample(stage, rng)
    }
}

impl Testbench for OpAmpTestbench {
    fn dim(&self) -> usize {
        5
    }

    fn metric_names(&self) -> Vec<&'static str> {
        crate::opamp::OpAmpPerformance::metric_names().to_vec()
    }

    fn nominal(&self, stage: Stage) -> Result<Vector> {
        Ok(Vector::from_slice(
            &self.nominal_performance(stage)?.to_array(),
        ))
    }

    fn sample(&self, stage: Stage, rng: &mut dyn rand::RngCore) -> Result<Vector> {
        Ok(Vector::from_slice(
            &self.sample_performance(stage, rng)?.to_array(),
        ))
    }
}

impl Testbench for AdcTestbench {
    fn dim(&self) -> usize {
        5
    }

    fn metric_names(&self) -> Vec<&'static str> {
        crate::adc::AdcPerformance::metric_names().to_vec()
    }

    fn nominal(&self, stage: Stage) -> Result<Vector> {
        Ok(Vector::from_slice(
            &self.nominal_performance(stage)?.to_array(),
        ))
    }

    fn sample(&self, stage: Stage, rng: &mut dyn rand::RngCore) -> Result<Vector> {
        Ok(Vector::from_slice(
            &self.sample_performance(stage, rng)?.to_array(),
        ))
    }
}

/// Monte Carlo results for one design stage.
#[derive(Debug, Clone)]
pub struct StageData {
    /// Which stage was simulated.
    pub stage: Stage,
    /// Nominal (variation-free) performance — `P_NOM` in the paper.
    pub nominal: Vector,
    /// `n × d` sample matrix, one die per row.
    pub samples: Matrix,
}

impl StageData {
    /// Number of Monte Carlo samples.
    pub fn sample_count(&self) -> usize {
        self.samples.nrows()
    }

    /// Number of metrics.
    pub fn dim(&self) -> usize {
        self.samples.ncols()
    }
}

/// How many consecutive failed draws of one sample are tolerated before
/// the runner gives up.
///
/// Bias failures at extreme corners are physical (the die really is
/// broken); the paper's yield context would count them as fails, but the
/// moment-estimation study needs complete metric vectors, so failed draws
/// are redrawn — mirroring how the authors' MC data contains only
/// successfully measured dies. The default budget of 100 attempts matches
/// the historical hard-coded constant; chaos tests and benches with known
/// high failure rates tune it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum simulation attempts per sample (≥ 1). The sample's private
    /// RNG stream advances per attempt, so two runs with different
    /// budgets produce identical matrices as long as neither exhausts.
    pub max_attempts: usize,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 100 }
    }
}

impl RetryPolicy {
    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidValue`] when `max_attempts` is zero.
    pub fn validate(&self) -> Result<()> {
        if self.max_attempts == 0 {
            return Err(CircuitError::InvalidValue {
                what: "retry max_attempts",
                value: 0.0,
                constraint: ">= 1 attempt",
            });
        }
        Ok(())
    }
}

/// Draws one sample, redrawing up to `policy.max_attempts` times on
/// simulation failure. On success also returns the number of failed draws
/// that preceded it — deterministic per sample stream, so shard packets
/// can report retry telemetry that merges exactly. On exhaustion the
/// returned error is the **last** simulator error — the freshest
/// diagnosis of why the bench keeps failing.
fn sample_with_retries<T: Testbench + ?Sized>(
    tb: &T,
    stage: Stage,
    rng: &mut dyn rand::RngCore,
    policy: &RetryPolicy,
) -> Result<(Vector, usize)> {
    let mut last_err: Option<CircuitError> = None;
    for attempt in 0..policy.max_attempts {
        match tb.sample(stage, rng) {
            Ok(v) => {
                bmf_obs::counters::MONTE_CARLO_SIMS.incr();
                return Ok((v, attempt));
            }
            Err(e) => {
                bmf_obs::counters::MONTE_CARLO_RETRIES.incr();
                bmf_obs::event!(Warn, "mc.retry",
                    "stage": stage_span_name(stage),
                    "attempt": attempt + 1,
                    "max_attempts": policy.max_attempts,
                    "error": e.to_string());
                last_err = Some(e);
            }
        }
    }
    bmf_obs::event!(Error, "mc.retry_exhausted",
        "stage": stage_span_name(stage),
        "max_attempts": policy.max_attempts);
    Err(last_err.expect("retry loop ran at least once"))
}

/// Trace-span name of a Monte Carlo run at `stage` (span names must be
/// `'static`, so the two stages get fixed labels).
fn stage_span_name(stage: Stage) -> &'static str {
    match stage {
        Stage::Schematic => "mc.schematic",
        Stage::PostLayout => "mc.postlayout",
    }
}

/// Per-stage seed-derivation stream for [`run_monte_carlo_seeded`]: the
/// two stages of one study must consume disjoint random streams under a
/// shared root seed.
fn stage_stream(stage: Stage) -> u64 {
    match stage {
        Stage::Schematic => 0x4D43_0001,
        Stage::PostLayout => 0x4D43_0002,
    }
}

/// Runs `n` Monte Carlo simulations of `tb` at `stage` across `threads`
/// scoped worker threads, deterministically.
///
/// Sample `i` owns an RNG seeded from
/// [`bmf_stats::parallel::derive_seed`]`(seed, stage_stream, i)` — its
/// retry draws come from that private stream — so the resulting matrix is
/// **bit-identical for every thread count**, including 1.
///
/// # Errors
///
/// * Propagates the nominal-simulation failure unchanged.
/// * Returns the last error of any sample whose draws exhausted the
///   default [`RetryPolicy`] budget.
/// * Returns [`CircuitError::Worker`] when a worker thread panics.
pub fn run_monte_carlo_seeded<T: Testbench + ?Sized>(
    tb: &T,
    stage: Stage,
    n: usize,
    seed: u64,
    threads: usize,
) -> Result<StageData> {
    run_monte_carlo_seeded_with_policy(tb, stage, n, seed, threads, &RetryPolicy::default())
}

/// [`run_monte_carlo_seeded`] with an explicit [`RetryPolicy`].
///
/// Each sample's retries draw from that sample's private `derive_seed`
/// stream, so the retry budget does not shift any other sample: two runs
/// with different budgets are bit-identical wherever neither exhausts.
///
/// # Errors
///
/// As [`run_monte_carlo_seeded`], plus [`CircuitError::InvalidValue`] for
/// an invalid policy.
pub fn run_monte_carlo_seeded_with_policy<T: Testbench + ?Sized>(
    tb: &T,
    stage: Stage,
    n: usize,
    seed: u64,
    threads: usize,
    policy: &RetryPolicy,
) -> Result<StageData> {
    let slice = run_monte_carlo_slice_seeded_with_policy(tb, stage, 0, n, seed, threads, policy)?;
    Ok(StageData {
        stage,
        nominal: slice.nominal,
        samples: slice.samples,
    })
}

/// Rows produced by one contiguous slice of a seeded Monte Carlo run.
///
/// Row `i` of `samples` is **global** sample `start + i` of the full
/// `n`-sample run under the same root seed: running the slices of any
/// partition of `0..n` and concatenating their rows reproduces the
/// single-process run bit-for-bit. This is the execution unit of a
/// sharded study.
#[derive(Debug, Clone)]
pub struct SliceData {
    /// Which stage was simulated.
    pub stage: Stage,
    /// Nominal (variation-free) performance — identical for every slice.
    pub nominal: Vector,
    /// Global index of the first row.
    pub start: usize,
    /// `len × d` sample matrix for global indices `start..start+len`.
    pub samples: Matrix,
    /// Total redraws across the slice. Each sample's retries come from
    /// its own private stream, so this count is deterministic per slice
    /// and sums exactly across a partition.
    pub retries: u64,
}

/// Runs global samples `start..start+len` of an `n`-sample seeded Monte
/// Carlo run (the shard primitive behind [`run_monte_carlo_seeded`],
/// which is the `start = 0`, `len = n` special case).
///
/// Sample `start + i` owns an RNG seeded from
/// [`bmf_stats::parallel::derive_seed`]`(seed, stage_stream, start + i)`
/// — the same stream it owns in the full run — so slices are
/// independently executable and bit-identical at any thread count.
///
/// # Errors
///
/// As [`run_monte_carlo_seeded`], plus [`CircuitError::InvalidValue`]
/// for an invalid policy.
pub fn run_monte_carlo_slice_seeded_with_policy<T: Testbench + ?Sized>(
    tb: &T,
    stage: Stage,
    start: usize,
    len: usize,
    seed: u64,
    threads: usize,
    policy: &RetryPolicy,
) -> Result<SliceData> {
    policy.validate()?;
    let _span = bmf_obs::span(stage_span_name(stage));
    let nominal = tb.nominal(stage)?;
    let d = tb.dim();
    let stream = stage_stream(stage);
    // Shared across workers: Heartbeat::tick is one relaxed fetch_add
    // plus a rate-limiter CAS, and the progress stream never feeds back
    // into the numerics, so parallel ticking keeps bit-identity.
    let heartbeat = bmf_obs::Heartbeat::new(stage_span_name(stage), len);
    let rows = bmf_stats::parallel::scoped_map_range(len, threads, |i| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(bmf_stats::parallel::derive_seed(
            seed,
            stream,
            (start + i) as u64,
        ));
        let out = sample_with_retries(tb, stage, &mut rng, policy);
        heartbeat.tick();
        out
    })
    .map_err(|p| CircuitError::Worker {
        reason: p.to_string(),
    })?;

    let mut samples = Matrix::zeros(len, d);
    let mut retries = 0u64;
    for (i, row) in rows.into_iter().enumerate() {
        let (v, redraws) = row?;
        samples.row_mut(i).copy_from_slice(v.as_slice());
        retries += redraws as u64;
    }
    Ok(SliceData {
        stage,
        nominal,
        start,
        samples,
        retries,
    })
}

/// A complete two-stage study: early (schematic) and late (post-layout)
/// Monte Carlo data for one circuit — the input of every BMF experiment.
#[derive(Debug, Clone)]
pub struct TwoStageStudy {
    /// Metric names (length `d`).
    pub metric_names: Vec<&'static str>,
    /// Early-stage (schematic) data.
    pub early: StageData,
    /// Late-stage (post-layout) data.
    pub late: StageData,
}

/// Runs the full early+late Monte Carlo study: both stages run through
/// [`run_monte_carlo_seeded`] under one root seed (their per-stage streams
/// are disjoint), so the study is bit-identical for every thread count.
///
/// # Errors
///
/// As [`run_monte_carlo_seeded`], from either stage.
///
/// # Example
///
/// ```no_run
/// use bmf_circuits::monte_carlo::two_stage_study_seeded;
/// use bmf_circuits::opamp::OpAmpTestbench;
///
/// # fn main() -> Result<(), bmf_circuits::CircuitError> {
/// let tb = OpAmpTestbench::default_45nm();
/// let study = two_stage_study_seeded(&tb, 5000, 5000, 1, 4)?;
/// assert_eq!(study.early.sample_count(), 5000);
/// # Ok(())
/// # }
/// ```
pub fn two_stage_study_seeded<T: Testbench + ?Sized>(
    tb: &T,
    n_early: usize,
    n_late: usize,
    seed: u64,
    threads: usize,
) -> Result<TwoStageStudy> {
    let early = run_monte_carlo_seeded(tb, Stage::Schematic, n_early, seed, threads)?;
    let late = run_monte_carlo_seeded(tb, Stage::PostLayout, n_late, seed, threads)?;
    Ok(TwoStageStudy {
        metric_names: tb.metric_names(),
        early,
        late,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmf_stats::descriptive;

    /// Root seed of the runs below.
    const SEED: u64 = 404;

    #[test]
    fn stage_display() {
        assert_eq!(Stage::Schematic.to_string(), "schematic");
        assert_eq!(Stage::PostLayout.to_string(), "post-layout");
        assert_ne!(Stage::Schematic, Stage::PostLayout);
    }

    #[test]
    fn opamp_monte_carlo_produces_full_matrix() {
        let tb = OpAmpTestbench::default_45nm();
        let data = run_monte_carlo_seeded(&tb, Stage::Schematic, 40, SEED, 2).unwrap();
        assert_eq!(data.sample_count(), 40);
        assert_eq!(data.dim(), 5);
        assert!(data.samples.is_finite());
        assert_eq!(data.nominal.len(), 5);
        assert_eq!(data.stage, Stage::Schematic);
        // Columns have non-zero spread.
        let sd = descriptive::column_stddevs(&data.samples).unwrap();
        for j in 0..5 {
            assert!(sd[j] > 0.0, "metric {j} has zero spread");
        }
    }

    #[test]
    fn adc_monte_carlo_produces_full_matrix() {
        let tb = AdcTestbench::default_180nm();
        let data = run_monte_carlo_seeded(&tb, Stage::PostLayout, 15, SEED, 2).unwrap();
        assert_eq!(data.sample_count(), 15);
        assert_eq!(data.dim(), 5);
        assert!(data.samples.is_finite());
    }

    #[test]
    fn two_stage_study_shapes() {
        let tb = AdcTestbench::default_180nm();
        let study = two_stage_study_seeded(&tb, 12, 8, SEED, 2).unwrap();
        assert_eq!(study.early.sample_count(), 12);
        assert_eq!(study.late.sample_count(), 8);
        assert_eq!(study.metric_names.len(), 5);
        assert_eq!(study.early.stage, Stage::Schematic);
        assert_eq!(study.late.stage, Stage::PostLayout);
    }

    #[test]
    fn testbench_is_object_safe() {
        let tbs: Vec<Box<dyn Testbench>> = vec![
            Box::new(OpAmpTestbench::default_45nm()),
            Box::new(AdcTestbench::default_180nm()),
        ];
        for tb in &tbs {
            assert_eq!(tb.dim(), 5);
            assert_eq!(tb.metric_names().len(), 5);
            let data = run_monte_carlo_seeded(tb.as_ref(), Stage::Schematic, 3, SEED, 2).unwrap();
            assert_eq!(data.sample_count(), 3);
        }
    }

    /// A testbench whose draws fail ~40% of the time, to exercise the
    /// retry path under seeded parallel execution.
    struct FlakyTestbench;

    impl Testbench for FlakyTestbench {
        fn dim(&self) -> usize {
            2
        }
        fn metric_names(&self) -> Vec<&'static str> {
            vec!["a", "b"]
        }
        fn nominal(&self, _stage: Stage) -> crate::Result<bmf_linalg::Vector> {
            Ok(bmf_linalg::Vector::from_slice(&[0.0, 0.0]))
        }
        fn sample(
            &self,
            _stage: Stage,
            rng: &mut dyn rand::RngCore,
        ) -> crate::Result<bmf_linalg::Vector> {
            let u: f64 = rand::Rng::gen(rng);
            if u < 0.4 {
                Err(CircuitError::BiasFailure {
                    reason: "flaky corner".into(),
                })
            } else {
                Ok(bmf_linalg::Vector::from_slice(&[u, 2.0 * u]))
            }
        }
    }

    #[test]
    fn seeded_monte_carlo_is_bit_identical_across_thread_counts() {
        let tb = OpAmpTestbench::default_45nm();
        let reference = run_monte_carlo_seeded(&tb, Stage::Schematic, 25, 7, 1).unwrap();
        for threads in [2, 3, 7, 64] {
            let par = run_monte_carlo_seeded(&tb, Stage::Schematic, 25, 7, threads).unwrap();
            assert_eq!(par.samples, reference.samples, "threads = {threads}");
            assert_eq!(par.nominal, reference.nominal);
        }
        // Different stages consume disjoint streams under the same root.
        let late = run_monte_carlo_seeded(&tb, Stage::PostLayout, 25, 7, 2).unwrap();
        assert_ne!(late.samples, reference.samples);
    }

    #[test]
    fn seeded_monte_carlo_preserves_retry_logic() {
        let tb = FlakyTestbench;
        let reference = run_monte_carlo_seeded(&tb, Stage::Schematic, 50, 11, 1).unwrap();
        assert_eq!(reference.sample_count(), 50);
        assert!(reference.samples.is_finite());
        // Retried draws come from each sample's private stream, so the
        // flaky bench is still deterministic at any thread count.
        for threads in [2, 7] {
            let par = run_monte_carlo_seeded(&tb, Stage::Schematic, 50, 11, threads).unwrap();
            assert_eq!(par.samples, reference.samples, "threads = {threads}");
        }
        // All accepted values respect the bench's acceptance region.
        for i in 0..50 {
            assert!(reference.samples[(i, 0)] >= 0.4);
        }
    }

    /// A bench that always fails, numbering its attempts, so exhaustion
    /// tests can check *which* error the retry loop surfaces.
    struct AlwaysFailing {
        attempts: std::sync::atomic::AtomicUsize,
    }

    impl Testbench for AlwaysFailing {
        fn dim(&self) -> usize {
            1
        }
        fn metric_names(&self) -> Vec<&'static str> {
            vec!["x"]
        }
        fn nominal(&self, _stage: Stage) -> crate::Result<bmf_linalg::Vector> {
            Ok(bmf_linalg::Vector::from_slice(&[0.0]))
        }
        fn sample(
            &self,
            _stage: Stage,
            _rng: &mut dyn rand::RngCore,
        ) -> crate::Result<bmf_linalg::Vector> {
            let attempt = self
                .attempts
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst)
                + 1;
            Err(CircuitError::BiasFailure {
                reason: format!("attempt {attempt} failed"),
            })
        }
    }

    #[test]
    fn retry_exhaustion_returns_the_last_simulator_error() {
        let tb = AlwaysFailing {
            attempts: std::sync::atomic::AtomicUsize::new(0),
        };
        let policy = RetryPolicy { max_attempts: 7 };
        let err = run_monte_carlo_seeded_with_policy(&tb, Stage::Schematic, 1, SEED, 1, &policy)
            .unwrap_err();
        // The surfaced error is the LAST attempt's, not the first's.
        assert_eq!(
            err.to_string(),
            "bias failure: attempt 7 failed",
            "expected the final attempt's error, got: {err}"
        );
        assert_eq!(tb.attempts.load(std::sync::atomic::Ordering::SeqCst), 7);
    }

    #[test]
    fn retry_policy_validates() {
        assert!(RetryPolicy::default().validate().is_ok());
        assert_eq!(RetryPolicy::default().max_attempts, 100);
        let err = RetryPolicy { max_attempts: 0 }.validate().unwrap_err();
        assert!(err.to_string().contains("max_attempts"));
        // Invalid policies are rejected before any work.
        let tb = OpAmpTestbench::default_45nm();
        assert!(run_monte_carlo_seeded_with_policy(
            &tb,
            Stage::Schematic,
            1,
            1,
            1,
            &RetryPolicy { max_attempts: 0 }
        )
        .is_err());
    }

    #[test]
    fn retry_budget_does_not_shift_the_sample_streams() {
        // Satellite: the seeded runner consumes the same per-sample
        // stream regardless of the retry budget — a looser or tighter
        // budget changes nothing unless a sample actually exhausts it.
        let tb = FlakyTestbench;
        let tight = RetryPolicy { max_attempts: 20 };
        let loose = RetryPolicy { max_attempts: 100 };
        let a =
            run_monte_carlo_seeded_with_policy(&tb, Stage::Schematic, 40, 11, 1, &tight).unwrap();
        let b =
            run_monte_carlo_seeded_with_policy(&tb, Stage::Schematic, 40, 11, 3, &loose).unwrap();
        assert_eq!(a.samples, b.samples);
    }

    #[test]
    fn seeded_two_stage_study_is_deterministic() {
        let tb = AdcTestbench::default_180nm();
        let a = two_stage_study_seeded(&tb, 10, 6, 3, 1).unwrap();
        let b = two_stage_study_seeded(&tb, 10, 6, 3, 4).unwrap();
        assert_eq!(a.early.samples, b.early.samples);
        assert_eq!(a.late.samples, b.late.samples);
        assert_eq!(a.early.sample_count(), 10);
        assert_eq!(a.late.sample_count(), 6);
    }

    #[test]
    fn metrics_are_correlated_across_dimensions() {
        // The whole premise of the paper: circuit metrics share process
        // drivers, so off-diagonal correlations are substantial.
        let tb = OpAmpTestbench::default_45nm();
        let data = run_monte_carlo_seeded(&tb, Stage::Schematic, 300, SEED, 2).unwrap();
        let cov = descriptive::covariance_unbiased(&data.samples).unwrap();
        let corr = descriptive::correlation_from_cov(&cov).unwrap();
        let mut max_off = 0.0_f64;
        for i in 0..5 {
            for j in (i + 1)..5 {
                max_off = max_off.max(corr[(i, j)].abs());
            }
        }
        assert!(
            max_off > 0.3,
            "expected at least one strong cross-metric correlation, max = {max_off}"
        );
    }
}
