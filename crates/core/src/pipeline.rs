//! Self-healing estimation pipeline: guard → repair → MAP→MLE→early
//! degradation ladder, with every decision recorded in a
//! [`FusionReport`].
//!
//! The BMF regime (tiny `n` close to `d`) is exactly where the naive
//! pipeline is brittle: the late-stage scatter is near-singular, the
//! early-stage prior covariance can be ill-conditioned, and a single
//! corrupted sample sinks the whole study. [`RobustPipeline`] wraps the
//! existing estimators with an explicit fallback ladder:
//!
//! 1. **MAP** — the paper's estimator, prior straight from the early
//!    moments;
//! 2. **MAP with repaired prior** — when `Σ_E` is not SPD, the
//!    [`bmf_linalg::spd`] ladder repairs it first;
//! 3. **MLE** — when no usable prior can be built or the MAP update
//!    itself fails, fall back to the late-stage-only estimate;
//! 4. **early-only** — when even MLE is impossible (e.g. every late row
//!    was dropped by the guard), return the early-stage moments.
//!
//! Two entry points feed that one ladder. [`RobustPipeline::estimate`]
//! screens a late-stage sample matrix (guard, strict data checks,
//! cross-validated `κ₀`/`ν₀`) and reduces it once to the sufficient
//! statistics `(n, X̄, S)`. [`RobustPipeline::estimate_from_stats`] takes
//! statistics a sharded merge already reduced (upstream drops, shard
//! coverage, pinned or default `κ₀`/`ν₀`). Both then condition the prior
//! and run the same ladder and health assessment on the statistics, so
//! equal statistics and hyper-parameters give bit-identical estimates.
//!
//! Two failure modes select between *fail loudly* and *degrade loudly*:
//! [`FailureMode::Strict`] turns any repair, dropped row or fallback into
//! a typed error; [`FailureMode::Degrade`] walks the ladder and reports
//! what it did. In both modes the caller can see *why* an estimate is
//! what it is — nothing is silently patched.

use crate::cv::{CrossValidation, HyperParameterSelection};
use crate::guard::{self, DataQualityReport, GuardPolicy};
use crate::map::BmfEstimator;
use crate::mle::MleEstimator;
use crate::prior::NormalWishartPrior;
use crate::suffstats::SufficientStats;
use crate::{BmfError, MomentEstimate, Result};
use bmf_linalg::{Cholesky, Matrix, SpdRepair};

/// How the pipeline responds to anomalies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureMode {
    /// Any dropped row, non-finite cell, constant column, prior repair or
    /// estimator fallback is a typed error. For callers who must know
    /// their data was pristine.
    Strict,
    /// Walk the degradation ladder, recording every intervention in the
    /// [`FusionReport`]. For callers who need *an* answer plus the audit
    /// trail.
    Degrade,
}

/// Which rung of the degradation ladder produced the estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackLevel {
    /// Full MAP estimation with the unmodified early-stage prior.
    Map,
    /// MAP estimation, but the prior covariance needed SPD repair.
    MapRepairedPrior,
    /// Late-stage-only MLE (no usable prior or MAP failure).
    Mle,
    /// Early-stage moments returned unchanged (no usable late data).
    EarlyOnly,
}

impl FallbackLevel {
    /// Machine-readable label (report/JSON field value).
    pub fn label(&self) -> &'static str {
        match self {
            FallbackLevel::Map => "map",
            FallbackLevel::MapRepairedPrior => "map_repaired_prior",
            FallbackLevel::Mle => "mle",
            FallbackLevel::EarlyOnly => "early_only",
        }
    }
}

impl std::fmt::Display for FallbackLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The audit trail of one robust estimation: what the guard found, how
/// the prior was conditioned, which hyper-parameters were selected, and
/// which ladder rung produced the estimate.
#[derive(Debug, Clone)]
pub struct FusionReport {
    /// Data-quality findings on the late-stage samples.
    pub data_quality: DataQualityReport,
    /// 2-norm condition number of the early-stage covariance as given
    /// (`f64::INFINITY` when singular/indefinite).
    pub prior_condition: f64,
    /// Which SPD repair (if any) the prior covariance needed.
    pub prior_repair: SpdRepair,
    /// CV-selected `(κ₀, ν₀)` when cross-validation ran successfully.
    pub selection: Option<(f64, f64)>,
    /// The ladder rung that produced the returned estimate.
    pub fallback: FallbackLevel,
    /// Why the pipeline degraded below [`FallbackLevel::Map`] (absent on
    /// the happy path).
    pub fallback_reason: Option<String>,
    /// Additional non-fatal observations (e.g. a CV failure that was
    /// absorbed by default hyper-parameters).
    pub notes: Vec<String>,
    /// Wall-clock per pipeline stage. Always measured (a handful of
    /// monotonic clock reads per estimate — the values are never fed
    /// back into the computation, so estimates stay bit-identical).
    pub timings: StageTimings,
    /// Deltas of the process-wide observability counters across this
    /// estimate (e.g. `cholesky.calls`, `cv.fold_evals`). Empty unless
    /// recording was enabled via `bmf_obs::enable` — counter values are
    /// process-wide, so deltas from concurrent estimates overlap.
    pub counters: Vec<(&'static str, u64)>,
    /// Statistical health assessment of the returned estimate
    /// (prior–data conflict, shrinkage, covariance spectrum, CV surface,
    /// data quality). `None` when the run degraded to early-only — there
    /// is no fused estimate to assess — or when the assessment itself
    /// failed (a note records why). Strictly read-only: computing it
    /// never touches an RNG stream or the estimate.
    pub health: Option<bmf_obs::health::HealthReport>,
    /// Identity of the run this estimate belongs to, copied from the
    /// process-wide `bmf_obs::run` context when one is installed (CLI
    /// `--events-out`/telemetry runs); `None` otherwise. The same id is
    /// stamped on every structured event, trace, metrics snapshot, and
    /// flight dump, so a report can be joined to its telemetry.
    pub run_id: Option<String>,
    /// Shard coverage of the merge this estimate was computed from:
    /// which shards arrived, which were missing or corrupt, and the
    /// late-sample inflation factor a degraded merge carries. `None`
    /// for single-process (non-sharded) estimates.
    pub shard: Option<bmf_obs::ShardCoverage>,
}

/// Wall-clock spent in each stage of one [`RobustPipeline::estimate`]
/// call, in nanoseconds. Stages an early degradation skipped report 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Data-quality screening of the late samples.
    pub guard_ns: u64,
    /// Prior condition estimate + SPD repair.
    pub prior_ns: u64,
    /// Cross-validated hyper-parameter selection.
    pub cv_ns: u64,
    /// The estimation ladder (MAP → MLE → early-only).
    pub ladder_ns: u64,
    /// Whole `estimate` call, end to end.
    pub total_ns: u64,
}

// JSON string escaping and float formatting are shared with the
// exporters (and heavily tested) in `bmf_obs::json`; the report's wire
// format must never drift from theirs.
use bmf_obs::json::{escape as json_escape, number as json_f64};

fn json_index_pairs(pairs: &[(usize, usize)]) -> String {
    let items: Vec<String> = pairs.iter().map(|(a, b)| format!("[{a},{b}]")).collect();
    format!("[{}]", items.join(","))
}

fn json_indices(idx: &[usize]) -> String {
    let items: Vec<String> = idx.iter().map(usize::to_string).collect();
    format!("[{}]", items.join(","))
}

impl FusionReport {
    /// A report holding only what the guard and prior stages found: the
    /// MAP rung, no selection, notes or health yet.
    fn pending(
        data_quality: DataQualityReport,
        prior_condition: f64,
        prior_repair: SpdRepair,
    ) -> FusionReport {
        FusionReport {
            data_quality,
            prior_condition,
            prior_repair,
            selection: None,
            fallback: FallbackLevel::Map,
            fallback_reason: None,
            notes: Vec::new(),
            timings: StageTimings::default(),
            counters: Vec::new(),
            health: None,
            run_id: None,
            shard: None,
        }
    }

    /// Serializes the report as a self-contained JSON object (hand-rolled
    /// — the workspace's serde is a marker facade; see `vendor/README.md`).
    pub fn to_json(&self) -> String {
        let dq = &self.data_quality;
        let selection = match self.selection {
            Some((kappa0, nu0)) => format!(
                "{{\"kappa0\":{},\"nu0\":{}}}",
                json_f64(kappa0),
                json_f64(nu0)
            ),
            None => "null".to_string(),
        };
        let reason = match &self.fallback_reason {
            Some(r) => format!("\"{}\"", json_escape(r)),
            None => "null".to_string(),
        };
        let notes: Vec<String> = self
            .notes
            .iter()
            .map(|n| format!("\"{}\"", json_escape(n)))
            .collect();
        let t = &self.timings;
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(name, v)| format!("\"{}\":{v}", json_escape(name)))
            .collect();
        let health = match &self.health {
            Some(h) => h.to_json(),
            None => "null".to_string(),
        };
        let run_id = match &self.run_id {
            Some(r) => format!("\"{}\"", json_escape(r)),
            None => "null".to_string(),
        };
        let shard = match &self.shard {
            Some(s) => s.to_json(),
            None => "null".to_string(),
        };
        format!(
            concat!(
                "{{\"run_id\":{},\"fallback\":\"{}\",\"fallback_reason\":{},",
                "\"prior_condition\":{},\"prior_repair\":\"{}\",",
                "\"prior_repair_detail\":\"{}\",\"selection\":{},",
                "\"health\":{},\"shard\":{},",
                "\"data_quality\":{{\"rows_in\":{},\"rows_out\":{},",
                "\"nonfinite_cells\":{},\"dropped_rows\":{},",
                "\"constant_columns\":{},\"duplicate_rows\":{},",
                "\"outlier_rows\":{}}},\"notes\":[{}],",
                "\"timings_ns\":{{\"guard\":{},\"prior\":{},\"cv\":{},",
                "\"ladder\":{},\"total\":{}}},\"counters\":{{{}}}}}"
            ),
            run_id,
            self.fallback.label(),
            reason,
            json_f64(self.prior_condition),
            self.prior_repair.label(),
            json_escape(&self.prior_repair.to_string()),
            selection,
            health,
            shard,
            dq.rows_in,
            dq.rows_out,
            json_index_pairs(&dq.nonfinite_cells),
            json_indices(&dq.dropped_rows),
            json_indices(&dq.constant_columns),
            json_index_pairs(&dq.duplicate_rows),
            json_indices(&dq.outlier_rows),
            notes.join(","),
            t.guard_ns,
            t.prior_ns,
            t.cv_ns,
            t.ladder_ns,
            t.total_ns,
            counters.join(",")
        )
    }

    /// Value of the named observability counter delta recorded for this
    /// estimate, or 0 when absent (recording off, or no hits).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Multi-line human-readable rendering (CLI `--report -` output).
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("fusion level: {}\n", self.fallback));
        if let Some(r) = &self.fallback_reason {
            out.push_str(&format!("degraded because: {r}\n"));
        }
        out.push_str(&format!("data quality: {}\n", self.data_quality.summary()));
        if let Some(s) = &self.shard {
            out.push_str(&format!("{}\n", s.summary()));
        }
        out.push_str(&format!(
            "prior condition: {:.3e}, repair: {}\n",
            self.prior_condition, self.prior_repair
        ));
        if let Some((k, n)) = self.selection {
            out.push_str(&format!("cv selection: kappa0 = {k:.3}, nu0 = {n:.2}\n"));
        }
        if let Some(h) = &self.health {
            out.push_str(&h.summary());
            out.push('\n');
        }
        let t = &self.timings;
        out.push_str(&format!(
            "stage times: guard {:.1}ms, prior {:.1}ms, cv {:.1}ms, ladder {:.1}ms (total {:.1}ms)\n",
            t.guard_ns as f64 / 1e6,
            t.prior_ns as f64 / 1e6,
            t.cv_ns as f64 / 1e6,
            t.ladder_ns as f64 / 1e6,
            t.total_ns as f64 / 1e6,
        ));
        for n in &self.notes {
            out.push_str(&format!("note: {n}\n"));
        }
        out
    }
}

/// The robust estimation pipeline. Construct with [`RobustPipeline::new`],
/// configure with the builder methods, run with
/// [`RobustPipeline::estimate`].
///
/// # Example
///
/// ```
/// use bmf_core::pipeline::{FailureMode, FallbackLevel, RobustPipeline};
/// use bmf_core::MomentEstimate;
/// use bmf_linalg::{Matrix, Vector};
///
/// # fn main() -> Result<(), bmf_core::BmfError> {
/// let early = MomentEstimate {
///     mean: Vector::zeros(2),
///     cov: Matrix::identity(2),
/// };
/// // Two late samples, one corrupted by a failed measurement.
/// let late = Matrix::from_rows(&[
///     &[0.1, -0.2],
///     &[f64::NAN, 0.3],
///     &[-0.2, 0.1],
/// ]).unwrap();
/// let (estimate, report) = RobustPipeline::new().estimate(&early, &late)?;
/// assert_eq!(estimate.dim(), 2);
/// assert_eq!(report.data_quality.dropped_rows, vec![1]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RobustPipeline {
    cv: CrossValidation,
    guard: GuardPolicy,
    mode: FailureMode,
    seed: u64,
    threads: usize,
    fixed_hypers: Option<(f64, f64)>,
}

impl Default for RobustPipeline {
    fn default() -> Self {
        Self::new()
    }
}

impl RobustPipeline {
    /// Degrade-mode pipeline with the default CV grid and guard policy,
    /// seed 2015, one thread.
    pub fn new() -> Self {
        RobustPipeline {
            cv: CrossValidation::default(),
            guard: GuardPolicy::default(),
            mode: FailureMode::Degrade,
            seed: 2015,
            threads: 1,
            fixed_hypers: None,
        }
    }

    /// Pins the hyper-parameters to `(κ₀, ν₀)`, skipping cross-validation
    /// entirely. Required for stats-only estimation (CV needs raw
    /// samples) when the defaults `κ₀ = 1, ν₀ = d + 2` are not wanted,
    /// and useful to make a sharded merge and a single-process run use
    /// identical hyper-parameters. The pair is checked when an estimate
    /// runs, once `d` is known: unless `κ₀` is finite and > 0 and `ν₀`
    /// is finite and > d, both entry points refuse it with
    /// [`BmfError::InvalidConfig`] in either mode, before any stage.
    pub fn with_fixed_hypers(mut self, kappa0: f64, nu0: f64) -> Self {
        self.fixed_hypers = Some((kappa0, nu0));
        self
    }

    /// Replaces the cross-validation strategy.
    pub fn with_cv(mut self, cv: CrossValidation) -> Self {
        self.cv = cv;
        self
    }

    /// Replaces the guard policy.
    pub fn with_guard(mut self, guard: GuardPolicy) -> Self {
        self.guard = guard;
        self
    }

    /// Sets the failure mode.
    pub fn with_mode(mut self, mode: FailureMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the root seed for CV fold shuffles.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the worker-thread count (results are thread-count invariant).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Runs the full guarded, self-healing estimation.
    ///
    /// Returns the moment estimate and the [`FusionReport`] explaining
    /// how it was produced. In [`FailureMode::Strict`], any anomaly
    /// (dropped rows, non-finite cells, constant columns, prior repair,
    /// estimator fallback) is a typed error instead.
    ///
    /// # Errors
    ///
    /// * [`BmfError::InvalidConfig`] for an invalid guard policy, thread
    ///   count or pinned `(κ₀, ν₀)` pair.
    /// * [`BmfError::InvalidMoments`] when the early moments are
    ///   structurally unusable (nothing to degrade to).
    /// * [`BmfError::InvalidSamples`] in strict mode on any anomaly, or
    ///   in degrade mode when even the early-only rung is unreachable.
    pub fn estimate(
        &self,
        early: &MomentEstimate,
        late_samples: &Matrix,
    ) -> Result<(MomentEstimate, FusionReport)> {
        let _span = bmf_obs::span("pipeline.estimate");
        let started = std::time::Instant::now();
        let before = bmf_obs::is_enabled().then(bmf_obs::metrics::snapshot);
        let mut timings = StageTimings::default();
        let result = self.estimate_inner(early, late_samples, &mut timings);
        self.finalize(result, started, before, timings)
    }

    /// [`Self::estimate`] for sufficient statistics instead of a sample
    /// matrix — the entry point `bmf merge` feeds a reduced shard set
    /// into. Differences from the sample path, all reported:
    ///
    /// * the guard already ran upstream (shard-side row screening); the
    ///   report carries its residue as drop *counts*;
    /// * cross-validation needs raw samples, so the hyper-parameters are
    ///   the pinned [`Self::with_fixed_hypers`] pair or the defaults
    ///   `κ₀ = 1, ν₀ = d + 2` (a note records which);
    /// * `shard` coverage, when given, is stamped into the
    ///   [`FusionReport`] — an incomplete merge degrades with a
    ///   widened-uncertainty note in [`FailureMode::Degrade`] and is a
    ///   typed error (plus flight-recorder dump) in
    ///   [`FailureMode::Strict`].
    ///
    /// # Errors
    ///
    /// As [`Self::estimate`], plus strict-mode rejection of upstream
    /// drops and incomplete shard coverage.
    pub fn estimate_from_stats(
        &self,
        early: &MomentEstimate,
        late: &SufficientStats,
        shard: Option<bmf_obs::ShardCoverage>,
    ) -> Result<(MomentEstimate, FusionReport)> {
        let _span = bmf_obs::span("pipeline.estimate_from_stats");
        let started = std::time::Instant::now();
        let before = bmf_obs::is_enabled().then(bmf_obs::metrics::snapshot);
        let mut timings = StageTimings::default();
        let result = self.estimate_from_stats_inner(early, late, shard, &mut timings);
        self.finalize(result, started, before, timings)
    }

    fn finalize(
        &self,
        mut result: Result<(MomentEstimate, FusionReport)>,
        started: std::time::Instant,
        before: Option<bmf_obs::MetricsSnapshot>,
        mut timings: StageTimings,
    ) -> Result<(MomentEstimate, FusionReport)> {
        match result.as_mut() {
            Ok((_, report)) => {
                timings.total_ns = started.elapsed().as_nanos() as u64;
                report.timings = timings;
                report.run_id = bmf_obs::run::run_id();
                if let Some(before) = before {
                    report.counters = bmf_obs::metrics::snapshot()
                        .counters
                        .iter()
                        .map(|&(name, v)| (name, v.saturating_sub(before.counter(name))))
                        .filter(|&(_, delta)| delta > 0)
                        .collect();
                }
                // Degrading past MAP is the "something went wrong but we
                // recovered" outcome: preserve the black box that led here.
                if matches!(
                    report.fallback,
                    FallbackLevel::Mle | FallbackLevel::EarlyOnly
                ) {
                    bmf_obs::flight::dump("ladder_degraded");
                }
            }
            Err(_) if self.mode == FailureMode::Strict => {
                bmf_obs::flight::dump("strict_failure");
            }
            Err(_) => {}
        }
        result
    }

    /// The configuration checks both entry points run first: a worker
    /// thread, and a usable pinned `(κ₀, ν₀)` for `d` metrics — an
    /// unusable pair would otherwise only surface as a MAP failure that
    /// Degrade mode hides behind the MLE rung.
    fn check_config(&self, d: usize) -> Result<()> {
        if self.threads == 0 {
            return Err(BmfError::InvalidConfig {
                reason: "robust pipeline needs at least one worker thread".to_string(),
            });
        }
        if let Some((kappa0, nu0)) = self.fixed_hypers {
            if !(kappa0.is_finite() && kappa0 > 0.0) {
                return Err(BmfError::InvalidConfig {
                    reason: format!("pinned kappa0 must be finite and > 0, got {kappa0}"),
                });
            }
            if !(nu0.is_finite() && nu0 > d as f64) {
                return Err(BmfError::InvalidConfig {
                    reason: format!("pinned nu0 must be finite and > d = {d}, got {nu0}"),
                });
            }
        }
        Ok(())
    }

    /// The stats path's own stages — upstream-drop and shard-coverage
    /// policy, fixed or default hyper-parameters — then the shared
    /// [`Self::ladder`].
    fn estimate_from_stats_inner(
        &self,
        early: &MomentEstimate,
        late: &SufficientStats,
        shard: Option<bmf_obs::ShardCoverage>,
        timings: &mut StageTimings,
    ) -> Result<(MomentEstimate, FusionReport)> {
        self.check_config(early.dim())?;
        early.validate()?;
        late.validate()?;
        if late.dim() != early.dim() {
            return Err(BmfError::InvalidSamples {
                reason: format!(
                    "late statistics are {}-dimensional but early moments are {}-dimensional",
                    late.dim(),
                    early.dim()
                ),
            });
        }

        let mut notes: Vec<String> = Vec::new();

        // ── Stage 1: upstream-guard residue + shard coverage policy. ──
        let stage_start = std::time::Instant::now();
        let dq = late.data_quality();
        if self.mode == FailureMode::Strict && late.dropped > 0 {
            return Err(BmfError::InvalidSamples {
                reason: format!(
                    "strict mode: {} late-stage row(s) were screened out upstream ({})",
                    late.dropped,
                    dq.summary()
                ),
            });
        }
        if late.dropped > 0 {
            notes.push(format!(
                "{} late-stage row(s) screened out upstream of the merge",
                late.dropped
            ));
        }
        if let Some(cov) = &shard {
            if !cov.is_complete() {
                if self.mode == FailureMode::Strict {
                    return Err(BmfError::InvalidSamples {
                        reason: format!(
                            "strict mode: shard coverage incomplete ({})",
                            cov.summary()
                        ),
                    });
                }
                notes.push(format!(
                    "degraded merge: {} of {} shards; late-sample uncertainty inflated x{:.4}",
                    cov.merged, cov.shard_count, cov.inflation
                ));
            }
        }
        timings.guard_ns = stage_start.elapsed().as_nanos() as u64;

        let prior = self.condition_prior(early, timings)?;

        // ── Stage 3: hyper-parameters (CV needs raw samples). ─────────
        if self.fixed_hypers.is_none() {
            notes.push(
                "stats-only input: cross-validation unavailable; using default \
                 hyper-parameters kappa0 = 1, nu0 = d + 2"
                    .to_string(),
            );
        }

        let report = FusionReport {
            selection: self.fixed_hypers,
            notes,
            shard,
            ..FusionReport::pending(dq, prior.condition, prior.repair)
        };
        self.ladder(early, &prior, late, None, report, timings)
    }

    /// The sample path's own stages — guard, strict data checks and
    /// cross-validation — then one reduction to `(n, X̄, S)` for the
    /// shared [`Self::ladder`].
    fn estimate_inner(
        &self,
        early: &MomentEstimate,
        late_samples: &Matrix,
        timings: &mut StageTimings,
    ) -> Result<(MomentEstimate, FusionReport)> {
        self.check_config(early.dim())?;
        self.guard.validate()?;
        // The early moments are the last rung of the ladder; if they are
        // structurally broken there is nothing to return at any rung.
        early.validate()?;
        if late_samples.ncols() != early.dim() {
            return Err(BmfError::InvalidSamples {
                reason: format!(
                    "late samples have {} columns but early moments are {}-dimensional",
                    late_samples.ncols(),
                    early.dim()
                ),
            });
        }

        // ── Stage 1: data-quality guard on the late samples. ──────────
        let guard_span = bmf_obs::span("pipeline.guard");
        let stage_start = std::time::Instant::now();
        let screened = guard::screen(late_samples, &self.guard);
        timings.guard_ns = stage_start.elapsed().as_nanos() as u64;
        drop(guard_span);
        let (cleaned, dq) = match screened {
            Ok(ok) => ok,
            Err(e) => {
                if self.mode == FailureMode::Strict {
                    return Err(e);
                }
                // No usable late data at all → early-only rung.
                bmf_obs::counters::LADDER_RUNG_TRANSITIONS.incr();
                bmf_obs::event!(Warn, "ladder.transition",
                    "from": "map", "to": "early_only", "cause": e.to_string());
                let report = FusionReport {
                    fallback: FallbackLevel::EarlyOnly,
                    fallback_reason: Some(format!("late-stage data unusable: {e}")),
                    ..FusionReport::pending(
                        DataQualityReport {
                            rows_in: late_samples.nrows(),
                            rows_out: 0,
                            ..DataQualityReport::default()
                        },
                        bmf_linalg::condition_number(&early.cov)?,
                        SpdRepair::None,
                    )
                };
                return Ok((early.clone(), report));
            }
        };
        if self.mode == FailureMode::Strict {
            if !dq.dropped_rows.is_empty() || !dq.nonfinite_cells.is_empty() {
                return Err(BmfError::InvalidSamples {
                    reason: format!("strict mode: late-stage data is dirty ({})", dq.summary()),
                });
            }
            if !dq.constant_columns.is_empty() {
                return Err(BmfError::InvalidSamples {
                    reason: format!(
                        "strict mode: constant late-stage column(s) {:?}",
                        dq.constant_columns
                    ),
                });
            }
        }

        let prior = self.condition_prior(early, timings)?;
        let mut report = FusionReport::pending(dq, prior.condition, prior.repair);

        // ── Stage 3: hyper-parameter selection (absorb CV failure). ───
        let stage_start = std::time::Instant::now();
        // Pinned hyper-parameters skip CV entirely — the only option on
        // the stats-only path, and the way to make a sharded merge and a
        // single-process run select identically.
        let selected = match self.fixed_hypers {
            Some(_) => None,
            None => Some(
                self.cv
                    .select_seeded(&prior.early, &cleaned, self.seed, self.threads),
            ),
        };
        timings.cv_ns = stage_start.elapsed().as_nanos() as u64;
        // Keep the full selection (grid + per-point scores) alive for the
        // health assessment's CV-surface summary; the report only stores
        // the chosen (κ₀, ν₀) pair.
        let selection_full = match selected {
            None => None,
            Some(Ok(sel)) => Some(sel),
            Some(Err(e)) => {
                if self.mode == FailureMode::Strict {
                    return Err(e);
                }
                report.notes.push(format!(
                    "cross-validation failed ({e}); using default hyper-parameters \
                     kappa0 = 1, nu0 = d + 2"
                ));
                None
            }
        };
        report.selection = self
            .fixed_hypers
            .or_else(|| selection_full.as_ref().map(|sel| (sel.kappa0, sel.nu0)));

        // The guard leaves a non-empty, finite matrix, so this one
        // reduction serves the MAP and MLE rungs and the health check.
        let late = SufficientStats::from_samples(&cleaned)?;
        self.ladder(
            early,
            &prior,
            &late,
            selection_full.as_ref(),
            report,
            timings,
        )
    }

    /// Stage 2, shared by both entry points: the early covariance's
    /// condition number and, when it is not SPD, its repair — a typed
    /// error in strict mode.
    fn condition_prior(
        &self,
        early: &MomentEstimate,
        timings: &mut StageTimings,
    ) -> Result<ConditionedPrior> {
        let prior_span = bmf_obs::span("pipeline.prior");
        let stage_start = std::time::Instant::now();
        let condition = bmf_linalg::condition_number(&early.cov)?;
        let repaired = Cholesky::new_with_repair(&early.cov)?;
        timings.prior_ns = stage_start.elapsed().as_nanos() as u64;
        drop(prior_span);
        let repair = repaired.repair;
        if self.mode == FailureMode::Strict && repair.is_repaired() {
            return Err(BmfError::InvalidMoments {
                reason: format!(
                    "strict mode: early-stage covariance needed repair ({repair}), \
                     condition = {condition:.3e}"
                ),
            });
        }
        let early = if repair.is_repaired() {
            MomentEstimate {
                mean: early.mean.clone(),
                cov: repaired.matrix,
            }
        } else {
            early.clone()
        };
        Ok(ConditionedPrior {
            early,
            condition,
            repair,
        })
    }

    /// Stage 4, the one ladder both entry points share: MAP → MLE →
    /// early-only on the late statistics, then the health assessment of
    /// whichever rung answered. `report` arrives with what the earlier
    /// stages found, its `selection` included; the ladder adds the rung,
    /// its reason and the health.
    fn ladder(
        &self,
        early: &MomentEstimate,
        prior: &ConditionedPrior,
        late: &SufficientStats,
        cv: Option<&HyperParameterSelection>,
        mut report: FusionReport,
        timings: &mut StageTimings,
    ) -> Result<(MomentEstimate, FusionReport)> {
        // No selection → the defaults the earlier stages' notes announce.
        let (kappa0, nu0) = report.selection.unwrap_or((1.0, early.dim() as f64 + 2.0));
        let stage_start = std::time::Instant::now();
        let map_span = bmf_obs::span("ladder.map");
        let map_attempt = NormalWishartPrior::from_early_moments(&prior.early, kappa0, nu0)
            .and_then(|p| BmfEstimator::new(p)?.estimate_from_stats(late));
        drop(map_span);
        let fused = match map_attempt {
            Ok(est) => {
                if prior.repair.is_repaired() {
                    bmf_obs::counters::LADDER_RUNG_TRANSITIONS.incr();
                    bmf_obs::event!(Info, "ladder.transition",
                        "from": "map", "to": "map_repaired_prior",
                        "cause": prior.repair.to_string());
                    report.fallback = FallbackLevel::MapRepairedPrior;
                    report.fallback_reason =
                        Some(format!("prior covariance repaired: {}", prior.repair));
                }
                Some(est.map)
            }
            Err(map_err) => {
                if self.mode == FailureMode::Strict {
                    return Err(map_err);
                }
                bmf_obs::counters::LADDER_RUNG_TRANSITIONS.incr();
                bmf_obs::event!(Warn, "ladder.transition",
                    "from": "map", "to": "mle", "cause": map_err.to_string());
                let mle_span = bmf_obs::span("ladder.mle");
                let mle_attempt = MleEstimator::new().estimate_from_stats(late);
                drop(mle_span);
                match mle_attempt {
                    Ok(mle) => {
                        report.fallback = FallbackLevel::Mle;
                        report.fallback_reason = Some(format!("MAP estimation failed: {map_err}"));
                        Some(mle)
                    }
                    Err(mle_err) => {
                        bmf_obs::counters::LADDER_RUNG_TRANSITIONS.incr();
                        bmf_obs::event!(Error, "ladder.transition",
                            "from": "mle", "to": "early_only", "cause": mle_err.to_string());
                        report.fallback = FallbackLevel::EarlyOnly;
                        report.fallback_reason =
                            Some(format!("MAP failed ({map_err}); MLE failed ({mle_err})"));
                        None
                    }
                }
            }
        };
        let estimate = match fused {
            Some(est) => {
                // Read-only (no RNG, no feedback into the estimate); a
                // failure degrades to "health unavailable" with a note
                // rather than sinking the pipeline.
                let _span = bmf_obs::span("pipeline.health");
                match crate::health::assess(
                    &prior.early,
                    late,
                    kappa0,
                    nu0,
                    cv,
                    &report.data_quality,
                    &est,
                ) {
                    Ok(h) => {
                        bmf_obs::serve::publish_health(&h);
                        report.health = Some(h);
                    }
                    Err(e) => report
                        .notes
                        .push(format!("health assessment unavailable: {e}")),
                }
                est
            }
            None => early.clone(),
        };
        timings.ladder_ns = stage_start.elapsed().as_nanos() as u64;
        Ok((estimate, report))
    }
}

/// Stage 2's outcome: the early moments the prior is built from (SPD
/// repaired when needed) and what conditioning them found.
struct ConditionedPrior {
    early: MomentEstimate,
    condition: f64,
    repair: SpdRepair,
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmf_linalg::Vector;
    use bmf_stats::MultivariateNormal;
    use rand::SeedableRng;

    fn early() -> MomentEstimate {
        MomentEstimate {
            mean: Vector::from_slice(&[0.2, -0.1]),
            cov: Matrix::from_rows(&[&[1.0, 0.3], &[0.3, 0.8]]).unwrap(),
        }
    }

    fn clean_late(n: usize, seed: u64) -> Matrix {
        let truth = MultivariateNormal::new(
            Vector::from_slice(&[0.3, -0.2]),
            Matrix::from_rows(&[&[1.1, 0.25], &[0.25, 0.9]]).unwrap(),
        )
        .unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        truth.sample_matrix(&mut rng, n)
    }

    fn small_cv() -> CrossValidation {
        CrossValidation::new(vec![1.0, 10.0], vec![10.0, 100.0], 2).unwrap()
    }

    #[test]
    fn happy_path_is_map_with_clean_report() {
        let late = clean_late(16, 1);
        let (est, report) = RobustPipeline::new()
            .with_cv(small_cv())
            .estimate(&early(), &late)
            .unwrap();
        assert_eq!(report.fallback, FallbackLevel::Map);
        assert!(report.fallback_reason.is_none());
        assert!(report.data_quality.is_clean());
        assert!(report.selection.is_some());
        assert!(report.prior_condition.is_finite());
        assert!(report.health.is_some());
        let health = report.health.as_ref().unwrap();
        assert!(health.conflict.p_value.is_finite());
        assert!(health.cv.is_some());
        assert!(est.validate().is_ok());
        assert!(Cholesky::new(&est.cov).is_ok());
    }

    #[test]
    fn corrupted_rows_are_screened_and_reported() {
        let mut late = clean_late(16, 2);
        late[(3, 0)] = f64::NAN;
        late[(9, 1)] = f64::INFINITY;
        let (est, report) = RobustPipeline::new()
            .with_cv(small_cv())
            .estimate(&early(), &late)
            .unwrap();
        assert_eq!(report.fallback, FallbackLevel::Map);
        assert_eq!(report.data_quality.dropped_rows, vec![3, 9]);
        assert_eq!(report.data_quality.rows_out, 14);
        assert!(est.validate().is_ok());
    }

    #[test]
    fn singular_prior_degrades_to_repaired_map() {
        let singular = MomentEstimate {
            mean: Vector::zeros(2),
            cov: Matrix::outer(&Vector::from_slice(&[1.0, 1.0])), // rank 1
        };
        let late = clean_late(16, 3);
        let (est, report) = RobustPipeline::new()
            .with_cv(small_cv())
            .estimate(&singular, &late)
            .unwrap();
        assert_eq!(report.fallback, FallbackLevel::MapRepairedPrior);
        assert!(report.prior_repair.is_repaired());
        assert!(report.prior_condition.is_infinite());
        assert!(report.fallback_reason.is_some());
        assert!(est.validate().is_ok());
        assert!(Cholesky::new(&est.cov).is_ok());
    }

    #[test]
    fn unusable_late_data_degrades_to_early_only() {
        // Every row non-finite → guard errors → early-only rung.
        let mut late = clean_late(6, 4);
        for i in 0..6 {
            late[(i, 0)] = f64::NAN;
        }
        let (est, report) = RobustPipeline::new().estimate(&early(), &late).unwrap();
        assert_eq!(report.fallback, FallbackLevel::EarlyOnly);
        assert!(report
            .fallback_reason
            .as_deref()
            .unwrap()
            .contains("unusable"));
        assert!(report.health.is_none());
        assert_eq!(est, early());
    }

    #[test]
    fn single_sample_falls_back_gracefully() {
        // One late sample: CV is impossible (needs >= 2); the degrade
        // ladder absorbs the CV failure with default hyper-parameters and
        // MAP still works (the prior keeps Eq. 32 SPD).
        let late = clean_late(1, 5);
        let (est, report) = RobustPipeline::new().estimate(&early(), &late).unwrap();
        assert_eq!(report.fallback, FallbackLevel::Map);
        assert!(report.selection.is_none());
        assert!(!report.notes.is_empty());
        assert!(est.validate().is_ok());
    }

    #[test]
    fn strict_mode_rejects_dirty_data() {
        let mut late = clean_late(16, 6);
        late[(0, 0)] = f64::NAN;
        let err = RobustPipeline::new()
            .with_mode(FailureMode::Strict)
            .with_cv(small_cv())
            .estimate(&early(), &late)
            .unwrap_err();
        assert!(err.to_string().contains("strict mode"), "{err}");
    }

    #[test]
    fn strict_mode_rejects_repaired_prior() {
        let singular = MomentEstimate {
            mean: Vector::zeros(2),
            cov: Matrix::outer(&Vector::from_slice(&[1.0, 1.0])),
        };
        let late = clean_late(16, 7);
        let err = RobustPipeline::new()
            .with_mode(FailureMode::Strict)
            .with_cv(small_cv())
            .estimate(&singular, &late)
            .unwrap_err();
        assert!(err.to_string().contains("repair"), "{err}");
    }

    #[test]
    fn strict_mode_passes_clean_data() {
        let late = clean_late(16, 8);
        let (est, report) = RobustPipeline::new()
            .with_mode(FailureMode::Strict)
            .with_cv(small_cv())
            .estimate(&early(), &late)
            .unwrap();
        assert_eq!(report.fallback, FallbackLevel::Map);
        assert!(est.validate().is_ok());
    }

    #[test]
    fn structurally_broken_early_moments_are_a_typed_error() {
        let broken = MomentEstimate {
            mean: Vector::zeros(3),
            cov: Matrix::identity(2),
        };
        let late = clean_late(8, 9);
        assert!(matches!(
            RobustPipeline::new().estimate(&broken, &late),
            Err(BmfError::InvalidMoments { .. })
        ));
        // Dimension mismatch between early and late is typed too.
        let late3 = Matrix::zeros(4, 3);
        assert!(matches!(
            RobustPipeline::new().estimate(&early(), &late3),
            Err(BmfError::InvalidSamples { .. })
        ));
        assert!(RobustPipeline::new()
            .with_threads(0)
            .estimate(&early(), &clean_late(8, 10))
            .is_err());
    }

    #[test]
    fn result_is_thread_count_invariant() {
        let late = clean_late(24, 11);
        let a = RobustPipeline::new()
            .with_cv(small_cv())
            .with_threads(1)
            .estimate(&early(), &late)
            .unwrap();
        let b = RobustPipeline::new()
            .with_cv(small_cv())
            .with_threads(7)
            .estimate(&early(), &late)
            .unwrap();
        assert_eq!(a.0, b.0);
        assert_eq!(a.1.selection, b.1.selection);
    }

    #[test]
    fn stats_path_matches_sample_path_with_fixed_hypers() {
        // A clean sample matrix and its statistics walk the one ladder to
        // the same bits on every rung, and to the same error in strict
        // mode wherever strict mode refuses.
        let late = clean_late(16, 14);
        let stats = SufficientStats::from_samples(&late).unwrap();
        let not_spd = MomentEstimate {
            mean: Vector::zeros(2),
            cov: Matrix::outer(&Vector::from_slice(&[1.0, 1.0])), // rank 1
        };
        let cases = [
            (early(), (2.0, 8.0), FallbackLevel::Map),
            (not_spd, (2.0, 8.0), FallbackLevel::MapRepairedPrior),
            // κ₀n/(κ₀+n) overflows, so the MAP covariance is not finite
            // and MAP fails over to MLE.
            (early(), (f64::MAX, 8.0), FallbackLevel::Mle),
        ];
        for (early, (kappa0, nu0), rung) in cases {
            for mode in [FailureMode::Degrade, FailureMode::Strict] {
                let p = RobustPipeline::new()
                    .with_mode(mode)
                    .with_fixed_hypers(kappa0, nu0);
                let a = p.estimate(&early, &late);
                let b = p.estimate_from_stats(&early, &stats, None);
                let refused = mode == FailureMode::Strict && rung != FallbackLevel::Map;
                assert_eq!(a.is_err(), refused, "{rung} {mode:?}: {a:?}");
                match (a, b) {
                    (Ok((ea, mut ra)), Ok((eb, mut rb))) => {
                        assert_eq!(ea, eb, "{rung} {mode:?}: estimates differ");
                        assert_eq!(ra.fallback, rung);
                        assert_eq!(ra.selection, Some((kappa0, nu0)));
                        assert!(rb.health.is_some());
                        ra.timings = StageTimings::default();
                        rb.timings = StageTimings::default();
                        assert_eq!(ra.to_json(), rb.to_json(), "{rung} {mode:?}");
                    }
                    (Err(ea), Err(eb)) => assert_eq!(ea, eb, "{rung} {mode:?}"),
                    (a, b) => panic!("{rung} {mode:?}: paths disagree: {a:?} vs {b:?}"),
                }
            }
        }
        // Without pinned hypers the stats path falls back to defaults
        // and says so.
        let (_, r) = RobustPipeline::new()
            .estimate_from_stats(&early(), &stats, None)
            .unwrap();
        assert!(r.selection.is_none());
        assert!(r
            .notes
            .iter()
            .any(|n| n.contains("cross-validation unavailable")));
    }

    #[test]
    fn unusable_pinned_hypers_are_config_errors_on_both_paths() {
        let late = clean_late(16, 16);
        let stats = SufficientStats::from_samples(&late).unwrap();
        let d = early().dim() as f64;
        let cases = [
            ((f64::NAN, 8.0), "kappa0"),
            ((-1.0, 8.0), "kappa0"),
            ((0.0, 8.0), "kappa0"),
            ((f64::INFINITY, 8.0), "kappa0"),
            ((2.0, f64::NAN), "nu0"),
            ((2.0, -1.0), "nu0"),
            ((2.0, f64::INFINITY), "nu0"),
            ((2.0, d), "nu0"),
        ];
        for ((kappa0, nu0), name) in cases {
            for mode in [FailureMode::Degrade, FailureMode::Strict] {
                let p = RobustPipeline::new()
                    .with_mode(mode)
                    .with_fixed_hypers(kappa0, nu0);
                for result in [
                    p.estimate(&early(), &late),
                    p.estimate_from_stats(&early(), &stats, None),
                ] {
                    match result {
                        Err(BmfError::InvalidConfig { reason }) => {
                            assert!(reason.contains(name), "({kappa0}, {nu0}): {reason}");
                        }
                        other => panic!("({kappa0}, {nu0}) {mode:?}: {other:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn shard_coverage_is_reported_and_enforced() {
        let late = clean_late(16, 15);
        let stats = SufficientStats::from_samples(&late).unwrap();
        let degraded = bmf_obs::ShardCoverage {
            shard_count: 4,
            merged: 3,
            missing: vec![2],
            corrupt: vec![],
            duplicates: 0,
            min_shards: 3,
            planned_late: 20,
            observed_late: 16,
            inflation: 1.25,
        };
        let (est, report) = RobustPipeline::new()
            .estimate_from_stats(&early(), &stats, Some(degraded.clone()))
            .unwrap();
        assert!(est.validate().is_ok());
        assert_eq!(report.shard.as_ref().unwrap().merged, 3);
        assert!(report.notes.iter().any(|n| n.contains("degraded merge")));
        assert!(report.summary().contains("shards: 3/4 merged"));
        let doc = bmf_obs::json::parse(&report.to_json()).unwrap();
        assert_eq!(
            doc.get("shard")
                .and_then(|s| s.get("merged"))
                .and_then(bmf_obs::json::Value::as_f64),
            Some(3.0)
        );
        // Strict mode refuses the incomplete merge...
        let err = RobustPipeline::new()
            .with_mode(FailureMode::Strict)
            .with_fixed_hypers(1.0, 4.0)
            .estimate_from_stats(&early(), &stats, Some(degraded))
            .unwrap_err();
        assert!(err.to_string().contains("shard coverage"), "{err}");
        // ...but accepts a complete one.
        let complete = bmf_obs::ShardCoverage {
            shard_count: 4,
            merged: 4,
            missing: vec![],
            corrupt: vec![],
            duplicates: 0,
            min_shards: 4,
            planned_late: 16,
            observed_late: 16,
            inflation: 1.0,
        };
        let (_, report) = RobustPipeline::new()
            .with_mode(FailureMode::Strict)
            .with_fixed_hypers(1.0, 4.0)
            .estimate_from_stats(&early(), &stats, Some(complete))
            .unwrap();
        assert_eq!(report.fallback, FallbackLevel::Map);
        // Upstream drops are a strict-mode error too.
        let mut dirty = stats.clone();
        dirty.dropped = 2;
        let err = RobustPipeline::new()
            .with_mode(FailureMode::Strict)
            .with_fixed_hypers(1.0, 4.0)
            .estimate_from_stats(&early(), &dirty, None)
            .unwrap_err();
        assert!(err.to_string().contains("screened out upstream"), "{err}");
    }

    #[test]
    fn report_serializes_to_json_and_summary() {
        let mut late = clean_late(16, 12);
        late[(2, 1)] = f64::NAN;
        let (_, report) = RobustPipeline::new()
            .with_cv(small_cv())
            .estimate(&early(), &late)
            .unwrap();
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"fallback\":\"map\""));
        assert!(json.contains("\"dropped_rows\":[2]"));
        assert!(json.contains("\"nonfinite_cells\":[[2,1]]"));
        assert!(json.contains("\"prior_repair\":\"none\""));
        let summary = report.summary();
        assert!(summary.contains("fusion level: map"));
        assert!(summary.contains("data quality"));
    }

    #[test]
    fn json_escaping_handles_special_characters() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_f64(f64::INFINITY), "\"inf\"");
        assert_eq!(json_f64(1.5), "1.5");
    }

    #[test]
    fn report_json_with_hostile_notes_parses_back() {
        // Notes carry free-form error text: quotes, backslashes, control
        // characters and non-ASCII must all survive into valid JSON.
        let hostile = "path \"C:\\sim\\run\"\tκ₀→∞\u{1}";
        let early = early();
        let late = clean_late(24, 3);
        let pipeline = RobustPipeline::new().with_seed(5).with_threads(1);
        let (_, mut report) = pipeline.estimate(&early, &late).unwrap();
        report.notes.push(hostile.to_string());

        let doc = bmf_obs::json::parse(&report.to_json()).expect("report JSON must parse");
        let notes = doc
            .get("notes")
            .and_then(bmf_obs::json::Value::as_array)
            .expect("notes array");
        let recovered = notes
            .last()
            .and_then(bmf_obs::json::Value::as_str)
            .expect("hostile note");
        assert_eq!(recovered, hostile);
        assert!(doc.get("timings_ns").is_some());
        assert!(doc.get("counters").is_some());
    }

    #[test]
    fn report_json_round_trips_empty_and_populated() {
        use bmf_obs::json;

        let late = clean_late(16, 13);
        let (_, mut report) = RobustPipeline::new()
            .with_cv(small_cv())
            .estimate(&early(), &late)
            .unwrap();

        // Recording was off → counters are empty; the JSON must still be
        // a parseable object with an empty counters map. With no run
        // context set, run_id serializes as an explicit null.
        assert!(report.counters.is_empty());
        let doc = json::parse(&report.to_json()).expect("empty-counter report JSON must parse");
        assert!(doc.get("counters").is_some());
        assert!(matches!(doc.get("run_id"), Some(json::Value::Null)));
        let health = doc.get("health").expect("health key present");
        let overall = health
            .get("overall")
            .and_then(json::Value::as_str)
            .expect("health overall severity");
        assert!(matches!(overall, "ok" | "warn" | "critical"));
        assert!(health
            .get("conflict")
            .and_then(|c| c.get("p_value"))
            .is_some());
        assert!(health.get("cv").is_some());

        // Populate counters, timings and the run id by hand and check
        // values survive the round trip exactly.
        report.run_id = Some("deadbeef00c0ffee".to_string());
        report.counters = vec![("cv.fold_evals", 7), ("cholesky.calls", 3)];
        report.timings = StageTimings {
            guard_ns: 1,
            prior_ns: 2,
            cv_ns: 3,
            ladder_ns: 4,
            total_ns: 10,
        };
        let doc = json::parse(&report.to_json()).expect("populated report JSON must parse");
        assert_eq!(
            doc.get("run_id").and_then(json::Value::as_str),
            Some("deadbeef00c0ffee")
        );
        let counters = doc.get("counters").unwrap();
        assert_eq!(
            counters.get("cv.fold_evals").and_then(json::Value::as_f64),
            Some(7.0)
        );
        assert_eq!(
            counters.get("cholesky.calls").and_then(json::Value::as_f64),
            Some(3.0)
        );
        let timings = doc.get("timings_ns").unwrap();
        assert_eq!(
            timings.get("total").and_then(json::Value::as_f64),
            Some(10.0)
        );
        assert_eq!(
            timings.get("guard").and_then(json::Value::as_f64),
            Some(1.0)
        );

        // The health-less (early-only) report serializes "health":null.
        report.health = None;
        let doc = json::parse(&report.to_json()).expect("health-less report JSON must parse");
        assert!(matches!(doc.get("health"), Some(json::Value::Null)));
    }
}
