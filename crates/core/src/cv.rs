//! Two-dimensional cross-validation for hyper-parameter selection (§4.2).
//!
//! The confidence hyper-parameters `(ν₀, κ₀)` encode how much the early
//! stage is trusted; the paper selects them by sweeping a two-dimensional
//! candidate grid (Fig. 2a) and scoring each combination with Q-fold
//! cross-validation on the few late-stage samples (Fig. 2b): fit the BMF
//! MAP estimate on `Q−1` folds, evaluate the Gaussian log-likelihood
//! (Eq. 9) of the held-out fold, and average over the `Q` runs.
//!
//! # The fast scoring path
//!
//! Read literally, the paper's procedure refits the whole estimator per
//! candidate × repeat × fold and then evaluates every held-out row. This
//! module scores each fold from sufficient statistics instead, the
//! local-statistics pattern of Weng & Djurić: a held-out fold enters its
//! Gaussian log-likelihood only through its count, mean and scatter
//! `(n_t, X̄_t, S_t)`, because
//!
//! `Σ_t (x_t−μ)ᵀΣ⁻¹(x_t−μ) = tr(Σ⁻¹S_t) + n_t·(X̄_t−μ)ᵀΣ⁻¹(X̄_t−μ)`.
//!
//! * Per repeat, one pass over the permuted rows reduces the `Q` held-out
//!   folds to `(n_t, X̄_t, S_t)`. A fold's training statistics `(n, X̄, S)`
//!   are the merge of the other `Q − 1`; `δ = μ_E − X̄` is the prior–data
//!   mean gap and `e = X̄_t − X̄` the held-out mean's offset.
//! * Per (fold, ν₀), the base matrix `M(ν₀) = S + (ν₀−d)Σ_E` is factorised
//!   **once** (`|ν|` Cholesky calls per fold instead of `|ν|·|κ|`) and
//!   reduced to six scalars: `ln|M|`, `g = δᵀM⁻¹δ`, `tr(M⁻¹S_t)`,
//!   `h = δᵀM⁻¹S_tM⁻¹δ`, `eᵀM⁻¹e` and `eᵀM⁻¹δ`. The trace and `eᵀM⁻¹e` are
//!   kept as their parts across `M⁻¹δ` (`tr(M⁻¹S_t) − h/g`,
//!   `eᵀM⁻¹e − (eᵀM⁻¹δ)²/g`), which the candidate formula needs and which
//!   stay accurate however far the prior mean sits from the data. The
//!   trace costs O(d²·min(n_t, d)): one triangular solve per centred
//!   held-out row when there are at most `d` of them, else two per row of
//!   `S_t`.
//! * Per candidate, the posterior inverse scale differs from `M(ν₀)` only
//!   by the rank-one term `c·δδᵀ`, `c = κ₀n/(κ₀+n)` (Eq. 25), and the MAP
//!   covariance by the scalar `1/(ν₀+n−d)` (Eq. 32), so the matrix
//!   determinant lemma and Sherman–Morrison score each fold in O(1) from
//!   the six scalars: no factorisation, solve, row or allocation.
//!
//! One search therefore costs `|ν|·Q·repeats` factorisations of O(d³)
//! plus `|κ|·|ν|·Q·repeats` O(1) scores, and beyond the O(n·d²) pass that
//! forms the fold statistics it no longer grows with `n`.
//!
//! The naive per-candidate refit lives in `tests/cv_equivalence.rs` as the
//! equivalence oracle, written on the public estimator API; the two agree
//! to ≤ 1e-10 per grid score (exact bit-identity is impossible because the
//! two reach the same numbers by different arithmetic). The parallel work
//! item is the repeat: each task draws its fold permutation, reduces its
//! folds and scores every candidate, and the caller combines each
//! candidate's repeats in repeat order — bit-identical at every thread
//! count.

use crate::parallel;
use crate::{BmfError, MomentEstimate, Result};
use bmf_linalg::{Cholesky, Matrix};
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// One scored grid point of the CV search.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CvGridPoint {
    /// Candidate `κ₀`.
    pub kappa0: f64,
    /// Candidate `ν₀`.
    pub nu0: f64,
    /// Mean held-out log-likelihood per test sample (−∞ when the
    /// combination could not be evaluated).
    pub score: f64,
}

/// The result of one hyper-parameter search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HyperParameterSelection {
    /// Selected `κ₀`.
    pub kappa0: f64,
    /// Selected `ν₀`.
    pub nu0: f64,
    /// Score of the winning combination.
    pub score: f64,
    /// The full scored grid (paper Fig. 2a), for diagnostics/plots.
    pub grid: Vec<CvGridPoint>,
}

impl HyperParameterSelection {
    /// Distils the scored grid into the health-report surface summary:
    /// the argmax, the *spread* (best score minus the median finite
    /// score — near zero means the surface is flat and the selection
    /// arbitrary), and whether the argmax sits on the **lower** edge of
    /// either hyper-parameter axis as actually searched (the feasible
    /// grid). The upper edge is not flagged: the top of the paper's
    /// `[1, 1000]` grid already means near-total trust in the prior,
    /// whereas the bottom edge suggests the optimum may lie below the
    /// searched range.
    pub fn surface_summary(&self) -> bmf_obs::health::CvSurface {
        let mut finite: Vec<f64> = self
            .grid
            .iter()
            .map(|p| p.score)
            .filter(|s| s.is_finite())
            .collect();
        finite.sort_by(f64::total_cmp);
        let median = if finite.is_empty() {
            f64::NAN
        } else {
            finite[finite.len() / 2]
        };
        let spread = self.score - median;
        let min_kappa = self
            .grid
            .iter()
            .map(|p| p.kappa0)
            .fold(f64::INFINITY, f64::min);
        let min_nu = self
            .grid
            .iter()
            .map(|p| p.nu0)
            .fold(f64::INFINITY, f64::min);
        // A single-point axis has no interior, so its "edge" is not
        // informative; only flag axes with at least two distinct values.
        let kappa_values: std::collections::BTreeSet<u64> =
            self.grid.iter().map(|p| p.kappa0.to_bits()).collect();
        let nu_values: std::collections::BTreeSet<u64> =
            self.grid.iter().map(|p| p.nu0.to_bits()).collect();
        let boundary_hit = (kappa_values.len() > 1 && self.kappa0 == min_kappa)
            || (nu_values.len() > 1 && self.nu0 == min_nu);
        bmf_obs::health::CvSurface {
            kappa0: self.kappa0,
            nu0: self.nu0,
            score: self.score,
            spread,
            boundary_hit,
            severity: bmf_obs::health::classify_cv_surface(spread, boundary_hit),
        }
    }
}

/// Folds `Q` of the Q-fold cross-validation (the paper's Q = 4).
pub const FOLDS: usize = 4;

/// Re-randomised fold assignments averaged per grid point; averaging
/// stabilises the argmax when the folds are tiny (n = 8, Q = 4 leaves
/// two-sample test folds).
pub const REPEATS: usize = 8;

/// Points on each axis of the candidate grid.
const GRID_POINTS: usize = 12;

/// The candidate values of both axes: `GRID_POINTS` values log-spaced
/// over `[1, 1000]`. The paper reports non-integer optima such as
/// κ₀ = 4.67, so the grid must be finer than integers.
fn grid() -> [f64; GRID_POINTS] {
    let (lo, hi) = (1.0_f64.ln(), 1000.0_f64.ln());
    std::array::from_fn(|k| (lo + (hi - lo) * k as f64 / (GRID_POINTS - 1) as f64).exp())
}

/// Two-dimensional Q-fold cross-validation over the paper's `(κ₀, ν₀)`
/// grid: both axes span `[1, 1000]`, log-spaced with 12 points each,
/// scored with [`FOLDS`] folds averaged over [`REPEATS`] fold
/// assignments. Like [`crate::mle::MleEstimator`] it holds nothing.
///
/// # Example
///
/// ```
/// use bmf_core::cv::{CrossValidation, FOLDS};
///
/// assert_eq!(FOLDS, 4);
/// // Of the 12 ν₀ values, 9 exceed d = 5; each pairs with 12 κ₀ values.
/// assert_eq!(CrossValidation.feasible_candidate_count(5), 108);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrossValidation;

/// The stage at which a CV candidate's scoring failed — reported when
/// *every* feasible candidate fails, so the error names the actual
/// culprit instead of misdiagnosing grid feasibility.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum ScoreFailure {
    /// Prior construction from the early moments (Σ_E not SPD, …).
    Prior,
    /// Sufficient statistics of the training folds (non-finite samples).
    Statistics,
    /// Posterior covariance factorisation.
    Factorisation,
    /// Held-out likelihood evaluation.
    Likelihood,
}

impl ScoreFailure {
    fn describe(self) -> &'static str {
        match self {
            ScoreFailure::Prior => "prior construction from the early moments",
            ScoreFailure::Statistics => "sufficient statistics of the training folds",
            ScoreFailure::Factorisation => "posterior covariance factorisation",
            ScoreFailure::Likelihood => "held-out likelihood evaluation",
        }
    }
}

/// The most frequent failure stage across candidates (ties break toward
/// the earlier pipeline stage).
fn dominant_failure(failures: &[ScoreFailure]) -> Option<ScoreFailure> {
    let mut counts = std::collections::BTreeMap::new();
    for &f in failures {
        *counts.entry(f).or_insert(0usize) += 1;
    }
    counts
        .into_iter()
        .max_by_key(|&(stage, count)| (count, std::cmp::Reverse(stage)))
        .map(|(stage, _)| stage)
}

impl CrossValidation {
    /// Number of grid candidates that survive the `ν₀ > d` feasibility
    /// filter for dimension `d` — what one select call actually scores
    /// (used by benches to report candidates/sec).
    pub fn feasible_candidate_count(&self, d: usize) -> usize {
        grid().iter().filter(|&&nu0| nu0 > d as f64 + 1e-9).count() * GRID_POINTS
    }

    /// Runs the search: scores every `(κ₀, ν₀)` combination by Q-fold CV
    /// on `late_samples` and returns the maximiser.
    ///
    /// Candidates with `ν₀ ≤ d` are skipped (the prior of Eq. 20 requires
    /// `ν₀ > d`); the effective fold count shrinks to `n` when `n < Q`.
    ///
    /// Draws a single root seed from `rng` and delegates to
    /// [`CrossValidation::select_seeded`] on one thread; pass an explicit
    /// seed and thread count there for parallel execution.
    ///
    /// # Errors
    ///
    /// * [`BmfError::InvalidSamples`] when there are fewer than 2 samples
    ///   or dimensions mismatch.
    /// * [`BmfError::InvalidConfig`] when no grid candidate is feasible.
    pub fn select<R: Rng + ?Sized>(
        &self,
        early: &MomentEstimate,
        late_samples: &Matrix,
        rng: &mut R,
    ) -> Result<HyperParameterSelection> {
        self.select_seeded(early, late_samples, rng.next_u64(), 1)
    }

    /// [`CrossValidation::select`] with an explicit root seed and thread
    /// count: the repeats are scored in parallel over `threads` scoped
    /// workers, one task per repeat, and the per-repeat fold shuffles are
    /// derived from `seed` (stream
    /// [`parallel::streams::CV_FOLD_SHUFFLE`], index = repeat).
    ///
    /// The result is **bit-identical for every `threads` value**: each
    /// repeat's scores are computed entirely within one task, reduced per
    /// candidate in repeat order, and candidates are combined in grid
    /// order, so neither the random streams nor the floating-point
    /// reduction order depend on scheduling.
    ///
    /// # Errors
    ///
    /// As [`CrossValidation::select`], plus [`BmfError::Worker`] if a
    /// scoring worker panics.
    pub fn select_seeded(
        &self,
        early: &MomentEstimate,
        late_samples: &Matrix,
        seed: u64,
        threads: usize,
    ) -> Result<HyperParameterSelection> {
        let _span = bmf_obs::span("cv.select");
        early.validate()?;
        let d = early.dim();
        let n = late_samples.nrows();
        if n < 2 {
            return Err(BmfError::InvalidSamples {
                reason: format!("cross-validation needs at least 2 late-stage samples, got {n}"),
            });
        }
        if late_samples.ncols() != d {
            return Err(BmfError::InvalidSamples {
                reason: format!(
                    "late samples have {} columns, early moments have {d}",
                    late_samples.ncols()
                ),
            });
        }

        // Feasible candidate pairs (Eq. 20 needs ν₀ > d), built ν-major so
        // candidate `c` maps to feasible-ν index `c / GRID_POINTS`.
        let axis = grid();
        let nu_values: Vec<f64> = axis
            .iter()
            .copied()
            .filter(|&nu0| nu0 > d as f64 + 1e-9)
            .collect();
        let candidates: Vec<(f64, f64)> = nu_values
            .iter()
            .flat_map(|&nu0| axis.iter().map(move |&kappa0| (kappa0, nu0)))
            .collect();
        if candidates.is_empty() {
            return Err(BmfError::InvalidConfig {
                reason: format!(
                    "no feasible (kappa0, nu0) candidate for d = {d}: the prior of Eq. 20 \
                     requires nu0 > d, and the grid's largest nu0 is 1000"
                ),
            });
        }

        // Score the grid; this is the hot loop. Each repeat's row shuffle
        // is drawn from its own derived seed, so it is independent of both
        // thread count and the caller's RNG state. The repeat is the work
        // item, and each candidate's score accumulates in repeat order, so
        // the reduction is scheduling-invariant.
        bmf_obs::counters::CV_CANDIDATES.add(candidates.len() as u64);
        let q = FOLDS.min(n);
        let repeats_f = REPEATS as f64;
        let scored = if let Some(stage) = global_failure(early, late_samples) {
            vec![(f64::NEG_INFINITY, Some(stage)); candidates.len()]
        } else {
            let scorer = FoldScorer {
                early,
                samples: late_samples,
                q,
                nu_values: &nu_values,
                kappa_grid: &axis,
            };
            let per_repeat = parallel::map_range(REPEATS, threads, |rep| {
                scorer.score_repeat(&fold_order(seed, rep, n))
            })?;
            (0..candidates.len())
                .map(|c| {
                    let mut score = 0.0_f64;
                    let mut failure = None;
                    for scores in &per_repeat {
                        let (s, f) = scores[c];
                        score += s / repeats_f;
                        failure = failure.or(f);
                    }
                    (score, failure)
                })
                .collect()
        };

        let mut grid = Vec::with_capacity(candidates.len());
        let mut best: Option<CvGridPoint> = None;
        let mut failures: Vec<ScoreFailure> = Vec::new();
        for (&(kappa0, nu0), &(score, failure)) in candidates.iter().zip(scored.iter()) {
            let point = CvGridPoint { kappa0, nu0, score };
            grid.push(point);
            if let Some(f) = failure {
                failures.push(f);
            }
            let better = match best {
                None => score.is_finite(),
                Some(b) => score > b.score,
            };
            if better {
                best = Some(point);
            }
        }

        if !failures.is_empty() {
            bmf_obs::event!(Warn, "cv.candidate_failed",
                "failed": failures.len(),
                "candidates": candidates.len(),
                "dominant": dominant_failure(&failures).map_or("unknown", ScoreFailure::describe));
        }

        let Some(best) = best else {
            // The grid *was* feasible (the empty-candidate case returned
            // above), yet no candidate produced a finite score — a scoring
            // failure, not a grid-feasibility one. Name the stage.
            let stage = dominant_failure(&failures).map_or(
                "held-out likelihood evaluation (no finite score)",
                ScoreFailure::describe,
            );
            return Err(BmfError::InvalidConfig {
                reason: format!(
                    "all {} feasible (kappa0, nu0) candidates failed to score for d = {d} \
                     (failing stage: {stage}); the nu grid is feasible, so check the early \
                     moments and late samples rather than the grid",
                    candidates.len()
                ),
            });
        };
        Ok(HyperParameterSelection {
            kappa0: best.kappa0,
            nu0: best.nu0,
            score: best.score,
            grid,
        })
    }
}

/// The fold permutation of repeat `rep`: position `i` of the returned
/// order holds the row that goes to fold `i mod Q`.
fn fold_order(seed: u64, rep: usize, n: usize) -> Vec<usize> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(parallel::derive_seed(
        seed,
        parallel::streams::CV_FOLD_SHUFFLE,
        rep as u64,
    ));
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut rng);
    order
}

/// A condition that fails every candidate identically (non-SPD early
/// covariance, non-finite samples), detected once up front instead of
/// once per candidate.
fn global_failure(early: &MomentEstimate, samples: &Matrix) -> Option<ScoreFailure> {
    if Cholesky::new(&early.cov).is_err() {
        Some(ScoreFailure::Prior)
    } else if !samples.is_finite() {
        Some(ScoreFailure::Statistics)
    } else {
        None
    }
}

/// The candidate-independent inputs of the fast scorer, shared read-only
/// by every repeat task.
struct FoldScorer<'a> {
    early: &'a MomentEstimate,
    samples: &'a Matrix,
    /// Effective fold count `min(Q, n)`.
    q: usize,
    /// The feasible ν₀ candidates (`ν₀ > d`).
    nu_values: &'a [f64],
    kappa_grid: &'a [f64],
}

/// One (fold, ν₀) reduced to the six scalars every candidate sharing
/// this ν₀ is scored from, against `M = M(ν₀)`: `ln|M|` (inside
/// `ln_norm`), `g`, `h`, `tr(M⁻¹S_t)` and `eᵀM⁻¹e` (as their parts across
/// `M⁻¹δ`), and `eᵀM⁻¹δ`.
#[derive(Debug, Clone, Copy)]
struct FoldScalars {
    /// Training rows `n` and held-out rows `n_t` of the fold.
    n_train: f64,
    n_test: f64,
    /// `a = ν₀ + n − d`: `Σ_MAP = (M + c·δδᵀ)/a` (Eq. 32).
    a: f64,
    /// `d·ln 2π + ln|M| − d·ln a`: the candidate-independent part of
    /// `ln|2πΣ_MAP|`.
    ln_norm: f64,
    /// `g = δᵀM⁻¹δ`.
    g: f64,
    /// `h = δᵀM⁻¹S_tM⁻¹δ`.
    h: f64,
    /// `tr(M⁻¹S_t) − h/g`: the held-out scatter across `M⁻¹δ`.
    trace_perp: f64,
    /// `eᵀM⁻¹δ`.
    gap_dot: f64,
    /// `eᵀM⁻¹e − (eᵀM⁻¹δ)²/g`: the held-out mean offset across `M⁻¹δ`.
    gap_perp: f64,
}

impl FoldScalars {
    /// The held-out log-likelihood of the fold's `n_test` rows under the
    /// MAP fit of `(κ₀, ν₀)` to its `n_train` training rows.
    ///
    /// With `w = κ₀/(κ₀+n)` and `c = κ₀n/(κ₀+n)`, the posterior mean is
    /// `X̄ + wδ` (Eq. 24) and `Σ_MAP = (M + c·δδᵀ)/a` (Eq. 25, 32). The
    /// determinant lemma gives `ln|Σ_MAP| = ln|M| + ln(1+cg) − d·ln a`;
    /// Sherman–Morrison gives the summed Mahalanobis term as `a` times
    /// `trace_perp + h·r + n_test·(gap_perp + (gap_dot − wg)²·r)`,
    /// `r = 1/(g(1+cg))`. At `δ = 0` (`g = 0`) the `r` terms vanish.
    fn ln_likelihood(&self, kappa0: f64) -> f64 {
        let (n_train, n_test) = (self.n_train, self.n_test);
        let w = kappa0 / (kappa0 + n_train);
        let c = w * n_train;
        let cg = c * self.g;
        let r = if self.g > 0.0 {
            1.0 / (self.g * (1.0 + cg))
        } else {
            0.0
        };
        let along = self.gap_dot - w * self.g;
        let quad = self.trace_perp + self.h * r + n_test * (self.gap_perp + along * along * r);
        -0.5 * (n_test * (self.ln_norm + cg.ln_1p()) + self.a * quad)
    }
}

/// Solves `L y = b` in place, `l` the row-major lower-triangular factor.
fn forward_solve(l: &[f64], b: &mut [f64]) {
    let d = b.len();
    for i in 0..d {
        let mut s = b[i];
        for k in 0..i {
            s -= l[i * d + k] * b[k];
        }
        b[i] = s / l[i * d + i];
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// The per-task buffers of [`FoldScorer::score_repeat`], allocated once
/// per repeat and reused for every (fold, ν₀).
struct Scratch {
    /// Held-out fold statistics, fold `k` at `k·d` / `k·d²`.
    count: Vec<usize>,
    mean: Vec<f64>,
    scatter: Vec<f64>,
    /// One fold's training mean and scatter, `δ` and `e`.
    train_mean: Vec<f64>,
    train_scatter: Vec<f64>,
    delta: Vec<f64>,
    gap: Vec<f64>,
    /// The centred held-out rows of a fold with at most `d` of them;
    /// else, per ν₀, `S_t` solved in place to `S_t L⁻ᵀ`.
    rows: Vec<f64>,
    /// `M(ν₀)`, refilled per ν₀.
    m: Matrix,
    /// `L⁻¹δ`, `L⁻¹e` and one solve's workspace.
    z: Vec<f64>,
    e: Vec<f64>,
    work: Vec<f64>,
}

impl FoldScorer<'_> {
    /// Scores every candidate (ν-major, like the caller's list) on the
    /// folds of one repeat: mean held-out per-sample log-likelihood, plus
    /// the failing stage on −∞.
    fn score_repeat(&self, order: &[usize]) -> Vec<(f64, Option<ScoreFailure>)> {
        let d = self.samples.ncols();
        let q = self.q;
        let mut sc = Scratch {
            count: vec![0; q],
            mean: vec![0.0; q * d],
            scatter: vec![0.0; q * d * d],
            train_mean: vec![0.0; d],
            train_scatter: vec![0.0; d * d],
            delta: vec![0.0; d],
            gap: vec![0.0; d],
            rows: vec![0.0; d * d],
            m: Matrix::zeros(d, d),
            z: vec![0.0; d],
            e: vec![0.0; d],
            work: vec![0.0; d],
        };
        self.reduce_folds(order, &mut sc);

        // Each fold's scalars per ν₀ (`None` where `M(ν₀)` is not SPD),
        // fold-major. `q = min(Q, n)` with `n ≥ 2` leaves every fold and
        // its training complement non-empty.
        let nv = self.nu_values.len();
        let mut scalars: Vec<Option<FoldScalars>> = Vec::with_capacity(q * nv);
        for t in 0..q {
            let n_train = order.len() - sc.count[t];
            self.merge_training(t, n_train, &mut sc);
            self.centre_held_out_rows(order, t, &mut sc);
            for &nu0 in self.nu_values {
                bmf_obs::counters::CV_FOLD_EVALS.incr();
                scalars.push(self.fold_scalars(nu0, t, n_train, &mut sc));
            }
        }

        let n = order.len() as f64;
        let nk = self.kappa_grid.len();
        (0..nv * nk)
            .map(|c| {
                let (v, kappa0) = (c / nk, self.kappa_grid[c % nk]);
                let mut total = 0.0;
                for fold in scalars.chunks_exact(nv) {
                    let Some(s) = fold[v] else {
                        return (f64::NEG_INFINITY, Some(ScoreFailure::Factorisation));
                    };
                    let ll = s.ln_likelihood(kappa0);
                    if !ll.is_finite() {
                        return (f64::NEG_INFINITY, Some(ScoreFailure::Likelihood));
                    }
                    total += ll;
                }
                (total / n, None)
            })
            .collect()
    }

    /// One pass over the permuted rows: position `i` joins fold `i mod q`,
    /// whose count, mean and scatter are updated in place (Welford).
    fn reduce_folds(&self, order: &[usize], sc: &mut Scratch) {
        let d = self.samples.ncols();
        for (i, &row) in order.iter().enumerate() {
            let k = i % self.q;
            let x = self.samples.row(row);
            sc.count[k] += 1;
            let inv = 1.0 / sc.count[k] as f64;
            let mean = &mut sc.mean[k * d..(k + 1) * d];
            for ((w, m), &xj) in sc.work.iter_mut().zip(mean.iter_mut()).zip(x) {
                *w = xj - *m;
                *m += *w * inv;
            }
            let weight = 1.0 - inv;
            let scatter = &mut sc.scatter[k * d * d..(k + 1) * d * d];
            for (a, row) in scatter.chunks_exact_mut(d).enumerate() {
                let wa = weight * sc.work[a];
                for (s, &wb) in row[a..].iter_mut().zip(&sc.work[a..]) {
                    *s += wa * wb;
                }
            }
        }
        for scatter in sc.scatter.chunks_exact_mut(d * d) {
            for a in 0..d {
                for b in (a + 1)..d {
                    scatter[b * d + a] = scatter[a * d + b];
                }
            }
        }
    }

    /// Merges every fold but `t` into the training statistics of fold
    /// `t`, and forms `δ = μ_E − X̄` and `e = X̄_t − X̄`.
    fn merge_training(&self, t: usize, n_train: usize, sc: &mut Scratch) {
        let d = self.samples.ncols();
        let others = (0..self.q).filter(|&k| k != t);
        sc.train_mean.fill(0.0);
        for k in others.clone() {
            let nk = sc.count[k] as f64;
            for j in 0..d {
                sc.train_mean[j] += nk * sc.mean[k * d + j];
            }
        }
        for v in &mut sc.train_mean {
            *v /= n_train as f64;
        }
        sc.train_scatter.fill(0.0);
        for k in others {
            let nk = sc.count[k] as f64;
            for j in 0..d {
                sc.work[j] = sc.mean[k * d + j] - sc.train_mean[j];
            }
            let scatter = &sc.scatter[k * d * d..(k + 1) * d * d];
            for a in 0..d {
                for b in 0..d {
                    sc.train_scatter[a * d + b] +=
                        scatter[a * d + b] + nk * sc.work[a] * sc.work[b];
                }
            }
        }
        for j in 0..d {
            sc.delta[j] = self.early.mean[j] - sc.train_mean[j];
            sc.gap[j] = sc.mean[t * d + j] - sc.train_mean[j];
        }
    }

    /// Stores the centred rows of held-out fold `t` in `sc.rows` when it
    /// has at most `d` of them (the cheaper way to its trace term).
    fn centre_held_out_rows(&self, order: &[usize], t: usize, sc: &mut Scratch) {
        let d = self.samples.ncols();
        if sc.count[t] > d {
            return;
        }
        let mean = &sc.mean[t * d..(t + 1) * d];
        let rows = order.iter().skip(t).step_by(self.q);
        for (y, &row) in sc.rows.chunks_exact_mut(d).zip(rows) {
            for ((yj, &xj), &mj) in y.iter_mut().zip(self.samples.row(row)).zip(mean) {
                *yj = xj - mj;
            }
        }
    }

    /// Factorises `M(ν₀)` for held-out fold `t` (training statistics in
    /// `sc`) and reduces it to its six scalars; `None` when `M(ν₀)` is not
    /// SPD.
    fn fold_scalars(
        &self,
        nu0: f64,
        t: usize,
        n_train: usize,
        sc: &mut Scratch,
    ) -> Option<FoldScalars> {
        let d = self.samples.ncols();
        let df = d as f64;
        let cov = self.early.cov.as_slice();
        for ((m, &c), &s) in
            sc.m.as_mut_slice()
                .iter_mut()
                .zip(cov)
                .zip(&sc.train_scatter)
        {
            *m = c * (nu0 - df) + s;
        }
        let chol = Cholesky::new(&sc.m).ok()?;
        let l = chol.factor().as_slice();

        sc.z.copy_from_slice(&sc.delta);
        forward_solve(l, &mut sc.z);
        let g = dot(&sc.z, &sc.z);
        sc.e.copy_from_slice(&sc.gap);
        forward_solve(l, &mut sc.e);
        let gap_dot = dot(&sc.e, &sc.z);
        let along = if g > 0.0 { gap_dot / g } else { 0.0 };
        let gap_perp =
            sc.e.iter()
                .zip(&sc.z)
                .map(|(e, z)| (e - along * z) * (e - along * z))
                .sum();

        // tr(M⁻¹S_t) and h = ẑᵀ(L⁻¹S_tL⁻ᵀ)ẑ with ẑ = L⁻¹δ. From the
        // centred rows y_r: Σ‖L⁻¹y_r‖² and Σ(ẑ·L⁻¹y_r)². From S_t: L⁻¹ on
        // each row of S_t gives the rows of S_tL⁻ᵀ, and L⁻¹ on each column
        // of that the columns of L⁻¹S_tL⁻ᵀ.
        let (mut trace, mut h) = (0.0, 0.0);
        let n_test = sc.count[t];
        if n_test <= d {
            for y in sc.rows.chunks_exact(d).take(n_test) {
                sc.work.copy_from_slice(y);
                forward_solve(l, &mut sc.work);
                trace += dot(&sc.work, &sc.work);
                let zy = dot(&sc.z, &sc.work);
                h += zy * zy;
            }
        } else {
            sc.rows
                .copy_from_slice(&sc.scatter[t * d * d..(t + 1) * d * d]);
            for row in sc.rows.chunks_exact_mut(d) {
                forward_solve(l, row);
            }
            for j in 0..d {
                for (w, row) in sc.work.iter_mut().zip(sc.rows.chunks_exact(d)) {
                    *w = row[j];
                }
                forward_solve(l, &mut sc.work);
                trace += sc.work[j];
                h += sc.z[j] * dot(&sc.z, &sc.work);
            }
        }
        let trace_perp = if g > 0.0 { trace - h / g } else { trace };
        let a = nu0 + n_train as f64 - df;
        Some(FoldScalars {
            n_train: n_train as f64,
            n_test: n_test as f64,
            a,
            ln_norm: df * (2.0 * std::f64::consts::PI).ln() + chol.ln_det() - df * a.ln(),
            g,
            h,
            trace_perp,
            gap_dot,
            gap_perp,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmf_linalg::{Matrix, Vector};
    use bmf_stats::MultivariateNormal;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(99)
    }

    fn truth() -> MultivariateNormal {
        MultivariateNormal::new(
            Vector::from_slice(&[0.0, 0.0]),
            Matrix::from_rows(&[&[1.0, 0.5], &[0.5, 1.0]]).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn grid_is_log_spaced_over_1_to_1000() {
        let g = grid();
        assert_eq!(g[0], 1.0);
        assert!((g[GRID_POINTS - 1] - 1000.0).abs() < 1e-9);
        assert!(g.windows(2).all(|w| w[1] > w[0]));
        let ratio = g[1] / g[0];
        assert!(g.windows(2).all(|w| (w[1] / w[0] - ratio).abs() < 1e-12));
    }

    #[test]
    fn good_prior_selects_high_confidence() {
        // Early moments == truth: averaged over repetitions, CV should
        // trust the prior (large ν₀) — a single run sits on a flat score
        // landscape, so we test the average and the outcome (BMF error
        // not worse than MLE).
        let mut r = rng();
        let early = MomentEstimate {
            mean: truth().mean().clone(),
            cov: truth().cov().clone(),
        };
        let cv = CrossValidation;
        let reps = 10;
        let mut nu_sum = 0.0;
        let mut bmf_err = 0.0;
        let mut mle_err = 0.0;
        for _ in 0..reps {
            let late = truth().sample_matrix(&mut r, 16);
            let sel = cv.select(&early, &late, &mut r).unwrap();
            assert!(sel.score.is_finite());
            assert!(!sel.grid.is_empty());
            nu_sum += sel.nu0;
            let prior =
                crate::prior::NormalWishartPrior::from_early_moments(&early, sel.kappa0, sel.nu0)
                    .unwrap();
            let est = crate::map::BmfEstimator::new(prior)
                .unwrap()
                .estimate(&late)
                .unwrap();
            bmf_err += est.map.cov.max_abs_diff(truth().cov()).unwrap();
            let mle = crate::mle::MleEstimator::new().estimate(&late).unwrap();
            mle_err += mle.cov.max_abs_diff(truth().cov()).unwrap();
        }
        let nu_mean = nu_sum / reps as f64;
        assert!(
            nu_mean > 20.0,
            "expected large average nu0 for a perfect covariance prior, got {nu_mean}"
        );
        assert!(
            bmf_err < mle_err,
            "with a perfect prior BMF ({bmf_err}) must beat MLE ({mle_err})"
        );
    }

    #[test]
    fn wrong_mean_prior_selects_small_kappa() {
        // Early mean badly wrong, covariance right: CV should distrust the
        // mean (small κ₀) but keep the covariance confidence.
        let mut r = rng();
        let early = MomentEstimate {
            mean: Vector::from_slice(&[3.0, -3.0]), // 3σ wrong
            cov: truth().cov().clone(),
        };
        let late = truth().sample_matrix(&mut r, 32);
        let sel = CrossValidation.select(&early, &late, &mut r).unwrap();
        assert!(
            sel.kappa0 < 20.0,
            "expected small kappa0 for a wrong mean prior, got {}",
            sel.kappa0
        );
        assert!(
            sel.nu0 > 20.0,
            "covariance prior is good, expected large nu0, got {}",
            sel.nu0
        );
    }

    #[test]
    fn wrong_cov_prior_selects_small_nu() {
        // Early covariance wildly wrong (inflated 25×), mean right.
        let mut r = rng();
        let early = MomentEstimate {
            mean: truth().mean().clone(),
            cov: truth().cov() * 25.0,
        };
        let late = truth().sample_matrix(&mut r, 64);
        let sel = CrossValidation.select(&early, &late, &mut r).unwrap();
        assert!(
            sel.nu0 < 50.0,
            "expected small nu0 for a wrong covariance prior, got {}",
            sel.nu0
        );
    }

    #[test]
    fn infeasible_nu_candidates_are_skipped() {
        // At d = 2 the grid's ν₀ = 1 and 1.87 are infeasible: 10 of the
        // 12 ν₀ values survive, each with all 12 κ₀ values.
        let cv = CrossValidation;
        assert_eq!(cv.feasible_candidate_count(2), 120);
        assert_eq!(cv.feasible_candidate_count(999), 12);
        assert_eq!(cv.feasible_candidate_count(1000), 0);
        let mut r = rng();
        let early = MomentEstimate {
            mean: Vector::zeros(2),
            cov: Matrix::identity(2),
        };
        let late = truth().sample_matrix(&mut r, 8);
        let sel = cv.select(&early, &late, &mut r).unwrap();
        assert_eq!(sel.grid.len(), 120);
        assert!(sel.grid.iter().all(|p| p.nu0 > 2.0));
    }

    #[test]
    fn rejects_insufficient_samples() {
        let cv = CrossValidation;
        let mut r = rng();
        let early = MomentEstimate {
            mean: Vector::zeros(2),
            cov: Matrix::identity(2),
        };
        let one = Matrix::from_rows(&[&[0.1, 0.2]]).unwrap();
        assert!(cv.select(&early, &one, &mut r).is_err());
        let wrong_width = Matrix::zeros(8, 3);
        assert!(cv.select(&early, &wrong_width, &mut r).is_err());
    }

    #[test]
    fn fold_count_adapts_to_tiny_n() {
        // n = 3 < Q = 4: the effective fold count shrinks, still works.
        let mut r = rng();
        let early = MomentEstimate {
            mean: truth().mean().clone(),
            cov: truth().cov().clone(),
        };
        let late = truth().sample_matrix(&mut r, 3);
        let sel = CrossValidation.select(&early, &late, &mut r).unwrap();
        assert!(sel.score.is_finite());
    }

    #[test]
    fn select_seeded_is_bit_identical_across_thread_counts() {
        let cv = CrossValidation;
        let mut r = rng();
        let early = MomentEstimate {
            mean: truth().mean().clone(),
            cov: truth().cov().clone(),
        };
        let late = truth().sample_matrix(&mut r, 16);
        let reference = cv.select_seeded(&early, &late, 42, 1).unwrap();
        for threads in [2, 3, 7, 16] {
            let par = cv.select_seeded(&early, &late, 42, threads).unwrap();
            assert_eq!(par, reference, "threads = {threads}");
        }
    }

    #[test]
    fn infeasible_grid_error_names_the_grid() {
        // d = 1000 metrics, as a wide CSV can have: no ν₀ ≤ 1000 of the
        // grid exceeds d. The error comes before any factorisation.
        let d = 1000;
        let early = MomentEstimate {
            mean: Vector::zeros(d),
            cov: Matrix::identity(d),
        };
        let late = Matrix::from_fn(3, d, |i, j| ((i * 7 + j) % 5) as f64);
        let err = CrossValidation
            .select_seeded(&early, &late, 1, 1)
            .unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("no feasible (kappa0, nu0) candidate"),
            "infeasible-grid failure must blame the grid: {msg}"
        );
        assert!(!msg.contains("failed to score"), "{msg}");
    }

    #[test]
    fn all_failed_error_names_the_failing_stage_not_the_grid() {
        // The grid IS feasible (120 candidates at d = 2); a NaN late sample makes
        // every candidate fail at the sufficient-statistics stage. The old
        // code conflated this with grid infeasibility.
        let mut r = rng();
        let early = MomentEstimate {
            mean: Vector::zeros(2),
            cov: Matrix::identity(2),
        };
        let mut late = truth().sample_matrix(&mut r, 8);
        late[(3, 1)] = f64::NAN;
        let msg = CrossValidation
            .select_seeded(&early, &late, 11, 1)
            .unwrap_err()
            .to_string();
        assert!(
            msg.contains("failed to score"),
            "all-failed diagnosis must name scoring, got: {msg}"
        );
        assert!(
            msg.contains("sufficient statistics"),
            "failing stage must be named, got: {msg}"
        );
        assert!(
            !msg.contains("no feasible"),
            "must not blame a feasible grid, got: {msg}"
        );
    }

    #[test]
    fn grid_scores_are_reported_for_all_feasible_points() {
        let mut r = rng();
        let early = MomentEstimate {
            mean: truth().mean().clone(),
            cov: truth().cov().clone(),
        };
        let late = truth().sample_matrix(&mut r, 10);
        let sel = CrossValidation.select(&early, &late, &mut r).unwrap();
        assert_eq!(sel.grid.len(), 120);
        assert!(sel.grid.iter().all(|p| p.score.is_finite()));
        // Winner really is the argmax of the reported grid.
        let max = sel
            .grid
            .iter()
            .cloned()
            .max_by(|a, b| a.score.partial_cmp(&b.score).unwrap())
            .unwrap();
        assert_eq!(max.score, sel.score);
    }
}
