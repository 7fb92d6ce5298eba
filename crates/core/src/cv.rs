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
//! * **Per select**, `Σ_E = L_E L_Eᵀ` is factorised once, and the late rows
//!   and `μ_E` are whitened, `x̂ = L_E⁻¹x`. The base matrix of a fold,
//!   `M(ν₀) = S + (ν₀−d)Σ_E`, is then `L_E (Ŝ + sI) L_Eᵀ` with
//!   `s = ν₀ − d`, so `ln|M| = ln|Σ_E| + ln|Ŝ + sI|` and every scalar below
//!   is a quadratic form in whitened coordinates. This is the only
//!   factorisation of a select; a Σ_E that is not SPD or a non-finite row
//!   fails every candidate alike.
//! * **Per repeat**, one pass over the permuted rows reduces the `Q`
//!   held-out folds to `(n_t, X̄_t, S_t)`. A fold's training statistics
//!   `(n, X̄, S)` are the merge of the other `Q − 1`; `δ = μ_E − X̄` is the
//!   prior–data mean gap and `e = X̄_t − X̄` the held-out mean's offset.
//! * **Per (repeat, fold)**, `d − 2` Householder reflectors reduce the
//!   whitened training scatter to a tridiagonal `T = PᵀŜP` (none at
//!   `d ≤ 2`), and the same reflectors rotate `δ̂`, `ê` and either the
//!   `n_t ≤ d` centred held-out rows or the held-out scatter `PᵀŜ_tP`.
//!   Every ν₀ shares this reduction, since `Ŝ + sI = P(T + sI)Pᵀ`.
//! * **Per (repeat, fold, ν₀)**, the LDLᵀ of the tridiagonal `T + sI` costs
//!   O(d) and yields six scalars: `ln|M|` (one `ln` of the pivots'
//!   product), `g = δᵀM⁻¹δ`, `tr(M⁻¹S_t)`, `h = δᵀM⁻¹S_tM⁻¹δ`, `eᵀM⁻¹e` and
//!   `eᵀM⁻¹δ`, each a sum weighted by the inverse pivots over the
//!   bidiagonal solves `L⁻¹δ̃` and `L⁻¹ẽ`. The trace and `eᵀM⁻¹e` are kept
//!   as their parts across `M⁻¹δ` (`tr(M⁻¹S_t) − h/g`,
//!   `eᵀM⁻¹e − (eᵀM⁻¹δ)²/g`, the latter a weighted sum of squares with no
//!   cancellation), which the candidate formula needs and which stay
//!   accurate however far the prior mean sits from the data. The trace
//!   costs O(d) per held-out row, or O(d²) from the held-out scatter when
//!   the fold has more than `d` rows. A pivot that is not positive and
//!   finite means `M(ν₀)` is not SPD.
//! * **Per candidate**, the posterior inverse scale differs from `M(ν₀)`
//!   only by the rank-one term `c·δδᵀ`, `c = κ₀n/(κ₀+n)` (Eq. 25), and the
//!   MAP covariance by the scalar `1/(ν₀+n−d)` (Eq. 32), so the matrix
//!   determinant lemma and Sherman–Morrison score each fold in O(1) from
//!   the six scalars. The determinant lemma's `1 + c·g` factors of folds
//!   of one size are multiplied and logged once, so a candidate takes one
//!   `ln` per fold size (two at most, since fold sizes differ by at most
//!   one row) instead of one per fold.
//!
//! One search therefore costs one O(d³) factorisation and `Q·repeats`
//! O(d³) reductions, plus O(d) per (fold, ν₀) and O(1) per (fold,
//! candidate); beyond the O(n·d²) pass that whitens the rows and forms
//! the fold statistics it does not grow with `n`. A reduction costs about
//! as much as four factorisations of `M(ν₀)`, so it pays off wherever at
//! least four ν₀ are feasible: `d < 152` on the shipped grid, nine at the
//! figures' `d = 5`.
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
        let scored = match whiten(early, late_samples) {
            Err(stage) => vec![(f64::NEG_INFINITY, Some(stage)); candidates.len()],
            Ok(white) => {
                let scorer = FoldScorer {
                    white: &white,
                    d,
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
            }
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

/// The late rows and `μ_E` whitened by the one factorisation of a select,
/// `Σ_E = L_E L_Eᵀ`: `x̂ = L_E⁻¹x`.
struct Whitened {
    /// The `n × d` whitened rows, row-major.
    rows: Vec<f64>,
    /// `L_E⁻¹μ_E`.
    prior_mean: Vec<f64>,
    /// `ln|Σ_E|`.
    ln_det: f64,
}

/// Whitens the late rows and `μ_E`, or names the stage that fails every
/// candidate alike: a Σ_E that is not SPD, or a non-finite late row.
fn whiten(early: &MomentEstimate, samples: &Matrix) -> std::result::Result<Whitened, ScoreFailure> {
    let chol = Cholesky::new(&early.cov).map_err(|_| ScoreFailure::Prior)?;
    if !samples.is_finite() {
        return Err(ScoreFailure::Statistics);
    }
    let l = chol.factor().as_slice();
    let mut rows = samples.as_slice().to_vec();
    for row in rows.chunks_exact_mut(early.dim()) {
        forward_solve(l, row);
    }
    let mut prior_mean = early.mean.as_slice().to_vec();
    forward_solve(l, &mut prior_mean);
    Ok(Whitened {
        rows,
        prior_mean,
        ln_det: chol.ln_det(),
    })
}

/// The candidate-independent inputs of the fast scorer, shared read-only
/// by every repeat task.
struct FoldScorer<'a> {
    white: &'a Whitened,
    d: usize,
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

/// `ln Π xᵢ` over positive factors with one `ln`, as long as the running
/// product stays a normal float; a factor that would take it out of that
/// range first moves the product so far into the log. At `d = 999` the
/// pivots' product alone would underflow.
#[derive(Debug, Clone, Copy)]
struct LnProduct {
    product: f64,
    ln: f64,
}

impl LnProduct {
    const ONE: LnProduct = LnProduct {
        product: 1.0,
        ln: 0.0,
    };

    fn mul(&mut self, x: f64) {
        let next = self.product * x;
        if next.is_normal() {
            self.product = next;
        } else {
            self.ln += self.product.ln();
            self.product = x;
        }
    }

    fn ln(self) -> f64 {
        self.ln + self.product.ln()
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

/// Applies the reflector `I − τvvᵀ` to `y`.
fn reflect(y: &mut [f64], v: &[f64], tau: f64) {
    let s = tau * dot(v, y);
    for (yi, &vi) in y.iter_mut().zip(v) {
        *yi -= s * vi;
    }
}

/// `C ← HCH` for the symmetric row-major `d × d` matrix `c`, where `H`
/// is the reflector `I − τvvᵀ` on indices `off..d`, updating rows and
/// columns `lo..d` only (`lo ≤ off`): `p = τCv`, `q = p − ½τ(vᵀp)v` and
/// `C ← C − vqᵀ − qvᵀ`, formed on the lower triangle and mirrored.
fn reflect_both(
    c: &mut [f64],
    d: usize,
    lo: usize,
    off: usize,
    v: &[f64],
    tau: f64,
    p: &mut [f64],
) {
    for i in lo..d {
        p[i] = tau * dot(&c[i * d + off..(i + 1) * d], v);
    }
    let half = 0.5 * tau * dot(v, &p[off..d]);
    for (pi, &vi) in p[off..d].iter_mut().zip(v) {
        *pi -= half * vi;
    }
    let vv = |i: usize| if i < off { 0.0 } else { v[i - off] };
    for i in off..d {
        let (vi, qi) = (v[i - off], p[i]);
        for j in lo..=i {
            let x = c[i * d + j] - (vi * p[j] + qi * vv(j));
            c[i * d + j] = x;
            c[j * d + i] = x;
        }
    }
}

/// The per-task buffers of [`FoldScorer::score_repeat`], allocated once
/// per repeat and reused for every (fold, ν₀).
struct Scratch {
    /// Held-out fold statistics, fold `k` at `k·d` / `k·d²`.
    count: Vec<usize>,
    mean: Vec<f64>,
    scatter: Vec<f64>,
    /// One fold's training mean, and its training scatter, reduced in
    /// place to the tridiagonal `T`.
    train_mean: Vec<f64>,
    tri: Vec<f64>,
    /// `δ` and `e`, rotated to `δ̃ = Pᵀδ̂` and `ẽ = Pᵀê`.
    delta: Vec<f64>,
    gap: Vec<f64>,
    /// The rotated centred held-out rows of a fold with at most `d` of
    /// them, else its rotated held-out scatter `PᵀŜ_tP`.
    held: Vec<f64>,
    /// A Householder vector and its product with the scatter.
    v: Vec<f64>,
    p: Vec<f64>,
    /// Per ν₀: the inverse pivots and multipliers of `T + sI = LDLᵀ`,
    /// `z = L⁻¹δ̃`, `e′ = L⁻¹ẽ` and one more vector.
    inv_piv: Vec<f64>,
    mult: Vec<f64>,
    z: Vec<f64>,
    e: Vec<f64>,
    work: Vec<f64>,
}

impl Scratch {
    fn new(d: usize, q: usize) -> Scratch {
        Scratch {
            count: vec![0; q],
            mean: vec![0.0; q * d],
            scatter: vec![0.0; q * d * d],
            train_mean: vec![0.0; d],
            tri: vec![0.0; d * d],
            delta: vec![0.0; d],
            gap: vec![0.0; d],
            held: vec![0.0; d * d],
            v: vec![0.0; d],
            p: vec![0.0; d],
            inv_piv: vec![0.0; d],
            mult: vec![0.0; d],
            z: vec![0.0; d],
            e: vec![0.0; d],
            work: vec![0.0; d],
        }
    }
}

impl FoldScorer<'_> {
    fn row(&self, i: usize) -> &[f64] {
        &self.white.rows[i * self.d..(i + 1) * self.d]
    }

    /// Scores every candidate (ν-major, like the caller's list) on the
    /// folds of one repeat: mean held-out per-sample log-likelihood, plus
    /// the failing stage on −∞.
    fn score_repeat(&self, order: &[usize]) -> Vec<(f64, Option<ScoreFailure>)> {
        let (d, q) = (self.d, self.q);
        let mut sc = Scratch::new(d, q);
        self.reduce_folds(order, &mut sc);

        // Each fold's scalars per ν₀ (`None` where `M(ν₀)` is not SPD),
        // fold-major. `q = min(Q, n)` with `n ≥ 2` leaves every fold and
        // its training complement non-empty.
        let n = order.len();
        let nv = self.nu_values.len();
        let mut scalars: Vec<Option<FoldScalars>> = Vec::with_capacity(q * nv);
        for t in 0..q {
            let n_train = n - sc.count[t];
            self.reduce_fold(order, t, n_train, &mut sc);
            for &nu0 in self.nu_values {
                scalars.push(self.fold_scalars(nu0, sc.count[t], n_train, &mut sc));
            }
        }
        bmf_obs::counters::CV_FOLD_EVALS.add((q * nv) as u64);

        // Position `i` joins fold `i mod q`, so the first `n mod q` folds
        // hold one row more than the rest: at most two fold sizes, each
        // paying one `ln` per candidate for its folds' `1 + c·g` product.
        let split = n % q;
        let groups = [(0..split, n / q + 1), (split..q, n / q)];
        let nk = self.kappa_grid.len();
        let mut out = Vec::with_capacity(nv * nk);
        for v in 0..nv {
            let at_nu = |t: usize| scalars[t * nv + v];
            if (0..q).any(|t| at_nu(t).is_none()) {
                out.extend((0..nk).map(|_| (f64::NEG_INFINITY, Some(ScoreFailure::Factorisation))));
                continue;
            }
            // The κ₀-free part of −2·(held-out log-likelihood): per fold,
            // `n_t·ln_norm + a·(trace_perp + n_t·gap_perp)`.
            let mut base = 0.0;
            for (folds, n_test) in groups.clone() {
                let n_test = n_test as f64;
                for s in folds.filter_map(at_nu) {
                    base += n_test * s.ln_norm + s.a * (s.trace_perp + n_test * s.gap_perp);
                }
            }
            for &kappa0 in self.kappa_grid {
                let mut sum = base;
                for (folds, n_test) in groups.clone() {
                    if folds.is_empty() {
                        continue;
                    }
                    sum += self.fold_group(folds.filter_map(at_nu), kappa0, n, n_test);
                }
                let total = -0.5 * sum;
                out.push(if total.is_finite() {
                    (total / n as f64, None)
                } else {
                    (f64::NEG_INFINITY, Some(ScoreFailure::Likelihood))
                });
            }
        }
        out
    }

    /// The κ₀-dependent part of −2·(held-out log-likelihood) summed over
    /// folds of `n_test` held-out rows, under the MAP fit of `(κ₀, ν₀)` to
    /// their `n − n_test` training rows.
    ///
    /// With `w = κ₀/(κ₀+n)` and `c = κ₀n/(κ₀+n)` (`n` the training rows
    /// here), the posterior mean is `X̄ + wδ` (Eq. 24) and
    /// `Σ_MAP = (M + c·δδᵀ)/a` (Eq. 25, 32). The determinant lemma gives
    /// `ln|Σ_MAP| = ln|M| + ln(1+cg) − d·ln a`; Sherman–Morrison gives the
    /// summed Mahalanobis term as `a` times
    /// `trace_perp + h·r + n_t·(gap_perp + (gap_dot − wg)²·r)`,
    /// `r = 1/(g(1+cg))`. At `δ = 0` (`g = 0`) the `r` terms vanish. The
    /// folds' `ln(1+cg)` terms share the weight `n_t`, so they cost one
    /// `ln` of their product.
    fn fold_group(
        &self,
        folds: impl Iterator<Item = FoldScalars>,
        kappa0: f64,
        n: usize,
        n_test: usize,
    ) -> f64 {
        let n_train = (n - n_test) as f64;
        let n_test = n_test as f64;
        let w = kappa0 / (kappa0 + n_train);
        let c = w * n_train;
        let mut det = LnProduct::ONE;
        let mut quad = 0.0;
        for s in folds {
            let opc = 1.0 + c * s.g;
            det.mul(opc);
            if s.g > 0.0 {
                let along = s.gap_dot - w * s.g;
                quad += s.a * (s.h + n_test * along * along) / (s.g * opc);
            }
        }
        n_test * det.ln() + quad
    }

    /// One pass over the permuted rows: position `i` joins fold `i mod q`,
    /// whose count, mean and scatter are updated in place (Welford).
    fn reduce_folds(&self, order: &[usize], sc: &mut Scratch) {
        let d = self.d;
        for (i, &row) in order.iter().enumerate() {
            let k = i % self.q;
            let x = self.row(row);
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

    /// Forms held-out fold `t`'s training statistics, `δ`, `e` and
    /// held-out part in whitened coordinates, and reduces the training
    /// scatter to tridiagonal form `T = PᵀŜP` with `d − 2` Householder
    /// reflectors, each applied to `δ`, `e` and the held-out part too.
    fn reduce_fold(&self, order: &[usize], t: usize, n_train: usize, sc: &mut Scratch) {
        let d = self.d;
        self.merge_training(t, n_train, sc);
        let n_test = sc.count[t];
        if n_test <= d {
            let mean = &sc.mean[t * d..(t + 1) * d];
            let rows = order.iter().skip(t).step_by(self.q);
            for (y, &row) in sc.held.chunks_exact_mut(d).zip(rows) {
                for ((yj, &xj), &mj) in y.iter_mut().zip(self.row(row)).zip(mean) {
                    *yj = xj - mj;
                }
            }
        } else {
            sc.held
                .copy_from_slice(&sc.scatter[t * d * d..(t + 1) * d * d]);
        }

        for k in 0..d.saturating_sub(2) {
            let off = k + 1;
            let x0 = sc.tri[off * d + k];
            let tail: f64 = (off + 1..d).map(|i| sc.tri[i * d + k].powi(2)).sum();
            if tail == 0.0 {
                continue;
            }
            let norm = (x0 * x0 + tail).sqrt();
            let alpha = if x0 >= 0.0 { -norm } else { norm };
            let v = &mut sc.v[..d - off];
            v[0] = x0 - alpha;
            for (vi, i) in v[1..].iter_mut().zip(off + 1..d) {
                *vi = sc.tri[i * d + k];
            }
            let tau = 1.0 / (-alpha * v[0]);
            let v = &sc.v[..d - off];
            reflect_both(&mut sc.tri, d, off, off, v, tau, &mut sc.p);
            sc.tri[off * d + k] = alpha;
            sc.tri[k * d + off] = alpha;
            for i in off + 1..d {
                sc.tri[i * d + k] = 0.0;
                sc.tri[k * d + i] = 0.0;
            }
            reflect(&mut sc.delta[off..], v, tau);
            reflect(&mut sc.gap[off..], v, tau);
            if n_test <= d {
                for y in sc.held.chunks_exact_mut(d).take(n_test) {
                    reflect(&mut y[off..], v, tau);
                }
            } else {
                reflect_both(&mut sc.held, d, 0, off, v, tau, &mut sc.p);
            }
        }
    }

    /// Merges every fold but `t` into the training statistics of fold
    /// `t` (its scatter into `sc.tri`), and forms `δ = μ_E − X̄` and
    /// `e = X̄_t − X̄`.
    fn merge_training(&self, t: usize, n_train: usize, sc: &mut Scratch) {
        let d = self.d;
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
        sc.tri.fill(0.0);
        for k in others {
            let nk = sc.count[k] as f64;
            for j in 0..d {
                sc.work[j] = sc.mean[k * d + j] - sc.train_mean[j];
            }
            let scatter = &sc.scatter[k * d * d..(k + 1) * d * d];
            for a in 0..d {
                for b in 0..d {
                    sc.tri[a * d + b] += scatter[a * d + b] + nk * sc.work[a] * sc.work[b];
                }
            }
        }
        for j in 0..d {
            sc.delta[j] = self.white.prior_mean[j] - sc.train_mean[j];
            sc.gap[j] = sc.mean[t * d + j] - sc.train_mean[j];
        }
    }

    /// The six scalars of a fold at `ν₀` from its tridiagonal reduction in
    /// `sc`, through the LDLᵀ of `T + sI`, `s = ν₀ − d`; `None` when a
    /// pivot is not positive and finite (`M(ν₀)` not SPD).
    fn fold_scalars(
        &self,
        nu0: f64,
        n_test: usize,
        n_train: usize,
        sc: &mut Scratch,
    ) -> Option<FoldScalars> {
        let d = self.d;
        let df = d as f64;
        let s = nu0 - df;
        let a = nu0 + n_train as f64 - df;
        let inv_a = 1.0 / a;

        // Pivots `p_i = T_ii + s − l_{i−1}T_{i,i−1}`, multipliers
        // `l_i = T_{i+1,i}/p_i`; `ln|T + sI| − d·ln a` as one `ln`.
        let mut det = LnProduct::ONE;
        let mut carry = 0.0;
        for i in 0..d {
            let piv = sc.tri[i * d + i] + s - carry;
            if !(piv > 0.0 && piv.is_finite()) {
                return None;
            }
            let inv = 1.0 / piv;
            sc.inv_piv[i] = inv;
            det.mul(piv * inv_a);
            if i + 1 < d {
                let beta = sc.tri[(i + 1) * d + i];
                sc.mult[i] = beta * inv;
                carry = sc.mult[i] * beta;
            }
        }

        // z = L⁻¹δ̃ and e′ = L⁻¹ẽ; every quadratic form is Σ(·)(·)/p_i.
        let (mut g, mut gap_dot) = (0.0, 0.0);
        for i in 0..d {
            let (z, e) = if i == 0 {
                (sc.delta[0], sc.gap[0])
            } else {
                let l = sc.mult[i - 1];
                (sc.delta[i] - l * sc.z[i - 1], sc.gap[i] - l * sc.e[i - 1])
            };
            sc.z[i] = z;
            sc.e[i] = e;
            g += z * z * sc.inv_piv[i];
            gap_dot += e * z * sc.inv_piv[i];
        }
        let along = if g > 0.0 { gap_dot / g } else { 0.0 };
        let mut gap_perp = 0.0;
        for i in 0..d {
            let r = sc.e[i] - along * sc.z[i];
            gap_perp += r * r * sc.inv_piv[i];
        }

        // tr(M⁻¹S_t) and h = δ̃ᵀ(T+sI)⁻¹S̃_t(T+sI)⁻¹δ̃. From the rotated
        // rows y: Σ‖L⁻¹y‖²_D and Σ(zᵀD⁻¹L⁻¹y)². From the rotated scatter
        // S̃: the diagonal of L⁻¹S̃L⁻ᵀ by the row recurrence of L⁻¹
        // (`b` the previous row of L⁻¹S̃), and h = wᵀS̃w with
        // w = L⁻ᵀD⁻¹z.
        let (mut trace, mut h) = (0.0, 0.0);
        if n_test <= d {
            for y in sc.held.chunks_exact(d).take(n_test) {
                let (mut prev, mut zy) = (0.0, 0.0);
                for i in 0..d {
                    let yi = if i == 0 {
                        y[0]
                    } else {
                        y[i] - sc.mult[i - 1] * prev
                    };
                    trace += yi * yi * sc.inv_piv[i];
                    zy += sc.z[i] * yi * sc.inv_piv[i];
                    prev = yi;
                }
                h += zy * zy;
            }
        } else {
            let st = &sc.held;
            let b = &mut sc.work;
            b.copy_from_slice(&st[..d]);
            let mut c = st[0];
            trace += c * sc.inv_piv[0];
            for i in 1..d {
                let l = sc.mult[i - 1];
                c = st[i * d + i] - 2.0 * l * b[i] + l * l * c;
                trace += c * sc.inv_piv[i];
                for j in i + 1..d {
                    b[j] = st[i * d + j] - l * b[j];
                }
            }
            let w = &mut sc.e;
            w[d - 1] = sc.z[d - 1] * sc.inv_piv[d - 1];
            for i in (0..d - 1).rev() {
                w[i] = sc.z[i] * sc.inv_piv[i] - sc.mult[i] * w[i + 1];
            }
            for (row, &wi) in st.chunks_exact(d).zip(w.iter()) {
                h += wi * dot(row, w);
            }
        }
        let trace_perp = if g > 0.0 { trace - h / g } else { trace };
        Some(FoldScalars {
            a,
            ln_norm: df * (2.0 * std::f64::consts::PI).ln() + self.white.ln_det + det.ln(),
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

    /// The dense reference for held-out fold 0 of the identity order
    /// (rows `0, q, 2q, …`): `M(ν₀) = S + (ν₀−d)Σ_E` factorised, and
    /// `[ln|M|, g, h, tr(M⁻¹S_t), eᵀM⁻¹δ, eᵀM⁻¹e]` from its solves.
    fn dense_terms(early: &MomentEstimate, rows: &Matrix, q: usize, nu0: f64) -> [f64; 6] {
        let (n, d) = rows.shape();
        let pick = |test: bool| -> Vec<usize> { (0..n).filter(|i| (i % q == 0) == test).collect() };
        let stats = |idx: &[usize]| {
            let m = idx.len() as f64;
            let mean = Vector::from_fn(d, |j| idx.iter().map(|&i| rows[(i, j)]).sum::<f64>() / m);
            let scatter = Matrix::from_fn(d, d, |a, b| {
                idx.iter()
                    .map(|&i| (rows[(i, a)] - mean[a]) * (rows[(i, b)] - mean[b]))
                    .sum()
            });
            (mean, scatter)
        };
        let (train_mean, train_scatter) = stats(&pick(false));
        let (test_mean, test_scatter) = stats(&pick(true));
        let m = Matrix::from_fn(d, d, |a, b| {
            train_scatter[(a, b)] + (nu0 - d as f64) * early.cov[(a, b)]
        });
        let chol = Cholesky::new(&m).unwrap();
        let delta = Vector::from_fn(d, |j| early.mean[j] - train_mean[j]);
        let gap = Vector::from_fn(d, |j| test_mean[j] - train_mean[j]);
        let u = chol.solve_vec(&delta).unwrap();
        let st_u = Vector::from_fn(d, |a| (0..d).map(|b| test_scatter[(a, b)] * u[b]).sum());
        let m_inv_st = chol.solve_mat(&test_scatter).unwrap();
        [
            chol.ln_det(),
            delta.dot(&u).unwrap(),
            u.dot(&st_u).unwrap(),
            (0..d).map(|j| m_inv_st[(j, j)]).sum(),
            gap.dot(&u).unwrap(),
            gap.dot(&chol.solve_vec(&gap).unwrap()).unwrap(),
        ]
    }

    /// The same six terms from the tridiagonal route: whitening, one
    /// Householder reduction of the fold, and the LDLᵀ of `T + sI`.
    fn tridiagonal_terms(early: &MomentEstimate, rows: &Matrix, q: usize, nu0: f64) -> [f64; 6] {
        let (n, d) = rows.shape();
        let white = whiten(early, rows).unwrap();
        let scorer = FoldScorer {
            white: &white,
            d,
            q,
            nu_values: &[nu0],
            kappa_grid: &[1.0],
        };
        let order: Vec<usize> = (0..n).collect();
        let mut sc = Scratch::new(d, q);
        scorer.reduce_folds(&order, &mut sc);
        let (n_test, n_train) = (sc.count[0], n - sc.count[0]);
        scorer.reduce_fold(&order, 0, n_train, &mut sc);
        let s = scorer.fold_scalars(nu0, n_test, n_train, &mut sc).unwrap();
        let df = d as f64;
        [
            s.ln_norm - df * (2.0 * std::f64::consts::PI).ln() + df * s.a.ln(),
            s.g,
            s.h,
            s.trace_perp + s.h / s.g,
            s.gap_dot,
            s.gap_perp + s.gap_dot * s.gap_dot / s.g,
        ]
    }

    #[test]
    fn tridiagonal_route_matches_dense_factorisation() {
        // (d, n): at q = 4, fold 0 holds ⌈n/4⌉ rows. d = 1 and 2 need no
        // reflector; held-out folds of at most d rows take the row route,
        // larger ones the scatter route; (5, 5) and (23, 12) train on 3
        // and 9 rows, fewer than d, so S is rank-deficient there.
        let cases = [
            (1, 4),
            (1, 9),
            (2, 6),
            (2, 12),
            (5, 5),
            (5, 8),
            (5, 40),
            (23, 12),
            (23, 100),
        ];
        let mut r = rng();
        for (d, n) in cases {
            let b = Matrix::from_fn(d, d, |i, j| ((i + 2 * j) % 5) as f64 / 5.0);
            let mut cov = b.mat_mul(&b.transpose()).unwrap();
            for i in 0..d {
                cov[(i, i)] += 1.0;
            }
            let early = MomentEstimate {
                mean: Vector::from_fn(d, |i| 3.0 * if i % 2 == 0 { 1.0 } else { -1.0 }),
                cov: cov.clone(),
            };
            let truth = MultivariateNormal::new(Vector::zeros(d), &cov * 1.5).unwrap();
            let rows = truth.sample_matrix(&mut r, n);
            let nus: Vec<f64> = grid()
                .into_iter()
                .filter(|&nu0| nu0 > d as f64 + 1e-9)
                .collect();
            if d == 23 {
                // The grid's tightest feasibility edge: s = 0.10.
                assert!((nus[0] - 23.0 - 0.10).abs() < 0.005, "{}", nus[0]);
            }
            for nu0 in nus {
                let fast = tridiagonal_terms(&early, &rows, FOLDS, nu0);
                let dense = dense_terms(&early, &rows, FOLDS, nu0);
                let names = ["ln|M|", "g", "h", "trace", "eᵀM⁻¹δ", "eᵀM⁻¹e"];
                for k in 0..6 {
                    // ln|M| is judged on the log's own scale, eᵀM⁻¹δ on
                    // its Cauchy–Schwarz bound √(g·eᵀM⁻¹e).
                    let scale = match k {
                        0 => dense[0].abs().max(1.0),
                        4 => (dense[1] * dense[5]).sqrt(),
                        _ => dense[k].abs(),
                    };
                    assert!(
                        (fast[k] - dense[k]).abs() <= 1e-12 * scale,
                        "d = {d}, n = {n}, nu0 = {nu0}: {} fast {} dense {}",
                        names[k],
                        fast[k],
                        dense[k]
                    );
                }
            }
        }
    }

    #[test]
    fn ln_product_survives_underflow_and_overflow() {
        for (x, count) in [(1e-3, 999), (1e300, 40), (0.37, 5)] {
            let mut p = LnProduct::ONE;
            for _ in 0..count {
                p.mul(x);
            }
            let expected = count as f64 * f64::ln(x);
            assert!(
                (p.ln() - expected).abs() <= 1e-12 * expected.abs(),
                "{x}^{count}"
            );
        }
        let mut p = LnProduct::ONE;
        p.mul(f64::INFINITY);
        assert_eq!(p.ln(), f64::INFINITY);
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
