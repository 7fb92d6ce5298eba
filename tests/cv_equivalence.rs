//! Equivalence tests for the fast CV scoring path against the naive
//! oracle.
//!
//! The oracle below reads the paper's procedure (§4.2) literally on the
//! public estimator API: per candidate × repeat × fold it refits the MAP
//! estimator on the training folds and scores the held-out rows under the
//! fitted Gaussian, with the folds the library draws. The fast path
//! (per-fold sufficient statistics in coordinates whitened by Σ_E, one
//! tridiagonal reduction per fold, scored through the determinant lemma
//! and Sherman–Morrison, see `bmf_core::cv`) reaches the same numbers by
//! different arithmetic, so bit-identity between the two is not
//! achievable — the contract is:
//!
//! * every grid score agrees to a 1e-10 relative tolerance (−∞ scores
//!   must coincide exactly);
//! * the selected `(κ₀, ν₀)` agrees whenever the naive score surface has
//!   a non-degenerate argmax (margin > 1e-8);
//! * the fast path itself stays **bit-identical** across 1, 2 and 7
//!   threads (the per-repeat work split must not perturb the reduction
//!   order).
//!
//! Every case runs the grid the library ships: 12 × 12 log-spaced over
//! `[1, 1000]`, Q = 4, 8 repeats. Cases deliberately include ν₀ just
//! above the `ν₀ > d` feasibility floor (the grid's ν₀ = 23.10 at d = 23
//! leaves `M(ν₀) = S + 0.10·Σ_E`), infeasible ν₀ ≤ d values, `n < Q`
//! (shrunken fold counts), unequal folds (`n mod Q ≠ 0`) with both fewer
//! and more held-out rows than `d` (a rank-deficient and a full-rank
//! held-out scatter), a prior mean up to 30σ away from the data, the
//! figures' d = 5 at n = 8, and a Σ_E with condition number 1e6.

use bmf_ams::core::cv::{CrossValidation, CvGridPoint, FOLDS, REPEATS};
use bmf_ams::core::map::BmfEstimator;
use bmf_ams::core::parallel::{derive_seed, streams};
use bmf_ams::core::prior::NormalWishartPrior;
use bmf_ams::core::MomentEstimate;
use bmf_ams::linalg::{Matrix, Vector};
use bmf_ams::stats::MultivariateNormal;
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Early moments and `n` late samples drawn around a zero mean. The
/// early mean sits `gap` standard deviations off the truth in every
/// coordinate (alternating sign), on top of a small fixed offset.
fn synthetic(d: usize, n: usize, seed: u64, gap: f64) -> (MomentEstimate, Matrix) {
    let b = Matrix::from_fn(d, d, |i, j| ((i + 2 * j) % 5) as f64 / 5.0);
    let mut cov = b.mat_mul(&b.transpose()).expect("square");
    for i in 0..d {
        cov[(i, i)] += 1.0;
    }
    with_covariance(cov, n, seed, gap)
}

/// [`synthetic`] around a given covariance, shared by the prior and the
/// truth.
fn with_covariance(cov: Matrix, n: usize, seed: u64, gap: f64) -> (MomentEstimate, Matrix) {
    let d = cov.nrows();
    let sign = |i: usize| if i.is_multiple_of(2) { 1.0 } else { -1.0 };
    let early = MomentEstimate {
        mean: Vector::from_fn(d, |i| {
            0.2 * (i as f64 + 1.0) + sign(i) * gap * cov[(i, i)].sqrt()
        }),
        cov: cov.clone(),
    };
    let truth = MultivariateNormal::new(Vector::zeros(d), cov).expect("spd");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let samples = truth.sample_matrix(&mut rng, n);
    (early, samples)
}

/// The paper's candidate values on each axis, computed as the library
/// documents them: 12 points log-spaced over `[1, 1000]`.
fn paper_grid() -> Vec<f64> {
    let (lo, hi) = (1.0_f64.ln(), 1000.0_f64.ln());
    (0..12)
        .map(|k| (lo + (hi - lo) * k as f64 / 11.0).exp())
        .collect()
}

/// The naive oracle's grid for `select_seeded(early, late, seed, _)`:
/// every feasible `(κ₀, ν₀)` of [`paper_grid`] in the library's order
/// (ν₀ major), scored by refitting per candidate × repeat × fold.
///
/// Repeat `rep` shuffles the row indices with the library's seed
/// `derive_seed(seed, CV_FOLD_SHUFFLE, rep)`; position `i` of the shuffle
/// goes to fold `i mod Q` (`Q` capped at `n`). A fold's training matrix
/// stacks the other folds in fold order. The score is the mean held-out
/// log-likelihood per row over the folds, averaged over the repeats; any
/// failing fit or likelihood makes it −∞.
fn naive_grid(early: &MomentEstimate, late: &Matrix, seed: u64) -> Vec<CvGridPoint> {
    let (n, d) = late.shape();
    let q = FOLDS.min(n);
    let rows = |idx: &[usize]| Matrix::from_fn(idx.len(), d, |i, j| late[(idx[i], j)]);
    // Per repeat, each fold's (training, held-out) rows.
    let repeats: Vec<Vec<(Matrix, Matrix)>> = (0..REPEATS)
        .map(|rep| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(derive_seed(
                seed,
                streams::CV_FOLD_SHUFFLE,
                rep as u64,
            ));
            let mut order: Vec<usize> = (0..n).collect();
            order.shuffle(&mut rng);
            let fold = |k: usize| order.iter().skip(k).step_by(q).copied();
            (0..q)
                .map(|k| {
                    let train: Vec<usize> = (0..q).filter(|&f| f != k).flat_map(fold).collect();
                    let test: Vec<usize> = fold(k).collect();
                    (rows(&train), rows(&test))
                })
                .collect()
        })
        .collect();
    let repeat_score = |kappa0: f64, nu0: f64, folds: &[(Matrix, Matrix)]| -> Option<f64> {
        let prior = NormalWishartPrior::from_early_moments(early, kappa0, nu0).ok()?;
        let estimator = BmfEstimator::new(prior).ok()?;
        let (mut total, mut count) = (0.0, 0);
        for (train, test) in folds {
            let map = estimator.estimate(train).ok()?.map;
            total += MultivariateNormal::new(map.mean, map.cov)
                .ok()?
                .ln_likelihood(test)
                .ok()?;
            count += test.nrows();
        }
        Some(total / count as f64)
    };
    let grid = paper_grid();
    let nu_feasible = grid.iter().filter(|&&nu0| nu0 > d as f64 + 1e-9);
    nu_feasible
        .flat_map(|&nu0| grid.iter().map(move |&kappa0| (kappa0, nu0)))
        .map(|(kappa0, nu0)| {
            let mut score = 0.0;
            for folds in &repeats {
                score += repeat_score(kappa0, nu0, folds).unwrap_or(f64::NEG_INFINITY)
                    / repeats.len() as f64;
            }
            CvGridPoint { kappa0, nu0, score }
        })
        .collect()
}

/// The per-case body of the oracle tests: fast bit-identity across
/// threads, grid-score agreement to 1e-10, and argmax agreement away from
/// near-ties.
fn check_fast_vs_naive(early: &MomentEstimate, late: &Matrix, seed: u64) {
    let cv = CrossValidation;
    let naive = naive_grid(early, late, seed);
    let reference = cv.select_seeded(early, late, seed, 1).expect("fast");
    for &t in &[2usize, 7] {
        let sel = cv.select_seeded(early, late, seed, t).expect("fast");
        assert_eq!(
            sel, reference,
            "fast path must be bit-identical at {t} threads"
        );
    }

    assert_eq!(reference.grid.len(), naive.len());
    let mut best_naive = f64::NEG_INFINITY;
    let mut second_naive = f64::NEG_INFINITY;
    let mut argmax_naive = None;
    for (f, nv) in reference.grid.iter().zip(naive.iter()) {
        assert_eq!(f.kappa0.to_bits(), nv.kappa0.to_bits());
        assert_eq!(f.nu0.to_bits(), nv.nu0.to_bits());
        if nv.score.is_finite() {
            let tol = 1e-10 * nv.score.abs().max(1.0);
            assert!(
                (f.score - nv.score).abs() <= tol,
                "grid point ({}, {}): fast {} vs naive {}",
                f.kappa0,
                f.nu0,
                f.score,
                nv.score
            );
        } else {
            assert_eq!(
                f.score.to_bits(),
                nv.score.to_bits(),
                "non-finite scores must coincide at ({}, {})",
                f.kappa0,
                f.nu0
            );
        }
        if nv.score > best_naive {
            second_naive = best_naive;
            best_naive = nv.score;
            argmax_naive = Some(nv);
        } else if nv.score > second_naive {
            second_naive = nv.score;
        }
    }
    // The argmax must agree except on a near-tied surface, where a
    // ≤1e-10 perturbation may legitimately flip it.
    if best_naive - second_naive > 1e-8 {
        let naive = argmax_naive.expect("a finite naive score");
        assert_eq!(reference.kappa0.to_bits(), naive.kappa0.to_bits());
        assert_eq!(reference.nu0.to_bits(), naive.nu0.to_bits());
    }
}

proptest! {
    /// Fast vs naive on the shipped grid, same seed: scores within 1e-10,
    /// same argmax away from ties, and the fast path bit-identical at
    /// 1/2/7 threads. At d ∈ {1, 3, 6} the lowest feasible ν₀ (1.87,
    /// 3.51, 6.58) sits 0.87, 0.51 and 0.58 above d, and the lower ν₀
    /// are infeasible; n runs from 2 (n < Q) to 48, never a multiple of
    /// Q, so the held-out folds are unequal and hold fewer or more rows
    /// than d.
    #[test]
    fn fast_path_matches_naive_oracle(
        seed in 0u64..10_000,
        d_pick in 0usize..3,
        n_pick in 2usize..48,
        gap in 0.0f64..30.0,
    ) {
        let d = [1, 3, 6][d_pick];
        let n = if n_pick.is_multiple_of(FOLDS) { n_pick + 1 } else { n_pick };
        let (early, late) = synthetic(d, n, seed ^ 0xC0FE, gap);
        check_fast_vs_naive(&early, &late, seed);
    }
}

/// A fixed d = 2 case beside the proptest's d ∈ {1, 3, 6}: a prior mean
/// and covariance both off the data, and n = 12 in four folds.
#[test]
fn fixed_d2_grid_matches_naive_oracle() {
    let truth = MultivariateNormal::new(
        Vector::zeros(2),
        Matrix::from_rows(&[&[1.0, 0.5], &[0.5, 1.0]]).unwrap(),
    )
    .unwrap();
    let early = MomentEstimate {
        mean: Vector::from_slice(&[0.4, -0.2]),
        cov: truth.cov() * 1.7,
    };
    let late = truth.sample_matrix(&mut rand::rngs::StdRng::seed_from_u64(99), 12);
    check_fast_vs_naive(&early, &late, 7);
}

/// The grid's tightest feasibility edge: at d = 23 its ν₀ = 23.10 leaves
/// `M(ν₀) = S + 0.10·Σ_E`, with a prior mean 30σ off and held-out folds
/// of about 10 rows, fewer than d.
#[test]
fn d23_feasibility_edge_matches_naive_oracle() {
    let (early, late) = synthetic(23, 41, 23, 30.0);
    check_fast_vs_naive(&early, &late, 23);
}

/// Many rows: d = 5 and n = 150, held-out folds of 37 and 38 rows.
#[test]
fn d5_n150_matches_naive_oracle() {
    let (early, late) = synthetic(5, 150, 5, 2.0);
    check_fast_vs_naive(&early, &late, 5);
}

/// The figures' dimension and headline sample count: d = 5 and n = 8,
/// so every held-out fold has two rows and trains on six, with the prior
/// mean 30σ off.
#[test]
fn d5_n8_far_prior_matches_naive_oracle() {
    let (early, late) = synthetic(5, 8, 58, 30.0);
    check_fast_vs_naive(&early, &late, 58);
}

/// The fast path whitens every row by Σ_E before anything else, so Σ_E's
/// conditioning reaches every score. Here cond(Σ_E) = 1e6 at d = 5: the
/// eigenvalues run from 1 down to 1e-6 over a rotated basis. At n = 8, 13
/// and 40 the held-out folds are equal, unequal, and larger than d.
#[test]
fn ill_conditioned_prior_covariance_matches_naive_oracle() {
    let d = 5;
    // A Householder reflector I − 2uuᵀ/uᵀu rotates the eigenbasis off the
    // axes; the eigenvalues are log-spaced over [1e-6, 1].
    let u: Vec<f64> = (0..d).map(|i| 1.0 + i as f64).collect();
    let uu: f64 = u.iter().map(|x| x * x).sum();
    let basis = Matrix::from_fn(d, d, |i, j| {
        f64::from(u8::from(i == j)) - 2.0 * u[i] * u[j] / uu
    });
    let lambda = Matrix::from_fn(d, d, |i, j| {
        if i == j {
            1e-6_f64.powf(i as f64 / (d - 1) as f64)
        } else {
            0.0
        }
    });
    let cov = basis
        .mat_mul(&lambda)
        .and_then(|m| m.mat_mul(&basis.transpose()))
        .expect("square");
    let cov = Matrix::from_fn(d, d, |i, j| 0.5 * (cov[(i, j)] + cov[(j, i)]));
    for n in [8, 13, 40] {
        let (early, late) = with_covariance(cov.clone(), n, 1_000_000 + n as u64, 1.0);
        check_fast_vs_naive(&early, &late, n as u64);
    }
}

/// Regression: when every candidate fails to score (all-NaN late
/// samples), the error must name the failing stage instead of
/// misdiagnosing a perfectly feasible grid.
#[test]
fn all_nan_samples_error_names_scoring_stage_not_grid() {
    let (early, _) = synthetic(2, 8, 1, 0.0);
    let late = Matrix::from_fn(8, 2, |_, _| f64::NAN);
    let msg = CrossValidation
        .select_seeded(&early, &late, 3, 1)
        .unwrap_err()
        .to_string();
    assert!(
        msg.contains("failed to score"),
        "expected a scoring diagnosis, got: {msg}"
    );
    assert!(
        msg.contains("failing stage"),
        "expected the failing stage to be named, got: {msg}"
    );
    assert!(
        !msg.contains("no feasible"),
        "must not blame a feasible grid, got: {msg}"
    );
    // The oracle reaches the same verdict: no finite score anywhere.
    assert!(naive_grid(&early, &late, 3)
        .iter()
        .all(|p| p.score == f64::NEG_INFINITY));
}
