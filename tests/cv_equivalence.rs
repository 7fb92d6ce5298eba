//! Equivalence tests for the fast CV scoring path against the naive
//! oracle.
//!
//! The fast path (per-fold sufficient statistics scored through the
//! determinant lemma and Sherman–Morrison, see `bmf_core::cv`) reaches
//! the naive per-candidate refit's numbers by different arithmetic, so
//! bit-identity between the two is not achievable — the contract is:
//!
//! * every grid score agrees to a 1e-10 relative tolerance (−∞ scores
//!   must coincide exactly);
//! * the selected `(κ₀, ν₀)` agrees whenever the naive score surface has
//!   a non-degenerate argmax (margin > 1e-8);
//! * the fast path itself stays **bit-identical** across 1, 2 and 7
//!   threads (the per-repeat work split must not perturb the reduction
//!   order).
//!
//! Cases deliberately include ν₀ just above the `ν₀ > d` feasibility
//! floor, infeasible ν₀ ≤ d values, `n < Q` (shrunken fold counts),
//! unequal folds (`n mod Q ≠ 0`) with both fewer and more held-out rows
//! than `d` (a rank-deficient and a full-rank held-out scatter), and a
//! prior mean up to 30σ away from the data.

use bmf_ams::core::cv::CrossValidation;
use bmf_ams::core::MomentEstimate;
use bmf_ams::linalg::{Matrix, Vector};
use bmf_ams::stats::MultivariateNormal;
use proptest::prelude::*;
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

/// Selects the grid values whose bit is set in `mask` (non-empty by
/// construction since masks are drawn from 1..16).
fn masked(all: &[f64; 4], mask: u8) -> Vec<f64> {
    all.iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, &v)| v)
        .collect()
}

/// The per-case body of `fast_path_matches_naive_oracle` for a feasible
/// grid: fast bit-identity across threads, grid-score agreement to
/// 1e-10, and argmax agreement away from near-ties.
fn check_fast_vs_naive(
    fast_cv: &CrossValidation,
    naive_cv: &CrossValidation,
    early: &MomentEstimate,
    late: &Matrix,
    seed: u64,
) {
    let naive = naive_cv.select_seeded(early, late, seed, 1).expect("naive");
    let reference = fast_cv.select_seeded(early, late, seed, 1).expect("fast");
    for &t in &[2usize, 7] {
        let sel = fast_cv.select_seeded(early, late, seed, t).expect("fast");
        assert_eq!(
            sel, reference,
            "fast path must be bit-identical at {t} threads"
        );
    }

    assert_eq!(reference.grid.len(), naive.grid.len());
    let mut best_naive = f64::NEG_INFINITY;
    let mut second_naive = f64::NEG_INFINITY;
    for (f, nv) in reference.grid.iter().zip(naive.grid.iter()) {
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
        } else if nv.score > second_naive {
            second_naive = nv.score;
        }
    }
    // The argmax must agree except on a near-tied surface, where a
    // ≤1e-10 perturbation may legitimately flip it.
    if best_naive - second_naive > 1e-8 {
        assert_eq!(reference.kappa0.to_bits(), naive.kappa0.to_bits());
        assert_eq!(reference.nu0.to_bits(), naive.nu0.to_bits());
    }
}

proptest! {
    /// Fast vs naive: same grids, same seed — scores within 1e-10, same
    /// argmax away from ties, and the fast path bit-identical at 1/2/7
    /// threads. d ∈ {1, 3, 5} and Q ∈ {2, 4, 5}; ν₀ = d + 0.02 sits just
    /// above the feasibility floor and ν₀ = d − 0.5 below it; n runs from
    /// 2 (n < Q) to about 300, never a multiple of Q, so the held-out
    /// folds are unequal and hold fewer or more rows than d.
    #[test]
    fn fast_path_matches_naive_oracle(
        seed in 0u64..10_000,
        d_pick in 0usize..3,
        q_pick in 0usize..3,
        ln_n in 0.7f64..5.7,
        gap in 0.0f64..30.0,
        kmask in 1u8..16,
        nmask in 1u8..16,
    ) {
        let d = [1, 3, 5][d_pick];
        let q = [2, 4, 5][q_pick];
        // Log-uniform over [2, 300): small folds are as common as large.
        let n_pick = (ln_n.exp() as usize).max(2);
        let n = if n_pick.is_multiple_of(q) { n_pick + 1 } else { n_pick };
        let df = d as f64;
        let kappa = masked(&[0.7, 4.67, 55.0, 900.0], kmask);
        let nu = masked(&[df - 0.5, df + 0.02, 12.0, 420.0], nmask);
        let (early, late) = synthetic(d, n, seed ^ 0xC0FE, gap);
        let fast_cv = CrossValidation::with_repeats(kappa, nu, q, 2).expect("cv");
        let naive_cv = fast_cv.clone().with_naive_scoring(true);

        if fast_cv.feasible_candidate_count(d) == 0 {
            // Only the infeasible ν₀ survived the mask: both paths must
            // reject the grid (and blame the grid, not scoring).
            for cv in [&fast_cv, &naive_cv] {
                let err = cv.select_seeded(&early, &late, seed, 1).expect_err("infeasible");
                prop_assert!(err.to_string().contains("no feasible"));
            }
        } else {
            check_fast_vs_naive(&fast_cv, &naive_cv, &early, &late, seed);
        }
    }

    /// The refined (coarse + zoom) search inherits the oracle agreement:
    /// both paths pick the same hyper-parameters on a clean surface.
    #[test]
    fn refined_search_agrees_with_naive_oracle(
        seed in 0u64..2_000,
    ) {
        let (early, late) = synthetic(2, 16, seed ^ 0x5EED, 0.0);
        let cv = CrossValidation::with_repeats(vec![1.0, 100.0], vec![4.0, 400.0], 2, 2)
            .expect("cv");
        let fast = cv.select_refined_seeded(&early, &late, 3, seed, 2).expect("fast");
        let naive = cv
            .clone()
            .with_naive_scoring(true)
            .select_refined_seeded(&early, &late, 3, seed, 2)
            .expect("naive");
        prop_assert_eq!(fast.grid.len(), naive.grid.len());
        prop_assert!((fast.score - naive.score).abs() <= 1e-8 * naive.score.abs().max(1.0));
    }
}

/// Regression: when every candidate fails to score (all-NaN late
/// samples), the error must name the failing stage instead of
/// misdiagnosing a perfectly feasible grid.
#[test]
fn all_nan_samples_error_names_scoring_stage_not_grid() {
    let (early, _) = synthetic(2, 8, 1, 0.0);
    let late = Matrix::from_fn(8, 2, |_, _| f64::NAN);
    let cv = CrossValidation::new(vec![1.0, 10.0], vec![5.0, 50.0], 4).unwrap();
    for naive in [false, true] {
        let err = cv
            .clone()
            .with_naive_scoring(naive)
            .select_seeded(&early, &late, 3, 1)
            .unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("failed to score"),
            "naive = {naive}: expected a scoring diagnosis, got: {msg}"
        );
        assert!(
            msg.contains("failing stage"),
            "naive = {naive}: expected the failing stage to be named, got: {msg}"
        );
        assert!(
            !msg.contains("no feasible"),
            "naive = {naive}: must not blame a feasible grid, got: {msg}"
        );
    }
}
