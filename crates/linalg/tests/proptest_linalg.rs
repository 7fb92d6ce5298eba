//! Property-based tests for the linear-algebra kernel.

use bmf_linalg::{nearest_spd, Cholesky, Matrix, SymmetricEigen, Vector};
use proptest::prelude::*;

/// Strategy: vector of length `n` with entries in a tame range.
fn vec_strategy(n: usize) -> impl Strategy<Value = Vector> {
    proptest::collection::vec(-100.0..100.0f64, n).prop_map(Vector::from)
}

/// Strategy: random SPD matrix `A = B Bᵀ + εI` of size `n`.
fn spd_strategy(n: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-3.0..3.0f64, n * n).prop_map(move |data| {
        let b = Matrix::from_vec(n, n, data).expect("shape matches");
        let mut a = b.mat_mul(&b.transpose()).expect("square product");
        for i in 0..n {
            a[(i, i)] += 0.5;
        }
        a
    })
}

/// Strategy: random general matrix of size `r × c`.
fn mat_strategy(r: usize, c: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-10.0..10.0f64, r * c)
        .prop_map(move |data| Matrix::from_vec(r, c, data).expect("shape matches"))
}

proptest! {
    #[test]
    fn dot_is_commutative(a in vec_strategy(6), b in vec_strategy(6)) {
        let ab = a.dot(&b).unwrap();
        let ba = b.dot(&a).unwrap();
        prop_assert!((ab - ba).abs() <= 1e-9 * (1.0 + ab.abs()));
    }

    #[test]
    fn triangle_inequality(a in vec_strategy(5), b in vec_strategy(5)) {
        prop_assert!((&a + &b).norm2() <= a.norm2() + b.norm2() + 1e-9);
    }

    #[test]
    fn transpose_involution(m in mat_strategy(4, 6)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_associative(
        a in mat_strategy(3, 4),
        b in mat_strategy(4, 2),
        c in mat_strategy(2, 5),
    ) {
        let left = a.mat_mul(&b).unwrap().mat_mul(&c).unwrap();
        let right = a.mat_mul(&b.mat_mul(&c).unwrap()).unwrap();
        prop_assert!(left.max_abs_diff(&right).unwrap() < 1e-6);
    }

    #[test]
    fn cholesky_round_trip(a in spd_strategy(4)) {
        let chol = Cholesky::new(&a).unwrap();
        let l = chol.factor();
        let back = l.mat_mul(&l.transpose()).unwrap();
        let scale = a.norm_max().max(1.0);
        prop_assert!(a.max_abs_diff(&back).unwrap() < 1e-9 * scale);
    }

    #[test]
    fn cholesky_solve_is_consistent(a in spd_strategy(4), b in vec_strategy(4)) {
        let chol = Cholesky::new(&a).unwrap();
        let x = chol.solve_vec(&b).unwrap();
        let r = a.mat_vec(&x).unwrap();
        let scale = b.norm2().max(1.0) * a.norm_max().max(1.0);
        prop_assert!(r.max_abs_diff(&b).unwrap() < 1e-7 * scale);
    }

    #[test]
    fn cholesky_lndet_matches_eigen(a in spd_strategy(3)) {
        // ln|A| = Σ ln λᵢ; Jacobi shares no arithmetic with Cholesky.
        let chol_lndet = Cholesky::new(&a).unwrap().ln_det();
        let eig = SymmetricEigen::new(&a).unwrap();
        let eig_lndet: f64 = eig.eigenvalues().iter().map(|l| l.ln()).sum();
        prop_assert!((chol_lndet - eig_lndet).abs() < 1e-8 * (1.0 + chol_lndet.abs()));
    }

    #[test]
    fn eigen_reconstruction(a in spd_strategy(4)) {
        let eig = SymmetricEigen::new(&a).unwrap();
        let back = eig.reconstruct().unwrap();
        let scale = a.norm_max().max(1.0);
        prop_assert!(a.max_abs_diff(&back).unwrap() < 1e-8 * scale);
        // SPD input → strictly positive spectrum
        prop_assert!(eig.min_eigenvalue() > 0.0);
    }

    #[test]
    fn eigen_trace_equals_eigenvalue_sum(a in spd_strategy(5)) {
        let eig = SymmetricEigen::new(&a).unwrap();
        let tr = a.trace().unwrap();
        let sum = eig.eigenvalues().sum();
        prop_assert!((tr - sum).abs() < 1e-8 * (1.0 + tr.abs()));
    }

    #[test]
    fn nearest_spd_is_factorisable(m in mat_strategy(4, 4)) {
        // Symmetrise an arbitrary matrix, project, factorise.
        let mut sym = m.clone();
        sym.symmetrize().unwrap();
        let spd = nearest_spd(&sym, 1e-8).unwrap();
        prop_assert!(Cholesky::new(&spd).is_ok());
    }

    #[test]
    fn mahalanobis_identity_is_euclidean(x in vec_strategy(4)) {
        let chol = Cholesky::new(&Matrix::identity(4)).unwrap();
        let d2 = chol.mahalanobis_sq(&x, &Vector::zeros(4)).unwrap();
        let n2 = x.norm2();
        prop_assert!((d2 - n2 * n2).abs() < 1e-6 * (1.0 + n2 * n2));
    }

    #[test]
    fn outer_product_trace_is_norm_sq(v in vec_strategy(5)) {
        let o = Matrix::outer(&v);
        let tr = o.trace().unwrap();
        let n2 = v.norm2();
        prop_assert!((tr - n2 * n2).abs() < 1e-8 * (1.0 + n2 * n2));
    }
}
