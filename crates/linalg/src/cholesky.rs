//! Cholesky factorisation of symmetric positive-definite matrices.

use crate::{LinalgError, Matrix, Result, Vector};

/// Cholesky factorisation `A = L Lᵀ` of a symmetric positive-definite matrix.
///
/// The factorisation is the workhorse of this project: it powers Gaussian
/// log-densities (via the log-determinant), SPD solves and inverses (for the
/// precision/covariance conversions in the BMF estimator) and the colouring
/// transform `x = μ + L z` used by the multivariate-normal and Wishart
/// samplers.
///
/// # Example
///
/// ```
/// use bmf_linalg::{Cholesky, Matrix, Vector};
///
/// # fn main() -> Result<(), bmf_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]])?;
/// let chol = Cholesky::new(&a)?;
/// assert!((chol.det() - 8.0).abs() < 1e-12);
/// let x = chol.solve_vec(&Vector::from_slice(&[8.0, 7.0]))?;
/// assert!((x[0] - 1.25).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    /// Lower-triangular factor, stored densely (upper part zero).
    l: Matrix,
}

impl Cholesky {
    /// Factorises a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read; a small asymmetry in the upper
    /// triangle is therefore harmless.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] for rectangular input.
    /// * [`LinalgError::NotPositiveDefinite`] when a pivot is not strictly
    ///   positive (the matrix is indefinite or singular).
    pub fn new(a: &Matrix) -> Result<Self> {
        bmf_obs::counters::CHOLESKY_CALLS.incr();
        let _timer = bmf_obs::histograms::CHOLESKY_NS.timer();
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        let n = a.nrows();
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        let mut l = Matrix::zeros(n, n);
        for j in 0..n {
            let mut diag = a[(j, j)];
            for k in 0..j {
                diag -= l[(j, k)] * l[(j, k)];
            }
            if !(diag > 0.0) || !diag.is_finite() {
                return Err(LinalgError::NotPositiveDefinite {
                    pivot: j,
                    value: diag,
                });
            }
            let ljj = diag.sqrt();
            l[(j, j)] = ljj;
            for i in (j + 1)..n {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = s / ljj;
            }
        }
        Ok(Cholesky { l })
    }

    /// Dimension of the factorised matrix.
    pub fn dim(&self) -> usize {
        self.l.nrows()
    }

    /// Borrows the lower-triangular factor `L`.
    pub fn factor(&self) -> &Matrix {
        &self.l
    }

    /// Natural log of the determinant of `A` (`2 Σ ln Lᵢᵢ`).
    ///
    /// Computed in the log domain, so it stays finite even when `det(A)`
    /// would underflow — important for high-dimensional Gaussian densities.
    pub fn ln_det(&self) -> f64 {
        (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }

    /// Determinant of `A`.
    pub fn det(&self) -> f64 {
        self.ln_det().exp()
    }

    /// Solves `L y = b` (forward substitution).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when `b.len() != dim()`.
    pub fn solve_lower(&self, b: &Vector) -> Result<Vector> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "solve_lower",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        let mut y = Vector::zeros(n);
        for i in 0..n {
            let mut s = b[i];
            for k in 0..i {
                s -= self.l[(i, k)] * y[k];
            }
            y[i] = s / self.l[(i, i)];
        }
        Ok(y)
    }

    /// Solves `Lᵀ x = y` (backward substitution).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when `y.len() != dim()`.
    pub fn solve_upper_t(&self, y: &Vector) -> Result<Vector> {
        let n = self.dim();
        if y.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "solve_upper_t",
                lhs: (n, n),
                rhs: (y.len(), 1),
            });
        }
        let mut x = Vector::zeros(n);
        for i in (0..n).rev() {
            let mut s = y[i];
            for k in (i + 1)..n {
                s -= self.l[(k, i)] * x[k];
            }
            x[i] = s / self.l[(i, i)];
        }
        Ok(x)
    }

    /// Solves `A x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when `b.len() != dim()`.
    pub fn solve_vec(&self, b: &Vector) -> Result<Vector> {
        let y = self.solve_lower(b)?;
        self.solve_upper_t(&y)
    }

    /// Solves `A X = B` column by column.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when `B.nrows() != dim()`.
    pub fn solve_mat(&self, b: &Matrix) -> Result<Matrix> {
        let n = self.dim();
        if b.nrows() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "solve_mat",
                lhs: (n, n),
                rhs: b.shape(),
            });
        }
        let mut out = Matrix::zeros(n, b.ncols());
        for j in 0..b.ncols() {
            let x = self.solve_vec(&b.col_vec(j))?;
            for i in 0..n {
                out[(i, j)] = x[i];
            }
        }
        Ok(out)
    }

    /// Inverse of `A`.
    ///
    /// Prefer [`Cholesky::solve_vec`]/[`Cholesky::solve_mat`] when only the
    /// action of `A⁻¹` is needed; the explicit inverse is exposed because the
    /// BMF equations manipulate precision matrices directly.
    ///
    /// # Errors
    ///
    /// Propagates dimension errors from the internal solves (unreachable for
    /// a well-formed factorisation).
    pub fn inverse(&self) -> Result<Matrix> {
        let mut inv = self.solve_mat(&Matrix::identity(self.dim()))?;
        // Enforce the symmetry that exact arithmetic would give.
        inv.symmetrize()?;
        Ok(inv)
    }

    /// Squared Mahalanobis distance `(x-μ)ᵀ A⁻¹ (x-μ)`.
    ///
    /// # Errors
    ///
    /// Returns a dimension error when `x` and `mu` have the wrong length.
    pub fn mahalanobis_sq(&self, x: &Vector, mu: &Vector) -> Result<f64> {
        if x.len() != mu.len() {
            return Err(LinalgError::DimensionMismatch {
                op: "mahalanobis_sq",
                lhs: (x.len(), 1),
                rhs: (mu.len(), 1),
            });
        }
        let diff = x - mu;
        let y = self.solve_lower(&diff)?;
        Ok(y.dot(&y).expect("same length by construction"))
    }

    /// Factorisation of the rank-one update `A + v vᵀ` in O(d²), reusing
    /// this factor instead of refactorising from scratch (O(d³)).
    ///
    /// This is the hot-path primitive behind the CV fast scorer: across
    /// the κ₀ axis of the hyper-parameter grid the posterior inverse
    /// scale changes only by a scalar-weighted outer product of the
    /// prior–data mean gap, so each candidate is one rank-one update of
    /// a per-fold base factor. The algorithm is the classical LINPACK
    /// `dchud` sweep of Givens-like rotations applied to the rows of `L`.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::DimensionMismatch`] when `v.len() != dim()`.
    /// * [`LinalgError::NotPositiveDefinite`] when the updated pivot is
    ///   not finite (overflow from extreme inputs; a true update of an
    ///   SPD matrix cannot lose definiteness).
    ///
    /// # Example
    ///
    /// ```
    /// use bmf_linalg::{Cholesky, Matrix, Vector};
    ///
    /// # fn main() -> Result<(), bmf_linalg::LinalgError> {
    /// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]])?;
    /// let v = Vector::from_slice(&[1.0, -2.0]);
    /// let fast = Cholesky::new(&a)?.rank1_update(&v)?;
    /// let mut updated = a.clone();
    /// updated += &Matrix::outer(&v);
    /// let direct = Cholesky::new(&updated)?;
    /// assert!(fast.factor().max_abs_diff(direct.factor())? < 1e-12);
    /// # Ok(())
    /// # }
    /// ```
    pub fn rank1_update(&self, v: &Vector) -> Result<Cholesky> {
        bmf_obs::counters::CHOLESKY_RANK1_UPDATES.incr();
        let n = self.dim();
        if v.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "rank1_update",
                lhs: (n, n),
                rhs: (v.len(), 1),
            });
        }
        let mut l = self.l.clone();
        let mut x = v.clone();
        for k in 0..n {
            let lkk = l[(k, k)];
            let xk = x[k];
            let r = lkk.hypot(xk);
            if !(r > 0.0) || !r.is_finite() {
                return Err(LinalgError::NotPositiveDefinite { pivot: k, value: r });
            }
            let c = r / lkk;
            let s = xk / lkk;
            l[(k, k)] = r;
            for i in (k + 1)..n {
                l[(i, k)] = (l[(i, k)] + s * x[i]) / c;
                x[i] = c * x[i] - s * l[(i, k)];
            }
        }
        Ok(Cholesky { l })
    }

    /// Factorisation of the scaled matrix `α A` in O(d²): the factor of
    /// `α A` is `√α L`, so no refactorisation is needed.
    ///
    /// Together with [`Cholesky::rank1_update`] this covers the CV grid's
    /// rank structure: across the ν₀ axis the MAP covariance is a
    /// scalar-rescaled version of the posterior inverse scale.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotPositiveDefinite`] when `α` is not
    /// strictly positive and finite (the scaled matrix would not be SPD).
    pub fn scaled(&self, alpha: f64) -> Result<Cholesky> {
        if !(alpha > 0.0) || !alpha.is_finite() {
            return Err(LinalgError::NotPositiveDefinite {
                pivot: 0,
                value: alpha,
            });
        }
        let root = alpha.sqrt();
        Ok(Cholesky {
            l: self.l.map(|x| x * root),
        })
    }

    /// Applies the colouring transform `L z` (maps white noise to noise with
    /// covariance `A`).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when `z.len() != dim()`.
    pub fn colour(&self, z: &Vector) -> Result<Vector> {
        let n = self.dim();
        if z.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "colour",
                lhs: (n, n),
                rhs: (z.len(), 1),
            });
        }
        Ok(Vector::from_fn(n, |i| {
            (0..=i).map(|k| self.l[(i, k)] * z[k]).sum()
        }))
    }
}

/// Projects a symmetric matrix to the nearest symmetric positive-definite
/// matrix (in the Frobenius sense, via eigenvalue clipping).
///
/// Sample covariance matrices computed from `n < d` samples are rank
/// deficient; the BMF cross-validation still needs to evaluate Gaussian
/// likelihoods under them, so we clip eigenvalues at `eps` times the largest
/// eigenvalue (or `eps` itself when all eigenvalues vanish).
///
/// # Errors
///
/// Returns [`LinalgError::NotSquare`] for rectangular input and propagates
/// eigen-decomposition failures.
///
/// # Example
///
/// ```
/// use bmf_linalg::{Cholesky, Matrix};
///
/// # fn main() -> Result<(), bmf_linalg::LinalgError> {
/// let rank1 = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]])?;
/// assert!(Cholesky::new(&rank1).is_err());
/// let fixed = bmf_linalg::nearest_spd(&rank1, 1e-10)?;
/// assert!(Cholesky::new(&fixed).is_ok());
/// # Ok(())
/// # }
/// ```
pub fn nearest_spd(a: &Matrix, eps: f64) -> Result<Matrix> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare { shape: a.shape() });
    }
    let mut sym = a.clone();
    sym.symmetrize()?;
    let eig = crate::SymmetricEigen::new(&sym)?;
    let lmax = eig
        .eigenvalues()
        .iter()
        .fold(0.0_f64, |m, &x| m.max(x.abs()));
    let floor = if lmax > 0.0 { eps * lmax } else { eps };
    let clipped = Vector::from_fn(eig.eigenvalues().len(), |i| eig.eigenvalues()[i].max(floor));
    eig.reconstruct_with(&clipped)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        Matrix::from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, 0.2], &[0.5, 0.2, 2.0]]).unwrap()
    }

    #[test]
    fn factor_round_trip() {
        let a = spd3();
        let chol = Cholesky::new(&a).unwrap();
        let l = chol.factor();
        let llt = l.mat_mul(&l.transpose()).unwrap();
        assert!(a.max_abs_diff(&llt).unwrap() < 1e-12);
        assert_eq!(chol.dim(), 3);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(Cholesky::new(&Matrix::zeros(2, 3)).is_err());
        assert!(matches!(
            Cholesky::new(&Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap()),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
        // zero matrix
        assert!(Cholesky::new(&Matrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn determinant() {
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]).unwrap();
        let chol = Cholesky::new(&a).unwrap();
        assert!((chol.det() - 8.0).abs() < 1e-12);
        assert!((chol.ln_det() - 8.0_f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn solve_and_inverse() {
        let a = spd3();
        let chol = Cholesky::new(&a).unwrap();
        let b = Vector::from_slice(&[1.0, 2.0, 3.0]);
        let x = chol.solve_vec(&b).unwrap();
        assert!(a.mat_vec(&x).unwrap().max_abs_diff(&b).unwrap() < 1e-12);

        let inv = chol.inverse().unwrap();
        let prod = a.mat_mul(&inv).unwrap();
        assert!(prod.max_abs_diff(&Matrix::identity(3)).unwrap() < 1e-12);
        assert!(inv.is_symmetric(1e-12));

        assert!(chol.solve_vec(&Vector::zeros(2)).is_err());
        assert!(chol.solve_mat(&Matrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn solve_mat_matches_vec() {
        let a = spd3();
        let chol = Cholesky::new(&a).unwrap();
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]).unwrap();
        let x = chol.solve_mat(&b).unwrap();
        for j in 0..2 {
            let xj = chol.solve_vec(&b.col_vec(j)).unwrap();
            assert!(x.col_vec(j).max_abs_diff(&xj).unwrap() < 1e-14);
        }
    }

    #[test]
    fn mahalanobis() {
        let a = Matrix::identity(2);
        let chol = Cholesky::new(&a).unwrap();
        let x = Vector::from_slice(&[3.0, 4.0]);
        let mu = Vector::zeros(2);
        assert!((chol.mahalanobis_sq(&x, &mu).unwrap() - 25.0).abs() < 1e-12);
        assert!(chol.mahalanobis_sq(&x, &Vector::zeros(3)).is_err());
    }

    #[test]
    fn colouring() {
        let a = spd3();
        let chol = Cholesky::new(&a).unwrap();
        let z = Vector::from_slice(&[1.0, -1.0, 0.5]);
        let coloured = chol.colour(&z).unwrap();
        let direct = chol.factor().mat_vec(&z).unwrap();
        assert!(coloured.max_abs_diff(&direct).unwrap() < 1e-14);
        assert!(chol.colour(&Vector::zeros(2)).is_err());
    }

    #[test]
    fn nearest_spd_fixes_rank_deficiency() {
        let rank1 = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]).unwrap();
        let fixed = nearest_spd(&rank1, 1e-8).unwrap();
        assert!(Cholesky::new(&fixed).is_ok());
        // close to the original
        assert!(rank1.max_abs_diff(&fixed).unwrap() < 1e-6);
        // already-SPD input is (nearly) unchanged
        let a = spd3();
        let same = nearest_spd(&a, 1e-12).unwrap();
        assert!(a.max_abs_diff(&same).unwrap() < 1e-9);
        assert!(nearest_spd(&Matrix::zeros(2, 3), 1e-8).is_err());
    }

    #[test]
    fn rank1_update_matches_direct_refactorisation() {
        let a = spd3();
        let chol = Cholesky::new(&a).unwrap();
        for v in [
            Vector::from_slice(&[1.0, -2.0, 0.5]),
            Vector::from_slice(&[0.0, 0.0, 0.0]),
            Vector::from_slice(&[1e3, -1e3, 1e3]),
        ] {
            let fast = chol.rank1_update(&v).unwrap();
            let mut updated = a.clone();
            updated += &Matrix::outer(&v);
            let direct = Cholesky::new(&updated).unwrap();
            assert!(
                fast.factor().max_abs_diff(direct.factor()).unwrap() < 1e-9,
                "v = {v}"
            );
            // ln_det and solves agree too (what the CV scorer consumes).
            assert!((fast.ln_det() - direct.ln_det()).abs() < 1e-10);
            let b = Vector::from_slice(&[1.0, 2.0, 3.0]);
            let xf = fast.solve_vec(&b).unwrap();
            let xd = direct.solve_vec(&b).unwrap();
            assert!(xf.max_abs_diff(&xd).unwrap() < 1e-10);
        }
        assert!(chol.rank1_update(&Vector::zeros(2)).is_err());
    }

    #[test]
    fn rank1_update_rejects_non_finite_overflow() {
        let a = Matrix::identity(2);
        let chol = Cholesky::new(&a).unwrap();
        let huge = Vector::from_slice(&[f64::MAX, f64::MAX]);
        assert!(matches!(
            chol.rank1_update(&huge),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn scaled_factor_matches_direct_refactorisation() {
        let a = spd3();
        let chol = Cholesky::new(&a).unwrap();
        for alpha in [0.25, 1.0, 17.5, 1e-8] {
            let fast = chol.scaled(alpha).unwrap();
            let direct = Cholesky::new(&(&a * alpha)).unwrap();
            assert!(
                fast.factor().max_abs_diff(direct.factor()).unwrap() < 1e-9,
                "alpha = {alpha}"
            );
            assert!((fast.ln_det() - direct.ln_det()).abs() < 1e-9);
        }
        assert!(chol.scaled(0.0).is_err());
        assert!(chol.scaled(-1.0).is_err());
        assert!(chol.scaled(f64::NAN).is_err());
        assert!(chol.scaled(f64::INFINITY).is_err());
    }

    #[test]
    fn one_by_one() {
        let a = Matrix::from_rows(&[&[9.0]]).unwrap();
        let chol = Cholesky::new(&a).unwrap();
        assert_eq!(chol.factor()[(0, 0)], 3.0);
        assert!((chol.det() - 9.0).abs() < 1e-12);
    }
}
