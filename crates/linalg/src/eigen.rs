//! Symmetric eigen-decomposition via the cyclic Jacobi method.

use crate::{LinalgError, Matrix, Result, Vector};

/// Maximum number of Jacobi sweeps before declaring non-convergence. The
/// Jacobi method converges quadratically; well-conditioned inputs of the size
/// used here (d ≲ 50) finish in < 10 sweeps.
const MAX_SWEEPS: usize = 64;

/// Eigen-decomposition `A = V diag(λ) Vᵀ` of a symmetric matrix.
///
/// Implemented with the cyclic Jacobi rotation method, which is simple,
/// unconditionally stable and more than fast enough for the covariance
/// matrices (d ≈ 5) and diagnostics this workspace needs.
///
/// Eigenvalues are sorted in **descending** order; `eigenvectors()` columns
/// are ordered accordingly.
///
/// # Example
///
/// ```
/// use bmf_linalg::{Matrix, SymmetricEigen};
///
/// # fn main() -> Result<(), bmf_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 1.0]])?;
/// let eig = SymmetricEigen::new(&a)?;
/// assert!((eig.eigenvalues()[0] - 2.0).abs() < 1e-12);
/// assert!((eig.eigenvalues()[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    eigenvalues: Vector,
    /// Columns are eigenvectors, same order as `eigenvalues`.
    eigenvectors: Matrix,
}

impl SymmetricEigen {
    /// Computes the eigen-decomposition of a symmetric matrix.
    ///
    /// Only requires symmetry up to rounding; the matrix is symmetrised
    /// internally before iteration.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NotSquare`] for rectangular input.
    /// * [`LinalgError::NoConvergence`] if Jacobi sweeps fail to reduce the
    ///   off-diagonal mass (practically unreachable for finite input).
    pub fn new(a: &Matrix) -> Result<Self> {
        bmf_obs::counters::EIGEN_CALLS.incr();
        let _timer = bmf_obs::histograms::EIGEN_NS.timer();
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        let n = a.nrows();
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        if !a.is_finite() {
            return Err(LinalgError::InvalidData {
                reason: "matrix contains non-finite entries".to_string(),
            });
        }
        let mut m = a.clone();
        m.symmetrize()?;
        let mut v = Matrix::identity(n);

        let off = |m: &Matrix| -> f64 {
            let mut s = 0.0;
            for i in 0..n {
                for j in (i + 1)..n {
                    s += m[(i, j)] * m[(i, j)];
                }
            }
            s
        };

        let scale = m.norm_frobenius().max(f64::MIN_POSITIVE);
        let tol = (1e-15 * scale).powi(2) * (n * n) as f64;

        let mut sweeps = 0;
        while off(&m) > tol {
            sweeps += 1;
            if sweeps > MAX_SWEEPS {
                return Err(LinalgError::NoConvergence {
                    algorithm: "jacobi eigen-decomposition",
                    iterations: MAX_SWEEPS,
                });
            }
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = m[(p, q)];
                    if apq.abs() <= 1e-300 {
                        continue;
                    }
                    let app = m[(p, p)];
                    let aqq = m[(q, q)];
                    // Compute rotation (c, s) zeroing m[(p, q)].
                    let theta = (aqq - app) / (2.0 * apq);
                    let t = if theta >= 0.0 {
                        1.0 / (theta + (1.0 + theta * theta).sqrt())
                    } else {
                        1.0 / (theta - (1.0 + theta * theta).sqrt())
                    };
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = t * c;

                    // Apply rotation to rows/cols p,q of m.
                    for k in 0..n {
                        let mkp = m[(k, p)];
                        let mkq = m[(k, q)];
                        m[(k, p)] = c * mkp - s * mkq;
                        m[(k, q)] = s * mkp + c * mkq;
                    }
                    for k in 0..n {
                        let mpk = m[(p, k)];
                        let mqk = m[(q, k)];
                        m[(p, k)] = c * mpk - s * mqk;
                        m[(q, k)] = s * mpk + c * mqk;
                    }
                    // Accumulate eigenvectors.
                    for k in 0..n {
                        let vkp = v[(k, p)];
                        let vkq = v[(k, q)];
                        v[(k, p)] = c * vkp - s * vkq;
                        v[(k, q)] = s * vkp + c * vkq;
                    }
                }
            }
        }

        bmf_obs::counters::EIGEN_SWEEPS.add(sweeps as u64);

        // Sort descending by eigenvalue.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&i, &j| {
            m[(j, j)]
                .partial_cmp(&m[(i, i)])
                .expect("finite eigenvalues")
        });
        let eigenvalues = Vector::from_fn(n, |i| m[(order[i], order[i])]);
        let eigenvectors = Matrix::from_fn(n, n, |i, j| v[(i, order[j])]);

        Ok(SymmetricEigen {
            eigenvalues,
            eigenvectors,
        })
    }

    /// Eigenvalues in descending order.
    pub fn eigenvalues(&self) -> &Vector {
        &self.eigenvalues
    }

    /// Eigenvector matrix (columns match `eigenvalues` order).
    pub fn eigenvectors(&self) -> &Matrix {
        &self.eigenvectors
    }

    /// Smallest eigenvalue.
    pub fn min_eigenvalue(&self) -> f64 {
        self.eigenvalues[self.eigenvalues.len() - 1]
    }

    /// Largest eigenvalue.
    pub fn max_eigenvalue(&self) -> f64 {
        self.eigenvalues[0]
    }

    /// 2-norm condition number `λ_max / λ_min` (infinite for singular input).
    pub fn condition_number(&self) -> f64 {
        let lmin = self.min_eigenvalue().abs();
        if lmin == 0.0 {
            f64::INFINITY
        } else {
            self.max_eigenvalue().abs() / lmin
        }
    }

    /// Rebuilds `V diag(λ') Vᵀ` using replacement eigenvalues `λ'`.
    ///
    /// This is the core of [`crate::nearest_spd`]: clip the spectrum, then
    /// reconstruct.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when
    /// `new_eigenvalues.len()` differs from the decomposition dimension.
    pub fn reconstruct_with(&self, new_eigenvalues: &Vector) -> Result<Matrix> {
        let n = self.eigenvalues.len();
        if new_eigenvalues.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "reconstruct_with",
                lhs: (n, 1),
                rhs: (new_eigenvalues.len(), 1),
            });
        }
        let vl = Matrix::from_fn(n, n, |i, j| self.eigenvectors[(i, j)] * new_eigenvalues[j]);
        let mut out = vl.mat_mul(&self.eigenvectors.transpose())?;
        out.symmetrize()?;
        Ok(out)
    }

    /// Rebuilds the original matrix `V diag(λ) Vᵀ` (round-trip check).
    ///
    /// # Errors
    ///
    /// Propagates internal multiplication errors (unreachable for a
    /// well-formed decomposition).
    pub fn reconstruct(&self) -> Result<Matrix> {
        self.reconstruct_with(&self.eigenvalues)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagonal_matrix() {
        let a = Matrix::from_fn(3, 3, |i, j| if i == j { [3.0, 1.0, 2.0][i] } else { 0.0 });
        let eig = SymmetricEigen::new(&a).unwrap();
        assert_eq!(eig.eigenvalues().as_slice(), &[3.0, 2.0, 1.0]);
        assert!((eig.condition_number() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]).unwrap();
        let eig = SymmetricEigen::new(&a).unwrap();
        assert!((eig.eigenvalues()[0] - 3.0).abs() < 1e-12);
        assert!((eig.eigenvalues()[1] - 1.0).abs() < 1e-12);
        assert!(eig.min_eigenvalue() > 0.0);
    }

    #[test]
    fn reconstruction_round_trip() {
        let a = Matrix::from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, 0.2], &[0.5, 0.2, 2.0]]).unwrap();
        let eig = SymmetricEigen::new(&a).unwrap();
        let back = eig.reconstruct().unwrap();
        assert!(a.max_abs_diff(&back).unwrap() < 1e-10);
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let a = Matrix::from_rows(&[&[5.0, 2.0], &[2.0, 1.0]]).unwrap();
        let eig = SymmetricEigen::new(&a).unwrap();
        let v = eig.eigenvectors();
        let vtv = v.transpose().mat_mul(v).unwrap();
        assert!(vtv.max_abs_diff(&Matrix::identity(2)).unwrap() < 1e-12);
    }

    #[test]
    fn eigen_equation_holds() {
        let a = Matrix::from_rows(&[&[4.0, -2.0], &[-2.0, 7.0]]).unwrap();
        let eig = SymmetricEigen::new(&a).unwrap();
        for j in 0..2 {
            let vj = eig.eigenvectors().col_vec(j);
            let av = a.mat_vec(&vj).unwrap();
            let lv = &vj * eig.eigenvalues()[j];
            assert!(av.max_abs_diff(&lv).unwrap() < 1e-10);
        }
    }

    #[test]
    fn indefinite_matrix() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let eig = SymmetricEigen::new(&a).unwrap();
        assert!((eig.eigenvalues()[0] - 1.0).abs() < 1e-12);
        assert!((eig.eigenvalues()[1] + 1.0).abs() < 1e-12);
        assert!(eig.min_eigenvalue() < 0.0);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(SymmetricEigen::new(&Matrix::zeros(2, 3)).is_err());
        let mut nan = Matrix::identity(2);
        nan[(0, 0)] = f64::NAN;
        assert!(SymmetricEigen::new(&nan).is_err());
    }

    #[test]
    fn reconstruct_with_clipped_spectrum() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let eig = SymmetricEigen::new(&a).unwrap();
        let clipped = Vector::from_fn(2, |i| eig.eigenvalues()[i].max(0.1));
        let spd = eig.reconstruct_with(&clipped).unwrap();
        let eig2 = SymmetricEigen::new(&spd).unwrap();
        assert!(eig2.min_eigenvalue() > 0.05);
        assert!(eig.reconstruct_with(&Vector::zeros(3)).is_err());
    }

    #[test]
    fn singular_condition_number() {
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]).unwrap();
        let eig = SymmetricEigen::new(&a).unwrap();
        assert!(eig.condition_number().is_infinite() || eig.condition_number() > 1e12);
    }
}
