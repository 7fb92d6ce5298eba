//! Dense real linear algebra and complex scalars for the `bmf-ams` workspace.
//!
//! This crate is a small, self-contained linear-algebra kernel written from
//! scratch (no `ndarray`/`nalgebra`), sized for the needs of multivariate
//! statistics on a handful of correlated circuit performance metrics
//! (`d` ≈ 2–20) and for the real admittance pencils of small analog
//! circuits (tens of nodes).
//!
//! # Contents
//!
//! * [`Vector`] and [`Matrix`]: owned, row-major dense containers with the
//!   usual arithmetic, norms and views.
//! * [`Cholesky`]: SPD factorisation — solve, inverse, log-determinant and
//!   the lower factor used to colour white noise when sampling Gaussians.
//! * [`SymmetricEigen`]: cyclic Jacobi eigen-decomposition of symmetric
//!   matrices (used for PSD diagnostics and nearest-SPD projection).
//! * [`spd`]: condition-number estimation and the SPD repair ladder
//!   ([`Cholesky::new_with_repair`]) for near-singular covariances.
//! * [`Complex64`]: complex arithmetic for AC circuit analysis and the
//!   FFT.
//!
//! # Example
//!
//! ```
//! use bmf_linalg::{Matrix, Cholesky};
//!
//! # fn main() -> Result<(), bmf_linalg::LinalgError> {
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]])?;
//! let chol = Cholesky::new(&a)?;
//! let x = chol.solve_vec(&bmf_linalg::Vector::from_slice(&[1.0, 2.0]))?;
//! assert!((&a.mat_vec(&x)? - &bmf_linalg::Vector::from_slice(&[1.0, 2.0])).norm2() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
// Validation deliberately uses `!(x > 0.0)`-style negated comparisons: they
// reject NaN along with out-of-domain values in one test, which is exactly
// the semantics every constructor here wants.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

mod cholesky;
mod complex;
mod eigen;
mod error;
mod matrix;
pub mod spd;
mod vector;

pub use cholesky::{nearest_spd, Cholesky};
pub use complex::Complex64;
pub use eigen::SymmetricEigen;
pub use error::LinalgError;
pub use matrix::Matrix;
pub use spd::{condition_number, RepairedCholesky, SpdRepair};
pub use vector::Vector;

/// Convenience result alias for fallible linear-algebra operations.
pub type Result<T> = std::result::Result<T, LinalgError>;
