//! Owned dense row-major matrix of `f64`.

use crate::{LinalgError, Result, Vector};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Index, IndexMut, Mul, MulAssign, Neg, Sub, SubAssign};

/// Owned dense matrix of `f64` values in row-major storage.
///
/// Covariance matrices, scatter matrices and MNA system matrices throughout
/// the workspace are `Matrix` values. Indexing uses `(row, col)` tuples.
///
/// # Example
///
/// ```
/// use bmf_linalg::Matrix;
///
/// # fn main() -> Result<(), bmf_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// assert_eq!(a[(1, 0)], 3.0);
/// assert_eq!(a.transpose()[(0, 1)], 3.0);
/// let b = a.mat_mul(&a)?;
/// assert_eq!(b[(0, 0)], 7.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero matrix of shape `rows × cols`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    ///
    /// ```
    /// # use bmf_linalg::Matrix;
    /// let i = Matrix::identity(2);
    /// assert_eq!(i[(0, 0)], 1.0);
    /// assert_eq!(i[(0, 1)], 0.0);
    /// ```
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidData`] when rows have differing lengths
    /// and [`LinalgError::Empty`] when no rows are given.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        if rows.is_empty() {
            return Err(LinalgError::Empty);
        }
        let cols = rows[0].len();
        if cols == 0 {
            return Err(LinalgError::Empty);
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(LinalgError::InvalidData {
                    reason: format!("row {i} has length {} but expected {cols}", r.len()),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidData`] when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::InvalidData {
                reason: format!(
                    "flat data has length {} but shape {rows}x{cols} needs {}",
                    data.len(),
                    rows * cols
                ),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix from a generating function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Rank-1 matrix `v vᵀ` (outer product with itself).
    pub fn outer(v: &Vector) -> Self {
        let n = v.len();
        Matrix::from_fn(n, n, |i, j| v[i] * v[j])
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Whether the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrows the flat row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Borrows the flat row-major storage mutably.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics when `i >= nrows()`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Borrows row `i` mutably.
    ///
    /// # Panics
    ///
    /// Panics when `i >= nrows()`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.rows, "row index {i} out of bounds ({})", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies row `i` into a [`Vector`].
    pub fn row_vec(&self, i: usize) -> Vector {
        Vector::from_slice(self.row(i))
    }

    /// Copies column `j` into a [`Vector`].
    ///
    /// # Panics
    ///
    /// Panics when `j >= ncols()`.
    pub fn col_vec(&self, j: usize) -> Vector {
        assert!(j < self.cols, "col index {j} out of bounds ({})", self.cols);
        Vector::from_fn(self.rows, |i| self[(i, j)])
    }

    /// Copies the main diagonal into a [`Vector`].
    pub fn diag(&self) -> Vector {
        let n = self.rows.min(self.cols);
        Vector::from_fn(n, |i| self[(i, i)])
    }

    /// Trace (sum of diagonal entries).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for rectangular matrices.
    pub fn trace(&self) -> Result<f64> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare {
                shape: self.shape(),
            });
        }
        Ok((0..self.rows).map(|i| self[(i, i)]).sum())
    }

    /// Returns the transposed matrix.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Matrix-matrix product `self * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when inner dimensions
    /// disagree.
    pub fn mat_mul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "mat_mul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        // i-k-j loop order: the inner loop walks both `rhs` and `out`
        // contiguously, which matters for the larger MNA systems.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                let rrow = rhs.row(k);
                let orow = out.row_mut(i);
                for (o, r) in orow.iter_mut().zip(rrow.iter()) {
                    *o += a * r;
                }
            }
        }
        Ok(out)
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when `v.len() != ncols()`.
    pub fn mat_vec(&self, v: &Vector) -> Result<Vector> {
        if self.cols != v.len() {
            return Err(LinalgError::DimensionMismatch {
                op: "mat_vec",
                lhs: self.shape(),
                rhs: (v.len(), 1),
            });
        }
        Ok(Vector::from_fn(self.rows, |i| {
            self.row(i).iter().zip(v.iter()).map(|(a, b)| a * b).sum()
        }))
    }

    /// Quadratic form `vᵀ · self · v`.
    ///
    /// # Errors
    ///
    /// Returns a dimension error when shapes are incompatible.
    pub fn quadratic_form(&self, v: &Vector) -> Result<f64> {
        let av = self.mat_vec(v)?;
        v.dot(&av)
    }

    /// Frobenius norm `sqrt(Σ aᵢⱼ²)`.
    pub fn norm_frobenius(&self) -> f64 {
        let maxabs = self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()));
        if maxabs == 0.0 || !maxabs.is_finite() {
            return maxabs;
        }
        let sum: f64 = self.data.iter().map(|&x| (x / maxabs).powi(2)).sum();
        maxabs * sum.sqrt()
    }

    /// Maximum absolute entry.
    pub fn norm_max(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }

    /// Returns a new matrix with `f` applied to every entry.
    pub fn map(&self, f: impl FnMut(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().copied().map(f).collect(),
        }
    }

    /// Symmetrises the matrix in place: `A ← (A + Aᵀ)/2`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for rectangular matrices.
    pub fn symmetrize(&mut self) -> Result<()> {
        if !self.is_square() {
            return Err(LinalgError::NotSquare {
                shape: self.shape(),
            });
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                let m = 0.5 * (self[(i, j)] + self[(j, i)]);
                self[(i, j)] = m;
                self[(j, i)] = m;
            }
        }
        Ok(())
    }

    /// Whether the matrix is symmetric to within `tol` (absolute, relative to
    /// the largest entry).
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        let scale = self.norm_max().max(1.0);
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self[(i, j)] - self[(j, i)]).abs() > tol * scale {
                    return false;
                }
            }
        }
        true
    }

    /// True when every entry is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Maximum absolute entry-wise difference to another matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when shapes differ.
    pub fn max_abs_diff(&self, other: &Matrix) -> Result<f64> {
        if self.shape() != other.shape() {
            return Err(LinalgError::DimensionMismatch {
                op: "max_abs_diff",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .fold(0.0_f64, |m, (a, b)| m.max((a - b).abs())))
    }

    /// In-place `self += alpha * other`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when shapes differ.
    pub fn axpy(&mut self, alpha: f64, other: &Matrix) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(LinalgError::DimensionMismatch {
                op: "axpy",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Extracts the sub-matrix with the given row and column index sets.
    ///
    /// # Panics
    ///
    /// Panics when an index is out of bounds.
    pub fn submatrix(&self, row_idx: &[usize], col_idx: &[usize]) -> Matrix {
        Matrix::from_fn(row_idx.len(), col_idx.len(), |i, j| {
            self[(row_idx[i], col_idx[j])]
        })
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i}, {j}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i}, {j}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.rows {
            write!(f, "[")?;
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.6}", self[(i, j)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

macro_rules! matrix_elementwise_binop {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait<&Matrix> for &Matrix {
            type Output = Matrix;
            fn $method(self, rhs: &Matrix) -> Matrix {
                assert_eq!(
                    self.shape(),
                    rhs.shape(),
                    concat!("matrix ", stringify!($method), ": shape mismatch")
                );
                Matrix {
                    rows: self.rows,
                    cols: self.cols,
                    data: self
                        .data
                        .iter()
                        .zip(rhs.data.iter())
                        .map(|(a, b)| a $op b)
                        .collect(),
                }
            }
        }

        impl $trait<Matrix> for Matrix {
            type Output = Matrix;
            fn $method(self, rhs: Matrix) -> Matrix {
                (&self).$method(&rhs)
            }
        }
    };
}

matrix_elementwise_binop!(Add, add, +);
matrix_elementwise_binop!(Sub, sub, -);

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "matrix +=: shape mismatch");
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += b;
        }
    }
}

impl SubAssign<&Matrix> for Matrix {
    fn sub_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "matrix -=: shape mismatch");
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a -= b;
        }
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;
    fn mul(self, s: f64) -> Matrix {
        self.map(|x| x * s)
    }
}

impl Mul<f64> for Matrix {
    type Output = Matrix;
    fn mul(self, s: f64) -> Matrix {
        (&self) * s
    }
}

impl Mul<&Matrix> for f64 {
    type Output = Matrix;
    fn mul(self, m: &Matrix) -> Matrix {
        m * self
    }
}

impl MulAssign<f64> for Matrix {
    fn mul_assign(&mut self, s: f64) {
        for x in self.data.iter_mut() {
            *x *= s;
        }
    }
}

impl Div<f64> for &Matrix {
    type Output = Matrix;
    fn div(self, s: f64) -> Matrix {
        self.map(|x| x / s)
    }
}

impl Div<f64> for Matrix {
    type Output = Matrix;
    fn div(self, s: f64) -> Matrix {
        (&self) / s
    }
}

impl Neg for &Matrix {
    type Output = Matrix;
    fn neg(self) -> Matrix {
        self.map(|x| -x)
    }
}

impl Neg for Matrix {
    type Output = Matrix;
    fn neg(self) -> Matrix {
        -(&self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap()
    }

    #[test]
    fn construction() {
        let m = Matrix::zeros(2, 3);
        assert_eq!(m.shape(), (2, 3));
        assert!(!m.is_square());

        let i = Matrix::identity(3);
        assert!(i.is_square());
        assert_eq!(i.trace().unwrap(), 3.0);

        assert!(Matrix::from_rows(&[]).is_err());
        assert!(Matrix::from_rows(&[&[1.0], &[1.0, 2.0]]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        let f = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(f, sample());
    }

    #[test]
    fn rows_cols_diag() {
        let m = sample();
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.row_vec(0).as_slice(), &[1.0, 2.0]);
        assert_eq!(m.col_vec(1).as_slice(), &[2.0, 4.0]);
        assert_eq!(m.diag().as_slice(), &[1.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let m = sample();
        let _ = m[(2, 0)];
    }

    #[test]
    fn transpose_and_products() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t[(0, 1)], 3.0);

        let p = m.mat_mul(&t).unwrap();
        // [1 2; 3 4] [1 3; 2 4] = [5 11; 11 25]
        assert_eq!(
            p,
            Matrix::from_rows(&[&[5.0, 11.0], &[11.0, 25.0]]).unwrap()
        );

        let v = Vector::from_slice(&[1.0, 1.0]);
        assert_eq!(m.mat_vec(&v).unwrap().as_slice(), &[3.0, 7.0]);
        assert_eq!(m.quadratic_form(&v).unwrap(), 10.0);

        assert!(m.mat_mul(&Matrix::zeros(3, 3)).is_err());
        assert!(m.mat_vec(&Vector::zeros(3)).is_err());
    }

    #[test]
    fn outer_products() {
        let v = Vector::from_slice(&[1.0, 2.0]);
        let o = Matrix::outer(&v);
        assert_eq!(o, Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap());
    }

    #[test]
    fn norms_and_maps() {
        let m = sample();
        assert!((m.norm_frobenius() - (30.0_f64).sqrt()).abs() < 1e-14);
        assert_eq!(m.norm_max(), 4.0);
        let n = m.map(|x| x * 2.0);
        assert_eq!(n[(1, 1)], 8.0);
        assert_eq!(Matrix::zeros(2, 2).norm_frobenius(), 0.0);
    }

    #[test]
    fn symmetry_helpers() {
        let mut m = Matrix::from_rows(&[&[1.0, 2.0], &[2.0 + 1e-12, 3.0]]).unwrap();
        assert!(m.is_symmetric(1e-9));
        assert!(!m.is_symmetric(1e-15));
        m.symmetrize().unwrap();
        assert_eq!(m[(0, 1)], m[(1, 0)]);
        assert!(!Matrix::zeros(2, 3).is_symmetric(1e-9));
        assert!(Matrix::zeros(2, 3).trace().is_err());
    }

    #[test]
    fn arithmetic_ops() {
        let a = sample();
        let b = Matrix::identity(2);
        assert_eq!((&a + &b)[(0, 0)], 2.0);
        assert_eq!((&a - &b)[(1, 1)], 3.0);
        assert_eq!((&a * 2.0)[(1, 0)], 6.0);
        assert_eq!((2.0 * &a)[(1, 0)], 6.0);
        assert_eq!((&a / 2.0)[(0, 1)], 1.0);
        assert_eq!((-&a)[(0, 0)], -1.0);

        let mut c = a.clone();
        c += &b;
        assert_eq!(c[(0, 0)], 2.0);
        c -= &b;
        assert_eq!(c, a);
        c *= 2.0;
        assert_eq!(c[(0, 0)], 2.0);

        let mut d = a.clone();
        d.axpy(3.0, &b).unwrap();
        assert_eq!(d[(0, 0)], 4.0);
        assert!(d.axpy(1.0, &Matrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn submatrix_extraction() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], &[7.0, 8.0, 9.0]]).unwrap();
        let s = m.submatrix(&[0, 2], &[1, 2]);
        assert_eq!(s, Matrix::from_rows(&[&[2.0, 3.0], &[8.0, 9.0]]).unwrap());
    }

    #[test]
    fn finiteness_and_diff() {
        let a = sample();
        assert!(a.is_finite());
        let mut b = a.clone();
        b[(0, 0)] = f64::INFINITY;
        assert!(!b.is_finite());
        let mut c = a.clone();
        c[(1, 1)] = 5.5;
        assert_eq!(a.max_abs_diff(&c).unwrap(), 1.5);
        assert!(a.max_abs_diff(&Matrix::zeros(3, 3)).is_err());
    }

    #[test]
    fn display_format() {
        let s = format!("{}", sample());
        assert!(s.contains("1.0"));
        assert!(s.lines().count() == 2);
    }
}
