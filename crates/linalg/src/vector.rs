//! Owned dense vector of `f64`.

use crate::{LinalgError, Result};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Index, IndexMut, Mul, MulAssign, Neg, Sub, SubAssign};

/// Owned dense vector of `f64` values.
///
/// `Vector` is the value type for mean vectors, sample rows and right-hand
/// sides throughout the workspace. It implements element-wise arithmetic on
/// references (`&a + &b`) so that expressions do not silently move operands.
///
/// # Example
///
/// ```
/// use bmf_linalg::Vector;
///
/// let a = Vector::from_slice(&[1.0, 2.0, 3.0]);
/// let b = Vector::from_slice(&[4.0, 5.0, 6.0]);
/// assert_eq!(a.dot(&b).unwrap(), 32.0);
/// assert_eq!((&a + &b)[0], 5.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Vector {
    data: Vec<f64>,
}

impl Vector {
    /// Creates a zero vector of length `n`.
    ///
    /// ```
    /// # use bmf_linalg::Vector;
    /// let v = Vector::zeros(3);
    /// assert_eq!(v.len(), 3);
    /// assert_eq!(v[2], 0.0);
    /// ```
    pub fn zeros(n: usize) -> Self {
        Vector { data: vec![0.0; n] }
    }

    /// Creates a vector filled with `value`.
    pub fn filled(n: usize, value: f64) -> Self {
        Vector {
            data: vec![value; n],
        }
    }

    /// Creates a vector by copying a slice.
    pub fn from_slice(s: &[f64]) -> Self {
        Vector { data: s.to_vec() }
    }

    /// Creates a vector from a generating function of the index.
    ///
    /// ```
    /// # use bmf_linalg::Vector;
    /// let v = Vector::from_fn(4, |i| (i * i) as f64);
    /// assert_eq!(v.as_slice(), &[0.0, 1.0, 4.0, 9.0]);
    /// ```
    pub fn from_fn(n: usize, mut f: impl FnMut(usize) -> f64) -> Self {
        Vector {
            data: (0..n).map(&mut f).collect(),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the vector has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the underlying storage as a slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Borrows the underlying storage mutably.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Iterator over elements.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.data.iter()
    }

    /// Mutable iterator over elements.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, f64> {
        self.data.iter_mut()
    }

    /// Dot product with another vector.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when lengths differ.
    pub fn dot(&self, other: &Vector) -> Result<f64> {
        if self.len() != other.len() {
            return Err(LinalgError::DimensionMismatch {
                op: "dot",
                lhs: (self.len(), 1),
                rhs: (other.len(), 1),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a * b)
            .sum())
    }

    /// Euclidean (ℓ₂) norm.
    ///
    /// Uses a scaled accumulation that avoids overflow for large entries.
    pub fn norm2(&self) -> f64 {
        let maxabs = self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()));
        if maxabs == 0.0 || !maxabs.is_finite() {
            return maxabs;
        }
        let sum: f64 = self.data.iter().map(|&x| (x / maxabs).powi(2)).sum();
        maxabs * sum.sqrt()
    }

    /// ℓ₁ norm (sum of absolute values).
    pub fn norm1(&self) -> f64 {
        self.data.iter().map(|x| x.abs()).sum()
    }

    /// ℓ∞ norm (maximum absolute value); zero for the empty vector.
    pub fn norm_inf(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }

    /// Sum of the elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of the elements.
    ///
    /// # Panics
    ///
    /// Panics if the vector is empty.
    pub fn mean(&self) -> f64 {
        assert!(!self.is_empty(), "mean of empty vector");
        self.sum() / self.len() as f64
    }

    /// Returns a new vector with `f` applied to every element.
    pub fn map(&self, f: impl FnMut(f64) -> f64) -> Vector {
        Vector {
            data: self.data.iter().copied().map(f).collect(),
        }
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when lengths differ.
    pub fn hadamard(&self, other: &Vector) -> Result<Vector> {
        if self.len() != other.len() {
            return Err(LinalgError::DimensionMismatch {
                op: "hadamard",
                lhs: (self.len(), 1),
                rhs: (other.len(), 1),
            });
        }
        Ok(Vector {
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(a, b)| a * b)
                .collect(),
        })
    }

    /// In-place `self += alpha * other` (axpy).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when lengths differ.
    pub fn axpy(&mut self, alpha: f64, other: &Vector) -> Result<()> {
        if self.len() != other.len() {
            return Err(LinalgError::DimensionMismatch {
                op: "axpy",
                lhs: (self.len(), 1),
                rhs: (other.len(), 1),
            });
        }
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// True when every element is finite (no NaN/inf).
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Maximum absolute difference to another vector of the same length.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when lengths differ.
    pub fn max_abs_diff(&self, other: &Vector) -> Result<f64> {
        if self.len() != other.len() {
            return Err(LinalgError::DimensionMismatch {
                op: "max_abs_diff",
                lhs: (self.len(), 1),
                rhs: (other.len(), 1),
            });
        }
        Ok(self
            .data
            .iter()
            .zip(other.data.iter())
            .fold(0.0_f64, |m, (a, b)| m.max((a - b).abs())))
    }
}

impl From<Vec<f64>> for Vector {
    fn from(data: Vec<f64>) -> Self {
        Vector { data }
    }
}

impl FromIterator<f64> for Vector {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Vector {
            data: iter.into_iter().collect(),
        }
    }
}

impl Extend<f64> for Vector {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        self.data.extend(iter);
    }
}

impl<'a> IntoIterator for &'a Vector {
    type Item = &'a f64;
    type IntoIter = std::slice::Iter<'a, f64>;
    fn into_iter(self) -> Self::IntoIter {
        self.data.iter()
    }
}

impl IntoIterator for Vector {
    type Item = f64;
    type IntoIter = std::vec::IntoIter<f64>;
    fn into_iter(self) -> Self::IntoIter {
        self.data.into_iter()
    }
}

impl Index<usize> for Vector {
    type Output = f64;
    fn index(&self, i: usize) -> &f64 {
        &self.data[i]
    }
}

impl IndexMut<usize> for Vector {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.data[i]
    }
}

impl fmt::Display for Vector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, x) in self.data.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{x:.6}")?;
        }
        write!(f, "]")
    }
}

macro_rules! elementwise_binop {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait<&Vector> for &Vector {
            type Output = Vector;
            fn $method(self, rhs: &Vector) -> Vector {
                assert_eq!(
                    self.len(),
                    rhs.len(),
                    concat!("vector ", stringify!($method), ": length mismatch")
                );
                Vector {
                    data: self
                        .data
                        .iter()
                        .zip(rhs.data.iter())
                        .map(|(a, b)| a $op b)
                        .collect(),
                }
            }
        }

        impl $trait<Vector> for Vector {
            type Output = Vector;
            fn $method(self, rhs: Vector) -> Vector {
                (&self).$method(&rhs)
            }
        }
    };
}

elementwise_binop!(Add, add, +);
elementwise_binop!(Sub, sub, -);

impl AddAssign<&Vector> for Vector {
    fn add_assign(&mut self, rhs: &Vector) {
        assert_eq!(self.len(), rhs.len(), "vector +=: length mismatch");
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a += b;
        }
    }
}

impl SubAssign<&Vector> for Vector {
    fn sub_assign(&mut self, rhs: &Vector) {
        assert_eq!(self.len(), rhs.len(), "vector -=: length mismatch");
        for (a, b) in self.data.iter_mut().zip(rhs.data.iter()) {
            *a -= b;
        }
    }
}

impl Mul<f64> for &Vector {
    type Output = Vector;
    fn mul(self, s: f64) -> Vector {
        self.map(|x| x * s)
    }
}

impl Mul<f64> for Vector {
    type Output = Vector;
    fn mul(self, s: f64) -> Vector {
        (&self) * s
    }
}

impl Mul<&Vector> for f64 {
    type Output = Vector;
    fn mul(self, v: &Vector) -> Vector {
        v * self
    }
}

impl MulAssign<f64> for Vector {
    fn mul_assign(&mut self, s: f64) {
        for x in self.data.iter_mut() {
            *x *= s;
        }
    }
}

impl Div<f64> for &Vector {
    type Output = Vector;
    fn div(self, s: f64) -> Vector {
        self.map(|x| x / s)
    }
}

impl Div<f64> for Vector {
    type Output = Vector;
    fn div(self, s: f64) -> Vector {
        (&self) / s
    }
}

impl Neg for &Vector {
    type Output = Vector;
    fn neg(self) -> Vector {
        self.map(|x| -x)
    }
}

impl Neg for Vector {
    type Output = Vector;
    fn neg(self) -> Vector {
        -(&self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let v = Vector::zeros(3);
        assert_eq!(v.len(), 3);
        assert!(!v.is_empty());
        assert_eq!(v.as_slice(), &[0.0; 3]);

        let v = Vector::filled(2, 7.5);
        assert_eq!(v.as_slice(), &[7.5, 7.5]);

        let mut v = Vector::from_slice(&[1.0, 2.0]);
        v[1] = 3.0;
        assert_eq!(v[1], 3.0);

        let empty = Vector::zeros(0);
        assert!(empty.is_empty());
    }

    #[test]
    fn from_fn_and_iterators() {
        let v = Vector::from_fn(3, |i| i as f64 + 1.0);
        assert_eq!(v.as_slice(), &[1.0, 2.0, 3.0]);

        let collected: Vector = (0..4).map(|i| i as f64).collect();
        assert_eq!(collected.len(), 4);

        let sum: f64 = (&v).into_iter().sum();
        assert_eq!(sum, 6.0);

        let owned: Vec<f64> = v.clone().into_iter().collect();
        assert_eq!(owned, vec![1.0, 2.0, 3.0]);

        let mut e = Vector::zeros(0);
        e.extend([1.0, 2.0]);
        assert_eq!(e.len(), 2);
    }

    #[test]
    fn dot_product() {
        let a = Vector::from_slice(&[1.0, 2.0, 3.0]);
        let b = Vector::from_slice(&[4.0, 5.0, 6.0]);
        assert_eq!(a.dot(&b).unwrap(), 32.0);
        assert!(a.dot(&Vector::zeros(2)).is_err());
    }

    #[test]
    fn norms() {
        let v = Vector::from_slice(&[3.0, -4.0]);
        assert!((v.norm2() - 5.0).abs() < 1e-15);
        assert_eq!(v.norm1(), 7.0);
        assert_eq!(v.norm_inf(), 4.0);
        assert_eq!(Vector::zeros(3).norm2(), 0.0);
        // overflow-safe norm
        let big = Vector::from_slice(&[1e200, 1e200]);
        assert!(big.norm2().is_finite());
        assert!((big.norm2() - 1e200 * 2.0_f64.sqrt()).abs() / 1e200 < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let a = Vector::from_slice(&[1.0, 2.0]);
        let b = Vector::from_slice(&[3.0, 5.0]);
        assert_eq!((&a + &b).as_slice(), &[4.0, 7.0]);
        assert_eq!((&b - &a).as_slice(), &[2.0, 3.0]);
        assert_eq!((&a * 2.0).as_slice(), &[2.0, 4.0]);
        assert_eq!((2.0 * &a).as_slice(), &[2.0, 4.0]);
        assert_eq!((&a / 2.0).as_slice(), &[0.5, 1.0]);
        assert_eq!((-&a).as_slice(), &[-1.0, -2.0]);

        let mut c = a.clone();
        c += &b;
        assert_eq!(c.as_slice(), &[4.0, 7.0]);
        c -= &b;
        assert_eq!(c.as_slice(), &[1.0, 2.0]);
        c *= 3.0;
        assert_eq!(c.as_slice(), &[3.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn add_panics_on_mismatch() {
        let _ = &Vector::zeros(2) + &Vector::zeros(3);
    }

    #[test]
    fn statistics_helpers() {
        let v = Vector::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(v.sum(), 10.0);
        assert_eq!(v.mean(), 2.5);
    }

    #[test]
    fn hadamard_and_axpy() {
        let a = Vector::from_slice(&[1.0, 2.0]);
        let b = Vector::from_slice(&[3.0, 4.0]);
        assert_eq!(a.hadamard(&b).unwrap().as_slice(), &[3.0, 8.0]);
        let mut c = a.clone();
        c.axpy(2.0, &b).unwrap();
        assert_eq!(c.as_slice(), &[7.0, 10.0]);
        assert!(a.hadamard(&Vector::zeros(3)).is_err());
        assert!(c.axpy(1.0, &Vector::zeros(3)).is_err());
    }

    #[test]
    fn finiteness_and_diff() {
        let a = Vector::from_slice(&[1.0, 2.0]);
        assert!(a.is_finite());
        let b = Vector::from_slice(&[1.0, f64::NAN]);
        assert!(!b.is_finite());
        let c = Vector::from_slice(&[1.5, 1.0]);
        assert_eq!(a.max_abs_diff(&c).unwrap(), 1.0);
        assert!(a.max_abs_diff(&Vector::zeros(3)).is_err());
    }

    #[test]
    fn display_is_nonempty() {
        let v = Vector::from_slice(&[1.0, 2.0]);
        let s = format!("{v}");
        assert!(s.starts_with('[') && s.ends_with(']'));
        assert!(s.contains("1.0"));
    }

    #[test]
    fn serde_round_trip_shape() {
        // serde derives exist; check Debug/Clone/PartialEq basics instead of
        // pulling a serializer into the dependency tree.
        let v = Vector::from_slice(&[1.0]);
        let w = v.clone();
        assert_eq!(v, w);
    }
}
