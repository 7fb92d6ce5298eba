//! Complex scalars.
//!
//! AC small-signal circuit analysis evaluates transfer functions at `jω`,
//! FFTs rotate by complex twiddles and root finders iterate in the complex
//! plane; [`Complex64`] serves all three with no external dependency.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// Complex number with `f64` components.
///
/// # Example
///
/// ```
/// use bmf_linalg::Complex64;
///
/// let j = Complex64::I;
/// let z = Complex64::new(3.0, 4.0);
/// assert_eq!(z.abs(), 5.0);
/// assert_eq!((j * j).re, -1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// The additive identity `0 + 0j`.
    pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity `1 + 0j`.
    pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };
    /// The imaginary unit `0 + 1j`.
    pub const I: Complex64 = Complex64 { re: 0.0, im: 1.0 };

    /// Creates a complex number from real and imaginary parts.
    pub fn new(re: f64, im: f64) -> Self {
        Complex64 { re, im }
    }

    /// Creates a purely real complex number.
    pub fn from_re(re: f64) -> Self {
        Complex64 { re, im: 0.0 }
    }

    /// Creates a complex number from polar coordinates.
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Complex64 {
            re: r * theta.cos(),
            im: r * theta.sin(),
        }
    }

    /// Magnitude `|z|` (overflow-safe via `hypot`).
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude `|z|²`.
    pub fn abs_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Argument (phase) in radians, in `(-π, π]`.
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Complex conjugate.
    pub fn conj(self) -> Complex64 {
        Complex64 {
            re: self.re,
            im: -self.im,
        }
    }

    /// Multiplicative inverse `1/z`.
    ///
    /// Returns infinities for `z = 0`, matching `f64` division semantics.
    pub fn recip(self) -> Complex64 {
        let d = self.abs_sq();
        Complex64 {
            re: self.re / d,
            im: -self.im / d,
        }
    }

    /// Whether both components are finite.
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl From<f64> for Complex64 {
    fn from(re: f64) -> Self {
        Complex64::from_re(re)
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{:.6}+{:.6}j", self.re, self.im)
        } else {
            write!(f, "{:.6}-{:.6}j", self.re, -self.im)
        }
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    fn add(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    fn sub(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    fn mul(self, rhs: Complex64) -> Complex64 {
        Complex64::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    // Division by reciprocal multiplication is the standard complex
    // formula, not a typo for `*`.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Complex64) -> Complex64 {
        self * rhs.recip()
    }
}

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    fn mul(self, s: f64) -> Complex64 {
        Complex64::new(self.re * s, self.im * s)
    }
}

impl Mul<Complex64> for f64 {
    type Output = Complex64;
    fn mul(self, z: Complex64) -> Complex64 {
        z * self
    }
}

impl Div<f64> for Complex64 {
    type Output = Complex64;
    fn div(self, s: f64) -> Complex64 {
        Complex64::new(self.re / s, self.im / s)
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    fn neg(self) -> Complex64 {
        Complex64::new(-self.re, -self.im)
    }
}

impl AddAssign for Complex64 {
    fn add_assign(&mut self, rhs: Complex64) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl SubAssign for Complex64 {
    fn sub_assign(&mut self, rhs: Complex64) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl MulAssign for Complex64 {
    fn mul_assign(&mut self, rhs: Complex64) {
        *self = *self * rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_arithmetic() {
        let a = Complex64::new(1.0, 2.0);
        let b = Complex64::new(3.0, -1.0);
        assert_eq!(a + b, Complex64::new(4.0, 1.0));
        assert_eq!(a - b, Complex64::new(-2.0, 3.0));
        assert_eq!(a * b, Complex64::new(5.0, 5.0));
        let q = a / b;
        let back = q * b;
        assert!((back - a).abs() < 1e-14);
        assert_eq!(-a, Complex64::new(-1.0, -2.0));
        assert_eq!(a * 2.0, Complex64::new(2.0, 4.0));
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(a / 2.0, Complex64::new(0.5, 1.0));
    }

    #[test]
    fn scalar_assign_ops() {
        let mut z = Complex64::ONE;
        z += Complex64::I;
        assert_eq!(z, Complex64::new(1.0, 1.0));
        z -= Complex64::ONE;
        assert_eq!(z, Complex64::I);
        z *= Complex64::I;
        assert_eq!(z, Complex64::new(-1.0, 0.0));
    }

    #[test]
    fn polar_and_phase() {
        let z = Complex64::from_polar(2.0, std::f64::consts::FRAC_PI_2);
        assert!(z.re.abs() < 1e-15);
        assert!((z.im - 2.0).abs() < 1e-15);
        assert!((z.arg() - std::f64::consts::FRAC_PI_2).abs() < 1e-15);
        assert_eq!(Complex64::new(3.0, 4.0).abs(), 5.0);
        assert_eq!(Complex64::new(3.0, 4.0).abs_sq(), 25.0);
        assert_eq!(Complex64::new(1.0, 2.0).conj(), Complex64::new(1.0, -2.0));
        assert!(!Complex64::new(1.0, f64::NAN).is_finite());
        assert_eq!(Complex64::from(2.5), Complex64::from_re(2.5));
    }

    #[test]
    fn recip_inverts() {
        let z = Complex64::new(2.0, -3.0);
        let p = z * z.recip();
        assert!((p - Complex64::ONE).abs() < 1e-15);
    }

    #[test]
    fn display_format() {
        assert_eq!(
            format!("{}", Complex64::new(1.0, -2.0)),
            "1.000000-2.000000j"
        );
        assert!(format!("{}", Complex64::I).contains('+'));
    }
}
