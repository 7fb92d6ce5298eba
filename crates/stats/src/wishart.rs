//! Wishart distribution with Bartlett-decomposition sampling.

use crate::special::ln_gamma_d;
use crate::{sample_chi_squared, sample_standard_normal, Result, StatsError};
use bmf_linalg::{Cholesky, Matrix};
use rand::Rng;

/// Wishart distribution `Wi_ν(Λ | T)` over `d × d` symmetric
/// positive-definite matrices, with degrees of freedom `ν` and scale matrix
/// `T` (the parameterisation of paper Eq. 12: `E[Λ] = ν T`).
///
/// Sampling uses the **Bartlett decomposition**: draw a lower-triangular `A`
/// with `χ(ν−i)` diagonal entries and standard-normal sub-diagonal entries,
/// then `Λ = L A Aᵀ Lᵀ` where `T = L Lᵀ`. This is the hand-coded sampler the
/// reproduction notes called out.
///
/// # Example
///
/// ```
/// use bmf_linalg::Matrix;
/// use bmf_stats::Wishart;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), bmf_stats::StatsError> {
/// let w = Wishart::new(Matrix::identity(2), 5.0)?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(9);
/// let lambda = w.sample(&mut rng);
/// assert!(bmf_linalg::Cholesky::new(&lambda).is_ok()); // SPD draw
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Wishart {
    scale: Matrix,
    dof: f64,
    chol_scale: Cholesky,
    /// Cached Cholesky of T⁻¹ for density evaluation.
    scale_inv: Matrix,
}

impl Wishart {
    /// Creates a Wishart distribution.
    ///
    /// # Errors
    ///
    /// * [`StatsError::InvalidParameter`] when `dof <= d - 1` (density would
    ///   not be normalisable).
    /// * [`StatsError::Linalg`] when `scale` is not symmetric positive
    ///   definite.
    pub fn new(scale: Matrix, dof: f64) -> Result<Self> {
        let d = scale.nrows() as f64;
        if !(dof > d - 1.0) {
            return Err(StatsError::InvalidParameter {
                name: "dof",
                value: format!("{dof}"),
                constraint: "dof > d - 1",
            });
        }
        let chol_scale = Cholesky::new(&scale)?;
        let scale_inv = chol_scale.inverse()?;
        Ok(Wishart {
            scale,
            dof,
            chol_scale,
            scale_inv,
        })
    }

    /// Dimension `d` of the matrices.
    pub fn dim(&self) -> usize {
        self.scale.nrows()
    }

    /// Scale matrix `T`.
    pub fn scale(&self) -> &Matrix {
        &self.scale
    }

    /// Degrees of freedom `ν`.
    pub fn dof(&self) -> f64 {
        self.dof
    }

    /// Distribution mean `E[Λ] = ν T`.
    pub fn mean(&self) -> Matrix {
        &self.scale * self.dof
    }

    /// Distribution mode `(ν − d − 1) T`, defined for `ν ≥ d + 1`.
    ///
    /// Returns `None` when the mode does not exist (`ν < d + 1`).
    pub fn mode(&self) -> Option<Matrix> {
        let d = self.dim() as f64;
        if self.dof >= d + 1.0 {
            Some(&self.scale * (self.dof - d - 1.0))
        } else {
            None
        }
    }

    /// Log-density at an SPD matrix `x`.
    ///
    /// `ln Wi(x) = (ν−d−1)/2 ln|x| − tr(T⁻¹x)/2 − νd/2 ln2 − ν/2 ln|T| − ln Γ_d(ν/2)`
    ///
    /// # Errors
    ///
    /// * [`StatsError::DimensionMismatch`] when `x` has the wrong shape.
    /// * [`StatsError::Linalg`] when `x` is not SPD.
    pub fn ln_pdf(&self, x: &Matrix) -> Result<f64> {
        let d = self.dim();
        if x.shape() != (d, d) {
            return Err(StatsError::DimensionMismatch {
                op: "wishart ln_pdf",
                expected: d,
                actual: x.nrows(),
            });
        }
        let chol_x = Cholesky::new(x)?;
        let ln_det_x = chol_x.ln_det();
        let tr = self.scale_inv.mat_mul(x)?.trace()?;
        let df = self.dof;
        let dd = d as f64;
        Ok(0.5 * (df - dd - 1.0) * ln_det_x
            - 0.5 * tr
            - 0.5 * df * dd * 2.0_f64.ln()
            - 0.5 * df * self.chol_scale.ln_det()
            - ln_gamma_d(d, df / 2.0))
    }

    /// Draws one SPD matrix via the Bartlett decomposition.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Matrix {
        let d = self.dim();
        // Lower-triangular A: A_ii ~ sqrt(χ²(ν − i)), A_ij ~ N(0,1) for j < i.
        let mut a = Matrix::zeros(d, d);
        for i in 0..d {
            a[(i, i)] = sample_chi_squared(rng, self.dof - i as f64).sqrt();
            for j in 0..i {
                a[(i, j)] = sample_standard_normal(rng);
            }
        }
        let l = self.chol_scale.factor();
        let la = l.mat_mul(&a).expect("square dims");
        let mut out = la.mat_mul(&la.transpose()).expect("square dims");
        out.symmetrize().expect("square");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmf_linalg::Vector;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(23)
    }

    fn scale2() -> Matrix {
        Matrix::from_rows(&[&[1.0, 0.3], &[0.3, 0.5]]).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(Wishart::new(Matrix::identity(3), 2.0).is_err()); // dof <= d-1
        assert!(Wishart::new(Matrix::identity(3), 2.5).is_ok());
        let not_spd = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert!(Wishart::new(not_spd, 5.0).is_err());
    }

    #[test]
    fn mean_and_mode() {
        let w = Wishart::new(scale2(), 10.0).unwrap();
        let mean = w.mean();
        assert!((mean[(0, 0)] - 10.0).abs() < 1e-14);
        let mode = w.mode().unwrap();
        // (ν − d − 1) T = 7 T
        assert!((mode[(0, 0)] - 7.0).abs() < 1e-14);
        // no mode for small dof
        let w = Wishart::new(Matrix::identity(2), 2.5).unwrap();
        assert!(w.mode().is_none());
    }

    #[test]
    fn samples_are_spd() {
        let w = Wishart::new(scale2(), 6.0).unwrap();
        let mut r = rng();
        for _ in 0..50 {
            let lambda = w.sample(&mut r);
            assert!(Cholesky::new(&lambda).is_ok());
            assert!(lambda.is_symmetric(1e-10));
        }
    }

    #[test]
    fn sample_mean_converges_to_nu_t() {
        let w = Wishart::new(scale2(), 8.0).unwrap();
        let mut r = rng();
        let n = 20_000;
        let mut acc = Matrix::zeros(2, 2);
        for _ in 0..n {
            acc += &w.sample(&mut r);
        }
        acc *= 1.0 / n as f64;
        let expected = w.mean();
        assert!(
            acc.max_abs_diff(&expected).unwrap() < 0.15,
            "sample mean {acc} vs expected {expected}"
        );
    }

    #[test]
    fn sample_variance_matches_theory_diagonal() {
        // Var[Λ_ii] = 2 ν T_ii² for the Wishart.
        let w = Wishart::new(scale2(), 8.0).unwrap();
        let mut r = rng();
        let n = 20_000;
        let mut vals = Vec::with_capacity(n);
        for _ in 0..n {
            vals.push(w.sample(&mut r)[(0, 0)]);
        }
        let mean: f64 = vals.iter().sum::<f64>() / n as f64;
        let var: f64 = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n as f64 - 1.0);
        let expected = 2.0 * 8.0 * 1.0;
        assert!((var - expected).abs() / expected < 0.1, "var = {var}");
    }

    #[test]
    fn univariate_wishart_is_gamma_chi_squared() {
        // Wi_ν(λ | T=1) in 1-D is χ²(ν): mean ν, variance 2ν.
        let w = Wishart::new(Matrix::identity(1), 5.0).unwrap();
        let mut r = rng();
        let n = 30_000;
        let xs: Vec<f64> = (0..n).map(|_| w.sample(&mut r)[(0, 0)]).collect();
        let mean: f64 = xs.iter().sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean = {mean}");
    }

    #[test]
    fn ln_pdf_matches_univariate_chi_squared_density() {
        // For d=1, T=1: Wi_ν(x) = χ²_ν(x) density.
        let w = Wishart::new(Matrix::identity(1), 4.0).unwrap();
        let x = 3.0;
        let ln_p = w.ln_pdf(&Matrix::from_rows(&[&[x]]).unwrap()).unwrap();
        // χ²(4) density: x e^{-x/2}/4
        let expected = (x * (-x / 2.0_f64).exp() / 4.0).ln();
        assert!((ln_p - expected).abs() < 1e-10, "{ln_p} vs {expected}");
    }

    #[test]
    fn ln_pdf_peaks_at_mode() {
        let w = Wishart::new(scale2(), 10.0).unwrap();
        let mode = w.mode().unwrap();
        let at_mode = w.ln_pdf(&mode).unwrap();
        // Perturb the mode in a few directions; density must not increase.
        for eps in [0.1, -0.1] {
            let mut x = mode.clone();
            x[(0, 0)] += eps;
            if Cholesky::new(&x).is_ok() {
                assert!(w.ln_pdf(&x).unwrap() <= at_mode + 1e-12);
            }
            let mut y = mode.clone();
            y[(0, 1)] += eps;
            y[(1, 0)] += eps;
            if Cholesky::new(&y).is_ok() {
                assert!(w.ln_pdf(&y).unwrap() <= at_mode + 1e-12);
            }
        }
    }

    #[test]
    fn ln_pdf_validates_input() {
        let w = Wishart::new(scale2(), 10.0).unwrap();
        assert!(w.ln_pdf(&Matrix::identity(3)).is_err());
        let not_spd = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert!(w.ln_pdf(&not_spd).is_err());
    }

    #[test]
    fn accessors() {
        let w = Wishart::new(scale2(), 6.5).unwrap();
        assert_eq!(w.dim(), 2);
        assert_eq!(w.dof(), 6.5);
        assert_eq!(w.scale(), &scale2());
        let _ = Vector::zeros(1); // silence unused import in some cfgs
    }
}
