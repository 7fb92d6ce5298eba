//! Descriptive statistics over sample matrices.
//!
//! Samples are stored as an `n × d` [`Matrix`]: one row per observation,
//! one column per performance metric. These helpers compute the moment
//! statistics that both the MLE baseline (paper Eq. 10–11) and the BMF
//! posterior update (paper Eq. 24–26) are built from.

use crate::{Result, StatsError};
use bmf_linalg::{Matrix, Vector};

/// Sample mean vector `X̄ = (1/n) Σ Xᵢ` (paper Eq. 10).
///
/// # Errors
///
/// Returns [`StatsError::InsufficientSamples`] for an empty sample matrix.
///
/// # Example
///
/// ```
/// use bmf_linalg::Matrix;
/// use bmf_stats::descriptive::mean_vector;
///
/// # fn main() -> Result<(), bmf_stats::StatsError> {
/// let samples = Matrix::from_rows(&[&[1.0, 10.0], &[3.0, 20.0]]).unwrap();
/// let m = mean_vector(&samples)?;
/// assert_eq!(m.as_slice(), &[2.0, 15.0]);
/// # Ok(())
/// # }
/// ```
pub fn mean_vector(samples: &Matrix) -> Result<Vector> {
    let n = samples.nrows();
    if n == 0 {
        return Err(StatsError::InsufficientSamples {
            required: 1,
            available: 0,
        });
    }
    let d = samples.ncols();
    let mut mean = Vector::zeros(d);
    for i in 0..n {
        for j in 0..d {
            mean[j] += samples[(i, j)];
        }
    }
    Ok(mean / n as f64)
}

/// Scatter matrix `S = Σ (Xᵢ − X̄)(Xᵢ − X̄)ᵀ` about the sample mean
/// (paper Eq. 26).
///
/// # Errors
///
/// Returns [`StatsError::InsufficientSamples`] for an empty sample matrix.
pub fn scatter_matrix(samples: &Matrix) -> Result<Matrix> {
    let mean = mean_vector(samples)?;
    scatter_about(samples, &mean)
}

/// Scatter matrix about an arbitrary centre `c`: `Σ (Xᵢ − c)(Xᵢ − c)ᵀ`.
///
/// # Errors
///
/// * [`StatsError::InsufficientSamples`] for an empty sample matrix.
/// * [`StatsError::DimensionMismatch`] when `c.len() != d`.
pub fn scatter_about(samples: &Matrix, c: &Vector) -> Result<Matrix> {
    let (n, d) = samples.shape();
    if n == 0 {
        return Err(StatsError::InsufficientSamples {
            required: 1,
            available: 0,
        });
    }
    if c.len() != d {
        return Err(StatsError::DimensionMismatch {
            op: "scatter_about",
            expected: d,
            actual: c.len(),
        });
    }
    let mut s = Matrix::zeros(d, d);
    let mut diff = Vector::zeros(d);
    for i in 0..n {
        for j in 0..d {
            diff[j] = samples[(i, j)] - c[j];
        }
        for a in 0..d {
            let da = diff[a];
            for b in a..d {
                s[(a, b)] += da * diff[b];
            }
        }
    }
    // Mirror the upper triangle.
    for a in 0..d {
        for b in (a + 1)..d {
            s[(b, a)] = s[(a, b)];
        }
    }
    Ok(s)
}

/// Biased (maximum-likelihood) covariance `S/n` (paper Eq. 11).
///
/// # Errors
///
/// Returns [`StatsError::InsufficientSamples`] for an empty sample matrix.
pub fn covariance_mle(samples: &Matrix) -> Result<Matrix> {
    let n = samples.nrows();
    let s = scatter_matrix(samples)?;
    Ok(s / n as f64)
}

/// Unbiased covariance `S/(n−1)`.
///
/// # Errors
///
/// Returns [`StatsError::InsufficientSamples`] when `n < 2`.
pub fn covariance_unbiased(samples: &Matrix) -> Result<Matrix> {
    let n = samples.nrows();
    if n < 2 {
        return Err(StatsError::InsufficientSamples {
            required: 2,
            available: n,
        });
    }
    let s = scatter_matrix(samples)?;
    Ok(s / (n as f64 - 1.0))
}

/// Per-column standard deviations (unbiased).
///
/// # Errors
///
/// Returns [`StatsError::InsufficientSamples`] when `n < 2`.
pub fn column_stddevs(samples: &Matrix) -> Result<Vector> {
    let cov = covariance_unbiased(samples)?;
    Ok(Vector::from_fn(cov.nrows(), |i| {
        cov[(i, i)].max(0.0).sqrt()
    }))
}

/// Pearson correlation matrix derived from a covariance matrix.
///
/// Zero-variance dimensions produce zero correlations (diagonal stays 1).
///
/// # Errors
///
/// Returns [`StatsError::Linalg`] for a non-square covariance.
pub fn correlation_from_cov(cov: &Matrix) -> Result<Matrix> {
    if !cov.is_square() {
        return Err(StatsError::Linalg(bmf_linalg::LinalgError::NotSquare {
            shape: cov.shape(),
        }));
    }
    let d = cov.nrows();
    let sd = Vector::from_fn(d, |i| cov[(i, i)].max(0.0).sqrt());
    Ok(Matrix::from_fn(d, d, |i, j| {
        if i == j {
            1.0
        } else if sd[i] > 0.0 && sd[j] > 0.0 {
            cov[(i, j)] / (sd[i] * sd[j])
        } else {
            0.0
        }
    }))
}

/// Per-column standardised skewness `E[(x−μ)³]/σ³` — the first high-order
/// diagnostic for the Gaussianity assumption the BMF method rests on
/// (paper §3.1; extending BMF to match high-order moments is its stated
/// future work).
///
/// # Errors
///
/// Returns [`StatsError::InsufficientSamples`] when `n < 3`.
pub fn column_skewness(samples: &Matrix) -> Result<Vector> {
    let (n, d) = samples.shape();
    if n < 3 {
        return Err(StatsError::InsufficientSamples {
            required: 3,
            available: n,
        });
    }
    let mean = mean_vector(samples)?;
    let mut out = Vector::zeros(d);
    for j in 0..d {
        let mut m2 = 0.0;
        let mut m3 = 0.0;
        for i in 0..n {
            let c = samples[(i, j)] - mean[j];
            m2 += c * c;
            m3 += c * c * c;
        }
        m2 /= n as f64;
        m3 /= n as f64;
        out[j] = if m2 > 0.0 { m3 / m2.powf(1.5) } else { 0.0 };
    }
    Ok(out)
}

/// Per-column excess kurtosis `E[(x−μ)⁴]/σ⁴ − 3` (0 for a Gaussian).
///
/// # Errors
///
/// Returns [`StatsError::InsufficientSamples`] when `n < 4`.
pub fn column_excess_kurtosis(samples: &Matrix) -> Result<Vector> {
    let (n, d) = samples.shape();
    if n < 4 {
        return Err(StatsError::InsufficientSamples {
            required: 4,
            available: n,
        });
    }
    let mean = mean_vector(samples)?;
    let mut out = Vector::zeros(d);
    for j in 0..d {
        let mut m2 = 0.0;
        let mut m4 = 0.0;
        for i in 0..n {
            let c = samples[(i, j)] - mean[j];
            let c2 = c * c;
            m2 += c2;
            m4 += c2 * c2;
        }
        m2 /= n as f64;
        m4 /= n as f64;
        out[j] = if m2 > 0.0 { m4 / (m2 * m2) - 3.0 } else { 0.0 };
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 6.0], &[5.0, 4.0]]).unwrap()
    }

    #[test]
    fn mean_is_columnwise() {
        let m = mean_vector(&samples()).unwrap();
        assert_eq!(m.as_slice(), &[3.0, 4.0]);
        assert!(mean_vector(&Matrix::zeros(0, 2)).is_err());
    }

    #[test]
    fn scatter_matches_definition() {
        let s = scatter_matrix(&samples()).unwrap();
        // Centred data: (-2,-2), (0,2), (2,0)
        // S = [[8, 4], [4, 8]]
        assert_eq!(s, Matrix::from_rows(&[&[8.0, 4.0], &[4.0, 8.0]]).unwrap());
    }

    #[test]
    fn scatter_about_other_centre() {
        let c = Vector::zeros(2);
        let s = scatter_about(&samples(), &c).unwrap();
        // Σ XᵢXᵢᵀ = [[35, 40], [40, 56]]
        assert_eq!(
            s,
            Matrix::from_rows(&[&[35.0, 40.0], &[40.0, 56.0]]).unwrap()
        );
        assert!(scatter_about(&samples(), &Vector::zeros(3)).is_err());
    }

    #[test]
    fn covariances() {
        let mle = covariance_mle(&samples()).unwrap();
        assert!((mle[(0, 0)] - 8.0 / 3.0).abs() < 1e-14);
        let unb = covariance_unbiased(&samples()).unwrap();
        assert!((unb[(0, 0)] - 4.0).abs() < 1e-14);
        let single = Matrix::from_rows(&[&[1.0, 2.0]]).unwrap();
        assert!(covariance_unbiased(&single).is_err());
        // MLE covariance of a single sample is all zeros.
        assert_eq!(covariance_mle(&single).unwrap(), Matrix::zeros(2, 2));
    }

    #[test]
    fn stddevs_and_correlation() {
        let sd = column_stddevs(&samples()).unwrap();
        assert!((sd[0] - 2.0).abs() < 1e-14);
        assert!((sd[1] - 2.0).abs() < 1e-14);

        let cov = covariance_unbiased(&samples()).unwrap();
        let corr = correlation_from_cov(&cov).unwrap();
        assert_eq!(corr[(0, 0)], 1.0);
        assert!((corr[(0, 1)] - 0.5).abs() < 1e-14);
        assert!(correlation_from_cov(&Matrix::zeros(2, 3)).is_err());

        // zero-variance dimension
        let degenerate = Matrix::from_rows(&[&[0.0, 1.0], &[0.0, 2.0]]).unwrap();
        let corr = correlation_from_cov(&covariance_unbiased(&degenerate).unwrap()).unwrap();
        assert_eq!(corr[(0, 1)], 0.0);
        assert_eq!(corr[(0, 0)], 1.0);
    }

    #[test]
    fn high_order_moments_of_known_shapes() {
        use crate::sample_standard_normal;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let n = 40_000;
        // Column 0: Gaussian (skew 0, excess kurtosis 0). Column 1:
        // squared Gaussian = χ²(1) shifted (skew √8, excess kurtosis 12).
        let m = Matrix::from_fn(n, 2, |_, j| {
            let z = sample_standard_normal(&mut rng);
            if j == 0 {
                z
            } else {
                z * z
            }
        });
        let skew = column_skewness(&m).unwrap();
        assert!(skew[0].abs() < 0.08, "gaussian skew = {}", skew[0]);
        assert!(
            (skew[1] - 8f64.sqrt()).abs() < 0.4,
            "chi2 skew = {}",
            skew[1]
        );
        let kurt = column_excess_kurtosis(&m).unwrap();
        assert!(kurt[0].abs() < 0.3, "gaussian kurt = {}", kurt[0]);
        assert!((kurt[1] - 12.0).abs() < 3.0, "chi2 kurt = {}", kurt[1]);
    }

    #[test]
    fn high_order_moments_validate_input() {
        assert!(column_skewness(&Matrix::zeros(2, 2)).is_err());
        assert!(column_excess_kurtosis(&Matrix::zeros(3, 2)).is_err());
        // Constant column → zero by convention, not NaN.
        let m = Matrix::from_fn(10, 1, |_, _| 5.0);
        assert_eq!(column_skewness(&m).unwrap()[0], 0.0);
        assert_eq!(column_excess_kurtosis(&m).unwrap()[0], 0.0);
    }
}
