//! Special functions: log-gamma, multivariate log-gamma, erf, χ² CDF.
//!
//! Implemented from standard references (Lanczos approximation for `lnΓ`,
//! Abramowitz & Stegun 7.1.26-style rational approximation for `erf`,
//! series/continued-fraction evaluation of the regularised incomplete gamma
//! function). Accuracy is more than sufficient for likelihood comparison and
//! density normalisation (≲ 1e-13 relative for `ln_gamma`, ≲ 1.5e-7 for
//! `erf`).

/// Natural log of the Gamma function `ln Γ(x)` for `x > 0`.
///
/// Uses the Lanczos approximation (g = 7, n = 9 coefficients).
///
/// # Panics
///
/// Panics when `x <= 0` (poles and the reflection domain are not needed in
/// this workspace and indicate a caller bug).
///
/// # Example
///
/// ```
/// use bmf_stats::special::ln_gamma;
///
/// assert!((ln_gamma(5.0) - 24.0_f64.ln()).abs() < 1e-12); // Γ(5) = 4!
/// assert!((ln_gamma(0.5) - 0.5 * std::f64::consts::PI.ln()).abs() < 1e-12);
/// ```
#[allow(clippy::excessive_precision)] // published Lanczos coefficients, kept verbatim
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");

    // Lanczos coefficients for g = 7.
    const G: f64 = 7.0;
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_93,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_13,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];

    if x < 0.5 {
        // Reflection formula keeps accuracy near zero.
        let pi = std::f64::consts::PI;
        return pi.ln() - (pi * x).sin().ln() - ln_gamma(1.0 - x);
    }

    let x = x - 1.0;
    let mut acc = COEFFS[0];
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Natural log of the `d`-dimensional multivariate Gamma function:
///
/// `ln Γ_d(a) = d(d-1)/4 · ln π + Σ_{j=1..d} ln Γ(a + (1-j)/2)`
///
/// This is the normalisation constant of the Wishart density (paper Eq. 13).
///
/// # Panics
///
/// Panics when `d == 0` or when any shifted argument is non-positive
/// (requires `a > (d-1)/2`).
///
/// # Example
///
/// ```
/// use bmf_stats::special::{ln_gamma, ln_gamma_d};
///
/// // Γ_1(a) = Γ(a)
/// assert!((ln_gamma_d(1, 2.5) - ln_gamma(2.5)).abs() < 1e-12);
/// ```
pub fn ln_gamma_d(d: usize, a: f64) -> f64 {
    assert!(d > 0, "ln_gamma_d requires d > 0");
    let dd = d as f64;
    let mut s = dd * (dd - 1.0) / 4.0 * std::f64::consts::PI.ln();
    for j in 1..=d {
        s += ln_gamma(a + (1.0 - j as f64) / 2.0);
    }
    s
}

/// Error function `erf(x)`, accurate to ~1.5e-7 absolute.
///
/// # Example
///
/// ```
/// use bmf_stats::special::erf;
///
/// assert!(erf(0.0).abs() < 1e-15);
/// assert!((erf(1.0) - 0.8427007929).abs() < 1e-6);
/// assert!((erf(-1.0) + erf(1.0)).abs() < 1e-15); // odd function
/// ```
pub fn erf(x: f64) -> f64 {
    // Abramowitz & Stegun 7.1.26. The coefficients do not sum exactly to
    // one, so pin the exact zero of the odd function explicitly.
    if x == 0.0 {
        return 0.0;
    }
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736) * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Complementary error function `erfc(x) = 1 − erf(x)`.
pub fn erfc(x: f64) -> f64 {
    1.0 - erf(x)
}

/// Standard normal cumulative distribution function `Φ(x)`.
///
/// # Example
///
/// ```
/// use bmf_stats::special::standard_normal_cdf;
///
/// assert!((standard_normal_cdf(0.0) - 0.5).abs() < 1e-12);
/// assert!(standard_normal_cdf(5.0) > 0.999_999);
/// ```
pub fn standard_normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

/// Regularised lower incomplete gamma function `P(a, x) = γ(a, x)/Γ(a)`.
///
/// Series expansion for `x < a + 1`, continued fraction otherwise
/// (Numerical Recipes §6.2).
///
/// # Panics
///
/// Panics when `a <= 0` or `x < 0`.
///
/// # Example
///
/// ```
/// use bmf_stats::special::reg_lower_gamma;
///
/// // P(1, x) = 1 - exp(-x)
/// assert!((reg_lower_gamma(1.0, 2.0) - (1.0 - (-2.0f64).exp())).abs() < 1e-10);
/// ```
pub fn reg_lower_gamma(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "reg_lower_gamma requires a > 0, got {a}");
    assert!(x >= 0.0, "reg_lower_gamma requires x >= 0, got {x}");
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        // Series representation.
        let mut ap = a;
        let mut sum = 1.0 / a;
        let mut del = sum;
        for _ in 0..500 {
            ap += 1.0;
            del *= x / ap;
            sum += del;
            if del.abs() < sum.abs() * 1e-15 {
                break;
            }
        }
        sum * (-x + a * x.ln() - ln_gamma(a)).exp()
    } else {
        // Continued fraction for Q(a, x), then P = 1 - Q.
        let mut b = x + 1.0 - a;
        let mut c = 1.0 / 1e-300;
        let mut d = 1.0 / b;
        let mut h = d;
        for i in 1..500 {
            let an = -(i as f64) * (i as f64 - a);
            b += 2.0;
            d = an * d + b;
            if d.abs() < 1e-300 {
                d = 1e-300;
            }
            c = b + an / c;
            if c.abs() < 1e-300 {
                c = 1e-300;
            }
            d = 1.0 / d;
            let del = d * c;
            h *= del;
            if (del - 1.0).abs() < 1e-15 {
                break;
            }
        }
        let q = (-x + a * x.ln() - ln_gamma(a)).exp() * h;
        1.0 - q
    }
}

/// χ² cumulative distribution function with `k` degrees of freedom.
///
/// # Panics
///
/// Panics when `k <= 0` or `x < 0`.
///
/// # Example
///
/// ```
/// use bmf_stats::special::chi_squared_cdf;
///
/// // Median of χ²(2) is 2 ln 2.
/// assert!((chi_squared_cdf(2.0 * 2.0f64.ln(), 2.0) - 0.5).abs() < 1e-10);
/// ```
pub fn chi_squared_cdf(x: f64, k: f64) -> f64 {
    assert!(k > 0.0, "chi_squared_cdf requires k > 0");
    reg_lower_gamma(k / 2.0, x / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_matches_factorials() {
        let mut fact = 1.0_f64;
        for n in 1..15u32 {
            // Γ(n) = (n-1)!
            assert!(
                (ln_gamma(n as f64) - fact.ln()).abs() < 1e-11,
                "Γ({n}) mismatch"
            );
            fact *= n as f64;
        }
    }

    #[test]
    fn ln_gamma_half_integers() {
        let pi = std::f64::consts::PI;
        assert!((ln_gamma(0.5) - (pi.sqrt()).ln()).abs() < 1e-12);
        assert!((ln_gamma(1.5) - (pi.sqrt() / 2.0).ln()).abs() < 1e-12);
        assert!((ln_gamma(2.5) - (3.0 * pi.sqrt() / 4.0).ln()).abs() < 1e-12);
    }

    #[test]
    fn ln_gamma_recurrence() {
        // Γ(x+1) = x Γ(x)
        for &x in &[0.1, 0.7, 1.3, 5.5, 20.2, 100.9] {
            let lhs = ln_gamma(x + 1.0);
            let rhs = x.ln() + ln_gamma(x);
            assert!((lhs - rhs).abs() < 1e-10 * (1.0 + lhs.abs()), "x = {x}");
        }
    }

    #[test]
    #[should_panic(expected = "x > 0")]
    fn ln_gamma_rejects_nonpositive() {
        let _ = ln_gamma(0.0);
    }

    #[test]
    fn multivariate_gamma_reduces_to_scalar() {
        for &a in &[1.0, 2.5, 10.0] {
            assert!((ln_gamma_d(1, a) - ln_gamma(a)).abs() < 1e-13);
        }
    }

    #[test]
    fn multivariate_gamma_recurrence() {
        // Γ_d(a) = π^{(d-1)/2} Γ(a) Γ_{d-1}(a - 1/2)
        let pi = std::f64::consts::PI;
        for d in 2..6usize {
            let a = 4.0;
            let lhs = ln_gamma_d(d, a);
            let rhs = (d as f64 - 1.0) / 2.0 * pi.ln() + ln_gamma(a) + ln_gamma_d(d - 1, a - 0.5);
            assert!((lhs - rhs).abs() < 1e-11, "d = {d}");
        }
    }

    #[test]
    fn erf_known_values() {
        assert!(erf(0.0).abs() < 1e-15);
        assert!((erf(0.5) - 0.5204998778).abs() < 2e-7);
        assert!((erf(1.0) - 0.8427007929).abs() < 2e-7);
        assert!((erf(2.0) - 0.9953222650).abs() < 2e-7);
        assert!((erf(3.0) - 0.9999779095).abs() < 2e-7);
        assert!((erfc(1.0) - (1.0 - 0.8427007929)).abs() < 2e-7);
    }

    #[test]
    fn erf_is_odd_and_bounded() {
        for &x in &[0.1, 0.9, 2.3, 4.0] {
            assert!((erf(x) + erf(-x)).abs() < 1e-15);
            assert!(erf(x) <= 1.0 && erf(x) >= -1.0);
        }
    }

    #[test]
    fn normal_cdf_symmetry() {
        for &x in &[0.3, 1.0, 2.5] {
            let p = standard_normal_cdf(x);
            let q = standard_normal_cdf(-x);
            assert!((p + q - 1.0).abs() < 1e-7);
        }
        // 68-95-99.7 rule
        assert!((standard_normal_cdf(1.0) - standard_normal_cdf(-1.0) - 0.6827).abs() < 1e-3);
        assert!((standard_normal_cdf(2.0) - standard_normal_cdf(-2.0) - 0.9545).abs() < 1e-3);
    }

    #[test]
    fn incomplete_gamma_limits() {
        assert_eq!(reg_lower_gamma(2.0, 0.0), 0.0);
        assert!(reg_lower_gamma(2.0, 100.0) > 1.0 - 1e-12);
        // P(a, x) is increasing in x
        let mut prev = 0.0;
        for i in 1..20 {
            let p = reg_lower_gamma(3.0, i as f64 * 0.5);
            assert!(p >= prev);
            prev = p;
        }
    }

    #[test]
    fn incomplete_gamma_exponential_special_case() {
        for &x in &[0.1_f64, 1.0, 3.0, 10.0] {
            let expected = 1.0 - (-x).exp();
            assert!((reg_lower_gamma(1.0, x) - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn chi_squared_cdf_known_quantiles() {
        // χ²(1): P(X ≤ 3.841) ≈ 0.95
        assert!((chi_squared_cdf(3.841, 1.0) - 0.95).abs() < 1e-3);
        // χ²(5): P(X ≤ 11.07) ≈ 0.95
        assert!((chi_squared_cdf(11.070, 5.0) - 0.95).abs() < 1e-3);
        assert_eq!(chi_squared_cdf(0.0, 3.0), 0.0);
    }
}
