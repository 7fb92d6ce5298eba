//! Property-based tests for distributions and special functions.

use bmf_linalg::{Matrix, Vector};
use bmf_stats::exact::ExactSum;
use bmf_stats::special::{chi_squared_cdf, erf, ln_gamma, ln_gamma_d, reg_lower_gamma};
use bmf_stats::{descriptive, MultivariateNormal, NormalWishart, Wishart};
use proptest::prelude::*;
use rand::SeedableRng;

fn spd_from_seed(d: usize, vals: &[f64]) -> Matrix {
    let b = Matrix::from_vec(d, d, vals.to_vec()).expect("shape");
    let mut a = b.mat_mul(&b.transpose()).expect("square");
    for i in 0..d {
        a[(i, i)] += 0.5;
    }
    a
}

/// A finite double from raw bits: any sign, any exponent from the
/// subnormal 2⁻¹⁰⁷⁴ up to 2¹⁰²³ (an all-ones exponent field is folded
/// onto the largest finite one).
fn finite_from_bits(bits: u64) -> f64 {
    let x = f64::from_bits(bits);
    if x.is_finite() {
        x
    } else {
        f64::from_bits(bits & !(1 << 52))
    }
}

proptest! {
    #[test]
    fn exact_sum_text_round_trips(
        bits in proptest::collection::vec(0u64..u64::MAX, 1..24),
        subnormal in 1u64..(1 << 52),
    ) {
        let values: Vec<f64> = bits.iter().map(|&b| finite_from_bits(b)).collect();
        // The values and their negations cancel to exactly zero.
        let mut cancelled = values.clone();
        cancelled.extend(values.iter().map(|v| -v));
        let single = f64::from_bits(subnormal | (bits[0] & (1 << 63)));
        let sums = [
            ("sum", ExactSum::from_values(&values)),
            ("cancelled", ExactSum::from_values(&cancelled)),
            ("subnormal", ExactSum::from_values(&[single])),
        ];
        for (what, sum) in sums {
            let text = sum.to_hex();
            let back = ExactSum::from_hex(&text)
                .unwrap_or_else(|| panic!("{what}: refused its own text {text}"));
            prop_assert_eq!(&back, &sum, "{}", what);
            prop_assert_eq!(back.to_hex(), text, "{}", what);
            prop_assert_eq!(back.round().to_bits(), sum.round().to_bits(), "{}", what);
        }
        prop_assert_eq!(ExactSum::from_values(&cancelled).to_hex(), "0");
    }

    #[test]
    fn accepted_exact_sum_strings_reserialise_to_themselves(
        words in proptest::collection::vec(0u64..u64::MAX, 1..40),
        shift in 0u32..64,
        dropped in 0usize..600,
        negative in 0u8..2,
    ) {
        // Strings of the text form's shape, canonical or not: up to 640
        // digits, some with a leading or a trailing zero.
        let mut digits = format!("{:x}", words[0] >> shift);
        for w in &words[1..] {
            digits.push_str(&format!("{w:016x}"));
        }
        let sign = if negative == 1 { "-" } else { "" };
        let text = format!("{sign}{digits}p{dropped}");
        let canonical =
            !digits.starts_with('0') && !digits.ends_with('0') && digits.len() + dropped <= 544;
        match ExactSum::from_hex(&text) {
            Some(sum) => {
                prop_assert!(canonical, "accepted {text}");
                prop_assert_eq!(sum.to_hex(), text);
            }
            None => prop_assert!(!canonical, "refused {text}"),
        }
    }

    #[test]
    fn ln_gamma_satisfies_recurrence(x in 0.05..50.0f64) {
        let lhs = ln_gamma(x + 1.0);
        let rhs = x.ln() + ln_gamma(x);
        prop_assert!((lhs - rhs).abs() < 1e-9 * (1.0 + lhs.abs()));
    }

    #[test]
    fn ln_gamma_log_convex(x in 0.5..20.0f64) {
        // midpoint convexity of ln Γ
        let mid = ln_gamma(x + 0.5);
        let avg = 0.5 * (ln_gamma(x) + ln_gamma(x + 1.0));
        prop_assert!(mid <= avg + 1e-12);
    }

    #[test]
    fn multivariate_gamma_recurrence(d in 2usize..6, a in 4.0..30.0f64) {
        let pi = std::f64::consts::PI;
        let lhs = ln_gamma_d(d, a);
        let rhs = (d as f64 - 1.0) / 2.0 * pi.ln() + ln_gamma(a) + ln_gamma_d(d - 1, a - 0.5);
        prop_assert!((lhs - rhs).abs() < 1e-9 * (1.0 + lhs.abs()));
    }

    #[test]
    fn erf_monotone_and_odd(a in -4.0..4.0f64, b in -4.0..4.0f64) {
        prop_assert!((erf(a) + erf(-a)).abs() < 1e-14);
        if a < b {
            prop_assert!(erf(a) <= erf(b) + 1e-12);
        }
    }

    #[test]
    fn incomplete_gamma_is_cdf_like(a in 0.2..20.0f64, x in 0.0..50.0f64) {
        let p = reg_lower_gamma(a, x);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&p));
        // increasing in x
        let p2 = reg_lower_gamma(a, x + 1.0);
        prop_assert!(p2 + 1e-12 >= p);
    }

    #[test]
    fn chi_squared_cdf_bounds(k in 0.5..40.0f64, x in 0.0..100.0f64) {
        let c = chi_squared_cdf(x, k);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&c));
    }

    #[test]
    fn mvn_density_decreases_with_mahalanobis(
        seed in 0u64..1000,
        scale in 1.0..5.0f64,
    ) {
        let mvn = MultivariateNormal::new(
            Vector::zeros(2),
            Matrix::identity(2) * scale,
        ).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = mvn.sample(&mut rng);
        let b = mvn.sample(&mut rng);
        let (near, far) = if mvn.mahalanobis_sq(&a).unwrap() < mvn.mahalanobis_sq(&b).unwrap() {
            (a, b)
        } else {
            (b, a)
        };
        prop_assert!(mvn.ln_pdf(&near).unwrap() >= mvn.ln_pdf(&far).unwrap() - 1e-12);
    }

    #[test]
    fn wishart_draws_are_spd(vals in proptest::collection::vec(-2.0..2.0f64, 9), seed in 0u64..500) {
        let t = spd_from_seed(3, &vals);
        let w = Wishart::new(t, 6.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let draw = w.sample(&mut rng);
        prop_assert!(bmf_linalg::Cholesky::new(&draw).is_ok());
    }

    #[test]
    fn normal_wishart_mode_dominates_perturbations(
        vals in proptest::collection::vec(-1.5..1.5f64, 4),
        kappa in 0.5..50.0f64,
        nu in 3.0..100.0f64,
        eps in -0.2..0.2f64,
    ) {
        let t0 = spd_from_seed(2, &vals);
        let nw = NormalWishart::new(Vector::zeros(2), kappa, nu, t0).unwrap();
        let (mu_m, lam_m) = nw.mode();
        let peak = nw.ln_pdf(&mu_m, &lam_m).unwrap();
        let mut mu = mu_m.clone();
        mu[0] += eps;
        prop_assert!(nw.ln_pdf(&mu, &lam_m).unwrap() <= peak + 1e-9);
    }

    #[test]
    fn scatter_matrix_is_psd(rows in proptest::collection::vec(
        proptest::collection::vec(-10.0..10.0f64, 3), 2..20)) {
        let n = rows.len();
        let flat: Vec<f64> = rows.into_iter().flatten().collect();
        let m = Matrix::from_vec(n, 3, flat).unwrap();
        let s = descriptive::scatter_matrix(&m).unwrap();
        let eig = bmf_linalg::SymmetricEigen::new(&s).unwrap();
        prop_assert!(eig.min_eigenvalue() > -1e-8 * (1.0 + eig.max_eigenvalue().abs()));
    }

    #[test]
    fn mean_of_constant_rows_is_the_constant(c in -100.0..100.0f64, n in 1usize..30) {
        let m = Matrix::from_fn(n, 2, |_, j| c + j as f64);
        let mean = descriptive::mean_vector(&m).unwrap();
        prop_assert!((mean[0] - c).abs() < 1e-9);
        prop_assert!((mean[1] - (c + 1.0)).abs() < 1e-9);
        let s = descriptive::scatter_matrix(&m).unwrap();
        prop_assert!(s.norm_frobenius() < 1e-7);
    }
}
