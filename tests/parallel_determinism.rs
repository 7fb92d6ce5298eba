//! Property-based determinism tests for the parallel execution layer.
//!
//! The seed-derivation contract (`derive_seed(root, stream, index)`) must
//! make every parallel entry point **bit-identical** across thread counts:
//! parallelism is a wall-clock optimisation, never a statistical one.
//! Each property runs the same workload at 1, 2 and 7 threads and demands
//! exact equality of every floating-point bit.

use bmf_ams::circuits::adc::AdcTestbench;
use bmf_ams::circuits::monte_carlo::{run_monte_carlo_seeded, two_stage_study_seeded, Stage};
use bmf_ams::core::cv::{CrossValidation, REPEATS};
use bmf_ams::core::experiment::{prepare, run_error_sweep_parallel, PreparedStudy, SweepConfig};
use bmf_ams::core::MomentEstimate;
use bmf_ams::linalg::{Matrix, Vector};
use bmf_ams::stats::MultivariateNormal;
use proptest::prelude::*;
use rand::SeedableRng;
use std::sync::OnceLock;

const THREAD_COUNTS: [usize; 3] = [1, 2, 7];

fn synthetic(d: usize, n: usize, seed: u64) -> (MomentEstimate, Matrix) {
    let b = Matrix::from_fn(d, d, |i, j| ((i + 2 * j) % 5) as f64 / 5.0);
    let mut cov = b.mat_mul(&b.transpose()).expect("square");
    for i in 0..d {
        cov[(i, i)] += 1.0;
    }
    let early = MomentEstimate {
        mean: Vector::zeros(d),
        cov: cov.clone(),
    };
    let truth = MultivariateNormal::new(Vector::zeros(d), cov).expect("spd");
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let samples = truth.sample_matrix(&mut rng, n);
    (early, samples)
}

/// One prepared ADC study shared by all sweep cases (building it per case
/// would dominate the test's runtime without exercising anything new).
fn shared_study() -> &'static PreparedStudy {
    static STUDY: OnceLock<PreparedStudy> = OnceLock::new();
    STUDY.get_or_init(|| {
        let tb = AdcTestbench::default_180nm();
        let study = two_stage_study_seeded(&tb, 30, 30, 9, 2).expect("study");
        let data = bmf_ams::core::experiment::TwoStageData {
            metric_names: study.metric_names.iter().map(|s| s.to_string()).collect(),
            early_nominal: study.early.nominal.clone(),
            early_samples: study.early.samples.clone(),
            late_nominal: study.late.nominal.clone(),
            late_samples: study.late.samples.clone(),
        };
        prepare(&data).expect("prepare")
    })
}

proptest! {
    /// CV grid selection is bit-identical for threads ∈ {1, 2, 7}: the
    /// default 12×12 grid with 8 repeats at d = 5, so 8 repeat tasks run
    /// over 7 workers.
    #[test]
    fn cv_selection_is_thread_count_invariant(
        seed in 0u64..10_000,
        n in 8usize..24,
    ) {
        let (early, late) = synthetic(5, n, seed ^ 0xA5A5);
        let cv = CrossValidation;
        prop_assert_eq!(REPEATS, 8);
        let reference = cv.select_seeded(&early, &late, seed, THREAD_COUNTS[0]).expect("select");
        for &t in &THREAD_COUNTS[1..] {
            let sel = cv.select_seeded(&early, &late, seed, t).expect("select");
            prop_assert_eq!(sel.kappa0.to_bits(), reference.kappa0.to_bits());
            prop_assert_eq!(sel.nu0.to_bits(), reference.nu0.to_bits());
            prop_assert_eq!(sel.score.to_bits(), reference.score.to_bits());
            prop_assert_eq!(&sel, &reference);
        }
    }

    /// Seeded Monte Carlo generation is bit-identical for threads ∈ {1, 2, 7}.
    #[test]
    fn monte_carlo_is_thread_count_invariant(
        seed in 0u64..10_000,
        n in 1usize..20,
    ) {
        let tb = AdcTestbench::default_180nm();
        let reference = run_monte_carlo_seeded(
            &tb, Stage::PostLayout, n, seed, THREAD_COUNTS[0],
        ).expect("mc");
        for &t in &THREAD_COUNTS[1..] {
            let data = run_monte_carlo_seeded(&tb, Stage::PostLayout, n, seed, t).expect("mc");
            prop_assert_eq!(&data.samples, &reference.samples);
            prop_assert_eq!(&data.nominal, &reference.nominal);
        }
    }

    /// The repetition-parallel error sweep, CV on the shipped grid
    /// included, is bit-identical for threads ∈ {1, 2, 7}, including when
    /// threads exceed repetitions.
    #[test]
    fn error_sweep_is_thread_count_invariant(
        seed in 0u64..10_000,
    ) {
        let config = SweepConfig {
            sample_sizes: vec![8],
            repetitions: 2,
            seed,
        };
        let prepared = shared_study();
        let reference = run_error_sweep_parallel(prepared, &config, THREAD_COUNTS[0])
            .expect("sweep");
        for &t in &THREAD_COUNTS[1..] {
            let result = run_error_sweep_parallel(prepared, &config, t).expect("sweep");
            prop_assert_eq!(result.rows.len(), reference.rows.len());
            for (a, b) in result.rows.iter().zip(reference.rows.iter()) {
                prop_assert_eq!(a.n, b.n);
                prop_assert_eq!(a.mle_mean_err.to_bits(), b.mle_mean_err.to_bits());
                prop_assert_eq!(a.bmf_mean_err.to_bits(), b.bmf_mean_err.to_bits());
                prop_assert_eq!(a.mle_cov_err.to_bits(), b.mle_cov_err.to_bits());
                prop_assert_eq!(a.bmf_cov_err.to_bits(), b.bmf_cov_err.to_bits());
                prop_assert_eq!(a.mean_kappa0.to_bits(), b.mean_kappa0.to_bits());
            }
        }
    }
}
