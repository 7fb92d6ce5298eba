//! Parametric-yield estimation from BMF moments — the application the
//! paper's introduction motivates.
//!
//! Estimates the op-amp's yield against a multi-metric specification box
//! using (a) moments from plain MLE on few samples, (b) moments from BMF,
//! and compares both against the reference yield computed by brute-force
//! Monte Carlo over a large post-layout pool.
//!
//! Run with: `cargo run --release --example yield_estimation`

use bmf_ams::circuits::monte_carlo::{run_monte_carlo_seeded, Stage, Testbench};
use bmf_ams::circuits::opamp::OpAmpTestbench;
use bmf_ams::core::experiment::{prepare, TwoStageData};
use bmf_ams::core::parallel::available_threads;
use bmf_ams::core::prelude::*;
use bmf_ams::core::yield_estimation::estimate_yield;
use bmf_ams::linalg::Matrix;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tb = OpAmpTestbench::default_45nm();
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);

    let threads = available_threads();
    let early = run_monte_carlo_seeded(&tb, Stage::Schematic, 1500, 99, threads)?;
    let late = run_monte_carlo_seeded(&tb, Stage::PostLayout, 1500, 99, threads)?;
    let n_late = 16;

    // Specification box in physical units:
    //   gain >= 82 dB, bandwidth >= 5 kHz, power <= 125 uW,
    //   |offset| <= 5 mV, phase margin >= 65 deg.
    let specs = SpecLimits::new(
        vec![Some(82.0), Some(5.0e3), None, Some(-5e-3), Some(65.0)],
        vec![None, None, Some(125e-6), Some(5e-3), None],
    )?;

    // Reference: count passes over the big post-layout pool directly.
    let mut passes = 0usize;
    for i in 0..late.samples.nrows() {
        if specs.passes(&late.samples.row_vec(i)) {
            passes += 1;
        }
    }
    let reference = passes as f64 / late.samples.nrows() as f64;
    println!(
        "reference yield (1500 post-layout MC): {:.1}%\n",
        reference * 100.0
    );

    // Normalise (§4.1), estimate moments from n = 16 late samples.
    let study = prepare(&TwoStageData {
        metric_names: tb.metric_names().iter().map(|s| s.to_string()).collect(),
        early_nominal: early.nominal,
        early_samples: early.samples,
        late_nominal: late.nominal,
        late_samples: late.samples,
    })?;
    let (early_moments, late_t) = (&study.early_moments, &study.late_transform);
    let few = Matrix::from_fn(n_late, 5, |i, j| study.late_pool[(i, j)]);

    let selection = CrossValidation.select(early_moments, &few, &mut rng)?;
    let prior =
        NormalWishartPrior::from_early_moments(early_moments, selection.kappa0, selection.nu0)?;
    let bmf_norm = BmfEstimator::new(prior)?.estimate(&few)?.map;
    let mle_norm = MleEstimator::new().estimate(&few)?;

    // Back to physical units, then integrate the fitted Gaussian over the
    // spec box by Monte Carlo (no circuit simulation needed).
    let bmf_phys = late_t.invert_moments(&bmf_norm)?;
    let y_bmf = estimate_yield(&bmf_phys, &specs, 100_000, &mut rng)?;
    println!(
        "yield from BMF moments (n = {n_late}): {:.1}% +- {:.1}%",
        y_bmf.yield_fraction * 100.0,
        y_bmf.std_error * 100.0
    );

    match late_t.invert_moments(&mle_norm) {
        Ok(mle_phys) => match estimate_yield(&mle_phys, &specs, 100_000, &mut rng) {
            Ok(y_mle) => println!(
                "yield from MLE moments (n = {n_late}): {:.1}% +- {:.1}%",
                y_mle.yield_fraction * 100.0,
                y_mle.std_error * 100.0
            ),
            Err(e) => println!("yield from MLE moments: unavailable ({e})"),
        },
        Err(e) => println!("yield from MLE moments: unavailable ({e})"),
    }

    println!(
        "\n|BMF - reference| = {:.1} points",
        (y_bmf.yield_fraction - reference).abs() * 100.0
    );
    Ok(())
}
