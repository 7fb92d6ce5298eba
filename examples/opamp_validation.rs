//! Op-amp post-layout validation with few late-stage samples — the paper's
//! first circuit example (§5.1), run end to end at a reduced size.
//!
//! Scenario: the schematic design has been characterised with thousands of
//! cheap Monte Carlo runs; post-layout simulation is expensive, so only a
//! handful of runs exist. Estimate the post-layout moment set and compare
//! MLE vs BMF against the reference computed from a large post-layout pool.
//!
//! Run with: `cargo run --release --example opamp_validation`

use bmf_ams::circuits::monte_carlo::{run_monte_carlo_seeded, Stage};
use bmf_ams::circuits::opamp::OpAmpTestbench;
use bmf_ams::core::parallel::available_threads;
use bmf_ams::core::prelude::*;
use bmf_ams::stats::descriptive;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tb = OpAmpTestbench::default_45nm();
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);

    println!("two-stage op-amp, 45 nm — metrics:");
    println!("  gain_db, bandwidth_hz, power_w, offset_v, phase_margin_deg\n");

    // Early stage: abundant schematic-level Monte Carlo.
    let threads = available_threads();
    let early = run_monte_carlo_seeded(&tb, Stage::Schematic, 2000, 7, threads)?;
    // Late stage: a large reference pool (to measure errors against) from
    // which only a few samples are "affordable".
    let late = run_monte_carlo_seeded(&tb, Stage::PostLayout, 2000, 7, threads)?;
    let n_late = 16;

    println!("schematic nominal : {}", early.nominal);
    println!("post-layout nominal: {}\n", late.nominal);

    // §4.1 shift & scale.
    let early_sd = descriptive::column_stddevs(&early.samples)?;
    let early_t = ShiftScale::from_nominal_and_early_sd(&early.nominal, &early_sd)?;
    let late_t = ShiftScale::from_nominal_and_early_sd(&late.nominal, &early_sd)?;
    let early_norm = early_t.apply_samples(&early.samples)?;
    let late_norm_pool = late_t.apply_samples(&late.samples)?;

    let early_moments = MomentEstimate {
        mean: descriptive::mean_vector(&early_norm)?,
        cov: descriptive::covariance_mle(&early_norm)?,
    };
    let exact_late = MomentEstimate {
        mean: descriptive::mean_vector(&late_norm_pool)?,
        cov: descriptive::covariance_mle(&late_norm_pool)?,
    };

    // Take the few affordable late samples (first rows of the pool).
    let few = bmf_ams::linalg::Matrix::from_fn(n_late, 5, |i, j| late_norm_pool[(i, j)]);

    // BMF flow.
    let selection = CrossValidation::default().select(&early_moments, &few, &mut rng)?;
    println!(
        "CV selected kappa0 = {:.2}, nu0 = {:.1}",
        selection.kappa0, selection.nu0
    );
    let prior =
        NormalWishartPrior::from_early_moments(&early_moments, selection.kappa0, selection.nu0)?;
    let bmf = BmfEstimator::new(prior)?.estimate(&few)?;
    let mle = MleEstimator::new().estimate(&few)?;

    println!("\nerrors vs 2000-sample post-layout reference (n = {n_late} used):");
    println!(
        "  MLE : mean {:.4}, cov {:.4}",
        error_mean(&mle, &exact_late)?,
        error_cov(&mle, &exact_late)?
    );
    println!(
        "  BMF : mean {:.4}, cov {:.4}",
        error_mean(&bmf.map, &exact_late)?,
        error_cov(&bmf.map, &exact_late)?
    );

    // Physical-unit estimate for the designer.
    let physical = late_t.invert_moments(&bmf.map)?;
    println!("\nestimated post-layout moments (physical units):");
    for (j, name) in ["gain_db", "bandwidth_hz", "power_w", "offset_v", "pm_deg"]
        .iter()
        .enumerate()
    {
        println!(
            "  {name:13}: mean {:12.5e}, sd {:12.5e}",
            physical.mean[j],
            physical.cov[(j, j)].sqrt()
        );
    }
    Ok(())
}
