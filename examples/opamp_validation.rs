//! Op-amp post-layout validation with few late-stage samples — the paper's
//! first circuit example (§5.1), run end to end at a reduced size.
//!
//! Scenario: the schematic design has been characterised with thousands of
//! cheap Monte Carlo runs; post-layout simulation is expensive, so only a
//! handful of runs exist. Estimate the post-layout moment set and compare
//! MLE vs BMF against the reference computed from a large post-layout pool.
//!
//! Run with: `cargo run --release --example opamp_validation`

use bmf_ams::circuits::monte_carlo::{run_monte_carlo_seeded, Stage, Testbench};
use bmf_ams::circuits::opamp::OpAmpTestbench;
use bmf_ams::core::experiment::{prepare, TwoStageData};
use bmf_ams::core::parallel::available_threads;
use bmf_ams::core::prelude::*;
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

    // §4.1 shift & scale; prior and reference moments from the pools.
    let study = prepare(&TwoStageData {
        metric_names: tb.metric_names().iter().map(|s| s.to_string()).collect(),
        early_nominal: early.nominal,
        early_samples: early.samples,
        late_nominal: late.nominal,
        late_samples: late.samples,
    })?;
    let (early_moments, exact_late) = (&study.early_moments, &study.exact_late);

    // Take the few affordable late samples (first rows of the pool).
    let few = bmf_ams::linalg::Matrix::from_fn(n_late, 5, |i, j| study.late_pool[(i, j)]);

    // BMF flow.
    let selection = CrossValidation.select(early_moments, &few, &mut rng)?;
    println!(
        "CV selected kappa0 = {:.2}, nu0 = {:.1}",
        selection.kappa0, selection.nu0
    );
    let prior =
        NormalWishartPrior::from_early_moments(early_moments, selection.kappa0, selection.nu0)?;
    let bmf = BmfEstimator::new(prior)?.estimate(&few)?;
    let mle = MleEstimator::new().estimate(&few)?;

    println!("\nerrors vs 2000-sample post-layout reference (n = {n_late} used):");
    println!(
        "  MLE : mean {:.4}, cov {:.4}",
        error_mean(&mle, exact_late)?,
        error_cov(&mle, exact_late)?
    );
    println!(
        "  BMF : mean {:.4}, cov {:.4}",
        error_mean(&bmf.map, exact_late)?,
        error_cov(&bmf.map, exact_late)?
    );

    // Physical-unit estimate for the designer.
    let physical = study.late_transform.invert_moments(&bmf.map)?;
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
