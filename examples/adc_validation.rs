//! Flash-ADC post-silicon-style validation — the paper's second circuit
//! example (§5.2), run end to end at a reduced size.
//!
//! The ADC's spectral metrics (SNR/SINAD/SFDR/THD) are slow to measure on
//! silicon, so the late-stage budget is tiny. BMF fuses the schematic-level
//! characterisation with those few measurements.
//!
//! Run with: `cargo run --release --example adc_validation`

use bmf_ams::circuits::adc::AdcTestbench;
use bmf_ams::circuits::monte_carlo::{run_monte_carlo_seeded, Stage, Testbench};
use bmf_ams::core::experiment::{prepare, TwoStageData};
use bmf_ams::core::parallel::available_threads;
use bmf_ams::core::prelude::*;
use bmf_ams::stats::descriptive;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tb = AdcTestbench::default_180nm();
    let mut rng = rand::rngs::StdRng::seed_from_u64(18);

    println!("flash ADC, 0.18 um — metrics:");
    println!("  snr_db, sinad_db, sfdr_db, thd_db, power_w\n");

    let threads = available_threads();
    let early = run_monte_carlo_seeded(&tb, Stage::Schematic, 1000, 18, threads)?;
    let late = run_monte_carlo_seeded(&tb, Stage::PostLayout, 1000, 18, threads)?;
    let n_late = 8; // the paper stresses n as small as eight

    // §4.1 shift & scale; prior and reference moments from the pools.
    let study = prepare(&TwoStageData {
        metric_names: tb.metric_names().iter().map(|s| s.to_string()).collect(),
        early_nominal: early.nominal,
        early_samples: early.samples,
        late_nominal: late.nominal,
        late_samples: late.samples,
    })?;
    let (early_moments, exact_late) = (&study.early_moments, &study.exact_late);
    let few = bmf_ams::linalg::Matrix::from_fn(n_late, 5, |i, j| study.late_pool[(i, j)]);

    let selection = CrossValidation.select(early_moments, &few, &mut rng)?;
    println!(
        "CV selected kappa0 = {:.2}, nu0 = {:.1}",
        selection.kappa0, selection.nu0
    );
    println!("(paper finds both large for the ADC: the early stage predicts the late");
    println!(" stage well in both mean and covariance)\n");

    let prior =
        NormalWishartPrior::from_early_moments(early_moments, selection.kappa0, selection.nu0)?;
    let bmf = BmfEstimator::new(prior)?.estimate(&few)?;
    let mle = MleEstimator::new().estimate(&few)?;

    println!("errors vs 1000-sample post-layout reference (n = {n_late} used):");
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

    // Correlation structure — the quantity single-metric BMF cannot give.
    let corr = descriptive::correlation_from_cov(&bmf.map.cov)?;
    println!("\nestimated late-stage correlation matrix (normalised space):");
    print!("{corr}");
    Ok(())
}
