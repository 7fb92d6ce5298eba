//! Flash-ADC post-silicon-style validation — the paper's second circuit
//! example (§5.2), run end to end at a reduced size.
//!
//! The ADC's spectral metrics (SNR/SINAD/SFDR/THD) are slow to measure on
//! silicon, so the late-stage budget is tiny. BMF fuses the schematic-level
//! characterisation with those few measurements.
//!
//! Run with: `cargo run --release --example adc_validation`

use bmf_ams::circuits::adc::AdcTestbench;
use bmf_ams::circuits::monte_carlo::{run_monte_carlo_seeded, Stage};
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

    let few = bmf_ams::linalg::Matrix::from_fn(n_late, 5, |i, j| late_norm_pool[(i, j)]);

    let selection = CrossValidation::default().select(&early_moments, &few, &mut rng)?;
    println!(
        "CV selected kappa0 = {:.2}, nu0 = {:.1}",
        selection.kappa0, selection.nu0
    );
    println!("(paper finds both large for the ADC: the early stage predicts the late");
    println!(" stage well in both mean and covariance)\n");

    let prior =
        NormalWishartPrior::from_early_moments(&early_moments, selection.kappa0, selection.nu0)?;
    let bmf = BmfEstimator::new(prior)?.estimate(&few)?;
    let mle = MleEstimator::new().estimate(&few)?;

    println!("errors vs 1000-sample post-layout reference (n = {n_late} used):");
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

    // Correlation structure — the quantity single-metric BMF cannot give.
    let corr = descriptive::correlation_from_cov(&bmf.map.cov)?;
    println!("\nestimated late-stage correlation matrix (normalised space):");
    print!("{corr}");
    Ok(())
}
