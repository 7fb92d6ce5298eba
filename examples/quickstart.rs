//! Quickstart: the complete BMF flow on synthetic data.
//!
//! Walks the paper's Algorithm 1 end to end with a controlled ground truth
//! so every quantity can be checked against expectations:
//!
//! 1. build early- and late-stage populations with similar shape,
//! 2. shift & scale (§4.1),
//! 3. cross-validate the hyper-parameters (§4.2),
//! 4. MAP-estimate the late-stage moments (§3.3),
//! 5. compare against plain MLE.
//!
//! Run with: `cargo run --release --example quickstart`

use bmf_ams::core::prelude::*;
use bmf_ams::linalg::{Matrix, Vector};
use bmf_ams::stats::{descriptive, MultivariateNormal};
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);

    // --- Ground truth -----------------------------------------------------
    // Two correlated "performance metrics" at wildly different magnitudes
    // (think: bandwidth in Hz, power in W). The late stage shares the
    // covariance *shape* but sits at a different nominal point.
    let cov_shape = Matrix::from_rows(&[&[1.0, 0.7], &[0.7, 1.3]])?;
    let scale_units = [1e6, 1e-3]; // per-metric physical scales
    let raw_cov = Matrix::from_fn(2, 2, |i, j| {
        cov_shape[(i, j)] * scale_units[i] * scale_units[j] * 0.01
    });

    let early_nominal = Vector::from_slice(&[5.0e6, 2.0e-3]);
    let late_nominal = Vector::from_slice(&[4.2e6, 2.6e-3]); // layout shifted
    let early_dist = MultivariateNormal::new(early_nominal.clone(), raw_cov.clone())?;
    let late_dist = MultivariateNormal::new(late_nominal.clone(), raw_cov.clone())?;

    // Abundant early data, scarce late data — the paper's setting.
    let early_samples = early_dist.sample_matrix(&mut rng, 5000);
    let n_late = 12;
    let late_samples = late_dist.sample_matrix(&mut rng, n_late);

    println!(
        "early pool: {} samples, late data: {} samples\n",
        5000, n_late
    );

    // --- Step 1: shift & scale (§4.1) --------------------------------------
    let early_sd = descriptive::column_stddevs(&early_samples)?;
    let early_t = ShiftScale::from_nominal_and_early_sd(&early_nominal, &early_sd)?;
    let late_t = ShiftScale::from_nominal_and_early_sd(&late_nominal, &early_sd)?;
    let early_norm = early_t.apply_samples(&early_samples)?;
    let late_norm = late_t.apply_samples(&late_samples)?;

    let early_moments = MomentEstimate {
        mean: descriptive::mean_vector(&early_norm)?,
        cov: descriptive::covariance_mle(&early_norm)?,
    };
    println!("normalised early mean: {}", early_moments.mean);
    println!("normalised early cov:\n{}", early_moments.cov);

    // --- Step 2: hyper-parameter selection (§4.2) ---------------------------
    let selection = CrossValidation.select(&early_moments, &late_norm, &mut rng)?;
    println!(
        "cross-validation selected kappa0 = {:.2}, nu0 = {:.1} (score {:.3})\n",
        selection.kappa0, selection.nu0, selection.score
    );

    // --- Step 3: MAP estimation (§3.3) --------------------------------------
    let prior =
        NormalWishartPrior::from_early_moments(&early_moments, selection.kappa0, selection.nu0)?;
    let bmf = BmfEstimator::new(prior)?.estimate(&late_norm)?;

    // --- Baseline: MLE on the same few samples ------------------------------
    let mle = MleEstimator::new().estimate(&late_norm)?;

    // --- Evaluation against the exact late-stage moments --------------------
    let exact = late_t.apply_moments(&MomentEstimate {
        mean: late_nominal.clone(),
        cov: raw_cov,
    })?;
    println!("errors vs exact late-stage moments (normalised space):");
    println!(
        "  MLE : mean {:.4}, cov {:.4}",
        error_mean(&mle, &exact)?,
        error_cov(&mle, &exact)?
    );
    println!(
        "  BMF : mean {:.4}, cov {:.4}",
        error_mean(&bmf.map, &exact)?,
        error_cov(&bmf.map, &exact)?
    );

    // --- Back to physical units ---------------------------------------------
    let physical = late_t.invert_moments(&bmf.map)?;
    println!("\nBMF estimate in physical units:");
    println!("  mean = {}", physical.mean);
    println!("  cov  =\n{}", physical.cov);

    // --- Bonus: posterior predictive credible check -------------------------
    let predictive = bmf.predictive()?;
    println!(
        "posterior predictive: multivariate t with {:.1} degrees of freedom",
        predictive.dof()
    );
    Ok(())
}
