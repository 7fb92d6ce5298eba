//! The paper-reproduction claims, pinned.
//!
//! Runs the full Figure 4 configuration of `fig4_opamp` (5000/5000 dies,
//! 100 repetitions, seed 45) and the full Figure 5 configuration of
//! `fig5_adc` (1000/1000 dies, 100 repetitions, seed 180), and checks the
//! in-text numbers at the precision the bins print them: the mean-vector
//! and covariance cost reductions at n = 8 and the CV-selected κ₀/ν₀ at
//! n = 32. The printed lines must also appear verbatim in the committed
//! `results/` tables, so those cannot go stale either.
//!
//! Release-only (about 7 s optimised):
//! `cargo test --release -p bmf-bench --test paper_claims`.

use bmf_bench::{format_cost_reduction, run_circuit_experiment};
use bmf_circuits::adc::AdcTestbench;
use bmf_circuits::monte_carlo::Testbench;
use bmf_circuits::opamp::OpAmpTestbench;
use bmf_core::experiment::{cost_reduction, ErrorKind, SweepConfig, SweepResult};

/// The claims of one figure, formatted as the figure bins print them.
#[derive(Debug, PartialEq)]
struct Claims {
    mean_cr_n8: String,
    cov_cr_n8: String,
    kappa0_n32: String,
    nu0_n32: String,
}

impl Claims {
    fn new(mean_cr_n8: &str, cov_cr_n8: &str, kappa0_n32: &str, nu0_n32: &str) -> Claims {
        Claims {
            mean_cr_n8: mean_cr_n8.to_string(),
            cov_cr_n8: cov_cr_n8.to_string(),
            kappa0_n32: kappa0_n32.to_string(),
            nu0_n32: nu0_n32.to_string(),
        }
    }
}

fn run(
    tb: &dyn Testbench,
    pool: usize,
    seed: u64,
    sample_sizes: Option<Vec<usize>>,
) -> SweepResult {
    let mut config = SweepConfig::paper_default();
    config.repetitions = 100;
    if let Some(sizes) = sample_sizes {
        config.sample_sizes = sizes;
    }
    let threads = bmf_core::parallel::resolve_threads(None);
    run_circuit_experiment(tb, pool, pool, seed, &config, threads).unwrap()
}

/// Extracts the claims from `result` and checks that the lines carrying
/// them appear in `results/<table>`.
fn claims(result: &SweepResult, table: &str) -> Claims {
    let at_8 = |kind| {
        let (_, x) = cost_reduction(result, kind)
            .into_iter()
            .find(|&(n, _)| n == 8)
            .expect("n = 8 is swept");
        format!("{x:.2}")
    };
    let r32 = result
        .rows
        .iter()
        .find(|r| r.n == 32)
        .expect("n = 32 is swept");
    let cr_table = format_cost_reduction(result);
    let cr_line = cr_table
        .lines()
        .find(|l| l.starts_with("    8 |"))
        .expect("n = 8 row");
    let hyper_line = format!(
        "CV-selected hyper-parameters at n = 32: kappa0 = {:.2}, nu0 = {:.1}",
        r32.mean_kappa0, r32.mean_nu0
    );
    let path = format!("{}/../../results/{table}", env!("CARGO_MANIFEST_DIR"));
    let committed = std::fs::read_to_string(&path).unwrap();
    for line in [cr_line, &hyper_line] {
        assert!(
            committed.lines().any(|l| l == line),
            "{table} does not hold the line the code prints: {line:?}"
        );
    }
    Claims {
        mean_cr_n8: at_8(ErrorKind::Mean),
        cov_cr_n8: at_8(ErrorKind::Covariance),
        kappa0_n32: format!("{:.2}", r32.mean_kappa0),
        nu0_n32: format!("{:.1}", r32.mean_nu0),
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn fig4_opamp_claims() {
    let result = run(&OpAmpTestbench::default_45nm(), 5000, 45, None);
    assert_eq!(
        claims(&result, "fig4_opamp.txt"),
        Claims::new("1.18", "26.91", "5.07", "616.7")
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn fig5_adc_claims() {
    let sizes = vec![8, 16, 32, 64, 128, 256];
    let result = run(&AdcTestbench::default_180nm(), 1000, 180, Some(sizes));
    assert_eq!(
        claims(&result, "fig5_adc.txt"),
        Claims::new("2.53", "11.23", "25.01", "650.1")
    );
}
