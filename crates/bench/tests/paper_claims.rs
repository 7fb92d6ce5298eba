//! The paper-reproduction claims, pinned.
//!
//! Runs the full Figure 4 and Figure 5 studies through the figure bins'
//! own code path ([`bmf_bench::run_figure`] over [`bmf_bench::FIG4`] and
//! [`bmf_bench::FIG5`]) and checks:
//!
//! * the stdout the bin would print equals the committed
//!   `results/fig4_opamp.txt` / `results/fig5_adc.txt` byte for byte,
//!   and its two `--svg` panels equal `results/fig*_{mean,cov}.svg`, so
//!   no committed result can go stale;
//! * the in-text numbers at the precision the bins print them: the
//!   mean-vector and covariance cost reductions at n = 8 and the
//!   CV-selected κ₀/ν₀ at n = 32.
//!
//! Release-only (about 1 s optimised):
//! `cargo test --release -p bmf-bench --test paper_claims`.

use bmf_bench::{plot, run_figure, FigureSpec, FIG4, FIG5};
use bmf_core::experiment::{cost_reduction, ErrorKind};

/// Asserts that `actual` equals the committed `results/<name>`.
fn assert_committed(name: &str, actual: &str) {
    let path = format!("{}/../../results/{name}", env!("CARGO_MANIFEST_DIR"));
    let committed = std::fs::read_to_string(path).unwrap();
    let first_diff = actual
        .lines()
        .zip(committed.lines())
        .position(|(a, c)| a != c);
    assert!(
        actual == committed,
        "results/{name} is not what the code prints (first differing line index: {first_diff:?})"
    );
}

/// Runs the full study of `spec`, checks its stdout against
/// `results/<table>` and its SVG panels against `results/<svg>_*.svg`,
/// and returns its claims as the bins print them: the mean-vector and
/// covariance cost reductions at n = 8, then κ₀ and ν₀ at n = 32.
fn check_figure(spec: &FigureSpec, table: &str, svg: &str) -> [String; 4] {
    let threads = bmf_core::parallel::resolve_threads(None);
    let figure = run_figure(spec, false, threads, 0.0).unwrap();
    let stdout: String = figure.stdout.iter().map(|b| format!("{b}\n")).collect();
    assert_committed(table, &stdout);
    let (mean, cov) = plot::figure_svgs(spec.plot_title, &figure.result);
    assert_committed(&format!("{svg}_mean.svg"), &mean);
    assert_committed(&format!("{svg}_cov.svg"), &cov);
    let result = &figure.result;
    let at_8 = |kind| {
        let crs = cost_reduction(result, kind);
        let (_, x) = crs
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
    [
        at_8(ErrorKind::Mean),
        at_8(ErrorKind::Covariance),
        format!("{:.2}", r32.mean_kappa0),
        format!("{:.1}", r32.mean_nu0),
    ]
}

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn fig4_opamp_claims() {
    let claims = check_figure(&FIG4, "fig4_opamp.txt", "fig4");
    assert_eq!(claims, ["1.18", "26.91", "5.07", "616.7"]);
}

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn fig5_adc_claims() {
    let claims = check_figure(&FIG5, "fig5_adc.txt", "fig5");
    assert_eq!(claims, ["2.53", "11.23", "25.01", "650.1"]);
}
