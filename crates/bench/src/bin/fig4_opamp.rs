//! Regenerates **Figure 4** of the paper: op-amp (45 nm, two-stage)
//! mean-vector and covariance estimation error vs. number of late-stage
//! samples, MLE vs BMF, plus the in-text cost-reduction factors and the
//! CV-selected hyper-parameters at n = 32.
//!
//! Usage: `cargo run --release -p bmf-bench --bin fig4_opamp [--quick] [--svg <prefix>] [--threads <n>] [--fault-rate <r>] [--trace-out <json>] [--profile] [--metrics-out <json>] [--dashboard-out <html>]`
//!
//! With `--svg results/fig4` the two panels are also written as
//! `results/fig4_mean.svg` and `results/fig4_cov.svg`. The study sizes,
//! the seed and the captions are [`bmf_bench::FIG4`]; `--quick` runs its
//! smoke size. `--threads` defaults to the machine's available
//! parallelism; results are bit-identical for every value.
//! `--fault-rate r` (`0 <= r < 1`) injects faults into the simulator
//! (failed sims at `r`, NaN/outlier corruption at `r/5` each) and routes
//! the pools through the data-quality guard before estimation — the
//! robustness demonstration. An unknown or malformed flag exits 2.

fn main() -> std::process::ExitCode {
    bmf_bench::figure_main(&bmf_bench::FIG4)
}
