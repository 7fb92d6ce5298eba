//! Regenerates **Figure 5** of the paper: flash-ADC (0.18 µm) mean-vector
//! and covariance estimation error vs. number of late-stage samples, MLE
//! vs BMF, plus the in-text >10× cost reduction and the CV-selected
//! hyper-parameters at n = 32.
//!
//! Usage: `cargo run --release -p bmf-bench --bin fig5_adc [--quick] [--svg <prefix>] [--threads <n>] [--fault-rate <r>] [--trace-out <json>] [--profile] [--metrics-out <json>] [--dashboard-out <html>]`
//!
//! The flags and the code path are those of `fig4_opamp`; the study sizes,
//! the seed and the captions are [`bmf_bench::FIG5`].

fn main() -> std::process::ExitCode {
    bmf_bench::figure_main(&bmf_bench::FIG5)
}
