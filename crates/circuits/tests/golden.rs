//! Golden digests of seeded Monte Carlo output.
//!
//! Each digest is FNV-1a over the bit patterns of a stage's nominal vector
//! and its 64 samples from `run_monte_carlo_seeded(tb, stage, 64, 2015, 1)`.
//! Any change to a single bit of either testbench's output fails here, so a
//! re-baseline is always a deliberate, reviewed edit of these constants.
//!
//! The op-amp digests date from the switch of its crossings to a polish
//! inside the unchanged 60-point log scan: false position on
//! `ln(|H|/target)` over `ln f` (Anderson–Björck) instead of 60 bisection
//! steps. That moved the last bits of `bandwidth_hz` and, through the
//! unity-gain frequency, of `phase_margin_deg` only: over 20,000 seeded
//! dies per stage, 82% of the bandwidths moved, by at most 1.7e-15
//! relative, and 60% of the margins, by at most 8.7e-16; gain, power and
//! offset kept every bit. The oracles bounding them are `opamp.rs`'s
//! `polished_crossings_match_the_bisection_reference` (the 60-step
//! bisection, kept under `#[cfg(test)]`, agrees to 1e-13 relative on
//! both crossings and the margin, over 2,000 seeded dies per stage and
//! the 12σ corners, and the same dies fail with the same metric) and
//! `pencil_measurement_matches_dense_oracle` with its 12σ-corner twin
//! (the dense per-frequency solve with the swept phase agrees to 1e-9
//! relative). Gain and bandwidth come from one `G + sC` transfer-function
//! extraction per die, and the phase margin is `arg(H(jω_u)/H(0))` by
//! Horner with the sum of the root angles of `N(s)` and `D(s)` picking
//! only the whole turn (`RationalTransfer::phase`).
//!
//! The two ADC digests date from the switch of its spectral path to the
//! split-format radix-2² FFT: the comparator walk fills the FFT's input
//! buffer, two-lane butterflies transform it, and the real-input split
//! hands each bin's power straight to the metric sums. The walk's codes
//! kept every bit; the kernel's exact `±j` twiddles and the new order of
//! the noise sum moved the last bits of the four spectral metrics, and
//! power kept its bits. The oracle bounding them is `adc.rs`'s
//! `*_dies_match_reference_path`: over 2,000 seeded dies per stage, the
//! per-sample ones-counter plus the radix-2 array-of-structs FFT of the
//! full complex record (kept under `#[cfg(test)]`) agree with the testbench
//! to 1e-9 relative; the worst die sits 3.8e-15 off.

use bmf_circuits::adc::AdcTestbench;
use bmf_circuits::monte_carlo::{run_monte_carlo_seeded, Stage, Testbench};
use bmf_circuits::opamp::OpAmpTestbench;
use bmf_obs::run::fnv1a;

fn digest(tb: &dyn Testbench, stage: Stage) -> u64 {
    let data = run_monte_carlo_seeded(tb, stage, 64, 2015, 1).unwrap();
    let bytes: Vec<u8> = data
        .nominal
        .iter()
        .chain(data.samples.as_slice())
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    fnv1a(&bytes)
}

fn check(tb: &dyn Testbench, stage: Stage, expected: u64) {
    let got = digest(tb, stage);
    assert_eq!(
        got, expected,
        "{stage} digest {got:#018x} != golden {expected:#018x}"
    );
}

#[test]
fn opamp_schematic_digest() {
    check(
        &OpAmpTestbench::default_45nm(),
        Stage::Schematic,
        0x7822_5ecb_cdc8_6dfd,
    );
}

#[test]
fn opamp_post_layout_digest() {
    check(
        &OpAmpTestbench::default_45nm(),
        Stage::PostLayout,
        0x20a9_ab7d_7dc3_a501,
    );
}

#[test]
fn adc_schematic_digest() {
    check(
        &AdcTestbench::default_180nm(),
        Stage::Schematic,
        0xdd0f_6f22_af29_22fc,
    );
}

#[test]
fn adc_post_layout_digest() {
    check(
        &AdcTestbench::default_180nm(),
        Stage::PostLayout,
        0x13c4_66ff_4292_807b,
    );
}
