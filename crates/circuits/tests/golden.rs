//! Golden digests of seeded Monte Carlo output.
//!
//! Each digest is FNV-1a over the bit patterns of a stage's nominal vector
//! and its 64 samples from `run_monte_carlo_seeded(tb, stage, 64, 2015, 1)`.
//! Any change to a single bit of either testbench's output fails here, so a
//! re-baseline is always a deliberate, reviewed edit of these constants.
//!
//! The op-amp digests date from the switch of its AC measurement to one
//! `G + sC` transfer-function extraction per die (metrics within 1e-9
//! relative of the dense per-frequency solve, checked in `opamp.rs`). The
//! ADC digests predate that switch: the ADC path shares no code with it.

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
        0xe27f_60bc_9c94_d224,
    );
}

#[test]
fn opamp_post_layout_digest() {
    check(
        &OpAmpTestbench::default_45nm(),
        Stage::PostLayout,
        0x40b1_6b68_7e5f_5402,
    );
}

#[test]
fn adc_schematic_digest() {
    check(
        &AdcTestbench::default_180nm(),
        Stage::Schematic,
        0x654e_54ee_d6d7_b3a3,
    );
}

#[test]
fn adc_post_layout_digest() {
    check(
        &AdcTestbench::default_180nm(),
        Stage::PostLayout,
        0x0ca5_82f8_3b93_8868,
    );
}
