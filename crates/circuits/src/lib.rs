//! Analog/mixed-signal circuit-simulation substrate for `bmf-ams`.
//!
//! The DAC 2015 BMF paper draws its data from commercial SPICE simulation of
//! two circuits — a two-stage op-amp (45 nm) and a flash ADC (0.18 µm) — at
//! two design stages (schematic vs. post-layout). This crate rebuilds that
//! data source from scratch:
//!
//! * [`netlist`]/[`mna`] — a small-signal **modified nodal analysis** engine
//!   over complex admittances (R, C, L, VCCS, sources), solved per frequency
//!   with the complex LU from [`bmf_linalg`] or reduced once to a rational
//!   transfer function `N(s)/D(s)`.
//! * [`mosfet`] — square-law MOSFET operating point and small-signal
//!   parameters (gm, gds, capacitances) as functions of process parameters.
//! * [`variation`] — global + local (Pelgrom area-scaled) process variation.
//! * [`opamp`] — a two-stage Miller-compensated op-amp testbench measuring
//!   **gain, −3 dB bandwidth, power, input offset, phase margin**; the
//!   post-layout stage adds extracted-style parasitics.
//! * [`fft`]/[`spectrum`] — radix-2 FFT and coherent-sampling spectral
//!   analysis (SNR, SINAD, SFDR, THD).
//! * [`adc`] — a behavioural flash-ADC testbench measuring **SNR, SINAD,
//!   SFDR, THD, power**.
//! * [`monte_carlo`] — reproducible generation of early/late-stage
//!   performance sample matrices, the input format of the BMF estimator.
//! * [`fault`] — deterministic fault injection (failed sims, NaN'd
//!   metrics, gross outliers) for chaos-testing the robustness layer.
//!
//! # Example — one op-amp Monte Carlo sample
//!
//! ```
//! use bmf_circuits::opamp::OpAmpTestbench;
//! use bmf_circuits::monte_carlo::Stage;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), bmf_circuits::CircuitError> {
//! let tb = OpAmpTestbench::default_45nm();
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let perf = tb.sample_performance(Stage::Schematic, &mut rng)?;
//! assert!(perf.gain_db > 40.0); // a working op-amp has real gain
//! assert!(perf.phase_margin_deg > 0.0);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
// Validation deliberately uses `!(x > 0.0)`-style negated comparisons: they
// reject NaN along with out-of-domain values in one test, which is exactly
// the semantics every constructor here wants.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod adc;
mod error;
pub mod fault;
pub mod fft;
pub mod mna;
pub mod monte_carlo;
pub mod mosfet;
pub mod netlist;
pub mod opamp;
pub mod shard;
pub mod spectrum;
pub mod variation;

pub use error::CircuitError;

/// Convenience result alias for fallible circuit operations.
pub type Result<T> = std::result::Result<T, CircuitError>;
