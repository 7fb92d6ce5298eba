//! Property-based tests for the circuit-simulation substrate.

use bmf_circuits::fft::{fft_in_place, fft_real, ifft_in_place};
use bmf_circuits::mna::AcAnalysis;
use bmf_circuits::mosfet::{DeviceVariation, Geometry, Mosfet, Polarity, TechnologyParams};
use bmf_circuits::netlist::Netlist;
use bmf_circuits::CircuitError;
use bmf_linalg::Complex64;
use proptest::prelude::*;

/// `10^(lo + u·(hi − lo))` for `u` in `[0, 1)`: log-uniform component values.
fn log_uniform(u: f64, lo: f64, hi: f64) -> f64 {
    10f64.powf(lo + u * (hi - lo))
}

/// Values per section of [`random_netlist`].
const SECTION: usize = 5;

/// A random small-signal chain driven by a 1 V source at node 1: the RC
/// ladder of `passive_rc_ladder_never_amplifies`, with active sections.
/// Each [`SECTION`]-sized chunk of `raw` (uniform in `[0, 1)`) adds node
/// `k + 1` after node `k` and decides:
///
/// * the coupling from node `k`: a series resistor (10 Ω–100 kΩ), or in
///   about a third of the sections an inverting gm stage (10 µS–10 mS)
///   controlled by node `k`;
/// * a capacitor to ground (1 fF–1 nF);
/// * a resistor to ground (1 kΩ–1 MΩ), always present after a gm stage so
///   no node floats;
/// * a bridging (Miller) capacitor back to node `k` (1 fF–1 pF) in about
///   half the sections.
fn random_netlist(raw: &[f64]) -> Netlist {
    let sections = raw.len() / SECTION;
    let mut nl = Netlist::new(sections + 2);
    nl.voltage_source(1, 0, 1.0).unwrap();
    for (k, u) in (1..).zip(raw.chunks_exact(SECTION)) {
        let active = u[0] < 1.0 / 3.0;
        if active {
            nl.vccs(k + 1, 0, k, 0, log_uniform(u[0] * 3.0, -5.0, -2.0))
                .unwrap();
        } else {
            nl.resistor(k, k + 1, log_uniform(u[0], 1.0, 5.0)).unwrap();
        }
        nl.capacitor(k + 1, 0, log_uniform(u[1], -15.0, -9.0))
            .unwrap();
        if active || u[2] < 0.5 {
            nl.resistor(k + 1, 0, log_uniform(u[3], 3.0, 6.0)).unwrap();
        }
        if u[4] < 0.5 {
            nl.capacitor(k + 1, k, log_uniform(2.0 * u[4], -15.0, -12.0))
                .unwrap();
        }
    }
    nl
}

proptest! {
    /// A passive RC ladder driven by a 1 V source can never show gain:
    /// |H(jω)| ≤ 1 at every node and frequency.
    #[test]
    fn passive_rc_ladder_never_amplifies(
        rs in proptest::collection::vec(10.0..100e3f64, 1..8),
        cs in proptest::collection::vec(1e-15..1e-9f64, 1..8),
        freq in 1.0..1e9f64,
    ) {
        let sections = rs.len().min(cs.len());
        let mut nl = Netlist::new(sections + 2);
        nl.voltage_source(1, 0, 1.0).unwrap();
        for k in 0..sections {
            nl.resistor(k + 1, k + 2, rs[k]).unwrap();
            nl.capacitor(k + 2, 0, cs[k]).unwrap();
        }
        let ac = AcAnalysis::new(&nl);
        let omega = 2.0 * std::f64::consts::PI * freq;
        for node in 1..(sections + 2) {
            let v = ac.transfer_function(node).unwrap().eval(omega).unwrap();
            prop_assert!(v.abs() <= 1.0 + 1e-9);
        }
    }

    /// AC responses satisfy KCL at the output node of an RC divider:
    /// the current through R equals the current into C.
    #[test]
    fn rc_divider_kcl_balance(
        r in 10.0..1e6f64,
        c in 1e-15..1e-6f64,
        freq in 1.0..1e9f64,
    ) {
        let mut nl = Netlist::new(3);
        nl.voltage_source(1, 0, 1.0).unwrap();
        nl.resistor(1, 2, r).unwrap();
        nl.capacitor(2, 0, c).unwrap();
        let ac = AcAnalysis::new(&nl);
        let omega = 2.0 * std::f64::consts::PI * freq;
        let v = |node| ac.transfer_function(node).unwrap().eval(omega).unwrap();
        let (v1, v2) = (v(1), v(2));
        let i_r = (v1 - v2) * Complex64::from_re(1.0 / r);
        let i_c = v2 * Complex64::new(0.0, omega * c);
        prop_assert!((i_r - i_c).abs() < 1e-9 * i_r.abs().max(1e-12));
    }

    /// FFT → IFFT round-trips arbitrary signals (padded to a power of
    /// two).
    #[test]
    fn fft_round_trip(raw in proptest::collection::vec(-100.0..100.0f64, 4..100)) {
        let n = raw.len().next_power_of_two();
        let mut signal = raw.clone();
        signal.resize(n, 0.0);
        let mut spec = fft_real(&signal).unwrap();
        ifft_in_place(&mut spec).unwrap();
        for (orig, rec) in signal.iter().zip(spec.iter()) {
            prop_assert!((rec.re - orig).abs() < 1e-9);
            prop_assert!(rec.im.abs() < 1e-9);
        }
    }

    /// Parseval and conjugate symmetry hold for arbitrary real signals
    /// (zero-padded to 4,096 samples), at every power-of-two length from 2
    /// to 4,096.
    #[test]
    fn fft_parseval(raw in proptest::collection::vec(-10.0..10.0f64, 1..4097)) {
        let mut padded = raw.clone();
        padded.resize(4096, 0.0);
        for bits in 1..=12 {
            let n = 1usize << bits;
            let signal = &padded[..n];
            let spec = fft_real(signal).unwrap();
            prop_assert_eq!(spec.len(), n);
            for k in 1..n {
                prop_assert_eq!(spec[n - k], spec[k].conj());
            }
            prop_assert!(spec[0].im == 0.0 && spec[n / 2].im == 0.0);
            let time_energy: f64 = signal.iter().map(|x| x * x).sum();
            let freq_energy: f64 = spec.iter().map(|z| z.abs_sq()).sum::<f64>() / n as f64;
            prop_assert!((time_energy - freq_energy).abs() < 1e-6 * time_energy.max(1.0));
        }
    }

    /// The packed half-length real transform is the complex transform of
    /// the same record, bin for bin, at every power-of-two length from 2 to
    /// 4,096 (the ADC's record length).
    #[test]
    fn real_fft_matches_complex_fft(raw in proptest::collection::vec(-100.0..100.0f64, 4096)) {
        for bits in 1..=12 {
            let signal = &raw[..1usize << bits];
            let packed = fft_real(signal).unwrap();
            let mut full: Vec<Complex64> =
                signal.iter().map(|&x| Complex64::from_re(x)).collect();
            fft_in_place(&mut full).unwrap();
            let scale = full.iter().map(|z| z.abs()).fold(0.0, f64::max);
            for (k, (a, b)) in packed.iter().zip(&full).enumerate() {
                prop_assert!((*a - *b).abs() <= 1e-12 * scale, "bin {k}: {a} vs {b}");
            }
        }
    }

    /// The inverse transform undoes the forward one on complex records of
    /// every power-of-two length from 1 to 4,096.
    #[test]
    fn ifft_inverts_fft(raw in proptest::collection::vec(-100.0..100.0f64, 8192)) {
        for bits in 0..=12 {
            let n = 1usize << bits;
            let x: Vec<Complex64> = raw[..2 * n]
                .chunks_exact(2)
                .map(|c| Complex64::new(c[0], c[1]))
                .collect();
            let mut y = x.clone();
            fft_in_place(&mut y).unwrap();
            ifft_in_place(&mut y).unwrap();
            for (i, (a, b)) in y.iter().zip(&x).enumerate() {
                prop_assert!((*a - *b).abs() < 1e-9, "n = {n}, sample {i}: {a} vs {b}");
            }
        }
    }

    /// Square-law drain current is monotone in both controls (in
    /// saturation with CLM).
    #[test]
    fn mosfet_current_monotonicity(
        vgs in 0.6..1.8f64,
        vds in 0.1..1.8f64,
    ) {
        let m = Mosfet::new(
            Polarity::Nmos,
            TechnologyParams::nmos_180nm(),
            Geometry::new(4e-6, 0.4e-6).unwrap(),
        );
        let var = DeviceVariation::default();
        let base = m.id_saturation(vgs, vds, &var);
        prop_assert!(m.id_saturation(vgs + 0.05, vds, &var) >= base);
        prop_assert!(m.id_saturation(vgs, vds + 0.05, &var) >= base);
        // Higher Vth strictly reduces the current when conducting.
        if base > 0.0 {
            let slow = m.id_saturation(
                vgs,
                vds,
                &DeviceVariation { delta_vth: 0.05, ..Default::default() },
            );
            prop_assert!(slow <= base);
        }
    }

    /// The pencil's `N(s)/D(s)` is the dense per-ω solve, rewritten: at
    /// every node of a random active/passive chain and on a 1 Hz–1 THz
    /// log grid, the two agree to 1e-9 relative.
    #[test]
    fn transfer_function_matches_dense_solve(
        raw in proptest::collection::vec(0.0..1.0f64, SECTION..(6 * SECTION + 1)),
    ) {
        let nl = random_netlist(&raw);
        let ac = AcAnalysis::new(&nl);
        for node in 1..nl.node_count() {
            let h = ac.transfer_function(node).unwrap();
            for k in 0..=24 {
                let omega = 2.0 * std::f64::consts::PI * 10f64.powf(k as f64 / 2.0);
                let dense = ac.transfer(node, omega).unwrap();
                let pencil = h.eval(omega).unwrap();
                prop_assert!(
                    (pencil - dense).abs() <= 1e-9 * dense.abs(),
                    "node {node}, f = {:e} Hz: pencil {pencil} vs dense {dense}",
                    omega / (2.0 * std::f64::consts::PI)
                );
            }
        }
    }

    /// Ground and an out-of-range node are typed errors, never a panic,
    /// on both the pencil and the dense reference; the dense reference
    /// reads ground as 0.
    #[test]
    fn transfer_rejects_ground_and_range(
        raw in proptest::collection::vec(0.0..1.0f64, SECTION..(6 * SECTION + 1)),
        beyond in 0usize..4,
    ) {
        let nl = random_netlist(&raw);
        let n = nl.node_count();
        let ac = AcAnalysis::new(&nl);
        let ground_is_invalid = matches!(
            ac.transfer_function(0),
            Err(CircuitError::InvalidValue { what: "output node", .. })
        );
        prop_assert!(ground_is_invalid);
        let out_of_range_is_unknown = matches!(
            ac.transfer_function(n + beyond),
            Err(CircuitError::UnknownNode { node, node_count }) if node == n + beyond && node_count == n
        );
        prop_assert!(out_of_range_is_unknown);
        let dense_out_of_range_is_unknown = matches!(
            ac.transfer(n + beyond, 1e6),
            Err(CircuitError::UnknownNode { node, node_count }) if node == n + beyond && node_count == n
        );
        prop_assert!(dense_out_of_range_is_unknown);
        prop_assert_eq!(ac.transfer(0, 1e6).unwrap(), Complex64::ZERO);
    }
}
