//! Property-based tests for the circuit-simulation substrate.

use bmf_circuits::fft::{fft_real, ifft_in_place};
use bmf_circuits::mna::AcAnalysis;
use bmf_circuits::mosfet::{DeviceVariation, Geometry, Mosfet, Polarity, TechnologyParams};
use bmf_circuits::netlist::Netlist;
use bmf_circuits::CircuitError;
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
        let sol = ac.solve(2.0 * std::f64::consts::PI * freq).unwrap();
        for node in 1..(sections + 2) {
            prop_assert!(sol.voltage(node).abs() <= 1.0 + 1e-9);
        }
    }

    /// AC solutions satisfy KCL at the output node of an RC divider:
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
        let sol = ac.solve(omega).unwrap();
        let v1 = sol.voltage(1);
        let v2 = sol.voltage(2);
        let i_r = (v1 - v2) * bmf_linalg::Complex64::from_re(1.0 / r);
        let i_c = v2 * bmf_linalg::Complex64::new(0.0, omega * c);
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

    /// Parseval holds for arbitrary signals.
    #[test]
    fn fft_parseval(raw in proptest::collection::vec(-10.0..10.0f64, 8..64)) {
        let n = raw.len().next_power_of_two();
        let mut signal = raw.clone();
        signal.resize(n, 0.0);
        let spec = fft_real(&signal).unwrap();
        let time_energy: f64 = signal.iter().map(|x| x * x).sum();
        let freq_energy: f64 = spec.iter().map(|z| z.abs_sq()).sum::<f64>() / n as f64;
        prop_assert!((time_energy - freq_energy).abs() < 1e-6 * time_energy.max(1.0));
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

    /// Ground, an out-of-range node and any inductor are typed errors,
    /// never a panic.
    #[test]
    fn transfer_function_rejects_ground_range_and_inductors(
        raw in proptest::collection::vec(0.0..1.0f64, SECTION..(6 * SECTION + 1)),
        beyond in 0usize..4,
        henries in 1e-9..1e-3f64,
    ) {
        let mut nl = random_netlist(&raw);
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
        nl.inductor(n - 1, 0, henries).unwrap();
        let ac = AcAnalysis::new(&nl);
        for node in 1..n {
            let inductor_is_unsupported = matches!(
                ac.transfer_function(node),
                Err(CircuitError::Unsupported { .. })
            );
            prop_assert!(inductor_is_unsupported);
        }
    }
}
