//! Modified nodal analysis (MNA) over complex admittances.
//!
//! The unknowns are the node voltages `v` (ground eliminated) and one
//! branch current `j` per voltage source:
//!
//! ```text
//! [ Y   B ] [ v ]   [ i ]
//! [ Bᵀ  0 ] [ j ] = [ e ]
//! ```
//!
//! where `Y` holds element admittance stamps (`1/R`, VCCS gm entries,
//! `sC`, `1/(sL)`), `B` is the voltage-source incidence, `i` holds
//! current-source injections and `e` the source voltages. Without
//! inductors the system matrix is the real pencil `G + sC` — `C` the
//! capacitances, `G` everything else — and the right-hand side a real
//! vector `b`; the netlist is stamped into them once.
//!
//! Two ways to read a response off the pencil:
//!
//! * [`AcAnalysis::solve`] forms `G + jωC` (plus inductor admittances
//!   `1/(jωL)`) at one frequency and solves it with the complex LU from
//!   [`bmf_linalg`] — the dense reference, one factorisation per `ω`.
//! * [`AcAnalysis::transfer_function`] extracts `H(s) = N(s)/D(s)` once, by
//!   Cramer's rule on the pencil: `D(s) = det(G + sC)` and `N(s)` the same
//!   determinant with the output column replaced by `b`, both as real
//!   polynomial coefficients. [`RationalTransfer::eval`] then costs two
//!   Horner evaluations per `ω`.

use crate::netlist::{Element, Netlist, GROUND};
use crate::{CircuitError, Result};
use bmf_linalg::{CLu, CMatrix, CVector, Complex64, Matrix};
use std::ops::{AddAssign, IndexMut, SubAssign};

/// Most unknowns [`AcAnalysis::transfer_function`] expands: the subset
/// expansion holds `2^n` partial determinants of degree ≤ `n`.
const MAX_TRANSFER_UNKNOWNS: usize = 16;

/// Solution of one AC operating point: node-voltage phasors (plus branch
/// currents of voltage sources, kept internal).
#[derive(Debug, Clone)]
pub struct AcSolution {
    /// Phasor per node; index 0 (ground) is fixed to zero.
    node_voltages: Vec<Complex64>,
    /// Branch current phasor per voltage source, in insertion order.
    branch_currents: Vec<Complex64>,
}

impl AcSolution {
    /// Voltage phasor of `node`.
    ///
    /// # Panics
    ///
    /// Panics for an out-of-range node index.
    pub fn voltage(&self, node: usize) -> Complex64 {
        self.node_voltages[node]
    }

    /// Branch current of the `k`-th voltage source (insertion order).
    ///
    /// # Panics
    ///
    /// Panics for an out-of-range source index.
    pub fn source_current(&self, k: usize) -> Complex64 {
        self.branch_currents[k]
    }

    /// Number of nodes in the solution.
    pub fn node_count(&self) -> usize {
        self.node_voltages.len()
    }
}

/// The netlist stamped over the reduced unknowns (see the module docs).
#[derive(Debug, Clone)]
struct Pencil {
    g: Matrix,
    c: Matrix,
    b: Vec<f64>,
    /// `(a, b, henries)` per inductor, in insertion order.
    inductors: Vec<(usize, usize, f64)>,
}

/// Index of node `n` in the reduced unknown vector, or `None` for ground.
fn node_index(n: usize) -> Option<usize> {
    if n == GROUND {
        None
    } else {
        Some(n - 1)
    }
}

/// Stamps admittance `y` between nodes `n1` and `n2`: `+y` on both
/// diagonal entries, `−y` on the two off-diagonal ones, ground dropped.
fn stamp_admittance<M, T>(m: &mut M, n1: usize, n2: usize, y: T)
where
    M: IndexMut<(usize, usize), Output = T>,
    T: Copy + AddAssign + SubAssign,
{
    match (node_index(n1), node_index(n2)) {
        (Some(i), Some(j)) => {
            m[(i, i)] += y;
            m[(j, j)] += y;
            m[(i, j)] -= y;
            m[(j, i)] -= y;
        }
        (Some(i), None) | (None, Some(i)) => m[(i, i)] += y,
        (None, None) => {}
    }
}

/// Stamps `netlist` over its `dim` reduced unknowns: the real pencil
/// `G + sC`, the source vector `b`, and the inductors, whose admittance
/// `1/(sL)` has no place in the pencil.
///
/// `G` holds conductances, VCCS gm entries and the voltage-source
/// incidence, `C` the capacitances; `b` holds current-source
/// injections and source voltages.
fn stamp(netlist: &Netlist, dim: usize) -> Pencil {
    let mut p = Pencil {
        g: Matrix::zeros(dim, dim),
        c: Matrix::zeros(dim, dim),
        b: vec![0.0; dim],
        inductors: Vec::new(),
    };
    let mut vsrc_row = netlist.node_count() - 1;
    for e in netlist.elements() {
        match *e {
            Element::Resistor { a: n1, b: n2, ohms } => {
                stamp_admittance(&mut p.g, n1, n2, 1.0 / ohms);
            }
            Element::Capacitor {
                a: n1,
                b: n2,
                farads,
            } => stamp_admittance(&mut p.c, n1, n2, farads),
            Element::Inductor {
                a: n1,
                b: n2,
                henries,
            } => p.inductors.push((n1, n2, henries)),
            Element::Vccs {
                a: n1,
                b: n2,
                cp,
                cn,
                gm,
            } => {
                // i flows n1 → n2 through the source: KCL at n1 gains
                // +gm·vc, at n2 −gm·vc.
                for (node, sign) in [(n1, 1.0), (n2, -1.0)] {
                    if let Some(i) = node_index(node) {
                        if let Some(jp) = node_index(cp) {
                            p.g[(i, jp)] += gm * sign;
                        }
                        if let Some(jn) = node_index(cn) {
                            p.g[(i, jn)] -= gm * sign;
                        }
                    }
                }
            }
            Element::CurrentSource { from, into, amps } => {
                if let Some(k) = node_index(into) {
                    p.b[k] += amps;
                }
                if let Some(k) = node_index(from) {
                    p.b[k] -= amps;
                }
            }
            Element::VoltageSource { p: np, n, volts } => {
                let row = vsrc_row;
                vsrc_row += 1;
                if let Some(i) = node_index(np) {
                    p.g[(i, row)] += 1.0;
                    p.g[(row, i)] += 1.0;
                }
                if let Some(i) = node_index(n) {
                    p.g[(i, row)] -= 1.0;
                    p.g[(row, i)] -= 1.0;
                }
                p.b[row] = volts;
            }
        }
    }
    p
}

/// `det(G + sC)` as the real coefficients of `s⁰ … sⁿ`; with `replace =
/// Some((k, b))`, of the same pencil with column `k` replaced by the
/// constant vector `b` (Cramer's rule).
///
/// Laplace expansion row by row over column subsets: `minors[mask]` is
/// the determinant of the first `|mask|` rows restricted to the columns in
/// `mask`, a polynomial of degree ≤ `|mask|`, and each entry multiplies in
/// as `g + s·c`. Only products and sums — no pivot, no division — so a
/// power of `s` that no permutation reaches comes out exactly `0`.
fn pencil_det(g: &Matrix, c: &Matrix, replace: Option<(usize, &[f64])>) -> Vec<f64> {
    let n = g.nrows();
    let width = n + 1;
    let full = (1usize << n) - 1;
    let mut minors = vec![0.0; (full + 1) * width];
    minors[0] = 1.0;
    let mut src = vec![0.0; width];
    // Every subset precedes its supersets in numeric order.
    for mask in 0..full {
        let row = mask.count_ones() as usize;
        src.copy_from_slice(&minors[mask * width..(mask + 1) * width]);
        if src.iter().all(|&v| v == 0.0) {
            continue; // a zero minor extends to zero terms only
        }
        for col in (0..n).filter(|&col| mask & (1 << col) == 0) {
            let (gv, cv) = match replace {
                Some((k, b)) if col == k => (b[row], 0.0),
                _ => (g[(row, col)], c[(row, col)]),
            };
            if gv == 0.0 && cv == 0.0 {
                continue;
            }
            // Each used column right of `col` is one more inversion.
            let sign = if (mask >> col).count_ones() % 2 == 1 {
                -1.0
            } else {
                1.0
            };
            let (gv, cv) = (sign * gv, sign * cv);
            let dst = &mut minors[(mask | 1 << col) * width..][..width];
            for k in 0..=row {
                dst[k] += gv * src[k];
                dst[k + 1] += cv * src[k];
            }
        }
    }
    minors[full * width..].to_vec()
}

/// `p(jω)` for the real coefficients `p[k]` of `sᵏ`, by Horner's rule.
fn horner(p: &[f64], omega: f64) -> Complex64 {
    let (mut re, mut im) = (0.0, 0.0);
    for &coef in p.iter().rev() {
        // (re + j·im)·jω + coef
        (re, im) = (coef - im * omega, re * omega);
    }
    Complex64::new(re, im)
}

/// A transfer function `H(s) = N(s)/D(s)` with real polynomial
/// coefficients, as extracted by [`AcAnalysis::transfer_function`].
///
/// Both coefficient vectors run from `s⁰` up to `sⁿ` for `n` MNA unknowns;
/// powers the circuit's structure cannot reach are exactly `0`.
#[derive(Debug, Clone, PartialEq)]
pub struct RationalTransfer {
    /// `N(s)`: `num[k]` multiplies `sᵏ`.
    num: Vec<f64>,
    /// `D(s) = det(G + sC)`: `den[k]` multiplies `sᵏ`.
    den: Vec<f64>,
}

impl RationalTransfer {
    /// `H(jω)` at angular frequency `omega` (rad/s), by Horner's rule on
    /// both polynomials.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::SingularSystem`] where `D(jω)` is exactly
    /// zero — at every `ω` for a structurally singular netlist (a floating
    /// node makes `D ≡ 0`).
    pub fn eval(&self, omega: f64) -> Result<Complex64> {
        let den = horner(&self.den, omega);
        if den == Complex64::ZERO {
            return Err(CircuitError::SingularSystem { omega });
        }
        Ok(horner(&self.num, omega) / den)
    }
}

/// AC analysis engine bound to a [`Netlist`].
///
/// # Example
///
/// ```
/// use bmf_circuits::netlist::Netlist;
/// use bmf_circuits::mna::AcAnalysis;
///
/// # fn main() -> Result<(), bmf_circuits::CircuitError> {
/// // RC low-pass, f_c = 1/(2π RC) ≈ 159 kHz.
/// let mut nl = Netlist::new(3);
/// nl.voltage_source(1, 0, 1.0)?;
/// nl.resistor(1, 2, 1_000.0)?;
/// nl.capacitor(2, 0, 1e-9)?;
/// let ac = AcAnalysis::new(&nl);
/// let sol = ac.solve(2.0 * std::f64::consts::PI * 159_155.0)?;
/// // At the corner frequency the output is 3 dB down.
/// let mag = sol.voltage(2).abs();
/// assert!((mag - 1.0 / 2.0_f64.sqrt()).abs() < 1e-3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AcAnalysis<'a> {
    netlist: &'a Netlist,
    /// Unknown count: (nodes − 1) + voltage sources.
    dim: usize,
    pencil: Pencil,
}

impl<'a> AcAnalysis<'a> {
    /// Creates an analysis for the given netlist, stamping it once.
    pub fn new(netlist: &'a Netlist) -> Self {
        let dim = netlist.node_count() - 1 + netlist.voltage_source_count();
        AcAnalysis {
            netlist,
            dim,
            pencil: stamp(netlist, dim),
        }
    }

    /// Size of the assembled MNA system.
    pub fn system_dim(&self) -> usize {
        self.dim
    }

    /// Assembles the MNA matrix `G + jωC` (plus inductor admittances) and
    /// right-hand side at angular frequency `omega`.
    fn assemble(&self, omega: f64) -> (CMatrix, CVector) {
        let p = &self.pencil;
        let mut a = CMatrix::zeros(self.dim, self.dim);
        for i in 0..self.dim {
            for j in 0..self.dim {
                a[(i, j)] = Complex64::new(p.g[(i, j)], omega * p.c[(i, j)]);
            }
        }
        for &(n1, n2, henries) in &p.inductors {
            // Y = 1/(jωL); at DC (ω = 0) an inductor is a short —
            // approximate with a very large conductance to keep the system
            // non-singular.
            let y = if omega > 0.0 {
                Complex64::new(0.0, -1.0 / (omega * henries))
            } else {
                Complex64::from_re(1e12)
            };
            stamp_admittance(&mut a, n1, n2, y);
        }
        let mut rhs = CVector::zeros(self.dim);
        for (k, &v) in p.b.iter().enumerate() {
            rhs[k] = Complex64::from_re(v);
        }
        (a, rhs)
    }

    /// Solves the circuit at angular frequency `omega` (rad/s).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::SingularSystem`] when the MNA matrix cannot
    /// be factorised (floating nodes, short-circuit loops of ideal sources).
    pub fn solve(&self, omega: f64) -> Result<AcSolution> {
        let (a, rhs) = self.assemble(omega);
        let lu = CLu::new(&a).map_err(|_| CircuitError::SingularSystem { omega })?;
        let x = lu
            .solve_vec(&rhs)
            .map_err(|_| CircuitError::SingularSystem { omega })?;

        let nv = self.netlist.node_count() - 1;
        let mut node_voltages = vec![Complex64::ZERO; self.netlist.node_count()];
        for n in 1..self.netlist.node_count() {
            node_voltages[n] = x[n - 1];
        }
        let branch_currents = (0..self.netlist.voltage_source_count())
            .map(|k| x[nv + k])
            .collect();
        Ok(AcSolution {
            node_voltages,
            branch_currents,
        })
    }

    /// Voltage transfer function from the (single) source to `out_node` at
    /// `omega` — i.e. `v(out_node)` with unit drive.
    ///
    /// # Errors
    ///
    /// Propagates [`CircuitError::SingularSystem`] from the solve.
    pub fn transfer(&self, out_node: usize, omega: f64) -> Result<Complex64> {
        Ok(self.solve(omega)?.voltage(out_node))
    }

    /// Extracts the transfer function from the (single) source to
    /// `out_node` as `H(s) = N(s)/D(s)`: two determinant expansions of the
    /// pencil, after which every `H(jω)` is a
    /// [`RationalTransfer::eval`] instead of a [`Self::transfer`] solve.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::UnknownNode`] for an out-of-range `out_node`.
    /// * [`CircuitError::InvalidValue`] for `out_node` = ground, or more
    ///   than 16 unknowns (the expansion holds `2^n` partial determinants).
    /// * [`CircuitError::Unsupported`] for a netlist with an inductor,
    ///   whose `1/(sL)` is not polynomial in `s`.
    pub fn transfer_function(&self, out_node: usize) -> Result<RationalTransfer> {
        let node_count = self.netlist.node_count();
        if out_node >= node_count {
            return Err(CircuitError::UnknownNode {
                node: out_node,
                node_count,
            });
        }
        let Some(out) = node_index(out_node) else {
            return Err(CircuitError::InvalidValue {
                what: "output node",
                value: out_node as f64,
                constraint: "not ground",
            });
        };
        if self.dim > MAX_TRANSFER_UNKNOWNS {
            return Err(CircuitError::InvalidValue {
                what: "MNA unknowns",
                value: self.dim as f64,
                constraint: "at most 16 for the subset expansion",
            });
        }
        let p = &self.pencil;
        if !p.inductors.is_empty() {
            return Err(CircuitError::Unsupported {
                what: "inductor in a transfer-function extraction",
                reason: "1/(sL) is not polynomial in s; use solve or transfer",
            });
        }
        Ok(RationalTransfer {
            num: pencil_det(&p.g, &p.c, Some((out, &p.b))),
            den: pencil_det(&p.g, &p.c, None),
        })
    }

    /// Sweeps a log-spaced frequency grid, returning `(f_hz, v_out)` pairs.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::InvalidValue`] on a bad frequency range or
    ///   `points < 2`.
    /// * [`CircuitError::SingularSystem`] from any solve.
    pub fn sweep(
        &self,
        out_node: usize,
        f_start_hz: f64,
        f_stop_hz: f64,
        points: usize,
    ) -> Result<Vec<(f64, Complex64)>> {
        if !(f_start_hz > 0.0 && f_stop_hz > f_start_hz) {
            return Err(CircuitError::InvalidValue {
                what: "frequency range",
                value: f_start_hz,
                constraint: "0 < f_start < f_stop",
            });
        }
        if points < 2 {
            return Err(CircuitError::InvalidValue {
                what: "sweep points",
                value: points as f64,
                constraint: "points >= 2",
            });
        }
        let lstart = f_start_hz.log10();
        let lstop = f_stop_hz.log10();
        let mut out = Vec::with_capacity(points);
        for k in 0..points {
            let f = 10f64.powf(lstart + (lstop - lstart) * k as f64 / (points - 1) as f64);
            let v = self.transfer(out_node, 2.0 * std::f64::consts::PI * f)?;
            out.push((f, v));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TWO_PI: f64 = 2.0 * std::f64::consts::PI;

    /// Voltage divider: 1 V source, two equal resistors.
    #[test]
    fn resistive_divider() {
        let mut nl = Netlist::new(3);
        nl.voltage_source(1, 0, 1.0).unwrap();
        nl.resistor(1, 2, 1e3).unwrap();
        nl.resistor(2, 0, 1e3).unwrap();
        let ac = AcAnalysis::new(&nl);
        let sol = ac.solve(0.0).unwrap();
        assert!((sol.voltage(2).re - 0.5).abs() < 1e-12);
        assert!(sol.voltage(2).im.abs() < 1e-12);
        // Source current = −1 V / 2 kΩ (flows out of + terminal).
        assert!((sol.source_current(0).re + 0.5e-3).abs() < 1e-12);
        assert_eq!(sol.node_count(), 3);
    }

    #[test]
    fn rc_lowpass_corner() {
        let r = 1e3;
        let c = 1e-9;
        let fc = 1.0 / (TWO_PI * r * c);
        let mut nl = Netlist::new(3);
        nl.voltage_source(1, 0, 1.0).unwrap();
        nl.resistor(1, 2, r).unwrap();
        nl.capacitor(2, 0, c).unwrap();
        let ac = AcAnalysis::new(&nl);

        // Passband ≈ 1, corner ≈ −3 dB with −45° phase, decade above ≈ −20 dB.
        let low = ac.transfer(2, TWO_PI * fc / 1000.0).unwrap();
        assert!((low.abs() - 1.0).abs() < 1e-4);

        let corner = ac.transfer(2, TWO_PI * fc).unwrap();
        assert!((corner.abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-9);
        assert!((corner.arg().to_degrees() + 45.0).abs() < 1e-6);

        let above = ac.transfer(2, TWO_PI * fc * 10.0).unwrap();
        assert!((above.abs() - 1.0 / 101f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn rlc_series_resonance() {
        // Series RLC from source to ground, measure across the capacitor.
        let r = 10.0_f64;
        let l = 1e-6_f64;
        let c = 1e-9_f64;
        let f0 = 1.0 / (TWO_PI * (l * c).sqrt());
        let mut nl = Netlist::new(4);
        nl.voltage_source(1, 0, 1.0).unwrap();
        nl.resistor(1, 2, r).unwrap();
        nl.inductor(2, 3, l).unwrap();
        nl.capacitor(3, 0, c).unwrap();
        let ac = AcAnalysis::new(&nl);
        // At resonance, |V_C| = Q = (1/R)·sqrt(L/C).
        let q = (l / c).sqrt() / r;
        let vc = ac.transfer(3, TWO_PI * f0).unwrap();
        assert!(
            (vc.abs() - q).abs() / q < 1e-6,
            "Q = {q}, |vc| = {}",
            vc.abs()
        );
    }

    #[test]
    fn vccs_amplifier_gain() {
        // gm cell driving a load resistor: gain = −gm·R.
        let gm = 2e-3;
        let rl = 5e3;
        let mut nl = Netlist::new(3);
        nl.voltage_source(1, 0, 1.0).unwrap();
        // current flows from output (2) into ground through source when v1>0
        nl.vccs(2, 0, 1, 0, gm).unwrap();
        nl.resistor(2, 0, rl).unwrap();
        let ac = AcAnalysis::new(&nl);
        let v = ac.transfer(2, 0.0).unwrap();
        assert!((v.re + gm * rl).abs() < 1e-9, "v = {v}");
    }

    #[test]
    fn current_source_into_resistor() {
        let mut nl = Netlist::new(2);
        nl.current_source(0, 1, 1e-3).unwrap();
        nl.resistor(1, 0, 2e3).unwrap();
        let ac = AcAnalysis::new(&nl);
        let sol = ac.solve(0.0).unwrap();
        assert!((sol.voltage(1).re - 2.0).abs() < 1e-12);
    }

    #[test]
    fn floating_node_is_singular() {
        let mut nl = Netlist::new(3);
        nl.voltage_source(1, 0, 1.0).unwrap();
        nl.resistor(1, 0, 1e3).unwrap();
        // node 2 touches nothing conductive
        nl.capacitor(2, 0, 0.0).unwrap();
        let ac = AcAnalysis::new(&nl);
        assert!(matches!(
            ac.solve(0.0),
            Err(CircuitError::SingularSystem { .. })
        ));
    }

    #[test]
    fn sweep_is_monotone_for_lowpass() {
        let mut nl = Netlist::new(3);
        nl.voltage_source(1, 0, 1.0).unwrap();
        nl.resistor(1, 2, 1e3).unwrap();
        nl.capacitor(2, 0, 1e-9).unwrap();
        let ac = AcAnalysis::new(&nl);
        let sweep = ac.sweep(2, 1e3, 1e8, 41).unwrap();
        assert_eq!(sweep.len(), 41);
        for w in sweep.windows(2) {
            assert!(w[1].1.abs() <= w[0].1.abs() + 1e-12);
            assert!(w[1].0 > w[0].0);
        }
        assert!(ac.sweep(2, 0.0, 1e6, 10).is_err());
        assert!(ac.sweep(2, 1e3, 1e2, 10).is_err());
        assert!(ac.sweep(2, 1e3, 1e6, 1).is_err());
    }

    #[test]
    fn two_voltage_sources() {
        // Superposition sanity: two 1 V sources in series via resistors.
        let mut nl = Netlist::new(4);
        nl.voltage_source(1, 0, 1.0).unwrap();
        nl.voltage_source(3, 0, 1.0).unwrap();
        nl.resistor(1, 2, 1e3).unwrap();
        nl.resistor(3, 2, 1e3).unwrap();
        nl.resistor(2, 0, 1e3).unwrap();
        let ac = AcAnalysis::new(&nl);
        let sol = ac.solve(0.0).unwrap();
        // Node 2: by symmetry v = 2/3 V.
        assert!((sol.voltage(2).re - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(ac.system_dim(), 3 + 2);
    }

    /// The op-amp's small-signal topology: source, two gm stages, Miller
    /// `R_z + C_c` between them.
    fn two_stage() -> Netlist {
        let mut nl = Netlist::new(5);
        nl.voltage_source(1, 0, 1.0).unwrap();
        nl.vccs(2, 0, 1, 0, 2e-4).unwrap();
        nl.resistor(2, 0, 5e5).unwrap();
        nl.capacitor(2, 0, 5e-14).unwrap();
        nl.vccs(3, 0, 2, 0, 1e-3).unwrap();
        nl.resistor(3, 0, 1e5).unwrap();
        nl.capacitor(3, 0, 2e-12).unwrap();
        nl.capacitor(2, 4, 1e-12).unwrap();
        nl.resistor(4, 3, 300.0).unwrap();
        nl
    }

    #[test]
    fn rc_transfer_function_is_one_pole() {
        let (r, c) = (1e3, 1e-9);
        let mut nl = Netlist::new(3);
        nl.voltage_source(1, 0, 1.0).unwrap();
        nl.resistor(1, 2, r).unwrap();
        nl.capacitor(2, 0, c).unwrap();
        let ac = AcAnalysis::new(&nl);
        let h = ac.transfer_function(2).unwrap();
        // H(s) = 1/(1 + sRC): the ratio of the s¹ and s⁰ denominator
        // coefficients is RC, the numerator is a constant.
        let den = &h.den;
        assert!((den[1] / den[0] - r * c).abs() < 1e-18);
        assert_eq!(den[2], 0.0);
        assert!(h.num[1..].iter().all(|&v| v == 0.0));
        for f in [1.0, 1e5, 159_155.0, 1e9] {
            let w = TWO_PI * f;
            let dense = ac.transfer(2, w).unwrap();
            assert!((h.eval(w).unwrap() - dense).abs() <= 1e-12 * dense.abs());
        }
    }

    #[test]
    fn two_stage_transfer_function_matches_dense_solve() {
        let nl = two_stage();
        let ac = AcAnalysis::new(&nl);
        let h = ac.transfer_function(3).unwrap();
        // 5 unknowns, but C only touches nodes 2–4: D(s) is cubic and the
        // s⁴/s⁵ terms are exactly zero, not merely small.
        assert_eq!(h.den.len(), 6);
        assert_eq!(&h.den[4..], &[0.0, 0.0]);
        assert!(h.den[3] != 0.0);
        for k in 0..=48 {
            let w = TWO_PI * 10f64.powf(k as f64 / 4.0);
            let dense = ac.transfer(3, w).unwrap();
            let pencil = h.eval(w).unwrap();
            assert!(
                (pencil - dense).abs() <= 1e-12 * dense.abs(),
                "f = {:e}: {pencil} vs {dense}",
                w / TWO_PI
            );
        }
        // DC gain (gm1·R1)·(gm2·R2), non-inverting overall.
        let dc = h.eval(0.0).unwrap();
        assert!((dc.re - 2e-4 * 5e5 * 1e-3 * 1e5).abs() < 1e-9 * dc.re);
    }

    #[test]
    fn transfer_function_rejects_what_the_pencil_cannot_hold() {
        let nl = two_stage();
        let ac = AcAnalysis::new(&nl);
        assert!(matches!(
            ac.transfer_function(0),
            Err(CircuitError::InvalidValue {
                what: "output node",
                ..
            })
        ));
        assert!(matches!(
            ac.transfer_function(5),
            Err(CircuitError::UnknownNode {
                node: 5,
                node_count: 5
            })
        ));

        let mut rlc = Netlist::new(3);
        rlc.voltage_source(1, 0, 1.0).unwrap();
        rlc.inductor(1, 2, 1e-6).unwrap();
        rlc.capacitor(2, 0, 1e-9).unwrap();
        assert!(matches!(
            AcAnalysis::new(&rlc).transfer_function(2),
            Err(CircuitError::Unsupported { .. })
        ));

        let mut ladder = Netlist::new(MAX_TRANSFER_UNKNOWNS + 1);
        ladder.voltage_source(1, 0, 1.0).unwrap();
        for k in 1..MAX_TRANSFER_UNKNOWNS {
            ladder.resistor(k, k + 1, 1e3).unwrap();
        }
        assert!(matches!(
            AcAnalysis::new(&ladder).transfer_function(2),
            Err(CircuitError::InvalidValue {
                what: "MNA unknowns",
                ..
            })
        ));
    }

    #[test]
    fn floating_node_transfer_is_singular_at_every_frequency() {
        let mut nl = Netlist::new(3);
        nl.voltage_source(1, 0, 1.0).unwrap();
        nl.resistor(1, 0, 1e3).unwrap();
        nl.capacitor(2, 0, 0.0).unwrap();
        let h = AcAnalysis::new(&nl).transfer_function(2).unwrap();
        assert!(h.den.iter().all(|&d| d == 0.0));
        for w in [0.0, 1.0, 1e9] {
            assert!(matches!(
                h.eval(w),
                Err(CircuitError::SingularSystem { omega }) if omega == w
            ));
        }
    }

    #[test]
    fn inductor_is_short_at_dc() {
        let mut nl = Netlist::new(3);
        nl.voltage_source(1, 0, 1.0).unwrap();
        nl.inductor(1, 2, 1e-3).unwrap();
        nl.resistor(2, 0, 1e3).unwrap();
        let ac = AcAnalysis::new(&nl);
        let sol = ac.solve(0.0).unwrap();
        assert!((sol.voltage(2).re - 1.0).abs() < 1e-6);
    }
}
