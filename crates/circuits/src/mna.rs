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
//! `sC`), `B` is the voltage-source incidence, `i` is zero (no element
//! injects a current) and `e` holds the source voltages. The system
//! matrix is the real pencil `G + sC` — `C` the capacitances, `G`
//! everything else — and the right-hand side a real vector `b`; the
//! netlist is stamped into them once.
//!
//! Two ways to read a response off the pencil:
//!
//! * [`AcAnalysis::transfer_function`] extracts `H(s) = N(s)/D(s)` once, by
//!   Cramer's rule on the pencil: `D(s) = det(G + sC)` and `N(s)` the same
//!   determinant with the output column replaced by `b`, both as real
//!   polynomial coefficients. [`RationalTransfer::eval`] then costs two
//!   Horner evaluations per `ω`, and [`RationalTransfer::phase`] reads the
//!   unwrapped phase at any `ω` off the roots of `N` and `D`. Every die
//!   takes this path.
//! * [`AcAnalysis::transfer`] forms `G + jωC` at one frequency and solves
//!   it by pivoted elimination — the dense reference the pencil is tested
//!   against, one factorisation per `ω`.

use crate::netlist::{Element, Netlist, GROUND};
use crate::{CircuitError, Result};
use bmf_linalg::{Complex64, Matrix};

/// Most unknowns [`AcAnalysis::transfer_function`] expands: the subset
/// expansion holds `2^n` partial determinants of degree ≤ `n`.
const MAX_TRANSFER_UNKNOWNS: usize = 16;

/// Most Aberth–Ehrlich sweeps [`roots`] runs before it gives up.
const MAX_ROOT_SWEEPS: usize = 100;

/// A root whose real part is below this fraction of its modulus counts as
/// on the jω axis: its angle term in [`RationalTransfer::phase`] would be
/// `+π` or `−π` by the sign of rounding noise.
const AXIS_TOL: f64 = 1e-12;

/// The netlist stamped over the reduced unknowns (see the module docs).
#[derive(Debug, Clone)]
struct Pencil {
    g: Matrix,
    c: Matrix,
    b: Vec<f64>,
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
fn stamp_admittance(m: &mut Matrix, n1: usize, n2: usize, y: f64) {
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
/// `G + sC` and the source vector `b`.
///
/// `G` holds conductances, VCCS gm entries and the voltage-source
/// incidence, `C` the capacitances; `b` holds the source voltages.
fn stamp(netlist: &Netlist, dim: usize) -> Pencil {
    let mut p = Pencil {
        g: Matrix::zeros(dim, dim),
        c: Matrix::zeros(dim, dim),
        b: vec![0.0; dim],
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

/// The roots of the real polynomial `p` (`p[k]` multiplies `sᵏ`; `p[0]`
/// and the top coefficient non-zero), or `None` if the Aberth–Ehrlich
/// iteration has not converged within `max_sweeps` sweeps.
///
/// `s = σt` with `σ = |p₀/pₙ|^{1/n}` puts the geometric mean of the root
/// moduli at 1, and the iteration starts from [`newton_polygon_starts`].
/// Each sweep moves every unfinished root by the Aberth correction, using
/// the roots already moved in it. A root is finished after the sweep in
/// which `|q(t)|` sank to the rounding level of its Horner evaluation,
/// `4n·ε·Σ|qₖ||t|ᵏ`.
fn roots(p: &[f64], max_sweeps: usize) -> Option<Vec<Complex64>> {
    let n = p.len() - 1;
    let scale = ((p[0].abs().ln() - p[n].abs().ln()) / n as f64).exp();
    let mut power = 1.0;
    let q: Vec<f64> = p
        .iter()
        .map(|&c| {
            let scaled = c * power;
            power *= scale;
            scaled
        })
        .collect();
    let tol = 4.0 * n as f64 * f64::EPSILON;
    let mut t = newton_polygon_starts(&q);
    if t.len() != n {
        return None; // the scaled top coefficient underflowed to zero
    }
    let mut done = vec![false; n];
    for _ in 0..max_sweeps {
        for k in 0..n {
            if done[k] {
                continue;
            }
            let z = t[k];
            let r = z.abs_sq().sqrt();
            let (mut v, mut dv, mut bound) = (Complex64::ZERO, Complex64::ZERO, 0.0);
            for &c in q.iter().rev() {
                dv = dv * z + v;
                v = v * z + Complex64::from_re(c);
                bound = bound * r + c.abs();
            }
            let newton = v / dv;
            let mut repulsion = Complex64::ZERO;
            for (j, &other) in t.iter().enumerate() {
                if j != k {
                    repulsion += (z - other).recip();
                }
            }
            t[k] = z - newton / (Complex64::ONE - newton * repulsion);
            done[k] = v.abs_sq().sqrt() <= tol * bound && t[k].is_finite();
        }
        if done.iter().all(|&d| d) {
            return Some(t.into_iter().map(|z| z * scale).collect());
        }
    }
    None
}

/// Starting points for [`roots`]: for each edge `(i, ln|qᵢ|)` →
/// `(j, ln|qⱼ|)` of the upper convex hull of the points `(k, ln|qₖ|)`,
/// `j − i` points on the circle of radius `|qᵢ/qⱼ|^{1/(j−i)}`, the modulus
/// that many roots cluster at when the root moduli are spread apart. The
/// circles are turned against each other and off the real axis, so that
/// no two points start as a conjugate pair.
fn newton_polygon_starts(q: &[f64]) -> Vec<Complex64> {
    let n = q.len() - 1;
    let mut hull: Vec<(usize, f64)> = Vec::with_capacity(q.len());
    for (k, &c) in q.iter().enumerate().filter(|(_, &c)| c != 0.0) {
        let point = (k, c.abs().ln());
        // Drop the last vertex while it lies on or below the chord from
        // the vertex before it to the new point.
        while let [.., (i, li), (j, lj)] = hull[..] {
            if (lj - li) * (k - i) as f64 > (point.1 - li) * (j - i) as f64 {
                break;
            }
            hull.pop();
        }
        hull.push(point);
    }
    let mut starts = Vec::with_capacity(n);
    for edge in hull.windows(2) {
        let ((i, li), (j, lj)) = (edge[0], edge[1]);
        let m = j - i;
        let radius = ((li - lj) / m as f64).exp();
        for k in 0..m {
            let angle = std::f64::consts::TAU * (k as f64 / m as f64 + i as f64 / n as f64) + 0.4;
            starts.push(Complex64::from_polar(radius, angle));
        }
    }
    starts
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
    /// `H(s) = gain·Π(1 − s/z)/Π(1 − s/p)` over `zeros` and `poles`, which
    /// are real or come in conjugate pairs.
    #[cfg(test)]
    pub(crate) fn from_roots(gain: f64, zeros: &[Complex64], poles: &[Complex64]) -> Self {
        let expand = |roots: &[Complex64]| {
            let mut c = vec![Complex64::ONE];
            for &r in roots {
                c.push(Complex64::ZERO);
                for k in (1..c.len()).rev() {
                    let lower = c[k - 1];
                    c[k] -= lower / r;
                }
            }
            c.into_iter().map(|v| v.re).collect::<Vec<f64>>()
        };
        RationalTransfer {
            num: expand(zeros).into_iter().map(|v| gain * v).collect(),
            den: expand(poles),
        }
    }

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

    /// Phase of `H(jω)` relative to `H(0)`, in radians, unwrapped from
    /// `ω = 0`.
    ///
    /// `H(jω)/H(0) = Π(1 − jω/z)/Π(1 − jω/p)` over the zeros `z` of `N`
    /// and the poles `p` of `D`, so the phase is the sum of
    /// `arg((jω − z)/(−z))` over the zeros minus the same sum over the
    /// poles. Each term is the angle under which its root sees the segment
    /// `[0, jω]`, continuous in `ω` unless the root lies on that segment:
    /// the sum needs no sweep and no unwrapping. The roots come from
    /// Aberth–Ehrlich on each polynomial with its exactly-zero top
    /// coefficients trimmed.
    ///
    /// The root sum only picks the whole turn: the value is
    /// `v = arg(H(jω)/H(0))` from [`Self::eval`], moved by the multiple of
    /// `2π` that brings it nearest the root sum. Aberth resolves a cluster
    /// of `m` nearly equal roots only to about `ε^{1/m}` of its modulus,
    /// which would cost an exact triple pole about 5e-7 rad in the sum;
    /// the Horner value is accurate to rounding however the roots cluster,
    /// and the sum stays far closer than `π` to it.
    ///
    /// # Errors
    ///
    /// [`CircuitError::MeasurementFailure`] (metric `"phase"`) where `N(0)`
    /// or `D(0)` is zero, where a root lies on the jω axis at or below
    /// `ω`, where a root iteration does not converge, or where `D(jω)` is
    /// exactly zero.
    pub fn phase(&self, omega: f64) -> Result<f64> {
        let fail = |reason: String| CircuitError::MeasurementFailure {
            metric: "phase",
            reason,
        };
        let mut phase = 0.0;
        for (name, poly, sign) in [("N", &self.num, 1.0), ("D", &self.den, -1.0)] {
            let len = poly
                .iter()
                .rposition(|&c| c != 0.0)
                .map_or(0, |top| top + 1);
            let poly = &poly[..len];
            if poly.first().is_none_or(|&c| c == 0.0) {
                return Err(fail(format!("{name}(0) = 0: no phase relative to H(0)")));
            }
            if poly.len() == 1 {
                continue;
            }
            let zs = roots(poly, MAX_ROOT_SWEEPS).ok_or_else(|| {
                fail(format!(
                    "the roots of {name}(s) did not converge in {MAX_ROOT_SWEEPS} sweeps"
                ))
            })?;
            for z in zs {
                if z.re.abs() <= AXIS_TOL * z.abs() && z.im.abs() <= omega {
                    return Err(fail(format!(
                        "{name}(s) has a root {z} on the jω axis at or below ω = {omega:.6e} rad/s"
                    )));
                }
                // arg(1 − jω/z) with the common factor 1/|z|² dropped.
                phase += sign * (-omega * z.re).atan2(z.abs_sq() - omega * z.im);
            }
        }
        let h = self
            .eval(omega)
            .map_err(|_| fail(format!("D(jω) = 0 at ω = {omega:.6e} rad/s")))?;
        let v = (h / (self.num[0] / self.den[0])).arg();
        let turn = std::f64::consts::TAU;
        Ok(v + turn * ((phase - v) / turn).round())
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
/// let h = AcAnalysis::new(&nl).transfer_function(2)?;
/// // At the corner frequency the output is 3 dB down.
/// let mag = h.eval(2.0 * std::f64::consts::PI * 159_155.0)?.abs();
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

    /// `out_node`, or [`CircuitError::UnknownNode`] when the netlist has
    /// no such node.
    fn check_node(&self, out_node: usize) -> Result<usize> {
        let node_count = self.netlist.node_count();
        if out_node >= node_count {
            return Err(CircuitError::UnknownNode {
                node: out_node,
                node_count,
            });
        }
        Ok(out_node)
    }

    /// Voltage transfer function from the (single) source to `out_node` at
    /// `omega` — i.e. `v(out_node)` with unit drive — by one dense solve of
    /// `(G + jωC)x = b`. Ground reads `0`.
    ///
    /// This is the reference [`Self::transfer_function`] is tested
    /// against; a die never calls it.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::UnknownNode`] for an out-of-range `out_node`.
    /// * [`CircuitError::SingularSystem`] when `G + jωC` cannot be
    ///   factorised (floating nodes, short-circuit loops of ideal sources).
    pub fn transfer(&self, out_node: usize, omega: f64) -> Result<Complex64> {
        let out = self.check_node(out_node)?;
        let x = self.solve(omega)?;
        Ok(node_index(out).map_or(Complex64::ZERO, |k| x[k]))
    }

    /// Solves `(G + jωC)x = b` by Gaussian elimination with partial
    /// pivoting on the magnitude, over one row-major `dim × (dim + 1)`
    /// buffer whose last column is `b`: the row swaps and eliminations
    /// carry the right-hand side along, then back substitution runs on
    /// the upper triangle.
    fn solve(&self, omega: f64) -> Result<Vec<Complex64>> {
        let singular = CircuitError::SingularSystem { omega };
        let n = self.dim;
        if n == 0 {
            return Err(singular);
        }
        let w = n + 1;
        let p = &self.pencil;
        let mut a = vec![Complex64::ZERO; n * w];
        for (i, row) in a.chunks_exact_mut(w).enumerate() {
            for (j, v) in row[..n].iter_mut().enumerate() {
                *v = Complex64::new(p.g[(i, j)], omega * p.c[(i, j)]);
            }
            row[n] = Complex64::from_re(p.b[i]);
        }
        for k in 0..n {
            let mut pivot_row = k;
            let mut pivot_val = a[k * w + k].abs();
            for i in (k + 1)..n {
                let v = a[i * w + k].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = i;
                }
            }
            if pivot_val == 0.0 || !pivot_val.is_finite() {
                return Err(singular);
            }
            if pivot_row != k {
                for j in 0..w {
                    a.swap(k * w + j, pivot_row * w + j);
                }
            }
            let (upper, lower) = a.split_at_mut((k + 1) * w);
            let pivot = &upper[k * w..];
            for row in lower.chunks_exact_mut(w) {
                let factor = row[k] / pivot[k];
                for (v, &u) in row[k + 1..].iter_mut().zip(&pivot[k + 1..]) {
                    *v -= factor * u;
                }
            }
        }
        let mut x = vec![Complex64::ZERO; n];
        for i in (0..n).rev() {
            let row = &a[i * w..(i + 1) * w];
            let mut s = row[n];
            for k in (i + 1)..n {
                s -= row[k] * x[k];
            }
            x[i] = s / row[i];
        }
        Ok(x)
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
    pub fn transfer_function(&self, out_node: usize) -> Result<RationalTransfer> {
        let Some(out) = node_index(self.check_node(out_node)?) else {
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
        bmf_obs::counters::MNA_TRANSFER_FUNCTIONS.incr();
        Ok(RationalTransfer {
            num: pencil_det(&p.g, &p.c, Some((out, &p.b))),
            den: pencil_det(&p.g, &p.c, None),
        })
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
        let v = ac.transfer(2, 0.0).unwrap();
        assert!((v.re - 0.5).abs() < 1e-12);
        assert!(v.im.abs() < 1e-12);
        // Ground reads 0; a node the netlist lacks is a typed error.
        assert_eq!(ac.transfer(0, 0.0).unwrap(), Complex64::ZERO);
        assert!(matches!(
            ac.transfer(3, 0.0),
            Err(CircuitError::UnknownNode {
                node: 3,
                node_count: 3
            })
        ));
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
    fn floating_node_is_singular() {
        let mut nl = Netlist::new(3);
        nl.voltage_source(1, 0, 1.0).unwrap();
        nl.resistor(1, 0, 1e3).unwrap();
        // node 2 touches nothing conductive
        nl.capacitor(2, 0, 0.0).unwrap();
        let ac = AcAnalysis::new(&nl);
        assert!(matches!(
            ac.transfer(2, 0.0),
            Err(CircuitError::SingularSystem { .. })
        ));
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
        // Node 2: by symmetry v = 2/3 V.
        assert!((ac.transfer(2, 0.0).unwrap().re - 2.0 / 3.0).abs() < 1e-12);
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
        // The phase from the roots of the trimmed polynomials is the
        // dense solve's angle, up to whole turns.
        for k in 0..=48 {
            let w = TWO_PI * 10f64.powf(k as f64 / 4.0);
            let dense = ac.transfer(3, w).unwrap() / dc;
            let turn = Complex64::from_polar(1.0, h.phase(w).unwrap());
            assert!((turn - dense / dense.abs()).abs() <= 1e-12, "ω = {w:e}");
        }
    }

    #[test]
    fn phase_matches_analytic_angle_sums() {
        let real = Complex64::from_re;
        let (p1, p2, p3, z) = (1e3, 3e6, 2e7, 5e7);
        let (w0, zeta) = (3e6, 0.4);
        let pair = Complex64::new(-zeta * w0, w0 * (1.0 - zeta * zeta).sqrt());
        let cases = [
            RationalTransfer::from_roots(5.0, &[], &[real(-p1)]),
            RationalTransfer::from_roots(5.0, &[], &[real(-p1), real(-p2), real(-p3)]),
            RationalTransfer::from_roots(5.0, &[], &[real(-p1), pair, pair.conj()]),
            // A right-half-plane zero, as the Miller path makes.
            RationalTransfer::from_roots(5.0, &[real(z)], &[real(-p1), real(-p2)]),
        ];
        for w in [1e2, 1e4, 1e6, 3e6, 1e8, 1e10] {
            let lag = |p: f64| -(w / p).atan();
            let expected = [
                lag(p1),
                lag(p1) + lag(p2) + lag(p3),
                lag(p1) - (2.0 * zeta * w0 * w).atan2(w0 * w0 - w * w),
                lag(z) + lag(p1) + lag(p2),
            ];
            for (h, phase) in cases.iter().zip(expected) {
                let got = h.phase(w).unwrap();
                assert!(
                    (got - phase).abs() <= 1e-12 * phase.abs(),
                    "ω = {w:e}: {got} vs {phase}"
                );
            }
        }
    }

    #[test]
    fn phase_fails_where_it_is_undefined() {
        let undefined = |h: &RationalTransfer, w: f64| {
            matches!(
                h.phase(w),
                Err(CircuitError::MeasurementFailure {
                    metric: "phase",
                    ..
                })
            )
        };
        // A zero at s = 0, and D ≡ 0: no phase relative to H(0).
        let zero_at_dc = RationalTransfer {
            num: vec![0.0, 1.0],
            den: vec![1.0, 1.0],
        };
        assert!(undefined(&zero_at_dc, 1.0));
        let singular = RationalTransfer {
            num: vec![1.0],
            den: vec![0.0; 3],
        };
        assert!(undefined(&singular, 1.0));
        // A lossless resonance at ω₀ = 1e3: defined below it, not at or
        // above it, where the root ±jω₀ sits on the segment [0, jω].
        let w0 = 1e3;
        let resonance = RationalTransfer::from_roots(
            1.0,
            &[],
            &[Complex64::new(0.0, w0), Complex64::new(0.0, -w0)],
        );
        assert!(resonance.phase(0.5 * w0).unwrap().abs() <= 1e-12);
        assert!(undefined(&resonance, w0));
        assert!(undefined(&resonance, 2.0 * w0));
        // A root solve that does not converge.
        assert!(roots(&[6.0, 11.0, 6.0, 1.0], 1).is_none());
        assert!(roots(&[6.0, 11.0, 6.0, 1.0], MAX_ROOT_SWEEPS).is_some());
        // s² + 1e-600 scales its top coefficient to zero: no start.
        assert!(roots(&[1e-300, 0.0, 1e300], MAX_ROOT_SWEEPS).is_none());
        let poisoned = RationalTransfer {
            num: vec![1.0],
            den: vec![1.0, f64::NAN],
        };
        assert!(undefined(&poisoned, 1.0));
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
}
