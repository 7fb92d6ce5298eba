//! Small-signal netlist representation.
//!
//! A [`Netlist`] is a list of linear(ised) elements connected between node
//! indices. Node `0` is always ground; the MNA engine in [`crate::mna`]
//! stamps the admittance pencil `G + sC` from this description.

use crate::{CircuitError, Result};

/// Ground node index (reference potential).
pub const GROUND: usize = 0;

/// A linear small-signal circuit element.
///
/// All two-terminal elements connect `(a, b)`; the voltage-controlled
/// current source additionally carries a control port `(cp, cn)` and injects
/// `i = gm · (v_cp − v_cn)` flowing from `a` through the source into `b`
/// (SPICE G-element convention: current enters at `a`, exits at `b`).
#[derive(Debug, Clone, PartialEq)]
pub enum Element {
    /// Resistor with resistance in ohms.
    Resistor {
        /// First terminal.
        a: usize,
        /// Second terminal.
        b: usize,
        /// Resistance in ohms (must be positive).
        ohms: f64,
    },
    /// Capacitor with capacitance in farads.
    Capacitor {
        /// First terminal.
        a: usize,
        /// Second terminal.
        b: usize,
        /// Capacitance in farads (must be non-negative).
        farads: f64,
    },
    /// Voltage-controlled current source: `i(a→b) = gm (v_cp − v_cn)`.
    Vccs {
        /// Current exits this terminal (conventional current flows a→b
        /// through the source).
        a: usize,
        /// Current enters this terminal.
        b: usize,
        /// Positive control terminal.
        cp: usize,
        /// Negative control terminal.
        cn: usize,
        /// Transconductance in siemens (may be negative for inverting
        /// stages).
        gm: f64,
    },
    /// Independent small-signal voltage source `v(p) − v(n) = volts`
    /// (handled with an extra MNA branch-current unknown).
    VoltageSource {
        /// Positive terminal.
        p: usize,
        /// Negative terminal.
        n: usize,
        /// AC magnitude in volts.
        volts: f64,
    },
}

impl Element {
    /// All node indices this element touches.
    pub fn nodes(&self) -> Vec<usize> {
        match *self {
            Element::Resistor { a, b, .. } | Element::Capacitor { a, b, .. } => vec![a, b],
            Element::Vccs { a, b, cp, cn, .. } => vec![a, b, cp, cn],
            Element::VoltageSource { p, n, .. } => vec![p, n],
        }
    }
}

/// A small-signal netlist: a node count and a list of [`Element`]s.
///
/// # Example
///
/// ```
/// use bmf_circuits::netlist::Netlist;
///
/// # fn main() -> Result<(), bmf_circuits::CircuitError> {
/// // RC low-pass: unit AC source on node 1, R to node 2, C to ground.
/// let mut nl = Netlist::new(3);
/// nl.voltage_source(1, 0, 1.0)?;
/// nl.resistor(1, 2, 1_000.0)?;
/// nl.capacitor(2, 0, 1e-9)?;
/// assert_eq!(nl.elements().len(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    node_count: usize,
    elements: Vec<Element>,
}

impl Netlist {
    /// Creates a netlist with `node_count` nodes (including ground, node 0).
    ///
    /// # Panics
    ///
    /// Panics when `node_count == 0` (ground must exist).
    pub fn new(node_count: usize) -> Self {
        assert!(node_count >= 1, "netlist needs at least the ground node");
        Netlist {
            node_count,
            elements: Vec::new(),
        }
    }

    /// Number of nodes (including ground).
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of voltage sources (each adds one MNA unknown).
    pub fn voltage_source_count(&self) -> usize {
        self.elements
            .iter()
            .filter(|e| matches!(e, Element::VoltageSource { .. }))
            .count()
    }

    /// The elements in insertion order.
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    fn check_node(&self, node: usize) -> Result<()> {
        if node >= self.node_count {
            return Err(CircuitError::UnknownNode {
                node,
                node_count: self.node_count,
            });
        }
        Ok(())
    }

    fn push_checked(&mut self, e: Element) -> Result<()> {
        for n in e.nodes() {
            self.check_node(n)?;
        }
        self.elements.push(e);
        Ok(())
    }

    /// Adds a resistor.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::InvalidValue`] when `ohms <= 0` or non-finite.
    /// * [`CircuitError::UnknownNode`] for out-of-range nodes.
    pub fn resistor(&mut self, a: usize, b: usize, ohms: f64) -> Result<()> {
        if !(ohms > 0.0) || !ohms.is_finite() {
            return Err(CircuitError::InvalidValue {
                what: "resistance",
                value: ohms,
                constraint: "ohms > 0",
            });
        }
        self.push_checked(Element::Resistor { a, b, ohms })
    }

    /// Adds a capacitor.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::InvalidValue`] when `farads < 0` or non-finite.
    /// * [`CircuitError::UnknownNode`] for out-of-range nodes.
    pub fn capacitor(&mut self, a: usize, b: usize, farads: f64) -> Result<()> {
        if !(farads >= 0.0) || !farads.is_finite() {
            return Err(CircuitError::InvalidValue {
                what: "capacitance",
                value: farads,
                constraint: "farads >= 0",
            });
        }
        self.push_checked(Element::Capacitor { a, b, farads })
    }

    /// Adds a voltage-controlled current source
    /// `i(a→b) = gm (v_cp − v_cn)`.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::InvalidValue`] for a non-finite `gm`.
    /// * [`CircuitError::UnknownNode`] for out-of-range nodes.
    pub fn vccs(&mut self, a: usize, b: usize, cp: usize, cn: usize, gm: f64) -> Result<()> {
        if !gm.is_finite() {
            return Err(CircuitError::InvalidValue {
                what: "transconductance",
                value: gm,
                constraint: "finite",
            });
        }
        self.push_checked(Element::Vccs { a, b, cp, cn, gm })
    }

    /// Adds an independent AC voltage source `v(p) − v(n) = volts`.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::InvalidValue`] for a non-finite magnitude.
    /// * [`CircuitError::UnknownNode`] for out-of-range nodes.
    pub fn voltage_source(&mut self, p: usize, n: usize, volts: f64) -> Result<()> {
        if !volts.is_finite() {
            return Err(CircuitError::InvalidValue {
                what: "voltage",
                value: volts,
                constraint: "finite",
            });
        }
        self.push_checked(Element::VoltageSource { p, n, volts })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_count() {
        let mut nl = Netlist::new(3);
        nl.resistor(1, 0, 1e3).unwrap();
        nl.capacitor(1, 2, 1e-12).unwrap();
        nl.vccs(2, 0, 1, 0, 1e-3).unwrap();
        nl.voltage_source(2, 0, 1.0).unwrap();
        assert_eq!(nl.node_count(), 3);
        assert_eq!(nl.elements().len(), 4);
        assert_eq!(nl.voltage_source_count(), 1);
    }

    #[test]
    fn rejects_unknown_nodes() {
        let mut nl = Netlist::new(2);
        assert!(matches!(
            nl.resistor(1, 5, 1e3),
            Err(CircuitError::UnknownNode { node: 5, .. })
        ));
        assert!(nl.vccs(0, 1, 9, 0, 1e-3).is_err());
    }

    #[test]
    fn rejects_unphysical_values() {
        let mut nl = Netlist::new(2);
        assert!(nl.resistor(0, 1, 0.0).is_err());
        assert!(nl.resistor(0, 1, -5.0).is_err());
        assert!(nl.resistor(0, 1, f64::INFINITY).is_err());
        assert!(nl.capacitor(0, 1, -1e-12).is_err());
        assert!(nl.capacitor(0, 1, 0.0).is_ok()); // zero cap allowed
        assert!(nl.vccs(0, 1, 0, 1, f64::NAN).is_err());
        assert!(nl.voltage_source(0, 1, f64::NAN).is_err());
    }

    #[test]
    fn element_nodes_enumeration() {
        let e = Element::Vccs {
            a: 1,
            b: 2,
            cp: 3,
            cn: 0,
            gm: 1e-3,
        };
        assert_eq!(e.nodes(), vec![1, 2, 3, 0]);
        let e = Element::Resistor {
            a: 0,
            b: 1,
            ohms: 1.0,
        };
        assert_eq!(e.nodes(), vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "ground")]
    fn zero_nodes_panics() {
        let _ = Netlist::new(0);
    }
}
