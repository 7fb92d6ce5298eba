//! Error type for the circuit-simulation substrate.

use bmf_linalg::LinalgError;
use std::fmt;

/// Errors produced while building or simulating circuits.
#[derive(Debug, Clone, PartialEq)]
pub enum CircuitError {
    /// A netlist element refers to a node that was never declared.
    UnknownNode {
        /// The offending node index.
        node: usize,
        /// Number of declared nodes.
        node_count: usize,
    },
    /// An element value is outside its physical domain.
    InvalidValue {
        /// Element/parameter description.
        what: &'static str,
        /// Offending value.
        value: f64,
        /// Constraint violated.
        constraint: &'static str,
    },
    /// The MNA system could not be solved (floating node, singular matrix).
    SingularSystem {
        /// Angular frequency at which the solve failed.
        omega: f64,
    },
    /// An analysis cannot represent an element of the netlist (e.g. an
    /// inductor in the `G + sC` pencil of
    /// [`crate::mna::AcAnalysis::transfer_function`]).
    Unsupported {
        /// What was asked for.
        what: &'static str,
        /// Why the analysis cannot do it.
        reason: &'static str,
    },
    /// A bias/operating-point computation failed (device not in saturation,
    /// negative current, …).
    BiasFailure {
        /// Description of the failure.
        reason: String,
    },
    /// A measurement extraction failed (e.g. the −3 dB point lies outside
    /// the searched frequency range).
    MeasurementFailure {
        /// Name of the metric being extracted.
        metric: &'static str,
        /// Description of the failure.
        reason: String,
    },
    /// Signal-processing input was malformed (e.g. FFT length not a power
    /// of two).
    InvalidSignal {
        /// Description of the problem.
        reason: String,
    },
    /// A fault deliberately injected by the chaos-testing
    /// [`crate::fault::FaultInjector`]; never produced by a real
    /// simulation path.
    InjectedFault {
        /// Which fault class fired.
        kind: &'static str,
    },
    /// A worker thread panicked during a parallel Monte Carlo stage; the
    /// panic was contained and converted so the caller can degrade
    /// gracefully.
    Worker {
        /// The joined worker's panic payload (when it was a string).
        reason: String,
    },
    /// A shard packet failed structural validation (unreadable file,
    /// malformed JSON, wrong format marker or version, bad checksum).
    PacketCorrupt {
        /// Packet file path or label.
        source: String,
        /// What failed to validate.
        reason: String,
    },
    /// A shard packet is well-formed but belongs to a different study
    /// (mismatched run id, config hash, shard count or dimensions), or
    /// two packets claim the same shard index with different contents.
    PacketIncompatible {
        /// Description of the mismatch.
        reason: String,
    },
    /// A merge could not satisfy its shard-coverage quorum policy.
    ShardQuorum {
        /// Shards successfully merged.
        merged: usize,
        /// Quorum the policy required.
        required: usize,
        /// Planned shard count.
        shard_count: usize,
    },
    /// An underlying linear-algebra operation failed.
    Linalg(LinalgError),
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitError::UnknownNode { node, node_count } => {
                write!(f, "unknown node {node}: netlist has {node_count} nodes")
            }
            CircuitError::InvalidValue {
                what,
                value,
                constraint,
            } => write!(f, "invalid {what} = {value:.6e}: must satisfy {constraint}"),
            CircuitError::SingularSystem { omega } => {
                write!(f, "singular MNA system at omega = {omega:.6e} rad/s")
            }
            CircuitError::Unsupported { what, reason } => {
                write!(f, "unsupported {what}: {reason}")
            }
            CircuitError::BiasFailure { reason } => write!(f, "bias failure: {reason}"),
            CircuitError::MeasurementFailure { metric, reason } => {
                write!(f, "failed to measure {metric}: {reason}")
            }
            CircuitError::InvalidSignal { reason } => write!(f, "invalid signal: {reason}"),
            CircuitError::InjectedFault { kind } => write!(f, "injected fault: {kind}"),
            CircuitError::Worker { reason } => write!(f, "parallel worker failure: {reason}"),
            CircuitError::PacketCorrupt { source, reason } => {
                write!(f, "corrupt shard packet {source}: {reason}")
            }
            CircuitError::PacketIncompatible { reason } => {
                write!(f, "incompatible shard packet: {reason}")
            }
            CircuitError::ShardQuorum {
                merged,
                required,
                shard_count,
            } => write!(
                f,
                "shard quorum not met: merged {merged} of {shard_count} shards, policy requires {required}"
            ),
            CircuitError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
        }
    }
}

impl std::error::Error for CircuitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CircuitError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for CircuitError {
    fn from(e: LinalgError) -> Self {
        CircuitError::Linalg(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CircuitError::UnknownNode {
            node: 7,
            node_count: 3,
        };
        assert!(e.to_string().contains("node 7"));

        let e = CircuitError::SingularSystem { omega: 1e6 };
        assert!(e.to_string().contains("singular"));

        let e = CircuitError::MeasurementFailure {
            metric: "phase margin",
            reason: "no unity crossing".into(),
        };
        assert!(e.to_string().contains("phase margin"));

        let e: CircuitError = LinalgError::Empty.into();
        assert!(std::error::Error::source(&e).is_some());
    }
}
