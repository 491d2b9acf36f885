//! Typed errors for netlist construction and validation.
//!
//! The builder used to abort on malformed input
//! (`assert!`/`panic!`); every failure is now a [`SynthError`] value so
//! callers — in particular the `galint` static analyzer — can report
//! the defect as a diagnostic instead of dying mid-elaboration.

use crate::netlist::NetId;
use std::fmt;

/// Any error produced by the synthesis crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SynthError {
    /// Two buses that must be equally wide are not.
    WidthMismatch {
        /// Operation that required the match (e.g. `"adder"`).
        context: &'static str,
        /// Width of the first operand.
        left: usize,
        /// Width of the second operand.
        right: usize,
    },
    /// An operation that needs at least one bit got an empty bus.
    EmptyBus {
        /// Operation that rejected the empty bus.
        context: &'static str,
    },
    /// A reduction tree was asked to use a non-associative gate kind.
    BadReduceOp {
        /// Debug rendering of the offending kind.
        kind: String,
    },
    /// Decoder select wider than the supported 6 bits.
    DecoderTooWide {
        /// Requested select width.
        bits: usize,
    },
    /// `patch_reg_d` was handed a Q net no register owns.
    UnknownRegQ {
        /// The unknown Q net.
        q: NetId,
    },
    /// A gate has the wrong number of input pins for its kind.
    BadArity {
        /// Gate index.
        gate: usize,
        /// Debug rendering of the kind.
        kind: String,
        /// Pins present.
        got: usize,
        /// Pins required.
        want: usize,
    },
    /// A gate references a net beyond the netlist.
    MissingNet {
        /// Gate index.
        gate: usize,
        /// The dangling net id.
        net: NetId,
    },
    /// A register references nets beyond the netlist.
    RegisterMissingNets {
        /// Register index in scan order.
        reg: usize,
    },
    /// A register's Q net is not a `RegQ` gate.
    NotARegQ {
        /// Register index in scan order.
        reg: usize,
    },
    /// Two registers claim the same Q net (a multiple-driver fault).
    DuplicateRegQ {
        /// The doubly-owned Q net.
        q: NetId,
    },
    /// A `RegQ` gate no register owns (a floating sequential output).
    OrphanRegQ {
        /// The orphan gate index.
        gate: usize,
    },
    /// The combinational gate graph contains a cycle.
    CombinationalCycle {
        /// Number of gates trapped on cycles.
        trapped: usize,
    },
    /// The FSM synthesizer got the wrong number of condition nets.
    CondCountMismatch {
        /// Condition nets required by the spec.
        want: usize,
        /// Condition nets provided.
        got: usize,
    },
}

impl fmt::Display for SynthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthError::WidthMismatch {
                context,
                left,
                right,
            } => {
                write!(f, "{context}: bus width mismatch ({left} vs {right} bits)")
            }
            SynthError::EmptyBus { context } => write!(f, "{context}: empty bus"),
            SynthError::BadReduceOp { kind } => {
                write!(
                    f,
                    "reduce_tree: {kind} is not an associative reduction gate"
                )
            }
            SynthError::DecoderTooWide { bits } => {
                write!(
                    f,
                    "decoder wider than 6 select bits ({bits}) is unrealistic here"
                )
            }
            SynthError::UnknownRegQ { q } => write!(f, "patch_reg_d: unknown Q net {q}"),
            SynthError::BadArity {
                gate,
                kind,
                got,
                want,
            } => {
                write!(f, "gate {gate} ({kind}) has {got} inputs, needs {want}")
            }
            SynthError::MissingNet { gate, net } => {
                write!(f, "gate {gate} references missing net {net}")
            }
            SynthError::RegisterMissingNets { reg } => {
                write!(f, "register {reg} references missing nets")
            }
            SynthError::NotARegQ { reg } => write!(f, "register {reg} Q net is not a RegQ gate"),
            SynthError::DuplicateRegQ { q } => write!(f, "RegQ net {q} owned by two registers"),
            SynthError::OrphanRegQ { gate } => write!(f, "orphan RegQ gate {gate}"),
            SynthError::CombinationalCycle { trapped } => {
                write!(f, "combinational cycle detected ({trapped} gates trapped)")
            }
            SynthError::CondCountMismatch { want, got } => {
                write!(
                    f,
                    "FSM synthesis: spec needs {want} condition nets, got {got}"
                )
            }
        }
    }
}

impl std::error::Error for SynthError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SynthError>;
