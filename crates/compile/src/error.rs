//! Compiler error type.

use std::fmt;

/// Errors raised while compiling NchooseK constraints to QUBOs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompileError {
    /// The constraint has no satisfying assignment at all, so the
    /// program is unsatisfiable by construction.
    Unsatisfiable(String),
    /// The coefficient search exhausted its ancilla budget without
    /// finding a valid QUBO.
    NoQuboFound {
        /// Ancilla counts tried (0..=this).
        ancillas_tried: u32,
        /// Human-readable shape description.
        shape: String,
    },
    /// A soft constraint spans more distinct variables than its flat
    /// penalty can be checked over: a soft table is verified, and its
    /// worst-case penalty found, by enumerating every assignment.
    SoftTooWide {
        /// Distinct variables in the constraint.
        vars: usize,
        /// Most distinct variables a soft constraint may have.
        limit: usize,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Unsatisfiable(what) => {
                write!(f, "constraint is unsatisfiable: {what}")
            }
            CompileError::NoQuboFound { ancillas_tried, shape } => {
                write!(f, "no QUBO found for shape {shape} with up to {ancillas_tried} ancillas")
            }
            CompileError::SoftTooWide { vars, limit } => {
                write!(
                    f,
                    "soft constraint over {vars} distinct variables exceeds the limit of {limit}"
                )
            }
        }
    }
}

impl std::error::Error for CompileError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let e = CompileError::NoQuboFound { ancillas_tried: 3, shape: "[1,1]/{1}".into() };
        assert!(e.to_string().contains("up to 3 ancillas"));
        assert!(CompileError::Unsatisfiable("x".into()).to_string().contains("unsatisfiable"));
        let e = CompileError::SoftTooWide { vars: 64, limit: 63 };
        assert!(e.to_string().contains("64 distinct variables"));
    }
}
