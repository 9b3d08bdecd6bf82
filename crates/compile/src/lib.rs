//! # nck-compile
//!
//! The NchooseK-to-QUBO compiler (§V of the paper).
//!
//! Each `nck(N, K)` constraint becomes a small QUBO over its variables
//! plus (when necessary) ancillas, normalized so satisfying assignments
//! have energy 0 and violations ≥ 1. Coefficients come from a closed
//! form when one applies ([`closed`]) or otherwise from an exact
//! SMT-style search ([`search`]) — the role Z3 plays in the paper's
//! implementation. Per-constraint QUBOs are summed into a program QUBO
//! with hard constraints weighted above the worst-case total soft
//! penalty ([`compiler`]), and symmetric constraints share one compiled
//! table within a compile (see [`CompilerOptions::use_cache`]).
//!
//! ```
//! use nck_core::Program;
//! use nck_compile::{compile, CompilerOptions};
//!
//! // Minimum vertex cover of a single edge.
//! let mut p = Program::new();
//! let a = p.new_var("a").unwrap();
//! let b = p.new_var("b").unwrap();
//! p.nck(vec![a, b], [1, 2]).unwrap();      // edge covered
//! p.nck_soft(vec![a], [0]).unwrap();       // prefer a ∉ cover
//! p.nck_soft(vec![b], [0]).unwrap();       // prefer b ∉ cover
//!
//! let compiled = compile(&p, &CompilerOptions::default()).unwrap();
//! assert_eq!(compiled.num_ancillas, 0);
//! // The two single-vertex covers are the QUBO ground states.
//! let r = nck_qubo::solve_exhaustive(&compiled.qubo);
//! assert_eq!(r.minimizers, vec![0b01, 0b10]);
//! ```

#![warn(missing_docs)]

pub mod closed;
pub mod compiler;
pub mod error;
pub mod rqubo;
pub mod search;

pub use compiler::{compile, CompileStats, CompiledProgram, CompilerOptions, ConstraintPlacement};
pub use error::CompileError;
pub use rqubo::RationalQubo;
pub use search::{find_qubo, verify, CompiledQubo, ConstraintShape, GapMode, MAX_ANCILLAS};
