//! # nck-smt
//!
//! Exact arithmetic and a small satisfiability-modulo-linear-arithmetic
//! solver. This crate is the substrate that replaces the Z3 SMT solver
//! in the NchooseK paper's QUBO compiler: per-constraint QUBO
//! coefficients are found by solving a system of exact linear
//! (in)equalities with disjunctions over ancilla-variable settings. It
//! carries only the fragment that compiler asks for.
//!
//! Layers, bottom to top:
//!
//! * [`rational::Rational`] — normalized exact rationals over checked
//!   `i128`.
//! * [`linexpr`] — linear expressions and constraints over rational
//!   variables.
//! * [`simplex`] — exact phase-1 primal simplex (Bland's rule):
//!   [`simplex::feasible`], a feasibility check with witness
//!   extraction over borrowed rows, is the one LP entry.
//! * [`dpll`] — depth-first search over disjunction groups, each a
//!   choice of one constraint, with the simplex as theory oracle (a
//!   miniature DPLL(LRA)).
//!
//! All reasoning is exact; `f64` appears only in lossy reporting
//! conversions.

#![warn(missing_docs)]

pub mod dpll;
pub mod linexpr;
pub mod rational;
pub mod simplex;

pub use dpll::{DisjunctiveProblem, SearchStats};
pub use linexpr::{LinConstraint, LinExpr, Relation};
pub use rational::Rational;
