//! # nchoosek
//!
//! A Rust implementation of **NchooseK with hard and soft constraints**
//! — the constraint-satisfaction system of Wilson, Mueller & Pakin,
//! *"Combining Hard and Soft Constraints in Quantum
//! Constraint-Satisfaction Systems"* (SC22) — together with simulated
//! quantum backends standing in for the paper's D-Wave Advantage 4.1
//! and IBM Q ibmq_brooklyn hardware.
//!
//! A constraint `nck(N, K)` holds iff the number of TRUE variables in
//! the collection `N` is an element of the selection set `K`. Hard
//! constraints must hold; soft constraints are maximized. Programs
//! compile to a QUBO (coefficients found by an exact SMT-style search)
//! and run on either backend, or classically.
//!
//! ```
//! use nchoosek::prelude::*;
//!
//! // Minimum vertex cover of the paper's Fig. 2 graph.
//! let mut p = Program::new();
//! let vs = p.new_vars("v", 5).unwrap();
//! for (u, w) in [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)] {
//!     p.nck(vec![vs[u], vs[w]], [1, 2]).unwrap(); // edge covered
//! }
//! for &v in &vs {
//!     p.nck_soft(vec![v], [0]).unwrap(); // minimize the cover
//! }
//!
//! let device = AnnealerDevice::ideal(16);
//! let out = run_on_annealer(&p, &device, 100, 42).unwrap();
//! assert_eq!(out.quality, SolutionQuality::Optimal);
//! assert_eq!(out.assignment.iter().filter(|&&b| b).count(), 3);
//! ```
//!
//! Crate map: [`nck_core`] (the DSL) → [`nck_compile`] (QUBO compiler,
//! with [`nck_smt`] as its exact-arithmetic solver and [`nck_qubo`] as
//! the IR) → [`nck_anneal`] / [`nck_circuit`] (backends) and
//! [`nck_classical`] (exact baseline + optimality oracle) →
//! [`nck_exec`] (the unified `Backend` trait + `ExecutionPlan`
//! execution layer), with [`nck_problems`] providing the paper's seven
//! benchmark problems.

#![warn(missing_docs)]

pub mod cli;
pub mod exec;

pub use nck_anneal;
pub use nck_circuit;
pub use nck_classical;
pub use nck_compile;
pub use nck_core;
pub use nck_exec;
pub use nck_problems;
pub use nck_qubo;
pub use nck_smt;

/// One-stop imports for typical use.
pub mod prelude {
    pub use crate::exec::{
        run_classically, run_on_annealer, run_on_gate_model, run_on_grover, AnnealerBackend,
        Backend, BackendMetrics, ClassicalBackend, ExecError, ExecReport, ExecutionPlan,
        GateModelBackend, GroverBackend, RetryPolicy, RunBudget, StageTimings, SupervisedFailure,
        Supervisor,
    };
    pub use nck_anneal::AnnealerDevice;
    pub use nck_circuit::GateModelDevice;
    pub use nck_classical::OptimalityOracle;
    pub use nck_compile::{compile, CompilerOptions};
    pub use nck_core::{Program, SolutionQuality, Var};
    pub use nck_qubo::{Ising, Qubo};
}
