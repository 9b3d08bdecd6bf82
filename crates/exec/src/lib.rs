//! # nck-exec
//!
//! The unified multi-backend execution layer — the paper's claim that
//! *one* NchooseK program runs unchanged on D-Wave, IBM Q, and Z3,
//! expressed as one [`Backend`] trait with four implementations:
//!
//! * [`AnnealerBackend`] — the simulated D-Wave annealer, with an
//!   embedding cache and rip-up-reseed retry + clique-fallback policy;
//! * [`GateModelBackend`] — the simulated IBM Q device via QAOA, with
//!   analytic p=1 fallback when the state vector overflows;
//! * [`GroverBackend`] — BBHT-scheduled Grover search for hard-only
//!   programs, with typed capacity errors instead of panics;
//! * [`ClassicalBackend`] — the exact branch-and-bound baseline, whose
//!   proven optimum seeds the optimality oracle for free.
//!
//! An [`ExecutionPlan`] compiles a program once and fans out to any
//! backend or seed sweep, serving the compiled QUBO and the classical
//! optimality oracle from caches; every run returns an [`ExecReport`]
//! with per-stage wall-times ([`StageTimings`]) aligned with the
//! paper's §VIII-C timing experiment.
//!
//! ```
//! use nck_core::{Program, SolutionQuality};
//! use nck_exec::{AnnealerBackend, Backend, ClassicalBackend, ExecutionPlan};
//! use nck_anneal::AnnealerDevice;
//!
//! // Minimum vertex cover of the paper's Fig. 2 graph.
//! let mut p = Program::new();
//! let vs = p.new_vars("v", 5).unwrap();
//! for (u, w) in [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)] {
//!     p.nck(vec![vs[u], vs[w]], [1, 2]).unwrap();
//! }
//! for &v in &vs {
//!     p.nck_soft(vec![v], [0]).unwrap();
//! }
//!
//! let plan = ExecutionPlan::new(&p);
//! let annealer = AnnealerBackend::new(AnnealerDevice::ideal(16), 100);
//! let classical = ClassicalBackend::default();
//! // One compile serves both backends and every seed.
//! for backend in [&annealer as &dyn Backend, &classical] {
//!     let report = plan.run(backend, 42).unwrap();
//!     assert_eq!(report.quality, SolutionQuality::Optimal);
//! }
//! assert_eq!(plan.stats().compiles, 1);
//! ```

#![warn(missing_docs)]

pub mod backend;
pub mod backends;
pub mod breaker;
pub mod budget;
pub mod durable;
pub mod error;
pub mod fault;
pub mod journal;
pub mod plan;
pub mod stage;
pub mod supervisor;

pub use backend::{Backend, BackendMetrics, Candidates, Prepared};
pub use backends::{
    AnnealerBackend, ClassicalBackend, GateModelBackend, GroverBackend, BBHT_GROWTH,
    PACKED_SAMPLER_LIMIT,
};
pub use breaker::{Admission, BreakerConfig, BreakerState, CircuitBreaker};
pub use budget::{RetryPolicy, RunBudget};
pub use durable::{Record, RecoveredRun, DEFAULT_CHECKPOINT_INTERVAL};
pub use error::{ExecError, FailedAttempt, FaultKind};
pub use fault::FaultInjection;
pub use journal::{Checkpointer, JournalEvent, JournalKind, NoopCheckpointer, RunCtx, RunJournal};
pub use nck_cancel::CancelToken;
pub use nck_store::{KillPoint, KillSpec, Recovered, RunStore, StoreError};
pub use plan::{ExecReport, ExecutionPlan, PlanStats, Tally};
pub use stage::{StageOutcome, StageTimings};
pub use supervisor::{SupervisedFailure, Supervisor};

use nck_anneal::AnnealerDevice;
use nck_circuit::GateModelDevice;
use nck_core::Program;

/// Solve on the simulated D-Wave annealer: one job of `num_reads`
/// samples, best sample reported (the paper's §VII protocol). Thin
/// wrapper over [`ExecutionPlan`] + [`AnnealerBackend`].
pub fn run_on_annealer(
    program: &Program,
    device: &AnnealerDevice,
    num_reads: usize,
    seed: u64,
) -> Result<ExecReport, ExecError> {
    let plan = ExecutionPlan::new(program);
    let backend = AnnealerBackend::new(device.clone(), num_reads);
    plan.run(&backend, seed)
}

/// Solve on the simulated gate-model device via QAOA (single returned
/// result, as in §VIII-B). Thin wrapper over [`ExecutionPlan`] +
/// [`GateModelBackend`].
pub fn run_on_gate_model(
    program: &Program,
    device: &GateModelDevice,
    layers: usize,
    shots: usize,
    max_iter: usize,
    seed: u64,
) -> Result<ExecReport, ExecError> {
    let plan = ExecutionPlan::new(program);
    let backend = GateModelBackend::new(device.clone(), layers, shots, max_iter);
    plan.run(&backend, seed)
}

/// Solve a *hard-only* program by Grover search on the simulated gate
/// model. Thin wrapper over [`ExecutionPlan`] + [`GroverBackend`];
/// soft constraints or oversized programs yield
/// [`ExecError::SoftUnsupported`] / [`ExecError::TooLarge`].
pub fn run_on_grover(program: &Program, seed: u64) -> Result<ExecReport, ExecError> {
    let plan = ExecutionPlan::new(program);
    plan.run(&GroverBackend::default(), seed)
}

/// Solve classically (the Z3-role baseline): exact branch and bound.
/// Thin wrapper over [`ExecutionPlan`] + [`ClassicalBackend`].
pub fn run_classically(program: &Program) -> Result<(Vec<bool>, usize), ExecError> {
    let plan = ExecutionPlan::new(program);
    plan.run(&ClassicalBackend::default(), 0).map(|r| (r.assignment, r.soft_satisfied))
}
