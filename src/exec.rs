//! High-level execution: compile an NchooseK program and run it on a
//! backend, decoding and classifying the results.
//!
//! This is the porcelain most users want — the equivalent of the
//! Python NchooseK `solve(env, solver=...)` entry point. The machinery
//! lives in [`nck_exec`]: a [`Backend`] trait over all four solver
//! paths, an [`ExecutionPlan`] that compiles once and fans out to any
//! backend or seed sweep, per-stage [`StageTimings`], and typed
//! [`ExecError`] failures. The original free functions remain as thin
//! wrappers.

pub use nck_exec::{
    run_classically, run_on_annealer, run_on_gate_model, run_on_grover, AnnealerBackend, Backend,
    BackendMetrics, Candidates, ClassicalBackend, ExecError, ExecReport, ExecutionPlan,
    GateModelBackend, GroverBackend, PlanStats, Prepared, RetryPolicy, RunBudget, RunJournal,
    StageOutcome, StageTimings, SupervisedFailure, Supervisor, Tally, BBHT_GROWTH,
    PACKED_SAMPLER_LIMIT,
};

#[cfg(test)]
mod tests {
    use super::*;
    use nck_anneal::AnnealerDevice;
    use nck_circuit::GateModelDevice;
    use nck_core::{Program, SolutionQuality};

    fn vertex_cover() -> Program {
        let mut p = Program::new();
        let vs = p.new_vars("v", 5).unwrap();
        for (u, w) in [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)] {
            p.nck(vec![vs[u], vs[w]], [1, 2]).unwrap();
        }
        for &v in &vs {
            p.nck_soft(vec![v], [0]).unwrap();
        }
        p
    }

    #[test]
    fn annealer_end_to_end_optimal() {
        let p = vertex_cover();
        let device = AnnealerDevice::ideal(16);
        let out = run_on_annealer(&p, &device, 50, 3).unwrap();
        assert_eq!(out.quality, SolutionQuality::Optimal);
        assert_eq!(out.max_soft, 2);
        assert_eq!(out.assignment.iter().filter(|&&b| b).count(), 3);
    }

    #[test]
    fn gate_model_end_to_end_optimal() {
        let p = vertex_cover();
        let device = GateModelDevice::ideal(8);
        let out = run_on_gate_model(&p, &device, 1, 1024, 60, 3).unwrap();
        assert!(out.quality >= SolutionQuality::Suboptimal);
    }

    #[test]
    fn classical_end_to_end() {
        let p = vertex_cover();
        let (assignment, soft) = run_classically(&p).unwrap();
        assert_eq!(soft, 2);
        assert!(p.all_hard_satisfied(&assignment));
    }

    #[test]
    fn grover_solves_hard_only_program() {
        // The intro example: 3 solutions among 8 assignments.
        let mut p = Program::new();
        let a = p.new_var("a").unwrap();
        let b = p.new_var("b").unwrap();
        let c = p.new_var("c").unwrap();
        p.nck(vec![a, b], [0, 1]).unwrap();
        p.nck(vec![b, c], [1]).unwrap();
        let out = run_on_grover(&p, 9).unwrap();
        assert_eq!(out.quality, SolutionQuality::Optimal);
        assert!(p.all_hard_satisfied(&out.assignment));
    }

    #[test]
    fn grover_map_coloring() {
        use nck_problems::{Graph, MapColoring};
        let problem = MapColoring::new(Graph::cycle(4), 2);
        let out = run_on_grover(&problem.program(), 4).unwrap();
        assert!(problem.is_valid_coloring(&out.assignment));
    }

    #[test]
    fn unsatisfiable_reported() {
        let mut p = Program::new();
        let a = p.new_var("a").unwrap();
        p.nck(vec![a], [0]).unwrap();
        p.nck(vec![a], [1]).unwrap();
        assert!(matches!(run_classically(&p), Err(ExecError::Unsatisfiable)));
    }
}
