//! Fallback-path coverage driven by deterministic fault injection:
//! every branch of the PR's retry/fallback policies exercised on small,
//! fast instances instead of waiting for a real instance to defeat the
//! embedder or overflow the simulator.

use nck_anneal::{AnnealError, AnnealerDevice};
use nck_circuit::{GateModelDevice, QaoaError};
use nck_core::{Program, SolutionQuality};
use nck_exec::{
    AnnealerBackend, ExecError, ExecutionPlan, FaultInjection, GateModelBackend, GroverBackend,
};

/// The paper's Fig. 2 minimum-vertex-cover program.
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
fn injected_embed_failures_drive_the_reseed_retry() {
    let p = vertex_cover();
    let plan = ExecutionPlan::new(&p);
    let backend = AnnealerBackend::new(AnnealerDevice::ideal(16), 64)
        .with_faults(FaultInjection::embed_failures(2));
    let report = plan.run(&backend, 7).unwrap();
    assert_eq!(report.timings.embed_retries, 2);
    assert_eq!(report.timings.fallbacks, 0);
    assert_eq!(report.quality, SolutionQuality::Optimal);
}

#[test]
fn exhausted_retries_without_fallback_are_a_typed_error() {
    let p = vertex_cover();
    let plan = ExecutionPlan::new(&p);
    let device = AnnealerDevice::ideal(16);
    assert!(device.topology.clique_embedding(5).is_none());
    let tries = 3;
    let backend =
        AnnealerBackend::new(device, 64).with_faults(FaultInjection::embed_failures(tries + 1));
    match plan.run(&backend, 7) {
        Err(ExecError::Anneal(AnnealError::EmbeddingFailed { logical_vars, .. })) => {
            assert!(logical_vars >= 5);
        }
        other => panic!("expected EmbeddingFailed, got {other:?}"),
    }
}

#[test]
fn exhausted_retries_fall_back_to_the_clique_embedding() {
    let p = vertex_cover();
    let plan = ExecutionPlan::new(&p);
    let device = AnnealerDevice::advantage_4_1();
    assert!(device.topology.clique_embedding(5).is_some());
    let backend = AnnealerBackend::new(device, 64).with_faults(FaultInjection::embed_failures(16));
    let report = plan.run(&backend, 7).unwrap();
    assert_eq!(report.timings.fallbacks, 1, "clique fallback must have fired");
    assert!(report.timings.embed_retries >= 4, "every heuristic attempt was consumed");
    assert!(report.quality.is_correct());
}

#[test]
fn embedding_cache_bypasses_fault_injection_on_the_second_run() {
    let p = vertex_cover();
    let plan = ExecutionPlan::new(&p);
    let backend = AnnealerBackend::new(AnnealerDevice::ideal(16), 64)
        .with_faults(FaultInjection::embed_failures(2));
    let first = plan.run(&backend, 7).unwrap();
    assert!(!first.timings.embed_cache_hit);
    let second = plan.run(&backend, 8).unwrap();
    assert!(second.timings.embed_cache_hit, "second run must reuse the cached embedding");
    assert_eq!(second.timings.embed_retries, 0);
}

#[test]
fn injected_overflow_forces_the_analytic_p1_fallback() {
    let p = vertex_cover();
    let plan = ExecutionPlan::new(&p);
    let backend = GateModelBackend::new(GateModelDevice::ideal(16), 2, 512, 10)
        .with_faults(FaultInjection::qaoa_overflow());
    let report = plan.run(&backend, 7).unwrap();
    assert_eq!(report.timings.fallbacks, 1, "analytic p=1 fallback must have fired");
    assert!(report.quality.is_correct());
}

#[test]
fn overflow_without_fallback_is_a_typed_error() {
    let p = vertex_cover();
    let plan = ExecutionPlan::new(&p);
    let mut backend = GateModelBackend::new(GateModelDevice::ideal(16), 2, 512, 10)
        .with_faults(FaultInjection::qaoa_overflow());
    backend.analytic_fallback = false;
    match plan.run(&backend, 7) {
        Err(ExecError::Qaoa(QaoaError::TooLargeToSimulate { .. })) => {}
        other => panic!("expected TooLargeToSimulate, got {other:?}"),
    }
}

#[test]
fn overflow_at_p1_cannot_fall_back_further() {
    // The fallback retries at p = 1; if the first attempt already ran
    // at p = 1 the policy must not loop — the error propagates.
    let p = vertex_cover();
    let plan = ExecutionPlan::new(&p);
    let backend = GateModelBackend::new(GateModelDevice::ideal(16), 1, 512, 10)
        .with_faults(FaultInjection::qaoa_overflow());
    match plan.run(&backend, 7) {
        Err(ExecError::Qaoa(QaoaError::TooLargeToSimulate { .. })) => {}
        other => panic!("expected TooLargeToSimulate, got {other:?}"),
    }
}

#[test]
fn grover_rejects_soft_and_oversized_programs_with_typed_errors() {
    let soft = vertex_cover();
    let plan = ExecutionPlan::new(&soft);
    match plan.run(&GroverBackend::default(), 7) {
        Err(ExecError::SoftUnsupported { num_soft: 5 }) => {}
        other => panic!("expected SoftUnsupported, got {other:?}"),
    }

    let mut big = Program::new();
    let vs = big.new_vars("v", 21).unwrap();
    for &v in &vs {
        big.nck(vec![v], [1]).unwrap();
    }
    let plan = ExecutionPlan::new(&big);
    match plan.run(&GroverBackend::default(), 7) {
        Err(ExecError::TooLarge { vars: 21, limit: 20 }) => {}
        other => panic!("expected TooLarge, got {other:?}"),
    }
}

#[test]
fn no_faults_means_no_retries_and_no_fallbacks() {
    let p = vertex_cover();
    let plan = ExecutionPlan::new(&p);
    let backend = AnnealerBackend::new(AnnealerDevice::ideal(16), 64);
    assert_eq!(backend.faults, FaultInjection::none());
    let report = plan.run(&backend, 7).unwrap();
    assert_eq!(report.timings.embed_retries, 0);
    assert_eq!(report.timings.fallbacks, 0);
    assert_eq!(report.quality, SolutionQuality::Optimal);
}
