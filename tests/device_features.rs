//! Integration tests for the Ocean-style device features added on top
//! of the base pipeline: gauge averaging, sample post-processing,
//! embedding reuse, tabu search, and the Grover backend.

use nchoosek::prelude::*;
use nck_anneal::{find_embedding, NoiseModel, SaParams};
use nck_classical::{tabu_search, TabuOptions};
use nck_problems::{Graph, MaxCut, MinVertexCover};

fn mvc_program() -> (MinVertexCover, nck_core::Program) {
    let p = MinVertexCover::new(Graph::clique_chain(3));
    let program = p.program();
    (p, program)
}

#[test]
fn gauge_averaging_preserves_solution_quality() {
    let (_, program) = mvc_program();
    let compiled = compile(&program, &CompilerOptions::default()).unwrap();
    let mut device = AnnealerDevice::advantage_4_1();
    device.noise = NoiseModel::ideal();
    device.sa = SaParams { num_sweeps: 256, ..SaParams::default() };
    device.num_gauges = 4;
    let r = device.sample_qubo(&compiled.qubo, 100, 3).unwrap();
    assert_eq!(r.samples.len(), 100);
    // The gauged-and-decoded best sample must be a true minimum-energy
    // assignment of the *logical* problem.
    let oracle = OptimalityOracle::build(&program);
    let best = compiled.program_assignment(&r.best().assignment);
    assert_eq!(
        oracle.classify(&program, best),
        SolutionQuality::Optimal,
        "gauge decode corrupted the sample"
    );
}

#[test]
fn postprocessing_never_hurts_energy() {
    let (_, program) = mvc_program();
    let compiled = compile(&program, &CompilerOptions::default()).unwrap();
    let raw = {
        let mut d = AnnealerDevice::advantage_4_1();
        d.sa = SaParams { num_sweeps: 4, beta_min: 0.1, beta_max: 1.0 }; // deliberately bad
        d.sample_qubo(&compiled.qubo, 50, 9).unwrap()
    };
    let polished = {
        let mut d = AnnealerDevice::advantage_4_1();
        d.sa = SaParams { num_sweeps: 4, beta_min: 0.1, beta_max: 1.0 };
        d.postprocess = true;
        d.sample_qubo(&compiled.qubo, 50, 9).unwrap()
    };
    assert!(
        polished.best().energy <= raw.best().energy + 1e-9,
        "polish made the best sample worse: {} vs {}",
        polished.best().energy,
        raw.best().energy
    );
}

#[test]
fn embedding_reuse_matches_fresh_embedding() {
    let (_, program) = mvc_program();
    let compiled = compile(&program, &CompilerOptions::default()).unwrap();
    let device = AnnealerDevice::advantage_4_1();
    let adj = compiled.qubo.adjacency();
    let embedding = find_embedding(&adj, &device.topology, 7, 5).expect("embeds");
    let a = device.sample_qubo_embedded(&compiled.qubo, &embedding, 30, 11);
    let b = device.sample_qubo_embedded(&compiled.qubo, &embedding, 30, 11);
    assert_eq!(a.physical_qubits, b.physical_qubits);
    assert_eq!(a.best().energy, b.best().energy, "reuse must be deterministic");
}

#[test]
fn tabu_matches_annealer_on_compiled_program() {
    let problem = MaxCut::new(Graph::random_gnm(12, 20, 3));
    let program = problem.program();
    let compiled = compile(&program, &CompilerOptions::default()).unwrap();
    let truth = nck_qubo::solve_exhaustive(&compiled.qubo);
    let tabu = tabu_search(&compiled.qubo, &TabuOptions::default(), 5);
    assert!(
        (tabu.energy - truth.min_energy).abs() < 1e-9,
        "tabu {} vs optimum {}",
        tabu.energy,
        truth.min_energy
    );
}

#[test]
fn grover_backend_solves_paper_intro() {
    let mut p = Program::new();
    let a = p.new_var("a").unwrap();
    let b = p.new_var("b").unwrap();
    let c = p.new_var("c").unwrap();
    p.nck(vec![a, b], [0, 1]).unwrap();
    p.nck(vec![b, c], [1]).unwrap();
    let out = run_on_grover(&p, 13).unwrap();
    assert!(p.all_hard_satisfied(&out.assignment));
    assert_eq!(out.quality, SolutionQuality::Optimal);
}

#[test]
fn qasm_export_of_transpiled_qaoa() {
    use nck_circuit::{qaoa_circuit, to_qasm, transpile, CouplingMap};
    let (_, program) = mvc_program();
    let compiled = compile(&program, &CompilerOptions::default()).unwrap();
    let circuit = qaoa_circuit(&compiled.qubo.to_ising(), &[0.4], &[0.6]);
    let routed = transpile(&circuit, &CouplingMap::ibmq_brooklyn()).unwrap();
    let qasm = to_qasm(&routed.circuit);
    assert!(qasm.starts_with("OPENQASM 2.0;"));
    // Routed output is in the basis set only.
    for line in qasm.lines().skip(2) {
        if line.starts_with("qreg") || line.starts_with("creg") || line.starts_with("measure") {
            continue;
        }
        assert!(
            line.starts_with("rz")
                || line.starts_with("rx")
                || line.starts_with("cx")
                || line.starts_with('x'),
            "unexpected gate line: {line}"
        );
    }
}
