//! Ablations for the design choices DESIGN.md calls out:
//!
//! 1. **Hard/soft weight ratio** — the paper attributes the
//!    mixed-problem degradation (Fig. 7) to the small soft energy gap
//!    under a large hard weight `W`; sweeping `W` exposes the
//!    trade-off directly (too small: hard violations become optimal
//!    QUBO states; too large: soft distinctions drown in noise).
//! 2. **Chain strength** — weak chains break; overly strong chains eat
//!    the device's dynamic range.
//! 3. **QAOA depth p** — deeper ansatz improves the ideal expectation
//!    but adds gates (and noise) on hardware.
//! 4. **SAT encodings** — dual-rail vs repeated-variable (§VI-A-f).
//!
//! Run with: `cargo run --release -p nck-bench --bin ablations`

use nck_anneal::{AnnealResult, AnnealerDevice};
use nck_bench::{fmt_f, print_table};
use nck_classical::OptimalityOracle;
use nck_compile::{compile, CompiledProgram, CompilerOptions};
use nck_core::{Program, SolutionQuality};
use nck_problems::{Graph, KSat, MinVertexCover};

const READS: usize = 100;

fn main() {
    let device = AnnealerDevice::advantage_4_1();

    // ----- 1. hard/soft weight ratio ------------------------------
    println!("Ablation 1 — hard-constraint weight W (min vertex cover, 15 vertices)");
    println!("sound W for this program is 1 + #soft = 16; below that, hard");
    println!("violations can win; far above, the soft gap shrinks relative to");
    println!("the noise scale (the paper's mixed-problem effect):\n");
    let g = Graph::clique_chain(5);
    let problem = MinVertexCover::new(g);
    let program = problem.program();
    let oracle = OptimalityOracle::build(&program);
    let mut rows = Vec::new();
    for w in [1.0f64, 4.0, 16.0, 64.0, 256.0] {
        let compiled =
            compile(&program, &CompilerOptions { hard_weight: Some(w), ..Default::default() })
                .unwrap();
        let result = device.sample_qubo(&compiled.qubo, READS, 17).unwrap();
        let mut row = vec![format!("{w}")];
        row.extend(tally(&oracle, &program, &compiled, &result));
        rows.push(row);
    }
    print_table(&["W", "optimal", "suboptimal", "incorrect"], &rows);

    // ----- 2. chain strength --------------------------------------
    // Ablation 1's 15-vertex program embeds one qubit per variable, so
    // it has no chain to break; twice the triangles need real chains.
    println!("\nAblation 2 — chain strength multiplier (min vertex cover, 30 vertices):\n");
    let chained = MinVertexCover::new(Graph::clique_chain(10)).program();
    let chained_oracle = OptimalityOracle::build(&chained);
    let chained_compiled = compile(&chained, &CompilerOptions::default()).unwrap();
    let mut rows = Vec::new();
    for scale in [0.25f64, 0.5, 1.0, 2.0, 4.0] {
        let mut dev = AnnealerDevice::advantage_4_1();
        dev.chain_strength_scale = scale;
        let result = dev.sample_qubo(&chained_compiled.qubo, READS, 19).unwrap();
        assert!(result.max_chain_length > 1, "Ablation 2 embedded without chains");
        let mut row = vec![
            format!("{scale}"),
            result.physical_qubits.to_string(),
            result.max_chain_length.to_string(),
            fmt_f(result.chain_break_fraction * 100.0, 1) + "%",
        ];
        row.extend(tally(&chained_oracle, &chained, &chained_compiled, &result));
        rows.push(row);
    }
    print_table(
        &[
            "strength x",
            "physical qubits",
            "max chain",
            "chain breaks",
            "optimal",
            "suboptimal",
            "incorrect",
        ],
        &rows,
    );

    // ----- 2b. sample post-processing ------------------------------
    println!("\nAblation 2b — steepest-descent sample polish (Ablation 1's problem,");
    println!("deliberately under-annealed to expose the effect):\n");
    let compiled = compile(&program, &CompilerOptions::default()).unwrap();
    let mut rows = Vec::new();
    for post in [false, true] {
        let mut dev = AnnealerDevice::advantage_4_1();
        dev.sa = nck_anneal::SaParams { num_sweeps: 8, beta_min: 0.1, beta_max: 2.0 };
        dev.postprocess = post;
        let result = dev.sample_qubo(&compiled.qubo, READS, 21).unwrap();
        let mut row =
            vec![if post { "on" } else { "off" }.to_string(), fmt_f(result.best().energy, 2)];
        row.extend(tally(&oracle, &program, &compiled, &result));
        rows.push(row);
    }
    print_table(&["polish", "best energy", "optimal", "suboptimal", "incorrect"], &rows);

    // ----- 3. QAOA depth ------------------------------------------
    println!("\nAblation 3 — QAOA layers p (ideal device, 10-vertex max cut ring):\n");
    let ring = nck_problems::MaxCut::new(Graph::cycle(10));
    let mc_program = ring.program();
    let mc_compiled = compile(&mc_program, &CompilerOptions::default()).unwrap();
    let ideal = nck_circuit::GateModelDevice::ideal(10);
    let mut rows = Vec::new();
    for p in [1usize, 2, 3] {
        let run = ideal.run_qaoa(&mc_compiled.qubo, p, 1024, 60 + 20 * p, 23).unwrap();
        let cut = ring.cut_size(&run.best_assignment);
        rows.push(vec![
            p.to_string(),
            fmt_f(run.expectation, 3),
            run.depth.to_string(),
            format!("{cut}/10"),
        ]);
    }
    print_table(&["p", "<H> optimized", "logical depth", "best cut"], &rows);

    // ----- 4. SAT encodings ---------------------------------------
    println!("\nAblation 4 — 3-SAT encodings (n=10 vars, m=20 clauses):\n");
    let sat = KSat::random_3sat(10, 20, 5);
    let mut rows = Vec::new();
    for (name, program) in
        [("dual-rail", sat.program_dual_rail()), ("repeated-variable", sat.program_repeated())]
    {
        let compiled = compile(&program, &CompilerOptions::default()).unwrap();
        let oracle = OptimalityOracle::build(&program);
        let result = device.sample_qubo(&compiled.qubo, READS, 29).unwrap();
        let best = result
            .samples
            .iter()
            .map(|s| oracle.classify(&program, compiled.program_assignment(&s.assignment)))
            .max()
            .unwrap();
        rows.push(vec![
            name.to_string(),
            program.constraints().len().to_string(),
            program.num_nonsymmetric().to_string(),
            compiled.num_qubo_vars().to_string(),
            compiled.num_ancillas.to_string(),
            best.to_string(),
        ]);
    }
    print_table(
        &["encoding", "constraints", "shapes", "qubo vars", "ancillas", "best of 100"],
        &rows,
    );
}

/// Optimal, suboptimal and incorrect shares of a `READS`-read job, as
/// percentages.
fn tally(
    oracle: &OptimalityOracle,
    program: &Program,
    compiled: &CompiledProgram,
    result: &AnnealResult,
) -> [String; 3] {
    let mut counts = [0usize; 3];
    for s in &result.samples {
        counts[match oracle.classify(program, compiled.program_assignment(&s.assignment)) {
            SolutionQuality::Optimal => 0,
            SolutionQuality::Suboptimal => 1,
            SolutionQuality::Incorrect => 2,
        }] += 1;
    }
    counts.map(|c| format!("{c}%"))
}
