//! Figure 7: percentage of optimal results versus physical qubits used
//! on the (simulated) D-Wave Advantage 4.1, per problem, plus the
//! §VIII-A clique-cover edge-scaling detail.
//!
//! Protocol (§VII): one job of 100 samples per instance; samples are
//! classified optimal / suboptimal / incorrect against the classical
//! oracle. The paper's headline shapes to look for:
//!
//! * mixed hard/soft problems (min vertex cover, min set cover) lose
//!   optimality sooner than hard-only problems, because the soft energy
//!   gap is small relative to the hard weight;
//! * physical qubits exceed logical variables through chains, more so
//!   for densely constrained problems;
//! * for clique cover, *adding* edges removes constraints and qubits
//!   and improves the success rate.
//!
//! Run with: `cargo run --release -p nck-bench --bin fig7`

use nck_anneal::AnnealerDevice;
use nck_bench::{
    clique_chain_max_cut, clique_chain_min_vertex_cover, edge_scaling_graphs, print_table,
    vertex_scaling_graphs,
};
use nck_classical::OptimalityOracle;
use nck_core::Program;
use nck_exec::{AnnealerBackend, BackendMetrics, ExecutionPlan};
use nck_problems::{
    CliqueCover, ExactCover, KSat, MapColoring, MaxCut, MinSetCover, MinVertexCover,
};

const NUM_READS: usize = 100;

/// Run one instance through the unified pipeline: compile, anneal 100
/// reads, classify every sample. The row is the instance's table row,
/// or its error, so a failed instance stays in the table.
fn run_instance(
    device: &AnnealerDevice,
    program: &Program,
    oracle: &OptimalityOracle,
    label: String,
    seed: u64,
) -> Vec<String> {
    let plan = ExecutionPlan::new(program).with_oracle(oracle.clone());
    let backend = AnnealerBackend::new(device.clone(), NUM_READS);
    let report = match plan.run(&backend, seed) {
        Ok(report) => report,
        Err(e) => {
            let mut row = vec![label, format!("error: {e}")];
            row.resize(headers().len(), "-".to_string());
            return row;
        }
    };
    let BackendMetrics::Annealer { physical_qubits, max_chain_length, .. } = report.metrics else {
        unreachable!("the annealer backend reports annealer metrics");
    };
    let pct = |c: usize| format!("{:.0}%", 100.0 * c as f64 / NUM_READS as f64);
    vec![
        label,
        report.compiled.num_qubo_vars().to_string(),
        physical_qubits.to_string(),
        max_chain_length.to_string(),
        pct(report.tally.optimal),
        pct(report.tally.suboptimal),
        pct(report.tally.incorrect),
    ]
}

fn headers() -> [&'static str; 7] {
    ["instance", "logical", "physical", "max chain", "optimal", "subopt", "incorrect"]
}

fn main() {
    let device = AnnealerDevice::advantage_4_1();
    println!("Figure 7 — simulated D-Wave Advantage 4.1, 100 samples per job\n");

    // --- Max Cut (soft-only) over vertex scaling -----------------
    let mut rows = Vec::new();
    for (i, g) in vertex_scaling_graphs().into_iter().enumerate() {
        let k = g.num_vertices() / 3;
        let problem = MaxCut::new(g.clone());
        let oracle = OptimalityOracle { max_soft: Some(clique_chain_max_cut(k) as u64) };
        rows.push(run_instance(
            &device,
            &problem.program(),
            &oracle,
            format!("|V|={}, |E|={}", g.num_vertices(), g.num_edges()),
            100 + i as u64,
        ));
    }
    println!("Max Cut (all soft constraints), vertex scaling:");
    print_table(&headers(), &rows);
    println!();

    // --- Min Vertex Cover (mixed) over vertex scaling ------------
    let mut rows = Vec::new();
    for (i, g) in vertex_scaling_graphs().into_iter().enumerate() {
        let k = g.num_vertices() / 3;
        let problem = MinVertexCover::new(g.clone());
        let oracle = OptimalityOracle {
            max_soft: Some((g.num_vertices() - clique_chain_min_vertex_cover(k)) as u64),
        };
        rows.push(run_instance(
            &device,
            &problem.program(),
            &oracle,
            format!("|V|={}, |E|={}", g.num_vertices(), g.num_edges()),
            200 + i as u64,
        ));
    }
    println!("Min Vertex Cover (mixed hard/soft), vertex scaling:");
    print_table(&headers(), &rows);
    println!();

    // --- Map Coloring (hard-only) over vertex scaling ------------
    let mut rows = Vec::new();
    for (i, g) in vertex_scaling_graphs().into_iter().take(8).enumerate() {
        let problem = MapColoring::new(g.clone(), 3);
        let program = problem.program();
        let oracle = OptimalityOracle::build(&program);
        rows.push(run_instance(
            &device,
            &program,
            &oracle,
            format!("|V|={}, n=3 ({} vars)", g.num_vertices(), program.num_vars()),
            300 + i as u64,
        ));
    }
    println!("Map Coloring (hard only, 3 colors), vertex scaling:");
    print_table(&headers(), &rows);
    println!();

    // --- Clique Cover over edge scaling (§VIII-A detail) ---------
    let mut rows = Vec::new();
    for (i, g) in edge_scaling_graphs().into_iter().enumerate() {
        let m = g.num_edges();
        let problem = CliqueCover::new(g, 4);
        let program = problem.program();
        let oracle = OptimalityOracle::build(&program);
        rows.push(run_instance(
            &device,
            &program,
            &oracle,
            format!("|E|={m}, 4 cliques ({} constraints)", program.constraints().len()),
            400 + i as u64,
        ));
    }
    println!("Clique Cover (hard only, 48 variables), edge scaling:");
    println!("(the paper's §VIII-A: more edges → fewer constraints → fewer");
    println!(" physical qubits → higher success)");
    print_table(&headers(), &rows);
    println!();

    // §VIII-A's contrast: fewer variables but many more constraints
    // can still hurt ("27 variables and 78 constraints … success rate
    // of just 39%" vs 48 variables / 24 constraints at 65%). A 9-vertex
    // sparse graph with 3 cliques gives 27 one-hot variables and a
    // large non-edge constraint set.
    let g9 = nck_problems::Graph::clique_chain(3); // 9 vertices, 13 edges
    let problem = CliqueCover::new(g9, 3);
    let program = problem.program();
    let oracle = OptimalityOracle::build(&program);
    let rows = vec![run_instance(
        &device,
        &program,
        &oracle,
        format!("9 vertices, 3 cliques ({} constraints)", program.constraints().len()),
        450,
    )];
    println!("Clique Cover contrast (27 variables, constraint-heavy):");
    print_table(&headers(), &rows);
    println!();

    // --- Exact Cover and Min Set Cover (random, shared sets) -----
    let mut ec_rows = Vec::new();
    let mut msc_rows = Vec::new();
    for (i, n) in [4usize, 8, 12, 16, 20].into_iter().enumerate() {
        let ec = ExactCover::random(n, n / 2, 42 + i as u64);
        let label = format!("n={n}, N={}", ec.subsets().len());
        let program = ec.program();
        let oracle = OptimalityOracle::build(&program);
        ec_rows.push(run_instance(&device, &program, &oracle, label.clone(), 500 + i as u64));
        let msc = MinSetCover::from_exact_cover(ec);
        let program = msc.program();
        let oracle = OptimalityOracle::build(&program);
        msc_rows.push(run_instance(&device, &program, &oracle, label, 600 + i as u64));
    }
    println!("Exact Cover (hard only), random instances:");
    print_table(&headers(), &ec_rows);
    println!();
    println!("Min Set Cover (mixed hard/soft), same sets:");
    print_table(&headers(), &msc_rows);
    println!();

    // --- 3-SAT (hard-only), random planted instances -------------
    let mut rows = Vec::new();
    for (i, n) in [6usize, 10, 14, 18, 24].into_iter().enumerate() {
        let sat = KSat::random_3sat(n, 2 * n, 77 + i as u64);
        let program = sat.program_dual_rail();
        let oracle = OptimalityOracle::build(&program);
        rows.push(run_instance(
            &device,
            &program,
            &oracle,
            format!("n={n}, m={}", sat.clauses().len()),
            700 + i as u64,
        ));
    }
    println!("3-SAT (hard only, dual-rail), random instances:");
    print_table(&headers(), &rows);
}
