//! Figure 12: classical solve time of minimum vertex cover on
//! circulant graphs, 30 runs per size — plus the §VIII-C observation
//! that solving the *translated QUBO* classically is dramatically
//! slower than solving the constraints directly.
//!
//! The paper: Z3 solves every benchmark directly in under three
//! seconds and scales "very close to a polynomial", but given the QUBO
//! form, "10 vertices of degree 3 takes less than a second while 20
//! vertices takes a minute and a half, and 30 vertices takes multiple
//! hours". We reproduce the *shape* with our exact solvers: direct
//! branch-and-bound over constraints vs branch-and-bound over the
//! compiled QUBO (node-capped so the binary terminates).
//!
//! Run with: `cargo run --release -p nck-bench --bin fig12`

use nck_bench::{fmt_f, print_table};
use nck_classical::{minimize, solve, QuboBbOptions, SolverOptions};
use nck_compile::{compile, CompilerOptions};
use nck_exec::{BackendMetrics, ClassicalBackend, ExecutionPlan};
use nck_problems::{Graph, MinVertexCover};
use std::time::Instant;

fn main() {
    println!("Figure 12 — direct classical solve time, min vertex cover on");
    println!("circulant graphs of degree 4, 30 runs per size\n");
    let backend = ClassicalBackend::default();
    let mut rows = Vec::new();
    let mut series: Vec<(f64, f64)> = Vec::new();
    for n in [8usize, 16, 24, 32, 40, 48, 56, 64] {
        let g = Graph::circulant(n, 4);
        let program = MinVertexCover::new(g).program();
        let plan = ExecutionPlan::new(&program);
        let mut times = Vec::new();
        let mut cover_size = 0usize;
        let mut nodes = 0u64;
        for run in 0..30u64 {
            // The solve wall-time is the pipeline's sample stage; the
            // one-time QUBO compile is cached and not counted.
            let report = plan.run(&backend, run).unwrap();
            times.push(report.timings.sample.as_secs_f64() * 1e3);
            if let BackendMetrics::Classical { nodes: run_nodes, truncated, .. } = report.metrics {
                assert!(!truncated);
                // The search is deterministic: every run explores the
                // same tree.
                assert!(run == 0 || run_nodes == nodes);
                nodes = run_nodes;
            }
            cover_size = report.assignment.iter().filter(|&&b| b).count();
        }
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        let sd =
            (times.iter().map(|t| (t - mean).powi(2)).sum::<f64>() / times.len() as f64).sqrt();
        series.push((n as f64, mean));
        rows.push(vec![
            n.to_string(),
            cover_size.to_string(),
            nodes.to_string(),
            fmt_f(mean, 2),
            fmt_f(sd, 2),
        ]);
    }
    print_table(&["vertices", "min cover", "nodes", "mean (ms)", "sd (ms)"], &rows);

    // Log-log slope ≈ polynomial order of growth.
    let k = series.len();
    let (x0, y0) = (series[1].0.ln(), series[1].1.max(1e-3).ln());
    let (x1, y1) = (series[k - 1].0.ln(), series[k - 1].1.max(1e-3).ln());
    println!(
        "\nlog-log growth exponent ≈ {:.2} (paper: fits 'very close to a polynomial')",
        (y1 - y0) / (x1 - x0)
    );

    // §VIII-C companion: the same problems through the QUBO translation.
    println!("\nClassical solve of the *translated QUBO* (branch and bound, capped");
    println!("at 10M nodes) — the paper's observed blow-up:");
    let mut rows = Vec::new();
    for n in [8usize, 12, 16, 20] {
        let g = Graph::circulant(n, 4);
        let problem = MinVertexCover::new(g);
        let direct_t = Instant::now();
        let (_, _) = solve(&problem.program(), &SolverOptions::default());
        let direct = direct_t.elapsed().as_secs_f64() * 1e3;
        let compiled = compile(&problem.program(), &CompilerOptions::default()).unwrap();
        let qubo_t = Instant::now();
        let (_, stats) = minimize(&compiled.qubo, &QuboBbOptions { node_limit: 10_000_000 });
        let qubo = qubo_t.elapsed().as_secs_f64() * 1e3;
        rows.push(vec![
            n.to_string(),
            fmt_f(direct, 2),
            format!("{}{}", fmt_f(qubo, 1), if stats.truncated { " (capped)" } else { "" }),
            fmt_f(qubo / direct.max(1e-3), 0),
        ]);
    }
    print_table(&["vertices", "direct (ms)", "via QUBO (ms)", "slowdown x"], &rows);
}
