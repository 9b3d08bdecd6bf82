//! # nck-bench
//!
//! Shared harness code for regenerating every table and figure of the
//! paper's evaluation. Each figure has a binary (`table1`, `fig7`,
//! `fig8`, `fig9`, `fig10`, `fig11`, `fig12`, `timing`, `qubo_compare`)
//! that prints the corresponding rows/series, and `ablations` prints
//! the design-choice ablations.

#![warn(missing_docs)]

use nck_classical::OptimalityOracle;
use nck_core::Program;
use nck_problems::Graph;

/// The paper's *vertex scaling* study (§VII): chains of 3-cliques from
/// 3 vertices up to 33, "after 33 vertices the scaling continues in
/// larger increments" toward the 65-qubit IBM limit.
pub fn vertex_scaling_graphs() -> Vec<Graph> {
    let mut ks: Vec<usize> = (1..=11).collect(); // 3..=33 vertices
    ks.extend([13, 15, 17, 19, 21]); // 39..=63 vertices
    ks.into_iter().map(Graph::clique_chain).collect()
}

/// The paper's *edge scaling* study (§VII): 12 vertices, 18 edges
/// (four cliques) up to 63 edges.
pub fn edge_scaling_graphs() -> Vec<Graph> {
    [18, 24, 30, 37, 42, 48, 55, 63].into_iter().map(Graph::edge_scaling).collect()
}

/// Render an aligned text table to stdout.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |f: &dyn Fn(usize) -> String| {
        let cells: Vec<String> = widths.iter().enumerate().map(|(i, _)| f(i)).collect();
        println!("| {} |", cells.join(" | "));
    };
    line(&|i| format!("{:<w$}", headers[i], w = widths[i]));
    line(&|i| "-".repeat(widths[i]));
    for row in rows {
        line(&|i| format!("{:<w$}", row[i], w = widths[i]));
    }
}

/// Format a float with fixed precision for table cells.
pub fn fmt_f(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

/// Basic box-plot statistics (min, q1, median, q3, max) of a sample.
pub fn box_stats(mut xs: Vec<f64>) -> (f64, f64, f64, f64, f64) {
    assert!(!xs.is_empty());
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let q = |f: f64| -> f64 {
        let idx = f * (xs.len() - 1) as f64;
        let lo = idx.floor() as usize;
        let hi = idx.ceil() as usize;
        let frac = idx - lo as f64;
        xs[lo] * (1.0 - frac) + xs[hi] * frac
    };
    (xs[0], q(0.25), q(0.5), q(0.75), xs[xs.len() - 1])
}

/// Exact maximum cut of `Graph::clique_chain(k)` by dynamic
/// programming over the chain (state = the partition bits of the
/// current triangle). Used as the classification oracle for scaling
/// studies too large for branch and bound.
pub fn clique_chain_max_cut(k: usize) -> usize {
    assert!(k >= 1);
    let tri_cut = |s: u32| -> usize {
        let b = [(s & 1), (s >> 1) & 1, (s >> 2) & 1];
        usize::from(b[0] != b[1]) + usize::from(b[0] != b[2]) + usize::from(b[1] != b[2])
    };
    let mut dp: Vec<usize> = (0..8).map(&tri_cut).collect();
    for _ in 1..k {
        let mut next = vec![0usize; 8];
        for (s, v) in next.iter_mut().enumerate() {
            let s = s as u32;
            let mut best = 0usize;
            for p in 0..8u32 {
                // Connectors: (prev base+2, base) and (prev base+1,
                // base+1).
                let conn =
                    usize::from((p >> 2) & 1 != s & 1) + usize::from((p >> 1) & 1 != (s >> 1) & 1);
                best = best.max(dp[p as usize] + conn);
            }
            *v = best + tri_cut(s);
        }
        dp = next;
    }
    dp.into_iter().max().unwrap()
}

/// Exact minimum vertex cover size of `Graph::clique_chain(k)` by the
/// same chain dynamic program (state = which triangle vertices are in
/// the cover).
pub fn clique_chain_min_vertex_cover(k: usize) -> usize {
    assert!(k >= 1);
    let covers_triangle = |s: u32| -> bool {
        // Every triangle edge needs an endpoint in the cover: at least
        // two of the three vertices.
        s.count_ones() >= 2
    };
    let inf = usize::MAX / 2;
    let mut dp: Vec<usize> =
        (0..8u32).map(|s| if covers_triangle(s) { s.count_ones() as usize } else { inf }).collect();
    for _ in 1..k {
        let mut next = vec![inf; 8];
        for (si, v) in next.iter_mut().enumerate() {
            let s = si as u32;
            if !covers_triangle(s) {
                continue;
            }
            let mut best = inf;
            for p in 0..8u32 {
                if dp[p as usize] >= inf {
                    continue;
                }
                // Connector edges must be covered.
                let c1 = (p >> 2) & 1 == 1 || s & 1 == 1;
                let c2 = (p >> 1) & 1 == 1 || (s >> 1) & 1 == 1;
                if c1 && c2 {
                    best = best.min(dp[p as usize]);
                }
            }
            if best < inf {
                *v = best + s.count_ones() as usize;
            }
        }
        dp = next;
    }
    dp.into_iter().min().unwrap()
}

/// One instance's outcome in the gate-model study shared by Figs. 8–10.
#[derive(Clone, Debug)]
pub struct GateOutcome {
    /// Problem family name.
    pub problem: String,
    /// Instance label.
    pub label: String,
    /// NchooseK constraints in the program (Fig. 10's x axis).
    pub constraints: usize,
    /// Qubits used on the device (Fig. 8's y axis).
    pub qubits: usize,
    /// Transpiled circuit depth (Fig. 9's y axis).
    pub depth: usize,
    /// SWAPs inserted by routing.
    pub num_swaps: usize,
    /// Depolarizing fidelity of the transpiled circuit.
    pub fidelity: f64,
    /// Result quality ("optimal" / "suboptimal" / "incorrect") or
    /// "unmappable" when the instance exceeds the device.
    pub quality: String,
}

/// Run the shared gate-model study: every problem family scaled until
/// it no longer fits the 65-qubit device, one QAOA (p = 1, 4000 shots)
/// execution each through the unified [`Backend`] pipeline. Figs. 8,
/// 9, and 10 print different columns of this table.
///
/// [`Backend`]: nck_exec::Backend
pub fn run_gate_study(shots: usize, max_iter: usize) -> Vec<GateOutcome> {
    use nck_circuit::GateModelDevice;
    use nck_exec::{BackendMetrics, ExecError, ExecutionPlan, GateModelBackend};
    use nck_problems::{
        CliqueCover, ExactCover, KSat, MapColoring, MaxCut, MinSetCover, MinVertexCover,
    };

    let device = GateModelDevice::ibmq_brooklyn();
    let mut out = Vec::new();
    let mut run = |problem: &str,
                   label: String,
                   program: &Program,
                   oracle: &OptimalityOracle,
                   seed: u64| {
        let plan = ExecutionPlan::new(program).with_oracle(oracle.clone());
        let Ok(compiled) = plan.compiled() else {
            return;
        };
        let backend = GateModelBackend::new(device.clone(), 1, shots, max_iter);
        let mut outcome = GateOutcome {
            problem: problem.to_string(),
            label,
            constraints: program.constraints().len(),
            qubits: compiled.num_qubo_vars(),
            depth: 0,
            num_swaps: 0,
            fidelity: 0.0,
            quality: String::new(),
        };
        match plan.run(&backend, seed) {
            Ok(report) => {
                if let BackendMetrics::GateModel {
                    qubits_used, depth, num_swaps, fidelity, ..
                } = report.metrics
                {
                    outcome.qubits = qubits_used;
                    outcome.depth = depth;
                    outcome.num_swaps = num_swaps;
                    outcome.fidelity = fidelity;
                }
                outcome.quality = report.quality.to_string();
            }
            // The packed large-register sampler handles ≤ 64 variables;
            // the device itself stops at 65.
            Err(ExecError::TooLarge { .. }) => outcome.quality = "unmappable".to_string(),
            Err(e) => outcome.quality = format!("error: {e}"),
        }
        out.push(outcome);
    };

    // Max cut and min vertex cover over vertex scaling (fit up to 63
    // variables = 21 cliques).
    for (i, g) in vertex_scaling_graphs().into_iter().enumerate() {
        let k = g.num_vertices() / 3;
        let label = format!("|V|={}", g.num_vertices());
        let mc_oracle = OptimalityOracle { max_soft: Some(clique_chain_max_cut(k) as u64) };
        run(
            "Max Cut",
            label.clone(),
            &MaxCut::new(g.clone()).program(),
            &mc_oracle,
            1000 + i as u64,
        );
        let vc_oracle = OptimalityOracle {
            max_soft: Some((g.num_vertices() - clique_chain_min_vertex_cover(k)) as u64),
        };
        run(
            "Min Vertex Cover",
            label,
            &MinVertexCover::new(g).program(),
            &vc_oracle,
            2000 + i as u64,
        );
    }
    // Map coloring (3 colors → 9..63 one-hot variables: ≤ 7 cliques).
    for (i, g) in vertex_scaling_graphs().into_iter().take(7).enumerate() {
        let program = MapColoring::new(g.clone(), 3).program();
        let oracle = OptimalityOracle::build(&program);
        run(
            "Map Coloring",
            format!("|V|={}, n=3", g.num_vertices()),
            &program,
            &oracle,
            3000 + i as u64,
        );
    }
    // Clique cover on the edge-scaling family (48 variables).
    for (i, g) in edge_scaling_graphs().into_iter().enumerate() {
        let m = g.num_edges();
        let program = CliqueCover::new(g, 4).program();
        let oracle = OptimalityOracle::build(&program);
        run("Clique Cover", format!("|E|={m}"), &program, &oracle, 4000 + i as u64);
    }
    // Exact cover + min set cover (shared random sets).
    for (i, n) in [4usize, 8, 12, 16].into_iter().enumerate() {
        let ec = ExactCover::random(n, n / 2, 42 + i as u64);
        let label = format!("n={n}, N={}", ec.subsets().len());
        let program = ec.program();
        let oracle = OptimalityOracle::build(&program);
        run("Exact Cover", label.clone(), &program, &oracle, 5000 + i as u64);
        let program = MinSetCover::from_exact_cover(ec).program();
        let oracle = OptimalityOracle::build(&program);
        run("Min Set Cover", label, &program, &oracle, 6000 + i as u64);
    }
    // 3-SAT dual-rail (2n rails + clause ancillas).
    for (i, n) in [5usize, 8, 12, 16].into_iter().enumerate() {
        let sat = KSat::random_3sat(n, 2 * n, 77 + i as u64);
        let program = sat.program_dual_rail();
        let oracle = OptimalityOracle::build(&program);
        run(
            "3-SAT",
            format!("n={n}, m={}", sat.clauses().len()),
            &program,
            &oracle,
            7000 + i as u64,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nck_classical::solve_brute;
    use nck_problems::{MaxCut, MinVertexCover};

    #[test]
    fn chain_dp_matches_brute_force() {
        for k in 1..=4usize {
            let g = Graph::clique_chain(k);
            let n = g.num_vertices();
            let mc = solve_brute(&MaxCut::new(g.clone()).program()).unwrap();
            assert_eq!(clique_chain_max_cut(k) as u64, mc.max_soft, "max cut mismatch at k={k}");
            let vc = solve_brute(&MinVertexCover::new(g).program()).unwrap();
            let min_cover = n - vc.max_soft as usize;
            assert_eq!(
                clique_chain_min_vertex_cover(k),
                min_cover,
                "vertex cover mismatch at k={k}"
            );
        }
    }

    #[test]
    fn vertex_scaling_reaches_63() {
        let gs = vertex_scaling_graphs();
        assert_eq!(gs.first().unwrap().num_vertices(), 3);
        assert!(gs.iter().any(|g| g.num_vertices() == 33));
        assert_eq!(gs.last().unwrap().num_vertices(), 63);
    }

    #[test]
    fn edge_scaling_fixed_vertices() {
        for g in edge_scaling_graphs() {
            assert_eq!(g.num_vertices(), 12);
        }
    }

    #[test]
    fn box_stats_ordering() {
        let (min, q1, med, q3, max) = box_stats(vec![5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((min, med, max), (1.0, 3.0, 5.0));
        assert!(q1 <= med && med <= q3);
    }
}
