//! §VIII-C timing: the per-stage pipeline breakdown, the D-Wave
//! access-time model, the minor embedder on its own, and the
//! compiler's symmetric-constraint cache ablation.
//!
//! The paper reports (a) ≈30 ms of QPU time per 100-sample job, with
//! the samples together costing slightly less than the single ~15 ms
//! programming step, and (b) that its unoptimized compiler
//! "redundantly computes QUBOs for symmetric constraints instead of
//! caching", making compilation 40–50× slower than a direct classical
//! solve. Our compiler has the cache; disabling it reproduces the
//! paper's waste. The per-stage CSV comes straight from the execution
//! pipeline's [`StageTimings`] instrumentation: one row per stage per
//! run, with the compile stage collapsing to the cache-probe cost
//! after the first seed.
//!
//! Run with: `cargo run --release -p nck-bench --bin timing`

use nck_anneal::{find_embedding, AnnealerDevice, TimingModel};
use nck_bench::{fmt_f, print_table};
use nck_classical::{solve, SolverOptions};
use nck_compile::{compile, CompilerOptions};
use nck_exec::{AnnealerBackend, ClassicalBackend, ExecutionPlan, StageTimings};
use nck_problems::{Graph, KSat, MapColoring, MaxCut, MinVertexCover};
use std::time::Instant;

/// Repetitions of each timed column.
const REPS: usize = 5;

/// The shortest interval one repetition of a compile column times: a
/// cached compile takes 0.1–0.2 ms, too short to divide by.
const BATCH_MS: f64 = 20.0;

/// Run [`REPS`] repetitions of `f`, each calling it until `min_ms` have
/// passed (once if `min_ms` is 0), and return its last result with the
/// median per-call wall time in ms: one interval of a few milliseconds
/// on a shared machine is too noisy to quote as a ratio.
fn median_ms<T>(min_ms: f64, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(REPS);
    let mut last = None;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let mut calls = 0;
        let ms = loop {
            last = Some(f());
            calls += 1;
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            if ms >= min_ms {
                break ms / calls as f64;
            }
        };
        times.push(ms);
    }
    times.sort_by(f64::total_cmp);
    (last.expect("REPS > 0"), times[REPS / 2])
}

fn main() {
    // --- Per-stage pipeline breakdown ----------------------------
    // Min vertex cover on a 16-vertex circulant graph, annealed over a
    // 5-seed sweep plus one classical run, all through one plan: the
    // program compiles once (every later row's compile stage is the
    // cache probe) and the annealer re-embeds only on the first seed.
    println!("Per-stage wall times (one CSV row per stage per run):");
    let g = Graph::circulant(16, 4);
    let program = MinVertexCover::new(g).program();
    let plan = ExecutionPlan::new(&program);
    let device = AnnealerDevice::advantage_4_1();
    let annealer = AnnealerBackend::new(device.clone(), 100);
    print!("{}", StageTimings::CSV_HEADER);
    println!(",compile_cache,embed_cache");
    let emit = |label: String, t: &StageTimings| {
        for line in t.csv_rows(&label).lines() {
            println!("{line},{},{}", t.compile_cache_hit, t.embed_cache_hit);
        }
    };
    match plan.run_seeds(&annealer, &[11, 12, 13, 14, 15]) {
        Ok(reports) => {
            for (i, r) in reports.iter().enumerate() {
                emit(format!("annealer/seed{}", 11 + i), &r.timings);
            }
        }
        Err(e) => println!("# annealer sweep failed: {e}"),
    }
    match plan.run(&ClassicalBackend::default(), 0) {
        Ok(r) => emit("classical".to_string(), &r.timings),
        Err(e) => println!("# classical run failed: {e}"),
    }
    let stats = plan.stats();
    println!(
        "# plan cache: {} compile(s), {} compile cache hit(s), {} oracle build(s)",
        stats.compiles, stats.compile_cache_hits, stats.oracle_builds
    );
    println!();

    // --- D-Wave access time model --------------------------------
    let t = TimingModel::dwave_default();
    println!("D-Wave Advantage access-time model (§VIII-C):");
    println!("  programming step       : {:?}", t.programming);
    println!(
        "  per sample             : {:?} (20 µs anneal + 3.5x readout + 20 µs delay)",
        t.per_sample()
    );
    println!(
        "  100 samples            : {:?} (slightly less than programming)",
        t.per_sample() * 100
    );
    println!("  post-processing        : {:?}", t.postprocess);
    println!("  total per 100-read job : {:?} (paper: ~30 ms)", t.qpu_access_time(100));
    println!();

    // --- Minor embedding -----------------------------------------
    // Three Fig. 7 families from `paper-cold`'s request mix, the
    // costliest embedding (dual-rail 3-SAT) first, each compiled once and
    // embedded on the Advantage lattice with the device's restart budget
    // and a fixed seed.
    println!("Minor embedding on {} (median of {REPS} runs):\n", device.topology.name());
    let mut rows = Vec::new();
    for (name, program) in [
        ("3-SAT dual rail, 6 vars / 12 clauses", KSat::random_3sat(6, 12, 7).program_dual_rail()),
        ("3-colouring, clique_chain(2)", MapColoring::new(Graph::clique_chain(2), 3).program()),
        ("max cut, clique_chain(4)", MaxCut::new(Graph::clique_chain(4)).program()),
    ] {
        let adj = compile(&program, &CompilerOptions::default()).unwrap().qubo.adjacency();
        let (found, ms) =
            median_ms(0.0, || find_embedding(&adj, &device.topology, 7, device.embed_tries));
        let qubits = found.map_or("none".to_string(), |e| e.num_physical().to_string());
        rows.push(vec![name.to_string(), adj.len().to_string(), qubits, fmt_f(ms, 2)]);
    }
    print_table(&["problem", "variables", "physical qubits", "embed (ms)"], &rows);
    println!();

    // --- Compiler cache ablation ---------------------------------
    println!("QUBO compilation vs direct classical solve (min vertex cover on");
    println!("circulant graphs; cache off = the paper's redundant recompilation;");
    println!("each time is a median of {REPS} repetitions, a compile's per call");
    println!("over repetitions of at least {BATCH_MS} ms):\n");
    let mut rows = Vec::new();
    for n in [16usize, 24, 32, 48] {
        let g = Graph::circulant(n, 4);
        let program = MinVertexCover::new(g).program();

        let (cached, with_cache) =
            median_ms(BATCH_MS, || compile(&program, &CompilerOptions::default()).unwrap());
        let no_cache =
            CompilerOptions { use_cache: false, use_closed_forms: false, ..Default::default() };
        let (uncached, without) = median_ms(BATCH_MS, || compile(&program, &no_cache).unwrap());
        let (_, direct) = median_ms(0.0, || solve(&program, &SolverOptions::default()));

        assert_eq!(cached.qubo, uncached.qubo);
        rows.push(vec![
            n.to_string(),
            program.constraints().len().to_string(),
            format!("{} hits / {} misses", cached.stats.cache_hits, cached.stats.cache_misses),
            fmt_f(with_cache, 2),
            fmt_f(without, 2),
            fmt_f(without / with_cache.max(1e-3), 1),
            fmt_f(direct, 2),
        ]);
    }
    print_table(
        &[
            "vertices",
            "constraints",
            "cache use",
            "compile+cache (ms)",
            "compile no-cache (ms)",
            "cache speedup x",
            "direct solve (ms)",
        ],
        &rows,
    );
    println!("\n(paper: its prototype redundantly recompiled symmetric constraints,");
    println!(" costing 40-50x a direct Z3 solve; with the cache, compile cost is a");
    println!(" constant two SMT searches per problem, and the redundant-recompile");
    println!(" cost grows linearly with the constraint count, as shown above —");
    println!(" absolute ratios differ from the paper because our exact solver is");
    println!(" slower than Z3 while our compiler is faster than its prototype)");
}
