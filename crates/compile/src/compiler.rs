//! Program-level compilation: NchooseK program → one QUBO.
//!
//! Each constraint compiles to a small QUBO over its own variables plus
//! ancillas (via closed forms or the SMT search), normalized so that
//! satisfying assignments sit at energy 0 and violations at ≥ 1. The
//! program QUBO is then the weighted sum (§V of the paper):
//!
//! ```text
//! Q = W · Σ hard-constraint QUBOs  +  Σ soft-constraint QUBOs
//! ```
//!
//! with `W` strictly greater than the worst possible total soft
//! penalty, so breaking a single hard constraint always costs more than
//! failing every soft constraint — the scaling rule the paper uses to
//! mix hard and soft constraints in one QUBO.

use crate::closed::closed_form;
use crate::error::CompileError;
use crate::search::{
    find_qubo, verify, CompiledQubo, ConstraintShape, GapMode, MAX_ENUMERATED_VARS,
};
use nck_core::{CompileKey, Constraint, Program, Var};
use nck_qubo::Qubo;
use nck_smt::Rational;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Compiler options.
#[derive(Clone, Debug)]
pub struct CompilerOptions {
    /// Reuse compiled QUBOs across symmetric constraints: constraints
    /// with the same [`CompileKey`] and gap share one table, exchangeable
    /// up to variable renaming. This is the caching the paper's
    /// prototype lacks (§VIII-C); disabling it reproduces that
    /// prototype's 40–50× compile-time penalty.
    pub use_cache: bool,
    /// Use closed-form constructions where available instead of the
    /// SMT search.
    pub use_closed_forms: bool,
    /// Override the computed hard-constraint weight. `None` computes
    /// the sound weight `1 + Σ max soft penalties`. The Fig. 7 ablation
    /// uses this to study the mixed-problem energy-gap effect.
    pub hard_weight: Option<f64>,
}

impl Default for CompilerOptions {
    fn default() -> Self {
        CompilerOptions { use_cache: true, use_closed_forms: true, hard_weight: None }
    }
}

/// Compile-time statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CompileStats {
    /// Cache hits (constraint reused an earlier symmetric compile).
    pub cache_hits: u64,
    /// Cache misses: constraints compiled afresh (every constraint when
    /// the cache is off).
    pub cache_misses: u64,
    /// Compilations answered by a closed form.
    pub closed_form_hits: u64,
    /// Compilations that ran the SMT coefficient search.
    pub smt_searches: u64,
}

/// Where a constraint's pieces live inside the program QUBO.
#[derive(Clone, Debug)]
pub struct ConstraintPlacement {
    /// The compiled per-constraint QUBO (shared across symmetric
    /// constraints when the cache is on).
    pub compiled: Arc<CompiledQubo>,
    /// Global indices of the constraint's distinct variables, in the
    /// compiled QUBO's local order.
    pub var_map: Vec<usize>,
    /// Global indices of this constraint's ancillas (empty range if
    /// none).
    pub ancillas: Range<usize>,
}

/// The result of compiling a whole program.
#[derive(Clone, Debug)]
pub struct CompiledProgram {
    /// The program QUBO over `num_program_vars + num_ancillas`
    /// variables; program variable `v` is QUBO variable `v.index()`.
    pub qubo: Qubo,
    /// Number of NchooseK program variables.
    pub num_program_vars: usize,
    /// Number of ancilla variables appended after the program
    /// variables.
    pub num_ancillas: usize,
    /// The hard-constraint scale factor actually used.
    pub hard_weight: f64,
    /// Per-constraint placement, parallel to `program.constraints()`.
    pub placements: Vec<ConstraintPlacement>,
    /// Compilation statistics.
    pub stats: CompileStats,
    /// Wall-clock compilation time.
    pub elapsed: Duration,
}

impl CompiledProgram {
    /// Total QUBO variables (program + ancillas).
    pub fn num_qubo_vars(&self) -> usize {
        self.num_program_vars + self.num_ancillas
    }

    /// Project a full QUBO assignment down to the program variables.
    pub fn program_assignment<'a>(&self, full: &'a [bool]) -> &'a [bool] {
        &full[..self.num_program_vars]
    }
}

/// Shape and variable order for a constraint: distinct variables sorted
/// by (multiplicity, id) so the local order matches the sorted
/// multiplicity profile of [`nck_core::CompileKey`].
fn shape_and_vars(c: &Constraint) -> (ConstraintShape, Vec<Var>) {
    let mut pairs = c.multiplicities();
    pairs.sort_by_key(|&(v, m)| (m, v));
    let shape = ConstraintShape {
        multiplicities: pairs.iter().map(|&(_, m)| m).collect(),
        selection: c.selection().clone(),
    };
    let vars = pairs.into_iter().map(|(v, _)| v).collect();
    (shape, vars)
}

/// Soft constraints get the flat [`GapMode::ExactlyOne`] penalty so
/// that QUBO energy counts violated constraints, per Definition 6.
fn gap_mode_for(c: &Constraint) -> GapMode {
    if c.is_hard() {
        GapMode::AtLeastOne
    } else {
        GapMode::ExactlyOne
    }
}

/// Compile one shape; the flag is true when a closed form answered.
fn compile_shape(
    shape: &ConstraintShape,
    opts: &CompilerOptions,
    mode: GapMode,
) -> Result<(CompiledQubo, bool), CompileError> {
    // A soft table's flat gap and worst-case penalty are checked over
    // every assignment, so a soft shape must stay enumerable.
    if mode == GapMode::ExactlyOne && shape.num_vars() > MAX_ENUMERATED_VARS {
        return Err(CompileError::SoftTooWide {
            vars: shape.num_vars(),
            limit: MAX_ENUMERATED_VARS,
        });
    }
    // An unsatisfiable shape goes on to `find_qubo`, which rejects it.
    if opts.use_closed_forms && shape.satisfiable() {
        if let Some(q) = closed_form(shape) {
            // Closed forms always meet the hard-constraint gap; under
            // the soft (flat) gap they are only usable when the graded
            // penalties happen to be flat already.
            if mode == GapMode::AtLeastOne || verify(&q, shape, mode) {
                return Ok((q, true));
            }
        }
    }
    match find_qubo(shape, mode) {
        Ok(q) => Ok((q, false)),
        // A soft constraint with no flat-penalty QUBO falls back to the
        // graded penalty: ranking among suboptimal assignments may then
        // deviate from pure violation counting (documented in
        // DESIGN.md), but optima are unaffected when the fallback's
        // minimum penalty is still 1.
        Err(CompileError::NoQuboFound { .. }) if mode == GapMode::ExactlyOne => {
            find_qubo(shape, GapMode::AtLeastOne).map(|q| (q, false))
        }
        Err(e) => Err(e),
    }
}

/// Compile `program` into a single QUBO.
pub fn compile(program: &Program, opts: &CompilerOptions) -> Result<CompiledProgram, CompileError> {
    let start = Instant::now();
    let mut stats = CompileStats::default();
    let mut memo: HashMap<(CompileKey, GapMode), Arc<CompiledQubo>> = HashMap::new();
    let constraints = program.constraints();
    let mut placements = Vec::with_capacity(constraints.len());
    let mut next_ancilla = program.num_vars();
    for c in constraints {
        let (shape, vars) = shape_and_vars(c);
        let mode = gap_mode_for(c);
        let key = (c.compile_key(), mode);
        let hit = if opts.use_cache { memo.get(&key).cloned() } else { None };
        let compiled = match hit {
            Some(compiled) => {
                stats.cache_hits += 1;
                compiled
            }
            None => {
                stats.cache_misses += 1;
                let (q, closed) = compile_shape(&shape, opts, mode)?;
                stats.closed_form_hits += u64::from(closed);
                stats.smt_searches += u64::from(!closed);
                let compiled = Arc::new(q);
                if opts.use_cache {
                    memo.insert(key, Arc::clone(&compiled));
                }
                compiled
            }
        };
        let ancillas = next_ancilla..next_ancilla + compiled.num_ancillas;
        next_ancilla = ancillas.end;
        let mut var_map: Vec<usize> = vars.iter().map(|v| v.index()).collect();
        var_map.extend(ancillas.clone());
        placements.push(ConstraintPlacement { compiled, var_map, ancillas });
    }
    let parts = || constraints.iter().zip(&placements);
    let soft = || parts().filter(|(c, _)| !c.is_hard());

    // Hard weight: 1 + Σ worst-case soft penalties (exact, then
    // lowered). Any hard violation (penalty ≥ 1, scaled by W) then
    // costs more than failing every soft constraint.
    let hard_weight = opts.hard_weight.unwrap_or_else(|| {
        let mut total = Rational::one();
        for (c, placement) in soft() {
            total += &(&Rational::from(i64::from(c.weight())) * &placement.compiled.max_penalty());
        }
        total.ceil() as f64
    });

    // All hard parts, then all soft parts, each in constraint order.
    let mut qubo = Qubo::new(next_ancilla);
    for (c, placement) in parts().filter(|(c, _)| c.is_hard()).chain(soft()) {
        let mut part = placement.compiled.qubo.to_f64();
        part.scale(if c.is_hard() { hard_weight } else { f64::from(c.weight()) });
        qubo.add_mapped(&part, &placement.var_map);
    }

    Ok(CompiledProgram {
        qubo,
        num_program_vars: program.num_vars(),
        num_ancillas: next_ancilla - program.num_vars(),
        hard_weight,
        placements,
        stats,
        elapsed: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nck_qubo::solve_exhaustive;
    use std::collections::HashSet;

    fn opts() -> CompilerOptions {
        CompilerOptions::default()
    }

    /// Brute-force check: the QUBO minimizers, projected to program
    /// variables, are exactly the program's optimal assignments.
    fn assert_ground_states_match(program: &Program, compiled: &CompiledProgram) {
        let n = compiled.num_qubo_vars();
        assert!(n <= 22, "test instance too large");
        let result = solve_exhaustive(&compiled.qubo);
        // Determine the true optimum classically: max soft satisfied
        // over assignments satisfying all hard constraints.
        let pv = compiled.num_program_vars;
        let mut best_soft = None;
        for bits in 0..1u64 << pv {
            let x: Vec<bool> = (0..pv).map(|i| bits >> i & 1 == 1).collect();
            if program.all_hard_satisfied(&x) {
                let ev = program.evaluate(&x);
                best_soft =
                    Some(best_soft.map_or(ev.soft_satisfied, |b: usize| b.max(ev.soft_satisfied)));
            }
        }
        let best_soft = best_soft.expect("program should be satisfiable");
        // Every QUBO minimizer must project to an optimal assignment.
        let mut projected: HashSet<u64> = HashSet::new();
        for &bits in &result.minimizers {
            let x: Vec<bool> = (0..pv).map(|i| bits >> i & 1 == 1).collect();
            let ev = program.evaluate(&x);
            assert_eq!(ev.hard_satisfied, ev.hard_total, "minimizer violates hard constraint");
            assert_eq!(ev.soft_satisfied, best_soft, "minimizer not soft-optimal");
            projected.insert(bits & ((1 << pv) - 1));
        }
        // And every optimal assignment must appear among projections.
        for bits in 0..1u64 << pv {
            let x: Vec<bool> = (0..pv).map(|i| bits >> i & 1 == 1).collect();
            if program.all_hard_satisfied(&x) && program.evaluate(&x).soft_satisfied == best_soft {
                assert!(
                    projected.contains(&bits),
                    "optimal assignment {bits:b} missing from QUBO minimizers"
                );
            }
        }
    }

    #[test]
    fn intro_example_compiles_and_matches() {
        let mut p = Program::new();
        let a = p.new_var("a").unwrap();
        let b = p.new_var("b").unwrap();
        let c = p.new_var("c").unwrap();
        p.nck(vec![a, b], [0, 1]).unwrap();
        p.nck(vec![b, c], [1]).unwrap();
        let compiled = compile(&p, &opts()).unwrap();
        assert_ground_states_match(&p, &compiled);
    }

    #[test]
    fn min_vertex_cover_running_example() {
        // §IV's 5-vertex graph; QUBO minimizers must be exactly the
        // minimum vertex covers (size 3 here).
        let mut p = Program::new();
        let vs = p.new_vars("v", 5).unwrap();
        for (u, w) in [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)] {
            p.nck(vec![vs[u], vs[w]], [1, 2]).unwrap();
        }
        for &v in &vs {
            p.nck_soft(vec![v], [0]).unwrap();
        }
        let compiled = compile(&p, &opts()).unwrap();
        assert_eq!(compiled.num_ancillas, 0);
        assert!(compiled.hard_weight > 5.0, "W must exceed total soft penalty");
        assert_ground_states_match(&p, &compiled);
    }

    #[test]
    fn max_cut_all_soft() {
        // Max cut on a triangle: best cut has 2 edges.
        let mut p = Program::new();
        let vs = p.new_vars("v", 3).unwrap();
        for (u, w) in [(0, 1), (0, 2), (1, 2)] {
            p.nck_soft(vec![vs[u], vs[w]], [1]).unwrap();
        }
        let compiled = compile(&p, &opts()).unwrap();
        assert_ground_states_match(&p, &compiled);
    }

    #[test]
    fn xor_constraint_gets_ancilla() {
        let mut p = Program::new();
        let vs = p.new_vars("v", 3).unwrap();
        p.nck(vs.clone(), [0, 2]).unwrap();
        let compiled = compile(&p, &opts()).unwrap();
        assert_eq!(compiled.num_ancillas, 1);
        assert_eq!(compiled.num_qubo_vars(), 4);
        assert_ground_states_match(&p, &compiled);
    }

    #[test]
    fn cache_dedupes_symmetric_constraints() {
        let mut p = Program::new();
        let vs = p.new_vars("v", 8).unwrap();
        for i in 0..7 {
            p.nck(vec![vs[i], vs[i + 1]], [0, 1]).unwrap();
        }
        let compiled = compile(&p, &opts()).unwrap();
        assert_eq!(compiled.stats.cache_misses, 1);
        assert_eq!(compiled.stats.cache_hits, 6);
        let no_cache = compile(&p, &CompilerOptions { use_cache: false, ..opts() }).unwrap();
        assert_eq!(no_cache.stats.cache_hits, 0);
        assert_eq!(no_cache.stats.cache_misses, 7);
        // Same QUBO either way.
        assert_eq!(compiled.qubo, no_cache.qubo);
    }

    #[test]
    fn gap_modes_cached_separately() {
        // The same shape compiles to different tables under the hard
        // (≥ 1) and soft (= 1) gaps; the cache must not conflate them.
        let mut p = Program::new();
        let vs = p.new_vars("v", 3).unwrap();
        p.nck(vec![vs[0], vs[1]], [1, 2]).unwrap();
        p.nck_soft(vec![vs[1], vs[2]], [1, 2]).unwrap();
        let compiled = compile(&p, &opts()).unwrap();
        assert_eq!(compiled.stats.cache_misses, 2);
        assert_eq!(compiled.stats.cache_hits, 0);
    }

    #[test]
    fn wide_single_count_shapes_compile_in_closed_form() {
        // Satisfiability comes from the achievable counts, so a 64-wide
        // shape costs a subset-sum pass rather than 2^64 assignments.
        for k in [1, 64] {
            let mut p = Program::new();
            let vs = p.new_vars("v", 64).unwrap();
            p.nck(vs, [k]).unwrap();
            let compiled = compile(&p, &opts()).unwrap();
            assert_eq!(compiled.num_qubo_vars(), 64, "nck(64, {{{k}}})");
            assert_eq!(compiled.num_ancillas, 0);
            assert_eq!(compiled.stats.closed_form_hits, 1);
        }
    }

    #[test]
    fn wide_soft_constraint_is_a_typed_error() {
        // A soft penalty over 64 variables cannot be checked by
        // enumeration; it must not compile to an unchecked table (one
        // with hard weight 1 lets a hard violation tie the optimum).
        let mut p = Program::new();
        let vs = p.new_vars("v", 64).unwrap();
        p.nck(vec![vs[0]], [1]).unwrap();
        p.nck_soft(vs, [0]).unwrap();
        assert_eq!(
            compile(&p, &opts()).unwrap_err(),
            CompileError::SoftTooWide { vars: 64, limit: 63 }
        );
    }

    #[test]
    fn closed_forms_skip_smt() {
        let mut p = Program::new();
        let vs = p.new_vars("v", 4).unwrap();
        p.nck(vs.clone(), [2]).unwrap(); // single-element selection
        let compiled = compile(&p, &opts()).unwrap();
        assert_eq!(compiled.stats.closed_form_hits, 1);
        assert_eq!(compiled.stats.smt_searches, 0);
        let no_closed =
            compile(&p, &CompilerOptions { use_closed_forms: false, ..opts() }).unwrap();
        assert_eq!(no_closed.stats.smt_searches, 1);
        assert_ground_states_match(&p, &no_closed);
    }

    #[test]
    fn unsatisfiable_constraint_errors() {
        let mut p = Program::new();
        let a = p.new_var("a").unwrap();
        p.nck(vec![a, a], [1]).unwrap(); // {a,a} can only count 0 or 2
        assert!(matches!(compile(&p, &opts()), Err(CompileError::Unsatisfiable(_))));
    }

    #[test]
    fn empty_program_is_zero_qubo() {
        let mut p = Program::new();
        let _ = p.new_vars("v", 3).unwrap();
        let compiled = compile(&p, &opts()).unwrap();
        assert_eq!(compiled.qubo.num_terms(), 0);
        assert_eq!(compiled.num_qubo_vars(), 3);
    }

    #[test]
    fn hard_weight_override_respected() {
        let mut p = Program::new();
        let vs = p.new_vars("v", 2).unwrap();
        p.nck(vec![vs[0], vs[1]], [1, 2]).unwrap();
        p.nck_soft(vec![vs[0]], [0]).unwrap();
        let compiled = compile(&p, &CompilerOptions { hard_weight: Some(42.0), ..opts() }).unwrap();
        assert_eq!(compiled.hard_weight, 42.0);
    }

    #[test]
    fn placements_cover_all_constraints() {
        let mut p = Program::new();
        let vs = p.new_vars("v", 3).unwrap();
        p.nck(vs.clone(), [0, 2]).unwrap(); // needs 1 ancilla
        p.nck_soft(vec![vs[0]], [0]).unwrap();
        let compiled = compile(&p, &opts()).unwrap();
        assert_eq!(compiled.placements.len(), 2);
        assert_eq!(compiled.placements[0].ancillas, 3..4);
        assert!(compiled.placements[1].ancillas.is_empty());
        assert_eq!(compiled.placements[1].var_map, vec![0]);
    }
}
