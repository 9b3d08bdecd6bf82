//! QUBO coefficient search (the paper's Z3 step, §V).
//!
//! Given a constraint shape — the multiset of variable multiplicities
//! plus the selection set — find rational QUBO coefficients over the
//! constraint's variables and `a` ancillas such that:
//!
//! * every satisfying assignment attains energy 0 for *some* ancilla
//!   setting and never drops below 0, and
//! * every violating assignment has energy ≥ 1 for *every* ancilla
//!   setting.
//!
//! That is exactly a QF_LRA formula with one disjunction per satisfying
//! assignment ("which ancilla setting is the ground witness"), which we
//! hand to [`nck_smt::DisjunctiveProblem`]. Two search modes:
//!
//! * **symmetric** — coefficients are shared between variables of equal
//!   multiplicity, so the LP is over count vectors rather than raw
//!   assignments. Exponentially smaller and almost always sufficient.
//! * **general** — one coefficient per variable/pair, used as a
//!   fallback for small shapes when the symmetric ansatz fails.
//!
//! Ancillas escalate 0, 1, 2, … up to [`MAX_ANCILLAS`]; the first hit
//! wins, so the ancilla count is minimal for the modes tried. Within a
//! hit the table is the search's feasibility witness, just as the
//! paper's compiler takes whichever model Z3 returns: no objective
//! ranks the valid tables, so coefficient size is not minimized.

use crate::error::CompileError;
use crate::rqubo::RationalQubo;
use nck_smt::{DisjunctiveProblem, LinConstraint, LinExpr, Rational, Relation};
use std::collections::BTreeSet;

/// Maximum number of ancilla variables the search will try.
pub const MAX_ANCILLAS: u32 = 3;

/// Most real variables that [`verify`] and [`CompiledQubo::max_penalty`]
/// can check: both walk every assignment as a `u64` bitmask.
pub const MAX_ENUMERATED_VARS: usize = 63;

/// Most real variables for which [`find_qubo`] re-checks its table with
/// [`verify`] in debug builds. That walk visits all `2^num_real`
/// assignments: it takes seconds near 16 variables and overflows the
/// `u64` mask at 64. Every pinned and property-test shape has at most 5
/// variables, so all of them stay re-checked.
const DEBUG_VERIFY_LIMIT: usize = 12;

/// Largest `variables + ancillas` for which the general (asymmetric)
/// fallback enumerates raw assignments.
const GENERAL_LIMIT: usize = 8;

/// A constraint shape: per-distinct-variable multiplicities (local
/// variable order) and the selection set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConstraintShape {
    /// Multiplicity of each distinct variable, in local variable order.
    pub multiplicities: Vec<u32>,
    /// The selection set.
    pub selection: BTreeSet<u32>,
}

impl ConstraintShape {
    /// Number of distinct variables.
    pub fn num_vars(&self) -> usize {
        self.multiplicities.len()
    }

    /// True iff the weighted TRUE-count of `bits` is in the selection.
    pub fn satisfied_by(&self, bits: u64) -> bool {
        let count: u32 = self
            .multiplicities
            .iter()
            .enumerate()
            .map(|(i, &m)| if bits >> i & 1 == 1 { m } else { 0 })
            .sum();
        self.selection.contains(&count)
    }

    /// All weighted TRUE-counts achievable by some assignment, in
    /// ascending order: a subset-sum pass, linear in the total
    /// multiplicity rather than exponential in the variable count.
    pub fn achievable_counts(&self) -> Vec<u32> {
        let mut sums = vec![false; self.multiplicities.iter().sum::<u32>() as usize + 1];
        sums[0] = true;
        for &m in &self.multiplicities {
            for s in (0..sums.len() - m as usize).rev() {
                if sums[s] {
                    sums[s + m as usize] = true;
                }
            }
        }
        sums.iter().enumerate().filter(|(_, &ok)| ok).map(|(s, _)| s as u32).collect()
    }

    /// True iff at least one assignment satisfies the shape.
    pub fn satisfiable(&self) -> bool {
        self.achievable_counts().iter().any(|c| self.selection.contains(c))
    }
}

/// A compiled per-constraint QUBO: exact coefficients over
/// `[vars..., ancillas...]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompiledQubo {
    /// The exact-coefficient QUBO.
    pub qubo: RationalQubo,
    /// Number of real (constraint) variables; they occupy local indices
    /// `0..num_real`.
    pub num_real: usize,
    /// Number of ancilla variables, at local indices `num_real..`.
    pub num_ancillas: usize,
}

impl CompiledQubo {
    /// Penalty of assignment `bits` over the real variables: the energy
    /// minimized over ancilla settings. Zero iff the assignment
    /// satisfies the source constraint.
    pub fn penalty(&self, bits: u64) -> Rational {
        self.qubo.min_over_ancillas(bits, self.num_real)
    }

    /// The worst-case penalty over all real-variable assignments — used
    /// to weight hard constraints above the sum of soft penalties.
    pub fn max_penalty(&self) -> Rational {
        (0..1u64 << self.num_real)
            .map(|bits| self.penalty(bits))
            .max()
            .expect("at least one assignment")
    }
}

/// How violating assignments must be priced.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GapMode {
    /// Every violation costs at least 1 (sufficient for hard
    /// constraints: any violation already outweighs all soft terms
    /// after program-level scaling).
    AtLeastOne,
    /// Every violation costs *exactly* 1 (required for soft
    /// constraints: Definition 6 counts violated constraints, so the
    /// QUBO penalty must be flat across violating assignments).
    ExactlyOne,
}

/// Verify that `compiled` represents `shape` exactly: satisfying
/// assignments have penalty 0, violating ones ≥ 1 (or = 1 under
/// [`GapMode::ExactlyOne`]). This re-checks the SMT witness with
/// independent arithmetic, so a compiler bug cannot silently ship a
/// wrong table.
pub fn verify(compiled: &CompiledQubo, shape: &ConstraintShape, mode: GapMode) -> bool {
    let one = Rational::one();
    (0..1u64 << compiled.num_real).all(|bits| {
        let p = compiled.penalty(bits);
        if shape.satisfied_by(bits) {
            p.is_zero()
        } else {
            match mode {
                GapMode::AtLeastOne => p >= one,
                GapMode::ExactlyOne => p == one,
            }
        }
    })
}

/// Find a QUBO for `shape` under `mode`, escalating ancillas
/// 0..=[`MAX_ANCILLAS`] and trying the symmetric ansatz before the
/// general one at each level.
pub fn find_qubo(shape: &ConstraintShape, mode: GapMode) -> Result<CompiledQubo, CompileError> {
    if !shape.satisfiable() {
        return Err(CompileError::Unsatisfiable(format!(
            "shape {:?} / selection {:?} has no satisfying assignment",
            shape.multiplicities, shape.selection
        )));
    }
    for a in 0..=MAX_ANCILLAS as usize {
        let found = search_symmetric(shape, a, mode).or_else(|| search_general(shape, a, mode));
        if let Some(c) = found {
            debug_assert!(c.num_real > DEBUG_VERIFY_LIMIT || verify(&c, shape, mode));
            return Ok(c);
        }
    }
    Err(CompileError::NoQuboFound {
        ancillas_tried: MAX_ANCILLAS,
        shape: format!("{:?} / {:?}", shape.multiplicities, shape.selection),
    })
}

/// Solve the coefficient LP over `num_unknowns` coefficients, one row
/// per real-variable class: whether the class satisfies the shape, and
/// its energy under each ancilla setting. A satisfying class needs
/// E ≥ 0 everywhere and E = 0 for some ancilla setting; a violating
/// class needs E ≥ 1 everywhere and, under [`GapMode::ExactlyOne`],
/// E = 1 for some setting. The table is the search's feasibility
/// witness, as Z3's satisfying assignment is in the paper.
fn solve_coefficients(
    num_unknowns: usize,
    mode: GapMode,
    rows: impl Iterator<Item = (bool, Vec<LinExpr>)>,
) -> Option<Vec<Rational>> {
    let mut problem = DisjunctiveProblem::new(num_unknowns);
    for (satisfying, energies) in rows {
        // One ancilla setting must sit exactly on the bound.
        let tight = satisfying || mode == GapMode::ExactlyOne;
        let mut witnesses = Vec::new();
        for mut e in energies {
            if !satisfying {
                e.add_constant(&-Rational::one());
            }
            problem.require(LinConstraint::new(e.clone(), Relation::Ge));
            if tight {
                witnesses.push(LinConstraint::new(e, Relation::Eq));
            }
        }
        if tight {
            problem.require_any(witnesses);
        }
    }
    problem.solve()
}

// ---------------------------------------------------------------------
// Symmetric search
// ---------------------------------------------------------------------

/// Variable groups: distinct multiplicity values with their member
/// counts, preserving the local-variable order of `shape`.
fn groups_of(shape: &ConstraintShape) -> Vec<(u32, usize)> {
    let mut groups: Vec<(u32, usize)> = Vec::new();
    for &m in &shape.multiplicities {
        match groups.iter_mut().find(|(mu, _)| *mu == m) {
            Some((_, n)) => *n += 1,
            None => groups.push((m, 1)),
        }
    }
    groups
}

/// Unknown layout for the symmetric ansatz.
struct SymmetricLayout {
    groups: Vec<(u32, usize)>, // (multiplicity, member count)
    num_anc: usize,
    num_unknowns: usize,
}

impl SymmetricLayout {
    fn new(shape: &ConstraintShape, num_anc: usize) -> Self {
        let groups = groups_of(shape);
        let g = groups.len();
        // offset: 1
        // alpha_g: g
        // beta_gg: g        (unused rows are simply never referenced
        //                    when the group has one member)
        // beta_gh (g<h): g(g-1)/2
        // gamma_j: num_anc
        // delta_gj: g*num_anc
        // eps_jk (j<k): num_anc(num_anc-1)/2
        let num_unknowns = 1
            + g
            + g
            + g * g.saturating_sub(1) / 2
            + num_anc
            + g * num_anc
            + num_anc * num_anc.saturating_sub(1) / 2;
        SymmetricLayout { groups, num_anc, num_unknowns }
    }

    fn offset(&self) -> usize {
        0
    }
    fn alpha(&self, g: usize) -> usize {
        1 + g
    }
    fn beta_within(&self, g: usize) -> usize {
        1 + self.groups.len() + g
    }
    fn beta_across(&self, g: usize, h: usize) -> usize {
        debug_assert!(g < h);
        let n = self.groups.len();
        // index of (g, h) in the upper-triangle enumeration
        let base = 1 + 2 * n;
        base + g * n - g * (g + 1) / 2 + (h - g - 1)
    }
    fn gamma(&self, j: usize) -> usize {
        let n = self.groups.len();
        1 + 2 * n + n * (n - 1) / 2 + j
    }
    fn delta(&self, g: usize, j: usize) -> usize {
        let n = self.groups.len();
        1 + 2 * n + n * (n - 1) / 2 + self.num_anc + g * self.num_anc + j
    }
    fn eps(&self, j: usize, k: usize) -> usize {
        debug_assert!(j < k);
        let n = self.groups.len();
        let base = 1 + 2 * n + n * (n - 1) / 2 + self.num_anc + n * self.num_anc;
        base + j * self.num_anc - j * (j + 1) / 2 + (k - j - 1)
    }

    /// Energy of (count vector, ancilla bits) as a linear expression in
    /// the unknowns.
    fn energy_expr(&self, counts: &[usize], anc: u64) -> LinExpr {
        let mut e = LinExpr::var(self.offset());
        let rat = |v: usize| Rational::from(v as i64);
        for (g, &t) in counts.iter().enumerate() {
            if t > 0 {
                e.add_term(self.alpha(g), rat(t));
                if t >= 2 {
                    e.add_term(self.beta_within(g), rat(t * (t - 1) / 2));
                }
            }
        }
        for g in 0..counts.len() {
            for h in g + 1..counts.len() {
                if counts[g] > 0 && counts[h] > 0 {
                    e.add_term(self.beta_across(g, h), rat(counts[g] * counts[h]));
                }
            }
        }
        for j in 0..self.num_anc {
            if anc >> j & 1 == 1 {
                e.add_term(self.gamma(j), Rational::one());
                for (g, &t) in counts.iter().enumerate() {
                    if t > 0 {
                        e.add_term(self.delta(g, j), rat(t));
                    }
                }
                for k in j + 1..self.num_anc {
                    if anc >> k & 1 == 1 {
                        e.add_term(self.eps(j, k), Rational::one());
                    }
                }
            }
        }
        e
    }
}

/// Enumerate all count vectors `(t_g ∈ 0..=n_g)`.
fn count_vectors(groups: &[(u32, usize)]) -> Vec<Vec<usize>> {
    let mut out = vec![Vec::new()];
    for &(_, n) in groups {
        let mut next = Vec::with_capacity(out.len() * (n + 1));
        for v in &out {
            for t in 0..=n {
                let mut w = v.clone();
                w.push(t);
                next.push(w);
            }
        }
        out = next;
    }
    out
}

fn search_symmetric(
    shape: &ConstraintShape,
    num_anc: usize,
    mode: GapMode,
) -> Option<CompiledQubo> {
    let layout = SymmetricLayout::new(shape, num_anc);
    let rows = count_vectors(&layout.groups).into_iter().map(|counts| {
        let weighted: u32 =
            counts.iter().zip(&layout.groups).map(|(&t, &(mu, _))| t as u32 * mu).sum();
        let energies = (0..1u64 << num_anc).map(|anc| layout.energy_expr(&counts, anc)).collect();
        (shape.selection.contains(&weighted), energies)
    });
    let witness = solve_coefficients(layout.num_unknowns, mode, rows)?;
    Some(reconstruct_symmetric(shape, &layout, &witness))
}

fn reconstruct_symmetric(
    shape: &ConstraintShape,
    layout: &SymmetricLayout,
    w: &[Rational],
) -> CompiledQubo {
    let d = shape.num_vars();
    let n = d + layout.num_anc;
    let mut q = RationalQubo::new(n);
    q.add_offset(w[layout.offset()].clone());
    // Map each local variable to its group index.
    let group_of: Vec<usize> = shape
        .multiplicities
        .iter()
        .map(|m| layout.groups.iter().position(|(mu, _)| mu == m).unwrap())
        .collect();
    for i in 0..d {
        q.add_linear(i, w[layout.alpha(group_of[i])].clone());
        for j in i + 1..d {
            let (gi, gj) = (group_of[i], group_of[j]);
            let coeff = if gi == gj {
                w[layout.beta_within(gi)].clone()
            } else {
                w[layout.beta_across(gi.min(gj), gi.max(gj))].clone()
            };
            q.add_quadratic(i, j, coeff);
        }
    }
    for j in 0..layout.num_anc {
        q.add_linear(d + j, w[layout.gamma(j)].clone());
        for i in 0..d {
            q.add_quadratic(i, d + j, w[layout.delta(group_of[i], j)].clone());
        }
        for k in j + 1..layout.num_anc {
            q.add_quadratic(d + j, d + k, w[layout.eps(j, k)].clone());
        }
    }
    CompiledQubo { qubo: q, num_real: d, num_ancillas: layout.num_anc }
}

// ---------------------------------------------------------------------
// General (asymmetric) search
// ---------------------------------------------------------------------

/// Unknown layout for the general ansatz over `n` local variables:
/// `[offset, linear 0..n, quadratic pairs (i<j)]`.
struct GeneralLayout {
    n: usize,
}

impl GeneralLayout {
    fn num_unknowns(&self) -> usize {
        1 + self.n + self.n * (self.n - 1) / 2
    }
    fn offset(&self) -> usize {
        0
    }
    fn linear(&self, i: usize) -> usize {
        1 + i
    }
    fn quad(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < j);
        1 + self.n + i * self.n - i * (i + 1) / 2 + (j - i - 1)
    }

    fn energy_expr(&self, bits: u64) -> LinExpr {
        let mut e = LinExpr::var(self.offset());
        for i in 0..self.n {
            if bits >> i & 1 == 1 {
                e.add_term(self.linear(i), Rational::one());
                for j in i + 1..self.n {
                    if bits >> j & 1 == 1 {
                        e.add_term(self.quad(i, j), Rational::one());
                    }
                }
            }
        }
        e
    }
}

fn search_general(shape: &ConstraintShape, num_anc: usize, mode: GapMode) -> Option<CompiledQubo> {
    let d = shape.num_vars();
    let n = d + num_anc;
    if n > GENERAL_LIMIT {
        return None;
    }
    let layout = GeneralLayout { n };
    let rows = (0..1u64 << d).map(|var_bits| {
        let energies =
            (0..1u64 << num_anc).map(|anc| layout.energy_expr(var_bits | anc << d)).collect();
        (shape.satisfied_by(var_bits), energies)
    });
    let witness = solve_coefficients(layout.num_unknowns(), mode, rows)?;
    let mut q = RationalQubo::new(n);
    q.add_offset(witness[layout.offset()].clone());
    for i in 0..n {
        q.add_linear(i, witness[layout.linear(i)].clone());
        for j in i + 1..n {
            q.add_quadratic(i, j, witness[layout.quad(i, j)].clone());
        }
    }
    Some(CompiledQubo { qubo: q, num_real: d, num_ancillas: num_anc })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(mults: &[u32], sel: &[u32]) -> ConstraintShape {
        ConstraintShape { multiplicities: mults.to_vec(), selection: sel.iter().copied().collect() }
    }

    fn compile_ok(mults: &[u32], sel: &[u32]) -> CompiledQubo {
        let s = shape(mults, sel);
        let c = find_qubo(&s, GapMode::AtLeastOne).expect("compilable");
        assert!(verify(&c, &s, GapMode::AtLeastOne), "verification failed for {s:?}: {:?}", c.qubo);
        c
    }

    #[test]
    fn exactly_one_of_two() {
        // nck({a,b},{1}) — XOR-like; classic QUBO (a+b-1)^2 exists.
        let c = compile_ok(&[1, 1], &[1]);
        assert_eq!(c.num_ancillas, 0);
    }

    #[test]
    fn at_least_one_of_two() {
        // nck({a,b},{1,2}) — the vertex-cover edge constraint (§V).
        let c = compile_ok(&[1, 1], &[1, 2]);
        assert_eq!(c.num_ancillas, 0);
        // Ground-normalized version of ab − a − b: penalty 1 at 00.
        assert_eq!(c.penalty(0b00), Rational::one());
        assert_eq!(c.penalty(0b01), Rational::zero());
        assert_eq!(c.penalty(0b11), Rational::zero());
    }

    #[test]
    fn xor_of_three_needs_no_ancilla() {
        // nck({a,b,c},{0,2}) — the paper's XOR example a⊕b = c is
        // nck({a,b,c},{0,2}), which *does* need an ancilla (§VI-C).
        let s = shape(&[1, 1, 1], &[0, 2]);
        let c = find_qubo(&s, GapMode::AtLeastOne).unwrap();
        assert!(verify(&c, &s, GapMode::AtLeastOne));
        assert_eq!(c.num_ancillas, 1, "XOR requires exactly one ancilla");
    }

    #[test]
    fn one_or_three_of_three_needs_ancilla() {
        // nck({a,b,c},{1,3}) — §VI-B Discussion: cannot be a
        // three-variable QUBO, requires a fourth ancillary variable.
        let s = shape(&[1, 1, 1], &[1, 3]);
        let c = find_qubo(&s, GapMode::AtLeastOne).unwrap();
        assert!(verify(&c, &s, GapMode::AtLeastOne));
        assert_eq!(c.num_ancillas, 1);
    }

    #[test]
    fn exactly_k_closed_family() {
        for n in 1..=4usize {
            for k in 0..=n as u32 {
                let mults = vec![1; n];
                let sel = [k];
                let c = compile_ok(&mults, &sel);
                assert_eq!(c.num_ancillas, 0, "nck(n={n}, {{{k}}}) should need no ancilla");
            }
        }
    }

    #[test]
    fn full_range_selection_trivial() {
        // Selection {0,1,2} over 2 vars is always satisfied.
        let c = compile_ok(&[1, 1], &[0, 1, 2]);
        for bits in 0..4 {
            assert!(c.penalty(bits).is_zero());
        }
    }

    #[test]
    fn repeated_variable_shape() {
        // {a, a}: achievable counts 0 and 2. Selection {0,2} is always
        // satisfied; {2} forces a TRUE.
        let c = compile_ok(&[2], &[0, 2]);
        assert!(c.penalty(0).is_zero());
        assert!(c.penalty(1).is_zero());
        let c = compile_ok(&[2], &[2]);
        assert!(c.penalty(0) >= Rational::one());
        assert!(c.penalty(1).is_zero());
    }

    #[test]
    fn unsatisfiable_shape_is_error() {
        // {a, a} with selection {1}: count 1 unachievable.
        let s = shape(&[2], &[1]);
        match find_qubo(&s, GapMode::AtLeastOne) {
            Err(CompileError::Unsatisfiable(_)) => {}
            other => panic!("expected Unsatisfiable, got {other:?}"),
        }
    }

    #[test]
    fn three_sat_clause_shape() {
        // 3-SAT positive clause (x ∨ y ∨ z): nck({x,y,z},{1,2,3}).
        let c = compile_ok(&[1, 1, 1], &[1, 2, 3]);
        assert!(c.penalty(0b000) >= Rational::one());
        for bits in 1..8 {
            assert!(c.penalty(bits).is_zero());
        }
    }

    #[test]
    fn sat_clause_with_doubled_variable() {
        // The paper's repeated-variable SAT encoding:
        // nck({x,y,z,z},{0,1,2,4}) for clause (x ∨ y ∨ ¬z).
        let s = shape(&[1, 1, 2], &[0, 1, 2, 4]);
        let c = find_qubo(&s, GapMode::AtLeastOne).unwrap();
        assert!(verify(&c, &s, GapMode::AtLeastOne));
        // violating: z TRUE, x or y adding to count 3
        assert!(c.penalty(0b101) >= Rational::one()); // x,z → count 3
        assert!(c.penalty(0b100).is_zero()); // z alone → count 2 OK
    }

    #[test]
    fn max_penalty_of_soft_minimizer() {
        // nck({v},{0}) — the soft "prefer FALSE" constraint. Max
        // penalty over assignments should be exactly the v=1 penalty.
        let c = compile_ok(&[1], &[0]);
        assert_eq!(c.max_penalty(), c.penalty(1));
        assert!(c.max_penalty() >= Rational::one());
    }

    #[test]
    fn xor_table_coefficients_stay_small() {
        // The XOR table's known hand-derived coefficient profile has
        // magnitudes {1, 2, 4} (§VI-C); the search's witness must not
        // exceed that scale.
        let s = shape(&[1, 1, 1], &[0, 2]);
        let c = find_qubo(&s, GapMode::AtLeastOne).unwrap();
        let max = c.qubo.to_f64().max_abs_coeff();
        assert!(max <= 4.0 + 1e-9, "XOR coefficient {max} too large");
    }

    #[test]
    fn wide_shape_compiles_without_the_exhaustive_recheck() {
        // nck(v0..v63, {0,1}) has no closed form; its 2^64 assignments
        // are past what the debug re-check can walk. With 64 real
        // variables and no ancillas, `penalty` must not shift an
        // ancilla counter past bit 63 (a debug-build overflow panic).
        let s = shape(&[1; 64], &[0, 1]);
        let c = find_qubo(&s, GapMode::AtLeastOne).unwrap();
        assert_eq!((c.num_real, c.num_ancillas), (64, 0));
        for bits in [0, 1, 1 << 63] {
            assert!(c.qubo.energy_bits(bits).is_zero());
            assert!(c.penalty(bits).is_zero());
        }
        for bits in [0b11, 1 << 5 | 1 << 40, u64::MAX] {
            assert!(c.qubo.energy_bits(bits) >= Rational::one());
            assert_eq!(c.penalty(bits), c.qubo.energy_bits(bits));
        }
    }

    #[test]
    fn count_vectors_enumeration() {
        let cvs = count_vectors(&[(1, 2), (2, 1)]);
        assert_eq!(cvs.len(), 6); // (0..=2) × (0..=1)
        assert!(cvs.contains(&vec![2, 1]));
        assert!(cvs.contains(&vec![0, 0]));
    }

    #[test]
    fn shape_satisfied_by_weighted_count() {
        let s = shape(&[1, 2], &[2]);
        assert!(!s.satisfied_by(0b00)); // count 0
        assert!(!s.satisfied_by(0b01)); // count 1
        assert!(s.satisfied_by(0b10)); // count 2 (the doubled var)
        assert!(!s.satisfied_by(0b11)); // count 3
    }

    #[test]
    fn achievable_counts_subset_sums() {
        let s = shape(&[2, 3], &[2]);
        assert_eq!(s.achievable_counts(), vec![0, 2, 3, 5]);
        assert!(s.satisfiable());
        assert!(!shape(&[2, 3], &[1, 4]).satisfiable());
    }
}
