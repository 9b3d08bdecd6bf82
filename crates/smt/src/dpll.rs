//! DPLL-style search over disjunctions of linear-arithmetic constraints.
//!
//! The QUBO coefficient search needs formulas of the shape
//!
//! ```text
//! (conjunction of linear constraints)
//!   ∧  ⋀_groups ( alt₁ ∨ alt₂ ∨ … )     where each altᵢ is one constraint
//! ```
//!
//! — "for every satisfying assignment, *some* ancilla setting attains the
//! ground energy". This is the QF_LRA fragment Z3 solves for the paper's
//! compiler. We solve it with a depth-first search over one alternative
//! per group, using the exact simplex ([`crate::simplex::feasible`]) as
//! the theory oracle at every node, with witness-guided alternative
//! ordering. Each node hands the simplex the hard rows and the chosen
//! alternatives by reference; this is the one place an LP is assembled.
//! The answer is the feasibility witness of the first branch that
//! closes — *a* model, as Z3 returns one, not an optimum over branches.

use crate::linexpr::LinConstraint;
use crate::rational::Rational;
use crate::simplex;

/// A conjunction of linear constraints plus disjunction groups, each of
/// which must have at least one satisfied alternative.
#[derive(Clone, Debug, Default)]
pub struct DisjunctiveProblem {
    num_vars: usize,
    hard: Vec<LinConstraint>,
    groups: Vec<Vec<LinConstraint>>,
}

/// Search statistics for reporting and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Number of LP feasibility checks performed.
    pub lp_calls: u64,
    /// Number of branches abandoned as infeasible.
    pub backtracks: u64,
}

impl DisjunctiveProblem {
    /// Create a problem over `num_vars` free rational variables.
    pub fn new(num_vars: usize) -> Self {
        DisjunctiveProblem { num_vars, hard: Vec::new(), groups: Vec::new() }
    }

    /// Add a constraint that must always hold.
    pub fn require(&mut self, c: LinConstraint) {
        self.hard.push(c);
    }

    /// Add a disjunction group: at least one alternative constraint
    /// must hold. An empty alternative list makes the problem
    /// unsatisfiable.
    pub fn require_any(&mut self, alternatives: Vec<LinConstraint>) {
        self.groups.push(alternatives);
    }

    /// Solve; returns a witness assignment if satisfiable.
    pub fn solve(&self) -> Option<Vec<Rational>> {
        self.solve_with_stats().0
    }

    /// Solve, also returning search statistics.
    pub fn solve_with_stats(&self) -> (Option<Vec<Rational>>, SearchStats) {
        let mut stats = SearchStats::default();
        let Some(witness) = self.check(&[], &mut stats) else {
            stats.backtracks += 1;
            return (None, stats);
        };
        // Branch on groups with the fewest alternatives first: smaller
        // fan-out near the root keeps the tree narrow.
        let mut order: Vec<usize> = (0..self.groups.len()).collect();
        order.sort_by_key(|&g| self.groups[g].len());
        let result = self.search(&order, 0, &mut Vec::new(), witness, &mut stats);
        (result, stats)
    }

    /// Depth-first search over `order[depth..]`, with `chosen` holding
    /// the alternatives picked for `order[..depth]`.
    fn search(
        &self,
        order: &[usize],
        depth: usize,
        chosen: &mut Vec<(usize, usize)>,
        witness: Vec<Rational>,
        stats: &mut SearchStats,
    ) -> Option<Vec<Rational>> {
        if depth == order.len() {
            return Some(witness);
        }
        let g = order[depth];
        let alts = &self.groups[g];
        // Witness guidance: try alternatives the current witness already
        // satisfies first — they are very likely to stay feasible.
        let mut alt_order: Vec<usize> = (0..alts.len()).collect();
        alt_order.sort_by_key(|&a| usize::from(!alts[a].holds(&witness)));
        for a in alt_order {
            chosen.push((g, a));
            if let Some(w) = self.check(chosen, stats) {
                if let Some(res) = self.search(order, depth + 1, chosen, w, stats) {
                    return Some(res);
                }
            } else {
                stats.backtracks += 1;
            }
            chosen.pop();
        }
        None
    }

    /// LP feasibility of hard constraints plus the chosen alternatives.
    fn check(&self, chosen: &[(usize, usize)], stats: &mut SearchStats) -> Option<Vec<Rational>> {
        stats.lp_calls += 1;
        let rows: Vec<&LinConstraint> =
            self.hard.iter().chain(chosen.iter().map(|&(g, a)| &self.groups[g][a])).collect();
        simplex::feasible(self.num_vars, &rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linexpr::{LinExpr, Relation};

    fn r(n: i64) -> Rational {
        Rational::from(n)
    }

    /// `Σ coeffs·x + c (rel) 0`
    fn con(coeffs: &[(usize, i64)], c: i64, rel: Relation) -> LinConstraint {
        let mut e = LinExpr::constant(r(c));
        for &(x, co) in coeffs {
            e.add_term(x, r(co));
        }
        LinConstraint::new(e, rel)
    }

    #[test]
    fn no_groups_is_plain_lp() {
        let mut p = DisjunctiveProblem::new(1);
        p.require(con(&[(0, 1)], -2, Relation::Eq)); // x = 2
        let w = p.solve().unwrap();
        assert_eq!(w[0], r(2));
    }

    #[test]
    fn picks_feasible_alternative() {
        let mut p = DisjunctiveProblem::new(1);
        p.require(con(&[(0, 1)], -1, Relation::Ge)); // x >= 1
                                                     // x = 0  OR  x = 5
        p.require_any(vec![con(&[(0, 1)], 0, Relation::Eq), con(&[(0, 1)], -5, Relation::Eq)]);
        let w = p.solve().unwrap();
        assert_eq!(w[0], r(5));
    }

    #[test]
    fn unsat_when_all_alternatives_conflict() {
        let mut p = DisjunctiveProblem::new(1);
        p.require(con(&[(0, 1)], -10, Relation::Ge)); // x >= 10
        p.require_any(vec![con(&[(0, 1)], 0, Relation::Eq), con(&[(0, 1)], -5, Relation::Eq)]);
        assert_eq!(p.solve(), None);
    }

    #[test]
    fn empty_alternative_list_is_unsat() {
        let mut p = DisjunctiveProblem::new(1);
        p.require_any(vec![]);
        assert_eq!(p.solve(), None);
    }

    #[test]
    fn cross_group_interaction_requires_backtracking() {
        // x in {0, 5} and x in {5, 9}, plus x >= 1  =>  x = 5.
        // Witness guidance may first try x = 0 in group 1; the search
        // must backtrack through group choices to find the intersection.
        let mut p = DisjunctiveProblem::new(1);
        p.require(con(&[(0, 1)], -1, Relation::Ge));
        p.require_any(vec![con(&[(0, 1)], 0, Relation::Eq), con(&[(0, 1)], -5, Relation::Eq)]);
        p.require_any(vec![con(&[(0, 1)], -9, Relation::Eq), con(&[(0, 1)], -5, Relation::Eq)]);
        let (w, stats) = p.solve_with_stats();
        assert_eq!(w.unwrap()[0], r(5));
        assert!(stats.lp_calls >= 3);
    }

    #[test]
    fn multi_variable_groups() {
        // y = x + 1; (y = x) OR (x + y = 1)  =>  x = 0, y = 1
        let mut p = DisjunctiveProblem::new(2);
        p.require(con(&[(1, 1), (0, -1)], -1, Relation::Eq));
        p.require_any(vec![
            con(&[(1, 1), (0, -1)], 0, Relation::Eq),
            con(&[(0, 1), (1, 1)], -1, Relation::Eq),
        ]);
        let w = p.solve().unwrap();
        assert_eq!(w, vec![r(0), r(1)]);
    }

    #[test]
    fn stats_count_backtracks() {
        let mut p = DisjunctiveProblem::new(1);
        p.require(con(&[(0, 1)], -10, Relation::Ge));
        p.require_any(vec![con(&[(0, 1)], 0, Relation::Eq), con(&[(0, 1)], -5, Relation::Eq)]);
        let (res, stats) = p.solve_with_stats();
        assert!(res.is_none());
        assert!(stats.backtracks >= 2);
    }
}
