//! Optimality classification of backend samples (Definition 8).
//!
//! The paper checks results "against the Z3 solver, which solves the
//! problems classically" (§VII). Here the exact branch-and-bound solver
//! provides the soft-constraint optimum, and samples from either
//! quantum backend are classified as optimal / suboptimal / incorrect.

use crate::solver::max_soft_satisfiable;
use nck_core::{Program, SolutionQuality};

/// A classifier holding the classically-computed soft optimum for one
/// program.
#[derive(Clone, Debug)]
pub struct OptimalityOracle {
    /// Maximum satisfiable soft *weight* (equal to the count under
    /// unit weights), or `None` when the hard constraints are
    /// unsatisfiable (every sample is then incorrect).
    pub max_soft: Option<u64>,
}

impl OptimalityOracle {
    /// Solve the program classically to establish the optimum.
    pub fn build(program: &Program) -> Self {
        OptimalityOracle { max_soft: max_soft_satisfiable(program) }
    }

    /// Classify one assignment.
    pub fn classify(&self, program: &Program, assignment: &[bool]) -> SolutionQuality {
        match self.max_soft {
            None => SolutionQuality::Incorrect,
            Some(max_soft) => program.evaluate(assignment).classify(max_soft),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vertex_cover_program() -> Program {
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
    fn classify_each_quality() {
        let p = vertex_cover_program();
        let oracle = OptimalityOracle::build(&p);
        assert_eq!(oracle.max_soft, Some(2));
        // Minimum cover {b,c,d}: optimal.
        assert_eq!(
            oracle.classify(&p, &[false, true, true, true, false]),
            SolutionQuality::Optimal
        );
        // Full cover: all hard satisfied, 0 soft: suboptimal.
        assert_eq!(oracle.classify(&p, &[true; 5]), SolutionQuality::Suboptimal);
        // Empty set: edges uncovered: incorrect.
        assert_eq!(oracle.classify(&p, &[false; 5]), SolutionQuality::Incorrect);
    }

    #[test]
    fn unsatisfiable_program_everything_incorrect() {
        let mut p = Program::new();
        let a = p.new_var("a").unwrap();
        p.nck(vec![a], [0]).unwrap();
        p.nck(vec![a], [1]).unwrap();
        let oracle = OptimalityOracle::build(&p);
        assert_eq!(oracle.max_soft, None);
        assert_eq!(oracle.classify(&p, &[true]), SolutionQuality::Incorrect);
        assert_eq!(oracle.classify(&p, &[false]), SolutionQuality::Incorrect);
    }
}
