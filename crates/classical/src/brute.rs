//! Brute-force solving of NchooseK programs.
//!
//! Ground truth for tests and for classifying backend samples on small
//! instances: enumerate all assignments, keep those satisfying every
//! hard constraint, and maximize the number of satisfied soft
//! constraints, in one pass over the assignments in ascending order.

use nck_core::Program;

/// Result of a brute-force solve.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BruteResult {
    /// The maximum satisfiable soft *weight* while meeting every hard
    /// constraint (equals the satisfied count under unit weights).
    pub max_soft: u64,
    /// All optimal assignments, as packed bit patterns (bit `i` =
    /// variable `i`), ascending.
    pub optima: Vec<u64>,
}

impl BruteResult {
    /// Decode optimum `idx` into a boolean vector of length `n`.
    pub fn decode(&self, idx: usize, n: usize) -> Vec<bool> {
        let bits = self.optima[idx];
        (0..n).map(|i| bits >> i & 1 == 1).collect()
    }
}

/// Exhaustively solve `program`. Returns `None` if no assignment
/// satisfies all hard constraints. Panics above 30 variables.
pub fn solve_brute(program: &Program) -> Option<BruteResult> {
    let n = program.num_vars();
    assert!(n <= 30, "brute force limited to 30 variables, got {n}");
    let mut best: Option<u64> = None;
    let mut optima = Vec::new();
    let mut x = vec![false; n];
    for bits in 0..1u64 << n {
        for (i, xi) in x.iter_mut().enumerate() {
            *xi = bits >> i & 1 == 1;
        }
        if !program.all_hard_satisfied(&x) {
            continue;
        }
        let soft = program.evaluate(&x).soft_weight_satisfied;
        match best {
            Some(b) if soft < b => {}
            Some(b) if soft == b => optima.push(bits),
            _ => {
                best = Some(soft);
                optima.clear();
                optima.push(bits);
            }
        }
    }
    let max_soft = best?;
    Some(BruteResult { max_soft, optima })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intro_example_solutions() {
        let mut p = Program::new();
        let a = p.new_var("a").unwrap();
        let b = p.new_var("b").unwrap();
        let c = p.new_var("c").unwrap();
        p.nck(vec![a, b], [0, 1]).unwrap();
        p.nck(vec![b, c], [1]).unwrap();
        let r = solve_brute(&p).unwrap();
        assert_eq!(r.max_soft, 0);
        // Solutions: b=1,c=0,a=0 (0b010); b=0,c=1,a∈{0,1} (0b100, 0b101)
        assert_eq!(r.optima, vec![0b010, 0b100, 0b101]);
    }

    #[test]
    fn min_vertex_cover_finds_minimum() {
        let mut p = Program::new();
        let vs = p.new_vars("v", 5).unwrap();
        for (u, w) in [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)] {
            p.nck(vec![vs[u], vs[w]], [1, 2]).unwrap();
        }
        for &v in &vs {
            p.nck_soft(vec![v], [0]).unwrap();
        }
        let r = solve_brute(&p).unwrap();
        // Minimum cover has 3 vertices => 2 soft constraints satisfied.
        assert_eq!(r.max_soft, 2);
        for &bits in &r.optima {
            assert_eq!(bits.count_ones(), 3);
        }
    }

    #[test]
    fn hard_unsatisfiable_returns_none() {
        let mut p = Program::new();
        let a = p.new_var("a").unwrap();
        p.nck(vec![a], [0]).unwrap();
        p.nck(vec![a], [1]).unwrap();
        assert_eq!(solve_brute(&p), None);
    }

    #[test]
    fn soft_only_program() {
        // Two conflicting soft constraints on one variable: either way
        // exactly one is satisfiable.
        let mut p = Program::new();
        let a = p.new_var("a").unwrap();
        p.nck_soft(vec![a], [0]).unwrap();
        p.nck_soft(vec![a], [1]).unwrap();
        let r = solve_brute(&p).unwrap();
        assert_eq!(r.max_soft, 1);
        assert_eq!(r.optima.len(), 2);
    }

    #[test]
    fn decode_round_trip() {
        let mut p = Program::new();
        let a = p.new_var("a").unwrap();
        let b = p.new_var("b").unwrap();
        p.nck(vec![a], [1]).unwrap();
        p.nck(vec![b], [0]).unwrap();
        let r = solve_brute(&p).unwrap();
        assert_eq!(r.optima, vec![0b01]);
        assert_eq!(r.decode(0, 2), vec![true, false]);
    }
}
