//! Exact phase-1 primal simplex over rationals.
//!
//! [`feasible`] is the crate's one LP entry; outside tests its only
//! caller is the DPLL node check in [`crate::dpll`]. Every node asks
//! "is this conjunction of linear constraints over the reals feasible,
//! and if so give me a witness", passing the rows by reference. Phase 1
//! answers both; there is no objective, so there is no phase 2. Exact
//! arithmetic with Bland's anti-cycling rule makes both answers
//! trustworthy, which is what lets the QUBO compiler *prove* its
//! coefficient tables correct.

use crate::linexpr::{LinConstraint, Relation};
use crate::rational::Rational;

/// Feasibility of `rows` over `num_vars` free rational variables: a
/// witness assignment, or `None` if no assignment satisfies every row.
/// Panics if a row mentions a variable `≥ num_vars`.
pub fn feasible(num_vars: usize, rows: &[&LinConstraint]) -> Option<Vec<Rational>> {
    Tableau::build(num_vars, rows).phase1()
}

/// Dense simplex tableau. Free variables are split `x = p − n` with
/// `p, n ≥ 0`; every row gets an artificial variable for phase 1.
struct Tableau {
    /// rows[r] has `ncols` structural coefficients followed by the rhs.
    rows: Vec<Vec<Rational>>,
    /// Column index that is basic in each row.
    basis: Vec<usize>,
    /// Total structural columns (split vars + slacks + artificials).
    ncols: usize,
    /// First artificial column index.
    art_start: usize,
    /// Number of original free variables.
    num_free: usize,
}

impl Tableau {
    fn build(nv: usize, constraints: &[&LinConstraint]) -> Tableau {
        let m = constraints.len();
        // Columns: [p0..p(nv-1) | n0..n(nv-1) | slacks | artificials]
        let nslack = constraints.iter().filter(|c| c.rel != Relation::Eq).count();
        let art_start = 2 * nv + nslack;
        let ncols = art_start + m;
        let mut rows = Vec::with_capacity(m);
        let mut basis = Vec::with_capacity(m);
        let mut slack_idx = 2 * nv;
        for (r, c) in constraints.iter().enumerate() {
            let mut row = vec![Rational::zero(); ncols + 1];
            for (x, coeff) in c.expr.terms() {
                assert!(x < nv, "constraint mentions variable {x} out of range");
                row[x] = coeff.clone();
                row[nv + x] = -coeff;
            }
            // expr (rel) 0  =>  Σ a·x (rel) −constant
            let mut rhs = -c.expr.constant_part();
            match c.rel {
                Relation::Le => {
                    row[slack_idx] = Rational::one();
                    slack_idx += 1;
                }
                Relation::Ge => {
                    row[slack_idx] = -Rational::one();
                    slack_idx += 1;
                }
                Relation::Eq => {}
            }
            if rhs.is_negative() {
                for v in row.iter_mut() {
                    *v = -&*v;
                }
                rhs = -rhs;
            }
            row[ncols] = rhs;
            row[art_start + r] = Rational::one();
            rows.push(row);
            basis.push(art_start + r);
        }
        Tableau { rows, basis, ncols, art_start, num_free: nv }
    }

    /// Phase-1 simplex: minimize the sum of artificial variables. The
    /// constraints are feasible iff that minimum is 0.
    #[allow(clippy::needless_range_loop)] // tableau columns are index-coupled
    fn phase1(mut self) -> Option<Vec<Rational>> {
        // Reduced-cost row for cost vector c (1 on artificials, 0 else),
        // relative to the artificial basis: z[j] = c[j] − Σ_r rows[r][j].
        let mut z = vec![Rational::zero(); self.ncols + 1];
        for j in 0..=self.ncols {
            let mut s = Rational::zero();
            for row in &self.rows {
                s += &row[j];
            }
            z[j] = -s;
        }
        for j in self.art_start..self.ncols {
            z[j] += &Rational::one();
        }
        loop {
            // Bland's rule: entering column = lowest index with z < 0.
            let entering = (0..self.ncols).find(|&j| z[j].is_negative());
            let Some(e) = entering else { break };
            // Ratio test, Bland tie-break on lowest basis index.
            let mut pivot_row: Option<usize> = None;
            let mut best: Option<Rational> = None;
            for r in 0..self.rows.len() {
                if !self.rows[r][e].is_positive() {
                    continue;
                }
                let ratio = &self.rows[r][self.ncols] / &self.rows[r][e];
                let better = match &best {
                    None => true,
                    Some(b) => {
                        ratio < *b
                            || (ratio == *b && self.basis[r] < self.basis[pivot_row.unwrap()])
                    }
                };
                if better {
                    best = Some(ratio);
                    pivot_row = Some(r);
                }
            }
            let Some(pr) = pivot_row else {
                // Unbounded phase-1 objective cannot happen (bounded below
                // by 0); defensively treat as infeasible.
                return None;
            };
            self.pivot(pr, e, &mut z);
        }
        // Objective value = −z[rhs] by our convention: z[ncols] currently
        // holds −Σ rhs adjusted through pivots; the phase-1 optimum is
        // reached, so check whether any artificial remains at a positive
        // level.
        for r in 0..self.rows.len() {
            if self.basis[r] >= self.art_start && self.rows[r][self.ncols].is_positive() {
                return None;
            }
        }
        Some(self.witness())
    }

    /// Extract the witness `x = p − n` from the current basis.
    fn witness(&self) -> Vec<Rational> {
        let mut vals = vec![Rational::zero(); 2 * self.num_free];
        for r in 0..self.rows.len() {
            let b = self.basis[r];
            if b < 2 * self.num_free {
                vals[b] = self.rows[r][self.ncols].clone();
            }
        }
        (0..self.num_free).map(|i| &vals[i] - &vals[self.num_free + i]).collect()
    }

    fn pivot(&mut self, pr: usize, pc: usize, z: &mut [Rational]) {
        let inv = self.rows[pr][pc].recip();
        for v in self.rows[pr].iter_mut() {
            *v = &*v * &inv;
        }
        let pivot_row = self.rows[pr].clone();
        for (r, row) in self.rows.iter_mut().enumerate() {
            if r == pr || row[pc].is_zero() {
                continue;
            }
            let factor = row[pc].clone();
            for (v, pv) in row.iter_mut().zip(&pivot_row) {
                *v = &*v - &(&factor * pv);
            }
        }
        if !z[pc].is_zero() {
            let factor = z[pc].clone();
            for (v, pv) in z.iter_mut().zip(&pivot_row) {
                *v = &*v - &(&factor * pv);
            }
        }
        self.basis[pr] = pc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linexpr::LinExpr;

    fn r(n: i64, d: i64) -> Rational {
        Rational::ratio(n, d)
    }

    /// Build `Σ coeffs·x + c (rel) 0`.
    fn con(coeffs: &[(usize, i64)], c: i64, rel: Relation) -> LinConstraint {
        let mut e = LinExpr::constant(r(c, 1));
        for &(x, co) in coeffs {
            e.add_term(x, r(co, 1));
        }
        LinConstraint::new(e, rel)
    }

    fn solve(n: usize, rows: &[LinConstraint]) -> Option<Vec<Rational>> {
        feasible(n, &rows.iter().collect::<Vec<_>>())
    }

    fn check_witness(n: usize, rows: &[LinConstraint]) -> Vec<Rational> {
        let w = solve(n, rows).expect("expected feasible");
        for (i, c) in rows.iter().enumerate() {
            assert!(c.holds(&w), "constraint {i} ({c:?}) violated by witness {w:?}");
        }
        w
    }

    #[test]
    fn trivial_feasible() {
        check_witness(1, &[]);
    }

    #[test]
    fn single_equality() {
        let w = check_witness(1, &[con(&[(0, 2)], -6, Relation::Eq)]); // 2x = 6
        assert_eq!(w[0], r(3, 1));
    }

    #[test]
    fn negative_solution_found() {
        let w = check_witness(1, &[con(&[(0, 1)], 5, Relation::Le)]); // x <= -5
        assert!(w[0] <= r(-5, 1));
    }

    #[test]
    fn system_of_equalities() {
        // x + y = 10, x - y = 4  =>  x = 7, y = 3
        let rows =
            [con(&[(0, 1), (1, 1)], -10, Relation::Eq), con(&[(0, 1), (1, -1)], -4, Relation::Eq)];
        assert_eq!(check_witness(2, &rows), vec![r(7, 1), r(3, 1)]);
    }

    #[test]
    fn infeasible_equalities() {
        let rows = [
            con(&[(0, 1)], -1, Relation::Eq), // x = 1
            con(&[(0, 1)], -2, Relation::Eq), // x = 2
        ];
        assert_eq!(solve(1, &rows), None);
    }

    #[test]
    fn infeasible_inequalities() {
        let rows = [
            con(&[(0, 1)], -3, Relation::Ge), // x >= 3
            con(&[(0, 1)], -2, Relation::Le), // x <= 2
        ];
        assert_eq!(solve(1, &rows), None);
    }

    #[test]
    fn inequality_band() {
        let rows = [
            con(&[(0, 1), (1, 1)], -2, Relation::Ge), // x + y >= 2
            con(&[(0, 1)], 0, Relation::Le),          // x <= 0
            con(&[(1, 1)], -3, Relation::Le),         // y <= 3
        ];
        check_witness(2, &rows);
    }

    #[test]
    fn rational_coefficients() {
        // x/2 + y/3 = 1, x = y  => x = y = 6/5
        let mut e = LinExpr::constant(r(-1, 1));
        e.add_term(0, r(1, 2));
        e.add_term(1, r(1, 3));
        let rows = [LinConstraint::new(e, Relation::Eq), con(&[(0, 1), (1, -1)], 0, Relation::Eq)];
        let w = check_witness(2, &rows);
        assert_eq!(w[0], r(6, 5));
        assert_eq!(w[1], r(6, 5));
    }

    #[test]
    fn redundant_constraints_ok() {
        let rows = vec![con(&[(0, 1)], -1, Relation::Eq); 5]; // x = 1, five times
        let w = check_witness(1, &rows);
        assert_eq!(w[0], r(1, 1));
    }

    #[test]
    fn degenerate_does_not_cycle() {
        // A classically degenerate system; Bland's rule must terminate.
        let rows = [
            con(&[(0, 1), (1, -1)], 0, Relation::Le),
            con(&[(1, 1), (2, -1)], 0, Relation::Le),
            con(&[(2, 1), (0, -1)], 0, Relation::Le),
            con(&[(0, 1), (1, 1), (2, 1)], -3, Relation::Eq),
        ];
        let w = check_witness(3, &rows);
        assert_eq!(&(&(&w[0] + &w[1]) + &w[2]), &r(3, 1));
    }

    #[test]
    fn many_vars_feasible() {
        // Chain x0 <= x1 <= ... <= x9, x9 <= -1, x0 >= -100
        let mut rows: Vec<LinConstraint> =
            (0..9).map(|i| con(&[(i, 1), (i + 1, -1)], 0, Relation::Le)).collect();
        rows.push(con(&[(9, 1)], 1, Relation::Le));
        rows.push(con(&[(0, 1)], 100, Relation::Ge));
        let w = check_witness(10, &rows);
        assert!(w[9] <= r(-1, 1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn variable_out_of_range_panics() {
        let _ = solve(1, &[con(&[(1, 1)], 0, Relation::Eq)]);
    }
}
