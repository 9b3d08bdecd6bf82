//! Linear expressions over numbered rational variables.

use crate::rational::Rational;
use std::collections::BTreeMap;

/// A linear expression `Σ cᵢ·xᵢ + constant` over variables identified
/// by `usize` indices. Terms are kept sorted and coalesced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LinExpr {
    terms: BTreeMap<usize, Rational>,
    constant: Rational,
}

impl LinExpr {
    /// The zero expression.
    pub fn zero() -> Self {
        LinExpr { terms: BTreeMap::new(), constant: Rational::zero() }
    }

    /// A constant expression.
    pub fn constant(c: Rational) -> Self {
        LinExpr { terms: BTreeMap::new(), constant: c }
    }

    /// The expression `1·x`.
    pub fn var(x: usize) -> Self {
        let mut e = LinExpr::zero();
        e.add_term(x, Rational::one());
        e
    }

    /// Add `coeff·x` to the expression, coalescing with any existing term.
    pub fn add_term(&mut self, x: usize, coeff: Rational) {
        if coeff.is_zero() {
            return;
        }
        let entry = self.terms.entry(x).or_insert_with(Rational::zero);
        *entry += &coeff;
        if entry.is_zero() {
            self.terms.remove(&x);
        }
    }

    /// Add a constant to the expression.
    pub fn add_constant(&mut self, c: &Rational) {
        self.constant += c;
    }

    /// The constant part.
    pub fn constant_part(&self) -> &Rational {
        &self.constant
    }

    /// Iterate over `(variable, coefficient)` terms in index order.
    pub fn terms(&self) -> impl Iterator<Item = (usize, &Rational)> {
        self.terms.iter().map(|(&x, c)| (x, c))
    }

    /// Evaluate the expression under a full assignment.
    pub fn eval(&self, assignment: &[Rational]) -> Rational {
        let mut v = self.constant.clone();
        for (&x, c) in &self.terms {
            v += &(c * &assignment[x]);
        }
        v
    }
}

/// Comparison relation of a linear constraint against zero.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Relation {
    /// `expr ≤ 0`
    Le,
    /// `expr = 0`
    Eq,
    /// `expr ≥ 0`
    Ge,
}

/// A linear constraint `expr (rel) 0`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LinConstraint {
    /// Left-hand side, compared against zero.
    pub expr: LinExpr,
    /// The comparison relation.
    pub rel: Relation,
}

impl LinConstraint {
    /// Build `expr (rel) 0`.
    pub fn new(expr: LinExpr, rel: Relation) -> Self {
        LinConstraint { expr, rel }
    }

    /// True iff the constraint holds under `assignment`.
    pub fn holds(&self, assignment: &[Rational]) -> bool {
        let v = self.expr.eval(assignment);
        match self.rel {
            Relation::Le => !v.is_positive(),
            Relation::Eq => v.is_zero(),
            Relation::Ge => !v.is_negative(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64, d: i64) -> Rational {
        Rational::ratio(n, d)
    }

    #[test]
    fn terms_coalesce() {
        let mut e = LinExpr::var(3);
        e.add_term(3, r(2, 1));
        e.add_term(1, r(1, 2));
        assert_eq!(e.terms().count(), 2);
        e.add_term(3, r(-3, 1));
        assert_eq!(e.terms().count(), 1); // x3 coefficient hit zero
    }

    #[test]
    fn eval_with_constant() {
        let mut e = LinExpr::constant(r(5, 1));
        e.add_term(0, r(2, 1));
        e.add_term(1, r(-1, 1));
        let v = e.eval(&[r(3, 1), r(4, 1)]);
        assert_eq!(v, r(7, 1)); // 2*3 - 4 + 5
    }

    #[test]
    fn constraint_holds() {
        // x0 - 3 >= 0
        let mut e = LinExpr::var(0);
        e.add_constant(&r(-3, 1));
        let c = LinConstraint::new(e, Relation::Ge);
        assert!(c.holds(&[r(3, 1)]));
        assert!(c.holds(&[r(4, 1)]));
        assert!(!c.holds(&[r(2, 1)]));
    }
}
