//! Closed-form QUBO constructions that bypass the SMT search.
//!
//! The paper notes (§VI-B) that "constraints with a selection set of
//! {1} are trivial to convert to a QUBO, even for large variable
//! collections". The underlying identity works for any single-element
//! selection `{k}`: the squared deviation `(Σ mᵢxᵢ − k)²` is zero
//! exactly on satisfying assignments and at least 1 elsewhere (the
//! weighted count is an integer). We also shortcut selections that
//! cover every achievable count, which compile to the zero QUBO.

use crate::rqubo::RationalQubo;
use crate::search::{CompiledQubo, ConstraintShape};
use nck_smt::Rational;

/// Try to build a QUBO for `shape` without invoking the SMT search.
/// Returns `None` when no closed form applies.
pub fn closed_form(shape: &ConstraintShape) -> Option<CompiledQubo> {
    let d = shape.num_vars();
    // Case 1: the selection covers every achievable weighted count —
    // the constraint is a tautology; the zero QUBO is exact.
    if shape.achievable_counts().iter().all(|c| shape.selection.contains(c)) {
        return Some(CompiledQubo { qubo: RationalQubo::new(d), num_real: d, num_ancillas: 0 });
    }
    // Case 2: single-element selection {k}: (Σ mᵢxᵢ − k)².
    if shape.selection.len() == 1 {
        let k = *shape.selection.iter().next().unwrap() as i64;
        let mut q = RationalQubo::new(d);
        q.add_offset(Rational::from(k * k));
        for (i, &mi) in shape.multiplicities.iter().enumerate() {
            let m = mi as i64;
            // (m·x)² = m²·x plus the cross term with −k
            q.add_linear(i, Rational::from(m * m - 2 * k * m));
            for (j, &mj) in shape.multiplicities.iter().enumerate().skip(i + 1) {
                q.add_quadratic(i, j, Rational::from(2 * m * mj as i64));
            }
        }
        return Some(CompiledQubo { qubo: q, num_real: d, num_ancillas: 0 });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{verify, GapMode};
    use std::collections::BTreeSet;

    fn shape(mults: &[u32], sel: &[u32]) -> ConstraintShape {
        ConstraintShape {
            multiplicities: mults.to_vec(),
            selection: sel.iter().copied().collect::<BTreeSet<_>>(),
        }
    }

    #[test]
    fn exactly_k_is_squared_deviation() {
        for n in 1..=5usize {
            for k in 0..=n as u32 {
                let s = shape(&vec![1; n], &[k]);
                let c = closed_form(&s).expect("closed form for {{k}}");
                assert!(verify(&c, &s, GapMode::AtLeastOne), "invalid closed form n={n} k={k}");
                assert_eq!(c.num_ancillas, 0);
            }
        }
    }

    #[test]
    fn weighted_exactly_k() {
        // {a, a, b} with selection {2}: satisfied iff a TRUE, b FALSE.
        let s = shape(&[2, 1], &[2]);
        let c = closed_form(&s).unwrap();
        assert!(verify(&c, &s, GapMode::AtLeastOne));
        assert!(c.penalty(0b01).is_zero());
        assert!(c.penalty(0b11) >= Rational::one());
    }

    #[test]
    fn tautology_is_zero_qubo() {
        let s = shape(&[1, 1], &[0, 1, 2]);
        let c = closed_form(&s).unwrap();
        assert_eq!(c.qubo.num_terms(), 0);
        assert!(verify(&c, &s, GapMode::AtLeastOne));
    }

    #[test]
    fn tautology_with_multiplicity_gaps() {
        // {a, a}: achievable counts {0, 2}; selection {0, 2} is a
        // tautology even though 1 is missing.
        let s = shape(&[2], &[0, 2]);
        let c = closed_form(&s).unwrap();
        assert_eq!(c.qubo.num_terms(), 0);
        assert!(verify(&c, &s, GapMode::AtLeastOne));
    }

    #[test]
    fn no_closed_form_for_general_selection() {
        assert!(closed_form(&shape(&[1, 1], &[0, 2])).is_none());
        assert!(closed_form(&shape(&[1, 1, 1], &[1, 2])).is_none());
    }
}
