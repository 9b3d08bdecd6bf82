//! Property sweeps for the exact-arithmetic substrate, checked against
//! native integer oracles. Each property runs over `CASES` inputs drawn
//! from `StdRng::seed_from_u64(case)`; the integer `Rational`
//! properties also run over every pair of a boundary corpus that random
//! draws almost never hit.

use nck_smt::{simplex, LinConstraint, LinExpr, Rational, Relation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random cases per property.
const CASES: u64 = 256;

/// The `i64` extremes, small magnitudes, and the values around the
/// 32- and 64-bit boundaries, where sums and products leave `i64`.
const BOUNDARY: [i64; 14] = [
    i64::MIN,
    i64::MIN + 1,
    i64::MAX,
    0,
    1,
    -1,
    2,
    -2,
    1 << 32,
    -(1 << 32),
    (1 << 32) - 1,
    -((1 << 32) - 1),
    1 << 62,
    i32::MIN as i64,
];

/// `CASES` pairs from `draw`, then every ordered pair of `BOUNDARY`.
fn pairs(draw: impl Fn(&mut StdRng) -> i64) -> impl Iterator<Item = (i64, i64)> {
    let random = (0..CASES).map(move |case| {
        let mut rng = StdRng::seed_from_u64(case);
        (draw(&mut rng), draw(&mut rng))
    });
    let boundary = BOUNDARY.iter().flat_map(|&a| BOUNDARY.iter().map(move |&b| (a, b)));
    random.chain(boundary)
}

fn any_i64(rng: &mut StdRng) -> i64 {
    rng.random::<u64>() as i64
}

fn any_i32(rng: &mut StdRng) -> i32 {
    rng.random::<u32>() as i32
}

/// A rational `n/d` with `n` any `i32` and `d` in `1..1000`.
fn any_ratio(rng: &mut StdRng) -> Rational {
    let n = any_i32(rng);
    Rational::ratio(n as i64, rng.random_range(1i64..1000))
}

/// The integer `v` as a `Rational`: the oracle side of the sweeps below.
fn int(v: i128) -> Rational {
    Rational::new(v, 1)
}

#[test]
fn rational_add_matches_i128() {
    for (a, b) in pairs(any_i64) {
        let sum = &Rational::from(a) + &Rational::from(b);
        assert_eq!(sum, int(a as i128 + b as i128), "{a} + {b}");
    }
}

#[test]
fn rational_sub_matches_i128() {
    for (a, b) in pairs(any_i64) {
        let diff = &Rational::from(a) - &Rational::from(b);
        assert_eq!(diff, int(a as i128 - b as i128), "{a} - {b}");
    }
}

#[test]
fn rational_mul_matches_i128() {
    for (a, b) in pairs(any_i64) {
        let prod = &Rational::from(a) * &Rational::from(b);
        assert_eq!(prod, int(a as i128 * b as i128), "{a} · {b}");
    }
}

#[test]
fn rational_ordering_matches_i64() {
    for (a, b) in pairs(any_i64) {
        assert_eq!(Rational::from(a).cmp(&Rational::from(b)), a.cmp(&b), "{a} vs {b}");
    }
}

/// Past `i128` the arithmetic panics with one message; it never wraps.
#[test]
#[should_panic(expected = "Rational overflowed i128")]
fn i128_range_sum_panics() {
    let _ = &int(i128::MAX) + &Rational::one();
}

#[test]
#[should_panic(expected = "Rational overflowed i128")]
fn i128_range_product_panics() {
    let _ = &int(1 << 64) * &int(1 << 64);
}

#[test]
fn rational_field_axioms() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let (a, b, c) = (any_ratio(&mut rng), any_ratio(&mut rng), any_ratio(&mut rng));
        // Commutativity and associativity.
        assert_eq!(&a + &b, &b + &a, "case {case}");
        assert_eq!(&a * &b, &b * &a, "case {case}");
        assert_eq!(&(&a + &b) + &c, &a + &(&b + &c), "case {case}");
        // Distributivity.
        assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c), "case {case}");
        // Subtraction inverts addition.
        assert_eq!(&(&a + &b) - &b, a, "case {case}");
        // Reciprocal.
        if !b.is_zero() {
            assert_eq!(&(&a / &b) * &b, a, "case {case}");
        }
    }
}

#[test]
fn rational_ordering_consistent_with_f64() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let (an, ad) = (rng.random_range(-1000i64..1000), rng.random_range(1i64..1000));
        let (bn, bd) = (rng.random_range(-1000i64..1000), rng.random_range(1i64..1000));
        let a = Rational::ratio(an, ad);
        let b = Rational::ratio(bn, bd);
        let fa = an as f64 / ad as f64;
        let fb = bn as f64 / bd as f64;
        if (fa - fb).abs() > 1e-9 {
            assert_eq!(a < b, fa < fb, "{an}/{ad} vs {bn}/{bd}");
        }
    }
}

/// Random interval systems: the LP is feasible iff every variable's
/// interval is non-empty, and the witness lies in every interval.
#[test]
fn simplex_on_random_box_systems() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let n = rng.random_range(1usize..5);
        let bounds: Vec<(i64, i64)> =
            (0..n).map(|_| (rng.random_range(-50i64..50), rng.random_range(-50i64..50))).collect();
        let mut rows = Vec::new();
        // An interval given as (a, b) with a > b is left inverted:
        // x ≥ a and x ≤ b admit no x.
        let feasible = bounds.iter().all(|&(a, b)| a <= b);
        for (i, &(lo, hi)) in bounds.iter().enumerate() {
            let mut e = LinExpr::var(i);
            e.add_constant(&Rational::from(-lo));
            rows.push(LinConstraint::new(e, Relation::Ge));
            let mut e = LinExpr::var(i);
            e.add_constant(&Rational::from(-hi));
            rows.push(LinConstraint::new(e, Relation::Le));
        }
        match simplex::feasible(n, &rows.iter().collect::<Vec<_>>()) {
            Some(w) => {
                assert!(feasible, "case {case}: infeasible {bounds:?} declared feasible");
                for (i, &(lo, hi)) in bounds.iter().enumerate() {
                    assert!(
                        w[i] >= Rational::from(lo) && w[i] <= Rational::from(hi),
                        "case {case}: witness outside {bounds:?}"
                    );
                }
            }
            None => {
                assert!(!feasible, "case {case}: feasible {bounds:?} declared infeasible")
            }
        }
    }
}

/// Random equality systems Ax = b with known solution x*: the
/// simplex must find some solution (witness check), and never
/// declare infeasibility.
#[test]
fn simplex_solves_consistent_equalities() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let n = rng.random_range(2usize..5);
        let xstar: Vec<i64> = (0..n).map(|_| rng.random_range(-20i64..20)).collect();
        let num_rows = rng.random_range(1usize..5);
        let rows: Vec<Vec<i64>> = (0..num_rows)
            .map(|_| {
                let len = rng.random_range(2usize..5);
                (0..len).map(|_| rng.random_range(-5i64..5)).collect()
            })
            .collect();
        let mut constraints = Vec::new();
        for row in &rows {
            let mut e = LinExpr::zero();
            let mut rhs = 0i64;
            for (i, &x) in xstar.iter().enumerate() {
                let c = row.get(i).copied().unwrap_or(0);
                e.add_term(i, Rational::from(c));
                rhs += c * x;
            }
            e.add_constant(&Rational::from(-rhs));
            constraints.push(LinConstraint::new(e, Relation::Eq));
        }
        match simplex::feasible(n, &constraints.iter().collect::<Vec<_>>()) {
            Some(w) => {
                for c in &constraints {
                    assert!(c.holds(&w), "case {case}: witness violates {c:?}");
                }
            }
            None => panic!("case {case}: consistent system declared infeasible"),
        }
    }
}
