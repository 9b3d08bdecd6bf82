//! Property sweeps over the core pipeline invariants. Random inputs
//! come from `StdRng::seed_from_u64(case)`; the compiler properties run
//! over fixed corpora instead, because an SMT compile that needs an
//! ancilla costs a tenth of a second to seconds in a debug build.

use nck_compile::{compile, find_qubo, verify, CompilerOptions, ConstraintShape, GapMode};
use nck_core::Program;
use nck_qubo::{solve_exhaustive, Qubo};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Random cases per property.
const CASES: u64 = 64;

/// Every satisfiable shape of cardinality ≤ 3 (six of them need an
/// ancilla), then three 0-ancilla shapes of cardinality 4; a 1-ancilla
/// shape of cardinality 4 costs seconds per compile in a debug build.
/// Multiplicities are listed in ascending order, the only order
/// `compile` hands to `find_qubo`.
fn shape_corpus() -> Vec<ConstraintShape> {
    let small = [vec![1], vec![2], vec![1, 1], vec![1, 2], vec![1, 1, 1]];
    let mut shapes = Vec::new();
    for multiplicities in small {
        let cardinality: u32 = multiplicities.iter().sum();
        for mask in 1u32..1 << (cardinality + 1) {
            let selection = (0..=cardinality).filter(|c| mask >> c & 1 == 1).collect();
            shapes.push(ConstraintShape { multiplicities: multiplicities.clone(), selection });
        }
    }
    shapes.retain(ConstraintShape::satisfiable);
    let four: [(&[u32], &[u32]); 3] =
        [(&[2, 2], &[0, 2, 4]), (&[1, 1, 2], &[2]), (&[1, 1, 2], &[0, 1, 3, 4])];
    shapes.extend(four.iter().map(|(m, s)| ConstraintShape {
        multiplicities: m.to_vec(),
        selection: s.iter().copied().collect(),
    }));
    shapes
}

/// Every satisfiable shape compiles to a QUBO whose penalties are
/// exactly 0 on satisfying assignments and ≥ 1 elsewhere — the
/// compiler's core soundness contract, re-verified independently.
#[test]
fn compiled_constraint_qubos_are_sound() {
    let shapes = shape_corpus();
    assert_eq!(shapes.len(), 46 + 3);
    for shape in &shapes {
        let compiled =
            find_qubo(shape, GapMode::AtLeastOne).expect("satisfiable shape must compile");
        assert!(verify(&compiled, shape, GapMode::AtLeastOne), "invalid table for {shape:?}");
    }
}

/// QUBO ↔ Ising round trip preserves energies on every assignment.
#[test]
fn qubo_ising_round_trip() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let n = rng.random_range(1usize..6);
        let mut q = Qubo::new(n);
        for i in 0..n {
            q.add_linear(i, rng.random_range(-5.0..5.0));
        }
        for _ in 0..rng.random_range(0..8) {
            let (a, b) = (rng.random_range(0..6) % n, rng.random_range(0..6) % n);
            let c = rng.random_range(-5.0..5.0);
            if a != b {
                q.add_quadratic(a, b, c);
            }
        }
        q.add_offset(rng.random_range(-3.0..3.0));
        let round = q.to_ising().to_qubo();
        for bits in 0..1u64 << n {
            let d = (q.energy_bits(bits) - round.energy_bits(bits)).abs();
            assert!(d < 1e-9, "case {case}, bits {bits:b}: {d}");
        }
    }
}

/// Scaling a QUBO by a positive factor never changes its minimizer
/// set.
#[test]
fn positive_scaling_preserves_minimizers() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let n = rng.random_range(2usize..6);
        let mut q = Qubo::new(n);
        for i in 0..n {
            let c = rng.random_range(-4.0..4.0);
            q.add_linear(i, c);
            if i + 1 < n {
                q.add_quadratic(i, i + 1, c / 2.0);
            }
        }
        let before = solve_exhaustive(&q).minimizers;
        let mut scaled = q.clone();
        scaled.scale(rng.random_range(0.1..50.0));
        assert_eq!(before, solve_exhaustive(&scaled).minimizers, "case {case}");
    }
}

/// A mixed program of `m` constraints over `n` variables, each over
/// two or three (possibly repeated) variables, built from `seed`.
fn random_program(seed: u64, n: usize, m: usize) -> Program {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut p = Program::new();
    let vs = p.new_vars("v", n).unwrap();
    for _ in 0..m {
        let a = vs[(next() % n as u64) as usize];
        let b = vs[(next() % n as u64) as usize];
        let mut col = vec![a, b];
        if next() % 2 == 0 {
            col.push(vs[(next() % n as u64) as usize]);
        }
        let card = col.len() as u32;
        let mut sel: Vec<u32> = (0..=card).filter(|_| next() % 2 == 0).collect();
        if sel.is_empty() {
            sel.push((next() % (card as u64 + 1)) as u32);
        }
        if next() % 3 == 0 {
            p.nck_soft(col, sel).unwrap();
        } else {
            p.nck(col, sel).unwrap();
        }
    }
    p
}

/// Programs per sweep of `solver_compiler_brute_agree`, beyond the
/// stored regression case.
const PROGRAMS: u64 = 12;

/// For random mixed programs, the branch-and-bound solver and brute
/// force agree on the soft optimum, and the compiled QUBO's ground
/// states project onto exactly the optimal assignments.
#[test]
fn solver_compiler_brute_agree() {
    // A case that once failed, then `PROGRAMS` drawn (seed, n, m).
    let stored = (12228516818195466324, 5, 2);
    let drawn = (0..PROGRAMS).map(|case| {
        let mut rng = StdRng::seed_from_u64(case);
        (rng.random::<u64>(), rng.random_range(3usize..6), rng.random_range(1usize..5))
    });
    for (seed, n, m) in std::iter::once(stored).chain(drawn) {
        let p = random_program(seed, n, m);
        let brute = nck_classical::solve_brute(&p);
        let solved = nck_classical::max_soft_satisfiable(&p);
        match (&brute, solved) {
            (None, None) => {}
            (Some(b), Some(s)) => {
                assert_eq!(b.max_soft, s, "{p}");
                // The compiler rejects a soft constraint that no
                // assignment satisfies, even in a program brute force
                // solves.
                if let Ok(compiled) = compile(&p, &CompilerOptions::default()) {
                    if compiled.num_qubo_vars() <= 16 {
                        let r = solve_exhaustive(&compiled.qubo);
                        let mask = (1u64 << n) - 1;
                        let projected: HashSet<u64> =
                            r.minimizers.iter().map(|&x| x & mask).collect();
                        let expected: HashSet<u64> = b.optima.iter().copied().collect();
                        assert_eq!(projected, expected, "{p}");
                    }
                }
            }
            _ => panic!("solver {solved:?} vs brute {brute:?} on {p}"),
        }
    }
}
