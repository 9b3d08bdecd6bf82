//! Property sweeps for QAOA invariants on random Ising instances, each
//! over `CASES` inputs drawn from `StdRng::seed_from_u64(case)`.
//! Unitarity, transpile semantics and the analytic p=1 formula are swept
//! by the unit tests in `state.rs`, `transpile.rs` and `analytic.rs`.

use nck_circuit::{qaoa_circuit, qaoa_expectation_sim};
use nck_qubo::Ising;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Cases per property.
const CASES: u64 = 32;

/// An `n`-spin Ising with `min_len..max_len` random couplings of
/// strength in `-1..1`; self-pairs are dropped.
fn random_couplings(rng: &mut StdRng, n: usize, min_len: usize, max_len: usize) -> Ising {
    let mut ising = Ising::new(n);
    for _ in 0..rng.random_range(min_len..max_len) {
        let (a, b) = (rng.random_range(0..n), rng.random_range(0..n));
        let j = rng.random_range(-1.0..1.0);
        if a != b {
            ising.add_coupling(a, b, j);
        }
    }
    ising
}

/// QAOA expectation is bounded by the spectrum of the Hamiltonian.
#[test]
fn qaoa_expectation_within_spectrum() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let ising = random_couplings(&mut rng, 6, 1, 10);
        let (beta, gamma) = (rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0));
        let e = qaoa_expectation_sim(&ising, &[beta], &[gamma]);
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for bits in 0..1u64 << 6 {
            let s: Vec<bool> = (0..6).map(|q| bits >> q & 1 == 1).collect();
            let v = ising.energy(&s);
            lo = lo.min(v);
            hi = hi.max(v);
        }
        assert!(e >= lo - 1e-9 && e <= hi + 1e-9, "case {case}: {e} outside [{lo}, {hi}]");
    }
}

/// The QAOA circuit for any Ising is measurement-normalized and its
/// depth grows with layers.
#[test]
fn qaoa_layers_deepen() {
    for case in 0..CASES {
        let ising = random_couplings(&mut StdRng::seed_from_u64(case), 4, 1, 5);
        let c1 = qaoa_circuit(&ising, &[0.3], &[0.5]);
        let c2 = qaoa_circuit(&ising, &[0.3, 0.2], &[0.5, 0.4]);
        assert!(c2.depth() > c1.depth(), "case {case}");
        assert_eq!(c2.num_gates(), 2 * c1.num_gates() - 4, "case {case}"); // H layer shared
    }
}
