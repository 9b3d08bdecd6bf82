//! Closed-form p=1 QAOA expectation values.
//!
//! For a single QAOA layer on an Ising cost function, ⟨C⟩ has an exact
//! classical formula computable in `O(|V|·deg + |E|·deg)` time [Ozaeta,
//! van Dam, McMahon, *Quantum Sci. Technol.* 2022]. This is what lets
//! the simulated backend "run" 65-qubit QAOA instances (Figs. 8–10's
//! upper range) that no state vector can hold: parameter optimization
//! uses this evaluator, and only the final sampling step needs a
//! substitute (see `qaoa::GateModelDevice`).
//!
//! Convention note: our measurement decode maps bit 1 ↦ spin +1, so the
//! Pauli operator is `Z = −s`; the formulas below are applied with
//! negated fields to compensate (validated against the state-vector
//! simulator in the tests).

use nck_qubo::Ising;

/// Exact ⟨H⟩ for the p=1 QAOA state `e^{−iβB} e^{−iγC} |+⟩^n` built by
/// [`crate::qaoa::qaoa_circuit`] with these `beta`, `gamma`.
pub fn qaoa1_expectation(ising: &Ising, beta: f64, gamma: f64) -> f64 {
    let n = ising.num_spins();
    // Z-convention coefficients: H = Σ h'_j Z_j + Σ J_jk Z_j Z_k with
    // h' = −h (bit 1 ↦ s = +1 ↦ Z eigenvalue −1).
    let mut h = vec![0.0f64; n];
    for (i, f) in ising.fields() {
        h[i] = -f;
    }
    let mut j = vec![Vec::<(usize, f64)>::new(); n];
    for ((a, b), c) in ising.couplings() {
        j[a].push((b, c));
        j[b].push((a, c));
    }
    let coupling = |a: usize, b: usize| -> f64 {
        j[a].iter().find(|&&(k, _)| k == b).map(|&(_, c)| c).unwrap_or(0.0)
    };
    let s2b = (2.0 * beta).sin();
    let s4b = (4.0 * beta).sin();
    let s2b_sq = s2b * s2b;
    // ⟨Z_j⟩ = sin2β · sin(2γ h_j) · Π_k cos(2γ J_jk)
    let z1 = |q: usize| -> f64 {
        let mut prod = 1.0;
        for &(_, c) in &j[q] {
            prod *= (2.0 * gamma * c).cos();
        }
        s2b * (2.0 * gamma * h[q]).sin() * prod
    };
    // ⟨Z_a Z_b⟩ per Ozaeta–van Dam–McMahon.
    let z2 = |a: usize, b: usize, jab: f64| -> f64 {
        let prod_excl = |q: usize, excl: usize| -> f64 {
            let mut p = 1.0;
            for &(k, c) in &j[q] {
                if k != excl {
                    p *= (2.0 * gamma * c).cos();
                }
            }
            p
        };
        let term1 = 0.5
            * s4b
            * (2.0 * gamma * jab).sin()
            * ((2.0 * gamma * h[a]).cos() * prod_excl(a, b)
                + (2.0 * gamma * h[b]).cos() * prod_excl(b, a));
        // Products over every third spin l ≠ a, b of cos(2γ(J_al ± J_bl)).
        let mut prod_plus = 1.0;
        let mut prod_minus = 1.0;
        for l in 0..n {
            if l == a || l == b {
                continue;
            }
            let jal = coupling(a, l);
            let jbl = coupling(b, l);
            if jal == 0.0 && jbl == 0.0 {
                continue;
            }
            prod_plus *= (2.0 * gamma * (jal + jbl)).cos();
            prod_minus *= (2.0 * gamma * (jal - jbl)).cos();
        }
        let term2 = 0.5
            * s2b_sq
            * ((2.0 * gamma * (h[a] + h[b])).cos() * prod_plus
                - (2.0 * gamma * (h[a] - h[b])).cos() * prod_minus);
        term1 - term2
    };
    let mut e = ising.offset();
    for (q, _) in ising.fields() {
        e += h[q] * z1(q);
    }
    for ((a, b), c) in ising.couplings() {
        e += c * z2(a, b, c);
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qaoa::{qaoa_circuit, qaoa_expectation_sim};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn assert_matches_sim(ising: &Ising, beta: f64, gamma: f64) {
        let analytic = qaoa1_expectation(ising, beta, gamma);
        let sim = qaoa_expectation_sim(ising, &[beta], &[gamma]);
        assert!(
            (analytic - sim).abs() < 1e-9,
            "analytic {analytic} vs simulated {sim} at β={beta}, γ={gamma}"
        );
    }

    #[test]
    fn single_spin_field() {
        let mut ising = Ising::new(1);
        ising.add_field(0, 0.7);
        for (b, g) in [(0.3, 0.5), (0.9, -0.4), (1.2, 1.7)] {
            assert_matches_sim(&ising, b, g);
        }
    }

    #[test]
    fn afm_pair_no_fields() {
        let mut ising = Ising::new(2);
        ising.add_coupling(0, 1, 1.0);
        for (b, g) in [(0.4, 0.3), (0.25, 0.8), (1.0, 0.2)] {
            assert_matches_sim(&ising, b, g);
        }
    }

    #[test]
    fn pair_with_fields() {
        let mut ising = Ising::new(2);
        ising.add_coupling(0, 1, 0.6);
        ising.add_field(0, -0.5);
        ising.add_field(1, 0.8);
        ising.add_offset(2.5);
        for (b, g) in [(0.37, 0.51), (0.12, -0.9)] {
            assert_matches_sim(&ising, b, g);
        }
    }

    #[test]
    fn triangle_with_mixed_couplings() {
        let mut ising = Ising::new(3);
        ising.add_coupling(0, 1, 1.0);
        ising.add_coupling(1, 2, -0.7);
        ising.add_coupling(0, 2, 0.3);
        ising.add_field(1, 0.4);
        for (b, g) in [(0.5, 0.35), (0.8, -0.6)] {
            assert_matches_sim(&ising, b, g);
        }
    }

    #[test]
    fn random_instances_match_simulator() {
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 2001) as f64 / 1000.0 - 1.0
        };
        for n in [4usize, 6, 8] {
            let mut ising = Ising::new(n);
            for i in 0..n {
                if next() > 0.0 {
                    ising.add_field(i, next());
                }
                for j in i + 1..n {
                    if next() > 0.3 {
                        ising.add_coupling(i, j, next());
                    }
                }
            }
            for _ in 0..3 {
                let beta = next() * 1.5;
                let gamma = next() * 1.5;
                assert_matches_sim(&ising, beta, gamma);
            }
        }
        // Sparse 5-spin instances: up to 7 random couplings (self-pairs
        // dropped) over random fields, at random angles.
        for case in 0..32 {
            let mut rng = StdRng::seed_from_u64(case);
            let mut ising = Ising::new(5);
            for i in 0..5 {
                ising.add_field(i, rng.random_range(-1.0..1.0));
            }
            for _ in 0..rng.random_range(0..8) {
                let (a, b) = (rng.random_range(0..5), rng.random_range(0..5));
                let j = rng.random_range(-1.0..1.0);
                if a != b {
                    ising.add_coupling(a, b, j);
                }
            }
            let beta = rng.random_range(-1.5..1.5);
            assert_matches_sim(&ising, beta, rng.random_range(-1.5..1.5));
        }
    }

    #[test]
    fn zero_parameters_give_uniform_expectation() {
        // β = γ = 0 leaves |+⟩^n: every ⟨Z⟩ and ⟨ZZ⟩ vanish.
        let mut ising = Ising::new(3);
        ising.add_coupling(0, 1, 1.0);
        ising.add_field(2, 0.5);
        ising.add_offset(1.25);
        assert!((qaoa1_expectation(&ising, 0.0, 0.0) - 1.25).abs() < 1e-12);
    }

    #[test]
    fn scales_to_large_instances() {
        // 500-spin ring: far beyond any state vector; just confirm it
        // evaluates and is finite.
        let mut ising = Ising::new(500);
        for i in 0..500 {
            ising.add_coupling(i, (i + 1) % 500, 1.0);
        }
        // Antiferromagnetic ring: the best point on a small angle grid
        // is below zero (p=1 QAOA beats the uniform state).
        let mut best = f64::INFINITY;
        for bi in 1..8 {
            for gi in 1..8 {
                let e = qaoa1_expectation(&ising, bi as f64 * 0.2, gi as f64 * 0.2);
                assert!(e.is_finite());
                best = best.min(e);
            }
        }
        assert!(best < 0.0, "best grid point {best}");
    }

    #[test]
    fn doctest_circuit_and_formula_agree_with_multiple_layers_rejected() {
        // qaoa_expectation_sim with p=2 differs from the p=1 formula in
        // general — sanity-check they are *not* accidentally equal.
        let mut ising = Ising::new(2);
        ising.add_coupling(0, 1, 1.0);
        ising.add_field(0, 0.3);
        let p1 = qaoa1_expectation(&ising, 0.4, 0.6);
        let p2 = qaoa_expectation_sim(&ising, &[0.4, 0.2], &[0.6, 0.3]);
        assert!((p1 - p2).abs() > 1e-6);
        let _ = qaoa_circuit(&ising, &[0.4], &[0.6]);
    }
}
