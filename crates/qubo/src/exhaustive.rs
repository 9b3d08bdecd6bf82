//! Exhaustive (brute-force) QUBO solving.
//!
//! The test suite and the optimality classifier both need ground truth
//! for small problems: one pass over the `2ⁿ` assignments in ascending
//! order.

use crate::qubo::Qubo;

/// Result of an exhaustive minimization.
#[derive(Clone, Debug, PartialEq)]
pub struct ExhaustiveResult {
    /// The minimum energy found.
    pub min_energy: f64,
    /// Every assignment (bit `i` = variable `i`) attaining the minimum,
    /// in increasing numeric order.
    pub minimizers: Vec<u64>,
}

impl ExhaustiveResult {
    /// Decode minimizer `idx` into a boolean vector of length `n`.
    pub fn decode(&self, idx: usize, n: usize) -> Vec<bool> {
        let bits = self.minimizers[idx];
        (0..n).map(|i| bits >> i & 1 == 1).collect()
    }
}

/// Absolute tolerance when comparing energies of floating-point QUBOs.
pub const ENERGY_EPS: f64 = 1e-9;

/// Exhaustively minimize `q` over all `2^num_vars` assignments.
///
/// Panics if `num_vars > 30` — beyond that the enumeration is too large
/// to be useful as ground truth.
pub fn solve_exhaustive(q: &Qubo) -> ExhaustiveResult {
    let n = q.num_vars();
    assert!(n <= 30, "exhaustive solve limited to 30 variables, got {n}");
    let mut best = f64::INFINITY;
    let mut minimizers = Vec::new();
    for bits in 0..1u64 << n {
        let e = q.energy_bits(bits);
        if e < best - ENERGY_EPS {
            best = e;
            minimizers.clear();
            minimizers.push(bits);
        } else if e <= best + ENERGY_EPS {
            best = best.min(e);
            minimizers.push(bits);
        }
    }
    // A point admitted within ENERGY_EPS of the running minimum can end
    // up above the final one when the minimum later falls by less than
    // ENERGY_EPS; keep exactly `{x : E(x) ≤ min + ENERGY_EPS}`.
    minimizers.retain(|&bits| q.energy_bits(bits) <= best + ENERGY_EPS);
    ExhaustiveResult { min_energy: best, minimizers }
}

/// Exhaustively *maximize* `q` (used for computing the worst-case soft
/// penalty when weighting hard constraints).
pub fn max_energy(q: &Qubo) -> f64 {
    let n = q.num_vars();
    assert!(n <= 30, "exhaustive max limited to 30 variables, got {n}");
    (0u64..1 << n).map(|bits| q.energy_bits(bits)).fold(f64::NEG_INFINITY, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_unique_minimum() {
        // f = x0 + x1 - 3 x0 x1: min at (1,1) with energy -1
        let mut q = Qubo::new(2);
        q.add_linear(0, 1.0);
        q.add_linear(1, 1.0);
        q.add_quadratic(0, 1, -3.0);
        let r = solve_exhaustive(&q);
        assert_eq!(r.min_energy, -1.0);
        assert_eq!(r.minimizers, vec![0b11]);
        assert_eq!(r.decode(0, 2), vec![true, true]);
    }

    #[test]
    fn finds_all_degenerate_minima() {
        // f = ab - a - b: minima {01, 10, 11} at energy -1
        let mut q = Qubo::new(2);
        q.add_quadratic(0, 1, 1.0);
        q.add_linear(0, -1.0);
        q.add_linear(1, -1.0);
        let r = solve_exhaustive(&q);
        assert_eq!(r.min_energy, -1.0);
        assert_eq!(r.minimizers, vec![0b01, 0b10, 0b11]);
    }

    #[test]
    fn zero_qubo_all_assignments_minimize() {
        let q = Qubo::new(3);
        let r = solve_exhaustive(&q);
        assert_eq!(r.min_energy, 0.0);
        assert_eq!(r.minimizers.len(), 8);
    }

    #[test]
    fn minimizers_are_the_eps_band_on_a_larger_instance() {
        // A pseudo-random 16-variable QUBO; compare against the
        // contract computed in two passes: the minimum, then every
        // assignment within ENERGY_EPS of it.
        let mut q = Qubo::new(16);
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 17) as f64 - 8.0
        };
        for i in 0..16 {
            q.add_linear(i, next());
            for j in i + 1..16 {
                if next() > 4.0 {
                    q.add_quadratic(i, j, next());
                }
            }
        }
        let r = solve_exhaustive(&q);
        let energies: Vec<f64> = (0..1u64 << 16).map(|bits| q.energy_bits(bits)).collect();
        let best = energies.iter().copied().fold(f64::INFINITY, f64::min);
        let mins: Vec<u64> =
            (0..1u64 << 16).filter(|&b| energies[b as usize] <= best + ENERGY_EPS).collect();
        assert_eq!(r.min_energy, best);
        assert_eq!(r.minimizers, mins);
    }

    #[test]
    fn max_energy_is_negated_min_of_negation() {
        let mut q = Qubo::new(4);
        q.add_linear(0, 2.0);
        q.add_linear(3, -1.0);
        q.add_quadratic(1, 2, 5.0);
        let max = max_energy(&q);
        let mut neg = q.clone();
        neg.scale(-1.0);
        let r = solve_exhaustive(&neg);
        assert_eq!(max, -r.min_energy);
    }

    #[test]
    #[should_panic(expected = "limited to 30 variables")]
    fn too_many_variables_panics() {
        let q = Qubo::new(31);
        let _ = solve_exhaustive(&q);
    }
}
