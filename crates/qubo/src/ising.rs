//! Ising-model form of a quadratic binary problem.
//!
//! An Ising Hamiltonian `H(s) = Σᵢ hᵢsᵢ + Σᵢ<ⱼ Jᵢⱼsᵢsⱼ + c` over spins
//! `sᵢ ∈ {−1, +1}` is related to a QUBO by the linear substitution
//! `xᵢ = (1 + sᵢ)/2`. The annealing backend and the QAOA phase
//! separator both work in Ising form; the compiler works in QUBO form.

use crate::qubo::Qubo;
use std::collections::BTreeMap;

/// An Ising Hamiltonian over `num_spins` spins.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Ising {
    num_spins: usize,
    h: Vec<f64>,
    j: BTreeMap<(usize, usize), f64>,
    offset: f64,
}

impl Ising {
    /// The zero Hamiltonian over `num_spins` spins.
    pub fn new(num_spins: usize) -> Self {
        Ising { num_spins, h: vec![0.0; num_spins], j: BTreeMap::new(), offset: 0.0 }
    }

    /// Number of spins.
    pub fn num_spins(&self) -> usize {
        self.num_spins
    }

    /// Add a local field term `c·sᵢ`.
    pub fn add_field(&mut self, i: usize, c: f64) {
        assert!(i < self.num_spins, "spin {i} out of range");
        self.h[i] += c;
    }

    /// Add a coupling term `c·sᵢsⱼ` (requires `i ≠ j`; `s² = 1` means a
    /// same-spin product is just a constant).
    pub fn add_coupling(&mut self, i: usize, j: usize, c: f64) {
        assert!(i < self.num_spins && j < self.num_spins, "spin pair out of range");
        if i == j {
            self.offset += c; // s·s = 1
            return;
        }
        let key = (i.min(j), i.max(j));
        let e = self.j.entry(key).or_insert(0.0);
        *e += c;
        if *e == 0.0 {
            self.j.remove(&key);
        }
    }

    /// Add a constant.
    pub fn add_offset(&mut self, c: f64) {
        self.offset += c;
    }

    /// The constant offset.
    pub fn offset(&self) -> f64 {
        self.offset
    }

    /// Field on spin `i`.
    pub fn field(&self, i: usize) -> f64 {
        self.h[i]
    }

    /// Coupling between spins `i` and `j` (0 if absent).
    pub fn coupling(&self, i: usize, j: usize) -> f64 {
        if i == j {
            return 0.0;
        }
        self.j.get(&(i.min(j), i.max(j))).copied().unwrap_or(0.0)
    }

    /// Iterate nonzero couplings `((i, j), J)` with `i < j`.
    pub fn couplings(&self) -> impl Iterator<Item = ((usize, usize), f64)> + '_ {
        self.j.iter().map(|(&k, &v)| (k, v))
    }

    /// Iterate nonzero fields `(i, h)`.
    pub fn fields(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.h.iter().enumerate().filter(|(_, &c)| c != 0.0).map(|(i, &c)| (i, c))
    }

    /// Number of nonzero terms (fields + couplings).
    pub fn num_terms(&self) -> usize {
        self.h.iter().filter(|&&c| c != 0.0).count() + self.j.len()
    }

    /// Energy of a spin configuration (`true` = +1, `false` = −1).
    pub fn energy(&self, s: &[bool]) -> f64 {
        assert_eq!(s.len(), self.num_spins, "spin configuration length mismatch");
        let sp = |b: bool| if b { 1.0 } else { -1.0 };
        let mut e = self.offset;
        for (i, &c) in self.h.iter().enumerate() {
            e += c * sp(s[i]);
        }
        for (&(i, j), &c) in &self.j {
            e += c * sp(s[i]) * sp(s[j]);
        }
        e
    }

    /// [`energy`](Self::energy) of a configuration packed into the low
    /// bits of a `u64` (bit `i` set = spin `i` is +1), summed in the same
    /// order, so the two agree to the bit. Usable for up to 64 spins.
    pub fn energy_bits(&self, s: u64) -> f64 {
        debug_assert!(self.num_spins <= 64);
        let sp = |i: usize| if s >> i & 1 == 1 { 1.0 } else { -1.0 };
        let mut e = self.offset;
        for (i, &c) in self.h.iter().enumerate() {
            e += c * sp(i);
        }
        for (&(i, j), &c) in &self.j {
            e += c * sp(i) * sp(j);
        }
        e
    }

    /// Convert to QUBO form via `xᵢ = (1 + sᵢ)/2` ⇔ `sᵢ = 2xᵢ − 1`.
    pub fn to_qubo(&self) -> Qubo {
        let mut q = Qubo::new(self.num_spins);
        q.add_offset(self.offset);
        for (i, h) in self.fields() {
            // h·s = h·(2x − 1)
            q.add_linear(i, 2.0 * h);
            q.add_offset(-h);
        }
        for ((i, j), c) in self.couplings() {
            // J·sᵢsⱼ = J(2xᵢ−1)(2xⱼ−1) = 4J xᵢxⱼ − 2J xᵢ − 2J xⱼ + J
            q.add_quadratic(i, j, 4.0 * c);
            q.add_linear(i, -2.0 * c);
            q.add_linear(j, -2.0 * c);
            q.add_offset(c);
        }
        q
    }

    /// Largest absolute coefficient (field or coupling).
    pub fn max_abs_coeff(&self) -> f64 {
        let h = self.h.iter().fold(0.0f64, |m, c| m.max(c.abs()));
        let j = self.j.values().fold(0.0f64, |m, c| m.max(c.abs()));
        h.max(j)
    }
}

impl Qubo {
    /// Convert to Ising form via `xᵢ = (1 + sᵢ)/2`.
    pub fn to_ising(&self) -> Ising {
        let mut ising = Ising::new(self.num_vars());
        ising.add_offset(self.offset());
        for (i, a) in self.linear_terms() {
            // a·x = a(1 + s)/2
            ising.add_field(i, a / 2.0);
            ising.add_offset(a / 2.0);
        }
        for ((i, j), b) in self.quadratic_terms() {
            // b·xᵢxⱼ = b(1+sᵢ)(1+sⱼ)/4
            ising.add_coupling(i, j, b / 4.0);
            ising.add_field(i, b / 4.0);
            ising.add_field(j, b / 4.0);
            ising.add_offset(b / 4.0);
        }
        ising
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assignments(n: usize) -> impl Iterator<Item = Vec<bool>> {
        (0..1u64 << n).map(move |bits| (0..n).map(|i| bits >> i & 1 == 1).collect())
    }

    #[test]
    fn round_trip_preserves_energy() {
        let mut q = Qubo::new(3);
        q.add_linear(0, 1.0);
        q.add_linear(2, -2.5);
        q.add_quadratic(0, 1, 2.0);
        q.add_quadratic(1, 2, -1.0);
        q.add_offset(0.75);
        let ising = q.to_ising();
        let back = ising.to_qubo();
        for x in assignments(3) {
            // x=true corresponds to s=+1 under our convention
            assert!((q.energy(&x) - ising.energy(&x)).abs() < 1e-12, "qubo vs ising at {x:?}");
            assert!((q.energy(&x) - back.energy(&x)).abs() < 1e-12, "round trip at {x:?}");
        }
    }

    #[test]
    fn max_cut_ising_is_pure_couplings() {
        // Max cut on one edge: minimize s0·s1 (antiferromagnetic).
        let mut ising = Ising::new(2);
        ising.add_coupling(0, 1, 1.0);
        assert_eq!(ising.energy(&[true, false]), -1.0);
        assert_eq!(ising.energy(&[true, true]), 1.0);
        // In QUBO form this picks up linear terms — the paper's note
        // that max cut converts from O(|E|) Ising terms to
        // O(|E| + |V|) QUBO terms.
        let q = ising.to_qubo();
        assert_eq!(q.num_terms(), 3);
    }

    #[test]
    fn same_spin_coupling_is_constant() {
        let mut ising = Ising::new(1);
        ising.add_coupling(0, 0, 5.0);
        assert_eq!(ising.offset(), 5.0);
        assert_eq!(ising.num_terms(), 0);
    }

    #[test]
    fn coupling_symmetry_and_cancellation() {
        let mut ising = Ising::new(3);
        ising.add_coupling(2, 0, 1.0);
        assert_eq!(ising.coupling(0, 2), 1.0);
        ising.add_coupling(0, 2, -1.0);
        assert_eq!(ising.num_terms(), 0);
    }

    #[test]
    fn field_energy() {
        let mut ising = Ising::new(2);
        ising.add_field(0, 2.0);
        ising.add_field(1, -1.0);
        assert_eq!(ising.energy(&[true, true]), 1.0);
        assert_eq!(ising.energy(&[false, true]), -3.0);
    }

    #[test]
    fn qubo_to_ising_ground_state_preserved() {
        // f = ab - a - b: minima are the three assignments with >=1 true.
        let mut q = Qubo::new(2);
        q.add_quadratic(0, 1, 1.0);
        q.add_linear(0, -1.0);
        q.add_linear(1, -1.0);
        let ising = q.to_ising();
        let energies: Vec<f64> = assignments(2).map(|x| ising.energy(&x)).collect();
        let min = energies.iter().cloned().fold(f64::INFINITY, f64::min);
        let argmin: Vec<usize> = energies
            .iter()
            .enumerate()
            .filter(|(_, &e)| (e - min).abs() < 1e-12)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(argmin, vec![1, 2, 3]);
    }
}
