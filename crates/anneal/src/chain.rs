//! Applying an embedding: logical Ising → physical Ising, and samples
//! back (chain-break repair by majority vote).

use crate::embed::Embedding;
use crate::topology::Topology;
use nck_qubo::Ising;

/// A logical Ising problem mapped onto hardware qubits.
#[derive(Clone, Debug)]
pub struct EmbeddedIsing {
    /// The physical Ising over the full topology's qubits.
    pub physical: Ising,
    /// The embedding used.
    pub embedding: Embedding,
    /// Ferromagnetic chain coupling magnitude.
    pub chain_strength: f64,
}

/// D-Wave-style default chain strength: a constant factor above the
/// largest problem coefficient, so chains usually (but not always —
/// that is the noise channel the paper's mixed problems suffer from)
/// hold together.
pub fn suggested_chain_strength(logical: &Ising) -> f64 {
    let m = logical.max_abs_coeff();
    if m == 0.0 {
        1.0
    } else {
        1.5 * m
    }
}

/// Map `logical` onto hardware through `embedding`.
///
/// Fields are split evenly across a chain's qubits; each logical
/// coupling is split evenly across every available physical coupler
/// between the two chains; intra-chain couplers get `−chain_strength`.
pub fn embed_ising(
    logical: &Ising,
    embedding: &Embedding,
    topo: &Topology,
    chain_strength: f64,
) -> EmbeddedIsing {
    let mut physical = Ising::new(topo.num_qubits());
    for (v, h) in logical.fields() {
        let chain = embedding.chain(v);
        let share = h / chain.len() as f64;
        for &q in chain {
            physical.add_field(q, share);
        }
    }
    for ((u, v), j) in logical.couplings() {
        let cu = embedding.chain(u);
        let cv = embedding.chain(v);
        let couplers: Vec<(usize, usize)> = cu
            .iter()
            .flat_map(|&a| cv.iter().filter(move |&&b| topo.coupled(a, b)).map(move |&b| (a, b)))
            .collect();
        assert!(!couplers.is_empty(), "embedding does not cover logical edge ({u},{v})");
        let share = j / couplers.len() as f64;
        for (a, b) in couplers {
            physical.add_coupling(a, b, share);
        }
    }
    for chain in embedding.chains() {
        for (i, &a) in chain.iter().enumerate() {
            for &b in &chain[i + 1..] {
                if topo.coupled(a, b) {
                    physical.add_coupling(a, b, -chain_strength);
                }
            }
        }
    }
    EmbeddedIsing { physical, embedding: embedding.clone(), chain_strength }
}

impl EmbeddedIsing {
    /// Decode a physical sample into logical values by majority vote
    /// per chain (ties resolve to TRUE). Returns the logical sample and
    /// the number of broken chains.
    pub fn unembed(&self, physical_sample: &[bool]) -> (Vec<bool>, usize) {
        self.unembed_with(|q| physical_sample[q])
    }

    /// [`unembed`](Self::unembed) a physical sample given as the value
    /// `bit(q)` of each qubit `q`, for a caller that holds the sample
    /// in another layout.
    pub fn unembed_with(&self, bit: impl Fn(usize) -> bool) -> (Vec<bool>, usize) {
        let mut logical = Vec::with_capacity(self.embedding.num_logical());
        let mut broken = 0;
        for chain in self.embedding.chains() {
            let ups = chain.iter().filter(|&&q| bit(q)).count();
            if ups != 0 && ups != chain.len() {
                broken += 1;
            }
            logical.push(2 * ups >= chain.len());
        }
        (logical, broken)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embed::find_embedding;

    /// Antiferromagnetic pair: ground states are the two unequal spin
    /// configurations.
    fn afm_pair() -> Ising {
        let mut ising = Ising::new(2);
        ising.add_coupling(0, 1, 1.0);
        ising
    }

    #[test]
    fn unit_chain_embedding_is_identity() {
        let topo = Topology::complete(2);
        let adj = vec![vec![1], vec![0]];
        let e = find_embedding(&adj, &topo, 1, 4).unwrap();
        let logical = afm_pair();
        let emb = embed_ising(&logical, &e, &topo, 2.0);
        // Physical energies must match logical energies exactly.
        for s in [[false, false], [false, true], [true, false], [true, true]] {
            let (l, broken) = emb.unembed(&s);
            assert_eq!(broken, 0);
            assert_eq!(emb.physical.energy(&s), logical.energy(&l));
        }
    }

    #[test]
    fn chain_ground_state_preserves_logical_ground_state() {
        // Force a chain: path topology 0-1-2, logical AFM pair must map
        // one variable to a 2-qubit chain... build it explicitly.
        let topo = Topology::new("path3", 3, &[(0, 1), (1, 2)]);
        let e = crate::embed::Embedding::from_chains(vec![vec![0, 1], vec![2]]);
        let logical = afm_pair();
        assert!(e.is_valid(&[vec![1], vec![0]], &topo));
        let emb = embed_ising(&logical, &e, &topo, 2.0);
        // Exhaustive scan of the 8 physical states: the minimum must
        // unembed to a logical ground state with intact chains.
        let mut best = f64::INFINITY;
        let mut best_states = Vec::new();
        for bits in 0..8u64 {
            let s: Vec<bool> = (0..3).map(|i| bits >> i & 1 == 1).collect();
            let en = emb.physical.energy(&s);
            if en < best - 1e-12 {
                best = en;
                best_states.clear();
                best_states.push(s);
            } else if (en - best).abs() < 1e-12 {
                best_states.push(s);
            }
        }
        for s in best_states {
            let (l, broken) = emb.unembed(&s);
            assert_eq!(broken, 0, "ground state must not break chains");
            assert_eq!(logical.energy(&l), -1.0);
        }
    }

    #[test]
    fn coupling_split_preserves_total() {
        // Two chains with two parallel couplers between them: shares
        // must sum to the logical J.
        let topo = Topology::complete(4);
        let e = crate::embed::Embedding::from_chains(vec![vec![0, 1], vec![2, 3]]);
        let logical = afm_pair();
        let emb = embed_ising(&logical, &e, &topo, 3.0);
        let total: f64 = [(0, 2), (0, 3), (1, 2), (1, 3)]
            .iter()
            .map(|&(a, b)| emb.physical.coupling(a, b))
            .sum();
        assert!((total - 1.0).abs() < 1e-12);
        // Intra-chain couplers are ferromagnetic at chain strength.
        assert_eq!(emb.physical.coupling(0, 1), -3.0);
        assert_eq!(emb.physical.coupling(2, 3), -3.0);
    }

    #[test]
    fn field_split_preserves_total() {
        let topo = Topology::complete(3);
        let e = crate::embed::Embedding::from_chains(vec![vec![0, 1, 2]]);
        let mut logical = Ising::new(1);
        logical.add_field(0, 0.9);
        let emb = embed_ising(&logical, &e, &topo, 1.0);
        let total: f64 = (0..3).map(|q| emb.physical.field(q)).sum();
        assert!((total - 0.9).abs() < 1e-12);
    }

    #[test]
    fn majority_vote_counts_breaks() {
        let topo = Topology::complete(4);
        let e = crate::embed::Embedding::from_chains(vec![vec![0, 1, 2], vec![3]]);
        let logical = afm_pair();
        let emb = embed_ising(&logical, &e, &topo, 1.0);
        let (l, broken) = emb.unembed(&[true, true, false, false]);
        assert_eq!(broken, 1);
        assert_eq!(l, vec![true, false]); // 2 of 3 up → TRUE
        let (l, broken) = emb.unembed(&[true, true, true, true]);
        assert_eq!(broken, 0);
        assert_eq!(l, vec![true, true]);
    }

    #[test]
    fn suggested_strength_scales_with_problem() {
        let mut ising = Ising::new(2);
        ising.add_coupling(0, 1, 4.0);
        assert_eq!(suggested_chain_strength(&ising), 6.0);
        assert_eq!(suggested_chain_strength(&Ising::new(1)), 1.0);
    }
}
