//! Property tests for the annealing pipeline: embedding validity,
//! energy preservation under chains, and sampler invariants. Each
//! property is checked over a fixed, deterministic sweep of inputs
//! drawn from a SplitMix64 stream.

use nck_anneal::{embed_ising, find_embedding, sample_ising, NoiseModel, SaParams, Topology};
use nck_qubo::Ising;

/// Cases per property.
const CASES: u64 = 32;

/// SplitMix64 (Steele, Lea & Flood): a seeded stream of well-mixed
/// 64-bit values.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `lo..hi`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo) as u64) as usize
    }

    /// Between `min_len` and `max_len - 1` vertex pairs, each endpoint
    /// in `0..bound`.
    fn edges(&mut self, bound: usize, min_len: usize, max_len: usize) -> Vec<(usize, usize)> {
        let len = self.range(min_len, max_len);
        (0..len).map(|_| (self.range(0, bound), self.range(0, bound))).collect()
    }
}

/// Random sparse logical graph over `n` vertices.
fn random_adj(n: usize, edges: &[(usize, usize)]) -> Vec<Vec<usize>> {
    let mut adj = vec![Vec::new(); n];
    for &(a, b) in edges {
        let (a, b) = (a % n, b % n);
        if a != b && !adj[a].contains(&b) {
            adj[a].push(b);
            adj[b].push(a);
        }
    }
    adj
}

/// Whatever the embedder returns must validate: disjoint connected
/// chains, every logical edge covered.
#[test]
fn found_embeddings_are_valid() {
    let topo = Topology::chimera(3, 3, 4);
    let mut embedded = 0;
    for case in 0..CASES {
        let mut rng = SplitMix64(case);
        let n = rng.range(2, 12);
        let edges = rng.edges(12, 0, 20);
        let seed = rng.next();
        let adj = random_adj(n, &edges);
        if let Some(e) = find_embedding(&adj, &topo, seed, 5) {
            assert!(e.is_valid(&adj, &topo), "case {case}");
            assert_eq!(e.num_logical(), n, "case {case}");
            assert!(e.num_physical() >= n, "case {case}");
            embedded += 1;
        }
    }
    assert!(embedded > CASES / 2, "only {embedded} of {CASES} cases embedded");
}

/// With intact chains, the embedded physical energy equals the
/// logical energy plus the constant chain bonus.
#[test]
fn intact_chain_energy_matches_logical() {
    let topo = Topology::chimera(3, 3, 4);
    let mut embedded = 0;
    for case in 0..CASES {
        let mut rng = SplitMix64(case ^ 0x5eed);
        let n = rng.range(2, 8);
        let edges = rng.edges(8, 1, 12);
        let spins = rng.next();
        let seed = rng.next();
        let adj = random_adj(n, &edges);
        let Some(e) = find_embedding(&adj, &topo, seed, 5) else {
            continue;
        };
        let mut logical = Ising::new(n);
        for (u, nbrs) in adj.iter().enumerate() {
            logical.add_field(u, (u as f64 * 0.3) - 0.5);
            for &v in nbrs {
                if v > u {
                    logical.add_coupling(u, v, 1.0 - (v as f64) * 0.1);
                }
            }
        }
        let strength = 5.0;
        let emb = embed_ising(&logical, &e, &topo, strength);
        // Build a physical state with every chain intact.
        let mut phys = vec![false; topo.num_qubits()];
        for (v, chain) in e.chains().iter().enumerate() {
            let s = spins >> v & 1 == 1;
            for &q in chain {
                phys[q] = s;
            }
        }
        let (decoded, broken) = emb.unembed(&phys);
        assert_eq!(broken, 0, "case {case}");
        let logical_state: Vec<bool> = (0..n).map(|v| spins >> v & 1 == 1).collect();
        assert_eq!(decoded, logical_state, "case {case}");
        // Physical energy = logical energy − strength·(#intra-chain couplers).
        let chain_couplers: usize = e
            .chains()
            .iter()
            .map(|chain| {
                let mut c = 0;
                for (i, &a) in chain.iter().enumerate() {
                    for &b in &chain[i + 1..] {
                        if topo.coupled(a, b) {
                            c += 1;
                        }
                    }
                }
                c
            })
            .sum();
        let expect = logical.energy(&logical_state) - strength * chain_couplers as f64;
        assert!((emb.physical.energy(&phys) - expect).abs() < 1e-9, "case {case}");
        embedded += 1;
    }
    assert!(embedded > CASES / 2, "only {embedded} of {CASES} cases embedded");
}

/// The sampler returns the requested number of full-length reads and
/// is deterministic in its seed.
#[test]
fn sampler_shape_and_determinism() {
    for case in 0..CASES {
        let mut rng = SplitMix64(case ^ 0xa11ce);
        let n = rng.range(1, 10);
        let reads = rng.range(1, 8);
        let seed = rng.next();
        let mut ising = Ising::new(n);
        for i in 0..n {
            ising.add_field(i, if i % 2 == 0 { -0.7 } else { 0.4 });
        }
        let p = SaParams { num_sweeps: 8, ..SaParams::default() };
        let a = sample_ising(&ising, &p, &NoiseModel::dwave_default(), reads, seed);
        let b = sample_ising(&ising, &p, &NoiseModel::dwave_default(), reads, seed);
        assert_eq!(a.len(), reads, "case {case}");
        assert!(a.iter().all(|s| s.len() == n), "case {case}");
        assert_eq!(a, b, "case {case}");
    }
}
