//! Property tests for the annealing pipeline: embedding validity,
//! energy preservation under chains, and sampler invariants. Each
//! property is checked over a fixed, deterministic sweep of inputs
//! drawn from a SplitMix64 stream. The sweep also pins a digest of the
//! embeddings themselves (`embeddings_match_the_pinned_digest`).

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
        mix(self.0)
    }

    /// A value in `lo..hi`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo) as u64) as usize
    }

    /// True with probability `percent / 100`.
    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }

    /// Between `min_len` and `max_len - 1` vertex pairs, each endpoint
    /// in `0..bound`.
    fn edges(&mut self, bound: usize, min_len: usize, max_len: usize) -> Vec<(usize, usize)> {
        let len = self.range(min_len, max_len);
        (0..len).map(|_| (self.range(0, bound), self.range(0, bound))).collect()
    }
}

/// The SplitMix64 finalizer.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Logical adjacency over `n` vertices from an edge list (endpoints
/// taken mod `n`), without self-loops or repeats.
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

/// A path over a random labelling of `0..n`.
fn path(n: usize, rng: &mut SplitMix64) -> Vec<Vec<usize>> {
    let mut label: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        label.swap(i, rng.range(0, i + 1));
    }
    random_adj(n, &(1..n).map(|i| (label[i - 1], label[i])).collect::<Vec<_>>())
}

fn clique(n: usize) -> Vec<Vec<usize>> {
    random_adj(n, &(0..n).flat_map(|a| (a + 1..n).map(move |b| (a, b))).collect::<Vec<_>>())
}

/// Erdős–Rényi G(n, p) with `p = percent / 100`.
fn gnp(n: usize, percent: u64, rng: &mut SplitMix64) -> Vec<Vec<usize>> {
    let mut edges = Vec::new();
    for a in 0..n {
        for b in a + 1..n {
            if rng.chance(percent) {
                edges.push((a, b));
            }
        }
    }
    random_adj(n, &edges)
}

/// `cliques` copies of K_`size`, consecutive copies joined by one edge.
fn clique_chain(cliques: usize, size: usize) -> Vec<Vec<usize>> {
    let mut edges = Vec::new();
    for c in 0..cliques {
        let at = c * size;
        for a in 0..size {
            for b in a + 1..size {
                edges.push((at + a, at + b));
            }
        }
        if c + 1 < cliques {
            edges.push((at + size - 1, at + size));
        }
    }
    random_adj(cliques * size, &edges)
}

/// Two copies of Chimera(2, 2, 4) with no coupler between them.
fn two_islands() -> Topology {
    let half = Topology::chimera(2, 2, 4);
    let n = half.num_qubits();
    let mut couplers = Vec::new();
    for island in 0..2 {
        for a in 0..n {
            for &b in half.neighbors(a) {
                let b = b as usize;
                if a < b {
                    couplers.push((island * n + a, island * n + b));
                }
            }
        }
    }
    Topology::new("two_islands", 2 * n, &couplers)
}

/// Fold one instance's outcome into the digest.
fn fold(mut h: u64, outcome: Option<&[Vec<usize>]>) -> u64 {
    let mut put = |x: u64| h = mix(h ^ x);
    match outcome {
        None => put(u64::MAX),
        Some(chains) => {
            put(chains.len() as u64);
            for chain in chains {
                put(chain.len() as u64);
                for &q in chain {
                    put(q as u64);
                }
            }
        }
    }
    h
}

/// A pinned digest of `find_embedding` results over a fixed sweep of
/// seeded instances.
///
/// The embedder is a heuristic: any change to its search order, its
/// tie-breaking or its random draws yields different, equally valid
/// chains. Performance work on the router must keep embeddings
/// bit-identical, so this test folds every chain of every instance into
/// one 64-bit digest and compares it against a pinned value (the unit
/// tests in `embed.rs` check the router's early-stopped searches against
/// full-graph Dijkstra). The sweep mixes hardware graphs (Chimera,
/// Pegasus, Advantage, complete, and a disconnected one), logical
/// shapes (paths, cliques, G(n, p), clique chains), instances that fail
/// (`None`), and instances that run enough rip-up sweeps for the
/// overlap penalty to saturate at its cap.
///
/// Each instance is embedded with a single try, so the digest depends
/// only on the caller's seed and not on how later tries derive theirs.
#[test]
fn embeddings_match_the_pinned_digest() {
    let chimera = Topology::chimera(4, 4, 4);
    let pegasus = Topology::pegasus(6);
    let advantage = Topology::advantage_4_1();
    let islands = two_islands();
    let complete = [Topology::complete(5), Topology::complete(8)];
    let mut rng = SplitMix64(0x0e3b_ed00);
    let mut cases: Vec<(&Topology, Vec<Vec<usize>>)> = Vec::new();
    for _ in 0..4 {
        cases.push((&chimera, path(rng.range(4, 40), &mut rng)));
        cases.push((&chimera, clique(rng.range(3, 13))));
        let (n, p) = (rng.range(6, 24), rng.range(10, 45) as u64);
        cases.push((&chimera, gnp(n, p, &mut rng)));
        cases.push((&chimera, clique_chain(rng.range(2, 6), rng.range(3, 5))));
    }
    // At the edge of what the heuristic fits in 128 qubits: K17 takes
    // 23 rip-up sweeps, so the penalty base reaches its 2^40 cap, and
    // the dense G(40, 0.45) fails on an unreachable edge.
    cases.push((&chimera, clique(17)));
    cases.push((&chimera, gnp(40, 45, &mut rng)));
    for _ in 0..3 {
        let (n, p) = (rng.range(12, 40), rng.range(10, 30) as u64);
        cases.push((&pegasus, gnp(n, p, &mut rng)));
        cases.push((&pegasus, clique_chain(rng.range(3, 7), rng.range(3, 6))));
    }
    cases.push((&pegasus, clique(14)));
    cases.push((&advantage, clique_chain(4, 4)));
    cases.push((&advantage, gnp(16, 30, &mut rng)));
    for topo in &complete {
        let n = topo.num_qubits();
        cases.push((topo, clique(n)));
        // One variable too many for unit chains and too few qubits for
        // longer ones.
        cases.push((topo, clique(n + 1)));
        let m = rng.range(2, n + 1);
        cases.push((topo, gnp(m, 50, &mut rng)));
    }
    // A disconnected device: small instances fit on one island, larger
    // ones can only overlap.
    cases.push((&islands, path(20, &mut rng)));
    cases.push((&islands, clique_chain(2, 4)));
    cases.push((&islands, gnp(12, 40, &mut rng)));
    cases.push((&islands, clique(9)));
    cases.push((&islands, path(40, &mut rng)));

    let mut digest = 0;
    let mut failed = 0;
    for (i, (topo, adj)) in cases.iter().enumerate() {
        let seed = rng.next();
        let found = find_embedding(adj, topo, seed, 1);
        if let Some(e) = &found {
            assert!(e.is_valid(adj, topo), "case {i} on {}", topo.name());
        } else {
            failed += 1;
        }
        digest = fold(digest, found.as_ref().map(|e| e.chains()));
    }
    assert_eq!((cases.len(), failed), (38, 5), "case count and failures");
    assert_eq!(digest, 0x6656_1cc7_ab55_dea3, "embedding digest {digest:016x}");
}
