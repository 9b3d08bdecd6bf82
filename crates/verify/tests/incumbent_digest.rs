//! Pins the classical branch and bound's answers bit for bit: an FNV-1a
//! digest of every incumbent the search records (its assignment and
//! violated weight) and of the final outcome, over a seeded corpus.
//!
//! The solver's pruning bounds are admissible, so a tighter bound only
//! cuts subtrees that hold no strictly better leaf: an untruncated
//! search records the same incumbent sequence whatever the bound. A
//! bound change must leave [`PINNED`] unchanged; only node counts may
//! move.

use nck_classical::{solve_resumable, SolveOutcome, SolverOptions};
use nck_core::Program;
use nck_exec::CancelToken;
use nck_problems::{Graph, KSat, MapColoring, MaxCut, MinSetCover, MinVertexCover};
use nck_verify::corpus;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// FNV-1a digest of every incumbent sequence and outcome in [`programs`].
const PINNED: u64 = 0x695a_d864_3f11_d558;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// A length-prefixed assignment, one byte per variable.
    fn bits(&mut self, bits: &[bool]) {
        self.u64(bits.len() as u64);
        for &b in bits {
            self.bytes(&[u8::from(b)]);
        }
    }
}

/// `g` with its vertices renamed by a seeded permutation.
fn relabel(g: &Graph, rng: &mut StdRng) -> Graph {
    let mut perm: Vec<usize> = (0..g.num_vertices()).collect();
    perm.shuffle(rng);
    Graph::new(g.num_vertices(), g.edges().iter().map(|&(u, v)| (perm[u], perm[v])))
}

/// Minimum vertex cover with a random weight in `1..=4` per vertex.
fn weighted_cover(g: &Graph, rng: &mut StdRng) -> Program {
    let mut p = Program::new();
    let vs = p.new_vars("v", g.num_vertices()).unwrap();
    for &(u, v) in g.edges() {
        p.nck(vec![vs[u], vs[v]], [1, 2]).unwrap();
    }
    for &v in &vs {
        p.nck_soft_weighted(vec![v], [0], rng.random_range(1..=4)).unwrap();
    }
    p
}

/// A set cover of `elements` elements by random subsets of 2–4
/// elements, plus one subset per element so every element is covered.
fn set_cover(elements: usize, subsets: usize, rng: &mut StdRng) -> MinSetCover {
    let mut sets: Vec<Vec<usize>> = (0..subsets)
        .map(|_| {
            let mut pool: Vec<usize> = (0..elements).collect();
            pool.shuffle(rng);
            pool.truncate(rng.random_range(2..=4));
            pool.sort_unstable();
            pool
        })
        .collect();
    for e in 0..elements {
        if !sets.iter().any(|s| s.contains(&e)) {
            sets.push(vec![e]);
        }
    }
    MinSetCover::new(elements, sets)
}

/// The pinned corpus: Fig. 12's circulants up to 40 vertices, the
/// paper's clique chains, nck-verify's seeded programs, and larger
/// seeded instances of the paper's families.
fn programs() -> Vec<Program> {
    let mut out = Vec::new();
    for n in 5..=40 {
        out.push(MinVertexCover::new(Graph::circulant(n, 4)).program());
    }
    for k in 1..=12 {
        out.push(MinVertexCover::new(Graph::clique_chain(k)).program());
        out.push(MaxCut::new(Graph::clique_chain(k.min(5))).program());
    }
    out.extend(corpus(40, 0).into_iter().map(|g| g.program));
    let mut rng = StdRng::seed_from_u64(0x1d_2005);
    for seed in 0..20u64 {
        let n = rng.random_range(12..=24);
        let circulant = relabel(&Graph::circulant(n, 4), &mut rng);
        out.push(MinVertexCover::new(circulant).program());
        let n = rng.random_range(14..=22);
        let g = Graph::random_gnm(n, rng.random_range(n..=2 * n), seed);
        out.push(MinVertexCover::new(g.clone()).program());
        out.push(weighted_cover(&g, &mut rng));
        let g = Graph::random_gnm(12, rng.random_range(12..=24), seed);
        out.push(MaxCut::new(g).program());
        let g = Graph::random_gnm(8, rng.random_range(8..=14), seed);
        out.push(MapColoring::new(g, 3).program());
        out.push(KSat::random_3sat(10, rng.random_range(20..=45), seed).program_dual_rail());
        let (elements, subsets) = (rng.random_range(8..=14), rng.random_range(10..=18));
        out.push(set_cover(elements, subsets, &mut rng).program());
    }
    out
}

#[test]
fn incumbent_sequences_match_the_pinned_digest() {
    let mut h = Fnv::new();
    let token = CancelToken::never();
    for program in programs() {
        let mut incumbents = 0u64;
        let (outcome, stats) =
            solve_resumable(&program, &SolverOptions::default(), &token, None, &mut |inc| {
                incumbents += 1;
                h.bits(&inc.assignment);
                h.u64(inc.soft_satisfied as u64);
                h.u64(inc.soft_weight);
                h.u64(inc.violated_weight);
            });
        assert!(!stats.truncated);
        h.u64(incumbents);
        match outcome {
            SolveOutcome::Solved { assignment, soft_satisfied, soft_weight } => {
                h.u64(1);
                h.bits(&assignment);
                h.u64(soft_satisfied as u64);
                h.u64(soft_weight);
            }
            SolveOutcome::Unsatisfiable => h.u64(0),
        }
    }
    assert_eq!(h.0, PINNED, "incumbent digest {:#018x} differs from the pin", h.0);
}
