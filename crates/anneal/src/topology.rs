//! Quantum-annealer hardware topologies.
//!
//! Two families: the classic Chimera lattice (D-Wave 2000Q era), and
//! Pegasus (Boothby, Bunyk, Raymond & Roy, "Next-Generation Topology of
//! D-Wave Quantum Processors", arXiv:2003.00133), the graph of the
//! Advantage generation. The paper's Advantage 4.1 is the fabric of a
//! Pegasus P16: 5,640 qubits and 40,484 couplers, degree 15 in the
//! interior. Each qubit couples along its wire (external couplers), to
//! its pair partner (odd couplers), and to twelve crossing wires of the
//! other orientation (internal couplers).

use std::sync::Arc;

/// An undirected hardware graph of qubits and couplers.
///
/// The adjacency is one flat, sorted neighbour array indexed by per-qubit
/// row offsets, shared through an [`Arc`], so cloning a topology (and the
/// device that holds it) copies nothing.
#[derive(Clone, Debug)]
pub struct Topology {
    graph: Arc<Graph>,
}

#[derive(Debug)]
struct Graph {
    name: String,
    /// Qubit `q`'s neighbours are `neighbors[offsets[q]..offsets[q + 1]]`,
    /// ascending.
    offsets: Vec<u32>,
    neighbors: Vec<u32>,
    /// The `m` of a Pegasus graph, which hosts the clique embedding.
    pegasus: Option<usize>,
}

impl Topology {
    /// Build from an explicit coupler list; repeated and reversed
    /// couplers count once.
    pub fn new(name: impl Into<String>, num_qubits: usize, couplers: &[(usize, usize)]) -> Self {
        assert!(u32::try_from(num_qubits).is_ok(), "qubits are stored as u32");
        let mut pairs: Vec<(u32, u32)> = couplers
            .iter()
            .map(|&(a, b)| {
                assert!(a != b && a < num_qubits && b < num_qubits, "bad coupler ({a},{b})");
                (a.min(b) as u32, a.max(b) as u32)
            })
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        assert!(u32::try_from(2 * pairs.len()).is_ok(), "row offsets are stored as u32");
        let mut offsets = vec![0u32; num_qubits + 1];
        for &(a, b) in &pairs {
            offsets[a as usize + 1] += 1;
            offsets[b as usize + 1] += 1;
        }
        for q in 0..num_qubits {
            offsets[q + 1] += offsets[q];
        }
        // In ascending pair order, row `x` receives every `a < x` in
        // order before every `b > x` in order, so each row comes out
        // sorted.
        let mut fill: Vec<u32> = offsets[..num_qubits].to_vec();
        let mut neighbors = vec![0u32; 2 * pairs.len()];
        for &(a, b) in &pairs {
            neighbors[fill[a as usize] as usize] = b;
            fill[a as usize] += 1;
            neighbors[fill[b as usize] as usize] = a;
            fill[b as usize] += 1;
        }
        Topology::from_rows(name.into(), offsets, neighbors, None)
    }

    fn from_rows(
        name: String,
        offsets: Vec<u32>,
        neighbors: Vec<u32>,
        pegasus: Option<usize>,
    ) -> Self {
        debug_assert_eq!(offsets.last().map(|&o| o as usize), Some(neighbors.len()));
        Topology { graph: Arc::new(Graph { name, offsets, neighbors, pegasus }) }
    }

    /// Device name.
    pub fn name(&self) -> &str {
        &self.graph.name
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.graph.offsets.len() - 1
    }

    /// Number of couplers.
    pub fn num_couplers(&self) -> usize {
        self.graph.neighbors.len() / 2
    }

    /// Neighbors of qubit `q`, ascending.
    pub fn neighbors(&self, q: usize) -> &[u32] {
        let o = &self.graph.offsets;
        &self.graph.neighbors[o[q] as usize..o[q + 1] as usize]
    }

    /// True iff qubits `a` and `b` share a coupler.
    pub fn coupled(&self, a: usize, b: usize) -> bool {
        u32::try_from(b).is_ok_and(|b| self.neighbors(a).binary_search(&b).is_ok())
    }

    /// Degree of qubit `q`.
    pub fn degree(&self, q: usize) -> usize {
        self.neighbors(q).len()
    }

    /// The Chimera lattice `C_{m,n,t}`: an `m × n` grid of `K_{t,t}`
    /// unit cells; horizontal shores couple along rows, vertical shores
    /// along columns. `C_{16,16,4}` is the 2048-qubit D-Wave 2000Q.
    pub fn chimera(m: usize, n: usize, t: usize) -> Self {
        let cell = 2 * t;
        let num_qubits = m * n * cell;
        // qubit id = ((row * n) + col) * cell + shore*t + k
        let id =
            |row: usize, col: usize, shore: usize, k: usize| (row * n + col) * cell + shore * t + k;
        let mut couplers = Vec::new();
        for row in 0..m {
            for col in 0..n {
                // K_{t,t} inside the cell.
                for a in 0..t {
                    for b in 0..t {
                        couplers.push((id(row, col, 0, a), id(row, col, 1, b)));
                    }
                }
                // Vertical shore (0) couples down the column.
                if row + 1 < m {
                    for k in 0..t {
                        couplers.push((id(row, col, 0, k), id(row + 1, col, 0, k)));
                    }
                }
                // Horizontal shore (1) couples along the row.
                if col + 1 < n {
                    for k in 0..t {
                        couplers.push((id(row, col, 1, k), id(row, col + 1, 1, k)));
                    }
                }
            }
        }
        Topology::new(format!("chimera({m},{n},{t})"), num_qubits, &couplers)
    }

    /// The Pegasus graph `P_m`, fabric only (`m ≥ 2`): `24m(m−1)` qubits
    /// `(u, w, k, z)` with orientation `u < 2`, wire `w < m`, track
    /// `k < 12` and segment `z < m−1`, less the `8(m−1)` that no
    /// coupler reaches. `P_16` is the 5,640-qubit Advantage 4.1.
    ///
    /// Each qubit's row is written straight from its coordinates, so the
    /// build allocates the two adjacency buffers and nothing else.
    pub fn pegasus(m: usize) -> Self {
        Self::build_pegasus(m, format!("pegasus({m})"))
    }

    fn build_pegasus(m: usize, name: String) -> Self {
        assert!(m >= 2, "pegasus needs m >= 2");
        let p = Pegasus { m };
        let n = p.num_qubits();
        assert!(u32::try_from(15 * n).is_ok(), "row offsets are stored as u32");
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::with_capacity(15 * n);
        offsets.push(0);
        for u in 0..2 {
            for w in 0..m {
                for k in p.tracks(w) {
                    for z in 0..m - 1 {
                        let mut row = [0u32; 15];
                        let len = p.row(u, w, k, z, &mut row);
                        row[..len].sort_unstable();
                        neighbors.extend_from_slice(&row[..len]);
                        offsets.push(neighbors.len() as u32);
                    }
                }
            }
        }
        debug_assert_eq!(offsets.len(), n + 1);
        Topology::from_rows(name, offsets, neighbors, Some(m))
    }

    /// The Advantage 4.1 preset used throughout the evaluation: the
    /// Pegasus `P_16` fabric, the paper's 5,640 qubits.
    pub fn advantage_4_1() -> Self {
        Self::build_pegasus(16, "Advantage_4.1(sim)".into())
    }

    /// A complete-graph embedding of `K_k`, the `DWaveCliqueSampler`
    /// pattern, or `None` when `k` is 0, the graph is not Pegasus, or
    /// `k > 4(m−1)`.
    ///
    /// `P_m` contains the Chimera lattice `C(m−1, m−1, 4)`: its cell
    /// `(y, x)` holds the vertical qubits `(0, x, 4+j, y)` and the
    /// horizontal qubits `(1, y+1, 4+j, x)`, `j < 4`, which internal
    /// couplers join as a `K_{4,4}`, while external couplers run the
    /// vertical ones down the column and the horizontal ones along the
    /// row (dwave-networkx's "nice coordinates", `t = 0`). Logical
    /// variable `i` becomes an L-shaped chain: vertical wire `i mod 4`
    /// of column `i/4` across rows `0..g`, joined in cell `(i/4, i/4)`
    /// to horizontal wire `i mod 4` of row `i/4` across columns `0..g`,
    /// where `g = ⌈k/4⌉`. Every two chains cross in one cell, whose
    /// `K_{4,4}` couples them, and every chain has `2g` qubits.
    pub fn clique_embedding(&self, k: usize) -> Option<crate::embed::Embedding> {
        let p = Pegasus { m: self.graph.pegasus? };
        let g = k.div_ceil(4);
        if k == 0 || g > p.m - 1 {
            return None;
        }
        let chains = (0..k)
            .map(|i| {
                let (band, j) = (i / 4, 4 + i % 4);
                let vertical = (0..g).map(|y| p.index(0, band, j, y));
                let horizontal = (0..g).map(|x| p.index(1, band + 1, j, x));
                vertical.chain(horizontal).collect()
            })
            .collect();
        Some(crate::embed::Embedding::from_chains(chains))
    }

    /// A complete graph (useful for tests: every problem embeds with
    /// unit chains).
    pub fn complete(n: usize) -> Self {
        let couplers: Vec<(usize, usize)> =
            (0..n).flat_map(|a| (a + 1..n).map(move |b| (a, b))).collect();
        Topology::new(format!("complete({n})"), n, &couplers)
    }
}

/// Internal-coupler shifts of Pegasus: `OFFSETS[u][k]` is the shift
/// of track `k` of orientation `u` (arXiv:2003.00133; dwave-networkx's
/// `pegasus_graph` default).
const OFFSETS: [[usize; 12]; 2] =
    [[2, 2, 2, 2, 10, 10, 10, 10, 6, 6, 6, 6], [6, 6, 6, 6, 2, 2, 2, 2, 10, 10, 10, 10]];

/// Coordinates and numbering of the `P_m` fabric. Qubit `(u, w, k, z)`
/// exists unless `w = 0, k < 2` or `w = m−1, k ≥ 10`, and the fabric
/// numbers qubits in `(u, w, k, z)` order.
#[derive(Clone, Copy)]
struct Pegasus {
    m: usize,
}

impl Pegasus {
    fn num_qubits(self) -> usize {
        2 * (self.m - 1) * (12 * self.m - 4)
    }

    /// The tracks of wire `w` that hold fabric qubits.
    fn tracks(self, w: usize) -> std::ops::Range<usize> {
        usize::from(w == 0) * 2..if w == self.m - 1 { 10 } else { 12 }
    }

    /// The fabric index of qubit `(u, w, k, z)`.
    fn index(self, u: usize, w: usize, k: usize, z: usize) -> usize {
        let s = self.m - 1;
        // Wire 0 has 10 tracks, every later wire before `w` has 12.
        let before = if w == 0 { 0 } else { 12 * w - 2 };
        ((u * (12 * self.m - 4) + before + k - self.tracks(w).start) * s) + z
    }

    /// Write the neighbours of qubit `(u, w, k, z)` into `row`, unsorted,
    /// and return how many there are.
    fn row(self, u: usize, w: usize, k: usize, z: usize, row: &mut [u32; 15]) -> usize {
        let s = self.m - 1;
        let mut len = 0;
        let mut push = |q: usize| {
            row[len] = q as u32;
            len += 1;
        };
        // External couplers along the wire, and the odd coupler to the
        // pair partner; a fabric qubit's partner is fabric too.
        if z > 0 {
            push(self.index(u, w, k, z - 1));
        }
        if z + 1 < s {
            push(self.index(u, w, k, z + 1));
        }
        push(self.index(u, w, k ^ 1, z));
        // Internal couplers join `(0, w, k, z)` and
        // `(1, z + [t < OFFSETS[0][k]], t, w − [k < OFFSETS[1][t]])` for
        // every track `t` where that segment lies in `0..m−1`. Solved for
        // the first qubit, the rule reads the same with the orientations,
        // and so the shift lists, swapped.
        let v = 1 - u;
        for (t, &shift) in OFFSETS[v].iter().enumerate() {
            let Some(seg) = w.checked_sub(usize::from(k < shift)) else { continue };
            if seg < s {
                push(self.index(v, z + usize::from(t < OFFSETS[u][k]), t, seg));
            }
        }
        len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chimera_counts() {
        let c = Topology::chimera(2, 2, 4);
        assert_eq!(c.num_qubits(), 32);
        // couplers: 4 cells × 16 internal + vertical 1×2cols×4 +
        // horizontal 1×2rows×4 = 64 + 8 + 8
        assert_eq!(c.num_couplers(), 80);
    }

    #[test]
    fn chimera_2000q_scale() {
        let c = Topology::chimera(16, 16, 4);
        assert_eq!(c.num_qubits(), 2048);
        // Interior degree: t internal + 2 vertical/horizontal = 6.
        let interior = c.degree(((8 * 16) + 8) * 8 + 2);
        assert_eq!(interior, 6);
    }

    /// The published `P_m` coupler list (arXiv:2003.00133, as
    /// dwave-networkx's `pegasus_graph` builds it), with the coupled
    /// qubits numbered in `(u, w, k, z)` order: the fabric's qubit
    /// count and couplers.
    fn published_pegasus(m: usize) -> (usize, Vec<(usize, usize)>) {
        let s = m - 1;
        let (off0, off1) = (OFFSETS[0], OFFSETS[1]);
        let fabric = |w: usize, k: usize| !(w == 0 && k < 2 || w == s && k >= 10);
        let mut edges = Vec::new();
        for u in 0..2 {
            for w in 0..m {
                for k in (0..12).filter(|&k| fabric(w, k)) {
                    for z in 0..s {
                        if z + 1 < s {
                            edges.push(((u, w, k, z), (u, w, k, z + 1)));
                        }
                        if k % 2 == 0 {
                            edges.push(((u, w, k, z), (u, w, k + 1, z)));
                        }
                    }
                }
            }
        }
        for w in 0..m {
            for (kk, &o1) in off1.iter().enumerate() {
                let ks = if w == 0 { o1 } else { 0 }..if w < s { 12 } else { o1 };
                for k in ks {
                    for z in 0..s {
                        let other = (1, z + usize::from(kk < off0[k]), kk, w - usize::from(k < o1));
                        edges.push(((0, w, k, z), other));
                    }
                }
            }
        }
        let label = |(u, w, k, z): (usize, usize, usize, usize)| ((u * m + w) * 12 + k) * s + z;
        let mut coupled = vec![false; 24 * m * s];
        for &(a, b) in &edges {
            coupled[label(a)] = true;
            coupled[label(b)] = true;
        }
        let mut index = vec![usize::MAX; coupled.len()];
        let mut n = 0;
        for (l, _) in coupled.iter().enumerate().filter(|(_, &c)| c) {
            index[l] = n;
            n += 1;
        }
        (n, edges.iter().map(|&(a, b)| (index[label(a)], index[label(b)])).collect())
    }

    #[test]
    fn pegasus_counts() {
        // (m, qubits, couplers); P_16 is the paper's 5,640-qubit
        // Advantage 4.1.
        for (m, qubits, couplers) in
            [(2, 40, 164), (3, 128, 704), (6, 680, 4_484), (16, 5_640, 40_484)]
        {
            let t = Topology::pegasus(m);
            assert_eq!((t.num_qubits(), t.num_couplers()), (qubits, couplers), "m = {m}");
        }
        let a = Topology::advantage_4_1();
        assert_eq!((a.num_qubits(), a.num_couplers()), (5_640, 40_484));
    }

    #[test]
    fn advantage_has_degree_15() {
        let t = Topology::advantage_4_1();
        let degrees: Vec<usize> = (0..t.num_qubits()).map(|q| t.degree(q)).collect();
        assert_eq!(degrees.iter().max(), Some(&15));
        assert_eq!(degrees.iter().filter(|&&d| d == 15).count(), 4_472);
    }

    #[test]
    fn pegasus_rows_match_the_published_couplers() {
        for m in [2, 3, 6, 16] {
            let (n, couplers) = published_pegasus(m);
            let expected = Topology::new("published", n, &couplers);
            let t = Topology::pegasus(m);
            assert_eq!(t.num_qubits(), n, "m = {m}");
            for q in 0..n {
                assert_eq!(t.neighbors(q), expected.neighbors(q), "m = {m}, qubit {q}");
            }
        }
    }

    #[test]
    fn clique_embedding_is_valid_complete_graph_minor() {
        for m in 2..=6 {
            let topo = Topology::pegasus(m);
            for k in 1..=4 * (m - 1) {
                let e = topo.clique_embedding(k).expect("fits");
                let adj: Vec<Vec<usize>> =
                    (0..k).map(|u| (0..k).filter(|&v| v != u).collect()).collect();
                assert!(e.is_valid(&adj, &topo), "K{k} embedding invalid on m={m}");
                // Uniform L-shaped chains: 2g qubits each.
                let g = k.div_ceil(4);
                assert!(e.chains().iter().all(|c| c.len() == 2 * g && c.is_sorted()));
            }
            assert!(topo.clique_embedding(0).is_none());
            assert!(topo.clique_embedding(4 * (m - 1) + 1).is_none(), "m = {m}");
        }
    }

    #[test]
    fn only_pegasus_has_a_clique_embedding() {
        let custom = Topology::new("path3", 3, &[(0, 1), (1, 2)]);
        for t in [Topology::chimera(4, 4, 4), Topology::complete(8), custom] {
            assert!(t.clique_embedding(1).is_none(), "{}", t.name());
        }
    }

    #[test]
    fn advantage_hosts_k60() {
        let topo = Topology::advantage_4_1();
        let k = 60;
        let e = topo.clique_embedding(k).expect("fits");
        let adj: Vec<Vec<usize>> = (0..k).map(|u| (0..k).filter(|&v| v != u).collect()).collect();
        assert!(e.is_valid(&adj, &topo));
        assert!(topo.clique_embedding(k + 1).is_none());
    }

    #[test]
    fn coupled_is_symmetric() {
        let t = Topology::pegasus(3);
        for q in 0..t.num_qubits() {
            assert!(t.neighbors(q).is_sorted(), "row {q}");
            for &n in t.neighbors(q) {
                let n = n as usize;
                assert!(t.coupled(n, q));
                assert_ne!(n, q);
            }
        }
    }

    #[test]
    fn complete_topology() {
        let t = Topology::complete(6);
        assert_eq!(t.num_couplers(), 15);
        assert!(t.coupled(0, 5));
    }

    #[test]
    fn duplicate_and_reversed_couplers_collapse() {
        let t = Topology::new("x", 4, &[(0, 1), (3, 1), (1, 0), (0, 1), (1, 3), (2, 0)]);
        assert_eq!(t.num_couplers(), 3);
        assert_eq!(t.neighbors(0), [1, 2]);
        assert_eq!(t.neighbors(1), [0, 3]);
        assert_eq!(t.neighbors(2), [0]);
        assert_eq!(t.neighbors(3), [1]);
    }
}
