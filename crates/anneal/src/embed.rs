//! Heuristic minor embedding (the role of `minorminer` in the Ocean
//! stack).
//!
//! A logical problem graph rarely matches the hardware graph, so each
//! logical variable is mapped to a *chain* of physical qubits forming a
//! connected subgraph, with every logical edge realized by at least one
//! physical coupler between the two chains (§VIII-A of the paper: "a
//! variable may need to be mapped to a chain of qubits … the more
//! densely connected the problem, the more qubits are required to
//! represent each variable").
//!
//! The algorithm follows the minorminer idea: chains are routed with
//! Dijkstra searches in which a qubit already used by `k` other chains
//! costs `PENALTY^k`, so overlap is allowed early but exponentially
//! discouraged. Repeated rip-up-and-reroute sweeps (with the penalty
//! rising each sweep) drive the embedding overlap-free; several seeded
//! restarts are attempted before giving up.
//!
//! Each search runs only as far as its answer depends on. A new chain's
//! root minimizes its own cost plus the path cost to every placed
//! neighbour chain; the per-neighbour searches share one monotone radix
//! queue (Dijkstra keys only grow) and stop once the best qubit settled
//! in all of them is cheaper than any unsettled qubit could be. Each
//! connecting path stops at the first qubit next to the neighbour chain
//! that its search settles. Both pick exactly what full-graph searches
//! followed by a scan of every qubit would, so embeddings do not depend
//! on where a search stopped, nor, for the root, on the order in which
//! it settled qubits. A route prices a qubit only when one of its
//! searches reaches it, and search buffers are kept across the routes of
//! one try.

use crate::seed::{derive_seed, splitmix64, TRY_STRIDE};
use crate::topology::Topology;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;

/// A minor embedding: one chain of physical qubits per logical
/// variable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Embedding {
    chains: Vec<Vec<usize>>,
}

impl Embedding {
    /// Build an embedding from explicit chains (validate with
    /// [`Embedding::is_valid`] before use).
    pub fn from_chains(chains: Vec<Vec<usize>>) -> Self {
        Embedding { chains }
    }

    /// The chain (sorted physical qubits) of logical variable `v`.
    pub fn chain(&self, v: usize) -> &[usize] {
        &self.chains[v]
    }

    /// All chains, indexed by logical variable.
    pub fn chains(&self) -> &[Vec<usize>] {
        &self.chains
    }

    /// Number of logical variables.
    pub fn num_logical(&self) -> usize {
        self.chains.len()
    }

    /// Total physical qubits used — the paper's "number of qubits"
    /// metric for D-Wave runs (Fig. 7's x axis).
    pub fn num_physical(&self) -> usize {
        self.chains.iter().map(Vec::len).sum()
    }

    /// Length of the longest chain.
    pub fn max_chain_length(&self) -> usize {
        self.chains.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Validate against the logical adjacency and the hardware graph:
    /// chains non-empty, disjoint, connected, and every logical edge
    /// covered by a physical coupler.
    pub fn is_valid(&self, logical_adj: &[Vec<usize>], topo: &Topology) -> bool {
        let mut owner = vec![usize::MAX; topo.num_qubits()];
        for (v, chain) in self.chains.iter().enumerate() {
            if chain.is_empty() {
                return false;
            }
            for &q in chain {
                if q >= topo.num_qubits() || owner[q] != usize::MAX {
                    return false;
                }
                owner[q] = v;
            }
        }
        // Connectivity of each chain.
        for chain in &self.chains {
            let mut seen = vec![false; chain.len()];
            let mut stack = vec![0usize];
            seen[0] = true;
            while let Some(i) = stack.pop() {
                for (j, &q) in chain.iter().enumerate() {
                    if !seen[j] && topo.coupled(chain[i], q) {
                        seen[j] = true;
                        stack.push(j);
                    }
                }
            }
            if !seen.iter().all(|&s| s) {
                return false;
            }
        }
        // Edge coverage.
        for (u, nbrs) in logical_adj.iter().enumerate() {
            for &v in nbrs {
                if v <= u {
                    continue;
                }
                let covered = self.chains[u]
                    .iter()
                    .any(|&a| topo.neighbors(a).iter().any(|&b| owner[b as usize] == v));
                if !covered {
                    return false;
                }
            }
        }
        true
    }
}

/// Find a minor embedding of `logical_adj` into `topo`, retrying with
/// `tries` random restarts. Returns `None` if every attempt fails.
pub fn find_embedding(
    logical_adj: &[Vec<usize>],
    topo: &Topology,
    seed: u64,
    tries: usize,
) -> Option<Embedding> {
    for t in 0..tries {
        let mut rng = StdRng::seed_from_u64(try_seed(seed, t));
        if let Some(e) = try_embed(logical_adj, topo, &mut rng) {
            debug_assert!(e.is_valid(logical_adj, topo));
            return Some(e);
        }
    }
    None
}

/// The seed of restart `t`. Try 0 keeps the caller's seed; later tries
/// are finalized through SplitMix64, so try `t` of seed `s` repeats
/// neither try 0 of a related seed such as `s + t` (the old
/// `seed.wrapping_add(t)` did exactly that) nor a rip-up attempt of the
/// annealer backend, whose seeds derive the same way with
/// [`ATTEMPT_STRIDE`](crate::seed::ATTEMPT_STRIDE).
fn try_seed(seed: u64, t: usize) -> u64 {
    if t == 0 {
        return seed;
    }
    derive_seed(seed, t as u64, TRY_STRIDE)
}

/// The smallest per-route jitter factor, so the smallest cost of any
/// qubit (its overlap weight is at least 1).
const MIN_JITTER: u64 = 16;

/// Cost of stepping onto a qubit used by `usage` other chains, with an
/// overlap penalty `base` that escalates across sweeps.
fn qubit_weight(usage: u32, base: u64) -> u64 {
    base.saturating_pow(usage.min(10))
}

/// One route's qubit costs, priced when a search reaches a qubit:
/// `qubit_weight(usage[q], base)` times a jitter in
/// `MIN_JITTER..MIN_JITTER + 8` hashed from the route's `key` and `q`.
#[derive(Clone, Copy)]
struct Prices<'u> {
    usage: &'u [u32],
    base: u64,
    key: u64,
}

impl Prices<'_> {
    fn cost(&self, q: usize) -> u64 {
        let jitter = MIN_JITTER + (splitmix64(self.key ^ q as u64) >> 61);
        qubit_weight(self.usage[q], self.base).saturating_mul(jitter)
    }
}

/// Rip-up-and-reroute sweeps until overlap-free or the sweep budget
/// runs out.
fn try_embed(logical_adj: &[Vec<usize>], topo: &Topology, rng: &mut StdRng) -> Option<Embedding> {
    const MAX_SWEEPS: usize = 24;
    let n = logical_adj.len();
    let nq = topo.num_qubits();
    if n == 0 {
        return Some(Embedding { chains: Vec::new() });
    }
    if n > nq {
        return None;
    }
    // Connectivity-aware placement order: seed at a max-degree
    // variable, then always place the variable with the most
    // already-placed logical neighbors — otherwise disconnected seeds
    // scatter across the chip and get joined by enormous chains.
    let mut order: Vec<usize> = Vec::with_capacity(n);
    {
        let mut placed = vec![false; n];
        let mut placed_nbrs = vec![0usize; n];
        let mut tie: Vec<usize> = (0..n).collect();
        tie.shuffle(rng);
        for _ in 0..n {
            let &v = tie
                .iter()
                .filter(|&&v| !placed[v])
                .max_by_key(|&&v| (placed_nbrs[v], logical_adj[v].len()))
                .expect("unplaced variable remains");
            placed[v] = true;
            order.push(v);
            for &u in &logical_adj[v] {
                placed_nbrs[u] += 1;
            }
        }
    }
    let mut chains: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut usage: Vec<u32> = vec![0; nq];
    let mut router = Router::new(logical_adj, topo);
    let mut base = 4u64;
    for sweep in 0..MAX_SWEEPS {
        // Early sweeps re-route everything; once the layout has mostly
        // settled, only rip chains that still share qubits — ripping
        // clean chains just reshuffles the conflict.
        let targets: Vec<usize> = if sweep < 3 {
            order.clone()
        } else {
            let mut t: Vec<usize> = order
                .iter()
                .copied()
                .filter(|&v| chains[v].iter().any(|&q| usage[q] > 1))
                .collect();
            if t.is_empty() {
                t = order.clone();
            }
            t
        };
        for &v in &targets {
            // Rip out v's current chain.
            for &q in &chains[v] {
                usage[q] -= 1;
            }
            chains[v].clear();
            router.route(v, &mut chains, &mut usage, base, rng)?;
        }
        if usage.iter().all(|&u| u <= 1) {
            // Valid embedding found. Polish: a few more full re-route
            // sweeps at high penalty usually shrink the chains now that
            // the global layout has settled; keep the smallest valid
            // snapshot.
            trim_chains(logical_adj, topo, &mut chains);
            rebuild_usage(&chains, &mut usage);
            let mut best = chains.clone();
            let mut best_size: usize = best.iter().map(Vec::len).sum();
            'polish: for _ in 0..2 {
                for &v in &order {
                    for &q in &chains[v] {
                        usage[q] -= 1;
                    }
                    chains[v].clear();
                    if router.route(v, &mut chains, &mut usage, base, rng).is_none() {
                        break 'polish;
                    }
                }
                if usage.iter().all(|&u| u <= 1) {
                    trim_chains(logical_adj, topo, &mut chains);
                    rebuild_usage(&chains, &mut usage);
                    let size: usize = chains.iter().map(Vec::len).sum();
                    if size < best_size {
                        best = chains.clone();
                        best_size = size;
                    }
                }
            }
            for c in &mut best {
                c.sort_unstable();
            }
            return Some(Embedding { chains: best });
        }
        // Escalate the overlap penalty and randomize the re-route
        // order so symmetric configurations cannot oscillate.
        base = base.saturating_mul(4).min(1 << 40);
        order.shuffle(rng);
    }
    None
}

/// Recompute the per-qubit usage counts from the chains (needed after
/// trimming, which edits chains without touching the counters).
fn rebuild_usage(chains: &[Vec<usize>], usage: &mut [u32]) {
    usage.fill(0);
    for chain in chains {
        for &q in chain {
            usage[q] += 1;
        }
    }
}

/// Shrink every chain to a minimal connected subgraph that still
/// covers all of its logical edges. The routed chains contain full
/// Dijkstra paths and can be badly bloated; trimming removes any qubit
/// whose deletion keeps the chain connected and every neighbor
/// reachable. Iterates to a fixpoint.
fn trim_chains(logical_adj: &[Vec<usize>], topo: &Topology, chains: &mut [Vec<usize>]) {
    // owner map for coverage checks
    let mut owner = vec![usize::MAX; topo.num_qubits()];
    for (v, chain) in chains.iter().enumerate() {
        for &q in chain {
            owner[q] = v;
        }
    }
    let connected_without = |chain: &[usize], skip: usize| -> bool {
        let rest: Vec<usize> = chain.iter().copied().filter(|&q| q != skip).collect();
        if rest.is_empty() {
            return false;
        }
        let mut seen = vec![false; rest.len()];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(i) = stack.pop() {
            for (j, &q) in rest.iter().enumerate() {
                if !seen[j] && topo.coupled(rest[i], q) {
                    seen[j] = true;
                    stack.push(j);
                }
            }
        }
        seen.iter().all(|&s| s)
    };
    let mut changed = true;
    while changed {
        changed = false;
        for v in 0..chains.len() {
            let mut i = 0;
            while i < chains[v].len() {
                let q = chains[v][i];
                if chains[v].len() > 1 && connected_without(&chains[v], q) {
                    // Check edge coverage without q.
                    let covered = logical_adj[v].iter().all(|&u| {
                        chains[v].iter().any(|&a| {
                            a != q && topo.neighbors(a).iter().any(|&b| owner[b as usize] == u)
                        })
                    });
                    if covered {
                        owner[q] = usize::MAX;
                        chains[v].swap_remove(i);
                        changed = true;
                        continue;
                    }
                }
                i += 1;
            }
        }
    }
}

/// A monotone priority queue of `u32` entries whose keys live outside
/// it: the radix heap of Ahuja, Mehlhorn, Orlin & Tarjan ("Faster
/// algorithms for the shortest path problem", JACM 1990). No key may be
/// pushed below `last`, the key at the front, which Dijkstra's keys
/// never are.
///
/// `buckets[0]` holds the entries at `last`; `buckets[b]` for `b ≥ 1`
/// those whose key first differs from `last` in bit `b − 1`. Keys are
/// read from the caller at every redistribution, so an entry whose key
/// fell since its push sits in a bucket too high, next to the fresh
/// entry pushed at the lower key; the caller reports the stale copy
/// dead once the fresh one pops. Live entries thus pop in key order,
/// and an `ordered` queue keeps `buckets[0]` sorted so that they pop
/// in the order of a `BinaryHeap<(Reverse(key), entry)>` that skips
/// dead ones.
struct RadixQueue {
    last: u64,
    buckets: Vec<Vec<u32>>,
    ordered: bool,
}

/// The bucket of `key` relative to the front key `last`.
fn bucket(key: u64, last: u64) -> usize {
    (u64::BITS - (key ^ last).leading_zeros()) as usize
}

impl RadixQueue {
    fn new(ordered: bool) -> Self {
        RadixQueue { last: 0, buckets: vec![Vec::new(); u64::BITS as usize + 1], ordered }
    }

    /// Empty the queue, handing out every entry it held.
    fn drain(&mut self) -> impl Iterator<Item = u32> + '_ {
        self.last = 0;
        self.buckets.iter_mut().flat_map(|b| b.drain(..))
    }

    /// Queue `entry` at `key`. Only [`RadixQueue::min_key`] moves
    /// `last`, never a push, not even into an empty queue: the rest of a
    /// relaxation may push lower keys.
    fn push(&mut self, entry: u32, key: u64) {
        debug_assert!(key >= self.last, "radix queue key {key} below the front {}", self.last);
        let b = bucket(key, self.last);
        let bucket = &mut self.buckets[b];
        if b == 0 && self.ordered {
            let at = bucket.partition_point(|&e| e < entry);
            bucket.insert(at, entry);
        } else {
            bucket.push(entry);
        }
    }

    /// The smallest key of a live entry, with the live entries at that
    /// key moved to the front; `key(e)` is `None` for a dead entry,
    /// which is dropped. Call it only after the last popped entry's
    /// keys are pushed: it moves `last` up to the new minimum.
    fn min_key(&mut self, key: impl Fn(u32) -> Option<u64>) -> Option<u64> {
        loop {
            while let Some(&e) = self.buckets[0].last() {
                if key(e).is_some() {
                    return Some(self.last);
                }
                self.buckets[0].pop();
            }
            let b = self.buckets.iter().position(|b| !b.is_empty())?;
            let mut moved = std::mem::take(&mut self.buckets[b]);
            // A bucket of dead entries only empties: `last` stays put.
            if let Some(min) = moved.iter().filter_map(|&e| key(e)).min() {
                self.last = min;
                for &e in &moved {
                    if let Some(k) = key(e) {
                        self.buckets[bucket(k, min)].push(e);
                    }
                }
                if self.ordered {
                    self.buckets[0].sort_unstable();
                }
            }
            moved.clear();
            self.buckets[b] = moved;
        }
    }

    /// Pop an entry at the front key, the largest if `ordered`; call it
    /// right after a [`RadixQueue::min_key`] that returned `Some`.
    fn pop(&mut self) -> Option<u32> {
        self.buckets[0].pop()
    }
}

/// One source set's state within a [`Search`].
struct Field {
    /// Per qubit: the tentative distance, exact once settled, and
    /// `u64::MAX` while unreached.
    dist: Vec<u64>,
    /// Per qubit, one bit: settled yet.
    done: Vec<u64>,
    /// Each reached qubit's predecessor; empty in a search that does
    /// not record paths.
    parent: Vec<u32>,
    /// Qubits settled so far. With the queued ones, these are all
    /// qubits whose `dist` is finite.
    settled: Vec<u32>,
}

impl Field {
    fn new(nq: usize, record_paths: bool) -> Self {
        Field {
            dist: vec![u64::MAX; nq],
            done: vec![0; nq.div_ceil(64)],
            parent: if record_paths { vec![u32::MAX; nq] } else { Vec::new() },
            settled: Vec::new(),
        }
    }

    fn is_done(&self, q: usize) -> bool {
        self.done[q / 64] >> (q % 64) & 1 == 1
    }

    fn settle(&mut self, q: usize) {
        self.done[q / 64] |= 1 << (q % 64);
        self.settled.push(q as u32);
    }
}

/// Dijkstra searches over qubits whose node weights are the route's
/// [`Prices`], one [`Field`] per source set, all on one [`RadixQueue`]
/// and with buffers reused from search to search. Entry `f << shift |
/// q` is qubit `q` in field `f`, keyed by its `dist`. Sources sit at
/// distance 0 and every step costs at least [`MIN_JITTER`], so a search
/// stopped early has settled exactly the entries of the full search
/// below the front key, with the same `dist`. A search that records
/// paths settles them in the same order as the full one, ties largest
/// qubit first, so every settled qubit has the same `parent` too.
struct Search {
    nq: usize,
    /// Bits of an entry that hold its qubit.
    shift: u32,
    record_paths: bool,
    /// Grown to the most fields any search used, so each buffer has
    /// one size and is reused.
    fields: Vec<Field>,
    queue: RadixQueue,
}

/// The field and qubit of a [`Search`] entry.
fn split(e: u32, shift: u32) -> (usize, usize) {
    ((e >> shift) as usize, (e & ((1u64 << shift) - 1) as u32) as usize)
}

impl Search {
    fn new(nq: usize, record_paths: bool) -> Self {
        let shift = usize::BITS - nq.saturating_sub(1).leading_zeros();
        Search { nq, shift, record_paths, fields: Vec::new(), queue: RadixQueue::new(record_paths) }
    }

    /// Forget the previous search and start one field from each source
    /// set.
    fn start<'s>(&mut self, sources: impl ExactSizeIterator<Item = &'s [usize]>) {
        for field in &mut self.fields {
            for q in field.settled.drain(..) {
                field.dist[q as usize] = u64::MAX;
            }
            field.done.fill(0);
        }
        let shift = self.shift;
        for e in self.queue.drain() {
            let (f, q) = split(e, shift);
            self.fields[f].dist[q] = u64::MAX;
        }
        assert!(u32::try_from(sources.len() << shift).is_ok(), "search entries are stored as u32");
        while self.fields.len() < sources.len() {
            self.fields.push(Field::new(self.nq, self.record_paths));
        }
        for (f, qubits) in sources.enumerate() {
            for &q in qubits {
                self.fields[f].dist[q] = 0;
                self.queue.push((f << shift | q) as u32, 0);
            }
        }
    }

    /// The smallest queued distance: a lower bound on the distance of
    /// every entry not yet settled.
    fn min_key(&mut self) -> Option<u64> {
        let (fields, shift) = (&self.fields, self.shift);
        self.queue.min_key(|e| {
            let (f, q) = split(e, shift);
            (!fields[f].is_done(q)).then(|| fields[f].dist[q])
        })
    }

    /// Settle the nearest queued entry, relax its qubit's neighbours in
    /// its field, and return the qubit; `None` once every field is
    /// exhausted.
    fn step(&mut self, topo: &Topology, prices: Prices<'_>) -> Option<usize> {
        self.min_key()?;
        let e = self.queue.pop()?;
        let (f, q) = split(e, self.shift);
        let field = &mut self.fields[f];
        field.settle(q);
        let d = field.dist[q];
        for &x in topo.neighbors(q) {
            let x = x as usize;
            // A settled qubit is at most `d` away: pricing it is wasted.
            if field.is_done(x) {
                continue;
            }
            let nd = d.saturating_add(prices.cost(x));
            if nd < field.dist[x] {
                field.dist[x] = nd;
                if let Some(p) = field.parent.get_mut(x) {
                    *p = q as u32;
                }
                self.queue.push((f << self.shift | x) as u32, nd);
            }
        }
        Some(q)
    }
}

/// Scratch state for routing chains: allocated once per
/// [`try_embed`] and reused by every [`Router::route`] call.
struct Router<'a> {
    logical_adj: &'a [Vec<usize>],
    topo: &'a Topology,
    /// [`Router::root`]'s search: one field per placed neighbour of
    /// the variable being routed.
    roots: Search,
    /// In how many fields each qubit is settled.
    settled_in: Vec<usize>,
    /// The qubits settled in at least one field.
    reached: Vec<u32>,
    /// The search from the growing chain towards one neighbour chain.
    connect: Search,
    /// Membership of the chain being routed.
    in_chain: Vec<bool>,
    /// Qubits outside that chain and next to the neighbour chain being
    /// connected: the candidate ends of the connecting path.
    near: Vec<bool>,
}

impl<'a> Router<'a> {
    fn new(logical_adj: &'a [Vec<usize>], topo: &'a Topology) -> Self {
        let nq = topo.num_qubits();
        Router {
            logical_adj,
            topo,
            roots: Search::new(nq, false),
            settled_in: vec![0; nq],
            reached: Vec::new(),
            connect: Search::new(nq, true),
            in_chain: vec![false; nq],
            near: vec![false; nq],
        }
    }

    /// (Re)build the chain of `v`, allowing penalized overlap.
    fn route(
        &mut self,
        v: usize,
        chains: &mut [Vec<usize>],
        usage: &mut [u32],
        base: u64,
        rng: &mut StdRng,
    ) -> Option<()> {
        let routed = self.route_inner(v, chains, usage, base, rng);
        for &q in &chains[v] {
            self.in_chain[q] = false;
        }
        routed
    }

    fn route_inner(
        &mut self,
        v: usize,
        chains: &mut [Vec<usize>],
        usage: &mut [u32],
        base: u64,
        rng: &mut StdRng,
    ) -> Option<()> {
        let topo = self.topo;
        let nq = topo.num_qubits();
        let placed: Vec<usize> =
            self.logical_adj[v].iter().copied().filter(|&u| !chains[u].is_empty()).collect();
        if placed.is_empty() {
            // Seed at a cheap qubit with usable neighborhood.
            let start = rng.random_range(0..nq);
            let q = (0..nq).map(|i| (start + i) % nq).min_by_key(|&q| {
                (
                    qubit_weight(usage[q], base),
                    Reverse(topo.neighbors(q).iter().filter(|&&x| usage[x as usize] == 0).count()),
                )
            })?;
            usage[q] += 1;
            chains[v].push(q);
            return Some(());
        }
        // Per-call random jitter on qubit costs spreads paths across
        // equivalent corridors — with deterministic tie-breaking, every
        // chain funnels through the same routes and dense problems
        // never untangle.
        let key: u64 = rng.random();
        // Root: qubit minimizing its own occupancy cost (otherwise a
        // fresh chain would happily sit on top of an existing one at
        // distance 0 forever) plus the path cost to every neighbour
        // chain, ties broken by position after a random start so
        // symmetric layouts do not deterministically collide.
        let start = rng.random_range(0..nq);
        let root = self.root(&placed, chains, start, Prices { usage, base, key })?;
        let k = placed.len();
        let mut targets: Vec<usize> = (0..k).collect();
        targets.sort_by_key(|&f| self.roots.fields[f].dist[root]);
        usage[root] += 1;
        self.in_chain[root] = true;
        chains[v].push(root);
        // Connect the root to each neighbor chain one at a time, nearest
        // first, searching from the *whole grown chain* so later paths
        // reuse the trunk built by earlier ones — without this,
        // high-degree variables get one radial path per neighbor and
        // chains balloon. The far half of each new path is donated to
        // the neighbor's chain (the CMR splitting trick).
        for ti in targets {
            let u = placed[ti];
            // Already adjacent?
            let adjacent = chains[v]
                .iter()
                .any(|&a| topo.neighbors(a).iter().any(|&b| chains[u].contains(&(b as usize))));
            // If the chains currently overlap (possible mid-optimization,
            // before the penalty sweeps separate them), skip routing this
            // edge — a later sweep re-routes both chains.
            if adjacent || chains[u].iter().any(|&cu| self.in_chain[cu]) {
                continue;
            }
            // Genuinely unreachable from chain(v): abandon this try.
            let prices = Prices { usage, base, key };
            let target = self.nearest_next_to(&chains[u], &chains[v], prices)?;
            // Walk back from target to chain(v), collecting the new path
            // (ordered from the chain(v) side to the target side).
            let mut path = vec![target];
            let parent = &self.connect.fields[0].parent;
            let mut cur = parent[target] as usize;
            while !self.in_chain[cur] {
                path.push(cur);
                cur = parent[cur] as usize;
            }
            path.reverse();
            let split = path.len().div_ceil(2);
            for (i, &q) in path.iter().enumerate() {
                if i < split {
                    usage[q] += 1;
                    self.in_chain[q] = true;
                    chains[v].push(q);
                } else if !chains[u].contains(&q) {
                    usage[q] += 1;
                    chains[u].push(q);
                }
            }
        }
        Some(())
    }

    /// The qubit minimizing `(cost[q] + Σ dist to each placed chain,
    /// position after start)` — what a full search from every placed
    /// chain followed by a scan of all qubits from `start` would pick —
    /// or `None` if no qubit reaches every placed chain.
    ///
    /// The fields advance together on one queue, always settling the
    /// nearest entry of any field. A qubit settled in every field has
    /// its exact total. Any other qubit's total is at least
    /// [`Router::unsettled_bound`], which is never below the front key
    /// plus [`MIN_JITTER`]; that cheap bound is checked on every pop,
    /// the full one at geometrically spaced pops. Once the best exact
    /// total is strictly below a bound, no other qubit can beat or tie
    /// it, whatever order the fields settled their qubits in. The fields
    /// keep exact `dist` for every qubit they settled, the root
    /// included.
    fn root(
        &mut self,
        placed: &[usize],
        chains: &[Vec<usize>],
        start: usize,
        prices: Prices<'_>,
    ) -> Option<usize> {
        let nq = self.topo.num_qubits();
        let k = placed.len();
        self.roots.start(placed.iter().map(|&u| &chains[u][..]));
        let mut best: Option<(u64, usize, usize)> = None;
        let (mut pops, mut next_scan) = (0usize, 0usize);
        while let Some(key) = self.roots.min_key() {
            if let Some((sum, _, _)) = best {
                if sum < key.saturating_add(MIN_JITTER) {
                    break;
                }
                if pops >= next_scan {
                    next_scan = pops + pops / 8 + 8;
                    if sum < self.unsettled_bound(k, key) {
                        break;
                    }
                }
            }
            pops += 1;
            let q = self.roots.step(self.topo, prices).expect("a live entry is queued");
            self.settled_in[q] += 1;
            if self.settled_in[q] == 1 {
                self.reached.push(q as u32);
            }
            if self.settled_in[q] == k {
                let sum = self.roots.fields[..k]
                    .iter()
                    .fold(prices.cost(q), |s, field| s.saturating_add(field.dist[q]));
                let rank = (q + nq - start) % nq;
                if best.is_none_or(|(s, r, _)| (sum, rank) < (s, r)) {
                    best = Some((sum, rank, q));
                }
            }
        }
        for q in self.reached.drain(..) {
            self.settled_in[q as usize] = 0;
        }
        best.map(|(_, _, q)| q)
    }

    /// A lower bound on the total of every qubit not yet settled in all
    /// of the `k` fields, given the front key `key`: its own cost is at
    /// least [`MIN_JITTER`], and its distance in each field is exact if
    /// settled there and at least `key` otherwise. A qubit settled in no
    /// field has every distance bounded by `key` alone; the others are
    /// scanned.
    fn unsettled_bound(&self, k: usize, key: u64) -> u64 {
        let fields = &self.roots.fields[..k];
        let total = |q: usize| {
            fields.iter().fold(MIN_JITTER, |s, field| s.saturating_add(field.dist[q].min(key)))
        };
        let mut bound = key.saturating_mul(k as u64).saturating_add(MIN_JITTER);
        for &q in &self.reached {
            if self.settled_in[q as usize] < k {
                bound = bound.min(total(q as usize));
            }
        }
        bound
    }

    /// The cheapest qubit next to `neighbor` and outside `chain`, first
    /// in the order of `neighbor`'s qubits and their adjacency lists
    /// among equals — what a full search from `chain` followed by that
    /// scan would pick — or `None` if none is reachable.
    ///
    /// The search stops at the first candidate it settles, at distance
    /// `d`. Every qubit closer than `d` is settled by then, so every
    /// qubit at exactly `d` already holds its exact distance and final
    /// parent, and every other candidate holds more: the scan below
    /// sees the same minimum and the same first qubit at it.
    fn nearest_next_to(
        &mut self,
        neighbor: &[usize],
        chain: &[usize],
        prices: Prices<'_>,
    ) -> Option<usize> {
        let topo = self.topo;
        for &cu in neighbor {
            for &q in topo.neighbors(cu) {
                let q = q as usize;
                self.near[q] = !self.in_chain[q];
            }
        }
        self.connect.start(std::iter::once(chain));
        while let Some(q) = self.connect.step(topo, prices) {
            if self.near[q] {
                break;
            }
        }
        let dist = &self.connect.fields[0].dist;
        let mut best: Option<(u64, usize)> = None;
        for &cu in neighbor {
            for &q in topo.neighbors(cu) {
                let q = q as usize;
                if self.near[q] && dist[q] != u64::MAX && best.is_none_or(|(bd, _)| dist[q] < bd) {
                    best = Some((dist[q], q));
                }
            }
        }
        for &cu in neighbor {
            for &q in topo.neighbors(cu) {
                self.near[q as usize] = false;
            }
        }
        best.map(|(_, q)| q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seed::ATTEMPT_STRIDE;
    use std::collections::BinaryHeap;

    /// Live entries of a [`RadixQueue`] pop in the order of a binary
    /// heap on `(Reverse(key), entry)`, over monotone pushes with ties
    /// at the front key, stale copies of lowered keys, wide jumps, and
    /// keys near `u64::MAX`.
    #[test]
    fn radix_queue_pops_like_a_binary_heap() {
        const N: usize = 48;
        /// Both queues over one key array; `done` marks popped entries.
        struct Queues {
            key: [u64; N],
            done: [bool; N],
            radix: RadixQueue,
            heap: BinaryHeap<(Reverse<u64>, usize)>,
        }
        impl Queues {
            /// Lower the key of `e` to `k`, as a relaxation would.
            fn push(&mut self, e: usize, k: u64) {
                if !self.done[e] && k < self.key[e] {
                    self.key[e] = k;
                    self.radix.push(e as u32, k);
                    self.heap.push((Reverse(k), e));
                }
            }
        }
        for case in 0..300u64 {
            let mut rng = StdRng::seed_from_u64(case);
            let mut qs = Queues {
                key: [u64::MAX; N],
                done: [false; N],
                radix: RadixQueue::new(true),
                heap: BinaryHeap::new(),
            };
            for _ in 0..rng.random_range(1..8) {
                qs.push(rng.random_range(0..N), rng.random_range(0..4));
            }
            let mut pops = 0;
            loop {
                let expected = loop {
                    match qs.heap.pop() {
                        Some((Reverse(k), e)) if qs.done[e] || k > qs.key[e] => continue,
                        popped => break popped.map(|(Reverse(k), e)| (k, e)),
                    }
                };
                let (key, done) = (&qs.key, &qs.done);
                let got = qs
                    .radix
                    .min_key(|e| (!done[e as usize]).then(|| key[e as usize]))
                    .map(|k| (k, qs.radix.pop().expect("a live entry at the front") as usize));
                assert_eq!(got, expected, "case {case}, pop {pops}");
                let Some((k, e)) = got else { break };
                qs.done[e] = true;
                pops += 1;
                for _ in 0..rng.random_range(0..5) {
                    let step = match rng.random_range(0..6) {
                        0 => 0,
                        1 => 1,
                        2 => rng.random_range(0..16),
                        3 => rng.random_range(0..1 << 20),
                        4 => 1 << rng.random_range(0..64),
                        _ => u64::MAX,
                    };
                    qs.push(rng.random_range(0..N), k.saturating_add(step).min(u64::MAX - 1));
                }
            }
            assert!(qs.radix.buckets.iter().all(Vec::is_empty), "case {case} left entries");
        }
    }

    /// A full Dijkstra search with the router's relaxation rule (a
    /// saturated distance leaves a qubit unreached) on a binary heap of
    /// `(Reverse(d), q)`: each reached qubit's distance and parent.
    fn full_search(topo: &Topology, cost: &[u64], sources: &[usize]) -> (Vec<u64>, Vec<u32>) {
        let nq = topo.num_qubits();
        let (mut dist, mut parent) = (vec![u64::MAX; nq], vec![u32::MAX; nq]);
        let mut heap = BinaryHeap::new();
        for &q in sources {
            dist[q] = 0;
            heap.push((Reverse(0), q));
        }
        while let Some((Reverse(d), q)) = heap.pop() {
            if d > dist[q] {
                continue;
            }
            for &x in topo.neighbors(q) {
                let x = x as usize;
                let nd = d.saturating_add(cost[x]);
                if nd < dist[x] {
                    dist[x] = nd;
                    parent[x] = q as u32;
                    heap.push((Reverse(nd), x));
                }
            }
        }
        (dist, parent)
    }

    /// A connected chain of up to `len` qubits grown from `from`.
    fn random_chain(topo: &Topology, from: usize, len: usize, rng: &mut StdRng) -> Vec<usize> {
        let mut chain = vec![from];
        for _ in 1..len {
            let at = chain[rng.random_range(0..chain.len())];
            let nbrs = topo.neighbors(at);
            let q = nbrs[rng.random_range(0..nbrs.len())] as usize;
            if !chain.contains(&q) {
                chain.push(q);
            }
        }
        chain
    }

    /// `topo` plus a 4-qubit clique coupled to nothing else.
    fn with_island(topo: &Topology) -> Topology {
        let nq = topo.num_qubits();
        let mut couplers: Vec<(usize, usize)> = (0..nq)
            .flat_map(|a| {
                topo.neighbors(a)
                    .iter()
                    .map(|&b| b as usize)
                    .filter(move |&b| a < b)
                    .map(move |b| (a, b))
            })
            .collect();
        for a in nq..nq + 4 {
            couplers.extend((a + 1..nq + 4).map(|b| (a, b)));
        }
        Topology::new("island", nq + 4, &couplers)
    }

    /// [`Router::root`] and [`Router::nearest_next_to`] stop their
    /// searches early; over seeded cases they pick exactly what full
    /// searches followed by their documented scans pick, the connecting
    /// path included. Cases mix penalty bases up to the `1 << 40` cap
    /// (where a qubit used twice costs `u64::MAX` and is never reached),
    /// overlapping chains, and chains on an island no other chain can
    /// reach.
    #[test]
    fn early_stopped_searches_match_full_searches() {
        const MAX_K: usize = 6;
        let topos = [with_island(&Topology::pegasus(6)), Topology::advantage_4_1()];
        let adj = vec![(1..=MAX_K).collect::<Vec<_>>()];
        let mut unreachable = 0;
        for (t, topo) in topos.iter().enumerate() {
            let nq = topo.num_qubits();
            let mut router = Router::new(&adj, topo);
            for case in 0..[60, 16][t] {
                let mut rng = StdRng::seed_from_u64(case);
                let base = [4, 64, 1 << 20, 1 << 40][rng.random_range(0..4)];
                let usage: Vec<u32> =
                    (0..nq).map(|_| [0, 0, 0, 0, 1, 2, 3][rng.random_range(0..7)]).collect();
                let prices = Prices { usage: &usage, base, key: rng.random() };
                let cost: Vec<u64> = (0..nq).map(|q| prices.cost(q)).collect();
                let chain_at = |rng: &mut StdRng| {
                    let from = if t == 0 && rng.random_range(0..8) == 0 {
                        nq - 1 - rng.random_range(0..4)
                    } else {
                        rng.random_range(0..nq)
                    };
                    let len = rng.random_range(1..8);
                    random_chain(topo, from, len, rng)
                };
                let k = rng.random_range(1..=MAX_K);
                let chains: Vec<Vec<usize>> = (0..k).map(|_| chain_at(&mut rng)).collect();
                let placed: Vec<usize> = (0..k).collect();
                let start = rng.random_range(0..nq);

                let fields: Vec<Vec<u64>> =
                    chains.iter().map(|c| full_search(topo, &cost, c).0).collect();
                let expected = (0..nq)
                    .map(|i| (start + i) % nq)
                    .filter(|&q| fields.iter().all(|d| d[q] != u64::MAX))
                    .min_by_key(|&q| fields.iter().fold(cost[q], |s, d| s.saturating_add(d[q])));
                let root = router.root(&placed, &chains, start, prices);
                assert_eq!(root, expected, "root, topology {t} case {case}");
                if let Some(root) = root {
                    for (f, d) in fields.iter().enumerate() {
                        assert_eq!(router.roots.fields[f].dist[root], d[root], "case {case}");
                    }
                } else {
                    unreachable += 1;
                }

                let (chain, neighbor) = (chain_at(&mut rng), chain_at(&mut rng));
                let (dist, parent) = full_search(topo, &cost, &chain);
                let expected = neighbor
                    .iter()
                    .flat_map(|&cu| topo.neighbors(cu))
                    .map(|&q| q as usize)
                    .filter(|&q| !chain.contains(&q) && dist[q] != u64::MAX)
                    .fold(None, |best: Option<usize>, q| match best {
                        Some(b) if dist[b] <= dist[q] => Some(b),
                        _ => Some(q),
                    });
                for &q in &chain {
                    router.in_chain[q] = true;
                }
                let target = router.nearest_next_to(&neighbor, &chain, prices);
                assert_eq!(target, expected, "nearest, topology {t} case {case}");
                if let Some(mut q) = target {
                    while !chain.contains(&q) {
                        let p = router.connect.fields[0].parent[q];
                        assert_eq!(p, parent[q], "path, topology {t} case {case}");
                        q = p as usize;
                    }
                }
                for &q in &chain {
                    router.in_chain[q] = false;
                }
            }
        }
        assert!(unreachable > 0, "no case exercised an unreachable root");
    }

    fn path_adj(n: usize) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); n];
        for i in 0..n - 1 {
            adj[i].push(i + 1);
            adj[i + 1].push(i);
        }
        adj
    }

    fn complete_adj(n: usize) -> Vec<Vec<usize>> {
        (0..n).map(|u| (0..n).filter(|&v| v != u).collect()).collect()
    }

    #[test]
    fn tries_never_alias_try_zero_of_a_related_seed() {
        // The annealer backend's rip-up attempt `k` (its try 0).
        let attempt = |s: u64, k: u64| derive_seed(s, k, ATTEMPT_STRIDE);
        for s in (0..64u64).chain([u64::MAX, ATTEMPT_STRIDE, 1 << 63]) {
            assert_eq!(try_seed(s, 0), s, "try 0 must keep the caller's seed");
            for t in 1..16usize {
                let k = t as u64;
                let linear = s ^ k.wrapping_mul(ATTEMPT_STRIDE);
                for related in [s.wrapping_add(k), linear, attempt(s, k)] {
                    assert_ne!(try_seed(s, t), try_seed(related, 0), "seed {s} try {t}");
                }
            }
        }
    }

    #[test]
    fn identity_embedding_on_complete_topology() {
        let topo = Topology::complete(8);
        let adj = complete_adj(6);
        let e = find_embedding(&adj, &topo, 1, 4).expect("embeds");
        assert_eq!(e.num_physical(), 6, "complete hardware needs unit chains");
        assert_eq!(e.max_chain_length(), 1);
    }

    #[test]
    fn path_embeds_in_chimera() {
        let topo = Topology::chimera(2, 2, 4);
        let adj = path_adj(10);
        let e = find_embedding(&adj, &topo, 2, 8).expect("embeds");
        assert!(e.is_valid(&adj, &topo));
    }

    #[test]
    fn dense_problem_needs_chains() {
        // K8 cannot embed in Chimera(2,2,4) with unit chains: hardware
        // degree is 6 < 7. Chains must appear.
        let topo = Topology::chimera(2, 2, 4);
        let adj = complete_adj(8);
        let e = find_embedding(&adj, &topo, 3, 30).expect("K8 fits in 32 qubits");
        assert!(e.is_valid(&adj, &topo));
        assert!(
            e.num_physical() > 8,
            "dense logical graph must use chains: {} qubits",
            e.num_physical()
        );
    }

    #[test]
    fn too_large_problem_fails() {
        // K10 cannot embed in 8 qubits at all.
        let topo = Topology::complete(8);
        let adj = complete_adj(10);
        assert_eq!(find_embedding(&adj, &topo, 4, 4), None);
    }

    #[test]
    fn isolated_variables_get_unit_chains() {
        let topo = Topology::chimera(1, 1, 4);
        let adj = vec![Vec::new(); 4];
        let e = find_embedding(&adj, &topo, 5, 4).expect("embeds");
        assert_eq!(e.num_physical(), 4);
        assert!(e.is_valid(&adj, &topo));
    }

    #[test]
    fn empty_problem() {
        let topo = Topology::complete(4);
        let e = find_embedding(&[], &topo, 6, 1).expect("trivially embeds");
        assert_eq!(e.num_logical(), 0);
        assert_eq!(e.num_physical(), 0);
    }

    #[test]
    fn validation_rejects_overlapping_chains() {
        let topo = Topology::complete(4);
        let e = Embedding::from_chains(vec![vec![0, 1], vec![1, 2]]);
        assert!(!e.is_valid(&path_adj(2), &topo));
    }

    #[test]
    fn validation_rejects_disconnected_chain() {
        // Path topology 0-1-2-3: chain {0, 3} is disconnected.
        let topo = Topology::new("path4", 4, &[(0, 1), (1, 2), (2, 3)]);
        let e = Embedding::from_chains(vec![vec![0, 3]]);
        assert!(!e.is_valid(&[vec![]], &topo));
    }

    #[test]
    fn validation_rejects_uncovered_edge() {
        // Two chains with no coupler between them.
        let topo = Topology::new("two-pairs", 4, &[(0, 1), (2, 3)]);
        let e = Embedding::from_chains(vec![vec![0], vec![3]]);
        assert!(!e.is_valid(&path_adj(2), &topo));
    }

    #[test]
    fn larger_scale_on_pegasus() {
        // A 48-variable one-hot style problem on the Advantage-scale
        // lattice (the paper's clique-cover instances are this size).
        let topo = Topology::pegasus(6);
        let mut adj = vec![Vec::new(); 48];
        for v in 0..12 {
            for a in 0..4 {
                for b in 0..4 {
                    if a != b {
                        adj[v * 4 + a].push(v * 4 + b);
                    }
                }
            }
        }
        // Ring of one-hot groups with cross couplings.
        for v in 0..12 {
            for k in 0..4 {
                let u = ((v + 1) % 12) * 4 + k;
                adj[v * 4 + k].push(u);
                adj[u].push(v * 4 + k);
            }
        }
        for l in &mut adj {
            l.sort_unstable();
            l.dedup();
        }
        let e = find_embedding(&adj, &topo, 7, 10).expect("embeds at scale");
        assert!(e.is_valid(&adj, &topo));
        assert!(e.num_physical() >= 48);
    }

    #[test]
    fn chain_lengths_grow_with_density() {
        // §VIII-A: denser problems need more physical qubits per
        // variable. Compare a ring to a complete graph of the same
        // size on the same hardware.
        let topo = Topology::chimera(4, 4, 4);
        let ring = {
            let mut adj = vec![Vec::new(); 12];
            for i in 0..12 {
                adj[i].push((i + 1) % 12);
                adj[(i + 1) % 12].push(i);
            }
            adj
        };
        let sparse = find_embedding(&ring, &topo, 11, 10).expect("ring embeds");
        let dense = find_embedding(&complete_adj(12), &topo, 11, 30).expect("K12 embeds");
        assert!(
            dense.num_physical() > sparse.num_physical(),
            "K12 ({}) should use more qubits than C12 ({})",
            dense.num_physical(),
            sparse.num_physical()
        );
    }
}
