//! Simulated annealing sampler over arbitrary Ising problems.
//!
//! The physical anneal of the D-Wave device is replaced by classical
//! simulated annealing over the *embedded* problem, with an ICE-style
//! noise model: per-read Gaussian perturbation of fields and couplings
//! plus readout flips. A job prepares its problem once
//! (`PreparedIsing`); a job of more than one block of reads runs them
//! on scoped worker threads, one per available core. A worker anneals
//! its reads in lockstep groups of `LANES`, one read per lane of its
//! buffers, and the reads left over in a block one at a time. Each read
//! is seeded by its own index and its lane repeats exactly what the read
//! annealed alone would do, so the samples are the same whichever
//! worker or lane drew them.

use crate::seed::{derive_seed, READ_STRIDE};
use nck_cancel::CancelToken;
use nck_qubo::Ising;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Reads a worker claims at a time. A range of at most this many reads
/// runs on the calling thread, so a 100-read job (the paper's §VII
/// protocol) never spawns one. On a 2-core x86-64 machine, spawning
/// just an empty thread per job made the embedding-bound `paper-cold`
/// benchmark workload ~10% slower at its p90 latency, more than a
/// second worker saves on so few reads.
const BLOCK: usize = 128;

/// Simulated-annealing schedule parameters.
#[derive(Clone, Copy, Debug)]
pub struct SaParams {
    /// Metropolis sweeps per read.
    pub num_sweeps: usize,
    /// Initial inverse temperature.
    pub beta_min: f64,
    /// Final inverse temperature.
    pub beta_max: f64,
}

impl Default for SaParams {
    fn default() -> Self {
        SaParams { num_sweeps: 64, beta_min: 0.1, beta_max: 10.0 }
    }
}

/// Analog-control error model (D-Wave "ICE"): coefficients seen by the
/// hardware differ slightly from the programmed ones, and readout
/// occasionally flips.
#[derive(Clone, Copy, Debug)]
pub struct NoiseModel {
    /// Gaussian σ added to each field, per read.
    pub h_sigma: f64,
    /// Gaussian σ added to each coupling, per read.
    pub j_sigma: f64,
    /// Probability of flipping each qubit at readout.
    pub readout_flip: f64,
}

impl NoiseModel {
    /// No noise at all (for deterministic tests).
    pub fn ideal() -> Self {
        NoiseModel { h_sigma: 0.0, j_sigma: 0.0, readout_flip: 0.0 }
    }

    /// Default calibration roughly matching published ICE magnitudes
    /// for problems autoscaled to `[−1, 1]`.
    pub fn dwave_default() -> Self {
        NoiseModel { h_sigma: 0.03, j_sigma: 0.02, readout_flip: 0.001 }
    }
}

/// An Ising problem prepared for sampling: its active qubits, their
/// couplings in CSR form and the precomputed cluster moves. Built once
/// per job and gauge, then shared read-only by every worker.
pub(crate) struct PreparedIsing {
    /// Active qubit ids (those with a field or coupling), ascending.
    qubits: Vec<usize>,
    /// Field per active qubit.
    h: Vec<f64>,
    /// The couplings of compact qubit `i` sit in slots
    /// `row[i]..row[i + 1]`, in ascending neighbour order.
    row: Vec<usize>,
    /// `(compact neighbour, coupling)` per slot.
    adj: Vec<(usize, f64)>,
    /// Per slot, the slot holding the same coupling in the neighbour's
    /// row.
    rev: Vec<usize>,
    /// Cluster moves with two or more active members.
    clusters: Vec<Cluster>,
}

/// One cluster move: flipping its members together changes the energy
/// only through their fields and the couplings leaving the cluster.
struct Cluster {
    /// Compact member indices, in the order the caller listed them.
    members: Vec<usize>,
    /// Member `k`'s couplings leaving the cluster are
    /// `slots[bounds[k]..bounds[k + 1]]`.
    bounds: Vec<usize>,
    slots: Vec<usize>,
}

/// Reads a worker anneals in lockstep. Each read's Metropolis sweep is
/// one long dependency chain (sum a row, flip, let the next row read the
/// flip); interleaving independent reads lets those chains overlap, the
/// replica-parallel "multi-spin" scheme of Isakov et al. (arXiv:1401.1084).
/// With the `anneal-warm` benchmark pinned to one core of a shared
/// x86-64 machine, eight lanes raised its throughput by 41–49% and four
/// lanes by 29–38%.
const LANES: usize = 8;

/// One worker's buffers for annealing `L` reads in lockstep, reused
/// across its groups: lane `l` of every entry belongs to the group's
/// `l`-th read.
struct Lanes<const L: usize> {
    h: Vec<[f64; L]>,
    /// `(compact neighbour, coupling)` per slot of `PreparedIsing::adj`.
    adj: Vec<(usize, [f64; L])>,
    spin: Vec<[f64; L]>,
    /// One read's compact readout.
    out: Vec<bool>,
}

impl<const L: usize> Lanes<L> {
    /// Buffers for `prepared`, every coupling lane holding its
    /// noise-free value.
    fn new(prepared: &PreparedIsing) -> Self {
        let n = prepared.h.len();
        Lanes {
            h: vec![[0.0; L]; n],
            adj: prepared.adj.iter().map(|&(k, c)| (k, [c; L])).collect(),
            spin: vec![[0.0; L]; n],
            out: vec![false; n],
        }
    }
}

/// Box–Muller standard normal.
fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random::<f64>().max(1e-300);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Draw `num_reads` samples from `ising` (full-length spin vectors,
/// `true` = +1; qubits with no field or coupling read +1).
/// Deterministic in `seed`.
pub fn sample_ising(
    ising: &Ising,
    params: &SaParams,
    noise: &NoiseModel,
    num_reads: usize,
    seed: u64,
) -> Vec<Vec<bool>> {
    let prepared = PreparedIsing::new(ising, &[]);
    let expand = |spins: &[bool]| {
        let mut full = vec![true; ising.num_spins()];
        for (&q, &v) in prepared.qubits().iter().zip(spins) {
            full[q] = v;
        }
        full
    };
    prepared.sample_range(params, noise, 0..num_reads, seed, &CancelToken::never(), &expand)
}

impl PreparedIsing {
    /// Prepare `ising` for sampling with *cluster moves*: each sweep
    /// additionally proposes flipping every listed qubit group (an
    /// embedding's chains) as a single Metropolis move. Single-spin
    /// dynamics freeze on chained problems — flipping a logical
    /// variable means crossing a barrier of broken-chain states —
    /// whereas the physical annealer's quantum dynamics reorient chains
    /// collectively; cluster moves are the standard classical stand-in
    /// (see DESIGN.md). Inactive qubits are dropped from each group, and
    /// groups left with fewer than two members are skipped.
    pub(crate) fn new(ising: &Ising, clusters: &[Vec<usize>]) -> Self {
        let num_spins = ising.num_spins();
        let mut active = vec![false; num_spins];
        let mut degree = vec![0usize; num_spins];
        for (i, _) in ising.fields() {
            active[i] = true;
        }
        for ((a, b), _) in ising.couplings() {
            active[a] = true;
            active[b] = true;
            degree[a] += 1;
            degree[b] += 1;
        }
        let qubits: Vec<usize> = (0..num_spins).filter(|&q| active[q]).collect();
        let mut index = vec![usize::MAX; num_spins];
        for (ci, &q) in qubits.iter().enumerate() {
            index[q] = ci;
        }
        let n = qubits.len();
        let mut h = vec![0.0; n];
        for (i, f) in ising.fields() {
            h[index[i]] = f;
        }
        let mut row = Vec::with_capacity(n + 1);
        row.push(0);
        for &q in &qubits {
            row.push(row[row.len() - 1] + degree[q]);
        }
        // Couplings come in ascending (a, b) order, so appending each
        // to both rows fills every row in ascending neighbour order.
        let mut fill = row[..n].to_vec();
        let mut adj = vec![(0, 0.0); row[n]];
        let mut rev = vec![0; row[n]];
        for ((a, b), c) in ising.couplings() {
            let (a, b) = (index[a], index[b]);
            let (sa, sb) = (fill[a], fill[b]);
            (adj[sa], rev[sa]) = ((b, c), sb);
            (adj[sb], rev[sb]) = ((a, c), sa);
            fill[a] += 1;
            fill[b] += 1;
        }
        let mut in_cluster = vec![false; n];
        let clusters = clusters
            .iter()
            .filter_map(|c| {
                let members: Vec<usize> =
                    c.iter().map(|&q| index[q]).filter(|&ci| ci != usize::MAX).collect();
                if members.len() < 2 {
                    return None;
                }
                for &i in &members {
                    in_cluster[i] = true;
                }
                let mut bounds = vec![0];
                let mut slots = Vec::new();
                for &i in &members {
                    slots.extend((row[i]..row[i + 1]).filter(|&s| !in_cluster[adj[s].0]));
                    bounds.push(slots.len());
                }
                for &i in &members {
                    in_cluster[i] = false;
                }
                Some(Cluster { members, bounds, slots })
            })
            .collect();
        PreparedIsing { qubits, h, row, adj, rev, clusters }
    }

    /// Active qubit ids, ascending: entry `i` of a read's compact spins
    /// is qubit `qubits()[i]`.
    pub(crate) fn qubits(&self) -> &[usize] {
        &self.qubits
    }

    /// Draw the reads with global indices in `reads` and hand each
    /// read's compact spins (`true` = +1, see
    /// [`qubits`](Self::qubits)) to `readout`, returning its results in
    /// read-index order.
    ///
    /// The reads run on `available_parallelism()` scoped workers, which
    /// claim blocks of read indices; a range that fits in one block
    /// runs on the calling thread, and no thread outlives the call.
    /// Each read's RNG stream depends only on `(seed, read index)`, so
    /// the output depends neither on the number of workers nor on which
    /// reads share a lockstep group, and
    /// computing reads `[skip..n)` after a restart is bit-identical to
    /// the tail of a single `[0..n)` run — the foundation of mid-solve
    /// checkpoint/resume for the annealer.
    ///
    /// Cancellation: `cancel` is polled before each group of reads and
    /// once per sweep. A group not finished when the token fires is
    /// dropped whole, so a deadline yields every read the job
    /// completed, each whole and in index order.
    pub(crate) fn sample_range<T: Send>(
        &self,
        params: &SaParams,
        noise: &NoiseModel,
        reads: Range<usize>,
        seed: u64,
        cancel: &CancelToken,
        readout: &(impl Fn(&[bool]) -> T + Sync),
    ) -> Vec<T> {
        // Only a range of more than one block can use a second worker.
        let workers = if reads.len() > BLOCK {
            thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            1
        };
        self.sample_on(workers, params, noise, reads, seed, cancel, readout)
    }

    /// [`sample_range`](Self::sample_range) on at most `workers`
    /// threads, the calling thread included.
    #[allow(clippy::too_many_arguments)]
    fn sample_on<T: Send>(
        &self,
        workers: usize,
        params: &SaParams,
        noise: &NoiseModel,
        reads: Range<usize>,
        seed: u64,
        cancel: &CancelToken,
        readout: &(impl Fn(&[bool]) -> T + Sync),
    ) -> Vec<T> {
        let betas: Vec<f64> = (0..params.num_sweeps)
            .map(|s| {
                if params.num_sweeps <= 1 {
                    params.beta_max
                } else {
                    let f = s as f64 / (params.num_sweeps - 1) as f64;
                    params.beta_min * (params.beta_max / params.beta_min).powf(f)
                }
            })
            .collect();
        let blocks = reads.len().div_ceil(BLOCK);
        // Hands out each block index once. The counter publishes no
        // other data (results come back through `join`), so `Relaxed`
        // suffices.
        let next = AtomicUsize::new(0);
        // Read `r` draws stream `r + 1` of the job seed, so no read's RNG
        // is seeded with the raw job seed.
        let stream = |read: usize| derive_seed(seed, read as u64 + 1, READ_STRIDE);
        let work = || {
            // Allocated on first use: a job of fewer than `LANES` reads
            // never builds the wide buffers.
            let mut wide: Option<Lanes<LANES>> = None;
            let mut narrow: Option<Lanes<1>> = None;
            let mut done = Vec::new();
            loop {
                let block = next.fetch_add(1, Ordering::Relaxed);
                if block >= blocks || cancel.is_cancelled() {
                    break;
                }
                let lo = reads.start + block * BLOCK;
                let hi = (lo + BLOCK).min(reads.end);
                // Full groups run in lockstep; the last `< LANES` reads
                // run one at a time rather than in a padded group.
                let tail = hi - (hi - lo) % LANES;
                for first in (lo..tail).step_by(LANES) {
                    let lanes = wide.get_or_insert_with(|| Lanes::new(self));
                    let streams = std::array::from_fn(|l| stream(first + l));
                    self.anneal(lanes, streams, &betas, noise, cancel, |l, spins| {
                        done.push((first + l, readout(spins)));
                    });
                }
                for read in tail..hi {
                    let lanes = narrow.get_or_insert_with(|| Lanes::new(self));
                    self.anneal(lanes, [stream(read)], &betas, noise, cancel, |_, spins| {
                        done.push((read, readout(spins)));
                    });
                }
            }
            done
        };
        let mut done = thread::scope(|s| {
            let helpers: Vec<_> = (1..workers.min(blocks)).map(|_| s.spawn(work)).collect();
            let mut done = work();
            for helper in helpers {
                done.extend(helper.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
            }
            done
        });
        done.sort_unstable_by_key(|&(read, _)| read);
        done.into_iter().map(|(_, t)| t).collect()
    }

    /// Anneal `L` reads in lockstep, lane `l` on RNG stream
    /// `streams[l]`, and hand each lane's compact readout to `emit`, in
    /// lane order. Every lane performs exactly the float operations and
    /// RNG draws of its read annealed alone, so a read's spins do not
    /// depend on `L` or on the reads beside it. If `cancel` fires before
    /// the group finishes, nothing is emitted.
    fn anneal<const L: usize>(
        &self,
        lanes: &mut Lanes<L>,
        streams: [u64; L],
        betas: &[f64],
        noise: &NoiseModel,
        cancel: &CancelToken,
        mut emit: impl FnMut(usize, &[bool]),
    ) {
        if cancel.is_cancelled() {
            return;
        }
        let mut rngs = streams.map(StdRng::seed_from_u64);
        // Slices, not `&mut Vec`s, so the hot loops keep each buffer's
        // address in a register.
        let h = lanes.h.as_mut_slice();
        let adj = lanes.adj.as_mut_slice();
        let spin = lanes.spin.as_mut_slice();
        for (l, rng) in rngs.iter_mut().enumerate() {
            // Per-read ICE perturbation.
            for (v, &base) in h.iter_mut().zip(&self.h) {
                v[l] = base + noise.h_sigma * gaussian(rng);
            }
            // Perturb each coupling once, in ascending (i, j) order, and
            // give both of its slots the same value. Without coupling
            // noise every lane keeps the value `Lanes::new` gave it.
            if noise.j_sigma != 0.0 {
                for i in 0..h.len() {
                    for slot in self.row[i]..self.row[i + 1] {
                        let (k, c) = self.adj[slot];
                        if k > i {
                            let v = c + noise.j_sigma * gaussian(rng);
                            adj[slot].1[l] = v;
                            adj[self.rev[slot]].1[l] = v;
                        }
                    }
                }
            }
            // Random initial spins.
            for s in spin.iter_mut() {
                s[l] = if rng.random::<bool>() { 1.0 } else { -1.0 };
            }
        }
        let adj = &*adj;
        for &beta in betas {
            // Cooperative cancellation poll, once per sweep: a group cut
            // short is dropped whole.
            if cancel.is_cancelled() {
                return;
            }
            for i in 0..spin.len() {
                // ΔE of flipping spin i: −2·s_i·(h_i + Σ J_ij s_j)
                let mut local = h[i];
                for &(k, c) in &adj[self.row[i]..self.row[i + 1]] {
                    for l in 0..L {
                        local[l] += c[l] * spin[k][l];
                    }
                }
                for (l, rng) in rngs.iter_mut().enumerate() {
                    let s = spin[i][l];
                    let delta = -2.0 * s * local[l];
                    // Uphill moves draw u; downhill moves draw nothing,
                    // so the draw is kept only for the former.
                    let mut drawn = rng.clone();
                    let u = drawn.random::<f64>();
                    let reject = delta >= 0.0 && (-(beta * delta)).exp() < u;
                    if delta >= 0.0 {
                        *rng = drawn;
                    }
                    spin[i][l] = if reject { s } else { -s };
                }
            }
            // Cluster pass: flip whole chains at once. Internal
            // couplings cancel; only fields and boundary couplings
            // contribute to ΔE.
            for cluster in &self.clusters {
                let mut delta = [0.0; L];
                for (k, &i) in cluster.members.iter().enumerate() {
                    let mut local = h[i];
                    for &slot in &cluster.slots[cluster.bounds[k]..cluster.bounds[k + 1]] {
                        let (j, c) = adj[slot];
                        for l in 0..L {
                            local[l] += c[l] * spin[j][l];
                        }
                    }
                    for l in 0..L {
                        delta[l] += -2.0 * spin[i][l] * local[l];
                    }
                }
                let mut flip = [false; L];
                for (l, rng) in rngs.iter_mut().enumerate() {
                    let downhill = delta[l] < 0.0;
                    let mut drawn = rng.clone();
                    let u = drawn.random::<f64>();
                    flip[l] = downhill || (-(beta * delta[l])).exp() >= u;
                    if !downhill {
                        *rng = drawn;
                    }
                }
                for &i in &cluster.members {
                    for l in 0..L {
                        if flip[l] {
                            spin[i][l] = -spin[i][l];
                        }
                    }
                }
            }
        }
        // Readout with occasional flips.
        for (l, rng) in rngs.iter_mut().enumerate() {
            for (o, s) in lanes.out.iter_mut().zip(spin.iter()) {
                let mut v = s[l] > 0.0;
                if noise.readout_flip > 0.0 && rng.random::<f64>() < noise.readout_flip {
                    v = !v;
                }
                *o = v;
            }
            emit(l, &lanes.out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seed::splitmix64;

    /// Frustrated-free ferromagnetic chain: ground states all-up /
    /// all-down.
    fn fm_chain(n: usize) -> Ising {
        let mut ising = Ising::new(n);
        for i in 0..n - 1 {
            ising.add_coupling(i, i + 1, -1.0);
        }
        ising
    }

    #[test]
    fn finds_ferromagnetic_ground_state() {
        let ising = fm_chain(12);
        let samples = sample_ising(&ising, &SaParams::default(), &NoiseModel::ideal(), 20, 42);
        let ground = -(11.0);
        let hits = samples.iter().filter(|s| (ising.energy(s) - ground).abs() < 1e-9).count();
        assert!(hits >= 15, "only {hits}/20 reads reached the ground state");
    }

    #[test]
    fn field_bias_respected() {
        let mut ising = Ising::new(4);
        for i in 0..4 {
            ising.add_field(i, -1.0); // minimized at s = +1
        }
        let samples = sample_ising(&ising, &SaParams::default(), &NoiseModel::ideal(), 10, 7);
        for s in &samples {
            assert_eq!(&s[..4], &[true; 4]);
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let ising = fm_chain(8);
        let a = sample_ising(&ising, &SaParams::default(), &NoiseModel::dwave_default(), 5, 3);
        let b = sample_ising(&ising, &SaParams::default(), &NoiseModel::dwave_default(), 5, 3);
        assert_eq!(a, b);
        let c = sample_ising(&ising, &SaParams::default(), &NoiseModel::dwave_default(), 5, 4);
        assert_ne!(a, c);
    }

    #[test]
    fn inactive_qubits_untouched() {
        // Problem on qubits 2 and 5 of a 10-spin register.
        let mut ising = Ising::new(10);
        ising.add_coupling(2, 5, -1.0);
        let samples = sample_ising(&ising, &SaParams::default(), &NoiseModel::ideal(), 5, 1);
        for s in &samples {
            assert_eq!(s.len(), 10);
            assert_eq!(s[2], s[5], "FM pair should align");
        }
    }

    #[test]
    fn readout_noise_flips_some_bits() {
        let mut ising = Ising::new(64);
        for i in 0..64 {
            ising.add_field(i, -1.0);
        }
        let noisy = NoiseModel { h_sigma: 0.0, j_sigma: 0.0, readout_flip: 0.2 };
        let samples = sample_ising(&ising, &SaParams::default(), &noisy, 10, 11);
        let flips: usize = samples.iter().map(|s| s.iter().filter(|&&b| !b).count()).sum();
        assert!(flips > 0, "readout noise should flip something across 640 readouts");
    }

    #[test]
    fn fewer_sweeps_degrade_quality() {
        // A larger frustrated ring: quick anneals should fail more.
        let mut ising = Ising::new(40);
        for i in 0..40 {
            ising.add_coupling(i, (i + 1) % 40, -1.0);
            ising.add_field(i, if i % 2 == 0 { 0.1 } else { -0.1 });
        }
        let good = sample_ising(
            &ising,
            &SaParams { num_sweeps: 256, ..SaParams::default() },
            &NoiseModel::ideal(),
            30,
            5,
        );
        let bad = sample_ising(
            &ising,
            &SaParams { num_sweeps: 2, beta_min: 0.1, beta_max: 0.2 },
            &NoiseModel::ideal(),
            30,
            5,
        );
        let best =
            |ss: &[Vec<bool>]| ss.iter().map(|s| ising.energy(s)).fold(f64::INFINITY, f64::min);
        assert!(best(&good) < best(&bad), "longer anneal should find lower energy");
    }

    #[test]
    fn fired_token_drops_unstarted_reads() {
        let ising = fm_chain(8);
        let token = CancelToken::never();
        token.cancel();
        let samples = PreparedIsing::new(&ising, &[]).sample_range(
            &SaParams::default(),
            &NoiseModel::ideal(),
            0..10,
            3,
            &token,
            &|s: &[bool]| s.to_vec(),
        );
        assert!(samples.is_empty(), "no read should start after cancellation");
    }

    /// SplitMix64 stream for building test problems.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
            splitmix64(self.0)
        }

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// A random sparse Ising over `n` spins; every third spin is left
    /// inactive.
    fn random_ising(n: usize, seed: u64) -> Ising {
        let mut rng = Mix(seed);
        let mut ising = Ising::new(n);
        let live: Vec<usize> = (0..n).filter(|q| q % 3 != 2).collect();
        for &q in &live {
            if rng.next().is_multiple_of(2) {
                ising.add_field(q, rng.unit() - 0.5);
            }
        }
        for (a, &p) in live.iter().enumerate() {
            for &q in &live[a + 1..] {
                if rng.next().is_multiple_of(3) {
                    ising.add_coupling(p, q, 2.0 * rng.unit() - 1.0);
                }
            }
        }
        // Keep every live spin active even if it drew no term.
        for &q in &live {
            if ising.field(q) == 0.0 {
                ising.add_field(q, 0.25);
            }
        }
        ising
    }

    fn copy(spins: &[bool]) -> Vec<bool> {
        spins.to_vec()
    }

    #[test]
    fn threaded_reads_equal_single_read_ranges() {
        let params = SaParams { num_sweeps: 16, ..SaParams::default() };
        let noisy = NoiseModel { readout_flip: 0.05, ..NoiseModel::dwave_default() };
        let never = CancelToken::never();
        for (case, n) in [1usize, 5, 13, 31].into_iter().enumerate() {
            let ising = random_ising(n, case as u64);
            // Chains over active and inactive spins alike; the sampler
            // drops the inactive ones.
            let chains: Vec<Vec<usize>> =
                (0..n).collect::<Vec<_>>().chunks(3).map(<[usize]>::to_vec).collect();
            for noise in [NoiseModel::ideal(), noisy] {
                for clusters in [&[][..], &chains[..]] {
                    let prepared = PreparedIsing::new(&ising, clusters);
                    for reads in [
                        0..1,
                        0..7,
                        2..11,
                        5..37,
                        0..BLOCK,
                        BLOCK - 3..2 * BLOCK + 5,
                        3..3 * BLOCK - 2,
                    ] {
                        let one_at_a_time: Vec<Vec<bool>> = reads
                            .clone()
                            .flat_map(|r| {
                                prepared.sample_range(
                                    &params,
                                    &noise,
                                    r..r + 1,
                                    case as u64 + 7,
                                    &never,
                                    &copy,
                                )
                            })
                            .collect();
                        assert_eq!(one_at_a_time.len(), reads.len());
                        for workers in [1, 2, 3, 8] {
                            let threaded = prepared.sample_on(
                                workers,
                                &params,
                                &noise,
                                reads.clone(),
                                case as u64 + 7,
                                &never,
                                &copy,
                            );
                            assert_eq!(
                                threaded,
                                one_at_a_time,
                                "n {n}, reads {reads:?}, workers {workers}, noise {noise:?}, \
                                 {} clusters",
                                clusters.len()
                            );
                        }
                    }
                }
            }
        }
    }

    /// Fold every bit of `reads` into a 64-bit FNV-1a digest, each read
    /// prefixed by its length so adjacent reads cannot run together.
    fn fnv(mut digest: u64, reads: &[Vec<bool>]) -> u64 {
        let mut byte = |b: u8| {
            digest ^= u64::from(b);
            digest = digest.wrapping_mul(0x0100_0000_01b3);
        };
        for read in reads {
            read.len().to_le_bytes().into_iter().for_each(&mut byte);
            read.iter().for_each(|&s| byte(u8::from(s)));
        }
        digest
    }

    /// Pins the sampler's output bit for bit: ideal and ICE noise,
    /// readout flips, cluster moves, and read ranges shorter than a
    /// lane group, not a multiple of one, and crossing a block. A change
    /// to the annealing kernel must leave the digest unchanged; a
    /// deliberate change of the samples must update it and say why.
    #[test]
    fn samples_match_the_pinned_digest() {
        let mut digest = 0xcbf2_9ce4_8422_2325;
        let chain = fm_chain(12);
        for noise in [NoiseModel::ideal(), NoiseModel::dwave_default()] {
            digest = fnv(digest, &sample_ising(&chain, &SaParams::default(), &noise, 20, 42));
        }
        let params = SaParams { num_sweeps: 16, ..SaParams::default() };
        let flips = NoiseModel { readout_flip: 0.05, ..NoiseModel::dwave_default() };
        let never = CancelToken::never();
        for (case, n) in [7usize, 31].into_iter().enumerate() {
            let ising = random_ising(n, case as u64 + 11);
            let chains: Vec<Vec<usize>> =
                (0..n).collect::<Vec<_>>().chunks(4).map(<[usize]>::to_vec).collect();
            for noise in [NoiseModel::ideal(), NoiseModel::dwave_default(), flips] {
                digest = fnv(digest, &sample_ising(&ising, &params, &noise, 13, case as u64));
                for clusters in [&[][..], &chains[..]] {
                    let prepared = PreparedIsing::new(&ising, clusters);
                    for reads in [0..5, 2..11, 3..27, 1..BLOCK + 14] {
                        let got = prepared.sample_range(&params, &noise, reads, 99, &never, &copy);
                        digest = fnv(digest, &got);
                    }
                }
            }
        }
        assert_eq!(digest, 0x9b31_91df_e4e8_248a, "sample digest {digest:016x}");
    }

    #[test]
    fn cancelled_reads_are_whole_and_in_index_order() {
        // Few hot sweeps keep the reads close to random, so every read
        // is told apart by its spins.
        let params = SaParams { num_sweeps: 2, beta_min: 0.01, beta_max: 0.02 };
        let ising = random_ising(48, 3);
        let prepared = PreparedIsing::new(&ising, &[vec![0, 1, 3], vec![4, 6]]);
        let noise = NoiseModel::dwave_default();
        let never = CancelToken::never();
        let reads = 0..3 * BLOCK;
        let reference = prepared.sample_range(&params, &noise, reads.clone(), 5, &never, &copy);
        for (i, a) in reference.iter().enumerate() {
            assert!(!reference[..i].contains(a), "reference reads {i} repeats an earlier read");
        }
        for (workers, k) in [(1, 1), (1, 10), (2, 5), (3, 9), (4, 17)] {
            let token = CancelToken::never();
            let calls = AtomicUsize::new(0);
            let readout = |spins: &[bool]| {
                if calls.fetch_add(1, Ordering::SeqCst) + 1 == k {
                    token.cancel();
                }
                spins.to_vec()
            };
            let got =
                prepared.sample_on(workers, &params, &noise, reads.clone(), 5, &token, &readout);
            assert_eq!(got.len(), calls.load(Ordering::SeqCst), "a read out read went missing");
            assert!(
                got.len() >= k && got.len() < reference.len(),
                "workers {workers}: {}",
                got.len()
            );
            let mut last = None;
            for read in &got {
                let at = reference.iter().position(|r| r == read);
                assert!(at.is_some(), "workers {workers}: a returned read is not whole");
                assert!(at > last, "workers {workers}: reads out of index order");
                last = at;
            }
        }
    }
}
