//! The simulated annealer device: the full Ocean-style pipeline from a
//! QUBO to decoded logical samples.
//!
//! Pipeline: autoscale → QUBO→Ising → minor-embed onto the hardware
//! graph → apply chains → simulated anneal with ICE noise → unembed by
//! majority vote → rank by clean logical energy.

use crate::chain::{embed_ising, suggested_chain_strength, EmbeddedIsing};
use crate::embed::{find_embedding, Embedding};
use crate::gauge::Gauge;
use crate::postprocess::steepest_descent;
use crate::sampler::{NoiseModel, PreparedIsing, SaParams};
use crate::seed::{attempt_seed, derive_seed, GAUGE_STRIDE};
use crate::timing::TimingModel;
use crate::topology::Topology;
use nck_cancel::CancelToken;
use nck_qubo::Qubo;
use std::fmt;
use std::ops::Range;
use std::time::Duration;

/// Heuristic embedding attempts after the first, each at a fresh rip-up
/// seed, before [`AnnealerDevice::embed`] takes the clique embedding.
pub const EMBED_RESEED_TRIES: u32 = 3;

/// Errors from the annealing pipeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AnnealError {
    /// The embedder could not fit the problem onto the hardware graph.
    EmbeddingFailed {
        /// Logical variable count of the problem.
        logical_vars: usize,
        /// Qubits available on the device.
        device_qubits: usize,
    },
}

impl fmt::Display for AnnealError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnnealError::EmbeddingFailed { logical_vars, device_qubits } => write!(
                f,
                "could not embed {logical_vars}-variable problem into {device_qubits} qubits"
            ),
        }
    }
}

impl std::error::Error for AnnealError {}

/// One decoded sample.
#[derive(Clone, Debug)]
pub struct AnnealSample {
    /// Logical assignment (`true` = 1).
    pub assignment: Vec<bool>,
    /// Energy under the *clean* (unnoised) logical QUBO.
    pub energy: f64,
    /// Chains that returned split votes in this read.
    pub broken_chains: usize,
}

/// Result of one annealer job.
#[derive(Clone, Debug)]
pub struct AnnealResult {
    /// Samples sorted by ascending energy.
    pub samples: Vec<AnnealSample>,
    /// Physical qubits used by the embedding — the paper's Fig. 7
    /// x-axis metric.
    pub physical_qubits: usize,
    /// Longest chain length.
    pub max_chain_length: usize,
    /// Fraction of (read × chain) events that broke.
    pub chain_break_fraction: f64,
    /// Modeled QPU access time for the job.
    pub qpu_access_time: Duration,
}

impl AnnealResult {
    /// The lowest-energy sample (the paper considers "only the best
    /// (lowest-energy) result" in §VII).
    pub fn best(&self) -> &AnnealSample {
        &self.samples[0]
    }
}

/// An embedding found by [`AnnealerDevice::embed`].
#[derive(Clone, Debug)]
pub struct EmbedOutcome {
    /// The embedding.
    pub embedding: Embedding,
    /// Heuristic attempts that failed, skipped ones included.
    pub failed_attempts: u32,
    /// The heuristic's failure when the clique embedding rescued it.
    pub rescued: Option<AnnealError>,
}

/// A simulated annealing device.
#[derive(Clone, Debug)]
pub struct AnnealerDevice {
    /// Hardware graph.
    pub topology: Topology,
    /// Anneal schedule.
    pub sa: SaParams,
    /// Analog noise model.
    pub noise: NoiseModel,
    /// Timing model.
    pub timing: TimingModel,
    /// Chain-strength multiplier relative to the suggested value
    /// (1.0 = default; the chain-strength ablation varies this).
    pub chain_strength_scale: f64,
    /// Embedding retries.
    pub embed_tries: usize,
    /// Number of spin-reversal (gauge) transforms to average over per
    /// job (1 = identity only). Gauge averaging decorrelates the
    /// systematic part of the ICE noise, an Ocean-stack mitigation.
    pub num_gauges: usize,
    /// Polish each decoded sample to a local minimum of the logical
    /// QUBO (`SteepestDescentComposite`); part of the few-ms
    /// post-processing in the §VIII-C timing breakdown.
    pub postprocess: bool,
}

impl AnnealerDevice {
    /// The simulated Advantage 4.1 preset (5,640 qubits).
    pub fn advantage_4_1() -> Self {
        AnnealerDevice {
            topology: Topology::advantage_4_1(),
            sa: SaParams::default(),
            noise: NoiseModel::dwave_default(),
            timing: TimingModel::dwave_default(),
            chain_strength_scale: 1.0,
            embed_tries: 5,
            num_gauges: 1,
            postprocess: false,
        }
    }

    /// A small ideal device for tests: complete connectivity, no noise.
    pub fn ideal(num_qubits: usize) -> Self {
        AnnealerDevice {
            topology: Topology::complete(num_qubits),
            sa: SaParams { num_sweeps: 256, ..SaParams::default() },
            noise: NoiseModel::ideal(),
            timing: TimingModel::dwave_default(),
            chain_strength_scale: 1.0,
            embed_tries: 3,
            num_gauges: 1,
            postprocess: false,
        }
    }

    /// Find a minor embedding of `qubo`: the heuristic embedder at
    /// `seed`, then at up to [`EMBED_RESEED_TRIES`] fresh rip-up seeds
    /// (attempt `k` at [`attempt_seed`]`(seed, k)`), each with
    /// `embed_tries` restarts, and then the topology's clique embedding.
    /// The first `skip` attempts count as failed without running
    /// (fault injection).
    pub fn embed(&self, qubo: &Qubo, seed: u64, skip: u32) -> Result<EmbedOutcome, AnnealError> {
        let adj = qubo.adjacency();
        for attempt in skip..=EMBED_RESEED_TRIES {
            let rip_up_seed = attempt_seed(seed, attempt);
            if let Some(embedding) =
                find_embedding(&adj, &self.topology, rip_up_seed, self.embed_tries)
            {
                return Ok(EmbedOutcome { embedding, failed_attempts: attempt, rescued: None });
            }
        }
        // Dense problems can defeat the heuristic; the clique embedding
        // hosts any minor of K_n directly.
        let failed = AnnealError::EmbeddingFailed {
            logical_vars: qubo.num_vars(),
            device_qubits: self.topology.num_qubits(),
        };
        let embedding =
            self.topology.clique_embedding(qubo.num_vars()).ok_or_else(|| failed.clone())?;
        debug_assert!(embedding.is_valid(&adj, &self.topology));
        let failed_attempts = EMBED_RESEED_TRIES + 1;
        Ok(EmbedOutcome { embedding, failed_attempts, rescued: Some(failed) })
    }

    /// Run one job of `num_reads` samples on `qubo`, finding a fresh
    /// embedding with [`embed`](Self::embed).
    pub fn sample_qubo(
        &self,
        qubo: &Qubo,
        num_reads: usize,
        seed: u64,
    ) -> Result<AnnealResult, AnnealError> {
        let embedding = self.embed(qubo, seed, 0)?.embedding;
        Ok(self.sample_qubo_embedded(qubo, &embedding, num_reads, seed))
    }

    /// Run one job reusing a previously found embedding — the
    /// `FixedEmbeddingComposite` pattern: scaling studies re-submit the
    /// same problem structure many times, and re-embedding per job
    /// would dominate.
    pub fn sample_qubo_embedded(
        &self,
        qubo: &Qubo,
        embedding: &Embedding,
        num_reads: usize,
        seed: u64,
    ) -> AnnealResult {
        let job = self.job(qubo, embedding, num_reads, seed);
        job.finish(job.sample(0..num_reads, &CancelToken::never()))
    }

    /// Prepare a job of `num_reads` samples on `qubo` over `embedding`
    /// once (autoscale, Ising, chains, each gauge's sampler), to draw
    /// with [`AnnealJob::sample`] and close with [`AnnealJob::finish`].
    pub fn job<'a>(
        &'a self,
        qubo: &'a Qubo,
        embedding: &Embedding,
        num_reads: usize,
        seed: u64,
    ) -> AnnealJob<'a> {
        // Autoscale to the device range [−1, 1] (argmin-preserving).
        let mut scaled = qubo.clone();
        let m = scaled.max_abs_coeff();
        if m > 0.0 {
            scaled.scale(1.0 / m);
        }
        let logical = scaled.to_ising();
        let strength = suggested_chain_strength(&logical) * self.chain_strength_scale;
        let embedded = embed_ising(&logical, embedding, &self.topology, strength);
        // Split the reads across spin-reversal transforms; gauge 0 is
        // the identity so num_gauges = 1 preserves the plain behavior.
        let gauges = self.num_gauges.max(1);
        let mut samplers = Vec::with_capacity(gauges);
        let mut start = 0;
        for gi in 0..gauges {
            let end = start + num_reads / gauges + usize::from(gi < num_reads % gauges);
            if end > start {
                let gauge = job_gauge(seed, gi, self.topology.num_qubits());
                samplers.push(GaugeSampler::new(start..end, gauge, &embedded));
            }
            start = end;
        }
        AnnealJob { device: self, qubo, embedded, gauges: samplers, num_reads, seed }
    }
}

/// One prepared annealer job on a fixed embedding (see
/// [`AnnealerDevice::job`]).
///
/// Each read's RNG stream depends only on the job seed and the read's
/// global index, so reads drawn in several ranges, in one process or
/// across a crash and a resume, are exactly the reads of one
/// uninterrupted draw.
pub struct AnnealJob<'a> {
    device: &'a AnnealerDevice,
    qubo: &'a Qubo,
    embedded: EmbeddedIsing,
    gauges: Vec<GaugeSampler>,
    num_reads: usize,
    seed: u64,
}

/// One gauge's share of a job: its reads' global indices, its sampler,
/// and the gauge to undo when reading a sample out.
struct GaugeSampler {
    reads: Range<usize>,
    prepared: PreparedIsing,
    /// Per physical qubit: its compact index, or `None` for a qubit
    /// with no field or coupling, which reads +1.
    index: Vec<Option<usize>>,
    gauge: Gauge,
}

impl GaugeSampler {
    fn new(reads: Range<usize>, gauge: Gauge, embedded: &EmbeddedIsing) -> Self {
        let chains = embedded.embedding.chains();
        let prepared = PreparedIsing::new(&gauge.apply(&embedded.physical), chains);
        let mut index = vec![None; gauge.num_spins()];
        for (ci, &q) in prepared.qubits().iter().enumerate() {
            index[q] = Some(ci);
        }
        GaugeSampler { reads, prepared, index, gauge }
    }

    /// Qubit `q`'s value in the ungauged problem, read from a read's
    /// compact `spins`: the physical sample [`Gauge::decode`] would
    /// give, without building it.
    fn bit(&self, spins: &[bool], q: usize) -> bool {
        self.index[q].is_none_or(|ci| spins[ci]) != self.gauge.flips(q)
    }
}

impl AnnealJob<'_> {
    /// The job seed every read stream and gauge mask derives from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Draw the reads with global indices in `reads`, decoded, in index
    /// order.
    ///
    /// The anneal sweep loops poll `cancel`, so a fired deadline
    /// returns the reads completed so far (possibly none), each whole,
    /// instead of running the range to the end.
    pub fn sample(&self, reads: Range<usize>, cancel: &CancelToken) -> Vec<AnnealSample> {
        let device = self.device;
        let mut samples = Vec::with_capacity(reads.len());
        for g in &self.gauges {
            let range = reads.start.max(g.reads.start)..reads.end.min(g.reads.end);
            if range.is_empty() || cancel.is_cancelled() {
                continue;
            }
            // Each read decodes in the worker that drew it.
            let readout = |spins: &[bool]| {
                let (mut assignment, broken_chains) =
                    self.embedded.unembed_with(|q| g.bit(spins, q));
                let mut energy = self.qubo.energy(&assignment);
                if device.postprocess {
                    (assignment, energy, _) = steepest_descent(self.qubo, &assignment);
                }
                AnnealSample { assignment, energy, broken_chains }
            };
            samples.extend(g.prepared.sample_range(
                &device.sa,
                &device.noise,
                range,
                self.seed,
                cancel,
                &readout,
            ));
        }
        samples
    }

    /// The job's result from the `samples` drawn, sorted by energy. The
    /// chain-break fraction is taken over the reads given; the QPU time
    /// is the whole job's.
    pub fn finish(&self, mut samples: Vec<AnnealSample>) -> AnnealResult {
        samples.sort_by(|a, b| a.energy.partial_cmp(&b.energy).expect("energies are finite"));
        let embedding = &self.embedded.embedding;
        let total_chains = embedding.num_logical().max(1) * samples.len().max(1);
        let broken: usize = samples.iter().map(|s| s.broken_chains).sum();
        AnnealResult {
            physical_qubits: embedding.num_physical(),
            max_chain_length: embedding.max_chain_length(),
            chain_break_fraction: broken as f64 / total_chains as f64,
            qpu_access_time: self.device.timing.qpu_access_time(self.num_reads),
            samples,
        }
    }
}

/// The spin-reversal transform of gauge `gi` of a job. Gauge 0 is the
/// identity; the others draw their masks from a SplitMix64-finalized
/// seed, so a linear relation between two job seeds does not make
/// their masks repeat.
fn job_gauge(seed: u64, gi: usize, num_spins: usize) -> Gauge {
    if gi == 0 {
        Gauge::identity(num_spins)
    } else {
        Gauge::random(num_spins, derive_seed(seed, gi as u64, GAUGE_STRIDE))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nck_qubo::Ising;

    /// Vertex-cover-edge QUBO: ground states are the three assignments
    /// with at least one TRUE.
    fn edge_qubo() -> Qubo {
        let mut q = Qubo::new(2);
        q.add_quadratic(0, 1, 1.0);
        q.add_linear(0, -1.0);
        q.add_linear(1, -1.0);
        q
    }

    #[test]
    fn ideal_device_finds_ground_state() {
        let dev = AnnealerDevice::ideal(8);
        let r = dev.sample_qubo(&edge_qubo(), 20, 1).unwrap();
        assert_eq!(r.best().energy, -1.0);
        assert_eq!(r.physical_qubits, 2);
        assert_eq!(r.max_chain_length, 1);
        assert_eq!(r.chain_break_fraction, 0.0);
    }

    #[test]
    fn samples_sorted_by_energy() {
        let dev = AnnealerDevice::ideal(8);
        let r = dev.sample_qubo(&edge_qubo(), 25, 2).unwrap();
        for w in r.samples.windows(2) {
            assert!(w[0].energy <= w[1].energy);
        }
    }

    #[test]
    fn resumable_sampling_matches_uninterrupted() {
        // Three gauges split 17 reads at reads 6 and 12, so resume
        // points fall inside a gauge and on its boundaries.
        let mut dev = AnnealerDevice::ideal(8);
        dev.num_gauges = 3;
        let qubo = edge_qubo();
        let embedding = dev.embed(&qubo, 5, 0).unwrap().embedding;
        let cancel = CancelToken::never();
        let full = dev.sample_qubo_embedded(&qubo, &embedding, 17, 9);
        // Chunk multiples (0, 4, 16), points off the chunk grid (1, 5,
        // 11), the gauge boundaries (6, 12) and the end (17).
        for skip in [0usize, 1, 4, 5, 6, 11, 12, 16, 17] {
            // Phase one: the reads a run drew before it died at `skip`.
            let mut samples = dev.job(&qubo, &embedding, 17, 9).sample(0..skip, &cancel);
            // Phase two: a new job, as a resumed process builds it,
            // draws the rest in chunks of four.
            let job = dev.job(&qubo, &embedding, 17, 9);
            for start in (skip..17).step_by(4) {
                samples.extend(job.sample(start..(start + 4).min(17), &cancel));
            }
            let resumed = job.finish(samples);
            assert_eq!(resumed.samples.len(), full.samples.len(), "skip {skip}");
            for (a, b) in resumed.samples.iter().zip(full.samples.iter()) {
                assert_eq!(a.assignment, b.assignment, "skip {skip}");
                assert_eq!(a.energy.to_bits(), b.energy.to_bits(), "skip {skip}");
                assert_eq!(a.broken_chains, b.broken_chains, "skip {skip}");
            }
            assert_eq!(resumed.chain_break_fraction, full.chain_break_fraction, "skip {skip}");
        }
    }

    #[test]
    fn cancelled_job_reports_chain_breaks_over_returned_reads() {
        // Variable 0 rides an antiferromagnetic two-qubit chain, which
        // always reads out broken; variable 1 is a single qubit. Half
        // of every read's chains break.
        let mut dev = AnnealerDevice::ideal(4);
        dev.chain_strength_scale = -1.0;
        let embedding = Embedding::from_chains(vec![vec![0, 1], vec![2]]);
        let qubo = edge_qubo();
        let job = dev.job(&qubo, &embedding, 40, 3);
        let cancel = CancelToken::never();
        let mut samples = job.sample(0..10, &cancel);
        cancel.cancel();
        samples.extend(job.sample(10..40, &cancel));
        let r = job.finish(samples);
        assert_eq!(r.samples.len(), 10);
        let broken: usize = r.samples.iter().map(|s| s.broken_chains).sum();
        assert_eq!(broken, 10);
        assert_eq!(r.chain_break_fraction, 0.5);
    }

    #[test]
    fn worker_decode_matches_gauge_decode_then_unembed() {
        // Chains [0 1] [2 3 4] [5] [6 7]; qubit 4 (in the middle chain)
        // and qubit 7 carry no field or coupling, so the sampler never
        // sees them and they read +1 before the gauge.
        let embedding =
            Embedding::from_chains(vec![vec![0, 1], vec![2, 3, 4], vec![5], vec![6, 7]]);
        let mut physical = Ising::new(9);
        physical.add_field(0, 0.3);
        physical.add_coupling(0, 1, -1.0);
        physical.add_coupling(1, 2, 0.5);
        physical.add_coupling(2, 3, -1.0);
        physical.add_coupling(3, 5, -0.25);
        physical.add_field(6, 0.1);
        let embedded =
            EmbeddedIsing { physical, embedding: embedding.clone(), chain_strength: 1.0 };
        for gauge_seed in 0..6 {
            let gauge = Gauge::random(9, gauge_seed);
            let compact = GaugeSampler::new(0..0, gauge.clone(), &embedded);
            let active = compact.prepared.qubits();
            assert_eq!(active, &[0, 1, 2, 3, 5, 6]);
            for bits in 0..1u32 << active.len() {
                let spins: Vec<bool> = (0..active.len()).map(|i| bits >> i & 1 == 1).collect();
                let mut raw = vec![true; 9];
                for (&q, &v) in active.iter().zip(&spins) {
                    raw[q] = v;
                }
                assert_eq!(
                    embedded.unembed_with(|q| compact.bit(&spins, q)),
                    embedded.unembed(&gauge.decode(&raw)),
                    "gauge {gauge_seed}, spins {bits:06b}"
                );
            }
        }
    }

    #[test]
    fn gauges_never_share_a_read_stream_across_a_seed_sweep() {
        // With no sweeps a read is its random initial spins, a
        // fingerprint of its RNG stream. Unit chains on all-field
        // variables make each logical sample that fingerprint seen
        // through the gauge, which the test undoes.
        const VARS: usize = 40;
        let mut dev = AnnealerDevice::ideal(VARS);
        dev.sa.num_sweeps = 0;
        dev.num_gauges = 4;
        let mut qubo = Qubo::new(VARS);
        for v in 0..VARS {
            qubo.add_linear(v, -1.0 - v as f64);
        }
        let embedding = Embedding::from_chains((0..VARS).map(|v| vec![v]).collect());
        let reads = 8;
        let mut streams = std::collections::HashMap::new();
        for seed in 0..16u64 {
            let drawn =
                dev.job(&qubo, &embedding, reads, seed).sample(0..reads, &CancelToken::never());
            assert_eq!(drawn.len(), reads);
            for (read, sample) in drawn.iter().enumerate() {
                let gi = read / (reads / dev.num_gauges);
                let gauge = job_gauge(seed, gi, VARS);
                let raw: Vec<bool> = sample
                    .assignment
                    .iter()
                    .enumerate()
                    .map(|(v, &x)| x ^ gauge.flips(v))
                    .collect();
                if let Some(other) = streams.insert(raw, (seed, gi, read)) {
                    panic!(
                        "(seed, gauge, read) {:?} repeats the stream of {other:?}",
                        (seed, gi, read)
                    );
                }
            }
        }
    }

    #[test]
    fn embedding_failure_reported() {
        // 20-variable complete QUBO into 8 qubits: impossible.
        let mut q = Qubo::new(20);
        for i in 0..20 {
            for j in i + 1..20 {
                q.add_quadratic(i, j, 1.0);
            }
        }
        let dev = AnnealerDevice::ideal(8);
        match dev.sample_qubo(&q, 5, 3) {
            Err(AnnealError::EmbeddingFailed { logical_vars: 20, device_qubits: 8 }) => {}
            other => panic!("expected embedding failure, got {other:?}"),
        }
    }

    #[test]
    fn advantage_preset_runs_small_problem() {
        let dev = AnnealerDevice::advantage_4_1();
        let r = dev.sample_qubo(&edge_qubo(), 100, 4).unwrap();
        assert_eq!(r.samples.len(), 100);
        // §VIII-C: a 100-sample job costs about 30 ms of QPU time.
        assert!(r.qpu_access_time >= Duration::from_millis(25));
        assert!(r.qpu_access_time <= Duration::from_millis(35));
        // The best of 100 reads of a 2-variable problem is optimal even
        // with noise.
        assert_eq!(r.best().energy, -1.0);
    }

    #[test]
    fn qubits_used_exceed_variables_on_dense_problems() {
        // §VIII-A: dense coupling forces chains. K12 on Pegasus
        // (degree 15) still usually chains some variables; check
        // physical ≥ logical at minimum.
        let mut q = Qubo::new(12);
        for i in 0..12 {
            for j in i + 1..12 {
                q.add_quadratic(i, j, -1.0);
            }
        }
        let dev = AnnealerDevice::advantage_4_1();
        let r = dev.sample_qubo(&q, 10, 5).unwrap();
        assert!(r.physical_qubits >= 12);
    }

    #[test]
    fn deterministic_in_seed() {
        let dev = AnnealerDevice::advantage_4_1();
        let a = dev.sample_qubo(&edge_qubo(), 10, 9).unwrap();
        let b = dev.sample_qubo(&edge_qubo(), 10, 9).unwrap();
        let key = |r: &AnnealResult| -> Vec<(Vec<bool>, u64)> {
            r.samples.iter().map(|s| (s.assignment.clone(), s.energy.to_bits())).collect()
        };
        assert_eq!(key(&a), key(&b));
    }

    #[test]
    fn autoscaling_preserves_argmin() {
        // Huge coefficients would swamp fixed beta schedules without
        // autoscaling.
        let mut q = edge_qubo();
        q.scale(1e6);
        let dev = AnnealerDevice::ideal(4);
        let r = dev.sample_qubo(&q, 20, 6).unwrap();
        assert_eq!(r.best().energy, -1e6);
    }
}
