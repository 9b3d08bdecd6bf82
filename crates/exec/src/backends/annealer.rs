//! The simulated D-Wave annealer behind the [`Backend`] trait, with an
//! embedding cache and chunked, checkpointed sampling.

use crate::backend::{Backend, BackendMetrics, Candidates, Prepared};
use crate::error::{ExecError, FaultKind};
use crate::fault::FaultInjection;
use crate::journal::{JournalKind, RunCtx};
use nck_anneal::{AnnealJob, AnnealSample, AnnealerDevice, Embedding};
use nck_qubo::Qubo;
use parking_lot::Mutex;
use std::borrow::Cow;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// One job of `num_reads` samples on a simulated annealer, best sample
/// reported (the paper's §VII protocol).
///
/// Embeddings come from [`AnnealerDevice::embed`] (reseeded heuristic
/// attempts, then the clique embedding on Pegasus) and are cached per
/// QUBO structure, so multi-seed sweeps embed once (the
/// `FixedEmbeddingComposite` pattern). With checkpoints on, the reads
/// are drawn in chunks, and each completed chunk is saved on its own.
#[derive(Debug)]
pub struct AnnealerBackend {
    /// The device to sample on.
    pub device: AnnealerDevice,
    /// Samples per job.
    pub num_reads: usize,
    /// Deterministic fault injection for exercising the retry and
    /// fallback policies in tests.
    pub faults: FaultInjection,
    /// Last found embedding, keyed by QUBO structure fingerprint.
    embedding_cache: Mutex<Option<(u64, Embedding)>>,
}

impl AnnealerBackend {
    /// A backend on `device` sampling `num_reads` per job.
    pub fn new(device: AnnealerDevice, num_reads: usize) -> Self {
        AnnealerBackend {
            device,
            num_reads,
            faults: FaultInjection::default(),
            embedding_cache: Mutex::new(None),
        }
    }

    /// The same backend with deterministic fault injection enabled.
    pub fn with_faults(mut self, faults: FaultInjection) -> Self {
        self.faults = faults;
        self
    }

    /// Structural fingerprint of a QUBO: embeddings depend only on the
    /// variable count and adjacency, not the coefficients.
    fn fingerprint(qubo: &Qubo) -> u64 {
        let mut h = DefaultHasher::new();
        qubo.num_vars().hash(&mut h);
        for mut ns in qubo.adjacency() {
            ns.sort_unstable();
            ns.hash(&mut h);
        }
        h.finish()
    }

    /// Find (or reuse) an embedding for `qubo`, journaling a clique
    /// fallback.
    fn embed(&self, qubo: &Qubo, seed: u64, ctx: &mut RunCtx) -> Result<Embedding, ExecError> {
        let fp = Self::fingerprint(qubo);
        let mut cached = self.embedding_cache.lock();
        if let Some((cached_fp, e)) = &*cached {
            if *cached_fp == fp {
                ctx.stages.embed_cache_hit = true;
                return Ok(e.clone());
            }
        }
        if ctx.cancel.is_cancelled() {
            return Err(ExecError::Cancelled { backend: ctx.backend, stage: ctx.stage });
        }
        let found = self.device.embed(qubo, seed, self.faults.embed_failures)?;
        ctx.stages.embed_retries += found.failed_attempts;
        if let Some(rescued) = found.rescued {
            // The clique fallback rescued the run. Keep the suppressed
            // error's provenance in the journal.
            ctx.note_suppressed(ExecError::Anneal(rescued));
            ctx.note(JournalKind::FallbackTaken { what: "clique embedding" });
            ctx.stages.fallbacks += 1;
        }
        *cached = Some((fp, found.embedding.clone()));
        Ok(found.embedding)
    }

    /// Draw all of `job`'s reads in chunks of `ctx.ckpt.interval()`
    /// (interval 0: one chunk, never saved). Each completed chunk is
    /// saved with only its own samples, so a job stores each sample
    /// once and a crash loses at most one chunk; a resumed job first
    /// restores the contiguous chunks saved before the crash. The job
    /// seed in the tag keeps one attempt's chunks out of another's job.
    fn sample(&self, job: &AnnealJob<'_>, ctx: &RunCtx) -> Vec<AnnealSample> {
        let (n, interval) = (self.num_reads, ctx.ckpt.interval() as usize);
        let step = if interval == 0 { n.max(1) } else { interval };
        let tag = |start: usize| format!("annealer/{:016x}/{start}", job.seed());
        let mut samples = Vec::with_capacity(n);
        while let Some((end, chunk)) =
            ctx.restore::<(usize, Vec<AnnealSample>)>(&tag(samples.len()))
        {
            if chunk.is_empty() || end > n || end != samples.len() + chunk.len() {
                break;
            }
            samples.extend(chunk);
        }
        for start in (samples.len()..n).step_by(step) {
            let end = (start + step).min(n);
            let chunk = job.sample(start..end, &ctx.cancel);
            // Only a fully drawn chunk is a safe resume point: a
            // cancelled one may have dropped reads.
            let complete = chunk.len() == end - start && !ctx.cancel.is_cancelled();
            if complete && interval != 0 {
                ctx.checkpoint(&tag(start), &(end, Cow::Borrowed(&chunk[..])));
            }
            samples.extend(chunk);
            if !complete {
                break;
            }
        }
        samples
    }
}

impl Backend for AnnealerBackend {
    fn name(&self) -> &'static str {
        "annealer"
    }

    fn run(
        &self,
        prepared: &Prepared<'_>,
        seed: u64,
        ctx: &mut RunCtx,
    ) -> Result<(Candidates, BackendMetrics), ExecError> {
        let qubo = &prepared.compiled.qubo;
        ctx.enter_stage("embed");
        let t = Instant::now();
        let embedding = self.embed(qubo, seed, ctx)?;
        ctx.stages.embed = t.elapsed();

        ctx.enter_stage("sample");
        self.faults.apply_sample_faults(ctx)?;
        if ctx.attempt < self.faults.chain_break_storms {
            // The job "ran" but every read came back storm-broken —
            // unusable, and worth a retry with backoff.
            return Err(ExecError::Transient {
                backend: ctx.backend,
                stage: ctx.stage,
                kind: FaultKind::ChainBreakStorm,
                attempt: ctx.attempt,
            });
        }
        let t = Instant::now();
        let job = self.device.job(qubo, &embedding, self.num_reads, seed);
        let result = job.finish(self.sample(&job, ctx));
        ctx.stages.sample = t.elapsed();
        if ctx.cancel.is_cancelled() {
            if result.samples.is_empty() {
                // Cancelled before a single read completed: nothing to
                // salvage.
                return Err(ExecError::Cancelled { backend: ctx.backend, stage: ctx.stage });
            }
            ctx.note(JournalKind::PartialResult { candidates: result.samples.len() });
        }
        let metrics = BackendMetrics::Annealer {
            physical_qubits: result.physical_qubits,
            max_chain_length: result.max_chain_length,
            chain_break_fraction: result.chain_break_fraction,
            qpu_access_time: result.qpu_access_time,
        };
        let samples = result.samples.into_iter().map(|s| s.assignment).collect();
        Ok((Candidates::Qubo(samples), metrics))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::durable::{decode, encode};
    use crate::journal::Checkpointer;
    use crate::plan::ExecutionPlan;
    use nck_anneal::Topology;
    use nck_cancel::CancelToken;
    use nck_core::Program;
    use std::collections::HashMap;
    use std::sync::Arc;

    /// An in-memory checkpointer: records every save in order and hands
    /// out a preset map of checkpoints, each once.
    struct Recorder {
        interval: u64,
        restored: Mutex<HashMap<String, Vec<u8>>>,
        saved: Mutex<Vec<(String, Vec<u8>)>>,
    }

    impl Recorder {
        fn new(interval: u64, restored: &[(String, Vec<u8>)]) -> Arc<Self> {
            Arc::new(Recorder {
                interval,
                restored: Mutex::new(restored.iter().cloned().collect()),
                saved: Mutex::new(Vec::new()),
            })
        }
    }

    impl Checkpointer for Recorder {
        fn save(&self, tag: &str, payload: &[u8]) {
            self.saved.lock().push((tag.to_string(), payload.to_vec()));
        }

        fn load(&self, tag: &str) -> Option<Vec<u8>> {
            self.restored.lock().remove(tag)
        }

        fn interval(&self) -> u64 {
            self.interval
        }
    }

    /// Minimum vertex cover of the paper's Fig. 2 graph.
    fn vertex_cover() -> Program {
        let mut p = Program::new();
        let vs = p.new_vars("v", 5).unwrap();
        for (u, w) in [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)] {
            p.nck(vec![vs[u], vs[w]], [1, 2]).unwrap();
        }
        for &v in &vs {
            p.nck_soft(vec![v], [0]).unwrap();
        }
        p
    }

    /// Run `backend` on `program` at `seed` with `ckpt`, returning the
    /// sampled candidates in the order the backend reported them.
    fn run(
        backend: &AnnealerBackend,
        program: &Program,
        seed: u64,
        ckpt: Arc<Recorder>,
    ) -> Vec<Vec<bool>> {
        let plan = ExecutionPlan::new(program);
        let compiled = plan.compiled().unwrap();
        let prepared = Prepared { program, compiled: &compiled };
        let mut ctx = RunCtx::plain("annealer").with_checkpointer(ckpt);
        match backend.run(&prepared, seed, &mut ctx).unwrap().0 {
            Candidates::Qubo(samples) => samples,
            other => panic!("annealer returned {other:?}"),
        }
    }

    /// Each chunk's checkpoint holds only its own samples, so a job's
    /// checkpoints together hold one encoding of its samples plus a
    /// fixed header per chunk. A checkpoint of every sample so far
    /// wrote about 8.5 times that at 256 reads and interval 16.
    #[test]
    fn checkpoint_bytes_grow_linearly_with_reads() {
        let program = vertex_cover();
        let backend = AnnealerBackend::new(AnnealerDevice::ideal(16), 256);
        let ckpt = Recorder::new(16, &[]);
        run(&backend, &program, 11, Arc::clone(&ckpt));
        // The job's 256 samples, drawn in one range.
        let plan = ExecutionPlan::new(&program);
        let qubo = &plan.compiled().unwrap().qubo;
        let embedding = backend.device.embed(qubo, 11, 0).unwrap().embedding;
        let job = backend.device.job(qubo, &embedding, 256, 11);
        let drawn = job.sample(0..256, &CancelToken::never());
        let once = encode(&(drawn.len(), Cow::Borrowed(&drawn[..]))).len();

        let saved = ckpt.saved.lock();
        assert_eq!(saved.len(), 16);
        let written: usize = saved.iter().map(|(_, p)| p.len()).sum();
        // A chunk's header is its end index and its sample count.
        assert!(written <= once + 16 * saved.len(), "{written} bytes against {once} once");
        let mut restored = Vec::new();
        for (_, payload) in saved.iter() {
            let (end, chunk): (usize, Vec<AnnealSample>) = decode(payload).unwrap();
            restored.extend(chunk);
            assert_eq!(end, restored.len());
        }
        let bits = |s: &[AnnealSample]| -> Vec<(Vec<bool>, u64)> {
            s.iter().map(|s| (s.assignment.clone(), s.energy.to_bits())).collect()
        };
        assert_eq!(bits(&restored), bits(&drawn));
    }

    /// A resumed job restores the contiguous chunks its predecessor
    /// saved, draws the rest, and returns the uninterrupted job's
    /// candidates; a gap ends the restore.
    #[test]
    fn resumed_jobs_restore_saved_chunks() {
        let program = vertex_cover();
        // 40 reads at interval 16: chunks start at reads 0, 16 and 32.
        let backend = AnnealerBackend::new(AnnealerDevice::ideal(16), 40);
        let plain = run(&backend, &program, 5, Recorder::new(0, &[]));
        let first = Recorder::new(16, &[]);
        assert_eq!(run(&backend, &program, 5, Arc::clone(&first)), plain);
        let saved = first.saved.lock().clone();
        assert_eq!(saved.len(), 3);
        for (kept, redrawn) in [(0, 3), (1, 2), (2, 1), (3, 0)] {
            let resumed = Recorder::new(16, &saved[..kept]);
            assert_eq!(run(&backend, &program, 5, Arc::clone(&resumed)), plain, "kept {kept}");
            assert_eq!(*resumed.saved.lock(), saved[kept..], "kept {kept}");
            assert_eq!(resumed.saved.lock().len(), redrawn);
        }
        // Without the first chunk, the later ones restore nothing.
        let gap = Recorder::new(16, &saved[1..]);
        assert_eq!(run(&backend, &program, 5, Arc::clone(&gap)), plain);
        assert_eq!(*gap.saved.lock(), saved);
        // Another seed's chunks are never restored.
        let other = Recorder::new(16, &saved);
        run(&backend, &program, 6, Arc::clone(&other));
        assert_eq!(other.saved.lock().len(), 3);
    }

    /// `AnnealerDevice::sample_qubo` and the backend embed through one
    /// policy. On this K7 on Pegasus P2 with one restart per attempt,
    /// the attempt at seed 12 fails and a reseeded attempt succeeds.
    #[test]
    fn sample_qubo_and_the_backend_choose_the_same_embedding() {
        let mut device = AnnealerDevice::ideal(1);
        device.topology = Topology::pegasus(2);
        device.embed_tries = 1;
        let mut qubo = Qubo::new(7);
        for i in 0..7 {
            for j in i + 1..7 {
                qubo.add_quadratic(i, j, 1.0);
            }
        }
        let backend = AnnealerBackend::new(device.clone(), 30);
        for seed in [12, 13, 21] {
            let mut ctx = RunCtx::plain("annealer");
            let embedding = backend.embed(&qubo, seed, &mut ctx).unwrap();
            if seed == 12 {
                assert!(ctx.stages.embed_retries > 0, "seed 12 must reseed");
            }
            assert_eq!(device.embed(&qubo, seed, 0).unwrap().embedding, embedding);
            let fresh = device.sample_qubo(&qubo, 30, seed).unwrap();
            let fixed = device.sample_qubo_embedded(&qubo, &embedding, 30, seed);
            assert_eq!(fresh.physical_qubits, fixed.physical_qubits, "seed {seed}");
            let key = |r: &nck_anneal::AnnealResult| -> Vec<(Vec<bool>, u64, usize)> {
                r.samples
                    .iter()
                    .map(|s| (s.assignment.clone(), s.energy.to_bits(), s.broken_chains))
                    .collect()
            };
            assert_eq!(key(&fresh), key(&fixed), "seed {seed}");
            backend.embedding_cache.lock().take();
        }
    }
}
