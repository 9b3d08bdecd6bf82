//! The simulated D-Wave annealer behind the [`Backend`] trait, with an
//! embedding cache and a typed retry/fallback policy.

use crate::backend::{Backend, BackendMetrics, Candidates, Prepared};
use crate::budget::attempt_seed;
use crate::error::{ExecError, FaultKind};
use crate::fault::FaultInjection;
use crate::journal::{JournalKind, RunCtx};
use nck_anneal::{find_embedding, AnnealError, AnnealSample, AnnealerDevice, Embedding};
use nck_qubo::Qubo;
use parking_lot::Mutex;
use std::borrow::Cow;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// Extra embedding attempts, each with a fresh rip-up seed, after the
/// device's own per-seed tries are exhausted.
pub const EMBED_RESEED_TRIES: u32 = 3;

/// One job of `num_reads` samples on a simulated annealer, best sample
/// reported (the paper's §VII protocol).
///
/// Embedding policy: the heuristic embedder is retried with a fresh
/// rip-up seed up to [`EMBED_RESEED_TRIES`] times, then the device
/// topology's clique embedding is tried (Pegasus only), and only then
/// does the run fail with [`AnnealError::EmbeddingFailed`]. Found
/// embeddings are cached per QUBO structure, so multi-seed sweeps embed
/// once (the `FixedEmbeddingComposite` pattern).
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
        for neighbors in qubo.adjacency() {
            let mut ns = neighbors;
            ns.sort_unstable();
            ns.hash(&mut h);
        }
        h.finish()
    }

    /// Find (or reuse) an embedding for `qubo`, applying the retry and
    /// clique-fallback policy.
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
        let adj = qubo.adjacency();
        let mut found = None;
        for attempt in 0..=EMBED_RESEED_TRIES {
            // Injected failure: discard this attempt as if the
            // heuristic embedder had failed, driving the rip-up retry
            // (and eventually the clique fallback) deterministically.
            if attempt < self.faults.embed_failures {
                ctx.stages.embed_retries += 1;
                continue;
            }
            // Attempt 0 keeps the caller's seed; later attempts derive
            // through SplitMix64 like the supervisor's retries.
            let rip_up_seed = attempt_seed(seed, attempt);
            if let Some(e) =
                find_embedding(&adj, &self.device.topology, rip_up_seed, self.device.embed_tries)
            {
                found = Some(e);
                break;
            }
            ctx.stages.embed_retries += 1;
        }
        if found.is_none() {
            found = self.device.topology.clique_embedding(qubo.num_vars());
            if let Some(e) = &found {
                debug_assert!(e.is_valid(&adj, &self.device.topology));
                // The heuristic embedder failed every attempt; the clique
                // fallback rescued the run. Keep the suppressed error's
                // provenance in the journal.
                ctx.note_suppressed(ExecError::Anneal(AnnealError::EmbeddingFailed {
                    logical_vars: qubo.num_vars(),
                    device_qubits: self.device.topology.num_qubits(),
                }));
                ctx.note(JournalKind::FallbackTaken { what: "clique embedding" });
                ctx.stages.fallbacks += 1;
            }
        }
        let embedding = found.ok_or(ExecError::Anneal(AnnealError::EmbeddingFailed {
            logical_vars: qubo.num_vars(),
            device_qubits: self.device.topology.num_qubits(),
        }))?;
        *cached = Some((fp, embedding.clone()));
        Ok(embedding)
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
        // Restore the interrupted job's completed reads (if any) and
        // checkpoint every `ckpt.interval()` reads, so a crash loses at
        // most one chunk of sampling work.
        let (skip, restored) =
            ctx.restore::<(usize, Vec<AnnealSample>)>("annealer").unwrap_or_default();
        let result = self.device.sample_qubo_embedded_resumable(
            qubo,
            &embedding,
            self.num_reads,
            seed,
            skip.min(self.num_reads),
            restored,
            ctx.ckpt.interval() as usize,
            &ctx.cancel,
            &mut |done, samples| ctx.checkpoint("annealer", &(done, Cow::Borrowed(samples))),
        )?;
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
