//! Deterministic fault injection: a general fault plane for exercising
//! backend fallback policies and the resilience supervisor.
//!
//! The retry and fallback paths of [`AnnealerBackend`] and
//! [`GateModelBackend`] (embedding rip-up reseeds, the clique-embedding
//! fallback, the analytic p = 1 QAOA fallback) otherwise only trigger
//! when a real instance happens to defeat the heuristic embedder or
//! overflow the state-vector simulator — and the supervisor's retry /
//! breaker / ladder machinery only triggers when a substrate actually
//! misbehaves. A [`FaultInjection`] makes those failures happen on
//! demand — and deterministically — so the `nck-verify` harness, the
//! fallback tests, and the chaos suite can drive every branch of the
//! policy on small, fast instances.
//!
//! Faults are **attempt-indexed**: a script like
//! `transient_failures: 2` fails attempts 0 and 1 and lets attempt 2
//! through, standing in for a substrate hiccup that a retry outlives.
//! Latency and stalls sleep through the cooperative
//! [`CancelToken`](nck_cancel::CancelToken), so a deadline always cuts
//! them short.
//!
//! [`AnnealerBackend`]: crate::AnnealerBackend
//! [`GateModelBackend`]: crate::GateModelBackend

use crate::error::{ExecError, FaultKind};
use crate::journal::RunCtx;
use std::time::Duration;

/// Faults to inject into a backend run. The default injects nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultInjection {
    /// Treat this many leading heuristic embedding attempts as failed,
    /// as if the rip-up embedder could not fit the problem. Values in
    /// `1..=`[`EMBED_RESEED_TRIES`](nck_anneal::EMBED_RESEED_TRIES)
    /// exercise the reseed retry; larger values exhaust every heuristic
    /// attempt and force the clique-embedding fallback, or a typed
    /// [`EmbeddingFailed`](nck_anneal::AnnealError::EmbeddingFailed)
    /// on a topology without one.
    pub embed_failures: u32,
    /// Report a state-vector overflow
    /// ([`TooLargeToSimulate`](nck_circuit::QaoaError::TooLargeToSimulate))
    /// on the first QAOA attempt, forcing the analytic p = 1 fallback
    /// (or the typed error when the fallback is disabled).
    pub qaoa_overflow: bool,
    /// Injected latency added to every attempt's sample stage (a slow
    /// but healthy substrate). Slept cooperatively, so a deadline cuts
    /// it short.
    pub latency: Duration,
    /// Injected stall: the sample stage hangs for this long on *every*
    /// attempt (a wedged substrate). Unlike `latency` the stall is
    /// meant to be escaped only by the deadline token — it models a
    /// sampler that will never come back.
    pub stall: Duration,
    /// Fail this many leading attempts with a transient error
    /// ([`ExecError::Transient`](crate::ExecError) /
    /// [`FaultKind::Injected`](crate::FaultKind)): attempt `k` fails
    /// while `k < transient_failures`, then the substrate recovers.
    pub transient_failures: u32,
    /// Annealer-only: the first `n` attempts report a chain-break
    /// storm ([`FaultKind::ChainBreakStorm`](crate::FaultKind)) — the
    /// sample set comes back but is unusable, a classic
    /// retry-with-backoff situation.
    pub chain_break_storms: u32,
}

impl FaultInjection {
    /// No faults (the default).
    pub fn none() -> Self {
        FaultInjection::default()
    }

    /// Fail the first `n` heuristic embedding attempts.
    pub fn embed_failures(n: u32) -> Self {
        FaultInjection { embed_failures: n, ..FaultInjection::default() }
    }

    /// Force a state-vector overflow on the first QAOA attempt.
    pub fn qaoa_overflow() -> Self {
        FaultInjection { qaoa_overflow: true, ..FaultInjection::default() }
    }

    /// Add `d` of injected latency to every attempt.
    pub fn latency(d: Duration) -> Self {
        FaultInjection { latency: d, ..FaultInjection::default() }
    }

    /// Stall the sample stage for `d` on every attempt.
    pub fn stall(d: Duration) -> Self {
        FaultInjection { stall: d, ..FaultInjection::default() }
    }

    /// Fail the first `n` attempts with a transient fault, then
    /// recover.
    pub fn transient_failures(n: u32) -> Self {
        FaultInjection { transient_failures: n, ..FaultInjection::default() }
    }

    /// Chain-break storms on the first `n` annealer attempts.
    pub fn chain_break_storms(n: u32) -> Self {
        FaultInjection { chain_break_storms: n, ..FaultInjection::default() }
    }

    /// Does this script inject anything at all?
    pub fn any(&self) -> bool {
        *self != FaultInjection::none()
    }

    /// Apply the attempt-indexed sample-stage faults for the attempt in
    /// `ctx`: scripted transient failures first (cheap), then injected
    /// latency and stalls, slept cooperatively so the deadline token
    /// cuts them short.
    pub(crate) fn apply_sample_faults(&self, ctx: &mut RunCtx) -> Result<(), ExecError> {
        if ctx.attempt < self.transient_failures {
            return Err(ExecError::Transient {
                backend: ctx.backend,
                stage: ctx.stage,
                kind: FaultKind::Injected,
                attempt: ctx.attempt,
            });
        }
        for d in [self.latency, self.stall] {
            if !d.is_zero() && !ctx.cancel.sleep(d) {
                return Err(ExecError::Cancelled { backend: ctx.backend, stage: ctx.stage });
            }
        }
        Ok(())
    }
}
