//! The simulated gate-model/QAOA device behind the [`Backend`] trait,
//! with the analytic-evaluator fallback policy.

use crate::backend::{Backend, BackendMetrics, Candidates, Prepared};
use crate::error::ExecError;
use crate::fault::FaultInjection;
use crate::journal::{JournalKind, RunCtx};
use nck_circuit::{GateModelDevice, NmState, QaoaError, QaoaRun};
use nck_qubo::Qubo;
use std::time::Instant;

/// Largest register the packed final-sampling path can draw from.
pub const PACKED_SAMPLER_LIMIT: usize = 64;

/// One QAOA execution on a simulated gate-model device (single
/// returned result, as in §VIII-B).
///
/// Fallback policy: when the requested depth exceeds the exact
/// state-vector simulator ([`QaoaError::TooLargeToSimulate`]) and
/// [`analytic_fallback`](Self::analytic_fallback) is set, the run is
/// retried at p = 1 where the closed-form Ozaeta–van Dam–McMahon
/// evaluator applies — the policy the per-experiment code used to
/// carry implicitly.
#[derive(Clone, Debug)]
pub struct GateModelBackend {
    /// The device to run on.
    pub device: GateModelDevice,
    /// QAOA layers p.
    pub layers: usize,
    /// Shots in the final sampling job.
    pub shots: usize,
    /// Maximum optimizer iterations.
    pub max_iter: usize,
    /// Retry at p = 1 (analytic evaluator) when the instance exceeds
    /// the exact simulator at the requested depth.
    pub analytic_fallback: bool,
    /// Deterministic fault injection for exercising the fallback
    /// policy in tests.
    pub faults: FaultInjection,
}

impl GateModelBackend {
    /// A backend on `device` with the given QAOA parameters.
    pub fn new(device: GateModelDevice, layers: usize, shots: usize, max_iter: usize) -> Self {
        GateModelBackend {
            device,
            layers,
            shots,
            max_iter,
            analytic_fallback: true,
            faults: FaultInjection::default(),
        }
    }

    /// The same backend with deterministic fault injection enabled.
    pub fn with_faults(mut self, faults: FaultInjection) -> Self {
        self.faults = faults;
        self
    }

    /// Run QAOA at depth `layers` under `ctx`'s token, checkpointing
    /// the optimizer iterate every `ctx.ckpt.interval()` iterations. A
    /// restored state is only handed to the optimizer when its simplex
    /// matches this depth's parameter dimension — a checkpoint taken at
    /// p = 3 must not seed the p = 1 fallback.
    fn qaoa(
        &self,
        qubo: &Qubo,
        layers: usize,
        seed: u64,
        ctx: &RunCtx,
        restored: Option<NmState>,
    ) -> Result<QaoaRun, QaoaError> {
        let interval = ctx.ckpt.interval();
        let state = restored.filter(|s| s.simplex.len() == 2 * layers + 1);
        self.device.run_qaoa_resumable(
            qubo,
            layers,
            self.shots,
            self.max_iter,
            seed,
            &ctx.cancel,
            state,
            &mut |s: &NmState| {
                if (s.iterations as u64).is_multiple_of(interval) {
                    ctx.checkpoint("gate", s);
                }
            },
        )
    }
}

impl Backend for GateModelBackend {
    fn name(&self) -> &'static str {
        "gate"
    }

    fn run(
        &self,
        prepared: &Prepared<'_>,
        seed: u64,
        ctx: &mut RunCtx,
    ) -> Result<(Candidates, BackendMetrics), ExecError> {
        let n = prepared.compiled.num_qubo_vars();
        ctx.enter_stage("sample");
        if n > PACKED_SAMPLER_LIMIT && n > self.device.sim_limit {
            return Err(ExecError::TooLarge { vars: n, limit: PACKED_SAMPLER_LIMIT });
        }
        self.faults.apply_sample_faults(ctx)?;
        let qubo = &prepared.compiled.qubo;
        let t = Instant::now();
        let restored = ctx.restore::<NmState>("gate");
        // Injected fault: report the first attempt as a state-vector
        // overflow so the fallback policy below runs deterministically.
        let first = if self.faults.qaoa_overflow {
            Err(QaoaError::TooLargeToSimulate { needed: n, sim_limit: 0 })
        } else {
            self.qaoa(qubo, self.layers, seed, ctx, restored.clone())
        };
        let run = match first {
            Ok(r) => r,
            Err(e @ QaoaError::TooLargeToSimulate { .. })
                if self.analytic_fallback && self.layers > 1 =>
            {
                ctx.note_suppressed(e.into());
                ctx.note(JournalKind::FallbackTaken { what: "analytic p=1 QAOA" });
                ctx.stages.fallbacks += 1;
                self.qaoa(qubo, 1, seed, ctx, restored)?
            }
            Err(e) => return Err(e.into()),
        };
        ctx.stages.sample = t.elapsed();
        if ctx.cancel.is_cancelled() {
            // The optimizer stopped early; the final sampling job ran
            // with best-so-far parameters. Still a usable result.
            ctx.note(JournalKind::PartialResult { candidates: 1 });
        }
        let metrics = BackendMetrics::GateModel {
            qubits_used: run.qubits_used,
            depth: run.depth,
            num_swaps: run.num_swaps,
            fidelity: run.fidelity,
            num_jobs: run.num_jobs,
            estimated_time: run.estimated_time,
            expectation: run.expectation,
        };
        Ok((Candidates::Qubo(vec![run.best_assignment]), metrics))
    }
}
