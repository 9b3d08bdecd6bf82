//! Grover search behind the [`Backend`] trait — the lineage of the
//! original NchooseK abstraction (§I cites its first use in a Grover
//! search).
//!
//! Limited to hard-only programs (Grover amplifies *satisfying*
//! assignments; it has no notion of soft-count optimality) and to
//! registers the state-vector oracle can hold. Both limits are typed
//! [`ExecError`] values, not panics.

use crate::backend::{Backend, BackendMetrics, Candidates, Prepared};
use crate::durable::GroverProgress;
use crate::error::ExecError;
use crate::fault::FaultInjection;
use crate::journal::RunCtx;
use nck_circuit::grover_search;
use std::time::Instant;

/// BBHT growth factor for the unknown-solution-count schedule: the
/// iteration guess is m = ⌈BBHT_GROWTH^j⌉ for j = 0, 1, …. Boyer,
/// Brassard, Høyer & Tapp prove any factor in (1, 4/3) keeps the
/// expected total oracle cost at O(√(N/M)).
pub const BBHT_GROWTH: f64 = 1.3;

/// Largest program (in variables) the state-vector oracle accepts.
pub const GROVER_MAX_VARS: usize = 20;

/// BBHT iteration guesses before the search reports unsatisfiable.
pub const GROVER_MAX_GUESSES: u64 = 64;

/// Grover search over the program's hard constraints, using the BBHT
/// schedule for an unknown solution count: exponentially growing
/// iteration guesses, each measured once and checked classically.
#[derive(Clone, Debug, Default)]
pub struct GroverBackend {
    /// Deterministic fault injection for exercising the supervisor's
    /// retry policy in tests.
    pub faults: FaultInjection,
}

impl GroverBackend {
    /// The same backend with deterministic fault injection enabled.
    pub fn with_faults(mut self, faults: FaultInjection) -> Self {
        self.faults = faults;
        self
    }
}

impl Backend for GroverBackend {
    fn name(&self) -> &'static str {
        "grover"
    }

    fn run(
        &self,
        prepared: &Prepared<'_>,
        seed: u64,
        ctx: &mut RunCtx,
    ) -> Result<(Candidates, BackendMetrics), ExecError> {
        let program = prepared.program;
        ctx.enter_stage("sample");
        if program.num_soft() > 0 {
            return Err(ExecError::SoftUnsupported { num_soft: program.num_soft() });
        }
        let n = program.num_vars();
        if n > GROVER_MAX_VARS {
            return Err(ExecError::TooLarge { vars: n, limit: GROVER_MAX_VARS });
        }
        self.faults.apply_sample_faults(ctx)?;
        let predicate = |bits: u64| {
            let x: Vec<bool> = (0..n).map(|q| bits >> q & 1 == 1).collect();
            program.all_hard_satisfied(&x)
        };
        let t = Instant::now();
        // BBHT: try m = ⌈BBHT_GROWTH^j⌉ iterations, j = 0, 1, …;
        // measure once per guess. Expected O(√(N/M)) total oracle calls.
        // The schedule position is checkpointed after each guess, so a
        // resumed attempt re-enters the loop at the guess the crash
        // interrupted (each guess is seeded by `seed ^ j`, so the
        // continuation is the same search the crashed run was in the
        // middle of).
        let restored =
            ctx.restore::<GroverProgress>("grover").filter(|p| p.next_guess <= GROVER_MAX_GUESSES);
        let start_guess = restored.as_ref().map_or(0, |p| p.next_guess);
        let mut m = restored.as_ref().map_or(1.0f64, |p| p.m);
        let mut found: Option<Vec<bool>> = None;
        let mut measurements = restored.as_ref().map_or(0usize, |p| p.measurements as usize);
        let mut total_iterations =
            restored.as_ref().map_or(0usize, |p| p.total_iterations as usize);
        let mut success_probability = restored.as_ref().map_or(0.0, |p| p.success_probability);
        for j in start_guess..GROVER_MAX_GUESSES {
            // A measured-but-unsatisfying guess carries no partial
            // information worth salvaging, so cancellation simply stops
            // the schedule.
            if ctx.cancel.is_cancelled() {
                ctx.stages.sample = t.elapsed();
                return Err(ExecError::Cancelled { backend: ctx.backend, stage: ctx.stage });
            }
            let iters = m.ceil() as usize;
            let r = grover_search(n, predicate, iters, seed ^ j);
            measurements += 1;
            total_iterations += r.iterations;
            success_probability = r.success_probability;
            if r.satisfying {
                found = Some(r.assignment);
                break;
            }
            m = (m * BBHT_GROWTH).min((1u64 << n) as f64);
            ctx.checkpoint(
                "grover",
                &GroverProgress {
                    next_guess: j + 1,
                    measurements: measurements as u64,
                    total_iterations: total_iterations as u64,
                    m,
                    success_probability,
                },
            );
        }
        ctx.stages.sample = t.elapsed();
        let assignment = found.ok_or(ExecError::Unsatisfiable)?;
        let metrics =
            BackendMetrics::Grover { measurements, total_iterations, success_probability };
        Ok((Candidates::Program(vec![assignment]), metrics))
    }
}
