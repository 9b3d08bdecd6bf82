//! [`RunJournal`]: a structured, append-only record of everything a
//! supervised execution did — every attempt, fault, fallback, breaker
//! transition, ladder step, and partial result.
//!
//! The journal answers the question a bare `Result` cannot: *why* did
//! this run succeed or fail, and what did it cost along the way? A
//! clique-fallback success still records why the heuristic embedder
//! failed; a ladder rescue records which rung burned how many attempts
//! before the next rung took over.

use crate::durable::{decode, encode, Wire};
use crate::error::ExecError;
use crate::stage::StageTimings;
use nck_cancel::CancelToken;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One journaled event inside a (possibly supervised) execution.
#[derive(Clone, Debug, PartialEq)]
pub struct JournalEvent {
    /// Wall-clock offset from the start of the run (the supervised
    /// run's start when supervised; the attempt's start otherwise).
    pub at: Duration,
    /// Backend the event belongs to.
    pub backend: &'static str,
    /// Attempt index on that backend (0-based).
    pub attempt: u32,
    /// What happened.
    pub kind: JournalKind,
}

/// The event vocabulary of a [`RunJournal`].
#[derive(Clone, Debug, PartialEq)]
pub enum JournalKind {
    /// An attempt on a backend began.
    AttemptStarted,
    /// A stage inside an attempt failed. `suppressed` is true when a
    /// fallback rescued the attempt (the error never escaped), so the
    /// journal keeps the provenance a successful report would lose.
    StageFailed {
        /// Pipeline stage that failed (`embed`, `sample`, …).
        stage: &'static str,
        /// The error as rendered by its `Display` — the same text in
        /// memory and on disk. The typed error rides on
        /// [`FailedAttempt`](crate::FailedAttempt).
        error: String,
        /// True when a fallback rescued the attempt.
        suppressed: bool,
    },
    /// A fallback policy fired (clique embedding, analytic p = 1).
    FallbackTaken {
        /// Which fallback.
        what: &'static str,
    },
    /// An attempt failed and a retry was scheduled after a backoff.
    Retry {
        /// Backoff delay before the next attempt.
        backoff: Duration,
    },
    /// The backend's circuit breaker transitioned to open.
    BreakerOpened,
    /// An open breaker short-circuited the rung without invoking the
    /// backend.
    BreakerShortCircuit,
    /// A half-open breaker admitted a probe attempt.
    BreakerProbe,
    /// A rung gave up (attempts, budget, or a permanent error).
    RungExhausted {
        /// Why the rung stopped.
        reason: String,
    },
    /// The ladder degraded from one rung to the next.
    LadderStep {
        /// Rung that was abandoned.
        from: &'static str,
        /// Rung taking over.
        to: &'static str,
    },
    /// The run finished under cancellation with a usable partial
    /// result (e.g. half-annealed reads).
    PartialResult {
        /// Candidates salvaged.
        candidates: usize,
    },
    /// The run produced a report.
    Succeeded,
    /// The run failed; this is always the journal's final event.
    Failed {
        /// The terminal error, rendered (the typed one is
        /// [`SupervisedFailure::error`](crate::SupervisedFailure::error)).
        error: String,
    },
}

impl fmt::Display for JournalEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:>9.3}ms] {}#{} ", self.at.as_secs_f64() * 1e3, self.backend, self.attempt)?;
        match &self.kind {
            JournalKind::AttemptStarted => write!(f, "attempt started"),
            JournalKind::StageFailed { stage, error, suppressed } => {
                let tag = if *suppressed { " (suppressed by fallback)" } else { "" };
                write!(f, "stage {stage} failed{tag}: {error}")
            }
            JournalKind::FallbackTaken { what } => write!(f, "fallback: {what}"),
            JournalKind::Retry { backoff } => {
                write!(f, "retry after {:.3}ms backoff", backoff.as_secs_f64() * 1e3)
            }
            JournalKind::BreakerOpened => write!(f, "circuit breaker opened"),
            JournalKind::BreakerShortCircuit => {
                write!(f, "circuit breaker open: short-circuited without invoking backend")
            }
            JournalKind::BreakerProbe => write!(f, "circuit breaker half-open: probe admitted"),
            JournalKind::RungExhausted { reason } => write!(f, "rung exhausted: {reason}"),
            JournalKind::LadderStep { from, to } => write!(f, "ladder: {from} -> {to}"),
            JournalKind::PartialResult { candidates } => {
                write!(f, "partial result under cancellation: {candidates} candidate(s)")
            }
            JournalKind::Succeeded => write!(f, "succeeded"),
            JournalKind::Failed { error } => write!(f, "failed: {error}"),
        }
    }
}

/// The structured journal of one execution. Empty for unsupervised
/// fault-free runs (no allocation).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunJournal {
    /// Events in chronological order.
    pub events: Vec<JournalEvent>,
}

impl RunJournal {
    /// Append an event.
    pub fn push(&mut self, at: Duration, backend: &'static str, attempt: u32, kind: JournalKind) {
        self.events.push(JournalEvent { at, backend, attempt, kind });
    }

    /// Is the journal *complete*: non-empty and closed by a terminal
    /// [`Succeeded`](JournalKind::Succeeded) /
    /// [`Failed`](JournalKind::Failed) event?
    pub fn is_complete(&self) -> bool {
        matches!(
            self.events.last().map(|e| &e.kind),
            Some(JournalKind::Succeeded | JournalKind::Failed { .. })
        )
    }

    /// Every suppressed stage failure (errors a fallback rescued) —
    /// the provenance a successful report would otherwise lose.
    pub fn suppressed_errors(&self) -> impl Iterator<Item = &JournalEvent> {
        self.events
            .iter()
            .filter(|e| matches!(&e.kind, JournalKind::StageFailed { suppressed: true, .. }))
    }

    /// Attempts started, per the journal.
    pub fn attempts(&self) -> usize {
        self.events.iter().filter(|e| matches!(e.kind, JournalKind::AttemptStarted)).count()
    }

    /// Render the whole journal, one event per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&format!("{e}\n"));
        }
        out
    }
}

/// A sink for mid-solve checkpoints: the supervisor's durable store
/// for a `--run-dir` run, [`NoopCheckpointer`] otherwise. Backends
/// reach it through their [`RunCtx`], which encodes and decodes the
/// typed solver state; the substrate solvers only see closures.
///
/// `save` is infallible by design: a durable store that dies mid-run
/// signals the failure out-of-band (by cancelling the run's
/// [`CancelToken`]), so solver loops stay free of persistence error
/// plumbing. `load` hands back the most recent payload saved under a
/// tag, letting a resumed solver skip completed work.
pub trait Checkpointer: Send + Sync {
    /// Persist `payload` under `tag`, replacing any previous checkpoint
    /// with the same tag. Must not panic and must not block the hot
    /// loop for longer than a write + fsync.
    fn save(&self, tag: &str, payload: &[u8]);

    /// The most recent payload saved under `tag` in a *previous* run,
    /// if this run is a resume. Consumed semantics are up to the
    /// implementation; solvers call this once at startup.
    fn load(&self, tag: &str) -> Option<Vec<u8>>;

    /// Desired work units (reads, iterations, nodes — the solver's own
    /// metric) between checkpoints. `0` disables checkpointing, which
    /// is what [`NoopCheckpointer`] reports.
    fn interval(&self) -> u64 {
        0
    }
}

/// The default checkpointer: saves nothing, loads nothing, interval 0.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopCheckpointer;

impl Checkpointer for NoopCheckpointer {
    fn save(&self, _tag: &str, _payload: &[u8]) {}

    fn load(&self, _tag: &str) -> Option<Vec<u8>> {
        None
    }
}

/// Per-attempt execution context handed to every [`Backend::run`]:
/// stage timings, the journal, the cooperative cancellation token, and
/// the attempt index (so fault scripts and backoff schedules can be
/// attempt-aware).
///
/// [`Backend::run`]: crate::Backend::run
pub struct RunCtx {
    /// Per-stage wall-times and counters for this attempt.
    pub stages: StageTimings,
    /// Journal events recorded during this attempt.
    pub journal: RunJournal,
    /// Cooperative cancellation token every hot loop polls.
    pub cancel: CancelToken,
    /// Mid-solve checkpoint sink. [`NoopCheckpointer`] (interval 0) for
    /// plain runs; the supervisor's durable sink for `--run-dir` runs.
    pub ckpt: Arc<dyn Checkpointer>,
    /// Attempt index on this backend (0 on the first try).
    pub attempt: u32,
    /// Name of the backend executing the attempt.
    pub backend: &'static str,
    /// Pipeline stage currently executing (for error provenance).
    pub stage: &'static str,
    started: Instant,
}

impl fmt::Debug for RunCtx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunCtx")
            .field("stages", &self.stages)
            .field("journal", &self.journal)
            .field("cancel", &self.cancel)
            .field("attempt", &self.attempt)
            .field("backend", &self.backend)
            .field("stage", &self.stage)
            .finish_non_exhaustive()
    }
}

impl RunCtx {
    /// A context for one attempt on `backend`.
    pub fn new(backend: &'static str, cancel: CancelToken, attempt: u32, started: Instant) -> Self {
        RunCtx {
            stages: StageTimings { attempt, ..StageTimings::default() },
            journal: RunJournal::default(),
            cancel,
            ckpt: Arc::new(NoopCheckpointer),
            attempt,
            backend,
            stage: "compile",
            started,
        }
    }

    /// The same context with a mid-solve checkpoint sink attached.
    pub fn with_checkpointer(mut self, ckpt: Arc<dyn Checkpointer>) -> Self {
        self.ckpt = ckpt;
        self
    }

    /// A plain context: never cancelled, first attempt, clock starting
    /// now.
    pub fn plain(backend: &'static str) -> Self {
        RunCtx::new(backend, CancelToken::never(), 0, Instant::now())
    }

    /// The checkpoint a resumed run saved under `tag`, if there is one
    /// and it decodes as a `T`. A payload that does not decode is
    /// dropped, and the solve starts from scratch.
    pub(crate) fn restore<T: Wire>(&self, tag: &str) -> Option<T> {
        self.ckpt.load(tag).and_then(|buf| decode(&buf).ok())
    }

    /// Save `value` as the solve's checkpoint under `tag`.
    pub(crate) fn checkpoint<T: Wire + ?Sized>(&self, tag: &str, value: &T) {
        self.ckpt.save(tag, &encode(value));
    }

    /// Mark the pipeline stage currently executing.
    pub fn enter_stage(&mut self, stage: &'static str) {
        self.stage = stage;
    }

    /// Journal an event at the current wall-clock offset.
    pub fn note(&mut self, kind: JournalKind) {
        self.journal.push(self.started.elapsed(), self.backend, self.attempt, kind);
    }

    /// Journal a stage failure that a fallback is about to rescue.
    pub fn note_suppressed(&mut self, error: ExecError) {
        let stage = self.stage;
        self.note(JournalKind::StageFailed { stage, error: error.to_string(), suppressed: true });
    }

    /// Wall-clock offset since the run started.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// When the run started (shared across supervised attempts so the
    /// journal has one timebase).
    pub fn started(&self) -> Instant {
        self.started
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_checkpointer_is_inert() {
        let ckpt = NoopCheckpointer;
        ckpt.save("tag", b"payload");
        assert_eq!(ckpt.load("tag"), None);
        assert_eq!(ckpt.interval(), 0);
        // And it is object-safe: a run context holds it as a trait
        // object.
        let dyn_ckpt: &dyn Checkpointer = &ckpt;
        assert!(dyn_ckpt.load("tag").is_none());
    }

    #[test]
    fn journal_completeness() {
        let mut j = RunJournal::default();
        assert!(!j.is_complete());
        j.push(Duration::ZERO, "annealer", 0, JournalKind::AttemptStarted);
        assert!(!j.is_complete());
        j.push(Duration::from_millis(3), "annealer", 0, JournalKind::Succeeded);
        assert!(j.is_complete());
    }

    #[test]
    fn suppressed_errors_surface() {
        let mut ctx = RunCtx::plain("annealer");
        ctx.enter_stage("embed");
        ctx.note_suppressed(ExecError::NoCandidates);
        assert_eq!(ctx.journal.suppressed_errors().count(), 1);
        let rendered = ctx.journal.render();
        assert!(rendered.contains("suppressed by fallback"), "{rendered}");
        assert!(rendered.contains("embed"), "{rendered}");
    }

    #[test]
    fn render_is_one_line_per_event() {
        let mut j = RunJournal::default();
        j.push(Duration::ZERO, "gate", 0, JournalKind::AttemptStarted);
        j.push(
            Duration::from_millis(1),
            "gate",
            0,
            JournalKind::Retry { backoff: Duration::from_millis(4) },
        );
        j.push(Duration::from_millis(9), "gate", 1, JournalKind::Succeeded);
        assert_eq!(j.render().lines().count(), 3);
        assert_eq!(j.attempts(), 1);
    }
}
