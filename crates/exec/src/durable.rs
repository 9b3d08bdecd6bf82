//! Durable execution: the wire format and live sink that persist a
//! supervised run into an [`nck_store::RunStore`].
//!
//! Everything a resumed run needs crosses this module as one of three
//! byte shapes:
//!
//! * **WAL records** — a [`Record`] per journal event, budget-progress
//!   mark, rung completion, mid-solve checkpoint, and terminal event,
//!   appended (and fsynced) as the run proceeds;
//! * **snapshots** — a serialized [`RecoveredRun`] written at rung
//!   boundaries and at the end of the run, collapsing the WAL;
//! * **checkpoint payloads** — a backend's solver state (annealer
//!   reads, Nelder–Mead simplex, branch-and-bound incumbent, Grover
//!   schedule position), carried inside a checkpoint record. Backends
//!   save and restore them as typed values through their
//!   [`RunCtx`](crate::RunCtx), never as bytes; the context hands the
//!   bytes to the run's [`Checkpointer`], which for a durable run is
//!   the sink below.
//!
//! All three are written by one crate-private codec trait, `Wire`,
//! implemented once per type, so this module alone decides the store's
//! bytes. The format is hand-rolled little-endian (the workspace is
//! dependency-free by policy) and *exact*: integers are fixed-width,
//! `usize` travels as `u64`, floats as raw IEEE-754 bits, a `bool` as
//! one byte 0 or 1, strings and sequences behind a `u64` length, and
//! journal timestamps as whole seconds plus subsecond nanoseconds, so a
//! decoded journal compares equal — `Duration` and all — to the one
//! that was encoded. A journal event's error is the same value in
//! memory and on disk — its rendered text — so it travels as a plain
//! string; the typed [`ExecError`](crate::ExecError) stays on
//! [`FailedAttempt`](crate::FailedAttempt). Every other string an event
//! carries comes from a closed vocabulary of backend, stage and
//! fallback names: a name outside it, or a failure event written in the
//! retired format that encoded errors structurally, decodes to a typed
//! [`StoreError::Corrupt`]. Decoding is an untrusted-input path
//! (the file may be truncated or bit-flipped in ways the store's CRC
//! already rejects, but defense in depth is cheap): every decoder
//! returns a typed error (a checkpoint payload that does not decode is
//! dropped, and its solve starts over), never panics, and checks every
//! length prefix against the bytes left before reading on.

use crate::journal::{Checkpointer, JournalEvent, JournalKind, RunJournal};
use nck_anneal::AnnealSample;
use nck_cancel::CancelToken;
use nck_circuit::NmState;
use nck_classical::Incumbent;
use nck_store::{Recovered, RunStore, StoreError};
use parking_lot::Mutex;
use std::borrow::Cow;
use std::collections::HashMap;
use std::time::Duration;

/// Default solver work units (annealer reads, optimizer iterations,
/// Grover guesses) between mid-solve checkpoints.
pub const DEFAULT_CHECKPOINT_INTERVAL: u64 = 16;

// ---------------------------------------------------------------------
// The codec
// ---------------------------------------------------------------------

/// A value with one byte encoding in the run store. Records, snapshots
/// and checkpoint payloads are all composed from these impls. The
/// unsized impls (`str`, `[T]`) only encode: they write borrowed names
/// and sample runs without a copy, and read back as `String` and
/// `Vec<T>`.
pub(crate) trait Wire {
    /// Append this value's bytes to `out`.
    fn put(&self, out: &mut Vec<u8>);

    /// Read one value; a short or malformed buffer is a typed
    /// [`StoreError::Corrupt`], never a panic.
    fn get(r: &mut Reader<'_>) -> Result<Self, StoreError>
    where
        Self: Sized;
}

/// The bytes of `value`.
pub(crate) fn encode<T: Wire + ?Sized>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.put(&mut out);
    out
}

/// Decode `buf` as exactly one `T`; trailing bytes are corruption.
pub(crate) fn decode<T: Wire>(buf: &[u8]) -> Result<T, StoreError> {
    let mut r = Reader { buf, pos: 0 };
    let value = T::get(&mut r)?;
    if r.pos != buf.len() {
        return Err(r.corrupt("trailing bytes after record"));
    }
    Ok(value)
}

/// Bounded reader over an untrusted byte slice. Every read is
/// range-checked.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn corrupt(&self, reason: &str) -> StoreError {
        StoreError::Corrupt {
            path: "<record>".to_string(),
            offset: self.pos as u64,
            reason: reason.to_string(),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        let end = self.pos.checked_add(n).ok_or_else(|| self.corrupt("length overflow"))?;
        if end > self.buf.len() {
            return Err(self.corrupt("record truncated"));
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// A length prefix, validated against the bytes actually present.
    /// Every element takes at least one byte, so a flipped length fails
    /// here instead of driving a huge allocation or a long loop.
    fn length(&mut self) -> Result<usize, StoreError> {
        let n = usize::get(self)?;
        if n > self.buf.len().saturating_sub(self.pos) {
            return Err(self.corrupt("length prefix exceeds record"));
        }
        Ok(n)
    }

    /// A journaled name, decoded to the same `&'static str` the
    /// execution layer journals. The vocabulary is closed: a name
    /// outside it is corruption, not something to leak a string for.
    fn name(&mut self) -> Result<&'static str, StoreError> {
        let n = self.length()?;
        let b = self.take(n)?;
        NAMES
            .iter()
            .copied()
            .find(|n| n.as_bytes() == b)
            .ok_or_else(|| self.corrupt("unknown name"))
    }
}

/// Every `&'static str` a journal event carries: backend names (plus
/// `"supervisor"`), pipeline and supervisor stage labels, and fallback
/// labels. Errors are journaled as rendered text, so none of their
/// vocabulary belongs here.
const NAMES: &[&str] = &[
    // Backends + supervisor provenance.
    "annealer",
    "gate",
    "grover",
    "classical",
    "supervisor",
    // Pipeline stages.
    "compile",
    "embed",
    "sample",
    "decode",
    "classify",
    // Supervisor stages.
    "breaker",
    "budget",
    "ladder",
    "store",
    // Fallback labels.
    "clique embedding",
    "analytic p=1 QAOA",
];

/// Fixed-width little-endian integers.
macro_rules! wire_le {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            fn get(r: &mut Reader<'_>) -> Result<Self, StoreError> {
                const N: usize = std::mem::size_of::<$t>();
                let mut b = [0; N];
                b.copy_from_slice(r.take(N)?);
                Ok(<$t>::from_le_bytes(b))
            }
        }
    )*};
}

wire_le!(u8, u32, u64);

impl Wire for usize {
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u64).put(out);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        usize::try_from(u64::get(r)?).map_err(|_| r.corrupt("count exceeds usize"))
    }
}

impl Wire for f64 {
    fn put(&self, out: &mut Vec<u8>) {
        self.to_bits().put(out);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(f64::from_bits(u64::get(r)?))
    }
}

impl Wire for bool {
    fn put(&self, out: &mut Vec<u8>) {
        u8::from(*self).put(out);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        match u8::get(r)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(r.corrupt("flag out of range")),
        }
    }
}

/// A run's terminal state: one byte, 0 (running), 1 (failed) or 2
/// (succeeded).
impl Wire for Option<bool> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            None => 0u8,
            Some(false) => 1,
            Some(true) => 2,
        }
        .put(out);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        match u8::get(r)? {
            0 => Ok(None),
            1 => Ok(Some(false)),
            2 => Ok(Some(true)),
            _ => Err(r.corrupt("finished flag out of range")),
        }
    }
}

impl Wire for Duration {
    fn put(&self, out: &mut Vec<u8>) {
        self.as_secs().put(out);
        self.subsec_nanos().put(out);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let secs = u64::get(r)?;
        let nanos = u32::get(r)?;
        if nanos >= 1_000_000_000 {
            return Err(r.corrupt("subsecond nanoseconds out of range"));
        }
        Ok(Duration::new(secs, nanos))
    }
}

impl Wire for str {
    fn put(&self, out: &mut Vec<u8>) {
        self.as_bytes().put(out);
    }
}

impl Wire for String {
    fn put(&self, out: &mut Vec<u8>) {
        self.as_str().put(out);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let n = r.length()?;
        String::from_utf8(r.take(n)?.to_vec()).map_err(|_| r.corrupt("invalid utf-8"))
    }
}

impl<T: Wire> Wire for [T] {
    fn put(&self, out: &mut Vec<u8>) {
        self.len().put(out);
        for v in self {
            v.put(out);
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        self.as_slice().put(out);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        // No capacity up front: the vector grows with what decodes.
        let n = r.length()?;
        (0..n).map(|_| T::get(r)).collect()
    }
}

impl<T: Wire + Clone> Wire for Cow<'_, [T]> {
    fn put(&self, out: &mut Vec<u8>) {
        (**self).put(out);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Vec::get(r).map(Cow::Owned)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

/// A struct that travels as its listed fields, in order.
macro_rules! wire_fields {
    ($t:ty { $($field:ident),* }) => {
        impl Wire for $t {
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$field.put(out);)*
            }

            fn get(r: &mut Reader<'_>) -> Result<Self, StoreError> {
                Ok(Self { $($field: Wire::get(r)?),* })
            }
        }
    };
}

// ---------------------------------------------------------------------
// Journal events and WAL records
// ---------------------------------------------------------------------

impl Wire for JournalEvent {
    fn put(&self, out: &mut Vec<u8>) {
        self.at.put(out);
        self.backend.put(out);
        self.attempt.put(out);
        match &self.kind {
            JournalKind::AttemptStarted => 0u8.put(out),
            JournalKind::StageFailed { stage, error, suppressed } => {
                12u8.put(out);
                stage.put(out);
                error.put(out);
                suppressed.put(out);
            }
            JournalKind::FallbackTaken { what } => {
                2u8.put(out);
                what.put(out);
            }
            JournalKind::Retry { backoff } => {
                3u8.put(out);
                backoff.put(out);
            }
            JournalKind::BreakerOpened => 4u8.put(out),
            JournalKind::BreakerShortCircuit => 5u8.put(out),
            JournalKind::BreakerProbe => 6u8.put(out),
            JournalKind::RungExhausted { reason } => {
                7u8.put(out);
                reason.put(out);
            }
            JournalKind::LadderStep { from, to } => {
                8u8.put(out);
                from.put(out);
                to.put(out);
            }
            JournalKind::PartialResult { candidates } => {
                9u8.put(out);
                candidates.put(out);
            }
            JournalKind::Succeeded => 10u8.put(out),
            JournalKind::Failed { error } => {
                13u8.put(out);
                error.put(out);
            }
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        let at = Duration::get(r)?;
        let backend = r.name()?;
        let attempt = u32::get(r)?;
        // Tags 1 and 11 held structurally encoded errors in an earlier
        // format; they are retired, so such a store fails typed here.
        let kind = match u8::get(r)? {
            0 => JournalKind::AttemptStarted,
            2 => JournalKind::FallbackTaken { what: r.name()? },
            3 => JournalKind::Retry { backoff: Wire::get(r)? },
            4 => JournalKind::BreakerOpened,
            5 => JournalKind::BreakerShortCircuit,
            6 => JournalKind::BreakerProbe,
            7 => JournalKind::RungExhausted { reason: Wire::get(r)? },
            8 => JournalKind::LadderStep { from: r.name()?, to: r.name()? },
            9 => JournalKind::PartialResult { candidates: Wire::get(r)? },
            10 => JournalKind::Succeeded,
            12 => JournalKind::StageFailed {
                stage: r.name()?,
                error: Wire::get(r)?,
                suppressed: Wire::get(r)?,
            },
            13 => JournalKind::Failed { error: Wire::get(r)? },
            _ => return Err(r.corrupt("unknown journal kind tag")),
        };
        Ok(JournalEvent { at, backend, attempt, kind })
    }
}

/// One durable WAL record of a supervised run.
#[derive(Clone, Debug, PartialEq)]
pub enum Record {
    /// A journal event, persisted as it is journaled.
    Journal(JournalEvent),
    /// Budget position at the *start* of an attempt. A crash mid-attempt
    /// resumes with the same counters, hence the same derived attempt
    /// seed — which is what makes mid-solve checkpoints replayable.
    Progress {
        /// Ladder rung index the attempt runs on.
        rung: u32,
        /// Attempt index within the rung.
        rung_attempt: u32,
        /// Attempt index across the whole run (seeds derive from this).
        global_attempt: u32,
        /// Samples consumed by earlier attempts.
        samples_used: u64,
    },
    /// A ladder rung finished and the run stepped past it; resume never
    /// re-enters rungs recorded here.
    RungCompleted {
        /// The completed rung's index.
        rung: u32,
    },
    /// A mid-solve checkpoint from a backend hot loop (annealer reads,
    /// optimizer simplex, branch-and-bound incumbent, Grover schedule).
    Checkpoint {
        /// The backend's checkpoint tag.
        tag: String,
        /// The encoded solver state; opaque to the WAL.
        payload: Vec<u8>,
    },
    /// The run reached a terminal event; resuming is now an error.
    Finished {
        /// True when the run produced a report.
        success: bool,
    },
}

impl Wire for Record {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Record::Journal(e) => {
                1u8.put(out);
                e.put(out);
            }
            Record::Progress { rung, rung_attempt, global_attempt, samples_used } => {
                2u8.put(out);
                rung.put(out);
                rung_attempt.put(out);
                global_attempt.put(out);
                samples_used.put(out);
            }
            Record::RungCompleted { rung } => {
                3u8.put(out);
                rung.put(out);
            }
            Record::Checkpoint { tag, payload } => {
                4u8.put(out);
                tag.put(out);
                payload.put(out);
            }
            Record::Finished { success } => {
                5u8.put(out);
                success.put(out);
            }
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(match u8::get(r)? {
            1 => Record::Journal(Wire::get(r)?),
            2 => Record::Progress {
                rung: Wire::get(r)?,
                rung_attempt: Wire::get(r)?,
                global_attempt: Wire::get(r)?,
                samples_used: Wire::get(r)?,
            },
            3 => Record::RungCompleted { rung: Wire::get(r)? },
            4 => Record::Checkpoint { tag: Wire::get(r)?, payload: Wire::get(r)? },
            5 => Record::Finished { success: Wire::get(r)? },
            _ => return Err(r.corrupt("unknown record tag")),
        })
    }
}

/// Encode one [`Record`] for the WAL.
pub fn encode_record(rec: &Record) -> Vec<u8> {
    encode(rec)
}

/// Decode one WAL record. Typed error — never a panic — on any
/// malformed input.
pub fn decode_record(buf: &[u8]) -> Result<Record, StoreError> {
    decode(buf)
}

// ---------------------------------------------------------------------
// Recovered run state
// ---------------------------------------------------------------------

/// Everything a resumed supervised run restores: the journal so far,
/// its monotonic timebase offset, the ladder/budget position, and the
/// latest mid-solve checkpoint per backend tag.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecoveredRun {
    /// The journal as persisted — an exact prefix of what the crashed
    /// run held in memory.
    pub journal: RunJournal,
    /// The journal's timebase offset: the resumed run's clock starts
    /// here so journal offsets stay monotonic across the crash.
    pub elapsed: Duration,
    /// Ladder rungs fully completed; resume starts at this rung index.
    pub completed_rungs: u32,
    /// Attempt index within the interrupted rung.
    pub rung_attempt: u32,
    /// Attempt index across the whole run (attempt seeds derive from
    /// this, so the resumed attempt replays the crashed one exactly).
    pub global_attempt: u32,
    /// Samples consumed before the crash.
    pub samples_used: u64,
    /// Latest mid-solve checkpoint per backend tag.
    pub checkpoints: HashMap<String, Vec<u8>>,
    /// Terminal state, if the run finished before the crash — resuming
    /// a finished run is a typed error, not a re-execution.
    pub finished: Option<bool>,
}

/// The snapshot format. Mid-solve checkpoints are *not* snapshotted:
/// snapshots are taken at rung boundaries and at the end of the run,
/// where in-rung solver state is dead weight.
impl Wire for RecoveredRun {
    fn put(&self, out: &mut Vec<u8>) {
        self.elapsed.put(out);
        self.completed_rungs.put(out);
        self.rung_attempt.put(out);
        self.global_attempt.put(out);
        self.samples_used.put(out);
        self.finished.put(out);
        self.journal.events.put(out);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, StoreError> {
        Ok(RecoveredRun {
            elapsed: Wire::get(r)?,
            completed_rungs: Wire::get(r)?,
            rung_attempt: Wire::get(r)?,
            global_attempt: Wire::get(r)?,
            samples_used: Wire::get(r)?,
            finished: Wire::get(r)?,
            journal: RunJournal { events: Wire::get(r)? },
            checkpoints: HashMap::new(),
        })
    }
}

impl RecoveredRun {
    /// Fold one WAL record into the recovered state.
    pub fn apply(&mut self, rec: Record) {
        match rec {
            Record::Journal(e) => {
                if e.at > self.elapsed {
                    self.elapsed = e.at;
                }
                self.journal.events.push(e);
            }
            Record::Progress { rung_attempt, global_attempt, samples_used, .. } => {
                self.rung_attempt = rung_attempt;
                self.global_attempt = global_attempt;
                self.samples_used = samples_used;
            }
            Record::RungCompleted { rung } => {
                self.completed_rungs = self.completed_rungs.max(rung + 1);
                // Checkpoints and attempt position belong to the rung
                // that just closed; the next rung starts fresh.
                self.rung_attempt = 0;
                self.checkpoints.clear();
            }
            Record::Checkpoint { tag, payload } => {
                self.checkpoints.insert(tag, payload);
            }
            Record::Finished { success } => {
                self.finished = Some(success);
            }
        }
    }

    /// Serialize for a snapshot, without the mid-solve checkpoints.
    pub fn encode(&self) -> Vec<u8> {
        encode(self)
    }

    /// Decode a snapshot produced by [`encode`](RecoveredRun::encode).
    pub fn decode(buf: &[u8]) -> Result<RecoveredRun, StoreError> {
        decode(buf)
    }

    /// Rebuild the run state from what the store recovered on open:
    /// decode the snapshot (if any), then fold every WAL record beyond
    /// it, in order.
    pub fn recover(recovered: &Recovered) -> Result<RecoveredRun, StoreError> {
        let mut run = match &recovered.snapshot {
            Some(bytes) => RecoveredRun::decode(bytes)?,
            None => RecoveredRun::default(),
        };
        for rec in &recovered.records {
            run.apply(decode_record(rec)?);
        }
        Ok(run)
    }
}

// ---------------------------------------------------------------------
// Backend checkpoint payloads
// ---------------------------------------------------------------------

/// Progress of the Grover backend's BBHT schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GroverProgress {
    /// Next BBHT guess index to run.
    pub next_guess: u64,
    /// Measurements taken so far.
    pub measurements: u64,
    /// Grover iterations accumulated so far.
    pub total_iterations: u64,
    /// The current BBHT iteration-count estimate `m`.
    pub m: f64,
    /// Success probability reported by the last measurement.
    pub success_probability: f64,
}

// The annealer checkpoints each chunk of reads as `(end, samples)`:
// the index one past its last read, and that chunk's decoded samples in
// read order. The QAOA backend checkpoints its Nelder–Mead state, the
// classical backend its branch-and-bound incumbent, the Grover backend
// its BBHT position.
wire_fields!(AnnealSample { assignment, energy, broken_chains });
wire_fields!(NmState { evaluations, iterations, simplex });
wire_fields!(Incumbent { assignment, soft_satisfied, soft_weight, violated_weight });
wire_fields!(GroverProgress { next_guess, measurements, total_iterations, m, success_probability });

// ---------------------------------------------------------------------
// The live sink
// ---------------------------------------------------------------------

/// The live persistence sink for one supervised run: owns the
/// [`RunStore`], serializes [`Record`]s into it, and doubles as the
/// [`Checkpointer`] every backend's run context holds. The supervisor
/// builds one per durable run and is its only user.
///
/// Persistence failures are deliberately *soft* from the solver's
/// perspective ([`Checkpointer::save`] is infallible): the first store
/// failure is latched, the run's [`CancelToken`] is cancelled — and
/// with it the running rung's token, which is its child — so the run
/// winds down cooperatively, and [`death`](DurableRun::death)
/// hands the typed error to the supervisor, which reports it as the
/// run's outcome.
pub(crate) struct DurableRun {
    store: Mutex<RunStore>,
    restored: Mutex<HashMap<String, Vec<u8>>>,
    cancel: CancelToken,
    death: Mutex<Option<StoreError>>,
    interval: u64,
}

impl DurableRun {
    /// A sink over `store` for the run cancelled through `cancel`.
    /// `restored` holds a resumed run's recovered mid-solve checkpoints
    /// (empty for a fresh run); each is handed out exactly once
    /// ([`Checkpointer::load`] consumes), so a later attempt with a
    /// different seed can never restore stale solver state. `interval`
    /// is the work units between mid-solve checkpoints; 0 disables
    /// them but keeps journal and rung durability.
    pub(crate) fn new(
        store: RunStore,
        restored: HashMap<String, Vec<u8>>,
        cancel: CancelToken,
        interval: u64,
    ) -> Self {
        DurableRun {
            store: Mutex::new(store),
            restored: Mutex::new(restored),
            cancel,
            death: Mutex::new(None),
            interval,
        }
    }

    /// The first store failure, if the store died mid-run.
    pub(crate) fn death(&self) -> Option<StoreError> {
        self.death.lock().clone()
    }

    /// Append one record durably. Failures are latched, not returned.
    pub(crate) fn record(&self, rec: &Record) {
        let bytes = encode_record(rec);
        let result = self.store.lock().append(&bytes);
        if let Err(e) = result {
            self.fail(e);
        }
    }

    /// Write a snapshot (collapsing the WAL). Failures are latched.
    pub(crate) fn snapshot(&self, state: &[u8]) {
        let result = self.store.lock().snapshot(state);
        if let Err(e) = result {
            self.fail(e);
        }
    }

    fn fail(&self, e: StoreError) {
        // Using a dead store reports `Dead` on every call; keep the
        // original failure, which names the kill-point or I/O error.
        let mut death = self.death.lock();
        if death.is_none() {
            *death = Some(e);
        }
        drop(death);
        self.cancel.cancel();
    }
}

/// Interval 0 disables mid-solve checkpoints here, and only here:
/// backends always run their resumable path, so `save` must append
/// nothing and `load` must restore nothing.
impl Checkpointer for DurableRun {
    fn save(&self, tag: &str, payload: &[u8]) {
        if self.interval != 0 {
            self.record(&Record::Checkpoint { tag: tag.to_string(), payload: payload.to_vec() });
        }
    }

    fn load(&self, tag: &str) -> Option<Vec<u8>> {
        if self.interval == 0 {
            return None;
        }
        self.restored.lock().remove(tag)
    }

    fn interval(&self) -> u64 {
        self.interval
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::backend::Backend;
    use crate::backends::{AnnealerBackend, ClassicalBackend, GateModelBackend, GroverBackend};
    use crate::error::{ExecError, FaultKind};
    use nck_anneal::AnnealerDevice;
    use nck_circuit::GateModelDevice;

    fn sample_events() -> Vec<JournalEvent> {
        vec![
            JournalEvent {
                at: Duration::new(3, 999_999_999),
                backend: "annealer",
                attempt: 0,
                kind: JournalKind::AttemptStarted,
            },
            JournalEvent {
                at: Duration::from_micros(1),
                backend: "gate",
                attempt: 2,
                kind: JournalKind::StageFailed {
                    stage: "sample",
                    error: ExecError::Transient {
                        backend: "gate",
                        stage: "sample",
                        kind: FaultKind::ChainBreakStorm,
                        attempt: 2,
                    }
                    .to_string(),
                    suppressed: true,
                },
            },
            JournalEvent {
                at: Duration::ZERO,
                backend: "supervisor",
                attempt: 7,
                kind: JournalKind::Failed {
                    error: ExecError::Store(StoreError::Corrupt {
                        path: "wal.log".into(),
                        offset: 99,
                        reason: "bad crc".into(),
                    })
                    .to_string(),
                },
            },
            JournalEvent {
                at: Duration::from_millis(5),
                backend: "classical",
                attempt: 1,
                kind: JournalKind::RungExhausted { reason: "permanent error: x".into() },
            },
            JournalEvent {
                at: Duration::from_secs(1),
                backend: "grover",
                attempt: 0,
                kind: JournalKind::LadderStep { from: "grover", to: "classical" },
            },
        ]
    }

    #[test]
    fn records_round_trip_exactly() {
        let mut recs: Vec<Record> = sample_events().into_iter().map(Record::Journal).collect();
        recs.push(Record::Journal(JournalEvent {
            at: Duration::from_nanos(7),
            backend: "annealer",
            attempt: 1,
            kind: JournalKind::StageFailed {
                stage: "embed",
                error: String::new(),
                suppressed: false,
            },
        }));
        recs.push(Record::Journal(JournalEvent {
            at: Duration::from_secs(2),
            backend: "classical",
            attempt: 0,
            kind: JournalKind::Failed { error: "multi\nline — ünïcode".into() },
        }));
        recs.push(Record::Progress {
            rung: 1,
            rung_attempt: 3,
            global_attempt: 9,
            samples_used: 1234,
        });
        recs.push(Record::RungCompleted { rung: 2 });
        recs.push(Record::Checkpoint { tag: "annealer".into(), payload: vec![1, 2, 3] });
        recs.push(Record::Finished { success: true });
        recs.push(Record::Finished { success: false });
        for rec in recs {
            let bytes = encode_record(&rec);
            assert_eq!(decode_record(&bytes).unwrap(), rec, "{rec:?}");
        }
    }

    /// Journal `name` in every position an event carries a name, and
    /// decode each record back.
    fn round_trip_name(name: &'static str) -> Result<(), StoreError> {
        for kind in [
            JournalKind::StageFailed { stage: name, error: "e".into(), suppressed: false },
            JournalKind::FallbackTaken { what: name },
            JournalKind::LadderStep { from: name, to: name },
        ] {
            let rec = Record::Journal(JournalEvent {
                at: Duration::ZERO,
                backend: name,
                attempt: 0,
                kind,
            });
            assert_eq!(decode_record(&encode_record(&rec))?, rec);
        }
        Ok(())
    }

    #[test]
    fn every_journaled_name_round_trips() {
        let backends: [&dyn Backend; 4] = [
            &AnnealerBackend::new(AnnealerDevice::ideal(4), 1),
            &GateModelBackend::new(GateModelDevice::ideal(4), 1, 1, 1),
            &GroverBackend::default(),
            &ClassicalBackend::default(),
        ];
        let mut names: Vec<&'static str> = backends.iter().map(|b| b.name()).collect();
        names.push("supervisor");
        // `RunCtx::enter_stage` labels and the supervisor's own stages.
        names.extend(["compile", "embed", "sample", "decode", "classify"]);
        names.extend(["breaker", "budget", "ladder", "store"]);
        // Both `FallbackTaken` labels.
        names.extend(["clique embedding", "analytic p=1 QAOA"]);
        for name in names {
            round_trip_name(name).unwrap();
        }
    }

    #[test]
    fn unknown_names_and_retired_error_tags_are_typed_corruption() {
        assert!(matches!(round_trip_name("toaster"), Err(StoreError::Corrupt { .. })));

        // Journal kinds 1 (StageFailed) and 11 (Failed) of the earlier
        // format carried a structurally encoded error: a one-byte tag
        // (here 6 = `NoCandidates`, 3 = `Unsatisfiable`) and fields.
        let old_record = |kind: &[u8]| {
            let mut out = vec![1u8];
            Duration::from_millis(3).put(&mut out);
            "annealer".put(&mut out);
            0u32.put(&mut out);
            out.extend_from_slice(kind);
            out
        };
        let mut stage_failed = vec![1u8];
        "sample".put(&mut stage_failed);
        stage_failed.extend_from_slice(&[6, 0]);
        for kind in [stage_failed, vec![11, 3]] {
            let err = decode_record(&old_record(&kind)).unwrap_err();
            assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
        }
    }

    #[test]
    fn journal_timebase_round_trips_bit_exactly() {
        // The satellite bugfix: journal offsets are monotonic
        // durations serialized exactly (secs + subsec nanos), never
        // wall-clock, so a replayed journal compares equal.
        for e in sample_events() {
            let back: JournalEvent = decode(&encode(&e)).unwrap();
            assert_eq!(back, e);
            assert_eq!(back.at.as_nanos(), e.at.as_nanos());
        }
    }

    #[test]
    fn snapshot_state_round_trips() {
        let mut run = RecoveredRun {
            elapsed: Duration::new(12, 345_678_901),
            completed_rungs: 2,
            rung_attempt: 1,
            global_attempt: 6,
            samples_used: 5000,
            finished: None,
            ..RecoveredRun::default()
        };
        run.journal.events = sample_events();
        let back = RecoveredRun::decode(&run.encode()).unwrap();
        assert_eq!(back, run);
        let finished = RecoveredRun { finished: Some(true), ..run.clone() };
        assert_eq!(RecoveredRun::decode(&finished.encode()).unwrap().finished, Some(true));
    }

    #[test]
    fn recovery_folds_snapshot_then_records() {
        let mut snap = RecoveredRun { completed_rungs: 1, global_attempt: 2, ..Default::default() };
        snap.journal.events.push(sample_events().remove(0));
        let records = vec![
            encode_record(&Record::Progress {
                rung: 1,
                rung_attempt: 0,
                global_attempt: 3,
                samples_used: 100,
            }),
            encode_record(&Record::Checkpoint { tag: "classical".into(), payload: vec![9] }),
            encode_record(&Record::Journal(JournalEvent {
                at: Duration::from_secs(5),
                backend: "classical",
                attempt: 0,
                kind: JournalKind::AttemptStarted,
            })),
        ];
        let recovered = Recovered { snapshot: Some(snap.encode()), records, recovered_tail: false };
        let run = RecoveredRun::recover(&recovered).unwrap();
        assert_eq!(run.completed_rungs, 1);
        assert_eq!(run.global_attempt, 3);
        assert_eq!(run.samples_used, 100);
        assert_eq!(run.journal.events.len(), 2);
        assert_eq!(run.elapsed, Duration::from_secs(5), "elapsed tracks the latest event");
        assert_eq!(run.checkpoints.get("classical"), Some(&vec![9]));
    }

    #[test]
    fn rung_completion_discards_in_rung_state() {
        let mut run = RecoveredRun::default();
        run.apply(Record::Progress {
            rung: 0,
            rung_attempt: 4,
            global_attempt: 5,
            samples_used: 7,
        });
        run.apply(Record::Checkpoint { tag: "annealer".into(), payload: vec![1] });
        run.apply(Record::RungCompleted { rung: 0 });
        assert_eq!(run.completed_rungs, 1);
        assert_eq!(run.rung_attempt, 0, "next rung starts at attempt 0");
        assert!(run.checkpoints.is_empty(), "checkpoints die with their rung");
        assert_eq!(run.global_attempt, 5, "global counters survive");
    }

    #[test]
    fn corrupt_records_are_typed_errors_never_panics() {
        // Every truncation of a valid record must fail cleanly.
        let rec = Record::Journal(sample_events().remove(1));
        let bytes = encode_record(&rec);
        for cut in 0..bytes.len() {
            assert!(decode_record(&bytes[..cut]).is_err(), "cut at {cut} accepted");
        }
        // Unknown tags, hostile lengths, bad utf-8.
        assert!(decode_record(&[]).is_err());
        assert!(decode_record(&[99]).is_err());
        let mut hostile = vec![4u8];
        u64::MAX.put(&mut hostile); // tag length far beyond the buffer
        hostile.extend_from_slice(b"xx");
        assert!(decode_record(&hostile).is_err());
        let mut bad_utf8 = vec![4u8];
        [0xffu8, 0xfe].put(&mut bad_utf8);
        [0u8; 0].put(&mut bad_utf8);
        assert!(decode_record(&bad_utf8).is_err());
        // Snapshots too.
        let snap = RecoveredRun { completed_rungs: 3, ..Default::default() }.encode();
        for cut in 0..snap.len() {
            assert!(RecoveredRun::decode(&snap[..cut]).is_err(), "cut at {cut} accepted");
        }
    }

    /// One event of every journal kind, each name drawn from the
    /// closed vocabulary.
    fn every_journal_kind() -> Vec<JournalEvent> {
        let kinds = [
            JournalKind::AttemptStarted,
            JournalKind::StageFailed { stage: "embed", error: "no fit".into(), suppressed: true },
            JournalKind::StageFailed { stage: "sample", error: String::new(), suppressed: false },
            JournalKind::FallbackTaken { what: "clique embedding" },
            JournalKind::Retry { backoff: Duration::new(1, 250_000) },
            JournalKind::BreakerOpened,
            JournalKind::BreakerShortCircuit,
            JournalKind::BreakerProbe,
            JournalKind::RungExhausted { reason: "retries exhausted (3 attempts)".into() },
            JournalKind::LadderStep { from: "gate", to: "classical" },
            JournalKind::PartialResult { candidates: 17 },
            JournalKind::Succeeded,
            JournalKind::Failed { error: "store: ünïcode\nline".into() },
        ];
        kinds
            .into_iter()
            .enumerate()
            .map(|(i, kind)| JournalEvent {
                at: Duration::new(i as u64, 1_000 * i as u32 + 7),
                backend: NAMES[i % 5],
                attempt: i as u32,
                kind,
            })
            .collect()
    }

    /// Pins the store's byte format: every record kind, every journal
    /// kind, snapshots in each terminal state, and each backend's
    /// checkpoint payload, folded into one FNV-1a digest (each byte
    /// string prefixed by its length). Round-trip tests pass for any
    /// self-consistent format; this one fails when a byte moves, so a
    /// codec refactor must leave it unchanged, and a deliberate format
    /// change must update it and keep old stores readable or say why.
    #[test]
    fn wire_bytes_match_the_pinned_digest() {
        let mut frames: Vec<Vec<u8>> = Vec::new();
        let events = every_journal_kind();
        frames.extend(events.iter().cloned().map(|e| encode_record(&Record::Journal(e))));
        frames.extend(
            [
                Record::Progress {
                    rung: 1,
                    rung_attempt: 2,
                    global_attempt: 3,
                    samples_used: 1 << 40,
                },
                Record::RungCompleted { rung: 4 },
                Record::Checkpoint { tag: "gate".into(), payload: vec![0, 255, 7] },
                Record::Finished { success: false },
                Record::Finished { success: true },
            ]
            .iter()
            .map(encode_record),
        );
        for finished in [None, Some(false), Some(true)] {
            let run = RecoveredRun {
                journal: RunJournal { events: events.clone() },
                elapsed: Duration::new(9, 876_543_210),
                completed_rungs: 2,
                rung_attempt: 1,
                global_attempt: 5,
                samples_used: 300,
                checkpoints: HashMap::from([("annealer".to_string(), vec![1])]),
                finished,
            };
            frames.push(run.encode());
        }
        let samples = [
            AnnealSample { assignment: vec![true, false, true], energy: -1.25, broken_chains: 2 },
            AnnealSample { assignment: vec![], energy: f64::MIN_POSITIVE, broken_chains: 0 },
        ];
        frames.push(encode(&(17usize, Cow::Borrowed(&samples[..]))));
        frames.push(encode(&NmState {
            simplex: vec![(vec![0.1, -0.2], 3.5), (vec![1.0, 2.0], -0.5), (vec![0.0, 0.0], 9.0)],
            evaluations: 41,
            iterations: 12,
        }));
        frames.push(encode(&Incumbent {
            assignment: vec![true, true, false],
            soft_satisfied: 2,
            soft_weight: 5,
            violated_weight: 1,
        }));
        frames.push(encode(&GroverProgress {
            next_guess: 9,
            measurements: 9,
            total_iterations: 140,
            m: 10.6044,
            success_probability: 0.82,
        }));

        let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
        for frame in &frames {
            for b in (frame.len() as u64).to_le_bytes().iter().chain(frame) {
                digest ^= u64::from(*b);
                digest = digest.wrapping_mul(0x0100_0000_01b3);
            }
        }
        assert_eq!(frames.len(), 25);
        assert_eq!(digest, 0x1bea_455a_36a6_61a4, "wire digest {digest:016x}");
    }

    #[test]
    fn interval_zero_neither_saves_nor_restores_checkpoints() {
        let dir = std::env::temp_dir().join(format!(
            "nck-durable-interval0-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = RunStore::open_fresh(&dir).unwrap();
        let restored = HashMap::from([("annealer".to_string(), vec![1, 2, 3])]);
        let sink = DurableRun::new(store, restored, CancelToken::never(), 0);
        sink.save("annealer", &[4, 5, 6]);
        assert_eq!(sink.load("annealer"), None);
        assert!(sink.death().is_none());
        drop(sink);
        let (_store, recovered) = RunStore::open(&dir).unwrap();
        assert!(recovered.records.is_empty(), "interval 0 appended a record");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn backend_checkpoint_payloads_round_trip() {
        let samples = vec![
            AnnealSample { assignment: vec![true, false, true], energy: -1.25, broken_chains: 2 },
            AnnealSample { assignment: vec![false], energy: f64::MIN_POSITIVE, broken_chains: 0 },
        ];
        // The annealer saves borrowed samples and restores owned ones.
        let bytes = encode(&(17usize, Cow::Borrowed(&samples[..])));
        assert_eq!(bytes, encode(&(17usize, samples.clone())));
        let (done, back): (usize, Vec<AnnealSample>) = decode(&bytes).unwrap();
        assert_eq!(done, 17);
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].assignment, samples[0].assignment);
        assert_eq!(back[0].energy.to_bits(), samples[0].energy.to_bits());
        assert_eq!(back[1].broken_chains, 0);

        let nm = NmState {
            simplex: vec![(vec![0.1, -0.2], 3.5), (vec![1.0, 2.0], -0.5), (vec![0.0, 0.0], 9.0)],
            evaluations: 41,
            iterations: 12,
        };
        assert_eq!(decode::<NmState>(&encode(&nm)).unwrap(), nm);

        let inc = Incumbent {
            assignment: vec![true, true, false],
            soft_satisfied: 2,
            soft_weight: 5,
            violated_weight: 1,
        };
        assert_eq!(decode::<Incumbent>(&encode(&inc)).unwrap(), inc);

        let g = GroverProgress {
            next_guess: 9,
            measurements: 9,
            total_iterations: 140,
            m: 10.6044,
            success_probability: 0.82,
        };
        assert_eq!(decode::<GroverProgress>(&encode(&g)).unwrap(), g);

        // Malformed payloads are typed errors, never panics: empty,
        // short, hostile lengths, and a flag byte no encoder writes.
        let mut bad_flag = encode(&inc);
        bad_flag[8] = 2;
        for buf in [&b""[..], &[0xff; 7][..], &[0xff; 64][..], &bad_flag[..]] {
            assert!(decode::<(usize, Vec<AnnealSample>)>(buf).is_err());
            assert!(decode::<NmState>(buf).is_err());
            assert!(decode::<Incumbent>(buf).is_err());
            assert!(decode::<GroverProgress>(buf).is_err());
        }
    }
}
