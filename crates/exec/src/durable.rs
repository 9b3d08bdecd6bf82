//! Durable execution: the wire format and live sink that persist a
//! supervised run into an [`nck_store::RunStore`].
//!
//! Everything a resumed run needs crosses this module as one of two
//! byte shapes:
//!
//! * **WAL records** — a [`Record`] per journal event, budget-progress
//!   mark, rung completion, mid-solve checkpoint, and terminal event,
//!   appended (and fsynced) as the run proceeds;
//! * **snapshots** — a serialized [`RecoveredRun`] written at rung
//!   boundaries and at the end of the run, collapsing the WAL.
//!
//! The codec is hand-rolled little-endian (the workspace is
//! dependency-free by policy) and *exact*: journal timestamps are
//! monotonic offsets serialized as whole seconds plus subsecond
//! nanoseconds, so a decoded journal compares equal — `Duration` and
//! all — to the one that was encoded. Floats travel as raw IEEE-754
//! bits for the same reason. A journal event's error is the same value
//! in memory and on disk — its rendered text — so it travels as a
//! plain string; the typed [`ExecError`](crate::ExecError) stays on
//! [`FailedAttempt`](crate::FailedAttempt). Every other string an event
//! carries comes from a closed vocabulary of backend, stage and
//! fallback names: a name outside it, or a failure event written in the
//! retired format that encoded errors structurally, decodes to a typed
//! [`StoreError::Corrupt`]. Decoding is an untrusted-input path
//! (the file may be truncated or bit-flipped in ways the store's CRC
//! already rejects, but defense in depth is cheap): every decoder
//! returns a typed error or `None`, never panics, and never allocates
//! more than the input's own length.

use crate::journal::{JournalEvent, JournalKind, RunJournal};
use nck_anneal::AnnealSample;
use nck_cancel::{CancelToken, Checkpointer};
use nck_circuit::NmState;
use nck_classical::Incumbent;
use nck_store::{Recovered, RunStore, StoreError};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::time::Duration;

/// Default solver work units (annealer reads, optimizer iterations,
/// Grover guesses) between mid-solve checkpoints.
pub const DEFAULT_CHECKPOINT_INTERVAL: u64 = 16;

// ---------------------------------------------------------------------
// Primitive codec
// ---------------------------------------------------------------------

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_bytes(out: &mut Vec<u8>, v: &[u8]) {
    put_u64(out, v.len() as u64);
    out.extend_from_slice(v);
}

fn put_str(out: &mut Vec<u8>, v: &str) {
    put_bytes(out, v.as_bytes());
}

fn put_duration(out: &mut Vec<u8>, d: Duration) {
    put_u64(out, d.as_secs());
    put_u32(out, d.subsec_nanos());
}

/// Bounded little-endian reader over an untrusted byte slice. Every
/// read is range-checked; a short or malformed buffer yields a typed
/// [`StoreError::Corrupt`], never a panic.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

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

    fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, StoreError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, StoreError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn usize(&mut self) -> Result<usize, StoreError> {
        usize::try_from(self.u64()?).map_err(|_| self.corrupt("count exceeds usize"))
    }

    fn f64(&mut self) -> Result<f64, StoreError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A length-prefixed byte string. The length is validated against
    /// the bytes actually present, so a flipped length field cannot
    /// trigger a huge allocation.
    fn bytes(&mut self) -> Result<&'a [u8], StoreError> {
        let n = self.usize()?;
        if n > self.buf.len().saturating_sub(self.pos) {
            return Err(self.corrupt("length prefix exceeds record"));
        }
        self.take(n)
    }

    fn string(&mut self) -> Result<String, StoreError> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| self.corrupt("invalid utf-8"))
    }

    /// A journaled name, decoded to the same `&'static str` the
    /// execution layer journals. The vocabulary is closed: a name
    /// outside it is corruption, not something to leak a string for.
    fn name(&mut self) -> Result<&'static str, StoreError> {
        let b = self.bytes()?;
        NAMES
            .iter()
            .copied()
            .find(|n| n.as_bytes() == b)
            .ok_or_else(|| self.corrupt("unknown name"))
    }

    fn duration(&mut self) -> Result<Duration, StoreError> {
        let secs = self.u64()?;
        let nanos = self.u32()?;
        if nanos >= 1_000_000_000 {
            return Err(self.corrupt("subsecond nanoseconds out of range"));
        }
        Ok(Duration::new(secs, nanos))
    }

    fn finish(&self) -> Result<(), StoreError> {
        if self.pos != self.buf.len() {
            return Err(self.corrupt("trailing bytes after record"));
        }
        Ok(())
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

// ---------------------------------------------------------------------
// Journal event codec
// ---------------------------------------------------------------------

fn put_journal_event(out: &mut Vec<u8>, e: &JournalEvent) {
    put_duration(out, e.at);
    put_str(out, e.backend);
    put_u32(out, e.attempt);
    match &e.kind {
        JournalKind::AttemptStarted => put_u8(out, 0),
        JournalKind::StageFailed { stage, error, suppressed } => {
            put_u8(out, 12);
            put_str(out, stage);
            put_str(out, error);
            put_u8(out, u8::from(*suppressed));
        }
        JournalKind::FallbackTaken { what } => {
            put_u8(out, 2);
            put_str(out, what);
        }
        JournalKind::Retry { backoff } => {
            put_u8(out, 3);
            put_duration(out, *backoff);
        }
        JournalKind::BreakerOpened => put_u8(out, 4),
        JournalKind::BreakerShortCircuit => put_u8(out, 5),
        JournalKind::BreakerProbe => put_u8(out, 6),
        JournalKind::RungExhausted { reason } => {
            put_u8(out, 7);
            put_str(out, reason);
        }
        JournalKind::LadderStep { from, to } => {
            put_u8(out, 8);
            put_str(out, from);
            put_str(out, to);
        }
        JournalKind::PartialResult { candidates } => {
            put_u8(out, 9);
            put_u64(out, *candidates as u64);
        }
        JournalKind::Succeeded => put_u8(out, 10),
        JournalKind::Failed { error } => {
            put_u8(out, 13);
            put_str(out, error);
        }
    }
}

fn read_journal_event(r: &mut Reader<'_>) -> Result<JournalEvent, StoreError> {
    let at = r.duration()?;
    let backend = r.name()?;
    let attempt = r.u32()?;
    // Tags 1 and 11 held structurally encoded errors in an earlier
    // format; they are retired, so such a store fails typed here.
    let kind = match r.u8()? {
        0 => JournalKind::AttemptStarted,
        2 => JournalKind::FallbackTaken { what: r.name()? },
        3 => JournalKind::Retry { backoff: r.duration()? },
        4 => JournalKind::BreakerOpened,
        5 => JournalKind::BreakerShortCircuit,
        6 => JournalKind::BreakerProbe,
        7 => JournalKind::RungExhausted { reason: r.string()? },
        8 => JournalKind::LadderStep { from: r.name()?, to: r.name()? },
        9 => JournalKind::PartialResult { candidates: r.usize()? },
        10 => JournalKind::Succeeded,
        12 => JournalKind::StageFailed {
            stage: r.name()?,
            error: r.string()?,
            suppressed: r.u8()? != 0,
        },
        13 => JournalKind::Failed { error: r.string()? },
        _ => return Err(r.corrupt("unknown journal kind tag")),
    };
    Ok(JournalEvent { at, backend, attempt, kind })
}

// ---------------------------------------------------------------------
// WAL records
// ---------------------------------------------------------------------

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
        /// Opaque payload; the backend's codec gives it meaning.
        payload: Vec<u8>,
    },
    /// The run reached a terminal event; resuming is now an error.
    Finished {
        /// True when the run produced a report.
        success: bool,
    },
}

/// Encode one [`Record`] for the WAL.
pub fn encode_record(rec: &Record) -> Vec<u8> {
    let mut out = Vec::new();
    match rec {
        Record::Journal(e) => {
            put_u8(&mut out, 1);
            put_journal_event(&mut out, e);
        }
        Record::Progress { rung, rung_attempt, global_attempt, samples_used } => {
            put_u8(&mut out, 2);
            put_u32(&mut out, *rung);
            put_u32(&mut out, *rung_attempt);
            put_u32(&mut out, *global_attempt);
            put_u64(&mut out, *samples_used);
        }
        Record::RungCompleted { rung } => {
            put_u8(&mut out, 3);
            put_u32(&mut out, *rung);
        }
        Record::Checkpoint { tag, payload } => {
            put_u8(&mut out, 4);
            put_str(&mut out, tag);
            put_bytes(&mut out, payload);
        }
        Record::Finished { success } => {
            put_u8(&mut out, 5);
            put_u8(&mut out, u8::from(*success));
        }
    }
    out
}

/// Decode one WAL record. Typed error — never a panic — on any
/// malformed input.
pub fn decode_record(buf: &[u8]) -> Result<Record, StoreError> {
    let mut r = Reader::new(buf);
    let rec = match r.u8()? {
        1 => Record::Journal(read_journal_event(&mut r)?),
        2 => Record::Progress {
            rung: r.u32()?,
            rung_attempt: r.u32()?,
            global_attempt: r.u32()?,
            samples_used: r.u64()?,
        },
        3 => Record::RungCompleted { rung: r.u32()? },
        4 => Record::Checkpoint { tag: r.string()?, payload: r.bytes()?.to_vec() },
        5 => Record::Finished {
            success: match r.u8()? {
                0 => false,
                1 => true,
                _ => return Err(r.corrupt("finished flag out of range")),
            },
        },
        _ => return Err(r.corrupt("unknown record tag")),
    };
    r.finish()?;
    Ok(rec)
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

    /// Serialize for a snapshot. Mid-solve checkpoints are *not*
    /// snapshotted: snapshots are taken at rung boundaries and at the
    /// end of the run, where in-rung solver state is dead weight.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_duration(&mut out, self.elapsed);
        put_u32(&mut out, self.completed_rungs);
        put_u32(&mut out, self.rung_attempt);
        put_u32(&mut out, self.global_attempt);
        put_u64(&mut out, self.samples_used);
        put_u8(
            &mut out,
            match self.finished {
                None => 0,
                Some(false) => 1,
                Some(true) => 2,
            },
        );
        put_u64(&mut out, self.journal.events.len() as u64);
        for e in &self.journal.events {
            put_journal_event(&mut out, e);
        }
        out
    }

    /// Decode a snapshot produced by [`encode`](RecoveredRun::encode).
    pub fn decode(buf: &[u8]) -> Result<RecoveredRun, StoreError> {
        let mut r = Reader::new(buf);
        let elapsed = r.duration()?;
        let completed_rungs = r.u32()?;
        let rung_attempt = r.u32()?;
        let global_attempt = r.u32()?;
        let samples_used = r.u64()?;
        let finished = match r.u8()? {
            0 => None,
            1 => Some(false),
            2 => Some(true),
            _ => return Err(r.corrupt("finished flag out of range")),
        };
        let n = r.usize()?;
        let mut journal = RunJournal::default();
        for _ in 0..n {
            journal.events.push(read_journal_event(&mut r)?);
        }
        r.finish()?;
        Ok(RecoveredRun {
            journal,
            elapsed,
            completed_rungs,
            rung_attempt,
            global_attempt,
            samples_used,
            checkpoints: HashMap::new(),
            finished,
        })
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
// The live sink
// ---------------------------------------------------------------------

/// The live persistence sink for one supervised run: owns the
/// [`RunStore`], serializes [`Record`]s into it, and doubles as the
/// [`Checkpointer`] every backend hot loop sees. The supervisor builds
/// one per durable run and is its only user.
///
/// Persistence failures are deliberately *soft* from the solver's
/// perspective ([`Checkpointer::save`] is infallible): the first store
/// failure is latched, the run's [`CancelToken`] is cancelled so the
/// run winds down cooperatively, and [`death`](DurableRun::death)
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

// ---------------------------------------------------------------------
// Backend checkpoint payloads
// ---------------------------------------------------------------------

/// Encode annealer progress: reads completed plus every decoded sample
/// so far, in generation order.
pub fn encode_anneal_progress(reads_done: usize, samples: &[AnnealSample]) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, reads_done as u64);
    put_u64(&mut out, samples.len() as u64);
    for s in samples {
        put_u64(&mut out, s.assignment.len() as u64);
        for &b in &s.assignment {
            put_u8(&mut out, u8::from(b));
        }
        put_f64(&mut out, s.energy);
        put_u64(&mut out, s.broken_chains as u64);
    }
    out
}

/// Decode annealer progress; `None` on any malformed payload (the
/// backend then starts the job from scratch).
pub fn decode_anneal_progress(buf: &[u8]) -> Option<(usize, Vec<AnnealSample>)> {
    let mut r = Reader::new(buf);
    let inner = |r: &mut Reader<'_>| -> Result<(usize, Vec<AnnealSample>), StoreError> {
        let reads_done = r.usize()?;
        let n = r.usize()?;
        let mut samples = Vec::new();
        for _ in 0..n {
            let len = r.usize()?;
            if len > r.buf.len().saturating_sub(r.pos) {
                return Err(r.corrupt("assignment length exceeds payload"));
            }
            let mut assignment = Vec::with_capacity(len);
            for _ in 0..len {
                assignment.push(r.u8()? != 0);
            }
            let energy = r.f64()?;
            let broken_chains = r.usize()?;
            samples.push(AnnealSample { assignment, energy, broken_chains });
        }
        r.finish()?;
        Ok((reads_done, samples))
    };
    inner(&mut r).ok()
}

/// Encode a Nelder–Mead optimizer state (the QAOA backend's
/// checkpoint).
pub fn encode_nm_state(state: &NmState) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, state.evaluations as u64);
    put_u64(&mut out, state.iterations as u64);
    put_u64(&mut out, state.simplex.len() as u64);
    for (x, fx) in &state.simplex {
        put_u64(&mut out, x.len() as u64);
        for &v in x {
            put_f64(&mut out, v);
        }
        put_f64(&mut out, *fx);
    }
    out
}

/// Decode a Nelder–Mead optimizer state; `None` on any malformed
/// payload.
pub fn decode_nm_state(buf: &[u8]) -> Option<NmState> {
    let mut r = Reader::new(buf);
    let inner = |r: &mut Reader<'_>| -> Result<NmState, StoreError> {
        let evaluations = r.usize()?;
        let iterations = r.usize()?;
        let n = r.usize()?;
        let mut simplex = Vec::new();
        for _ in 0..n {
            let d = r.usize()?;
            if d.saturating_mul(8) > r.buf.len().saturating_sub(r.pos) {
                return Err(r.corrupt("simplex vertex exceeds payload"));
            }
            let mut x = Vec::with_capacity(d);
            for _ in 0..d {
                x.push(r.f64()?);
            }
            let fx = r.f64()?;
            simplex.push((x, fx));
        }
        r.finish()?;
        Ok(NmState { simplex, evaluations, iterations })
    };
    inner(&mut r).ok()
}

/// Encode a branch-and-bound incumbent (the classical backend's
/// checkpoint).
pub fn encode_incumbent(inc: &Incumbent) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, inc.assignment.len() as u64);
    for &b in &inc.assignment {
        put_u8(&mut out, u8::from(b));
    }
    put_u64(&mut out, inc.soft_satisfied as u64);
    put_u64(&mut out, inc.soft_weight);
    put_u64(&mut out, inc.violated_weight);
    out
}

/// Decode a branch-and-bound incumbent; `None` on any malformed
/// payload.
pub fn decode_incumbent(buf: &[u8]) -> Option<Incumbent> {
    let mut r = Reader::new(buf);
    let inner = |r: &mut Reader<'_>| -> Result<Incumbent, StoreError> {
        let len = r.usize()?;
        if len > r.buf.len().saturating_sub(r.pos) {
            return Err(r.corrupt("assignment length exceeds payload"));
        }
        let mut assignment = Vec::with_capacity(len);
        for _ in 0..len {
            assignment.push(r.u8()? != 0);
        }
        let soft_satisfied = r.usize()?;
        let soft_weight = r.u64()?;
        let violated_weight = r.u64()?;
        r.finish()?;
        Ok(Incumbent { assignment, soft_satisfied, soft_weight, violated_weight })
    };
    inner(&mut r).ok()
}

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

/// Encode the Grover backend's BBHT schedule position.
pub fn encode_grover_progress(p: &GroverProgress) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, p.next_guess);
    put_u64(&mut out, p.measurements);
    put_u64(&mut out, p.total_iterations);
    put_f64(&mut out, p.m);
    put_f64(&mut out, p.success_probability);
    out
}

/// Decode the Grover backend's BBHT schedule position; `None` on any
/// malformed payload.
pub fn decode_grover_progress(buf: &[u8]) -> Option<GroverProgress> {
    let mut r = Reader::new(buf);
    let inner = |r: &mut Reader<'_>| -> Result<GroverProgress, StoreError> {
        let p = GroverProgress {
            next_guess: r.u64()?,
            measurements: r.u64()?,
            total_iterations: r.u64()?,
            m: r.f64()?,
            success_probability: r.f64()?,
        };
        r.finish()?;
        Ok(p)
    };
    inner(&mut r).ok()
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
            put_duration(&mut out, Duration::from_millis(3));
            put_str(&mut out, "annealer");
            put_u32(&mut out, 0);
            out.extend_from_slice(kind);
            out
        };
        let mut stage_failed = vec![1u8];
        put_str(&mut stage_failed, "sample");
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
            let mut bytes = Vec::new();
            put_journal_event(&mut bytes, &e);
            let mut r = Reader::new(&bytes);
            let back = read_journal_event(&mut r).unwrap();
            r.finish().unwrap();
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
        put_u64(&mut hostile, u64::MAX); // tag length far beyond the buffer
        hostile.extend_from_slice(b"xx");
        assert!(decode_record(&hostile).is_err());
        let mut bad_utf8 = vec![4u8];
        put_bytes(&mut bad_utf8, &[0xff, 0xfe]);
        put_bytes(&mut bad_utf8, b"");
        assert!(decode_record(&bad_utf8).is_err());
        // Snapshots too.
        let snap = RecoveredRun { completed_rungs: 3, ..Default::default() }.encode();
        for cut in 0..snap.len() {
            assert!(RecoveredRun::decode(&snap[..cut]).is_err(), "cut at {cut} accepted");
        }
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
        let (done, back) = decode_anneal_progress(&encode_anneal_progress(17, &samples)).unwrap();
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
        assert_eq!(decode_nm_state(&encode_nm_state(&nm)).unwrap(), nm);

        let inc = Incumbent {
            assignment: vec![true, true, false],
            soft_satisfied: 2,
            soft_weight: 5,
            violated_weight: 1,
        };
        assert_eq!(decode_incumbent(&encode_incumbent(&inc)).unwrap(), inc);

        let g = GroverProgress {
            next_guess: 9,
            measurements: 9,
            total_iterations: 140,
            m: 10.6044,
            success_probability: 0.82,
        };
        assert_eq!(decode_grover_progress(&encode_grover_progress(&g)).unwrap(), g);

        // Malformed payloads decode to None, never panic.
        for buf in [&b""[..], &[0xff; 7][..], &[0xff; 64][..]] {
            assert!(decode_anneal_progress(buf).is_none());
            assert!(decode_nm_state(buf).is_none());
            assert!(decode_incumbent(buf).is_none());
            assert!(decode_grover_progress(buf).is_none());
        }
    }
}
