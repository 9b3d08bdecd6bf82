//! # nck-cancel
//!
//! A cooperative cancellation token shared by every solver hot loop.
//!
//! Real substrates fail by *time*: a D-Wave job queue backs up, a QAOA
//! classical optimizer stalls, a branch-and-bound search explodes. The
//! execution supervisor (`nck-exec`) turns a wall-clock deadline into a
//! [`CancelToken`] that the annealer sweep loop, the QAOA optimizer
//! iterations, the Grover guess loop, and the classical search all
//! poll — so a run under budget pressure winds down cooperatively with
//! whatever partial results it has, instead of being abandoned
//! mid-flight or running forever. Tokens nest: a
//! [`child`](CancelToken::child) token (one ladder rung's share of a
//! supervised run's deadline, say) fires with its parent or on its own
//! deadline, and never cancels the parent.
//!
//! The token is deliberately dependency-free and lives below every
//! substrate crate (`nck-anneal`, `nck-circuit`, `nck-classical`), so
//! each can poll it without depending on the execution layer.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Default)]
struct Inner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
    parent: Option<CancelToken>,
}

/// A cheap, cloneable cancellation token: an explicit cancel flag plus
/// an optional wall-clock deadline, and optionally a parent token whose
/// cancellation it inherits ([`child`](CancelToken::child)). Clones
/// share state.
///
/// Polling ([`is_cancelled`](CancelToken::is_cancelled)) costs one
/// atomic load plus, when a deadline is set, one monotonic clock read,
/// per token up the parent chain — cheap enough for per-sweep /
/// per-node loops.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A token that never fires on its own (no deadline). Equivalent to
    /// `CancelToken::default()`.
    pub fn never() -> Self {
        CancelToken::default()
    }

    /// A token that fires once `deadline` has elapsed from now.
    pub fn with_deadline(deadline: Duration) -> Self {
        let deadline = Some(Instant::now() + deadline);
        CancelToken { inner: Arc::new(Inner { deadline, ..Inner::default() }) }
    }

    /// A token cancelled whenever `self` is, and also by its own
    /// `deadline` (from now) when one is given. Cancelling the child,
    /// or its deadline passing, never cancels `self`.
    pub fn child(&self, deadline: Option<Duration>) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                deadline: deadline.map(|d| Instant::now() + d),
                parent: Some(self.clone()),
                ..Inner::default()
            }),
        }
    }

    /// Cancel explicitly. Every clone and every child observes the
    /// cancellation.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// Has the token been cancelled (explicitly, by its deadline, or
    /// through its parent)?
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Relaxed)
            || self.inner.deadline.is_some_and(|d| Instant::now() >= d)
            || self.inner.parent.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// Wall-clock time left before the earliest deadline on this token
    /// or its parents. `None` when no deadline is set; `Some(ZERO)` once
    /// it has passed.
    pub fn remaining(&self) -> Option<Duration> {
        let own = self.inner.deadline.map(|d| d.saturating_duration_since(Instant::now()));
        match (own, self.inner.parent.as_ref().and_then(CancelToken::remaining)) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Sleep for `duration`, waking early if cancelled. Sleeps in short
    /// slices so a deadline or explicit cancel is honored within a few
    /// milliseconds. Returns `true` if the full duration elapsed,
    /// `false` if cancellation cut it short.
    pub fn sleep(&self, duration: Duration) -> bool {
        const SLICE: Duration = Duration::from_millis(2);
        let until = Instant::now() + duration;
        loop {
            if self.is_cancelled() {
                return false;
            }
            let now = Instant::now();
            if now >= until {
                return true;
            }
            std::thread::sleep((until - now).min(SLICE));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_is_never_cancelled() {
        let t = CancelToken::never();
        assert!(!t.is_cancelled());
        assert_eq!(t.remaining(), None);
    }

    #[test]
    fn explicit_cancel_is_shared_across_clones() {
        let t = CancelToken::never();
        let c = t.clone();
        c.cancel();
        assert!(t.is_cancelled());
    }

    #[test]
    fn deadline_fires() {
        let t = CancelToken::with_deadline(Duration::ZERO);
        assert!(t.is_cancelled());
        assert_eq!(t.remaining(), Some(Duration::ZERO));
        let far = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(!far.is_cancelled());
        assert!(far.remaining().unwrap() > Duration::from_secs(3500));
    }

    #[test]
    fn child_inherits_its_parents_cancellation() {
        let root = CancelToken::never();
        let child = root.child(None);
        let grandchild = child.child(Some(Duration::from_secs(3600)));
        assert!(!grandchild.is_cancelled());
        assert_eq!(child.remaining(), None);
        root.cancel();
        assert!(child.is_cancelled());
        assert!(grandchild.is_cancelled(), "cancellation reaches every descendant");
        assert!(!grandchild.sleep(Duration::from_secs(10)));
    }

    #[test]
    fn child_cancellation_never_reaches_its_parent() {
        let root = CancelToken::never();
        let expired = root.child(Some(Duration::ZERO));
        assert!(expired.is_cancelled());
        assert!(!root.is_cancelled(), "a child's deadline must not cancel the parent");
        let sibling = root.child(None);
        sibling.cancel();
        assert!(sibling.is_cancelled());
        assert!(!root.is_cancelled(), "an explicit child cancel must not cancel the parent");
        assert!(!root.child(None).is_cancelled(), "nor a fresh sibling");
    }

    #[test]
    fn child_remaining_is_the_earliest_deadline() {
        let root = CancelToken::with_deadline(Duration::from_secs(60));
        let tighter = root.child(Some(Duration::from_secs(5)));
        assert!(tighter.remaining().unwrap() <= Duration::from_secs(5));
        let looser = root.child(Some(Duration::from_secs(3600)));
        let left = looser.remaining().unwrap();
        assert!(left <= Duration::from_secs(60) && left > Duration::from_secs(50));
        let unbounded = root.child(None);
        assert!(unbounded.remaining().unwrap() > Duration::from_secs(50));
        // A parent whose deadline passed cancels a child with none.
        let expired = CancelToken::with_deadline(Duration::ZERO);
        assert!(expired.child(None).is_cancelled());
        assert_eq!(expired.child(Some(Duration::from_secs(9))).remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn sleep_completes_when_uncancelled() {
        let t = CancelToken::never();
        assert!(t.sleep(Duration::from_millis(5)));
    }

    #[test]
    fn sleep_cut_short_by_cancellation() {
        let t = CancelToken::with_deadline(Duration::from_millis(10));
        let start = Instant::now();
        assert!(!t.sleep(Duration::from_secs(10)));
        assert!(start.elapsed() < Duration::from_secs(2), "sleep must wake near the deadline");
    }
}
