//! [`RunBudget`] and [`RetryPolicy`]: the cost envelope of a
//! supervised execution.
//!
//! A budget bounds a run in three dimensions — wall-clock deadline,
//! total attempts across every ladder rung, and total candidate
//! samples — and the retry policy spaces attempts with deterministic,
//! seedable exponential backoff plus jitter. Determinism matters here
//! the same way it does everywhere else in this reproduction: two runs
//! with the same seed must schedule the same backoffs, so chaos-suite
//! failures replay exactly.

use nck_anneal::seed::{attempt_seed, splitmix64};
use nck_cancel::CancelToken;
use std::time::Duration;

/// The cost envelope of one supervised run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunBudget {
    /// Wall-clock deadline for the whole run (all rungs, retries, and
    /// backoffs included). `None` = unbounded.
    pub deadline: Option<Duration>,
    /// Total attempts across every rung of the ladder.
    pub max_attempts: u32,
    /// Total candidate samples across every attempt. `None` =
    /// unbounded. Attempts already in flight complete; the budget
    /// gates *further* attempts. The count is the decoded candidates
    /// of *failed* attempts only, since a successful attempt ends the
    /// run: it grows when classification rejects what a backend
    /// returned (an unsatisfiable program). `Some(0)` refuses even the
    /// first attempt.
    pub max_samples: Option<u64>,
}

impl Default for RunBudget {
    fn default() -> Self {
        RunBudget { deadline: None, max_attempts: 12, max_samples: None }
    }
}

impl RunBudget {
    /// A budget bounded only by `deadline`.
    pub fn with_deadline(deadline: Duration) -> Self {
        RunBudget { deadline: Some(deadline), ..RunBudget::default() }
    }

    /// A cancellation token armed with this budget's deadline (a
    /// never-firing token when unbounded).
    pub fn token(&self) -> CancelToken {
        self.deadline.map_or_else(CancelToken::never, CancelToken::with_deadline)
    }
}

/// Deterministic exponential backoff with jitter.
///
/// The delay before retry `k` (0-based) is
/// `min(cap, base · 2^k) · (1 − jitter · u_k)` where `u_k ∈ [0, 1)` is
/// the SplitMix64 finalizer of retry `k`'s derived seed — fully
/// determined by `(seed, k)`, monotonically bounded by `cap`, and never
/// negative.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Retries per rung after the first attempt (so a rung makes at
    /// most `1 + retries_per_rung` attempts).
    pub retries_per_rung: u32,
    /// Base backoff before the first retry.
    pub base: Duration,
    /// Upper bound on any single backoff delay.
    pub cap: Duration,
    /// Jitter fraction in `[0, 1]`: each delay is scaled by a
    /// deterministic factor in `[1 − jitter, 1]`.
    pub jitter: f64,
    /// Seed for the jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            retries_per_rung: 2,
            base: Duration::from_millis(5),
            cap: Duration::from_millis(200),
            jitter: 0.5,
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The backoff delay before retry `attempt` (0-based): capped
    /// exponential with deterministic jitter.
    pub fn delay(&self, attempt: u32) -> Duration {
        let exp = self.base.as_secs_f64() * 2f64.powi(attempt.min(63) as i32);
        let capped = exp.min(self.cap.as_secs_f64());
        let u = splitmix64(attempt_seed(self.seed, attempt)) as f64 / u64::MAX as f64;
        let jitter = self.jitter.clamp(0.0, 1.0);
        Duration::from_secs_f64(capped * (1.0 - jitter * u))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_is_unbounded_in_time() {
        let b = RunBudget::default();
        assert!(b.deadline.is_none());
        assert!(!b.token().is_cancelled());
    }

    #[test]
    fn deadline_budget_arms_the_token() {
        let b = RunBudget::with_deadline(Duration::ZERO);
        assert!(b.token().is_cancelled());
    }

    #[test]
    fn delay_is_deterministic_and_capped() {
        let p = RetryPolicy { seed: 42, ..RetryPolicy::default() };
        for k in 0..10 {
            assert_eq!(p.delay(k), p.delay(k));
            assert!(p.delay(k) <= p.cap);
        }
        let q = RetryPolicy { seed: 43, ..p };
        assert_ne!(p.delay(0), q.delay(0), "different seeds must jitter differently");
    }

    /// Regression for the linear `seed ^ k·stride` mix in the backoff
    /// jitter: retry `k` of seed `s` drew the same jitter as retry 0 of
    /// seed `s ^ k·stride`.
    #[test]
    fn delays_never_alias_delay_zero_of_a_related_seed() {
        use nck_anneal::seed::ATTEMPT_STRIDE;
        // base == cap: every delay is `cap · (1 − u_k)`, so equal
        // delays mean equal jitter draws.
        let policy = |seed| RetryPolicy {
            base: Duration::from_secs(1),
            cap: Duration::from_secs(1),
            jitter: 1.0,
            seed,
            ..RetryPolicy::default()
        };
        for s in (0..64u64).chain([u64::MAX, ATTEMPT_STRIDE, 1 << 63]) {
            for k in 1..16u32 {
                let related = s ^ u64::from(k).wrapping_mul(ATTEMPT_STRIDE);
                assert_ne!(
                    policy(s).delay(k),
                    policy(related).delay(0),
                    "backoff jitter of seed {s} retry {k}"
                );
            }
        }
    }
}
