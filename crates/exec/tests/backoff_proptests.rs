//! Property sweeps for the supervisor's retry backoff: deterministic
//! per seed, bounded by the cap, and monotone without jitter.

use nck_exec::RetryPolicy;
use std::time::Duration;

/// Each property checked over a fixed, deterministic sweep of
/// policies and seeds.
mod deterministic_sweeps {
    use super::*;

    fn policies() -> impl Iterator<Item = RetryPolicy> {
        (0..64u64).map(|i| RetryPolicy {
            retries_per_rung: (i % 9) as u32,
            base: Duration::from_millis(1 + i % 47),
            cap: Duration::from_millis(1 + (i * 13) % 400),
            jitter: (i % 11) as f64 / 10.0,
            seed: i.wrapping_mul(0x9e3779b97f4a7c15),
        })
    }

    #[test]
    fn delays_are_deterministic_and_capped_across_a_policy_sweep() {
        for p in policies() {
            for k in 0..32 {
                assert_eq!(p.delay(k), p.delay(k), "seed {} attempt {k}", p.seed);
                assert!(p.delay(k) <= p.cap, "seed {} attempt {k} exceeds cap", p.seed);
            }
        }
    }

    #[test]
    fn jitterless_delays_are_monotone_across_a_policy_sweep() {
        for p in policies() {
            let p = RetryPolicy { jitter: 0.0, ..p };
            for k in 0..31 {
                assert!(p.delay(k) <= p.delay(k + 1), "seed {} attempt {k}", p.seed);
            }
        }
    }

    #[test]
    fn distinct_seeds_decorrelate_across_a_seed_sweep() {
        let mk = |seed| RetryPolicy { jitter: 1.0, seed, ..RetryPolicy::default() };
        for s in 0..64u64 {
            let (a, b) = (mk(s), mk(s + 1));
            assert!((0..8).any(|k| a.delay(k) != b.delay(k)), "seeds {s} and {} collide", s + 1);
        }
    }
}
