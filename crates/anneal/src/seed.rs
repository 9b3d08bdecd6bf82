//! Seed derivation: one well-mixed function for every stream a seed
//! fans out into — the sampler's per-read RNGs, the embedder's restart
//! seeds, gauge masks, and the execution layer's attempt seeds and
//! backoff jitter.

/// The stride of [`attempt_seed`]: the rip-up attempts of
/// [`AnnealerDevice::embed`](crate::AnnealerDevice::embed), supervisor
/// retries and their backoff jitter.
pub const ATTEMPT_STRIDE: u64 = 0xe703_7ed1_a0b4_28db;
/// The stride of the embedder's restart seeds.
pub const TRY_STRIDE: u64 = 0xa076_1d64_78bd_642f;
/// The stride of a job's gauge (spin-reversal) masks.
pub const GAUGE_STRIDE: u64 = 0xd1b5_4a32_d192_ed03;
/// The stride of the sampler's per-read RNG streams.
pub const READ_STRIDE: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64 finalizer: the statistically mixed output function of
/// the SplitMix64 generator (Steele, Lea & Flood, OOPSLA 2014).
pub fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// The seed of stream `index` of `seed`, for a caller-chosen odd
/// `stride`: `splitmix64(splitmix64(seed) ^ index · stride)`.
///
/// The seed is finalized before the index is mixed in. Combining the
/// raw inputs linearly (`seed ^ index · stride`) makes stream
/// `(s, i)` collide with `(s ^ k · stride, i ± k)` for every `k`, so
/// linearly related seeds in a sweep would share streams. Two callers
/// that pass the same stride draw the same stream at the same index;
/// each call site therefore keeps its own stride.
pub fn derive_seed(seed: u64, index: u64, stride: u64) -> u64 {
    splitmix64(splitmix64(seed) ^ index.wrapping_mul(stride))
}

/// The seed for attempt `k` derived from `seed`: attempt 0 is the
/// caller's seed unchanged (a fault-free supervised run reproduces the
/// plain run bit-for-bit); every later attempt is stream `k` of
/// [`derive_seed`] with [`ATTEMPT_STRIDE`], so attempt `k` of seed `s`
/// never aliases attempt 0 of a related seed such as `s ^ k·stride`
/// (the old linear mix did exactly that), nor, through a shared stride,
/// a read stream of the same job seed. The supervisor's attempt seeds,
/// its backoff jitter and the annealer's rip-up embedding attempts all
/// derive through here.
pub fn attempt_seed(seed: u64, k: u32) -> u64 {
    if k == 0 {
        return seed;
    }
    derive_seed(seed, u64::from(k), ATTEMPT_STRIDE)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two call sites with one stride draw the same stream at the same
    /// index, so every stride is its own odd constant.
    #[test]
    fn strides_are_odd_and_pairwise_distinct() {
        let strides = [ATTEMPT_STRIDE, TRY_STRIDE, GAUGE_STRIDE, READ_STRIDE];
        for (i, a) in strides.iter().enumerate() {
            assert_eq!(a % 2, 1, "stride {i} is even");
            for b in &strides[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    /// Regression for the linear `seed ^ k·stride` mix: attempt `k` of
    /// seed `s` equalled attempt 0 of seed `s ^ k·stride`. The execution
    /// layer's backoff jitter derives from these seeds and checks the
    /// same property of its delays in its own tests.
    #[test]
    fn attempts_never_alias_attempt_zero_of_a_related_seed() {
        for s in (0..64u64).chain([u64::MAX, ATTEMPT_STRIDE, 1 << 63]) {
            assert_eq!(attempt_seed(s, 0), s, "attempt 0 must keep the caller's seed");
            for k in 1..16u32 {
                let related = s ^ u64::from(k).wrapping_mul(ATTEMPT_STRIDE);
                assert_ne!(attempt_seed(s, k), attempt_seed(related, 0), "seed {s} attempt {k}");
            }
        }
    }

    /// Regression for the shared stride: attempt `k` of job seed `s`
    /// was read `k − 1`'s RNG seed, so the rip-up attempt's embedder
    /// drew the same stream as the job's first reads.
    #[test]
    fn attempts_never_share_a_read_stream() {
        for s in (0..64u64).chain([u64::MAX, READ_STRIDE, 1 << 63]) {
            for k in 1..16u32 {
                for read in 1..=16 {
                    let stream = derive_seed(s, read, READ_STRIDE);
                    assert_ne!(attempt_seed(s, k), stream, "seed {s} attempt {k} read {read}");
                }
            }
        }
    }
}
