//! Seed derivation: one well-mixed function for every stream a seed
//! fans out into — the sampler's per-read RNGs, the embedder's restart
//! seeds, gauge masks, and the execution layer's attempt seeds and
//! backoff jitter.

/// The stride of the execution layer's attempt seeds: rip-up attempts of
/// the annealer backend, supervisor retries and their backoff jitter.
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
}
