//! Seed derivation: one well-mixed function for every stream a seed
//! fans out into — the sampler's per-read RNGs, the embedder's restart
//! seeds, gauge masks, and the execution layer's attempt seeds and
//! backoff jitter.

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
