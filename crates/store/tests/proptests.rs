//! Property sweeps for the durability layer: WAL frame encode/decode
//! round-trips, snapshot serialization, and the recovery invariants —
//! truncated tails truncate, bit flips are detected, and no input
//! whatsoever makes the decoder panic.

#![allow(clippy::unwrap_used)]

use nck_store::{
    crc32, encode_frame, load_snapshot, save_snapshot, scan_frames, RunStore, ScanStop, WAL_FILE,
};
use std::path::PathBuf;

fn sweep_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "nck-store-prop-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Each property checked over a fixed, deterministic sweep of inputs.
mod deterministic_sweeps {
    use super::*;

    fn splitmix64(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Pseudo-random byte strings, deterministic per (seed, len).
    fn record(seed: u64, len: usize) -> Vec<u8> {
        (0..len).map(|i| (splitmix64(seed ^ i as u64) & 0xff) as u8).collect()
    }

    fn corpus(seed: u64) -> Vec<Vec<u8>> {
        let n = (splitmix64(seed) % 9) as usize;
        (0..n)
            .map(|i| {
                record(
                    seed.wrapping_mul(31).wrapping_add(i as u64),
                    (splitmix64(seed ^ i as u64) % 120) as usize,
                )
            })
            .collect()
    }

    #[test]
    fn frames_round_trip_across_a_corpus_sweep() {
        for seed in 0..64u64 {
            let records = corpus(seed);
            let mut buf = Vec::new();
            for r in &records {
                buf.extend_from_slice(&encode_frame(r));
            }
            let scan = scan_frames(&buf);
            assert_eq!(scan.stop, ScanStop::Clean, "seed {seed}");
            assert_eq!(scan.payloads, records, "seed {seed}");
        }
    }

    #[test]
    fn every_truncation_point_recovers_the_valid_prefix() {
        let records = corpus(7);
        let mut buf = Vec::new();
        let mut boundaries = vec![0usize];
        for r in &records {
            buf.extend_from_slice(&encode_frame(r));
            boundaries.push(buf.len());
        }
        for cut in 0..=buf.len() {
            let scan = scan_frames(&buf[..cut]);
            let whole = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(scan.payloads.len(), whole, "cut at {cut}");
            assert_eq!(scan.valid_len, boundaries[whole], "cut at {cut}");
            assert_eq!(
                scan.stop == ScanStop::Clean,
                cut == boundaries[whole],
                "cut at {cut} misreported stop {:?}",
                scan.stop
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected_or_harmless() {
        let payload = record(99, 64);
        let clean = encode_frame(&payload);
        for pos in 0..clean.len() {
            for bit in 0..8 {
                let mut buf = clean.clone();
                buf[pos] ^= 1 << bit;
                let scan = scan_frames(&buf);
                if scan.stop == ScanStop::Clean && scan.payloads.len() == 1 {
                    assert_eq!(
                        scan.payloads[0], payload,
                        "flip at byte {pos} bit {bit} silently altered the payload"
                    );
                }
            }
        }
    }

    #[test]
    fn garbage_scans_never_panic_and_prefixes_rescan_clean() {
        for seed in 0..64u64 {
            let bytes =
                record(seed.wrapping_mul(0xd1b5_4a32_d192_ed03), (splitmix64(seed) % 500) as usize);
            let scan = scan_frames(&bytes);
            let again = scan_frames(&bytes[..scan.valid_len]);
            assert_eq!(again.stop, ScanStop::Clean, "seed {seed}");
            assert_eq!(again.payloads, scan.payloads, "seed {seed}");
        }
    }

    #[test]
    fn snapshots_round_trip_across_a_state_sweep() {
        for seed in 0..16u64 {
            let dir = sweep_dir(&format!("det-snap-{seed}"));
            std::fs::create_dir_all(&dir).unwrap();
            let covered = splitmix64(seed);
            let state = record(seed, (splitmix64(seed ^ 1) % 300) as usize);
            save_snapshot(&dir, covered, &state).unwrap();
            assert_eq!(load_snapshot(&dir).unwrap(), Some((covered, state)), "seed {seed}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn wal_corruption_at_every_tail_offset_recovers_without_panic() {
        // Build a real store, then corrupt the WAL tail at every byte
        // offset past the magic and assert reopen either recovers or
        // rejects with a typed error — never panics, never loses a
        // record before the corruption point's last valid frame.
        let dir = sweep_dir("det-corrupt");
        let (mut store, _) = RunStore::open(&dir).unwrap();
        for i in 0..5u8 {
            store.append(&record(u64::from(i), 40)).unwrap();
        }
        drop(store);
        let wal_path = dir.join(WAL_FILE);
        let pristine = std::fs::read(&wal_path).unwrap();
        for cut in 8..=pristine.len() {
            std::fs::write(&wal_path, &pristine[..cut]).unwrap();
            let (store, rec) = RunStore::open(&dir).unwrap();
            drop(store);
            assert!(rec.records.len() <= 5, "cut {cut}");
            // Reopening after recovery must be clean.
            let (_, again) = RunStore::open(&dir).unwrap();
            assert_eq!(again.records, rec.records, "cut {cut} not idempotent");
            assert!(!again.recovered_tail, "cut {cut} left a torn tail behind");
            std::fs::write(&wal_path, &pristine).unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crc_reference_vectors_hold() {
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414f_a339);
    }
}
