//! Hostile list counts in campaign and wire bytes.
//!
//! A `.tcs` snapshot, an epoch delta or a fabric frame whose list count
//! claims far more items than the bytes hold must fail before it
//! reserves memory for them: `teapot_rt::codec::Reader::list` reserves
//! no more items than the remaining bytes can encode. A counting global
//! allocator records the largest single request made while each input
//! is parsed. (`crates/{obj,rt}/tests/hostile_counts.rs` do the same for
//! the `TOF1` container and the `.teapot.meta` note.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use teapot_campaign::snapshot::{decode_delta, encode_delta};
use teapot_campaign::{CampaignConfig, CampaignSnapshot};
use teapot_fabric::wire::{decode_payload, encode_frame};
use teapot_fabric::{Frame, Lease};
use teapot_rt::ShardDelta;
use teapot_vm::DecodeStats;

struct Counting;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// `bytes` with the little-endian `u32` at `at` replaced by `u32::MAX`.
fn claim_max(mut bytes: Vec<u8>, at: usize) -> Vec<u8> {
    bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    bytes
}

/// The payload of an encoded frame: no length prefix, no CRC trailer.
fn payload(frame: &Frame) -> Vec<u8> {
    let bytes = encode_frame(frame);
    bytes[4..bytes.len() - 4].to_vec()
}

/// A `.tcs` with no shards and no budget stats whose shard count says
/// `u32::MAX`, re-sealed with a valid CRC so the body parser reads it.
fn tcs_claiming_max_shards() -> Vec<u8> {
    let snap = CampaignSnapshot {
        config: CampaignConfig::default(),
        bin_fingerprint: 0,
        epochs_done: 0,
        decode_stats: DecodeStats::default(),
        shard_states: Vec::new(),
        prev_features: Vec::new(),
    };
    let bytes = snap.to_bytes();
    // ... shard count u32 · budget count u32 · CRC u32.
    let mut body = claim_max(bytes[..bytes.len() - 4].to_vec(), bytes.len() - 12);
    body.extend_from_slice(&teapot_rt::crc32(&body).to_le_bytes());
    body
}

#[test]
fn hostile_counts_fail_without_reserving_memory() {
    let lease = payload(&Frame::Lease(Lease {
        fingerprint: 0,
        start_epoch: 0,
        phase: 0,
        seed_first: false,
        config: CampaignConfig {
            dictionary: Vec::new(),
            ..CampaignConfig::default()
        },
        binary: Vec::new(),
        seeds: Vec::new(),
        shards: Vec::new(),
    }));
    assert_eq!(lease.len(), 93);
    let barrier = payload(&Frame::Barrier {
        epoch: 0,
        minimize: false,
        fresh: Vec::new(),
    });
    assert_eq!(barrier.len(), 11);
    let delta = encode_delta(&ShardDelta {
        shard: 0,
        epoch: 0,
        phase: 0,
        corpus_append: Vec::new(),
        fresh_count: 0,
        corpus_replaced: None,
        heur_counts: Vec::new(),
        cov_normal: Default::default(),
        cov_spec: Default::default(),
        gadgets_append: Vec::new(),
        witnesses_append: Vec::new(),
        iters: 0,
        total_cost: 0,
        crashes: 0,
        state_epoch: 0,
    });
    assert_eq!(delta.len(), 66);

    type Parse = fn(&[u8]) -> bool;
    let frame: Parse = |b| decode_payload(b).is_err();
    let delta_err: Parse = |b| decode_delta(b).is_err();
    let tcs_err: Parse = |b| CampaignSnapshot::from_bytes(b).is_err();
    let cases: [(&str, Vec<u8>, Parse); 5] = [
        (
            "lease claiming u32::MAX shards",
            claim_max(lease, 89),
            frame,
        ),
        (
            "delta claiming u32::MAX gadgets",
            claim_max(delta[..62].to_vec(), 58),
            delta_err,
        ),
        (
            "delta claiming u32::MAX witnesses",
            claim_max(delta, 62),
            delta_err,
        ),
        (
            "barrier claiming u32::MAX shards",
            claim_max(barrier, 7),
            frame,
        ),
        (
            ".tcs claiming u32::MAX shards",
            tcs_claiming_max_shards(),
            tcs_err,
        ),
    ];
    let mut bad = Vec::new();
    for (name, bytes, fails) in cases {
        LARGEST.store(0, Ordering::Relaxed);
        let failed = fails(&bytes);
        let largest = LARGEST.load(Ordering::Relaxed);
        if !failed || largest > 64 << 10 {
            bad.push(format!("{name}: err {failed}, reserved {largest} B"));
        }
    }
    assert!(bad.is_empty(), "{bad:#?}");
}
