//! The `.tcs` and delta decoders never panic: every mutated, truncated
//! or arbitrary input gives `Ok` or a typed `SnapshotError`.
//!
//! Mutated snapshot bodies are re-sealed with a valid CRC32 trailer, so
//! the whole-file checksum passes and the body parser behind it runs on
//! the corrupted bytes (a torn or flipped file without a fresh trailer
//! never gets past the checksum; `snapshot_recovery.rs` covers that).

use proptest::prelude::*;
use std::sync::OnceLock;
use teapot_campaign::snapshot::{decode_delta, encode_delta};
use teapot_campaign::{Campaign, CampaignConfig, CampaignSnapshot};
use teapot_cc::{compile_to_binary, Options};
use teapot_core::{rewrite, RewriteOptions};
use teapot_rt::{CovDelta, ShardDelta};
use teapot_vm::Program;

/// One gated and one always-reachable gadget, so the snapshot carries
/// gadgets and witnesses.
const TARGET: &str = "
    char bar[256];
    int baz;
    char inbuf[16];
    int main() {
        char *foo = malloc(16);
        read_input(inbuf, 16);
        int index = inbuf[1];
        if (inbuf[0] == 0x7f) {
            if (index < 10) {
                int secret = foo[index];
                baz = bar[secret];
            }
        }
        return 0;
    }";

/// A real small campaign snapshot: corpus, heuristics, coverage,
/// gadgets and witnesses are all populated.
fn sample() -> &'static CampaignSnapshot {
    static SNAP: OnceLock<CampaignSnapshot> = OnceLock::new();
    SNAP.get_or_init(|| {
        let mut bin = compile_to_binary(TARGET, &Options::gcc_like()).unwrap();
        bin.strip();
        let bin = rewrite(&bin, &RewriteOptions::default()).unwrap();
        let cfg = CampaignConfig {
            seed: 0x5AFE,
            shards: 2,
            workers: 1,
            epochs: 2,
            iters_per_epoch: 30,
            max_input_len: 16,
            ..CampaignConfig::default()
        };
        let mut c = Campaign::new(cfg).unwrap();
        // Seeded with an input that opens the gated gadget.
        c.run_shared(&Program::shared(&bin), &[vec![0x7f, 3, 0, 0]]);
        let snap = c.snapshot(&bin);
        assert!(snap.shard_states.iter().all(|s| !s.witnesses.is_empty()));
        snap
    })
}

fn snapshot_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| sample().to_bytes())
}

fn delta_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let s = &sample().shard_states[0];
        encode_delta(&ShardDelta {
            shard: 0,
            epoch: 2,
            phase: 1,
            corpus_append: s.corpus.clone(),
            fresh_count: 1,
            corpus_replaced: Some(s.corpus.clone()),
            heur_counts: s.heur_counts.clone(),
            cov_normal: CovDelta {
                updates: vec![(3, 1), (700, 255)],
            },
            cov_spec: CovDelta::default(),
            gadgets_append: s.gadgets.clone(),
            witnesses_append: s.witnesses.clone(),
            iters: s.iters,
            total_cost: s.total_cost,
            crashes: s.crashes,
            state_epoch: 2,
        })
    })
}

/// XORs `flips` into `bytes` past the first `keep` bytes, then cuts the
/// result to at most `cut` bytes past them.
fn mutate(bytes: &[u8], keep: usize, flips: &[(usize, u8)], cut: usize) -> Vec<u8> {
    let mut out = bytes.to_vec();
    let span = out.len() - keep;
    for &(at, x) in flips {
        out[keep + at % span] ^= x;
    }
    out.truncate(keep + cut % (span + 1));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn resealed_snapshot_bodies_never_panic(
        flips in proptest::collection::vec((any::<usize>(), any::<u8>()), 0..6),
        cut in any::<usize>(),
        whole in any::<bool>(),
    ) {
        let bytes = snapshot_bytes();
        let body = &bytes[..bytes.len() - 4];
        // Keep magic + version (8 bytes) so the body parser runs; half
        // the cases keep the full length and only flip bytes.
        let cut = if whole { usize::MAX - 1 } else { cut };
        let mut file = mutate(body, 8, &flips, cut);
        let crc = teapot_rt::crc32(&file);
        file.extend_from_slice(&crc.to_le_bytes());
        let _ = CampaignSnapshot::from_bytes(&file);
    }

    #[test]
    fn mutated_deltas_never_panic(
        flips in proptest::collection::vec((any::<usize>(), any::<u8>()), 0..6),
        cut in any::<usize>(),
    ) {
        let bytes = mutate(delta_bytes(), 0, &flips, cut);
        let _ = decode_delta(&bytes);
    }

    #[test]
    fn arbitrary_delta_bytes_never_panic(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let _ = decode_delta(&bytes);
    }
}

#[test]
fn unmutated_samples_decode() {
    assert!(CampaignSnapshot::from_bytes(snapshot_bytes()).is_ok());
    assert!(decode_delta(delta_bytes()).is_ok());
}
