//! Byte pins for the campaign snapshot, delta and wire codecs.
//!
//! One fixed campaign (brotli, `pht,rsb,stl`, 2 shards × 2 epochs) gives
//! the bytes: its `.tcs` snapshot, the `encode_delta` output of every
//! shard at both barrier phases of both epochs (the fleet's epoch
//! traffic), and one `encode_frame` output per `Frame` kind built from
//! the campaign's own config, binary and states. This test pins one
//! FNV-1a digest of each, so a codec change that moves a byte on disk
//! or on the wire shows here first. (`.tof` and `.teapot.meta` bytes
//! are pinned by `tests/rewrite_goldens.rs`.)
//!
//! Regenerate only for an intended format change:
//! `TEAPOT_REGEN_GOLDENS=1 cargo test -q --test codec_goldens`.

use teapot_campaign::epoch::{barrier_shard, fuzz_shard};
use teapot_campaign::snapshot::{decode_delta, encode_delta};
use teapot_campaign::{Campaign, CampaignConfig, CampaignSnapshot};
use teapot_cc::Options;
use teapot_core::{rewrite, RewriteOptions};
use teapot_fabric::wire::encode_frame;
use teapot_fabric::{Frame, Lease, LeasedShard};
use teapot_fuzz::{CampaignState, StateSnapshot};
use teapot_rt::SpecModelSet;
use teapot_vm::Program;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One line per pinned byte string: `name length digest`.
fn digests() -> String {
    let w = teapot_workloads::brotli_like();
    let mut cots = w.build(&Options::gcc_like()).expect("compile");
    cots.strip();
    let bin = rewrite(&cots, &RewriteOptions::default()).expect("rewrite");
    let prog = Program::shared(&bin);
    let cfg = CampaignConfig {
        shards: 2,
        workers: 1,
        epochs: 2,
        iters_per_epoch: 25,
        max_input_len: 32,
        models: SpecModelSet::parse("pht,rsb,stl").unwrap(),
        dictionary: w.dictionary.clone(),
        ..CampaignConfig::default()
    };

    let mut campaign = Campaign::new(cfg.clone()).expect("campaign");
    campaign.run_shared(&prog, &w.seeds);
    let snap = campaign.snapshot(&bin);
    let tcs = snap.to_bytes();
    assert_eq!(
        CampaignSnapshot::from_bytes(&tcs)
            .expect("reload")
            .shard_states,
        snap.shard_states
    );

    // The same campaign as the fleet runs it: one delta per shard per
    // barrier phase, merged onto empty boundaries in shard order.
    let mut shards: Vec<CampaignState> = (0..cfg.shards)
        .map(|i| CampaignState::new(cfg.shard_fuzz_config(i)).expect("shard"))
        .collect();
    let mut boundary = vec![StateSnapshot::empty(); shards.len()];
    let mut deltas = Vec::new();
    let mut fresh = Vec::new();
    for epoch in 0..cfg.epochs {
        for phase in 0..2u8 {
            if phase == 1 {
                fresh = shards.iter().map(|s| s.fresh_inputs()).collect();
            }
            for (i, st) in shards.iter_mut().enumerate() {
                if phase == 0 {
                    let budget = cfg.iters_per_epoch;
                    fuzz_shard(st, &prog, &w.seeds, epoch, epoch == 0, budget);
                } else {
                    barrier_shard(st, &prog, i, &fresh, cfg.corpus_minimize);
                }
                let bytes = encode_delta(&st.take_delta(i as u32, epoch, phase));
                boundary[i].apply_delta(&decode_delta(&bytes).expect("delta"));
                deltas.push((format!("delta e{epoch} p{phase} s{i}"), bytes));
            }
        }
    }
    assert_eq!(boundary, snap.shard_states, "deltas rebuild the snapshot");

    let frames = [
        Frame::Hello {
            name: "worker-0".into(),
        },
        Frame::Lease(Lease {
            fingerprint: snap.bin_fingerprint,
            start_epoch: 1,
            phase: 0,
            seed_first: false,
            config: cfg.clone(),
            binary: bin.to_bytes(),
            seeds: w.seeds.clone(),
            shards: snap
                .shard_states
                .iter()
                .enumerate()
                .map(|(i, state)| LeasedShard {
                    shard: i as u32,
                    budget: cfg.iters_per_epoch,
                    state: state.clone(),
                })
                .collect(),
        }),
        Frame::Decode(*prog.stats()),
        Frame::Delta(decode_delta(&deltas[0].1).expect("delta")),
        Frame::Barrier {
            epoch: 1,
            minimize: true,
            fresh,
        },
        Frame::Proceed {
            epoch: 1,
            budgets: vec![cfg.iters_per_epoch; 2],
        },
        Frame::Complete,
        Frame::Shutdown,
    ];
    let kinds = [
        "hello", "lease", "decode", "delta", "barrier", "proceed", "complete", "shutdown",
    ];

    let mut out = String::new();
    let mut line = |name: &str, bytes: &[u8]| {
        out += &format!("{name} {} {:016x}\n", bytes.len(), fnv1a(bytes));
    };
    line("tcs", &tcs);
    for (name, bytes) in &deltas {
        line(name, bytes);
    }
    for (kind, frame) in kinds.iter().zip(&frames) {
        line(&format!("frame {kind}"), &encode_frame(frame));
    }
    out
}

#[test]
fn codec_outputs_match_committed_digests() {
    let path = format!(
        "{}/tests/fixtures/codec_goldens.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    let got = digests();
    if std::env::var_os("TEAPOT_REGEN_GOLDENS").is_some() {
        std::fs::write(&path, &got).expect("write fixture");
        return;
    }
    let want =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing fixture {path}: {e}"));
    let diverged: Vec<&str> = got
        .lines()
        .zip(want.lines())
        .filter(|(g, w)| g != w)
        .map(|(g, _)| g)
        .collect();
    assert!(
        diverged.is_empty() && got.lines().count() == want.lines().count(),
        "codec output diverged from {path}: {diverged:?}"
    );
}
