//! Checkpoint crash-recovery tests: torn, bit-flipped and empty `.tcs`
//! files must fail to load with a typed error naming a byte offset —
//! never panic, never yield a half-parsed campaign — and the
//! `load_with_fallback` path must recover the previous epoch's rotation
//! where one exists.

use teapot_campaign::{Campaign, CampaignConfig, CampaignSnapshot, SnapshotError};
use teapot_cc::{compile_to_binary, Options};
use teapot_core::{rewrite, RewriteOptions};
use teapot_obj::Binary;
use teapot_vm::Program;

const TARGET: &str = "
    char bar[256];
    char inbuf[8];
    int main() {
        read_input(inbuf, 8);
        if (inbuf[0] == 0x7f) {
            int x = bar[inbuf[1]];
        }
        return 0;
    }";

fn instrumented() -> Binary {
    let mut bin = compile_to_binary(TARGET, &Options::gcc_like()).unwrap();
    bin.strip();
    rewrite(&bin, &RewriteOptions::default()).unwrap()
}

/// A real (small) campaign snapshot, so the corpus/gadget sections are
/// populated and corruption can land anywhere.
fn sample() -> CampaignSnapshot {
    let bin = instrumented();
    let prog = Program::shared(&bin);
    let cfg = CampaignConfig {
        seed: 0x5AFE,
        shards: 2,
        workers: 1,
        epochs: 2,
        iters_per_epoch: 30,
        max_input_len: 8,
        ..CampaignConfig::default()
    };
    let mut c = Campaign::new(cfg).unwrap();
    c.run_shared(&prog, &[]);
    c.snapshot(&bin)
}

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tcs-recovery-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn truncated_checkpoints_fail_with_a_named_offset() {
    let bytes = sample().to_bytes();
    // Every proper prefix must be rejected with a typed error — the CRC
    // trailer catches most cuts; very short prefixes die in the header.
    for cut in [0, 1, 5, 9, bytes.len() / 3, bytes.len() - 1] {
        let err = CampaignSnapshot::from_bytes(&bytes[..cut]).unwrap_err();
        match err {
            SnapshotError::Truncated { offset, .. } => assert!(offset <= cut, "cut {cut}"),
            SnapshotError::Checksum { covered, .. } => assert_eq!(covered, cut - 4, "cut {cut}"),
            other => panic!("cut {cut}: expected Truncated/Checksum, got {other:?}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("byte offset"), "cut {cut}: {msg}");
    }
}

#[test]
fn bit_flips_anywhere_are_caught_by_the_crc() {
    let bytes = sample().to_bytes();
    // Flip one bit at a spread of offsets past the version field (a
    // flipped magic/version reports BadMagic/BadVersion instead, which
    // is fine — the point is no flip ever loads).
    let step = (bytes.len() / 23).max(1);
    for at in (8..bytes.len()).step_by(step) {
        let mut evil = bytes.clone();
        evil[at] ^= 0x10;
        match CampaignSnapshot::from_bytes(&evil).unwrap_err() {
            SnapshotError::Checksum {
                covered,
                stored,
                actual,
            } => {
                assert_eq!(covered, bytes.len() - 4, "flip at {at}");
                assert_ne!(stored, actual, "flip at {at}");
            }
            other => panic!("flip at {at}: expected Checksum, got {other:?}"),
        }
    }
}

#[test]
fn zero_length_and_garbage_files_are_typed_errors() {
    match CampaignSnapshot::from_bytes(&[]).unwrap_err() {
        SnapshotError::Truncated { section, offset } => {
            assert_eq!(section, "header");
            assert_eq!(offset, 0);
        }
        other => panic!("expected Truncated, got {other:?}"),
    }
    assert!(matches!(
        CampaignSnapshot::from_bytes(b"not a teapot checkpoint").unwrap_err(),
        SnapshotError::BadMagic
    ));
    // And through the file path, the error names the file.
    let dir = tempdir("garbage");
    let path = dir.join("empty.tcs");
    std::fs::write(&path, []).unwrap();
    let msg = CampaignSnapshot::load(&path).unwrap_err().to_string();
    assert!(msg.contains("empty.tcs"), "{msg}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn atomic_save_rotates_and_fallback_recovers_the_previous_epoch() {
    let dir = tempdir("rotate");
    let path = dir.join("camp.tcs");
    let mut snap = sample();

    // First save: no rotation partner yet.
    snap.save(&path).unwrap();
    let (loaded, fell_back) = CampaignSnapshot::load_with_fallback(&path).unwrap();
    assert_eq!(loaded.epochs_done, snap.epochs_done);
    assert!(fell_back.is_none());

    // Second save rotates the first generation to `.prev`.
    let first_epochs = snap.epochs_done;
    snap.epochs_done += 1;
    snap.save(&path).unwrap();
    let prev = {
        let mut p = path.clone().into_os_string();
        p.push(".prev");
        std::path::PathBuf::from(p)
    };
    assert_eq!(
        CampaignSnapshot::load(&prev).unwrap().epochs_done,
        first_epochs
    );

    // "Crash mid-write": the primary is torn. Fallback loads `.prev`
    // and reports the primary's failure for the log line.
    let good = std::fs::read(&path).unwrap();
    std::fs::write(&path, &good[..good.len() / 2]).unwrap();
    let (recovered, fell_back) = CampaignSnapshot::load_with_fallback(&path).unwrap();
    assert_eq!(recovered.epochs_done, first_epochs);
    let why = fell_back.expect("fallback must report the primary's error");
    assert!(why.contains("camp.tcs"), "{why}");

    // Both generations gone: the error is the primary's.
    std::fs::remove_file(&prev).unwrap();
    let err = CampaignSnapshot::load_with_fallback(&path).unwrap_err();
    assert!(err.to_string().contains("camp.tcs"), "{err}");

    // Cleanup sweeps all three names.
    CampaignSnapshot::remove(&path);
    assert!(!path.exists() && !prev.exists());
    std::fs::remove_dir_all(&dir).ok();
}
