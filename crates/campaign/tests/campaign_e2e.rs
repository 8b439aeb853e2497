//! End-to-end campaign acceptance tests:
//!
//! 1. **Worker-count determinism** — the same seed with 1, 2 and 8
//!    worker threads yields identical merged gadget sets and
//!    byte-identical JSON reports.
//! 2. **Snapshot/resume** — a campaign killed after epoch *k* and
//!    resumed from its `.tcs` snapshot matches an uninterrupted run.
//! 3. **Queue mode** — a directory of `.tof` binaries is scanned in
//!    deterministic order, instrumenting where needed.

use teapot_campaign::{
    queue, run_campaign, Campaign, CampaignConfig, CampaignError, CampaignSnapshot, SnapshotError,
};
use teapot_cc::{compile_to_binary, Options};
use teapot_core::{rewrite, RewriteOptions};
use teapot_obj::Binary;
use teapot_vm::Program;

/// A gadget behind a magic-byte gate plus a second, always-reachable
/// gadget — enough structure that shards genuinely trade inputs.
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

fn instrumented(src: &str) -> Binary {
    let mut bin = compile_to_binary(src, &Options::gcc_like()).unwrap();
    bin.strip();
    rewrite(&bin, &RewriteOptions::default()).unwrap()
}

fn small_config(workers: usize) -> CampaignConfig {
    CampaignConfig {
        seed: 0x7EA907,
        shards: 4,
        workers,
        epochs: 3,
        iters_per_epoch: 40,
        max_input_len: 16,
        ..CampaignConfig::default()
    }
}

#[test]
fn worker_count_never_changes_the_report() {
    let bin = instrumented(TARGET);
    let prog = Program::shared(&bin);
    let runs: Vec<_> = [1usize, 2, 8]
        .iter()
        .map(|&w| {
            let mut c = Campaign::new(small_config(w)).unwrap();
            c.run_shared(&prog, &[])
        })
        .collect();

    // Identical merged gadget sets…
    assert_eq!(runs[0].gadgets, runs[1].gadgets);
    assert_eq!(runs[0].gadgets, runs[2].gadgets);
    // …identical full reports…
    assert_eq!(runs[0], runs[1]);
    assert_eq!(runs[0], runs[2]);
    // …and byte-identical JSON.
    let json: Vec<String> = runs.iter().map(|r| r.to_json()).collect();
    assert_eq!(json[0], json[1]);
    assert_eq!(json[0], json[2]);
    // The campaign did real work.
    assert!(runs[0].iters >= 4 * 3 * 40);
    assert!(runs[0].cov_normal_features > 0);
}

#[test]
fn shards_exchange_interesting_inputs_at_barriers() {
    let bin = instrumented(TARGET);
    let prog = Program::shared(&bin);
    let mut c = Campaign::new(small_config(1)).unwrap();
    let before_corpus: usize = {
        c.run_epoch_shared(&prog, &[]);
        c.report().corpus_total
    };
    c.run_epoch_shared(&prog, &[]);
    let after = c.report();
    // Imports can only grow corpora; iters include imported executions
    // beyond the per-epoch fuzzing budget once anything was exchanged.
    assert!(after.corpus_total >= before_corpus);
    assert!(after.iters >= 2 * 4 * 40);
}

#[test]
fn barrier_dedup_drops_clones_without_changing_the_merged_report() {
    use std::collections::BTreeSet;
    use teapot_fuzz::CampaignState;

    let bin = instrumented(TARGET);
    let prog = Program::shared(&bin);
    // Tiny inputs over enough iterations that independent shards
    // *actually* discover byte-identical entries and donate them — the
    // test asserts below that clones really were dropped, so the dedup
    // path is exercised, not just compiled.
    let cfg = CampaignConfig {
        seed: 0x7EA907,
        shards: 4,
        workers: 1,
        epochs: 4,
        iters_per_epoch: 80,
        max_input_len: 2,
        ..CampaignConfig::default()
    };

    // Production path: byte-identical clones are dropped at barriers.
    let mut c = Campaign::new(cfg.clone()).unwrap();
    let dedup = c.run_shared(&prog, &[]);

    // Reference: the same shards and epochs, but every donated input is
    // re-executed — the pre-dedup barrier behavior.
    let mut shards: Vec<CampaignState> = (0..cfg.shards)
        .map(|i| CampaignState::new(cfg.shard_fuzz_config(i)).unwrap())
        .collect();
    for epoch in 0..cfg.epochs {
        for st in shards.iter_mut() {
            if epoch == 0 {
                st.seed_corpus_shared(&prog, &[]);
            }
            st.begin_epoch(epoch);
            st.run_iters_shared(&prog, cfg.iters_per_epoch);
        }
        let fresh: Vec<Vec<Vec<u8>>> = shards.iter().map(|s| s.fresh_inputs()).collect();
        for (j, st) in shards.iter_mut().enumerate() {
            for (i, inputs) in fresh.iter().enumerate() {
                if i == j {
                    continue;
                }
                for input in inputs {
                    st.import_input_shared(&prog, input);
                }
            }
        }
    }

    // Dropping a clone can never remove what its original contributed,
    // so in this pinned configuration the merged gadget sets and
    // coverage breadth are unchanged while executions shrink. (Skipped
    // clones also skip heuristic warm-up, so this equality is a
    // regression pin for the config above, not a structural guarantee
    // for every campaign.)
    let ref_keys: BTreeSet<_> = shards
        .iter()
        .flat_map(|s| s.gadgets().iter().map(|g| g.key))
        .collect();
    let dedup_keys: BTreeSet<_> = dedup.gadgets.iter().map(|g| g.key).collect();
    assert_eq!(dedup_keys, ref_keys, "merged gadget set changed");

    let mut ref_normal = teapot_rt::CovMap::new();
    let mut ref_spec = teapot_rt::CovMap::new();
    for s in &shards {
        s.cov_normal().merge_into(&mut ref_normal);
        s.cov_spec().merge_into(&mut ref_spec);
    }
    assert_eq!(dedup.cov_normal_features, ref_normal.count_nonzero());
    assert_eq!(dedup.cov_spec_features, ref_spec.count_nonzero());

    // Non-vacuous: clones were actually donated and dropped (with this
    // config, 4 duplicate donations occur), so the campaign executed
    // strictly fewer iterations than the clone-replaying reference.
    let ref_iters: u64 = shards.iter().map(|s| s.iters()).sum();
    assert!(
        dedup.iters < ref_iters,
        "no clones were dropped (dedup {} vs reference {ref_iters}): \
         the dedup path was not exercised",
        dedup.iters
    );
}

#[test]
fn snapshot_resume_matches_uninterrupted_run() {
    let bin = instrumented(TARGET);
    let prog = Program::shared(&bin);

    // Uninterrupted: all 3 epochs in one process.
    let mut full = Campaign::new(small_config(2)).unwrap();
    let full_report = full.run_shared(&prog, &[]);

    // Interrupted: 2 epochs, snapshot to disk, "kill", reload, resume.
    let mut first = Campaign::new(small_config(2)).unwrap();
    first.run_epoch_shared(&prog, &[]);
    first.run_epoch_shared(&prog, &[]);
    let snap_path = std::env::temp_dir().join("teapot-campaign-test.tcs");
    first.snapshot(&bin).save(&snap_path).unwrap();
    drop(first);

    let snap = CampaignSnapshot::load(&snap_path).unwrap();
    assert_eq!(snap.epochs_done, 2);
    let mut resumed = Campaign::resume(&snap, &bin).unwrap();
    let resumed_report = resumed.run_shared(&prog, &[]);

    assert_eq!(full_report, resumed_report);
    assert_eq!(full_report.to_json(), resumed_report.to_json());
    std::fs::remove_file(&snap_path).ok();
}

#[test]
fn resume_rejects_a_different_binary() {
    let bin = instrumented(TARGET);
    let prog = Program::shared(&bin);
    let other = instrumented(
        "char inbuf[8];
         int main() { read_input(inbuf, 8); return inbuf[0]; }",
    );
    let mut c = Campaign::new(small_config(1)).unwrap();
    c.run_epoch_shared(&prog, &[]);
    let snap = c.snapshot(&bin);
    match Campaign::resume(&snap, &other) {
        Err(CampaignError::Snapshot(SnapshotError::BinaryMismatch { .. })) => {}
        Err(other) => panic!("expected BinaryMismatch, got {other:?}"),
        Ok(_) => panic!("expected BinaryMismatch, resume succeeded"),
    }
}

#[test]
fn queue_mode_processes_a_directory_in_order() {
    let dir = std::env::temp_dir().join("teapot-campaign-queue-test");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    // b_: already instrumented. a_: stripped COTS — the queue must
    // instrument it itself. z.txt: ignored.
    let inst = instrumented(TARGET);
    std::fs::write(dir.join("b_ready.tof"), inst.to_bytes()).unwrap();
    let mut cots = compile_to_binary(TARGET, &Options::gcc_like()).unwrap();
    cots.strip();
    std::fs::write(dir.join("a_cots.tof"), cots.to_bytes()).unwrap();
    std::fs::write(dir.join("z.txt"), b"not a binary").unwrap();

    let cfg = CampaignConfig {
        shards: 2,
        epochs: 2,
        iters_per_epoch: 30,
        max_input_len: 16,
        ..CampaignConfig::default()
    };
    let outcomes = queue::run_queue(&dir, &cfg, &[]).unwrap();
    assert_eq!(outcomes.len(), 2);
    assert!(outcomes[0].path.ends_with("a_cots.tof"));
    assert!(outcomes[1].path.ends_with("b_ready.tof"));
    assert!(outcomes[0].instrumented_here);
    assert!(!outcomes[1].instrumented_here);
    // Both fuzzed the same program, so the merged gadget sets agree.
    assert_eq!(outcomes[0].report.gadgets, outcomes[1].report.gadgets);

    let json = queue::render_queue_json(&outcomes);
    assert!(json.contains("a_cots.tof"));
    assert!(json.contains("\"instrumented_here\": true"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn queue_mode_rejects_an_instrumented_binary_without_usable_meta() {
    let dir = std::env::temp_dir().join("teapot-campaign-queue-meta-test");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let mut inst = instrumented(TARGET);
    inst.sections.retain(|s| s.name != ".teapot.meta");
    std::fs::write(dir.join("no_meta.tof"), inst.to_bytes()).unwrap();

    let err = queue::run_queue(&dir, &small_config(1), &[]).unwrap_err();
    let CampaignError::Binary { path, reason } = err else {
        panic!("expected a binary error, got {err}");
    };
    assert!(path.ends_with("no_meta.tof"), "{path}");
    assert_eq!(reason, "instrumented binary has no .teapot.meta section");

    std::fs::remove_dir_all(&dir).ok();
}

/// Queue mode recycles each shard's pooled `ExecContext` across
/// binaries; recycling must be invisible — every queued campaign's
/// report is byte-identical to an isolated `run_campaign` over the same
/// binary (which builds its contexts from scratch).
#[test]
fn queue_context_recycling_never_changes_reports() {
    let dir = std::env::temp_dir().join("teapot-campaign-recycle-test");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    // Two *different* programs, so the recycled contexts must rebind to
    // a new pristine image between binaries (the interesting path).
    let first = instrumented(TARGET);
    let second = instrumented(
        "char buf[32];
         int out;
         int main() {
             read_input(buf, 32);
             int i = buf[0];
             if (i < 16) { out = buf[i + 8]; }
             return 0;
         }",
    );
    std::fs::write(dir.join("a.tof"), first.to_bytes()).unwrap();
    std::fs::write(dir.join("b.tof"), second.to_bytes()).unwrap();

    let cfg = CampaignConfig {
        shards: 2,
        epochs: 2,
        iters_per_epoch: 30,
        max_input_len: 16,
        ..CampaignConfig::default()
    };
    let outcomes = queue::run_queue(&dir, &cfg, &[]).unwrap();
    assert_eq!(outcomes.len(), 2);
    for o in &outcomes {
        let fresh = run_campaign(&o.bin, &[], &cfg).unwrap();
        assert_eq!(
            o.report.to_json(),
            fresh.to_json(),
            "{}: recycled-context report differs from fresh-context report",
            o.path.display()
        );
        assert_eq!(o.report.witnesses, fresh.witnesses);
    }

    std::fs::remove_dir_all(&dir).ok();
}
