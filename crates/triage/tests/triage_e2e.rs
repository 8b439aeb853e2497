//! End-to-end triage acceptance tests:
//!
//! 1. **Worker-count determinism** — `--workers 8` and `--workers 1`
//!    campaigns triage to byte-identical JSONL, text and SARIF.
//! 2. **Cross-binary dedup** — queue mode over two binaries sharing a
//!    gadget reports it once, with both locations listed in
//!    `(binary, shard)` order.
//! 3. **Reproducers** — every emitted gadget carries a minimized witness
//!    that replays to the same `GadgetKey`.

use teapot_campaign::{queue, Campaign, CampaignConfig};
use teapot_cc::{compile_to_binary, Options};
use teapot_core::{rewrite, RewriteOptions};
use teapot_obj::Binary;
use teapot_triage::{run_fresh, sarif, triage_queue, triage_report, ReplayConfig, TriageOptions};
use teapot_vm::Program;

/// A gadget behind a magic-byte gate plus a second, always-reachable
/// gadget (the campaign e2e target). Needs a full-size smoke campaign
/// before anything fires.
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

/// The same Spectre-V1 shape without the gate: tiny campaigns find its
/// gadgets for any seed, keeping the cheap tests cheap.
const EASY: &str = "
    char bar[256];
    int baz;
    char inbuf[16];
    int main() {
        char *foo = malloc(16);
        read_input(inbuf, 16);
        int index = inbuf[1];
        if (index < 10) {
            int secret = foo[index];
            baz = bar[secret];
        }
        return 0;
    }";

fn instrumented(src: &str) -> Binary {
    let mut bin = compile_to_binary(src, &Options::gcc_like()).unwrap();
    bin.strip();
    rewrite(&bin, &RewriteOptions::default()).unwrap()
}

fn config(workers: usize) -> CampaignConfig {
    CampaignConfig {
        seed: 0x7EA907,
        shards: 4,
        workers,
        epochs: 4,
        iters_per_epoch: 80,
        max_input_len: 16,
        ..CampaignConfig::default()
    }
}

#[test]
fn triage_is_byte_identical_across_worker_counts() {
    let bin = instrumented(TARGET);
    let prog = Program::shared(&bin);
    let outputs: Vec<(String, String, String)> = [1usize, 8]
        .iter()
        .map(|&w| {
            let cfg = config(w);
            let mut c = Campaign::new(cfg.clone()).unwrap();
            let report = c.run_shared(&prog, &[]);
            let (db, stats, _) =
                triage_report("target.tof", &bin, &cfg, &report, &TriageOptions::default());
            assert_eq!(stats.replay_failures, 0, "all witnesses replay");
            (db.to_jsonl(), db.to_text(), sarif::render(&db))
        })
        .collect();
    assert_eq!(outputs[0].0, outputs[1].0, "JSONL diverged");
    assert_eq!(outputs[0].1, outputs[1].1, "text diverged");
    assert_eq!(outputs[0].2, outputs[1].2, "SARIF diverged");
    assert!(!outputs[0].0.is_empty());
}

#[test]
fn every_gadget_carries_a_minimized_replaying_witness() {
    let bin = instrumented(TARGET);
    let prog = Program::shared(&bin);
    let cfg = config(2);
    let mut c = Campaign::new(cfg.clone()).unwrap();
    let report = c.run_shared(&prog, &[]);
    assert!(!report.gadgets.is_empty(), "campaign found gadgets");
    assert_eq!(report.gadgets.len(), report.witnesses.len());

    let (db, stats, _) =
        triage_report("target.tof", &bin, &cfg, &report, &TriageOptions::default());
    assert_eq!(stats.replay_failures, 0);
    assert!(stats.replays > 0);
    assert!(!db.entries().is_empty());

    let rcfg = ReplayConfig::from_campaign(&cfg);
    for e in db.entries() {
        assert!(e.replayed, "{}: witness replayed", e.root_cause);
        let minimized = e
            .minimized_input
            .as_ref()
            .expect("minimized reproducer present");
        assert!(
            minimized.len() <= e.witness_input.len(),
            "minimization never grows the input"
        );
        // The minimized input replays to (at least) one of the entry's
        // gadget keys on a *fresh* context — witness heuristic counts
        // come from the canonical location's witness.
        let w = report
            .witnesses
            .iter()
            .find(|sw| e.locations.iter().any(|l| l.key == sw.witness.key))
            .expect("entry has a witness");
        let gadgets = run_fresh(&prog, &rcfg, minimized, &w.witness.heur_counts);
        assert!(
            gadgets.iter().any(|g| g.key == w.witness.key),
            "{}: minimized input replays the gadget",
            e.root_cause
        );
    }
}

#[test]
fn severity_ranking_is_monotone_and_entries_deduplicate_shards() {
    let bin = instrumented(TARGET);
    let prog = Program::shared(&bin);
    let cfg = config(2);
    let mut c = Campaign::new(cfg.clone()).unwrap();
    let report = c.run_shared(&prog, &[]);
    let (db, _, _) = triage_report("target.tof", &bin, &cfg, &report, &TriageOptions::default());

    let severities: Vec<u32> = db.entries().iter().map(|e| e.severity).collect();
    let mut sorted = severities.clone();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    assert_eq!(severities, sorted, "entries ranked by severity");

    // Root causes never exceed raw gadgets; locations cover every
    // distinct (binary, key).
    assert!(db.entries().len() <= report.gadgets.len());
    assert_eq!(db.location_count(), report.gadgets.len());
}

#[test]
fn queue_mode_dedups_the_shared_gadget_across_binaries() {
    let dir = std::env::temp_dir().join("teapot-triage-queue-test");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    // Two binaries built from the same source: the classic shared-
    // library scenario where one defect reports once per binary.
    let inst = instrumented(EASY);
    std::fs::write(dir.join("a_app.tof"), inst.to_bytes()).unwrap();
    std::fs::write(dir.join("b_app.tof"), inst.to_bytes()).unwrap();

    let cfg = CampaignConfig {
        shards: 2,
        epochs: 2,
        iters_per_epoch: 40,
        max_input_len: 16,
        ..CampaignConfig::default()
    };
    let outcomes = queue::run_queue(&dir, &cfg, &[]).unwrap();
    assert_eq!(outcomes.len(), 2);
    assert!(!outcomes[0].report.gadgets.is_empty());

    let (db, stats, _) = triage_queue(&outcomes, &cfg, &TriageOptions::default());
    assert_eq!(stats.replay_failures, 0);

    // The shared gadget collapses to one root cause with both binaries
    // listed, locations sorted by (binary, shard).
    assert_eq!(
        db.entries().len(),
        outcomes[0].report.gadgets.len(),
        "each defect reported once, not once per binary"
    );
    for e in db.entries() {
        let binaries: Vec<&str> = e.locations.iter().map(|l| l.binary.as_str()).collect();
        assert!(binaries.contains(&"a_app.tof") && binaries.contains(&"b_app.tof"));
        let mut sorted = e.locations.clone();
        sorted.sort_by(|a, b| (&a.binary, a.shard).cmp(&(&b.binary, b.shard)));
        assert_eq!(e.locations, sorted, "locations in (binary, shard) order");
    }

    // Header lists both binaries with their decode statistics.
    let jsonl = db.to_jsonl();
    assert!(jsonl.contains("a_app.tof") && jsonl.contains("b_app.tof"));
    assert!(jsonl.contains("decode_cache"));

    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite: data-operand normalization in the root-cause hash. Two
/// binaries share the gadget *code*, but one carries >4 KiB of extra
/// (unreachable) text, which pushes the data/BSS sections to different
/// page bases — every global the gadget block touches relocates. The
/// normalized hash renders those operands as `section+offset`, so the
/// relocated twins still collapse to one root cause per defect.
#[test]
fn relocated_globals_dedup_across_binaries() {
    let dir = std::env::temp_dir().join("teapot-triage-reloc-test");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();

    // The gadget lives in its own function, byte-identical in both
    // programs; the padded twin adds a *reachable* pad function (the
    // rewriter drops unreachable code) big enough that the rewritten
    // text grows past a page boundary: the gadget function and every
    // data/BSS section relocate. The pad's own global comes *after*
    // the shared ones, so their section offsets are untouched — only
    // the section bases move.
    let globals = "
        char bar[256];
        int baz;
        char inbuf[16];
        char *foo;";
    let leak_and_main = "
        void leak(int index) {
            if (index < 10) {
                int secret = foo[index];
                baz = bar[secret];
            }
        }
        int main() {
            __pad();
            foo = malloc(16);
            read_input(inbuf, 16);
            leak(inbuf[1]);
            return 0;
        }";
    let mut pad_body = String::new();
    for k in 0..400 {
        pad_body.push_str(&format!("    __pad_t = __pad_t + {k};\n"));
    }
    // The pad precedes `leak`, so in the padded twin the gadget function
    // itself relocates along with every global it touches.
    let plain =
        format!("{globals}\nint __pad_t;\nvoid __pad() {{ __pad_t = 1; }}\n{leak_and_main}");
    let padded = format!("{globals}\nint __pad_t;\nvoid __pad() {{\n{pad_body}}}\n{leak_and_main}");
    let a = instrumented(&plain);
    let b = instrumented(&padded);

    // The relocation really happened: every data/BSS section sits at a
    // different base in the padded binary.
    let data_base = |bin: &Binary, name: &str| {
        bin.sections
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.vaddr)
            .expect("section present")
    };
    assert_ne!(
        data_base(&a, ".bss"),
        data_base(&b, ".bss"),
        "pad failed to relocate the globals — test would be vacuous"
    );

    std::fs::write(dir.join("a_app.tof"), a.to_bytes()).unwrap();
    std::fs::write(dir.join("b_app.tof"), b.to_bytes()).unwrap();

    let cfg = CampaignConfig {
        shards: 2,
        epochs: 2,
        iters_per_epoch: 40,
        max_input_len: 16,
        ..CampaignConfig::default()
    };
    let outcomes = queue::run_queue(&dir, &cfg, &[]).unwrap();
    let (db, stats, _) = triage_queue(&outcomes, &cfg, &TriageOptions::default());
    assert_eq!(stats.replay_failures, 0);

    // At least one root cause merges across both binaries, and no
    // defect splits into an `a_app`-only plus `b_app`-only pair at the
    // same bucket and depth (the pre-normalization failure mode).
    let merged = db
        .entries()
        .iter()
        .filter(|e| {
            let bins: Vec<&str> = e.locations.iter().map(|l| l.binary.as_str()).collect();
            bins.contains(&"a_app.tof") && bins.contains(&"b_app.tof")
        })
        .count();
    assert!(
        merged > 0,
        "relocated globals did not dedup: {:#?}",
        db.entries()
            .iter()
            .map(|e| (&e.root_cause, e.locations.len()))
            .collect::<Vec<_>>()
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn queue_triage_is_byte_identical_across_worker_counts() {
    let dir = std::env::temp_dir().join("teapot-triage-queue-workers-test");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let inst = instrumented(EASY);
    std::fs::write(dir.join("a_app.tof"), inst.to_bytes()).unwrap();
    std::fs::write(dir.join("b_app.tof"), inst.to_bytes()).unwrap();

    let outputs: Vec<(String, String)> = [1usize, 4]
        .iter()
        .map(|&w| {
            let cfg = CampaignConfig {
                shards: 2,
                workers: w,
                epochs: 2,
                iters_per_epoch: 30,
                max_input_len: 16,
                ..CampaignConfig::default()
            };
            let outcomes = queue::run_queue(&dir, &cfg, &[]).unwrap();
            let (db, _, _) = triage_queue(&outcomes, &cfg, &TriageOptions::default());
            (db.to_jsonl(), sarif::render(&db))
        })
        .collect();
    assert_eq!(outputs[0], outputs[1]);

    std::fs::remove_dir_all(&dir).ok();
}
