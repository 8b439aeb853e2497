//! Cost pinning under **every speculation model** (`pht,rsb,stl`).
//!
//! `tests/specmodel_differential.rs` pins the default (`pht`) pipeline.
//! RSB and STL windows drive the same checkpoint / memory-log / rollback
//! machinery from VM-side mispredictions, so a change to how a window
//! logs or replays stores can move their cost without touching a single
//! PHT byte. This test pins campaign JSON (`total_cost` and every
//! per-shard cost included) and triage JSONL (provenance chains on, so
//! the origin log is replayed too) for brotli and the two planted
//! workloads (plus jsmn), byte for byte.
//!
//! Regenerate only for an intended output change:
//! `TEAPOT_REGEN_GOLDENS=1 cargo test -q --test all_models_goldens`.

use teapot_campaign::{run_campaign, CampaignConfig};
use teapot_cc::Options;
use teapot_core::{rewrite, RewriteOptions};
use teapot_rt::SpecModelSet;
use teapot_triage::{triage_report, TriageOptions};
use teapot_workloads::Workload;

/// Campaign JSON + triage JSONL of one small `pht,rsb,stl` campaign.
fn pipeline_output(w: &Workload) -> String {
    let mut cots = w.build(&Options::gcc_like()).expect("compile");
    cots.strip();
    let bin = rewrite(&cots, &RewriteOptions::default()).expect("rewrite");
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
    let report = run_campaign(&bin, &w.seeds, &cfg).expect("campaign");
    let opts = TriageOptions {
        max_minimize_steps: 32,
        ..TriageOptions::default()
    };
    let (db, _stats, _) = triage_report(&format!("{}.tof", w.name), &bin, &cfg, &report, &opts);
    format!(
        "== campaign json ==\n{}== triage jsonl ==\n{}",
        report.to_json(),
        db.to_jsonl(),
    )
}

#[test]
fn all_model_output_matches_committed_goldens() {
    let fixtures = format!("{}/tests/fixtures", env!("CARGO_MANIFEST_DIR"));
    let regen = std::env::var_os("TEAPOT_REGEN_GOLDENS").is_some();
    let workloads = [
        teapot_workloads::jsmn_like(),
        teapot_workloads::brotli_like(),
        teapot_workloads::rsb_like(),
        teapot_workloads::stl_like(),
    ];
    for w in &workloads {
        let got = pipeline_output(w);
        let path = format!("{fixtures}/all_models_{}.txt", w.name);
        if regen {
            std::fs::write(&path, &got).expect("write fixture");
            continue;
        }
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing fixture {path}: {e}"));
        assert!(
            want == got,
            "pht,rsb,stl pipeline output diverged from {path}"
        );
    }
}
