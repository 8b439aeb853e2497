//! Provenance zero-perturbation differential: the origin shadow runs
//! only on triage replays, so every pre-existing artifact — campaign
//! JSON, triage JSONL, ranked text, SARIF — must be **byte-identical**
//! with provenance on and off once the provenance-only keys (JSONL
//! `leaked_input_bytes`/`chain`, text `causal chain` blocks, SARIF
//! `codeFlows`/`leakedInputBytes`) are scrubbed symmetrically from both
//! sides — for every speculation-model set and worker count.
//!
//! The companion ground-truth test pins the e2e half of the provenance
//! pipeline: a full campaign → triage pass over the planted spectre-*
//! workloads resolves the leaking accesses to exactly the attacker's
//! two index bytes (`in[0] + (in[1] << 8)`), and to no other offsets.

use teapot_campaign::{Campaign, CampaignConfig};
use teapot_cc::Options;
use teapot_core::{rewrite, RewriteOptions};
use teapot_obj::Binary;
use teapot_rt::SpecModelSet;
use teapot_triage::{triage_report, TriageOptions};
use teapot_vm::Program;
use teapot_workloads::Workload;

fn instrumented(w: &Workload) -> Binary {
    let mut cots = w.build(&Options::gcc_like()).expect("compile");
    cots.strip();
    rewrite(&cots, &RewriteOptions::default()).expect("rewrite")
}

struct Outputs {
    campaign_json: String,
    triage_jsonl: String,
    triage_text: String,
    sarif: String,
    chains: usize,
}

/// Runs the full campaign + triage pipeline and renders every report
/// artifact, with the triage provenance replay on or off.
fn pipeline_outputs(
    w: &Workload,
    bin: &Binary,
    models: &str,
    workers: usize,
    provenance: bool,
) -> Outputs {
    let prog = Program::shared(bin);
    let cfg = CampaignConfig {
        shards: 4,
        workers,
        epochs: 2,
        iters_per_epoch: 15,
        max_input_len: 8,
        dictionary: w.dictionary.clone(),
        models: SpecModelSet::parse(models).expect("valid model set"),
        ..CampaignConfig::default()
    };
    let mut campaign = Campaign::new(cfg).expect("valid config");
    let report = campaign.run_shared(&prog, &w.seeds);
    let (db, _stats, _) = triage_report(
        "bin.tof",
        bin,
        campaign.config(),
        &report,
        &TriageOptions {
            provenance,
            ..TriageOptions::default()
        },
    );
    Outputs {
        campaign_json: report.to_json(),
        triage_jsonl: db.to_jsonl(),
        triage_text: db.to_text(),
        sarif: teapot_triage::sarif::render(&db),
        chains: db.entries().iter().filter(|e| e.chain.is_some()).count(),
    }
}

/// Drops the `"leaked_input_bytes":...,"chain":[...],` span from every
/// finding line (the keys sit contiguously between `minimized_input`
/// and `locations` by construction). A no-op on provenance-off lines.
fn scrub_jsonl(s: &str) -> String {
    s.lines()
        .map(|l| {
            let mut l = l.to_string();
            if let (Some(a), Some(b)) = (l.find("\"leaked_input_bytes\""), l.find("\"locations\""))
            {
                l.replace_range(a..b, "");
            }
            format!("{l}\n")
        })
        .collect()
}

/// Drops each `    causal chain (...)` header and its numbered step
/// lines from the ranked text report.
fn scrub_text(s: &str) -> String {
    let mut out = String::new();
    let mut in_chain = false;
    for line in s.lines() {
        if line.starts_with("    causal chain (") {
            in_chain = true;
            continue;
        }
        if in_chain && line.starts_with("      ") {
            continue;
        }
        in_chain = false;
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// Drops every `codeFlows` block (emitted for each result in *both*
/// modes, but with different step text) and `leakedInputBytes` property
/// from the SARIF document.
fn scrub_sarif(s: &str) -> String {
    let mut out = String::new();
    let mut in_flows = false;
    for line in s.lines() {
        if line == "          \"codeFlows\": [" {
            in_flows = true;
            continue;
        }
        if in_flows {
            if line == "          ]," {
                in_flows = false;
            }
            continue;
        }
        if line.trim_start().starts_with("\"leakedInputBytes\"") {
            continue;
        }
        out.push_str(line);
        out.push('\n');
    }
    out
}

#[test]
fn provenance_never_changes_reports_for_any_model_set_or_worker_count() {
    let cases = [
        (teapot_workloads::rsb_like(), "pht"),
        (teapot_workloads::rsb_like(), "pht,rsb"),
        (teapot_workloads::stl_like(), "pht,rsb,stl"),
    ];
    let mut chains_covered = 0usize;
    for (w, models) in &cases {
        let bin = instrumented(w);
        for workers in [1usize, 8] {
            let off = pipeline_outputs(w, &bin, models, workers, false);
            let on = pipeline_outputs(w, &bin, models, workers, true);
            let ctx = format!("models={models} workers={workers}");
            // The campaign never sees the origin shadow at all.
            assert_eq!(
                off.campaign_json, on.campaign_json,
                "campaign JSON perturbed by provenance ({ctx})"
            );
            // Off-mode artifacts carry no provenance keys, so the
            // scrub must be a no-op on them...
            assert_eq!(scrub_jsonl(&off.triage_jsonl), off.triage_jsonl, "({ctx})");
            assert_eq!(scrub_text(&off.triage_text), off.triage_text, "({ctx})");
            // ...and the symmetric scrub must equate the two modes.
            assert_eq!(
                scrub_jsonl(&on.triage_jsonl),
                off.triage_jsonl,
                "triage JSONL perturbed by provenance ({ctx})"
            );
            assert_eq!(
                scrub_text(&on.triage_text),
                off.triage_text,
                "triage text perturbed by provenance ({ctx})"
            );
            assert_eq!(
                scrub_sarif(&on.sarif),
                scrub_sarif(&off.sarif),
                "SARIF perturbed by provenance ({ctx})"
            );
            assert_eq!(
                off.chains, 0,
                "provenance off must attach no chains ({ctx})"
            );
            chains_covered += on.chains;
        }
    }
    // The differential is only convincing if it covered findings that
    // actually carried causal chains.
    assert!(
        chains_covered > 0,
        "differential never saw a causal chain — scale the campaigns up"
    );
}

#[test]
fn e2e_chains_resolve_planted_gadgets_to_input_bytes_zero_and_one() {
    for (w, models) in [
        (teapot_workloads::rsb_like(), "pht,rsb"),
        (teapot_workloads::stl_like(), "pht,rsb,stl"),
    ] {
        let bin = instrumented(&w);
        let on = pipeline_outputs(&w, &bin, models, 1, true);
        assert!(on.chains > 0, "{}: no causal chains attached", w.name);
        // Both planted programs build the OOB index from
        // `in[0] + (in[1] << 8)` — nothing else of the input reaches a
        // leak, so every narrated flow stays inside bytes 0..=1 and the
        // full two-byte interval appears on the completing access.
        assert!(
            on.triage_jsonl.contains("\"leaked_input_bytes\":\"0-1\""),
            "{}: JSONL misses the 0-1 interval:\n{}",
            w.name,
            on.triage_jsonl
        );
        assert!(
            on.triage_text
                .contains("causal chain (leaks input bytes 0-1):"),
            "{}: text misses the 0-1 interval:\n{}",
            w.name,
            on.triage_text
        );
        assert!(
            on.sarif.contains("\"leakedInputBytes\": \"0-1\""),
            "{}: SARIF misses the 0-1 interval",
            w.name
        );
        for line in on.triage_jsonl.lines() {
            for key in ["\"leaked_input_bytes\":\"", "\"origin\":\""] {
                for (i, _) in line.match_indices(key) {
                    let v: String = line[i + key.len()..]
                        .chars()
                        .take_while(|c| *c != '"')
                        .collect();
                    assert!(
                        ["-", "0", "1", "0-1"].contains(&v.as_str()),
                        "{}: origin `{v}` names a byte outside the planted index: {line}",
                        w.name
                    );
                }
            }
        }
    }
}
