//! The benchmark's own tests: the traced decomposition times the same
//! program as the untraced entry points, and every printed metric is
//! declared in `BENCHMARK.json`.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::PathBuf;

use teapot_campaign::{Campaign, CampaignConfig};
use teapot_core::{rewrite, RewriteOptions};
use teapot_perfbench::traced::{self, Ledger};
use teapot_perfbench::{run, Options, Workload};
use teapot_triage::{TriageInput, TriageOptions};
use teapot_vm::{Program, SpecModelSet};

fn work_dir(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

#[test]
fn traced_decomposition_reproduces_snapshots_and_triage_bytes() {
    let w = teapot_workloads::brotli_like();
    let bin = rewrite(&teapot_bench::cots_binary(&w), &RewriteOptions::default()).unwrap();
    let prog = Program::shared(&bin);
    for (threads, evolve) in [(1, false), (2, true)] {
        let cfg = CampaignConfig {
            shards: 3,
            workers: threads,
            epochs: 3,
            iters_per_epoch: 6,
            models: SpecModelSet::parse("pht,rsb,stl").unwrap(),
            dictionary: w.dictionary.clone(),
            adaptive_budgets: evolve,
            corpus_minimize: evolve,
            ..CampaignConfig::default()
        };
        let mut campaign = Campaign::new(cfg.clone()).unwrap();
        let report = campaign.run_shared(&prog, &w.seeds);
        let mut led = Ledger::default();
        let tc = traced::campaign(&prog, &bin, &w.seeds, &cfg, threads, &mut led).unwrap();
        assert_eq!(tc.states, campaign.snapshot(&bin).shard_states);
        assert_eq!(tc.json, report.to_json());
        assert_eq!(led.campaigns, 1);
        assert!(led.run_iters_ms > 0.0 && led.thread_ms > 0.0);

        let (db, _) = teapot_triage::triage(
            [TriageInput {
                label: "brotli.tof".into(),
                bin: &bin,
                config: cfg.clone(),
                report: &report,
            }],
            &TriageOptions::default(),
        );
        let inputs = [TriageInput {
            label: "brotli.tof".into(),
            bin: &bin,
            config: cfg.clone(),
            report: &tc.report,
        }];
        let (rendered, _) = traced::triage(&inputs, &mut led);
        assert!(
            rendered.witnesses > 0,
            "the tiny campaign found nothing to triage"
        );
        assert_eq!(rendered.jsonl, db.to_jsonl());
        assert_eq!(rendered.sarif, teapot_triage::sarif::render(&db));
    }
}

/// `(end_to_end names, per_layer names)` declared in `BENCHMARK.json`.
fn declared() -> (Vec<String>, Vec<String>) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap();
    let names = |section: &str| -> Vec<String> {
        section
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').unwrap()].to_string())
            .collect()
    };
    let e2e = text.find("\"end_to_end\"").unwrap();
    let layer = text.find("\"per_layer\"").unwrap();
    (names(&text[e2e..layer]), names(&text[layer..]))
}

#[test]
fn every_printed_metric_is_declared_and_well_formed() {
    let (e2e, per_layer) = declared();
    for w in Workload::ALL {
        for trace in [false, true] {
            let out = run(&Options {
                workload: w,
                seed: 3,
                seconds: 0.0,
                trace,
                tiny: true,
                work_dir: work_dir(&format!("{}-{trace}", w.name())),
            });
            assert_eq!(out.failed, 0, "{}: {:?}", w.name(), out.failures);
            let printed: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
            let expected = if trace { &per_layer } else { &e2e };
            assert_eq!(printed, *expected, "{} trace={trace}", w.name());
            for m in &out.metrics {
                assert!(
                    m.name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                    "{}",
                    m.name
                );
                assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
            }
        }
    }
}
