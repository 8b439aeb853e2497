//! Telemetry zero-perturbation differential: with telemetry fully
//! enabled (metrics sink attached + guest block profiler on), campaign
//! JSON and every triage artifact (JSONL, ranked text, SARIF 2.1.0)
//! stay **byte-identical** to a telemetry-off run — for every
//! speculation-model set and worker count. Wall-clock values may only
//! ever appear in the telemetry stream itself, never in reports.

use teapot_campaign::{Campaign, CampaignConfig};
use teapot_cc::Options;
use teapot_core::{rewrite, RewriteOptions};
use teapot_obj::Binary;
use teapot_rt::SpecModelSet;
use teapot_telemetry::MetricsSink;
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
    gadgets: usize,
}

/// Runs the full campaign + triage pipeline and renders every report
/// artifact. With `telemetry` the campaign streams metrics JSONL to a
/// temp file and profiles guest blocks — the heaviest observable
/// configuration — and the stream's basic shape is validated before the
/// file is removed.
fn pipeline_outputs(
    w: &Workload,
    bin: &Binary,
    models: &str,
    workers: usize,
    telemetry: bool,
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
    let mut metrics_path = None;
    if telemetry {
        let p = std::env::temp_dir().join(format!(
            "teapot_telemetry_diff_{}_{}_{workers}.jsonl",
            std::process::id(),
            models.replace(',', "-"),
        ));
        campaign.set_metrics(MetricsSink::create(&p).expect("create metrics sink"));
        campaign.set_block_profiling(true);
        metrics_path = Some(p);
    }
    let report = campaign.run_shared(&prog, &w.seeds);
    let (db, _stats, _) = triage_report(
        "bin.tof",
        bin,
        campaign.config(),
        &report,
        &TriageOptions::default(),
    );
    if let Some(p) = &metrics_path {
        let sink = campaign.take_metrics().expect("sink still attached");
        sink.finish().expect("flush metrics");
        let text = std::fs::read_to_string(p).expect("read metrics stream");
        assert!(
            text.lines().count() >= 1,
            "telemetry stream must not be empty"
        );
        for line in text.lines() {
            assert!(
                line.starts_with('{') && line.ends_with('}'),
                "flat JSON object per line: {line}"
            );
            assert!(line.contains("\"event\":"), "event key missing: {line}");
        }
        std::fs::remove_file(p).ok();
    }
    Outputs {
        campaign_json: report.to_json(),
        triage_jsonl: db.to_jsonl(),
        triage_text: db.to_text(),
        sarif: teapot_triage::sarif::render(&db),
        gadgets: report.unique_gadgets(),
    }
}

#[test]
fn telemetry_never_changes_reports_for_any_model_set_or_worker_count() {
    let cases = [
        (teapot_workloads::rsb_like(), "pht"),
        (teapot_workloads::rsb_like(), "pht,rsb"),
        (teapot_workloads::stl_like(), "pht,rsb,stl"),
    ];
    let mut gadgets_covered = 0usize;
    for (w, models) in &cases {
        let bin = instrumented(w);
        for workers in [1usize, 8] {
            let off = pipeline_outputs(w, &bin, models, workers, false);
            let on = pipeline_outputs(w, &bin, models, workers, true);
            let ctx = format!("models={models} workers={workers}");
            assert_eq!(
                off.campaign_json, on.campaign_json,
                "campaign JSON perturbed by telemetry ({ctx})"
            );
            assert_eq!(
                off.triage_jsonl, on.triage_jsonl,
                "triage JSONL perturbed by telemetry ({ctx})"
            );
            assert_eq!(
                off.triage_text, on.triage_text,
                "triage text perturbed by telemetry ({ctx})"
            );
            assert_eq!(off.sarif, on.sarif, "SARIF perturbed by telemetry ({ctx})");
            gadgets_covered += on.gadgets;
        }
    }
    // The differential is only convincing if it covered non-empty
    // reports: the planted workloads must have fired.
    assert!(
        gadgets_covered > 0,
        "differential never saw a gadget — scale the campaigns up"
    );
}
