//! Specmodel acceptance: every model finds its planted ground-truth
//! gadget exactly when enabled, and campaign + triage output stays
//! byte-identical across worker counts for **every** model set — the
//! per-model extension of the pipeline's determinism invariant.

use teapot_campaign::{run_campaign, CampaignConfig};
use teapot_cc::Options;
use teapot_core::{rewrite, RewriteOptions};
use teapot_obj::Binary;
use teapot_rt::{SpecModel, SpecModelSet};
use teapot_triage::{triage_report, TriageOptions};
use teapot_workloads::Workload;

fn instrumented(w: &Workload) -> Binary {
    let mut cots = w.build(&Options::gcc_like()).expect("compile");
    cots.strip();
    rewrite(&cots, &RewriteOptions::default()).expect("rewrite")
}

fn cfg(models: &str, workers: usize) -> CampaignConfig {
    CampaignConfig {
        shards: 2,
        workers,
        epochs: 2,
        iters_per_epoch: 15,
        max_input_len: 8,
        models: SpecModelSet::parse(models).unwrap(),
        ..CampaignConfig::default()
    }
}

#[test]
fn each_model_finds_its_planted_gadget_exactly_when_enabled() {
    for (wl, model, with_model) in [
        (teapot_workloads::rsb_like(), SpecModel::Rsb, "pht,rsb"),
        (teapot_workloads::stl_like(), SpecModel::Stl, "pht,stl"),
    ] {
        let bin = instrumented(&wl);

        // Default (PHT-only) campaign: the planted program has no
        // branch-reachable gadget, so nothing may be reported.
        let pht = run_campaign(&bin, &wl.seeds, &cfg("pht", 1)).unwrap();
        assert_eq!(
            pht.unique_gadgets(),
            0,
            "{}: PHT-only campaign must stay clean, got {:?}",
            wl.name,
            pht.gadgets
        );

        // With the model enabled the planted gadget appears, attributed
        // to that model.
        let on = run_campaign(&bin, &wl.seeds, &cfg(with_model, 1)).unwrap();
        assert!(
            on.gadgets.iter().any(|g| g.key.model == model),
            "{}: expected a {model} gadget, got {:?}",
            wl.name,
            on.gadgets
        );
        // Witnesses captured for the model-attributed gadgets replay
        // through triage: every finding validated, none lost.
        let (db, stats, _) = triage_report(
            &format!("{}.tof", wl.name),
            &bin,
            &cfg(with_model, 1),
            &on,
            &TriageOptions::default(),
        );
        assert_eq!(stats.replay_failures, 0, "{}", wl.name);
        assert!(db.entries().iter().any(|e| e.model == model));
        // Model-tagged artifacts: SARIF rule ids and JSONL models.
        let sarif = teapot_triage::sarif::render(&db);
        assert!(sarif.contains(&format!("@{model}")), "{}", wl.name);
        assert!(db.to_jsonl().contains(&format!("\"model\":\"{model}\"")));
    }
}

#[test]
fn worker_count_never_changes_output_for_any_model_set() {
    let workloads = [teapot_workloads::rsb_like(), teapot_workloads::stl_like()];
    for wl in &workloads {
        let bin = instrumented(wl);
        for models in ["pht", "pht,rsb", "pht,rsb,stl"] {
            let r1 = run_campaign(&bin, &wl.seeds, &cfg(models, 1)).unwrap();
            let r8 = run_campaign(&bin, &wl.seeds, &cfg(models, 8)).unwrap();
            assert_eq!(
                r1.to_json(),
                r8.to_json(),
                "{} [{models}]: campaign JSON diverged between workers 1 and 8",
                wl.name
            );
            let opts = TriageOptions::default();
            let label = format!("{}.tof", wl.name);
            let (db1, _, _) = triage_report(&label, &bin, &cfg(models, 1), &r1, &opts);
            let (db8, _, _) = triage_report(&label, &bin, &cfg(models, 8), &r8, &opts);
            assert_eq!(
                db1.to_jsonl(),
                db8.to_jsonl(),
                "{} [{models}] JSONL",
                wl.name
            );
            assert_eq!(db1.to_text(), db8.to_text(), "{} [{models}] text", wl.name);
            assert_eq!(
                teapot_triage::sarif::render(&db1),
                teapot_triage::sarif::render(&db8),
                "{} [{models}] SARIF",
                wl.name
            );
        }
    }
}
