//! The invariant the epoch engine rests on, checked at tier 1: one
//! campaign gives byte-identical JSON on one thread, on four threads, on
//! a two-worker loopback fleet, on that fleet with a worker that crashes
//! mid-epoch and rejoins, and on that fleet under a corrupted wire frame
//! plus a torn checkpoint write — whose `.tcs` falls back to `.prev`
//! and resumes to the same report.
//!
//! The config is tiny but exercises every engine rule: adaptive budgets
//! and corpus minimization are on, all three speculation models run, and
//! the planted program gives the shards gadgets and inputs to trade.

use teapot_campaign::{Campaign, CampaignConfig, CampaignSnapshot};
use teapot_cc::Options;
use teapot_chaos::FaultPlan;
use teapot_core::{rewrite, RewriteOptions};
use teapot_fabric::{run_fleet_threads, FleetOptions};
use teapot_obj::Binary;
use teapot_rt::SpecModelSet;
use teapot_vm::Program;
use teapot_workloads::Workload;

/// The planted RSB workload, rewritten.
fn planted() -> (Workload, Binary) {
    let wl = teapot_workloads::rsb_like();
    let mut cots = wl.build(&Options::gcc_like()).expect("compile");
    cots.strip();
    let bin = rewrite(&cots, &RewriteOptions::default()).expect("rewrite");
    (wl, bin)
}

fn config(wl: &Workload, workers: usize) -> CampaignConfig {
    CampaignConfig {
        shards: 4,
        workers,
        epochs: 3,
        iters_per_epoch: 12,
        max_input_len: 8,
        models: SpecModelSet::parse("pht,rsb,stl").unwrap(),
        dictionary: wl.dictionary.clone(),
        adaptive_budgets: true,
        corpus_minimize: true,
        ..CampaignConfig::default()
    }
}

#[test]
fn threads_fleet_and_crashed_fleet_give_identical_campaign_json() {
    let (wl, bin) = planted();
    let prog = Program::shared(&bin);
    let cfg = |workers| config(&wl, workers);
    let threads = |workers| {
        Campaign::new(cfg(workers))
            .unwrap()
            .run_shared(&prog, &wl.seeds)
    };
    let fleet = |chaos: Option<&str>| {
        let opts = FleetOptions {
            workers: 2,
            chaos: chaos.map(|s| FaultPlan::parse(s).unwrap()),
            ..FleetOptions::default()
        };
        let out = run_fleet_threads(&bin, &wl.seeds, &cfg(1), opts).unwrap();
        (out.campaign.report().to_json(), out.stats.worker_deaths)
    };

    let single = threads(1);
    assert!(
        single.unique_gadgets() > 0,
        "the planted gadget was not found"
    );
    let one = single.to_json();
    assert_eq!(threads(4).to_json(), one, "--workers 4");
    let (json, deaths) = fleet(None);
    assert_eq!(json, one, "2-worker fleet");
    assert_eq!(deaths, 0);
    let (json, deaths) = fleet(Some("w0:crash@1"));
    assert_eq!(json, one, "2-worker fleet under w0:crash@1");
    assert_eq!(deaths, 1);
}

#[test]
fn corrupt_frame_and_torn_checkpoint_leave_the_campaign_unchanged() {
    let (wl, bin) = planted();
    let prog = Program::shared(&bin);
    let mut single = Campaign::new(config(&wl, 1)).unwrap();
    let one = single.run_shared(&prog, &wl.seeds).to_json();
    let final_snapshot = single.snapshot(&bin).to_bytes();

    let dir = std::env::temp_dir().join(format!("teapot-fleet-invariants-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("fleet.tcs");
    // Worker 1 sends a corrupted frame in epoch 1 and the epoch-1
    // checkpoint write is torn; epochs 2 and 3 write cleanly.
    let opts = FleetOptions {
        workers: 2,
        checkpoint: Some(ckpt.clone()),
        chaos: Some(FaultPlan::parse("w1:corrupt@1,ckpt:short@1").unwrap()),
        ..FleetOptions::default()
    };
    let out = run_fleet_threads(&bin, &wl.seeds, &config(&wl, 1), opts).unwrap();
    assert_eq!(
        out.campaign.report().to_json(),
        one,
        "w1:corrupt@1,ckpt:short@1"
    );
    assert!(out.stats.quarantined >= 1, "{:?}", out.stats);
    assert_eq!(out.stats.checkpoint_faults, 1, "{:?}", out.stats);
    assert_eq!(std::fs::read(&ckpt).unwrap(), final_snapshot);

    // Tear the final checkpoint the way a crash mid-write would: the
    // load fails with a typed error and falls back to epoch 2's `.prev`,
    // which resumes to the same report.
    let bytes = std::fs::read(&ckpt).unwrap();
    std::fs::write(&ckpt, &bytes[..bytes.len() / 2]).unwrap();
    assert!(CampaignSnapshot::load(&ckpt).is_err());
    let (snap, fell_back) = CampaignSnapshot::load_with_fallback(&ckpt).unwrap();
    assert!(fell_back.is_some());
    assert_eq!(snap.epochs_done, 2);
    let mut resumed = Campaign::resume(&snap, &bin).unwrap();
    assert_eq!(
        resumed.run_shared(&prog, &wl.seeds).to_json(),
        one,
        "resumed from .prev"
    );
    std::fs::remove_dir_all(&dir).ok();
}
