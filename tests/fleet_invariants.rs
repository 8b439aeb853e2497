//! The invariant the epoch engine rests on, checked at tier 1: one
//! campaign gives byte-identical JSON on one thread, on four threads, on
//! a two-worker loopback fleet, and on that fleet with a worker that
//! crashes mid-epoch and rejoins.
//!
//! The config is tiny but exercises every engine rule: adaptive budgets
//! and corpus minimization are on, all three speculation models run, and
//! the planted program gives the shards gadgets and inputs to trade.

use teapot_campaign::{Campaign, CampaignConfig};
use teapot_cc::Options;
use teapot_chaos::FaultPlan;
use teapot_core::{rewrite, RewriteOptions};
use teapot_fabric::{run_fleet_threads, FleetOptions};
use teapot_rt::SpecModelSet;
use teapot_vm::Program;

#[test]
fn threads_fleet_and_crashed_fleet_give_identical_campaign_json() {
    let wl = teapot_workloads::rsb_like();
    let mut cots = wl.build(&Options::gcc_like()).expect("compile");
    cots.strip();
    let bin = rewrite(&cots, &RewriteOptions::default()).expect("rewrite");
    let prog = Program::shared(&bin);
    let cfg = |workers| CampaignConfig {
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
    };
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
