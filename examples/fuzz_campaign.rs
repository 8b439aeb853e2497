//! A sharded fuzzing campaign against the brotli-like decompressor — the
//! paper's most gadget-dense workload — run through the
//! `teapot-campaign` orchestrator, then compared against SpecTaint's
//! five-tries heuristic (the reason the paper's Table 4 shows SpecTaint
//! missing nested brotli gadgets, §7.3).
//!
//! The orchestrator fans the campaign out over 4 shards (seed ⊕ shard),
//! exchanges interesting inputs at epoch barriers, and merges gadget
//! reports deterministically — the same merged set for any worker count.
//!
//! ```sh
//! cargo run --release --example fuzz_campaign
//! ```

use teapot_campaign::{run_campaign, Campaign, CampaignConfig};
use teapot_core::{rewrite, RewriteOptions};
use teapot_vm::{EmuStyle, HeurStyle, Program};

fn main() {
    let w = teapot_workloads::brotli_like();
    let mut cots = w
        .build(&teapot_cc::Options::gcc_like())
        .expect("workload compiles");
    cots.strip();

    // Teapot: Speculation Shadows + hybrid nested heuristic, scaled out
    // across shards by the campaign orchestrator.
    let instrumented = rewrite(&cots, &RewriteOptions::default()).expect("rewrite");
    let cfg = CampaignConfig {
        shards: 4,
        workers: 0, // one thread per CPU; never affects results
        epochs: 3,
        iters_per_epoch: 60,
        dictionary: w.dictionary.clone(),
        heur_style: HeurStyle::TeapotHybrid,
        ..CampaignConfig::default()
    };
    let mut campaign = Campaign::new(cfg).expect("valid campaign config");
    let teapot = campaign.run_shared(&Program::shared(&instrumented), &w.seeds);

    // SpecTaint: emulation of the original binary, five tries per
    // branch, one shard of one epoch (emulation is ~100x more expensive
    // per run, so the budget is much smaller).
    let spectaint_cfg = CampaignConfig {
        shards: 1,
        epochs: 1,
        iters_per_epoch: 60,
        dictionary: w.dictionary.clone(),
        emu: EmuStyle::SpecTaint,
        heur_style: HeurStyle::SpecTaintFive,
        ..CampaignConfig::default()
    };
    let spectaint = run_campaign(&cots, &w.seeds, &spectaint_cfg).expect("valid campaign config");

    println!(
        "Teapot   : {} unique gadgets across {} shards ({} execs) {:?}",
        teapot.unique_gadgets(),
        teapot.shards,
        teapot.iters,
        teapot.buckets
    );
    println!(
        "SpecTaint: {} unique gadgets ({} execs) {:?}",
        spectaint.unique_gadgets(),
        spectaint.iters,
        spectaint.buckets
    );
    println!(
        "\nTeapot found {}x the gadgets — the efficient detector affords\n\
         heavier speculation heuristics (paper §7.3 on brotli), and the\n\
         sharded campaign spreads them over every core.",
        if spectaint.unique_gadgets() == 0 {
            teapot.unique_gadgets()
        } else {
            teapot.unique_gadgets() / spectaint.unique_gadgets().max(1)
        }
    );
}
