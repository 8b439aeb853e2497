//! Scan a realistic COTS binary: fuzz the libhtp-like HTTP parser and
//! report every gadget bucket (the paper's Table 4 workflow, §7.3).
//!
//! ```sh
//! cargo run --release --example scan_cots_binary
//! ```

use teapot_campaign::{run_campaign, CampaignConfig};
use teapot_core::{rewrite, RewriteOptions};

fn main() {
    let w = teapot_workloads::htp_like();
    println!(
        "workload: {} ({} injection points available)",
        w.name,
        w.inject_points()
    );

    // Build + strip: the analysis input is symbol-free.
    let mut cots = w
        .build(&teapot_cc::Options::gcc_like())
        .expect("workload compiles");
    cots.strip();

    let instrumented = rewrite(&cots, &RewriteOptions::default()).expect("rewrite");

    // One shard, one epoch: the plain sequential fuzzer.
    let cfg = CampaignConfig {
        shards: 1,
        epochs: 1,
        iters_per_epoch: 300,
        dictionary: w.dictionary.clone(),
        ..CampaignConfig::default()
    };
    let res = run_campaign(&instrumented, &w.seeds, &cfg).expect("valid campaign config");

    println!(
        "\n{} runs, corpus {}, {} normal / {} speculative coverage features",
        res.iters, res.corpus_total, res.cov_normal_features, res.cov_spec_features
    );
    println!("\ngadgets by bucket (Table 4 format):");
    for (bucket, n) in &res.buckets {
        println!("  {bucket:>14}: {n}");
    }
    println!("\nfirst reports:");
    for g in res.gadgets.iter().take(8) {
        println!("  {g}");
    }
}
