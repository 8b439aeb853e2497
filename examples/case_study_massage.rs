//! Appendix A.2 case study: the `list_size` −1-sentinel **memory
//! massage** gadget in the libhtp-like workload — three nested
//! mispredictions ending in a port-contention transmitter.
//!
//! ```sh
//! cargo run --release --example case_study_massage
//! ```
//!
//! The chain (paper Listing 6):
//! 1. `list_size(txs)`'s null check is mispredicted → returns `(uint)-1`,
//!    making the destroy loop speculatively unbounded;
//! 2. `list_get`'s two bounds checks are mispredicted → an out-of-bounds
//!    list slot is read: a **massaged pointer** (attacker-indirect data);
//! 3. dereferencing it loads a secret (Massage-MDS) and the secret decides
//!    a branch (Massage-Port).

use teapot_campaign::{run_campaign, CampaignConfig};
use teapot_core::{rewrite, RewriteOptions};

fn main() {
    let w = teapot_workloads::htp_like();
    let mut cots = w
        .build(&teapot_cc::Options::gcc_like())
        .expect("workload compiles");
    cots.strip();
    let instrumented = rewrite(&cots, &RewriteOptions::default()).expect("rewrite");

    // The massage chain fires on well-formed requests (the destroy path
    // runs unconditionally) — a short one-shard campaign suffices.
    let cfg = CampaignConfig {
        shards: 1,
        epochs: 1,
        iters_per_epoch: 150,
        dictionary: w.dictionary.clone(),
        ..CampaignConfig::default()
    };
    let res = run_campaign(&instrumented, &w.seeds, &cfg).expect("valid campaign config");

    println!("buckets: {:?}\n", res.buckets);
    let massage: Vec<_> = res
        .gadgets
        .iter()
        .filter(|g| g.bucket().starts_with("Massage"))
        .collect();
    for g in &massage {
        println!("  {g}");
    }
    assert!(
        !massage.is_empty(),
        "the Appendix A.2 massage chain must be detected"
    );
    let deep = res.gadgets.iter().map(|g| g.depth).max().unwrap_or(0);
    println!(
        "\ndeepest report used {deep} nested mispredictions — \
         SpecTaint (no massage policy) and Kasper (no nesting) both miss \
         this class (paper Appendix A.2)."
    );
}
