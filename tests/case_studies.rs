//! The paper's Appendix A case studies, end to end.
//!
//! * **A.1** — speculative read-offset manipulation in the LZ
//!   decompressor: present when the offset adjustment compiles to a
//!   branch, *gone* when it compiles to `cmov` (conditional moves are not
//!   speculated). This is the compiler-divergence false-positive /
//!   false-negative hazard of compiler-based detectors.
//! * **A.2** — the `list_size` −1-sentinel memory-massage chain in the
//!   HTTP parser: three nested mispredictions producing Massage-class
//!   reports that single-misprediction or no-massage-policy tools
//!   structurally cannot see.

use teapot::campaign::{CampaignConfig, CampaignReport};
use teapot::cc::Options;
use teapot::core::{rewrite, RewriteOptions};
use teapot_bench::fuzz_one_shard;

/// Distilled Appendix A.1 pattern with a driver that feeds the
/// attacker-controlled `dic_buf_size` metadata directly.
const A1_SRC: &str = "
    char inbuf[8];
    char *window;
    char *probs;
    int win_size;
    int win_pos;
    int rep0;
    int dic_buf_size;
    int sink;
    int try_dummy() {
        int x = win_pos - rep0;
        if (win_pos < rep0) {
            x = x + dic_buf_size;
        }
        if (x < 0) { return 0 - 1; }
        if (x >= win_size) { return 0 - 1; }
        int match_byte = window[x];
        sink = probs[(match_byte * 2) & 0x3ff];
        return 0;
    }
    int main() {
        win_size = 32;
        window = malloc(32);
        probs = malloc(1024);
        read_input(inbuf, 4);
        dic_buf_size = inbuf[0] + (inbuf[1] << 8);
        rep0 = inbuf[2] & 15;
        win_pos = 20;
        try_dummy();
        return 0;
    }";

fn campaign(src: &str, opts: &Options, iters: u64) -> CampaignReport {
    let mut cots = teapot::cc::compile_to_binary(src, opts).expect("compile");
    cots.strip();
    let inst = rewrite(&cots, &RewriteOptions::default()).expect("rewrite");
    fuzz_one_shard(
        &inst,
        &[vec![0xf0, 0xff, 3, 0]],
        iters,
        CampaignConfig::default(),
    )
}

#[test]
fn a1_gadget_present_with_branch_lowering() {
    let res = campaign(A1_SRC, &Options::gcc_like(), 150);
    assert!(
        res.bucket("User-MDS") >= 1 || res.bucket("User-Cache") >= 1,
        "A.1 offset-manipulation gadget must be detected: {:?}",
        res.buckets
    );
}

#[test]
fn a1_gadget_vanishes_with_cmov_if_conversion() {
    // Appendix A.1: "the if statement may not generate a branch, but
    // instead a conditional move; the gadget does not exist in the latter
    // case since conditional moves are not speculated."
    let opts = Options {
        cmov_if_conversion: true,
        ..Options::gcc_like()
    };
    // Verify the conversion actually applied to the offset adjustment.
    let bin = teapot::cc::compile_to_binary(A1_SRC, &opts).unwrap();
    let text = bin.section(".text").unwrap();
    let mut pc = text.vaddr;
    let mut cmovs = 0;
    while pc < text.vaddr + text.bytes.len() as u64 {
        let off = (pc - text.vaddr) as usize;
        let (i, len) = teapot::isa::decode_at(&text.bytes[off..], pc).unwrap();
        if matches!(i, teapot::isa::Inst::Cmov { .. }) {
            cmovs += 1;
        }
        pc += len as u64;
    }
    assert!(cmovs >= 1, "the offset adjustment must compile to cmov");

    let res = campaign(A1_SRC, &opts, 150);
    assert_eq!(
        res.bucket("User-MDS") + res.bucket("User-Cache"),
        0,
        "cmov lowering removes the A.1 gadget: {:?}",
        res.buckets
    );
}

#[test]
fn a2_massage_chain_detected_in_htp_workload() {
    let w = teapot::workloads::htp_like();
    let mut cots = w.build(&Options::gcc_like()).unwrap();
    cots.strip();
    let inst = rewrite(&cots, &RewriteOptions::default()).unwrap();
    let res = fuzz_one_shard(
        &inst,
        &w.seeds,
        150,
        CampaignConfig {
            dictionary: w.dictionary.clone(),
            ..CampaignConfig::default()
        },
    );
    let massage: usize = res
        .buckets
        .iter()
        .filter(|(k, _)| k.starts_with("Massage"))
        .map(|(_, v)| v)
        .sum();
    assert!(
        massage >= 1,
        "A.2 massage chain must be detected: {:?}",
        res.buckets
    );
    // The chain needs several nested mispredictions.
    let depth = res
        .gadgets
        .iter()
        .filter(|g| g.bucket().starts_with("Massage"))
        .map(|g| g.depth)
        .max()
        .unwrap_or(0);
    assert!(depth >= 3, "massage chain depth {depth} < 3");
}

#[test]
fn a2_chain_is_invisible_to_spectaint() {
    // SpecTaint "does not consider exploitation through memory massaging"
    // (Appendix A.2) — its policy has no massage class at all.
    let w = teapot::workloads::htp_like();
    let mut cots = w.build(&Options::gcc_like()).unwrap();
    cots.strip();
    let res = fuzz_one_shard(
        &cots,
        &w.seeds,
        40,
        CampaignConfig {
            emu: teapot::vm::EmuStyle::SpecTaint,
            heur_style: teapot::vm::HeurStyle::SpecTaintFive,
            dictionary: w.dictionary.clone(),
            ..CampaignConfig::default()
        },
    );
    assert!(
        res.buckets.keys().all(|k| !k.starts_with("Massage")),
        "SpecTaint must not produce Massage reports: {:?}",
        res.buckets
    );
}
