//! Byte pins for both rewriters.
//!
//! The Speculation Shadows rewriter (`teapot_core::rewrite`) and the
//! SpecFuzz-style single-copy baseline (`teapot_baselines::specfuzz_rewrite`)
//! share one reassembler; Fig 7 compares them on the assumption that
//! they disassemble, re-symbolize, retarget data and link identically.
//! This test pins one FNV-1a digest of `Binary::to_bytes()` per output:
//! the five workloads plus `spectre-rsb`/`spectre-stl`, × gcc-like and
//! clang-like lowering, × both rewriters, × default and
//! `perf_comparison()` options — 56 binaries.
//!
//! Regenerate only for an intended output change:
//! `TEAPOT_REGEN_GOLDENS=1 cargo test -q --test rewrite_goldens`.

use teapot_baselines::{specfuzz_rewrite, SpecFuzzOptions};
use teapot_cc::Options;
use teapot_core::{rewrite, RewriteOptions};
use teapot_obj::Binary;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One line per rewriter output: `workload lowering rewriter options digest`.
fn digests() -> String {
    let lowerings = [
        ("gcc", Options::gcc_like()),
        ("clang", Options::clang_like()),
    ];
    let mut out = String::new();
    for w in teapot_workloads::all()
        .into_iter()
        .chain(teapot_workloads::spec_suite())
    {
        for (lowering, cc) in &lowerings {
            let mut cots = w.build(cc).expect("compile");
            cots.strip();
            let outputs: [(&str, &str, Binary); 4] = [
                (
                    "teapot",
                    "default",
                    rewrite(&cots, &RewriteOptions::default()).expect("rewrite"),
                ),
                (
                    "teapot",
                    "perf_comparison",
                    rewrite(&cots, &RewriteOptions::perf_comparison()).expect("rewrite"),
                ),
                (
                    "specfuzz",
                    "default",
                    specfuzz_rewrite(&cots, &SpecFuzzOptions::default()).expect("rewrite"),
                ),
                (
                    "specfuzz",
                    "perf_comparison",
                    specfuzz_rewrite(&cots, &SpecFuzzOptions::perf_comparison()).expect("rewrite"),
                ),
            ];
            for (rewriter, opts, bin) in outputs {
                out += &format!(
                    "{} {lowering} {rewriter} {opts} {:016x}\n",
                    w.name,
                    fnv1a(&bin.to_bytes())
                );
            }
        }
    }
    out
}

#[test]
fn rewriter_outputs_match_committed_digests() {
    let path = format!(
        "{}/tests/fixtures/rewrite_goldens.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    let got = digests();
    if std::env::var_os("TEAPOT_REGEN_GOLDENS").is_some() {
        std::fs::write(&path, &got).expect("write fixture");
        return;
    }
    let want =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing fixture {path}: {e}"));
    let diverged: Vec<&str> = got
        .lines()
        .zip(want.lines())
        .filter(|(g, w)| g != w)
        .map(|(g, _)| g)
        .collect();
    assert!(
        diverged.is_empty() && got.lines().count() == want.lines().count(),
        "rewriter output diverged from {path}: {diverged:?}"
    );
}
