//! The experiment harness: regenerates every figure and table of the
//! paper's evaluation (§3.1, §3.2, §7) on the TEA-64 substrate.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`runtime`] | Figure 1 (motivation) and Figure 7 (run-time comparison) |
//! | [`fig2`] | Figure 2 (compiler-divergence study) |
//! | [`table3`] | Table 3 (artificial-gadget detection) |
//! | [`table4`] | Table 4 (vanilla-binary gadget counts) |
//!
//! Throughput is not measured here: execs/s, replays/s, fleet overhead,
//! delta bytes and the per-layer VM/campaign/fabric/triage numbers come
//! from the repository benchmark (`perfbench/`, declared in
//! `BENCHMARK.json`); worker sweeps and time-to-first-gadget come from
//! `teapot campaign --workers N --metrics`.
//!
//! Absolute numbers differ from the paper (the substrate is a simulator
//! with a documented cost model, not an EPYC testbed); the *shape* —
//! orderings, ratios, crossovers — is the reproduction target.

use teapot_campaign::{run_campaign, CampaignConfig, CampaignReport};
use teapot_cc::Options;
use teapot_obj::Binary;
use teapot_vm::{Machine, RunOptions, SpecHeuristics};
use teapot_workloads::Workload;

pub mod fig2;
pub mod runtime;
pub mod table3;
pub mod table4;

/// Builds the stripped COTS binary of a workload (GCC-flavoured
/// lowering, like the paper's default toolchain for deployment).
pub fn cots_binary(w: &Workload) -> Binary {
    let mut bin = w
        .build(&Options {
            unit_name: w.name.into(),
            ..Options::gcc_like()
        })
        .unwrap_or_else(|e| panic!("{} does not compile: {e}", w.name));
    bin.strip();
    bin
}

/// Fuzzes `bin` the way the tables run every tool: a one-shard campaign
/// of one epoch, `iters` iterations after the seeds, under `cfg`'s
/// detector, dictionary and execution and heuristic styles.
pub fn fuzz_one_shard(
    bin: &Binary,
    seeds: &[Vec<u8>],
    iters: u64,
    cfg: CampaignConfig,
) -> CampaignReport {
    let cfg = CampaignConfig {
        shards: 1,
        epochs: 1,
        iters_per_epoch: iters,
        ..cfg
    };
    run_campaign(bin, seeds, &cfg).expect("valid one-shard campaign")
}

/// The "large crafted input" of the run-time experiments (§7.1), per
/// workload.
pub fn large_input(name: &str) -> Vec<u8> {
    match name {
        "jsmn" => {
            let mut v = b"[".to_vec();
            for i in 0..40 {
                if i > 0 {
                    v.push(b',');
                }
                v.extend_from_slice(format!("{{\"k{i}\": {i}, \"s\": \"x{i}\"}}").as_bytes());
            }
            v.push(b']');
            v.truncate(500);
            v
        }
        "libyaml" => {
            let mut v = Vec::new();
            for i in 0..30 {
                v.extend_from_slice(format!("key{i}: value{i}\n  sub{i}: {i}\n").as_bytes());
            }
            v.truncate(500);
            v
        }
        "libhtp" => {
            let mut v = b"GET /a/long/path/name HTTP/1.1\n".to_vec();
            for i in 0..12 {
                v.extend_from_slice(format!("H{i}: value{i}\n").as_bytes());
            }
            v.extend_from_slice(b"C: 64\n\n");
            v.extend_from_slice(&[b'x'; 64]);
            v
        }
        "brotli" => {
            let mut v = vec![0x40, 0x00];
            // many literal blocks
            for i in 0..30u8 {
                v.push(0b0011_0000); // btype=0, n=12
                v.extend_from_slice(&[i, i ^ 0x5a]);
            }
            v.truncate(400);
            v
        }
        "openssl" => {
            let mut v = Vec::new();
            for _ in 0..6 {
                v.extend_from_slice(&[
                    22, 3, 3, 0, 19, 1, 0, 16, 3, 3, 9, 9, 9, 9, 4, 0xaa, 0xbb, 0xcc, 0xdd, 0, 3,
                    0, 2, 4,
                ]);
            }
            v.extend_from_slice(&[21, 3, 3, 0, 2, 1, 40]);
            v
        }
        other => panic!("unknown workload {other}"),
    }
}

/// Runs a binary once and returns its cost.
pub fn run_cost(bin: &Binary, input: &[u8], opts: RunOptions) -> u64 {
    let mut heur = SpecHeuristics::default();
    let out = Machine::new(
        bin,
        RunOptions {
            input: input.to_vec(),
            ..opts
        },
    )
    .run(&mut heur);
    out.cost
}

/// Renders a simple aligned text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let hdr: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&hdr, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn large_inputs_exist_for_all_workloads() {
        for w in teapot_workloads::all() {
            let v = large_input(w.name);
            assert!(v.len() > 20, "{}", w.name);
        }
    }

    #[test]
    fn table_rendering() {
        let t = render_table(
            &["a", "bbb"],
            &[vec!["1".into(), "2".into()], vec!["10".into(), "20".into()]],
        );
        assert!(t.contains("bbb"));
        assert!(t.lines().count() == 4);
    }

    #[test]
    #[should_panic(expected = "unknown workload")]
    fn unknown_workload_panics() {
        large_input("nope");
    }
}
