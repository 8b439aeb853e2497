//! Table 4: gadgets found in the unmodified (vanilla) workloads
//! (paper §7.3).
//!
//! Each vanilla binary is instrumented and fuzzed; Teapot's reports are
//! bucketed by `{User,Massage} × {MDS,Cache,Port}` and the SpecFuzz
//! baseline's (unclassified) report count is listed for reference — the
//! paper stresses the numbers are "not directly comparable as gadget
//! detection policies differ".

use crate::{cots_binary, fuzz_one_shard};
use std::collections::BTreeMap;
use teapot_baselines::{specfuzz_rewrite, SpecFuzzOptions};
use teapot_campaign::CampaignConfig;
use teapot_core::{rewrite, RewriteOptions};
use teapot_vm::{EmuStyle, HeurStyle};

/// One Table 4 row.
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// Program name.
    pub name: String,
    /// Teapot buckets (`User-MDS` … `Massage-Port`).
    pub buckets: BTreeMap<String, usize>,
    /// Total unique Teapot gadgets.
    pub total: usize,
    /// SpecFuzz (reproduced) unique report count.
    pub specfuzz: usize,
    /// SpecTaint-style emulator unique report count.
    pub spectaint: usize,
}

impl Table4Row {
    /// Bucket accessor.
    pub fn bucket(&self, name: &str) -> usize {
        self.buckets.get(name).copied().unwrap_or(0)
    }

    /// Sum over `User-*` buckets.
    pub fn total_user(&self) -> usize {
        self.buckets
            .iter()
            .filter(|(k, _)| k.starts_with("User"))
            .map(|(_, v)| v)
            .sum()
    }

    /// Sum over `Massage-*` buckets.
    pub fn total_massage(&self) -> usize {
        self.buckets
            .iter()
            .filter(|(k, _)| k.starts_with("Massage"))
            .map(|(_, v)| v)
            .sum()
    }
}

/// Runs the experiment over all five workloads.
pub fn run(iters: u64) -> Vec<Table4Row> {
    teapot_workloads::all()
        .iter()
        .map(|w| run_one(w, iters))
        .collect()
}

/// Runs the experiment for one workload.
pub fn run_one(w: &teapot_workloads::Workload, iters: u64) -> Table4Row {
    let cots = cots_binary(w);

    // Teapot.
    let teapot_bin = rewrite(&cots, &RewriteOptions::default()).expect("teapot rewrite");
    let res = fuzz_one_shard(
        &teapot_bin,
        &w.seeds,
        iters,
        CampaignConfig {
            dictionary: w.dictionary.clone(),
            heur_style: HeurStyle::TeapotHybrid,
            ..CampaignConfig::default()
        },
    );
    let total = res.unique_gadgets();
    let buckets = res.buckets;

    // SpecFuzz baseline.
    let sf_bin = specfuzz_rewrite(&cots, &SpecFuzzOptions::default()).expect("specfuzz rewrite");
    let sf = fuzz_one_shard(
        &sf_bin,
        &w.seeds,
        iters,
        CampaignConfig {
            dictionary: w.dictionary.clone(),
            heur_style: HeurStyle::SpecFuzzGradual,
            ..CampaignConfig::default()
        },
    );

    // SpecTaint-style emulation of the vanilla binary. Emulation is
    // ~100× more expensive per run: scale the iteration budget down, like
    // the paper's fixed wall-clock budget implicitly does.
    let st = fuzz_one_shard(
        &cots,
        &w.seeds,
        (iters / 10).max(10),
        CampaignConfig {
            dictionary: w.dictionary.clone(),
            emu: EmuStyle::SpecTaint,
            heur_style: HeurStyle::SpecTaintFive,
            ..CampaignConfig::default()
        },
    );

    Table4Row {
        name: w.name.to_string(),
        buckets,
        total,
        specfuzz: sf.unique_gadgets(),
        spectaint: st.unique_gadgets(),
    }
}

/// Formats rows in the paper's Table 4 style.
pub fn render(rows: &[Table4Row]) -> String {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.spectaint.to_string(),
                r.specfuzz.to_string(),
                r.bucket("User-MDS").to_string(),
                r.bucket("User-Cache").to_string(),
                r.bucket("User-Port").to_string(),
                r.bucket("Massage-MDS").to_string(),
                r.bucket("Massage-Cache").to_string(),
                r.bucket("Massage-Port").to_string(),
                r.total_user().to_string(),
                r.total_massage().to_string(),
                r.total.to_string(),
            ]
        })
        .collect();
    crate::render_table(
        &[
            "program",
            "SpecTaint",
            "SpecFuzz",
            "U-MDS",
            "U-Cache",
            "U-Port",
            "M-MDS",
            "M-Cache",
            "M-Port",
            "Tot U-*",
            "Tot M-*",
            "Tot *-*",
        ],
        &table_rows,
    )
}
