//! Table 3: detecting artificially injected Spectre gadgets
//! (the SpecTaint evaluation methodology the paper adopts, §7.2).
//!
//! Gadget samples from the Kocher-style corpus are injected at fixed
//! attack points in each workload; the instrumented binaries are fuzzed;
//! reports pointing at injected gadget code are true positives, any other
//! report is a false positive, and silent injected gadgets are false
//! negatives. Per the paper's setup, normal taint sources are disabled
//! and the gadgets' input variable is the only attacker-direct datum
//! ([`DetectorConfig::artificial`]); the Massage policy is off.

use crate::fuzz_one_shard;
use teapot_baselines::{specfuzz_rewrite, SpecFuzzOptions};
use teapot_campaign::CampaignConfig;
use teapot_cc::Options;
use teapot_core::{rewrite, RewriteOptions};
use teapot_rt::DetectorConfig;
use teapot_vm::{EmuStyle, HeurStyle};
use teapot_workloads::{classify_reports, Workload};

/// Detection scores of one tool on one program.
#[derive(Debug, Clone)]
pub struct Score {
    /// True positives (injected gadgets reported).
    pub tp: usize,
    /// False positives (reports not at injected gadgets).
    pub fp: usize,
    /// False negatives (injected gadgets missed).
    pub fnn: usize,
}

impl Score {
    /// TP / (TP + FP).
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            return 1.0;
        }
        self.tp as f64 / (self.tp + self.fp) as f64
    }

    /// TP / ground truth.
    pub fn recall(&self) -> f64 {
        if self.tp + self.fnn == 0 {
            return 1.0;
        }
        self.tp as f64 / (self.tp + self.fnn) as f64
    }
}

/// One Table 3 row.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Program name.
    pub name: String,
    /// Ground truth (number of injected gadgets).
    pub gt: usize,
    /// Teapot (Speculation Shadows, Kasper policy).
    pub teapot: Score,
    /// SpecFuzz-style baseline (reproduced).
    pub specfuzz: Score,
    /// SpecTaint-style emulator.
    pub spectaint: Score,
}

/// Runs the experiment on the paper's four programs (openssl is dropped,
/// as in the paper, because its injection points were never published).
pub fn run(iters: u64) -> Vec<Table3Row> {
    let names = ["jsmn", "libyaml", "libhtp", "brotli"];
    let mut rows = Vec::new();
    for w in teapot_workloads::all() {
        if !names.contains(&w.name) {
            continue;
        }
        rows.push(run_one(&w, iters));
    }
    rows
}

fn seeds_with_prelude(w: &Workload) -> Vec<Vec<u8>> {
    // Injected builds consume two leading bytes for the gadget input;
    // seed it with an out-of-bounds value (the fuzzer mutates it anyway).
    w.seeds
        .iter()
        .map(|s| {
            let mut v = vec![0xff, 0x00];
            v.extend_from_slice(s);
            v
        })
        .collect()
}

/// Runs the experiment for one workload.
pub fn run_one(w: &Workload, iters: u64) -> Table3Row {
    let (orig, injected) = w
        .build_injected(&Options {
            unit_name: w.name.into(),
            ..Options::gcc_like()
        })
        .expect("injected build");
    let seeds = seeds_with_prelude(w);
    let detector = DetectorConfig::artificial();

    // Teapot.
    let teapot_bin = rewrite(&orig, &RewriteOptions::default()).expect("teapot rewrite");
    let res = fuzz_one_shard(
        &teapot_bin,
        &seeds,
        iters,
        CampaignConfig {
            detector: detector.clone(),
            dictionary: w.dictionary.clone(),
            heur_style: HeurStyle::TeapotHybrid,
            ..CampaignConfig::default()
        },
    );
    let (tp, fp, fnn) = classify_reports(&orig, &res.gadgets, &injected);
    let teapot = Score { tp, fp, fnn };

    // SpecFuzz baseline: ASan-only policy flags every speculative OOB.
    let sf_bin = specfuzz_rewrite(&orig, &SpecFuzzOptions::default()).expect("specfuzz rewrite");
    let res = fuzz_one_shard(
        &sf_bin,
        &seeds,
        iters,
        CampaignConfig {
            detector: detector.clone(),
            dictionary: w.dictionary.clone(),
            heur_style: HeurStyle::SpecFuzzGradual,
            ..CampaignConfig::default()
        },
    );
    let (tp, fp, fnn) = classify_reports(&orig, &res.gadgets, &injected);
    let specfuzz = Score { tp, fp, fnn };

    // SpecTaint: emulate the original injected binary.
    let res = fuzz_one_shard(
        &orig,
        &seeds,
        iters,
        CampaignConfig {
            detector,
            dictionary: w.dictionary.clone(),
            emu: EmuStyle::SpecTaint,
            heur_style: HeurStyle::SpecTaintFive,
            ..CampaignConfig::default()
        },
    );
    let (tp, fp, fnn) = classify_reports(&orig, &res.gadgets, &injected);
    let spectaint = Score { tp, fp, fnn };

    Table3Row {
        name: w.name.to_string(),
        gt: injected.len(),
        teapot,
        specfuzz,
        spectaint,
    }
}

/// Formats rows in the paper's Table 3 style.
pub fn render(rows: &[Table3Row]) -> String {
    let fmt = |s: &Score| -> Vec<String> {
        vec![
            s.tp.to_string(),
            s.fp.to_string(),
            s.fnn.to_string(),
            format!("{:.0}%", s.precision() * 100.0),
            format!("{:.0}%", s.recall() * 100.0),
        ]
    };
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut row = vec![r.name.clone(), r.gt.to_string()];
            row.extend(fmt(&r.spectaint));
            row.extend(fmt(&r.specfuzz));
            row.extend(fmt(&r.teapot));
            row
        })
        .collect();
    crate::render_table(
        &[
            "program", "GT", "ST.TP", "ST.FP", "ST.FN", "ST.Prec", "ST.Rec", "SF.TP", "SF.FP",
            "SF.FN", "SF.Prec", "SF.Rec", "TP", "FP", "FN", "Prec", "Rec",
        ],
        &table_rows,
    )
}

/// Where the rows break the paper's Table 3 shape, one line per broken
/// rule and program (empty when the shape holds). The shape: Teapot
/// reports no false positive, its precision is at least SpecFuzz's and
/// SpecTaint's, and its recall is at least SpecTaint's.
pub fn shape_breaks(rows: &[Table3Row]) -> Vec<String> {
    let mut breaks = Vec::new();
    for r in rows {
        let (t, name) = (&r.teapot, &r.name);
        if t.fp > 0 {
            breaks.push(format!("{name}: Teapot reports {} false positive(s)", t.fp));
        }
        for (tool, other) in [("SpecFuzz", &r.specfuzz), ("SpecTaint", &r.spectaint)] {
            if t.precision() < other.precision() {
                breaks.push(format!(
                    "{name}: Teapot precision {:.2} below {tool}'s {:.2}",
                    t.precision(),
                    other.precision()
                ));
            }
        }
        if t.recall() < r.spectaint.recall() {
            breaks.push(format!(
                "{name}: Teapot recall {:.2} below SpecTaint's {:.2}",
                t.recall(),
                r.spectaint.recall()
            ));
        }
    }
    breaks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(teapot: (usize, usize, usize), specfuzz: (usize, usize, usize)) -> Table3Row {
        let score = |(tp, fp, fnn)| Score { tp, fp, fnn };
        Table3Row {
            name: "p".to_string(),
            gt: 10,
            teapot: score(teapot),
            specfuzz: score(specfuzz),
            spectaint: score((7, 0, 3)),
        }
    }

    #[test]
    fn shape_breaks_name_each_broken_rule() {
        assert!(shape_breaks(&[row((8, 0, 2), (8, 12, 2))]).is_empty());
        assert_eq!(
            shape_breaks(&[row((6, 1, 4), (6, 0, 4))]),
            [
                "p: Teapot reports 1 false positive(s)",
                "p: Teapot precision 0.86 below SpecFuzz's 1.00",
                "p: Teapot precision 0.86 below SpecTaint's 1.00",
                "p: Teapot recall 0.60 below SpecTaint's 0.70",
            ]
        );
    }
}
