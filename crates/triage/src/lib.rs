//! `teapot-triage` — turns raw campaign output into an actionable,
//! deduplicated, severity-ranked gadget database.
//!
//! A fuzzing campaign ends with a pile of one-line gadget reports: a PC,
//! a bucket, a sentence. The paper's point of comparison tools show what
//! analysts actually need — SpecFuzz ships whitelisting/patch workflows
//! off its reports, oo7 ranks gadgets by attacker controllability. This
//! crate is that layer for Teapot, in four stages:
//!
//! 1. **Replay** ([`replay`]) — every gadget's [`GadgetWitness`]
//!    (triggering input + pre-run heuristic counts, captured by the VM's
//!    witness recorder) is re-executed on a pooled
//!    [`ExecContext`](teapot_vm::ExecContext); the VM's determinism
//!    makes the replay bit-identical to the discovering run, so the
//!    same [`GadgetKey`](teapot_rt::GadgetKey) must fire again.
//! 2. **Minimization** ([`minimize`]) — ddmin shrinks the witness input
//!    to a minimal, canonical reproducer, validating every candidate by
//!    replay.
//! 3. **Enrichment + root-cause dedup** ([`enrich`]) — reports gain
//!    symbols (when present) and a 0–100 severity score, and collapse
//!    across shards *and binaries* under a content-derived root-cause
//!    key (position-normalized code hash), closing the ROADMAP's
//!    "cross-binary dedup in queue mode" follow-up.
//! 4. **Reporting** ([`db`], [`sarif`]) — a byte-deterministic
//!    [`TriageDb`] rendered as JSONL, ranked text and SARIF 2.1.0.
//!
//! # Worked example: campaign → triage → SARIF
//!
//! ```
//! use teapot_campaign::{run_campaign, CampaignConfig};
//! use teapot_cc::{compile_to_binary, Options};
//! use teapot_core::{rewrite, RewriteOptions};
//! use teapot_triage::{triage_report, TriageOptions};
//!
//! // Build and instrument a victim with a classic Spectre-V1 gadget.
//! let src = "
//!     char bar[256]; int baz; char inbuf[16];
//!     int main() {
//!         char *foo = malloc(16);
//!         read_input(inbuf, 16);
//!         if (inbuf[1] < 10) { baz = bar[foo[inbuf[1]]]; }
//!         return 0;
//!     }";
//! let mut cots = compile_to_binary(src, &Options::gcc_like()).unwrap();
//! cots.strip();
//! let bin = rewrite(&cots, &RewriteOptions::default()).unwrap();
//!
//! // Fuzz it (a short campaign), then triage the findings.
//! let cfg = CampaignConfig { shards: 2, epochs: 2, iters_per_epoch: 40,
//!                            max_input_len: 16, ..CampaignConfig::default() };
//! let report = run_campaign(&bin, &[], &cfg).unwrap();
//! let (db, stats) = triage_report("victim.tof", &bin, &cfg, &report,
//!                                 &TriageOptions::default());
//!
//! // Every finding replayed, carries a minimized reproducer, and the
//! // database renders deterministically as JSONL / text / SARIF.
//! assert_eq!(stats.replay_failures, 0);
//! for e in db.entries() {
//!     assert!(e.replayed);
//!     assert!(e.minimized_input.is_some());
//! }
//! let sarif = teapot_triage::sarif::render(&db);
//! assert!(sarif.contains("\"version\": \"2.1.0\""));
//! # let _ = db.to_jsonl();
//! ```

pub mod db;
pub mod enrich;
pub mod minimize;
pub mod provenance;
pub mod replay;
pub mod sarif;

use std::collections::HashMap;
use teapot_campaign::queue::QueueOutcome;
use teapot_campaign::{CampaignConfig, CampaignReport};
use teapot_obj::Binary;
use teapot_rt::{GadgetKey, GadgetReport, GadgetWitness};
use teapot_telemetry::Stopwatch;
use teapot_vm::Program;

pub use db::{BinaryStats, TriageDb, TriageEntry, TriageLocation};
pub use enrich::{severity, Enricher};
pub use minimize::{minimize, MinimizeOutcome, DEFAULT_MAX_STEPS};
pub use provenance::{CausalChain, CausalStep, StepRole};
pub use replay::{run_fresh, ReplayConfig, ReplayOutcome, Replayer};

/// Knobs of a triage pass.
#[derive(Debug, Clone)]
pub struct TriageOptions {
    /// ddmin-minimize every witness (each candidate replay-validated).
    pub minimize: bool,
    /// Candidate-replay budget per witness.
    pub max_minimize_steps: u32,
    /// Replay every reproducing witness once with the VM's origin
    /// shadow on and attach the resulting causal chain (mispredict →
    /// tainted load → leaking access, with input-byte origins) to the
    /// finding. Off, findings render exactly as the pre-provenance
    /// pipeline did (pinned by `tests/provenance_differential.rs`).
    pub provenance: bool,
}

impl Default for TriageOptions {
    fn default() -> Self {
        TriageOptions {
            minimize: true,
            max_minimize_steps: DEFAULT_MAX_STEPS,
            provenance: true,
        }
    }
}

/// Work metrics of a triage pass (the counts behind the `triage`
/// telemetry event and the benchmark's `replays_per_s` and
/// `witnesses_per_s`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TriageStats {
    /// Total VM executions (witness replays + minimization candidates).
    pub replays: u64,
    /// Minimization candidate replays alone.
    pub minimize_steps: u64,
    /// Witnesses processed.
    pub witnesses: usize,
    /// Witnesses that failed to reproduce their gadget key (0 for any
    /// witness captured by this build against the same binary).
    pub replay_failures: usize,
}

/// Wall-clock phase timing of a triage pass. Kept separate from
/// [`TriageStats`] (which stays wall-clock-free and `Eq`-comparable):
/// these values may only ever appear in telemetry output, never in the
/// byte-pinned reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TriagePhaseTimes {
    /// Milliseconds spent processing witnesses end to end (replay
    /// validation plus minimization).
    pub replay_ms: u64,
    /// Milliseconds inside ddmin minimization alone (a subset of
    /// `replay_ms`).
    pub minimize_ms: u64,
}

/// One campaign to fold into a triage database.
pub struct TriageInput<'a> {
    /// Label used in reports and location lists (file name in queue
    /// mode).
    pub label: String,
    /// The fuzzed (instrumented) binary — replay target.
    pub bin: &'a Binary,
    /// The campaign's configuration (detector, emulation style,
    /// heuristic style and fuel are what replay needs).
    pub config: CampaignConfig,
    /// The merged campaign report with witnesses.
    pub report: &'a CampaignReport,
}

/// Triages one campaign report against its binary.
pub fn triage_report(
    label: &str,
    bin: &Binary,
    config: &CampaignConfig,
    report: &CampaignReport,
    opts: &TriageOptions,
) -> (TriageDb, TriageStats) {
    let (db, stats, _) = triage_report_timed(label, bin, config, report, opts);
    (db, stats)
}

/// [`triage_report`] plus wall-clock phase timing for telemetry.
pub fn triage_report_timed(
    label: &str,
    bin: &Binary,
    config: &CampaignConfig,
    report: &CampaignReport,
    opts: &TriageOptions,
) -> (TriageDb, TriageStats, TriagePhaseTimes) {
    triage_timed(
        std::iter::once(TriageInput {
            label: label.to_string(),
            bin,
            config: config.clone(),
            report,
        }),
        opts,
    )
}

/// Triages a whole queue run, folding every outcome into one
/// cross-binary database. Replays run against the instrumented binary
/// each [`QueueOutcome`] already carries — nothing is re-read or
/// re-instrumented.
pub fn triage_queue(
    outcomes: &[QueueOutcome],
    config: &CampaignConfig,
    opts: &TriageOptions,
) -> (TriageDb, TriageStats) {
    let (db, stats, _) = triage_queue_timed(outcomes, config, opts);
    (db, stats)
}

/// [`triage_queue`] plus wall-clock phase timing for telemetry.
pub fn triage_queue_timed(
    outcomes: &[QueueOutcome],
    config: &CampaignConfig,
    opts: &TriageOptions,
) -> (TriageDb, TriageStats, TriagePhaseTimes) {
    triage_timed(
        outcomes.iter().map(|o| TriageInput {
            label: o
                .path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| o.path.display().to_string()),
            bin: &o.bin,
            config: config.clone(),
            report: &o.report,
        }),
        opts,
    )
}

/// Folds any number of campaigns into one deduplicated, ranked database.
///
/// Inputs are processed in `(label, shard)` order regardless of the
/// iterator's order, so the resulting database — and its JSONL / SARIF
/// bytes — is a pure function of the campaign *results*, never of
/// worker counts or directory-scan order.
pub fn triage<'a>(
    inputs: impl IntoIterator<Item = TriageInput<'a>>,
    opts: &TriageOptions,
) -> (TriageDb, TriageStats) {
    let (db, stats, _) = triage_timed(inputs, opts);
    (db, stats)
}

/// [`triage`] plus wall-clock phase timing for telemetry. The timing is
/// observation-only: the database and stats are identical to an untimed
/// pass.
pub fn triage_timed<'a>(
    inputs: impl IntoIterator<Item = TriageInput<'a>>,
    opts: &TriageOptions,
) -> (TriageDb, TriageStats, TriagePhaseTimes) {
    let mut inputs: Vec<TriageInput<'a>> = inputs.into_iter().collect();
    inputs.sort_by(|a, b| a.label.cmp(&b.label));

    let mut db = TriageDb::new();
    let mut stats = TriageStats::default();
    let mut times = TriagePhaseTimes::default();
    for input in &inputs {
        triage_one(input, opts, &mut db, &mut stats, &mut times);
    }
    db.finalize();
    (db, stats, times)
}

fn triage_one(
    input: &TriageInput<'_>,
    opts: &TriageOptions,
    db: &mut TriageDb,
    stats: &mut TriageStats,
    times: &mut TriagePhaseTimes,
) {
    let report = input.report;
    let prog = Program::shared(input.bin);
    let enricher = Enricher::new(input.bin, &prog);
    let mut rp = Replayer::new(prog.clone(), ReplayConfig::from_campaign(&input.config));

    let by_key: HashMap<GadgetKey, &GadgetReport> =
        report.gadgets.iter().map(|g| (g.key, g)).collect();

    // Witnessed gadgets: replay, minimize, enrich. `report.witnesses`
    // is already deduplicated in shard-index order.
    let mut witnessed: std::collections::HashSet<GadgetKey> = std::collections::HashSet::new();
    for sw in &report.witnesses {
        let w = &sw.witness;
        witnessed.insert(w.key);
        stats.witnesses += 1;
        let Some(g) = by_key.get(&w.key).copied() else {
            continue; // stale witness for a key the report dropped
        };
        // minimize() performs the validation replay itself (its `None`
        // is exactly "the witness did not reproduce"), so the witness is
        // executed once, not twice.
        let watch = Stopwatch::new();
        let (replayed, minimized, steps) = if opts.minimize {
            let r = match minimize(&mut rp, w, opts.max_minimize_steps) {
                Some(m) => (true, Some(m.input), m.steps),
                None => (false, None, 0),
            };
            times.minimize_ms += watch.ms();
            r
        } else {
            let outcome = rp.replay(w);
            let minimized = outcome.reproduced.then(|| w.input.clone());
            (outcome.reproduced, minimized, 0)
        };
        times.replay_ms += watch.ms();
        if !replayed {
            stats.replay_failures += 1;
        }
        stats.minimize_steps += u64::from(steps);
        // One extra replay with the origin shadow on turns the witness
        // into a causal chain; symbolization happens here so renderers
        // stay plain-string.
        let chain = (opts.provenance && replayed)
            .then(|| rp.replay_provenance(w))
            .flatten()
            .and_then(|trace| provenance::extract(&trace, g))
            .map(|mut chain| {
                for step in &mut chain.steps {
                    step.symbol = enricher.symbolize(step.pc);
                }
                chain
            });
        db.insert(build_entry(
            &enricher,
            &input.label,
            sw.shard,
            g,
            Some(w),
            replayed,
            minimized,
            steps,
            chain,
        ));
    }

    // Witness-less gadgets (capture off, or pre-capture snapshots):
    // enriched and ranked, but with no reproducer. Shard attribution is
    // unknown without a witness and reported as shard 0.
    for g in &report.gadgets {
        if !witnessed.contains(&g.key) {
            db.insert(build_entry(
                &enricher,
                &input.label,
                0,
                g,
                None,
                false,
                None,
                0,
                None,
            ));
        }
    }

    stats.replays += rp.replays();
    db.binaries.push(BinaryStats {
        binary: input.label.clone(),
        decode_stats: report.decode_stats,
        iters: report.iters,
        raw_gadgets: report.gadgets.len(),
    });
}

#[allow(clippy::too_many_arguments)]
fn build_entry(
    enricher: &Enricher<'_>,
    label: &str,
    shard: u32,
    g: &GadgetReport,
    w: Option<&GadgetWitness>,
    replayed: bool,
    minimized_input: Option<Vec<u8>>,
    minimize_steps: u32,
    chain: Option<provenance::CausalChain>,
) -> TriageEntry {
    TriageEntry {
        root_cause: enricher.root_cause(g),
        bucket: g.bucket(),
        model: g.key.model,
        severity: severity(g, w),
        description: g.description.clone(),
        access_symbol: enricher.symbolize(g.access_pc),
        branch_symbol: enricher.symbolize(g.branch_pc),
        min_depth: g.depth,
        max_tainted_width: w.map(|w| w.max_tainted_width()).unwrap_or(0),
        witness_input: w.map(|w| w.input.clone()).unwrap_or_default(),
        minimized_input,
        minimize_steps,
        replayed,
        chain,
        locations: vec![TriageLocation {
            binary: label.to_string(),
            shard,
            key: g.key,
            branch_pc: g.branch_pc,
            access_pc: g.access_pc,
            depth: g.depth,
        }],
    }
}
