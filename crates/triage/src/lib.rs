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
//!    same [`GadgetKey`] must fire again. Each
//!    replay stops once the keys it asks about have fired.
//! 2. **Minimization** ([`minimize`](mod@minimize)) — ddmin shrinks the witness input
//!    to a minimal, canonical reproducer, validating every candidate by
//!    replay; witnesses of one discovering run share one candidate
//!    memo.
//! 3. **Enrichment + root-cause dedup** ([`enrich`]) — reports gain
//!    symbols (when present) and a 0–100 severity score, and collapse
//!    across shards *and binaries* under a content-derived root-cause
//!    key (position-normalized code hash), closing the ROADMAP's
//!    "cross-binary dedup in queue mode" follow-up.
//! 4. **Reporting** ([`db`], [`sarif`]) — a byte-deterministic
//!    [`TriageDb`] rendered as JSONL, ranked text and SARIF 2.1.0.
//!
//! Stages 1-2 and the provenance replay run on every available CPU
//! ([`std::thread::available_parallelism`]; restrict it with `taskset`
//! or a cgroup): each thread pools its own replayer over the input's one
//! shared program and claims the next group of witnesses that share a
//! discovering run (same input, same heuristic counts), and the
//! findings are inserted afterwards in report order. A group's triage is
//! a pure function of `(program, group)`, and each witness's result
//! equals its triage alone, so the database and its JSONL, text and
//! SARIF renderings — and the replay count — are identical for any
//! thread count.
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
//! let (db, stats, _) = triage_report("victim.tof", &bin, &cfg, &report,
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

use std::collections::{HashMap, HashSet};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use teapot_campaign::queue::QueueOutcome;
use teapot_campaign::{CampaignConfig, CampaignReport, ShardWitness};
use teapot_obj::Binary;
use teapot_rt::{GadgetKey, GadgetReport, GadgetWitness};
use teapot_vm::Program;

pub use db::{BinaryStats, TriageDb, TriageEntry, TriageLocation};
pub use enrich::{severity, Enricher};
pub use minimize::{minimize, minimize_group, MinimizeOutcome, DEFAULT_MAX_STEPS};
pub use provenance::{CausalChain, CausalStep, StepRole};
pub use replay::{run_fresh, ReplayConfig, ReplayOutcome, Replayer};

/// Knobs of a triage pass.
#[derive(Debug, Clone)]
pub struct TriageOptions {
    /// ddmin-minimize every witness (each candidate replay-validated).
    pub minimize: bool,
    /// ddmin candidate budget per witness.
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
    /// VM executions: validation, minimization and provenance replays.
    /// Witnesses of one discovering run share these, so `replays` can be
    /// smaller than `minimize_steps`.
    pub replays: u64,
    /// ddmin candidates tried, summed over witnesses. A candidate that
    /// several witnesses of one run try counts once per witness here but
    /// executes once.
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
///
/// All are thread-time summed over the triage threads (so they can
/// exceed the pass's wall time), accumulated exactly and rounded down
/// to milliseconds once per pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TriagePhaseTimes {
    /// Milliseconds spent validating and minimizing witnesses.
    pub replay_ms: u64,
    /// Milliseconds inside ddmin minimization alone (a subset of
    /// `replay_ms`).
    pub minimize_ms: u64,
    /// Milliseconds in provenance replays and chain extraction (not
    /// part of `replay_ms`).
    pub provenance_ms: u64,
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

/// Triages one campaign report against its binary. The
/// [`TriagePhaseTimes`] are wall-clock telemetry only.
pub fn triage_report(
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
/// re-instrumented. The [`TriagePhaseTimes`] are wall-clock telemetry
/// only.
pub fn triage_queue(
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
///
/// Witnesses are replayed on every available CPU
/// ([`std::thread::available_parallelism`], which honours affinity masks
/// and cgroup quotas): restrict it with `taskset` or a cgroup. The
/// database, stats and every rendering of them are byte-identical for
/// any thread count.
fn triage_timed<'a>(
    inputs: impl IntoIterator<Item = TriageInput<'a>>,
    opts: &TriageOptions,
) -> (TriageDb, TriageStats, TriagePhaseTimes) {
    let threads = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    triage_on(inputs, opts, threads)
}

/// [`triage_timed`] on at most `threads` triage threads per input.
fn triage_on<'a>(
    inputs: impl IntoIterator<Item = TriageInput<'a>>,
    opts: &TriageOptions,
    threads: usize,
) -> (TriageDb, TriageStats, TriagePhaseTimes) {
    let mut inputs: Vec<TriageInput<'a>> = inputs.into_iter().collect();
    inputs.sort_by(|a, b| a.label.cmp(&b.label));

    let mut db = TriageDb::new();
    let mut stats = TriageStats::default();
    let mut busy = Busy::default();
    // One input at a time: at most one triage `Program` is alive.
    for input in &inputs {
        triage_one(input, opts, threads, &mut db, &mut stats, &mut busy);
    }
    db.finalize();
    let times = TriagePhaseTimes {
        replay_ms: busy.replay.as_millis() as u64,
        minimize_ms: busy.minimize.as_millis() as u64,
        provenance_ms: busy.provenance.as_millis() as u64,
    };
    (db, stats, times)
}

/// Thread-time spent in the triage phases, summed exactly and converted
/// to [`TriagePhaseTimes`] milliseconds once.
#[derive(Default)]
struct Busy {
    replay: Duration,
    minimize: Duration,
    provenance: Duration,
}

impl Busy {
    fn add(&mut self, other: &Busy) {
        self.replay += other.replay;
        self.minimize += other.minimize;
        self.provenance += other.provenance;
    }
}

/// Most witnesses in one group: a [`Replayer::fired`] mask has 64 bits.
const GROUP_CAP: usize = 64;

/// What replaying one witness found. Computed on any triage thread; the
/// chain's symbols are filled in later, in report order.
#[derive(Default)]
struct Outcome {
    replayed: bool,
    minimized: Option<Vec<u8>>,
    steps: u32,
    chain: Option<provenance::CausalChain>,
}

fn triage_one(
    input: &TriageInput<'_>,
    opts: &TriageOptions,
    threads: usize,
    db: &mut TriageDb,
    stats: &mut TriageStats,
    busy: &mut Busy,
) {
    let report = input.report;
    let prog = Program::shared(input.bin);
    let enricher = Enricher::new(input.bin, &prog);

    let by_key: HashMap<GadgetKey, &GadgetReport> =
        report.gadgets.iter().map(|g| (g.key, g)).collect();
    // Witnessed gadgets, in report order: `report.witnesses` is already
    // deduplicated in shard-index order. A stale witness for a key the
    // report dropped is counted but not replayed.
    let jobs: Vec<(&ShardWitness, &GadgetReport)> = report
        .witnesses
        .iter()
        .filter_map(|sw| Some((sw, by_key.get(&sw.witness.key).copied()?)))
        .collect();
    stats.witnesses += report.witnesses.len();
    let cfg = ReplayConfig::from_campaign(&input.config);
    let outcomes = replay_all(&prog, &cfg, &jobs, opts, threads, stats, busy);

    // Entries go in one at a time, in report order, whatever order the
    // threads finished in.
    for ((sw, g), out) in jobs.iter().zip(outcomes) {
        if !out.replayed {
            stats.replay_failures += 1;
        }
        stats.minimize_steps += u64::from(out.steps);
        // Symbolization happens here so renderers stay plain-string.
        let chain = out.chain.map(|mut chain| {
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
            Some(&sw.witness),
            out.replayed,
            out.minimized,
            out.steps,
            chain,
        ));
    }

    // Witness-less gadgets (capture off, or pre-capture snapshots):
    // enriched and ranked, but with no reproducer. Shard attribution is
    // unknown without a witness and reported as shard 0.
    let witnessed: HashSet<GadgetKey> = report.witnesses.iter().map(|sw| sw.witness.key).collect();
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

    db.binaries.push(BinaryStats {
        binary: input.label.clone(),
        decode_stats: report.decode_stats,
        iters: report.iters,
        raw_gadgets: report.gadgets.len(),
    });
}

/// What identifies a discovering run: its input and pre-run heuristic
/// counts.
type RunId<'w> = (&'w [u8], &'w [(u64, u32)]);

/// Splits `witnesses` into groups from one discovering run: indices of
/// witnesses sharing `(input, heur_counts)`, in order, at most
/// [`GROUP_CAP`] per group. Groups are ordered by their first member.
fn group_runs<'w>(witnesses: impl IntoIterator<Item = &'w GadgetWitness>) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut open: HashMap<RunId<'w>, usize> = HashMap::new();
    for (i, w) in witnesses.into_iter().enumerate() {
        let run = (w.input.as_slice(), w.heur_counts.as_slice());
        match open.get(&run) {
            Some(&g) if groups[g].len() < GROUP_CAP => groups[g].push(i),
            _ => {
                open.insert(run, groups.len());
                groups.push(vec![i]);
            }
        }
    }
    groups
}

/// Replays, minimizes and provenance-replays every job on
/// `min(threads, groups)` scoped threads, each pooling its own
/// [`Replayer`] over the shared program. Threads claim whole groups
/// (see [`group_runs`]) from one counter, so the VM executions of a
/// group do not depend on the thread count; the outcomes come back in
/// job order.
fn replay_all(
    prog: &Arc<Program>,
    cfg: &ReplayConfig,
    jobs: &[(&ShardWitness, &GadgetReport)],
    opts: &TriageOptions,
    threads: usize,
    stats: &mut TriageStats,
    busy: &mut Busy,
) -> Vec<Outcome> {
    let groups = group_runs(jobs.iter().map(|(sw, _)| &sw.witness));
    // The counter only hands out indices; the results reach this thread
    // through `join`, which orders everything the workers wrote.
    let next = AtomicUsize::new(0);
    let work = || {
        let mut rp = Replayer::new(prog.clone(), cfg.clone());
        let mut busy = Busy::default();
        let mut done = Vec::new();
        loop {
            let g = next.fetch_add(1, Ordering::Relaxed);
            let Some(group) = groups.get(g) else {
                break;
            };
            let members: Vec<(&GadgetWitness, &GadgetReport)> = group
                .iter()
                .map(|&i| (&jobs[i].0.witness, jobs[i].1))
                .collect();
            let outs = replay_group(&mut rp, &members, opts, &mut busy);
            done.extend(group.iter().copied().zip(outs));
        }
        (done, rp.replays(), busy)
    };
    let parts = match threads.min(groups.len()) {
        0 => Vec::new(),
        1 => vec![work()],
        n => std::thread::scope(|s| {
            let handles: Vec<_> = (0..n).map(|_| s.spawn(work)).collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        }),
    };

    let mut slots: Vec<Option<Outcome>> = jobs.iter().map(|_| None).collect();
    for (done, replays, thread_busy) in parts {
        stats.replays += replays;
        busy.add(&thread_busy);
        for (i, out) in done {
            slots[i] = Some(out);
        }
    }
    slots
        .into_iter()
        .map(|o| o.expect("every job index is in exactly one claimed group"))
        .collect()
}

/// Triages the witnesses of one discovering run on a pooled replayer:
/// each member's outcome is what triaging it alone would give, but the
/// members share their ddmin candidate runs and one provenance replay.
fn replay_group(
    rp: &mut Replayer,
    group: &[(&GadgetWitness, &GadgetReport)],
    opts: &TriageOptions,
    busy: &mut Busy,
) -> Vec<Outcome> {
    let witnesses: Vec<&GadgetWitness> = group.iter().map(|&(w, _)| w).collect();
    let run = witnesses[0];
    // minimize_group() performs the validation replay itself (a `None`
    // is exactly "the witness did not reproduce"), so the witness is
    // executed once, not twice.
    let watch = Instant::now();
    let mut outs: Vec<Outcome> = if opts.minimize {
        let outs = minimize_group(rp, &witnesses, opts.max_minimize_steps)
            .into_iter()
            .map(|m| match m {
                Some(m) => Outcome {
                    replayed: true,
                    minimized: Some(m.input),
                    steps: m.steps,
                    chain: None,
                },
                None => Outcome::default(),
            })
            .collect();
        busy.minimize += watch.elapsed();
        outs
    } else {
        let keys: Vec<GadgetKey> = witnesses.iter().map(|w| w.key).collect();
        let fired = rp.fired(&run.input, &run.heur_counts, &keys);
        (0..group.len())
            .map(|j| {
                let replayed = (fired >> j) & 1 != 0;
                Outcome {
                    replayed,
                    minimized: replayed.then(|| run.input.clone()),
                    ..Outcome::default()
                }
            })
            .collect()
    };
    busy.replay += watch.elapsed();

    // One extra replay with the origin shadow on, stopped after the last
    // reproduced key's leak site, turns every reproduced witness into a
    // causal chain: `extract` reads the trace only up to its own key's
    // leak site.
    let reproduced: Vec<usize> = (0..group.len()).filter(|&j| outs[j].replayed).collect();
    if opts.provenance && !reproduced.is_empty() {
        let watch = Instant::now();
        let keys: Vec<GadgetKey> = reproduced.iter().map(|&j| group[j].0.key).collect();
        let (fired, trace) = rp.fired_provenance(&run.input, &run.heur_counts, &keys);
        for (bit, &j) in reproduced.iter().enumerate() {
            if (fired >> bit) & 1 != 0 {
                outs[j].chain = provenance::extract(&trace, group[j].1);
            }
        }
        busy.provenance += watch.elapsed();
    }
    outs
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;
    use teapot_campaign::Campaign;
    use teapot_rt::SpecModelSet;

    type Fixture = (Binary, CampaignConfig, CampaignReport);

    fn campaign(w: teapot_workloads::Workload, models: &str, iters: u64) -> Fixture {
        let mut cots = w.build(&teapot_cc::Options::gcc_like()).unwrap();
        cots.strip();
        let bin = teapot_core::rewrite(&cots, &teapot_core::RewriteOptions::default()).unwrap();
        let cfg = CampaignConfig {
            shards: 8,
            epochs: 2,
            iters_per_epoch: iters,
            models: SpecModelSet::parse(models).unwrap(),
            dictionary: w.dictionary.clone(),
            ..CampaignConfig::default()
        };
        let report = Campaign::new(cfg.clone())
            .unwrap()
            .run_shared(&Program::shared(&bin), &w.seeds);
        (bin, cfg, report)
    }

    /// Many short brotli witnesses under all three models plus a few
    /// deep-ddmin openssl ones, shared by the tests below.
    fn fixtures() -> &'static [(&'static str, Fixture); 2] {
        static FIXTURES: OnceLock<[(&str, Fixture); 2]> = OnceLock::new();
        FIXTURES.get_or_init(|| {
            [
                (
                    "brotli",
                    campaign(teapot_workloads::brotli_like(), "pht,rsb,stl", 5),
                ),
                ("openssl", campaign(teapot_workloads::ssl_like(), "pht", 10)),
            ]
        })
    }

    /// The threads finish groups out of order, and the reports must not
    /// show it.
    #[test]
    fn output_is_identical_for_any_thread_count() {
        let render = |threads| {
            let inputs = fixtures()
                .iter()
                .map(|(label, (bin, config, report))| TriageInput {
                    label: label.to_string(),
                    bin,
                    config: config.clone(),
                    report,
                });
            let (db, stats, _) = triage_on(inputs, &TriageOptions::default(), threads);
            (db.to_jsonl(), db.to_text(), sarif::render(&db), stats)
        };
        let one = render(1);
        assert!(one.3.witnesses >= 8, "too few witnesses: {:?}", one.3);
        assert_eq!(one.3.replay_failures, 0);
        for threads in [2, 3, 8] {
            let many = render(threads);
            assert!(many.0 == one.0, "JSONL differs on {threads} threads");
            assert!(many.1 == one.1, "text differs on {threads} threads");
            assert!(many.2 == one.2, "SARIF differs on {threads} threads");
            assert_eq!(
                many.3.replays, one.3.replays,
                "VM executions differ on {threads} threads"
            );
            assert_eq!(many.3, one.3, "stats differ on {threads} threads");
        }
    }

    /// ddmin as it was before witnesses shared their runs: every
    /// candidate is a full replay checked for the one key, with no memo
    /// and no stop set.
    fn minimize_alone(
        rp: &mut Replayer,
        w: &GadgetWitness,
        max_steps: u32,
    ) -> Option<MinimizeOutcome> {
        let reproduces = |rp: &mut Replayer, input: &[u8]| {
            rp.run(input, &w.heur_counts).iter().any(|g| g.key == w.key)
        };
        if !reproduces(rp, &w.input) {
            return None;
        }
        let mut steps = 0u32;
        let mut cur = w.input.clone();
        let mut budget_exhausted = false;
        let mut n = 2usize;
        'outer: while cur.len() >= 2 {
            let chunk = cur.len().div_ceil(n);
            let mut reduced = false;
            let mut start = 0usize;
            while start < cur.len() {
                let end = (start + chunk).min(cur.len());
                let mut cand = Vec::with_capacity(cur.len() - (end - start));
                cand.extend_from_slice(&cur[..start]);
                cand.extend_from_slice(&cur[end..]);
                if steps >= max_steps {
                    budget_exhausted = true;
                    break 'outer;
                }
                steps += 1;
                if reproduces(rp, &cand) {
                    cur = cand;
                    n = 2.max(n.saturating_sub(1));
                    reduced = true;
                    break;
                }
                start = end;
            }
            if !reduced {
                if chunk <= 1 {
                    break;
                }
                n = (n * 2).min(cur.len());
            }
        }
        for i in 0..cur.len() {
            if cur[i] == 0 {
                continue;
            }
            if steps >= max_steps {
                budget_exhausted = true;
                break;
            }
            steps += 1;
            let mut cand = cur.clone();
            cand[i] = 0;
            if reproduces(rp, &cand) {
                cur = cand;
            }
        }
        Some(MinimizeOutcome {
            input: cur,
            steps,
            budget_exhausted,
        })
    }

    #[test]
    fn grouped_minimization_equals_minimizing_each_witness_alone() {
        let (mut shared_groups, mut alone_replays, mut grouped_replays) = (0, 0, 0);
        for (label, (bin, config, report)) in fixtures() {
            let prog = Program::shared(bin);
            let cfg = ReplayConfig::from_campaign(config);
            let reported: HashSet<GadgetKey> = report.gadgets.iter().map(|g| g.key).collect();
            let witnesses: Vec<&GadgetWitness> = report
                .witnesses
                .iter()
                .map(|sw| &sw.witness)
                .filter(|w| reported.contains(&w.key))
                .collect();
            let mut alone = Replayer::new(prog.clone(), cfg.clone());
            let mut grouped = Replayer::new(prog, cfg);
            for group in group_runs(witnesses.iter().copied()) {
                shared_groups += usize::from(group.len() >= 2);
                let members: Vec<&GadgetWitness> = group.iter().map(|&i| witnesses[i]).collect();
                let outs = minimize_group(&mut grouped, &members, DEFAULT_MAX_STEPS);
                for (w, out) in members.iter().zip(outs) {
                    let want = minimize_alone(&mut alone, w, DEFAULT_MAX_STEPS);
                    assert_eq!(out, want, "{label}: {:?}", w.key);
                }
            }
            alone_replays += alone.replays();
            grouped_replays += grouped.replays();
        }
        assert!(shared_groups > 0, "no discovering run found two gadgets");
        assert!(
            grouped_replays < alone_replays,
            "grouping saved nothing: {grouped_replays} vs {alone_replays} replays"
        );
    }
}
