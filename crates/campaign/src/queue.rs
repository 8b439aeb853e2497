//! Multi-binary queue mode: scan a directory of `.tof` binaries and run
//! instrument → fuzz → report over each in one invocation (the "scan a
//! whole corpus of COTS binaries" workflow that FastSpec argues for).
//!
//! Files are processed in lexicographic path order so a queue run is as
//! deterministic as a single-binary campaign. Binaries that are not yet
//! instrumented (per their TOF header flag) are rewritten with the
//! Speculation Shadows rewriter first; already-instrumented binaries are
//! fuzzed as-is.
//!
//! Across binaries the queue **recycles each shard's pooled
//! `ExecContext`**: the paged address space is re-cloned from the next
//! binary's pristine image (unavoidable — the bytes differ), but the
//! shadow engines, checkpoint stack, memory log, coverage scratch and
//! report buffers keep their allocations. Recycling is observably
//! identical to building fresh contexts (`ExecContext::reset` ==
//! `ExecContext::new` is a pipeline invariant), so queue results never
//! depend on it.

use crate::{Campaign, CampaignConfig, CampaignError, CampaignReport};
use std::path::{Path, PathBuf};
use teapot_core::{rewrite, RewriteOptions};
use teapot_obj::Binary;
use teapot_telemetry::json::{Layout, Obj, Raw};
use teapot_vm::{ExecContext, Program};

/// Outcome of one queued binary.
#[derive(Debug, Clone)]
pub struct QueueOutcome {
    /// Path of the `.tof` file.
    pub path: PathBuf,
    /// Whether the queue had to instrument it before fuzzing.
    pub instrumented_here: bool,
    /// The fuzz-ready (instrumented) binary the campaign ran against —
    /// kept so downstream consumers (triage replay) do not re-read and
    /// re-instrument the file.
    pub bin: Binary,
    /// The merged campaign report.
    pub report: CampaignReport,
}

/// Lists the `.tof` files under `dir`, sorted by path.
pub fn scan_queue(dir: &Path) -> Result<Vec<PathBuf>, CampaignError> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.is_file() && p.extension().and_then(|e| e.to_str()) == Some("tof"))
        .collect();
    paths.sort();
    Ok(paths)
}

/// Loads one queued binary, instrumenting it if required. Returns the
/// fuzz-ready binary and whether instrumentation happened here.
pub fn prepare_binary(path: &Path) -> Result<(Binary, bool), CampaignError> {
    let bytes = std::fs::read(path)?;
    let bin = Binary::from_bytes(&bytes).map_err(|e| CampaignError::Binary {
        path: path.display().to_string(),
        reason: format!("parse: {e}"),
    })?;
    if bin.flags.instrumented {
        return Ok((bin, false));
    }
    let rewritten =
        rewrite(&bin, &RewriteOptions::default()).map_err(|e| CampaignError::Binary {
            path: path.display().to_string(),
            reason: format!("instrument: {e}"),
        })?;
    Ok((rewritten, true))
}

/// Runs a full campaign over every `.tof` under `dir` with the same
/// orchestrator configuration. Returns per-binary outcomes in path
/// order; an unreadable or unrewritable binary aborts the queue with a
/// typed error naming the file. `seeds` initializes every campaign's
/// corpus (pass `&[]` for the default input).
pub fn run_queue(
    dir: &Path,
    cfg: &CampaignConfig,
    seeds: &[Vec<u8>],
) -> Result<Vec<QueueOutcome>, CampaignError> {
    let mut outcomes = Vec::new();
    // Per-shard execution contexts recycled across the whole queue.
    let mut ctx_pool: Vec<ExecContext> = Vec::new();
    for path in scan_queue(dir)? {
        let (bin, instrumented_here) = prepare_binary(&path)?;
        let mut campaign = Campaign::new(cfg.clone())?;
        campaign.donate_contexts(std::mem::take(&mut ctx_pool));
        let report = campaign.run_shared(&Program::shared(&bin), seeds);
        ctx_pool = campaign.harvest_contexts();
        outcomes.push(QueueOutcome {
            path,
            instrumented_here,
            bin,
            report,
        });
    }
    // Queue output is ordered by (binary path, then shard index inside
    // each report): downstream consumers — the JSON document and the
    // triage database — rely on this to stay byte-identical for every
    // `--workers` count. `scan_queue` already yields sorted paths; the
    // explicit sort pins the invariant against future scan changes.
    outcomes.sort_by(|a, b| a.path.cmp(&b.path));
    Ok(outcomes)
}

/// Renders queue outcomes as one deterministic JSON document keyed by
/// file name.
pub fn render_queue_json(outcomes: &[QueueOutcome]) -> String {
    use Layout::{Lines, Spaced};
    let mut o = Obj::new(Lines);
    o.list("queue", Lines, Spaced, outcomes, |row, oc| {
        row.field("path", oc.path.display().to_string())
            .field("instrumented_here", oc.instrumented_here)
            .field("report", Raw(oc.report.to_json().trim_end()));
    });
    let mut out = o.finish();
    out.push('\n');
    out
}
