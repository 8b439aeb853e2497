//! `teapot` — the command-line interface of the reproduction, mirroring
//! the paper artifact's scripts: compile workloads, instrument binaries
//! (Teapot or the SpecFuzz-style baseline), run them once, or fuzz them.
//!
//! ```text
//! teapot compile <workload|path.minic> -o out.tof [--clang]
//! teapot instrument <in.tof> -o out.tof [--baseline] [--no-nested]
//! teapot run <bin.tof> [--input-file f] [--spectaint] [--spec-models M]
//! teapot fuzz <bin.tof> [--iters N] [--workload name] [--spectaint]
//!             [--spec-models M]
//! teapot campaign <bin.tof|dir> [--workers N] [--fleet N] [--shards S]
//!                 [--epochs E] [--spec-models pht,rsb,stl]
//!                 [--resume snap.tcs] [--snapshot snap.tcs] [--json out]
//!                 [--triage out.jsonl] [--sarif out.sarif] [--no-triage]
//!                 [--metrics out.jsonl]
//! teapot serve <dir> [--addr host:port] [--fleet N] [--once]
//!              [campaign flags]
//! teapot work <host:port>
//! teapot triage <bin.tof|snap.tcs|dir> [--bin bin.tof] [--jsonl out]
//!               [--sarif out] [--no-minimize] [--metrics out.jsonl]
//!               [campaign flags]
//! teapot explain <report.jsonl|snap.tcs|bin.tof> [--gadget KEY]
//!                [--bin bin.tof] [campaign flags]
//! teapot stats <metrics.jsonl> [--top N]
//! teapot stats --diff <old.jsonl> <new.jsonl>
//! teapot dis <bin.tof>
//! ```
//!
//! `--metrics` streams the flat telemetry JSONL documented in
//! `teapot-telemetry`'s crate docs; it never changes any report byte
//! (the zero-perturbation invariant). `teapot stats` renders such a
//! stream as a human-readable run summary, including the symbolized
//! top-N hot-block profile; `stats --diff` compares two streams with
//! signed deltas. `teapot explain` narrates each finding's causal
//! chain — mispredict site, tainted loads, leaking access, and the
//! exact input bytes that steer the flow — from a provenance replay
//! (or re-renders the chains a triage JSONL already carries).
//!
//! Triage (`teapot triage`, and the pass at the end of `teapot
//! campaign`) replays witnesses on every available CPU, independent of
//! `--workers`; restrict it with `taskset` or a cgroup. Its JSONL, text
//! and SARIF are byte-identical for any thread count.

use std::collections::HashMap;
use std::process::ExitCode;
use teapot_telemetry::json::{self, Value};

fn main() -> ExitCode {
    // Rust ignores SIGPIPE, so `teapot stats m.jsonl | head` would panic
    // on its next print; a closed stdout ends a CLI tool quietly.
    #[cfg(unix)]
    {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGPIPE: i32 = 13;
        const SIG_DFL: usize = 0;
        // SAFETY: restoring the default disposition of one signal before
        // any thread starts.
        unsafe { signal(SIGPIPE, SIG_DFL) };
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("teapot: {e}");
            ExitCode::FAILURE
        }
    }
}

fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn opt<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(|s| s.as_str())
}

fn load(path: &str) -> Result<teapot_obj::Binary, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
    let bin = teapot_obj::Binary::from_bytes(&bytes).map_err(|e| format!("parse {path}: {e}"))?;
    teapot_vm::Program::check(&bin).map_err(|e| format!("{path}: {e}"))?;
    Ok(bin)
}

fn save(bin: &teapot_obj::Binary, path: &str) -> Result<(), String> {
    std::fs::write(path, bin.to_bytes()).map_err(|e| format!("write {path}: {e}"))
}

fn workloads() -> impl Iterator<Item = teapot_workloads::Workload> {
    teapot_workloads::all()
        .into_iter()
        .chain(teapot_workloads::spec_suite())
}

fn find_workload(name: &str) -> Option<teapot_workloads::Workload> {
    workloads().find(|w| w.name == name)
}

/// Resolves `--workload NAME`: `None` when the flag is absent, an error
/// naming the valid workloads when it is unknown (running on with no
/// seeds and no dictionary would silently fuzz something else).
fn workload_from_args(args: &[String]) -> Result<Option<teapot_workloads::Workload>, String> {
    let Some(name) = opt(args, "--workload") else {
        return Ok(None);
    };
    find_workload(name).map(Some).ok_or_else(|| {
        let valid: Vec<&str> = workloads().map(|w| w.name).collect();
        format!(
            "--workload: unknown workload `{name}` (valid: {})",
            valid.join(", ")
        )
    })
}

/// Fails when one of the space-separated value-taking flag `names` is
/// given without its value: a bare trailing `--resume` must not silently
/// start from scratch.
fn require_values(args: &[String], names: &str) -> Result<(), String> {
    match names
        .split_whitespace()
        .find(|&n| flag(args, n) && opt(args, n).is_none())
    {
        Some(name) => Err(format!("{name} requires a value")),
        None => Ok(()),
    }
}

/// Parses the shared `--spec-models pht,rsb,stl` flag (default: the
/// PHT-only pre-specmodel behavior).
fn spec_models_from_args(args: &[String]) -> Result<teapot_vm::SpecModelSet, String> {
    match opt(args, "--spec-models") {
        None => Ok(teapot_vm::SpecModelSet::PHT_ONLY),
        Some(s) => {
            let set = teapot_vm::SpecModelSet::parse(s).map_err(|e| e.to_string())?;
            if set.is_empty() {
                return Err("--spec-models must name at least one of pht, rsb, stl".into());
            }
            Ok(set)
        }
    }
}

fn parse_num<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    Ok(opt_num(args, name)?.unwrap_or(default))
}

fn opt_num<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    opt(args, name)
        .map(|s| s.parse().map_err(|_| format!("{name}: bad number `{s}`")))
        .transpose()
}

/// Builds a campaign configuration (and seed corpus) from the shared
/// `campaign`/`triage` flag set.
fn campaign_config_from_args(
    args: &[String],
) -> Result<(teapot_campaign::CampaignConfig, Vec<Vec<u8>>), String> {
    let defaults = teapot_campaign::CampaignConfig::default();
    let mut cfg = teapot_campaign::CampaignConfig {
        seed: parse_num(args, "--seed", defaults.seed)?,
        shards: parse_num(args, "--shards", defaults.shards)?,
        workers: parse_num(args, "--workers", defaults.workers)?,
        epochs: parse_num(args, "--epochs", defaults.epochs)?,
        iters_per_epoch: parse_num(args, "--iters", defaults.iters_per_epoch)?,
        ..defaults
    };
    if flag(args, "--spectaint") {
        cfg.emu = teapot_vm::EmuStyle::SpecTaint;
    }
    // `workers == 0` in the config means "one per CPU", but a user
    // *explicitly* asking for zero worker threads is asking for nothing
    // to run — reject it instead of silently falling back.
    if flag(args, "--workers") && cfg.workers == 0 {
        return Err(teapot_campaign::CampaignError::ZeroWorkers.to_string());
    }
    cfg.models = spec_models_from_args(args)?;
    let seeds = match workload_from_args(args)? {
        Some(w) => {
            cfg.dictionary = w.dictionary.clone();
            w.seeds.clone()
        }
        None => vec![],
    };
    Ok((cfg, seeds))
}

/// Parses `--fleet N`: `None` when absent, a typed error on an explicit
/// zero (a fleet with no workers cannot run anything).
fn fleet_from_args(args: &[String]) -> Result<Option<usize>, String> {
    match opt_num(args, "--fleet")? {
        Some(0) => Err(teapot_campaign::CampaignError::ZeroFleet.to_string()),
        n => Ok(n),
    }
}

/// Prints a triage database (ranked text + summary line) and writes the
/// optional JSONL / SARIF artifacts.
fn emit_triage(
    db: &teapot_triage::TriageDb,
    stats: &teapot_triage::TriageStats,
    jsonl_out: Option<&str>,
    sarif_out: Option<&str>,
) -> Result<(), String> {
    print!("{}", db.to_text());
    println!(
        "triage: {} root cause(s) from {} witness(es); {} replays \
         for {} minimization candidates, {} replay failure(s)",
        db.entries().len(),
        stats.witnesses,
        stats.replays,
        stats.minimize_steps,
        stats.replay_failures
    );
    if let Some(out) = jsonl_out {
        std::fs::write(out, db.to_jsonl()).map_err(|e| format!("write {out}: {e}"))?;
        println!("wrote {out}");
    }
    if let Some(out) = sarif_out {
        std::fs::write(out, teapot_triage::sarif::render(db))
            .map_err(|e| format!("write {out}: {e}"))?;
        println!("wrote {out}");
    }
    Ok(())
}

/// Renders a campaign-resume failure. A fingerprint mismatch names both
/// files and both fingerprints — "this snapshot belongs to a different
/// binary" is only actionable when the user can see *which* fingerprints
/// disagree and re-point one side.
fn resume_error(snap_path: &str, bin_path: &str, e: teapot_campaign::CampaignError) -> String {
    if let teapot_campaign::CampaignError::Snapshot(
        teapot_campaign::SnapshotError::BinaryMismatch { expected, actual },
    ) = &e
    {
        return format!(
            "{snap_path} was taken against a different binary than {bin_path}: \
             snapshot fingerprint {expected:#018x}, binary fingerprint {actual:#018x}"
        );
    }
    e.to_string()
}

fn file_label(path: &str) -> String {
    std::path::Path::new(path)
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.to_string())
}

/// Emits one `vm` event per shard plus the merged `counters` event.
/// Field names come from [`teapot_telemetry::VmCounters::for_each`],
/// keeping the JSONL schema pinned to the counter struct.
fn emit_vm_metrics(sink: &mut teapot_telemetry::MetricsSink, campaign: &teapot_campaign::Campaign) {
    use teapot_telemetry::Event;
    for (i, c) in campaign.vm_counters().iter().enumerate() {
        sink.emit(Event::new("vm").num("shard", i as u64).counters(c));
    }
    sink.emit(Event::new("counters").counters(&campaign.merged_vm_counters()));
}

/// Emits one `cost_hist` event per shard (only nonzero buckets, keyed
/// `b<k>` for runs whose cost had `ilog2 == k`).
fn emit_cost_hists(sink: &mut teapot_telemetry::MetricsSink, hists: &[[u64; 65]]) {
    for (i, h) in hists.iter().enumerate() {
        let mut ev = teapot_telemetry::Event::new("cost_hist").num("shard", i as u64);
        for (k, &n) in h.iter().enumerate() {
            if n > 0 {
                ev = ev.num(&format!("b{k}"), n);
            }
        }
        sink.emit(ev);
    }
}

/// Emits the top-`n` `hot_block` events from a merged guest profile,
/// mapped back to original-binary coordinates and symbolized through
/// the triage enricher (symbols are `null` for stripped binaries).
fn emit_hot_blocks(
    sink: &mut teapot_telemetry::MetricsSink,
    profile: &teapot_telemetry::BlockProfile,
    prog: &teapot_vm::Program,
    bin: &teapot_obj::Binary,
    n: usize,
) {
    let enricher = teapot_triage::Enricher::new(bin, prog);
    for (rank, b) in profile.top(n).iter().enumerate() {
        let orig = prog
            .meta()
            .and_then(|m| m.to_original(b.start))
            .unwrap_or(b.start);
        let sym = enricher.symbolize(orig);
        sink.emit(
            teapot_telemetry::Event::new("hot_block")
                .num("rank", rank as u64 + 1)
                .hex("pc", b.start)
                .hex("end", b.end)
                .hex("orig_pc", orig)
                .opt_str("symbol", sym.as_deref())
                .num("cost", b.cost)
                .num("insts", b.insts)
                .num("hits", b.hits),
        );
    }
}

/// The `triage` telemetry event shared by `campaign --metrics` and
/// `triage --metrics`.
fn triage_event(
    db: &teapot_triage::TriageDb,
    stats: &teapot_triage::TriageStats,
    times: &teapot_triage::TriagePhaseTimes,
) -> teapot_telemetry::Event {
    teapot_telemetry::Event::new("triage")
        .num("replays", stats.replays)
        .num("minimize_steps", stats.minimize_steps)
        .num("witnesses", stats.witnesses as u64)
        .num("replay_failures", stats.replay_failures as u64)
        .num("dedup_collapses", db.dedup_collapses())
        .num("root_causes", db.entries().len() as u64)
        .num("replay_ms", times.replay_ms)
        .num("minimize_ms", times.minimize_ms)
        .num("provenance_ms", times.provenance_ms)
}

/// Reads a JSONL file as one parsed object per non-blank line. A line
/// that is not a JSON object fails the whole read as
/// `path:line: <JsonError>`.
fn read_jsonl(path: &str) -> Result<Vec<Value>, String> {
    read_text(path)?
        .lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| {
            json::parse(line)
                .and_then(|v| match v {
                    Value::Obj(_) => Ok(v),
                    _ => Err(json::JsonError {
                        offset: line.len() - line.trim_start().len(),
                        expected: "a JSON object",
                    }),
                })
                .map_err(|e| format!("{path}:{}: {e}", i + 1))
        })
        .collect()
}

/// A string member of a parsed JSONL object.
fn text<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    v.get(key).and_then(Value::as_str)
}

/// An unsigned integer member of a parsed JSONL object.
fn num(v: &Value, key: &str) -> Option<u64> {
    v.get(key).and_then(Value::as_u64)
}

/// Narrates one explained finding: header, reproducer, then the causal
/// timeline (shared verbatim between the replay path and the
/// JSONL-re-render path of `teapot explain`).
#[allow(clippy::too_many_arguments)]
fn print_explained(
    root: &str,
    severity: u64,
    bucket: &str,
    model: Option<&str>,
    description: &str,
    reproducer: Option<&str>,
    leaked: &str,
    steps: &[teapot_triage::CausalStep],
) {
    let via = model.map(|m| format!(" [via {m}]")).unwrap_or_default();
    println!("gadget {root} [severity {severity}] {bucket}{via}");
    println!("  {description}");
    match reproducer {
        Some(h) => println!("  reproducer ({} byte(s)): {h}", h.len() / 2),
        None => println!("  no minimized reproducer"),
    }
    if steps.is_empty() {
        println!(
            "  no causal chain recorded (provenance off, no witness, \
             or the witness did not reproduce)"
        );
    } else {
        println!("  leaks input bytes {leaked}:");
        for (i, s) in steps.iter().enumerate() {
            println!("    {}. {}", i + 1, teapot_triage::provenance::step_line(s));
        }
    }
    println!();
}

fn parse_hex_pc(s: &str) -> Option<u64> {
    u64::from_str_radix(s.strip_prefix("0x")?, 16).ok()
}

/// Parses the `OriginSpan` display form back (`-`, `3`, `0-1`).
fn parse_origin(s: &str) -> teapot_rt::OriginSpan {
    let span = |t: &str| t.parse().ok().map(teapot_rt::OriginSpan::from_offset);
    match s.split_once('-') {
        Some((lo, hi)) => match (span(lo), span(hi)) {
            (Some(lo), Some(hi)) => lo.join(hi),
            _ => teapot_rt::OriginSpan::NONE,
        },
        None => span(s).unwrap_or(teapot_rt::OriginSpan::NONE),
    }
}

/// Rebuilds the causal steps from one triage-JSONL finding's `chain`
/// array (empty when the finding has none).
fn chain_from_jsonl(finding: &Value) -> Vec<teapot_triage::CausalStep> {
    let steps = finding.get("chain").and_then(Value::as_array);
    steps
        .unwrap_or_default()
        .iter()
        .filter_map(|step| {
            use teapot_triage::StepRole;
            let role = match text(step, "role")? {
                "mispredict" => StepRole::Mispredict,
                "tainted-load" => StepRole::TaintedLoad,
                "leak" => StepRole::Leak,
                _ => return None,
            };
            Some(teapot_triage::CausalStep {
                role,
                pc: parse_hex_pc(text(step, "pc")?)?,
                symbol: text(step, "symbol").map(str::to_string),
                model: text(step, "model")
                    .and_then(|m| m.parse().ok())
                    .unwrap_or(teapot_vm::SpecModel::Pht),
                depth: num(step, "depth")
                    .and_then(|d| d.try_into().ok())
                    .unwrap_or(0),
                addr: text(step, "addr").and_then(parse_hex_pc).unwrap_or(0),
                width: num(step, "width")
                    .and_then(|w| w.try_into().ok())
                    .unwrap_or(0),
                tag: 0,
                origin: parse_origin(text(step, "origin").unwrap_or("-")),
            })
        })
        .collect()
}

/// The `triage` event keys `stats` and `stats --diff` report, in
/// print order.
const TRIAGE_KEYS: [&str; 8] = [
    "root_causes",
    "witnesses",
    "replays",
    "minimize_steps",
    "dedup_collapses",
    "replay_ms",
    "minimize_ms",
    "provenance_ms",
];

/// A metrics stream read in one pass: its events grouped by `event`
/// kind, each group in stream order.
struct Metrics {
    by_kind: HashMap<String, Vec<Value>>,
}

/// The named numeric series of a stream, each in stream order.
struct Series {
    /// `(name, wall_ms)` per `span` event.
    spans: Vec<(String, u64)>,
    /// The `counters` event's keys.
    counters: Vec<(String, u64)>,
    /// The [`TRIAGE_KEYS`] the `triage` event carries.
    triage: Vec<(String, u64)>,
}

impl Metrics {
    fn read(path: &str) -> Result<Metrics, String> {
        let mut by_kind: HashMap<String, Vec<Value>> = HashMap::new();
        for v in read_jsonl(path)? {
            if let Some(ev) = text(&v, "event").map(str::to_string) {
                by_kind.entry(ev).or_default().push(v);
            }
        }
        if !by_kind.contains_key("meta") {
            return Err(format!(
                "{path}: no `meta` event found (expected a --metrics JSONL stream)"
            ));
        }
        Ok(Metrics { by_kind })
    }

    fn all(&self, kind: &str) -> &[Value] {
        self.by_kind.get(kind).map_or(&[], Vec::as_slice)
    }

    fn last(&self, kind: &str) -> Option<&Value> {
        self.all(kind).last()
    }

    /// A string field of the last `meta` event (`?` when absent).
    fn meta(&self, key: &str) -> &str {
        self.last("meta").and_then(|m| text(m, key)).unwrap_or("?")
    }

    fn series(&self) -> Series {
        let spans = self
            .all("span")
            .iter()
            .filter_map(|l| Some((text(l, "name")?.to_string(), num(l, "wall_ms")?)))
            .collect();
        let counters = self
            .last("counters")
            .and_then(Value::members)
            .unwrap_or_default()
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_u64()?)))
            .collect();
        let triage = self.last("triage").map_or_else(Vec::new, |l| {
            TRIAGE_KEYS
                .iter()
                .filter_map(|k| Some((k.to_string(), num(l, k)?)))
                .collect()
        });
        Series {
            spans,
            counters,
            triage,
        }
    }
}

fn read_text(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))
}

/// One `old -> new  delta` diff row; a side missing the series shows
/// `-` and no delta.
fn diff_row(key: &str, old: Option<u64>, new: Option<u64>, w: usize) -> String {
    let delta = match (old, new) {
        (Some(o), Some(n)) => format!("{:+}", n as i128 - i128::from(o)),
        _ => "n/a".to_string(),
    };
    let cell = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
    format!(
        "{key:<w$} {:>12} -> {:>12}  {delta:>12}",
        cell(old),
        cell(new)
    )
}

/// Merges two named series into `(key, old, new)` rows, old-stream
/// order first, then new-only keys.
fn diff_pairs(
    old: &[(String, u64)],
    new: &[(String, u64)],
) -> Vec<(String, Option<u64>, Option<u64>)> {
    let mut keys: Vec<&String> = old.iter().map(|(k, _)| k).collect();
    for (k, _) in new {
        if !keys.contains(&k) {
            keys.push(k);
        }
    }
    keys.into_iter()
        .map(|k| {
            let find = |rows: &[(String, u64)]| rows.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
            (k.clone(), find(old), find(new))
        })
        .collect()
}

/// `teapot stats --diff old.jsonl new.jsonl`: signed deltas over phase
/// timings, VM counters, triage work and the run summary.
fn stats_diff(old_path: &str, new_path: &str) -> Result<(), String> {
    let (old, new) = (Metrics::read(old_path)?, Metrics::read(new_path)?);
    println!("metrics diff: {old_path} -> {new_path}");
    for (side, m) in [("old", &old), ("new", &new)] {
        println!(
            "  {side}: {} (models {})",
            m.meta("binary"),
            m.meta("models")
        );
    }
    let (olds, news) = (old.series(), new.series());

    let spans = diff_pairs(&olds.spans, &news.spans);
    if !spans.is_empty() {
        println!("\nphase timings (wall ms):");
        for (k, o, n) in &spans {
            println!("  {}", diff_row(k, *o, *n, 12));
        }
    }
    let counters = diff_pairs(&olds.counters, &news.counters);
    if !counters.is_empty() {
        let changed: Vec<_> = counters.iter().filter(|(_, o, n)| o != n).collect();
        println!(
            "\nvm counters ({} changed of {}):",
            changed.len(),
            counters.len()
        );
        let w = changed.iter().map(|(k, ..)| k.len()).max().unwrap_or(0);
        for (k, o, n) in &changed {
            println!("  {}", diff_row(k, *o, *n, w));
        }
        if changed.is_empty() {
            println!("  (all identical)");
        }
    }
    let triage = diff_pairs(&olds.triage, &news.triage);
    if !triage.is_empty() {
        println!("\ntriage:");
        for (k, o, n) in &triage {
            println!("  {}", diff_row(k, *o, *n, 15));
        }
    }
    println!("\nsummary:");
    const W: usize = 26;
    let (old_sum, new_sum) = (old.last("summary"), new.last("summary"));
    let field = |s: Option<&Value>, k: &str| s.and_then(|s| num(s, k));
    let row = |k: &str| println!("  {}", diff_row(k, field(old_sum, k), field(new_sum, k), W));
    row("execs");
    row("wall_ms");
    let rate = |s: Option<&Value>| {
        s.and_then(|s| s.get("execs_per_sec")?.as_number()?.parse::<f64>().ok())
    };
    if let (Some(o), Some(n)) = (rate(old_sum), rate(new_sum)) {
        println!(
            "  {:<W$} {o:>12.1} -> {n:>12.1}  {:>+12.1}",
            "execs_per_sec",
            n - o
        );
    }
    row("unique_gadgets");
    row("time_to_first_gadget_execs");
    Ok(())
}

/// `teapot stats metrics.jsonl [--top N]`: the stream as a human run
/// report.
fn stats(path: &str, top: usize) -> Result<(), String> {
    let m = Metrics::read(path)?;
    let series = m.series();
    let meta = m.last("meta").expect("Metrics::read requires a meta event");
    let (bin, models) = (m.meta("binary"), m.meta("models"));
    match (
        num(meta, "seed"),
        num(meta, "shards"),
        num(meta, "epochs"),
        num(meta, "iters_per_epoch"),
        num(meta, "workers"),
    ) {
        (Some(seed), Some(shards), Some(eps), Some(iters), Some(workers)) => println!(
            "{bin}: seed {seed}, {shards} shard(s) x {eps} epoch(s) x \
             {iters} iters/epoch, models {models}, {workers} worker(s)"
        ),
        _ => println!("{bin}: models {models}"),
    }
    if let (Some(recs), Some(fused), Some(sites)) = (
        num(meta, "compiled_records"),
        num(meta, "compiled_fused"),
        num(meta, "heuristic_sites"),
    ) {
        println!("compiled: {recs} records ({fused} fused), {sites} heuristic sites");
    }
    if !series.spans.is_empty() {
        let spans: Vec<String> = series
            .spans
            .iter()
            .map(|(n, ms)| format!("{n} {ms} ms"))
            .collect();
        println!("phases: {}", spans.join(", "));
    }
    let epochs = m.all("epoch");
    if !epochs.is_empty() {
        println!("\nepoch     execs    corpus   gadgets   wall_ms");
        for l in epochs {
            let [e, x, c, g, w] = ["epoch", "execs", "corpus", "unique_gadgets", "wall_ms"]
                .map(|k| num(l, k).unwrap_or(0));
            println!("{e:>5} {x:>9} {c:>9} {g:>9} {w:>9}");
        }
    }
    if !series.counters.is_empty() {
        println!("\nvm counters (all shards):");
        let width = series
            .counters
            .iter()
            .map(|(k, _)| k.len())
            .max()
            .unwrap_or(0);
        for (k, v) in &series.counters {
            println!("  {k:<width$}  {v:>12}");
        }
    }
    let hot = m.all("hot_block");
    if !hot.is_empty() {
        println!(
            "\nhot blocks (top {} of {}):",
            top.min(hot.len()),
            hot.len()
        );
        println!(" rank         pc    orig_pc        cost     insts      hits  symbol");
        for l in hot.iter().take(top) {
            let [rank, cost, insts, hits] =
                ["rank", "cost", "insts", "hits"].map(|k| num(l, k).unwrap_or(0));
            let [pc, orig] = ["pc", "orig_pc"].map(|k| text(l, k).unwrap_or("?"));
            let sym = text(l, "symbol").unwrap_or("-");
            println!("{rank:>5} {pc:>10} {orig:>10} {cost:>11} {insts:>9} {hits:>9}  {sym}");
        }
    }
    let (mut leases, mut lease_bytes) = (0u64, 0u64);
    let (mut merges, mut merge_bytes, mut merge_ms) = (0u64, 0u64, 0u64);
    let mut deaths = Vec::new();
    let mut chaos_events = Vec::new();
    let (mut checkpoints, mut checkpoint_faults) = (0u64, 0u64);
    for l in m.all("fabric") {
        let str_of = |k: &str| text(l, k).unwrap_or("?");
        let num_of = |k: &str| num(l, k).unwrap_or(0);
        match text(l, "op") {
            Some("lease") => {
                leases += 1;
                lease_bytes += num_of("bytes");
            }
            Some("merge") => {
                merges += 1;
                merge_bytes += num_of("bytes");
                merge_ms += num_of("wall_ms");
            }
            Some("worker_dead") => {
                deaths.push(format!("{} at epoch {}", str_of("worker"), num_of("epoch")));
            }
            Some("quarantine") => {
                chaos_events.push(format!(
                    "quarantined {}: {}",
                    str_of("worker"),
                    str_of("error")
                ));
            }
            Some("rejoin") => chaos_events.push(format!("rejoined {}", str_of("worker"))),
            Some("checkpoint") => checkpoints += 1,
            Some("checkpoint_fault") => {
                checkpoint_faults += 1;
                chaos_events.push(format!(
                    "checkpoint fault ({}) at epoch {}",
                    str_of("kind"),
                    num_of("epoch")
                ));
            }
            _ => {}
        }
    }
    if leases + merges > 0 || !deaths.is_empty() {
        println!(
            "\nfabric: {leases} lease(s) shipping {lease_bytes} bytes, \
             {merges} barrier merge(s) over {merge_bytes} delta bytes \
             in {merge_ms} ms, {} worker death(s)",
            deaths.len()
        );
        for d in &deaths {
            println!("  dead: {d}");
        }
        if checkpoints + checkpoint_faults > 0 {
            println!("  checkpoints: {checkpoints} written, {checkpoint_faults} fault(s)");
        }
        for c in &chaos_events {
            println!("  chaos: {c}");
        }
    }
    let firsts = m.all("gadget_first_seen");
    if !firsts.is_empty() {
        println!("\nfirst gadget sightings:");
        for l in firsts.iter().take(5) {
            println!(
                "  exec {} at {} ({}, shard {})",
                num(l, "exec").unwrap_or(0),
                text(l, "pc").unwrap_or("?"),
                text(l, "model").unwrap_or("?"),
                num(l, "shard").unwrap_or(0),
            );
        }
        if firsts.len() > 5 {
            println!("  ... and {} more", firsts.len() - 5);
        }
    }
    if m.last("triage").is_some() {
        let [roots, witnesses, replays, steps, collapses, replay_ms, minimize_ms, prov_ms] =
            TRIAGE_KEYS.map(|k| {
                series
                    .triage
                    .iter()
                    .find(|(n, _)| n == k)
                    .map_or(0, |(_, v)| *v)
            });
        println!(
            "\ntriage: {roots} root cause(s) from {witnesses} witness(es); {replays} replays \
             for {steps} minimization candidates, {collapses} dedup collapse(s), \
             {replay_ms} ms replaying ({minimize_ms} ms minimizing), {prov_ms} ms in provenance \
             replays (thread-time summed over triage threads)"
        );
    }
    if let Some(s) = m.last("summary") {
        let ttf = num(s, "time_to_first_gadget_execs")
            .map(|n| format!("{n} execs"))
            .unwrap_or_else(|| "n/a".into());
        println!(
            "\nsummary: {} execs in {} ms ({} execs/sec), {} unique \
             gadget(s), first gadget after {ttf}",
            num(s, "execs").unwrap_or(0),
            num(s, "wall_ms").unwrap_or(0),
            s.get("execs_per_sec")
                .and_then(Value::as_number)
                .unwrap_or("?"),
            num(s, "unique_gadgets").unwrap_or(0),
        );
    }
    Ok(())
}

/// A finished single-binary campaign, handed from its executor to the
/// shared report tail ([`report_campaign`]).
struct CampaignRun {
    campaign: teapot_campaign::Campaign,
    report: teapot_campaign::CampaignReport,
    /// Wall time of the epochs run in this process.
    secs: f64,
    sink: Option<teapot_telemetry::MetricsSink>,
    /// Executor-specific summary lines (decode cache, fleet statistics).
    notes: Vec<String>,
}

/// Creates the `--metrics` stream, if asked for, opened with the
/// campaign's `meta` event; `extend` appends executor-specific fields.
fn open_metrics(
    args: &[String],
    target: &str,
    cfg: &teapot_campaign::CampaignConfig,
    workers: usize,
    extend: impl FnOnce(teapot_telemetry::Event) -> teapot_telemetry::Event,
) -> Result<Option<teapot_telemetry::MetricsSink>, String> {
    let Some(path) = opt(args, "--metrics") else {
        return Ok(None);
    };
    let mut sink = teapot_telemetry::MetricsSink::create(std::path::Path::new(path))
        .map_err(|e| format!("create {path}: {e}"))?;
    sink.emit(extend(
        teapot_telemetry::Event::new("meta")
            .num("schema", 1)
            .str_field("binary", &file_label(target))
            .num("seed", cfg.seed)
            .num("shards", u64::from(cfg.shards))
            .num("epochs", u64::from(cfg.epochs))
            .num("iters_per_epoch", cfg.iters_per_epoch)
            .str_field("models", &cfg.models.to_string())
            .num("workers", workers as u64),
    ));
    Ok(Some(sink))
}

/// `teapot campaign <bin.tof>`: the campaign in this process, on
/// `--workers` threads over one shared decode.
fn run_single_host(
    args: &[String],
    target: &str,
    bin: &teapot_obj::Binary,
    cfg: teapot_campaign::CampaignConfig,
    seeds: &[Vec<u8>],
    resume: Option<&teapot_campaign::CampaignSnapshot>,
) -> Result<CampaignRun, String> {
    // One decode pass serves every shard on every worker thread.
    let decode_watch = teapot_telemetry::Stopwatch::new();
    let prog = teapot_vm::Program::shared(bin);
    let decode_ms = decode_watch.ms();
    let mut campaign = match resume {
        Some(snap) => {
            let mut c = teapot_campaign::Campaign::resume(snap, bin).map_err(|e| e.to_string())?;
            c.set_workers(cfg.workers);
            c
        }
        None => teapot_campaign::Campaign::new(cfg).map_err(|e| e.to_string())?,
    };
    let cs = prog.compile_stats();
    let workers = campaign.config().effective_workers();
    if let Some(mut sink) = open_metrics(args, target, campaign.config(), workers, |ev| {
        ev.num("compiled_records", cs.records as u64)
            .num("compiled_fused", (cs.fused_skips + cs.fused_checks) as u64)
            .num("heuristic_sites", cs.sites as u64)
    })? {
        sink.emit(
            teapot_telemetry::Event::new("span")
                .str_field("name", "decode")
                .num("wall_ms", decode_ms),
        );
        campaign.set_metrics(sink);
        campaign.set_heartbeat(true);
        campaign.set_block_profiling(true);
    }
    let started = std::time::Instant::now();
    let report = campaign.run_shared(&prog, seeds);
    let secs = started.elapsed().as_secs_f64();
    let mut sink = campaign.take_metrics();
    if let Some(s) = &mut sink {
        emit_vm_metrics(s, &campaign);
        emit_cost_hists(s, &campaign.cost_histograms());
        if let Some(p) = campaign.merged_profile() {
            emit_hot_blocks(s, &p, &prog, bin, 32);
        }
    }
    let ds = prog.stats();
    let decode_cache = teapot_telemetry::format_decode_cache(
        ds.blocks as u64,
        ds.insts as u64,
        ds.bytes as u64,
        ds.undecoded_bytes as u64,
        cs.records as u64,
        (cs.fused_skips + cs.fused_checks) as u64,
        cs.sites as u64,
    );
    Ok(CampaignRun {
        campaign,
        report,
        secs,
        sink,
        notes: vec![decode_cache],
    })
}

/// `teapot campaign <bin.tof> --fleet N`: the campaign over a fabric
/// coordinator in this process and N `teapot work` children on
/// loopback TCP.
fn run_fleet_campaign(
    args: &[String],
    target: &str,
    bin: &teapot_obj::Binary,
    cfg: teapot_campaign::CampaignConfig,
    seeds: &[Vec<u8>],
    fleet_n: usize,
    resume: Option<teapot_campaign::CampaignSnapshot>,
) -> Result<CampaignRun, String> {
    // A resumed campaign runs under the snapshot's configuration.
    let run_cfg = resume.as_ref().map_or(&cfg, |snap| &snap.config);
    // Chaos soak mode: a seeded fault schedule derived from
    // --chaos-seed, or an explicit --chaos-schedule string (the same
    // DSL the seeded plan prints, for CI-pinned reruns).
    let chaos: Option<teapot_chaos::FaultPlan> =
        match (opt(args, "--chaos-seed"), opt(args, "--chaos-schedule")) {
            (Some(_), Some(_)) => {
                return Err("--chaos-seed and --chaos-schedule are mutually exclusive".into())
            }
            (Some(seed), None) => {
                let seed: u64 = seed
                    .parse()
                    .map_err(|_| format!("--chaos-seed: bad number `{seed}`"))?;
                let plan = teapot_chaos::FaultPlan::seeded(seed, fleet_n, run_cfg.epochs);
                println!("chaos seed {seed}: schedule {}", plan.to_schedule());
                Some(plan)
            }
            (None, Some(schedule)) => {
                let plan = teapot_chaos::FaultPlan::parse(schedule)
                    .map_err(|e| format!("--chaos-schedule: {e}"))?;
                println!("chaos schedule {}", plan.to_schedule());
                Some(plan)
            }
            (None, None) => None,
        };
    let opts = teapot_fabric::FleetOptions {
        workers: fleet_n,
        // --snapshot doubles as the per-epoch checkpoint target.
        checkpoint: opt(args, "--snapshot").map(std::path::PathBuf::from),
        metrics: open_metrics(args, target, run_cfg, fleet_n, |ev| ev)?,
        lease_timeout_ms: opt_num(args, "--lease-timeout-ms")?,
        resume,
        chaos,
    };
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let started = std::time::Instant::now();
    let out = teapot_fabric::run_fleet(
        bin,
        seeds,
        &cfg,
        opts,
        &teapot_fabric::WorkerLaunch::Processes(exe),
    )
    .map_err(|e| format!("fleet: {e}"))?;
    let secs = started.elapsed().as_secs_f64();
    let stats = out.stats;
    let mut notes = vec![format!(
        "fleet: {} worker(s), {} lease(s) ({} re-lease(s), {} death(s)), \
         {} delta(s) totalling {} bytes, merged in {} ms",
        fleet_n,
        stats.leases,
        stats.releases,
        stats.worker_deaths,
        stats.deltas,
        stats.delta_bytes,
        stats.merge_ms
    )];
    if stats.quarantined + stats.rejoins + stats.checkpoint_faults > 0 {
        notes.push(format!(
            "chaos: {} quarantine(s), {} rejoin(s), {} checkpoint fault(s)",
            stats.quarantined, stats.rejoins, stats.checkpoint_faults
        ));
    }
    Ok(CampaignRun {
        report: out.campaign.report(),
        campaign: out.campaign,
        secs,
        sink: out.metrics,
        notes,
    })
}

/// The tail every single-binary campaign shares, whatever ran it:
/// snapshot, summary, JSON report, triage and the closing metrics.
/// `pre_iters` counts the executions a resumed campaign had already
/// done, so throughput covers only this process's work.
fn report_campaign(
    args: &[String],
    target: &str,
    bin: &teapot_obj::Binary,
    run: CampaignRun,
    pre_iters: u64,
    total_watch: &teapot_telemetry::Stopwatch,
) -> Result<(), String> {
    let CampaignRun {
        campaign,
        report,
        secs,
        mut sink,
        notes,
    } = run;
    let ran_here = report.iters - pre_iters;
    if let Some(s) = &mut sink {
        s.emit(
            teapot_telemetry::Event::new("span")
                .str_field("name", "campaign")
                .num("wall_ms", (secs * 1000.0) as u64),
        );
    }
    if let Some(snap_out) = opt(args, "--snapshot") {
        campaign
            .snapshot(bin)
            .save(std::path::Path::new(snap_out))
            .map_err(|e| format!("write {snap_out}: {e}"))?;
        println!("wrote snapshot {snap_out}");
    }
    println!(
        "{} shards x {} epochs: {} iterations, corpus {}, {} crashes",
        report.shards, report.epochs, report.iters, report.corpus_total, report.crashes
    );
    println!(
        "throughput: {:.0} execs/sec ({} execs in {:.2}s)",
        ran_here as f64 / secs.max(1e-9),
        ran_here,
        secs
    );
    for note in &notes {
        println!("{note}");
    }
    println!(
        "coverage: {} normal features, {} speculative features",
        report.cov_normal_features, report.cov_spec_features
    );
    println!("unique gadgets: {}", report.unique_gadgets());
    for (bucket, n) in &report.buckets {
        println!("  {bucket}: {n}");
    }
    for g in report.gadgets.iter().take(20) {
        println!("GADGET {g}");
    }
    if let Some(out) = opt(args, "--json") {
        std::fs::write(out, report.to_json()).map_err(|e| format!("write {out}: {e}"))?;
        println!("wrote {out}");
    }
    if !flag(args, "--no-triage") {
        let triage_watch = teapot_telemetry::Stopwatch::new();
        let (db, stats, times) = teapot_triage::triage_report(
            &file_label(target),
            bin,
            campaign.config(),
            &report,
            &teapot_triage::TriageOptions::default(),
        );
        if let Some(s) = &mut sink {
            s.emit(
                teapot_telemetry::Event::new("span")
                    .str_field("name", "triage")
                    .num("wall_ms", triage_watch.ms()),
            );
            s.emit(triage_event(&db, &stats, &times));
        }
        emit_triage(&db, &stats, opt(args, "--triage"), opt(args, "--sarif"))?;
    }
    if let Some(mut s) = sink {
        s.emit(
            teapot_telemetry::Event::new("summary")
                .num("wall_ms", total_watch.ms())
                .num("execs", ran_here)
                .fnum("execs_per_sec", ran_here as f64 / secs.max(1e-9))
                .num("unique_gadgets", report.unique_gadgets() as u64)
                .opt_num(
                    "time_to_first_gadget_execs",
                    campaign.time_to_first_gadget_execs(),
                ),
        );
        let path = s.path().display().to_string();
        s.finish().map_err(|e| format!("write {path}: {e}"))?;
        println!("wrote metrics {path}");
    }
    Ok(())
}

fn run(args: &[String]) -> Result<(), String> {
    let cmd = args.first().map(|s| s.as_str()).unwrap_or("help");
    match cmd {
        "compile" => {
            let target = args.get(1).ok_or("usage: compile <workload|file>")?;
            let out = opt(args, "-o").unwrap_or("a.tof");
            let cc_opts = if flag(args, "--clang") {
                teapot_cc::Options::clang_like()
            } else {
                teapot_cc::Options::gcc_like()
            };
            let mut bin = if let Some(w) = find_workload(target) {
                w.build(&cc_opts).map_err(|e| e.to_string())?
            } else {
                let src = read_text(target)?;
                teapot_cc::compile_to_binary(&src, &cc_opts).map_err(|e| e.to_string())?
            };
            if flag(args, "--strip") {
                bin.strip();
            }
            save(&bin, out)?;
            println!("wrote {out}");
            Ok(())
        }
        "instrument" => {
            let input = args.get(1).ok_or("usage: instrument <in.tof>")?;
            let out = opt(args, "-o").unwrap_or("instrumented.tof");
            let bin = load(input)?;
            let rewritten = if flag(args, "--baseline") {
                let opts = if flag(args, "--no-nested") {
                    teapot_baselines::SpecFuzzOptions::perf_comparison()
                } else {
                    teapot_baselines::SpecFuzzOptions::default()
                };
                teapot_baselines::specfuzz_rewrite(&bin, &opts).map_err(|e| e.to_string())?
            } else {
                let opts = if flag(args, "--no-nested") {
                    teapot_core::RewriteOptions::perf_comparison()
                } else {
                    teapot_core::RewriteOptions::default()
                };
                teapot_core::rewrite(&bin, &opts).map_err(|e| e.to_string())?
            };
            save(&rewritten, out)?;
            println!("wrote {out}");
            Ok(())
        }
        "run" => {
            let input = args.get(1).ok_or("usage: run <bin.tof>")?;
            require_values(args, "--input-file --spec-models")?;
            let bin = load(input)?;
            let data = match opt(args, "--input-file") {
                Some(f) => std::fs::read(f).map_err(|e| format!("read {f}: {e}"))?,
                None => Vec::new(),
            };
            let emu = if flag(args, "--spectaint") {
                teapot_vm::EmuStyle::SpecTaint
            } else {
                teapot_vm::EmuStyle::Native
            };
            let models = spec_models_from_args(args)?;
            let mut heur = teapot_vm::SpecHeuristics::default();
            let outcome = teapot_vm::Machine::new(
                &bin,
                teapot_vm::RunOptions {
                    input: data,
                    emu,
                    models,
                    ..Default::default()
                },
            )
            .run(&mut heur);
            println!("status: {:?}", outcome.status);
            println!("cost: {} units, {} insts", outcome.cost, outcome.insts);
            println!(
                "simulations: {} entered, {} rollbacks",
                outcome.sim_entries, outcome.rollbacks
            );
            if !outcome.output.is_empty() {
                println!(
                    "output: {}",
                    String::from_utf8_lossy(&outcome.output).trim_end()
                );
            }
            for g in &outcome.gadgets {
                println!("GADGET {g}");
            }
            Ok(())
        }
        "fuzz" => {
            let input = args.get(1).ok_or("usage: fuzz <bin.tof>")?;
            require_values(args, "--iters --workload --spec-models")?;
            let bin = load(input)?;
            let iters = parse_num(args, "--iters", 400)?;
            let (seeds, dict) = match workload_from_args(args)? {
                Some(w) => (w.seeds.clone(), w.dictionary.clone()),
                None => (vec![], vec![]),
            };
            let emu = if flag(args, "--spectaint") {
                teapot_vm::EmuStyle::SpecTaint
            } else {
                teapot_vm::EmuStyle::Native
            };
            let models = spec_models_from_args(args)?;
            let res = teapot_fuzz::try_fuzz(
                &bin,
                &seeds,
                &teapot_fuzz::FuzzConfig {
                    max_iters: iters,
                    dictionary: dict,
                    emu,
                    models,
                    ..Default::default()
                },
            )
            .map_err(|e| e.to_string())?;
            println!(
                "{} iterations, corpus {}, {} crashes",
                res.iters, res.corpus_len, res.crashes
            );
            println!(
                "coverage: {} normal features, {} speculative features",
                res.cov_normal_features, res.cov_spec_features
            );
            println!("unique gadgets: {}", res.unique_gadgets());
            for (bucket, n) in &res.buckets {
                println!("  {bucket}: {n}");
            }
            for g in res.gadgets.iter().take(20) {
                println!("GADGET {g}");
            }
            Ok(())
        }
        "campaign" => {
            let target = args.get(1).ok_or("usage: campaign <bin.tof|dir>")?;
            require_values(
                args,
                "--seed --shards --workers --fleet --epochs --iters --workload --spec-models \
                 --resume --snapshot --json --triage --sarif --metrics --chaos-seed \
                 --chaos-schedule --lease-timeout-ms",
            )?;
            let (cfg, seeds) = campaign_config_from_args(args)?;

            // Queue mode: a directory of .tof binaries.
            if std::path::Path::new(target).is_dir() {
                if ["--resume", "--snapshot", "--metrics"]
                    .iter()
                    .any(|name| opt(args, name).is_some())
                {
                    return Err("--resume/--snapshot/--metrics are only supported \
                         for single-binary campaigns"
                        .into());
                }
                let outcomes =
                    teapot_campaign::queue::run_queue(std::path::Path::new(target), &cfg, &seeds)
                        .map_err(|e| e.to_string())?;
                if outcomes.is_empty() {
                    println!("no .tof binaries found in {target}");
                }
                for o in &outcomes {
                    println!(
                        "{}: {} unique gadgets, {} iters, corpus {}{}",
                        o.path.display(),
                        o.report.unique_gadgets(),
                        o.report.iters,
                        o.report.corpus_total,
                        if o.instrumented_here {
                            " (instrumented here)"
                        } else {
                            ""
                        },
                    );
                }
                if let Some(out) = opt(args, "--json") {
                    std::fs::write(out, teapot_campaign::queue::render_queue_json(&outcomes))
                        .map_err(|e| format!("write {out}: {e}"))?;
                    println!("wrote {out}");
                }
                // Triage runs automatically at the end of every
                // campaign: replay + minimize each witness, collapse
                // root causes across the whole queue.
                if !flag(args, "--no-triage") && !outcomes.is_empty() {
                    let triage_opts = teapot_triage::TriageOptions::default();
                    let (db, stats, _) = teapot_triage::triage_queue(&outcomes, &cfg, &triage_opts);
                    emit_triage(&db, &stats, opt(args, "--triage"), opt(args, "--sarif"))?;
                }
                return Ok(());
            }

            // Single-binary mode, optionally resumed from a snapshot.
            let bin = load(target)?;
            let total_watch = teapot_telemetry::Stopwatch::new();
            let snap_path = opt(args, "--resume");
            let resume = match snap_path {
                Some(snap_path) => {
                    // The snapshot's config defines the campaign; only
                    // --workers (execution detail) and --epochs (extend)
                    // apply on resume. Say so if other flags were given.
                    for ignored in [
                        "--seed",
                        "--shards",
                        "--iters",
                        "--workload",
                        "--spectaint",
                        "--spec-models",
                    ] {
                        if flag(args, ignored) {
                            eprintln!(
                                "teapot: note: {ignored} is ignored with --resume \
                                 (the snapshot's configuration is used)"
                            );
                        }
                    }
                    let mut snap =
                        teapot_campaign::CampaignSnapshot::load(std::path::Path::new(snap_path))
                            .map_err(|e| format!("{snap_path}: {e}"))?;
                    // The one resume check, before any executor starts.
                    teapot_campaign::EpochClock::resume(&snap, &bin)
                        .map_err(|e| resume_error(snap_path, target, e))?;
                    // Extend only on an explicit --epochs, and never
                    // below the snapshot's plan: the default must not
                    // silently grow a finished campaign, or a plain
                    // resume would no longer match the uninterrupted run.
                    if flag(args, "--epochs") {
                        snap.config.epochs = snap.config.epochs.max(cfg.epochs);
                    }
                    println!("resumed from {snap_path} at epoch {}", snap.epochs_done);
                    Some(snap)
                }
                None => None,
            };
            // Throughput must count only the work done in this process:
            // a resumed campaign's report includes pre-resume iterations.
            let pre_iters = resume.as_ref().map_or(0, |snap| {
                snap.shard_states.iter().map(|st| st.iters).sum::<u64>()
            });
            // Fleet mode: spawn N `teapot work` processes on loopback
            // and run the campaign through the fabric coordinator. The
            // report is byte-identical to --workers 1 by construction.
            let run = match fleet_from_args(args)? {
                Some(fleet_n) => {
                    run_fleet_campaign(args, target, &bin, cfg, &seeds, fleet_n, resume)?
                }
                None => run_single_host(args, target, &bin, cfg, &seeds, resume.as_ref())?,
            };
            report_campaign(args, target, &bin, run, pre_iters, &total_watch)
        }
        "serve" => {
            let dir = args
                .get(1)
                .ok_or("usage: serve <dir> [--addr host:port] [--fleet N] [--once]")?;
            require_values(
                args,
                "--addr --fleet --seed --shards --epochs --iters --workload --spec-models \
                 --metrics --lease-timeout-ms",
            )?;
            if !std::path::Path::new(dir).is_dir() {
                return Err(format!("serve: {dir} is not a directory"));
            }
            let (cfg, seeds) = campaign_config_from_args(args)?;
            let expect = fleet_from_args(args)?.unwrap_or(1);
            let bind = opt(args, "--addr").unwrap_or("127.0.0.1:0");
            let listener =
                std::net::TcpListener::bind(bind).map_err(|e| format!("bind {bind}: {e}"))?;
            let addr = listener.local_addr().map_err(|e| e.to_string())?;
            println!(
                "serving {dir} on {addr}: waiting for {expect} worker(s) \
                 (`teapot work {addr}`)"
            );
            let mut serve_opts = teapot_fabric::CoordinatorOptions::new(expect);
            if let Some(ms) = opt_num(args, "--lease-timeout-ms")? {
                serve_opts.lease_timeout_ms = ms;
            }
            let mut coord =
                teapot_fabric::Coordinator::new(listener, serve_opts).map_err(|e| e.to_string())?;
            if let Some(path) = opt(args, "--metrics") {
                let sink = teapot_telemetry::MetricsSink::create(std::path::Path::new(path))
                    .map_err(|e| format!("create {path}: {e}"))?;
                coord.set_metrics(sink);
            }
            coord.wait_for_workers().map_err(|e| e.to_string())?;
            println!("fleet assembled; draining queue");
            let outcomes = teapot_fabric::run_queue_fleet(
                &mut coord,
                std::path::Path::new(dir),
                &cfg,
                &seeds,
                flag(args, "--once"),
            )
            .map_err(|e| format!("fleet: {e}"))?;
            coord.shutdown();
            if let Some(s) = coord.take_metrics() {
                let path = s.path().display().to_string();
                s.finish().map_err(|e| format!("write {path}: {e}"))?;
            }
            if outcomes.is_empty() {
                println!("no .tof binaries found in {dir}");
            }
            for o in &outcomes {
                println!(
                    "{}: {} unique gadgets, {} iters, corpus {} -> {}",
                    o.path.display(),
                    o.report.unique_gadgets(),
                    o.report.iters,
                    o.report.corpus_total,
                    o.report_path.display(),
                );
            }
            Ok(())
        }
        "work" => {
            let addr = args.get(1).ok_or("usage: work <host:port>")?;
            // The coordinator may still be binding (or restarting):
            // retries with bounded backoff are built into
            // run_worker_tcp, as is the mid-campaign rejoin path.
            let chaos = match (
                std::env::var(teapot_fabric::CHAOS_SCHEDULE_ENV),
                std::env::var(teapot_fabric::CHAOS_WORKER_ENV),
            ) {
                (Ok(schedule), Ok(ordinal)) => {
                    let plan = teapot_chaos::FaultPlan::parse(&schedule)
                        .map_err(|e| format!("{}: {e}", teapot_fabric::CHAOS_SCHEDULE_ENV))?;
                    let w: usize = ordinal.parse().map_err(|_| {
                        format!(
                            "{}: bad worker ordinal `{ordinal}`",
                            teapot_fabric::CHAOS_WORKER_ENV
                        )
                    })?;
                    Some(plan.worker(w))
                }
                _ => None,
            };
            let wopts = teapot_fabric::WorkerOptions {
                name: format!("worker-{}", std::process::id()),
                chaos,
            };
            teapot_fabric::run_worker_tcp(addr, &wopts, &teapot_fabric::RetryPolicy::default())
                .map_err(|e| e.to_string())
        }
        "triage" => {
            let target = args.get(1).ok_or("usage: triage <bin.tof|snap.tcs|dir>")?;
            require_values(
                args,
                "--bin --jsonl --sarif --seed --shards --workers --epochs --iters --workload \
                 --spec-models --metrics",
            )?;
            let (cfg, seeds) = campaign_config_from_args(args)?;
            let opts = teapot_triage::TriageOptions {
                minimize: !flag(args, "--no-minimize"),
                ..Default::default()
            };
            let path = std::path::Path::new(target);
            let mut models_label = cfg.models.to_string();
            let triage_watch = teapot_telemetry::Stopwatch::new();
            let (db, stats, times) = if path.is_dir() {
                // Queue directory: campaign every .tof, triage across
                // all of them (cross-binary root-cause dedup).
                let outcomes = teapot_campaign::queue::run_queue(path, &cfg, &seeds)
                    .map_err(|e| e.to_string())?;
                if outcomes.is_empty() {
                    println!("no .tof binaries found in {target}");
                    return Ok(());
                }
                teapot_triage::triage_queue(&outcomes, &cfg, &opts)
            } else if target.ends_with(".tcs") {
                // A finished campaign snapshot: triage its recorded
                // witnesses without re-fuzzing. The binary it was taken
                // against must be supplied (and fingerprint-matches).
                // The snapshot's embedded config drives replay; say so
                // if campaign flags were given, instead of silently
                // ignoring them (mirrors `campaign --resume`).
                for ignored in [
                    "--seed",
                    "--shards",
                    "--workers",
                    "--epochs",
                    "--iters",
                    "--workload",
                    "--spectaint",
                    "--spec-models",
                ] {
                    if flag(args, ignored) {
                        eprintln!(
                            "teapot: note: {ignored} is ignored with a .tcs target \
                             (the snapshot's configuration is used)"
                        );
                    }
                }
                let bin_path = opt(args, "--bin").ok_or(
                    "triage <snap.tcs> requires --bin <bin.tof> \
                     (the binary the snapshot was taken against)",
                )?;
                let bin = load(bin_path)?;
                let snap = teapot_campaign::CampaignSnapshot::load(path)
                    .map_err(|e| format!("{target}: {e}"))?;
                let campaign = teapot_campaign::Campaign::resume(&snap, &bin)
                    .map_err(|e| resume_error(target, bin_path, e))?;
                let report = campaign.report();
                models_label = campaign.config().models.to_string();
                teapot_triage::triage_report(
                    &file_label(bin_path),
                    &bin,
                    campaign.config(),
                    &report,
                    &opts,
                )
            } else {
                // A single binary: run a campaign, then triage it.
                let bin = load(target)?;
                let report =
                    teapot_campaign::run_campaign(&bin, &seeds, &cfg).map_err(|e| e.to_string())?;
                println!(
                    "campaign: {} iterations, {} raw gadget(s)",
                    report.iters,
                    report.unique_gadgets()
                );
                teapot_triage::triage_report(&file_label(target), &bin, &cfg, &report, &opts)
            };
            if let Some(mp) = opt(args, "--metrics") {
                let mut sink = teapot_telemetry::MetricsSink::create(std::path::Path::new(mp))
                    .map_err(|e| format!("create {mp}: {e}"))?;
                sink.emit(
                    teapot_telemetry::Event::new("meta")
                        .num("schema", 1)
                        .str_field("binary", &file_label(target))
                        .str_field("models", &models_label),
                );
                sink.emit(
                    teapot_telemetry::Event::new("span")
                        .str_field("name", "triage")
                        .num("wall_ms", triage_watch.ms()),
                );
                sink.emit(triage_event(&db, &stats, &times));
                sink.finish().map_err(|e| format!("write {mp}: {e}"))?;
                println!("wrote metrics {mp}");
            }
            emit_triage(&db, &stats, opt(args, "--jsonl"), opt(args, "--sarif"))?;
            Ok(())
        }
        "explain" => {
            let target = args.get(1).ok_or(
                "usage: explain <report.jsonl|snap.tcs|bin.tof> [--gadget KEY] \
                 [--bin bin.tof] [campaign flags]",
            )?;
            require_values(
                args,
                "--gadget --bin --seed --shards --workers --epochs --iters --workload \
                 --spec-models --metrics",
            )?;
            let gadget = opt(args, "--gadget");
            let no_match = |total: usize| {
                format!(
                    "--gadget {}: no matching root cause among {total} finding(s) \
                     (keys are prefix-matched; run without --gadget to list all)",
                    gadget.unwrap_or("?")
                )
            };

            // An existing triage JSONL report: re-render the chains it
            // already carries, without executing anything.
            if target.ends_with(".jsonl") {
                let rows = read_jsonl(target)?;
                let (mut shown, mut total) = (0usize, 0usize);
                for finding in rows.iter().filter(|v| v.get("root_cause").is_some()) {
                    total += 1;
                    let Some(root) = text(finding, "root_cause") else {
                        continue;
                    };
                    if gadget.is_some_and(|k| !root.starts_with(k)) {
                        continue;
                    }
                    shown += 1;
                    print_explained(
                        root,
                        num(finding, "severity").unwrap_or(0),
                        text(finding, "bucket").unwrap_or("?"),
                        text(finding, "model"),
                        text(finding, "description").unwrap_or("?"),
                        text(finding, "minimized_input"),
                        text(finding, "leaked_input_bytes").unwrap_or("-"),
                        &chain_from_jsonl(finding),
                    );
                }
                if total == 0 {
                    return Err(format!("{target}: no triage findings to explain"));
                }
                if shown == 0 {
                    return Err(no_match(total));
                }
                println!("explained {shown} of {total} root cause(s) from {target}");
                return Ok(());
            }

            // A snapshot or binary: triage with the origin shadow on
            // (one provenance replay per discovering run), then narrate.
            let (cfg, seeds) = campaign_config_from_args(args)?;
            let opts = teapot_triage::TriageOptions::default();
            let total_watch = teapot_telemetry::Stopwatch::new();
            let (db, stats, times, models_label) = if target.ends_with(".tcs") {
                let bin_path = opt(args, "--bin").ok_or(
                    "explain <snap.tcs> requires --bin <bin.tof> \
                     (the binary the snapshot was taken against)",
                )?;
                let bin = load(bin_path)?;
                let snap = teapot_campaign::CampaignSnapshot::load(std::path::Path::new(target))
                    .map_err(|e| format!("{target}: {e}"))?;
                let campaign = teapot_campaign::Campaign::resume(&snap, &bin)
                    .map_err(|e| resume_error(target, bin_path, e))?;
                let report = campaign.report();
                let models = campaign.config().models.to_string();
                let (db, stats, times) = teapot_triage::triage_report(
                    &file_label(bin_path),
                    &bin,
                    campaign.config(),
                    &report,
                    &opts,
                );
                (db, stats, times, models)
            } else {
                let bin = load(target)?;
                let report =
                    teapot_campaign::run_campaign(&bin, &seeds, &cfg).map_err(|e| e.to_string())?;
                println!(
                    "campaign: {} iterations, {} raw gadget(s)",
                    report.iters,
                    report.unique_gadgets()
                );
                let (db, stats, times) =
                    teapot_triage::triage_report(&file_label(target), &bin, &cfg, &report, &opts);
                (db, stats, times, cfg.models.to_string())
            };
            if let Some(mp) = opt(args, "--metrics") {
                let mut sink = teapot_telemetry::MetricsSink::create(std::path::Path::new(mp))
                    .map_err(|e| format!("create {mp}: {e}"))?;
                sink.emit(
                    teapot_telemetry::Event::new("meta")
                        .num("schema", 1)
                        .str_field("binary", &file_label(target))
                        .str_field("models", &models_label),
                );
                sink.emit(
                    teapot_telemetry::Event::new("span")
                        .str_field("name", "explain")
                        .num("wall_ms", total_watch.ms()),
                );
                sink.emit(triage_event(&db, &stats, &times));
                sink.finish().map_err(|e| format!("write {mp}: {e}"))?;
                println!("wrote metrics {mp}");
            }
            if db.entries().is_empty() {
                println!("no gadgets to explain");
                return Ok(());
            }
            let mut shown = 0usize;
            for e in db.entries() {
                if gadget.is_some_and(|k| !e.root_cause.starts_with(k)) {
                    continue;
                }
                shown += 1;
                let model = (e.model != teapot_vm::SpecModel::Pht).then(|| e.model.to_string());
                let reproducer = e.minimized_input.as_deref().map(teapot_triage::db::hex);
                let (leaked, steps) = match &e.chain {
                    Some(c) => (c.origin.to_string(), c.steps.as_slice()),
                    None => ("-".to_string(), &[][..]),
                };
                print_explained(
                    &e.root_cause,
                    u64::from(e.severity),
                    &e.bucket,
                    model.as_deref(),
                    &e.description,
                    reproducer.as_deref(),
                    &leaked,
                    steps,
                );
            }
            if shown == 0 {
                return Err(no_match(db.entries().len()));
            }
            println!("explained {shown} of {} root cause(s)", db.entries().len());
            Ok(())
        }
        "stats" => {
            if flag(args, "--diff") {
                let i = args
                    .iter()
                    .position(|a| a == "--diff")
                    .expect("flag present");
                let (Some(old_path), Some(new_path)) = (args.get(i + 1), args.get(i + 2)) else {
                    return Err("usage: stats --diff <old.jsonl> <new.jsonl>".into());
                };
                return stats_diff(old_path, new_path);
            }
            let input = args
                .get(1)
                .ok_or("usage: stats <metrics.jsonl> [--top N]")?;
            if flag(args, "--top") && opt(args, "--top").is_none() {
                return Err("--top requires a value".into());
            }
            let top: usize = parse_num(args, "--top", 10_usize)?;
            stats(input, top)
        }
        "dis" => {
            let input = args.get(1).ok_or("usage: dis <bin.tof>")?;
            let bin = load(input)?;
            let g = teapot_dis::disassemble(&bin).map_err(|e| e.to_string())?;
            for f in &g.functions {
                println!(
                    "fn {} @ {:#x} ({} blocks, {} insts){}",
                    f.name,
                    f.entry,
                    f.blocks.len(),
                    f.inst_count(),
                    if f.address_taken {
                        " [address taken]"
                    } else {
                        ""
                    }
                );
                for b in &f.blocks {
                    println!(
                        "  block {:#x}{}",
                        b.addr,
                        if b.indirect_target {
                            " [indirect target]"
                        } else {
                            ""
                        }
                    );
                    for (a, i) in &b.insts {
                        println!("    {a:#x}: {i}");
                    }
                }
            }
            for jt in &g.jump_tables {
                println!("jump table @ {:#x}: {} entries", jt.addr, jt.targets.len());
            }
            Ok(())
        }
        "help" | "--help" | "-h" => {
            println!(
                "teapot — Spectre gadget scanner for TEA-64 COTS binaries\n\
                 \n\
                 commands:\n\
                 \x20 compile <workload|file.minic> -o out.tof [--clang] [--strip]\n\
                 \x20 instrument <in.tof> -o out.tof [--baseline] [--no-nested]\n\
                 \x20 run <bin.tof> [--input-file f] [--spectaint] [--spec-models M]\n\
                 \x20 fuzz <bin.tof> [--iters N] [--workload name] [--spectaint]\n\
                 \x20      [--spec-models M]\n\
                 \x20 campaign <bin.tof|dir> [--workers N] [--fleet N] [--shards S]\n\
                 \x20          [--epochs E] [--iters N] [--seed S] [--workload name]\n\
                 \x20          [--spectaint] [--spec-models M] [--resume snap.tcs]\n\
                 \x20          [--snapshot snap.tcs] [--json out.json] [--triage out.jsonl]\n\
                 \x20          [--sarif out.sarif] [--no-triage] [--metrics out.jsonl]\n\
                 \x20          [--chaos-seed S | --chaos-schedule DSL] [--lease-timeout-ms T]\n\
                 \x20 serve <dir> [--addr host:port] [--fleet N] [--once]\n\
                 \x20       [--lease-timeout-ms T] [campaign flags]\n\
                 \x20 work <host:port>\n\
                 \x20 triage <bin.tof|snap.tcs|dir> [--bin bin.tof] [--jsonl out]\n\
                 \x20        [--sarif out] [--no-minimize] [--metrics out.jsonl]\n\
                 \x20        [campaign flags]\n\
                 \x20 explain <report.jsonl|snap.tcs|bin.tof> [--gadget KEY]\n\
                 \x20         [--bin bin.tof] [--metrics out.jsonl] [campaign flags]\n\
                 \x20 stats <metrics.jsonl> [--top N]\n\
                 \x20 stats --diff <old.jsonl> <new.jsonl>\n\
                 \x20 dis <bin.tof>\n\
                 \n\
                 campaign: sharded parallel fuzzing with deterministic merging.\n\
                 \x20 Results depend on --shards/--seed/--epochs/--iters/--spec-models,\n\
                 \x20 never on --workers (thread count). A directory target queues\n\
                 \x20 every .tof inside it (instrumenting originals first). --snapshot\n\
                 \x20 saves a resumable .tcs campaign snapshot; --resume continues one.\n\
                 \x20 Triage runs automatically at the end (disable with --no-triage).\n\
                 \n\
                 fabric: --fleet N runs the campaign over N `teapot work` worker\n\
                 \x20 processes behind a coordinator that leases shard ranges, merges\n\
                 \x20 per-epoch deltas in shard order, and re-leases dead workers'\n\
                 \x20 shards from the last epoch boundary. Fleet output is\n\
                 \x20 byte-identical to --workers 1 — even after mid-epoch worker\n\
                 \x20 deaths. `teapot serve <dir>` runs a continuous fleet queue\n\
                 \x20 (checkpointing each binary to <stem>.tcs, reports to\n\
                 \x20 <stem>.json); `teapot work host:port` joins a fleet, retrying\n\
                 \x20 a coordinator that is not up yet and rejoining after faults.\n\
                 \n\
                 chaos: --chaos-seed S soaks a fleet under a deterministic fault\n\
                 \x20 schedule (corrupted/truncated/duplicated frames, connection\n\
                 \x20 resets, stalls, crashes, torn checkpoint writes) derived from\n\
                 \x20 S alone — the schedule prints on start and replays exactly via\n\
                 \x20 --chaos-schedule (DSL: `w1:corrupt@2,w2:stall150@0,ckpt:short@1`).\n\
                 \x20 Every schedule keeps worker 0 alive, and every run's artifacts\n\
                 \x20 stay byte-identical to --workers 1. --lease-timeout-ms tunes\n\
                 \x20 how fast silent workers are declared dead.\n\
                 \n\
                 spec models: --spec-models takes a comma-separated subset of\n\
                 \x20 pht (conditional-branch misprediction, Spectre-V1 — the default),\n\
                 \x20 rsb (return mispredicts to a stale return-stack entry, ret2spec)\n\
                 \x20 and stl (a load speculatively bypasses the youngest overlapping\n\
                 \x20 store, Spectre-V4). Gadget keys, witnesses, severity, root causes\n\
                 \x20 and SARIF rules are all tracked per model.\n\
                 \n\
                 triage: replay + minimize every gadget witness, dedup by content-\n\
                 \x20 derived root cause (across shards and binaries), rank by\n\
                 \x20 severity, and emit ranked text, JSONL (--jsonl) and SARIF 2.1.0\n\
                 \x20 (--sarif). A .tof target fuzzes first; a .tcs snapshot (plus\n\
                 \x20 --bin) triages recorded witnesses; a directory queues + triages\n\
                 \x20 every .tof with cross-binary dedup. Output is byte-identical\n\
                 \x20 for any --workers count.\n\
                 \n\
                 explain: narrate each finding's causal chain — the mispredict\n\
                 \x20 that opened the speculative window, the tainted loads inside\n\
                 \x20 it, the leaking access, and the exact input bytes that steer\n\
                 \x20 the flow (resolved by a provenance replay with the VM's\n\
                 \x20 byte-granular origin shadow on). A .jsonl triage report\n\
                 \x20 re-renders its recorded chains without executing anything; a\n\
                 \x20 .tcs snapshot (plus --bin) or a .tof binary replays first.\n\
                 \x20 --gadget KEY narrows to root causes with prefix KEY. SARIF\n\
                 \x20 output carries the same chains as codeFlows/threadFlows.\n\
                 \n\
                 stats --diff: compare two metrics streams side by side with\n\
                 \x20 signed deltas — phase timings, VM counters, triage work,\n\
                 \x20 execs/sec and time-to-first-gadget.\n\
                 \n\
                 telemetry: --metrics out.jsonl streams flat JSON-per-line events\n\
                 \x20 (per-epoch progress, per-shard VM counters, a symbolized guest\n\
                 \x20 hot-block profile, triage and phase-timing summaries — schema in\n\
                 \x20 the teapot-telemetry crate docs; first line is `meta` with\n\
                 \x20 `\"schema\":1`), plus a per-epoch stderr heartbeat. Telemetry is\n\
                 \x20 zero-perturbation: campaign JSON, triage JSONL/text and SARIF\n\
                 \x20 are byte-identical with and without --metrics. `teapot stats`\n\
                 \x20 renders a metrics stream as a run summary (--top N hot blocks).\n\
                 \n\
                 workloads: jsmn libyaml libhtp brotli openssl\n\
                 \x20          spectre-rsb spectre-stl (planted specmodel ground truth)"
            );
            Ok(())
        }
        other => Err(format!("unknown command `{other}` (try `teapot help`)")),
    }
}
