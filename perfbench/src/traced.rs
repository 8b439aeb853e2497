//! The traced pass: the same campaign and triage work as the untraced
//! pass, driven step by step through each crate's public functions, with
//! a timer around every call into a layer.
//!
//! Nothing here changes what is computed. The campaign loop mirrors
//! `Campaign::run_epoch_shared` (and the fleet's per-shard phase-0 /
//! phase-1 sequence) call for call, and the triage loop mirrors
//! `teapot_triage::triage`. The caller checks that the results are the
//! untraced ones byte for byte; a decomposition that drifted would time
//! a different program.
//!
//! Times from worker threads are thread-time. A [`Ledger`] accounts them
//! against `threads × wall`: every thread that waits at a barrier (for a
//! slower shard, or for the coordinator's sequential merge) books that
//! wait to `campaign.barrier_wait_ms`, so what stays unaccounted is glue
//! that no timer covers.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use teapot_campaign::snapshot::{decode_delta, encode_delta, fingerprint};
use teapot_campaign::{
    adaptive_budgets, partition, Campaign, CampaignConfig, CampaignReport, CampaignSnapshot,
};
use teapot_fuzz::{CampaignState, StateSnapshot};
use teapot_obj::Binary;
use teapot_rt::{FxHashSet, GadgetKey, GadgetReport, GadgetWitness};
use teapot_triage::{
    minimize, provenance, sarif, severity, BinaryStats, Enricher, ReplayConfig, Replayer, TriageDb,
    TriageEntry, TriageInput, TriageLocation, DEFAULT_MAX_STEPS,
};
use teapot_vm::{ExecContext, Machine, Program, RunOptions, SpecHeuristics, VmCounters};

/// Milliseconds since `t`.
pub fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Per-layer accumulators of a traced pass. Times are milliseconds of
/// thread-time; counts are totals over the pass.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    /// `Σ threads × wall` over traced campaigns, plus the wall of traced
    /// triage passes: the denominator of `trace.unaccounted_share`.
    pub thread_ms: f64,
    /// Traced campaigns run.
    pub campaigns: u64,
    /// Epochs run across traced campaigns.
    pub epochs: u64,
    /// `seed_corpus_shared` + `begin_epoch` + `run_iters_shared`.
    pub run_iters_ms: f64,
    /// Executions inside the fuzz phase, the corpus entries they kept,
    /// and the guest instructions they retired.
    pub fuzz_execs: u64,
    pub fuzz_kept: u64,
    pub fuzz_insts: u64,
    /// Sum over epochs of slowest / mean shard fuzz time.
    pub skew_sum: f64,
    /// Barrier exchange: fresh-list collection and every import.
    pub import_ms: f64,
    pub import_attempts: u64,
    pub import_kept: u64,
    pub clones_dropped: u64,
    /// `minimize_corpus` at barriers (or the post-campaign probe).
    pub minimize_ms: f64,
    /// `take_delta` + `encode_delta`, and `decode_delta`, per delta.
    pub delta_encode_ms: f64,
    pub delta_decode_ms: f64,
    pub deltas: u64,
    pub delta_bytes: u64,
    /// `StateSnapshot::apply_delta` onto the boundary, in shard order.
    pub merge_ms: f64,
    /// `Campaign::resume` + `report` + `to_json`.
    pub report_ms: f64,
    /// Thread-time spent waiting at barriers.
    pub wait_ms: f64,
    /// Always-on VM counters of every traced shard, and the executions
    /// they cover (campaign executions plus minimization replays).
    pub vm: VmCounters,
    pub vm_runs: u64,
    /// Triage: ddmin (with its validation replay), provenance replay +
    /// chain extraction, enrichment + insert, and rendering.
    pub triage_passes: u64,
    pub witnesses: u64,
    pub entries: u64,
    pub ddmin_steps: u64,
    pub replay_failures: u64,
    pub triage_minimize_ms: f64,
    pub provenance_ms: f64,
    pub enrich_ms: f64,
    pub render_ms: f64,
}

impl Ledger {
    /// Thread-time covered by a layer timer or booked as barrier wait.
    pub fn accounted_ms(&self) -> f64 {
        self.run_iters_ms
            + self.import_ms
            + self.minimize_ms
            + self.delta_encode_ms
            + self.delta_decode_ms
            + self.merge_ms
            + self.report_ms
            + self.wait_ms
            + self.triage_minimize_ms
            + self.provenance_ms
            + self.enrich_ms
            + self.render_ms
    }
}

/// A traced campaign's results, for comparison with the untraced run.
pub struct TracedCampaign {
    /// The merged report, rebuilt from the boundary like the fleet does.
    pub report: CampaignReport,
    /// `report.to_json()`.
    pub json: String,
    /// Every shard's final state.
    pub states: Vec<StateSnapshot>,
    /// Wall-clock seconds of the whole traced campaign.
    pub secs: f64,
}

/// What one shard reports back from a parallel phase.
#[derive(Default)]
struct ShardWork {
    busy_ms: f64,
    fuzz_ms: f64,
    execs: u64,
    kept: u64,
    insts: u64,
    import_ms: f64,
    attempts: u64,
    imported: u64,
    clones: u64,
    minimize_ms: f64,
    minimize_runs: u64,
    encode_ms: f64,
    delta: Vec<u8>,
}

/// Guest instructions retired on all dispatch tiers.
pub fn retired(c: &VmCounters) -> u64 {
    c.compiled_insts + c.slice_insts + c.step_insts
}

/// Runs `f` over every shard on `ranges.len()` threads (contiguous
/// chunks, like the campaign and the fleet) and returns the per-shard
/// results in shard order plus the per-thread busy times.
fn parallel(
    shards: &mut [CampaignState],
    ranges: &[std::ops::Range<usize>],
    f: impl Fn(usize, &mut CampaignState) -> ShardWork + Sync,
) -> (Vec<ShardWork>, Vec<f64>) {
    let f = &f;
    let per_thread: Vec<Vec<ShardWork>> = std::thread::scope(|scope| {
        let mut rest = &mut shards[..];
        let mut handles = Vec::new();
        for r in ranges {
            let (chunk, tail) = rest.split_at_mut(r.len());
            rest = tail;
            let base = r.start;
            handles.push(scope.spawn(move || {
                chunk
                    .iter_mut()
                    .enumerate()
                    .map(|(k, st)| f(base + k, st))
                    .collect::<Vec<_>>()
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("traced shard thread panicked"))
            .collect()
    });
    let busy = per_thread
        .iter()
        .map(|t| t.iter().map(|w| w.busy_ms).sum())
        .collect();
    (per_thread.into_iter().flatten().collect(), busy)
}

/// Books a parallel phase: layer times from the shards, and each
/// thread's idle time until the slowest thread finished as barrier wait.
fn book_parallel(led: &mut Ledger, work: &[ShardWork], busy: &[f64], phase_ms: f64) {
    for w in work {
        led.run_iters_ms += w.fuzz_ms;
        led.fuzz_execs += w.execs;
        led.fuzz_kept += w.kept;
        led.fuzz_insts += w.insts;
        led.vm_runs += w.minimize_runs;
        led.import_ms += w.import_ms;
        led.import_attempts += w.attempts;
        led.import_kept += w.imported;
        led.clones_dropped += w.clones;
        led.minimize_ms += w.minimize_ms;
        led.delta_encode_ms += w.encode_ms;
        led.delta_bytes += w.delta.len() as u64;
        led.deltas += 1;
    }
    led.wait_ms += busy.iter().map(|b| (phase_ms - b).max(0.0)).sum::<f64>();
}

/// Books sequential coordinator-side work: the other threads wait.
fn book_sequential(led: &mut Ledger, threads: usize, ms: f64) {
    led.wait_ms += (threads - 1) as f64 * ms;
}

fn decode_all(led: &mut Ledger, work: &[ShardWork]) -> Result<Vec<teapot_rt::ShardDelta>, String> {
    let t = Instant::now();
    let deltas = work
        .iter()
        .map(|w| decode_delta(&w.delta).map_err(|e| format!("delta decode: {e}")))
        .collect();
    led.delta_decode_ms += ms(t);
    deltas
}

/// One campaign, traced. Mirrors `Campaign::run_shared` on `threads`
/// threads; every epoch also ships each shard's phase-0 and phase-1
/// deltas through `encode_delta`/`decode_delta` and merges them onto a
/// boundary in shard order, as the fleet coordinator does.
pub fn campaign(
    prog: &Arc<Program>,
    bin: &Binary,
    seeds: &[Vec<u8>],
    cfg: &CampaignConfig,
    threads: usize,
    led: &mut Ledger,
) -> Result<TracedCampaign, String> {
    let start = Instant::now();
    let n = cfg.shards as usize;
    let mut shards = (0..n)
        .map(|i| CampaignState::new(cfg.shard_fuzz_config(i as u32)))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let ranges = partition(n, threads);
    let threads = ranges.len();
    let mut boundary = vec![StateSnapshot::empty(); n];
    let mut prev_features: Vec<u64> = Vec::new();

    for epoch in 0..cfg.epochs {
        let curr: Vec<u64> = shards
            .iter()
            .map(|s| (s.cov_normal().count_nonzero() + s.cov_spec().count_nonzero()) as u64)
            .collect();
        let budgets = if cfg.adaptive_budgets && prev_features.len() == n {
            adaptive_budgets(cfg.iters_per_epoch, &prev_features, &curr)
        } else {
            vec![cfg.iters_per_epoch; n]
        };
        prev_features = curr;
        let budgets = &budgets;

        // Phase 0: fuzz, then ship the phase-0 delta.
        let t = Instant::now();
        let (fuzzed, busy) = parallel(&mut shards, &ranges, |i, st| {
            let t = Instant::now();
            let (corpus0, iters0, insts0) =
                (st.corpus_len(), st.iters(), retired(&st.vm_counters()));
            if epoch == 0 {
                st.seed_corpus_shared(prog, seeds);
            }
            st.begin_epoch(epoch);
            st.run_iters_shared(prog, budgets[i]);
            let fuzz_ms = ms(t);
            let t = Instant::now();
            let delta = encode_delta(&st.take_delta(i as u32, epoch, 0));
            let encode_ms = ms(t);
            ShardWork {
                busy_ms: fuzz_ms + encode_ms,
                fuzz_ms,
                execs: st.iters() - iters0,
                kept: (st.corpus_len() - corpus0) as u64,
                insts: retired(&st.vm_counters()) - insts0,
                encode_ms,
                delta,
                ..ShardWork::default()
            }
        });
        book_parallel(led, &fuzzed, &busy, ms(t));
        let fuzz: Vec<f64> = fuzzed.iter().map(|w| w.fuzz_ms).collect();
        let mean = fuzz.iter().sum::<f64>() / n as f64;
        led.skew_sum += fuzz.iter().cloned().fold(0.0, f64::max) / mean.max(1e-9);

        // Coordinator: decode the phase-0 deltas, publish fresh inputs.
        let t = Instant::now();
        let phase0 = decode_all(led, &fuzzed)?;
        let f = Instant::now();
        let fresh: Vec<Vec<Vec<u8>>> = shards.iter().map(|s| s.fresh_inputs()).collect();
        led.import_ms += ms(f);
        book_sequential(led, threads, ms(t));

        // Phase 1: barrier imports (clones dropped), minimization, and
        // the phase-1 delta.
        let fresh = &fresh;
        let minimize = cfg.corpus_minimize;
        let t = Instant::now();
        let (imported, busy) = parallel(&mut shards, &ranges, |j, st| {
            let t = Instant::now();
            let mut w = ShardWork::default();
            let mut seen: FxHashSet<&[u8]> = FxHashSet::default();
            for (i, inputs) in fresh.iter().enumerate() {
                if i == j {
                    continue;
                }
                for input in inputs {
                    if st.contains_input(input) || !seen.insert(input.as_slice()) {
                        w.clones += 1;
                        continue;
                    }
                    w.attempts += 1;
                    w.imported += u64::from(st.import_input_shared(prog, input));
                }
            }
            w.import_ms = ms(t);
            let t = Instant::now();
            if minimize {
                // Every entry replays once, unless there is nothing to drop.
                w.minimize_runs = st.corpus_len() as u64 * u64::from(st.corpus_len() > 1);
                st.minimize_corpus(prog);
            }
            w.minimize_ms = ms(t);
            let t = Instant::now();
            w.delta = encode_delta(&st.take_delta(j as u32, epoch, 1));
            w.encode_ms = ms(t);
            w.busy_ms = w.import_ms + w.minimize_ms + w.encode_ms;
            w
        });
        book_parallel(led, &imported, &busy, ms(t));

        // Coordinator: decode, then merge in shard order.
        let t = Instant::now();
        let phase1 = decode_all(led, &imported)?;
        let m = Instant::now();
        for i in 0..n {
            boundary[i].apply_delta(&phase0[i]);
            boundary[i].apply_delta(&phase1[i]);
        }
        led.merge_ms += ms(m);
        book_sequential(led, threads, ms(t));
        led.epochs += 1;
    }

    let states: Vec<StateSnapshot> = shards.iter().map(|s| s.export_snapshot()).collect();
    if states != boundary {
        return Err("merged delta boundary differs from the live shard states".into());
    }
    for s in &shards {
        led.vm.merge(&s.vm_counters());
        led.vm_runs += s.iters();
    }

    let t = Instant::now();
    let snap = boundary_snapshot(cfg, bin, prog, cfg.epochs, &boundary, &prev_features);
    let report = Campaign::resume(&snap, bin)
        .map_err(|e| format!("resume from boundary: {e}"))?
        .report();
    let json = report.to_json();
    let report_ms = ms(t);
    led.report_ms += report_ms;
    book_sequential(led, threads, report_ms);

    let secs = start.elapsed().as_secs_f64();
    led.thread_ms += threads as f64 * secs * 1e3;
    led.campaigns += 1;
    Ok(TracedCampaign {
        report,
        json,
        states,
        secs,
    })
}

/// The `.tcs` image of a boundary, as the fleet coordinator writes it.
pub fn boundary_snapshot(
    cfg: &CampaignConfig,
    bin: &Binary,
    prog: &Program,
    epochs_done: u32,
    boundary: &[StateSnapshot],
    prev_features: &[u64],
) -> CampaignSnapshot {
    CampaignSnapshot {
        config: cfg.clone(),
        bin_fingerprint: fingerprint(bin),
        epochs_done,
        decode_stats: *prog.stats(),
        shard_states: boundary.to_vec(),
        prev_features: prev_features.to_vec(),
    }
}

/// Rendered output of a traced triage pass.
pub struct Rendered {
    /// JSONL report.
    pub jsonl: String,
    /// SARIF 2.1.0 report.
    pub sarif: String,
    /// Witnesses processed.
    pub witnesses: u64,
}

/// One triage pass with minimization and provenance on, traced. Mirrors
/// `teapot_triage::triage` with the default options.
pub fn triage(inputs: &[TriageInput<'_>], led: &mut Ledger) -> (Rendered, f64) {
    let start = Instant::now();
    let mut order: Vec<&TriageInput<'_>> = inputs.iter().collect();
    order.sort_by(|a, b| a.label.cmp(&b.label));
    let mut db = TriageDb::new();
    let (mut witnesses, mut failures) = (0u64, 0u64);
    for input in order {
        let report = input.report;
        let prog = Program::shared(input.bin);
        let enricher = Enricher::new(input.bin, &prog);
        let mut rp = Replayer::new(prog.clone(), ReplayConfig::from_campaign(&input.config));
        let by_key: HashMap<GadgetKey, &GadgetReport> =
            report.gadgets.iter().map(|g| (g.key, g)).collect();
        let mut witnessed: HashSet<GadgetKey> = HashSet::new();
        for sw in &report.witnesses {
            let w = &sw.witness;
            witnessed.insert(w.key);
            witnesses += 1;
            let Some(g) = by_key.get(&w.key).copied() else {
                continue;
            };
            let t = Instant::now();
            let (replayed, minimized, steps) = match minimize(&mut rp, w, DEFAULT_MAX_STEPS) {
                Some(m) => (true, Some(m.input), m.steps),
                None => (false, None, 0),
            };
            led.triage_minimize_ms += ms(t);
            led.ddmin_steps += u64::from(steps);
            failures += u64::from(!replayed);
            let t = Instant::now();
            let chain = replayed
                .then(|| rp.replay_provenance(w))
                .flatten()
                .and_then(|trace| provenance::extract(&trace, g))
                .map(|mut chain| {
                    for step in &mut chain.steps {
                        step.symbol = enricher.symbolize(step.pc);
                    }
                    chain
                });
            led.provenance_ms += ms(t);
            let t = Instant::now();
            db.insert(entry(
                &enricher,
                &input.label,
                sw.shard,
                g,
                Some(w),
                (replayed, minimized, steps),
                chain,
            ));
            led.enrich_ms += ms(t);
            led.entries += 1;
        }
        for g in &report.gadgets {
            if !witnessed.contains(&g.key) {
                let t = Instant::now();
                db.insert(entry(
                    &enricher,
                    &input.label,
                    0,
                    g,
                    None,
                    (false, None, 0),
                    None,
                ));
                led.enrich_ms += ms(t);
                led.entries += 1;
            }
        }
        db.binaries.push(BinaryStats {
            binary: input.label.clone(),
            decode_stats: report.decode_stats,
            iters: report.iters,
            raw_gadgets: report.gadgets.len(),
        });
    }
    let t = Instant::now();
    db.finalize();
    let rendered = Rendered {
        jsonl: db.to_jsonl(),
        sarif: sarif::render(&db),
        witnesses,
    };
    std::hint::black_box(db.to_text());
    led.render_ms += ms(t);
    led.triage_passes += 1;
    led.witnesses += witnesses;
    led.replay_failures += failures;
    let secs = start.elapsed().as_secs_f64();
    led.thread_ms += secs * 1e3;
    (rendered, secs)
}

/// `teapot_triage`'s entry builder, rebuilt from the public fields.
fn entry(
    enricher: &Enricher<'_>,
    label: &str,
    shard: u32,
    g: &GadgetReport,
    w: Option<&GadgetWitness>,
    (replayed, minimized_input, minimize_steps): (bool, Option<Vec<u8>>, u32),
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

/// VM probe results: per-execution wall times and resets.
#[derive(Debug, Default)]
pub struct VmProbe {
    /// Microseconds per `Machine::with_context` + `run_stats`.
    pub exec_us: Vec<f64>,
    /// Microseconds per `ExecContext::reset` of a just-used context.
    pub reset_us: Vec<f64>,
    /// Guest instructions retired by the probe runs.
    pub insts: u64,
}

/// Re-executes every shard's final corpus on one pooled context, with
/// heuristics seeded from that shard's exported counts, timing each run
/// and each reset separately.
pub fn vm_probe(
    prog: &Arc<Program>,
    cfg: &CampaignConfig,
    states: &[StateSnapshot],
    probe: &mut VmProbe,
) {
    let mut ctx = ExecContext::new(prog);
    ctx.set_witness_recording(cfg.capture_witnesses);
    for (i, s) in states.iter().enumerate() {
        let fc = cfg.shard_fuzz_config(i as u32);
        let mut heur = SpecHeuristics::from_counts(fc.heur_style, &s.heur_counts);
        for (input, _) in &s.corpus {
            let opts = RunOptions {
                input: input.clone(),
                fuel: fc.fuel_per_run,
                config: fc.detector.clone(),
                emu: fc.emu,
                models: fc.models,
            };
            let t = Instant::now();
            let stats = Machine::with_context(prog, &mut ctx, opts).run_stats(&mut heur);
            probe.exec_us.push(ms(t) * 1e3);
            probe.insts += stats.insts;
            let _ = ctx.take_gadgets();
            let t = Instant::now();
            ctx.reset(prog);
            probe.reset_us.push(ms(t) * 1e3);
        }
    }
}

/// Microseconds per `Replayer::replay` of each witness, on a fresh
/// replayer per report (so the traced pass's replay counts stay exact).
pub fn replay_probe(inputs: &[TriageInput<'_>]) -> Vec<f64> {
    let mut us = Vec::new();
    for input in inputs {
        let mut rp = Replayer::new(
            Program::shared(input.bin),
            ReplayConfig::from_campaign(&input.config),
        );
        for sw in &input.report.witnesses {
            let t = Instant::now();
            let _ = rp.replay(&sw.witness);
            us.push(ms(t) * 1e3);
        }
    }
    us
}

/// What barrier minimization would cost on a campaign that does not run
/// it: `minimize_corpus` on every shard rebuilt from its final state.
pub fn minimize_probe(
    prog: &Arc<Program>,
    cfg: &CampaignConfig,
    states: &[StateSnapshot],
) -> Result<f64, String> {
    let mut total = 0.0;
    for (i, s) in states.iter().enumerate() {
        let mut st = CampaignState::from_snapshot(cfg.shard_fuzz_config(i as u32), s)
            .map_err(|e| e.to_string())?;
        let t = Instant::now();
        st.minimize_corpus(prog);
        total += ms(t);
    }
    Ok(total)
}

/// One `.tcs` checkpoint of a campaign's final boundary: milliseconds to
/// encode it (`to_bytes`) and to save it (`save`: encode, write, fsync,
/// rename; median of three), and the file size in bytes.
pub fn checkpoint_probe(snap: &CampaignSnapshot, path: &Path) -> Result<(f64, f64, u64), String> {
    let t = Instant::now();
    std::hint::black_box(snap.to_bytes());
    let encode_ms = ms(t);
    let mut saves = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        snap.save(path)
            .map_err(|e| format!("checkpoint {}: {e}", path.display()))?;
        saves.push(ms(t));
    }
    let bytes = std::fs::metadata(path).map_or(0, |m| m.len());
    Ok((encode_ms, crate::median(&saves), bytes))
}
