//! `teapot-campaign` — a sharded, resumable, parallel fuzzing-campaign
//! orchestrator over [`teapot_fuzz`] workers.
//!
//! The paper's workflow culminates in long coverage-guided fuzzing
//! sessions over instrumented COTS binaries (Fig. 3; §6.3). This crate
//! is the one way to run them: the CLI, the fleet, queue mode, the
//! paper's tables and the examples all run a [`Campaign`], a one-shard
//! campaign of one epoch being the plain sequential fuzzer. It scales
//! out as follows:
//!
//! * **Sharding** — a campaign is split into `shards` deterministic
//!   sub-campaigns. Shard *i* fuzzes with RNG seed `seed ⊕ i` over its
//!   own corpus, so shards explore different parts of the input space.
//! * **Epoch barriers** — fuzzing proceeds in epochs of
//!   `iters_per_epoch` executions per shard. At each barrier the shards
//!   exchange the inputs they found interesting (cross-pollination, the
//!   corpus-sync of distributed AFL/honggfuzz deployments), coverage
//!   maps are unioned, and gadget reports are deduplicated by
//!   [`GadgetKey`].
//! * **Determinism** — merging happens strictly in shard-index order and
//!   worker threads only decide *which CPU runs which shard*, never what
//!   a shard computes. The merged gadget set and the JSON report are
//!   bit-identical for any `workers` value (acceptance: `--workers 8`
//!   equals `--workers 1` byte-for-byte).
//! * **Snapshots** — [`Campaign::snapshot`] serializes every shard
//!   (corpus, per-branch [`SpecHeuristics`] counts, coverage maps, RNG
//!   epoch) into a [`.tcs` file](snapshot); a killed campaign resumed
//!   with [`Campaign::resume`] replays bit-identically to one that never
//!   stopped, because shard RNGs are re-seeded from `(seed, epoch)` at
//!   every epoch boundary rather than serialized.
//! * **Queue mode** — [`queue::run_queue`] scans a directory of `.tof`
//!   binaries and pushes each through instrument → fuzz → report in one
//!   invocation.
//!
//! [`SpecHeuristics`]: teapot_vm::SpecHeuristics

pub mod epoch;
pub mod json;
pub mod queue;
pub mod snapshot;

use std::collections::BTreeMap;
use std::sync::Arc;
use teapot_fuzz::{CampaignState, ConfigError, FuzzConfig};
use teapot_obj::Binary;
use teapot_rt::{
    CovMap, DetectorConfig, FxHashSet, GadgetKey, GadgetReport, GadgetWitness, SpecModelSet,
};
use teapot_telemetry::{Event, MetricsSink, Stopwatch, VmCounters, MODEL_NAMES};
use teapot_vm::{BlockProfile, DecodeStats, EmuStyle, ExecContext, HeurStyle, Program};

pub use epoch::{adaptive_budgets, EpochClock, EpochPlan};
pub use snapshot::{CampaignSnapshot, SnapshotError};

/// Orchestrator configuration.
///
/// `shards`, `seed`, `epochs` and `iters_per_epoch` define *what* the
/// campaign computes; `workers` only defines how many OS threads execute
/// it and never influences results.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// Base RNG seed; shard `i` fuzzes with `seed ^ i`.
    pub seed: u64,
    /// Number of deterministic sub-campaigns (the determinism unit).
    pub shards: u32,
    /// OS threads executing shards; `0` means "one per available CPU,
    /// at most one per shard". Results never depend on this.
    pub workers: usize,
    /// Epoch barriers to run.
    pub epochs: u32,
    /// Mutate-and-execute iterations per shard per epoch.
    pub iters_per_epoch: u64,
    /// Maximum input length the mutators will grow to.
    pub max_input_len: usize,
    /// Per-run cost budget.
    pub fuel_per_run: u64,
    /// Detector configuration passed to every run.
    pub detector: DetectorConfig,
    /// Execution style (native for instrumented binaries).
    pub emu: EmuStyle,
    /// Which tool's nested-speculation heuristic to persist.
    pub heur_style: HeurStyle,
    /// Active speculation models for every run of every shard
    /// (`--spec-models pht,rsb,stl`). Part of *what* the campaign
    /// computes, so it is snapshotted into the `.tcs` header.
    pub models: SpecModelSet,
    /// Dictionary tokens spliced into inputs.
    pub dictionary: Vec<Vec<u8>>,
    /// Capture replayable witnesses for first-seen gadgets (see
    /// [`FuzzConfig::capture_witnesses`]). On by default; `teapot-triage`
    /// requires them for deterministic replay and minimization.
    pub capture_witnesses: bool,
    /// Adaptive shard budgets: at each epoch barrier, steal half the
    /// iteration budget of every *plateaued* shard (no new coverage
    /// feature last epoch) and redistribute it evenly across the shards
    /// still discovering. Decided purely from merged coverage counts at
    /// the barrier, so it is part of *what* the campaign computes
    /// (snapshotted in `.tcs`) and identical across worker counts and
    /// fleet layouts. Off by default.
    pub adaptive_budgets: bool,
    /// Coverage-subsumption corpus minimization at each epoch barrier
    /// (after the cross-shard exchange): greedily drop corpus entries
    /// whose coverage is subsumed by earlier entries. Deterministic and
    /// snapshotted like `adaptive_budgets`. Off by default.
    pub corpus_minimize: bool,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        let f = FuzzConfig::default();
        CampaignConfig {
            seed: f.seed,
            shards: 8,
            workers: 0,
            epochs: 4,
            iters_per_epoch: 250,
            max_input_len: f.max_input_len,
            fuel_per_run: f.fuel_per_run,
            detector: f.detector,
            emu: f.emu,
            heur_style: f.heur_style,
            models: f.models,
            dictionary: f.dictionary,
            capture_witnesses: f.capture_witnesses,
            adaptive_budgets: false,
            corpus_minimize: false,
        }
    }
}

impl CampaignConfig {
    /// Validates the orchestration budgets, rejecting configurations
    /// that would silently do nothing.
    pub fn validate(&self) -> Result<(), CampaignError> {
        if self.shards == 0 {
            return Err(CampaignError::ZeroShards);
        }
        if self.epochs == 0 {
            return Err(CampaignError::ZeroEpochs);
        }
        if self.iters_per_epoch == 0 {
            return Err(CampaignError::ZeroIters);
        }
        self.shard_fuzz_config(0)
            .validate()
            .map_err(CampaignError::Fuzz)
    }

    /// The [`FuzzConfig`] shard `i` runs under (`seed ⊕ i`).
    pub fn shard_fuzz_config(&self, shard: u32) -> FuzzConfig {
        FuzzConfig {
            seed: self.seed ^ shard as u64,
            max_input_len: self.max_input_len,
            fuel_per_run: self.fuel_per_run,
            detector: self.detector.clone(),
            emu: self.emu,
            heur_style: self.heur_style,
            models: self.models,
            dictionary: self.dictionary.clone(),
            capture_witnesses: self.capture_witnesses,
        }
    }

    /// The thread count actually used for `shards` shards.
    pub fn effective_workers(&self) -> usize {
        let auto = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let w = if self.workers == 0 {
            auto
        } else {
            self.workers
        };
        w.clamp(1, self.shards as usize)
    }
}

/// Errors from campaign orchestration.
#[derive(Debug)]
pub enum CampaignError {
    /// `shards` was zero.
    ZeroShards,
    /// `epochs` was zero.
    ZeroEpochs,
    /// `iters_per_epoch` was zero.
    ZeroIters,
    /// An *explicit* `--workers 0` (config `workers == 0` means auto,
    /// but a user asking for zero worker threads is asking for nothing
    /// to run).
    ZeroWorkers,
    /// An explicit `--fleet 0`: a fleet with no workers cannot run.
    ZeroFleet,
    /// A per-shard fuzzer configuration was invalid.
    Fuzz(ConfigError),
    /// Snapshot (de)serialization failed.
    Snapshot(SnapshotError),
    /// Filesystem access failed (queue mode, snapshot I/O).
    Io(std::io::Error),
    /// A queued binary failed to parse or instrument.
    Binary {
        /// Path of the offending file.
        path: String,
        /// Parse or rewrite error text.
        reason: String,
    },
    /// A `.tcs` snapshot file failed to read or parse — names the file
    /// so "truncated at byte N" points somewhere actionable.
    SnapshotFile {
        /// Path of the offending snapshot.
        path: String,
        /// Read or parse error text.
        reason: String,
    },
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::ZeroShards => {
                write!(f, "shards must be > 0 (campaign would be empty)")
            }
            CampaignError::ZeroEpochs => {
                write!(f, "epochs must be > 0 (campaign would be empty)")
            }
            CampaignError::ZeroIters => {
                write!(f, "iters_per_epoch must be > 0 (campaign would be empty)")
            }
            CampaignError::ZeroWorkers => {
                write!(f, "workers must be > 0 (omit --workers to use one per CPU)")
            }
            CampaignError::ZeroFleet => {
                write!(f, "fleet size must be > 0 (a fleet needs workers)")
            }
            CampaignError::Fuzz(e) => write!(f, "fuzzer config: {e}"),
            CampaignError::Snapshot(e) => write!(f, "snapshot: {e}"),
            CampaignError::Io(e) => write!(f, "i/o: {e}"),
            CampaignError::Binary { path, reason } => {
                write!(f, "{path}: {reason}")
            }
            CampaignError::SnapshotFile { path, reason } => {
                write!(f, "{path}: {reason}")
            }
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<ConfigError> for CampaignError {
    fn from(e: ConfigError) -> Self {
        CampaignError::Fuzz(e)
    }
}

impl From<SnapshotError> for CampaignError {
    fn from(e: SnapshotError) -> Self {
        CampaignError::Snapshot(e)
    }
}

impl From<std::io::Error> for CampaignError {
    fn from(e: std::io::Error) -> Self {
        CampaignError::Io(e)
    }
}

/// Per-shard statistics in a [`CampaignReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSummary {
    /// Shard index.
    pub shard: u32,
    /// Executions this shard performed (fuzzing + imports).
    pub iters: u64,
    /// Final corpus size of the shard.
    pub corpus_len: usize,
    /// Gadgets the shard found (before cross-shard deduplication).
    pub gadgets: usize,
    /// Crashing runs.
    pub crashes: u64,
    /// Cost units spent executing.
    pub total_cost: u64,
}

/// A merged witness: which shard first reported the gadget, plus the
/// replayable evidence itself. Deduplicated exactly like the gadget list
/// (first shard in index order wins), so the attribution is identical
/// for every worker count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardWitness {
    /// Index of the shard that first found the gadget.
    pub shard: u32,
    /// The replayable witness.
    pub witness: GadgetWitness,
}

/// Merged results of a sharded campaign. Built strictly in shard-index
/// order, so it is identical for every worker count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignReport {
    /// Base seed of the campaign.
    pub seed: u64,
    /// Number of shards.
    pub shards: u32,
    /// Epochs completed.
    pub epochs: u32,
    /// Speculation models every run simulated.
    pub spec_models: SpecModelSet,
    /// Total executions across shards.
    pub iters: u64,
    /// Total cost units across shards.
    pub total_cost: u64,
    /// Total crashing runs across shards.
    pub crashes: u64,
    /// Sum of shard corpus sizes.
    pub corpus_total: usize,
    /// Distinct normal-coverage features in the unioned map.
    pub cov_normal_features: usize,
    /// Distinct speculative-coverage features in the unioned map.
    pub cov_spec_features: usize,
    /// Gadgets deduplicated by [`GadgetKey`], in shard-index order then
    /// per-shard discovery order.
    pub gadgets: Vec<GadgetReport>,
    /// Replayable witnesses for the gadgets above, deduplicated the same
    /// way (empty when witness capture was off).
    pub witnesses: Vec<ShardWitness>,
    /// Deduplicated gadget counts per `Controllability-Channel` bucket.
    pub buckets: BTreeMap<String, usize>,
    /// Per-shard statistics, indexed by shard.
    pub per_shard: Vec<ShardSummary>,
    /// What the shared decode pass covered (one decode serves every
    /// shard; snapshotted into `.tcs` so resumed and remote campaigns
    /// can audit decode behavior cross-host).
    pub decode_stats: DecodeStats,
}

impl CampaignReport {
    /// Number of unique gadgets across all shards.
    pub fn unique_gadgets(&self) -> usize {
        self.gadgets.len()
    }

    /// Count for one bucket, e.g. `"User-Cache"`.
    pub fn bucket(&self, name: &str) -> usize {
        self.buckets.get(name).copied().unwrap_or(0)
    }

    /// Deterministic JSON rendering (see [`json`]): byte-identical for
    /// identical campaign results, independent of worker count.
    pub fn to_json(&self) -> String {
        json::render_report(self)
    }
}

/// A sharded fuzzing campaign in progress.
pub struct Campaign {
    cfg: CampaignConfig,
    shards: Vec<CampaignState>,
    clock: EpochClock,
    /// Decode-pass coverage of the shared [`Program`], cached from the
    /// last epoch run (or restored from a snapshot) so reports and
    /// `.tcs` files can carry it without re-decoding the binary.
    decode_stats: DecodeStats,
    /// Metrics JSONL stream (`--metrics`). Emission-only: whether a sink
    /// is attached never influences what the campaign computes.
    metrics: Option<MetricsSink>,
    /// Live per-epoch progress line on stderr.
    heartbeat: bool,
    /// Per-shard `(execs, timeline entries)` watermarks from the last
    /// emitted epoch, for delta events.
    emitted: Vec<(u64, usize)>,
}

impl Campaign {
    /// Creates a campaign with empty shard states.
    pub fn new(cfg: CampaignConfig) -> Result<Campaign, CampaignError> {
        cfg.validate()?;
        let shards = (0..cfg.shards)
            .map(|i| CampaignState::new(cfg.shard_fuzz_config(i)))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Campaign {
            cfg,
            shards,
            clock: EpochClock::default(),
            decode_stats: DecodeStats::default(),
            metrics: None,
            heartbeat: false,
            emitted: Vec::new(),
        })
    }

    /// Rebuilds a campaign from a snapshot (see [`snapshot`]). `bin`
    /// must be the same binary the snapshot was taken against.
    pub fn resume(snap: &CampaignSnapshot, bin: &Binary) -> Result<Campaign, CampaignError> {
        let clock = EpochClock::resume(snap, bin)?;
        let shards = snap
            .shard_states
            .iter()
            .enumerate()
            .map(|(i, s)| CampaignState::from_snapshot(snap.config.shard_fuzz_config(i as u32), s))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Campaign {
            cfg: snap.config.clone(),
            shards,
            clock,
            decode_stats: snap.decode_stats,
            metrics: None,
            heartbeat: false,
            emitted: Vec::new(),
        })
    }

    /// The configuration this campaign runs under.
    pub fn config(&self) -> &CampaignConfig {
        &self.cfg
    }

    /// Overrides the worker-thread count (safe at any time: thread count
    /// is an execution detail that never influences results). `0` means
    /// auto.
    pub fn set_workers(&mut self, workers: usize) {
        self.cfg.workers = workers;
    }

    /// Epochs completed so far.
    pub fn epochs_done(&self) -> u32 {
        self.clock.epochs_done()
    }

    /// Whether every configured epoch has run.
    pub fn finished(&self) -> bool {
        self.clock.epochs_done() >= self.cfg.epochs
    }

    /// Runs one epoch of the [epoch engine](epoch) on live shard states:
    /// every shard fuzzes its planned budget (in parallel across
    /// `workers` threads), then the barrier exchanges fresh inputs
    /// between shards. `seeds` initializes shard corpora on the first
    /// epoch and is ignored afterwards.
    ///
    /// Runs over a shared predecoded program (decode once with
    /// [`Program::shared`]): one decode pass and one pristine memory
    /// image serve every shard on every worker thread.
    pub fn run_epoch_shared(&mut self, prog: &Arc<Program>, seeds: &[Vec<u8>]) {
        self.decode_stats = *prog.stats();
        let watch = Stopwatch::new();
        let features = self.shards.iter().map(epoch::features).collect();
        let plan = self.clock.plan(&self.cfg, features);
        let ranges = partition(self.shards.len(), self.cfg.effective_workers());

        // Phase 1 — fuzz; then phase 2 — the barrier, where every shard
        // imports what the others found this epoch (shard-index order).
        let plan = &plan;
        par_shards(&mut self.shards, &ranges, |i, st| {
            epoch::fuzz_shard(
                st,
                prog,
                seeds,
                plan.epoch,
                plan.seed_first,
                plan.budgets[i],
            );
        });
        let fresh: Vec<Vec<Vec<u8>>> = self.shards.iter().map(|s| s.fresh_inputs()).collect();
        let minimize = self.cfg.corpus_minimize;
        par_shards(&mut self.shards, &ranges, |i, st| {
            epoch::barrier_shard(st, prog, i, &fresh, minimize);
        });

        self.emit_epoch(plan.epoch, watch.ms());
    }

    /// Streams the epoch's telemetry (metrics JSONL + heartbeat).
    /// Reached after the barrier, outside all worker threads; a no-op
    /// unless a sink or the heartbeat is enabled.
    fn emit_epoch(&mut self, epoch: u32, wall_ms: u64) {
        if self.metrics.is_none() && !self.heartbeat {
            return;
        }
        if self.emitted.len() != self.shards.len() {
            self.emitted = vec![(0, 0); self.shards.len()];
        }
        let mut execs = 0u64;
        let mut corpus = 0usize;
        let mut keys: FxHashSet<GadgetKey> = FxHashSet::default();
        for st in &self.shards {
            execs += st.iters();
            corpus += st.corpus_len();
            keys.extend(st.gadgets().iter().map(|g| g.key));
        }
        let unique = keys.len();
        if let Some(sink) = &mut self.metrics {
            sink.emit(
                Event::new("epoch")
                    .num("epoch", epoch as u64)
                    .num("wall_ms", wall_ms)
                    .num("execs", execs)
                    .num("corpus", corpus as u64)
                    .num("unique_gadgets", unique as u64),
            );
            for (i, st) in self.shards.iter().enumerate() {
                let (prev_execs, prev_seen) = self.emitted[i];
                sink.emit(
                    Event::new("shard")
                        .num("epoch", epoch as u64)
                        .num("shard", i as u64)
                        .num("execs", st.iters() - prev_execs)
                        .num("corpus", st.corpus_len() as u64)
                        .num("cov_normal", st.cov_normal().count_nonzero() as u64)
                        .num("cov_spec", st.cov_spec().count_nonzero() as u64)
                        .num("gadgets", st.gadgets().len() as u64),
                );
                for (ord, key) in &st.gadget_timeline()[prev_seen..] {
                    sink.emit(
                        Event::new("gadget_first_seen")
                            .num("shard", i as u64)
                            .num("exec", *ord)
                            .hex("pc", key.pc)
                            .str_field("model", MODEL_NAMES[key.model.id() as usize]),
                    );
                }
            }
        }
        for (i, st) in self.shards.iter().enumerate() {
            self.emitted[i] = (st.iters(), st.gadget_timeline().len());
        }
        if self.heartbeat {
            eprintln!(
                "[teapot] epoch {}/{}: {} execs, corpus {}, {} unique gadgets ({:.2}s)",
                epoch + 1,
                self.cfg.epochs.max(epoch + 1),
                execs,
                corpus,
                unique,
                wall_ms as f64 / 1000.0,
            );
        }
    }

    /// Runs all remaining epochs over a shared predecoded program and
    /// returns the merged report.
    pub fn run_shared(&mut self, prog: &Arc<Program>, seeds: &[Vec<u8>]) -> CampaignReport {
        while !self.finished() {
            self.run_epoch_shared(prog, seeds);
        }
        self.report()
    }

    /// Merges shard results strictly in shard-index order.
    pub fn report(&self) -> CampaignReport {
        let mut gadget_keys: std::collections::HashSet<GadgetKey> =
            std::collections::HashSet::new();
        let mut witness_keys: std::collections::HashSet<GadgetKey> =
            std::collections::HashSet::new();
        let mut gadgets: Vec<GadgetReport> = Vec::new();
        let mut witnesses: Vec<ShardWitness> = Vec::new();
        let mut buckets: BTreeMap<String, usize> = BTreeMap::new();
        let mut union_normal = CovMap::new();
        let mut union_spec = CovMap::new();
        let mut per_shard = Vec::with_capacity(self.shards.len());
        let (mut iters, mut total_cost, mut crashes, mut corpus_total) = (0u64, 0u64, 0u64, 0usize);

        for (i, st) in self.shards.iter().enumerate() {
            for g in st.gadgets() {
                if gadget_keys.insert(g.key) {
                    *buckets.entry(g.bucket()).or_insert(0) += 1;
                    gadgets.push(g.clone());
                }
            }
            for w in st.witnesses() {
                if witness_keys.insert(w.key) {
                    witnesses.push(ShardWitness {
                        shard: i as u32,
                        witness: w.clone(),
                    });
                }
            }
            st.cov_normal().merge_into(&mut union_normal);
            st.cov_spec().merge_into(&mut union_spec);
            let summary = ShardSummary {
                shard: i as u32,
                iters: st.iters(),
                corpus_len: st.corpus_len(),
                gadgets: st.gadgets().len(),
                crashes: st.crashes(),
                total_cost: st.total_cost(),
            };
            iters += summary.iters;
            corpus_total += summary.corpus_len;
            total_cost += summary.total_cost;
            crashes += summary.crashes;
            per_shard.push(summary);
        }

        CampaignReport {
            seed: self.cfg.seed,
            shards: self.cfg.shards,
            epochs: self.clock.epochs_done(),
            spec_models: self.cfg.models,
            iters,
            total_cost,
            crashes,
            corpus_total,
            cov_normal_features: union_normal.count_nonzero(),
            cov_spec_features: union_spec.count_nonzero(),
            gadgets,
            witnesses,
            buckets,
            per_shard,
            decode_stats: self.decode_stats,
        }
    }

    /// Drains the pooled [`ExecContext`]s out of every shard, in shard
    /// index order — queue mode recycles them into the next binary's
    /// campaign instead of rebuilding per binary. Shards that never
    /// executed contribute nothing.
    pub fn harvest_contexts(&mut self) -> Vec<ExecContext> {
        self.shards
            .iter_mut()
            .filter_map(|s| s.harvest_context())
            .collect()
    }

    /// Hands recycled [`ExecContext`]s to the shards (one each, shard
    /// index order; extras are dropped). A donated context is reset
    /// against the shard's program on first use — observably identical
    /// to a fresh one, so results never depend on recycling.
    pub fn donate_contexts(&mut self, ctxs: Vec<ExecContext>) {
        for (shard, ctx) in self.shards.iter_mut().zip(ctxs) {
            shard.donate_context(ctx);
        }
    }

    /// Attaches a metrics JSONL sink (`--metrics`). Emission-only:
    /// attaching a sink never changes what the campaign computes.
    pub fn set_metrics(&mut self, sink: MetricsSink) {
        self.metrics = Some(sink);
    }

    /// Detaches the metrics sink (to append pipeline-level events and
    /// flush it once the campaign is done).
    pub fn take_metrics(&mut self) -> Option<MetricsSink> {
        self.metrics.take()
    }

    /// Enables the per-epoch stderr progress line.
    pub fn set_heartbeat(&mut self, on: bool) {
        self.heartbeat = on;
    }

    /// Enables the guest hot-site profiler on every shard (see
    /// [`CampaignState::set_block_profiling`]).
    pub fn set_block_profiling(&mut self, on: bool) {
        for st in &mut self.shards {
            st.set_block_profiling(on);
        }
    }

    /// Executions until the campaign's first gadget: the minimum over
    /// shards of the 1-based ordinal at which a shard first reported
    /// one. A pure function of the campaign seed — independent of
    /// worker count and wall-clock — so it may appear in benchmark
    /// artifacts, not just telemetry.
    pub fn time_to_first_gadget_execs(&self) -> Option<u64> {
        self.shards
            .iter()
            .filter_map(|s| s.gadget_timeline().first().map(|(ord, _)| *ord))
            .min()
    }

    /// Per-shard VM telemetry counters, in shard-index order.
    pub fn vm_counters(&self) -> Vec<VmCounters> {
        self.shards.iter().map(|s| s.vm_counters()).collect()
    }

    /// VM telemetry counters summed over all shards.
    pub fn merged_vm_counters(&self) -> VmCounters {
        let mut total = VmCounters::default();
        for s in &self.shards {
            total.merge(&s.vm_counters());
        }
        total
    }

    /// The union of every shard's hot-site profile (`None` unless
    /// profiling was enabled and at least one shard executed).
    pub fn merged_profile(&self) -> Option<BlockProfile> {
        let mut merged: Option<BlockProfile> = None;
        for st in &self.shards {
            if let Some(p) = st.block_profile() {
                match &mut merged {
                    Some(m) => m.merge(p),
                    None => merged = Some(p.clone()),
                }
            }
        }
        merged
    }

    /// Per-shard log2-bucketed per-run cost distributions, in
    /// shard-index order.
    pub fn cost_histograms(&self) -> Vec<[u64; 65]> {
        self.shards
            .iter()
            .map(|s| s.cost_histogram().snapshot())
            .collect()
    }

    /// Captures the whole campaign (config + every shard) into a
    /// snapshot bound to `bin` by fingerprint.
    pub fn snapshot(&self, bin: &Binary) -> CampaignSnapshot {
        self.clock.snapshot(
            &self.cfg,
            snapshot::fingerprint(bin),
            self.decode_stats,
            self.shards.iter().map(|s| s.export_snapshot()).collect(),
        )
    }
}

/// Runs `f(shard index, state)` on every shard: one thread per range of
/// `ranges`, each driving its contiguous chunk in order. The partition is
/// an execution detail — shard states never interact within a phase.
fn par_shards(
    shards: &mut [CampaignState],
    ranges: &[std::ops::Range<usize>],
    f: impl Fn(usize, &mut CampaignState) + Sync,
) {
    let f = &f;
    std::thread::scope(|scope| {
        let mut rest = shards;
        for r in ranges {
            let (chunk, tail) = rest.split_at_mut(r.len());
            rest = tail;
            scope.spawn(move || {
                for (k, st) in chunk.iter_mut().enumerate() {
                    f(r.start + k, st);
                }
            });
        }
    });
}

/// Balanced contiguous partition of `shards` over `workers` threads:
/// exactly `min(workers, shards)` non-empty ranges, the first
/// `shards % workers` one element longer, covering `0..shards` in order.
/// Public because the fabric coordinator leases shards to fleet workers
/// with the same split (an execution detail either way).
pub fn partition(shards: usize, workers: usize) -> Vec<std::ops::Range<usize>> {
    let w = workers.clamp(1, shards.max(1));
    let (base, rem) = (shards / w, shards % w);
    let mut ranges = Vec::with_capacity(w);
    let mut start = 0;
    for i in 0..w {
        let len = base + usize::from(i < rem);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

/// Convenience wrapper: new campaign, all epochs, merged report.
pub fn run_campaign(
    bin: &Binary,
    seeds: &[Vec<u8>],
    cfg: &CampaignConfig,
) -> Result<CampaignReport, CampaignError> {
    Ok(Campaign::new(cfg.clone())?.run_shared(&Program::shared(bin), seeds))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation_catches_empty_budgets() {
        let ok = CampaignConfig::default();
        assert!(ok.validate().is_ok());
        let bad = CampaignConfig {
            shards: 0,
            ..CampaignConfig::default()
        };
        assert!(matches!(bad.validate(), Err(CampaignError::ZeroShards)));
        let bad = CampaignConfig {
            epochs: 0,
            ..CampaignConfig::default()
        };
        assert!(matches!(bad.validate(), Err(CampaignError::ZeroEpochs)));
        let bad = CampaignConfig {
            iters_per_epoch: 0,
            ..CampaignConfig::default()
        };
        assert!(matches!(bad.validate(), Err(CampaignError::ZeroIters)));
        assert!(CampaignError::ZeroIters
            .to_string()
            .contains("iters_per_epoch"));
        let bad = CampaignConfig {
            fuel_per_run: 0,
            ..CampaignConfig::default()
        };
        assert!(matches!(
            bad.validate(),
            Err(CampaignError::Fuzz(ConfigError::ZeroFuel))
        ));
    }

    #[test]
    fn shard_seeds_are_xored() {
        let cfg = CampaignConfig {
            seed: 0xABCD,
            ..CampaignConfig::default()
        };
        assert_eq!(cfg.shard_fuzz_config(0).seed, 0xABCD);
        assert_eq!(cfg.shard_fuzz_config(5).seed, 0xABCD ^ 5);
    }

    #[test]
    fn worker_count_is_clamped_to_shards() {
        let cfg = CampaignConfig {
            shards: 4,
            workers: 64,
            ..CampaignConfig::default()
        };
        assert_eq!(cfg.effective_workers(), 4);
        let cfg = CampaignConfig {
            shards: 4,
            workers: 1,
            ..CampaignConfig::default()
        };
        assert_eq!(cfg.effective_workers(), 1);
    }

    #[test]
    fn partition_covers_all_shards_with_full_thread_use() {
        for shards in 1..20usize {
            for workers in 1..10usize {
                let ranges = partition(shards, workers);
                // Exactly min(workers, shards) non-empty contiguous
                // ranges tiling 0..shards in order.
                assert_eq!(ranges.len(), workers.min(shards));
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next);
                    assert!(!r.is_empty());
                    next = r.end;
                }
                assert_eq!(next, shards);
                // Balanced: lengths differ by at most one.
                let lens: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                assert!(max - min <= 1);
            }
        }
    }
}
