//! `teapot-campaign` — a sharded, resumable, parallel fuzzing-campaign
//! orchestrator over [`teapot_fuzz`] workers.
//!
//! The paper's workflow culminates in long coverage-guided fuzzing
//! sessions over instrumented COTS binaries (Fig. 3; §6.3). A single
//! sequential [`teapot_fuzz::fuzz`] call reproduces that at experiment
//! scale; this crate scales it out:
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
    /// computes, so it is snapshotted into the `.tcs` v3 header.
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
    /// (snapshotted in `.tcs` v5) and identical across worker counts and
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
            return Err(CampaignError::Fuzz(ConfigError::ZeroIters));
        }
        self.shard_fuzz_config(0)
            .validate()
            .map_err(CampaignError::Fuzz)
    }

    /// The [`FuzzConfig`] shard `i` runs under (`seed ⊕ i`).
    pub fn shard_fuzz_config(&self, shard: u32) -> FuzzConfig {
        FuzzConfig {
            seed: self.seed ^ shard as u64,
            max_iters: self
                .iters_per_epoch
                .saturating_mul(self.epochs as u64)
                .max(1),
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
    epochs_done: u32,
    seeded: bool,
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
    /// Per-shard coverage-feature counts observed at the start of the
    /// last epoch, the reference point [`adaptive_budgets`] diffs
    /// against. Part of campaign state (snapshotted in `.tcs` v5): a
    /// resumed campaign must hand out the same budgets as an
    /// uninterrupted one. Empty until the first epoch runs.
    prev_features: Vec<u64>,
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
            epochs_done: 0,
            seeded: false,
            decode_stats: DecodeStats::default(),
            metrics: None,
            heartbeat: false,
            emitted: Vec::new(),
            prev_features: Vec::new(),
        })
    }

    /// Rebuilds a campaign from a snapshot (see [`snapshot`]). `bin`
    /// must be the same binary the snapshot was taken against.
    pub fn resume(snap: &CampaignSnapshot, bin: &Binary) -> Result<Campaign, CampaignError> {
        let fingerprint = snapshot::fingerprint(bin);
        if snap.bin_fingerprint != fingerprint {
            return Err(SnapshotError::BinaryMismatch {
                expected: snap.bin_fingerprint,
                actual: fingerprint,
            }
            .into());
        }
        snap.config.validate()?;
        if snap.shard_states.len() != snap.config.shards as usize {
            return Err(SnapshotError::Corrupt("shard count mismatch").into());
        }
        let shards = snap
            .shard_states
            .iter()
            .enumerate()
            .map(|(i, s)| CampaignState::from_snapshot(snap.config.shard_fuzz_config(i as u32), s))
            .collect::<Result<Vec<_>, _>>()?;
        // A snapshot taken before the first epoch has empty corpora and
        // must still run seed_corpus on resume, or it would silently
        // fall back to the default input and diverge from an
        // uninterrupted run with the same seeds.
        let seeded = snap.epochs_done > 0 || snap.shard_states.iter().any(|s| !s.corpus.is_empty());
        Ok(Campaign {
            cfg: snap.config.clone(),
            shards,
            epochs_done: snap.epochs_done,
            seeded,
            decode_stats: snap.decode_stats,
            metrics: None,
            heartbeat: false,
            emitted: Vec::new(),
            prev_features: snap.prev_features.clone(),
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

    /// Raises the total epoch budget (e.g. to extend a resumed campaign
    /// beyond its original plan). Never lowers it below what already ran.
    pub fn extend_epochs(&mut self, total: u32) {
        self.cfg.epochs = self.cfg.epochs.max(total);
    }

    /// Epochs completed so far.
    pub fn epochs_done(&self) -> u32 {
        self.epochs_done
    }

    /// Whether every configured epoch has run.
    pub fn finished(&self) -> bool {
        self.epochs_done >= self.cfg.epochs
    }

    /// Runs one epoch: every shard fuzzes `iters_per_epoch` inputs (in
    /// parallel across `workers` threads), then the barrier exchanges
    /// fresh inputs between shards. `seeds` initializes shard corpora on
    /// the first epoch and is ignored afterwards.
    ///
    /// Runs over a shared predecoded program (decode once with
    /// [`Program::shared`]): one decode pass and one pristine memory
    /// image serve every shard on every worker thread.
    pub fn run_epoch_shared(&mut self, prog: &Arc<Program>, seeds: &[Vec<u8>]) {
        self.decode_stats = *prog.stats();
        let watch = Stopwatch::new();
        let epoch = self.epochs_done;
        let seed_now = !self.seeded;
        self.seeded = true;
        let iters = self.cfg.iters_per_epoch;
        let minimize = self.cfg.corpus_minimize;
        let ranges = partition(self.shards.len(), self.cfg.effective_workers());

        // Per-shard iteration budgets: uniform, unless adaptive budgets
        // diff each shard's coverage-feature count against the start of
        // the previous epoch. Both inputs are merged barrier state, so
        // the budgets are identical for every worker count and fleet
        // layout — the fabric coordinator computes the same vector from
        // its boundary snapshots.
        let curr: Vec<u64> = self
            .shards
            .iter()
            .map(|s| (s.cov_normal().count_nonzero() + s.cov_spec().count_nonzero()) as u64)
            .collect();
        let budgets: Vec<u64> =
            if self.cfg.adaptive_budgets && self.prev_features.len() == self.shards.len() {
                adaptive_budgets(iters, &self.prev_features, &curr)
            } else {
                vec![iters; self.shards.len()]
            };
        self.prev_features = curr;
        let budgets = &budgets;

        // Phase 1 — fuzz. Shards are partitioned into contiguous chunks;
        // each thread drives its chunk sequentially. The partition is an
        // execution detail: shard states never interact here.
        std::thread::scope(|scope| {
            let mut rest = &mut self.shards[..];
            for r in &ranges {
                let (shard_chunk, tail) = rest.split_at_mut(r.len());
                rest = tail;
                let base = r.start;
                scope.spawn(move || {
                    for (k, st) in shard_chunk.iter_mut().enumerate() {
                        if seed_now {
                            st.seed_corpus_shared(prog, seeds);
                        }
                        st.begin_epoch(epoch);
                        st.run_iters_shared(prog, budgets[base + k]);
                    }
                });
            }
        });

        // Phase 2 — barrier exchange. Collect what every shard found
        // this epoch (shard-index order), then let each shard import the
        // others' findings. Imports consume no RNG and each shard scans
        // donors in index order, so the outcome is worker-independent.
        // Byte-identical clones — inputs the receiving shard already
        // holds, or repeats among the donated sets — are dropped instead
        // of re-executed: a clone can never add a corpus entry, so
        // plateaued campaigns stop burning iterations on it. (Dropping a
        // clone also skips its heuristic warm-up, so campaigns where
        // clones occur are not step-for-step identical to clone-replaying
        // ones — deterministically so, and without losing the corpus or
        // coverage the clone's original already contributed.)
        let fresh: Vec<Vec<Vec<u8>>> = self.shards.iter().map(|s| s.fresh_inputs()).collect();
        let fresh = &fresh;
        std::thread::scope(|scope| {
            let mut rest = &mut self.shards[..];
            for r in &ranges {
                let (shard_chunk, tail) = rest.split_at_mut(r.len());
                rest = tail;
                let base = r.start;
                scope.spawn(move || {
                    for (k, st) in shard_chunk.iter_mut().enumerate() {
                        let j = base + k;
                        let mut seen: FxHashSet<&[u8]> = FxHashSet::default();
                        for (i, inputs) in fresh.iter().enumerate() {
                            if i == j {
                                continue;
                            }
                            for input in inputs {
                                if st.contains_input(input) || !seen.insert(input.as_slice()) {
                                    continue;
                                }
                                st.import_input_shared(prog, input);
                            }
                        }
                        if minimize {
                            st.minimize_corpus(prog);
                        }
                    }
                });
            }
        });

        self.epochs_done = epoch + 1;
        self.emit_epoch(epoch, watch.ms());
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
            iters += st.iters();
            corpus_total += st.corpus_len();
            let r = st.result();
            total_cost += r.total_cost;
            crashes += r.crashes;
            per_shard.push(ShardSummary {
                shard: i as u32,
                iters: r.iters,
                corpus_len: r.corpus_len,
                gadgets: r.gadgets.len(),
                crashes: r.crashes,
                total_cost: r.total_cost,
            });
        }

        CampaignReport {
            seed: self.cfg.seed,
            shards: self.cfg.shards,
            epochs: self.epochs_done,
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
        CampaignSnapshot {
            config: self.cfg.clone(),
            bin_fingerprint: snapshot::fingerprint(bin),
            epochs_done: self.epochs_done,
            decode_stats: self.decode_stats,
            shard_states: self.shards.iter().map(|s| s.export_snapshot()).collect(),
            prev_features: self.prev_features.clone(),
        }
    }
}

/// Adaptive shard budgets: shards whose coverage-feature count did not
/// grow last epoch ("plateaued") give up half of the base budget; the
/// pooled iterations are split evenly over the still-advancing shards
/// (remainder to the lowest-indexed ones). The total budget is conserved
/// and the result is a pure function of the two feature vectors, so
/// every host computes the same split. All-plateaued (or all-advancing)
/// epochs fall back to uniform budgets.
pub fn adaptive_budgets(base: u64, prev: &[u64], now: &[u64]) -> Vec<u64> {
    let n = now.len();
    if prev.len() != n || n == 0 {
        return vec![base; n];
    }
    let give = base / 2;
    let plateaued: Vec<bool> = (0..n).map(|i| now[i] <= prev[i]).collect();
    let stalled = plateaued.iter().filter(|&&p| p).count();
    let active = n - stalled;
    if stalled == 0 || active == 0 || give == 0 {
        return vec![base; n];
    }
    let pool = give * stalled as u64;
    let share = pool / active as u64;
    let mut rem = pool % active as u64;
    (0..n)
        .map(|i| {
            if plateaued[i] {
                base - give
            } else {
                let extra = share
                    + if rem > 0 {
                        rem -= 1;
                        1
                    } else {
                        0
                    };
                base + extra
            }
        })
        .collect()
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
        assert!(matches!(
            bad.validate(),
            Err(CampaignError::Fuzz(ConfigError::ZeroIters))
        ));
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
    fn adaptive_budgets_conserve_and_rebalance() {
        // No plateau: uniform.
        assert_eq!(adaptive_budgets(100, &[1, 1], &[2, 2]), vec![100, 100]);
        // All plateaued: uniform (nobody to give the pool to).
        assert_eq!(adaptive_budgets(100, &[2, 2], &[2, 2]), vec![100, 100]);
        // One of three plateaued: it gives half, split over the others.
        let b = adaptive_budgets(100, &[5, 5, 5], &[5, 9, 9]);
        assert_eq!(b, vec![50, 125, 125]);
        assert_eq!(b.iter().sum::<u64>(), 300);
        let b = adaptive_budgets(101, &[5, 5, 5], &[5, 9, 9]);
        assert_eq!(b, vec![51, 126, 126]);
        assert_eq!(b.iter().sum::<u64>(), 303);
        // Uneven pool: the remainder lands on the lowest-indexed active.
        let b = adaptive_budgets(10, &[1, 1, 1, 1], &[1, 5, 5, 5]);
        assert_eq!(b.iter().sum::<u64>(), 40);
        assert_eq!(b, vec![5, 12, 12, 11]);
        // Missing history: uniform.
        assert_eq!(adaptive_budgets(100, &[], &[1, 2]), vec![100, 100]);
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
