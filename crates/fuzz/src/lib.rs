//! A honggfuzz-like coverage-guided fuzzer for TEA-64 binaries
//! (the dynamic-fuzzing stage of the paper's workflow, Fig. 3 right).
//!
//! The fuzzer maintains a corpus, mutates inputs with AFL-style
//! deterministic and havoc mutators, executes each input on a pooled
//! [`ExecContext`] over a shared predecoded [`Program`] (the context is
//! reset in place between runs — observably identical to a fresh
//! [`Machine`], without rebuilding the address space or re-decoding),
//! and keeps inputs that produce **new coverage features**.
//! Following paper §6.3, *two* coverage maps provide feedback: normal
//! execution coverage (traced at conditional branches) and speculation
//! simulation coverage (lazy guard notes flushed at rollback) — an input
//! is interesting if it advances either.
//!
//! Per-branch speculation heuristics ([`SpecHeuristics`]) persist across
//! the whole campaign, exactly as the paper's nested-exploration
//! heuristics accumulate state over a fuzzing session (§6.1).
//!
//! Campaigns are bounded by an iteration budget and seeded RNG, so every
//! experiment in `teapot-bench` is reproducible (the substitution for the
//! paper's 24-hour wall-clock sessions, whose results would depend on
//! host speed).
//!
//! # Re-entrant campaigns
//!
//! The run-to-completion [`fuzz`] entry point is a thin wrapper around
//! [`CampaignState`], a re-entrant campaign: seed it once, then drive it
//! in bounded batches with [`CampaignState::run_iters_shared`]. This is the
//! building block of the `teapot-campaign` orchestrator, which runs many
//! shard states in parallel, exchanges interesting inputs between them at
//! epoch barriers ([`CampaignState::fresh_inputs`] /
//! [`CampaignState::import_input_shared`]), and snapshots them to disk
//! ([`CampaignState::export_snapshot`] /
//! [`CampaignState::from_snapshot`]). Epoch boundaries re-seed the RNG
//! deterministically ([`CampaignState::begin_epoch`]), so a campaign
//! resumed from a snapshot replays bit-identically to one that never
//! stopped.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;
use teapot_obj::Binary;
use teapot_rt::{
    CovDelta, CovMap, DetectorConfig, FxHashSet, GadgetKey, GadgetReport, GadgetWitness,
    ShardDelta, SpecModelSet,
};
use teapot_telemetry::{BlockProfile, Histogram, VmCounters};
use teapot_vm::{
    EmuStyle, ExecContext, ExitStatus, HeurStyle, Machine, Program, RunOptions, SpecHeuristics,
};

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// RNG seed: campaigns are fully deterministic given the seed.
    pub seed: u64,
    /// Number of executions.
    pub max_iters: u64,
    /// Maximum input length the mutators will grow to.
    pub max_input_len: usize,
    /// Per-run cost budget.
    pub fuel_per_run: u64,
    /// Detector configuration passed to every run.
    pub detector: DetectorConfig,
    /// Execution style (native for instrumented binaries; SpecTaint
    /// emulation for original binaries).
    pub emu: EmuStyle,
    /// Which tool's nested-speculation heuristic to persist.
    pub heur_style: HeurStyle,
    /// Active speculation models (see `teapot-specmodel`): which
    /// misprediction sources every run simulates. Defaults to PHT only,
    /// under which campaigns are byte-identical to the pre-specmodel
    /// pipeline.
    pub models: SpecModelSet,
    /// Dictionary tokens spliced into inputs (format keywords).
    pub dictionary: Vec<Vec<u8>>,
    /// Capture a replayable [`GadgetWitness`] (triggering input, pre-run
    /// heuristic counts, bounded speculative trace) for each first-seen
    /// gadget. Capture never changes what the campaign computes — only
    /// what it *remembers* — so reports are identical either way.
    pub capture_witnesses: bool,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0x7EA907,
            max_iters: 500,
            max_input_len: 256,
            fuel_per_run: 60_000_000,
            detector: DetectorConfig::default(),
            emu: EmuStyle::Native,
            heur_style: HeurStyle::TeapotHybrid,
            models: SpecModelSet::PHT_ONLY,
            dictionary: Vec::new(),
            capture_witnesses: true,
        }
    }
}

/// Why a [`FuzzConfig`] was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `max_iters` is zero: the campaign would execute nothing.
    ZeroIters,
    /// `fuel_per_run` is zero: every run would abort immediately.
    ZeroFuel,
    /// `max_input_len` is zero: mutators could never produce an input.
    ZeroInputLen,
    /// The speculation-model set is empty: no misprediction source
    /// would ever be simulated, so the campaign could not find gadgets.
    EmptySpecModels,
    /// A [`StateSnapshot`] coverage map was not `COV_MAP_SIZE` bytes —
    /// resuming from it would silently restart coverage from zero.
    SnapshotCoverage,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroIters => {
                write!(f, "max_iters must be > 0 (campaign would be empty)")
            }
            ConfigError::ZeroFuel => {
                write!(f, "fuel_per_run must be > 0 (runs would not execute)")
            }
            ConfigError::ZeroInputLen => {
                write!(f, "max_input_len must be > 0 (no inputs possible)")
            }
            ConfigError::EmptySpecModels => {
                write!(
                    f,
                    "spec model set must not be empty (nothing would be simulated; \
                     pick from pht, rsb, stl)"
                )
            }
            ConfigError::SnapshotCoverage => {
                write!(f, "snapshot coverage map has the wrong length")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl FuzzConfig {
    /// Validates the budget fields, rejecting configurations that would
    /// silently do nothing.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.max_iters == 0 {
            return Err(ConfigError::ZeroIters);
        }
        if self.fuel_per_run == 0 {
            return Err(ConfigError::ZeroFuel);
        }
        if self.max_input_len == 0 {
            return Err(ConfigError::ZeroInputLen);
        }
        if self.models.is_empty() {
            return Err(ConfigError::EmptySpecModels);
        }
        Ok(())
    }
}

/// Aggregated campaign results.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Executions performed.
    pub iters: u64,
    /// Final corpus size.
    pub corpus_len: usize,
    /// Deduplicated gadget reports (by [`GadgetKey`]).
    pub gadgets: Vec<GadgetReport>,
    /// Gadget counts per `Controllability-Channel` bucket (Table 4 rows).
    pub buckets: BTreeMap<String, usize>,
    /// Total cost units spent executing.
    pub total_cost: u64,
    /// Runs that crashed (faults in normal execution).
    pub crashes: u64,
    /// Distinct normal-coverage features discovered.
    pub cov_normal_features: usize,
    /// Distinct speculative-coverage features discovered.
    pub cov_spec_features: usize,
}

impl CampaignResult {
    /// Number of unique gadgets found.
    pub fn unique_gadgets(&self) -> usize {
        self.gadgets.len()
    }

    /// Count for one bucket, e.g. `"User-Cache"`.
    pub fn bucket(&self, name: &str) -> usize {
        self.buckets.get(name).copied().unwrap_or(0)
    }
}

struct CorpusEntry {
    input: Vec<u8>,
    score: u64,
}

/// Portable image of a [`CampaignState`] between executions: everything
/// that influences future fuzzing, with the RNG represented by the epoch
/// counter (the RNG is re-seeded deterministically at each epoch
/// boundary, so no raw generator state needs to survive).
///
/// The `teapot-campaign` crate serializes this to the on-disk `.tcs`
/// snapshot format.
#[derive(Debug, Clone, PartialEq)]
pub struct StateSnapshot {
    /// Corpus entries as `(input, score)` in discovery order.
    pub corpus: Vec<(Vec<u8>, u64)>,
    /// Persistent per-branch simulation counts, sorted by branch.
    pub heur_counts: Vec<(u64, u32)>,
    /// Raw normal-coverage counters (`COV_MAP_SIZE` bytes).
    pub cov_normal: Vec<u8>,
    /// Raw speculative-coverage counters (`COV_MAP_SIZE` bytes).
    pub cov_spec: Vec<u8>,
    /// Deduplicated gadget reports in discovery order.
    pub gadgets: Vec<GadgetReport>,
    /// Replayable witnesses for the gadgets above, in the same discovery
    /// order (empty when capture was off; matched by `witness.key`).
    pub witnesses: Vec<GadgetWitness>,
    /// Executions performed so far.
    pub iters: u64,
    /// Cost units spent so far.
    pub total_cost: u64,
    /// Crashing runs so far.
    pub crashes: u64,
    /// Last epoch begun via [`CampaignState::begin_epoch`] (0 if none).
    /// A resuming caller decides the next epoch number itself — the
    /// `teapot-campaign` orchestrator tracks completed epochs separately
    /// in its own snapshot header.
    pub epoch: u32,
}

impl StateSnapshot {
    /// An empty shard image (zero coverage, no corpus): the boundary
    /// state a fabric coordinator holds for each shard before the first
    /// delta arrives.
    pub fn empty() -> StateSnapshot {
        StateSnapshot {
            corpus: Vec::new(),
            heur_counts: Vec::new(),
            cov_normal: vec![0; teapot_rt::coverage::COV_MAP_SIZE],
            cov_spec: vec![0; teapot_rt::coverage::COV_MAP_SIZE],
            gadgets: Vec::new(),
            witnesses: Vec::new(),
            iters: 0,
            total_cost: 0,
            crashes: 0,
            epoch: 0,
        }
    }

    /// Applies one [`ShardDelta`] in place. Applying every delta of a
    /// shard, in order, to the shard's previous full snapshot yields
    /// exactly what [`CampaignState::export_snapshot`] of the live state
    /// would — the fabric merge invariant (proptested in
    /// `teapot-campaign`).
    pub fn apply_delta(&mut self, d: &ShardDelta) {
        if let Some(full) = &d.corpus_replaced {
            self.corpus = full.clone();
        } else {
            self.corpus.extend(d.corpus_append.iter().cloned());
        }
        self.heur_counts = d.heur_counts.clone();
        d.cov_normal.apply_to_raw(&mut self.cov_normal);
        d.cov_spec.apply_to_raw(&mut self.cov_spec);
        self.gadgets.extend(d.gadgets_append.iter().cloned());
        self.witnesses.extend(d.witnesses_append.iter().cloned());
        self.iters = d.iters;
        self.total_cost = d.total_cost;
        self.crashes = d.crashes;
        self.epoch = d.state_epoch;
    }
}

/// A re-entrant coverage-guided fuzzing campaign.
///
/// Owns the corpus, both global coverage maps, the persistent speculation
/// heuristics and the deduplicated gadget set. Unlike the one-shot
/// [`fuzz`] loop it can be driven in batches, exchanged with sibling
/// shards, snapshotted, and resumed.
pub struct CampaignState {
    cfg: FuzzConfig,
    rng: SmallRng,
    heur: SpecHeuristics,
    corpus: Vec<CorpusEntry>,
    /// Byte-identical membership index over `corpus`, for the barrier
    /// deduplication of cross-shard imports.
    corpus_set: FxHashSet<Vec<u8>>,
    global_normal: CovMap,
    global_spec: CovMap,
    gadget_keys: FxHashSet<GadgetKey>,
    gadgets: Vec<GadgetReport>,
    witnesses: Vec<GadgetWitness>,
    /// Pre-run heuristic-counts snapshot, reused across runs so witness
    /// capture does not allocate in the hot loop.
    heur_scratch: Vec<(u64, u32)>,
    buckets: BTreeMap<String, usize>,
    total_cost: u64,
    crashes: u64,
    iters: u64,
    epoch: u32,
    fresh_start: usize,
    /// Sum of corpus entry scores, maintained on push so the weighted
    /// pick in the hot loop avoids an O(corpus) re-sum per execution.
    score_total: u64,
    /// Pooled execution resources, keyed by the shared [`Program`]: the
    /// paged address space, shadow engines and run buffers are reset in
    /// place between executions instead of reallocated (the seed built
    /// a fresh `Machine` — memory image included — per input).
    exec: Option<ExecSlot>,
    /// A recycled context donated by a previous campaign (queue mode
    /// hands each worker's context from binary N to binary N+1); bound
    /// to this campaign's program on first use.
    spare_ctx: Option<ExecContext>,
    /// Discovery timeline: `(1-based execution ordinal, key)` for every
    /// first-seen gadget, in discovery order. Telemetry only — never
    /// snapshotted, never read back by the campaign itself.
    gadget_timeline: Vec<(u64, GadgetKey)>,
    /// Whether the pooled context attributes executed cost to basic
    /// blocks (the guest hot-site profiler). Observation-only.
    profile_blocks: bool,
    /// Log2-bucketed per-run cost distribution. Telemetry only.
    cost_hist: Histogram,
    /// Delta-export watermarks: how much of the corpus / gadget /
    /// witness lists the last [`CampaignState::take_delta`] already
    /// shipped. Observation-only, like the telemetry fields above.
    delta_corpus_mark: usize,
    delta_gadget_mark: usize,
    delta_witness_mark: usize,
    /// Coverage images as of the last delta, diffed against the live
    /// maps by `take_delta`. Lazily allocated so campaigns that never
    /// export deltas pay nothing.
    delta_prev_normal: Option<CovMap>,
    delta_prev_spec: Option<CovMap>,
    /// Set when minimization rewrote the corpus in place: the next delta
    /// must ship a full replacement, an append can no longer describe
    /// the change.
    corpus_rewritten: bool,
}

struct ExecSlot {
    prog: Arc<Program>,
    ctx: ExecContext,
}

impl CampaignState {
    /// Creates an empty campaign; fails on a budget-less configuration.
    pub fn new(cfg: FuzzConfig) -> Result<CampaignState, ConfigError> {
        cfg.validate()?;
        let rng = SmallRng::seed_from_u64(cfg.seed);
        let heur = SpecHeuristics::new(cfg.heur_style);
        Ok(CampaignState {
            cfg,
            rng,
            heur,
            corpus: Vec::new(),
            corpus_set: FxHashSet::default(),
            global_normal: CovMap::new(),
            global_spec: CovMap::new(),
            gadget_keys: FxHashSet::default(),
            gadgets: Vec::new(),
            witnesses: Vec::new(),
            heur_scratch: Vec::new(),
            buckets: BTreeMap::new(),
            total_cost: 0,
            crashes: 0,
            iters: 0,
            epoch: 0,
            fresh_start: 0,
            score_total: 0,
            exec: None,
            spare_ctx: None,
            gadget_timeline: Vec::new(),
            profile_blocks: false,
            cost_hist: Histogram::default(),
            delta_corpus_mark: 0,
            delta_gadget_mark: 0,
            delta_witness_mark: 0,
            delta_prev_normal: None,
            delta_prev_spec: None,
            corpus_rewritten: false,
        })
    }

    /// Rebuilds a campaign from a [`StateSnapshot`].
    pub fn from_snapshot(
        cfg: FuzzConfig,
        snap: &StateSnapshot,
    ) -> Result<CampaignState, ConfigError> {
        let mut st = CampaignState::new(cfg)?;
        st.corpus = snap
            .corpus
            .iter()
            .map(|(input, score)| CorpusEntry {
                input: input.clone(),
                score: *score,
            })
            .collect();
        st.heur = SpecHeuristics::from_counts(st.cfg.heur_style, &snap.heur_counts);
        st.global_normal =
            CovMap::from_raw(&snap.cov_normal).ok_or(ConfigError::SnapshotCoverage)?;
        st.global_spec = CovMap::from_raw(&snap.cov_spec).ok_or(ConfigError::SnapshotCoverage)?;
        st.gadget_keys = snap.gadgets.iter().map(|g| g.key).collect();
        for g in &snap.gadgets {
            *st.buckets.entry(g.bucket()).or_insert(0) += 1;
        }
        st.gadgets = snap.gadgets.clone();
        st.witnesses = snap.witnesses.clone();
        st.iters = snap.iters;
        st.total_cost = snap.total_cost;
        st.crashes = snap.crashes;
        st.epoch = snap.epoch;
        st.fresh_start = st.corpus.len();
        st.score_total = st.corpus.iter().map(|e| e.score).sum();
        st.corpus_set = st.corpus.iter().map(|e| e.input.clone()).collect();
        // Deltas taken after a restore describe what changed *since* the
        // snapshot, so the watermarks start at the restored state.
        st.delta_corpus_mark = st.corpus.len();
        st.delta_gadget_mark = st.gadgets.len();
        st.delta_witness_mark = st.witnesses.len();
        st.delta_prev_normal = Some(st.global_normal.clone());
        st.delta_prev_spec = Some(st.global_spec.clone());
        Ok(st)
    }

    /// Captures the campaign into a [`StateSnapshot`].
    pub fn export_snapshot(&self) -> StateSnapshot {
        StateSnapshot {
            corpus: self
                .corpus
                .iter()
                .map(|e| (e.input.clone(), e.score))
                .collect(),
            heur_counts: self.heur.export_counts(),
            cov_normal: self.global_normal.raw().to_vec(),
            cov_spec: self.global_spec.raw().to_vec(),
            gadgets: self.gadgets.clone(),
            witnesses: self.witnesses.clone(),
            iters: self.iters,
            total_cost: self.total_cost,
            crashes: self.crashes,
            epoch: self.epoch,
        }
    }

    /// Executes the initial seed corpus (an empty slice starts from a
    /// small default input) over a shared predecoded program. Each seed
    /// counts as one iteration.
    pub fn seed_corpus_shared(&mut self, prog: &Arc<Program>, seeds: &[Vec<u8>]) {
        let seed_inputs: Vec<Vec<u8>> = if seeds.is_empty() {
            vec![vec![0u8; 8]]
        } else {
            seeds.to_vec()
        };
        for s in seed_inputs {
            let new = self.execute_one(prog, &s);
            self.iters += 1;
            self.push_entry(s, 1 + new as u64);
        }
    }

    /// Starts epoch `epoch`: re-seeds the RNG from `(seed, epoch)` and
    /// resets the fresh-input watermark. Calling this at every epoch
    /// boundary is what makes snapshot-resume exact — the RNG never has
    /// to be serialized, only the epoch number.
    pub fn begin_epoch(&mut self, epoch: u32) {
        self.epoch = epoch;
        self.rng = SmallRng::seed_from_u64(
            self.cfg
                .seed
                .wrapping_add((epoch as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        self.fresh_start = self.corpus.len();
    }

    /// Runs up to `budget` mutate-and-execute iterations over a shared
    /// predecoded program, returning the number performed (always
    /// `budget` once the corpus is seeded).
    pub fn run_iters_shared(&mut self, prog: &Arc<Program>, budget: u64) -> u64 {
        if self.corpus.is_empty() {
            self.seed_corpus_shared(prog, &[]);
        }
        let mut done = 0u64;
        while done < budget {
            // Weighted pick: favour entries that found more features.
            // The score total is maintained incrementally; scores never
            // change after insertion.
            let mut pick = self.rng.gen_range(0..self.score_total.max(1));
            let mut idx = 0;
            for (i, e) in self.corpus.iter().enumerate() {
                if pick < e.score {
                    idx = i;
                    break;
                }
                pick -= e.score;
            }
            let other = self.rng.gen_range(0..self.corpus.len());
            let input = mutate(
                &self.corpus[idx].input,
                &self.corpus[other].input,
                &self.cfg,
                &mut self.rng,
            );
            let new = self.execute_one(prog, &input);
            self.iters += 1;
            done += 1;
            if new > 0 {
                self.push_entry(input, 1 + new as u64);
            }
        }
        done
    }

    /// Executes an input received from a sibling shard, adding it to the
    /// corpus if it covers anything new *for this shard*. Returns whether
    /// it was kept. Counts as one iteration; consumes no RNG, so import
    /// order does not perturb mutation determinism.
    pub fn import_input_shared(&mut self, prog: &Arc<Program>, input: &[u8]) -> bool {
        let new = self.execute_one(prog, input);
        self.iters += 1;
        if new > 0 {
            self.push_entry(input.to_vec(), 1 + new as u64);
            true
        } else {
            false
        }
    }

    /// Whether a byte-identical input is already in this shard's corpus
    /// — the membership test behind barrier import deduplication.
    pub fn contains_input(&self, input: &[u8]) -> bool {
        self.corpus_set.contains(input)
    }

    /// Inputs added to the corpus since the last [`begin_epoch`] — what a
    /// shard publishes to its siblings at an epoch barrier.
    ///
    /// [`begin_epoch`]: CampaignState::begin_epoch
    pub fn fresh_inputs(&self) -> Vec<Vec<u8>> {
        self.corpus[self.fresh_start..]
            .iter()
            .map(|e| e.input.clone())
            .collect()
    }

    /// Executions performed so far.
    pub fn iters(&self) -> u64 {
        self.iters
    }

    /// Current corpus size.
    pub fn corpus_len(&self) -> usize {
        self.corpus.len()
    }

    /// Last epoch begun via [`CampaignState::begin_epoch`] (0 if none).
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Gadgets found so far, deduplicated by [`GadgetKey`], in discovery
    /// order.
    pub fn gadgets(&self) -> &[GadgetReport] {
        &self.gadgets
    }

    /// Replayable witnesses for the gadgets found so far, in discovery
    /// order (empty when [`FuzzConfig::capture_witnesses`] is off).
    pub fn witnesses(&self) -> &[GadgetWitness] {
        &self.witnesses
    }

    /// The accumulated normal-coverage map.
    pub fn cov_normal(&self) -> &CovMap {
        &self.global_normal
    }

    /// The accumulated speculative-coverage map.
    pub fn cov_spec(&self) -> &CovMap {
        &self.global_spec
    }

    /// Removes the pooled execution context, if one was ever built —
    /// queue mode recycles it into the next binary's campaign instead of
    /// rebuilding the address space and shadows from scratch.
    pub fn harvest_context(&mut self) -> Option<ExecContext> {
        self.exec.take().map(|slot| slot.ctx)
    }

    /// Installs a recycled execution context donated by a previous
    /// campaign. It is rebound (reset) against this campaign's program
    /// on first use; recycling never changes what a campaign computes.
    pub fn donate_context(&mut self, ctx: ExecContext) {
        self.spare_ctx = Some(ctx);
    }

    /// Enables or disables the guest hot-site profiler on the pooled
    /// execution context. Attribution is observation-only: profiling
    /// never changes what the campaign computes.
    pub fn set_block_profiling(&mut self, on: bool) {
        self.profile_blocks = on;
        if let Some(slot) = &mut self.exec {
            slot.ctx.set_profiling(on, &slot.prog);
        }
    }

    /// Discovery timeline: `(1-based execution ordinal, key)` for each
    /// first-seen gadget, in discovery order.
    pub fn gadget_timeline(&self) -> &[(u64, GadgetKey)] {
        &self.gadget_timeline
    }

    /// Accumulated VM telemetry counters for this shard's pooled
    /// context (zeros before the first execution).
    pub fn vm_counters(&self) -> VmCounters {
        self.exec
            .as_ref()
            .map(|s| s.ctx.counters_snapshot())
            .unwrap_or_default()
    }

    /// Per-block cost attribution, when [`set_block_profiling`] is on
    /// and at least one run has executed.
    ///
    /// [`set_block_profiling`]: CampaignState::set_block_profiling
    pub fn block_profile(&self) -> Option<&BlockProfile> {
        self.exec.as_ref().and_then(|s| s.ctx.profile())
    }

    /// Log2-bucketed distribution of per-run execution cost.
    pub fn cost_histogram(&self) -> &Histogram {
        &self.cost_hist
    }

    /// Summarizes the campaign so far.
    pub fn result(&self) -> CampaignResult {
        CampaignResult {
            iters: self.iters,
            corpus_len: self.corpus.len(),
            gadgets: self.gadgets.clone(),
            buckets: self.buckets.clone(),
            total_cost: self.total_cost,
            crashes: self.crashes,
            cov_normal_features: self.global_normal.count_nonzero(),
            cov_spec_features: self.global_spec.count_nonzero(),
        }
    }

    /// Exports what changed since the previous [`take_delta`] (or since
    /// campaign start / snapshot restore) as a [`ShardDelta`] and
    /// advances the delta watermarks. Observation-only: taking deltas
    /// never perturbs what the campaign computes.
    ///
    /// [`take_delta`]: CampaignState::take_delta
    pub fn take_delta(&mut self, shard: u32, epoch: u32, phase: u8) -> ShardDelta {
        let (corpus_append, corpus_replaced, fresh_count) = if self.corpus_rewritten {
            self.corpus_rewritten = false;
            let full = self
                .corpus
                .iter()
                .map(|e| (e.input.clone(), e.score))
                .collect();
            (Vec::new(), Some(full), 0u32)
        } else {
            let appended: Vec<(Vec<u8>, u64)> = self.corpus[self.delta_corpus_mark..]
                .iter()
                .map(|e| (e.input.clone(), e.score))
                .collect();
            let fresh = self
                .corpus
                .len()
                .saturating_sub(self.fresh_start.max(self.delta_corpus_mark));
            (appended, None, fresh as u32)
        };
        let prev_normal = self.delta_prev_normal.get_or_insert_with(CovMap::new);
        let cov_normal = CovDelta::diff(prev_normal, &self.global_normal);
        cov_normal.apply_to(prev_normal);
        let prev_spec = self.delta_prev_spec.get_or_insert_with(CovMap::new);
        let cov_spec = CovDelta::diff(prev_spec, &self.global_spec);
        cov_spec.apply_to(prev_spec);
        let gadgets_append = self.gadgets[self.delta_gadget_mark..].to_vec();
        let witnesses_append = self.witnesses[self.delta_witness_mark..].to_vec();
        self.delta_corpus_mark = self.corpus.len();
        self.delta_gadget_mark = self.gadgets.len();
        self.delta_witness_mark = self.witnesses.len();
        ShardDelta {
            shard,
            epoch,
            phase,
            corpus_append,
            fresh_count,
            corpus_replaced,
            heur_counts: self.heur.export_counts(),
            cov_normal,
            cov_spec,
            gadgets_append,
            witnesses_append,
            iters: self.iters,
            total_cost: self.total_cost,
            crashes: self.crashes,
            state_epoch: self.epoch,
        }
    }

    /// Coverage-subsumption corpus minimization: greedily replays the
    /// corpus in discovery order against fresh accumulator maps and
    /// drops every entry that adds no coverage feature beyond the
    /// entries kept before it. Fully deterministic, so running it at the
    /// same barrier on every host preserves the fleet-equals-single-host
    /// invariant. Replays are observation-only — a cloned heuristic
    /// absorbs their updates, replayed gadget reports are discarded, and
    /// no iteration/cost/crash accounting happens — so minimization
    /// changes *which inputs future mutation picks from* and nothing
    /// else. Returns the number of entries dropped.
    pub fn minimize_corpus(&mut self, prog: &Arc<Program>) -> usize {
        if self.corpus.len() <= 1 {
            return 0;
        }
        self.ensure_slot(prog);
        let mut heur = SpecHeuristics::from_counts(self.cfg.heur_style, &self.heur.export_counts());
        let mut acc_normal = CovMap::new();
        let mut acc_spec = CovMap::new();
        let mut keep = vec![false; self.corpus.len()];
        for (i, kept) in keep.iter_mut().enumerate() {
            let opts = RunOptions {
                input: self.corpus[i].input.clone(),
                fuel: self.cfg.fuel_per_run,
                config: self.cfg.detector.clone(),
                emu: self.cfg.emu,
                models: self.cfg.models,
            };
            let slot = self.exec.as_mut().expect("exec slot just ensured");
            let _ = Machine::with_context(&slot.prog, &mut slot.ctx, opts).run_stats(&mut heur);
            // Every gadget a replay reports was already deduplicated
            // when the entry first executed.
            let _ = slot.ctx.take_gadgets();
            let new = slot.ctx.cov_normal().merge_into(&mut acc_normal)
                + slot.ctx.cov_spec().merge_into(&mut acc_spec);
            *kept = new > 0;
        }
        if !keep.iter().any(|&k| k) {
            // Degenerate branch-free target: no entry covers any
            // feature. Keep the first so the corpus never empties (an
            // empty corpus would re-seed mid-campaign and diverge).
            keep[0] = true;
        }
        let before = self.corpus.len();
        let corpus = std::mem::take(&mut self.corpus);
        self.corpus = corpus
            .into_iter()
            .zip(keep)
            .filter_map(|(e, k)| k.then_some(e))
            .collect();
        self.corpus_set = self.corpus.iter().map(|e| e.input.clone()).collect();
        self.score_total = self.corpus.iter().map(|e| e.score).sum();
        self.fresh_start = self.corpus.len();
        let dropped = before - self.corpus.len();
        if dropped > 0 {
            self.corpus_rewritten = true;
        }
        dropped
    }

    /// Appends a corpus entry, keeping the running score total and the
    /// byte-identity index in sync.
    fn push_entry(&mut self, input: Vec<u8>, score: u64) {
        self.score_total += score;
        self.corpus_set.insert(input.clone());
        self.corpus.push(CorpusEntry { input, score });
    }

    /// Ensures the pooled execution slot is bound to `prog`, rebuilding
    /// (or rebinding a donated context) when the program changed.
    fn ensure_slot(&mut self, prog: &Arc<Program>) {
        let rebuild = match &self.exec {
            Some(slot) => !Arc::ptr_eq(&slot.prog, prog),
            None => true,
        };
        if rebuild {
            // A donated (recycled) context is rebound to this program —
            // `ExecContext::reset` leaves it observably identical to a
            // fresh one while keeping its allocations.
            let mut ctx = match self.spare_ctx.take() {
                Some(mut c) => {
                    c.reset(prog);
                    c
                }
                None => ExecContext::new(prog),
            };
            ctx.set_witness_recording(self.cfg.capture_witnesses);
            ctx.set_profiling(self.profile_blocks, prog);
            self.exec = Some(ExecSlot {
                prog: prog.clone(),
                ctx,
            });
        }
    }

    /// Runs `input` on the pooled execution context (resetting it in
    /// place), folds its coverage into the global maps, and returns the
    /// number of new coverage features.
    fn execute_one(&mut self, prog: &Arc<Program>, input: &[u8]) -> usize {
        self.ensure_slot(prog);
        // Witness capture needs the heuristic state *as of the start of
        // this run*: seeding a replay from it reproduces the run
        // bit-identically (the VM is deterministic given program, input,
        // heuristics and options). Snapshot unsorted — the sort only
        // happens on the rare first-seen-gadget path below, not per run.
        if self.cfg.capture_witnesses {
            self.heur
                .export_counts_unsorted_into(&mut self.heur_scratch);
        }
        let opts = RunOptions {
            input: input.to_vec(),
            fuel: self.cfg.fuel_per_run,
            config: self.cfg.detector.clone(),
            emu: self.cfg.emu,
            models: self.cfg.models,
        };
        let slot = self.exec.as_mut().expect("exec slot just ensured");
        let stats =
            Machine::with_context(&slot.prog, &mut slot.ctx, opts).run_stats(&mut self.heur);
        self.total_cost += stats.cost;
        self.cost_hist.record(stats.cost);
        if matches!(stats.status, ExitStatus::Fault(_) | ExitStatus::Abort) {
            self.crashes += 1;
        }
        for g in slot.ctx.take_gadgets() {
            if self.gadget_keys.insert(g.key) {
                // Callers bump `iters` after this returns, so the
                // discovering run's 1-based ordinal is `iters + 1`.
                self.gadget_timeline.push((self.iters + 1, g.key));
                *self.buckets.entry(g.bucket()).or_insert(0) += 1;
                if self.cfg.capture_witnesses {
                    let mut heur_counts = self.heur_scratch.clone();
                    heur_counts.sort_unstable();
                    self.witnesses.push(GadgetWitness {
                        key: g.key,
                        input: input.to_vec(),
                        heur_counts,
                        trace: slot.ctx.trace().to_vec(),
                    });
                }
                self.gadgets.push(g);
            }
        }
        slot.ctx.cov_normal().merge_into(&mut self.global_normal)
            + slot.ctx.cov_spec().merge_into(&mut self.global_spec)
    }
}

/// Runs a fuzzing campaign against `bin`.
///
/// `seeds` provides the initial corpus (an empty slice starts from a
/// small default input).
///
/// # Panics
///
/// Panics on an invalid configuration (see [`FuzzConfig::validate`]);
/// use [`try_fuzz`] for a typed error.
pub fn fuzz(bin: &Binary, seeds: &[Vec<u8>], cfg: &FuzzConfig) -> CampaignResult {
    try_fuzz(bin, seeds, cfg).expect("invalid FuzzConfig")
}

/// Runs a fuzzing campaign against `bin`, rejecting budget-less
/// configurations with a typed error instead of silently running zero
/// iterations.
pub fn try_fuzz(
    bin: &Binary,
    seeds: &[Vec<u8>],
    cfg: &FuzzConfig,
) -> Result<CampaignResult, ConfigError> {
    let mut st = CampaignState::new(cfg.clone())?;
    let prog = Program::shared(bin);
    st.seed_corpus_shared(&prog, seeds);
    let remaining = cfg.max_iters.saturating_sub(st.iters());
    st.run_iters_shared(&prog, remaining);
    Ok(st.result())
}

/// One mutation: a random stack of AFL-style operators.
fn mutate(base: &[u8], other: &[u8], cfg: &FuzzConfig, rng: &mut SmallRng) -> Vec<u8> {
    const INTERESTING: [u8; 9] = [0, 1, 7, 8, 16, 0x7f, 0x80, 0xfe, 0xff];
    let mut out = base.to_vec();
    if out.is_empty() {
        out.push(0);
    }
    let ops = 1 + rng.gen_range(0..4);
    for _ in 0..ops {
        match rng.gen_range(0..9) {
            0 => {
                // bit flip
                let i = rng.gen_range(0..out.len());
                out[i] ^= 1u8 << rng.gen_range(0..8u32);
            }
            1 => {
                // random byte
                let i = rng.gen_range(0..out.len());
                out[i] = rng.gen();
            }
            2 => {
                // interesting value
                let i = rng.gen_range(0..out.len());
                out[i] = INTERESTING[rng.gen_range(0..INTERESTING.len())];
            }
            3 => {
                // arithmetic
                let i = rng.gen_range(0..out.len());
                let d = rng.gen_range(1..=16u8);
                out[i] = if rng.gen() {
                    out[i].wrapping_add(d)
                } else {
                    out[i].wrapping_sub(d)
                };
            }
            4 => {
                // insert byte
                if out.len() < cfg.max_input_len {
                    let i = rng.gen_range(0..=out.len());
                    out.insert(i, rng.gen());
                }
            }
            5 => {
                // delete byte
                if out.len() > 1 {
                    let i = rng.gen_range(0..out.len());
                    out.remove(i);
                }
            }
            6 => {
                // block duplicate / extend
                if out.len() < cfg.max_input_len && !out.is_empty() {
                    let start = rng.gen_range(0..out.len());
                    let len = rng.gen_range(1..=(out.len() - start).min(8));
                    let block: Vec<u8> = out[start..start + len].to_vec();
                    let at = rng.gen_range(0..=out.len());
                    for (j, b) in block.into_iter().enumerate() {
                        if out.len() < cfg.max_input_len {
                            out.insert(at + j, b);
                        }
                    }
                }
            }
            7 => {
                // splice with another corpus entry
                if !other.is_empty() {
                    let cut = rng.gen_range(0..=out.len());
                    let from = rng.gen_range(0..other.len());
                    out.truncate(cut);
                    out.extend_from_slice(&other[from..]);
                    out.truncate(cfg.max_input_len);
                }
            }
            _ => {
                // dictionary token
                if !cfg.dictionary.is_empty() {
                    let tok = &cfg.dictionary[rng.gen_range(0..cfg.dictionary.len())];
                    let at = rng.gen_range(0..=out.len());
                    for (j, b) in tok.iter().enumerate() {
                        if out.len() < cfg.max_input_len {
                            out.insert(at + j, *b);
                        }
                    }
                }
            }
        }
    }
    out.truncate(cfg.max_input_len.max(1));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use teapot_cc::{compile_to_binary, Options};
    use teapot_core::{rewrite, RewriteOptions};

    fn instrumented(src: &str) -> Binary {
        let mut bin = compile_to_binary(src, &Options::gcc_like()).unwrap();
        bin.strip();
        rewrite(&bin, &RewriteOptions::default()).unwrap()
    }

    /// A gadget behind a magic-byte check: the fuzzer must *find* the
    /// path before the gadget can fire.
    const GATED: &str = "
        char bar[256];
        int baz;
        char inbuf[16];
        int main() {
            char *foo = malloc(16);
            read_input(inbuf, 16);
            if (inbuf[0] == 0x7f) {
                int index = inbuf[1];
                if (index < 10) {
                    int secret = foo[index];
                    baz = bar[secret];
                }
            }
            return 0;
        }";

    #[test]
    fn campaign_is_deterministic() {
        let bin = instrumented(GATED);
        let cfg = FuzzConfig {
            max_iters: 120,
            ..FuzzConfig::default()
        };
        let a = fuzz(&bin, &[], &cfg);
        let b = fuzz(&bin, &[], &cfg);
        assert_eq!(a.iters, b.iters);
        assert_eq!(a.corpus_len, b.corpus_len);
        assert_eq!(a.unique_gadgets(), b.unique_gadgets());
        assert_eq!(a.cov_normal_features, b.cov_normal_features);
    }

    #[test]
    fn coverage_guides_through_the_gate() {
        let bin = instrumented(GATED);
        let cfg = FuzzConfig {
            max_iters: 900,
            max_input_len: 16,
            ..FuzzConfig::default()
        };
        // Seed with an OOB index but a closed gate: the campaign must
        // discover the gate byte (or reach the body through nested
        // misprediction once the per-branch phases line up).
        let mut seed = vec![0u8; 16];
        seed[1] = 200;
        let res = fuzz(&bin, &[seed], &cfg);
        // The magic byte (77) plus an OOB index must be discovered.
        assert!(
            res.bucket("User-MDS") >= 1,
            "gadget behind the gate found: {:?}",
            res.buckets
        );
        // Note: the gadget can be reached through *nested* misprediction
        // without ever opening the gate architecturally — speculation
        // simulation explores both sides of every branch (paper §6.1).
        assert!(res.cov_spec_features > 0, "speculative coverage tracked");
        assert!(res.cov_normal_features > 0);
    }

    #[test]
    fn seeds_speed_up_discovery() {
        let bin = instrumented(GATED);
        let cfg = FuzzConfig {
            max_iters: 60,
            ..FuzzConfig::default()
        };
        // A seed that already opens the gate.
        let mut seed = vec![0u8; 16];
        seed[0] = 0x7f;
        seed[1] = 200;
        let res = fuzz(&bin, &[seed], &cfg);
        assert!(res.bucket("User-MDS") >= 1);
        assert!(res.bucket("User-Cache") >= 1);
    }

    #[test]
    fn dictionary_tokens_are_used() {
        let bin = instrumented(
            "char inbuf[16];
             int out;
             int main() {
                 read_input(inbuf, 16);
                 if (inbuf[0] == 'G' && inbuf[1] == 'E' && inbuf[2] == 'T') {
                     out = 1;
                 }
                 return out;
             }",
        );
        let cfg = FuzzConfig {
            max_iters: 400,
            dictionary: vec![b"GET".to_vec()],
            ..FuzzConfig::default()
        };
        let res = fuzz(&bin, &[], &cfg);
        // With the token the deep path is reached quickly: coverage shows
        // more than the trivial path.
        assert!(res.cov_normal_features > 2);
    }

    #[test]
    fn crashes_are_counted_not_fatal() {
        let bin = instrumented(
            "char inbuf[8];
             int main() {
                 read_input(inbuf, 8);
                 int z = inbuf[0] - 65;
                 return 10 / z; // crashes when input[0] == 'A'
             }",
        );
        let cfg = FuzzConfig {
            max_iters: 300,
            ..FuzzConfig::default()
        };
        let res = fuzz(&bin, &[vec![66u8; 8]], &cfg);
        assert_eq!(res.iters, 300);
        // The campaign keeps going whether or not it found the crash.
        assert!(res.crashes <= 300);
    }

    #[test]
    fn invalid_configs_are_rejected_with_typed_errors() {
        let bin = instrumented(GATED);
        let zero_iters = FuzzConfig {
            max_iters: 0,
            ..FuzzConfig::default()
        };
        assert_eq!(
            try_fuzz(&bin, &[], &zero_iters).unwrap_err(),
            ConfigError::ZeroIters
        );
        let zero_fuel = FuzzConfig {
            fuel_per_run: 0,
            ..FuzzConfig::default()
        };
        assert_eq!(
            try_fuzz(&bin, &[], &zero_fuel).unwrap_err(),
            ConfigError::ZeroFuel
        );
        let zero_len = FuzzConfig {
            max_input_len: 0,
            ..FuzzConfig::default()
        };
        assert_eq!(
            CampaignState::new(zero_len).err(),
            Some(ConfigError::ZeroInputLen)
        );
        let no_models = FuzzConfig {
            models: SpecModelSet::EMPTY,
            ..FuzzConfig::default()
        };
        assert_eq!(
            CampaignState::new(no_models).err(),
            Some(ConfigError::EmptySpecModels)
        );
        assert!(ConfigError::EmptySpecModels
            .to_string()
            .contains("pht, rsb, stl"));
        // The error is a real std error with a message.
        assert!(ConfigError::ZeroIters.to_string().contains("max_iters"));
    }

    #[test]
    fn state_driven_campaign_matches_one_shot_fuzz() {
        let bin = instrumented(GATED);
        let prog = Program::shared(&bin);
        let cfg = FuzzConfig {
            max_iters: 150,
            ..FuzzConfig::default()
        };
        let one_shot = fuzz(&bin, &[], &cfg);

        let mut st = CampaignState::new(cfg.clone()).unwrap();
        st.seed_corpus_shared(&prog, &[]);
        let remaining = cfg.max_iters - st.iters();
        st.run_iters_shared(&prog, remaining);
        let stepped = st.result();

        assert_eq!(one_shot.iters, stepped.iters);
        assert_eq!(one_shot.corpus_len, stepped.corpus_len);
        assert_eq!(one_shot.gadgets, stepped.gadgets);
        assert_eq!(one_shot.buckets, stepped.buckets);
        assert_eq!(one_shot.total_cost, stepped.total_cost);
        assert_eq!(one_shot.cov_normal_features, stepped.cov_normal_features);
    }

    #[test]
    fn snapshot_roundtrip_resumes_identically() {
        let bin = instrumented(GATED);
        let prog = Program::shared(&bin);
        let cfg = FuzzConfig {
            max_iters: 400,
            ..FuzzConfig::default()
        };

        // Uninterrupted: two epochs of 60 iterations.
        let mut a = CampaignState::new(cfg.clone()).unwrap();
        a.seed_corpus_shared(&prog, &[]);
        a.begin_epoch(0);
        a.run_iters_shared(&prog, 60);
        a.begin_epoch(1);
        a.run_iters_shared(&prog, 60);

        // Interrupted: snapshot after epoch 0, resume, run epoch 1.
        let mut b0 = CampaignState::new(cfg.clone()).unwrap();
        b0.seed_corpus_shared(&prog, &[]);
        b0.begin_epoch(0);
        b0.run_iters_shared(&prog, 60);
        let snap = b0.export_snapshot();
        // snap.epoch records the last epoch *begun* (0 here); the
        // resuming caller chooses the next epoch number itself.
        assert_eq!(snap.epoch, 0);
        let mut b = CampaignState::from_snapshot(cfg, &snap).unwrap();
        b.begin_epoch(1);
        b.run_iters_shared(&prog, 60);

        let (ra, rb) = (a.result(), b.result());
        assert_eq!(ra.iters, rb.iters);
        assert_eq!(ra.corpus_len, rb.corpus_len);
        assert_eq!(ra.gadgets, rb.gadgets);
        assert_eq!(ra.buckets, rb.buckets);
        assert_eq!(ra.total_cost, rb.total_cost);
        assert_eq!(ra.cov_normal_features, rb.cov_normal_features);
        assert_eq!(ra.cov_spec_features, rb.cov_spec_features);
    }

    #[test]
    fn snapshot_with_wrong_coverage_length_is_rejected() {
        let bin = instrumented(GATED);
        let prog = Program::shared(&bin);
        let cfg = FuzzConfig {
            max_iters: 50,
            ..FuzzConfig::default()
        };
        let mut st = CampaignState::new(cfg.clone()).unwrap();
        st.seed_corpus_shared(&prog, &[]);
        let mut snap = st.export_snapshot();
        snap.cov_normal.truncate(16);
        assert_eq!(
            CampaignState::from_snapshot(cfg, &snap).err(),
            Some(ConfigError::SnapshotCoverage)
        );
    }

    #[test]
    fn witnesses_replay_to_the_same_gadget_key() {
        let bin = instrumented(GATED);
        let cfg = FuzzConfig {
            max_iters: 900,
            max_input_len: 16,
            ..FuzzConfig::default()
        };
        let prog = Program::shared(&bin);
        let mut st = CampaignState::new(cfg.clone()).unwrap();
        st.seed_corpus_shared(&prog, &[]);
        let remaining = cfg.max_iters - st.iters();
        st.run_iters_shared(&prog, remaining);

        assert!(!st.gadgets().is_empty(), "campaign found gadgets");
        assert_eq!(st.gadgets().len(), st.witnesses().len());
        for (g, w) in st.gadgets().iter().zip(st.witnesses()) {
            assert_eq!(g.key, w.key);
            assert!(!w.trace.is_empty(), "speculative trace recorded");
            // Replay on a fresh context with heuristics seeded from the
            // witness reproduces the discovering run's gadget.
            let mut heur = SpecHeuristics::from_counts(cfg.heur_style, &w.heur_counts);
            let out = Machine::from_program(
                prog.clone(),
                RunOptions {
                    input: w.input.clone(),
                    fuel: cfg.fuel_per_run,
                    config: cfg.detector.clone(),
                    emu: cfg.emu,
                    models: cfg.models,
                },
            )
            .run(&mut heur);
            assert!(
                out.gadgets.iter().any(|r| r.key == w.key),
                "witness replays its gadget: {:?}",
                w.key
            );
        }
    }

    #[test]
    fn witness_capture_never_changes_campaign_results() {
        let bin = instrumented(GATED);
        let on = FuzzConfig {
            max_iters: 300,
            ..FuzzConfig::default()
        };
        let off = FuzzConfig {
            capture_witnesses: false,
            ..on.clone()
        };
        let a = fuzz(&bin, &[], &on);
        let b = fuzz(&bin, &[], &off);
        assert_eq!(a.gadgets, b.gadgets);
        assert_eq!(a.total_cost, b.total_cost);
        assert_eq!(a.corpus_len, b.corpus_len);
        assert_eq!(a.cov_normal_features, b.cov_normal_features);
        assert_eq!(a.cov_spec_features, b.cov_spec_features);
    }

    #[test]
    fn profiling_never_changes_campaign_results() {
        let bin = instrumented(GATED);
        let cfg = FuzzConfig {
            max_iters: 300,
            ..FuzzConfig::default()
        };
        let prog = Program::shared(&bin);

        let run = |profile: bool| {
            let mut st = CampaignState::new(cfg.clone()).unwrap();
            st.set_block_profiling(profile);
            st.seed_corpus_shared(&prog, &[]);
            let remaining = cfg.max_iters - st.iters();
            st.run_iters_shared(&prog, remaining);
            st
        };
        let a = run(true);
        let b = run(false);
        let (ra, rb) = (a.result(), b.result());
        assert_eq!(ra.gadgets, rb.gadgets);
        assert_eq!(ra.total_cost, rb.total_cost);
        assert_eq!(ra.corpus_len, rb.corpus_len);
        assert_eq!(ra.cov_normal_features, rb.cov_normal_features);
        assert_eq!(ra.cov_spec_features, rb.cov_spec_features);
        // The VM counters themselves are identical too: attribution
        // observes the run, it never steers it.
        assert_eq!(a.vm_counters(), b.vm_counters());
        assert_eq!(a.gadget_timeline(), b.gadget_timeline());
        // And the profiled side actually attributed the work.
        let p = a.block_profile().expect("profiling enabled");
        assert!(p.total_cost() > 0, "profiler attributed cost");
        assert!(b.block_profile().is_none());
        assert_eq!(a.cost_histogram().count(), ra.iters);
    }

    #[test]
    fn gadget_timeline_orders_first_discoveries() {
        let bin = instrumented(GATED);
        let prog = Program::shared(&bin);
        let cfg = FuzzConfig {
            max_iters: 900,
            max_input_len: 16,
            ..FuzzConfig::default()
        };
        let mut st = CampaignState::new(cfg.clone()).unwrap();
        st.seed_corpus_shared(&prog, &[]);
        let remaining = cfg.max_iters - st.iters();
        st.run_iters_shared(&prog, remaining);
        assert!(!st.gadgets().is_empty());
        let tl = st.gadget_timeline();
        assert_eq!(tl.len(), st.gadgets().len());
        for ((ord, key), g) in tl.iter().zip(st.gadgets()) {
            assert_eq!(*key, g.key, "timeline mirrors discovery order");
            assert!(*ord >= 1 && *ord <= st.iters());
        }
        assert!(tl.windows(2).all(|w| w[0].0 <= w[1].0), "ordinals ascend");
    }

    #[test]
    fn deltas_reconstruct_the_full_snapshot() {
        let bin = instrumented(GATED);
        let cfg = FuzzConfig {
            max_iters: 400,
            max_input_len: 16,
            ..FuzzConfig::default()
        };
        let prog = Program::shared(&bin);
        let mut st = CampaignState::new(cfg).unwrap();
        let mut image = StateSnapshot::empty();

        st.seed_corpus_shared(&prog, &[]);
        st.begin_epoch(0);
        st.run_iters_shared(&prog, 80);
        let d0 = st.take_delta(0, 0, 0);
        // The seed entry lands in the append but precedes `begin_epoch`,
        // so it is not fresh.
        assert_eq!(d0.fresh_count as usize, d0.corpus_append.len() - 1);
        image.apply_delta(&d0);
        assert_eq!(image, st.export_snapshot());

        // Barrier import, then the phase-1 delta.
        let mut good = vec![0u8; 16];
        good[0] = 0x7f;
        good[1] = 200;
        st.import_input_shared(&prog, &good);
        image.apply_delta(&st.take_delta(0, 0, 1));
        assert_eq!(image, st.export_snapshot());

        st.begin_epoch(1);
        st.run_iters_shared(&prog, 80);
        let d2 = st.take_delta(0, 1, 0);
        // Past epoch 0 every appended entry is fresh.
        assert_eq!(d2.fresh_count as usize, d2.corpus_append.len());
        assert_eq!(d2.state_epoch, 1);
        image.apply_delta(&d2);
        assert_eq!(image, st.export_snapshot());

        // A delta of an idle state is empty where it should be.
        let idle = st.take_delta(0, 1, 1);
        assert!(idle.corpus_append.is_empty() && idle.corpus_replaced.is_none());
        assert!(idle.cov_normal.is_empty() && idle.cov_spec.is_empty());
        assert!(idle.gadgets_append.is_empty() && idle.witnesses_append.is_empty());
    }

    #[test]
    fn minimization_is_deterministic_and_ships_a_replacement() {
        let bin = instrumented(GATED);
        let cfg = FuzzConfig {
            max_iters: 900,
            max_input_len: 16,
            ..FuzzConfig::default()
        };
        let prog = Program::shared(&bin);

        let run = || {
            let mut st = CampaignState::new(cfg.clone()).unwrap();
            st.seed_corpus_shared(&prog, &[]);
            st.begin_epoch(0);
            st.run_iters_shared(&prog, 300);
            let mut image = StateSnapshot::empty();
            image.apply_delta(&st.take_delta(0, 0, 0));
            let features_before = st.cov_normal().count_nonzero() + st.cov_spec().count_nonzero();
            let iters_before = st.iters();
            let dropped = st.minimize_corpus(&prog);
            // Minimization replays are observation-only.
            assert_eq!(st.iters(), iters_before);
            assert_eq!(
                st.cov_normal().count_nonzero() + st.cov_spec().count_nonzero(),
                features_before
            );
            let d = st.take_delta(0, 0, 1);
            if dropped > 0 {
                assert!(d.corpus_replaced.is_some(), "rewrite ships a replacement");
            }
            image.apply_delta(&d);
            assert_eq!(image, st.export_snapshot());
            // The campaign keeps fuzzing deterministically afterwards.
            st.begin_epoch(1);
            st.run_iters_shared(&prog, 300);
            (dropped, st.export_snapshot())
        };
        let (da, sa) = run();
        let (db, sb) = run();
        assert_eq!(da, db);
        assert_eq!(sa, sb);
    }

    #[test]
    fn imports_enrich_the_corpus_without_consuming_rng() {
        let bin = instrumented(GATED);
        let prog = Program::shared(&bin);
        let cfg = FuzzConfig {
            max_iters: 500,
            ..FuzzConfig::default()
        };
        let mut st = CampaignState::new(cfg).unwrap();
        st.seed_corpus_shared(&prog, &[]);
        // An input that opens the gate is interesting to import.
        let mut good = vec![0u8; 16];
        good[0] = 0x7f;
        good[1] = 200;
        assert!(st.import_input_shared(&prog, &good));
        // Importing the exact same input again covers nothing new.
        assert!(!st.import_input_shared(&prog, &good));
        assert!(st.corpus_len() >= 2);
    }
}
