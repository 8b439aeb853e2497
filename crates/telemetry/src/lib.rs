//! `teapot-telemetry` — zero-perturbation observability for the whole
//! Teapot pipeline: VM counters, campaign/triage tracing, a guest
//! hot-site profiler, and a machine-readable metrics stream.
//!
//! The non-negotiable invariant (the telemetry extension of the witness
//! recorder's contract) is **zero perturbation**: enabling telemetry
//! never changes what the pipeline computes. Campaign JSON, triage
//! JSONL, ranked text and SARIF are byte-identical with and without
//! `--metrics`, for every speculation-model set and worker count
//! (pinned by `tests/telemetry_differential.rs`). The design that makes
//! this trivially true: the VM *counts always* — plain integer
//! increments whose values never feed back into execution — and
//! telemetry-on differs only in *emission* (the JSONL stream, the
//! stderr heartbeat, the per-block profile). Wall-clock time appears
//! only in telemetry output, never in reports.
//!
//! The crate also holds the workspace's one JSON codec, [`json`]: the
//! one writer behind every report (campaign and queue JSON, triage
//! JSONL, SARIF, the metrics stream) and the one reader behind `teapot
//! stats` and `teapot explain`.
//!
//! # The metrics JSONL schema
//!
//! `teapot campaign --metrics out.jsonl` (and `teapot triage
//! --metrics`) stream one **flat** JSON object per line — no nested
//! arrays or objects, so line-oriented tools can consume the file
//! without a full JSON parser (`teapot stats` reads it with
//! [`json::parse`]). Every line carries an
//! `"event"` key; the first line is always `meta` with `"schema": 1`.
//! Wall-clock fields are suffixed `_ms` and are the only
//! non-deterministic values in the stream.
//!
//! | event | keys |
//! |---|---|
//! | `meta` | `schema`, `binary`, `seed`, `shards`, `epochs`, `iters_per_epoch`, `models`, `workers`, `compiled_records`, `compiled_fused`, `heuristic_sites` |
//! | `span` | `name` (`decode` \| `campaign` \| `triage` \| `explain`), `wall_ms` |
//! | `epoch` | `epoch`, `wall_ms`, `execs`, `corpus`, `unique_gadgets` (campaign-wide totals) |
//! | `shard` | `epoch`, `shard`, `execs` (delta this epoch), `corpus`, `cov_normal`, `cov_spec`, `gadgets` |
//! | `gadget_first_seen` | `shard`, `exec` (1-based ordinal within the shard), `pc`, `model` |
//! | `vm` | `shard` + one key per [`VmCounters`] field (see [`VmCounters::for_each`]); the `t_prov_*` trio counts provenance-replay work (origin bytes written, interval folds, leak sites) and is zero on campaign runs |
//! | `counters` | the `vm` keys (without `shard`) summed over shards |
//! | `cost_hist` | `shard`, then `b<k>` = number of runs whose cost had `ilog2 == k - 1` (`b0`: cost 0) |
//! | `hot_block` | `rank`, `pc`, `end`, `orig_pc`, `symbol` (or `null`), `cost`, `insts`, `hits` |
//! | `triage` | `replays`, `minimize_steps`, `witnesses`, `replay_failures`, `dedup_collapses`, `root_causes`, `replay_ms`, `minimize_ms`, `provenance_ms` (all three thread-time summed over the triage threads, so they can exceed the triage span's `wall_ms`; `provenance_ms` is not part of `replay_ms`) |
//! | `fabric` | `op` (`lease` \| `worker_dead` \| `merge` \| `quarantine` \| `rejoin` \| `checkpoint` \| `checkpoint_fault`); for `lease`: `worker`, `shards`, `epoch`, `phase`, `bytes`; for `worker_dead`: `worker` (name), `epoch`; for `merge`: `epoch`, `deltas`, `bytes`, `wall_ms`; for `quarantine` (a connection condemned for a malformed frame): `worker`, `error`; for `rejoin` (a worker reconnecting after the fleet assembled): `worker`; for `checkpoint`: `epoch`; for `checkpoint_fault` (an injected failed/torn `.tcs` write): `kind` (`fail` \| `short`), `epoch` |
//! | `summary` | `wall_ms`, `execs`, `execs_per_sec`, `unique_gadgets`, `time_to_first_gadget_execs` (or `null`) |
//!
//! `time_to_first_gadget_execs` is deterministic by construction: it is
//! the minimum over shards of the 1-based execution ordinal at which
//! the shard first reported a gadget — a pure function of the campaign
//! seed, never of worker count or wall-clock.

use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

pub mod json;

/// Names of the three speculation models, in [`VmCounters`] array
/// index order (the order `teapot-specmodel` assigns model bits).
pub const MODEL_NAMES: [&str; 3] = ["pht", "rsb", "stl"];

/// Accumulated VM execution counters.
///
/// The VM increments plain (non-atomic) per-run counters on its hot
/// paths and folds them into the context's `VmCounters` accumulator at
/// the end of every run; slab-level counters (TLB, page allocation)
/// accumulate on the context-owned page slabs and are merged in by
/// `teapot-vm`'s snapshot accessor. Counting is unconditional —
/// telemetry-off merely never *reads* the values — which is what makes
/// the zero-perturbation invariant structural rather than aspirational.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct VmCounters {
    /// Software-TLB hits across guest memory and both shadows.
    pub tlb_hits: u64,
    /// Software-TLB misses (region-table walks).
    pub tlb_misses: u64,
    /// Slab pages materialized (first touch of an absent page),
    /// including the guest-stack pages each run writes for the first
    /// time since its context was reset.
    pub pages_allocated: u64,
    /// Instructions decoded live from guest memory: fetches outside the
    /// predecoded tables (bytes no table covers) and every fetch under
    /// `Machine::set_uncached_decode`, the reference decode path.
    pub live_decodes: u64,
    /// Instructions retired through template-compiled record dispatch
    /// (the fastest tier: pre-resolved operands, zero per-pass decode).
    pub compiled_insts: u64,
    /// Compiled windows exited early (divergence or fault fallback to
    /// the per-step interpreter).
    pub compiled_exits: u64,
    /// Always 0: the block-slice dispatch tier it counted was removed.
    /// Kept so the metrics schema and the consumers that sum the
    /// per-tier instruction counters stay unchanged.
    pub slice_insts: u64,
    /// Instructions retired one `step()` at a time.
    pub step_insts: u64,
    /// Of all retired instructions (`compiled_insts + step_insts`), those
    /// retired inside a speculation window: a compiled window counts
    /// whole at its entry depth, `step()` per instruction.
    pub spec_insts: u64,
    /// Speculation checkpoints pushed, per model (see [`MODEL_NAMES`]).
    pub checkpoints: [u64; 3],
    /// Rollbacks executed, per model of the rolled-back window.
    pub rollbacks: [u64; 3],
    /// Windows squashed by the ROB instruction budget, per model.
    pub rob_stops: [u64; 3],
    /// Memory-log bytes replayed by rollbacks: only the entries a
    /// window actually pushed (a level logs each word's bytes once), not
    /// every logical entry rollback charges for.
    pub memlog_bytes_replayed: u64,
    /// Origin-shadow bytes written on provenance replays (`t_prov_bytes`;
    /// zero on campaign runs, where the origin shadow is disabled).
    pub prov_bytes: u64,
    /// Origin-interval folds (load/pop byte-range joins) on provenance
    /// replays (`t_prov_folds`).
    pub prov_folds: u64,
    /// `LeakSite` events recorded on provenance replays (`t_prov_leaks`).
    pub prov_leaks: u64,
}

impl VmCounters {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &VmCounters) {
        self.tlb_hits += other.tlb_hits;
        self.tlb_misses += other.tlb_misses;
        self.pages_allocated += other.pages_allocated;
        self.live_decodes += other.live_decodes;
        self.compiled_insts += other.compiled_insts;
        self.compiled_exits += other.compiled_exits;
        self.slice_insts += other.slice_insts;
        self.step_insts += other.step_insts;
        self.spec_insts += other.spec_insts;
        for i in 0..3 {
            self.checkpoints[i] += other.checkpoints[i];
            self.rollbacks[i] += other.rollbacks[i];
            self.rob_stops[i] += other.rob_stops[i];
        }
        self.memlog_bytes_replayed += other.memlog_bytes_replayed;
        self.prov_bytes += other.prov_bytes;
        self.prov_folds += other.prov_folds;
        self.prov_leaks += other.prov_leaks;
    }

    /// Visits every counter as a `(name, value)` pair in the one
    /// canonical order shared by the `vm` and `counters` metrics events
    /// and `teapot stats` — so the schema cannot drift between them.
    pub fn for_each(&self, mut f: impl FnMut(&str, u64)) {
        f("tlb_hits", self.tlb_hits);
        f("tlb_misses", self.tlb_misses);
        f("pages_allocated", self.pages_allocated);
        f("live_decodes", self.live_decodes);
        f("compiled_insts", self.compiled_insts);
        f("compiled_exits", self.compiled_exits);
        f("slice_insts", self.slice_insts);
        f("step_insts", self.step_insts);
        f("spec_insts", self.spec_insts);
        for (i, m) in MODEL_NAMES.iter().enumerate() {
            f(&format!("checkpoints_{m}"), self.checkpoints[i]);
        }
        for (i, m) in MODEL_NAMES.iter().enumerate() {
            f(&format!("rollbacks_{m}"), self.rollbacks[i]);
        }
        for (i, m) in MODEL_NAMES.iter().enumerate() {
            f(&format!("rob_stops_{m}"), self.rob_stops[i]);
        }
        f("memlog_bytes_replayed", self.memlog_bytes_replayed);
        f("t_prov_bytes", self.prov_bytes);
        f("t_prov_folds", self.prov_folds);
        f("t_prov_leaks", self.prov_leaks);
    }
}

/// A log2-bucketed histogram: `buckets[k]` counts samples whose value
/// has `ilog2 == k - 1` (`buckets[0]` takes zero).
pub struct Histogram {
    buckets: [u64; 65],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram { buckets: [0; 65] }
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        let k = if v == 0 { 0 } else { v.ilog2() as usize + 1 };
        self.buckets[k] += 1;
    }

    /// Bucket counts; index `k > 0` holds samples in `[2^(k-1), 2^k)`.
    pub fn snapshot(&self) -> [u64; 65] {
        self.buckets
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }
}

/// Attributes executed cost to guest basic blocks (the hot-site
/// profiler). Spans come from the predecoded `Program`'s block table
/// (sorted, non-overlapping). When the whole code span is compact
/// (≤ [`BlockProfile::MAX_INDEX_SPAN`] bytes — always, for rewritten
/// `.tof` binaries) attribution is a single indexed load from a
/// byte→block table; otherwise it falls back to one `partition_point`
/// behind a last-block cache. Keeping `record` O(1) is what keeps the
/// profiler inside the CI telemetry-overhead budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockProfile {
    starts: Vec<u64>,
    ends: Vec<u64>,
    /// Per-block `[cost, insts, hits]`, one row so a `record` touches
    /// one cache line instead of three parallel arrays.
    rows: Vec<[u64; 3]>,
    /// Cost attributed to no block (runtime stubs, undecoded bytes).
    pub other_cost: u64,
    /// Instructions attributed to no block.
    pub other_insts: u64,
    last: usize,
    /// First block's start address (base of `index`).
    base: u64,
    /// `index[pc - base]` = block index + 1, 0 = no block; empty when
    /// the code span exceeds [`BlockProfile::MAX_INDEX_SPAN`].
    index: Vec<u32>,
}

/// One row of [`BlockProfile::top`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HotBlock {
    /// Block start address (rewritten coordinates).
    pub start: u64,
    /// Block end address (exclusive).
    pub end: u64,
    /// Cost units attributed to the block.
    pub cost: u64,
    /// Instructions attributed to the block.
    pub insts: u64,
    /// Dispatch visits that started in the block.
    pub hits: u64,
}

impl BlockProfile {
    /// Largest code span (bytes) the O(1) byte→block table is built
    /// for; 4 MiB of `u32` slots. Larger programs use the search path.
    pub const MAX_INDEX_SPAN: u64 = 1 << 20;

    /// A zeroed profile over `blocks` (sorted `(start, end)` spans).
    pub fn new(blocks: &[(u64, u64)]) -> BlockProfile {
        let (base, index) = match (blocks.first(), blocks.last()) {
            (Some(&(lo, _)), Some(&(_, hi)))
                if hi > lo && hi - lo <= BlockProfile::MAX_INDEX_SPAN =>
            {
                let mut index = vec![0u32; (hi - lo) as usize];
                for (i, &(bs, be)) in blocks.iter().enumerate() {
                    for slot in &mut index[(bs - lo) as usize..(be - lo) as usize] {
                        *slot = i as u32 + 1;
                    }
                }
                (lo, index)
            }
            _ => (0, Vec::new()),
        };
        BlockProfile {
            starts: blocks.iter().map(|b| b.0).collect(),
            ends: blocks.iter().map(|b| b.1).collect(),
            rows: vec![[0; 3]; blocks.len()],
            other_cost: 0,
            other_insts: 0,
            last: 0,
            base,
            index,
        }
    }

    /// Whether this profile was built over the same block table.
    pub fn same_blocks(&self, blocks: &[(u64, u64)]) -> bool {
        self.starts.len() == blocks.len()
            && blocks
                .iter()
                .enumerate()
                .all(|(i, b)| self.starts[i] == b.0 && self.ends[i] == b.1)
    }

    /// Attributes `cost`/`insts` executed starting at `pc` to the block
    /// containing `pc`.
    #[inline]
    pub fn record(&mut self, pc: u64, cost: u64, insts: u64) {
        if cost == 0 && insts == 0 {
            return;
        }
        if !self.index.is_empty() {
            let off = pc.wrapping_sub(self.base);
            let slot = match self.index.get(off as usize) {
                Some(&s) => s,
                None => 0,
            };
            if slot > 0 {
                let row = &mut self.rows[(slot - 1) as usize];
                row[0] += cost;
                row[1] += insts;
                row[2] += 1;
            } else {
                self.other_cost += cost;
                self.other_insts += insts;
            }
            return;
        }
        let i = self.last;
        if i < self.starts.len() && self.starts[i] <= pc && pc < self.ends[i] {
            let row = &mut self.rows[i];
            row[0] += cost;
            row[1] += insts;
            row[2] += 1;
            return;
        }
        let p = self.starts.partition_point(|&s| s <= pc);
        if p > 0 && pc < self.ends[p - 1] {
            self.last = p - 1;
            let row = &mut self.rows[p - 1];
            row[0] += cost;
            row[1] += insts;
            row[2] += 1;
        } else {
            self.other_cost += cost;
            self.other_insts += insts;
        }
    }

    /// Accumulates another profile over the same block table.
    pub fn merge(&mut self, other: &BlockProfile) {
        debug_assert_eq!(self.starts.len(), other.starts.len());
        for i in 0..self.rows.len().min(other.rows.len()) {
            for k in 0..3 {
                self.rows[i][k] += other.rows[i][k];
            }
        }
        self.other_cost += other.other_cost;
        self.other_insts += other.other_insts;
    }

    /// Total cost recorded (blocks + other).
    pub fn total_cost(&self) -> u64 {
        self.rows.iter().map(|r| r[0]).sum::<u64>() + self.other_cost
    }

    /// The `n` hottest blocks by cost (ties broken by address), hottest
    /// first. Blocks never executed are excluded.
    pub fn top(&self, n: usize) -> Vec<HotBlock> {
        let mut rows: Vec<HotBlock> = (0..self.starts.len())
            .filter(|&i| self.rows[i][0] > 0 || self.rows[i][1] > 0)
            .map(|i| HotBlock {
                start: self.starts[i],
                end: self.ends[i],
                cost: self.rows[i][0],
                insts: self.rows[i][1],
                hits: self.rows[i][2],
            })
            .collect();
        rows.sort_by(|a, b| (b.cost, a.start).cmp(&(a.cost, b.start)));
        rows.truncate(n);
        rows
    }
}

/// Wall-clock span timer. Values from it may only ever be written into
/// telemetry output (`*_ms` fields) — never into reports.
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts timing.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Stopwatch {
        Stopwatch(Instant::now())
    }

    /// Milliseconds elapsed.
    pub fn ms(&self) -> u64 {
        self.0.elapsed().as_millis() as u64
    }
}

/// Builder for one flat metrics event (one JSONL line): a
/// [`Layout::Compact`](json::Layout::Compact) object whose first key
/// is `event`.
pub struct Event(json::Obj);

impl Event {
    /// Starts an event of the given kind (`{"event":"<kind>"`).
    pub fn new(kind: &str) -> Event {
        let mut obj = json::Obj::append(String::with_capacity(96), json::Layout::Compact);
        obj.field("event", kind);
        Event(obj)
    }

    /// Adds an unsigned integer field.
    pub fn num(mut self, key: &str, v: u64) -> Event {
        self.0.field(key, v);
        self
    }

    /// Adds a float field (3 decimal places, deterministic format).
    pub fn fnum(mut self, key: &str, v: f64) -> Event {
        self.0.field(key, json::Fixed(v, 3));
        self
    }

    /// Adds a hex-rendered address field (as a JSON string).
    pub fn hex(mut self, key: &str, v: u64) -> Event {
        self.0.field(key, json::Hex(v));
        self
    }

    /// Adds a string field (escaped).
    pub fn str_field(mut self, key: &str, v: &str) -> Event {
        self.0.field(key, v);
        self
    }

    /// Adds one field per [`VmCounters`] counter, in
    /// [`VmCounters::for_each`] order.
    pub fn counters(mut self, c: &VmCounters) -> Event {
        c.for_each(|name, v| {
            self.0.field(name, v);
        });
        self
    }

    /// Adds an optional integer field (`null` when absent).
    pub fn opt_num(mut self, key: &str, v: Option<u64>) -> Event {
        self.0.field(key, v);
        self
    }

    /// Adds an optional string field (`null` when absent).
    pub fn opt_str(mut self, key: &str, v: Option<&str>) -> Event {
        self.0.field(key, v);
        self
    }

    /// The finished JSON line (no trailing newline).
    pub fn finish(self) -> String {
        self.0.finish()
    }
}

/// A buffered JSONL metrics stream. Writes are best-effort: an I/O
/// error after creation is remembered and reported by
/// [`MetricsSink::finish`], but never interrupts the pipeline —
/// telemetry must not perturb the run it observes.
pub struct MetricsSink {
    w: BufWriter<std::fs::File>,
    path: PathBuf,
    err: Option<std::io::Error>,
}

impl MetricsSink {
    /// Creates (truncates) the metrics file.
    pub fn create(path: &Path) -> std::io::Result<MetricsSink> {
        let f = std::fs::File::create(path)?;
        Ok(MetricsSink {
            w: BufWriter::new(f),
            path: path.to_path_buf(),
            err: None,
        })
    }

    /// The path this sink writes to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Writes one event line.
    pub fn emit(&mut self, ev: Event) {
        if self.err.is_some() {
            return;
        }
        let line = ev.finish();
        if let Err(e) = self
            .w
            .write_all(line.as_bytes())
            .and_then(|()| self.w.write_all(b"\n"))
        {
            self.err = Some(e);
        }
    }

    /// Flushes and reports any deferred write error.
    pub fn finish(mut self) -> std::io::Result<()> {
        if let Some(e) = self.err.take() {
            return Err(e);
        }
        self.w.flush()
    }
}

/// The one canonical rendering of decode-cache statistics, used by the
/// CLI and the bench harness (previously two hand-rolled near-twins).
/// Includes what the template-compilation pass produced — compiled
/// records (with how many fused several slots) and dense heuristic
/// sites — so `--metrics` streams show compile coverage per binary.
#[allow(clippy::too_many_arguments)]
pub fn format_decode_cache(
    blocks: u64,
    insts: u64,
    bytes: u64,
    undecoded_bytes: u64,
    compiled_records: u64,
    compiled_fused: u64,
    sites: u64,
) -> String {
    format!(
        "decode cache: {blocks} blocks, {insts} instructions, {bytes} bytes decoded \
         once and shared by all shards ({undecoded_bytes} bytes undecoded); \
         compiled: {compiled_records} records ({compiled_fused} fused), \
         {sites} heuristic sites"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_counters_merge_and_canonical_order() {
        let mut a = VmCounters {
            tlb_hits: 5,
            ..VmCounters::default()
        };
        a.checkpoints[1] = 2;
        let mut b = VmCounters {
            tlb_hits: 3,
            memlog_bytes_replayed: 7,
            ..VmCounters::default()
        };
        b.checkpoints[1] = 1;
        a.merge(&b);
        assert_eq!(a.tlb_hits, 8);
        assert_eq!(a.checkpoints[1], 3);
        assert_eq!(a.memlog_bytes_replayed, 7);
        // Canonical order is stable and starts with tlb_hits.
        let mut names = Vec::new();
        a.for_each(|n, _| names.push(n.to_string()));
        assert_eq!(names[0], "tlb_hits");
        assert_eq!(names.len(), 10 + 9 + 3);
        assert!(names.contains(&"rollbacks_rsb".to_string()));
        assert!(names.contains(&"compiled_insts".to_string()));
        assert!(names.contains(&"spec_insts".to_string()));
        assert!(names.contains(&"t_prov_leaks".to_string()));
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let mut h = Histogram::default();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        let s = h.snapshot();
        assert_eq!(s[0], 1); // 0
        assert_eq!(s[1], 1); // 1
        assert_eq!(s[2], 2); // 2, 3
        assert_eq!(s[11], 1); // 1024
        assert_eq!(h.count(), 5);
    }

    #[test]
    fn block_profile_attributes_and_ranks() {
        let blocks = [(0x100, 0x120), (0x120, 0x140), (0x200, 0x210)];
        let mut p = BlockProfile::new(&blocks);
        p.record(0x100, 10, 2);
        p.record(0x138, 50, 5); // second block, via partition_point
        p.record(0x138, 50, 5); // second block, via last-cache
        p.record(0x1f0, 7, 1); // outside every block
        p.record(0x200, 1, 1);
        let top = p.top(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].start, 0x120);
        assert_eq!(top[0].cost, 100);
        assert_eq!(top[0].hits, 2);
        assert_eq!(top[1].start, 0x100);
        assert_eq!(p.other_cost, 7);
        assert_eq!(p.total_cost(), 118);

        let mut q = BlockProfile::new(&blocks);
        q.record(0x105, 1, 1);
        p.merge(&q);
        assert_eq!(p.top(1)[0].cost, 100);
        assert!(p.same_blocks(&blocks));
        assert!(!p.same_blocks(&blocks[..2]));
    }

    #[test]
    fn events_render_flat_json() {
        let line = Event::new("meta")
            .num("schema", 1)
            .str_field("binary", "a\"b")
            .opt_num("ttfg", None)
            .hex("pc", 0x400100)
            .fnum("eps", 12.5)
            .finish();
        assert_eq!(
            line,
            "{\"event\":\"meta\",\"schema\":1,\"binary\":\"a\\\"b\",\
             \"ttfg\":null,\"pc\":\"0x400100\",\"eps\":12.500}"
        );
    }

    #[test]
    fn decode_cache_formatting_is_canonical() {
        let s = format_decode_cache(3, 40, 200, 8, 35, 4, 6);
        assert!(s.starts_with("decode cache: 3 blocks, 40 instructions, 200 bytes"));
        assert!(s.contains("(8 bytes undecoded)"));
        assert!(s.contains("compiled: 35 records (4 fused), 6 heuristic sites"));
    }
}
