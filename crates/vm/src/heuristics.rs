//! Per-branch speculation heuristics (paper §6.1 "Nested Speculation and
//! fuzzing heuristic").
//!
//! Three styles are modeled:
//!
//! * **Teapot hybrid** — a branch's first [`full_depth_runs`] simulations
//!   explore to the full nesting depth (6); afterwards the SpecFuzz
//!   gradual-deepening rule applies. Top-level simulation always happens.
//! * **SpecFuzz gradual** — allowed depth grows logarithmically with the
//!   branch's encounter count, up to the sixth order. Top-level simulation
//!   always happens.
//! * **SpecTaint five-tries** — each branch enters simulation at most five
//!   times *in total* (including top-level), the paper's explanation for
//!   SpecTaint's false negatives (§7.3).
//!
//! State persists across fuzzing runs: the fuzzer owns a
//! [`SpecHeuristics`] and threads it through every execution.
//!
//! Storage note: the gate runs for every `sim.start` reached inside a
//! speculation window — one of the hottest paths in the VM — so the
//! per-branch state lives in a dense vector behind a single
//! pc→index probe, and per-run accounting resets by bumping a run
//! generation instead of clearing maps. Observable behavior (decisions
//! and exported counts, including zero-count entries created by
//! rejected nested gates) is bit-identical to the original
//! three-hashmap design.
//!
//! [`full_depth_runs`]: teapot_rt::DetectorConfig::full_depth_runs

use teapot_rt::{FxHashMap, SpecModel};

/// Which tool's nested-speculation policy to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum HeurStyle {
    /// Teapot's hybrid policy (paper §6.1).
    #[default]
    TeapotHybrid,
    /// SpecFuzz's gradual deepening.
    SpecFuzzGradual,
    /// SpecTaint's five-entries-per-branch cap.
    SpecTaintFive,
}

/// Dense per-branch state (see module note).
#[derive(Debug, Clone)]
struct SiteState {
    /// The branch (site key) this slot tracks.
    pc: u64,
    /// Persistent simulation count.
    count: u32,
    /// Whether the original design's `counts` map would hold an entry
    /// for this branch (top-level entry, or a nested gate that reached
    /// the decision point) — zero-count entries are observable through
    /// [`SpecHeuristics::export_counts`] and must be reproduced.
    counted: bool,
    /// Run generation `opportunities`/`entered` are valid for.
    run_gen: u32,
    /// Nested opportunities seen this run.
    opportunities: u32,
    /// Nested entries taken this run.
    entered: u32,
}

/// Persistent per-branch simulation accounting.
#[derive(Debug, Clone, Default)]
pub struct SpecHeuristics {
    /// Active policy.
    pub style: HeurStyle,
    /// Branch → dense index into `sites`.
    index: FxHashMap<u64, u32>,
    sites: Vec<SiteState>,
    run_gen: u32,
    /// Identity of the `Program` the dense-site binding below belongs to.
    bound_uid: u64,
    /// Dense program site id → `sites` index + 1 (`0`: not yet
    /// interned). Gates that carry a predecoded site id resolve their
    /// slot through this array — the `pc → index` hash probe then runs
    /// at most once per site per binding, not once per decision. Purely
    /// an access path: slots are created at the same moments and with
    /// the same state as through the hash probe, so decisions and
    /// exported counts are bit-identical.
    bound: Vec<u32>,
}

/// Maximum nested-simulation entries per branch within one run. Without
/// this bound, loops executing under an outer simulation window re-enter
/// nested exploration on every iteration and the search space "grows
/// exponentially" (paper §6.1) — managing that explosion is exactly what
/// the per-branch heuristics are for.
pub const NESTED_PER_RUN_CAP: u32 = 6;

/// Phase-rotation cycle: a branch skips its first `count % CYCLE` nested
/// opportunities in each run, so successive fuzzing runs explore
/// *different* combinations of nested mispredictions (e.g., later loop
/// iterations) instead of greedily re-diving into the same early paths.
/// This is the "mixture" exploration strategy of paper §6.1, adapted to a
/// deterministic fuzzer.
pub const PHASE_CYCLE: u32 = 4;

impl SpecHeuristics {
    /// Creates fresh state for the given style.
    pub fn new(style: HeurStyle) -> SpecHeuristics {
        SpecHeuristics {
            style,
            ..SpecHeuristics::default()
        }
    }

    /// Resets per-run accounting (called at the start of each execution;
    /// the cross-run per-branch counts persist across the campaign).
    pub fn begin_run(&mut self) {
        self.run_gen = self.run_gen.wrapping_add(1);
        if self.run_gen == 0 {
            // Generation wrap: stale per-run state could alias the new
            // generation; clear it for real once every 2^32 runs.
            for s in &mut self.sites {
                s.run_gen = u32::MAX;
                s.opportunities = 0;
                s.entered = 0;
            }
            self.run_gen = 1;
        }
    }

    /// Binds the dense-site id table to a program: ids handed to
    /// [`SpecHeuristics::enter_top_at`] / `enter_nested_at` must come
    /// from that program's predecoded tables. Rebinding to the same
    /// program is free; a different program (queue mode) resets the
    /// binding, and the hash probes lazily refill it.
    pub(crate) fn bind_sites(&mut self, uid: u64, nsites: u32) {
        let n = nsites as usize;
        if self.bound_uid != uid || self.bound.len() != n {
            self.bound.clear();
            self.bound.resize(n, 0);
            self.bound_uid = uid;
        }
    }

    /// Dense index of `branch` in `sites`, created on first sight, with
    /// the per-run accounting refreshed — the hash-probe access path.
    #[inline]
    fn site_index(&mut self, branch: u64) -> usize {
        let idx = *self.index.entry(branch).or_insert_with(|| {
            self.sites.push(SiteState {
                pc: branch,
                count: 0,
                counted: false,
                run_gen: 0,
                opportunities: 0,
                entered: 0,
            });
            (self.sites.len() - 1) as u32
        }) as usize;
        let s = &mut self.sites[idx];
        if s.run_gen != self.run_gen {
            s.run_gen = self.run_gen;
            s.opportunities = 0;
            s.entered = 0;
        }
        idx
    }

    /// Dense index of the site keyed `key`, resolved through the bound
    /// program-site id when one is given (one array read after the
    /// first intern), the hash probe otherwise.
    #[inline]
    fn site_slot(&mut self, sid: Option<u32>, key: u64) -> usize {
        if let Some(sid) = sid {
            if let Some(&slot) = self.bound.get(sid as usize) {
                if slot != 0 {
                    let idx = (slot - 1) as usize;
                    let s = &mut self.sites[idx];
                    if s.run_gen != self.run_gen {
                        s.run_gen = self.run_gen;
                        s.opportunities = 0;
                        s.entered = 0;
                    }
                    return idx;
                }
                let idx = self.site_index(key);
                self.bound[sid as usize] = idx as u32 + 1;
                return idx;
            }
        }
        self.site_index(key)
    }

    /// Dense slot of `branch`, created on first sight.
    #[inline]
    fn site_mut(&mut self, branch: u64) -> &mut SiteState {
        let idx = self.site_index(branch);
        &mut self.sites[idx]
    }

    /// SpecFuzz gradual rule: allowed depth grows with the logarithm of
    /// the encounter count, capped at `max_nesting`.
    fn gradual_depth(count: u32, max_nesting: u32) -> u32 {
        let log = 32 - count.saturating_add(1).leading_zeros(); // ⌈log2⌉-ish
        log.clamp(1, max_nesting)
    }

    /// Should a *top-level* simulation be entered for `branch`?
    /// Increments the branch's simulation count when entering.
    pub fn enter_top(&mut self, branch: u64) -> bool {
        self.enter_top_at(None, branch)
    }

    /// [`SpecHeuristics::enter_top`] resolved through a bound dense
    /// site id (see [`SpecHeuristics::bind_sites`]) when available.
    pub(crate) fn enter_top_at(&mut self, sid: Option<u32>, branch: u64) -> bool {
        let style = self.style;
        let idx = self.site_slot(sid, branch);
        let s = &mut self.sites[idx];
        s.counted = true;
        match style {
            HeurStyle::TeapotHybrid | HeurStyle::SpecFuzzGradual => {
                s.count += 1;
                true
            }
            HeurStyle::SpecTaintFive => {
                if s.count >= 5 {
                    false
                } else {
                    s.count += 1;
                    true
                }
            }
        }
    }

    /// Should a *nested* simulation be entered for `branch` while already
    /// `depth` levels deep (depth ≥ 1)? Increments the count when entering.
    pub fn enter_nested(
        &mut self,
        branch: u64,
        depth: u32,
        max_nesting: u32,
        full_depth_runs: u32,
    ) -> bool {
        self.enter_nested_at(None, branch, depth, max_nesting, full_depth_runs)
    }

    /// [`SpecHeuristics::enter_nested`] resolved through a bound dense
    /// site id when available.
    pub(crate) fn enter_nested_at(
        &mut self,
        sid: Option<u32>,
        branch: u64,
        depth: u32,
        max_nesting: u32,
        full_depth_runs: u32,
    ) -> bool {
        if depth >= max_nesting {
            return false;
        }
        let style = self.style;
        let idx = self.site_slot(sid, branch);
        let s = &mut self.sites[idx];
        if !matches!(style, HeurStyle::SpecTaintFive) {
            // Phase rotation: skip this run's first `count % CYCLE`
            // opportunities so different runs nest at different points.
            let seen = s.opportunities;
            s.opportunities += 1;
            let effective = if s.counted { s.count } else { 0 };
            if seen < effective % PHASE_CYCLE {
                return false;
            }
            if s.entered >= NESTED_PER_RUN_CAP {
                return false;
            }
        }
        s.counted = true;
        let allow = match style {
            HeurStyle::TeapotHybrid => {
                if s.count < full_depth_runs {
                    true // full depth for the first runs of this branch
                } else {
                    depth < Self::gradual_depth(s.count, max_nesting)
                }
            }
            HeurStyle::SpecFuzzGradual => depth < Self::gradual_depth(s.count, max_nesting),
            HeurStyle::SpecTaintFive => s.count < 5,
        };
        if allow {
            s.count += 1;
            s.entered += 1;
        }
        allow
    }

    /// Exports the persistent per-branch simulation counts, sorted by
    /// branch address (the per-run accounting is transient and excluded).
    /// Together with [`SpecHeuristics::from_counts`] this supports
    /// campaign snapshots: heuristic state survives a kill/resume cycle.
    pub fn export_counts(&self) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        self.export_counts_into(&mut out);
        out
    }

    /// [`SpecHeuristics::export_counts`] into a caller-owned buffer,
    /// reusing its allocation.
    pub fn export_counts_into(&self, out: &mut Vec<(u64, u32)>) {
        self.export_counts_unsorted_into(out);
        out.sort_unstable();
    }

    /// Raw (unsorted) count snapshot into a caller-owned buffer — the
    /// witness recorder snapshots the counts before *every* fuzz run but
    /// only consumes a snapshot on rare first-seen gadgets, so the hot
    /// loop must neither allocate nor sort; callers sort at consumption
    /// time.
    pub fn export_counts_unsorted_into(&self, out: &mut Vec<(u64, u32)>) {
        out.clear();
        out.extend(
            self.sites
                .iter()
                .filter(|s| s.counted)
                .map(|s| (s.pc, s.count)),
        );
    }

    /// Rebuilds heuristic state from counts exported by
    /// [`SpecHeuristics::export_counts`].
    pub fn from_counts(style: HeurStyle, counts: &[(u64, u32)]) -> Self {
        let mut h = SpecHeuristics::new(style);
        for &(pc, count) in counts {
            let s = h.site_mut(pc);
            s.count = count;
            s.counted = true;
        }
        h
    }

    /// Times `branch` has entered simulation so far.
    pub fn count(&self, branch: u64) -> u32 {
        match self.index.get(&branch) {
            Some(&i) => self.sites[i as usize].count,
            None => 0,
        }
    }

    /// Times the site `pc` has entered simulation under `model`. Sites
    /// are namespaced per model ([`SpecModel::site_key`]): a PHT branch
    /// and an RSB return at the same address keep independent counts
    /// (PHT keys are the raw PC, bit-compatible with old snapshots).
    pub fn count_for(&self, model: SpecModel, pc: u64) -> u32 {
        self.count(model.site_key(pc))
    }

    /// Number of distinct sites seen under `model`.
    pub fn sites_seen_for(&self, model: SpecModel) -> usize {
        self.sites
            .iter()
            .filter(|s| s.counted && SpecModel::of_site_key(s.pc) == model)
            .count()
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn teapot_always_simulates_top_level() {
        let mut h = SpecHeuristics::new(HeurStyle::TeapotHybrid);
        for _ in 0..100 {
            assert!(h.enter_top(0x400100));
        }
        assert_eq!(h.count(0x400100), 100);
    }

    #[test]
    fn spectaint_caps_at_five_total() {
        let mut h = SpecHeuristics::new(HeurStyle::SpecTaintFive);
        let mut entered = 0;
        for _ in 0..20 {
            if h.enter_top(0x99) {
                entered += 1;
            }
        }
        assert_eq!(entered, 5);
        // Nested entries are also refused once exhausted.
        assert!(!h.enter_nested(0x99, 1, 6, 5));
    }

    #[test]
    fn teapot_hybrid_full_depth_first_five_runs() {
        let mut h = SpecHeuristics::new(HeurStyle::TeapotHybrid);
        // First five runs: any depth below max allowed.
        for _ in 0..5 {
            assert!(h.enter_nested(0x1, 5, 6, 5));
        }
        // Afterwards: gradual — depth 5 requires a large count.
        assert!(!h.enter_nested(0x1, 5, 6, 5));
        // Shallow nesting is still allowed.
        assert!(h.enter_nested(0x1, 1, 6, 5));
    }

    #[test]
    fn gradual_deepening_is_monotone_and_capped() {
        let mut prev = 0;
        for c in 0..10_000 {
            let d = SpecHeuristics::gradual_depth(c, 6);
            assert!(d >= prev);
            assert!((1..=6).contains(&d));
            prev = d;
        }
        assert_eq!(SpecHeuristics::gradual_depth(10_000, 6), 6);
        assert_eq!(SpecHeuristics::gradual_depth(0, 6), 1);
    }

    #[test]
    fn depth_never_exceeds_max_nesting() {
        let mut h = SpecHeuristics::new(HeurStyle::TeapotHybrid);
        assert!(!h.enter_nested(0x5, 6, 6, 5));
        assert!(!h.enter_nested(0x5, 7, 6, 5));
        let mut h = SpecHeuristics::new(HeurStyle::SpecFuzzGradual);
        assert!(!h.enter_nested(0x5, 6, 6, 5));
    }

    #[test]
    fn per_model_site_counts_are_independent_and_export_compatible() {
        let mut h = SpecHeuristics::new(HeurStyle::TeapotHybrid);
        let pc = 0x400100u64;
        // The same address entered under three different models keeps
        // three independent counters.
        assert!(h.enter_top(SpecModel::Pht.site_key(pc)));
        assert!(h.enter_top(SpecModel::Rsb.site_key(pc)));
        assert!(h.enter_top(SpecModel::Rsb.site_key(pc)));
        assert!(h.enter_top(SpecModel::Stl.site_key(pc)));
        assert_eq!(h.count_for(SpecModel::Pht, pc), 1);
        assert_eq!(h.count_for(SpecModel::Rsb, pc), 2);
        assert_eq!(h.count_for(SpecModel::Stl, pc), 1);
        assert_eq!(h.sites_seen_for(SpecModel::Rsb), 1);
        // The tagged keys round-trip through the witness/snapshot export
        // format unchanged (plain u64s), and PHT keys equal raw PCs.
        let counts = h.export_counts();
        assert!(counts.contains(&(pc, 1)));
        let back = SpecHeuristics::from_counts(HeurStyle::TeapotHybrid, &counts);
        assert_eq!(back.count_for(SpecModel::Rsb, pc), 2);
    }

    #[test]
    fn bound_site_ids_are_a_pure_access_path() {
        // The same decision sequence through the dense-id path and the
        // hash-probe path must produce identical decisions and exports,
        // including across a rebind to a different program.
        let mut a = SpecHeuristics::new(HeurStyle::TeapotHybrid);
        let mut b = SpecHeuristics::new(HeurStyle::TeapotHybrid);
        b.bind_sites(7, 4);
        let keys = [0x400100u64, 0x400200, 0x400300];
        for run in 0..10u32 {
            a.begin_run();
            b.begin_run();
            for (i, &k) in keys.iter().enumerate() {
                assert_eq!(a.enter_top(k), b.enter_top_at(Some(i as u32), k));
                assert_eq!(
                    a.enter_nested(k, 1 + run % 3, 6, 5),
                    b.enter_nested_at(Some(i as u32), k, 1 + run % 3, 6, 5)
                );
            }
            // An out-of-table site falls back to the hash probe.
            assert_eq!(a.enter_top(0xdead), b.enter_top_at(None, 0xdead));
        }
        assert_eq!(a.export_counts(), b.export_counts());
        // Rebinding resets the id table; decisions keep agreeing.
        b.bind_sites(9, 3);
        a.begin_run();
        b.begin_run();
        assert_eq!(a.enter_top(keys[2]), b.enter_top_at(Some(0), keys[2]));
        assert_eq!(a.export_counts(), b.export_counts());
    }

    #[test]
    fn specfuzz_gradual_deepens_with_encounters() {
        let mut h = SpecHeuristics::new(HeurStyle::SpecFuzzGradual);
        // Fresh branch: depth 1 refused at first (allowed depth is 1).
        assert!(!h.enter_nested(0x7, 1, 6, 5));
        for _ in 0..40 {
            h.enter_top(0x7);
        }
        // Now deeper nesting unlocks.
        assert!(h.enter_nested(0x7, 1, 6, 5));
        assert!(h.enter_nested(0x7, 2, 6, 5));
    }
}
