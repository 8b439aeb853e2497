//! `teapot-specmodel` — pluggable speculation models.
//!
//! Teapot's speculative-execution simulation (paper §6.1) originally
//! checkpointed only at *conditional branches*: Spectre-PHT. SpecFuzz
//! names return-address and store-bypass mispredictions as the next
//! simulation targets, and the systematic-analysis literature shows that
//! PHT-only testing misses whole gadget classes. This crate makes the
//! **misprediction source** a first-class, composable dimension of every
//! run:
//!
//! * [`SpecModel`] — one misprediction source. `Pht` (conditional-branch
//!   direction, the classic Spectre-V1 trigger), `Rsb` (a `ret`
//!   mispredicts to a stale return-stack-buffer entry, Spectre-RSB /
//!   ret2spec), `Stl` (a load speculatively bypasses the youngest
//!   overlapping store and forwards the *stale* value, Spectre-V4 /
//!   speculative store bypass).
//! * [`SpecModelSet`] — the set of models active in a run; parsed from
//!   `--spec-models pht,rsb,stl`, snapshotted into `.tcs` headers,
//!   and threaded through fuzz, campaign, triage and bench
//!   configurations. The default set is **PHT only**, and the whole
//!   pipeline is byte-identical to the pre-specmodel pipeline under it.
//! * Per-model **simulation policy** — how aggressively the VM may enter
//!   windows for each model ([`SpecModel::run_entry_budget`],
//!   [`SpecModel::top_entries_per_site_per_run`]) and how wide the hard
//!   native reorder-buffer safety margin is
//!   ([`SpecModel::native_window_margin`]).
//! * **Site keys** ([`SpecModel::site_key`]) — per-model namespacing of
//!   the per-branch/site speculation-heuristic counters, so one
//!   `SpecHeuristics` map keeps separate counts per `(model, site)` while
//!   the PHT keys (tag 0) stay bit-compatible with every existing witness
//!   and snapshot.
//!
//! Everything here is deterministic data — no I/O, no clocks, no
//! dependencies — so every crate in the pipeline can depend on it.

use std::fmt;

/// One misprediction source the VM can simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum SpecModel {
    /// Pattern-history-table misprediction: a conditional branch takes
    /// the wrong direction (Spectre-PHT / V1). Simulated via the
    /// rewriter's `sim.start` checkpoints (native) or forced branch
    /// inversion (SpecTaint emulation).
    #[default]
    Pht,
    /// Return-stack-buffer misprediction: a `ret` speculatively jumps to
    /// a stale RSB entry instead of the architectural return target
    /// (Spectre-RSB / ret2spec). Simulated by a VM-maintained shadow
    /// return stack of bounded depth [`RSB_DEPTH`].
    Rsb,
    /// Store-to-load bypass: a load speculatively ignores the youngest
    /// overlapping in-flight store and forwards the *previous* memory
    /// contents (Spectre-V4 / speculative store bypass). Simulated by a
    /// VM-maintained store buffer of the last [`STL_WINDOW`] stores.
    Stl,
}

/// Simulated return-stack-buffer depth (hardware RSBs hold 16–32
/// entries; 16 matches the most common microarchitectures).
pub const RSB_DEPTH: usize = 16;

/// Simulated store-buffer window: how many of the most recent stores a
/// load may speculatively bypass (hardware store buffers hold tens of
/// entries; entries "drain" as they fall out of the ring).
pub const STL_WINDOW: usize = 32;

/// Bit position separating the per-model tag from the site address in a
/// heuristics site key (addresses are far below 2^62 in the TEA-64
/// layout, so the tag bits can never collide with a PC).
const SITE_TAG_SHIFT: u32 = 62;

impl SpecModel {
    /// Every model, in canonical order (`Pht`, `Rsb`, `Stl`). This is
    /// the serialization order, the set-rendering order and the site-key
    /// tag order.
    pub const ALL: [SpecModel; 3] = [SpecModel::Pht, SpecModel::Rsb, SpecModel::Stl];

    /// Stable numeric id (`pht` = 0, `rsb` = 1, `stl` = 2) used by the
    /// `.tcs` serialization and the site-key tag.
    #[inline]
    pub fn id(self) -> u8 {
        match self {
            SpecModel::Pht => 0,
            SpecModel::Rsb => 1,
            SpecModel::Stl => 2,
        }
    }

    /// Inverse of [`SpecModel::id`].
    pub fn from_id(id: u8) -> Option<SpecModel> {
        match id {
            0 => Some(SpecModel::Pht),
            1 => Some(SpecModel::Rsb),
            2 => Some(SpecModel::Stl),
            _ => None,
        }
    }

    /// Canonical lower-case name (`"pht"`, `"rsb"`, `"stl"`).
    pub fn name(self) -> &'static str {
        match self {
            SpecModel::Pht => "pht",
            SpecModel::Rsb => "rsb",
            SpecModel::Stl => "stl",
        }
    }

    /// The per-model heuristics **site key** for a program site: the PC
    /// tagged with the model id in the top bits. PHT keys equal the raw
    /// PC, so pre-specmodel witnesses, snapshots and heuristic exports
    /// remain bit-compatible.
    #[inline]
    pub fn site_key(self, pc: u64) -> u64 {
        pc | (self.id() as u64) << SITE_TAG_SHIFT
    }

    /// The model a site key was tagged with (inverse of
    /// [`SpecModel::site_key`]; unknown tags fold to `Pht`).
    #[inline]
    pub fn of_site_key(key: u64) -> SpecModel {
        SpecModel::from_id((key >> SITE_TAG_SHIFT) as u8).unwrap_or(SpecModel::Pht)
    }

    /// The raw site address of a tagged site key.
    #[inline]
    pub fn site_pc(key: u64) -> u64 {
        key & ((1u64 << SITE_TAG_SHIFT) - 1)
    }

    /// Maximum simulation entries this model may open per *run* (across
    /// all sites). PHT is governed by the rewriter's `sim.start`
    /// placement and the per-branch heuristics alone; RSB and STL fire
    /// at architecturally ubiquitous instructions (`ret`s, loads) and
    /// need a per-run budget so hot loops cannot turn every iteration
    /// into a 500-instruction wrong-path excursion.
    pub fn run_entry_budget(self) -> u32 {
        match self {
            SpecModel::Pht => u32::MAX,
            SpecModel::Rsb => 128,
            SpecModel::Stl => 64,
        }
    }

    /// Maximum *top-level* simulation entries per site per run for this
    /// model (nested entries are governed by the shared per-branch
    /// heuristics). Same rationale as [`SpecModel::run_entry_budget`].
    pub fn top_entries_per_site_per_run(self) -> u32 {
        match self {
            SpecModel::Pht => u32::MAX,
            SpecModel::Rsb => 2,
            SpecModel::Stl => 1,
        }
    }

    /// Native-execution hard safety margin on the reorder-buffer budget,
    /// as a multiple of `rob_budget`. PHT windows carry `sim.check`
    /// conditional restore points that normally fire first, so their
    /// margin is generous (×4, the pre-specmodel constant); RSB and STL
    /// windows are opened by the VM itself without dedicated restore
    /// instrumentation tied to the entry, so their margin is tighter.
    pub fn native_window_margin(self) -> u32 {
        match self {
            SpecModel::Pht => 4,
            SpecModel::Rsb | SpecModel::Stl => 2,
        }
    }

    /// Severity adjustment (0–100 scale) for gadgets transmitted under
    /// this model. PHT is the baseline (branch predictors are trivially
    /// trained); RSB requires grooming the return stack; STL windows are
    /// the shortest (the store drains within tens of cycles).
    pub fn severity_adjust(self) -> i64 {
        match self {
            SpecModel::Pht => 0,
            SpecModel::Rsb => -3,
            SpecModel::Stl => -4,
        }
    }
}

impl fmt::Display for SpecModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for SpecModel {
    type Err = ParseModelError;

    fn from_str(s: &str) -> Result<SpecModel, ParseModelError> {
        match s.trim() {
            "pht" => Ok(SpecModel::Pht),
            "rsb" => Ok(SpecModel::Rsb),
            "stl" => Ok(SpecModel::Stl),
            other => Err(ParseModelError {
                what: other.to_string(),
            }),
        }
    }
}

/// An unrecognized model name in a `--spec-models` list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseModelError {
    what: String,
}

impl fmt::Display for ParseModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown speculation model `{}` (valid: pht, rsb, stl)",
            self.what
        )
    }
}

impl std::error::Error for ParseModelError {}

/// A set of active speculation models.
///
/// Internally a 3-bit mask indexed by [`SpecModel::id`]. The default is
/// [`SpecModelSet::PHT_ONLY`] — the pre-specmodel pipeline — and every
/// renderer in the pipeline emits model annotations only for non-default
/// content, so default-set output stays byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpecModelSet(u8);

impl Default for SpecModelSet {
    fn default() -> Self {
        SpecModelSet::PHT_ONLY
    }
}

impl SpecModelSet {
    /// The empty set (rejected by every pipeline configuration
    /// validator: a campaign with no misprediction source fuzzes
    /// nothing speculative).
    pub const EMPTY: SpecModelSet = SpecModelSet(0);
    /// The default set: conditional-branch misprediction only.
    pub const PHT_ONLY: SpecModelSet = SpecModelSet(1);
    /// Every model.
    pub const ALL: SpecModelSet = SpecModelSet(0b111);

    /// Builds a set from a list of models.
    pub fn of(models: &[SpecModel]) -> SpecModelSet {
        let mut s = SpecModelSet::EMPTY;
        for &m in models {
            s.insert(m);
        }
        s
    }

    /// Whether no model is active.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Whether this is the default (PHT-only) set.
    pub fn is_default(self) -> bool {
        self == SpecModelSet::PHT_ONLY
    }

    /// Number of active models.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Adds a model.
    pub fn insert(&mut self, m: SpecModel) {
        self.0 |= 1 << m.id();
    }

    /// Whether `m` is active.
    #[inline]
    pub fn contains(self, m: SpecModel) -> bool {
        self.0 & (1 << m.id()) != 0
    }

    /// Active models in canonical order.
    pub fn iter(self) -> impl Iterator<Item = SpecModel> {
        SpecModel::ALL
            .into_iter()
            .filter(move |m| self.contains(*m))
    }

    /// The raw mask, for serialization (the `.tcs` config byte).
    pub fn bits(self) -> u8 {
        self.0
    }

    /// Rebuilds a set from serialized [`SpecModelSet::bits`]; `None` for
    /// out-of-range masks (corrupt snapshots).
    pub fn from_bits(bits: u8) -> Option<SpecModelSet> {
        (bits <= 0b111).then_some(SpecModelSet(bits))
    }

    /// Parses a `--spec-models` list: comma-separated model names,
    /// whitespace-tolerant, duplicates allowed (`"pht,rsb"`).
    ///
    /// # Errors
    ///
    /// [`ParseModelError`] on any unrecognized name; an all-empty list
    /// parses to [`SpecModelSet::EMPTY`] and is left for configuration
    /// validation to reject with a clearer message.
    pub fn parse(s: &str) -> Result<SpecModelSet, ParseModelError> {
        let mut set = SpecModelSet::EMPTY;
        for part in s.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            set.insert(part.parse()?);
        }
        Ok(set)
    }
}

impl fmt::Display for SpecModelSet {
    /// Canonical rendering: active model names in canonical order,
    /// comma-separated (`"pht,rsb,stl"`); the empty set renders as
    /// `"none"`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return f.write_str("none");
        }
        let mut first = true;
        for m in self.iter() {
            if !first {
                f.write_str(",")?;
            }
            first = false;
            f.write_str(m.name())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip() {
        for m in SpecModel::ALL {
            assert_eq!(SpecModel::from_id(m.id()), Some(m));
            assert_eq!(m.name().parse::<SpecModel>(), Ok(m));
        }
        assert_eq!(SpecModel::from_id(3), None);
        assert!("mds".parse::<SpecModel>().is_err());
    }

    #[test]
    fn pht_site_keys_are_bit_compatible_with_raw_pcs() {
        for pc in [0u64, 0x400100, 0x7FFF_FFFF_FFFF] {
            assert_eq!(SpecModel::Pht.site_key(pc), pc);
        }
    }

    #[test]
    fn site_keys_namespace_per_model_and_invert() {
        let pc = 0x400100u64;
        let keys: Vec<u64> = SpecModel::ALL.iter().map(|m| m.site_key(pc)).collect();
        assert_eq!(keys.len(), 3);
        assert!(keys.windows(2).all(|w| w[0] != w[1]));
        for m in SpecModel::ALL {
            let k = m.site_key(pc);
            assert_eq!(SpecModel::of_site_key(k), m);
            assert_eq!(SpecModel::site_pc(k), pc);
        }
    }

    #[test]
    fn set_parse_and_display_round_trip() {
        assert_eq!(SpecModelSet::parse("pht").unwrap(), SpecModelSet::PHT_ONLY);
        assert_eq!(
            SpecModelSet::parse(" pht , rsb ,stl").unwrap(),
            SpecModelSet::ALL
        );
        assert_eq!(SpecModelSet::parse("rsb,rsb").unwrap().len(), 1);
        assert_eq!(SpecModelSet::parse("").unwrap(), SpecModelSet::EMPTY);
        assert!(SpecModelSet::parse("pht,bogus").is_err());
        for s in ["pht", "rsb", "pht,stl", "pht,rsb,stl", "rsb,stl"] {
            let set = SpecModelSet::parse(s).unwrap();
            assert_eq!(set.to_string(), s);
            assert_eq!(SpecModelSet::from_bits(set.bits()), Some(set));
        }
        assert_eq!(SpecModelSet::EMPTY.to_string(), "none");
        assert_eq!(SpecModelSet::from_bits(8), None);
    }

    #[test]
    fn default_is_pht_only() {
        let d = SpecModelSet::default();
        assert!(d.is_default());
        assert!(d.contains(SpecModel::Pht));
        assert!(!d.contains(SpecModel::Rsb));
        assert!(!d.contains(SpecModel::Stl));
        assert_eq!(SpecModel::default(), SpecModel::Pht);
    }

    #[test]
    fn policy_is_neutral_for_pht() {
        // PHT policy knobs must reproduce the pre-specmodel constants:
        // no budget, no per-site cap, ×4 native window margin, zero
        // severity adjustment.
        assert_eq!(SpecModel::Pht.run_entry_budget(), u32::MAX);
        assert_eq!(SpecModel::Pht.top_entries_per_site_per_run(), u32::MAX);
        assert_eq!(SpecModel::Pht.native_window_margin(), 4);
        assert_eq!(SpecModel::Pht.severity_adjust(), 0);
        // RSB/STL are bounded.
        for m in [SpecModel::Rsb, SpecModel::Stl] {
            assert!(m.run_entry_budget() < u32::MAX);
            assert!(m.top_entries_per_site_per_run() < u32::MAX);
            assert!(m.native_window_margin() < 4);
            assert!(m.severity_adjust() < 0);
        }
    }
}
