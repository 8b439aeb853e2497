//! The triage database: root-cause-deduplicated, severity-ranked gadget
//! findings with replay-validated minimized reproducers.
//!
//! Every rendering is **byte-deterministic**: entries are sorted by
//! `(severity desc, root-cause key asc)`, locations inside an entry by
//! `(binary, shard, gadget key)`, and nothing timing-, thread- or
//! path-order-dependent is emitted. A campaign run with `--workers 8`
//! triages to the same bytes as `--workers 1` — the triage extension of
//! the orchestrator's determinism guarantee.

use crate::provenance::{step_line, CausalChain, CausalStep, StepRole};
use std::collections::BTreeMap;
use teapot_rt::{GadgetKey, SpecModel};
use teapot_telemetry::json::{Hex, Layout::Compact, Obj, Value};
use teapot_vm::DecodeStats;

/// One observation site of a root cause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TriageLocation {
    /// Binary label (file name in queue mode).
    pub binary: String,
    /// Shard that first reported the gadget in that binary's campaign.
    pub shard: u32,
    /// The raw dedup key at this site.
    pub key: GadgetKey,
    /// Mispredicted branch opening the speculative window.
    pub branch_pc: u64,
    /// Access that loaded the secret.
    pub access_pc: u64,
    /// Nesting depth at this site.
    pub depth: u32,
}

/// One deduplicated finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TriageEntry {
    /// Content-derived root-cause key (see `enrich`).
    pub root_cause: String,
    /// `Controllability-Channel` policy bucket.
    pub bucket: String,
    /// Speculation model whose misprediction opened the window.
    pub model: SpecModel,
    /// Severity 0–100 (maximum over locations).
    pub severity: u32,
    /// Human-readable flow description (from the first location).
    pub description: String,
    /// `symbol+off` of the transmitting instruction, when available.
    pub access_symbol: Option<String>,
    /// `symbol+off` of the opening branch, when available.
    pub branch_symbol: Option<String>,
    /// Minimum nesting depth over locations (easiest site to exploit).
    pub min_depth: u32,
    /// Widest DIFT-tainted access in the witness trace, bytes.
    pub max_tainted_width: u8,
    /// Raw triggering input of the canonical witness.
    pub witness_input: Vec<u8>,
    /// ddmin-minimized reproducer (replays to the same gadget key);
    /// `None` when the gadget carried no witness.
    pub minimized_input: Option<Vec<u8>>,
    /// ddmin candidates minimization tried (not VM executions: see
    /// [`MinimizeOutcome::steps`](crate::MinimizeOutcome::steps)).
    pub minimize_steps: u32,
    /// Whether the witness replayed successfully.
    pub replayed: bool,
    /// Causal chain from the provenance replay of the canonical
    /// witness (mispredict → tainted load → leaking access, with
    /// input-byte origins); `None` when provenance was off or the
    /// gadget carried no witness. Renders only when present, so
    /// provenance-off reports are byte-identical to the
    /// pre-provenance pipeline.
    pub chain: Option<CausalChain>,
    /// Every site this root cause was observed at, sorted by
    /// `(binary, shard, key)`.
    pub locations: Vec<TriageLocation>,
}

impl TriageEntry {
    /// SARIF rule id: the policy bucket, suffixed with the speculation
    /// model for non-PHT findings (`User-Cache`, `User-Cache@rsb`) — so
    /// code-scanning UIs can filter per model while PHT rule ids stay
    /// identical to the pre-specmodel pipeline.
    pub fn rule_id(&self) -> String {
        match self.model {
            SpecModel::Pht => self.bucket.clone(),
            m => format!("{}@{m}", self.bucket),
        }
    }
}

/// Per-binary header statistics surfaced at the top of every report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinaryStats {
    /// Binary label.
    pub binary: String,
    /// Decode-cache statistics of the shared decode pass (snapshotted
    /// into `.tcs`, audited here).
    pub decode_stats: DecodeStats,
    /// Campaign executions over this binary.
    pub iters: u64,
    /// Raw (pre-triage) deduplicated gadget count.
    pub raw_gadgets: usize,
}

/// The triage database.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TriageDb {
    /// Per-binary header rows, sorted by label.
    pub binaries: Vec<BinaryStats>,
    entries: Vec<TriageEntry>,
    finalized: bool,
    /// Inserts that merged into an existing root cause instead of
    /// creating a new entry. Telemetry only — never rendered into the
    /// byte-pinned reports.
    dedup_collapses: u64,
}

impl TriageDb {
    /// Creates an empty database.
    pub fn new() -> TriageDb {
        TriageDb::default()
    }

    /// The findings, ranked once [`TriageDb::finalize`] ran.
    pub fn entries(&self) -> &[TriageEntry] {
        &self.entries
    }

    /// Total observation sites across all entries.
    pub fn location_count(&self) -> usize {
        self.entries.iter().map(|e| e.locations.len()).sum()
    }

    /// How many inserts collapsed into an existing root cause.
    pub fn dedup_collapses(&self) -> u64 {
        self.dedup_collapses
    }

    /// Adds a finding, merging it into an existing entry when the
    /// root-cause key matches: locations accumulate, severity takes the
    /// maximum, depth the minimum, and the canonical witness (first in
    /// insertion order, which callers drive in `(binary, shard)` order)
    /// is kept.
    pub fn insert(&mut self, entry: TriageEntry) {
        self.finalized = false;
        if let Some(existing) = self
            .entries
            .iter_mut()
            .find(|e| e.root_cause == entry.root_cause)
        {
            self.dedup_collapses += 1;
            existing.severity = existing.severity.max(entry.severity);
            existing.min_depth = existing.min_depth.min(entry.min_depth);
            existing.max_tainted_width = existing.max_tainted_width.max(entry.max_tainted_width);
            if existing.access_symbol.is_none() {
                existing.access_symbol = entry.access_symbol;
            }
            if existing.branch_symbol.is_none() {
                existing.branch_symbol = entry.branch_symbol;
            }
            if existing.minimized_input.is_none() {
                existing.minimized_input = entry.minimized_input;
                existing.minimize_steps = entry.minimize_steps;
                existing.replayed = entry.replayed;
                existing.witness_input = entry.witness_input;
            }
            // First witness wins, same as the canonical reproducer.
            if existing.chain.is_none() {
                existing.chain = entry.chain;
            }
            existing.locations.extend(entry.locations);
        } else {
            self.entries.push(entry);
        }
    }

    /// Ranks the database: entries by `(severity desc, root_cause asc)`,
    /// locations by `(binary, shard, key)`. Idempotent; every renderer
    /// calls it implicitly through the builder.
    pub fn finalize(&mut self) {
        for e in &mut self.entries {
            e.locations
                .sort_by(|a, b| (&a.binary, a.shard, &a.key).cmp(&(&b.binary, b.shard, &b.key)));
            e.locations.dedup();
        }
        self.entries
            .sort_by(|a, b| (b.severity, &a.root_cause).cmp(&(a.severity, &b.root_cause)));
        self.binaries.sort_by(|a, b| a.binary.cmp(&b.binary));
        self.finalized = true;
    }

    /// Renders the database as JSON-Lines: one header object, then one
    /// object per finding, ranked. Byte-deterministic.
    pub fn to_jsonl(&self) -> String {
        debug_assert!(self.finalized, "finalize() before rendering");
        let mut o = Obj::new(Compact);
        o.field("teapot_triage", 1u64)
            .list("binaries", Compact, Compact, &self.binaries, |o, b| {
                let d = &b.decode_stats;
                o.field("binary", &b.binary)
                    .obj("decode_cache", Compact, |c| {
                        c.field("blocks", d.blocks)
                            .field("insts", d.insts)
                            .field("bytes", d.bytes)
                            .field("undecoded_bytes", d.undecoded_bytes);
                    })
                    .field("iters", b.iters)
                    .field("raw_gadgets", b.raw_gadgets);
            })
            .field("root_causes", self.entries.len())
            .field("locations", self.location_count());
        let mut out = o.finish();
        out.push('\n');
        for e in &self.entries {
            let mut o = Obj::append(out, Compact);
            o.field("root_cause", &e.root_cause)
                .field("bucket", &e.bucket);
            // The model key is emitted only for non-PHT findings:
            // default-model JSONL is byte-identical to the
            // pre-specmodel renderer.
            if e.model != SpecModel::Pht {
                o.field("model", e.model.to_string());
            }
            o.field("severity", e.severity)
                .field("description", &e.description)
                .field("access_symbol", &e.access_symbol)
                .field("branch_symbol", &e.branch_symbol)
                .field("min_depth", e.min_depth)
                .field("max_tainted_width", e.max_tainted_width)
                .field("replayed", e.replayed)
                .field("minimize_steps", e.minimize_steps)
                .field("witness_input", hex(&e.witness_input))
                .field("minimized_input", e.minimized_input.as_deref().map(hex));
            // Causal-chain keys appear only on provenance-replayed
            // findings: provenance-off JSONL is byte-identical to the
            // pre-provenance renderer.
            if let Some(chain) = &e.chain {
                o.field("leaked_input_bytes", chain.origin.to_string())
                    .list("chain", Compact, Compact, &chain.steps, write_step);
            }
            o.list("locations", Compact, Compact, &e.locations, |o, l| {
                o.field("binary", &l.binary)
                    .field("shard", l.shard)
                    .field("pc", Hex(l.key.pc))
                    .field("branch_pc", Hex(l.branch_pc))
                    .field("access_pc", Hex(l.access_pc))
                    .field("depth", l.depth);
            });
            out = o.finish();
            out.push('\n');
        }
        out
    }

    /// Renders the database as a ranked, human-readable report.
    pub fn to_text(&self) -> String {
        debug_assert!(self.finalized, "finalize() before rendering");
        let mut out = String::new();
        out.push_str("teapot triage report\n====================\n");
        for b in &self.binaries {
            out.push_str(&format!(
                "binary {}: {} execs, {} raw gadgets; decode cache {} blocks / {} insts / {} bytes ({} undecoded)\n",
                b.binary,
                b.iters,
                b.raw_gadgets,
                b.decode_stats.blocks,
                b.decode_stats.insts,
                b.decode_stats.bytes,
                b.decode_stats.undecoded_bytes,
            ));
        }
        out.push_str(&format!(
            "{} root cause(s) across {} location(s)\n\n",
            self.entries.len(),
            self.location_count()
        ));
        for (rank, e) in self.entries.iter().enumerate() {
            let via = if e.model == SpecModel::Pht {
                String::new()
            } else {
                format!(" [via {}]", e.model)
            };
            out.push_str(&format!(
                "#{} [severity {:3}] {}{via} — {}\n",
                rank + 1,
                e.severity,
                e.bucket,
                e.description
            ));
            out.push_str(&format!("    root cause: {}\n", e.root_cause));
            if let Some(s) = &e.access_symbol {
                out.push_str(&format!("    access: {s}\n"));
            }
            out.push_str(&format!(
                "    depth {} | tainted width {}B | {}\n",
                e.min_depth,
                e.max_tainted_width,
                match &e.minimized_input {
                    Some(m) => format!(
                        "reproducer {} byte(s) (minimized from {} in {} replays): {}",
                        m.len(),
                        e.witness_input.len(),
                        e.minimize_steps,
                        hex(m)
                    ),
                    None => "no witness captured".to_string(),
                }
            ));
            if let Some(chain) = &e.chain {
                out.push_str(&format!(
                    "    causal chain (leaks input bytes {}):\n",
                    chain.origin
                ));
                for (i, s) in chain.steps.iter().enumerate() {
                    out.push_str(&format!("      {}. {}\n", i + 1, step_line(s)));
                }
            }
            for l in &e.locations {
                out.push_str(&format!(
                    "    at {} shard {}: transmit {:#x} (branch {:#x}, access {:#x}, depth {})\n",
                    l.binary, l.shard, l.key.pc, l.branch_pc, l.access_pc, l.depth
                ));
            }
            out.push('\n');
        }
        out
    }

    /// Deduplicated bucket counts (post-triage Table-4 view).
    pub fn bucket_counts(&self) -> BTreeMap<String, usize> {
        let mut out = BTreeMap::new();
        for e in &self.entries {
            *out.entry(e.bucket.clone()).or_insert(0) += 1;
        }
        out
    }

    /// Deduplicated per-rule counts ([`TriageEntry::rule_id`]): the
    /// bucket counts split per speculation model. Equals
    /// [`TriageDb::bucket_counts`] for a PHT-only database.
    pub fn rule_counts(&self) -> BTreeMap<String, usize> {
        let mut out = BTreeMap::new();
        for e in &self.entries {
            *out.entry(e.rule_id()).or_insert(0) += 1;
        }
        out
    }
}

/// Lower-case hex rendering of a byte string.
pub fn hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push_str(&format!("{b:02x}"));
    }
    out
}

/// One causal-chain step as a JSONL object: role, pc and symbol, then
/// the fields its role carries.
fn write_step(o: &mut Obj, s: &CausalStep) {
    o.field("role", s.role.label())
        .field("pc", Hex(s.pc))
        .field("symbol", &s.symbol);
    match s.role {
        StepRole::Mispredict => {
            o.field("model", s.model.to_string())
                .field("depth", s.depth);
        }
        StepRole::TaintedLoad => {
            o.field("addr", Hex(s.addr))
                .field("width", s.width)
                .field("origin", s.origin.to_string());
        }
        StepRole::Leak => {
            o.field("model", s.model.to_string())
                .field("depth", s.depth)
                .field("origin", s.origin.to_string());
        }
    }
}

/// Reads the causal steps back from one triage-JSONL finding's `chain`
/// array (empty when the finding has none). A step whose role or `pc`
/// does not parse is skipped; `tag` is not written, so it reads back 0.
pub fn read_chain(finding: &Value) -> Vec<CausalStep> {
    let steps = finding.get("chain").and_then(Value::as_array);
    steps
        .unwrap_or_default()
        .iter()
        .filter_map(read_step)
        .collect()
}

/// The inverse of [`write_step`]: absent fields read back as their
/// zero values.
fn read_step(v: &Value) -> Option<CausalStep> {
    let text = |key| v.get(key).and_then(Value::as_str);
    let int = |key| v.get(key).and_then(Value::as_u64);
    let hex = |key| u64::from_str_radix(text(key)?.strip_prefix("0x")?, 16).ok();
    Some(CausalStep {
        role: StepRole::ALL
            .into_iter()
            .find(|r| text("role") == Some(r.label()))?,
        pc: hex("pc")?,
        symbol: text("symbol").map(str::to_string),
        model: text("model")
            .and_then(|m| m.parse().ok())
            .unwrap_or(SpecModel::Pht),
        depth: int("depth").and_then(|d| d.try_into().ok()).unwrap_or(0),
        addr: hex("addr").unwrap_or(0),
        width: int("width").and_then(|w| w.try_into().ok()).unwrap_or(0),
        tag: 0,
        origin: text("origin")
            .and_then(|o| o.parse().ok())
            .unwrap_or_default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use teapot_rt::{Channel, Controllability, OriginSpan};

    fn entry(root: &str, severity: u32, binary: &str, shard: u32) -> TriageEntry {
        TriageEntry {
            root_cause: root.to_string(),
            bucket: "User-Cache".to_string(),
            model: SpecModel::Pht,
            severity,
            description: "d".to_string(),
            access_symbol: None,
            branch_symbol: None,
            min_depth: 1,
            max_tainted_width: 4,
            witness_input: vec![0x7f, 0xc8],
            minimized_input: Some(vec![0x7f]),
            minimize_steps: 3,
            replayed: true,
            chain: None,
            locations: vec![TriageLocation {
                binary: binary.to_string(),
                shard,
                key: GadgetKey {
                    pc: 0x400100,
                    channel: Channel::Cache,
                    controllability: Controllability::User,
                    model: SpecModel::Pht,
                },
                branch_pc: 0x4000f0,
                access_pc: 0x400100,
                depth: 1,
            }],
        }
    }

    #[test]
    fn insert_merges_by_root_cause_and_ranks() {
        let mut db = TriageDb::new();
        db.insert(entry("cause-b", 40, "b.tof", 1));
        db.insert(entry("cause-a", 90, "a.tof", 0));
        db.insert(entry("cause-b", 55, "a.tof", 0));
        db.finalize();
        assert_eq!(db.entries().len(), 2);
        // Highest severity first.
        assert_eq!(db.entries()[0].root_cause, "cause-a");
        // Merged entry took the max severity and both locations,
        // sorted by (binary, shard).
        let merged = &db.entries()[1];
        assert_eq!(merged.severity, 55);
        assert_eq!(merged.locations.len(), 2);
        assert_eq!(merged.locations[0].binary, "a.tof");
        assert_eq!(merged.locations[1].binary, "b.tof");
    }

    #[test]
    fn renders_are_deterministic() {
        let mut a = TriageDb::new();
        let mut b = TriageDb::new();
        for db in [&mut a, &mut b] {
            db.insert(entry("x", 70, "bin", 0));
            db.insert(entry("y", 70, "bin", 1));
            db.finalize();
        }
        assert_eq!(a.to_jsonl(), b.to_jsonl());
        assert_eq!(a.to_text(), b.to_text());
        // Equal severity ties break on the root-cause key.
        assert_eq!(a.entries()[0].root_cause, "x");
    }

    #[test]
    fn jsonl_hex_encodes_inputs() {
        let mut db = TriageDb::new();
        db.insert(entry("k", 50, "bin", 0));
        db.finalize();
        let jsonl = db.to_jsonl();
        assert!(jsonl.contains("\"witness_input\":\"7fc8\""));
        assert!(jsonl.contains("\"minimized_input\":\"7f\""));
        assert!(jsonl.lines().count() == 2);
    }

    #[test]
    fn hex_renders_lower_case_pairs() {
        assert_eq!(hex(&[0, 255, 16]), "00ff10");
    }

    #[test]
    fn chain_renders_only_when_present() {
        use crate::provenance::{CausalChain, CausalStep, StepRole};
        use teapot_rt::OriginSpan;
        let mut without = TriageDb::new();
        without.insert(entry("k", 50, "bin", 0));
        without.finalize();
        let jsonl_off = without.to_jsonl();
        let text_off = without.to_text();
        assert!(!jsonl_off.contains("\"chain\""));
        assert!(!jsonl_off.contains("leaked_input_bytes"));
        assert!(!text_off.contains("causal chain"));

        let mut e = entry("k", 50, "bin", 0);
        e.chain = Some(CausalChain {
            steps: vec![
                CausalStep {
                    role: StepRole::Mispredict,
                    pc: 0x4000f0,
                    symbol: None,
                    model: SpecModel::Pht,
                    depth: 1,
                    addr: 0,
                    width: 0,
                    tag: 0,
                    origin: OriginSpan::NONE,
                },
                CausalStep {
                    role: StepRole::TaintedLoad,
                    pc: 0x400100,
                    symbol: Some("main+0x10".into()),
                    model: SpecModel::Pht,
                    depth: 1,
                    addr: 0x80_0000,
                    width: 1,
                    tag: 1,
                    origin: OriginSpan::from_offset(1),
                },
                CausalStep {
                    role: StepRole::Leak,
                    pc: 0x400100,
                    symbol: None,
                    model: SpecModel::Pht,
                    depth: 1,
                    addr: 0,
                    width: 0,
                    tag: 4,
                    origin: OriginSpan::from_offset(1),
                },
            ],
            origin: OriginSpan::from_offset(1),
        });
        let mut with = TriageDb::new();
        with.insert(e);
        with.finalize();
        let jsonl_on = with.to_jsonl();
        let text_on = with.to_text();
        assert!(jsonl_on.contains("\"leaked_input_bytes\":\"1\""));
        assert!(jsonl_on.contains("\"chain\":[{\"role\":\"mispredict\""));
        assert!(jsonl_on.contains("\"role\":\"tainted-load\",\"pc\":\"0x400100\""));
        assert!(jsonl_on.contains("\"origin\":\"1\""));
        assert!(text_on.contains("causal chain (leaks input bytes 1):"));
        assert!(text_on.contains("1. mispredict 0x4000f0 (via pht, depth 1)"));
        assert!(text_on.contains("2. tainted load 0x400100 <main+0x10>"));
        // Scrubbing the chain keys recovers the provenance-off bytes —
        // the symmetric-scrub property the differential suite relies on.
        let scrubbed: String = jsonl_on
            .lines()
            .map(|l| {
                let mut l = l.to_string();
                if let (Some(a), Some(b)) =
                    (l.find("\"leaked_input_bytes\""), l.find("\"locations\""))
                {
                    l.replace_range(a..b, "");
                }
                format!("{l}\n")
            })
            .collect();
        assert_eq!(scrubbed, jsonl_off);
    }

    #[test]
    fn model_annotations_render_only_for_non_pht_entries() {
        let mut db = TriageDb::new();
        db.insert(entry("pht-cause", 70, "bin", 0));
        let mut rsb = entry("rsb-cause", 60, "bin", 0);
        rsb.model = SpecModel::Rsb;
        rsb.locations[0].key.model = SpecModel::Rsb;
        db.insert(rsb);
        db.finalize();
        assert_eq!(db.entries()[0].rule_id(), "User-Cache");
        assert_eq!(db.entries()[1].rule_id(), "User-Cache@rsb");
        let jsonl = db.to_jsonl();
        // Exactly one (RSB) entry carries a model key.
        assert_eq!(jsonl.matches("\"model\":\"rsb\"").count(), 1);
        assert!(!jsonl.contains("\"model\":\"pht\""));
        let text = db.to_text();
        assert_eq!(text.matches("[via rsb]").count(), 1);
        assert!(!text.contains("[via pht]"));
        assert_eq!(db.rule_counts().len(), 2);
        assert_eq!(db.bucket_counts().get("User-Cache"), Some(&2));
    }

    #[test]
    fn chain_steps_read_back_as_they_render() {
        let steps: Vec<CausalStep> = StepRole::ALL
            .into_iter()
            .enumerate()
            .map(|(i, role)| CausalStep {
                role,
                pc: 0x400100 + i as u64,
                symbol: (i != 1).then(|| format!("f+{i}")),
                model: SpecModel::Stl,
                depth: 2,
                addr: 0x500040,
                width: 4,
                tag: 3,
                origin: OriginSpan::from_offset(0).join(OriginSpan::from_offset(i + 1)),
            })
            .collect();
        let mut o = Obj::new(Compact);
        o.list("chain", Compact, Compact, &steps, write_step);
        let finding = teapot_telemetry::json::parse(&o.finish()).unwrap();
        let read = read_chain(&finding);
        assert_eq!(read.len(), steps.len());
        for (back, step) in read.iter().zip(&steps) {
            assert_eq!(step_line(back), step_line(step));
        }
        assert!(read_chain(&Value::Obj(vec![])).is_empty());
    }
}
