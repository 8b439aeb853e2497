//! Binary-wide predecoded programs.
//!
//! The seed interpreter paid fetch + decode through a per-run
//! `HashMap<u64, (Inst, u8)>` instruction cache that was rebuilt for
//! every `Machine` — once per fuzz input. A [`Program`] hoists that work
//! to **once per binary**: every executable section is decoded up front
//! (via `teapot-isa`'s block walk, plus an exhaustive per-byte sweep so
//! even wild speculative control flow that lands mid-instruction hits
//! the table), each instruction carries its precomputed metadata
//! (length, instrumentation class, cost class, Real-Copy membership),
//! and the whole structure is immutable — wrap it in an [`Arc`] and
//! every campaign shard and worker thread shares one decode pass.
//!
//! A `Program` also owns the **pristine memory image** of the binary
//! (loadable sections plus the zero-on-write stack range, whose pages
//! get slots only when a run writes them). A fresh run no longer
//! re-pokes every section byte into a new address space; it clones the
//! image once per [`ExecContext`](crate::ExecContext) and thereafter
//! restores only the dirty pages between runs.
//!
//! Correctness note: predecoding is semantically transparent because
//! code pages are read-only in the VM (stores to them fault before the
//! memory log records anything), so `decode_at` over the pristine image
//! at address `pc` is exactly what the seed's lazy per-run decode
//! computed. The `teapot` facade crate carries a differential test that
//! replays the full workload suite through both the predecoded and the
//! uncached path and asserts identical outcomes.

use crate::mem::PagedMem;
use std::sync::Arc;
use teapot_isa::{
    decode_at, walk_blocks, AccessSize, AluOp, Cc, Inst, MemRef, Operand, Reg, INST_MAX_LEN,
};
use teapot_obj::{BinFlags, Binary};
use teapot_rt::layout::{STACK_LIMIT, STACK_TOP};
use teapot_rt::{cost, TeapotMeta};

/// Entry flag: the instruction is rewriter-inserted instrumentation.
pub(crate) const F_INSTR: u8 = 1;
/// Entry flag: the address lies in the Real Copy (`TeapotMeta`).
pub(crate) const F_IN_REAL: u8 = 2;
/// Entry flag: charged even in single-copy normal mode
/// (`guard`/`sim.start`/`cov.trace` — the always-on overhead of the
/// SpecFuzz-style layout, paper Listing 3).
pub(crate) const F_ALWAYS_CHARGE: u8 = 4;
/// Entry flag: the decode at this address consumed (or its failure may
/// depend on) bytes beyond the executable section — bytes that are not
/// guaranteed immutable at run time. The VM must use the live decoder
/// here; only the address-derived flags of the entry are valid.
pub(crate) const F_LIVE: u8 = 8;
/// Entry flag: executing the instruction is a pure no-op beyond the
/// standard counters (cost markers and NOPs). The compiled tier folds
/// a run of them into the record that follows it, so they never cost a
/// dispatch of their own — in a rewritten binary they are a large share
/// of the stream (`tag.prop`/`memlog` ride along with most
/// architectural instructions).
pub(crate) const F_NOP: u8 = 16;

/// One predecoded table slot: the instruction starting at an address.
/// Build-time representation — the final [`Region`] splits it
/// structure-of-arrays so the dispatch loop streams a compact hot
/// record per slot instead of pulling the whole ~48-byte entry (and
/// its cache lines) for every retired instruction.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry {
    pub inst: Inst<u64>,
    /// Encoded length; `0` marks an address where decoding fails (the
    /// VM raises the same invalid-instruction fault the live decoder
    /// would).
    pub len: u8,
    pub flags: u8,
    /// Native-execution cost class (`teapot-rt::cost`).
    pub cost: u32,
}

/// The per-slot fields every dispatched instruction touches, packed to
/// 8 bytes so per-instruction fetch streams a few slots per cache
/// line (the instruction payload and compiled records live in parallel
/// arrays, read only when actually needed).
#[derive(Debug, Clone, Copy)]
pub(crate) struct HotEntry {
    /// Encoded length; `0` marks an address where decoding fails.
    pub len: u8,
    pub flags: u8,
    /// Native-execution cost class (`teapot-rt::cost`).
    pub cost: u32,
}

/// Sentinel for a compiled load whose STL wrong path has no Shadow-Copy
/// continuation: the bypass cannot be simulated at this site.
pub(crate) const STL_NO_CONT: u64 = u64::MAX;

/// Sentinel for "no dense heuristic site at this slot".
pub(crate) const NO_SITE: u32 = u32::MAX;

/// One template-compiled execution record: a per-opcode-shape template
/// plus fully pre-resolved operands, so the compiled dispatch tier
/// streams uniform records with zero per-pass decode or operand work.
/// A record may *fuse* several table slots (a run of pure cost markers
/// folded in front of the instruction that follows it, or an
/// `asan.check` with the access it guards) — its counters then cover
/// every fused instruction and are charged before the op executes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CompiledOp {
    /// Bytes the record covers (all fused instructions).
    pub len: u8,
    /// Byte offset of the executed op inside the record: the length of
    /// the folded marker run in front of it. The op's pc (and its
    /// `Region::insts` slot) is the record's plus `lead`. A `Skip`
    /// record executes no op and ignores it.
    pub lead: u8,
    /// Instructions the record retires.
    pub insts: u8,
    /// Program-instruction increments the record performs. The
    /// single-copy rule ("every instruction counts") is baked in at
    /// compile time — it is a property of the binary, not of the run.
    pub prog: u8,
    /// Cost charged while inside speculation simulation (full charge).
    pub cost_sim: u32,
    /// Cost charged outside simulation: the single-copy zeroing of
    /// unguarded instrumentation bodies is baked in per component.
    pub cost_norm: u32,
    pub kind: OpKind,
}

/// The dispatch template of a [`CompiledOp`]. Operand payloads are
/// pre-resolved copies out of the decoded instruction; `Other` falls
/// back to the full interpreter match over `Region::insts`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum OpKind {
    /// A run of pure cost markers and NOPs (`F_NOP` entries) that no
    /// following record could take: nothing executes, the record only
    /// advances the counters and PC.
    Skip,
    MovRR {
        dst: Reg,
        src: Reg,
    },
    MovRI {
        dst: Reg,
        imm: i64,
    },
    Load {
        dst: Reg,
        mem: MemRef,
        size: AccessSize,
        sext: bool,
        /// Pre-resolved Shadow-Copy continuation for an STL bypass at
        /// this load ([`STL_NO_CONT`] when the wrong path cannot be
        /// simulated) — the `next_original_after` + shadow-twin lookup
        /// done once at compile time instead of per bypass attempt.
        stl_cont: u64,
        /// Dense heuristic site id of this load (STL gate).
        sid: u32,
    },
    /// Fused `asan.check` + guarded load superinstruction: the shadow
    /// probe and the access execute as one record when the predecoded
    /// table proves they are adjacent.
    LoadChecked {
        chk: MemRef,
        chk_size: AccessSize,
        /// Byte offset of the fused access (= the check's length).
        acc_off: u8,
        dst: Reg,
        mem: MemRef,
        size: AccessSize,
        sext: bool,
        stl_cont: u64,
        sid: u32,
    },
    Store {
        src: Reg,
        mem: MemRef,
        size: AccessSize,
    },
    /// Fused `asan.check` + guarded store superinstruction.
    StoreChecked {
        chk: MemRef,
        chk_size: AccessSize,
        acc_off: u8,
        src: Reg,
        mem: MemRef,
        size: AccessSize,
    },
    StoreI {
        imm: i32,
        mem: MemRef,
        size: AccessSize,
    },
    Lea {
        dst: Reg,
        mem: MemRef,
    },
    Push {
        src: Reg,
    },
    Pop {
        dst: Reg,
    },
    Alu {
        op: AluOp,
        dst: Reg,
        src: Operand,
    },
    Cmp {
        lhs: Reg,
        rhs: Operand,
    },
    Test {
        lhs: Reg,
        rhs: Operand,
    },
    Set {
        cc: Cc,
        dst: Reg,
    },
    Jcc {
        cc: Cc,
        target: u64,
    },
    /// `sim.start` with the trampoline target, the rewritten→original
    /// translation and the dense heuristic site id all pre-resolved.
    SimStart {
        tramp: u64,
        branch_orig: u64,
        sid: u32,
    },
    SimCheck,
    CovTrace {
        guard: u32,
    },
    CovNote {
        guard: u32,
    },
    /// Everything else: execute `Region::insts[offset]` through the
    /// full interpreter match (control flow, syscalls, rare opcodes).
    Other,
}

/// Per-slot compiled-window metadata, read once at compiled-dispatch
/// entry: how many records the fall-through window holds and the
/// conservative sums backing the hoisted fuel/ROB checks.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CRun {
    /// Records in the window (`0`: the compiled tier must not dispatch).
    pub recs: u8,
    /// Instructions the window retires (≤ [`WINDOW_CAP`]).
    pub insts: u8,
    /// Program-instruction increments in the window (single-copy baked
    /// in), for the hoisted ROB check.
    pub prog: u8,
    /// Summed full cost, for the hoisted fuel check (conservative).
    pub cost: u32,
}

/// What the template-compilation pass produced for one binary —
/// surfaced in the decode-cache line and the `meta` telemetry event so
/// `--metrics` streams show compile coverage per binary. Counted over
/// the canonical (linear-walk) instruction stream; separate from
/// [`DecodeStats`], whose layout is frozen into campaign snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompileStats {
    /// Canonical instructions covered by a dispatchable compiled record.
    pub records: usize,
    /// Records folding a run of two or more pure cost markers.
    pub fused_skips: usize,
    /// Fused `asan.check`+access superinstruction records.
    pub fused_checks: usize,
    /// Dense heuristic sites (speculation gates) indexed program-wide.
    pub sites: usize,
}

/// A predecoded executable region (one `.text`-kind section),
/// structure-of-arrays: one slot per byte offset in
/// `[start, start + hot.len())`.
pub(crate) struct Region {
    pub(crate) start: u64,
    /// Hot dispatch record per slot (length / flags / cost).
    pub(crate) hot: Vec<HotEntry>,
    /// Decoded instruction per slot (read only when executed).
    pub(crate) insts: Vec<Inst<u64>>,
    /// Template-compiled record per slot (the compiled dispatch tier).
    pub(crate) ops: Vec<CompiledOp>,
    /// Compiled-window metadata per slot (read once per window entry).
    pub(crate) cruns: Vec<CRun>,
    /// Dense heuristic site id per slot ([`NO_SITE`] when the slot is
    /// not a speculation gate): replaces the per-decision `pc → index`
    /// hash probe in the persistent heuristics with an array read.
    pub(crate) site_id: Vec<u32>,
    /// Precomputed `TeapotMeta::to_original(va).unwrap_or(va)` per byte
    /// offset (empty for uninstrumented binaries): turns the
    /// rewritten→original translation on every `sim.start`, gadget
    /// report and model gate from a binary search into an array read.
    orig: Vec<u64>,
}

/// What one decode pass covered — reported by the campaign tooling so
/// the "decode once vs. once per run" saving is visible.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeStats {
    /// Basic blocks recovered by the linear walk.
    pub blocks: usize,
    /// Instructions in the canonical (linear-walk) stream.
    pub insts: usize,
    /// Executable bytes predecoded (table slots).
    pub bytes: usize,
    /// Bytes the linear walk could not decode (data islands).
    pub undecoded_bytes: usize,
}

/// An immutable, binary-wide predecoded program: shared decode tables,
/// per-instruction metadata and the pristine memory image.
pub struct Program {
    /// Process-unique identity, so a pooled [`ExecContext`] can detect
    /// (and recover from) being handed a different program than the one
    /// its pristine image came from.
    ///
    /// [`ExecContext`]: crate::ExecContext
    pub(crate) uid: u64,
    /// Entry-point address.
    pub entry: u64,
    /// Feature flags of the underlying binary.
    pub flags: BinFlags,
    meta: Option<TeapotMeta>,
    regions: Arc<Vec<Region>>,
    pristine: PagedMem,
    stats: DecodeStats,
    compile_stats: CompileStats,
    /// Total dense heuristic sites across all regions (the size of the
    /// per-program binding table in `SpecHeuristics`).
    n_sites: u32,
    /// `(start, end)` basic-block spans from the linear walk, sorted.
    block_spans: Vec<(u64, u64)>,
    /// Original coordinate → Shadow-Copy twin (smallest shadow address
    /// of the copied instruction), for the RSB/STL speculation models:
    /// a VM-driven wrong path entering from the Real Copy must continue
    /// in the Shadow Copy or the §5.3 safety net squashes it. Empty for
    /// uninstrumented binaries.
    shadow_twins: teapot_rt::FxHashMap<u64, u64>,
}

impl std::fmt::Debug for Program {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Program")
            .field("entry", &self.entry)
            .field("regions", &self.regions.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl Program {
    /// Decodes `binary` once: builds the pristine memory image, the
    /// per-byte instruction tables for every executable section and the
    /// basic-block statistics.
    ///
    /// # Panics
    ///
    /// Panics if an instrumented binary carries a malformed
    /// `.teapot.meta` section (a rewriter bug, not a runtime input) —
    /// the same contract the per-run loader had.
    pub fn new(binary: &Binary) -> Program {
        // The initial address space: loadable sections (bytes poked
        // over zero-filled pages), then the stack as a zero-on-write
        // range — it reads as the zero-filled stack the per-run loader
        // mapped, but a page costs memory only once a run writes it.
        let mut mem = PagedMem::new();
        for sec in &binary.sections {
            if !sec.kind.is_loadable() {
                continue;
            }
            mem.map_region(sec.vaddr, sec.mem_size.max(1), sec.kind.is_writable());
            mem.poke_n(sec.vaddr, &sec.bytes);
        }
        mem.map_lazy(STACK_TOP - STACK_LIMIT, STACK_LIMIT);
        mem.seal_pristine();

        let meta = binary
            .note(".teapot.meta")
            .map(|n| TeapotMeta::from_bytes(&n.bytes).expect("malformed .teapot.meta section"));

        // The Original→Shadow twin table is built before the region
        // loop: the compile pass bakes per-load STL continuations from
        // it (the shadow twin of the next copied instruction).
        let mut shadow_twins = teapot_rt::FxHashMap::default();
        if let Some(m) = &meta {
            for &(rew, orig) in &m.addr_map {
                if m.in_shadow(rew) {
                    let e = shadow_twins.entry(orig).or_insert(rew);
                    *e = (*e).min(rew);
                }
            }
        }

        let mut stats = DecodeStats::default();
        let mut compile_stats = CompileStats::default();
        let mut n_sites: u32 = 0;
        let mut regions = Vec::new();
        let mut block_spans = Vec::new();
        for sec in &binary.sections {
            if !sec.kind.is_executable() {
                continue;
            }
            let start = sec.vaddr;
            let span = sec.mem_size.max(1) as usize;

            // Canonical instruction stream + block structure. The walk's
            // decodes are reused directly as table entries below — an
            // instruction the walk recovered saw exactly the bytes the
            // live decoder would (a decode that would straddle the
            // section end comes back truncated and is not reused).
            let image = mem.read_for_decode(start, span);
            let walk = walk_blocks(&image, start);
            stats.blocks += walk.blocks.len();
            stats.insts += walk.insts.len();
            stats.bytes += span;
            stats.undecoded_bytes += walk.undecoded_bytes;
            block_spans.extend(walk.blocks.iter().map(|b| (b.start, b.end)));

            // Exhaustive per-byte table: start from the walk's canonical
            // stream, then decode the remaining offsets (mid-instruction
            // addresses, data islands) against the pristine image, so
            // even wild speculative control flow hits the table with the
            // live decoder's answer.
            //
            // Trust boundary: an entry is only frozen into the table if
            // every byte its decode consumed — or, for a failed decode,
            // every byte its verdict may depend on — lies inside this
            // section, whose pages are immutable at run time. Entries in
            // the section's last few bytes may read into an adjacent
            // *writable* page; those are marked `F_LIVE` and the VM
            // decodes them from current guest memory instead (the seed
            // semantics for mutable bytes).
            let bad = |va: u64| Entry {
                inst: Inst::Nop,
                len: 0,
                flags: addr_flags(meta.as_ref(), va),
                cost: 0,
            };
            let mut entries: Vec<Entry> = (0..span).map(|off| bad(start + off as u64)).collect();
            let mut decoded = vec![false; span];
            for wi in &walk.insts {
                let off = (wi.va - start) as usize;
                entries[off] = Entry {
                    flags: entry_flags(&wi.inst, meta.as_ref(), wi.va),
                    cost: inst_cost(&wi.inst) as u32,
                    inst: wi.inst,
                    len: wi.len,
                };
                decoded[off] = true;
            }
            for off in 0..span {
                if decoded[off] {
                    continue;
                }
                let va = start + off as u64;
                let bytes = mem.read_for_decode(va, INST_MAX_LEN);
                match decode_at(&bytes, va) {
                    Ok((inst, len)) if off + len <= span => {
                        entries[off] = Entry {
                            flags: entry_flags(&inst, meta.as_ref(), va),
                            cost: inst_cost(&inst) as u32,
                            inst,
                            len: len as u8,
                        };
                    }
                    Ok(_) => entries[off].flags |= F_LIVE,
                    Err(_) if off + INST_MAX_LEN > span => entries[off].flags |= F_LIVE,
                    Err(_) => {}
                }
            }
            let site_id = assign_sites(&entries, &mut n_sites);
            let (ops, cruns) = compile_region(
                &entries,
                start,
                binary.flags.single_copy,
                meta.as_ref(),
                &shadow_twins,
                &site_id,
                &decoded,
                &mut compile_stats,
            );
            let orig = match &meta {
                Some(m) => (0..span)
                    .map(|off| {
                        let va = start + off as u64;
                        m.to_original(va).unwrap_or(va)
                    })
                    .collect(),
                None => Vec::new(),
            };
            regions.push(Region {
                start,
                hot: entries
                    .iter()
                    .map(|e| HotEntry {
                        len: e.len,
                        flags: e.flags,
                        cost: e.cost,
                    })
                    .collect(),
                insts: entries.iter().map(|e| e.inst).collect(),
                ops,
                cruns,
                site_id,
                orig,
            });
        }
        regions.sort_by_key(|r| r.start);
        block_spans.sort_unstable();
        compile_stats.sites = n_sites as usize;

        static NEXT_UID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let regions = Arc::new(regions);
        Program {
            uid: NEXT_UID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            entry: binary.entry,
            flags: binary.flags,
            meta,
            regions,
            pristine: mem,
            stats,
            compile_stats,
            n_sites,
            block_spans,
            shadow_twins,
        }
    }

    /// Shadow-Copy twin of an original-coordinate instruction, if the
    /// binary is instrumented and the instruction was copied.
    pub fn shadow_twin(&self, orig: u64) -> Option<u64> {
        self.shadow_twins.get(&orig).copied()
    }

    /// Convenience: decode once and wrap for sharing across shards and
    /// worker threads.
    pub fn shared(binary: &Binary) -> Arc<Program> {
        Arc::new(Program::new(binary))
    }

    /// Parsed `.teapot.meta`, if the binary is instrumented.
    pub fn meta(&self) -> Option<&TeapotMeta> {
        self.meta.as_ref()
    }

    /// What the decode pass covered.
    pub fn stats(&self) -> &DecodeStats {
        &self.stats
    }

    /// What the template-compilation pass produced.
    pub fn compile_stats(&self) -> &CompileStats {
        &self.compile_stats
    }

    /// Number of dense heuristic sites (speculation gates) in the
    /// program — the size of the per-program heuristics binding table.
    #[inline]
    pub(crate) fn site_count(&self) -> u32 {
        self.n_sites
    }

    /// Dense heuristic site id of the gate instruction at `pc`, when
    /// `pc` lies in a predecoded region and the slot is a gate.
    #[inline]
    pub(crate) fn site_id_of(&self, pc: u64) -> Option<u32> {
        for r in self.regions.iter() {
            if pc >= r.start {
                let off = (pc - r.start) as usize;
                if off < r.site_id.len() {
                    let id = r.site_id[off];
                    return (id != NO_SITE).then_some(id);
                }
            }
        }
        None
    }

    /// `(start, end)` address spans of the basic blocks the linear walk
    /// recovered, sorted by start address.
    pub fn blocks(&self) -> &[(u64, u64)] {
        &self.block_spans
    }

    /// The pristine initial memory image (sections + the lazy stack).
    pub(crate) fn pristine(&self) -> &PagedMem {
        &self.pristine
    }

    /// Predecoded slot at `pc` (instruction + hot record), or `None`
    /// when `pc` is outside every executable section (the VM then falls
    /// back to live decoding, the seed behavior for such addresses).
    #[inline]
    pub(crate) fn fetch(&self, pc: u64) -> Option<(Inst<u64>, HotEntry)> {
        for r in self.regions.iter() {
            if pc >= r.start {
                let off = (pc - r.start) as usize;
                if off < r.hot.len() {
                    return Some((r.insts[off], r.hot[off]));
                }
            }
        }
        None
    }

    /// The shared region tables. The dispatch loop clones this `Arc`
    /// once per run and borrows entries from the clone, so the
    /// per-instruction fetch is a plain slice index with no borrow of
    /// the machine.
    #[inline]
    pub(crate) fn regions_arc(&self) -> Arc<Vec<Region>> {
        Arc::clone(&self.regions)
    }

    /// Precomputed original-binary coordinate of `pc`
    /// (`meta.to_original(pc).unwrap_or(pc)`), when `pc` lies in a
    /// predecoded region of an instrumented binary.
    #[inline]
    pub(crate) fn orig_of(&self, pc: u64) -> Option<u64> {
        for r in self.regions.iter() {
            if pc >= r.start {
                let off = (pc - r.start) as usize;
                if off < r.orig.len() {
                    return Some(r.orig[off]);
                }
            }
        }
        None
    }

    /// Shorthand for [`Region`] membership of `pc`.
    #[inline]
    pub(crate) fn region_of(regions: &[Region], pc: u64) -> Option<(&Region, usize)> {
        regions
            .iter()
            .find(|r| pc >= r.start && ((pc - r.start) as usize) < r.hot.len())
            .map(|r| (r, (pc - r.start) as usize))
    }
}

/// Most instructions one compiled window retires; bounds the hoisted
/// fuel/ROB checks (they must cover the whole window conservatively)
/// and keeps [`CRun::insts`]/[`CRun::prog`] in a byte.
const WINDOW_CAP: u8 = 64;

/// Cap on the pure cost markers one record folds: keeps the record's
/// byte length well inside a `u8` (16 × `INST_MAX_LEN` = 192, plus at
/// most a fused check + access) and its instruction count a small
/// share of a compiled window.
const MARKER_FOLD_CAP: u8 = 16;

/// Assigns dense heuristic site ids: one per decoded, non-`F_LIVE`
/// speculation-gate instruction (`sim.start` → PHT, `ret` → RSB, loads
/// → STL, conditional branches → SpecTaint-emulation PHT). Ids are
/// sequential across regions in address order; the key a gate consults
/// the heuristics under is a pure function of the slot's address and
/// frozen opcode, so one id always stands for one site key.
fn assign_sites(entries: &[Entry], next: &mut u32) -> Vec<u32> {
    entries
        .iter()
        .map(|e| {
            if e.len == 0 || e.flags & F_LIVE != 0 {
                return NO_SITE;
            }
            match e.inst {
                Inst::SimStart { .. } | Inst::Ret | Inst::Load { .. } | Inst::Jcc { .. } => {
                    let id = *next;
                    *next += 1;
                    id
                }
                _ => NO_SITE,
            }
        })
        .collect()
}

/// Per-record accounting: program-instruction increment and the
/// normal-mode cost with the single-copy zeroing rule baked in (the
/// in-simulation cost is always the full charge).
#[inline]
fn op_accounting(e: &Entry, single_copy: bool) -> (u8, u32) {
    let is_instr = e.flags & F_INSTR != 0;
    let prog = u8::from(single_copy || !is_instr);
    let cost_norm = if single_copy && is_instr && e.flags & F_ALWAYS_CHARGE == 0 {
        0
    } else {
        e.cost
    };
    (prog, cost_norm)
}

/// Pre-resolved Shadow-Copy continuation of an STL bypass at the load
/// at `acc_pc` (fall-through continuation `cont`): exactly the lookup
/// `Machine::try_stl_bypass` performs per attempt, hoisted to compile
/// time. [`STL_NO_CONT`] marks a load whose wrong path cannot be
/// simulated.
fn stl_cont_of(
    meta: Option<&TeapotMeta>,
    single_copy: bool,
    shadow_twins: &teapot_rt::FxHashMap<u64, u64>,
    acc_pc: u64,
    cont: u64,
) -> u64 {
    match meta {
        Some(m) if !single_copy && m.in_real(cont) => m
            .next_original_after(acc_pc)
            .and_then(|o| shadow_twins.get(&o).copied())
            .unwrap_or(STL_NO_CONT),
        _ => cont,
    }
}

/// The template-compilation pass: builds one [`CompiledOp`] record per
/// decodable, non-`F_LIVE` slot (folding `F_NOP` marker runs into the
/// record that follows them and fusing `asan.check`+access pairs when
/// the table proves adjacency), then a
/// reverse-DP over *records* producing the per-slot [`CRun`] windows
/// whose sums back the hoisted fuel/safety-net/ROB checks — so
/// executing a window record-by-record covers exactly the instructions
/// the hoisted checks were computed against. Fusion never crosses an
/// `F_IN_REAL` boundary (one hoisted escape check covers a window) and
/// every slot keeps its own record, so control flow entering *between*
/// the halves of a fused pair (an STL squash resuming at the guarded
/// load) dispatches the plain record at that slot.
#[allow(clippy::too_many_arguments)]
fn compile_region(
    entries: &[Entry],
    start: u64,
    single_copy: bool,
    meta: Option<&TeapotMeta>,
    shadow_twins: &teapot_rt::FxHashMap<u64, u64>,
    site_id: &[u32],
    canonical: &[bool],
    stats: &mut CompileStats,
) -> (Vec<CompiledOp>, Vec<CRun>) {
    let n = entries.len();
    let nil = CompiledOp {
        len: 0,
        lead: 0,
        insts: 0,
        prog: 0,
        cost_sim: 0,
        cost_norm: 0,
        kind: OpKind::Other,
    };
    let mut ops = vec![nil; n];
    let mut cruns = vec![CRun::default(); n];
    // Pure cost markers folded into each slot's record.
    let mut markers = vec![0u8; n];
    for off in (0..n).rev() {
        let e = &entries[off];
        if e.len == 0 || e.flags & F_LIVE != 0 {
            continue; // recs stays 0: the compiled tier must not dispatch
        }
        let pc = start + off as u64;
        let next_off = off + e.len as usize;
        let (own_prog, own_norm) = op_accounting(e, single_copy);
        let mut op = CompiledOp {
            len: e.len,
            lead: 0,
            insts: 1,
            prog: own_prog,
            cost_sim: e.cost,
            cost_norm: own_norm,
            kind: compile_kind(e, pc, single_copy, meta, shadow_twins, site_id[off]),
        };
        if e.flags & F_NOP != 0 {
            // Fold the marker into the record of the next slot (which
            // holds the rest of the run and the instruction after it).
            markers[off] = 1;
            if let Some(ne) = entries.get(next_off) {
                let nop = ops[next_off];
                if nop.len != 0
                    && markers[next_off] < MARKER_FOLD_CAP
                    && (ne.flags ^ e.flags) & F_IN_REAL == 0
                {
                    op.kind = nop.kind;
                    op.lead = e.len + nop.lead;
                    op.len += nop.len;
                    op.insts += nop.insts;
                    op.prog += nop.prog;
                    op.cost_sim += nop.cost_sim;
                    op.cost_norm += nop.cost_norm;
                    markers[off] += markers[next_off];
                }
            }
        } else if let Inst::AsanCheck {
            mem: chk,
            size: chk_size,
            is_write: _,
        } = e.inst
        {
            // Fuse the check with the access it guards when the next
            // table slot is that access (decodable, immutable, same
            // Real-Copy membership).
            if let Some(ne) = entries.get(next_off) {
                if ne.len != 0 && ne.flags & F_LIVE == 0 && (ne.flags ^ e.flags) & F_IN_REAL == 0 {
                    let acc_pc = pc + e.len as u64;
                    let (acc_prog, acc_norm) = op_accounting(ne, single_copy);
                    let fused = match ne.inst {
                        Inst::Load {
                            dst,
                            mem,
                            size,
                            sext,
                        } => Some(OpKind::LoadChecked {
                            chk,
                            chk_size,
                            acc_off: e.len,
                            dst,
                            mem,
                            size,
                            sext,
                            stl_cont: stl_cont_of(
                                meta,
                                single_copy,
                                shadow_twins,
                                acc_pc,
                                acc_pc + ne.len as u64,
                            ),
                            sid: site_id[next_off],
                        }),
                        Inst::Store { src, mem, size } => Some(OpKind::StoreChecked {
                            chk,
                            chk_size,
                            acc_off: e.len,
                            src,
                            mem,
                            size,
                        }),
                        _ => None,
                    };
                    if let Some(kind) = fused {
                        op.kind = kind;
                        op.len += ne.len;
                        op.insts = 2;
                        op.prog += acc_prog;
                        op.cost_sim += ne.cost;
                        op.cost_norm += acc_norm;
                    }
                }
            }
        }
        if canonical[off] {
            stats.records += 1;
            if markers[off] >= 2 {
                stats.fused_skips += 1;
            }
            if markers[off] == 0
                && matches!(
                    op.kind,
                    OpKind::LoadChecked { .. } | OpKind::StoreChecked { .. }
                )
            {
                stats.fused_checks += 1;
            }
        }
        // Window DP over records: extend while the next slot's window
        // exists, the combined instruction count stays within the window
        // cap and Real-Copy membership is homogeneous.
        let rec_end = off + op.len as usize;
        let cr = match (entries.get(rec_end), cruns.get(rec_end)) {
            (Some(ne), Some(nc))
                if nc.recs >= 1
                    && op.insts as u32 + nc.insts as u32 <= WINDOW_CAP as u32
                    && (ne.flags ^ e.flags) & F_IN_REAL == 0 =>
            {
                CRun {
                    recs: 1 + nc.recs,
                    insts: op.insts + nc.insts,
                    prog: op.prog + nc.prog,
                    cost: op.cost_sim + nc.cost,
                }
            }
            _ => CRun {
                recs: 1,
                insts: op.insts,
                prog: op.prog,
                cost: op.cost_sim,
            },
        };
        ops[off] = op;
        cruns[off] = cr;
    }
    (ops, cruns)
}

/// The pre-resolved dispatch template for one (unfused) instruction.
fn compile_kind(
    e: &Entry,
    pc: u64,
    single_copy: bool,
    meta: Option<&TeapotMeta>,
    shadow_twins: &teapot_rt::FxHashMap<u64, u64>,
    sid: u32,
) -> OpKind {
    if e.flags & F_NOP != 0 {
        return OpKind::Skip;
    }
    match e.inst {
        Inst::MovRR { dst, src } => OpKind::MovRR { dst, src },
        Inst::MovRI { dst, imm } => OpKind::MovRI { dst, imm },
        Inst::Load {
            dst,
            mem,
            size,
            sext,
        } => OpKind::Load {
            dst,
            mem,
            size,
            sext,
            stl_cont: stl_cont_of(meta, single_copy, shadow_twins, pc, pc + e.len as u64),
            sid,
        },
        Inst::Store { src, mem, size } => OpKind::Store { src, mem, size },
        Inst::StoreI { imm, mem, size } => OpKind::StoreI { imm, mem, size },
        Inst::Lea { dst, mem } => OpKind::Lea { dst, mem },
        Inst::Push { src } => OpKind::Push { src },
        Inst::Pop { dst } => OpKind::Pop { dst },
        Inst::Alu { op, dst, src } => OpKind::Alu { op, dst, src },
        Inst::Cmp { lhs, rhs } => OpKind::Cmp { lhs, rhs },
        Inst::Test { lhs, rhs } => OpKind::Test { lhs, rhs },
        Inst::Set { cc, dst } => OpKind::Set { cc, dst },
        Inst::Jcc { cc, target } => OpKind::Jcc { cc, target },
        Inst::SimStart { tramp } => OpKind::SimStart {
            tramp,
            branch_orig: meta.and_then(|m| m.to_original(pc)).unwrap_or(pc),
            sid,
        },
        Inst::SimCheck => OpKind::SimCheck,
        Inst::CovTrace { guard } => OpKind::CovTrace { guard },
        Inst::CovNote { guard } => OpKind::CovNote { guard },
        _ => OpKind::Other,
    }
}

/// Address-derived flags, valid whether or not the address decodes:
/// the Real-Copy safety net must fire for undecodable Real-Copy
/// addresses too (counted as an escape, not an invalid-instruction
/// fault — exactly the seed's check order).
fn addr_flags(meta: Option<&TeapotMeta>, va: u64) -> u8 {
    if meta.is_some_and(|m| m.in_real(va)) {
        F_IN_REAL
    } else {
        0
    }
}

fn entry_flags(inst: &Inst<u64>, meta: Option<&TeapotMeta>, va: u64) -> u8 {
    let (is_instr, always_charge, _) = inst_meta(inst);
    let mut f = addr_flags(meta, va);
    if is_instr {
        f |= F_INSTR;
    }
    if always_charge {
        f |= F_ALWAYS_CHARGE;
    }
    if matches!(
        inst,
        Inst::Nop
            | Inst::MarkerNop
            | Inst::TagProp
            | Inst::TagBlockProp { .. }
            | Inst::MemLog { .. }
            | Inst::Guard
    ) {
        f |= F_NOP;
    }
    f
}

/// The per-instruction execution metadata `(is_instrumentation,
/// always_charge, cost)` — the single definition behind both the frozen
/// table entries and the VM's live-decode path, so the two can never
/// diverge on cost accounting.
pub(crate) fn inst_meta(inst: &Inst<u64>) -> (bool, bool, u64) {
    let always_charge = matches!(
        inst,
        Inst::Guard | Inst::SimStart { .. } | Inst::CovTrace { .. }
    );
    (inst.is_instrumentation(), always_charge, inst_cost(inst))
}

/// Cost of one instruction under native execution (see `teapot-rt::cost`).
pub(crate) fn inst_cost(inst: &Inst<u64>) -> u64 {
    match inst {
        Inst::SimStart { .. } => cost::SIM_START,
        Inst::SimCheck => cost::SIM_CHECK,
        Inst::SimEnd => cost::SIM_END,
        Inst::AsanCheck { .. } => cost::ASAN_CHECK,
        Inst::MemLog { .. } => cost::MEMLOG,
        Inst::TagProp => cost::TAG_PROP,
        Inst::TagBlockProp { n } => cost::tag_block_prop(*n),
        Inst::IndCheck { .. } => cost::IND_CHECK,
        Inst::CovTrace { .. } => cost::COV_TRACE,
        Inst::CovNote { .. } => cost::COV_NOTE,
        Inst::Guard => cost::GUARD,
        _ => cost::PLAIN_INST,
    }
}

#[cfg(test)]
mod layout_tests {
    use super::*;

    /// The compiled tier streams one `CompiledOp` per record; keeping
    /// the record within a cache line is part of the design. This pins
    /// the layout so a new operand payload can't silently bloat it.
    #[test]
    fn compiled_op_stays_within_a_cache_line() {
        let sz = std::mem::size_of::<CompiledOp>();
        eprintln!(
            "CompiledOp = {sz} bytes, OpKind = {} bytes, CRun = {} bytes",
            std::mem::size_of::<OpKind>(),
            std::mem::size_of::<CRun>()
        );
        assert!(sz <= 64, "CompiledOp grew to {sz} bytes");
    }
}
