//! Binary-wide predecoded programs.
//!
//! The seed interpreter paid fetch + decode through a per-run
//! `HashMap<u64, (Inst, u8)>` instruction cache that was rebuilt for
//! every `Machine` — once per fuzz input. A [`Program`] hoists that work
//! to **once per binary**: every executable section is decoded up front
//! by `teapot-isa`'s linear block walk, each walked instruction carries
//! its precomputed metadata (length, instrumentation class, cost class,
//! Real-Copy membership, template-compiled record), and the whole
//! structure is immutable — wrap it in an [`Arc`] and every campaign
//! shard and worker thread shares one decode pass.
//!
//! The tables hold **one entry per walked instruction**: a per-byte
//! index maps the offset an instruction starts at to its dense entry
//! and every other offset (mid-instruction bytes, data islands) to
//! [`NO_IDX`]. Control flow that lands on such an offset — wild
//! speculative jumps, mostly — takes the VM's live decoder, whose
//! answer over the immutable code pages is the one a frozen entry would
//! have held.
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
//! memory log records anything), so the walk's decode at address `pc`
//! is exactly what the seed's lazy per-run decode computed. The
//! `teapot` facade crate carries a differential test that replays the
//! full workload suite through both the predecoded and the uncached
//! path and asserts identical outcomes.

use crate::mem::PagedMem;
use std::sync::Arc;
use teapot_isa::{walk_blocks, AccessSize, AluOp, Cc, Inst, MemRef, Operand, Reg, WalkedInst};
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
/// Entry flag: executing the instruction is a pure no-op beyond the
/// standard counters (cost markers and NOPs). The compiled tier folds
/// a run of them into the record that follows it, so they never cost a
/// dispatch of their own — in a rewritten binary they are a large share
/// of the stream (`tag.prop`/`memlog` ride along with most
/// architectural instructions).
pub(crate) const F_NOP: u8 = 8;

/// Index sentinel: no walked instruction starts at this byte.
const NO_IDX: u32 = u32::MAX;

/// The per-instruction fields every dispatched instruction touches,
/// packed to 8 bytes so per-instruction fetch streams a few entries per
/// cache line (the instruction payload and compiled records live in
/// parallel arrays, read only when actually needed).
#[derive(Debug, Clone, Copy)]
pub(crate) struct HotEntry {
    /// Encoded length.
    pub len: u8,
    pub flags: u8,
    /// Native-execution cost class (`teapot-rt::cost`).
    pub cost: u32,
}

/// Sentinel for a compiled load whose STL wrong path has no Shadow-Copy
/// continuation: the bypass cannot be simulated at this site.
pub(crate) const STL_NO_CONT: u64 = u64::MAX;

/// Sentinel for "no dense heuristic site at this entry".
pub(crate) const NO_SITE: u32 = u32::MAX;

/// One template-compiled execution record: a per-opcode-shape template
/// plus fully pre-resolved operands, so the compiled dispatch tier
/// streams uniform records with zero per-pass decode or operand work.
/// A record may *fuse* several consecutive entries (a run of pure cost
/// markers folded in front of the instruction that follows it, or an
/// `asan.check` with the access it guards) — its counters then cover
/// every fused instruction and are charged before the op executes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CompiledOp {
    /// Bytes the record covers (all fused instructions).
    pub len: u8,
    /// Byte offset of the executed op inside the record: the length of
    /// the folded marker run in front of it. The op's pc is the
    /// record's plus `lead`. A `Skip` record executes no op and ignores
    /// it.
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
    /// Everything else: execute the record's last instruction
    /// (`Region::insts[idx + insts - 1]`) through the full interpreter
    /// match (control flow, syscalls, rare opcodes).
    Other,
}

/// Per-entry compiled-window metadata, read once at compiled-dispatch
/// entry: how many records the fall-through window holds and the
/// conservative sums backing the hoisted fuel/ROB checks.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CRun {
    /// Records in the window (≥ 1).
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
    /// Canonical instructions covered by a compiled record.
    pub records: usize,
    /// Records folding a run of two or more pure cost markers.
    pub fused_skips: usize,
    /// Fused `asan.check`+access superinstruction records.
    pub fused_checks: usize,
    /// Dense heuristic sites (speculation gates) indexed program-wide.
    pub sites: usize,
}

/// A predecoded executable region (one `.text`-kind section):
/// structure-of-arrays tables with one entry per instruction of the
/// linear walk, in address order, behind a per-byte index.
pub(crate) struct Region {
    start: u64,
    /// Per byte offset in `[start, start + idx.len())`: the entry of the
    /// walked instruction starting there, [`NO_IDX`] elsewhere.
    idx: Vec<u32>,
    /// Hot dispatch record per entry (length / flags / cost).
    pub(crate) hot: Vec<HotEntry>,
    /// Decoded instruction per entry (read only when executed).
    pub(crate) insts: Vec<Inst<u64>>,
    /// Template-compiled record per entry (the compiled dispatch tier).
    /// A record covering `k` instructions spans entries `i..i + k`.
    pub(crate) ops: Vec<CompiledOp>,
    /// Compiled-window metadata per entry (read once per window entry).
    pub(crate) cruns: Vec<CRun>,
    /// Dense heuristic site id per entry ([`NO_SITE`] when the entry is
    /// not a speculation gate): replaces the per-decision `pc → index`
    /// hash probe in the persistent heuristics with an array read.
    site_id: Vec<u32>,
    /// Precomputed `TeapotMeta::to_original(va).unwrap_or(va)` per entry
    /// (empty for uninstrumented binaries): turns the rewritten→original
    /// translation on every `sim.start`, gadget report and model gate
    /// from a binary search into an array read.
    orig: Vec<u64>,
}

impl Region {
    /// Entry of the walked instruction starting at `pc`, or `None` when
    /// `pc` is outside the region or starts no walked instruction.
    #[inline]
    pub(crate) fn index(&self, pc: u64) -> Option<usize> {
        let off = usize::try_from(pc.checked_sub(self.start)?).ok()?;
        match self.idx.get(off) {
            Some(&i) if i != NO_IDX => Some(i as usize),
            _ => None,
        }
    }
}

/// What one decode pass covered — reported by the campaign tooling so
/// the "decode once vs. once per run" saving is visible.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeStats {
    /// Basic blocks recovered by the linear walk.
    pub blocks: usize,
    /// Instructions in the canonical (linear-walk) stream.
    pub insts: usize,
    /// Executable bytes the per-byte index covers.
    pub bytes: usize,
    /// Bytes the linear walk could not decode (data islands).
    pub undecoded_bytes: usize,
}

/// Why a binary's `.teapot.meta` note is unusable (see
/// [`Program::check`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetaCheckError {
    /// The binary is flagged instrumented but carries no note.
    Missing,
    /// The note does not parse.
    Malformed,
}

impl std::fmt::Display for MetaCheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetaCheckError::Missing => {
                write!(f, "instrumented binary has no .teapot.meta section")
            }
            MetaCheckError::Malformed => write!(f, "malformed .teapot.meta section"),
        }
    }
}

impl std::error::Error for MetaCheckError {}

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
    /// Checks what [`Program::new`] trusts of a binary's metadata: an
    /// instrumented binary must carry a `.teapot.meta` note, and a note
    /// that is present must parse.
    ///
    /// # Errors
    ///
    /// The [`MetaCheckError`] naming which of the two fails.
    pub fn check(binary: &Binary) -> Result<(), MetaCheckError> {
        match binary.note(".teapot.meta") {
            Some(n) => TeapotMeta::from_bytes(&n.bytes)
                .map(drop)
                .map_err(|_| MetaCheckError::Malformed),
            None if binary.flags.instrumented => Err(MetaCheckError::Missing),
            None => Ok(()),
        }
    }

    /// Decodes `binary` once: builds the pristine memory image, the
    /// per-instruction tables for every executable section and the
    /// basic-block statistics.
    ///
    /// # Panics
    ///
    /// Panics if the binary carries a malformed `.teapot.meta` section;
    /// a binary that is flagged instrumented but has none panics at its
    /// first `ind.check`. Check binaries read from outside with
    /// [`Program::check`] first.
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

            // Canonical instruction stream + block structure. Each walked
            // instruction saw exactly the bytes the live decoder would (a
            // decode that would straddle the section end fails the walk),
            // so it becomes a table entry as is. Every other offset maps
            // to `NO_IDX` and is decoded live if control ever lands there.
            let image = mem.read_for_decode(start, span);
            let walk = walk_blocks(&image, start);
            stats.blocks += walk.blocks.len();
            stats.insts += walk.insts.len();
            stats.bytes += span;
            stats.undecoded_bytes += walk.undecoded_bytes;
            block_spans.extend(walk.blocks.iter().map(|b| (b.start, b.end)));

            let insts = walk.insts;
            let mut idx = vec![NO_IDX; span];
            for (i, wi) in insts.iter().enumerate() {
                idx[(wi.va - start) as usize] = i as u32;
            }
            let hot: Vec<HotEntry> = insts
                .iter()
                .map(|wi| HotEntry {
                    len: wi.len,
                    flags: entry_flags(&wi.inst, meta.as_ref(), wi.va),
                    cost: inst_cost(&wi.inst) as u32,
                })
                .collect();
            let site_id = assign_sites(&insts, &mut n_sites);
            let (ops, cruns) = compile_region(
                &insts,
                &hot,
                binary.flags.single_copy,
                meta.as_ref(),
                &shadow_twins,
                &site_id,
                &mut compile_stats,
            );
            let orig = match &meta {
                Some(m) => insts
                    .iter()
                    .map(|wi| m.to_original(wi.va).unwrap_or(wi.va))
                    .collect(),
                None => Vec::new(),
            };
            regions.push(Region {
                start,
                idx,
                hot,
                insts: insts.iter().map(|wi| wi.inst).collect(),
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

    /// Dense heuristic site id of the gate instruction at `pc`, when a
    /// walked instruction starts at `pc` and it is a gate (other gates
    /// take the heuristics' hash-keyed path).
    #[inline]
    pub(crate) fn site_id_of(&self, pc: u64) -> Option<u32> {
        let (r, i) = Program::region_of(&self.regions, pc)?;
        let id = r.site_id[i];
        (id != NO_SITE).then_some(id)
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

    /// Predecoded entry at `pc` (instruction + hot record), or `None`
    /// when no walked instruction starts at `pc` (the VM then falls back
    /// to live decoding, the seed behavior for such addresses).
    #[inline]
    pub(crate) fn fetch(&self, pc: u64) -> Option<(Inst<u64>, HotEntry)> {
        let (r, i) = Program::region_of(&self.regions, pc)?;
        Some((r.insts[i], r.hot[i]))
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
    /// (`meta.to_original(pc).unwrap_or(pc)`), when a walked instruction
    /// of an instrumented binary starts at `pc`.
    #[inline]
    pub(crate) fn orig_of(&self, pc: u64) -> Option<u64> {
        let (r, i) = Program::region_of(&self.regions, pc)?;
        r.orig.get(i).copied()
    }

    /// The region and entry of the walked instruction starting at `pc`.
    #[inline]
    pub(crate) fn region_of(regions: &[Region], pc: u64) -> Option<(&Region, usize)> {
        regions.iter().find_map(|r| Some((r, r.index(pc)?)))
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

/// Assigns dense heuristic site ids: one per walked speculation-gate
/// instruction (`sim.start` → PHT, `ret` → RSB, loads → STL,
/// conditional branches → SpecTaint-emulation PHT). Ids are sequential
/// across regions in address order; the key a gate consults the
/// heuristics under is a pure function of the instruction's address
/// and frozen opcode, so one id always stands for one site key.
fn assign_sites(insts: &[WalkedInst], next: &mut u32) -> Vec<u32> {
    insts
        .iter()
        .map(|wi| match wi.inst {
            Inst::SimStart { .. } | Inst::Ret | Inst::Load { .. } | Inst::Jcc { .. } => {
                let id = *next;
                *next += 1;
                id
            }
            _ => NO_SITE,
        })
        .collect()
}

/// Per-record accounting: program-instruction increment and the
/// normal-mode cost with the single-copy zeroing rule baked in (the
/// in-simulation cost is always the full charge).
#[inline]
fn op_accounting(h: &HotEntry, single_copy: bool) -> (u8, u32) {
    let is_instr = h.flags & F_INSTR != 0;
    let prog = u8::from(single_copy || !is_instr);
    let cost_norm = if single_copy && is_instr && h.flags & F_ALWAYS_CHARGE == 0 {
        0
    } else {
        h.cost
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

/// Appends record `next`, which starts where `op` ends, to `op`'s
/// counters.
fn absorb(op: &mut CompiledOp, next: &CompiledOp) {
    op.len += next.len;
    op.insts += next.insts;
    op.prog += next.prog;
    op.cost_sim += next.cost_sim;
    op.cost_norm += next.cost_norm;
}

/// The template-compilation pass: builds one [`CompiledOp`] record per
/// walked instruction (folding `F_NOP` marker runs into the record that
/// follows them and fusing each `asan.check` with the load or store
/// record after it), then a reverse-DP over *records* producing the
/// per-entry [`CRun`] windows whose sums back the hoisted
/// fuel/safety-net/ROB checks — so executing a window record-by-record
/// covers exactly the instructions the hoisted checks were computed
/// against. A record folds, fuses or chains only into the entry that
/// starts exactly at its end byte (a gap in the walk, such as a data
/// island, ends it) and never across an `F_IN_REAL` boundary (one
/// hoisted escape check covers a window). Every entry keeps its own
/// record, so control flow entering *between* the halves of a fused
/// pair (an STL squash resuming at the guarded load) dispatches the
/// plain record there.
fn compile_region(
    insts: &[WalkedInst],
    hot: &[HotEntry],
    single_copy: bool,
    meta: Option<&TeapotMeta>,
    shadow_twins: &teapot_rt::FxHashMap<u64, u64>,
    site_id: &[u32],
    stats: &mut CompileStats,
) -> (Vec<CompiledOp>, Vec<CRun>) {
    let n = insts.len();
    // Entry `j` starts at byte `end` with entry `i`'s Real-Copy
    // membership: the only entry `i`'s record may continue into.
    let joins = |i: usize, j: usize, end: u64| {
        j < n && insts[j].va == end && (hot[j].flags ^ hot[i].flags) & F_IN_REAL == 0
    };
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
    // Pure cost markers folded into each entry's record (a fused
    // check's included), bounded by `MARKER_FOLD_CAP`.
    let mut markers = vec![0u8; n];
    for i in (0..n).rev() {
        let (wi, h) = (&insts[i], &hot[i]);
        let (own_prog, own_norm) = op_accounting(h, single_copy);
        let mut op = CompiledOp {
            len: wi.len,
            lead: 0,
            insts: 1,
            prog: own_prog,
            cost_sim: h.cost,
            cost_norm: own_norm,
            kind: compile_kind(wi, h, single_copy, meta, shadow_twins, site_id[i]),
        };
        let adjacent = joins(i, i + 1, wi.va + wi.len as u64);
        // Whether the record folds a run of two or more markers.
        let mut folds_run = false;
        if h.flags & F_NOP != 0 {
            // Fold the marker into the next entry's record (which holds
            // the rest of the run and the instruction after it).
            markers[i] = 1;
            if adjacent && markers[i + 1] < MARKER_FOLD_CAP {
                let next = ops[i + 1];
                absorb(&mut op, &next);
                op.kind = next.kind;
                op.lead = wi.len + next.lead;
                markers[i] += markers[i + 1];
                folds_run = hot[i + 1].flags & F_NOP != 0;
            }
        } else if let Inst::AsanCheck {
            mem: chk,
            size: chk_size,
            is_write: _,
        } = wi.inst
        {
            // Fuse the check with the access it guards when the next
            // record is that access, marker run in front included.
            if adjacent {
                let next = ops[i + 1];
                let acc_off = wi.len + next.lead;
                let fused = match next.kind {
                    OpKind::Load {
                        dst,
                        mem,
                        size,
                        sext,
                        stl_cont,
                        sid,
                    } => Some(OpKind::LoadChecked {
                        chk,
                        chk_size,
                        acc_off,
                        dst,
                        mem,
                        size,
                        sext,
                        stl_cont,
                        sid,
                    }),
                    OpKind::Store { src, mem, size } => Some(OpKind::StoreChecked {
                        chk,
                        chk_size,
                        acc_off,
                        src,
                        mem,
                        size,
                    }),
                    _ => None,
                };
                if let Some(kind) = fused {
                    absorb(&mut op, &next);
                    op.kind = kind;
                    // The inner run counts against the cap of any run
                    // folded in front, which keeps the record's length
                    // in a byte.
                    markers[i] = markers[i + 1];
                }
            }
        }
        stats.records += 1;
        if folds_run {
            stats.fused_skips += 1;
        }
        if h.flags & F_NOP == 0
            && matches!(
                op.kind,
                OpKind::LoadChecked { .. } | OpKind::StoreChecked { .. }
            )
        {
            stats.fused_checks += 1;
        }
        // Window DP over records: extend while the entry after this
        // record starts exactly at its end, the combined instruction
        // count stays within the window cap and Real-Copy membership is
        // homogeneous.
        let j = i + op.insts as usize;
        cruns[i] = match cruns.get(j) {
            Some(nc)
                if joins(i, j, wi.va + op.len as u64)
                    && op.insts as u32 + nc.insts as u32 <= WINDOW_CAP as u32 =>
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
        ops[i] = op;
    }
    (ops, cruns)
}

/// The pre-resolved dispatch template for one (unfused) instruction.
fn compile_kind(
    wi: &WalkedInst,
    h: &HotEntry,
    single_copy: bool,
    meta: Option<&TeapotMeta>,
    shadow_twins: &teapot_rt::FxHashMap<u64, u64>,
    sid: u32,
) -> OpKind {
    if h.flags & F_NOP != 0 {
        return OpKind::Skip;
    }
    let pc = wi.va;
    match wi.inst {
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
            stl_cont: stl_cont_of(meta, single_copy, shadow_twins, pc, pc + wi.len as u64),
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

fn entry_flags(inst: &Inst<u64>, meta: Option<&TeapotMeta>, va: u64) -> u8 {
    let (is_instr, always_charge, _) = inst_meta(inst);
    let mut f = 0;
    if meta.is_some_and(|m| m.in_real(va)) {
        f |= F_IN_REAL;
    }
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

    /// The tables hold one entry per walked instruction, the index one
    /// per executable byte, and every `asan.check` ahead of a store
    /// fuses with it (marker run in between included).
    #[test]
    fn tables_hold_one_entry_per_walked_instruction() {
        let mut cots = teapot_workloads::yaml_like()
            .build(&teapot_cc::Options::gcc_like())
            .unwrap();
        cots.strip();
        let bin = teapot_core::rewrite(&cots, &teapot_core::RewriteOptions::default()).unwrap();
        let prog = Program::new(&bin);
        let (mut insts, mut bytes, mut store_checked) = (0, 0, 0);
        for r in prog.regions.iter() {
            let n = r.insts.len();
            for len in [
                r.hot.len(),
                r.ops.len(),
                r.cruns.len(),
                r.site_id.len(),
                r.orig.len(),
            ] {
                assert_eq!(len, n);
            }
            let walked: Vec<u32> = r.idx.iter().copied().filter(|&i| i != NO_IDX).collect();
            assert_eq!(walked, (0..n as u32).collect::<Vec<_>>());
            store_checked += r
                .ops
                .iter()
                .filter(|op| matches!(op.kind, OpKind::StoreChecked { .. }))
                .count();
            insts += n;
            bytes += r.idx.len();
        }
        assert_eq!(insts, prog.stats().insts);
        assert_eq!(bytes, prog.stats().bytes);
        assert!(insts < bytes / 2, "{insts} entries for {bytes} bytes");
        assert!(store_checked > 0, "no asan.check fused with its store");
    }
}
