//! The TEA-64 virtual machine: interpreter, speculation-simulation
//! runtime (checkpoint / memory log / rollback), detection policies, and
//! deterministic cost accounting.
//!
//! One [`Machine`] executes one program run. Fetch + decode dispatches
//! over a binary-wide predecoded [`Program`] (built once per binary and
//! shareable across threads via `Arc`), and the heavy per-run resources
//! — the paged address space, checkpoint stack, memory log, coverage
//! maps — live in a reusable [`ExecContext`] that a fuzzing loop resets
//! between iterations instead of reallocating:
//!
//! ```text
//! Binary ──decode once──► Program (Arc, immutable)
//!                            │
//!            ┌───────────────┴─────────────┐
//!            ▼                             ▼
//!      ExecContext (pooled)   ...one per shard/worker...
//!            │ reset per run
//!            ▼
//!        Machine (per-run guest state) ──► RunOutcome / RunStats
//! ```
//!
//! The one-shot [`Machine::new`] + [`Machine::run`] path builds a
//! private program and context per call (the seed crate's API); hot
//! loops use [`Program::shared`] + [`Machine::with_context`].

use crate::asan::AsanEngine;
use crate::cpu::{alu, cmp_flags, test_flags, Cpu, Flags};
use crate::heuristics::SpecHeuristics;
use crate::mem::{MemFault, PagedMem};
use crate::program::{
    OpKind, Program, Region, F_ALWAYS_CHARGE, F_INSTR, F_IN_REAL, F_LIVE, NO_SITE, STL_NO_CONT,
};
use crate::taint::{OriginEngine, TaintEngine};
use std::sync::Arc;
use teapot_isa::{
    decode_at, sys, AccessSize, AluOp, IndKind, Inst, MemRef, Operand, Reg, INST_MAX_LEN,
};
use teapot_obj::Binary;
use teapot_rt::layout::STACK_TOP;
use teapot_rt::{
    cost, Channel, Controllability, CovMap, DetectorConfig, FxHashSet, GadgetKey, GadgetReport,
    OriginSpan, SpecModel, SpecModelSet, Tag, TraceEvent, MAX_TRACE_EVENTS,
};
use teapot_specmodel::{RSB_DEPTH, STL_WINDOW};
use teapot_telemetry::{BlockProfile, VmCounters};

/// Execution style of the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EmuStyle {
    /// Run the binary natively: speculation simulation is driven by the
    /// instrumentation the rewriter inserted (Teapot, SpecFuzz-style).
    #[default]
    Native,
    /// SpecTaint-style full-system emulation of an *uninstrumented*
    /// binary: the emulator itself forces a misprediction at every
    /// conditional branch (DFS, five entries per branch), tracks taint,
    /// and pays [`cost::EMU_PER_INST`] per guest instruction.
    SpecTaint,
}

/// Execution tier of the dispatch loop: one fast tier plus the
/// reference interpreter. Both share the single-source exec helpers and
/// are observably identical — the differential suite runs every
/// workload through each of them, provenance replays included. The
/// default is the fast tier; `TEAPOT_DISPATCH_TIER` (`compiled` /
/// `step`) forces one process-wide (the CI dispatch-matrix job),
/// [`Machine::set_dispatch_tier`] per machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchTier {
    /// Template-compiled records with pre-resolved operands, streamed
    /// per precomputed fall-through window (the fast tier).
    #[default]
    Compiled,
    /// Per-instruction dispatch with full per-step checks (the
    /// reference interpreter).
    Step,
}

/// Process-wide dispatch-tier override from `TEAPOT_DISPATCH_TIER`,
/// read once (machines are assembled per run; the environment cannot
/// change meaningfully mid-process).
fn forced_tier() -> Option<DispatchTier> {
    static TIER: std::sync::OnceLock<Option<DispatchTier>> = std::sync::OnceLock::new();
    *TIER.get_or_init(
        || match std::env::var("TEAPOT_DISPATCH_TIER").ok().as_deref() {
            Some("compiled") => Some(DispatchTier::Compiled),
            Some("step") => Some(DispatchTier::Step),
            _ => None,
        },
    )
}

/// How a load's STL-bypass prerequisites reach [`Machine::try_stl_bypass`]:
/// resolved at runtime (step tier) or pre-resolved at compile
/// time into the load's [`CompiledOp`] record (compiled tier). Both
/// carry the same information, so the bypass body stays single-source.
///
/// [`CompiledOp`]: crate::program::CompiledOp
#[derive(Debug, Clone, Copy)]
enum StlPre {
    /// Compute the Shadow-Copy continuation and dense site id now.
    Runtime,
    /// Use the values baked at compile time ([`STL_NO_CONT`] /
    /// [`NO_SITE`] when absent). Valid only when `cpu.pc` sits exactly
    /// past the load — which compiled dispatch guarantees.
    Baked { cont: u64, sid: u32 },
}

/// Machine faults (exceptions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Memory access fault.
    Mem(MemFault),
    /// Integer division by zero.
    DivByZero { pc: u64 },
    /// Undecodable instruction.
    BadInst { pc: u64 },
}

/// How a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitStatus {
    /// `exit(code)` syscall.
    Exit(i64),
    /// `halt` instruction.
    Halt,
    /// `abort()` syscall.
    Abort,
    /// Unhandled fault in normal execution (a crash; faults during
    /// speculation simulation roll back instead, paper §6.1).
    Fault(Fault),
    /// The cost budget (fuel) was exhausted.
    OutOfFuel,
}

impl ExitStatus {
    /// Whether the program terminated normally.
    pub fn is_clean(&self) -> bool {
        matches!(self, ExitStatus::Exit(0) | ExitStatus::Halt)
    }
}

/// Options for one run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Fuzz input served by `read_input`.
    pub input: Vec<u8>,
    /// Cost budget; the run stops with [`ExitStatus::OutOfFuel`] beyond it.
    pub fuel: u64,
    /// Detector configuration.
    pub config: DetectorConfig,
    /// Execution style.
    pub emu: EmuStyle,
    /// Active speculation models. The default ([`SpecModelSet::PHT_ONLY`])
    /// reproduces the pre-specmodel pipeline exactly: conditional-branch
    /// misprediction only, no shadow return stack, no store buffer.
    pub models: SpecModelSet,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            input: Vec::new(),
            fuel: 200_000_000,
            config: DetectorConfig::default(),
            emu: EmuStyle::Native,
            models: SpecModelSet::PHT_ONLY,
        }
    }
}

/// Everything a run produced.
#[derive(Debug)]
pub struct RunOutcome {
    /// Termination status.
    pub status: ExitStatus,
    /// Accumulated host-cost units (the "run time" of Figures 1 and 7).
    pub cost: u64,
    /// Executed instruction count (architectural + instrumentation).
    pub insts: u64,
    /// Deduplicated gadget reports.
    pub gadgets: Vec<GadgetReport>,
    /// Normal-execution coverage (paper §6.3).
    pub cov_normal: CovMap,
    /// Speculation-simulation coverage (paper §6.3).
    pub cov_spec: CovMap,
    /// Bytes written by the program.
    pub output: Vec<u8>,
    /// Number of speculation-simulation entries.
    pub sim_entries: u64,
    /// Number of rollbacks (= simulations that ended).
    pub rollbacks: u64,
    /// Control-flow escapes caught by the safety net (should stay 0 for
    /// correctly rewritten binaries).
    pub escapes: u64,
}

/// The per-run counters of a pooled run (see [`Machine::run_stats`]).
/// Coverage, gadget reports and program output stay in the
/// [`ExecContext`], where the caller reads or drains them without the
/// per-run allocations a [`RunOutcome`] would cost.
#[derive(Debug, Clone, Copy)]
pub struct RunStats {
    /// Termination status.
    pub status: ExitStatus,
    /// Accumulated host-cost units.
    pub cost: u64,
    /// Executed instruction count.
    pub insts: u64,
    /// Number of speculation-simulation entries.
    pub sim_entries: u64,
    /// Number of rollbacks.
    pub rollbacks: u64,
    /// Control-flow escapes caught by the safety net.
    pub escapes: u64,
}

/// A snapshot taken by `sim.start` (paper §6.1 "Checkpoint") or by an
/// RSB / STL model misprediction.
#[derive(Debug, Clone)]
struct Checkpoint {
    regs: [u64; 16],
    flags: Flags,
    resume_pc: u64,
    reg_tags: [Tag; 16],
    flags_tag: Tag,
    /// Register/FLAGS origin folds at entry (all [`OriginSpan::NONE`]
    /// unless the origin shadow is on): squashed like register tags.
    reg_origins: [OriginSpan; 16],
    flags_origin: OriginSpan,
    memlog_mark: usize,
    covnote_mark: usize,
    /// Start of the shared speculation window (the reorder buffer is one
    /// resource: nested levels inherit the outermost window's start, so
    /// the total in-flight budget stays at `rob_budget` — hardware-like).
    insts_at_entry: u64,
    /// Program-instruction counter at this level's entry, for the
    /// squashed-path refund on rollback.
    prog_snapshot: u64,
    branch_pc_orig: u64,
    /// SpecTaint emulation: the resume PC is the branch itself and must
    /// not re-enter simulation on resumption.
    resume_is_branch: bool,
    /// Which misprediction source opened this level.
    model: SpecModel,
    /// Shadow return stack at entry (`rsb_len` live entries; all zero
    /// unless the RSB model is active): wrong-path calls and returns
    /// mutate the RSB, and the squash must restore it like any other
    /// predictor-visible state. A fixed array keeps checkpoint pushes
    /// allocation-free on the fuzzing hot path.
    rsb_snapshot: [u64; RSB_DEPTH],
    rsb_len: u8,
    /// Store-buffer sequence watermark at entry (STL model): wrong-path
    /// stores never architecturally retire, so the squash drops every
    /// entry recorded after this mark — a squashed store must not later
    /// serve as a "youngest overlapping store" to bypass.
    store_seq_mark: u64,
    /// ASan verdict pending at entry. Only an STL checkpoint resumes
    /// *at* the guarded access itself (whose `asan.check` does not
    /// re-execute), so only it restores the verdict; every other
    /// checkpoint clears it on rollback, as before.
    resume_pending_oob: Option<PendingOob>,
}

/// One memory-log entry: previous bytes and tags of a store target.
#[derive(Debug, Clone, Copy)]
struct LogEntry {
    addr: u64,
    len: u8,
    old_bytes: [u8; 8],
    old_tags: [u8; 8],
}

/// One provenance-log entry: the previous origin bytes of a store
/// target. Pushed 1:1 with [`LogEntry`] on provenance replays, so the
/// checkpoints' `memlog_mark` indexes both logs and rollback replays
/// them in lockstep. Empty whenever the origin shadow is off.
#[derive(Debug, Clone, Copy)]
struct OriginLogEntry {
    old_lo: [u8; 8],
    old_hi: [u8; 8],
}

/// One simulated store-buffer entry (STL model): the memory contents a
/// store *replaced*, which a younger load may speculatively forward
/// instead of the stored value (Spectre-V4).
#[derive(Debug, Clone, Copy)]
struct StlStore {
    addr: u64,
    len: u8,
    old_bytes: [u8; 8],
    old_tags: [u8; 8],
    /// Replaced origin bytes (all zero unless the origin shadow is on):
    /// a bypass forwards stale provenance with the stale taint.
    old_lo: [u8; 8],
    old_hi: [u8; 8],
    /// Monotonic store sequence number; the bypass picks the *youngest*
    /// overlapping entry.
    seq: u64,
}

/// Detection policy, derived from binary flags and emulation style.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Policy {
    /// No detection (uninstrumented binary run natively).
    None,
    /// Teapot with the Kasper policy (paper §6.2, Fig. 6).
    Kasper,
    /// SpecFuzz: every speculative ASan violation is a gadget.
    SpecFuzz,
    /// SpecTaint: no program-level info — every user-controlled load
    /// yields a "secret"; transmission through a dereference is a gadget.
    SpecTaint,
}

/// An ASan verdict pending consumption by the access it guards.
#[derive(Debug, Clone, Copy)]
struct PendingOob {
    oob: bool,
}

/// The reusable per-run resources of the execution pipeline: the guest
/// address space, the sanitizer and taint shadows, the speculation
/// runtime buffers (checkpoint stack, memory log, lazy coverage notes)
/// and the per-run result accumulators (coverage maps, gadget reports,
/// program output).
///
/// Create one per worker with [`ExecContext::new`] and drive any number
/// of runs through it via [`Machine::with_context`]; each run resets the
/// context in place (dirty-page memory restore, shadow zeroing, buffer
/// clears) instead of reallocating everything, which is where the bulk
/// of the per-iteration fuzzing cost went in the seed implementation.
#[derive(Debug)]
pub struct ExecContext {
    mem: PagedMem,
    asan: AsanEngine,
    taint: TaintEngine,
    /// Input-byte origin shadow (taint provenance). Populated only
    /// while [`ExecContext::set_provenance`] is on — the campaign hot
    /// path never touches it.
    origin: OriginEngine,
    checkpoints: Vec<Checkpoint>,
    memlog: Vec<LogEntry>,
    /// Provenance twin of `memlog` (1:1 entries while the origin
    /// shadow is on; empty otherwise).
    provlog: Vec<OriginLogEntry>,
    covnotes: Vec<u32>,
    cov_normal: CovMap,
    cov_spec: CovMap,
    gadget_keys: FxHashSet<GadgetKey>,
    gadgets: Vec<GadgetReport>,
    output: Vec<u8>,
    /// Bounded per-run speculative trace (the witness recorder): filled
    /// only while [`ExecContext::set_witness_recording`] is on.
    trace: Vec<TraceEvent>,
    /// Whether the witness recorder is enabled. Configuration, not run
    /// state: it survives [`ExecContext::reset`] (recording never
    /// changes an execution's observable outcome — no cost is charged
    /// and nothing is read back during the run).
    record_witness: bool,
    /// Whether the origin (provenance) shadow is enabled. Configuration
    /// like `record_witness`: survives [`ExecContext::reset`], is
    /// consulted once per run at machine assembly, and never changes an
    /// execution's architectural outcome — origins are observation-only
    /// metadata carried beside the tags.
    record_provenance: bool,
    /// Identity of the [`Program`] whose pristine image this context's
    /// memory derives from. A dirty-page reset is only valid against
    /// that image; `reset` rebuilds from scratch on a mismatch.
    for_program: u64,
    /// Live-decode cache retained **across runs** (keyed by program
    /// identity: cleared when the context is rebound to a different
    /// program). Only decodes whose whole fetch window lies in
    /// read-only pages land here — those bytes are immutable between
    /// resets (guest stores fault first), so the cached instruction is
    /// exactly what a fresh context would decode.
    icache_ro: teapot_rt::FxHashMap<u64, (Inst<u64>, u8)>,
    /// Live-decode cache for addresses whose bytes are mutable (or
    /// whose fetch window could gain pages mid-run): valid for one run
    /// only, cleared on every reset — the seed's per-run icache.
    icache_run: teapot_rt::FxHashMap<u64, (Inst<u64>, u8)>,
    /// Scratch buffer for live-decode fetches, so `read_for_decode`
    /// stops allocating a fresh `Vec` per fetch.
    decode_scratch: Vec<u8>,
    /// Telemetry accumulator: per-run machine counters are folded in at
    /// the end of every [`Machine::run_stats`]. Like `record_witness`
    /// it is configuration/diagnostic state, survives
    /// [`ExecContext::reset`], and is never read back during a run.
    telemetry: VmCounters,
    /// Hot-site profiler (attributes executed cost to basic blocks of
    /// the bound program). `None` unless enabled; like the witness
    /// recorder, profiling never changes an execution's observable
    /// outcome.
    profile: Option<Box<BlockProfile>>,
}

impl ExecContext {
    /// Creates a context for `prog`: clones the pristine memory image
    /// once and allocates the run buffers.
    pub fn new(prog: &Program) -> ExecContext {
        ExecContext {
            mem: prog.pristine().clone(),
            asan: AsanEngine::new(),
            taint: TaintEngine::new(),
            origin: OriginEngine::new(),
            checkpoints: Vec::new(),
            memlog: Vec::new(),
            provlog: Vec::new(),
            covnotes: Vec::new(),
            cov_normal: CovMap::new(),
            cov_spec: CovMap::new(),
            gadget_keys: FxHashSet::default(),
            gadgets: Vec::new(),
            output: Vec::new(),
            trace: Vec::new(),
            record_witness: false,
            record_provenance: false,
            for_program: prog.uid,
            icache_ro: teapot_rt::FxHashMap::default(),
            icache_run: teapot_rt::FxHashMap::default(),
            decode_scratch: Vec::new(),
            telemetry: VmCounters::default(),
            profile: None,
        }
    }

    /// Restores the context to the observable state of a fresh
    /// [`ExecContext::new`] while reusing allocations: dirty memory
    /// pages are copied back from the pristine image, shadow pages are
    /// zeroed, and every buffer is cleared with capacity kept.
    ///
    /// A context created for a *different* program cannot be patched
    /// up page-by-page (untouched pages would keep the other binary's
    /// bytes), so the address space is re-cloned from `prog`'s pristine
    /// image — but the shadow engines and every run buffer still reset
    /// in place, which is what lets queue mode recycle one context per
    /// worker across a whole directory of binaries.
    pub fn reset(&mut self, prog: &Program) {
        if self.for_program != prog.uid {
            self.mem = prog.pristine().clone();
            self.for_program = prog.uid;
            // Rebind: retained decodes belong to the old program's image.
            self.icache_ro.clear();
            // A profile's block spans belong to the old program too.
            if self.profile.is_some() {
                self.profile = Some(Box::new(BlockProfile::new(prog.blocks())));
            }
        } else {
            self.mem.reset_to(prog.pristine());
        }
        self.icache_run.clear();
        self.asan.reset();
        self.taint.reset();
        self.origin.reset();
        self.checkpoints.clear();
        self.memlog.clear();
        self.provlog.clear();
        self.covnotes.clear();
        self.cov_normal.clear();
        self.cov_spec.clear();
        self.gadget_keys.clear();
        self.gadgets.clear();
        self.output.clear();
        self.trace.clear();
    }

    /// Normal-execution coverage of the last run.
    pub fn cov_normal(&self) -> &CovMap {
        &self.cov_normal
    }

    /// Speculation-simulation coverage of the last run.
    pub fn cov_spec(&self) -> &CovMap {
        &self.cov_spec
    }

    /// Gadget reports of the last run, in discovery order.
    pub fn gadgets(&self) -> &[GadgetReport] {
        &self.gadgets
    }

    /// Moves the last run's gadget reports out of the context.
    pub fn take_gadgets(&mut self) -> Vec<GadgetReport> {
        std::mem::take(&mut self.gadgets)
    }

    /// Bytes the last run wrote.
    pub fn output(&self) -> &[u8] {
        &self.output
    }

    /// Enables or disables the witness recorder. While on, each run
    /// appends up to [`MAX_TRACE_EVENTS`] speculative-trace entries
    /// (simulation entries, DIFT-tainted accesses, rollbacks) readable
    /// via [`ExecContext::trace`] after the run. Recording never changes
    /// an execution's observable outcome.
    pub fn set_witness_recording(&mut self, on: bool) {
        self.record_witness = on;
    }

    /// Whether the witness recorder is enabled.
    pub fn witness_recording(&self) -> bool {
        self.record_witness
    }

    /// Enables or disables the origin (provenance) shadow for
    /// subsequent runs. While on, every DIFT tag flow also propagates
    /// the input-byte origin interval of the data, tainted-access trace
    /// events resolve their origin spans, and each first-seen gadget
    /// report appends a [`TraceEvent::LeakSite`] to the witness trace.
    /// Intended for triage provenance replays only: a machine assembled
    /// with provenance on stays on its dispatch tier, but the compiled
    /// tier then runs the full memory-access templates (the slim
    /// normal-mode ones skip origin propagation). Origins are
    /// observation-only metadata — the architectural outcome of a run
    /// is unchanged.
    pub fn set_provenance(&mut self, on: bool) {
        self.record_provenance = on;
    }

    /// Whether the origin (provenance) shadow is enabled.
    pub fn provenance(&self) -> bool {
        self.record_provenance
    }

    /// Speculative trace of the last run (empty unless recording is on).
    pub fn trace(&self) -> &[TraceEvent] {
        &self.trace
    }

    /// Enables or disables the hot-site profiler against `prog`'s block
    /// table. Idempotent: enabling keeps an existing (compatible)
    /// profile's accumulated counts. Profiling never changes an
    /// execution's observable outcome.
    pub fn set_profiling(&mut self, on: bool, prog: &Program) {
        if !on {
            self.profile = None;
            return;
        }
        let fresh = match &self.profile {
            Some(p) => !p.same_blocks(prog.blocks()),
            None => true,
        };
        if fresh {
            self.profile = Some(Box::new(BlockProfile::new(prog.blocks())));
        }
    }

    /// The accumulated hot-site profile, when profiling is enabled.
    pub fn profile(&self) -> Option<&BlockProfile> {
        self.profile.as_deref()
    }

    /// Machine-level telemetry counters accumulated over every run this
    /// context hosted (slab counters not included; see
    /// [`ExecContext::counters_snapshot`]).
    pub fn telemetry(&self) -> &VmCounters {
        &self.telemetry
    }

    /// Full telemetry snapshot: the machine-level accumulator plus the
    /// TLB/page counters of the three context-owned slabs (guest
    /// memory, ASan shadow, DIFT shadow). Deterministic for a
    /// deterministic workload: only context-owned state is read — never
    /// the `Arc`-shared pristine image.
    pub fn counters_snapshot(&self) -> VmCounters {
        let mut c = self.telemetry;
        for (h, m, p) in [
            self.mem.telemetry_counts(),
            self.asan.telemetry_counts(),
            self.taint.telemetry_counts(),
        ] {
            c.tlb_hits += h;
            c.tlb_misses += m;
            c.pages_allocated += p;
        }
        c
    }
}

/// Owned-or-borrowed execution context of one [`Machine`].
enum CtxSlot<'c> {
    Owned(Box<ExecContext>),
    Borrowed(&'c mut ExecContext),
}

impl std::ops::Deref for CtxSlot<'_> {
    type Target = ExecContext;
    #[inline]
    fn deref(&self) -> &ExecContext {
        match self {
            CtxSlot::Owned(c) => c,
            CtxSlot::Borrowed(c) => c,
        }
    }
}

impl std::ops::DerefMut for CtxSlot<'_> {
    #[inline]
    fn deref_mut(&mut self) -> &mut ExecContext {
        match self {
            CtxSlot::Owned(c) => c,
            CtxSlot::Borrowed(c) => c,
        }
    }
}

/// The virtual machine.
pub struct Machine<'c> {
    /// Architectural state.
    pub cpu: Cpu,
    prog: Arc<Program>,
    ctx: CtxSlot<'c>,
    policy: Policy,
    dift_on: bool,
    asan_on: bool,
    nested_on: bool,
    single_copy: bool,
    /// Whether the origin (provenance) shadow is live for this run:
    /// the context's `record_provenance` flag, resolved once at
    /// assembly and requiring DIFT (origins without tags are
    /// meaningless). Off on the campaign hot path — every `prov_on`
    /// branch below is dead there, and compiled windows outside
    /// simulation use the slim memory-access templates.
    prov_on: bool,

    opts: RunOptions,
    /// Mirror of `ctx.checkpoints.len()`, maintained at every push and
    /// rollback: `in_sim()` is consulted several times per executed
    /// instruction, and the cached copy avoids a context dereference
    /// plus vector-length load on each of them.
    sim_depth: u32,
    pending_oob: Option<PendingOob>,
    invert_next_branch: bool,
    skip_sim_once: bool,

    /// Active speculation models, unpacked for the hot path. With the
    /// default PHT-only set every `rsb_on`/`stl_on` branch below is dead
    /// and the machine behaves exactly like the pre-specmodel build.
    pht_on: bool,
    rsb_on: bool,
    stl_on: bool,
    /// Simulated return-stack buffer (RSB model): predicted return
    /// targets, youngest last, bounded at [`RSB_DEPTH`].
    rsb: Vec<u64>,
    /// Simulated store buffer (STL model): the last [`STL_WINDOW`]
    /// stores with their pre-store contents, kept in ascending `seq`
    /// order (oldest drained first, newest last) so rollback can drop
    /// the wrong-path suffix with one truncate.
    store_buf: Vec<StlStore>,
    /// Monotonic store counter feeding [`StlStore::seq`].
    store_seq: u64,
    /// The load a rolled-back STL window resumes at must execute
    /// architecturally instead of re-mispredicting.
    skip_stl_once: bool,
    /// Per-run simulation entries per model id (policy budget
    /// [`SpecModel::run_entry_budget`]).
    model_run_entries: [u32; 3],
    /// Per-run *top-level* entries per model-tagged site (policy budget
    /// [`SpecModel::top_entries_per_site_per_run`]).
    model_site_entries: teapot_rt::FxHashMap<u64, u32>,

    /// Per-run telemetry counters (plain integers, no atomics): folded
    /// into the context's [`VmCounters`] accumulator at the end of
    /// [`Machine::run_stats`]. Counting is unconditional and the values
    /// are never read during the run, so telemetry cannot perturb
    /// execution.
    t_compiled_insts: u64,
    t_compiled_exits: u64,
    t_icache_ro_hits: u64,
    t_icache_run_hits: u64,
    t_live_decodes: u64,
    t_checkpoints: [u64; 3],
    t_rollbacks: [u64; 3],
    t_rob_stops: [u64; 3],
    t_memlog_bytes: u64,
    t_prov_bytes: u64,
    t_prov_folds: u64,
    t_prov_leaks: u64,

    cost: u64,
    insts: u64,
    /// Program (non-instrumentation) instructions — what the reorder-
    /// buffer budget counts. Teapot distinguishes instrumentation from
    /// program code (it inserted it); single-copy SpecFuzz-style binaries
    /// cannot, so for them every instruction counts — reproducing the
    /// paper's §3.2 observation that frontend-ASan code is "counted as
    /// program instructions, rendering the length of transient execution
    /// simulation inaccurate".
    prog_insts: u64,
    sim_entries: u64,
    rollbacks: u64,
    escapes: u64,
    input_pos: usize,

    trace: bool,
    uncached_decode: bool,
    tier: DispatchTier,
}

impl std::fmt::Debug for Machine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("cpu", &self.cpu)
            .field("policy", &self.policy)
            .field("cost", &self.cost)
            .field("insts", &self.insts)
            .finish()
    }
}

enum Step {
    Continue,
    Stop(ExitStatus),
}

/// Low-`n`-bytes mask for raw little-endian loads.
#[inline]
fn mask_for(n: u64) -> u64 {
    if n >= 8 {
        u64::MAX
    } else {
        (1u64 << (n * 8)) - 1
    }
}

/// Width extension of a raw loaded value — the single definition behind
/// both the architectural load path and the STL stale-value forward.
#[inline]
fn apply_sext(raw: u64, size: AccessSize, sext: bool) -> u64 {
    if !sext {
        return raw;
    }
    match size {
        AccessSize::B1 => raw as u8 as i8 as i64 as u64,
        AccessSize::B2 => raw as u16 as i16 as i64 as u64,
        AccessSize::B4 => raw as u32 as i32 as i64 as u64,
        AccessSize::B8 => raw,
    }
}

impl<'c> Machine<'c> {
    /// Loads `binary` and prepares a run with the given options.
    ///
    /// This one-shot entry point decodes the binary privately; loops
    /// that execute many runs should decode once with
    /// [`Program::shared`] and pool contexts via
    /// [`Machine::with_context`].
    ///
    /// # Panics
    ///
    /// Panics if an instrumented binary carries a malformed
    /// `.teapot.meta` section (a rewriter bug, not a runtime input).
    pub fn new(binary: &Binary, opts: RunOptions) -> Machine<'static> {
        let prog = Program::shared(binary);
        let ctx = Box::new(ExecContext::new(&prog));
        Machine::assemble(prog, CtxSlot::Owned(ctx), opts)
    }

    /// Prepares a run over a shared predecoded program with a private
    /// (owned) context.
    pub fn from_program(prog: Arc<Program>, opts: RunOptions) -> Machine<'static> {
        let ctx = Box::new(ExecContext::new(&prog));
        Machine::assemble(prog, CtxSlot::Owned(ctx), opts)
    }

    /// Prepares a run over a shared predecoded program and a pooled
    /// context. The context is reset in place; after the run the caller
    /// reads coverage, gadget reports and output back out of it.
    pub fn with_context(
        prog: &Arc<Program>,
        ctx: &'c mut ExecContext,
        opts: RunOptions,
    ) -> Machine<'c> {
        ctx.reset(prog);
        Machine::assemble(prog.clone(), CtxSlot::Borrowed(ctx), opts)
    }

    fn assemble(prog: Arc<Program>, ctx: CtxSlot<'c>, opts: RunOptions) -> Machine<'c> {
        let flags = prog.flags;
        let policy = match opts.emu {
            EmuStyle::SpecTaint => Policy::SpecTaint,
            EmuStyle::Native => {
                if flags.dift {
                    Policy::Kasper
                } else if flags.asan {
                    Policy::SpecFuzz
                } else {
                    Policy::None
                }
            }
        };
        let dift_on = flags.dift || matches!(opts.emu, EmuStyle::SpecTaint);
        let prov_on = ctx.record_provenance && dift_on;
        let models = opts.models;

        let mut cpu = Cpu {
            pc: prog.entry,
            ..Cpu::default()
        };
        cpu.set(Reg::SP, STACK_TOP - 64);

        Machine {
            cpu,
            policy,
            dift_on,
            asan_on: flags.asan,
            nested_on: flags.nested_speculation,
            single_copy: flags.single_copy,
            prov_on,
            prog,
            ctx,
            opts,
            sim_depth: 0,
            pending_oob: None,
            invert_next_branch: false,
            skip_sim_once: false,
            pht_on: models.contains(SpecModel::Pht),
            rsb_on: models.contains(SpecModel::Rsb),
            stl_on: models.contains(SpecModel::Stl),
            rsb: Vec::new(),
            store_buf: Vec::new(),
            store_seq: 0,
            skip_stl_once: false,
            model_run_entries: [0; 3],
            model_site_entries: teapot_rt::FxHashMap::default(),
            t_compiled_insts: 0,
            t_compiled_exits: 0,
            t_icache_ro_hits: 0,
            t_icache_run_hits: 0,
            t_live_decodes: 0,
            t_checkpoints: [0; 3],
            t_rollbacks: [0; 3],
            t_rob_stops: [0; 3],
            t_memlog_bytes: 0,
            t_prov_bytes: 0,
            t_prov_folds: 0,
            t_prov_leaks: 0,
            cost: 0,
            insts: 0,
            prog_insts: 0,
            sim_entries: 0,
            rollbacks: 0,
            escapes: 0,
            input_pos: 0,
            trace: std::env::var_os("TEAPOT_TRACE").is_some(),
            uncached_decode: false,
            tier: forced_tier().unwrap_or_default(),
        }
    }

    /// Forces the per-step live-decode path, bypassing the predecoded
    /// [`Program`] tables. Test hook for the differential decode suite;
    /// semantics must be identical either way.
    #[doc(hidden)]
    pub fn set_uncached_decode(&mut self, uncached: bool) {
        self.uncached_decode = uncached;
    }

    /// Forces a dispatch tier regardless of the default and the
    /// `TEAPOT_DISPATCH_TIER` override. Test/bench hook for the
    /// differential suite and the per-tier benchmark rows; semantics
    /// must be identical on every tier.
    #[doc(hidden)]
    pub fn set_dispatch_tier(&mut self, tier: DispatchTier) {
        self.tier = tier;
    }

    /// The guest address space (borrowed from the execution context).
    pub fn mem(&self) -> &PagedMem {
        &self.ctx.mem
    }

    /// Runs to completion, threading persistent heuristics state.
    pub fn run(mut self, heur: &mut SpecHeuristics) -> RunOutcome {
        let stats = self.run_stats(heur);
        let ctx = &mut *self.ctx;
        RunOutcome {
            status: stats.status,
            cost: stats.cost,
            insts: stats.insts,
            gadgets: std::mem::take(&mut ctx.gadgets),
            cov_normal: std::mem::take(&mut ctx.cov_normal),
            cov_spec: std::mem::take(&mut ctx.cov_spec),
            output: std::mem::take(&mut ctx.output),
            sim_entries: stats.sim_entries,
            rollbacks: stats.rollbacks,
            escapes: stats.escapes,
        }
    }

    /// Runs to completion, leaving coverage, gadget reports and output
    /// in the [`ExecContext`] (no per-run allocations for them). This is
    /// the hot-loop twin of [`Machine::run`].
    pub fn run_stats(&mut self, heur: &mut SpecHeuristics) -> RunStats {
        heur.begin_run();
        // Bind the heuristics' dense-site table to this program, so
        // every speculation gate resolves its per-site slot through an
        // array read instead of a hash probe (rebinding to the same
        // program is free).
        heur.bind_sites(self.prog.uid, self.prog.site_count());
        // One refcount bump per run: the dispatch loop borrows the
        // predecoded region tables from this local clone, so the
        // per-instruction fetch needs no borrow of `self`.
        let regions = self.prog.regions_arc();
        let status = match self.ctx.profile.take() {
            // Profiled twin of the loop below: attribute the cost/inst
            // delta of each dispatch to the block the iteration started
            // in. The profile box is taken out of the context for the
            // loop so each iteration writes through an owned pointer
            // (no per-iteration Option test); the unprofiled path pays
            // nothing for the profiler.
            Some(mut p) => {
                let s = loop {
                    let pc0 = self.cpu.pc;
                    let cost0 = self.cost;
                    let insts0 = self.insts;
                    // chain=false: every window returns here so its
                    // cost/inst delta lands on the block it started in.
                    let step = self.dispatch(&regions, heur, false);
                    p.record(
                        pc0,
                        self.cost.saturating_sub(cost0),
                        self.insts.saturating_sub(insts0),
                    );
                    match step {
                        Step::Continue => {}
                        Step::Stop(s) => break s,
                    }
                };
                self.ctx.profile = Some(p);
                s
            }
            None => loop {
                match self.dispatch(&regions, heur, true) {
                    Step::Continue => {}
                    Step::Stop(s) => break s,
                }
            },
        };
        // Fold this run's plain telemetry counters into the context-owned
        // accumulator. Observation-only: nothing here is ever read back
        // during execution, so enabling telemetry cannot perturb results.
        {
            let run_insts = self.insts;
            let compiled_insts = self.t_compiled_insts;
            let ctx = &mut *self.ctx;
            let t = &mut ctx.telemetry;
            t.compiled_insts += compiled_insts;
            t.compiled_exits += self.t_compiled_exits;
            t.step_insts += run_insts - compiled_insts;
            t.icache_ro_hits += self.t_icache_ro_hits;
            t.icache_run_hits += self.t_icache_run_hits;
            t.live_decodes += self.t_live_decodes;
            for m in 0..3 {
                t.checkpoints[m] += self.t_checkpoints[m];
                t.rollbacks[m] += self.t_rollbacks[m];
                t.rob_stops[m] += self.t_rob_stops[m];
            }
            t.memlog_bytes_replayed += self.t_memlog_bytes;
            t.prov_bytes += self.t_prov_bytes;
            t.prov_folds += self.t_prov_folds;
            t.prov_leaks += self.t_prov_leaks;
        }
        RunStats {
            status,
            cost: self.cost,
            insts: self.insts,
            sim_entries: self.sim_entries,
            rollbacks: self.rollbacks,
            escapes: self.escapes,
        }
    }

    // ------------------------------------------------------------------
    // Helpers
    // ------------------------------------------------------------------

    #[inline]
    fn in_sim(&self) -> bool {
        self.sim_depth > 0
    }

    /// Maps a rewritten PC back to original-binary coordinates
    /// (precomputed per predecoded byte; the binary search remains only
    /// for addresses outside every executable region).
    fn orig_pc(&self, pc: u64) -> u64 {
        if self.prog.meta().is_none() {
            return pc;
        }
        match self.prog.orig_of(pc) {
            Some(o) => o,
            None => self
                .prog
                .meta()
                .and_then(|m| m.to_original(pc))
                .unwrap_or(pc),
        }
    }

    fn ea(&self, m: &MemRef) -> u64 {
        let base = m.base.map(|r| self.cpu.get(r)).unwrap_or(0);
        let index = m.index.map(|r| self.cpu.get(r)).unwrap_or(0);
        base.wrapping_add(index.wrapping_mul(m.scale as u64))
            .wrapping_add(m.disp as i64 as u64)
    }

    fn ea_tag(&self, m: &MemRef) -> Tag {
        let mut t = Tag::CLEAN;
        if let Some(r) = m.base {
            t |= self.ctx.taint.reg(r);
        }
        if let Some(r) = m.index {
            t |= self.ctx.taint.reg(r);
        }
        t
    }

    fn operand(&self, o: &Operand) -> u64 {
        match o {
            Operand::Reg(r) => self.cpu.get(*r),
            Operand::Imm(i) => *i as i64 as u64,
        }
    }

    fn operand_tag(&self, o: &Operand) -> Tag {
        match o {
            Operand::Reg(r) => self.ctx.taint.reg(*r),
            Operand::Imm(_) => Tag::CLEAN,
        }
    }

    /// Origin fold of the registers composing an effective address —
    /// the provenance twin of [`Machine::ea_tag`].
    fn ea_origin(&self, m: &MemRef) -> OriginSpan {
        let mut s = OriginSpan::NONE;
        if let Some(r) = m.base {
            s = s.join(self.ctx.origin.reg(r));
        }
        if let Some(r) = m.index {
            s = s.join(self.ctx.origin.reg(r));
        }
        s
    }

    fn operand_origin(&self, o: &Operand) -> OriginSpan {
        match o {
            Operand::Reg(r) => self.ctx.origin.reg(*r),
            Operand::Imm(_) => OriginSpan::NONE,
        }
    }

    fn report(
        &mut self,
        channel: Channel,
        tag: Tag,
        access_pc: u64,
        what: &str,
        origin: OriginSpan,
    ) {
        let flavors = [
            (Tag::SECRET_USER, Controllability::User),
            (Tag::SECRET_MASSAGE, Controllability::Massage),
        ];
        for (flavor, ctrl) in flavors {
            if !tag.contains(flavor) {
                continue;
            }
            let key = GadgetKey {
                pc: self.orig_pc(access_pc),
                channel,
                controllability: ctrl,
                model: self.window_model(),
            };
            if self.ctx.gadget_keys.insert(key) {
                if self.trace {
                    eprintln!("[trace] REPORT {channel:?} at {pc:#x}", pc = key.pc);
                }
                let branch_pc = self
                    .ctx
                    .checkpoints
                    .first()
                    .map(|c| c.branch_pc_orig)
                    .unwrap_or(0);
                let depth = self.ctx.checkpoints.len() as u32;
                let access_orig = self.orig_pc(access_pc);
                self.ctx.gadgets.push(GadgetReport {
                    key,
                    branch_pc,
                    access_pc: access_orig,
                    depth,
                    description: what.to_string(),
                });
                // Provenance replays append the leak-site event that
                // completes the causal chain; campaign-captured traces
                // (prov_on off) are unchanged.
                if self.prov_on {
                    self.t_prov_leaks += 1;
                    self.record_event(TraceEvent::LeakSite {
                        pc: key.pc,
                        depth,
                        model: key.model,
                        tag: tag.bits(),
                        origin,
                    });
                }
            }
        }
    }

    /// A SpecFuzz-style report (no taint: fixed User/MDS bucket).
    fn report_specfuzz(&mut self, access_pc: u64) {
        let key = GadgetKey {
            pc: self.orig_pc(access_pc),
            channel: Channel::Mds,
            controllability: Controllability::User,
            model: self.window_model(),
        };
        if self.ctx.gadget_keys.insert(key) {
            let branch_pc = self
                .ctx
                .checkpoints
                .first()
                .map(|c| c.branch_pc_orig)
                .unwrap_or(0);
            let depth = self.ctx.checkpoints.len() as u32;
            let access_orig = self.orig_pc(access_pc);
            self.ctx.gadgets.push(GadgetReport {
                key,
                branch_pc,
                access_pc: access_orig,
                depth,
                description: "speculative out-of-bounds access".to_string(),
            });
        }
    }

    // ------------------------------------------------------------------
    // Speculation-simulation runtime
    // ------------------------------------------------------------------

    /// Appends a witness-trace event (no-op unless recording is on; the
    /// trace is bounded, so a pathological run cannot grow it without
    /// limit). Recording charges no cost and is never read back during
    /// the run — a recorded execution is observably identical to an
    /// unrecorded one.
    #[inline]
    fn record_event(&mut self, ev: TraceEvent) {
        let ctx = &mut *self.ctx;
        if ctx.record_witness && ctx.trace.len() < MAX_TRACE_EVENTS {
            ctx.trace.push(ev);
        }
    }

    fn push_checkpoint(
        &mut self,
        resume_pc: u64,
        branch_pc_orig: u64,
        resume_is_branch: bool,
        model: SpecModel,
    ) {
        let mut rsb_snapshot = [0u64; RSB_DEPTH];
        let rsb_len = if self.rsb_on {
            rsb_snapshot[..self.rsb.len()].copy_from_slice(&self.rsb);
            self.rsb.len() as u8
        } else {
            0
        };
        let ctx = &mut *self.ctx;
        let window_start = ctx
            .checkpoints
            .first()
            .map(|c| c.insts_at_entry)
            .unwrap_or(self.prog_insts);
        ctx.checkpoints.push(Checkpoint {
            regs: self.cpu.regs,
            flags: self.cpu.flags,
            resume_pc,
            reg_tags: ctx.taint.regs,
            flags_tag: ctx.taint.flags,
            reg_origins: ctx.origin.regs,
            flags_origin: ctx.origin.flags,
            memlog_mark: ctx.memlog.len(),
            covnote_mark: ctx.covnotes.len(),
            insts_at_entry: window_start,
            prog_snapshot: self.prog_insts,
            branch_pc_orig,
            resume_is_branch,
            model,
            rsb_snapshot,
            rsb_len,
            store_seq_mark: self.store_seq,
            resume_pending_oob: None,
        });
        self.sim_entries += 1;
        self.sim_depth += 1;
        self.t_checkpoints[model.id() as usize] += 1;
        let depth = self.ctx.checkpoints.len() as u32;
        self.record_event(TraceEvent::SpecBranch {
            pc: branch_pc_orig,
            depth,
            model,
        });
    }

    /// The speculation model of the current window: the model of the
    /// *outermost* misprediction (what a gadget report is attributed
    /// to), `Pht` outside simulation.
    #[inline]
    fn window_model(&self) -> SpecModel {
        self.ctx
            .checkpoints
            .first()
            .map(|c| c.model)
            .unwrap_or(SpecModel::Pht)
    }

    /// Rolls back the innermost simulation level (paper §6.1 "Rollback").
    fn rollback(&mut self) {
        let cp = self
            .ctx
            .checkpoints
            .pop()
            .expect("rollback without checkpoint");
        self.sim_depth -= 1;
        if self.trace {
            eprintln!(
                "[trace] rollback depth {} after {} prog insts, resume {:#x}",
                self.ctx.checkpoints.len() + 1,
                self.prog_insts - cp.insts_at_entry,
                cp.resume_pc
            );
        }
        // Replay the memory log in reverse (page-chunked, not per byte;
        // drained in place — a rollback allocates nothing).
        {
            let ctx = &mut *self.ctx;
            let entries = &ctx.memlog[cp.memlog_mark..];
            self.cost += cost::ROLLBACK_BASE + cost::ROLLBACK_PER_LOG * entries.len() as u64;
            for (i, e) in entries.iter().enumerate().rev() {
                self.t_memlog_bytes += e.len as u64;
                ctx.mem.poke_n(e.addr, &e.old_bytes[..e.len as usize]);
                if self.dift_on {
                    ctx.taint.write_tags(e.addr, &e.old_tags[..e.len as usize]);
                }
                if self.prov_on {
                    // The provenance log is 1:1 with the memory log, so
                    // the same index restores the squashed origins.
                    let p = &ctx.provlog[cp.memlog_mark + i];
                    let n = e.len as usize;
                    ctx.origin.write_raw(e.addr, &p.old_lo[..n], &p.old_hi[..n]);
                }
            }
            ctx.memlog.truncate(cp.memlog_mark);
            if self.prov_on {
                ctx.provlog.truncate(cp.memlog_mark);
            }
            // Lazy speculative-coverage flush (paper §6.3 optimization).
            let notes = &ctx.covnotes[cp.covnote_mark..];
            self.cost += cost::COV_FLUSH_PER_NOTE * notes.len() as u64;
            for &g in notes {
                ctx.cov_spec.hit(g);
            }
            ctx.covnotes.truncate(cp.covnote_mark);
        }
        // Restore architectural + taint state. The program-instruction
        // counter is part of the restored state: squashed wrong-path
        // instructions release their reorder-buffer entries, so they must
        // not consume the enclosing window's budget.
        self.prog_insts = cp.prog_snapshot;
        self.cpu.regs = cp.regs;
        self.cpu.flags = cp.flags;
        self.cpu.pc = cp.resume_pc;
        self.ctx.taint.regs = cp.reg_tags;
        self.ctx.taint.flags = cp.flags_tag;
        self.ctx.origin.regs = cp.reg_origins;
        self.ctx.origin.flags = cp.flags_origin;
        // Only an STL checkpoint carries a verdict to restore (its
        // resume point is the guarded access itself); everywhere else
        // this is the pre-existing `pending_oob = None`.
        self.pending_oob = cp.resume_pending_oob;
        self.invert_next_branch = false;
        if cp.resume_is_branch {
            self.skip_sim_once = true;
        }
        // Squash predictor-visible model state: the RSB is restored to
        // its entry snapshot; wrong-path store-buffer entries (stores
        // that never architecturally retired) are dropped; an STL
        // window resumes *at* the bypassed load, which must now execute
        // architecturally.
        if self.rsb_on {
            self.rsb.clear();
            self.rsb
                .extend_from_slice(&cp.rsb_snapshot[..cp.rsb_len as usize]);
        }
        if self.stl_on {
            let keep = self
                .store_buf
                .partition_point(|e| e.seq <= cp.store_seq_mark);
            self.store_buf.truncate(keep);
            self.store_seq = cp.store_seq_mark;
        }
        if cp.model == SpecModel::Stl {
            self.skip_stl_once = true;
        }
        self.rollbacks += 1;
        self.t_rollbacks[cp.model.id() as usize] += 1;
        let depth = self.ctx.checkpoints.len() as u32 + 1;
        self.record_event(TraceEvent::Rollback {
            pc: cp.branch_pc_orig,
            depth,
            model: cp.model,
        });
    }

    /// Handles a fault: rollback inside simulation (the paper's signal
    /// handler, §6.1 "Exceptions"), crash outside.
    fn fault(&mut self, f: Fault) -> Step {
        if self.in_sim() {
            if self.trace {
                eprintln!("[trace] speculative fault {f:?}");
            }
            self.rollback();
            Step::Continue
        } else {
            Step::Stop(ExitStatus::Fault(f))
        }
    }

    // ------------------------------------------------------------------
    // Model-driven misprediction (teapot-specmodel: RSB + STL)
    // ------------------------------------------------------------------

    /// Pushes a predicted return target onto the simulated RSB,
    /// recycling the oldest entry once the hardware depth is reached.
    fn rsb_push(&mut self, ret_target: u64) {
        if self.rsb.len() == RSB_DEPTH {
            self.rsb.remove(0);
        }
        self.rsb.push(ret_target);
    }

    /// Shared admission control for VM-driven (RSB/STL) simulation
    /// entries: the per-run model budget and per-site top-level cap
    /// (specmodel policy), then the persistent per-site speculation
    /// heuristics under the model-tagged site key — so RSB/STL sites
    /// accumulate their own cross-run counts without colliding with the
    /// PHT branch counts.
    fn model_gate(
        &mut self,
        model: SpecModel,
        site_pc: u64,
        sid: Option<u32>,
        heur: &mut SpecHeuristics,
    ) -> bool {
        let idx = model.id() as usize;
        if self.model_run_entries[idx] >= model.run_entry_budget() {
            return false;
        }
        let site = model.site_key(site_pc);
        let depth = self.ctx.checkpoints.len() as u32;
        let enter = if depth == 0 {
            let seen = self.model_site_entries.get(&site).copied().unwrap_or(0);
            if seen >= model.top_entries_per_site_per_run() {
                return false;
            }
            heur.enter_top_at(sid, site) && {
                self.model_site_entries.insert(site, seen + 1);
                true
            }
        } else if self.opts.emu == EmuStyle::Native && !self.nested_on {
            // The binary was instrumented without nested speculation:
            // the knob bounds VM-driven models exactly like `sim.start`
            // entries (SpecTaint emulation always nests, as for PHT).
            false
        } else {
            heur.enter_nested_at(
                sid,
                site,
                depth,
                self.opts.config.max_nesting,
                self.opts.config.full_depth_runs,
            )
        };
        if enter {
            self.model_run_entries[idx] += 1;
        }
        enter
    }

    /// RSB model: after an architectural `ret` to `actual`, consider a
    /// misprediction to the now-topmost (stale) shadow-stack entry — the
    /// target a clobbered or over/underflowed hardware RSB would hand
    /// the front end (Spectre-RSB / ret2spec). The mispredicted path
    /// runs one activation record up the stack with the *current*
    /// architectural state, exactly the wrong-frame return the attack
    /// exploits; the checkpoint resumes at the correct target.
    fn maybe_mispredict_return(&mut self, pc: u64, actual: u64, heur: &mut SpecHeuristics) {
        let Some(&stale) = self.rsb.last() else {
            return;
        };
        if stale == actual {
            return;
        }
        // In a rewritten binary speculation must run in the Shadow Copy
        // (paper §5.3): translate the stale Real-Copy target. Return
        // sites are indirect targets, so the rewriter registered them;
        // a target without a shadow mapping cannot be simulated.
        let spec_target = match self.prog.meta() {
            Some(m) if m.in_real(stale) => match m.shadow_of(stale) {
                Some(s) => s,
                None => return,
            },
            _ => stale,
        };
        let site_orig = self.orig_pc(pc);
        let sid = self.prog.site_id_of(pc);
        if !self.model_gate(SpecModel::Rsb, site_orig, sid, heur) {
            return;
        }
        if self.trace {
            eprintln!(
                "[trace] rsb mispredict at {pc:#x}: stale {stale:#x} (actual {actual:#x}) depth {}",
                self.ctx.checkpoints.len() + 1
            );
        }
        self.charge(cost::RSB_CHECKPOINT);
        // The `ret` completed architecturally (SP popped) before the
        // checkpoint, so the squash resumes cleanly at `actual`.
        self.push_checkpoint(actual, site_orig, false, SpecModel::Rsb);
        self.cpu.pc = spec_target;
    }

    /// Records a store into the simulated store buffer: address, width
    /// and the *replaced* contents a younger load may speculatively
    /// forward. Unreadable targets are skipped (the store itself is
    /// about to fault).
    fn stl_record_store(&mut self, addr: u64, n: u64) {
        let mut old_bytes = [0u8; 8];
        let mut old_tags = [0u8; 8];
        let mut old_lo = [0u8; 8];
        let mut old_hi = [0u8; 8];
        if self
            .ctx
            .mem
            .read_n(addr, &mut old_bytes[..n as usize])
            .is_err()
        {
            return;
        }
        self.ctx.taint.read_tags(addr, &mut old_tags[..n as usize]);
        if self.prov_on {
            self.ctx
                .origin
                .read_raw(addr, &mut old_lo[..n as usize], &mut old_hi[..n as usize]);
        }
        self.store_seq += 1;
        if self.store_buf.len() == STL_WINDOW {
            // Oldest entry drains (hardware store buffers retire in
            // order); the vector stays seq-sorted.
            self.store_buf.remove(0);
        }
        self.store_buf.push(StlStore {
            addr,
            len: n as u8,
            old_bytes,
            old_tags,
            old_lo,
            old_hi,
            seq: self.store_seq,
        });
    }

    /// The stale value a load of `[addr, addr+n)` would forward if it
    /// bypassed the youngest overlapping store still in the buffer:
    /// `Some((bytes, tags, origin))` when such a store fully covers the
    /// load (the origin span is the stale bytes' provenance fold,
    /// [`OriginSpan::NONE`] unless the origin shadow is on). Wild
    /// (wrapping) speculative addresses never match.
    fn stl_stale(&self, addr: u64, n: u64) -> Option<([u8; 8], [u8; 8], OriginSpan)> {
        let end = addr.checked_add(n)?;
        // Entries are seq-sorted, so the first match from the back is
        // the youngest overlapping store.
        self.store_buf
            .iter()
            .rev()
            .find(|e| e.addr <= addr && end <= e.addr + e.len as u64)
            .map(|e| {
                let off = (addr - e.addr) as usize;
                let mut bytes = [0u8; 8];
                let mut tags = [0u8; 8];
                bytes[..n as usize].copy_from_slice(&e.old_bytes[off..off + n as usize]);
                tags[..n as usize].copy_from_slice(&e.old_tags[off..off + n as usize]);
                let origin = if self.prov_on {
                    OriginEngine::fold_raw(
                        &e.old_lo[off..off + n as usize],
                        &e.old_hi[off..off + n as usize],
                    )
                } else {
                    OriginSpan::NONE
                };
                (bytes, tags, origin)
            })
    }

    /// STL model: before executing a load, consider a speculative
    /// store-to-load-bypass window (Spectre-V4) in which the load skips
    /// the youngest overlapping store and forwards the *pre-store*
    /// value — stale data, stale taint. Entered only when the stale and
    /// current contents actually differ (in bytes or tags); the
    /// checkpoint resumes at the load itself, which then executes
    /// architecturally ([`Machine::skip_stl_once`]). Returns whether the
    /// bypass was entered.
    #[allow(clippy::too_many_arguments)]
    fn try_stl_bypass(
        &mut self,
        dst: Reg,
        mem: &MemRef,
        size: AccessSize,
        sext: bool,
        pc: u64,
        pre: StlPre,
        heur: &mut SpecHeuristics,
    ) -> bool {
        if self.skip_stl_once {
            self.skip_stl_once = false;
            return false;
        }
        let addr = self.ea(mem);
        let n = size.bytes();
        let Some((stale_bytes, stale_tags, stale_origin)) = self.stl_stale(addr, n) else {
            return false;
        };
        // Compare against the current contents: an idempotent store (same
        // bytes, same tags) opens no observable window.
        let Ok(cur) = self.ctx.mem.read_uint(addr, n) else {
            return false;
        };
        let stale_raw = u64::from_le_bytes(stale_bytes) & mask_for(n);
        let mut stale_tag = Tag::CLEAN;
        for t in &stale_tags[..n as usize] {
            stale_tag |= Tag::from_bits(*t);
        }
        let cur_tag = self.ctx.taint.mem_range_tag(addr, n);
        if stale_raw == cur && stale_tag == cur_tag {
            return false;
        }
        // In a two-copy binary the wrong path must continue in the
        // Shadow Copy (the §5.3 safety net squashes Real-Copy
        // speculation): redirect to the shadow twin of the next copied
        // instruction. A load with no shadow continuation cannot be
        // simulated. The compiled tier hands this in pre-resolved;
        // checked *before* the gate so no budget is consumed either way.
        let (spec_cont, sid) = match pre {
            StlPre::Baked { cont, sid } => {
                if cont == STL_NO_CONT {
                    return false;
                }
                (cont, (sid != NO_SITE).then_some(sid))
            }
            StlPre::Runtime => {
                let cont = self.cpu.pc;
                let spec_cont = match self.prog.meta() {
                    Some(m) if !self.single_copy && m.in_real(cont) => {
                        let twin = m
                            .next_original_after(pc)
                            .and_then(|o| self.prog.shadow_twin(o));
                        match twin {
                            Some(t) => t,
                            None => return false,
                        }
                    }
                    _ => cont,
                };
                (spec_cont, self.prog.site_id_of(pc))
            }
        };
        let site_orig = self.orig_pc(pc);
        if !self.model_gate(SpecModel::Stl, site_orig, sid, heur) {
            return false;
        }
        if self.trace {
            eprintln!(
                "[trace] stl bypass at {pc:#x}: addr {addr:#x} stale {stale_raw:#x} \
                 (current {cur:#x}) depth {}",
                self.ctx.checkpoints.len() + 1
            );
        }
        self.charge(cost::STL_CHECKPOINT);
        // The pending ASan verdict belongs to the architectural
        // execution of this load; the forwarding path must not consume
        // it. Park it in the checkpoint — the preceding `asan.check`
        // does not re-execute when the squash resumes at the load, so
        // rollback hands the verdict back.
        let parked_oob = self.pending_oob.take();
        // Checkpoint *before* the forwarded value lands in `dst`; the
        // squash restores the pre-load registers and re-executes the
        // load architecturally.
        self.push_checkpoint(pc, site_orig, false, SpecModel::Stl);
        if let Some(cp) = self.ctx.checkpoints.last_mut() {
            cp.resume_pending_oob = parked_oob;
        }
        self.cpu.pc = spec_cont;
        let value = apply_sext(stale_raw, size, sext);
        self.cpu.set(dst, value);
        if self.dift_on {
            self.ctx.taint.set_reg(dst, stale_tag);
        }
        if self.prov_on {
            self.ctx.origin.set_reg(dst, stale_origin);
        }
        if self.ctx.record_witness && !stale_tag.is_clean() {
            self.record_event(TraceEvent::TaintedAccess {
                pc: site_orig,
                addr,
                width: n as u8,
                tag: stale_tag.bits(),
                origin: stale_origin,
            });
        }
        true
    }

    // ------------------------------------------------------------------
    // Memory access with policy hooks
    // ------------------------------------------------------------------

    fn do_load(
        &mut self,
        mem: &MemRef,
        size: AccessSize,
        sext: bool,
        pc: u64,
    ) -> Result<(u64, Tag, OriginSpan), Fault> {
        let addr = self.ea(mem);
        let n = size.bytes();
        // The pointer tag only feeds simulation policy and witness
        // recording; normal execution never observes it.
        let sim_dift = self.dift_on && self.in_sim();
        let ptr_tag = if sim_dift {
            self.ea_tag(mem)
        } else {
            Tag::CLEAN
        };
        // Provenance: the loaded value derives from the input bytes
        // that sourced the memory contents *and* the ones that composed
        // the address (an attacker-chosen index selects the value).
        let ptr_origin = if self.prov_on {
            self.ea_origin(mem)
        } else {
            OriginSpan::NONE
        };
        // Address-tag policy checks run BEFORE the access (paper §6.2.2):
        // a speculative load through a secret or massaged pointer is
        // reported even if the wild access then faults (hardware would
        // not fault speculatively; the simulation rolls back instead).
        if sim_dift {
            match self.policy {
                Policy::Kasper => {
                    if ptr_tag.is_secret() {
                        self.report(
                            Channel::Cache,
                            ptr_tag,
                            pc,
                            "secret used to compose a load address",
                            ptr_origin,
                        );
                    }
                    if ptr_tag.contains(Tag::MASSAGE) {
                        self.report(
                            Channel::Mds,
                            Tag::SECRET_MASSAGE,
                            pc,
                            "load through an attacker-indirect (massaged) pointer",
                            ptr_origin,
                        );
                    }
                }
                Policy::SpecTaint if ptr_tag.is_secret() => {
                    self.report(
                        Channel::Cache,
                        ptr_tag,
                        pc,
                        "tainted data reached a dereference (SpecTaint)",
                        ptr_origin,
                    );
                }
                _ => {}
            }
        }
        let raw = self.ctx.mem.read_uint(addr, n).map_err(Fault::Mem)?;
        let value = apply_sext(raw, size, sext);
        if !self.dift_on {
            // SpecFuzz policy consumes pending ASan verdicts without taint.
            self.pending_oob = None;
            return Ok((value, Tag::CLEAN, OriginSpan::NONE));
        }
        let mut val_tag = self.ctx.taint.mem_range_tag(addr, n);
        let origin = if self.prov_on {
            self.t_prov_folds += 1;
            ptr_origin.join(self.ctx.origin.mem_range(addr, n))
        } else {
            OriginSpan::NONE
        };
        if self.in_sim() {
            let pending = self.pending_oob.take();
            let oob = pending.map(|p| p.oob).unwrap_or(false);
            match self.policy {
                Policy::Kasper => {
                    if oob && self.opts.config.massage_policy {
                        // Taint source: outcome of a speculative OOB access
                        // is attacker-indirectly controlled (paper §6.2.2).
                        val_tag |= Tag::MASSAGE;
                    }
                    if oob && ptr_tag.contains(Tag::USER) {
                        val_tag |= Tag::SECRET_USER;
                    }
                    if ptr_tag.contains(Tag::MASSAGE) {
                        // Wild pointers violate program invariants: always
                        // promote (paper §6.2.2 "Taint Sinks").
                        val_tag |= Tag::SECRET_MASSAGE;
                    }
                    if val_tag.is_secret() {
                        self.report(
                            Channel::Mds,
                            val_tag,
                            pc,
                            "secret loaded into a register",
                            origin,
                        );
                    }
                }
                Policy::SpecTaint
                    // No program-level info: every user-controlled access
                    // loads a "secret" (paper §3.1).
                    if ptr_tag.contains(Tag::USER) => {
                        val_tag |= Tag::SECRET_USER;
                    }
                _ => {}
            }
            if self.ctx.record_witness && !(ptr_tag | val_tag).is_clean() {
                let access_orig = self.orig_pc(pc);
                self.record_event(TraceEvent::TaintedAccess {
                    pc: access_orig,
                    addr,
                    width: n as u8,
                    tag: (ptr_tag | val_tag).bits(),
                    origin,
                });
            }
        } else {
            self.pending_oob = None;
        }
        Ok((value, val_tag, origin))
    }

    fn do_store(
        &mut self,
        mem: &MemRef,
        size: AccessSize,
        value: u64,
        tag: Tag,
        origin: OriginSpan,
        pc: u64,
    ) -> Result<(), Fault> {
        let addr = self.ea(mem);
        // The pointer tag is only consumed by in-simulation policy.
        let ptr_tag = if self.dift_on && self.in_sim() {
            self.ea_tag(mem)
        } else {
            Tag::CLEAN
        };
        let ptr_origin = if self.prov_on {
            self.ea_origin(mem)
        } else {
            OriginSpan::NONE
        };
        self.store_at(addr, size, value, tag, ptr_tag, pc, origin, ptr_origin)
    }

    #[allow(clippy::too_many_arguments)]
    fn store_at(
        &mut self,
        addr: u64,
        size: AccessSize,
        value: u64,
        tag: Tag,
        ptr_tag: Tag,
        pc: u64,
        origin: OriginSpan,
        ptr_origin: OriginSpan,
    ) -> Result<(), Fault> {
        let n = size.bytes();
        if self.in_sim() {
            if self.dift_on && ptr_tag.is_secret() {
                self.report(
                    Channel::Cache,
                    ptr_tag,
                    pc,
                    "secret used to compose a store address",
                    ptr_origin,
                );
            }
            // Memory log: previous bytes + tags, for rollback (§6.1).
            let mut old_bytes = [0u8; 8];
            let mut old_tags = [0u8; 8];
            self.ctx
                .mem
                .read_n(addr, &mut old_bytes[..n as usize])
                .map_err(Fault::Mem)?;
            self.ctx.taint.read_tags(addr, &mut old_tags[..n as usize]);
            self.ctx.memlog.push(LogEntry {
                addr,
                len: n as u8,
                old_bytes,
                old_tags,
            });
            if self.prov_on {
                // Keep the provenance log 1:1 with the memory log.
                let mut old_lo = [0u8; 8];
                let mut old_hi = [0u8; 8];
                self.ctx.origin.read_raw(
                    addr,
                    &mut old_lo[..n as usize],
                    &mut old_hi[..n as usize],
                );
                self.ctx.provlog.push(OriginLogEntry { old_lo, old_hi });
            }
            let _ = self.pending_oob.take();
        }
        if self.stl_on {
            self.stl_record_store(addr, n);
        }
        self.ctx
            .mem
            .write_uint(addr, value, n)
            .map_err(Fault::Mem)?;
        if self.dift_on {
            self.ctx.taint.set_mem_range(addr, n, tag);
        }
        if self.prov_on {
            self.ctx.origin.set_mem_range(addr, n, origin);
            self.t_prov_bytes += n;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // The interpreter
    // ------------------------------------------------------------------

    fn charge(&mut self, c: u64) {
        self.cost += c;
    }

    /// Routes one dispatch to the active tier. `chain` lets the
    /// compiled tier keep streaming windows while the PC stays inside
    /// the same region (skipping the outer loop and the region search);
    /// the profiled run loop passes `false` so per-block attribution
    /// stays exact. The compiled tier degrades to single-step whenever
    /// its preconditions do not hold, so forcing `step` only removes
    /// fast paths — it can never change results.
    #[inline]
    fn dispatch(&mut self, regions: &[Region], heur: &mut SpecHeuristics, chain: bool) -> Step {
        match self.tier {
            DispatchTier::Compiled => self.step_compiled(regions, heur, chain),
            DispatchTier::Step => self.step(heur),
        }
    }

    /// The compiled dispatch tier's window entry: the fuel check, the
    /// §5.3 Real-Copy safety net and the ROB-budget check are hoisted
    /// to window entry and verified *conservatively over the whole
    /// window* from the precomputed [`CRun`] sums (records are
    /// F_IN_REAL-homogeneous and their cost/prog totals are baked at
    /// compile time), so per-instruction checking could not have fired
    /// mid-window. Falls back to [`step`] whenever per-instruction
    /// precision is (or may be) required: SpecTaint emulation, forced
    /// live decoding, windows of one, or hoisted checks that cannot
    /// cover the window.
    ///
    /// [`CRun`]: crate::program::CRun
    /// [`step`]: Machine::step
    fn step_compiled(
        &mut self,
        regions: &[Region],
        heur: &mut SpecHeuristics,
        chain: bool,
    ) -> Step {
        if self.opts.emu != EmuStyle::Native || self.uncached_decode {
            return self.step(heur);
        }
        let pc = self.cpu.pc;
        let Some((region, mut off)) = Program::region_of(regions, pc) else {
            return self.step(heur);
        };
        loop {
            let cr = region.cruns[off];
            if cr.insts < 2 || self.cost + cr.cost as u64 >= self.opts.fuel {
                return self.step(heur);
            }
            if self.in_sim() {
                // Windows are F_IN_REAL-homogeneous, so one escape check
                // covers the run; the ROB window must fit it whole.
                if !self.single_copy && region.hot[off].flags & F_IN_REAL != 0 {
                    return self.step(heur);
                }
                let frame = self.ctx.checkpoints.last().expect("in_sim");
                let executed = self.prog_insts - frame.insts_at_entry;
                let budget = self.opts.config.rob_budget as u64;
                let limit = budget * frame.model.native_window_margin() as u64;
                // Strict: the per-step check before the window's last
                // instruction can see every preceding program instruction
                // retired, so the whole window must fit *below* the limit.
                if executed + cr.prog as u64 >= limit {
                    return self.step(heur);
                }
            }
            let insts0 = self.insts;
            let r = self.exec_compiled(region, off, cr.recs, heur);
            self.t_compiled_insts += self.insts - insts0;
            match r {
                Step::Continue => {}
                stop => return stop,
            }
            if !chain {
                return Step::Continue;
            }
            // Hot loops land the next window in the same region: re-enter
            // the window guard directly, skipping the region search.
            let Some(o) = self.cpu.pc.checked_sub(region.start) else {
                return Step::Continue;
            };
            if o as usize >= region.cruns.len() {
                return Step::Continue;
            }
            off = o as usize;
        }
    }

    /// Streams the `recs`-record compiled window at `offset` of
    /// `region`: uniform [`CompiledOp`] records with pre-resolved
    /// operands dispatched straight to the single-source exec helpers —
    /// zero per-pass decode or operand work. Exits (counted in
    /// `t_compiled_exits`) the moment execution leaves the fall-through
    /// straight line or the simulation state the hoisted checks were
    /// computed against, after which the outer loop re-enters with full
    /// per-step checks.
    ///
    /// [`CompiledOp`]: crate::program::CompiledOp
    fn exec_compiled(
        &mut self,
        region: &Region,
        mut offset: usize,
        recs: u8,
        heur: &mut SpecHeuristics,
    ) -> Step {
        let rstart = region.start;
        let ops = &region.ops[..];
        let depth = self.sim_depth;
        // Divergence exits the window before the next record, so the
        // entry depth decides sim-vs-normal cost for every record here.
        let sim = depth > 0;
        // The slim normal-mode memory templates skip origin propagation,
        // so a provenance run takes the full templates everywhere (they
        // are observably identical out of simulation). Cost still
        // follows `sim`.
        let full = sim || self.prov_on;
        for _ in 0..recs {
            // By reference: a record is a whole cache line; the match
            // below only reads the payload of the variant it hits.
            let op = &ops[offset];
            let pc = rstart + offset as u64;
            let next_pc = pc + op.len as u64;
            self.insts += op.insts as u64;
            self.prog_insts += op.prog as u64;
            self.cost += if sim { op.cost_sim } else { op.cost_norm } as u64;
            self.cpu.pc = next_pc;
            let r: Result<Step, Fault> = match op.kind {
                OpKind::Skip => Ok(Step::Continue),
                OpKind::MovRR { dst, src } => {
                    self.exec_mov_rr(dst, src);
                    Ok(Step::Continue)
                }
                OpKind::MovRI { dst, imm } => {
                    self.exec_mov_ri(dst, imm);
                    Ok(Step::Continue)
                }
                OpKind::Load {
                    dst,
                    mem,
                    size,
                    sext,
                    stl_cont,
                    sid,
                } => {
                    let pre = StlPre::Baked {
                        cont: stl_cont,
                        sid,
                    };
                    if full {
                        self.exec_load_at(dst, &mem, size, sext, pc, pre, heur)
                            .map(|_| Step::Continue)
                    } else {
                        self.exec_load_norm(dst, &mem, size, sext, pc, pre, heur)
                            .map(|()| Step::Continue)
                    }
                }
                OpKind::LoadChecked {
                    chk,
                    chk_size,
                    acc_off,
                    dst,
                    mem,
                    size,
                    sext,
                    stl_cont,
                    sid,
                } => {
                    let pre = StlPre::Baked {
                        cont: stl_cont,
                        sid,
                    };
                    let apc = pc + acc_off as u64;
                    if full {
                        // Fused superinstruction: probe with the check's
                        // pc, access with its own — the same fault,
                        // report and STL ordering as the two-record slow
                        // path.
                        self.asan_probe(&chk, chk_size, pc);
                        self.exec_load_at(dst, &mem, size, sext, apc, pre, heur)
                            .map(|_| Step::Continue)
                    } else {
                        // asan_probe is a no-op outside simulation.
                        self.exec_load_norm(dst, &mem, size, sext, apc, pre, heur)
                            .map(|()| Step::Continue)
                    }
                }
                OpKind::Store { src, mem, size } => if full {
                    self.exec_store(src, &mem, size, pc)
                } else {
                    self.exec_store_norm(src, &mem, size, pc)
                }
                .map(|()| Step::Continue),
                OpKind::StoreChecked {
                    chk,
                    chk_size,
                    acc_off,
                    src,
                    mem,
                    size,
                } => {
                    let apc = pc + acc_off as u64;
                    if full {
                        self.asan_probe(&chk, chk_size, pc);
                        self.exec_store(src, &mem, size, apc)
                    } else {
                        self.exec_store_norm(src, &mem, size, apc)
                    }
                    .map(|()| Step::Continue)
                }
                OpKind::StoreI { imm, mem, size } => if full {
                    self.exec_storei(imm, &mem, size, pc)
                } else {
                    self.exec_storei_norm(imm, &mem, size, pc)
                }
                .map(|()| Step::Continue),
                OpKind::Lea { dst, mem } => {
                    self.exec_lea(dst, &mem);
                    Ok(Step::Continue)
                }
                OpKind::Push { src } => if full {
                    self.exec_push(src, pc)
                } else {
                    self.exec_push_norm(src)
                }
                .map(|()| Step::Continue),
                OpKind::Pop { dst } => self.exec_pop(dst).map(|()| Step::Continue),
                OpKind::Alu { op, dst, src } => {
                    self.exec_alu(op, dst, src, pc).map(|()| Step::Continue)
                }
                OpKind::Cmp { lhs, rhs } => {
                    self.exec_cmp(lhs, rhs);
                    Ok(Step::Continue)
                }
                OpKind::Test { lhs, rhs } => {
                    self.exec_test(lhs, rhs);
                    Ok(Step::Continue)
                }
                OpKind::Set { cc, dst } => {
                    self.exec_set(cc, dst);
                    Ok(Step::Continue)
                }
                OpKind::Jcc { cc, target } => {
                    self.exec_jcc(cc, target, pc);
                    Ok(Step::Continue)
                }
                OpKind::SimStart {
                    tramp,
                    branch_orig,
                    sid,
                } => {
                    self.exec_sim_start(
                        tramp,
                        branch_orig,
                        (sid != NO_SITE).then_some(sid),
                        pc,
                        next_pc,
                        heur,
                    );
                    Ok(Step::Continue)
                }
                OpKind::SimCheck => {
                    self.exec_sim_check();
                    Ok(Step::Continue)
                }
                OpKind::CovTrace { guard } => {
                    self.exec_cov_trace(guard);
                    Ok(Step::Continue)
                }
                OpKind::CovNote { guard } => {
                    self.exec_cov_note(guard);
                    Ok(Step::Continue)
                }
                OpKind::Other => self.exec(region.insts[offset], pc, next_pc, heur),
            };
            match r {
                Ok(Step::Continue) => {}
                Ok(stop) => return stop,
                Err(f) => {
                    self.t_compiled_exits += 1;
                    return self.fault(f);
                }
            }
            if self.cpu.pc != next_pc || self.sim_depth != depth {
                self.t_compiled_exits += 1;
                return Step::Continue;
            }
            offset += op.len as usize;
        }
        Step::Continue
    }

    fn step(&mut self, heur: &mut SpecHeuristics) -> Step {
        if self.cost >= self.opts.fuel {
            return Step::Stop(ExitStatus::OutOfFuel);
        }
        let pc = self.cpu.pc;

        // Fetch from the predecoded table (one index into an immutable,
        // Arc-shared structure built once per binary — side-effect-free,
        // so it can precede the safety-net and ROB checks). The live
        // decoder remains for addresses outside executable sections —
        // wild speculative control flow into data or the stack — and for
        // the differential-test fallback.
        let fetched = if self.uncached_decode {
            None
        } else {
            self.prog.fetch(pc)
        };

        // Safety net: speculation must never run Real Copy code without a
        // redirect (paper §5.3). Counted and rolled back — checked before
        // any decode outcome, so an undecodable Real-Copy address is an
        // escape, not an invalid-instruction fault.
        if self.in_sim() && !self.single_copy {
            let in_real = match &fetched {
                Some((_, h)) => h.flags & F_IN_REAL != 0,
                None => self.prog.meta().is_some_and(|m| m.in_real(pc)),
            };
            if in_real {
                self.escapes += 1;
                self.rollback();
                return Step::Continue;
            }
        }

        // ROB budget enforcement for emulator-style runs plus a hard
        // safety margin for instrumented runs (conditional restore points
        // normally fire first). The margin is per-model: PHT windows keep
        // the generous ×4 (their `sim.check` restore points fire first),
        // while VM-driven RSB/STL windows get a tighter leash.
        if self.in_sim() {
            let frame = self.ctx.checkpoints.last().expect("in_sim");
            let executed = self.prog_insts - frame.insts_at_entry;
            let budget = self.opts.config.rob_budget as u64;
            let limit = match self.opts.emu {
                EmuStyle::SpecTaint => budget,
                EmuStyle::Native => budget * frame.model.native_window_margin() as u64,
            };
            let model_idx = frame.model.id() as usize;
            if executed >= limit {
                self.t_rob_stops[model_idx] += 1;
                self.rollback();
                return Step::Continue;
            }
        }

        // Entries flagged F_LIVE froze only address metadata (their
        // bytes border writable pages): decode those live, like
        // addresses outside the table.
        let fetched = fetched.filter(|(_, h)| h.flags & F_LIVE == 0);
        let (inst, len, is_instr, base_cost, always_charge) = match fetched {
            Some((_, h)) if h.len == 0 => return self.fault(Fault::BadInst { pc }),
            Some((inst, h)) => (
                inst,
                h.len,
                h.flags & F_INSTR != 0,
                h.cost as u64,
                h.flags & F_ALWAYS_CHARGE != 0,
            ),
            None => match self.decode_live(pc) {
                Some(t) => t,
                None => return self.fault(Fault::BadInst { pc }),
            },
        };

        let next_pc = pc + len as u64;
        self.insts += 1;
        if self.single_copy || !is_instr {
            self.prog_insts += 1;
        }

        // SpecTaint-style emulation drives misprediction at branches
        // (PHT model; other models hook the relevant instructions in
        // `exec` for both execution styles).
        if self.opts.emu == EmuStyle::SpecTaint {
            self.charge(cost::EMU_PER_INST);
            if let Inst::Jcc { .. } = inst {
                if self.skip_sim_once {
                    self.skip_sim_once = false;
                } else if self.pht_on {
                    let depth = self.ctx.checkpoints.len() as u32;
                    let sid = self.prog.site_id_of(pc);
                    let enter = if depth == 0 {
                        heur.enter_top_at(sid, pc)
                    } else {
                        heur.enter_nested_at(
                            sid,
                            pc,
                            depth,
                            self.opts.config.max_nesting,
                            self.opts.config.full_depth_runs,
                        )
                    };
                    if enter {
                        self.charge(cost::EMU_CHECKPOINT);
                        self.push_checkpoint(pc, pc, true, SpecModel::Pht);
                        self.invert_next_branch = true;
                    }
                }
            }
        } else {
            let mut c = base_cost;
            // Single-copy (SpecFuzz-style) binaries guard every
            // instrumentation with `if (in_simulation)` (paper Listing 3):
            // in normal mode the guard (charged via its own opcode) skips
            // the instrumentation body, so the body costs nothing — but
            // the guards themselves run everywhere, which is exactly the
            // overhead Speculation Shadows eliminates.
            if self.single_copy && !self.in_sim() && is_instr && !always_charge {
                c = 0;
            }
            self.charge(c);
        }

        // Execute.
        self.cpu.pc = next_pc;
        match self.exec(inst, pc, next_pc, heur) {
            Ok(Step::Continue) => Step::Continue,
            Ok(stop) => stop,
            Err(f) => self.fault(f),
        }
    }

    /// Live fetch + decode from guest memory — the seed's lazy icache,
    /// now reached only for addresses the shared table cannot freeze.
    /// Returns `None` when the bytes at `pc` do not decode.
    ///
    /// The cache is two-tier and lives in the [`ExecContext`], so a
    /// pooled context stops rebuilding it every run: decodes whose
    /// whole fetch window is mapped read-only are retained across runs
    /// (those bytes cannot change between resets — stores fault first,
    /// and no page in the window can appear mid-run to alter
    /// truncation), everything else is valid for the current run only.
    fn decode_live(&mut self, pc: u64) -> Option<(Inst<u64>, u8, bool, u64, bool)> {
        let ctx = &mut *self.ctx;
        let hit = match ctx.icache_ro.get(&pc) {
            Some(&e) => {
                self.t_icache_ro_hits += 1;
                Some(e)
            }
            None => match ctx.icache_run.get(&pc) {
                Some(&e) => {
                    self.t_icache_run_hits += 1;
                    Some(e)
                }
                None => None,
            },
        };
        let (i, l) = match hit {
            Some((i, l)) => (i, l),
            None => {
                ctx.mem
                    .read_for_decode_into(pc, INST_MAX_LEN, &mut ctx.decode_scratch);
                match decode_at(&ctx.decode_scratch, pc) {
                    Ok((i, l)) => {
                        self.t_live_decodes += 1;
                        if ctx.mem.range_readonly(pc, INST_MAX_LEN as u64) {
                            ctx.icache_ro.insert(pc, (i, l as u8));
                        } else {
                            ctx.icache_run.insert(pc, (i, l as u8));
                        }
                        (i, l as u8)
                    }
                    Err(_) => return None,
                }
            }
        };
        let (is_instr, always_charge, cost) = crate::program::inst_meta(&i);
        Some((i, l, is_instr, cost, always_charge))
    }

    // --- Hot-arm helpers -------------------------------------------------
    // Shared, single-source bodies for the most frequent opcodes: the
    // compiled tier's records call these directly (skipping the call
    // into the full `exec` match), and `exec`'s arms call the very same
    // functions, so the two dispatch tiers cannot diverge.

    #[inline]
    fn exec_mov_rr(&mut self, dst: Reg, src: Reg) {
        self.cpu.set(dst, self.cpu.get(src));
        if self.dift_on {
            let t = self.ctx.taint.reg(src);
            self.ctx.taint.set_reg(dst, t);
        }
        if self.prov_on {
            let s = self.ctx.origin.reg(src);
            self.ctx.origin.set_reg(dst, s);
        }
    }

    #[inline]
    fn exec_mov_ri(&mut self, dst: Reg, imm: i64) {
        self.cpu.set(dst, imm as u64);
        if self.dift_on {
            self.ctx.taint.set_reg(dst, Tag::CLEAN);
        }
        if self.prov_on {
            self.ctx.origin.set_reg(dst, OriginSpan::NONE);
        }
    }

    #[inline]
    fn exec_load(
        &mut self,
        dst: Reg,
        mem: &MemRef,
        size: AccessSize,
        sext: bool,
        pc: u64,
        heur: &mut SpecHeuristics,
    ) -> Result<bool, Fault> {
        self.exec_load_at(dst, mem, size, sext, pc, StlPre::Runtime, heur)
    }

    /// [`Machine::exec_load`] with the STL-bypass prerequisites supplied
    /// by the caller — the compiled tier passes the values baked into
    /// the load's record.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn exec_load_at(
        &mut self,
        dst: Reg,
        mem: &MemRef,
        size: AccessSize,
        sext: bool,
        pc: u64,
        pre: StlPre,
        heur: &mut SpecHeuristics,
    ) -> Result<bool, Fault> {
        if self.stl_on && self.try_stl_bypass(dst, mem, size, sext, pc, pre, heur) {
            // Store-to-load bypass entered: the stale pre-store value
            // was forwarded into `dst` and a checkpoint resumes at this
            // load after the squash.
            return Ok(true);
        }
        let (v, t, o) = self.do_load(mem, size, sext, pc)?;
        self.cpu.set(dst, v);
        if self.dift_on {
            self.ctx.taint.set_reg(dst, t);
        }
        if self.prov_on {
            self.ctx.origin.set_reg(dst, o);
        }
        Ok(false)
    }

    /// Slim load template for compiled windows entered *outside*
    /// simulation with provenance off: every `do_load` branch that is
    /// conditional on `in_sim()` is statically dead there (a window
    /// exits before the record after any depth change), so this inlines
    /// the remaining straight line — STL probe, EA, slab read,
    /// sign-extend, tag fold, register writeback — with no policy,
    /// witness or origin work. Observably identical to
    /// [`Machine::exec_load_at`] out of simulation without provenance.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn exec_load_norm(
        &mut self,
        dst: Reg,
        mem: &MemRef,
        size: AccessSize,
        sext: bool,
        pc: u64,
        pre: StlPre,
        heur: &mut SpecHeuristics,
    ) -> Result<(), Fault> {
        if self.stl_on && self.try_stl_bypass(dst, mem, size, sext, pc, pre, heur) {
            return Ok(());
        }
        let addr = self.ea(mem);
        let n = size.bytes();
        let raw = self.ctx.mem.read_uint(addr, n).map_err(Fault::Mem)?;
        let value = apply_sext(raw, size, sext);
        self.pending_oob = None;
        self.cpu.set(dst, value);
        if self.dift_on {
            let t = self.ctx.taint.mem_range_tag(addr, n);
            self.ctx.taint.set_reg(dst, t);
        }
        Ok(())
    }

    /// Slim store template for compiled windows entered outside
    /// simulation with provenance off — the memory-log capture,
    /// address-tag policy and origin writes of [`Machine::store_at`]
    /// are dead there. Observably identical to [`Machine::exec_store`]
    /// out of simulation without provenance.
    #[inline(always)]
    fn exec_store_norm(
        &mut self,
        src: Reg,
        mem: &MemRef,
        size: AccessSize,
        _pc: u64,
    ) -> Result<(), Fault> {
        let addr = self.ea(mem);
        let n = size.bytes();
        if self.stl_on {
            self.stl_record_store(addr, n);
        }
        self.ctx
            .mem
            .write_uint(addr, self.cpu.get(src), n)
            .map_err(Fault::Mem)?;
        if self.dift_on {
            let tag = self.ctx.taint.reg(src);
            self.ctx.taint.set_mem_range(addr, n, tag);
        }
        Ok(())
    }

    /// [`Machine::exec_store_norm`] with an immediate payload
    /// (observably identical to [`Machine::exec_storei`] out of
    /// simulation: an immediate stores `Tag::CLEAN`).
    #[inline(always)]
    fn exec_storei_norm(
        &mut self,
        imm: i32,
        mem: &MemRef,
        size: AccessSize,
        _pc: u64,
    ) -> Result<(), Fault> {
        let addr = self.ea(mem);
        let n = size.bytes();
        if self.stl_on {
            self.stl_record_store(addr, n);
        }
        self.ctx
            .mem
            .write_uint(addr, imm as i64 as u64, n)
            .map_err(Fault::Mem)?;
        if self.dift_on {
            self.ctx.taint.set_mem_range(addr, n, Tag::CLEAN);
        }
        Ok(())
    }

    #[inline]
    fn exec_store(
        &mut self,
        src: Reg,
        mem: &MemRef,
        size: AccessSize,
        pc: u64,
    ) -> Result<(), Fault> {
        let tag = if self.dift_on {
            self.ctx.taint.reg(src)
        } else {
            Tag::CLEAN
        };
        let origin = if self.prov_on {
            self.ctx.origin.reg(src)
        } else {
            OriginSpan::NONE
        };
        self.do_store(mem, size, self.cpu.get(src), tag, origin, pc)
    }

    #[inline]
    fn exec_push(&mut self, src: Reg, pc: u64) -> Result<(), Fault> {
        let sp = self.cpu.get(Reg::SP).wrapping_sub(8);
        let tag = if self.dift_on {
            self.ctx.taint.reg(src)
        } else {
            Tag::CLEAN
        };
        let origin = if self.prov_on {
            self.ctx.origin.reg(src)
        } else {
            OriginSpan::NONE
        };
        self.store_at(
            sp,
            AccessSize::B8,
            self.cpu.get(src),
            tag,
            Tag::CLEAN,
            pc,
            origin,
            OriginSpan::NONE,
        )?;
        self.cpu.set(Reg::SP, sp);
        Ok(())
    }

    /// Slim push template for compiled windows entered outside
    /// simulation with provenance off (the memory-log and origin
    /// branches of [`Machine::store_at`] are dead there). Observably
    /// identical to [`Machine::exec_push`] out of simulation without
    /// provenance.
    #[inline(always)]
    fn exec_push_norm(&mut self, src: Reg) -> Result<(), Fault> {
        let sp = self.cpu.get(Reg::SP).wrapping_sub(8);
        if self.stl_on {
            self.stl_record_store(sp, 8);
        }
        self.ctx
            .mem
            .write_uint(sp, self.cpu.get(src), 8)
            .map_err(Fault::Mem)?;
        if self.dift_on {
            let tag = self.ctx.taint.reg(src);
            self.ctx.taint.set_mem_range(sp, 8, tag);
        }
        self.cpu.set(Reg::SP, sp);
        Ok(())
    }

    #[inline]
    fn exec_pop(&mut self, dst: Reg) -> Result<(), Fault> {
        let sp = self.cpu.get(Reg::SP);
        let v = self.ctx.mem.read_uint(sp, 8).map_err(Fault::Mem)?;
        if self.dift_on {
            let t = self.ctx.taint.mem_range_tag(sp, 8);
            self.ctx.taint.set_reg(dst, t);
        }
        if self.prov_on {
            self.t_prov_folds += 1;
            let o = self.ctx.origin.mem_range(sp, 8);
            self.ctx.origin.set_reg(dst, o);
        }
        self.cpu.set(dst, v);
        self.cpu.set(Reg::SP, sp.wrapping_add(8));
        Ok(())
    }

    #[inline]
    fn exec_alu(&mut self, op: AluOp, dst: Reg, src: Operand, pc: u64) -> Result<(), Fault> {
        let a = self.cpu.get(dst);
        let b = self.operand(&src);
        let r = alu(op, a, b);
        if r.div_by_zero {
            return Err(Fault::DivByZero { pc });
        }
        self.cpu.set(dst, r.value);
        self.cpu.flags = r.flags;
        if self.dift_on {
            // x86 zeroing idioms break the dependency.
            let zeroing = matches!(op, AluOp::Xor | AluOp::Sub) && src == Operand::Reg(dst);
            let t = if zeroing {
                Tag::CLEAN
            } else {
                self.ctx.taint.reg(dst) | self.operand_tag(&src)
            };
            self.ctx.taint.set_reg(dst, t);
            self.ctx.taint.flags = t;
            if self.prov_on {
                let s = if zeroing {
                    OriginSpan::NONE
                } else {
                    self.ctx.origin.reg(dst).join(self.operand_origin(&src))
                };
                self.ctx.origin.set_reg(dst, s);
                self.ctx.origin.flags = s;
            }
        }
        Ok(())
    }

    #[inline]
    fn exec_cmp(&mut self, lhs: Reg, rhs: Operand) {
        self.cpu.flags = cmp_flags(self.cpu.get(lhs), self.operand(&rhs));
        if self.dift_on {
            self.ctx.taint.flags = self.ctx.taint.reg(lhs) | self.operand_tag(&rhs);
            if self.prov_on {
                self.ctx.origin.flags = self.ctx.origin.reg(lhs).join(self.operand_origin(&rhs));
            }
        }
    }

    #[inline]
    fn exec_jcc(&mut self, cc: teapot_isa::Cc, target: u64, pc: u64) {
        // Port-contention sink: a secret deciding a branch (§6.2.2).
        if self.in_sim()
            && self.dift_on
            && self.policy == Policy::Kasper
            && self.ctx.taint.flags.is_secret()
        {
            let t = self.ctx.taint.flags;
            let o = self.ctx.origin.flags;
            self.report(
                Channel::Port,
                t,
                pc,
                "secret influences a conditional branch",
                o,
            );
        }
        let mut taken = self.cpu.flags.eval(cc);
        if self.invert_next_branch {
            taken = !taken;
            self.invert_next_branch = false;
        }
        if taken {
            self.cpu.pc = target;
        }
    }

    #[inline]
    fn exec_storei(
        &mut self,
        imm: i32,
        mem: &MemRef,
        size: AccessSize,
        pc: u64,
    ) -> Result<(), Fault> {
        self.do_store(
            mem,
            size,
            imm as i64 as u64,
            Tag::CLEAN,
            OriginSpan::NONE,
            pc,
        )
    }

    #[inline]
    fn exec_lea(&mut self, dst: Reg, mem: &MemRef) {
        let a = self.ea(mem);
        self.cpu.set(dst, a);
        if self.dift_on {
            let t = self.ea_tag(mem);
            self.ctx.taint.set_reg(dst, t);
        }
        if self.prov_on {
            let s = self.ea_origin(mem);
            self.ctx.origin.set_reg(dst, s);
        }
    }

    #[inline]
    fn exec_test(&mut self, lhs: Reg, rhs: Operand) {
        self.cpu.flags = test_flags(self.cpu.get(lhs), self.operand(&rhs));
        if self.dift_on {
            self.ctx.taint.flags = self.ctx.taint.reg(lhs) | self.operand_tag(&rhs);
            if self.prov_on {
                self.ctx.origin.flags = self.ctx.origin.reg(lhs).join(self.operand_origin(&rhs));
            }
        }
    }

    #[inline]
    fn exec_set(&mut self, cc: teapot_isa::Cc, dst: Reg) {
        let v = self.cpu.flags.eval(cc) as u64;
        self.cpu.set(dst, v);
        if self.dift_on {
            let t = self.ctx.taint.flags;
            self.ctx.taint.set_reg(dst, t);
        }
        if self.prov_on {
            let s = self.ctx.origin.flags;
            self.ctx.origin.set_reg(dst, s);
        }
    }

    #[inline]
    fn exec_sim_check(&mut self) {
        if self.in_sim() {
            let frame = self.ctx.checkpoints.last().expect("in_sim");
            let executed = self.prog_insts - frame.insts_at_entry;
            if executed >= self.opts.config.rob_budget as u64 {
                self.rollback();
            }
        }
    }

    #[inline]
    fn exec_cov_trace(&mut self, guard: u32) {
        if self.in_sim() {
            self.ctx.cov_spec.hit(guard);
        } else {
            self.ctx.cov_normal.hit(guard);
        }
    }

    #[inline]
    fn exec_cov_note(&mut self, guard: u32) {
        if self.in_sim() {
            self.ctx.covnotes.push(guard);
        } else {
            self.ctx.cov_normal.hit(guard);
        }
    }

    /// `sim.start` body: the PHT speculation gate and checkpoint entry.
    /// `branch_orig` and `sid` are pure functions of the instruction's
    /// address, so the interpreter resolves them per execution while the
    /// compiled tier hands in the values baked into the record.
    #[inline]
    fn exec_sim_start(
        &mut self,
        tramp: u64,
        branch_orig: u64,
        sid: Option<u32>,
        pc: u64,
        next_pc: u64,
        heur: &mut SpecHeuristics,
    ) {
        let depth = self.ctx.checkpoints.len() as u32;
        let enter = if !self.pht_on {
            // Conditional-branch misprediction is not part of the
            // active model set: the instrumentation stays inert.
            false
        } else if depth == 0 {
            heur.enter_top_at(sid, branch_orig)
        } else if self.nested_on {
            heur.enter_nested_at(
                sid,
                branch_orig,
                depth,
                self.opts.config.max_nesting,
                self.opts.config.full_depth_runs,
            )
        } else {
            false
        };
        if self.trace {
            eprintln!(
                "[trace] sim.start at {pc:#x} (orig {branch_orig:#x}) depth {depth} -> {}",
                if enter { "ENTER" } else { "skip" }
            );
        }
        if enter {
            self.push_checkpoint(next_pc, branch_orig, false, SpecModel::Pht);
            self.cpu.pc = tramp;
        }
    }

    /// `asan.check` body: the shadow probe whose verdict the next
    /// guarded access consumes. The verdict is only consumed during
    /// simulation; outside it the probe is a pure read with no
    /// observer — skip.
    #[inline]
    fn asan_probe(&mut self, mem: &MemRef, size: AccessSize, pc: u64) {
        if self.in_sim() {
            let addr = self.ea(mem);
            let n = size.bytes();
            let oob = self.ctx.asan.is_poisoned(addr, n) || !self.ctx.mem.is_mapped(addr, n);
            if self.trace && oob {
                eprintln!(
                    "[trace] asan OOB at {pc:#x} addr {addr:#x} depth {}",
                    self.ctx.checkpoints.len()
                );
            }
            self.pending_oob = Some(PendingOob { oob });
            if oob && self.policy == Policy::SpecFuzz {
                self.report_specfuzz(pc);
            }
        }
    }

    fn exec(
        &mut self,
        inst: Inst<u64>,
        pc: u64,
        next_pc: u64,
        heur: &mut SpecHeuristics,
    ) -> Result<Step, Fault> {
        match inst {
            Inst::Nop | Inst::MarkerNop => {}
            Inst::Halt => return Ok(Step::Stop(ExitStatus::Halt)),
            Inst::MovRR { dst, src } => self.exec_mov_rr(dst, src),
            Inst::MovRI { dst, imm } => self.exec_mov_ri(dst, imm),
            Inst::Load {
                dst,
                mem,
                size,
                sext,
            } => {
                if self.exec_load(dst, &mem, size, sext, pc, heur)? {
                    return Ok(Step::Continue);
                }
            }
            Inst::Store { src, mem, size } => self.exec_store(src, &mem, size, pc)?,
            Inst::StoreI { imm, mem, size } => self.exec_storei(imm, &mem, size, pc)?,
            Inst::Lea { dst, mem } => self.exec_lea(dst, &mem),
            Inst::Push { src } => self.exec_push(src, pc)?,
            Inst::Pop { dst } => self.exec_pop(dst)?,
            Inst::Alu { op, dst, src } => self.exec_alu(op, dst, src, pc)?,
            Inst::Neg { dst } => {
                let a = self.cpu.get(dst);
                let (r, cf, of) = crate::cpu::sub_flags(0, a);
                self.cpu.set(dst, r);
                self.cpu.flags = Flags {
                    zf: r == 0,
                    sf: (r as i64) < 0,
                    cf,
                    of,
                };
                if self.dift_on {
                    self.ctx.taint.flags = self.ctx.taint.reg(dst);
                }
                if self.prov_on {
                    self.ctx.origin.flags = self.ctx.origin.reg(dst);
                }
            }
            Inst::Not { dst } => {
                let v = !self.cpu.get(dst);
                self.cpu.set(dst, v);
            }
            Inst::Cmp { lhs, rhs } => self.exec_cmp(lhs, rhs),
            Inst::Test { lhs, rhs } => self.exec_test(lhs, rhs),
            Inst::Set { cc, dst } => self.exec_set(cc, dst),
            Inst::Cmov { cc, dst, src } => {
                // cmov is NOT speculated (paper Appendix A.1): it executes
                // architecturally in both modes with no misprediction hook.
                if self.cpu.flags.eval(cc) {
                    self.cpu.set(dst, self.cpu.get(src));
                    if self.dift_on {
                        let t = self.ctx.taint.reg(src) | self.ctx.taint.flags;
                        self.ctx.taint.set_reg(dst, t);
                    }
                    if self.prov_on {
                        let s = self.ctx.origin.reg(src).join(self.ctx.origin.flags);
                        self.ctx.origin.set_reg(dst, s);
                    }
                }
            }
            Inst::Jmp { target } => self.cpu.pc = target,
            Inst::Jcc { cc, target } => self.exec_jcc(cc, target, pc),
            Inst::Call { target } => {
                let sp = self.cpu.get(Reg::SP).wrapping_sub(8);
                self.store_at(
                    sp,
                    AccessSize::B8,
                    next_pc,
                    Tag::CLEAN,
                    Tag::CLEAN,
                    pc,
                    OriginSpan::NONE,
                    OriginSpan::NONE,
                )?;
                self.cpu.set(Reg::SP, sp);
                if self.asan_on && !self.in_sim() {
                    self.ctx.asan.poison_ret_slot(sp);
                }
                self.cpu.pc = target;
                if self.rsb_on {
                    self.rsb_push(next_pc);
                }
            }
            Inst::CallInd { target } => {
                let t = self.cpu.get(target);
                let sp = self.cpu.get(Reg::SP).wrapping_sub(8);
                self.store_at(
                    sp,
                    AccessSize::B8,
                    next_pc,
                    Tag::CLEAN,
                    Tag::CLEAN,
                    pc,
                    OriginSpan::NONE,
                    OriginSpan::NONE,
                )?;
                self.cpu.set(Reg::SP, sp);
                if self.asan_on && !self.in_sim() {
                    self.ctx.asan.poison_ret_slot(sp);
                }
                self.cpu.pc = t;
                if self.rsb_on {
                    self.rsb_push(next_pc);
                }
            }
            Inst::JmpInd { target } => {
                self.cpu.pc = self.cpu.get(target);
            }
            Inst::Ret => {
                let sp = self.cpu.get(Reg::SP);
                let t = self.ctx.mem.read_uint(sp, 8).map_err(Fault::Mem)?;
                if self.asan_on && !self.in_sim() {
                    self.ctx.asan.unpoison_ret_slot(sp);
                }
                self.cpu.set(Reg::SP, sp.wrapping_add(8));
                self.cpu.pc = t;
                if self.rsb_on {
                    self.rsb.pop();
                    self.maybe_mispredict_return(pc, t, heur);
                }
            }
            Inst::Syscall { num } => {
                if self.in_sim() {
                    // External calls cannot be recovered: unconditional
                    // restore (paper §6.1). The rewriter inserts `sim.end`
                    // before these; this is the safety net.
                    self.rollback();
                    return Ok(Step::Continue);
                }
                return self.syscall(num);
            }
            Inst::Lfence | Inst::Cpuid => {
                // Serializing: speculation cannot pass (paper §6.1).
                if self.in_sim() {
                    self.rollback();
                    return Ok(Step::Continue);
                }
            }

            // ----------------------------------------------------------
            // Instrumentation
            // ----------------------------------------------------------
            Inst::SimStart { tramp } => {
                let branch_orig = self.orig_pc(pc);
                let sid = self.prog.site_id_of(pc);
                self.exec_sim_start(tramp, branch_orig, sid, pc, next_pc, heur);
            }
            Inst::SimCheck => self.exec_sim_check(),
            Inst::SimEnd => {
                if self.in_sim() {
                    self.rollback();
                }
            }
            Inst::AsanCheck {
                mem,
                size,
                is_write: _,
            } => self.asan_probe(&mem, size, pc),
            Inst::MemLog { .. } => {
                // Cost marker: the VM logs every speculative store
                // itself, so the opcode only prices the paper's snippet.
            }
            Inst::TagProp | Inst::TagBlockProp { .. } => {
                // Cost markers: the taint engine is always precise.
            }
            Inst::IndCheck { kind } => {
                if self.in_sim() && !self.single_copy {
                    return self.ind_check(kind, pc);
                }
            }
            Inst::CovTrace { guard } => self.exec_cov_trace(guard),
            Inst::CovNote { guard } => self.exec_cov_note(guard),
            Inst::Guard => {
                // The `if (in_simulation)` conditional of single-copy
                // instrumentation (paper Listing 3): pure overhead.
            }
        }
        Ok(Step::Continue)
    }

    /// Indirect-branch integrity check (paper §5.3, Listing 4).
    fn ind_check(&mut self, kind: IndKind, _pc: u64) -> Result<Step, Fault> {
        let target = match kind {
            IndKind::Ret => self
                .ctx
                .mem
                .read_uint(self.cpu.get(Reg::SP), 8)
                .map_err(Fault::Mem)?,
            IndKind::Call(r) | IndKind::Jmp(r) => self.cpu.get(r),
        };
        let meta = self.prog.meta().expect("ind.check requires metadata");
        if meta.in_shadow(target) {
            return Ok(Step::Continue);
        }
        let redirect = if meta.in_real(target) {
            // Probe for the special marker NOP at the target block (one
            // byte, no temporary buffer; an unmapped byte is no marker).
            let marked = match self.ctx.mem.read_u8(target) {
                Ok(b) => matches!(decode_at(&[b], target), Ok((Inst::MarkerNop, _))),
                Err(_) => false,
            };
            if marked {
                meta.shadow_of(target)
            } else {
                None
            }
        } else {
            None
        };
        match redirect {
            Some(shadow_target) => {
                // Redirect the pointer itself; register/memory effects are
                // undone at rollback.
                match kind {
                    IndKind::Ret => {
                        let sp = self.cpu.get(Reg::SP);
                        self.store_at(
                            sp,
                            AccessSize::B8,
                            shadow_target,
                            Tag::CLEAN,
                            Tag::CLEAN,
                            _pc,
                            OriginSpan::NONE,
                            OriginSpan::NONE,
                        )?;
                    }
                    IndKind::Call(r) | IndKind::Jmp(r) => {
                        self.cpu.set(r, shadow_target);
                    }
                }
                Ok(Step::Continue)
            }
            None => {
                // Unidentified target: forced rollback (paper §5.3).
                self.rollback();
                Ok(Step::Continue)
            }
        }
    }

    fn syscall(&mut self, num: u16) -> Result<Step, Fault> {
        match num {
            sys::EXIT => return Ok(Step::Stop(ExitStatus::Exit(self.cpu.get(Reg::R1) as i64))),
            sys::READ_INPUT => {
                let buf = self.cpu.get(Reg::R1);
                let len = self.cpu.get(Reg::R2) as usize;
                let avail = self.opts.input.len().saturating_sub(self.input_pos);
                let n = len.min(avail);
                {
                    let ctx = &mut *self.ctx;
                    ctx.mem
                        .write_n(buf, &self.opts.input[self.input_pos..self.input_pos + n])
                        .map_err(Fault::Mem)?;
                }
                if self.dift_on && self.opts.config.taint_input_sources && n > 0 {
                    self.ctx.taint.set_mem_range(buf, n as u64, Tag::USER);
                    if self.prov_on {
                        // Provenance ground truth: guest byte `buf + i`
                        // originates from input offset `input_pos + i`.
                        self.ctx
                            .origin
                            .set_input_range(buf, n as u64, self.input_pos);
                        self.t_prov_bytes += n as u64;
                    }
                }
                self.input_pos += n;
                self.cpu.set(Reg::R0, n as u64);
                if self.dift_on {
                    self.ctx.taint.set_reg(Reg::R0, Tag::CLEAN);
                }
                if self.prov_on {
                    self.ctx.origin.set_reg(Reg::R0, OriginSpan::NONE);
                }
            }
            sys::INPUT_SIZE => {
                self.cpu.set(Reg::R0, self.opts.input.len() as u64);
            }
            sys::WRITE => {
                let buf = self.cpu.get(Reg::R1);
                let len = self.cpu.get(Reg::R2);
                {
                    let ctx = &mut *self.ctx;
                    ctx.mem
                        .read_append(buf, len, &mut ctx.output)
                        .map_err(Fault::Mem)?;
                }
                self.cpu.set(Reg::R0, len);
            }
            sys::MALLOC => {
                let size = self.cpu.get(Reg::R1);
                let (base, map_start, map_len) = self.ctx.asan.malloc(size);
                self.ctx.mem.map_region(map_start, map_len, true);
                // Fill the redzones with ASan's classic 0xfa pattern:
                // speculative out-of-bounds reads observe non-zero
                // "heap garbage", as they would in a real process.
                self.ctx.mem.poke_fill(map_start, base - map_start, 0xfa);
                let tail = base + size.max(1);
                self.ctx
                    .mem
                    .poke_fill(tail, map_start + map_len - tail, 0xfa);
                self.cpu.set(Reg::R0, base);
                if self.dift_on {
                    self.ctx.taint.set_reg(Reg::R0, Tag::CLEAN);
                }
                if self.prov_on {
                    self.ctx.origin.set_reg(Reg::R0, OriginSpan::NONE);
                }
            }
            sys::FREE => {
                let base = self.cpu.get(Reg::R1);
                self.ctx.asan.free(base);
            }
            sys::PRINT_INT => {
                let v = self.cpu.get(Reg::R1) as i64;
                self.ctx
                    .output
                    .extend_from_slice(format!("{v}\n").as_bytes());
            }
            sys::ABORT => return Ok(Step::Stop(ExitStatus::Abort)),
            sys::MARK_USER => {
                let buf = self.cpu.get(Reg::R1);
                let len = self.cpu.get(Reg::R2);
                if self.dift_on {
                    // No origin-shadow write: `mark_user` taint is not
                    // input-derived, so it contributes no input-byte
                    // provenance (see the taint-module header).
                    self.ctx.taint.union_mem_range(buf, len, Tag::USER);
                }
            }
            _ => return Ok(Step::Stop(ExitStatus::Abort)),
        }
        Ok(Step::Continue)
    }
}
