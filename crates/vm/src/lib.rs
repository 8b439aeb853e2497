//! The TEA-64 virtual machine — the execution substrate behind every
//! Teapot experiment.
//!
//! The VM plays two roles from the paper:
//!
//! 1. **Native execution** of (instrumented) binaries: it implements the
//!    architectural semantics of TEA-64 plus the run-time services that
//!    the paper's runtime support library provides — checkpoints, the
//!    memory log, rollback (§6.1), binary ASan (§6.2.1), the DIFT tag
//!    shadow (§6.2.2), gadget reporting (§6.2.3), and two-level coverage
//!    (§6.3). Performance is accounted in deterministic *host-cost units*
//!    (see `teapot-rt::cost`).
//! 2. **SpecTaint-style full-system emulation** ([`EmuStyle::SpecTaint`])
//!    of uninstrumented binaries, used by the baseline comparisons of
//!    Figures 1 and 7 and the detection experiments.
//!
//! # Example
//!
//! ```
//! use teapot_asm::Assembler;
//! use teapot_isa::{Inst, Reg};
//! use teapot_obj::Linker;
//! use teapot_vm::{Machine, RunOptions, SpecHeuristics, ExitStatus};
//!
//! let mut asm = Assembler::new("demo");
//! let mut f = asm.func("_start");
//! f.ins(Inst::MovRI { dst: Reg::R1, imm: 0 });
//! f.ins(Inst::Syscall { num: teapot_isa::sys::EXIT });
//! asm.finish_func(f)?;
//! let bin = Linker::new().add_object(asm.finish()).link("_start").unwrap();
//! let mut heur = SpecHeuristics::default();
//! let outcome = Machine::new(&bin, RunOptions::default()).run(&mut heur);
//! assert_eq!(outcome.status, ExitStatus::Exit(0));
//! # Ok::<(), teapot_asm::AsmError>(())
//! ```

mod asan;
mod cpu;
mod heuristics;
mod machine;
mod mem;
mod program;
mod slab;
mod taint;

pub use asan::{AsanEngine, REDZONE};
pub use cpu::{alu, cmp_flags, test_flags, AluResult, Cpu, Flags};
pub use heuristics::{HeurStyle, SpecHeuristics};
pub use machine::{
    DispatchTier, EmuStyle, ExecContext, ExitStatus, Fault, Machine, RunOptions, RunOutcome,
    RunStats,
};
pub use mem::{MemFault, PagedMem, PAGE_SIZE};
pub use program::{CompileStats, DecodeStats, Program};
pub use taint::TaintEngine;
pub use teapot_rt::{SpecModel, SpecModelSet};
pub use teapot_telemetry::{BlockProfile, HotBlock, VmCounters};
