//! Speculation Shadows — the Teapot rewriter (the paper's core
//! contribution, §5–§6).
//!
//! [`rewrite`] consumes a COTS [`teapot_obj::Binary`], disassembles it,
//! and produces a new binary in which every function exists twice:
//!
//! * the **Real Copy** executes normal program semantics and carries only
//!   the instrumentation normal execution needs: a `sim.start` checkpoint
//!   before every conditional branch, coverage traces, marker NOPs at
//!   potential indirect-branch targets, and the *asynchronous per-block*
//!   DIFT propagation of §6.2.2;
//! * the **Shadow Copy** (`f$spec`) simulates transient execution and
//!   carries everything else: ASan checks, memory logging, synchronous tag
//!   propagation, conditional/unconditional restore points,
//!   indirect-branch integrity checks, and lazy speculative coverage.
//!
//! Because the two copies are separate code, none of this instrumentation
//! needs the `if (in_simulation)` guard conditional that single-copy
//! designs execute at every site (paper Listing 3) — that is the entire
//! performance argument of the paper, and the SpecFuzz-style baseline in
//! `teapot-baselines` exists to measure it.
//!
//! Control flow can never leave the mode it belongs to: direct branches
//! and calls are retargeted at rewrite time; returns, indirect calls and
//! indirect jumps in the Shadow Copy are guarded by `ind.check`, which
//! consults the marker NOPs and the Real→Shadow map recorded in the
//! binary's `.teapot.meta` note (§5.3).
//!
//! Disassembly, instruction copying with data re-symbolization, branch
//! retargeting, trampolines, data-section copying and linking live in
//! [`reassemble`], which the SpecFuzz-style baseline uses too: the two
//! rewriters differ only in the instrumentation they add.
//!
//! # Example
//!
//! ```
//! use teapot_cc::{compile_to_binary, Options};
//! use teapot_core::{rewrite, RewriteOptions};
//!
//! let mut cots = compile_to_binary(
//!     "char a[8]; char b[256]; char inbuf[8]; int g;
//!      int main() {
//!          read_input(inbuf, 8);
//!          int i = inbuf[0];
//!          if (i < 8) { g = b[a[i]]; }
//!          return 0;
//!      }",
//!     &Options::gcc_like(),
//! ).unwrap();
//! cots.strip(); // no symbols: the COTS scenario
//! let instrumented = rewrite(&cots, &RewriteOptions::default())?;
//! assert!(instrumented.flags.instrumented);
//! assert!(instrumented.note(".teapot.meta").is_some());
//! # Ok::<(), teapot_core::RewriteError>(())
//! ```

pub mod reassemble;
mod rewrite;

pub use reassemble::RewriteError;
pub use rewrite::{rewrite, Policy, RewriteOptions};
