//! The deterministic cost model behind all run-time performance
//! experiments (paper Figures 1 and 7).
//!
//! "Run time" in this reproduction is a count of **host-cost units**
//! accumulated by the VM: a plain architectural instruction costs
//! [`PLAIN_INST`]; each instrumentation opcode costs what the equivalent
//! inline assembly snippet of the paper's implementation would execute.
//! Both rewriters copy, re-symbolize and link through the same
//! `teapot_core::reassemble`, so the Teapot-vs-SpecFuzz comparison
//! reduces to the *difference in executed instrumentation* (guard
//! conditionals, always-on ASan) — exactly the effect Speculation
//! Shadows targets — while the SpecTaint emulation multiplier is
//! calibrated once against the ratios in the paper's Figure 1 and then
//! reused unchanged for Figure 7. Each
//! constant's doc names the paper mechanism whose snippet it prices.

/// Cost of a plain architectural instruction.
pub const PLAIN_INST: u64 = 1;

/// `sim.start`: pack GPRs + FLAGS + PC + SSE registers into a checkpoint
/// and branch to the trampoline (paper §6.1 "Checkpoint").
pub const SIM_START: u64 = 40;

/// Fixed part of a rollback: restore registers, return to checkpoint PC.
pub const ROLLBACK_BASE: u64 = 30;

/// Per-entry cost of replaying the memory log in reverse during rollback.
pub const ROLLBACK_PER_LOG: u64 = 2;

/// `sim.check` (conditional restore point): instruction-counter test.
pub const SIM_CHECK: u64 = 3;

/// `sim.end` (unconditional restore point): jump into the rollback stub.
pub const SIM_END: u64 = 2;

/// `asan.check`: shadow address compute, shadow load, test, branch.
pub const ASAN_CHECK: u64 = 8;

/// `memlog`: log address + original contents, bump the log pointer.
pub const MEMLOG: u64 = 6;

/// `tag.prop`: synchronous per-instruction tag transfer plus tag-change
/// log entry (Shadow Copy DIFT, paper §6.2.2).
pub const TAG_PROP: u64 = 4;

/// `tag.blockprop(n)`: the asynchronous once-per-block compiled snippet of
/// the Real Copy (paper §6.2.2). Cost: fixed dispatch plus one unit per
/// covered instruction — much cheaper than `n` × [`TAG_PROP`].
#[inline]
pub fn tag_block_prop(n: u16) -> u64 {
    2 + n as u64
}

/// `ind.check`: range check plus marker-NOP probe (paper §5.3).
pub const IND_CHECK: u64 = 10;

/// `cov.trace`: SanitizerCoverage guard callback (clobbers registers —
/// "has a non-negligible overhead", paper §6.3).
pub const COV_TRACE: u64 = 6;

/// `cov.note`: lazy speculative-coverage note append (the paper's
/// optimization that defers the map update to rollback).
pub const COV_NOTE: u64 = 2;

/// Flushing one noted guard into the coverage map at rollback.
pub const COV_FLUSH_PER_NOTE: u64 = 3;

/// `guard`: the `if (in_simulation)` load + test + branch around every
/// instrumentation site in single-copy baselines (paper Listing 3).
/// Speculation Shadows exists to delete these.
pub const GUARD: u64 = 3;

/// SpecTaint-style emulation: cost per *guest* instruction of the
/// QEMU/DECAF dynamic-translation + whole-system DIFT pipeline.
/// Calibrated against paper Figure 1 (SpecTaint ≈ 11–28× SpecFuzz).
pub const EMU_PER_INST: u64 = 150;

/// SpecTaint-style checkpoint or rollback: emulator state save/restore
/// plus translation-block flush.
pub const EMU_CHECKPOINT: u64 = 500;

/// RSB-model misprediction entry: the VM checkpoints at a `ret` and
/// redirects to a stale return-stack entry. Priced like a `sim.start`
/// checkpoint plus the shadow-stack lookup — no instrumentation exists
/// for it, the simulator does the work itself.
pub const RSB_CHECKPOINT: u64 = 44;

/// STL-model misprediction entry: the VM checkpoints at a load and
/// forwards the stale pre-store value from its simulated store buffer.
/// Priced like a `sim.start` checkpoint plus the store-buffer scan.
pub const STL_CHECKPOINT: u64 = 48;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_prop_beats_sync_prop() {
        // The Real Copy optimization must be cheaper than synchronous
        // propagation for any non-trivial block.
        for n in 1..=512u16 {
            assert!(tag_block_prop(n) <= TAG_PROP * n as u64 + 2);
        }
        assert!(tag_block_prop(10) < 10 * TAG_PROP);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn guard_overhead_is_positive() {
        // The whole point of Speculation Shadows: guards cost something.
        assert!(GUARD > 0);
        assert!(GUARD < ASAN_CHECK);
    }

    #[test]
    fn emulation_dwarfs_native_instrumentation() {
        // SpecTaint's per-instruction emulation cost must dominate every
        // native instrumentation snippet, or Figure 1 could not reproduce.
        for c in [
            SIM_START, ASAN_CHECK, MEMLOG, TAG_PROP, IND_CHECK, COV_TRACE,
        ] {
            assert!(EMU_PER_INST > c);
        }
    }
}
