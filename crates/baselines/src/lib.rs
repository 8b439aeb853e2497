//! The two prior-work baselines Teapot is evaluated against
//! (paper §2.2, §3, §7):
//!
//! * [`specfuzz_rewrite`] — a **SpecFuzz-style single-copy rewriter**:
//!   normal execution and speculation simulation share one instance of
//!   the code, so every instrumentation site carries an
//!   `if (in_simulation)` guard conditional (paper Listing 3) that
//!   executes in *both* modes. The policy is ASan-only: every speculative
//!   out-of-bounds access is flagged as a gadget, which is where
//!   SpecFuzz's false positives come from (§7.2). It adds only that
//!   policy: copying, re-symbolization, data retargeting and linking are
//!   [`teapot_core::reassemble`]'s, shared with the Speculation Shadows
//!   rewriter, so Figure 7 compares instrumentation and nothing else.
//! * [`spectaint_options`] — the **SpecTaint-style emulator** setup: the
//!   original, uninstrumented binary runs under full-system emulation
//!   with DIFT ([`teapot_vm::EmuStyle::SpecTaint`]); every guest
//!   instruction pays the emulation cost, nested exploration is
//!   depth-first with at most five simulations per branch, and — lacking
//!   program-level information — every user-controlled load is assumed
//!   to yield a secret (§3.1).

use teapot_asm::Assembler;
use teapot_core::reassemble::{branches, Emit, Layout, Reassembler, CHECK_INTERVAL};
use teapot_core::RewriteError;
use teapot_dis::disassemble;
use teapot_isa::Inst;
use teapot_obj::{BinFlags, Binary};
use teapot_rt::FxHashMap as HashMap;
use teapot_vm::{EmuStyle, HeurStyle, RunOptions, SpecHeuristics};

/// Options for the SpecFuzz-style rewriter.
#[derive(Debug, Clone)]
pub struct SpecFuzzOptions {
    /// Enable nested speculation entry points.
    pub nested_speculation: bool,
}

impl Default for SpecFuzzOptions {
    fn default() -> Self {
        SpecFuzzOptions {
            nested_speculation: true,
        }
    }
}

impl SpecFuzzOptions {
    /// Figure 7 configuration: nested speculation disabled.
    pub fn perf_comparison() -> SpecFuzzOptions {
        SpecFuzzOptions {
            nested_speculation: false,
        }
    }
}

/// Rewrites a COTS binary with SpecFuzz-style *single-copy*
/// instrumentation.
///
/// The output architecturally matches the paper's Listing 3: checkpoints
/// before conditional branches, guarded ASan checks and memory logging on
/// every non-frame memory access, guarded restore points — all sharing
/// one code instance with normal execution.
///
/// # Errors
///
/// Returns a [`RewriteError`] if disassembly or reassembly fails.
pub fn specfuzz_rewrite(bin: &Binary, opts: &SpecFuzzOptions) -> Result<Binary, RewriteError> {
    let gtir = disassemble(bin)?;
    let mut rs = Reassembler::new(bin, &gtir);
    let mut asm = Assembler::new("specfuzz");
    let mut layouts: HashMap<u64, Layout> = HashMap::default();
    for f in &gtir.functions {
        let mut e = Emit::new(&mut asm, f.name.clone(), f);
        let tramps: Vec<_> = branches(f).map(|_| e.fresh_label()).collect();
        let mut next_tramp = tramps.iter();
        for b in &f.blocks {
            e.block(b);
            let mut since_check = 0u32;
            for (addr, inst) in &b.insts {
                since_check += 1;
                if since_check >= CHECK_INTERVAL {
                    e.ins(Inst::Guard);
                    e.ins(Inst::SimCheck);
                    since_check = 0;
                }
                match *inst {
                    Inst::Jcc { .. } => {
                        e.ins(Inst::CovTrace {
                            guard: rs.next_guard(),
                        });
                        // Listing 3 line 1: guarded checkpoint entry.
                        e.ins(Inst::Guard);
                        let tramp = *next_tramp.next().expect("one label per branch");
                        e.ins(Inst::SimStart {
                            tramp: tramp.into(),
                        });
                    }
                    Inst::Load { mem, size, .. } if !mem.is_frame_relative() => {
                        e.ins(Inst::Guard);
                        rs.ins_mem(
                            &mut e,
                            Inst::AsanCheck {
                                mem,
                                size,
                                is_write: false,
                            },
                        );
                    }
                    Inst::Store { mem, size, .. } | Inst::StoreI { mem, size, .. } => {
                        if !mem.is_frame_relative() {
                            e.ins(Inst::Guard);
                            rs.ins_mem(
                                &mut e,
                                Inst::AsanCheck {
                                    mem,
                                    size,
                                    is_write: true,
                                },
                            );
                        }
                        e.ins(Inst::Guard);
                        rs.ins_mem(&mut e, Inst::MemLog { mem, size });
                    }
                    Inst::Syscall { .. } | Inst::Lfence | Inst::Cpuid | Inst::Halt => {
                        e.ins(Inst::Guard);
                        e.ins(Inst::SimEnd);
                    }
                    _ => {}
                }
                rs.copy(&mut e, *addr, inst, "")?;
            }
            if b.terminator().is_none() {
                e.ins(Inst::Guard);
                e.ins(Inst::SimCheck);
            }
        }
        // Trampolines at the end of the function, into the SAME copy
        // (single-instance design).
        for (br, l) in branches(f).zip(tramps) {
            e.bind(l);
            e.trampoline(&br)?;
        }
        layouts.insert(f.entry, e.finish(&mut asm)?);
    }
    rs.copy_data(&mut asm, &layouts);

    let flags = BinFlags {
        instrumented: true,
        asan: true,
        dift: false,
        nested_speculation: opts.nested_speculation,
        single_copy: true,
    };
    // Address translation only: a single copy has no shadow region.
    rs.link(asm, flags, &[("", &layouts)], |_, _| {})
}

/// [`RunOptions`] for a SpecTaint-style emulator run of an uninstrumented
/// binary, plus the matching [`SpecHeuristics`].
pub fn spectaint_options(input: Vec<u8>) -> (RunOptions, SpecHeuristics) {
    (
        RunOptions {
            input,
            emu: EmuStyle::SpecTaint,
            ..RunOptions::default()
        },
        SpecHeuristics::new(HeurStyle::SpecTaintFive),
    )
}

/// Fresh heuristics state matching SpecFuzz's gradual-deepening policy.
pub fn specfuzz_heuristics() -> SpecHeuristics {
    SpecHeuristics::new(HeurStyle::SpecFuzzGradual)
}

#[cfg(test)]
mod tests {
    use super::*;
    use teapot_cc::{compile_to_binary, Options};
    use teapot_vm::{ExitStatus, Machine};

    fn cots(src: &str) -> Binary {
        let mut b = compile_to_binary(src, &Options::gcc_like()).unwrap();
        b.strip();
        b
    }

    const VICTIM: &str = "
        char bar[256];
        int baz;
        char inbuf[8];
        int main() {
            char *foo = malloc(16);
            read_input(inbuf, 8);
            int index = inbuf[0];
            if (index < 10) {
                int secret = foo[index];
                baz = bar[secret];
            }
            return index;
        }";

    fn run(bin: &Binary, input: &[u8]) -> teapot_vm::RunOutcome {
        let mut heur = specfuzz_heuristics();
        Machine::new(
            bin,
            RunOptions {
                input: input.to_vec(),
                ..RunOptions::default()
            },
        )
        .run(&mut heur)
    }

    #[test]
    fn single_copy_rewrite_preserves_semantics() {
        let orig = cots(VICTIM);
        let sf = specfuzz_rewrite(&orig, &SpecFuzzOptions::default()).unwrap();
        assert!(sf.flags.single_copy);
        for input in [&[5u8][..], &[100], b"ab"] {
            let a = run(&orig, input);
            let b = run(&sf, input);
            assert_eq!(a.status, b.status, "input {input:?}");
        }
    }

    #[test]
    fn specfuzz_flags_speculative_oob_as_gadget() {
        let orig = cots(VICTIM);
        let sf = specfuzz_rewrite(&orig, &SpecFuzzOptions::default()).unwrap();
        let out = run(&sf, &[200]);
        assert_eq!(out.status, ExitStatus::Exit(200));
        assert!(
            !out.gadgets.is_empty(),
            "SpecFuzz must report the OOB access"
        );
        // All SpecFuzz reports land in the single User-MDS bucket
        // (no taint tracking → no classification).
        for g in &out.gadgets {
            assert_eq!(g.bucket(), "User-MDS");
        }
    }

    #[test]
    fn guards_execute_in_normal_mode() {
        // The defining overhead of the single-copy design: guard
        // conditionals run during normal execution too.
        use teapot_isa::decode_at;
        let orig = cots(VICTIM);
        let sf = specfuzz_rewrite(&orig, &SpecFuzzOptions::default()).unwrap();
        let text = sf.section(".text").unwrap();
        let mut pc = text.vaddr;
        let mut guards = 0;
        while pc < text.vaddr + text.bytes.len() as u64 {
            let off = (pc - text.vaddr) as usize;
            let (i, len) = decode_at(&text.bytes[off..], pc).unwrap();
            if matches!(i, Inst::Guard) {
                guards += 1;
            }
            pc += len as u64;
        }
        assert!(guards > 3, "guard conditionals present: {guards}");
    }

    #[test]
    fn spectaint_emulation_runs_and_reports() {
        let orig = cots(VICTIM);
        let (opts, mut heur) = spectaint_options(vec![200]);
        let out = Machine::new(&orig, opts).run(&mut heur);
        assert_eq!(out.status, ExitStatus::Exit(200));
        assert!(!out.gadgets.is_empty(), "SpecTaint flags the transmission");
    }

    #[test]
    fn teapot_is_faster_than_specfuzz_is_faster_than_spectaint() {
        // The Figure 1 / Figure 7 ordering on a micro-workload.
        let orig = cots(VICTIM);
        let teapot =
            teapot_core::rewrite(&orig, &teapot_core::RewriteOptions::perf_comparison()).unwrap();
        let sf = specfuzz_rewrite(&orig, &SpecFuzzOptions::perf_comparison()).unwrap();
        let input = vec![5u8; 8];
        let t = run(&teapot, &input);
        let s = run(&sf, &input);
        let (opts, mut heur) = spectaint_options(input.clone());
        let st = Machine::new(&orig, opts).run(&mut heur);
        let native = {
            let mut h = SpecHeuristics::default();
            Machine::new(
                &orig,
                RunOptions {
                    input,
                    ..RunOptions::default()
                },
            )
            .run(&mut h)
        };
        assert!(t.cost > native.cost, "instrumentation costs something");
        assert!(
            st.cost > s.cost * 5,
            "SpecTaint ({}) must dwarf SpecFuzz ({})",
            st.cost,
            s.cost
        );
        // Teapot comparable to SpecFuzz (paper: 0.5×–2.0×).
        assert!(
            t.cost < s.cost * 2,
            "teapot {} vs specfuzz {}",
            t.cost,
            s.cost
        );
    }
}
