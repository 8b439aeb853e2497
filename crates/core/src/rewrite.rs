//! The Speculation Shadows rewriting passes: the instrumentation policy
//! of the Real and Shadow Copies, on top of the shared [`crate::reassemble`].

use crate::reassemble::{branches, Emit, Layout, Reassembler, RewriteError, CHECK_INTERVAL};
use teapot_asm::{Assembler, CodeRef};
use teapot_dis::{disassemble, GFunc};
use teapot_isa::{IndKind, Inst};
use teapot_obj::{BinFlags, Binary};
use teapot_rt::FxHashMap as HashMap;

/// The gadget-detection policy compiled into the instrumented binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Policy {
    /// The Kasper policy (paper §6.2): binary ASan + DIFT; reports
    /// `{User,Massage} × {MDS,Cache,Port}` gadgets.
    #[default]
    Kasper,
    /// ASan only (a SpecFuzz-like policy on the Speculation Shadows
    /// architecture) — used for ablation.
    AsanOnly,
}

/// Rewriting options.
#[derive(Debug, Clone)]
pub struct RewriteOptions {
    /// Detection policy.
    pub policy: Policy,
    /// Insert nested-speculation entry points in the Shadow Copy
    /// (paper §6.1; disabled for the Figure 7 run-time comparison).
    pub nested_speculation: bool,
}

impl Default for RewriteOptions {
    fn default() -> Self {
        RewriteOptions {
            policy: Policy::Kasper,
            nested_speculation: true,
        }
    }
}

impl RewriteOptions {
    /// The configuration used for the paper's run-time comparison
    /// (Figure 7): nested speculation and heuristics disabled.
    pub fn perf_comparison() -> RewriteOptions {
        RewriteOptions {
            nested_speculation: false,
            ..RewriteOptions::default()
        }
    }
}

/// Rewrites a COTS binary with Speculation Shadows instrumentation.
///
/// The result carries a `.teapot.meta` note (region bounds, Real→Shadow
/// indirect map, address translation) and keeps a symbol table — the
/// instrumented artifact is self-describing, like the paper's output
/// binaries that embed the runtime library.
///
/// # Errors
///
/// Returns a [`RewriteError`] if disassembly fails or recovered control
/// flow cannot be resolved (the fundamental static-rewriting limitation
/// the paper discusses in §8).
pub fn rewrite(bin: &Binary, opts: &RewriteOptions) -> Result<Binary, RewriteError> {
    let gtir = disassemble(bin)?;
    let mut rs = Reassembler::new(bin, &gtir);
    let mut asm = Assembler::new("teapot");

    // All Real Copies first, so the real region is contiguous; then all
    // Shadow Copies (instrumented blocks + trampolines).
    let mut real: HashMap<u64, Layout> = HashMap::default();
    for f in &gtir.functions {
        real.insert(f.entry, emit_real(&mut rs, &mut asm, f, opts)?);
    }
    let mut shadow: HashMap<u64, Layout> = HashMap::default();
    for f in &gtir.functions {
        shadow.insert(f.entry, emit_shadow(&mut rs, &mut asm, f, opts)?);
    }
    // Embedded code pointers (jump tables, address-taken functions)
    // point at Real Copies.
    rs.copy_data(&mut asm, &real);

    let flags = BinFlags {
        instrumented: true,
        asan: true,
        dift: opts.policy == Policy::Kasper,
        nested_speculation: opts.nested_speculation,
        single_copy: false,
    };
    rs.link(
        asm,
        flags,
        &[("", &real), ("$spec", &shadow)],
        |sym, meta| {
            let mut real_range = (u64::MAX, 0u64);
            let mut shadow_range = (u64::MAX, 0u64);
            for f in &gtir.functions {
                let (fa, fsz) = sym[f.name.as_str()];
                let (sa, ssz) = sym[format!("{}$spec", f.name).as_str()];
                real_range = (real_range.0.min(fa), real_range.1.max(fa + fsz));
                shadow_range = (shadow_range.0.min(sa), shadow_range.1.max(sa + ssz));
                let (robs, sobs) = (&real[&f.entry].blocks, &shadow[&f.entry].blocks);
                meta.indirect_map.extend(
                    f.blocks
                        .iter()
                        .filter(|b| b.indirect_target)
                        .map(|b| (fa + robs[&b.addr], sa + sobs[&b.addr])),
                );
            }
            meta.real_range = real_range;
            meta.shadow_range = shadow_range;
        },
    )
}

/// The Real Copy of `f`: normal semantics plus what normal execution
/// needs — a `sim.start` before every conditional branch, coverage
/// traces, marker NOPs and per-block tag propagation.
fn emit_real(
    rs: &mut Reassembler,
    asm: &mut Assembler,
    f: &GFunc,
    opts: &RewriteOptions,
) -> Result<Layout, RewriteError> {
    let mut e = Emit::new(asm, f.name.clone(), f);
    let mut tramp_idx = 0usize;
    for b in &f.blocks {
        e.block(b);
        if b.indirect_target {
            // Marker NOP: lets the Shadow Copy's integrity check
            // recognize this block as a legal redirect target (§5.3).
            e.ins_orig(b.addr, Inst::MarkerNop);
        }
        if opts.policy == Policy::Kasper {
            // Asynchronous once-per-block tag propagation (§6.2.2).
            e.ins(Inst::TagBlockProp {
                n: b.insts.len().min(65535) as u16,
            });
        }
        for (addr, inst) in &b.insts {
            if let Inst::Jcc { .. } = inst {
                e.ins(Inst::CovTrace {
                    guard: rs.next_guard(),
                });
                let tramp = CodeRef::Sym(format!("{}$tramp{tramp_idx}", f.name));
                tramp_idx += 1;
                e.ins(Inst::SimStart { tramp });
            }
            rs.copy(&mut e, *addr, inst, "")?;
        }
    }
    e.finish(asm)
}

/// The Shadow Copy of `f` (`f$spec`): ASan checks, memory logging,
/// synchronous tag propagation, restore points, indirect-branch
/// integrity checks and lazy speculative coverage, then one trampoline
/// per conditional branch.
fn emit_shadow(
    rs: &mut Reassembler,
    asm: &mut Assembler,
    f: &GFunc,
    opts: &RewriteOptions,
) -> Result<Layout, RewriteError> {
    let mut e = Emit::new(asm, format!("{}$spec", f.name), f);
    let dift = opts.policy == Policy::Kasper;
    let mut nested_tramp_idx = 0usize;
    for b in &f.blocks {
        e.block(b);
        e.ins(Inst::CovNote {
            guard: rs.next_guard(),
        });
        let mut since_check = 0u32;
        let n = b.insts.len();
        for (k, (addr, inst)) in b.insts.iter().enumerate() {
            // Conditional restore points every `CHECK_INTERVAL`
            // instructions and near the end of each block (§6.1).
            since_check += 1;
            if since_check >= CHECK_INTERVAL || (k + 1 == n && n > 1) {
                e.ins(Inst::SimCheck);
                since_check = 0;
            }
            if dift {
                // Synchronous per-instruction tag propagation +
                // tag-change logging (§6.2.2).
                e.ins(Inst::TagProp);
            }
            match *inst {
                // Frame-relative constant-offset accesses are
                // allow-listed (§6.2.1).
                Inst::Load { mem, size, .. } if !mem.is_frame_relative() => rs.ins_mem(
                    &mut e,
                    Inst::AsanCheck {
                        mem,
                        size,
                        is_write: false,
                    },
                ),
                Inst::Store { mem, size, .. } | Inst::StoreI { mem, size, .. } => {
                    if !mem.is_frame_relative() {
                        rs.ins_mem(
                            &mut e,
                            Inst::AsanCheck {
                                mem,
                                size,
                                is_write: true,
                            },
                        );
                    }
                    // Memory log for rollback (§6.1) — all stores,
                    // including frame-relative ones.
                    rs.ins_mem(&mut e, Inst::MemLog { mem, size });
                }
                Inst::Jcc { .. } => {
                    if opts.nested_speculation {
                        let tramp = CodeRef::Sym(format!("{}$tramp{nested_tramp_idx}", f.name));
                        e.ins(Inst::SimStart { tramp });
                    }
                    nested_tramp_idx += 1;
                }
                Inst::CallInd { target } => e.ins(Inst::IndCheck {
                    kind: IndKind::Call(target),
                }),
                Inst::JmpInd { target } => e.ins(Inst::IndCheck {
                    kind: IndKind::Jmp(target),
                }),
                Inst::Ret => e.ins(Inst::IndCheck { kind: IndKind::Ret }),
                // External calls and serializing instructions end the
                // simulation unconditionally (§6.1).
                Inst::Syscall { .. } | Inst::Lfence | Inst::Cpuid | Inst::Halt => {
                    e.ins(Inst::SimEnd)
                }
                _ => {}
            }
            // Direct calls stay in the shadow world (§5.2).
            rs.copy(&mut e, *addr, inst, "$spec")?;
        }
        // Fall-through blocks get a restore point at the end too.
        if b.terminator().is_none() {
            e.ins(Inst::SimCheck);
        }
    }
    // Trampolines after the blocks, so the `f$spec` symbol is the
    // callable shadow entry.
    for (k, br) in branches(f).enumerate() {
        e.bind_symbol(format!("{}$tramp{k}", f.name));
        e.trampoline(&br)?;
    }
    e.finish(asm)
}
