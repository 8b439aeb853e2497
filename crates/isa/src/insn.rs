//! The TEA-64 instruction forms.

use crate::Reg;
use std::fmt;

/// Maximum encoded length of any TEA-64 instruction, in bytes.
pub const INST_MAX_LEN: usize = 12;

/// Memory access width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AccessSize {
    /// One byte.
    B1,
    /// Two bytes.
    B2,
    /// Four bytes.
    B4,
    /// Eight bytes.
    B8,
}

impl AccessSize {
    /// Number of bytes accessed.
    #[inline]
    pub fn bytes(self) -> u64 {
        match self {
            AccessSize::B1 => 1,
            AccessSize::B2 => 2,
            AccessSize::B4 => 4,
            AccessSize::B8 => 8,
        }
    }

    /// log2 of the byte width, used by the instruction encoder.
    #[inline]
    pub fn log2(self) -> u8 {
        match self {
            AccessSize::B1 => 0,
            AccessSize::B2 => 1,
            AccessSize::B4 => 2,
            AccessSize::B8 => 3,
        }
    }

    /// Inverse of [`AccessSize::log2`].
    #[inline]
    pub fn from_log2(v: u8) -> Option<AccessSize> {
        match v {
            0 => Some(AccessSize::B1),
            1 => Some(AccessSize::B2),
            2 => Some(AccessSize::B4),
            3 => Some(AccessSize::B8),
            _ => None,
        }
    }
}

/// A `base + index*scale + disp` memory reference, as in x86-64.
///
/// # Example
///
/// ```
/// use teapot_isa::{MemRef, Reg};
/// // bar[secret] with 8-byte elements: [r1 + r2*8]
/// let m = MemRef::base_index(Reg::R1, Reg::R2, 8);
/// assert_eq!(m.scale, 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRef {
    /// Optional base register.
    pub base: Option<Reg>,
    /// Optional index register.
    pub index: Option<Reg>,
    /// Scale applied to the index register: 1, 2, 4 or 8.
    pub scale: u8,
    /// Signed 32-bit displacement (also used for absolute addresses of
    /// globals, which the linker keeps below 2³¹).
    pub disp: i32,
}

impl MemRef {
    /// `[base]`
    pub fn base(base: Reg) -> MemRef {
        MemRef {
            base: Some(base),
            index: None,
            scale: 1,
            disp: 0,
        }
    }

    /// `[base + disp]`
    pub fn base_disp(base: Reg, disp: i32) -> MemRef {
        MemRef {
            base: Some(base),
            index: None,
            scale: 1,
            disp,
        }
    }

    /// `[base + index*scale]`
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not 1, 2, 4 or 8.
    pub fn base_index(base: Reg, index: Reg, scale: u8) -> MemRef {
        assert!(matches!(scale, 1 | 2 | 4 | 8), "invalid scale {scale}");
        MemRef {
            base: Some(base),
            index: Some(index),
            scale,
            disp: 0,
        }
    }

    /// `[disp]` — an absolute address (globals, jump tables).
    pub fn abs(disp: i32) -> MemRef {
        MemRef {
            base: None,
            index: None,
            scale: 1,
            disp,
        }
    }

    /// Whether this reference is a constant offset from the frame or stack
    /// pointer — the ASan allow-list condition of paper §6.2.1.
    pub fn is_frame_relative(&self) -> bool {
        self.index.is_none() && self.base.map(Reg::is_frame_base).unwrap_or(false)
    }

    /// Registers read when computing the effective address.
    pub fn regs(&self) -> impl Iterator<Item = Reg> + '_ {
        self.base.into_iter().chain(self.index)
    }
}

impl fmt::Display for MemRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        let mut wrote = false;
        if let Some(b) = self.base {
            write!(f, "{b}")?;
            wrote = true;
        }
        if let Some(i) = self.index {
            if wrote {
                write!(f, "+")?;
            }
            write!(f, "{i}*{}", self.scale)?;
            wrote = true;
        }
        if self.disp != 0 || !wrote {
            if wrote && self.disp >= 0 {
                write!(f, "+")?;
            }
            write!(f, "{:#x}", self.disp)?;
        }
        write!(f, "]")
    }
}

/// A register-or-immediate source operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A register source.
    Reg(Reg),
    /// A signed 32-bit immediate source.
    Imm(i32),
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(i) => write!(f, "{i}"),
        }
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Operand {
        Operand::Reg(r)
    }
}

impl From<i32> for Operand {
    fn from(i: i32) -> Operand {
        Operand::Imm(i)
    }
}

/// Two-operand ALU operations. All write the destination register; flag
/// behaviour follows x86 conventions (see `teapot-vm`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum AluOp {
    Add = 0,
    Sub = 1,
    And = 2,
    Or = 3,
    Xor = 4,
    Shl = 5,
    Shr = 6,
    Sar = 7,
    Mul = 8,
    /// Signed division; division by zero raises a machine exception, which
    /// the speculation-simulation runtime turns into a rollback (paper
    /// §6.1 "Exceptions").
    Div = 9,
    /// Signed remainder; same exception behaviour as [`AluOp::Div`].
    Rem = 10,
}

impl AluOp {
    /// All operations, indexed by discriminant.
    pub const ALL: [AluOp; 11] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Shl,
        AluOp::Shr,
        AluOp::Sar,
        AluOp::Mul,
        AluOp::Div,
        AluOp::Rem,
    ];

    /// Decode from the discriminant byte.
    pub fn from_u8(v: u8) -> Option<AluOp> {
        AluOp::ALL.get(v as usize).copied()
    }

    /// Mnemonic text.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Shl => "shl",
            AluOp::Shr => "shr",
            AluOp::Sar => "sar",
            AluOp::Mul => "mul",
            AluOp::Div => "div",
            AluOp::Rem => "rem",
        }
    }
}

/// Branch/`set`/`cmov` condition codes, mirroring x86 semantics over the
/// `ZF`/`SF`/`CF`/`OF` flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Cc {
    /// Equal (`ZF`).
    E = 0,
    /// Not equal (`!ZF`).
    Ne = 1,
    /// Signed less (`SF != OF`).
    L = 2,
    /// Signed less-or-equal (`ZF || SF != OF`).
    Le = 3,
    /// Signed greater (`!ZF && SF == OF`).
    G = 4,
    /// Signed greater-or-equal (`SF == OF`).
    Ge = 5,
    /// Unsigned below (`CF`).
    B = 6,
    /// Unsigned below-or-equal (`CF || ZF`).
    Be = 7,
    /// Unsigned above (`!CF && !ZF`).
    A = 8,
    /// Unsigned above-or-equal (`!CF`).
    Ae = 9,
    /// Sign set (`SF`).
    S = 10,
    /// Sign clear (`!SF`).
    Ns = 11,
}

impl Cc {
    /// All condition codes, indexed by discriminant.
    pub const ALL: [Cc; 12] = [
        Cc::E,
        Cc::Ne,
        Cc::L,
        Cc::Le,
        Cc::G,
        Cc::Ge,
        Cc::B,
        Cc::Be,
        Cc::A,
        Cc::Ae,
        Cc::S,
        Cc::Ns,
    ];

    /// Decode from the discriminant byte.
    pub fn from_u8(v: u8) -> Option<Cc> {
        Cc::ALL.get(v as usize).copied()
    }

    /// The logical negation of this condition (`jcc` ↔ `j!cc`).
    ///
    /// The Speculation Shadows trampoline uses the *same* condition with
    /// *swapped* targets, so this is mainly used by the compiler and by
    /// tests.
    pub fn negate(self) -> Cc {
        match self {
            Cc::E => Cc::Ne,
            Cc::Ne => Cc::E,
            Cc::L => Cc::Ge,
            Cc::Le => Cc::G,
            Cc::G => Cc::Le,
            Cc::Ge => Cc::L,
            Cc::B => Cc::Ae,
            Cc::Be => Cc::A,
            Cc::A => Cc::Be,
            Cc::Ae => Cc::B,
            Cc::S => Cc::Ns,
            Cc::Ns => Cc::S,
        }
    }

    /// Mnemonic suffix (`j{suffix}`, `set{suffix}`, `cmov{suffix}`).
    pub fn mnemonic(self) -> &'static str {
        match self {
            Cc::E => "e",
            Cc::Ne => "ne",
            Cc::L => "l",
            Cc::Le => "le",
            Cc::G => "g",
            Cc::Ge => "ge",
            Cc::B => "b",
            Cc::Be => "be",
            Cc::A => "a",
            Cc::Ae => "ae",
            Cc::S => "s",
            Cc::Ns => "ns",
        }
    }
}

/// What kind of indirect control transfer an [`Inst::IndCheck`] guards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndKind {
    /// A `ret`: the target is the return address at `[sp]`.
    Ret,
    /// An indirect call through the given register.
    Call(Reg),
    /// An indirect jump through the given register.
    Jmp(Reg),
}

/// A TEA-64 instruction.
///
/// The type parameter `T` is the representation of code targets: `u64`
/// absolute virtual addresses in decoded/machine form (the default), or a
/// label identifier inside `teapot-asm` before layout.
///
/// Instructions fall into three groups:
///
/// 1. **architectural** — ordinary data movement, ALU, and control flow;
/// 2. **serializing** — [`Inst::Lfence`]/[`Inst::Cpuid`], which terminate
///    speculation simulation (paper §6.1);
/// 3. **instrumentation** — opcodes emitted by the Speculation Shadows
///    rewriter or the SpecFuzz-style baseline, whose semantics are
///    implemented by the `teapot-vm` runtime and whose cost weights stand
///    for the inline snippets of the paper's implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Inst<T = u64> {
    // ------------------------------------------------------------------
    // Data movement
    // ------------------------------------------------------------------
    /// `mov dst, src` (register to register).
    MovRR { dst: Reg, src: Reg },
    /// `mov dst, imm` (64-bit immediate; encoded short when it fits i32).
    MovRI { dst: Reg, imm: i64 },
    /// `load{size} dst, mem` with optional sign extension.
    Load {
        dst: Reg,
        mem: MemRef,
        size: AccessSize,
        sext: bool,
    },
    /// `store{size} mem, src`.
    Store {
        src: Reg,
        mem: MemRef,
        size: AccessSize,
    },
    /// `store{size} mem, imm`.
    StoreI {
        imm: i32,
        mem: MemRef,
        size: AccessSize,
    },
    /// `lea dst, mem` — effective address computation (no memory access).
    Lea { dst: Reg, mem: MemRef },
    /// `push src` — decrement `sp` by 8 and store.
    Push { src: Reg },
    /// `pop dst` — load and increment `sp` by 8.
    Pop { dst: Reg },

    // ------------------------------------------------------------------
    // ALU
    // ------------------------------------------------------------------
    /// `op dst, src` — two-operand ALU; writes FLAGS.
    Alu { op: AluOp, dst: Reg, src: Operand },
    /// `neg dst`.
    Neg { dst: Reg },
    /// `not dst` (no flags).
    Not { dst: Reg },
    /// `cmp lhs, rhs` — FLAGS from `lhs - rhs`.
    Cmp { lhs: Reg, rhs: Operand },
    /// `test lhs, rhs` — FLAGS from `lhs & rhs`.
    Test { lhs: Reg, rhs: Operand },
    /// `set{cc} dst` — dst = cc ? 1 : 0.
    Set { cc: Cc, dst: Reg },
    /// `cmov{cc} dst, src` — conditional move. Crucially, **not
    /// speculated** by the modeled microarchitecture, so if-conversion to
    /// `cmov` removes Spectre-V1 gadgets (paper Appendix A.1).
    Cmov { cc: Cc, dst: Reg, src: Reg },

    // ------------------------------------------------------------------
    // Control flow
    // ------------------------------------------------------------------
    /// `jmp target`.
    Jmp { target: T },
    /// `j{cc} target` — conditional branch; the victim of Spectre-V1.
    Jcc { cc: Cc, target: T },
    /// `call target`.
    Call { target: T },
    /// `call target-reg` — indirect call.
    CallInd { target: Reg },
    /// `jmp target-reg` — indirect jump (jump tables).
    JmpInd { target: Reg },
    /// `ret`.
    Ret,

    // ------------------------------------------------------------------
    // System / serializing
    // ------------------------------------------------------------------
    /// `syscall num` — external-library / OS service (see `teapot-vm`).
    Syscall { num: u16 },
    /// `lfence` — serializing; ends speculation simulation.
    Lfence,
    /// `cpuid` — serializing; ends speculation simulation.
    Cpuid,
    /// `nop`.
    Nop,
    /// The special marker NOP of paper §5.3: an encoding compilers never
    /// generate, placed at legitimate indirect-branch targets in the Real
    /// Copy so the Shadow Copy integrity check can recognize them.
    MarkerNop,
    /// Stop the machine (normal program exit uses `syscall exit`; `halt`
    /// is a hard stop used by startup stubs and tests).
    Halt,

    // ------------------------------------------------------------------
    // Instrumentation (Speculation Shadows + baselines)
    // ------------------------------------------------------------------
    /// `sim.start tramp` — checkpoint the current state and enter the
    /// misprediction trampoline at `tramp` (paper §5.2). Placed before
    /// conditional branches in the Real Copy, and (for nested speculation)
    /// in the Shadow Copy.
    SimStart { tramp: T },
    /// Conditional restore point: roll back if the speculated instruction
    /// budget (reorder-buffer size, 250) is exhausted (paper §6.1).
    SimCheck,
    /// Unconditional restore point (external calls, serializing
    /// instructions, unresolvable indirect targets).
    SimEnd,
    /// Binary-ASan shadow-memory check for the given access (paper §6.2.1).
    AsanCheck {
        mem: MemRef,
        size: AccessSize,
        is_write: bool,
    },
    /// Memory log: record the prior contents of `mem` so rollback can
    /// restore it (paper §6.1).
    MemLog { mem: MemRef, size: AccessSize },
    /// Synchronous per-instruction DIFT tag propagation (Shadow Copy).
    TagProp,
    /// Asynchronous once-per-basic-block DIFT tag propagation covering `n`
    /// instructions (Real Copy optimization of paper §6.2.2).
    TagBlockProp { n: u16 },
    /// Indirect-branch integrity check (paper §5.3).
    IndCheck { kind: IndKind },
    /// SanitizerCoverage-style trace for normal execution (paper §6.3).
    CovTrace { guard: u32 },
    /// Lazy speculative-coverage note, flushed at rollback (paper §6.3).
    CovNote { guard: u32 },
    /// The `if (in_simulation)` guard conditional of prior work
    /// (paper Listing 3) — emitted only by the SpecFuzz-style baseline;
    /// Speculation Shadows exists to eliminate these.
    Guard,
}

impl<T> Inst<T> {
    /// Whether this instruction ends a basic block (any control transfer
    /// or machine stop).
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            Inst::Jmp { .. } | Inst::Jcc { .. } | Inst::JmpInd { .. } | Inst::Ret | Inst::Halt
        )
    }

    /// Whether this is one of the instrumentation opcodes (never present
    /// in COTS input binaries).
    pub fn is_instrumentation(&self) -> bool {
        matches!(
            self,
            Inst::SimStart { .. }
                | Inst::SimCheck
                | Inst::SimEnd
                | Inst::AsanCheck { .. }
                | Inst::MemLog { .. }
                | Inst::TagProp
                | Inst::TagBlockProp { .. }
                | Inst::IndCheck { .. }
                | Inst::CovTrace { .. }
                | Inst::CovNote { .. }
                | Inst::Guard
        )
    }

    /// Registers read by this instruction (approximate; used for analyses
    /// such as insertion-point selection and tests).
    pub fn uses(&self) -> Vec<Reg> {
        fn op(out: &mut Vec<Reg>, o: &Operand) {
            if let Operand::Reg(r) = o {
                out.push(*r);
            }
        }
        let mut out = Vec::new();
        match self {
            Inst::MovRR { src, .. } => out.push(*src),
            Inst::MovRI { .. } => {}
            Inst::Load { mem, .. } | Inst::Lea { mem, .. } => out.extend(mem.regs()),
            Inst::Store { src, mem, .. } => {
                out.push(*src);
                out.extend(mem.regs());
            }
            Inst::StoreI { mem, .. } => out.extend(mem.regs()),
            Inst::Push { src } => {
                out.push(*src);
                out.push(Reg::SP);
            }
            Inst::Pop { .. } => out.push(Reg::SP),
            Inst::Alu { dst, src, .. } => {
                out.push(*dst);
                op(&mut out, src);
            }
            Inst::Neg { dst } | Inst::Not { dst } => out.push(*dst),
            Inst::Cmp { lhs, rhs } | Inst::Test { lhs, rhs } => {
                out.push(*lhs);
                op(&mut out, rhs);
            }
            Inst::Set { .. } => {}
            Inst::Cmov { dst, src, .. } => {
                out.push(*dst);
                out.push(*src);
            }
            Inst::CallInd { target } | Inst::JmpInd { target } => out.push(*target),
            Inst::Ret => out.push(Reg::SP),
            Inst::AsanCheck { mem, .. } | Inst::MemLog { mem, .. } => out.extend(mem.regs()),
            Inst::IndCheck { kind } => match kind {
                IndKind::Ret => out.push(Reg::SP),
                IndKind::Call(r) | IndKind::Jmp(r) => out.push(*r),
            },
            _ => {}
        }
        out
    }

    /// Registers written by this instruction (approximate).
    pub fn defs(&self) -> Vec<Reg> {
        match self {
            Inst::MovRR { dst, .. }
            | Inst::MovRI { dst, .. }
            | Inst::Load { dst, .. }
            | Inst::Lea { dst, .. }
            | Inst::Alu { dst, .. }
            | Inst::Neg { dst }
            | Inst::Not { dst }
            | Inst::Set { dst, .. }
            | Inst::Cmov { dst, .. } => vec![*dst],
            Inst::Pop { dst } => vec![*dst, Reg::SP],
            Inst::Push { .. } => vec![Reg::SP],
            Inst::Call { .. } | Inst::CallInd { .. } => vec![Reg::SP],
            Inst::Ret => vec![Reg::SP],
            Inst::Syscall { .. } => vec![Reg::RV],
            _ => vec![],
        }
    }

    /// Whether this instruction writes the FLAGS register.
    ///
    /// The Port-contention policy (paper §6.2.2) reports a gadget when any
    /// operand of the *last FLAGS writer* before a conditional branch is
    /// secret-tainted.
    pub fn writes_flags(&self) -> bool {
        matches!(
            self,
            Inst::Alu { .. } | Inst::Neg { .. } | Inst::Cmp { .. } | Inst::Test { .. }
        )
    }

    /// Map the code-target representation, e.g. label IDs → addresses.
    pub fn map_target<U>(self, mut f: impl FnMut(T) -> U) -> Inst<U> {
        match self {
            Inst::Jmp { target } => Inst::Jmp { target: f(target) },
            Inst::Jcc { cc, target } => Inst::Jcc {
                cc,
                target: f(target),
            },
            Inst::Call { target } => Inst::Call { target: f(target) },
            Inst::SimStart { tramp } => Inst::SimStart { tramp: f(tramp) },
            // Everything else carries no target; rebuild variant-by-variant.
            Inst::MovRR { dst, src } => Inst::MovRR { dst, src },
            Inst::MovRI { dst, imm } => Inst::MovRI { dst, imm },
            Inst::Load {
                dst,
                mem,
                size,
                sext,
            } => Inst::Load {
                dst,
                mem,
                size,
                sext,
            },
            Inst::Store { src, mem, size } => Inst::Store { src, mem, size },
            Inst::StoreI { imm, mem, size } => Inst::StoreI { imm, mem, size },
            Inst::Lea { dst, mem } => Inst::Lea { dst, mem },
            Inst::Push { src } => Inst::Push { src },
            Inst::Pop { dst } => Inst::Pop { dst },
            Inst::Alu { op, dst, src } => Inst::Alu { op, dst, src },
            Inst::Neg { dst } => Inst::Neg { dst },
            Inst::Not { dst } => Inst::Not { dst },
            Inst::Cmp { lhs, rhs } => Inst::Cmp { lhs, rhs },
            Inst::Test { lhs, rhs } => Inst::Test { lhs, rhs },
            Inst::Set { cc, dst } => Inst::Set { cc, dst },
            Inst::Cmov { cc, dst, src } => Inst::Cmov { cc, dst, src },
            Inst::CallInd { target } => Inst::CallInd { target },
            Inst::JmpInd { target } => Inst::JmpInd { target },
            Inst::Ret => Inst::Ret,
            Inst::Syscall { num } => Inst::Syscall { num },
            Inst::Lfence => Inst::Lfence,
            Inst::Cpuid => Inst::Cpuid,
            Inst::Nop => Inst::Nop,
            Inst::MarkerNop => Inst::MarkerNop,
            Inst::Halt => Inst::Halt,
            Inst::SimCheck => Inst::SimCheck,
            Inst::SimEnd => Inst::SimEnd,
            Inst::AsanCheck {
                mem,
                size,
                is_write,
            } => Inst::AsanCheck {
                mem,
                size,
                is_write,
            },
            Inst::MemLog { mem, size } => Inst::MemLog { mem, size },
            Inst::TagProp => Inst::TagProp,
            Inst::TagBlockProp { n } => Inst::TagBlockProp { n },
            Inst::IndCheck { kind } => Inst::IndCheck { kind },
            Inst::CovTrace { guard } => Inst::CovTrace { guard },
            Inst::CovNote { guard } => Inst::CovNote { guard },
            Inst::Guard => Inst::Guard,
        }
    }

    /// The code target carried by this instruction, if any.
    pub fn target(&self) -> Option<&T> {
        match self {
            Inst::Jmp { target } | Inst::Jcc { target, .. } | Inst::Call { target } => Some(target),
            Inst::SimStart { tramp } => Some(tramp),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_size_round_trip() {
        for s in [
            AccessSize::B1,
            AccessSize::B2,
            AccessSize::B4,
            AccessSize::B8,
        ] {
            assert_eq!(AccessSize::from_log2(s.log2()), Some(s));
            assert_eq!(1u64 << s.log2(), s.bytes());
        }
        assert_eq!(AccessSize::from_log2(4), None);
    }

    #[test]
    fn cc_negation_is_involutive() {
        for cc in Cc::ALL {
            assert_eq!(cc.negate().negate(), cc);
            assert_ne!(cc.negate(), cc);
        }
    }

    #[test]
    fn memref_frame_relative() {
        assert!(MemRef::base_disp(Reg::SP, 8).is_frame_relative());
        assert!(MemRef::base_disp(Reg::FP, -16).is_frame_relative());
        assert!(!MemRef::base_disp(Reg::R1, 0).is_frame_relative());
        assert!(!MemRef::base_index(Reg::SP, Reg::R2, 8).is_frame_relative());
        assert!(!MemRef::abs(0x1000).is_frame_relative());
    }

    #[test]
    fn terminators() {
        let j: Inst = Inst::Jmp { target: 0 };
        assert!(j.is_terminator());
        assert!(Inst::<u64>::Ret.is_terminator());
        assert!(!Inst::<u64>::Nop.is_terminator());
        assert!(!Inst::<u64>::Call { target: 0u64 }.is_terminator());
    }

    #[test]
    fn instrumentation_classification() {
        assert!(Inst::<u64>::SimCheck.is_instrumentation());
        assert!(Inst::<u64>::Guard.is_instrumentation());
        assert!(!Inst::<u64>::MarkerNop.is_instrumentation());
        assert!(!Inst::<u64>::Lfence.is_instrumentation());
    }

    #[test]
    fn flags_writers() {
        let add: Inst = Inst::Alu {
            op: AluOp::Add,
            dst: Reg::R0,
            src: Operand::Imm(1),
        };
        assert!(add.writes_flags());
        assert!(Inst::<u64>::Cmp {
            lhs: Reg::R0,
            rhs: Operand::Imm(0)
        }
        .writes_flags());
        assert!(!Inst::<u64>::MovRR {
            dst: Reg::R0,
            src: Reg::R1
        }
        .writes_flags());
        assert!(!Inst::<u64>::Not { dst: Reg::R0 }.writes_flags());
    }

    #[test]
    fn map_target_rewrites_branches() {
        let j: Inst<&str> = Inst::Jcc {
            cc: Cc::E,
            target: "a",
        };
        let j2 = j.map_target(|_| 0x40u64);
        assert_eq!(
            j2,
            Inst::Jcc {
                cc: Cc::E,
                target: 0x40
            }
        );
        let s: Inst<&str> = Inst::SimStart { tramp: "t" };
        assert_eq!(s.map_target(|_| 1u64), Inst::SimStart { tramp: 1 });
    }

    #[test]
    fn uses_and_defs() {
        let st: Inst = Inst::Store {
            src: Reg::R3,
            mem: MemRef::base_index(Reg::R1, Reg::R2, 8),
            size: AccessSize::B8,
        };
        let uses = st.uses();
        assert!(uses.contains(&Reg::R3));
        assert!(uses.contains(&Reg::R1));
        assert!(uses.contains(&Reg::R2));
        assert!(st.defs().is_empty());

        let pop: Inst = Inst::Pop { dst: Reg::R4 };
        assert!(pop.defs().contains(&Reg::R4));
        assert!(pop.defs().contains(&Reg::SP));
    }
}
