//! The TEA-64 assembler: label-based program construction, layout, and
//! object emission.
//!
//! Both producers of machine code in this repository go through this crate:
//!
//! * the MiniC compiler (`teapot-cc`) assembles each compiled function, and
//! * the Speculation Shadows rewriter (`teapot-core`) *re*assembles the
//!   instrumented Real/Shadow copies — this is the "reassembleable
//!   disassembly" link of the paper's pipeline (§5.2): recovered
//!   instructions go back through ordinary layout with labels, so inserted
//!   instrumentation transparently shifts branch displacements.
//!
//! # Example
//!
//! ```
//! use teapot_asm::{Assembler, CodeRef};
//! use teapot_isa::{Inst, Reg, Operand, AluOp, Cc};
//! use teapot_obj::Linker;
//!
//! let mut asm = Assembler::new("demo");
//! let mut f = asm.func("_start");
//! let done = f.fresh_label();
//! f.ins(Inst::MovRI { dst: Reg::R0, imm: 10 });
//! f.ins(Inst::Cmp { lhs: Reg::R0, rhs: Operand::Imm(10) });
//! f.jcc(Cc::E, done);
//! f.ins(Inst::MovRI { dst: Reg::R0, imm: 0 });
//! f.bind(done);
//! f.ins(Inst::Halt);
//! asm.finish_func(f)?;
//! let obj = asm.finish();
//! let bin = Linker::new().add_object(obj).link("_start").unwrap();
//! assert!(bin.section(".text").unwrap().bytes.len() > 0);
//! # Ok::<(), teapot_asm::AsmError>(())
//! ```

use std::collections::HashMap;
use std::fmt;
use teapot_isa::{encode_at, AccessSize, Inst, MemRef, Reg};
use teapot_obj::{Object, RelocKind, SectionId, SectionKind, SymbolKind};

/// A local code label inside one function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Label(usize);

/// A branch/call target before layout: a local label or a named symbol.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CodeRef {
    /// A label inside the current function.
    Label(Label),
    /// A (possibly external) symbol, resolved by the linker.
    Sym(String),
}

impl From<Label> for CodeRef {
    fn from(l: Label) -> CodeRef {
        CodeRef::Label(l)
    }
}

impl fmt::Display for CodeRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodeRef::Label(l) => write!(f, ".L{}", l.0),
            CodeRef::Sym(s) => write!(f, "{s}"),
        }
    }
}

/// Where a symbol patch lands inside an instruction encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PatchWhere {
    /// The 32-bit memory displacement (absolute address of a global).
    Disp,
    /// The immediate field (width decided by the encoder).
    Imm,
}

/// A symbol reference carried by a non-branch instruction operand.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SymPatch {
    sym: String,
    addend: i64,
    place: PatchWhere,
}

#[derive(Debug, Clone)]
enum Item {
    Inst {
        inst: Inst<CodeRef>,
        patch: Option<SymPatch>,
    },
    Bind(Label),
    BindSym(String),
}

/// Errors produced during assembly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmError {
    /// A label was referenced but never bound.
    UnboundLabel(String, usize),
    /// A label was bound twice.
    RebindLabel(String, usize),
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::UnboundLabel(func, l) => {
                write!(f, "label .L{l} in `{func}` is never bound")
            }
            AsmError::RebindLabel(func, l) => {
                write!(f, "label .L{l} in `{func}` bound twice")
            }
        }
    }
}

impl std::error::Error for AsmError {}

/// Assembly of a single function. Created by [`Assembler::func`], consumed
/// by [`Assembler::finish_func`].
#[derive(Debug)]
pub struct FuncAsm {
    name: String,
    items: Vec<Item>,
    next_label: usize,
    jump_tables: Vec<(String, Vec<Label>)>,
}

impl FuncAsm {
    /// Returns a fresh, unbound label.
    pub fn fresh_label(&mut self) -> Label {
        let l = Label(self.next_label);
        self.next_label += 1;
        l
    }

    /// Binds `label` to the current position.
    pub fn bind(&mut self, label: Label) {
        self.items.push(Item::Bind(label));
    }

    /// Defines an additional global symbol at the current position.
    ///
    /// The Speculation Shadows rewriter uses this to give Shadow Copies
    /// (`f$spec`) and trampolines linkable names while keeping them in the
    /// same layout unit as their labels.
    pub fn bind_symbol(&mut self, name: impl Into<String>) {
        self.items.push(Item::BindSym(name.into()));
    }

    /// Emits an instruction whose memory-operand displacement is patched
    /// to `sym + addend` by the linker (data re-symbolization during
    /// rewriting).
    ///
    /// # Panics
    ///
    /// Panics at layout time if the instruction has no memory operand.
    pub fn ins_disp_sym(&mut self, inst: Inst<CodeRef>, sym: impl Into<String>, addend: i64) {
        self.items.push(Item::Inst {
            inst,
            patch: Some(SymPatch {
                sym: sym.into(),
                addend,
                place: PatchWhere::Disp,
            }),
        });
    }

    /// Emits a `mov dst, &sym + addend` with a 64-bit relocated immediate.
    pub fn ins_imm_sym(&mut self, dst: Reg, sym: impl Into<String>, addend: i64) {
        self.items.push(Item::Inst {
            inst: Inst::MovRI { dst, imm: i64::MAX },
            patch: Some(SymPatch {
                sym: sym.into(),
                addend,
                place: PatchWhere::Imm,
            }),
        });
    }

    /// Emits an instruction (targets may be labels or symbols).
    pub fn ins(&mut self, inst: Inst<CodeRef>) {
        self.items.push(Item::Inst { inst, patch: None });
    }

    /// Emits a plain instruction that carries no code target.
    ///
    /// # Panics
    ///
    /// Panics if the instruction has a branch target (use [`FuncAsm::ins`],
    /// [`FuncAsm::jmp`] or [`FuncAsm::jcc`] for those).
    pub fn raw(&mut self, inst: Inst<u64>) {
        assert!(
            inst.target().is_none(),
            "raw() requires a targetless instruction"
        );
        self.ins(inst.map_target(|_| unreachable!()));
    }

    /// `jmp label`
    pub fn jmp(&mut self, label: Label) {
        self.ins(Inst::Jmp {
            target: label.into(),
        });
    }

    /// `j{cc} label`
    pub fn jcc(&mut self, cc: teapot_isa::Cc, label: Label) {
        self.ins(Inst::Jcc {
            cc,
            target: label.into(),
        });
    }

    /// `call symbol`
    pub fn call_sym(&mut self, sym: impl Into<String>) {
        self.ins(Inst::Call {
            target: CodeRef::Sym(sym.into()),
        });
    }

    /// `sim.start label` (trampoline entry)
    pub fn sim_start(&mut self, tramp: Label) {
        self.ins(Inst::SimStart {
            tramp: tramp.into(),
        });
    }

    /// Load from a global: `load dst, [sym + addend]`.
    pub fn load_global(
        &mut self,
        dst: Reg,
        sym: impl Into<String>,
        addend: i64,
        size: AccessSize,
        sext: bool,
    ) {
        self.items.push(Item::Inst {
            inst: Inst::Load {
                dst,
                mem: MemRef::abs(0),
                size,
                sext,
            },
            patch: Some(SymPatch {
                sym: sym.into(),
                addend,
                place: PatchWhere::Disp,
            }),
        });
    }

    /// Store to a global: `store [sym + addend], src`.
    pub fn store_global(
        &mut self,
        src: Reg,
        sym: impl Into<String>,
        addend: i64,
        size: AccessSize,
    ) {
        self.items.push(Item::Inst {
            inst: Inst::Store {
                src,
                mem: MemRef::abs(0),
                size,
            },
            patch: Some(SymPatch {
                sym: sym.into(),
                addend,
                place: PatchWhere::Disp,
            }),
        });
    }

    /// `lea dst, [sym + addend]` — materialize a global's address.
    pub fn lea_global(&mut self, dst: Reg, sym: impl Into<String>, addend: i64) {
        self.items.push(Item::Inst {
            inst: Inst::Lea {
                dst,
                mem: MemRef::abs(0),
            },
            patch: Some(SymPatch {
                sym: sym.into(),
                addend,
                place: PatchWhere::Disp,
            }),
        });
    }

    /// `load dst, [index*scale + sym]` — indexed global access
    /// (array reads, jump-table fetches).
    pub fn load_global_indexed(
        &mut self,
        dst: Reg,
        sym: impl Into<String>,
        index: Reg,
        scale: u8,
        size: AccessSize,
        sext: bool,
    ) {
        self.items.push(Item::Inst {
            inst: Inst::Load {
                dst,
                mem: MemRef {
                    base: None,
                    index: Some(index),
                    scale,
                    disp: 0,
                },
                size,
                sext,
            },
            patch: Some(SymPatch {
                sym: sym.into(),
                addend: 0,
                place: PatchWhere::Disp,
            }),
        });
    }

    /// `mov dst, &sym` — a function/data pointer immediate (Abs64 reloc).
    pub fn mov_sym_addr(&mut self, dst: Reg, sym: impl Into<String>) {
        self.items.push(Item::Inst {
            // Out-of-range i32 forces the 64-bit immediate encoding so the
            // linker has a full 8-byte field to patch.
            inst: Inst::MovRI { dst, imm: i64::MAX },
            patch: Some(SymPatch {
                sym: sym.into(),
                addend: 0,
                place: PatchWhere::Imm,
            }),
        });
    }

    /// Registers a jump table whose entries are the absolute addresses of
    /// the given labels; returns the table's symbol name. The table bytes
    /// are emitted to `.rodata` with Abs64 relocations when the function is
    /// finished.
    pub fn jump_table(&mut self, labels: Vec<Label>) -> String {
        let name = format!("{}$jt{}", self.name, self.jump_tables.len());
        self.jump_tables.push((name.clone(), labels));
        name
    }

    /// Number of instructions emitted so far (binds excluded).
    pub fn len(&self) -> usize {
        self.items
            .iter()
            .filter(|i| matches!(i, Item::Inst { .. }))
            .count()
    }

    /// Whether no instructions have been emitted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Assembles functions and data into a [`teapot_obj::Object`].
#[derive(Debug)]
pub struct Assembler {
    obj: Object,
    text: SectionId,
    rodata: SectionId,
    data: SectionId,
    bss: SectionId,
}

impl Assembler {
    /// Creates an assembler for a new compilation unit.
    pub fn new(unit: impl Into<String>) -> Assembler {
        let mut obj = Object::new(unit);
        let text = obj.add_section(".text", SectionKind::Text);
        let rodata = obj.add_section(".rodata", SectionKind::Rodata);
        let data = obj.add_section(".data", SectionKind::Data);
        let bss = obj.add_section(".bss", SectionKind::Bss);
        Assembler {
            obj,
            text,
            rodata,
            data,
            bss,
        }
    }

    /// Starts assembling a (global) function.
    pub fn func(&mut self, name: impl Into<String>) -> FuncAsm {
        FuncAsm {
            name: name.into(),
            items: Vec::new(),
            next_label: 0,
            jump_tables: Vec::new(),
        }
    }

    /// Lays out a finished function: resolves local labels, appends the
    /// bytes to `.text`, emits relocations for symbol references and jump
    /// tables, and defines the function symbol.
    ///
    /// # Errors
    ///
    /// Returns [`AsmError`] if a referenced label was never bound or a
    /// label is bound twice.
    pub fn finish_func(&mut self, f: FuncAsm) -> Result<(), AsmError> {
        // Pass 1: offsets. Lengths are placement-independent.
        let mut label_off: HashMap<Label, u64> = HashMap::new();
        let mut extra_syms: Vec<(String, u64)> = Vec::new();
        let mut off = 0u64;
        for item in &f.items {
            match item {
                Item::Bind(l) => {
                    if label_off.insert(*l, off).is_some() {
                        return Err(AsmError::RebindLabel(f.name.clone(), l.0));
                    }
                }
                Item::BindSym(name) => extra_syms.push((name.clone(), off)),
                Item::Inst { inst, .. } => {
                    off += encoded_len_guess(inst) as u64;
                }
            }
        }
        let func_size = off;
        let func_start = self.obj.section(self.text).bytes.len() as u64;

        // Pass 2: encode. Local-label branches become exact rel32s
        // (rel32 is end-relative, so the common section base cancels).
        // Symbol targets get placeholder bytes plus a Rel32 relocation.
        let mut bytes: Vec<u8> = Vec::new();
        let mut pending_relocs: Vec<(u64, RelocKind, String, i64)> = Vec::new();
        let mut off = 0u64;
        for item in &f.items {
            let (inst, patch) = match item {
                Item::Bind(_) | Item::BindSym(_) => continue,
                Item::Inst { inst, patch } => (inst, patch),
            };
            let len = encoded_len_guess(inst) as u64;
            let mut sym_target: Option<String> = None;
            let mut unbound: Option<usize> = None;
            let resolved: Inst<u64> = inst.clone().map_target(|t| match t {
                CodeRef::Label(l) => match label_off.get(&l) {
                    Some(o) => *o,
                    None => {
                        unbound = Some(l.0);
                        0
                    }
                },
                CodeRef::Sym(s) => {
                    sym_target = Some(s);
                    off + len // placeholder: rel32 == 0
                }
            });
            if let Some(l) = unbound {
                return Err(AsmError::UnboundLabel(f.name.clone(), l));
            }
            let enc = encode_at(&resolved, off);
            debug_assert_eq!(enc.bytes.len() as u64, len);
            if let Some(sym) = sym_target {
                let at = enc
                    .patch
                    .rel32_at
                    .expect("symbol branch target must have rel32 field");
                pending_relocs.push((func_start + off + at as u64, RelocKind::Rel32, sym, 0));
            }
            if let Some(p) = patch {
                match p.place {
                    PatchWhere::Disp => {
                        let at = enc
                            .patch
                            .disp_at
                            .expect("disp patch requires memory operand");
                        pending_relocs.push((
                            func_start + off + at as u64,
                            RelocKind::Abs32,
                            p.sym.clone(),
                            p.addend,
                        ));
                    }
                    PatchWhere::Imm => {
                        let (at, width) = enc
                            .patch
                            .imm_at
                            .expect("imm patch requires immediate operand");
                        assert_eq!(width, 8, "symbol immediates must use the 64-bit form");
                        pending_relocs.push((
                            func_start + off + at as u64,
                            RelocKind::Abs64,
                            p.sym.clone(),
                            p.addend,
                        ));
                    }
                }
            }
            off += enc.bytes.len() as u64;
            bytes.extend_from_slice(&enc.bytes);
        }
        debug_assert_eq!(off, func_size);

        self.obj
            .section_mut(self.text)
            .bytes
            .extend_from_slice(&bytes);
        self.obj.add_symbol(
            f.name.clone(),
            SymbolKind::Func,
            self.text,
            func_start,
            func_size,
            true,
        );
        for (name, off) in extra_syms {
            self.obj
                .add_symbol(name, SymbolKind::Func, self.text, func_start + off, 0, true);
        }
        for (off, kind, sym, addend) in pending_relocs {
            self.obj.add_reloc(self.text, off, kind, sym, addend);
        }

        // Jump tables: 8-byte absolute entries relocated against the
        // function symbol plus each label's offset.
        for (tname, labels) in f.jump_tables {
            let ro_off = self.obj.section(self.rodata).bytes.len() as u64;
            for (i, l) in labels.iter().enumerate() {
                let loff = *label_off
                    .get(l)
                    .ok_or_else(|| AsmError::UnboundLabel(f.name.clone(), l.0))?;
                self.obj
                    .section_mut(self.rodata)
                    .bytes
                    .extend_from_slice(&0u64.to_le_bytes());
                self.obj.add_reloc(
                    self.rodata,
                    ro_off + (i as u64) * 8,
                    RelocKind::Abs64,
                    f.name.clone(),
                    loff as i64,
                );
            }
            self.obj.add_symbol(
                tname,
                SymbolKind::Object,
                self.rodata,
                ro_off,
                (labels.len() * 8) as u64,
                true,
            );
        }
        Ok(())
    }

    /// Defines an initialized global in `.data`; returns its offset
    /// within the output `.data` section.
    pub fn data(&mut self, name: impl Into<String>, bytes: &[u8]) -> u64 {
        let off = self.obj.section(self.data).bytes.len() as u64;
        self.obj
            .section_mut(self.data)
            .bytes
            .extend_from_slice(bytes);
        self.obj.add_symbol(
            name,
            SymbolKind::Object,
            self.data,
            off,
            bytes.len() as u64,
            true,
        );
        off
    }

    /// Defines an initialized constant in `.rodata`; returns its offset
    /// within the output `.rodata` section.
    pub fn rodata(&mut self, name: impl Into<String>, bytes: &[u8]) -> u64 {
        let off = self.obj.section(self.rodata).bytes.len() as u64;
        self.obj
            .section_mut(self.rodata)
            .bytes
            .extend_from_slice(bytes);
        self.obj.add_symbol(
            name,
            SymbolKind::Object,
            self.rodata,
            off,
            bytes.len() as u64,
            true,
        );
        off
    }

    /// Records a relocation inside the output `.rodata` section
    /// (retargeting copied jump-table entries during rewriting).
    pub fn rodata_reloc(
        &mut self,
        offset: u64,
        kind: RelocKind,
        sym: impl Into<String>,
        addend: i64,
    ) {
        self.obj.add_reloc(self.rodata, offset, kind, sym, addend);
    }

    /// Records a relocation inside the output `.data` section.
    pub fn data_reloc(
        &mut self,
        offset: u64,
        kind: RelocKind,
        sym: impl Into<String>,
        addend: i64,
    ) {
        self.obj.add_reloc(self.data, offset, kind, sym, addend);
    }

    /// Reserves a zero-initialized global in `.bss`.
    pub fn bss(&mut self, name: impl Into<String>, size: u64) {
        let off = self.obj.section(self.bss).mem_size;
        self.obj.section_mut(self.bss).mem_size += size.max(1);
        self.obj
            .add_symbol(name, SymbolKind::Object, self.bss, off, size, true);
    }

    /// Finishes assembly and returns the object.
    pub fn finish(self) -> Object {
        self.obj
    }
}

/// Length of an instruction regardless of target resolution (targets are
/// always rel32, so a dummy value suffices).
fn encoded_len_guess(inst: &Inst<CodeRef>) -> usize {
    let dummy: Inst<u64> = inst.clone().map_target(|_| 0u64);
    teapot_isa::encoded_len(&dummy)
}

/// Encoded length of an instruction before layout. Lengths do not depend
/// on target resolution, which lets the rewriter pre-compute offsets that
/// match the assembler's layout exactly.
pub fn inst_len(inst: &Inst<CodeRef>) -> usize {
    encoded_len_guess(inst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use teapot_isa::{decode_at, Cc, Operand};
    use teapot_obj::Linker;

    #[test]
    fn backward_and_forward_branches_resolve() {
        let mut asm = Assembler::new("t");
        let mut f = asm.func("_start");
        let top = f.fresh_label();
        let out = f.fresh_label();
        f.ins(Inst::MovRI {
            dst: Reg::R0,
            imm: 3,
        });
        f.bind(top);
        f.ins(Inst::Alu {
            op: teapot_isa::AluOp::Sub,
            dst: Reg::R0,
            src: Operand::Imm(1),
        });
        f.jcc(Cc::E, out);
        f.jmp(top);
        f.bind(out);
        f.raw(Inst::Halt);
        asm.finish_func(f).unwrap();
        let bin = Linker::new()
            .add_object(asm.finish())
            .link("_start")
            .unwrap();
        let text = bin.section(".text").unwrap();
        let mut pc = text.vaddr;
        let mut targets = Vec::new();
        let mut starts = Vec::new();
        while pc < text.vaddr + text.bytes.len() as u64 {
            starts.push(pc);
            let off = (pc - text.vaddr) as usize;
            let (inst, len) = decode_at(&text.bytes[off..], pc).unwrap();
            if let Some(t) = inst.target() {
                targets.push(*t);
            }
            pc += len as u64;
        }
        assert_eq!(targets.len(), 2);
        for t in targets {
            assert!(starts.contains(&t), "target {t:#x} not a boundary");
        }
    }

    #[test]
    fn unbound_label_is_an_error() {
        let mut asm = Assembler::new("t");
        let mut f = asm.func("f");
        let l = f.fresh_label();
        f.jmp(l);
        let err = asm.finish_func(f).unwrap_err();
        assert!(matches!(err, AsmError::UnboundLabel(_, 0)));
    }

    #[test]
    fn rebound_label_is_an_error() {
        let mut asm = Assembler::new("t");
        let mut f = asm.func("f");
        let l = f.fresh_label();
        f.bind(l);
        f.bind(l);
        let err = asm.finish_func(f).unwrap_err();
        assert!(matches!(err, AsmError::RebindLabel(_, 0)));
    }

    #[test]
    fn global_data_reference_links() {
        let mut asm = Assembler::new("t");
        asm.data("counter", &42i64.to_le_bytes());
        let mut f = asm.func("_start");
        f.load_global(Reg::R0, "counter", 0, AccessSize::B8, false);
        f.store_global(Reg::R0, "counter", 0, AccessSize::B8);
        f.raw(Inst::Halt);
        asm.finish_func(f).unwrap();
        let bin = Linker::new()
            .add_object(asm.finish())
            .link("_start")
            .unwrap();
        let counter = bin.find_symbol("counter").unwrap().addr;
        let text = bin.section(".text").unwrap();
        let (load, _) = decode_at(&text.bytes, text.vaddr).unwrap();
        match load {
            Inst::Load { mem, .. } => {
                assert_eq!(mem.disp as u64, counter);
            }
            other => panic!("expected load, got {other}"),
        }
    }

    #[test]
    fn function_pointer_immediate_links() {
        let mut asm = Assembler::new("t");
        let mut g = asm.func("callee");
        g.raw(Inst::Ret);
        asm.finish_func(g).unwrap();
        let mut f = asm.func("_start");
        f.mov_sym_addr(Reg::R6, "callee");
        f.ins(Inst::CallInd { target: Reg::R6 });
        f.raw(Inst::Halt);
        asm.finish_func(f).unwrap();
        let bin = Linker::new()
            .add_object(asm.finish())
            .link("_start")
            .unwrap();
        let callee = bin.find_symbol("callee").unwrap().addr;
        let start = bin.find_symbol("_start").unwrap().addr;
        let text = bin.section(".text").unwrap();
        let off = (start - text.vaddr) as usize;
        let (mov, _) = decode_at(&text.bytes[off..], start).unwrap();
        assert_eq!(
            mov,
            Inst::MovRI {
                dst: Reg::R6,
                imm: callee as i64
            }
        );
    }

    #[test]
    fn jump_table_entries_point_at_labels() {
        let mut asm = Assembler::new("t");
        let mut f = asm.func("_start");
        let (a, b) = (f.fresh_label(), f.fresh_label());
        let table = f.jump_table(vec![a, b]);
        f.load_global_indexed(Reg::R6, table, Reg::R1, 8, AccessSize::B8, false);
        f.ins(Inst::JmpInd { target: Reg::R6 });
        f.bind(a);
        f.raw(Inst::Halt);
        f.bind(b);
        f.raw(Inst::Halt);
        asm.finish_func(f).unwrap();
        let bin = Linker::new()
            .add_object(asm.finish())
            .link("_start")
            .unwrap();
        let ro = bin.section(".rodata").unwrap();
        let e0 = u64::from_le_bytes(ro.bytes[0..8].try_into().unwrap());
        let e1 = u64::from_le_bytes(ro.bytes[8..16].try_into().unwrap());
        assert!(bin.is_code_addr(e0));
        assert!(bin.is_code_addr(e1));
        assert!(e1 > e0);
    }

    #[test]
    fn cross_function_call_via_symbol() {
        let mut asm = Assembler::new("t");
        let mut g = asm.func("helper");
        g.ins(Inst::MovRI {
            dst: Reg::R0,
            imm: 7,
        });
        g.raw(Inst::Ret);
        asm.finish_func(g).unwrap();
        let mut f = asm.func("_start");
        f.call_sym("helper");
        f.raw(Inst::Halt);
        asm.finish_func(f).unwrap();
        let bin = Linker::new()
            .add_object(asm.finish())
            .link("_start")
            .unwrap();
        let helper = bin.find_symbol("helper").unwrap().addr;
        let start = bin.find_symbol("_start").unwrap().addr;
        let text = bin.section(".text").unwrap();
        let off = (start - text.vaddr) as usize;
        let (call, _) = decode_at(&text.bytes[off..], start).unwrap();
        assert_eq!(call, Inst::Call { target: helper });
    }

    #[test]
    fn bss_allocation() {
        let mut asm = Assembler::new("t");
        asm.bss("buf", 4096);
        asm.bss("buf2", 128);
        let mut f = asm.func("_start");
        f.raw(Inst::Halt);
        asm.finish_func(f).unwrap();
        let bin = Linker::new()
            .add_object(asm.finish())
            .link("_start")
            .unwrap();
        let b1 = bin.find_symbol("buf").unwrap();
        let b2 = bin.find_symbol("buf2").unwrap();
        assert_eq!(b2.addr - b1.addr, 4096);
    }

    #[test]
    fn sim_start_targets_trampoline_label() {
        let mut asm = Assembler::new("t");
        let mut f = asm.func("_start");
        let tramp = f.fresh_label();
        f.sim_start(tramp);
        f.raw(Inst::Halt);
        f.bind(tramp);
        f.raw(Inst::Nop);
        asm.finish_func(f).unwrap();
        let bin = Linker::new()
            .add_object(asm.finish())
            .link("_start")
            .unwrap();
        let text = bin.section(".text").unwrap();
        let (ss, len) = decode_at(&text.bytes, text.vaddr).unwrap();
        match ss {
            Inst::SimStart { tramp } => {
                // trampoline = after sim.start (len) + halt (1 byte)
                assert_eq!(tramp, text.vaddr + len as u64 + 1);
            }
            other => panic!("expected sim.start, got {other}"),
        }
    }
}
