//! The reassembler both rewriters share: disassembled functions are
//! copied instruction by instruction into a new object, with absolute
//! data operands re-symbolized, direct branches retargeted, data
//! sections copied with their code pointers retargeted, and the result
//! linked with a `.teapot.meta` note.
//!
//! What a rewriter adds around each copied instruction — its
//! instrumentation policy — stays with the rewriter: the Real and Shadow
//! Copies of [`crate::rewrite`], and the single guarded copy of the
//! SpecFuzz-style baseline in `teapot-baselines`. Because both go through
//! this module, the Figure 7 comparison between them differs only in the
//! instrumentation they execute.

use std::fmt;
use teapot_asm::{inst_len, AsmError, Assembler, CodeRef, FuncAsm, Label};
use teapot_dis::{DisError, GBlock, GFunc, Gtir};
use teapot_isa::{encoded_len, Cc, Inst, MemRef, Reg};
use teapot_obj::{BinFlags, Binary, LinkError, Linker, LoadedSection, RelocKind, SectionKind};
use teapot_rt::FxHashMap as HashMap;
use teapot_rt::TeapotMeta;

/// Conditional restore points at least every this many instructions
/// (paper §6.1).
pub const CHECK_INTERVAL: u32 = 50;

/// Rewriting errors.
#[derive(Debug)]
pub enum RewriteError {
    /// Disassembly failed.
    Dis(DisError),
    /// Reassembly failed (internal).
    Asm(AsmError),
    /// Relinking failed (internal).
    Link(LinkError),
    /// A branch targets an address outside its function's recovered
    /// blocks — heuristic disassembly failure (paper §8).
    UnresolvedTarget { branch: u64, target: u64 },
}

impl fmt::Display for RewriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RewriteError::Dis(e) => write!(f, "disassembly failed: {e}"),
            RewriteError::Asm(e) => write!(f, "reassembly failed: {e}"),
            RewriteError::Link(e) => write!(f, "relink failed: {e}"),
            RewriteError::UnresolvedTarget { branch, target } => write!(
                f,
                "branch at {branch:#x} targets unrecovered code {target:#x}"
            ),
        }
    }
}

impl std::error::Error for RewriteError {}

impl From<DisError> for RewriteError {
    fn from(e: DisError) -> Self {
        RewriteError::Dis(e)
    }
}
impl From<AsmError> for RewriteError {
    fn from(e: AsmError) -> Self {
        RewriteError::Asm(e)
    }
}
impl From<LinkError> for RewriteError {
    fn from(e: LinkError) -> Self {
        RewriteError::Link(e)
    }
}

/// One copy of one function being emitted. Mirrors the assembler's
/// layout offsets, so the rewriter can record per-instruction address
/// maps and block offsets that exactly match the final layout.
pub struct Emit {
    f: FuncAsm,
    off: u64,
    /// (offset-in-function, original address) pairs.
    pairs: Vec<(u64, u64)>,
    /// Block original address → its label in this copy.
    labels: HashMap<u64, Label>,
    /// Block original address → its offset in this copy.
    blocks: HashMap<u64, u64>,
}

/// Where one copy of a function ended up, relative to its symbol.
pub struct Layout {
    /// Block original address → offset in the copy.
    pub blocks: HashMap<u64, u64>,
    /// (offset-in-function, original address) of every copied
    /// instruction.
    pairs: Vec<(u64, u64)>,
}

impl Emit {
    /// Starts the copy `name` of `f`, with one label per block.
    pub fn new(asm: &mut Assembler, name: String, f: &GFunc) -> Emit {
        let mut fa = asm.func(name);
        let labels = f
            .blocks
            .iter()
            .map(|b| (b.addr, fa.fresh_label()))
            .collect();
        Emit {
            f: fa,
            off: 0,
            pairs: Vec::new(),
            labels,
            blocks: HashMap::default(),
        }
    }

    /// Starts block `b` at the current position.
    pub fn block(&mut self, b: &GBlock) {
        self.f.bind(self.labels[&b.addr]);
        self.blocks.insert(b.addr, self.off);
    }

    /// Emits an instrumentation instruction.
    pub fn ins(&mut self, inst: Inst<CodeRef>) {
        self.off += inst_len(&inst) as u64;
        self.f.ins(inst);
    }

    /// Emits an instruction standing for the original one at `orig`.
    pub fn ins_orig(&mut self, orig: u64, inst: Inst<CodeRef>) {
        self.pairs.push((self.off, orig));
        self.ins(inst);
    }

    fn ins_disp_sym(&mut self, inst: Inst<CodeRef>, sym: &str, addend: i64) {
        self.off += inst_len(&inst) as u64;
        self.f.ins_disp_sym(inst, sym, addend);
    }

    fn ins_imm_sym(&mut self, orig: u64, dst: Reg, sym: &str, addend: i64) {
        self.pairs.push((self.off, orig));
        let probe: Inst<CodeRef> = Inst::MovRI { dst, imm: i64::MAX };
        self.off += inst_len(&probe) as u64;
        self.f.ins_imm_sym(dst, sym, addend);
    }

    /// A fresh label local to this copy.
    pub fn fresh_label(&mut self) -> Label {
        self.f.fresh_label()
    }

    /// Binds `l` to the current position.
    pub fn bind(&mut self, l: Label) {
        self.f.bind(l);
    }

    /// Defines a global symbol at the current position.
    pub fn bind_symbol(&mut self, name: String) {
        self.f.bind_symbol(name);
    }

    /// Emits the trampoline of `br` (paper Fig. 4): the same condition
    /// with swapped destinations, both inside this copy. Taken in real
    /// execution means mispredicted to the fall-through, and vice versa.
    ///
    /// # Errors
    ///
    /// [`RewriteError::UnresolvedTarget`] when either successor is not a
    /// recovered block of the function.
    pub fn trampoline(&mut self, br: &Branch) -> Result<(), RewriteError> {
        let (Some(&taken), Some(&fall)) = (self.labels.get(&br.target), self.labels.get(&br.fall))
        else {
            return Err(RewriteError::UnresolvedTarget {
                branch: br.addr,
                target: br.target,
            });
        };
        self.ins_orig(
            br.addr,
            Inst::Jcc {
                cc: br.cc,
                target: fall.into(),
            },
        );
        self.ins_orig(
            br.addr,
            Inst::Jmp {
                target: taken.into(),
            },
        );
        Ok(())
    }

    /// Lays the copy out.
    ///
    /// # Errors
    ///
    /// [`RewriteError::Asm`] on an unbound or twice-bound label.
    pub fn finish(self, asm: &mut Assembler) -> Result<Layout, RewriteError> {
        asm.finish_func(self.f)?;
        Ok(Layout {
            blocks: self.blocks,
            pairs: self.pairs,
        })
    }
}

/// A conditional branch of the original code.
pub struct Branch {
    addr: u64,
    cc: Cc,
    target: u64,
    fall: u64,
}

/// The conditional branches of `f` in block order — one trampoline each.
pub fn branches(f: &GFunc) -> impl Iterator<Item = Branch> + '_ {
    f.blocks
        .iter()
        .flat_map(|b| &b.insts)
        .filter_map(|(addr, inst)| match *inst {
            Inst::Jcc { cc, target } => Some(Branch {
                addr: *addr,
                cc,
                target,
                fall: addr + encoded_len(inst) as u64,
            }),
            _ => None,
        })
}

/// The per-binary half of reassembly: where the original data and code
/// live, so copied instructions can be re-symbolized.
pub struct Reassembler<'a> {
    bin: &'a Binary,
    gtir: &'a Gtir,
    /// (start, end, symbol) per original data section.
    data: Vec<(u64, u64, String)>,
    fn_by_entry: HashMap<u64, String>,
    guard: u32,
}

/// The symbol a copied data section is defined under.
fn data_symbol(section: &str) -> String {
    format!("orig${}", section.trim_start_matches('.'))
}

/// The memory operand of a load, store, `lea`, `asan.check` or `memlog`.
fn mem_operand<T>(inst: &mut Inst<T>) -> Option<&mut MemRef> {
    match inst {
        Inst::Load { mem, .. }
        | Inst::Store { mem, .. }
        | Inst::StoreI { mem, .. }
        | Inst::Lea { mem, .. }
        | Inst::AsanCheck { mem, .. }
        | Inst::MemLog { mem, .. } => Some(mem),
        _ => None,
    }
}

impl<'a> Reassembler<'a> {
    /// Prepares to reassemble `bin`, already disassembled into `gtir`.
    pub fn new(bin: &'a Binary, gtir: &'a Gtir) -> Reassembler<'a> {
        Reassembler {
            bin,
            gtir,
            data: bin
                .sections
                .iter()
                .filter(|s| {
                    matches!(
                        s.kind,
                        SectionKind::Rodata | SectionKind::Data | SectionKind::Bss
                    )
                })
                .map(|s| (s.vaddr, s.vaddr + s.mem_size, data_symbol(&s.name)))
                .collect(),
            fn_by_entry: gtir
                .functions
                .iter()
                .map(|f| (f.entry, f.name.clone()))
                .collect(),
            guard: 0,
        }
    }

    /// The next coverage guard id (numbered from 1 across the binary).
    pub fn next_guard(&mut self) -> u32 {
        self.guard += 1;
        self.guard
    }

    /// The data symbol and addend of an absolute address into original
    /// data.
    fn data_ref(&self, addr: u64) -> Option<(&str, i64)> {
        self.data
            .iter()
            .find(|(s, e, _)| addr >= *s && addr < *e)
            .map(|(s, _, sym)| (sym.as_str(), (addr - s) as i64))
    }

    fn in_text(&self, addr: u64) -> bool {
        addr >= self.gtir.text_range.0 && addr < self.gtir.text_range.1
    }

    /// Copy `suffix` of the function entered at `target`.
    fn callee(&self, target: u64, suffix: &str) -> Option<CodeRef> {
        let name = self.fn_by_entry.get(&target)?;
        Some(CodeRef::Sym(format!("{name}{suffix}")))
    }

    /// Copies the original instruction `inst` at `addr` into `e`.
    ///
    /// Conditional branches go to the block's label in this copy; direct
    /// jumps leaving the function and direct calls go to copy `suffix` of
    /// their target (`""` for the function itself, `"$spec"` for its
    /// Shadow Copy). Absolute operands into original data become
    /// `symbol + addend` relocations ("symbolization", the hard part of
    /// reassembleable disassembly), and function-pointer immediates point
    /// at the function's `""` copy; `ind.check` redirects them when they
    /// are used during simulation (paper Fig. 5b).
    ///
    /// # Errors
    ///
    /// [`RewriteError::UnresolvedTarget`] when a direct branch leads
    /// outside the recovered code.
    pub fn copy(
        &self,
        e: &mut Emit,
        addr: u64,
        inst: &Inst<u64>,
        suffix: &str,
    ) -> Result<(), RewriteError> {
        let unresolved = |target| RewriteError::UnresolvedTarget {
            branch: addr,
            target,
        };
        let copied = match *inst {
            Inst::Jcc { cc, target } => Inst::Jcc {
                cc,
                target: (*e.labels.get(&target).ok_or_else(|| unresolved(target))?).into(),
            },
            Inst::Jmp { target } => Inst::Jmp {
                target: match e.labels.get(&target) {
                    Some(l) => (*l).into(),
                    // Tail jump to another function.
                    None => self
                        .callee(target, suffix)
                        .ok_or_else(|| unresolved(target))?,
                },
            },
            Inst::Call { target } => Inst::Call {
                target: self
                    .callee(target, suffix)
                    .ok_or_else(|| unresolved(target))?,
            },
            Inst::MovRI { dst, imm } if imm > 0 => {
                let v = imm as u64;
                let sym = self.data_ref(v).or_else(|| {
                    let name = self.fn_by_entry.get(&v).filter(|_| self.in_text(v))?;
                    Some((name.as_str(), 0))
                });
                if let Some((sym, addend)) = sym {
                    e.ins_imm_sym(addr, dst, sym, addend);
                    return Ok(());
                }
                Inst::MovRI { dst, imm }
            }
            _ => {
                e.pairs.push((e.off, addr));
                self.ins_mem(e, inst.map_target(|_| unreachable!("no branch operand")));
                return Ok(());
            }
        };
        e.ins_orig(addr, copied);
        Ok(())
    }

    /// Emits `inst`, re-symbolizing an absolute displacement into
    /// original data the way [`Reassembler::copy`] does for the access
    /// itself — for an `asan.check` or `memlog` guarding a copied access.
    pub fn ins_mem(&self, e: &mut Emit, mut inst: Inst<CodeRef>) {
        if let Some(mem) = mem_operand(&mut inst) {
            if mem.disp > 0 {
                if let Some((sym, addend)) = self.data_ref(mem.disp as i64 as u64) {
                    // The linker patch fully determines the displacement.
                    mem.disp = 0;
                    e.ins_disp_sym(inst, sym, addend);
                    return;
                }
            }
        }
        e.ins(inst);
    }

    /// Copies the data sections, retargeting every embedded code pointer
    /// (jump tables, address-taken functions) to the same block of the
    /// copies laid out in `code`.
    pub fn copy_data(&self, asm: &mut Assembler, code: &HashMap<u64, Layout>) {
        for sec in &self.bin.sections {
            let sym = data_symbol(&sec.name);
            let base = match sec.kind {
                SectionKind::Rodata => asm.rodata(sym, &sec.bytes),
                SectionKind::Data => asm.data(sym, &sec.bytes),
                SectionKind::Bss => {
                    asm.bss(sym, sec.mem_size);
                    continue;
                }
                _ => continue,
            };
            for (i, word) in sec.bytes.chunks_exact(8).enumerate() {
                let v = u64::from_le_bytes(word.try_into().unwrap());
                let Some((fname, block_off)) = self.locate_code(v, code) else {
                    continue;
                };
                let off = base + 8 * i as u64;
                if sec.kind == SectionKind::Rodata {
                    asm.rodata_reloc(off, RelocKind::Abs64, fname, block_off as i64);
                } else {
                    asm.data_reloc(off, RelocKind::Abs64, fname, block_off as i64);
                }
            }
        }
    }

    /// The function symbol and block offset of the code location `addr`.
    fn locate_code(&self, addr: u64, code: &HashMap<u64, Layout>) -> Option<(String, u64)> {
        if !self.in_text(addr) {
            return None;
        }
        let f = self.gtir.function_containing(addr)?;
        let off = code.get(&f.entry)?.blocks.get(&addr)?;
        Some((f.name.clone(), *off))
    }

    /// Links `asm` with the entry function's `""` copy as the entry
    /// point and attaches the `.teapot.meta` note. The note translates
    /// every instruction of every copy in `copies` (a suffix and the
    /// layouts of that copy of each function) back to its original
    /// address; `extend` then adds what only the caller's layout knows,
    /// from the final `(address, size)` of each symbol.
    ///
    /// # Errors
    ///
    /// [`RewriteError::Link`] if linking fails.
    pub fn link(
        &self,
        asm: Assembler,
        flags: BinFlags,
        copies: &[(&str, &HashMap<u64, Layout>)],
        extend: impl FnOnce(&HashMap<&str, (u64, u64)>, &mut TeapotMeta),
    ) -> Result<Binary, RewriteError> {
        let entry = self
            .fn_by_entry
            .get(&self.bin.entry)
            .cloned()
            .unwrap_or_else(|| format!("fun_{:x}", self.bin.entry));
        let mut out = Linker::new()
            .flags(flags)
            .add_object(asm.finish())
            .link(&entry)?;
        let sym: HashMap<&str, (u64, u64)> = out
            .symbols
            .iter()
            .map(|s| (s.name.as_str(), (s.addr, s.size)))
            .collect();
        let mut meta = TeapotMeta::default();
        for f in &self.gtir.functions {
            for (suffix, layouts) in copies {
                let (base, _) = sym[format!("{}{suffix}", f.name).as_str()];
                let pairs = &layouts[&f.entry].pairs;
                meta.addr_map
                    .extend(pairs.iter().map(|&(off, orig)| (base + off, orig)));
            }
        }
        extend(&sym, &mut meta);
        meta.normalize();
        out.sections.push(LoadedSection {
            name: ".teapot.meta".into(),
            kind: SectionKind::Note,
            vaddr: 0,
            bytes: meta.to_bytes(),
            mem_size: 0,
        });
        Ok(out)
    }
}
