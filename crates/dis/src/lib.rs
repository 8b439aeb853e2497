//! Reassembleable disassembly of TEA-64 binaries — the pipeline stage the
//! paper delegates to Datalog Disassembly and GTIRB (§6, §8).
//!
//! Given a (possibly stripped) [`Binary`], this crate recovers:
//!
//! * **functions** and **basic blocks** (recursive traversal from the
//!   entry point plus heuristic discovery of address-taken functions),
//! * the **control-flow graph** (direct edges; indirect edges via
//!   jump-table symbolization),
//! * **jump tables** (8-byte code pointers in `.rodata` reached by a
//!   scaled load feeding an indirect jump),
//! * the set of basic blocks that can be **indirect control-flow
//!   targets** — return sites, jump-table entries, and address-taken
//!   function entries. The Speculation Shadows rewriter plants its marker
//!   NOPs exactly there (paper §5.3).
//!
//! The output IR ([`Gtir`]) is *reassembleable*: every instruction is a
//! structured [`Inst`] with absolute targets, so the rewriter can clone,
//! instrument and re-layout code through `teapot-asm` without touching
//! raw bytes.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use teapot_isa::{decode_at, Inst, INST_MAX_LEN};
use teapot_obj::{Binary, SectionKind};

/// A recovered basic block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GBlock {
    /// Start address.
    pub addr: u64,
    /// Instructions with their addresses.
    pub insts: Vec<(u64, Inst<u64>)>,
    /// Whether this block may be the target of an indirect control
    /// transfer (return site, jump-table entry, address-taken entry).
    pub indirect_target: bool,
}

impl GBlock {
    /// Address one past the last instruction byte.
    pub fn end(&self) -> u64 {
        self.insts
            .last()
            .map(|(a, i)| a + teapot_isa::encoded_len(i) as u64)
            .unwrap_or(self.addr)
    }

    /// The terminating instruction, if this block ends in one.
    pub fn terminator(&self) -> Option<&Inst<u64>> {
        self.insts
            .last()
            .map(|(_, i)| i)
            .filter(|i| i.is_terminator())
    }
}

/// A recovered function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GFunc {
    /// Entry address.
    pub entry: u64,
    /// Recovered or synthesized name.
    pub name: String,
    /// Blocks sorted by address.
    pub blocks: Vec<GBlock>,
    /// Whether the function's address is taken (data or immediate).
    pub address_taken: bool,
}

impl GFunc {
    /// Total instruction count.
    pub fn inst_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }
}

/// A recovered jump table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JumpTable {
    /// Address of the table in `.rodata`.
    pub addr: u64,
    /// Decoded code-pointer entries.
    pub targets: Vec<u64>,
    /// Entry of the function whose indirect jump consumes this table
    /// (0 when no consumer was identified).
    pub owner: u64,
}

/// The recovered program (GTIRB-like IR).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Gtir {
    /// Functions sorted by entry address.
    pub functions: Vec<GFunc>,
    /// Recovered jump tables.
    pub jump_tables: Vec<JumpTable>,
    /// `[start, end)` of the text section.
    pub text_range: (u64, u64),
}

impl Gtir {
    /// Total recovered instructions.
    pub fn inst_count(&self) -> usize {
        self.functions.iter().map(GFunc::inst_count).sum()
    }

    /// The function containing `addr`, if any.
    pub fn function_containing(&self, addr: u64) -> Option<&GFunc> {
        self.functions
            .iter()
            .find(|f| f.blocks.iter().any(|b| addr >= b.addr && addr < b.end()))
    }

    /// All conditional-branch sites (the Spectre-V1 victims Teapot
    /// instruments).
    pub fn conditional_branches(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for f in &self.functions {
            for b in &f.blocks {
                for (a, i) in &b.insts {
                    if matches!(i, Inst::Jcc { .. }) {
                        out.push(*a);
                    }
                }
            }
        }
        out
    }
}

/// Disassembly errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DisError {
    /// The binary has no text section.
    NoText,
    /// The entry point does not decode.
    BadEntry(u64),
    /// An instrumented binary was given (Teapot analyzes COTS inputs).
    AlreadyInstrumented,
}

impl fmt::Display for DisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DisError::NoText => write!(f, "binary has no text section"),
            DisError::BadEntry(e) => {
                write!(f, "entry point {e:#x} does not decode")
            }
            DisError::AlreadyInstrumented => {
                write!(f, "binary is already instrumented")
            }
        }
    }
}

impl std::error::Error for DisError {}

struct Dis<'a> {
    bin: &'a Binary,
    text_start: u64,
    text_end: u64,
    text: &'a [u8],
    insts: BTreeMap<u64, Inst<u64>>,
    func_entries: BTreeSet<u64>,
    address_taken: BTreeSet<u64>,
    indirect_targets: BTreeSet<u64>,
    jump_tables: Vec<JumpTable>,
    table_map: HashMap<u64, Vec<u64>>,
}

/// Disassembles a COTS binary into the GTIRB-like IR.
///
/// Symbols are *not required* (the COTS assumption); when present they
/// only contribute function names.
///
/// # Errors
///
/// Returns [`DisError`] if the binary has no text, the entry point is
/// undecodable, or the binary is already instrumented.
pub fn disassemble(bin: &Binary) -> Result<Gtir, DisError> {
    if bin.flags.instrumented {
        return Err(DisError::AlreadyInstrumented);
    }
    let text = bin.section(".text").ok_or(DisError::NoText)?;
    let mut d = Dis {
        bin,
        text_start: text.vaddr,
        text_end: text.vaddr + text.bytes.len() as u64,
        text: &text.bytes,
        insts: BTreeMap::new(),
        func_entries: BTreeSet::new(),
        address_taken: BTreeSet::new(),
        indirect_targets: BTreeSet::new(),
        jump_tables: Vec::new(),
        table_map: HashMap::new(),
    };

    // 1. Symbolization: scan data sections for code pointers —
    //    address-taken function candidates and jump tables (heuristic,
    //    like the paper's Datalog rules).
    d.scan_data_pointers();

    // 2. Recursive traversal from the entry point (new entries may be
    //    discovered while exploring: calls, immediates).
    d.func_entries.insert(bin.entry);
    let mut done: BTreeSet<u64> = BTreeSet::new();
    loop {
        let next = d.func_entries.iter().find(|e| !done.contains(e)).copied();
        let Some(entry) = next else { break };
        done.insert(entry);
        d.explore_function(entry)?;
    }

    // 3. Partition instructions into functions and blocks.
    Ok(d.build(bin))
}

impl<'a> Dis<'a> {
    fn in_text(&self, addr: u64) -> bool {
        addr >= self.text_start && addr < self.text_end
    }

    fn decode(&self, addr: u64) -> Option<(Inst<u64>, usize)> {
        if !self.in_text(addr) {
            return None;
        }
        let off = (addr - self.text_start) as usize;
        let end = (off + INST_MAX_LEN).min(self.text.len());
        decode_at(&self.text[off..end], addr).ok()
    }

    /// Scans `.rodata`/`.data` for 8-byte-aligned code pointers. Runs of
    /// two or more consecutive pointers in `.rodata` are classified as
    /// jump tables; isolated pointers as address-taken functions.
    fn scan_data_pointers(&mut self) {
        struct Run {
            start: u64,
            targets: Vec<u64>,
        }
        for sec in &self.bin.sections {
            if !matches!(sec.kind, SectionKind::Rodata | SectionKind::Data) {
                continue;
            }
            let mut run: Option<Run> = None;
            let mut finished: Vec<(Run, SectionKind)> = Vec::new();
            let mut i = 0usize;
            while i + 8 <= sec.bytes.len() {
                let v = u64::from_le_bytes(sec.bytes[i..i + 8].try_into().unwrap());
                if self.in_text(v) && self.decode(v).is_some() {
                    match &mut run {
                        Some(r) => r.targets.push(v),
                        None => {
                            run = Some(Run {
                                start: sec.vaddr + i as u64,
                                targets: vec![v],
                            })
                        }
                    }
                } else if let Some(r) = run.take() {
                    finished.push((r, sec.kind));
                }
                i += 8;
            }
            if let Some(r) = run.take() {
                finished.push((r, sec.kind));
            }
            for (r, kind) in finished {
                if kind == SectionKind::Rodata && r.targets.len() >= 2 {
                    for &t in &r.targets {
                        self.indirect_targets.insert(t);
                    }
                    self.table_map.insert(r.start, r.targets.clone());
                    self.jump_tables.push(JumpTable {
                        addr: r.start,
                        targets: r.targets,
                        owner: 0,
                    });
                } else {
                    for &t in &r.targets {
                        self.func_entries.insert(t);
                        self.address_taken.insert(t);
                        self.indirect_targets.insert(t);
                    }
                }
            }
        }
    }

    /// Recursive traversal of one function from `entry`.
    fn explore_function(&mut self, entry: u64) -> Result<(), DisError> {
        let mut work = vec![entry];
        let mut seen: BTreeSet<u64> = BTreeSet::new();
        while let Some(start) = work.pop() {
            if !seen.insert(start) {
                continue;
            }
            let mut pc = start;
            // Track the most recent jump-table load per register — a tiny
            // abstract interpretation resolving `load rX, [table + rY*8];
            // jmp *rX` (the Clang-style switch of paper Fig. 2).
            let mut last_table: Option<(teapot_isa::Reg, u64)> = None;
            loop {
                let Some((inst, len)) = self.decode(pc) else {
                    if pc == entry {
                        return Err(DisError::BadEntry(entry));
                    }
                    break;
                };
                let revisit = self.insts.insert(pc, inst).is_some();
                let next = pc + len as u64;
                match inst {
                    Inst::Jcc { target, .. } => {
                        if self.in_text(target) {
                            work.push(target);
                        }
                        work.push(next);
                        break;
                    }
                    Inst::Jmp { target } => {
                        if self.in_text(target) {
                            work.push(target);
                        }
                        break;
                    }
                    Inst::Call { target } => {
                        if self.in_text(target) {
                            self.func_entries.insert(target);
                        }
                        // Return sites are indirect targets (§5.3).
                        self.indirect_targets.insert(next);
                        work.push(next);
                        break;
                    }
                    Inst::CallInd { .. } => {
                        self.indirect_targets.insert(next);
                        work.push(next);
                        break;
                    }
                    Inst::JmpInd { target } => {
                        if let Some((reg, taddr)) = last_table {
                            if reg == target {
                                if let Some(ts) = self.table_map.get(&taddr).cloned() {
                                    work.extend(ts);
                                    for jt in &mut self.jump_tables {
                                        if jt.addr == taddr {
                                            jt.owner = entry;
                                        }
                                    }
                                }
                            }
                        }
                        break;
                    }
                    Inst::Ret | Inst::Halt => break,
                    Inst::MovRI { imm, .. } => {
                        // Immediate code pointers: address-taken funcs.
                        let v = imm as u64;
                        if self.in_text(v) && self.decode(v).is_some() && v != next {
                            self.func_entries.insert(v);
                            self.address_taken.insert(v);
                            self.indirect_targets.insert(v);
                        }
                        pc = next;
                    }
                    Inst::Load { dst, mem, .. } => {
                        if mem.base.is_none()
                            && mem.scale == 8
                            && self.table_map.contains_key(&(mem.disp as u64))
                        {
                            last_table = Some((dst, mem.disp as u64));
                        } else if last_table.map(|(r, _)| r) == Some(dst) {
                            last_table = None;
                        }
                        pc = next;
                    }
                    other => {
                        if let Some((r, _)) = last_table {
                            if other.defs().contains(&r) {
                                last_table = None;
                            }
                        }
                        pc = next;
                    }
                }
                if revisit {
                    // Joined an already-explored path; linear progress
                    // from here is already recorded.
                    if self.insts.contains_key(&pc) {
                        break;
                    }
                }
            }
        }
        Ok(())
    }

    /// Partitions the instruction map into functions and leader-split
    /// basic blocks.
    fn build(self, bin: &Binary) -> Gtir {
        let entries: Vec<u64> = self.func_entries.iter().copied().collect();
        let mut functions = Vec::new();
        for (fi, &entry) in entries.iter().enumerate() {
            let end = entries.get(fi + 1).copied().unwrap_or(u64::MAX);
            let insts: Vec<(u64, Inst<u64>)> = self
                .insts
                .range(entry..end)
                .map(|(a, i)| (*a, *i))
                .collect();
            if insts.is_empty() {
                continue;
            }
            // Leaders: entry, intra-function branch targets, addresses
            // after terminators/calls, indirect targets.
            let mut leaders: BTreeSet<u64> = BTreeSet::new();
            leaders.insert(entry);
            for (a, i) in &insts {
                let next = a + teapot_isa::encoded_len(i) as u64;
                if let Some(t) = i.target() {
                    if *t >= entry && *t < end && !matches!(i, Inst::Call { .. }) {
                        leaders.insert(*t);
                    }
                }
                if i.is_terminator() || matches!(i, Inst::Call { .. } | Inst::CallInd { .. }) {
                    leaders.insert(next);
                }
                if self.indirect_targets.contains(a) {
                    leaders.insert(*a);
                }
            }
            let mut blocks: Vec<GBlock> = Vec::new();
            let mut cur: Option<GBlock> = None;
            for (a, i) in insts {
                if leaders.contains(&a) {
                    if let Some(b) = cur.take() {
                        if !b.insts.is_empty() {
                            blocks.push(b);
                        }
                    }
                    cur = Some(GBlock {
                        addr: a,
                        insts: Vec::new(),
                        indirect_target: self.indirect_targets.contains(&a),
                    });
                }
                if let Some(b) = &mut cur {
                    b.insts.push((a, i));
                }
            }
            if let Some(b) = cur.take() {
                if !b.insts.is_empty() {
                    blocks.push(b);
                }
            }
            let name = bin
                .symbols
                .iter()
                .find(|s| s.addr == entry)
                .map(|s| s.name.clone())
                .unwrap_or_else(|| format!("fun_{entry:x}"));
            functions.push(GFunc {
                entry,
                name,
                blocks,
                address_taken: self.address_taken.contains(&entry),
            });
        }
        Gtir {
            functions,
            jump_tables: self.jump_tables,
            text_range: (self.text_start, self.text_end),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teapot_cc::{compile_to_binary, Options, SwitchLowering};

    fn fixture(src: &str, opts: &Options) -> Binary {
        let mut bin = compile_to_binary(src, opts).expect("compile");
        bin.strip(); // COTS: no symbols
        bin
    }

    const FIB: &str = "int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
                       int main() { return fib(10); }";

    #[test]
    fn recovers_functions_and_blocks_from_stripped_binary() {
        let bin = fixture(FIB, &Options::gcc_like());
        let g = disassemble(&bin).unwrap();
        // fib, main, _start
        assert_eq!(g.functions.len(), 3);
        assert!(g.inst_count() > 20);
        for f in &g.functions {
            assert!(!f.blocks.is_empty());
            assert_eq!(f.blocks[0].addr, f.entry);
            for w in f.blocks.windows(2) {
                assert!(w[0].end() <= w[1].addr, "overlapping blocks");
            }
        }
    }

    #[test]
    fn recovered_instructions_match_linear_reference() {
        let bin = fixture(FIB, &Options::gcc_like());
        let g = disassemble(&bin).unwrap();
        let text = bin.section(".text").unwrap();
        for f in &g.functions {
            for b in &f.blocks {
                for (a, i) in &b.insts {
                    let off = (a - text.vaddr) as usize;
                    let (ref_i, _) = decode_at(&text.bytes[off..], *a).unwrap();
                    assert_eq!(&ref_i, i, "at {a:#x}");
                }
            }
        }
    }

    #[test]
    fn full_code_coverage_of_reachable_text() {
        // Our compiler emits no dead code or inline data: the recovered
        // instructions must tile the whole text section.
        let bin = fixture(FIB, &Options::gcc_like());
        let g = disassemble(&bin).unwrap();
        let text = bin.section(".text").unwrap();
        let covered: u64 = g
            .functions
            .iter()
            .flat_map(|f| &f.blocks)
            .map(|b| b.end() - b.addr)
            .sum();
        // Small amounts of dead code (unreachable epilogues behind
        // all-paths-return bodies) may legitimately stay undiscovered.
        let total = text.bytes.len() as u64;
        assert!(
            covered * 10 >= total * 9,
            "covered {covered} of {total} bytes"
        );
    }

    #[test]
    fn return_sites_are_indirect_targets() {
        let bin = fixture(FIB, &Options::gcc_like());
        let g = disassemble(&bin).unwrap();
        let mut found_call = false;
        for f in &g.functions {
            for b in &f.blocks {
                if let Some((a, i @ Inst::Call { .. })) = b.insts.last() {
                    found_call = true;
                    let next = a + teapot_isa::encoded_len(i) as u64;
                    let tb = g
                        .functions
                        .iter()
                        .flat_map(|f| &f.blocks)
                        .find(|b| b.addr == next)
                        .expect("return-site block");
                    assert!(tb.indirect_target, "return site {next:#x}");
                }
            }
        }
        assert!(found_call);
    }

    #[test]
    fn jump_tables_are_recovered_with_targets() {
        let src = "int sink;
                   void f(int v) {
                       switch (v) {
                           case 0: sink = 10; break;
                           case 1: sink = 11; break;
                           case 2: sink = 12; break;
                           case 3: sink = 13; break;
                       }
                   }
                   int main() { f(2); return sink; }";
        let bin = fixture(
            src,
            &Options {
                switch_lowering: SwitchLowering::JumpTable,
                ..Options::gcc_like()
            },
        );
        let g = disassemble(&bin).unwrap();
        assert_eq!(g.jump_tables.len(), 1);
        let jt = &g.jump_tables[0];
        assert_eq!(jt.targets.len(), 4);
        assert_ne!(jt.owner, 0, "consumer function identified");
        for t in &jt.targets {
            let b = g
                .functions
                .iter()
                .flat_map(|f| &f.blocks)
                .find(|b| b.addr == *t)
                .expect("table target block");
            assert!(b.indirect_target);
        }
        assert!(g.inst_count() > 12);
    }

    #[test]
    fn address_taken_functions_are_discovered() {
        let src = "int twice(int x) { return x * 2; }
                   int main() { fnptr f = &twice; return f(21); }";
        let bin = fixture(src, &Options::gcc_like());
        let g = disassemble(&bin).unwrap();
        let taken: Vec<_> = g.functions.iter().filter(|f| f.address_taken).collect();
        assert_eq!(taken.len(), 1, "exactly `twice` is address-taken");
        assert!(taken[0].inst_count() >= 3);
        assert!(taken[0].blocks[0].indirect_target);
    }

    #[test]
    fn conditional_branches_enumerated() {
        let bin = fixture(FIB, &Options::gcc_like());
        let g = disassemble(&bin).unwrap();
        assert!(!g.conditional_branches().is_empty());
    }

    #[test]
    fn instrumented_binaries_are_rejected() {
        let mut bin = fixture(FIB, &Options::gcc_like());
        bin.flags.instrumented = true;
        assert_eq!(disassemble(&bin), Err(DisError::AlreadyInstrumented));
    }

    #[test]
    fn symbol_names_survive_when_present() {
        let bin = compile_to_binary(FIB, &Options::gcc_like()).unwrap();
        let g = disassemble(&bin).unwrap();
        assert!(g.functions.iter().any(|f| f.name == "fib"));
        assert!(g.functions.iter().any(|f| f.name == "main"));
        // Stripped: synthesized names.
        let mut stripped = bin.clone();
        stripped.strip();
        let g2 = disassemble(&stripped).unwrap();
        assert!(g2.functions.iter().all(|f| f.name.starts_with("fun_")));
        assert_eq!(g.inst_count(), g2.inst_count());
    }

    #[test]
    fn function_containing_lookup() {
        let bin = fixture(FIB, &Options::gcc_like());
        let g = disassemble(&bin).unwrap();
        let f0 = &g.functions[0];
        let mid = f0.blocks[0].insts.last().unwrap().0;
        assert_eq!(g.function_containing(mid).map(|f| f.entry), Some(f0.entry));
        assert!(g.function_containing(0x10).is_none());
    }
}
