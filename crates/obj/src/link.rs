//! The static linker: object(s) → executable [`Binary`].

use crate::binary::{BinFlags, Binary, LoadedSection};
use crate::object::{Object, RelocKind, SectionKind};
use std::collections::HashMap;
use std::fmt;

/// Default base address of the first (text) section.
///
/// The image is laid out entirely below 2³¹ so absolute addresses fit the
/// 32-bit displacement fields of TEA-64 memory operands.
pub const DEFAULT_IMAGE_BASE: u64 = 0x40_0000;

/// Errors produced while linking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkError {
    /// A relocation referenced an undefined symbol.
    UndefinedSymbol(String),
    /// Two global symbols share a name.
    DuplicateSymbol(String),
    /// The requested entry symbol is missing.
    NoEntry(String),
    /// A relocation value did not fit its field.
    RelocOverflow { symbol: String, kind: RelocKind },
    /// A relocation field lies outside its section.
    RelocOutOfRange { symbol: String, offset: u64 },
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::UndefinedSymbol(s) => {
                write!(f, "undefined symbol `{s}`")
            }
            LinkError::DuplicateSymbol(s) => {
                write!(f, "duplicate global symbol `{s}`")
            }
            LinkError::NoEntry(s) => write!(f, "entry symbol `{s}` not found"),
            LinkError::RelocOverflow { symbol, kind } => {
                write!(f, "relocation {kind:?} against `{symbol}` overflows")
            }
            LinkError::RelocOutOfRange { symbol, offset } => write!(
                f,
                "relocation against `{symbol}` at {offset:#x} is out of range"
            ),
        }
    }
}

impl std::error::Error for LinkError {}

/// Combines [`Object`]s into a [`Binary`].
///
/// Layout: all `.text*` sections first (starting at the image base), then
/// `.rodata*`, `.data*`, `.bss*`, each padded to its alignment. Section
/// order within a kind follows object insertion order, which keeps function
/// layout deterministic — a property the rewriter's address maps rely on.
#[derive(Debug, Default)]
pub struct Linker {
    objects: Vec<Object>,
    flags: BinFlags,
}

impl Linker {
    /// Creates a linker with the default image base.
    pub fn new() -> Linker {
        Linker::default()
    }

    /// Sets the feature flags recorded in the output binary.
    pub fn flags(mut self, flags: BinFlags) -> Linker {
        self.flags = flags;
        self
    }

    /// Adds an object to the link set.
    pub fn add_object(mut self, obj: Object) -> Linker {
        self.objects.push(obj);
        self
    }

    /// Links everything, resolving relocations, and returns the binary
    /// with its entry point at `entry_symbol`.
    ///
    /// # Errors
    ///
    /// Returns a [`LinkError`] for undefined/duplicate symbols, a missing
    /// entry symbol, or relocation overflow.
    pub fn link(self, entry_symbol: &str) -> Result<Binary, LinkError> {
        // 1. Assign each (object, section) a slot in kind order.
        let order = [
            SectionKind::Text,
            SectionKind::Rodata,
            SectionKind::Data,
            SectionKind::Bss,
        ];
        let mut va = DEFAULT_IMAGE_BASE;
        let mut placed: HashMap<(usize, usize), u64> = HashMap::new();
        let mut out_sections: Vec<LoadedSection> = Vec::new();

        for kind in order {
            for (oi, obj) in self.objects.iter().enumerate() {
                for (si, sec) in obj.sections.iter().enumerate() {
                    if sec.kind != kind {
                        continue;
                    }
                    // Sections are page-aligned so that page-granular
                    // permissions (the VM's MMU) cannot leak between
                    // sections, with one unmapped guard page in between
                    // to catch stray accesses.
                    let align = sec.align.max(0x1000);
                    va = (va + align - 1) & !(align - 1);
                    placed.insert((oi, si), va);
                    let mem_size = if sec.kind == SectionKind::Bss {
                        sec.mem_size.max(sec.bytes.len() as u64)
                    } else {
                        sec.bytes.len() as u64
                    };
                    out_sections.push(LoadedSection {
                        name: sec.name.clone(),
                        kind: sec.kind,
                        vaddr: va,
                        bytes: sec.bytes.clone(),
                        mem_size,
                    });
                    va += mem_size + 0x1000;
                }
            }
        }

        // Note sections ride along unloaded.
        for obj in self.objects.iter() {
            for sec in &obj.sections {
                if sec.kind == SectionKind::Note {
                    out_sections.push(LoadedSection {
                        name: sec.name.clone(),
                        kind: sec.kind,
                        vaddr: 0,
                        bytes: sec.bytes.clone(),
                        mem_size: 0,
                    });
                }
            }
        }

        // 2. Build the global symbol table.
        let mut symtab: HashMap<String, (u64, crate::SymbolKind, u64)> = HashMap::new();
        for (oi, obj) in self.objects.iter().enumerate() {
            for sym in &obj.symbols {
                let sec_va = placed.get(&(oi, sym.section.0)).copied().unwrap_or(0);
                let addr = sec_va + sym.offset;
                if sym.global {
                    if symtab.contains_key(&sym.name) {
                        return Err(LinkError::DuplicateSymbol(sym.name.clone()));
                    }
                    symtab.insert(sym.name.clone(), (addr, sym.kind, sym.size));
                } else {
                    // Locals are scoped per object: prefix with unit name.
                    symtab.insert(
                        format!("{}::{}", obj.name, sym.name),
                        (addr, sym.kind, sym.size),
                    );
                }
            }
        }

        // 3. Apply relocations. Loaded output sections were pushed in the
        // same (kind, object, section) order used for placement, so find
        // each one by recomputing the key.
        let mut out_idx: HashMap<u64, usize> = HashMap::new();
        for (i, s) in out_sections.iter().enumerate() {
            if s.kind.is_loadable() {
                out_idx.insert(s.vaddr, i);
            }
        }
        for (oi, obj) in self.objects.iter().enumerate() {
            for rel in &obj.relocs {
                let sec_va =
                    *placed
                        .get(&(oi, rel.section.0))
                        .ok_or(LinkError::RelocOutOfRange {
                            symbol: rel.symbol.clone(),
                            offset: rel.offset,
                        })?;
                let &(sym_addr, _, _) = symtab
                    .get(&rel.symbol)
                    .or_else(|| symtab.get(&format!("{}::{}", obj.name, rel.symbol)))
                    .ok_or_else(|| LinkError::UndefinedSymbol(rel.symbol.clone()))?;
                let sec = &mut out_sections[out_idx[&sec_va]];
                let off = rel.offset as usize;
                let value = sym_addr as i64 + rel.addend;
                match rel.kind {
                    RelocKind::Abs32 => {
                        let v = i32::try_from(value).map_err(|_| LinkError::RelocOverflow {
                            symbol: rel.symbol.clone(),
                            kind: rel.kind,
                        })?;
                        patch(&mut sec.bytes, off, &v.to_le_bytes()).ok_or(
                            LinkError::RelocOutOfRange {
                                symbol: rel.symbol.clone(),
                                offset: rel.offset,
                            },
                        )?;
                    }
                    RelocKind::Abs64 => {
                        patch(&mut sec.bytes, off, &value.to_le_bytes()).ok_or(
                            LinkError::RelocOutOfRange {
                                symbol: rel.symbol.clone(),
                                offset: rel.offset,
                            },
                        )?;
                    }
                    RelocKind::Rel32 => {
                        let field_end = sec_va + rel.offset + 4;
                        let rel_v = value - field_end as i64;
                        let v = i32::try_from(rel_v).map_err(|_| LinkError::RelocOverflow {
                            symbol: rel.symbol.clone(),
                            kind: rel.kind,
                        })?;
                        patch(&mut sec.bytes, off, &v.to_le_bytes()).ok_or(
                            LinkError::RelocOutOfRange {
                                symbol: rel.symbol.clone(),
                                offset: rel.offset,
                            },
                        )?;
                    }
                }
            }
        }

        // 4. Entry point.
        let &(entry, _, _) = symtab
            .get(entry_symbol)
            .ok_or_else(|| LinkError::NoEntry(entry_symbol.to_string()))?;

        let mut bin = Binary {
            entry,
            sections: out_sections,
            symbols: Vec::new(),
            flags: self.flags,
        };
        let mut syms: Vec<(String, u64, crate::SymbolKind, u64)> = symtab
            .into_iter()
            .map(|(name, (addr, kind, size))| (name, addr, kind, size))
            .collect();
        syms.sort_by_key(|(_, addr, _, _)| *addr);
        bin.symbols = syms
            .into_iter()
            .map(|(name, addr, kind, size)| crate::binary::BinSymbol {
                name,
                addr,
                kind,
                size,
            })
            .collect();
        Ok(bin)
    }
}

fn patch(bytes: &mut [u8], off: usize, data: &[u8]) -> Option<()> {
    let slot = bytes.get_mut(off..off + data.len())?;
    slot.copy_from_slice(data);
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::SymbolKind;

    fn mini_object() -> Object {
        let mut obj = Object::new("m");
        let text = obj.add_section(".text", SectionKind::Text);
        // jmp rel32 placeholder (opcode 0x30) + halt
        obj.section_mut(text).bytes = vec![0x30, 0, 0, 0, 0, 0x02];
        obj.add_symbol("_start", SymbolKind::Func, text, 0, 6, true);
        obj.add_symbol("end", SymbolKind::Func, text, 5, 1, true);
        obj.add_reloc(text, 1, RelocKind::Rel32, "end", 0);
        obj
    }

    #[test]
    fn links_and_resolves_rel32() {
        let bin = Linker::new()
            .add_object(mini_object())
            .link("_start")
            .expect("link");
        let text = bin.section(".text").unwrap();
        assert_eq!(text.vaddr, DEFAULT_IMAGE_BASE);
        // jmp displacement: end(= base+5) - (base+1+4) = 0
        assert_eq!(&text.bytes[1..5], &[0, 0, 0, 0]);
        assert_eq!(bin.entry, DEFAULT_IMAGE_BASE);
    }

    #[test]
    fn undefined_symbol_is_an_error() {
        let mut obj = Object::new("m");
        let text = obj.add_section(".text", SectionKind::Text);
        obj.section_mut(text).bytes = vec![0x30, 0, 0, 0, 0];
        obj.add_symbol("_start", SymbolKind::Func, text, 0, 5, true);
        obj.add_reloc(text, 1, RelocKind::Rel32, "missing", 0);
        let err = Linker::new().add_object(obj).link("_start").unwrap_err();
        assert_eq!(err, LinkError::UndefinedSymbol("missing".into()));
    }

    #[test]
    fn duplicate_global_is_an_error() {
        let a = mini_object();
        let b = mini_object();
        let err = Linker::new()
            .add_object(a)
            .add_object(b)
            .link("_start")
            .unwrap_err();
        assert!(matches!(err, LinkError::DuplicateSymbol(_)));
    }

    #[test]
    fn missing_entry_is_an_error() {
        let err = Linker::new()
            .add_object(mini_object())
            .link("nope")
            .unwrap_err();
        assert_eq!(err, LinkError::NoEntry("nope".into()));
    }

    #[test]
    fn bss_occupies_memory_without_bytes() {
        let mut obj = mini_object();
        let bss = obj.add_section(".bss", SectionKind::Bss);
        obj.section_mut(bss).mem_size = 4096;
        obj.add_symbol("buf", SymbolKind::Object, bss, 0, 4096, true);
        let bin = Linker::new().add_object(obj).link("_start").unwrap();
        let bss = bin.section(".bss").unwrap();
        assert_eq!(bss.bytes.len(), 0);
        assert_eq!(bss.mem_size, 4096);
        assert!(bss.vaddr > DEFAULT_IMAGE_BASE);
    }

    #[test]
    fn local_symbols_do_not_collide() {
        let mut a = Object::new("a");
        let ta = a.add_section(".text", SectionKind::Text);
        a.section_mut(ta).bytes = vec![0x02];
        a.add_symbol("_start", SymbolKind::Func, ta, 0, 1, true);
        a.add_symbol("local", SymbolKind::Func, ta, 0, 1, false);
        let mut b = Object::new("b");
        let tb = b.add_section(".text", SectionKind::Text);
        b.section_mut(tb).bytes = vec![0x02];
        b.add_symbol("local", SymbolKind::Func, tb, 0, 1, false);
        let bin = Linker::new().add_object(a).add_object(b).link("_start");
        assert!(bin.is_ok());
    }

    #[test]
    fn cross_object_call_resolution() {
        let mut a = Object::new("a");
        let ta = a.add_section(".text", SectionKind::Text);
        // call rel32 (0x32) + halt
        a.section_mut(ta).bytes = vec![0x32, 0, 0, 0, 0, 0x02];
        a.add_symbol("_start", SymbolKind::Func, ta, 0, 6, true);
        a.add_reloc(ta, 1, RelocKind::Rel32, "callee", 0);
        let mut b = Object::new("b");
        let tb = b.add_section(".text", SectionKind::Text);
        b.section_mut(tb).bytes = vec![0x03]; // ret
        b.add_symbol("callee", SymbolKind::Func, tb, 0, 1, true);
        let bin = Linker::new()
            .add_object(a)
            .add_object(b)
            .link("_start")
            .unwrap();
        let callee = bin.find_symbol("callee").unwrap().addr;
        let text_a = bin.sections.iter().find(|s| s.vaddr == bin.entry).unwrap();
        let rel = i32::from_le_bytes(text_a.bytes[1..5].try_into().unwrap());
        assert_eq!(bin.entry + 5 + rel as i64 as u64, callee);
    }
}
