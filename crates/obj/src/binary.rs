//! Linked executables and their on-disk container.

use crate::object::{SectionKind, SymbolKind};
use std::fmt;
use teapot_rt::codec::{self, Reader, Writer};

/// Magic prefix of the serialized container.
const MAGIC: &[u8; 4] = b"TOF1";

/// Feature flags describing which runtime services an executable needs.
///
/// Uninstrumented COTS binaries have all flags clear. The Speculation
/// Shadows rewriter and the SpecFuzz-style baseline set the flags that
/// activate the corresponding VM runtime engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BinFlags {
    /// Produced by an instrumentation rewriter (has trampolines etc.).
    pub instrumented: bool,
    /// Binary-ASan shadow memory is active (heap redzones, checks).
    pub asan: bool,
    /// DIFT tag shadow is active.
    pub dift: bool,
    /// Nested speculation simulation is enabled.
    pub nested_speculation: bool,
    /// Baseline single-copy (SpecFuzz-style) instrumentation layout.
    pub single_copy: bool,
}

impl BinFlags {
    fn to_byte(self) -> u8 {
        (self.instrumented as u8)
            | (self.asan as u8) << 1
            | (self.dift as u8) << 2
            | (self.nested_speculation as u8) << 3
            | (self.single_copy as u8) << 4
    }

    fn from_byte(b: u8) -> BinFlags {
        BinFlags {
            instrumented: b & 1 != 0,
            asan: b & 2 != 0,
            dift: b & 4 != 0,
            nested_speculation: b & 8 != 0,
            single_copy: b & 16 != 0,
        }
    }
}

/// A section with its final virtual address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadedSection {
    /// Section name.
    pub name: String,
    /// Section kind.
    pub kind: SectionKind,
    /// Virtual load address (0 for non-loadable notes).
    pub vaddr: u64,
    /// Initialized contents.
    pub bytes: Vec<u8>,
    /// Total size in memory (≥ `bytes.len()`; the excess is zero-filled).
    pub mem_size: u64,
}

impl LoadedSection {
    /// Address one past the last byte of this section in memory.
    pub fn end(&self) -> u64 {
        self.vaddr + self.mem_size
    }

    /// Whether `addr` lies inside this section's memory image.
    pub fn contains(&self, addr: u64) -> bool {
        self.kind.is_loadable() && addr >= self.vaddr && addr < self.end()
    }
}

/// A symbol surviving into the linked binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinSymbol {
    /// Name.
    pub name: String,
    /// Absolute address.
    pub addr: u64,
    /// Classification.
    pub kind: SymbolKind,
    /// Size in bytes (0 when unknown).
    pub size: u64,
}

/// Errors from parsing a serialized binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormatError {
    /// Missing or wrong magic bytes.
    BadMagic,
    /// The container ended inside `section`.
    Truncated {
        /// The section being read when the bytes ran out.
        section: &'static str,
        /// Byte offset of the read that ran out.
        offset: usize,
    },
    /// A length or enum field held an invalid value.
    Corrupt(&'static str),
}

impl From<codec::Error> for FormatError {
    fn from(e: codec::Error) -> Self {
        match e {
            codec::Error::Truncated { section, offset } => Self::Truncated { section, offset },
            codec::Error::Corrupt(what) => Self::Corrupt(what),
        }
    }
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::BadMagic => write!(f, "not a TOF1 binary"),
            FormatError::Truncated { section, offset } => write!(
                f,
                "truncated TOF1 container: bytes end inside the {section} \
                 section at byte offset {offset}"
            ),
            FormatError::Corrupt(what) => {
                write!(f, "corrupt TOF1 container: {what}")
            }
        }
    }
}

impl std::error::Error for FormatError {}

/// A linked, loadable executable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Binary {
    /// Entry-point address.
    pub entry: u64,
    /// All sections (loadable ones carry final addresses).
    pub sections: Vec<LoadedSection>,
    /// Symbol table. May be emptied by [`Binary::strip`]; the Teapot
    /// pipeline never *requires* symbols (COTS assumption) but keeps them,
    /// when present, for experiment ground-truth accounting.
    pub symbols: Vec<BinSymbol>,
    /// Feature flags.
    pub flags: BinFlags,
}

impl Binary {
    /// Finds a loadable section by name.
    pub fn section(&self, name: &str) -> Option<&LoadedSection> {
        self.sections.iter().find(|s| s.name == name)
    }

    /// Finds a note (metadata) section by name.
    pub fn note(&self, name: &str) -> Option<&LoadedSection> {
        self.sections
            .iter()
            .find(|s| s.kind == SectionKind::Note && s.name == name)
    }

    /// Looks up a symbol by exact name.
    pub fn find_symbol(&self, name: &str) -> Option<&BinSymbol> {
        self.symbols.iter().find(|s| s.name == name)
    }

    /// Returns the symbol covering `addr` (nearest preceding symbol whose
    /// size spans the address, else nearest preceding function symbol).
    pub fn symbolize(&self, addr: u64) -> Option<&BinSymbol> {
        let mut best: Option<&BinSymbol> = None;
        for s in &self.symbols {
            if s.addr > addr {
                continue;
            }
            if s.size > 0 && addr >= s.addr + s.size {
                continue;
            }
            match best {
                Some(b) if b.addr >= s.addr => {}
                _ => best = Some(s),
            }
        }
        best
    }

    /// Removes the symbol table — the stripped-COTS analysis scenario.
    pub fn strip(&mut self) {
        self.symbols.clear();
    }

    /// Whether `addr` lies in an executable section.
    pub fn is_code_addr(&self, addr: u64) -> bool {
        self.sections
            .iter()
            .any(|s| s.kind.is_executable() && s.contains(addr))
    }

    /// Serializes to the `TOF1` container.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.raw(MAGIC);
        w.u8(self.flags.to_byte());
        w.u64(self.entry);
        w.u32(self.sections.len() as u32);
        w.u32(self.symbols.len() as u32);
        for s in &self.sections {
            w.bytes(s.name.as_bytes());
            w.u8(kind_byte(s.kind));
            w.u64(s.vaddr);
            w.u64(s.mem_size);
            w.u64(s.bytes.len() as u64);
            w.raw(&s.bytes);
        }
        for s in &self.symbols {
            w.bytes(s.name.as_bytes());
            w.u8(match s.kind {
                SymbolKind::Func => 0,
                SymbolKind::Object => 1,
            });
            w.u64(s.addr);
            w.u64(s.size);
        }
        w.into_bytes()
    }

    /// Parses a `TOF1` container.
    ///
    /// # Errors
    ///
    /// Returns a [`FormatError`] if the bytes are not a valid container.
    pub fn from_bytes(bytes: &[u8]) -> Result<Binary, FormatError> {
        let mut r = Reader::new(bytes);
        if r.take(4)? != MAGIC {
            return Err(FormatError::BadMagic);
        }
        let flags = BinFlags::from_byte(r.u8()?);
        let entry = r.u64()?;
        let nsec = r.u32()? as usize;
        let nsym = r.u32()? as usize;
        if nsec > 1 << 20 || nsym > 1 << 24 {
            return Err(FormatError::Corrupt("absurd counts"));
        }
        // A section is at least 29 bytes, a symbol 21.
        r.section("sections");
        let sections = r.items(nsec, 29, read_section)?;
        r.section("symbols");
        let symbols = r.items(nsym, 21, read_symbol)?;
        Ok(Binary {
            entry,
            sections,
            symbols,
            flags,
        })
    }
}

fn kind_byte(k: SectionKind) -> u8 {
    match k {
        SectionKind::Text => 0,
        SectionKind::Rodata => 1,
        SectionKind::Data => 2,
        SectionKind::Bss => 3,
        SectionKind::Note => 4,
    }
}

fn kind_from_byte(b: u8) -> Option<SectionKind> {
    Some(match b {
        0 => SectionKind::Text,
        1 => SectionKind::Rodata,
        2 => SectionKind::Data,
        3 => SectionKind::Bss,
        4 => SectionKind::Note,
        _ => return None,
    })
}

fn read_section(r: &mut Reader) -> Result<LoadedSection, FormatError> {
    let name = read_str(r)?;
    let kind = kind_from_byte(r.u8()?).ok_or(FormatError::Corrupt("section kind"))?;
    let vaddr = r.u64()?;
    let mem_size = r.u64()?;
    let len = r.u64()? as usize;
    let bytes = r.take(len)?.to_vec();
    Ok(LoadedSection {
        name,
        kind,
        vaddr,
        bytes,
        mem_size,
    })
}

fn read_symbol(r: &mut Reader) -> Result<BinSymbol, FormatError> {
    let name = read_str(r)?;
    let kind = match r.u8()? {
        0 => SymbolKind::Func,
        1 => SymbolKind::Object,
        _ => return Err(FormatError::Corrupt("symbol kind")),
    };
    let addr = r.u64()?;
    let size = r.u64()?;
    Ok(BinSymbol {
        name,
        addr,
        kind,
        size,
    })
}

/// A section or symbol name: `bytes` of valid UTF-8, at most 1 MiB.
fn read_str(r: &mut Reader) -> Result<String, FormatError> {
    let len = r.u32()? as usize;
    if len > 1 << 20 {
        return Err(FormatError::Corrupt("string length"));
    }
    String::from_utf8(r.take(len)?.to_vec()).map_err(|_| FormatError::Corrupt("string utf8"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Binary {
        Binary {
            entry: 0x40_0000,
            sections: vec![
                LoadedSection {
                    name: ".text".into(),
                    kind: SectionKind::Text,
                    vaddr: 0x40_0000,
                    bytes: vec![0x02, 0x00, 0x03],
                    mem_size: 3,
                },
                LoadedSection {
                    name: ".bss".into(),
                    kind: SectionKind::Bss,
                    vaddr: 0x50_0000,
                    bytes: vec![],
                    mem_size: 64,
                },
                LoadedSection {
                    name: ".teapot.map".into(),
                    kind: SectionKind::Note,
                    vaddr: 0,
                    bytes: vec![1, 2, 3],
                    mem_size: 0,
                },
            ],
            symbols: vec![
                BinSymbol {
                    name: "main".into(),
                    addr: 0x40_0000,
                    kind: SymbolKind::Func,
                    size: 3,
                },
                BinSymbol {
                    name: "buf".into(),
                    addr: 0x50_0000,
                    kind: SymbolKind::Object,
                    size: 64,
                },
            ],
            flags: BinFlags {
                instrumented: true,
                asan: true,
                dift: false,
                nested_speculation: true,
                single_copy: false,
            },
        }
    }

    #[test]
    fn container_round_trip() {
        let bin = sample();
        let bytes = bin.to_bytes();
        let back = Binary::from_bytes(&bytes).expect("parse");
        assert_eq!(back, bin);
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        assert_eq!(Binary::from_bytes(b"ELF!"), Err(FormatError::BadMagic));
        let bytes = sample().to_bytes();
        for l in 4..bytes.len() - 1 {
            assert!(Binary::from_bytes(&bytes[..l]).is_err(), "len {l}");
        }
        // The error names where the bytes ran out: the entry point.
        let err = Binary::from_bytes(&bytes[..10]).unwrap_err();
        assert_eq!(
            err,
            FormatError::Truncated {
                section: "header",
                offset: 5
            }
        );
        assert!(err.to_string().ends_with("at byte offset 5"), "{err}");
    }

    #[test]
    fn symbolize_picks_covering_symbol() {
        let bin = sample();
        assert_eq!(bin.symbolize(0x40_0001).unwrap().name, "main");
        assert_eq!(bin.symbolize(0x50_0020).unwrap().name, "buf");
        assert!(bin.symbolize(0x10).is_none());
        // past end of sized symbol
        assert!(bin.symbolize(0x40_0003).is_none());
    }

    #[test]
    fn strip_removes_symbols() {
        let mut bin = sample();
        bin.strip();
        assert!(bin.symbols.is_empty());
        assert!(bin.symbolize(0x40_0000).is_none());
        // Sections are untouched: still analyzable as COTS.
        assert!(bin.section(".text").is_some());
    }

    #[test]
    fn address_queries() {
        let bin = sample();
        assert!(bin.is_code_addr(0x40_0000));
        assert!(!bin.is_code_addr(0x50_0000));
        assert!(bin.note(".teapot.map").is_some());
        assert!(bin.note(".text").is_none());
    }

    #[test]
    fn flags_round_trip() {
        for b in 0..32u8 {
            assert_eq!(BinFlags::from_byte(b).to_byte(), b);
        }
    }
}
