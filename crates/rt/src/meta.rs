//! The `.teapot.meta` note section written by the Speculation Shadows
//! rewriter and consumed by the run-time.
//!
//! A rewritten binary carries three pieces of metadata:
//!
//! 1. **Region bounds** — where the Real Copy and Shadow Copy live, so the
//!    indirect-branch integrity check (paper §5.3) can classify a code
//!    pointer in O(1);
//! 2. **Indirect-target map** — for every Real Copy basic block that got a
//!    marker NOP, the address of its Shadow Copy counterpart, used to
//!    redirect escaped control flow back into the Shadow Copy;
//! 3. **Address translation** — a per-instruction map from rewritten
//!    addresses (Real or Shadow Copy) back to *original binary* addresses,
//!    so gadget reports are stated in the coordinates of the COTS input
//!    (and so reports deduplicate across the two copies).

use crate::codec::{self, Reader, Writer};

/// Parsed contents of the `.teapot.meta` section.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TeapotMeta {
    /// `[start, end)` of the Real Copy text.
    pub real_range: (u64, u64),
    /// `[start, end)` of the Shadow Copy text (trampolines included).
    pub shadow_range: (u64, u64),
    /// `(real_block_addr, shadow_block_addr)` for every marker-NOP block,
    /// sorted by real address.
    pub indirect_map: Vec<(u64, u64)>,
    /// `(rewritten_addr, original_addr)` per copied instruction, sorted by
    /// rewritten address.
    pub addr_map: Vec<(u64, u64)>,
}

/// Error parsing a `.teapot.meta` blob: the section and byte offset
/// where a truncated blob ran out, or what is wrong with a complete one.
pub type MetaError = codec::Error;

const MAGIC: &[u8; 4] = b"TPM1";

impl TeapotMeta {
    /// Whether `pc` lies in the Shadow Copy.
    #[inline]
    pub fn in_shadow(&self, pc: u64) -> bool {
        pc >= self.shadow_range.0 && pc < self.shadow_range.1
    }

    /// Whether `pc` lies in the Real Copy.
    #[inline]
    pub fn in_real(&self, pc: u64) -> bool {
        pc >= self.real_range.0 && pc < self.real_range.1
    }

    /// Shadow counterpart of a marked Real Copy block, if registered.
    pub fn shadow_of(&self, real_block: u64) -> Option<u64> {
        self.indirect_map
            .binary_search_by_key(&real_block, |&(r, _)| r)
            .ok()
            .map(|i| self.indirect_map[i].1)
    }

    /// Original coordinate of the first *copied* instruction strictly
    /// after `pc` within the Real Copy — what execution would reach next
    /// if the instrumentation between them were skipped. `None` when
    /// `pc` is not in the Real Copy or nothing follows it (function
    /// tail). The RSB/STL speculation models use this to continue a
    /// wrong path in the Shadow Copy: Real-Copy speculation would be
    /// squashed by the §5.3 safety net.
    pub fn next_original_after(&self, pc: u64) -> Option<u64> {
        if !self.in_real(pc) {
            return None;
        }
        let i = self.addr_map.partition_point(|&(rew, _)| rew <= pc);
        let &(rew, orig) = self.addr_map.get(i)?;
        self.in_real(rew).then_some(orig)
    }

    /// Translates a rewritten-binary address back to original-binary
    /// coordinates. Instrumentation instructions (which have no original
    /// counterpart) map to the nearest preceding copied instruction.
    pub fn to_original(&self, pc: u64) -> Option<u64> {
        if self.addr_map.is_empty() {
            return None;
        }
        match self.addr_map.binary_search_by_key(&pc, |&(n, _)| n) {
            Ok(i) => Some(self.addr_map[i].1),
            Err(0) => None,
            Err(i) => Some(self.addr_map[i - 1].1),
        }
    }

    /// Sorts the maps (call once after construction).
    pub fn normalize(&mut self) {
        self.indirect_map.sort_unstable();
        self.addr_map.sort_unstable();
    }

    /// Serializes to the note-section blob.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.raw(MAGIC);
        for v in [
            self.real_range.0,
            self.real_range.1,
            self.shadow_range.0,
            self.shadow_range.1,
        ] {
            w.u64(v);
        }
        w.u32(self.indirect_map.len() as u32);
        w.u32(self.addr_map.len() as u32);
        for &(a, b) in self.indirect_map.iter().chain(&self.addr_map) {
            w.u64(a);
            w.u64(b);
        }
        w.into_bytes()
    }

    /// Parses the note-section blob.
    ///
    /// # Errors
    ///
    /// Returns [`MetaError`] if the blob is truncated or mis-tagged.
    pub fn from_bytes(bytes: &[u8]) -> Result<TeapotMeta, MetaError> {
        let mut r = Reader::new(bytes);
        if r.take(4)? != MAGIC {
            return Err(codec::Error::Corrupt("bad magic"));
        }
        let real_range = (r.u64()?, r.u64()?);
        let shadow_range = (r.u64()?, r.u64()?);
        let ni = r.u32()? as usize;
        let na = r.u32()? as usize;
        if ni > 1 << 24 || na > 1 << 26 {
            return Err(codec::Error::Corrupt("absurd counts"));
        }
        r.section("address pairs");
        let mut pairs = r.items(ni + na, 16, |r| -> Result<_, MetaError> {
            Ok((r.u64()?, r.u64()?))
        })?;
        let addr_map = pairs.split_off(ni);
        Ok(TeapotMeta {
            real_range,
            shadow_range,
            indirect_map: pairs,
            addr_map,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TeapotMeta {
        let mut m = TeapotMeta {
            real_range: (0x400000, 0x401000),
            shadow_range: (0x401100, 0x403000),
            indirect_map: vec![(0x400500, 0x401500), (0x400100, 0x401200)],
            addr_map: vec![
                (0x400000, 0x400000),
                (0x400010, 0x400005),
                (0x401200, 0x400005),
            ],
        };
        m.normalize();
        m
    }

    #[test]
    fn round_trip() {
        let m = sample();
        let back = TeapotMeta::from_bytes(&m.to_bytes()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn truncation_is_rejected() {
        let bytes = sample().to_bytes();
        for l in 0..bytes.len() {
            assert!(TeapotMeta::from_bytes(&bytes[..l]).is_err(), "len {l}");
        }
        assert!(TeapotMeta::from_bytes(b"XXXX").is_err());
        // The error names where the blob ran out.
        assert_eq!(
            TeapotMeta::from_bytes(&bytes[..10]),
            Err(codec::Error::Truncated {
                section: "header",
                offset: 4
            })
        );
    }

    #[test]
    fn region_queries() {
        let m = sample();
        assert!(m.in_real(0x400000));
        assert!(m.in_real(0x400fff));
        assert!(!m.in_real(0x401000));
        assert!(m.in_shadow(0x401100));
        assert!(!m.in_shadow(0x403000));
    }

    #[test]
    fn shadow_lookup() {
        let m = sample();
        assert_eq!(m.shadow_of(0x400100), Some(0x401200));
        assert_eq!(m.shadow_of(0x400500), Some(0x401500));
        assert_eq!(m.shadow_of(0x400101), None);
    }

    #[test]
    fn address_translation_maps_instrumentation_to_predecessor() {
        let m = sample();
        // Exact hits.
        assert_eq!(m.to_original(0x400010), Some(0x400005));
        // An instrumentation instruction inserted after 0x400010 maps to
        // the same original instruction.
        assert_eq!(m.to_original(0x400015), Some(0x400005));
        // Shadow copy instruction maps to the same original address as its
        // real twin — reports deduplicate across copies.
        assert_eq!(m.to_original(0x401200), Some(0x400005));
        // Before all entries: unknown.
        assert_eq!(m.to_original(0x3fffff), None);
    }
}
