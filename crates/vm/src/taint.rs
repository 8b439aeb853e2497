//! The dynamic information flow tracking (DIFT) engine.
//!
//! Byte-granular memory tags live in a sparse shadow keyed by the data
//! address (conceptually at `addr ^ (1 << 45)` per the paper's Table 2 —
//! the mapping itself is defined and tested in `teapot-rt::layout`);
//! register tags are per-register folds. The engine is *always precise*:
//! tags propagate for every executed instruction. The inserted
//! `tag.prop`/`tag.blockprop` instrumentation opcodes only carry the cost
//! of the paper's inline propagation snippets.
//!
//! The shadow is a [`ShadowMem`](crate::slab) — the same region-table +
//! software-TLB page slab as guest memory — and every range operation is
//! chunked at page granularity instead of probing a map per byte. A
//! clean (`Tag::CLEAN`) range store over absent shadow pages allocates
//! nothing: a zeroed page reads exactly like an absent one, and most
//! stores move untainted data.
//!
//! # Origin shadow (taint provenance)
//!
//! Beside the tag shadow sits an *opt-in* byte-granular **origin
//! shadow** ([`OriginEngine`]) answering the follow-up question a tag
//! cannot: *which input bytes* sourced a tainted value. Each data byte
//! maps to an inclusive interval of input-byte offsets, stored as two
//! shadow bytes (interval lo / hi) in the [`OriginSpan`] encoding —
//! `offset + 1` per bound, `0` = no origin, saturating at offset 254,
//! so the zero-default slab semantics ("absent page reads as none")
//! carry over unchanged. Register origins are per-register interval
//! folds, like register tags. Origins propagate along exactly the same
//! flows as tags (`tag.prop`/`tag.blockprop` semantics), join being
//! interval union; the taint source `read_input` writes exact per-byte
//! offsets, `mark_user` contributes no origin (its taint is not
//! input-derived). The engine is enabled only on triage provenance
//! replays — the campaign hot path and the compiled dispatch tier never
//! touch it, keeping the zero-perturbation invariant intact.

use crate::slab::ShadowMem;
use teapot_rt::{OriginSpan, Tag};

/// Sparse byte-tag shadow plus register/FLAGS tags.
#[derive(Clone, Default)]
pub struct TaintEngine {
    mem: ShadowMem,
    /// Per-register tag folds.
    pub regs: [Tag; 16],
    /// Tags of the operands of the last FLAGS-writing instruction
    /// (consumed by the Port-contention policy).
    pub flags: Tag,
}

impl std::fmt::Debug for TaintEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaintEngine")
            .field("tag_pages", &self.mem.num_pages())
            .finish()
    }
}

impl TaintEngine {
    /// Creates a clean engine.
    pub fn new() -> TaintEngine {
        TaintEngine::default()
    }

    /// Tag of one memory byte.
    #[inline]
    pub fn mem_tag(&self, addr: u64) -> Tag {
        Tag::from_bits(self.mem.get(addr))
    }

    /// Telemetry snapshot of the tag shadow's slab:
    /// `(tlb_hits, tlb_misses, pages_allocated)`.
    pub(crate) fn telemetry_counts(&self) -> (u64, u64, u64) {
        self.mem.telemetry_counts()
    }

    /// Union of the tags of `[addr, addr+len)`.
    #[inline]
    pub fn mem_range_tag(&self, addr: u64, len: u64) -> Tag {
        Tag::from_bits(self.mem.fold_or(addr, len))
    }

    /// Sets the tag of one memory byte, returning the previous tag.
    #[inline]
    pub fn set_mem_tag(&mut self, addr: u64, tag: Tag) -> Tag {
        Tag::from_bits(self.mem.set(addr, tag.bits()))
    }

    /// Tags every byte of `[addr, addr+len)`, ignoring previous tags.
    #[inline]
    pub fn set_mem_range(&mut self, addr: u64, len: u64, tag: Tag) {
        self.mem.fill(addr, len, tag.bits());
    }

    /// Unions `tag` into every byte of `[addr, addr+len)`.
    pub fn union_mem_range(&mut self, addr: u64, len: u64, tag: Tag) {
        self.mem.or_fill(addr, len, tag.bits());
    }

    /// Copies the raw tag bytes of `[addr, addr+out.len())` into `out`
    /// (absent shadow reads as `Tag::CLEAN`) — the bulk read behind
    /// memory-log capture and store-buffer recording.
    #[inline]
    pub(crate) fn read_tags(&self, addr: u64, out: &mut [u8]) {
        self.mem.read_into(addr, out);
    }

    /// Writes raw tag bytes at `addr` — the bulk restore behind
    /// rollback replay. All-zero chunks skip absent pages.
    #[inline]
    pub(crate) fn write_tags(&mut self, addr: u64, tags: &[u8]) {
        self.mem.write_from(addr, tags);
    }

    /// Register tag accessor.
    #[inline]
    pub fn reg(&self, r: teapot_isa::Reg) -> Tag {
        self.regs[r.index()]
    }

    /// Register tag setter.
    #[inline]
    pub fn set_reg(&mut self, r: teapot_isa::Reg, t: Tag) {
        self.regs[r.index()] = t;
    }

    /// Clears all register and FLAGS tags (memory tags persist).
    pub fn clear_regs(&mut self) {
        self.regs = [Tag::CLEAN; 16];
        self.flags = Tag::CLEAN;
    }

    /// Makes the engine observably identical to a fresh one while
    /// keeping the shadow-page allocations for reuse across runs: every
    /// shadow page is zeroed (a zeroed page reads exactly like an absent
    /// one) and all register/FLAGS tags are cleared.
    pub fn reset(&mut self) {
        self.mem.reset();
        self.clear_regs();
    }
}

/// Byte-granular input-origin shadow plus register/FLAGS origin folds —
/// the provenance twin of [`TaintEngine`] (see the module header for
/// the encoding). Two slabs hold the interval bounds per data byte;
/// both inherit the zero-default semantics, so an untouched engine
/// costs no shadow pages.
#[derive(Clone, Default)]
pub struct OriginEngine {
    lo: ShadowMem,
    hi: ShadowMem,
    /// Per-register origin folds.
    pub regs: [OriginSpan; 16],
    /// Origin fold of the operands of the last FLAGS-writing
    /// instruction.
    pub flags: OriginSpan,
}

impl std::fmt::Debug for OriginEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OriginEngine")
            .field("origin_pages", &(self.lo.num_pages() + self.hi.num_pages()))
            .finish()
    }
}

impl OriginEngine {
    /// Creates an engine with no recorded origins.
    pub fn new() -> OriginEngine {
        OriginEngine::default()
    }

    /// Join of the origin spans of `[addr, addr+len)`. Access-sized
    /// ranges only (a per-byte walk; the VM folds at most 8 bytes).
    #[inline]
    pub fn mem_range(&self, addr: u64, len: u64) -> OriginSpan {
        let mut s = OriginSpan::NONE;
        for i in 0..len {
            let a = addr.wrapping_add(i);
            s = s.join(OriginSpan::from_raw(self.lo.get(a), self.hi.get(a)));
        }
        s
    }

    /// Sets every byte of `[addr, addr+len)` to `span`, ignoring
    /// previous origins (mirrors [`TaintEngine::set_mem_range`]).
    #[inline]
    pub fn set_mem_range(&mut self, addr: u64, len: u64, span: OriginSpan) {
        let (lo, hi) = span.raw();
        self.lo.fill(addr, len, lo);
        self.hi.fill(addr, len, hi);
    }

    /// Taint-source write: byte `addr + i` originates from exactly
    /// input offset `base_offset + i` (the `read_input` contract).
    pub fn set_input_range(&mut self, addr: u64, len: u64, base_offset: usize) {
        for i in 0..len {
            let (lo, hi) = OriginSpan::from_offset(base_offset + i as usize).raw();
            let a = addr.wrapping_add(i);
            self.lo.set(a, lo);
            self.hi.set(a, hi);
        }
    }

    /// Copies the raw origin bytes of `[addr, addr+out.len())` into the
    /// two bound buffers — the bulk read behind memory-log capture and
    /// store-buffer recording on provenance replays.
    #[inline]
    pub(crate) fn read_raw(&self, addr: u64, out_lo: &mut [u8], out_hi: &mut [u8]) {
        self.lo.read_into(addr, out_lo);
        self.hi.read_into(addr, out_hi);
    }

    /// Writes raw origin bytes at `addr` — the bulk restore behind
    /// rollback replay. All-zero chunks skip absent pages.
    #[inline]
    pub(crate) fn write_raw(&mut self, addr: u64, lo: &[u8], hi: &[u8]) {
        self.lo.write_from(addr, lo);
        self.hi.write_from(addr, hi);
    }

    /// Join of the raw-encoded spans of `bytes_lo`/`bytes_hi` (a
    /// store-buffer stale-origin fold).
    pub(crate) fn fold_raw(bytes_lo: &[u8], bytes_hi: &[u8]) -> OriginSpan {
        let mut s = OriginSpan::NONE;
        for (&l, &h) in bytes_lo.iter().zip(bytes_hi) {
            s = s.join(OriginSpan::from_raw(l, h));
        }
        s
    }

    /// Register origin accessor.
    #[inline]
    pub fn reg(&self, r: teapot_isa::Reg) -> OriginSpan {
        self.regs[r.index()]
    }

    /// Register origin setter.
    #[inline]
    pub fn set_reg(&mut self, r: teapot_isa::Reg, s: OriginSpan) {
        self.regs[r.index()] = s;
    }

    /// Clears all register and FLAGS origins (memory origins persist).
    pub fn clear_regs(&mut self) {
        self.regs = [OriginSpan::NONE; 16];
        self.flags = OriginSpan::NONE;
    }

    /// Makes the engine observably identical to a fresh one while
    /// keeping shadow-page allocations (see [`TaintEngine::reset`]).
    pub fn reset(&mut self) {
        self.lo.reset();
        self.hi.reset();
        self.clear_regs();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slab::PAGE_SIZE as PAGE;
    use teapot_isa::Reg;

    #[test]
    fn memory_tags_default_clean() {
        let t = TaintEngine::new();
        assert_eq!(t.mem_tag(0x1234), Tag::CLEAN);
        assert_eq!(t.mem_range_tag(0, 64), Tag::CLEAN);
    }

    #[test]
    fn range_union() {
        let mut t = TaintEngine::new();
        t.set_mem_range(100, 4, Tag::USER);
        assert_eq!(t.mem_range_tag(100, 4), Tag::USER);
        assert_eq!(t.mem_range_tag(98, 4), Tag::USER); // overlap
        assert_eq!(t.mem_range_tag(104, 4), Tag::CLEAN);
        t.union_mem_range(102, 4, Tag::SECRET_USER);
        assert_eq!(t.mem_tag(102), Tag::USER | Tag::SECRET_USER);
        assert_eq!(t.mem_tag(105), Tag::SECRET_USER);
    }

    #[test]
    fn set_returns_old() {
        let mut t = TaintEngine::new();
        assert_eq!(t.set_mem_tag(7, Tag::MASSAGE), Tag::CLEAN);
        assert_eq!(t.set_mem_tag(7, Tag::USER), Tag::MASSAGE);
    }

    #[test]
    fn clean_range_stores_allocate_no_shadow() {
        let mut t = TaintEngine::new();
        t.set_mem_range(0x7000, 64, Tag::CLEAN);
        assert_eq!(format!("{t:?}"), "TaintEngine { tag_pages: 0 }");
        assert_eq!(t.mem_range_tag(0x7000, 64), Tag::CLEAN);
    }

    #[test]
    fn bulk_tag_round_trip() {
        let mut t = TaintEngine::new();
        t.set_mem_range(PAGE - 2, 4, Tag::USER);
        let mut raw = [0u8; 6];
        t.read_tags(PAGE - 3, &mut raw);
        assert_eq!(raw[0], 0);
        assert_eq!(Tag::from_bits(raw[1]), Tag::USER);
        assert_eq!(Tag::from_bits(raw[4]), Tag::USER);
        assert_eq!(raw[5], 0);
        t.write_tags(PAGE - 3, &[0; 6]);
        assert_eq!(t.mem_range_tag(PAGE - 8, 16), Tag::CLEAN);
    }

    #[test]
    fn register_tags() {
        let mut t = TaintEngine::new();
        t.set_reg(Reg::R3, Tag::USER);
        assert_eq!(t.reg(Reg::R3), Tag::USER);
        t.clear_regs();
        assert_eq!(t.reg(Reg::R3), Tag::CLEAN);
    }

    #[test]
    fn reset_reads_like_fresh() {
        let mut t = TaintEngine::new();
        t.set_mem_range(100, 4, Tag::USER);
        t.set_reg(Reg::R1, Tag::SECRET_USER);
        t.flags = Tag::USER;
        t.reset();
        assert_eq!(t.mem_range_tag(0, 256), Tag::CLEAN);
        assert_eq!(t.reg(Reg::R1), Tag::CLEAN);
        assert_eq!(t.flags, Tag::CLEAN);
    }

    #[test]
    fn cross_page_tagging() {
        let mut t = TaintEngine::new();
        t.set_mem_range(PAGE - 2, 4, Tag::USER);
        assert_eq!(t.mem_tag(PAGE - 1), Tag::USER);
        assert_eq!(t.mem_tag(PAGE), Tag::USER);
        assert_eq!(t.mem_tag(PAGE + 2), Tag::CLEAN);
    }

    #[test]
    fn origin_default_none_and_input_source() {
        let mut o = OriginEngine::new();
        assert_eq!(o.mem_range(0x4000, 8), OriginSpan::NONE);
        // read_input contract: byte addr+i comes from offset base+i.
        o.set_input_range(0x4000, 4, 2);
        assert_eq!(o.mem_range(0x4000, 1).offsets(), Some((2, 2)));
        assert_eq!(o.mem_range(0x4003, 1).offsets(), Some((5, 5)));
        assert_eq!(o.mem_range(0x4000, 4).offsets(), Some((2, 5)));
        // Fold over a partially-sourced range joins only what's there.
        assert_eq!(o.mem_range(0x3ffe, 4).offsets(), Some((2, 3)));
    }

    #[test]
    fn origin_range_set_and_clear() {
        let mut o = OriginEngine::new();
        let s = OriginSpan::from_offset(0).join(OriginSpan::from_offset(3));
        o.set_mem_range(0x100, 8, s);
        assert_eq!(o.mem_range(0x100, 8), s);
        o.set_mem_range(0x100, 8, OriginSpan::NONE);
        assert_eq!(o.mem_range(0x100, 8), OriginSpan::NONE);
        // A none-span store over absent pages allocates nothing.
        let fresh = OriginEngine::new();
        assert_eq!(format!("{fresh:?}"), "OriginEngine { origin_pages: 0 }");
    }

    #[test]
    fn origin_raw_round_trip() {
        let mut o = OriginEngine::new();
        o.set_input_range(PAGE - 2, 4, 0);
        let (mut lo, mut hi) = ([0u8; 4], [0u8; 4]);
        o.read_raw(PAGE - 2, &mut lo, &mut hi);
        assert_eq!(OriginEngine::fold_raw(&lo, &hi).offsets(), Some((0, 3)));
        // Restore zeros: reads like untouched shadow again.
        o.write_raw(PAGE - 2, &[0; 4], &[0; 4]);
        assert_eq!(o.mem_range(PAGE - 8, 16), OriginSpan::NONE);
    }

    #[test]
    fn origin_registers_and_reset() {
        let mut o = OriginEngine::new();
        o.set_reg(Reg::R2, OriginSpan::from_offset(7));
        o.flags = OriginSpan::from_offset(1);
        assert_eq!(o.reg(Reg::R2).offsets(), Some((7, 7)));
        o.set_input_range(64, 2, 0);
        o.reset();
        assert_eq!(o.reg(Reg::R2), OriginSpan::NONE);
        assert_eq!(o.flags, OriginSpan::NONE);
        assert_eq!(o.mem_range(64, 2), OriginSpan::NONE);
    }
}
