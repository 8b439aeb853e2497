//! The shared page-slab core behind every VM address space.
//!
//! [`PagedMem`](crate::mem::PagedMem), the DIFT tag shadow and the ASan
//! poison shadow all used to key a `FxHashMap` by page id and probe it
//! **once per byte** — eight probes for a single `u64` load, mirrored
//! again in each shadow. A [`PageSlab`] replaces that with:
//!
//! * one contiguous byte slab holding every mapped page in address
//!   order (loader-mapped images stay contiguous; the heap grows at the
//!   tail because `malloc` hands out strictly increasing addresses);
//! * a small **sorted region table** of page runs (`first_page`,
//!   `npages`, `slot0`) — the loader maps a handful of images, so the
//!   table stays a few entries long and a run lookup is one short
//!   binary search;
//! * an inline **software TLB** of [`TLB_ENTRIES`] recently-translated
//!   pages consulted before any region walk, so the hot path of a
//!   load/store is a couple of compares plus a slice index.
//!
//! On top of the slab, callers operate on **page-bounded chunks**
//! (slices that never cross a page boundary) instead of bytes: a `u64`
//! load is one TLB probe and one 8-byte copy, and `memcpy`-style guest
//! loops move whole page slices at a time.
//!
//! The slab never grows by doubling: doubled capacity would be copied
//! into every context cloned from a program image. Growth reserves
//! exactly `max(run, GROW_MIN_PAGES pages, len/8)`: a large mapping
//! reserves its whole run once and leaves no slack, while page-by-page
//! growth (the heap, stack pages written for the first time, sanitizer
//! shadows) stays amortized with its slack bounded by an eighth of the
//! slab. [`PageSlab::trim`] drops the slack of a sealed program image.
//! The 4 MiB guest stack holds no slots until it is written (see
//! [`PagedMem::map_lazy`](crate::mem::PagedMem::map_lazy)).
//!
//! [`ShadowMem`] layers zero-default semantics over a `PageSlab` for
//! the two sanitizer shadows: an absent page reads as zeroes, writing
//! zeroes to an absent page is a no-op (observably identical, and it
//! keeps untainted stores from allocating shadow pages), and `reset`
//! zeroes the slab in place so allocations survive across runs.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Page size in bytes (must be a power of two).
pub const PAGE_SIZE: u64 = 4096;
const PAGE: usize = PAGE_SIZE as usize;

/// Smallest growth step of a slab, in pages (see the module docs).
const GROW_MIN_PAGES: usize = 16;

/// Software-TLB depth (direct-mapped by page-id low bits). Wide enough
/// that the hot working set — several stack pages, globals, the input
/// staging area, a few heap and shadow pages — rarely conflicts, while
/// a probe stays one load + compare (256 bytes of table per address
/// space).
const TLB_ENTRIES: usize = 32;

/// Bits of a packed TLB entry holding the slot index; the page id
/// occupies the remaining high bits. One `u64` per entry keeps probes
/// and refreshes single relaxed atomic ops (no torn page/slot pairs),
/// which is what lets lookups through `&self` refresh the TLB while the
/// structure stays `Sync` (a `Program`'s pristine image is shared
/// across worker threads behind an `Arc`).
const TLB_SLOT_BITS: u32 = 28;
const TLB_SLOT_MASK: u64 = (1 << TLB_SLOT_BITS) - 1;
/// Page ids at or above this cannot be packed (only reachable via wild
/// speculative addresses beyond the 48-bit layout); they skip the TLB.
const TLB_MAX_PAGE: u64 = (1 << (64 - TLB_SLOT_BITS)) - 1;
const TLB_EMPTY: u64 = u64::MAX;

/// One run of consecutively-mapped pages backed by consecutive slots.
#[derive(Debug, Clone, Copy)]
struct Run {
    first_page: u64,
    npages: u32,
    /// Slot index of `first_page`; runs are sorted, slots are dense.
    slot0: u32,
}

/// Sorted page runs over one contiguous slab, fronted by a tiny TLB.
pub(crate) struct PageSlab {
    runs: Vec<Run>,
    bytes: Vec<u8>,
    /// Packed `page id << TLB_SLOT_BITS | slot` entries, direct-mapped
    /// by page id. Invalidated whenever the page→slot mapping changes
    /// (insertions shift slots).
    tlb: [AtomicU64; TLB_ENTRIES],
    /// Single-entry L0 front cache holding the last translation (same
    /// packing as `tlb`): a compiled window streaming accesses against
    /// one data page resolves it with a single load + compare, pinning
    /// the entry for the window regardless of direct-mapped conflicts.
    /// An L0 hit counts as a TLB hit, so hit + miss totals are
    /// unchanged by the cache's existence.
    l0: AtomicU64,
    /// Telemetry counters (TLB hits/misses, pages materialized).
    /// Atomics only because lookups go through `&self`; increments are
    /// relaxed load+store (no RMW — every counting slab is owned by one
    /// context/thread; the `Arc`-shared pristine image is only ever read
    /// through `reset_to`, which walks the region table directly and
    /// never touches these). The values never influence execution.
    tlb_hits: AtomicU64,
    tlb_misses: AtomicU64,
    pages_alloc: AtomicU64,
}

fn empty_tlb() -> [AtomicU64; TLB_ENTRIES] {
    std::array::from_fn(|_| AtomicU64::new(TLB_EMPTY))
}

impl Default for PageSlab {
    fn default() -> Self {
        PageSlab {
            runs: Vec::new(),
            bytes: Vec::new(),
            tlb: empty_tlb(),
            l0: AtomicU64::new(TLB_EMPTY),
            tlb_hits: AtomicU64::new(0),
            tlb_misses: AtomicU64::new(0),
            pages_alloc: AtomicU64::new(0),
        }
    }
}

impl Clone for PageSlab {
    fn clone(&self) -> Self {
        PageSlab {
            runs: self.runs.clone(),
            bytes: self.bytes.clone(),
            tlb: empty_tlb(),
            l0: AtomicU64::new(TLB_EMPTY),
            // A clone is a fresh address space (a context cloning the
            // pristine image): it starts counting from zero.
            tlb_hits: AtomicU64::new(0),
            tlb_misses: AtomicU64::new(0),
            pages_alloc: AtomicU64::new(0),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.runs.clone_from(&source.runs);
        self.bytes.clone_from(&source.bytes);
        self.invalidate_tlb();
        // Counters deliberately survive clone_from: rebinding a pooled
        // context re-clones the pristine image but the context keeps its
        // accumulated history.
    }
}

impl PageSlab {
    /// Slot of `page`: the pinned L0 entry first, then the direct-mapped
    /// TLB, then the region table.
    #[inline(always)]
    pub(crate) fn slot_of(&self, page: u64) -> Option<u32> {
        if page < TLB_MAX_PAGE {
            let p = self.l0.load(Relaxed);
            if p >> TLB_SLOT_BITS == page {
                // Relaxed load+store (not fetch_add): counting slabs are
                // single-owner, so a plain increment compiles to mov/add
                // with no lock prefix on the hottest path in the VM.
                self.tlb_hits
                    .store(self.tlb_hits.load(Relaxed) + 1, Relaxed);
                return Some((p & TLB_SLOT_MASK) as u32);
            }
            let v = self.tlb[page as usize % TLB_ENTRIES].load(Relaxed);
            if v >> TLB_SLOT_BITS == page {
                self.l0.store(v, Relaxed);
                self.tlb_hits
                    .store(self.tlb_hits.load(Relaxed) + 1, Relaxed);
                return Some((v & TLB_SLOT_MASK) as u32);
            }
        }
        self.slot_walk(page)
    }

    /// Region-table walk on a TLB miss; refreshes the TLB (and the L0
    /// pin) on a hit.
    #[cold]
    #[inline(never)]
    fn slot_walk(&self, page: u64) -> Option<u32> {
        self.tlb_misses
            .store(self.tlb_misses.load(Relaxed) + 1, Relaxed);
        let i = self.runs.partition_point(|r| r.first_page <= page);
        let r = self.runs.get(i.checked_sub(1)?)?;
        let off = page - r.first_page;
        if off >= r.npages as u64 {
            return None;
        }
        let slot = r.slot0 + off as u32;
        if page < TLB_MAX_PAGE && (slot as u64) <= TLB_SLOT_MASK {
            let packed = page << TLB_SLOT_BITS | slot as u64;
            self.tlb[page as usize % TLB_ENTRIES].store(packed, Relaxed);
            self.l0.store(packed, Relaxed);
        }
        Some(slot)
    }

    #[inline]
    pub(crate) fn page(&self, slot: u32) -> &[u8] {
        let o = slot as usize * PAGE;
        &self.bytes[o..o + PAGE]
    }

    #[inline]
    pub(crate) fn page_mut(&mut self, slot: u32) -> &mut [u8] {
        let o = slot as usize * PAGE;
        &mut self.bytes[o..o + PAGE]
    }

    /// Number of mapped pages.
    #[inline]
    pub(crate) fn num_slots(&self) -> usize {
        self.bytes.len() / PAGE
    }

    /// Allocated bytes (for the growth-bound tests).
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.bytes.capacity()
    }

    /// Pages of `first..=last` that are not mapped yet. Walks the region
    /// table directly, so the TLB and its counters are untouched.
    pub(crate) fn missing_pages(&self, first: u64, last: u64) -> u64 {
        let mapped: u64 = self
            .runs
            .iter()
            .map(|r| {
                (r.first_page + r.npages as u64)
                    .min(last + 1)
                    .saturating_sub(r.first_page.max(first))
            })
            .sum();
        last - first + 1 - mapped
    }

    /// Makes room for `n` more pages without doubling: when the spare
    /// capacity is short, grows by `max(n, GROW_MIN_PAGES)` pages or an
    /// eighth of the slab, whichever is larger, and by exactly that.
    pub(crate) fn reserve_pages(&mut self, n: usize) {
        let need = n * PAGE;
        let len = self.bytes.len();
        if self.bytes.capacity() - len < need {
            self.bytes
                .reserve_exact(need.max(GROW_MIN_PAGES * PAGE).max(len / 8));
        }
    }

    /// Drops the spare capacity (a sealed program image keeps no
    /// slack).
    pub(crate) fn trim(&mut self) {
        self.bytes.shrink_to_fit();
    }

    pub(crate) fn invalidate_tlb(&self) {
        self.l0.store(TLB_EMPTY, Relaxed);
        for e in &self.tlb {
            e.store(TLB_EMPTY, Relaxed);
        }
    }

    /// Maps `page` (zero-filled) if absent. Returns `(slot, created)`.
    /// Insertion keeps the slab in page order: appends are cheap (the
    /// heap case), interior inserts shift the tail.
    pub(crate) fn ensure(&mut self, page: u64) -> (u32, bool) {
        if let Some(s) = self.slot_of(page) {
            return (s, false);
        }
        *self.pages_alloc.get_mut() += 1;
        let i = self.runs.partition_point(|r| r.first_page <= page);
        let slot = match i.checked_sub(1) {
            Some(j) => self.runs[j].slot0 + self.runs[j].npages,
            None => 0,
        };
        // Open a page-sized, zeroed gap at `slot`.
        let at = slot as usize * PAGE;
        let old_len = self.bytes.len();
        self.reserve_pages(1);
        self.bytes.resize(old_len + PAGE, 0);
        if at < old_len {
            self.bytes.copy_within(at..old_len, at + PAGE);
            self.bytes[at..at + PAGE].fill(0);
        }
        // Region-table bookkeeping: extend / bridge / insert.
        let extends_prev =
            i > 0 && self.runs[i - 1].first_page + self.runs[i - 1].npages as u64 == page;
        let extends_next = i < self.runs.len() && page + 1 == self.runs[i].first_page;
        match (extends_prev, extends_next) {
            (true, true) => {
                let np = self.runs[i].npages;
                self.runs[i - 1].npages += 1 + np;
                self.runs.remove(i);
            }
            (true, false) => self.runs[i - 1].npages += 1,
            (false, true) => {
                self.runs[i].first_page = page;
                self.runs[i].npages += 1;
            }
            (false, false) => self.runs.insert(
                i,
                Run {
                    first_page: page,
                    npages: 1,
                    slot0: slot,
                },
            ),
        }
        let mut s = 0u32;
        for r in &mut self.runs {
            r.slot0 = s;
            s += r.npages;
        }
        self.invalidate_tlb();
        (slot, true)
    }

    /// Restores this slab to `pristine`'s page set in place. Per-slot
    /// hooks drive the caller's metadata:
    ///
    /// * `dirty(slot)` — whether the slot's bytes diverged from the
    ///   pristine image (if so, they are byte-copied back);
    /// * `kept(old_slot, new_slot, pristine_slot)` — called for every
    ///   surviving page so the caller can compact its own per-slot
    ///   state alongside the slab.
    ///
    /// Pages not present in `pristine` are dropped; `self`'s page set
    /// must be a superset of `pristine`'s (pages are never unmapped
    /// during a run).
    pub(crate) fn reset_to(
        &mut self,
        pristine: &PageSlab,
        mut dirty: impl FnMut(u32) -> bool,
        mut kept: impl FnMut(u32, u32, u32),
    ) {
        let mut p_iter = pristine
            .runs
            .iter()
            .flat_map(|r| (0..r.npages as u64).map(move |k| r.first_page + k));
        let mut p_next = p_iter.next();
        let mut pi = 0u32; // pristine slot cursor
        let mut keep = 0u32; // next compacted slot
        for ri in 0..self.runs.len() {
            let run = self.runs[ri];
            for k in 0..run.npages {
                let page = run.first_page + k as u64;
                let slot = run.slot0 + k;
                if p_next != Some(page) {
                    continue; // run-created page: dropped
                }
                if dirty(slot) {
                    self.page_mut(keep).copy_from_slice(pristine.page(pi));
                } else if keep != slot {
                    let from = slot as usize * PAGE;
                    self.bytes
                        .copy_within(from..from + PAGE, keep as usize * PAGE);
                }
                kept(slot, keep, pi);
                pi += 1;
                keep += 1;
                p_next = p_iter.next();
            }
        }
        assert!(
            p_next.is_none(),
            "PageSlab::reset_to: live page set must cover the pristine image"
        );
        self.bytes.truncate(keep as usize * PAGE);
        self.runs.clone_from(&pristine.runs);
        self.invalidate_tlb();
    }

    /// Zeroes every mapped page, keeping the mapping and allocation.
    pub(crate) fn zero_all(&mut self) {
        self.bytes.fill(0);
    }

    /// Telemetry snapshot: `(tlb_hits, tlb_misses, pages_allocated)`.
    /// Counters accumulate over the slab's lifetime (runs and resets
    /// never clear them).
    pub(crate) fn telemetry_counts(&self) -> (u64, u64, u64) {
        (
            self.tlb_hits.load(Relaxed),
            self.tlb_misses.load(Relaxed),
            self.pages_alloc.load(Relaxed),
        )
    }
}

/// Splits `[addr, addr+len)` into page-bounded chunks, calling
/// `f(chunk_addr, chunk_len)` for each; chunk advance wraps like the
/// per-byte `addr.wrapping_add(i)` loops it replaces. `f` returns
/// `false` to stop early (fault, early verdict).
#[inline]
pub(crate) fn for_page_chunks(addr: u64, len: u64, mut f: impl FnMut(u64, usize) -> bool) {
    let mut a = addr;
    let mut rem = len;
    while rem > 0 {
        let room = PAGE_SIZE - (a % PAGE_SIZE);
        let chunk = rem.min(room) as usize;
        if !f(a, chunk) {
            return;
        }
        a = a.wrapping_add(chunk as u64);
        rem -= chunk as u64;
    }
}

/// Mask selecting the low `n` bytes of a little-endian `u64` window
/// (`n` in `1..=8`). The fixed-width fast paths in the accessors read
/// or splice a full 8-byte window and mask with this instead of doing a
/// length-dependent byte copy (which compiles to a `memcpy` call when
/// the length is a runtime value).
#[inline]
pub(crate) fn lane_mask(n: u64) -> u64 {
    debug_assert!((1..=8).contains(&n));
    u64::MAX >> ((8 - n) * 8)
}

/// A sparse, zero-default byte shadow over a [`PageSlab`] — the shared
/// backing of the DIFT tag shadow and the ASan poison shadow. An absent
/// page reads as zeroes and a zeroed page is observably identical to an
/// absent one, which is what lets [`ShadowMem::reset`] keep page
/// allocations across runs.
#[derive(Clone, Default)]
pub(crate) struct ShadowMem {
    slab: PageSlab,
}

impl ShadowMem {
    /// Mapped shadow pages (diagnostics).
    pub(crate) fn num_pages(&self) -> usize {
        self.slab.num_slots()
    }

    /// Telemetry snapshot of the backing slab:
    /// `(tlb_hits, tlb_misses, pages_allocated)`.
    pub(crate) fn telemetry_counts(&self) -> (u64, u64, u64) {
        self.slab.telemetry_counts()
    }

    /// One shadow byte (0 when the page is absent).
    #[inline]
    pub(crate) fn get(&self, addr: u64) -> u8 {
        match self.slab.slot_of(addr / PAGE_SIZE) {
            Some(s) => self.slab.page(s)[(addr % PAGE_SIZE) as usize],
            None => 0,
        }
    }

    /// Sets one shadow byte, returning the previous value. Writing zero
    /// to an absent page is a no-op (it already reads as zero).
    #[inline]
    pub(crate) fn set(&mut self, addr: u64, v: u8) -> u8 {
        let page = addr / PAGE_SIZE;
        let slot = match self.slab.slot_of(page) {
            Some(s) => s,
            None if v == 0 => return 0,
            None => self.slab.ensure(page).0,
        };
        let b = &mut self.slab.page_mut(slot)[(addr % PAGE_SIZE) as usize];
        let old = *b;
        *b = v;
        old
    }

    /// The page-bounded chunk of shadow starting at `addr` (at most
    /// `max` bytes): `(chunk_len, Some(slice))` when the page is
    /// present, `(chunk_len, None)` when absent (all-zero).
    #[inline]
    pub(crate) fn chunk_at(&self, addr: u64, max: u64) -> (usize, Option<&[u8]>) {
        let room = PAGE_SIZE - (addr % PAGE_SIZE);
        let chunk = max.min(room) as usize;
        match self.slab.slot_of(addr / PAGE_SIZE) {
            Some(s) => {
                let off = (addr % PAGE_SIZE) as usize;
                (chunk, Some(&self.slab.page(s)[off..off + chunk]))
            }
            None => (chunk, None),
        }
    }

    /// Fills `[addr, addr+len)` with `v`. Filling zero skips absent
    /// pages entirely (the common untainted-store case).
    #[inline]
    pub(crate) fn fill(&mut self, addr: u64, len: u64, v: u8) {
        if len == 0 {
            return;
        }
        let off = addr % PAGE_SIZE;
        if len <= 8 && off + 8 <= PAGE_SIZE {
            // Fastest path: every ≤8-byte store tag update splices a
            // broadcast byte into one fixed 8-byte window (bytes above
            // `len` written back unchanged — invisible, and free of
            // length-dependent fills).
            let page = addr / PAGE_SIZE;
            let slot = match self.slab.slot_of(page) {
                Some(s) => s,
                None if v == 0 => return,
                None => self.slab.ensure(page).0,
            };
            let off = off as usize;
            let win = &mut self.slab.page_mut(slot)[off..off + 8];
            let old = u64::from_le_bytes(win.try_into().expect("8-byte window"));
            let mask = lane_mask(len);
            let pattern = v as u64 * 0x0101_0101_0101_0101;
            win.copy_from_slice(&((old & !mask) | (pattern & mask)).to_le_bytes());
            return;
        }
        if len <= PAGE_SIZE - off {
            // Fast path: one page.
            let page = addr / PAGE_SIZE;
            let slot = match self.slab.slot_of(page) {
                Some(s) => s,
                None if v == 0 => return,
                None => self.slab.ensure(page).0,
            };
            let off = off as usize;
            self.slab.page_mut(slot)[off..off + len as usize].fill(v);
            return;
        }
        for_page_chunks(addr, len, |a, chunk| {
            let page = a / PAGE_SIZE;
            let slot = match self.slab.slot_of(page) {
                Some(s) => s,
                None if v == 0 => return true,
                None => self.slab.ensure(page).0,
            };
            let off = (a % PAGE_SIZE) as usize;
            self.slab.page_mut(slot)[off..off + chunk].fill(v);
            true
        });
    }

    /// ORs `v` into every byte of `[addr, addr+len)`.
    pub(crate) fn or_fill(&mut self, addr: u64, len: u64, v: u8) {
        if v == 0 {
            return;
        }
        for_page_chunks(addr, len, |a, chunk| {
            let (slot, _) = self.slab.ensure(a / PAGE_SIZE);
            let off = (a % PAGE_SIZE) as usize;
            for b in &mut self.slab.page_mut(slot)[off..off + chunk] {
                *b |= v;
            }
            true
        });
    }

    /// OR-fold of `[addr, addr+len)` (absent pages contribute 0).
    #[inline]
    pub(crate) fn fold_or(&self, addr: u64, len: u64) -> u8 {
        let off = addr % PAGE_SIZE;
        if len <= 8 && len > 0 && off + 8 <= PAGE_SIZE {
            // Fastest path: every ≤8-byte load tag fold is one fixed
            // 8-byte window read, masked to `len`, OR-reduced in
            // registers.
            return match self.slab.slot_of(addr / PAGE_SIZE) {
                Some(s) => {
                    let off = off as usize;
                    let w: [u8; 8] = self.slab.page(s)[off..off + 8]
                        .try_into()
                        .expect("8-byte window");
                    let mut x = u64::from_le_bytes(w) & lane_mask(len);
                    x |= x >> 32;
                    x |= x >> 16;
                    x |= x >> 8;
                    (x & 0xff) as u8
                }
                None => 0,
            };
        }
        if len <= PAGE_SIZE - off {
            // Fast path: one page.
            return match self.slab.slot_of(addr / PAGE_SIZE) {
                Some(s) => {
                    let off = off as usize;
                    self.slab.page(s)[off..off + len as usize]
                        .iter()
                        .fold(0, |a, &b| a | b)
                }
                None => 0,
            };
        }
        let mut acc = 0u8;
        for_page_chunks(addr, len, |a, chunk| {
            if let (_, Some(s)) = self.chunk_at(a, chunk as u64) {
                for &b in s {
                    acc |= b;
                }
            }
            true
        });
        acc
    }

    /// Copies `[addr, addr+out.len())` into `out` (absent pages as 0).
    pub(crate) fn read_into(&self, addr: u64, out: &mut [u8]) {
        let off = (addr % PAGE_SIZE) as usize;
        if out.len() <= PAGE - off {
            // Fast path: one page (memory-log tag capture).
            match self.slab.slot_of(addr / PAGE_SIZE) {
                Some(s) => out.copy_from_slice(&self.slab.page(s)[off..off + out.len()]),
                None => out.fill(0),
            }
            return;
        }
        let mut done = 0usize;
        for_page_chunks(addr, out.len() as u64, |a, chunk| {
            match self.chunk_at(a, chunk as u64) {
                (_, Some(s)) => out[done..done + chunk].copy_from_slice(s),
                (_, None) => out[done..done + chunk].fill(0),
            }
            done += chunk;
            true
        });
    }

    /// Writes `src` at `addr`. All-zero chunks skip absent pages.
    pub(crate) fn write_from(&mut self, addr: u64, src: &[u8]) {
        let off = (addr % PAGE_SIZE) as usize;
        if src.len() <= PAGE - off {
            // Fast path: one page (rollback tag restore).
            let page = addr / PAGE_SIZE;
            let slot = match self.slab.slot_of(page) {
                Some(s) => s,
                None if src.iter().all(|&b| b == 0) => return,
                None => self.slab.ensure(page).0,
            };
            self.slab.page_mut(slot)[off..off + src.len()].copy_from_slice(src);
            return;
        }
        let mut done = 0usize;
        for_page_chunks(addr, src.len() as u64, |a, chunk| {
            let part = &src[done..done + chunk];
            done += chunk;
            let page = a / PAGE_SIZE;
            let slot = match self.slab.slot_of(page) {
                Some(s) => s,
                None if part.iter().all(|&b| b == 0) => return true,
                None => self.slab.ensure(page).0,
            };
            let off = (a % PAGE_SIZE) as usize;
            self.slab.page_mut(slot)[off..off + chunk].copy_from_slice(part);
            true
        });
    }

    /// Makes the shadow observably identical to a fresh one while
    /// keeping the page allocations for reuse across runs.
    pub(crate) fn reset(&mut self) {
        self.slab.zero_all();
    }
}

/// A growable bitset with mid-vector insertion, used for the per-region
/// page metadata (writability, dirtiness) that rides alongside a
/// [`PageSlab`]'s slots.
#[derive(Clone, Default)]
pub(crate) struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    #[inline]
    pub(crate) fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    #[inline]
    pub(crate) fn set(&mut self, i: usize, v: bool) {
        debug_assert!(i < self.len);
        let w = &mut self.words[i / 64];
        if v {
            *w |= 1 << (i % 64);
        } else {
            *w &= !(1 << (i % 64));
        }
    }

    pub(crate) fn push(&mut self, v: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        self.len += 1;
        self.set(self.len - 1, v);
    }

    /// Inserts `v` at `i`, shifting higher bits up by one.
    pub(crate) fn insert(&mut self, i: usize, v: bool) {
        self.push(false);
        let mut j = self.len - 1;
        while j > i {
            let b = self.get(j - 1);
            self.set(j, b);
            j -= 1;
        }
        self.set(i, v);
    }

    pub(crate) fn truncate(&mut self, n: usize) {
        if n >= self.len {
            return;
        }
        self.len = n;
        self.words.truncate(n.div_ceil(64));
        // Clear the tail bits of the last word so future pushes start clean.
        if !n.is_multiple_of(64) {
            if let Some(w) = self.words.last_mut() {
                *w &= (1u64 << (n % 64)) - 1;
            }
        }
    }

    /// Clears every bit, keeping the length.
    pub(crate) fn zero(&mut self) {
        self.words.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ensure_orders_pages_and_merges_runs() {
        let mut s = PageSlab::default();
        let (a, c1) = s.ensure(10);
        let (b, c2) = s.ensure(12);
        assert!(c1 && c2);
        assert_eq!((a, b), (0, 1));
        // Bridging page 11 lands between them.
        let (m, _) = s.ensure(11);
        assert_eq!(m, 1);
        assert_eq!(s.slot_of(12), Some(2));
        assert_eq!(s.runs.len(), 1);
        assert_eq!(s.num_slots(), 3);
        // Data stays with its page across the shift.
        s.page_mut(2)[0] = 0xAB;
        let (_, _) = s.ensure(5);
        assert_eq!(s.slot_of(12), Some(3));
        assert_eq!(s.page(3)[0], 0xAB);
    }

    #[test]
    fn single_page_growth_is_bounded_and_rare() {
        let mut s = PageSlab::default();
        let mut grows = 0;
        for p in 0..2000u64 {
            let before = s.capacity();
            s.ensure(1000 + p);
            grows += usize::from(s.capacity() != before);
            let len = s.num_slots() * PAGE;
            assert!(
                s.capacity() <= len + (GROW_MIN_PAGES * PAGE).max(len / 8),
                "page {p}: capacity {} over len {len}",
                s.capacity()
            );
        }
        // Geometric by 1/8: a few dozen reallocations, not one per page.
        assert!(grows < 60, "{grows} reallocations for 2000 pages");
    }

    #[test]
    fn missing_pages_counts_unmapped_pages_of_a_run() {
        let mut s = PageSlab::default();
        for p in [3, 4, 8] {
            s.ensure(p);
        }
        assert_eq!(s.missing_pages(0, 9), 7);
        assert_eq!(s.missing_pages(3, 4), 0);
        assert_eq!(s.missing_pages(4, 8), 3);
        assert_eq!(s.missing_pages(20, 20), 1);
        let (hits, misses, _) = s.telemetry_counts();
        s.missing_pages(0, 100);
        assert_eq!(s.telemetry_counts().0, hits);
        assert_eq!(s.telemetry_counts().1, misses);
    }

    #[test]
    fn shadow_zero_default_and_zero_write_skip() {
        let mut sh = ShadowMem::default();
        assert_eq!(sh.get(0x1234), 0);
        assert_eq!(sh.set(0x1234, 0), 0);
        assert_eq!(sh.num_pages(), 0); // zero write allocated nothing
        assert_eq!(sh.set(0x1234, 7), 0);
        assert_eq!(sh.get(0x1234), 7);
        assert_eq!(sh.num_pages(), 1);
        sh.fill(0x2000, 0x3000, 0); // zero fill over absent pages: no-op
        assert_eq!(sh.num_pages(), 1);
        assert_eq!(sh.fold_or(0x1000, 0x4000), 7);
    }

    #[test]
    fn shadow_bulk_round_trip_across_pages() {
        let mut sh = ShadowMem::default();
        let base = PAGE_SIZE - 3;
        sh.write_from(base, &[1, 2, 3, 4, 5, 6]);
        let mut out = [0u8; 8];
        sh.read_into(base.wrapping_sub(1), &mut out);
        assert_eq!(out, [0, 1, 2, 3, 4, 5, 6, 0]);
        assert_eq!(sh.fold_or(base, 6), 7);
        sh.reset();
        assert_eq!(sh.fold_or(0, 2 * PAGE_SIZE), 0);
        assert_eq!(sh.num_pages(), 2); // allocations kept
    }

    #[test]
    fn bitvec_insert_and_truncate() {
        let mut b = BitVec::default();
        for i in 0..100 {
            b.push(i % 3 == 0);
        }
        b.insert(50, true);
        assert!(b.get(50));
        for i in 0..50 {
            assert_eq!(b.get(i), i % 3 == 0);
        }
        for i in 51..101 {
            assert_eq!(b.get(i), (i - 1) % 3 == 0);
        }
        b.truncate(64);
        b.push(true);
        assert!(b.get(64));
    }
}
