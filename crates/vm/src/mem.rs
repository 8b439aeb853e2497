//! Flat region-backed guest memory.
//!
//! The full 64-bit address space is backed lazily by 4 KiB pages, which is
//! what makes the paper's high-half layouts (Tables 1–2) practical:
//! the heap at `0x6000_0000_0000` and the input staging area at
//! `0x7000_0000_0000` cost only the pages actually touched.
//!
//! The guest stack is a **zero-on-write** range ([`PagedMem::map_lazy`]),
//! as a native process's stack is mapped on first touch: its 4 MiB are
//! mapped and writable, but a page gets a slab slot only when it is
//! first written. Until then it reads as zeroes. The lazy case lives
//! only on the slot-lookup miss path every accessor already has, so
//! accesses to pages that have slots are unchanged.
//!
//! Access control is page-granular (like a real MMU): loads and stores to
//! unmapped pages fault, and stores to read-only pages fault. Byte-accurate
//! out-of-bounds detection is ASan's job, not the MMU's.
//!
//! Pages live in a contiguous, address-ordered slab indexed by a small
//! sorted region table with an inline software TLB in front (see
//! [`slab`](crate::slab)); per-page writability and dirtiness are
//! per-region bitsets riding alongside the slots. Multi-byte accesses
//! are **chunked**: they split only at page boundaries and copy page
//! slices, never bytes — replacing the seed's one-hashmap-probe-per-byte
//! hot path while keeping its observable semantics bit-for-bit
//! (fault addresses, partial cross-page stores, dirty-page reset).

use crate::slab::{for_page_chunks, lane_mask, BitVec, PageSlab};

pub use crate::slab::PAGE_SIZE;

/// Memory access fault kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemFault {
    /// Access to an unmapped page.
    Unmapped { addr: u64 },
    /// Write to a read-only page.
    ReadOnly { addr: u64 },
}

/// Region-backed paged memory with page-granular permissions.
#[derive(Clone, Default)]
pub struct PagedMem {
    slab: PageSlab,
    /// Per-slot writability.
    writable: BitVec,
    /// Per-slot dirty bits: written to since the last
    /// [`PagedMem::reset_to`] (or creation). Lets a reusable execution
    /// context restore only the pages a run touched instead of
    /// rebuilding the whole image.
    dirty: BitVec,
    /// Zero-on-write ranges as inclusive `(first_page, last_page)`
    /// pairs (see [`PagedMem::map_lazy`]).
    lazy: Vec<(u64, u64)>,
}

/// What a lazy page without a slot reads as.
static ZERO_PAGE: [u8; PAGE_SIZE as usize] = [0; PAGE_SIZE as usize];

impl std::fmt::Debug for PagedMem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagedMem")
            .field("mapped_pages", &self.slab.num_slots())
            .finish()
    }
}

impl PagedMem {
    /// Creates an empty address space.
    pub fn new() -> PagedMem {
        PagedMem::default()
    }

    /// Maps (or re-maps) `[start, start+size)`, zero-filled, with the given
    /// writability. Partial pages at the edges are mapped whole.
    pub fn map_region(&mut self, start: u64, size: u64, writable: bool) {
        if size == 0 {
            return;
        }
        let first = start / PAGE_SIZE;
        let last = (start + size - 1) / PAGE_SIZE;
        // One exact reservation for the whole run (a large mapping must
        // not double the slab page by page).
        self.slab
            .reserve_pages(self.slab.missing_pages(first, last) as usize);
        for p in first..=last {
            let (slot, created) = self.slab.ensure(p);
            if created {
                self.writable.insert(slot as usize, writable);
                self.dirty.insert(slot as usize, true);
            } else if writable {
                self.writable.set(slot as usize, true);
            }
        }
    }

    /// Maps `[start, start+size)` writable and zero-filled without
    /// giving its pages slab slots: a page gets its slot on its first
    /// write or poke, so an address space costs only the pages its runs
    /// write. Until then the page reads as zeroes and counts as mapped.
    /// Pages of the range that already have slots keep them, with their
    /// bytes and permissions.
    pub fn map_lazy(&mut self, start: u64, size: u64) {
        if size > 0 {
            self.lazy
                .push((start / PAGE_SIZE, (start + size - 1) / PAGE_SIZE));
        }
    }

    /// Whether `page` lies in a zero-on-write range.
    fn is_lazy(&self, page: u64) -> bool {
        self.lazy.iter().any(|&(f, l)| (f..=l).contains(&page))
    }

    /// The bytes of the page holding `addr`, for a read: its slot, or
    /// the shared zero page for a lazy page without one.
    #[inline(always)]
    fn read_page(&self, addr: u64) -> Result<&[u8], MemFault> {
        match self.slab.slot_of(addr / PAGE_SIZE) {
            Some(slot) => Ok(self.slab.page(slot)),
            None => self.read_miss(addr),
        }
    }

    #[cold]
    #[inline(never)]
    fn read_miss(&self, addr: u64) -> Result<&'static [u8], MemFault> {
        if self.is_lazy(addr / PAGE_SIZE) {
            Ok(&ZERO_PAGE)
        } else {
            Err(MemFault::Unmapped { addr })
        }
    }

    /// The slot of the page holding `addr`, for a guest store: a lazy
    /// page without a slot gets one first.
    ///
    /// # Errors
    ///
    /// Faults if the page is unmapped or read-only.
    #[inline(always)]
    fn write_slot(&mut self, addr: u64) -> Result<u32, MemFault> {
        let slot = match self.slab.slot_of(addr / PAGE_SIZE) {
            Some(slot) => slot,
            None => self.write_miss(addr)?,
        };
        if !self.writable.get(slot as usize) {
            return Err(MemFault::ReadOnly { addr });
        }
        Ok(slot)
    }

    #[cold]
    #[inline(never)]
    fn write_miss(&mut self, addr: u64) -> Result<u32, MemFault> {
        let page = addr / PAGE_SIZE;
        if !self.is_lazy(page) {
            return Err(MemFault::Unmapped { addr });
        }
        Ok(self.poke_slot(page))
    }

    /// The slot of `page` for a permission-bypassing write, marked
    /// dirty. An unmapped page is created zero-filled: writable inside a
    /// lazy range, read-only elsewhere.
    fn poke_slot(&mut self, page: u64) -> u32 {
        let (slot, created) = self.slab.ensure(page);
        if created {
            self.writable.insert(slot as usize, self.is_lazy(page));
            self.dirty.insert(slot as usize, true);
        } else {
            self.dirty.set(slot as usize, true);
        }
        slot
    }

    /// Marks the current contents as the pristine baseline: clears every
    /// dirty flag and trims the slab's spare capacity (the image never
    /// grows again). Called once after the loader builds the initial
    /// image.
    pub fn seal_pristine(&mut self) {
        self.dirty.zero();
        self.slab.trim();
    }

    /// Restores this address space to `pristine` in place, reusing the
    /// slab allocation: pages the last run wrote are byte-copied back
    /// from `pristine`, pages the run created (heap, and lazy pages it
    /// wrote) are dropped, untouched pages are left alone.
    ///
    /// `self` must have started as a clone of `pristine` (pages are never
    /// unmapped during a run, so `self`'s page set is always a superset).
    pub fn reset_to(&mut self, pristine: &PagedMem) {
        let dirty = std::mem::take(&mut self.dirty);
        let writable = &mut self.writable;
        self.slab.reset_to(
            &pristine.slab,
            |slot| dirty.get(slot as usize),
            |_, new_slot, p_slot| {
                writable.set(new_slot as usize, pristine.writable.get(p_slot as usize));
            },
        );
        let kept = pristine.slab.num_slots();
        self.writable.truncate(kept);
        self.dirty = dirty;
        self.dirty.truncate(kept);
        self.dirty.zero();
        self.lazy.clone_from(&pristine.lazy);
    }

    /// Whether every byte of `[addr, addr+len)` is mapped.
    #[inline]
    pub fn is_mapped(&self, addr: u64, len: u64) -> bool {
        if len == 0 {
            return true;
        }
        if len <= PAGE_SIZE - addr % PAGE_SIZE {
            // Fast path: one page (every ≤8-byte `asan.check`).
            let page = addr / PAGE_SIZE;
            return self.slab.slot_of(page).is_some() || self.is_lazy(page);
        }
        let Some(end) = addr.checked_add(len - 1) else {
            return false;
        };
        let first = addr / PAGE_SIZE;
        let last = end / PAGE_SIZE;
        (first..=last).all(|p| self.slab.slot_of(p).is_some() || self.is_lazy(p))
    }

    /// Number of pages with slab slots (for diagnostics): lazy pages
    /// count once written.
    pub fn mapped_pages(&self) -> usize {
        self.slab.num_slots()
    }

    /// `(len, capacity)` of the backing slab in bytes (for the growth
    /// tests).
    #[cfg(test)]
    pub(crate) fn slab_bytes(&self) -> (usize, usize) {
        (
            self.slab.num_slots() * PAGE_SIZE as usize,
            self.slab.capacity(),
        )
    }

    /// Telemetry snapshot of the backing slab:
    /// `(tlb_hits, tlb_misses, pages_allocated)`.
    pub(crate) fn telemetry_counts(&self) -> (u64, u64, u64) {
        self.slab.telemetry_counts()
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Faults if the page is unmapped.
    #[inline]
    pub fn read_u8(&self, addr: u64) -> Result<u8, MemFault> {
        Ok(self.read_page(addr)?[(addr % PAGE_SIZE) as usize])
    }

    /// Writes one byte.
    ///
    /// # Errors
    ///
    /// Faults if the page is unmapped or read-only.
    #[inline]
    pub fn write_u8(&mut self, addr: u64, value: u8) -> Result<(), MemFault> {
        let slot = self.write_slot(addr)?;
        self.slab.page_mut(slot)[(addr % PAGE_SIZE) as usize] = value;
        self.dirty.set(slot as usize, true);
        Ok(())
    }

    /// Reads `n ≤ 8` bytes little-endian into a `u64`.
    ///
    /// # Errors
    ///
    /// Faults if any byte is unmapped.
    #[inline(always)]
    pub fn read_uint(&self, addr: u64, n: u64) -> Result<u64, MemFault> {
        debug_assert!((1..=8).contains(&n));
        let off = (addr % PAGE_SIZE) as usize;
        if off + 8 <= PAGE_SIZE as usize {
            // Fast path: a full 8-byte window fits on the page, so the
            // value is one fixed-width load masked down to `n` bytes —
            // no length-dependent copy (which compiles to a `memcpy`
            // call for runtime lengths). Kept small and `inline(always)`
            // so the load folds into the interpreter loops; the edge
            // cases live out of line.
            let w: [u8; 8] = self.read_page(addr)?[off..off + 8]
                .try_into()
                .expect("8-byte window");
            return Ok(u64::from_le_bytes(w) & lane_mask(n));
        }
        self.read_uint_edge(addr, n)
    }

    /// Page-edge tail of [`PagedMem::read_uint`] (the last 7 bytes of a
    /// page, or a page-crossing access).
    #[cold]
    #[inline(never)]
    fn read_uint_edge(&self, addr: u64, n: u64) -> Result<u64, MemFault> {
        let off = (addr % PAGE_SIZE) as usize;
        let mut buf = [0u8; 8];
        if off + n as usize <= PAGE_SIZE as usize {
            // Near the page edge but still on one page.
            buf[..n as usize].copy_from_slice(&self.read_page(addr)?[off..off + n as usize]);
        } else {
            self.read_n(addr, &mut buf[..n as usize])?;
        }
        Ok(u64::from_le_bytes(buf))
    }

    /// Writes the low `n ≤ 8` bytes of `value` little-endian.
    ///
    /// # Errors
    ///
    /// Faults if any byte is unmapped or read-only. Bytes preceding a
    /// faulting byte may already be written (like a real partial store
    /// across a page boundary).
    #[inline(always)]
    pub fn write_uint(&mut self, addr: u64, value: u64, n: u64) -> Result<(), MemFault> {
        debug_assert!((1..=8).contains(&n));
        let off = (addr % PAGE_SIZE) as usize;
        if off + 8 <= PAGE_SIZE as usize {
            // Fast path: splice the low `n` bytes into a full 8-byte
            // window with one fixed-width read-modify-write. The bytes
            // above `n` are written back unchanged, which is invisible
            // (single-threaded machine, same page, same dirty bit) and
            // avoids a length-dependent copy. Kept small and
            // `inline(always)`; the edge cases live out of line.
            let slot = self.write_slot(addr)?;
            let win = &mut self.slab.page_mut(slot)[off..off + 8];
            let old = u64::from_le_bytes(win.try_into().expect("8-byte window"));
            let mask = lane_mask(n);
            let merged = (old & !mask) | (value & mask);
            win.copy_from_slice(&merged.to_le_bytes());
            self.dirty.set(slot as usize, true);
            return Ok(());
        }
        self.write_uint_edge(addr, value, n)
    }

    /// Page-edge tail of [`PagedMem::write_uint`].
    #[cold]
    #[inline(never)]
    fn write_uint_edge(&mut self, addr: u64, value: u64, n: u64) -> Result<(), MemFault> {
        let bytes = value.to_le_bytes();
        let off = (addr % PAGE_SIZE) as usize;
        if off + n as usize <= PAGE_SIZE as usize {
            // Near the page edge but still on one page.
            let slot = self.write_slot(addr)?;
            self.slab.page_mut(slot)[off..off + n as usize].copy_from_slice(&bytes[..n as usize]);
            self.dirty.set(slot as usize, true);
            return Ok(());
        }
        self.write_n(addr, &bytes[..n as usize])
    }

    /// Reads `[addr, addr+out.len())` into `out`, splitting only at page
    /// boundaries.
    ///
    /// # Errors
    ///
    /// Faults at the first unmapped byte (earlier chunks are already
    /// copied, exactly like the per-byte loop it replaces).
    pub fn read_n(&self, addr: u64, out: &mut [u8]) -> Result<(), MemFault> {
        if out.is_empty() {
            return Ok(());
        }
        let off = (addr % PAGE_SIZE) as usize;
        if out.len() <= PAGE_SIZE as usize - off {
            // Fast path: one page (memory-log capture, ≤8-byte loads).
            out.copy_from_slice(&self.read_page(addr)?[off..off + out.len()]);
            return Ok(());
        }
        let mut done = 0usize;
        let mut fault = None;
        for_page_chunks(addr, out.len() as u64, |a, chunk| {
            let page = match self.read_page(a) {
                Ok(page) => page,
                Err(f) => {
                    fault = Some(f);
                    return false;
                }
            };
            let off = (a % PAGE_SIZE) as usize;
            out[done..done + chunk].copy_from_slice(&page[off..off + chunk]);
            done += chunk;
            true
        });
        match fault {
            Some(f) => Err(f),
            None => Ok(()),
        }
    }

    /// Writes `data` at `addr`, splitting only at page boundaries.
    ///
    /// # Errors
    ///
    /// Faults at the first unmapped or read-only byte; preceding chunks
    /// are already written (real partial-store semantics, identical to
    /// the per-byte loop it replaces).
    pub fn write_n(&mut self, addr: u64, data: &[u8]) -> Result<(), MemFault> {
        if data.is_empty() {
            return Ok(());
        }
        let off = (addr % PAGE_SIZE) as usize;
        if data.len() <= PAGE_SIZE as usize - off {
            // Fast path: one page (≤8-byte stores).
            let slot = self.write_slot(addr)?;
            self.slab.page_mut(slot)[off..off + data.len()].copy_from_slice(data);
            self.dirty.set(slot as usize, true);
            return Ok(());
        }
        let mut done = 0usize;
        let mut fault = None;
        for_page_chunks(addr, data.len() as u64, |a, chunk| {
            let slot = match self.write_slot(a) {
                Ok(slot) => slot,
                Err(f) => {
                    fault = Some(f);
                    return false;
                }
            };
            let off = (a % PAGE_SIZE) as usize;
            self.slab.page_mut(slot)[off..off + chunk].copy_from_slice(&data[done..done + chunk]);
            self.dirty.set(slot as usize, true);
            done += chunk;
            true
        });
        match fault {
            Some(f) => Err(f),
            None => Ok(()),
        }
    }

    /// Appends `len` bytes at `addr` to `out` (no intermediate buffer).
    ///
    /// # Errors
    ///
    /// Faults if any byte is unmapped; `out` is unchanged on fault.
    pub fn read_append(&self, addr: u64, len: u64, out: &mut Vec<u8>) -> Result<(), MemFault> {
        let start = out.len();
        out.resize(start + len as usize, 0);
        match self.read_n(addr, &mut out[start..]) {
            Ok(()) => Ok(()),
            Err(f) => {
                out.truncate(start);
                Err(f)
            }
        }
    }

    /// Writes one byte bypassing write permissions. Used by the loader
    /// (read-only section images) and by rollback replay; never by guest
    /// instructions. Creates the page if unmapped: non-writable, unless
    /// it lies in a lazy range.
    pub fn poke(&mut self, addr: u64, value: u8) {
        let slot = self.poke_slot(addr / PAGE_SIZE);
        self.slab.page_mut(slot)[(addr % PAGE_SIZE) as usize] = value;
    }

    /// Bulk [`PagedMem::poke`]: writes `data` at `addr` bypassing write
    /// permissions, creating pages as [`PagedMem::poke`] does.
    pub fn poke_n(&mut self, addr: u64, data: &[u8]) {
        let off = (addr % PAGE_SIZE) as usize;
        if data.len() <= PAGE_SIZE as usize - off {
            // Fast path: one page, already mapped (rollback replay).
            if let Some(slot) = self.slab.slot_of(addr / PAGE_SIZE) {
                self.slab.page_mut(slot)[off..off + data.len()].copy_from_slice(data);
                self.dirty.set(slot as usize, true);
                return;
            }
        }
        let mut done = 0usize;
        for_page_chunks(addr, data.len() as u64, |a, chunk| {
            let slot = self.poke_slot(a / PAGE_SIZE);
            let off = (a % PAGE_SIZE) as usize;
            self.slab.page_mut(slot)[off..off + chunk].copy_from_slice(&data[done..done + chunk]);
            done += chunk;
            true
        });
    }

    /// Fills `[addr, addr+len)` with `value`, bypassing write
    /// permissions and creating pages as [`PagedMem::poke`] does — the
    /// bulk twin of [`PagedMem::poke`] for runtime pattern fills.
    pub fn poke_fill(&mut self, addr: u64, len: u64, value: u8) {
        for_page_chunks(addr, len, |a, chunk| {
            let slot = self.poke_slot(a / PAGE_SIZE);
            let off = (a % PAGE_SIZE) as usize;
            self.slab.page_mut(slot)[off..off + chunk].fill(value);
            true
        });
    }

    /// Reads up to `max` bytes for instruction decoding, stopping at an
    /// unmapped page (the decoder will report truncation).
    pub fn read_for_decode(&self, addr: u64, max: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(max);
        self.read_for_decode_into(addr, max, &mut out);
        out
    }

    /// [`PagedMem::read_for_decode`] into a reusable buffer (cleared
    /// first), so hot live-decode paths stop allocating per fetch.
    pub fn read_for_decode_into(&self, addr: u64, max: usize, out: &mut Vec<u8>) {
        out.clear();
        for_page_chunks(addr, max as u64, |a, chunk| {
            let Ok(page) = self.read_page(a) else {
                return false;
            };
            let off = (a % PAGE_SIZE) as usize;
            out.extend_from_slice(&page[off..off + chunk]);
            true
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmapped_faults() {
        let mut m = PagedMem::new();
        assert_eq!(m.read_u8(0x1000), Err(MemFault::Unmapped { addr: 0x1000 }));
        assert_eq!(
            m.write_u8(0x1000, 1),
            Err(MemFault::Unmapped { addr: 0x1000 })
        );
        m.map_region(0x1000, 16, true);
        assert_eq!(m.read_u8(0x1000), Ok(0));
        assert!(m.write_u8(0x1000, 7).is_ok());
        assert_eq!(m.read_u8(0x1000), Ok(7));
    }

    #[test]
    fn read_only_pages_reject_writes() {
        let mut m = PagedMem::new();
        m.map_region(0x2000, 64, false);
        assert_eq!(m.read_u8(0x2000), Ok(0));
        assert_eq!(
            m.write_u8(0x2010, 1),
            Err(MemFault::ReadOnly { addr: 0x2010 })
        );
        // Remapping with write permission upgrades.
        m.map_region(0x2000, 64, true);
        assert!(m.write_u8(0x2010, 1).is_ok());
    }

    #[test]
    fn multibyte_little_endian() {
        let mut m = PagedMem::new();
        m.map_region(0x3000, 32, true);
        m.write_uint(0x3000, 0x1122_3344_5566_7788, 8).unwrap();
        assert_eq!(m.read_uint(0x3000, 8).unwrap(), 0x1122_3344_5566_7788);
        assert_eq!(m.read_uint(0x3000, 4).unwrap(), 0x5566_7788);
        assert_eq!(m.read_u8(0x3007).unwrap(), 0x11);
    }

    #[test]
    fn cross_page_access() {
        let mut m = PagedMem::new();
        m.map_region(PAGE_SIZE - 4, 8, true);
        m.write_uint(PAGE_SIZE - 4, u64::MAX, 8).unwrap();
        assert_eq!(m.read_uint(PAGE_SIZE - 4, 8).unwrap(), u64::MAX);
        // Second page unmapped -> partial fault.
        let mut m2 = PagedMem::new();
        m2.map_region(0, PAGE_SIZE, true);
        assert!(m2.write_uint(PAGE_SIZE - 4, 1, 8).is_err());
    }

    #[test]
    fn partial_cross_page_write_faults_at_boundary() {
        // The chunked path must keep the seed's per-byte semantics: the
        // first page's bytes land, the fault names the first bad byte.
        let mut m = PagedMem::new();
        m.map_region(0, PAGE_SIZE, true);
        let err = m.write_n(PAGE_SIZE - 2, &[1, 2, 3, 4]).unwrap_err();
        assert_eq!(err, MemFault::Unmapped { addr: PAGE_SIZE });
        assert_eq!(m.read_u8(PAGE_SIZE - 2).unwrap(), 1);
        assert_eq!(m.read_u8(PAGE_SIZE - 1).unwrap(), 2);

        let mut m2 = PagedMem::new();
        m2.map_region(0, PAGE_SIZE, true);
        m2.map_region(PAGE_SIZE, PAGE_SIZE, false);
        let err = m2.write_n(PAGE_SIZE - 2, &[1, 2, 3, 4]).unwrap_err();
        assert_eq!(err, MemFault::ReadOnly { addr: PAGE_SIZE });
        assert_eq!(m2.read_u8(PAGE_SIZE - 1).unwrap(), 2);
        assert_eq!(m2.read_u8(PAGE_SIZE).unwrap(), 0);
    }

    #[test]
    fn high_half_addresses_work() {
        let mut m = PagedMem::new();
        let heap = teapot_rt::layout::HEAP_BASE;
        m.map_region(heap, 128, true);
        m.write_uint(heap + 64, 0xdead_beef, 4).unwrap();
        assert_eq!(m.read_uint(heap + 64, 4).unwrap(), 0xdead_beef);
        assert_eq!(m.mapped_pages(), 1);
    }

    #[test]
    fn is_mapped_ranges() {
        let mut m = PagedMem::new();
        m.map_region(0x5000, 0x1000, true);
        assert!(m.is_mapped(0x5000, 0x1000));
        assert!(m.is_mapped(0x5fff, 1));
        assert!(!m.is_mapped(0x5fff, 2));
        assert!(!m.is_mapped(u64::MAX, 2));
        assert!(m.is_mapped(0x1234, 0));
    }

    #[test]
    fn reset_to_restores_the_pristine_image() {
        let mut pristine = PagedMem::new();
        pristine.map_region(0x1000, 64, true);
        pristine.poke_n(0x1000, &[1, 2, 3, 4]);
        pristine.map_region(0x4000, 16, false);
        pristine.poke(0x4000, 0xAA);
        pristine.seal_pristine();

        let mut live = pristine.clone();
        // Dirty an existing page, create a fresh one (heap-like).
        live.write_u8(0x1002, 0xFF).unwrap();
        live.map_region(0x9000, 32, true);
        live.write_u8(0x9000, 0x55).unwrap();
        assert_eq!(live.mapped_pages(), pristine.mapped_pages() + 1);

        live.reset_to(&pristine);
        assert_eq!(live.mapped_pages(), pristine.mapped_pages());
        assert_eq!(live.read_u8(0x1002).unwrap(), 3);
        assert_eq!(live.read_u8(0x4000).unwrap(), 0xAA);
        assert!(!live.is_mapped(0x9000, 1));
        // Read-only permission restored too.
        assert!(live.write_u8(0x4000, 1).is_err());

        // A second run over the reset memory behaves like a first run.
        live.write_u8(0x1002, 0x77).unwrap();
        live.reset_to(&pristine);
        assert_eq!(live.read_u8(0x1002).unwrap(), 3);
    }

    #[test]
    fn reset_to_drops_interleaved_run_created_pages() {
        // A run-created page *between* pristine pages (not just past
        // them) must also be dropped, with pristine data intact.
        let mut pristine = PagedMem::new();
        pristine.map_region(0x1000, 8, true);
        pristine.poke_n(0x1000, &[9]);
        pristine.map_region(0x8000, 8, false);
        pristine.poke(0x8000, 0xBB);
        pristine.seal_pristine();

        let mut live = pristine.clone();
        live.map_region(0x4000, 8, true); // interleaved
        live.write_u8(0x4000, 1).unwrap();
        live.write_u8(0x1000, 0xFF).unwrap();
        live.reset_to(&pristine);
        assert!(!live.is_mapped(0x4000, 1));
        assert_eq!(live.read_u8(0x1000).unwrap(), 9);
        assert_eq!(live.read_u8(0x8000).unwrap(), 0xBB);
        assert_eq!(live.mapped_pages(), pristine.mapped_pages());
    }

    #[test]
    fn a_large_mapping_reserves_exactly() {
        const SIZE: u64 = 1023 * PAGE_SIZE;
        let base = 0x7000_0000;
        let mut m = PagedMem::new();
        m.map_region(base, SIZE, true);
        let (len, cap) = m.slab_bytes();
        assert_eq!(len as u64, SIZE);
        assert_eq!(cap, len);
        // Behind a few loader sections.
        let mut m = PagedMem::new();
        m.map_region(0x1000, 3 * PAGE_SIZE, false);
        m.map_region(0x10_0000, 100, true);
        m.map_region(base, SIZE, true);
        let (len, cap) = m.slab_bytes();
        assert_eq!(cap, len);
        // Re-mapping mapped pages reserves nothing.
        m.map_region(base, SIZE, true);
        assert_eq!(m.slab_bytes(), (len, cap));
    }

    #[test]
    fn a_lazy_range_costs_only_the_pages_written() {
        let base = 0x10_0000;
        let mut pristine = PagedMem::new();
        pristine.map_region(0x1000, PAGE_SIZE, false);
        pristine.map_lazy(base, 4 * PAGE_SIZE);
        pristine.seal_pristine();
        assert_eq!(pristine.mapped_pages(), 1);
        assert_eq!(
            pristine.slab_bytes(),
            (PAGE_SIZE as usize, PAGE_SIZE as usize)
        );

        // Unwritten: mapped, reads as zeroes, takes no slot.
        let mut live = pristine.clone();
        assert!(live.is_mapped(base, 4 * PAGE_SIZE));
        assert!(!live.is_mapped(base - 1, 2));
        assert!(!live.is_mapped(base + 4 * PAGE_SIZE - 1, 2));
        assert_eq!(live.read_uint(base + 8, 8), Ok(0));
        let mut out = [0xEEu8; 24];
        live.read_n(base + PAGE_SIZE - 12, &mut out).unwrap();
        assert_eq!(out, [0; 24]);
        assert_eq!(live.read_for_decode(base + 4 * PAGE_SIZE - 2, 8), [0, 0]);
        assert_eq!(live.mapped_pages(), 1);

        // A store gives its page a writable slot; the next page stays
        // lazy.
        live.write_uint(base + PAGE_SIZE + 8, 0x1122_3344, 4)
            .unwrap();
        assert_eq!(live.mapped_pages(), 2);
        assert_eq!(live.read_uint(base + PAGE_SIZE + 8, 8), Ok(0x1122_3344));
        assert_eq!(live.read_u8(base + PAGE_SIZE + 7), Ok(0));
        assert_eq!(live.read_u8(base + 2 * PAGE_SIZE), Ok(0));
        live.write_u8(base + PAGE_SIZE, 9).unwrap();
        assert_eq!(live.mapped_pages(), 2);
        // So does a poke, writable like the rest of the range.
        live.poke(base, 1);
        assert_eq!(live.write_u8(base + 1, 2), Ok(()));
        assert_eq!(live.mapped_pages(), 3);

        // A store from the top page, once written, across into the
        // unmapped page above writes its first part, then faults at the
        // boundary.
        let top = base + 4 * PAGE_SIZE;
        live.write_u8(top - 8, 7).unwrap();
        assert_eq!(live.mapped_pages(), 4);
        assert_eq!(
            live.write_uint(top - 2, u64::MAX, 4),
            Err(MemFault::Unmapped { addr: top })
        );
        assert_eq!(live.read_uint(top - 2, 2), Ok(0xFFFF));
        assert_eq!(live.mapped_pages(), 4);
        // Below the range is unmapped, as before.
        assert_eq!(
            live.write_u8(base - 1, 1),
            Err(MemFault::Unmapped { addr: base - 1 })
        );

        // Reset drops every written page: the range reads zero again,
        // and the next run's stores find it writable.
        live.reset_to(&pristine);
        assert_eq!(live.mapped_pages(), 1);
        for a in [base, base + PAGE_SIZE + 8, top - 2] {
            assert_eq!(live.read_uint(a, 2), Ok(0), "{a:#x}");
        }
        assert!(live.is_mapped(base, 4 * PAGE_SIZE));
        live.write_u8(base + 3 * PAGE_SIZE, 5).unwrap();
        assert_eq!(live.read_u8(base + 3 * PAGE_SIZE), Ok(5));
    }

    #[test]
    fn heap_growth_is_bounded_and_a_reset_run_does_not_regrow() {
        use teapot_rt::layout::{HEAP_BASE, STACK_LIMIT, STACK_TOP};
        let mut pristine = PagedMem::new();
        pristine.map_region(0x1000, PAGE_SIZE, true);
        pristine.map_lazy(STACK_TOP - STACK_LIMIT, STACK_LIMIT);
        pristine.seal_pristine();
        let mut live = pristine.clone();
        // A run mallocs page after page, as the runtime's MALLOC does,
        // between stores to the stack; the first one checks the growth
        // bound after every page.
        let run = |m: &mut PagedMem, check: bool| {
            for i in 0..300 {
                m.write_u8(STACK_TOP - 1 - (i % 40) * PAGE_SIZE, 1).unwrap();
                m.map_region(HEAP_BASE + i * PAGE_SIZE, 64, true);
                m.write_u8(HEAP_BASE + i * PAGE_SIZE, 1).unwrap();
                let (len, cap) = m.slab_bytes();
                assert!(!check || cap <= len + (16 * PAGE_SIZE as usize).max(len / 8));
            }
        };
        run(&mut live, true);
        let warmed = live.slab_bytes();
        live.reset_to(&pristine);
        assert_eq!(live.slab_bytes().1, warmed.1);
        run(&mut live, false);
        assert_eq!(live.slab_bytes(), warmed);
    }

    #[test]
    fn read_for_decode_stops_at_hole() {
        let mut m = PagedMem::new();
        m.map_region(0, PAGE_SIZE, true);
        m.poke_n(PAGE_SIZE - 2, &[0xAA, 0xBB]);
        let got = m.read_for_decode(PAGE_SIZE - 2, 12);
        assert_eq!(got, vec![0xAA, 0xBB]);
    }

    #[test]
    fn bulk_round_trip_across_pages() {
        let mut m = PagedMem::new();
        m.map_region(0, 3 * PAGE_SIZE, true);
        let data: Vec<u8> = (0..600).map(|i| (i * 7) as u8).collect();
        m.write_n(PAGE_SIZE - 300, &data).unwrap();
        let mut back = vec![0u8; 600];
        m.read_n(PAGE_SIZE - 300, &mut back).unwrap();
        assert_eq!(back, data);
        let mut appended = vec![0xEE];
        m.read_append(PAGE_SIZE - 300, 600, &mut appended).unwrap();
        assert_eq!(&appended[1..], &data[..]);
        assert!(m.read_append(4 * PAGE_SIZE, 8, &mut appended).is_err());
        assert_eq!(appended.len(), 601); // unchanged on fault
    }
}
