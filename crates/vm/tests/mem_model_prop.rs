//! Property-based differential tests for the flat region-backed memory
//! subsystem: the new `PagedMem` / taint shadow / ASan shadow (page
//! slab + sorted region table + software TLB + chunked accessors) must
//! be observably identical to the seed's per-byte hashmap design. Each
//! property drives the real implementation and a deliberately naive
//! reference model (one `BTreeMap` entry per page, one loop iteration
//! per byte — the old code's semantics transcribed) through the same
//! random operation sequence and compares every outcome: read values,
//! fault kinds and addresses, partial cross-page writes, permission
//! upgrades, zero-on-write (lazy) ranges, poison verdicts, tag folds,
//! and the reset-equals-fresh contract after a dirty-page restore.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use teapot_rt::layout::{HEAP_BASE, INPUT_STAGING};
use teapot_rt::Tag;
use teapot_vm::{AsanEngine, MemFault, PagedMem, TaintEngine, PAGE_SIZE};

/// The seed's paged memory, transcribed: byte-per-byte operations over
/// a `BTreeMap` of whole pages, plus a set of zero-on-write pages that
/// read as zero until their first write or poke creates them writable.
#[derive(Clone, Default)]
struct RefMem {
    pages: BTreeMap<u64, (Vec<u8>, bool, bool)>, // bytes, writable, dirty
    lazy: BTreeSet<u64>,
}

impl RefMem {
    fn map_region(&mut self, start: u64, size: u64, writable: bool) {
        if size == 0 {
            return;
        }
        let first = start / PAGE_SIZE;
        let last = (start + size - 1) / PAGE_SIZE;
        for p in first..=last {
            let e = self
                .pages
                .entry(p)
                .or_insert_with(|| (vec![0; PAGE_SIZE as usize], writable, true));
            e.1 |= writable;
        }
    }

    fn map_lazy(&mut self, start: u64, size: u64) {
        if size == 0 {
            return;
        }
        self.lazy
            .extend(start / PAGE_SIZE..=(start + size - 1) / PAGE_SIZE);
    }

    /// Creates absent page `p` as the first write to it would.
    fn page_entry(&mut self, p: u64) -> &mut (Vec<u8>, bool, bool) {
        let writable = self.lazy.contains(&p);
        self.pages
            .entry(p)
            .or_insert_with(|| (vec![0; PAGE_SIZE as usize], writable, true))
    }

    fn seal_pristine(&mut self) {
        for e in self.pages.values_mut() {
            e.2 = false;
        }
    }

    fn reset_to(&mut self, pristine: &RefMem) {
        let keep: Vec<u64> = self
            .pages
            .keys()
            .copied()
            .filter(|p| pristine.pages.contains_key(p))
            .collect();
        self.pages.retain(|p, _| pristine.pages.contains_key(p));
        for p in keep {
            let src = &pristine.pages[&p];
            let dst = self.pages.get_mut(&p).unwrap();
            if dst.2 {
                dst.0.copy_from_slice(&src.0);
                dst.2 = false;
            }
            dst.1 = src.1;
        }
        self.lazy.clone_from(&pristine.lazy);
    }

    fn read_u8(&self, addr: u64) -> Result<u8, MemFault> {
        match self.pages.get(&(addr / PAGE_SIZE)) {
            Some(p) => Ok(p.0[(addr % PAGE_SIZE) as usize]),
            None if self.lazy.contains(&(addr / PAGE_SIZE)) => Ok(0),
            None => Err(MemFault::Unmapped { addr }),
        }
    }

    fn write_u8(&mut self, addr: u64, v: u8) -> Result<(), MemFault> {
        let page = addr / PAGE_SIZE;
        if self.lazy.contains(&page) {
            self.page_entry(page);
        }
        match self.pages.get_mut(&page) {
            Some(p) => {
                if !p.1 {
                    return Err(MemFault::ReadOnly { addr });
                }
                p.0[(addr % PAGE_SIZE) as usize] = v;
                p.2 = true;
                Ok(())
            }
            None => Err(MemFault::Unmapped { addr }),
        }
    }

    fn read_uint(&self, addr: u64, n: u64) -> Result<u64, MemFault> {
        let mut v = 0u64;
        for i in 0..n {
            v |= (self.read_u8(addr.wrapping_add(i))? as u64) << (8 * i);
        }
        Ok(v)
    }

    fn write_uint(&mut self, addr: u64, value: u64, n: u64) -> Result<(), MemFault> {
        for i in 0..n {
            self.write_u8(addr.wrapping_add(i), (value >> (8 * i)) as u8)?;
        }
        Ok(())
    }

    fn poke(&mut self, addr: u64, v: u8) {
        let e = self.page_entry(addr / PAGE_SIZE);
        e.0[(addr % PAGE_SIZE) as usize] = v;
        e.2 = true;
    }

    fn is_mapped(&self, addr: u64, len: u64) -> bool {
        if len == 0 {
            return true;
        }
        let Some(end) = addr.checked_add(len - 1) else {
            return false;
        };
        (addr / PAGE_SIZE..=end / PAGE_SIZE)
            .all(|p| self.pages.contains_key(&p) || self.lazy.contains(&p))
    }

    fn read_for_decode(&self, addr: u64, max: usize) -> Vec<u8> {
        let mut out = Vec::new();
        for i in 0..max as u64 {
            match self.read_u8(addr.wrapping_add(i)) {
                Ok(b) => out.push(b),
                Err(_) => break,
            }
        }
        out
    }
}

/// A random region layout: a handful of small regions near a few
/// interesting bases (page boundaries included).
fn layout_strategy() -> impl Strategy<Value = Vec<(u64, u64, bool)>> {
    proptest::collection::vec(
        (
            0u64..6,
            0u64..3 * PAGE_SIZE,
            1u64..2 * PAGE_SIZE,
            any::<bool>(),
        ),
        1..6,
    )
    .prop_map(|specs| {
        let bases = [
            0,
            PAGE_SIZE,
            16 * PAGE_SIZE,
            HEAP_BASE,
            INPUT_STAGING,
            0x7ffd_0000,
        ];
        specs
            .into_iter()
            .map(|(b, off, len, w)| (bases[b as usize] + off, len, w))
            .collect()
    })
}

/// One mutation step against both implementations.
#[derive(Debug, Clone)]
enum Op {
    WriteU8(u64, u8),
    WriteUint(u64, u64, u64),
    Poke(u64, u8),
    WriteN(u64, Vec<u8>),
    PokeFill(u64, u64, u8),
    MapRegion(u64, u64, bool),
    MapLazy(u64, u64),
}

fn addr_strategy() -> impl Strategy<Value = u64> {
    let bases = prop_oneof![
        Just(0u64),
        Just(PAGE_SIZE),
        Just(16 * PAGE_SIZE),
        Just(HEAP_BASE),
        Just(INPUT_STAGING),
        Just(0x7ffd_0000u64),
    ];
    (bases, 0u64..3 * PAGE_SIZE).prop_map(|(b, o)| b + o)
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (addr_strategy(), any::<u8>()).prop_map(|(a, v)| Op::WriteU8(a, v)),
        (addr_strategy(), any::<u64>(), 1u64..9).prop_map(|(a, v, n)| Op::WriteUint(a, v, n)),
        (addr_strategy(), any::<u8>()).prop_map(|(a, v)| Op::Poke(a, v)),
        (
            addr_strategy(),
            proptest::collection::vec(any::<u8>(), 0..40)
        )
            .prop_map(|(a, d)| Op::WriteN(a, d)),
        (addr_strategy(), 0u64..600, any::<u8>()).prop_map(|(a, l, v)| Op::PokeFill(a, l, v)),
        (addr_strategy(), 1u64..2 * PAGE_SIZE, any::<bool>())
            .prop_map(|(a, l, w)| Op::MapRegion(a, l, w)),
        (addr_strategy(), 1u64..2 * PAGE_SIZE).prop_map(|(a, l)| Op::MapLazy(a, l)),
    ]
}

/// An optional zero-on-write range of the initial layout, as the loader
/// maps the stack.
fn lazy_strategy() -> impl Strategy<Value = (bool, u64, u64)> {
    (any::<bool>(), addr_strategy(), 1u64..4 * PAGE_SIZE)
}

/// Maps the optional lazy range `lazy` in both.
fn map_lazy_both(real: &mut PagedMem, model: &mut RefMem, &(on, start, len): &(bool, u64, u64)) {
    if on {
        real.map_lazy(start, len);
        model.map_lazy(start, len);
    }
}

/// Applies `op` to both; asserts identical outcomes (including fault
/// kind and address, and the partial-write-then-fault contract).
fn apply_both(real: &mut PagedMem, model: &mut RefMem, op: &Op) {
    match op {
        Op::WriteU8(a, v) => assert_eq!(real.write_u8(*a, *v), model.write_u8(*a, *v), "{op:?}"),
        Op::WriteUint(a, v, n) => {
            assert_eq!(
                real.write_uint(*a, *v, *n),
                model.write_uint(*a, *v, *n),
                "{op:?}"
            );
        }
        Op::Poke(a, v) => {
            real.poke(*a, *v);
            model.poke(*a, *v);
        }
        Op::WriteN(a, d) => {
            let got = real.write_n(*a, d);
            // Reference: per-byte writes, stop at first fault.
            let mut want = Ok(());
            for (i, &b) in d.iter().enumerate() {
                if let Err(f) = model.write_u8(a.wrapping_add(i as u64), b) {
                    want = Err(f);
                    break;
                }
            }
            assert_eq!(got, want, "{op:?}");
        }
        Op::PokeFill(a, l, v) => {
            real.poke_fill(*a, *l, *v);
            for i in 0..*l {
                model.poke(a.wrapping_add(i), *v);
            }
        }
        Op::MapRegion(a, l, w) => {
            real.map_region(*a, *l, *w);
            model.map_region(*a, *l, *w);
        }
        Op::MapLazy(a, l) => {
            real.map_lazy(*a, *l);
            model.map_lazy(*a, *l);
        }
    }
}

/// Read-side comparison over a set of probe addresses.
fn compare_reads(real: &PagedMem, model: &RefMem, probes: &[u64]) {
    for &a in probes {
        assert_eq!(real.read_u8(a), model.read_u8(a), "read_u8 {a:#x}");
        for n in [2u64, 4, 8] {
            assert_eq!(
                real.read_uint(a, n),
                model.read_uint(a, n),
                "read_uint {a:#x} n{n}"
            );
        }
        assert_eq!(
            real.is_mapped(a, 17),
            model.is_mapped(a, 17),
            "is_mapped {a:#x}"
        );
        assert_eq!(
            real.read_for_decode(a, 16),
            model.read_for_decode(a, 16),
            "read_for_decode {a:#x}"
        );
        let mut out = [0u8; 24];
        let got = real.read_n(a, &mut out);
        let mut want_bytes = [0u8; 24];
        let mut want = Ok(());
        for i in 0..24u64 {
            match model.read_u8(a.wrapping_add(i)) {
                Ok(b) => want_bytes[i as usize] = b,
                Err(f) => {
                    want = Err(f);
                    break;
                }
            }
        }
        assert_eq!(got, want, "read_n {a:#x}");
        if want.is_ok() {
            assert_eq!(out, want_bytes, "read_n bytes {a:#x}");
        }
    }
}

proptest! {
    #![proptest_config(proptest::test_runner::Config::with_cases(64))]

    #[test]
    fn paged_mem_matches_reference_model(
        layout in layout_strategy(),
        lazy in lazy_strategy(),
        ops in proptest::collection::vec(op_strategy(), 1..40),
        probes in proptest::collection::vec(addr_strategy(), 8..20),
    ) {
        let mut real = PagedMem::new();
        let mut model = RefMem::default();
        for (start, len, w) in &layout {
            real.map_region(*start, *len, *w);
            model.map_region(*start, *len, *w);
        }
        map_lazy_both(&mut real, &mut model, &lazy);
        for op in &ops {
            apply_both(&mut real, &mut model, op);
        }
        compare_reads(&real, &model, &probes);
        prop_assert_eq!(real.mapped_pages(), model.pages.len());
    }

    #[test]
    fn reset_equals_fresh_after_dirty_restore(
        layout in layout_strategy(),
        lazy in lazy_strategy(),
        image in proptest::collection::vec((addr_strategy(), any::<u8>()), 1..30),
        run1 in proptest::collection::vec(op_strategy(), 1..30),
        run2 in proptest::collection::vec(op_strategy(), 1..30),
        probes in proptest::collection::vec(addr_strategy(), 8..20),
    ) {
        // Build a pristine image (loader-style), then check that a used
        // context restored by the dirty-bitset reset is observably a
        // fresh clone — including after a second, different run.
        let mut pristine = PagedMem::new();
        let mut model_pristine = RefMem::default();
        for (start, len, w) in &layout {
            pristine.map_region(*start, *len, *w);
            model_pristine.map_region(*start, *len, *w);
        }
        map_lazy_both(&mut pristine, &mut model_pristine, &lazy);
        for (a, v) in &image {
            pristine.poke(*a, *v);
            model_pristine.poke(*a, *v);
        }
        pristine.seal_pristine();
        model_pristine.seal_pristine();

        let mut live = pristine.clone();
        let mut model_live = model_pristine.clone();
        for op in &run1 {
            apply_both(&mut live, &mut model_live, op);
        }
        live.reset_to(&pristine);
        model_live.reset_to(&model_pristine);
        compare_reads(&live, &model_live, &probes);
        // Reset state must equal a fresh clone byte-for-byte.
        let fresh = pristine.clone();
        for &a in &probes {
            prop_assert_eq!(live.read_u8(a), fresh.read_u8(a));
        }
        prop_assert_eq!(live.mapped_pages(), pristine.mapped_pages());

        // A second run over the reset context behaves like a first run.
        let mut fresh_model = model_pristine.clone();
        for op in &run2 {
            apply_both(&mut live, &mut fresh_model, op);
        }
        compare_reads(&live, &fresh_model, &probes);
    }

    #[test]
    fn taint_matches_reference_model(
        ops in proptest::collection::vec(
            (addr_strategy(), 0u64..40, 0u8..4), 1..60),
        probes in proptest::collection::vec(addr_strategy(), 8..20),
    ) {
        let tags = [Tag::CLEAN, Tag::USER, Tag::SECRET_USER, Tag::MASSAGE];
        let mut real = TaintEngine::new();
        let mut model: BTreeMap<u64, u8> = BTreeMap::new();
        for (i, (a, l, t)) in ops.iter().enumerate() {
            let tag = tags[*t as usize];
            if i % 3 == 0 {
                real.union_mem_range(*a, *l, tag);
                for k in 0..*l {
                    let e = model.entry(a.wrapping_add(k)).or_insert(0);
                    *e |= tag.bits();
                }
            } else {
                real.set_mem_range(*a, *l, tag);
                for k in 0..*l {
                    model.insert(a.wrapping_add(k), tag.bits());
                }
            }
        }
        for &a in &probes {
            let want = Tag::from_bits(model.get(&a).copied().unwrap_or(0));
            prop_assert_eq!(real.mem_tag(a), want);
            let mut fold = 0u8;
            for i in 0..24u64 {
                fold |= model.get(&a.wrapping_add(i)).copied().unwrap_or(0);
            }
            prop_assert_eq!(real.mem_range_tag(a, 24), Tag::from_bits(fold));
        }
        // Reset reads like fresh.
        real.reset();
        for &a in &probes {
            prop_assert_eq!(real.mem_range_tag(a, 32), Tag::CLEAN);
        }
    }

    #[test]
    fn asan_poison_matches_per_byte_semantics(
        allocs in proptest::collection::vec(1u64..200, 1..12),
        frees in proptest::collection::vec(any::<bool>(), 1..12),
        probes in proptest::collection::vec((0usize..12, -24i64..240), 8..30),
    ) {
        // Drive the allocator, then compare range verdicts against the
        // definitional per-byte check (is_poisoned(addr,1) per byte).
        let mut a = AsanEngine::new();
        let mut bases = Vec::new();
        for (i, size) in allocs.iter().enumerate() {
            let (base, _, _) = a.malloc(*size);
            bases.push(base);
            if frees.get(i).copied().unwrap_or(false) {
                a.free(base);
            }
        }
        a.poison_ret_slot(0x7ffd_0000);
        for (which, off) in &probes {
            let base = bases[*which % bases.len()];
            let addr = base.wrapping_add(*off as u64);
            for len in [1u64, 3, 8, 17] {
                let want = (0..len).any(|i| a.is_poisoned(addr.wrapping_add(i), 1));
                prop_assert_eq!(
                    a.is_poisoned(addr, len),
                    want,
                    "addr {:#x} len {}", addr, len
                );
            }
        }
    }
}
