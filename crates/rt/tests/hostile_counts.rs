//! A `.teapot.meta` blob whose pair counts claim far more entries than
//! it holds must fail before it reserves memory for them. A counting
//! global allocator records the largest single request made while the
//! blob is parsed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use teapot_rt::TeapotMeta;

struct Counting;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn hostile_pair_counts_fail_without_reserving_memory() {
    // Magic, the two ranges, 2^24 indirect + 2^26 address pairs — and
    // no pairs at all.
    let mut bytes = b"TPM1".to_vec();
    for _ in 0..4 {
        bytes.extend_from_slice(&0u64.to_le_bytes());
    }
    bytes.extend_from_slice(&(1u32 << 24).to_le_bytes());
    bytes.extend_from_slice(&(1u32 << 26).to_le_bytes());
    assert_eq!(bytes.len(), 44);

    LARGEST.store(0, Ordering::Relaxed);
    let parsed = TeapotMeta::from_bytes(&bytes);
    let largest = LARGEST.load(Ordering::Relaxed);

    assert!(
        parsed.is_err(),
        "a 44-byte blob cannot hold 2^24 + 2^26 pairs"
    );
    assert!(largest <= 64 << 10, "parser reserved {largest} bytes");
}
