//! A `TOF1` header whose symbol count claims far more entries than the
//! file holds must fail before it reserves memory for them. A counting
//! global allocator records the largest single request made while the
//! container is parsed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use teapot_obj::Binary;

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
fn a_hostile_symbol_count_fails_without_reserving_memory() {
    // Magic, flags, entry, 0 sections, 2^24 symbols — and nothing else.
    let mut bytes = b"TOF1".to_vec();
    bytes.push(0);
    bytes.extend_from_slice(&0u64.to_le_bytes());
    bytes.extend_from_slice(&0u32.to_le_bytes());
    bytes.extend_from_slice(&(1u32 << 24).to_le_bytes());
    assert_eq!(bytes.len(), 21);

    LARGEST.store(0, Ordering::Relaxed);
    let parsed = Binary::from_bytes(&bytes);
    let largest = LARGEST.load(Ordering::Relaxed);

    assert!(
        parsed.is_err(),
        "a 21-byte container cannot hold 2^24 symbols"
    );
    assert!(largest <= 64 << 10, "parser reserved {largest} bytes");
}
