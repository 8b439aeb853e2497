//! A `Program` keeps one table entry per walked instruction, not per
//! executable byte. A counting global allocator records the bytes
//! `Program::new` leaves allocated for the rewritten libyaml workload:
//! the pristine image, the per-byte index and the per-instruction
//! tables.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

use teapot::cc::Options;
use teapot::core::{rewrite, RewriteOptions};
use teapot::vm::Program;

struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn libyaml_program_retains_at_most_640_kib() {
    let mut cots = teapot::workloads::yaml_like()
        .build(&Options::gcc_like())
        .unwrap();
    cots.strip();
    let bin = rewrite(&cots, &RewriteOptions::default()).unwrap();

    let before = LIVE.load(Ordering::Relaxed);
    let prog = Program::new(&bin);
    let retained = LIVE.load(Ordering::Relaxed) - before;

    // 13,216 executable bytes, 3,522 walked instructions: ~100 B of
    // tables per instruction plus a 4 B index slot per byte, beside the
    // pristine image (~525 KiB in all). A table entry per byte retained
    // ~1,421 KiB.
    drop(prog);
    assert!(
        retained <= 640 << 10,
        "Program::new retained {retained} bytes"
    );
}
