//! Steady-state allocator traffic of the preprocessing fast path.
//!
//! `Scratch::allocations` only sees buffers taken from the arena; this
//! counts every allocator call a warm `preprocess_jpeg_with` makes, so a
//! per-request table or strip buffer that quietly moves to the heap shows
//! up as a number, not as RSS drift under load.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use vserve_codec::{encode, preprocess_jpeg_with, EncodeOptions};
use vserve_compute::{Backend, Scratch};
use vserve_tensor::Image;

thread_local! {
    /// Allocations made by the current thread (`alloc` + `realloc`).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// const-initialized thread-local `Cell<u64>` with no destructor, so
// touching it allocates nothing and is valid for the thread's whole life.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations_of(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn warm_preprocess_allocates_what_it_did_before_the_tap_tables() {
    // Allocator calls of one warm call at commit 815211c, the parent of
    // the change that hoisted the tap and upsampling tables: the output
    // `Image` and `Tensor` (data + shape), and the parser's small vectors
    // (Huffman tables, component list, per-component buffer lists). The
    // tables live on the stack, so the count is unchanged.
    const AT_PARENT: u64 = 13;
    let bk = Backend::serial();
    for (w, h, side) in [(500, 375, 224), (97, 61, 64)] {
        let jpeg = encode(&Image::gradient(w, h), &EncodeOptions::default());
        let mut scratch = Scratch::new();
        for _ in 0..4 {
            preprocess_jpeg_with(&bk, &mut scratch, &jpeg, side).expect("warm-up");
        }
        let warm = scratch.allocations();
        let n = allocations_of(|| {
            preprocess_jpeg_with(&bk, &mut scratch, &jpeg, side).expect("steady state");
        });
        assert_eq!(scratch.allocations(), warm, "{w}x{h}: scratch arena grew");
        assert_eq!(
            n, AT_PARENT,
            "{w}x{h} -> {side}: allocator calls of one warm call"
        );
    }
}
