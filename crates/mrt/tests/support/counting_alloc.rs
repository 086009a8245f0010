//! A counting `#[global_allocator]` for the allocation-budget test
//! binaries (`alloc_budget.rs` here and in `crates/stream/tests`, and
//! `crates/obs/tests/trace_alloc.rs`; the other two include this file by
//! path): each is a test binary of its own, so no other suite runs under
//! it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// `(allocations, bytes)` requested on this thread. Const-initialised
    /// and without a destructor, so touching it never allocates.
    static REQUESTED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn note(bytes: usize) {
    REQUESTED.with(|r| {
        let (n, b) = r.get();
        r.set((n + 1, b + bytes as u64));
    });
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local counter bump
// that neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are exactly `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator, with
        // this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `(allocations, bytes)` this thread requested while `f` ran.
pub fn requested_by<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (n0, b0) = REQUESTED.with(Cell::get);
    let out = f();
    let (n1, b1) = REQUESTED.with(Cell::get);
    (out, n1 - n0, b1 - b0)
}
