//! The system allocator, noting the largest single request made on each
//! thread: how the totality properties bound a decoder's allocations by
//! the length of its input.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// [`System`], noting each request in `LARGEST`.
struct LargestRequest;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: allocations also happen while a thread's locals are
    // being torn down.
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

// SAFETY: each method passes its caller's arguments, under the caller's
// `GlobalAlloc` contract, straight to `System`, which honours the same
// contract; `note` touches only a const-initialised, drop-free thread
// local, so it neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: LargestRequest = LargestRequest;

/// Runs `f`, returning its result and the largest single allocation it
/// made on this thread.
pub fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|largest| largest.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}
