//! Heap bytes the engine holds. The benchmark binary and its self-test
//! register [`HeapAlloc`] as their global allocator: it counts allocations
//! through `lsm_bench`'s counting allocator and adds the count of live
//! bytes that one lacks. The benchmark's own allocations between engine
//! calls run through [`outside`], so the rest can be told apart.

use lsm_bench::alloc_track::CountingAlloc;
use std::alloc::{GlobalAlloc, Layout};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, Ordering};

static LIVE: AtomicI64 = AtomicI64::new(0);
/// Bytes kept by code run through [`outside`].
static OUTSIDE: AtomicI64 = AtomicI64::new(0);

thread_local! {
    /// Set while this thread runs [`outside`]. Booking by thread keeps a
    /// background maintenance worker's allocations, made meanwhile, out of
    /// the benchmark's share.
    static IN_OUTSIDE: Cell<bool> = const { Cell::new(false) };
}

pub struct HeapAlloc;

fn add(bytes: usize) {
    LIVE.fetch_add(bytes as i64, Ordering::Relaxed);
    if IN_OUTSIDE.try_with(Cell::get).unwrap_or(false) {
        OUTSIDE.fetch_add(bytes as i64, Ordering::Relaxed);
    }
}

fn sub(bytes: usize) {
    LIVE.fetch_sub(bytes as i64, Ordering::Relaxed);
    if IN_OUTSIDE.try_with(Cell::get).unwrap_or(false) {
        OUTSIDE.fetch_sub(bytes as i64, Ordering::Relaxed);
    }
}

// SAFETY: every call delegates verbatim to `CountingAlloc`, which delegates
// to the system allocator; the byte count has no effect on the memory
// returned.
unsafe impl GlobalAlloc for HeapAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let p = unsafe { CountingAlloc.alloc(layout) };
        if !p.is_null() {
            add(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with `layout`.
        unsafe { CountingAlloc.dealloc(ptr, layout) };
        sub(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from this allocator with `layout` and the
        // caller upholds `GlobalAlloc::realloc`'s contract.
        let p = unsafe { CountingAlloc.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            add(new_size);
            sub(layout.size());
        }
        p
    }
}

/// Runs `f`, benchmark work done between engine calls, and books the heap
/// bytes it allocates or frees as the benchmark's.
pub fn outside<T>(f: impl FnOnce() -> T) -> T {
    IN_OUTSIDE.set(true);
    let out = f();
    IN_OUTSIDE.set(false);
    out
}

/// Live heap bytes, less those booked by [`outside`]. Only differences
/// between two readings mean anything.
pub fn inside() -> i64 {
    LIVE.load(Ordering::Relaxed) - OUTSIDE.load(Ordering::Relaxed)
}
