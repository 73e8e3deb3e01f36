//! Allocation budget of the maintenance stream, counted exactly.
//!
//! A pass-through global allocator counts the allocations made by the
//! calling thread only, so tests running on other threads do not disturb
//! the counts. Flushes and merges stream entries from page to page; the
//! budget allows allocations per page written or read (the stored page,
//! its router key, a read-ahead burst), never per entry.

use lsm_storage::{Storage, StorageOptions};
use lsm_tree::{BuildOptions, ComponentBuilder, ComponentId, LsmEntry, LsmOptions, LsmTree};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct ThreadCountingAlloc;

fn count_one() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call delegates verbatim to `System`; the thread-local
// counter has no effect on the memory returned.
unsafe impl GlobalAlloc for ThreadCountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: ThreadCountingAlloc = ThreadCountingAlloc;

/// Runs `f` and returns its result with the allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

fn key(i: u32) -> Vec<u8> {
    format!("user/{i:08}").into_bytes()
}

/// Merging two 2,000-entry components (half the keys overlap, so the
/// merge reconciles 1,000 ties) allocates per page, not per entry: far
/// fewer than one allocation per four entries.
#[test]
fn merge_of_two_components_allocates_per_page() {
    const N: u32 = 2_000;
    let storage = Storage::new(StorageOptions::test());
    let tree = LsmTree::new(storage.clone(), LsmOptions::default());
    let mut ts = 0;
    for start in [0, N / 2] {
        for i in start..start + N {
            ts += 1;
            tree.put(key(i), LsmEntry::put_ts(vec![b'v'; 40], ts), ts);
        }
        tree.flush().unwrap();
    }
    assert_eq!(tree.num_disk_components(), 2);
    let entries = 2 * u64::from(N);
    let range = lsm_tree::MergeRange { start: 0, end: 1 };

    let pages_before = storage.stats().pages_written;
    let (merged, allocs) = counted(|| tree.merge_range(range).unwrap());
    let pages = storage.stats().pages_written - pages_before;
    assert_eq!(merged.num_entries(), u64::from(N + N / 2));
    assert!(
        allocs < entries / 4,
        "{allocs} allocations merging {entries} entries ({pages} pages written)"
    );
}

/// `ComponentBuilder::add` makes no allocation per entry: every
/// allocation of a build is charged to a page it wrote.
#[test]
fn component_builder_add_allocates_per_page_only() {
    let storage = Storage::new(StorageOptions::test());
    let mut builder = ComponentBuilder::new(
        storage.clone(),
        ComponentId::new(1, 2),
        BuildOptions::default(),
    )
    .unwrap();
    let entries: Vec<(Vec<u8>, LsmEntry)> = (0..20_000)
        .map(|i| (key(i), LsmEntry::put_ts(vec![b'v'; 40], u64::from(i) + 1)))
        .collect();

    // Warm-up: the first page sizes the reused buffers.
    let warm = 200;
    for (k, e) in &entries[..warm] {
        builder.add(k, e).unwrap();
    }
    let pages_before = storage.stats().pages_written;
    let ((), allocs) = counted(|| {
        for (k, e) in &entries[warm..] {
            builder.add(k, e).unwrap();
        }
    });
    let pages = storage.stats().pages_written - pages_before;
    let added = (entries.len() - warm) as u64;
    assert!(pages > 100, "only {pages} pages for {added} entries");
    // Per page: the stored page and its router key, plus amortized growth
    // of the page and router-key lists.
    assert!(
        allocs <= 3 * pages,
        "{allocs} allocations adding {added} entries over {pages} pages"
    );
    builder.finish().unwrap();
}
