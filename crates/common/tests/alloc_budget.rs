//! Allocation budget of the record codec, counted exactly.
//!
//! A pass-through global allocator counts the allocations made by the
//! calling thread only, so tests running on other threads do not disturb
//! the counts. The budget for a tweet record (two `Str` fields) is one
//! allocation to encode and three to decode: the value `Vec` and one per
//! string.

use lsm_common::{Record, Value};
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

/// A record shaped like the paper's tweets: `(id, user_id, location,
/// creation_time, message)` with a 500-byte message.
fn tweet() -> Record {
    let message: String = (0..500)
        .map(|i| char::from(b'a' + (i % 26) as u8))
        .collect();
    Record::new(vec![
        Value::Int(123_456),
        Value::Int(42),
        Value::Str("CA".into()),
        Value::Int(1_500_000_000),
        Value::Str(message),
    ])
}

#[test]
fn tweet_encode_allocates_once_at_exact_size() {
    let record = tweet();
    let (enc, allocs) = counted(|| record.encode());
    assert_eq!(allocs, 1);
    assert_eq!(enc.capacity(), enc.len());
}

#[test]
fn tweet_decode_allocates_the_vec_and_one_per_string() {
    let enc = tweet().encode();
    let (decoded, allocs) = counted(|| Record::decode(&enc).unwrap());
    assert_eq!(allocs, 3);
    assert_eq!(decoded, tweet());
    assert_eq!(decoded.values.capacity(), decoded.values.len());
}

#[test]
fn escaped_string_decodes_with_one_allocation() {
    let value = Value::Str("nul\0in the\0middle of a longer string\0".into());
    let enc = value.encode();
    let (decoded, allocs) = counted(|| Value::decode_exact(&enc).unwrap());
    assert_eq!(allocs, 1);
    assert_eq!(decoded, value);
}

#[test]
fn wide_composite_decodes_into_one_exact_vec() {
    // More parts than `decode_composite` decodes onto the stack.
    let parts: Vec<Value> = (0..20).map(Value::Int).collect();
    let enc = lsm_common::value::encode_composite(&parts);
    let (decoded, allocs) = counted(|| lsm_common::value::decode_composite(&enc).unwrap());
    assert_eq!(allocs, 1);
    assert_eq!(decoded.capacity(), decoded.len());
    assert_eq!(decoded, parts);
}
