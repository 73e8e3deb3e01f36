//! CLOCK (second-chance) buffer cache, shardable for concurrent readers.
//!
//! The cache tracks *which* pages are resident; the page bytes themselves are
//! owned by the simulated files. A lookup hit means the access is free; a
//! miss means the device cost model is charged and the page is admitted,
//! possibly evicting another page chosen by the CLOCK hand.
//!
//! CLOCK is the classic database buffer replacement policy: a circular array
//! of frames with reference bits, giving LRU-like behaviour with O(1)
//! amortized eviction and no list surgery on every hit.
//!
//! [`BufferCache`] is the single-threaded CLOCK; [`ShardedCache`] splits the
//! capacity across N independently locked shards keyed by a `(file, page)`
//! hash, each with its own CLOCK hand and atomic hit/miss counters, so
//! parallel query partitions do not serialize on one cache mutex. A sharded
//! cache with one shard behaves exactly like the single CLOCK.

use crate::storage::{FileId, PageNo};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PageKey {
    file: FileId,
    page: PageNo,
}

#[derive(Debug)]
struct Frame {
    key: PageKey,
    referenced: bool,
}

/// Fixed-capacity CLOCK cache over `(file, page)` keys.
#[derive(Debug)]
pub struct BufferCache {
    capacity: usize,
    map: HashMap<PageKey, usize>,
    frames: Vec<Frame>,
    hand: usize,
}

impl BufferCache {
    /// Creates a cache holding at most `capacity` pages. A capacity of zero
    /// disables caching entirely (every access misses).
    pub fn new(capacity: usize) -> Self {
        BufferCache {
            capacity,
            map: HashMap::with_capacity(capacity),
            frames: Vec::with_capacity(capacity.min(1 << 20)),
            hand: 0,
        }
    }

    /// Number of resident pages.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// True if no pages are resident.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Configured capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Marks `(file, page)` as accessed. Returns `true` on a hit.
    /// On a miss the page is admitted (evicting if full).
    pub fn access(&mut self, file: FileId, page: PageNo) -> bool {
        if self.capacity == 0 {
            return false;
        }
        let key = PageKey { file, page };
        if let Some(&idx) = self.map.get(&key) {
            self.frames[idx].referenced = true;
            return true;
        }
        self.admit(key);
        false
    }

    /// True if `(file, page)` is resident, without touching reference bits.
    pub fn contains(&self, file: FileId, page: PageNo) -> bool {
        self.map.contains_key(&PageKey { file, page })
    }

    fn admit(&mut self, key: PageKey) {
        if self.frames.len() < self.capacity {
            self.map.insert(key, self.frames.len());
            self.frames.push(Frame {
                key,
                referenced: true,
            });
            return;
        }
        // CLOCK sweep: clear reference bits until an unreferenced frame is
        // found, then replace it.
        loop {
            let frame = &mut self.frames[self.hand];
            if frame.referenced {
                frame.referenced = false;
                self.hand = (self.hand + 1) % self.frames.len();
            } else {
                self.map.remove(&frame.key);
                frame.key = key;
                frame.referenced = true;
                self.map.insert(key, self.hand);
                self.hand = (self.hand + 1) % self.frames.len();
                return;
            }
        }
    }

    /// Drops all pages belonging to `file` (the file was deleted after a
    /// merge). Eviction here is bookkeeping only — no cost is charged.
    pub fn evict_file(&mut self, file: FileId) {
        if self.frames.is_empty() {
            return;
        }
        // Retain in place, rebuilding the index map.
        let mut kept = Vec::with_capacity(self.frames.len());
        for f in self.frames.drain(..) {
            if f.key.file != file {
                kept.push(f);
            }
        }
        self.frames = kept;
        self.map.clear();
        for (i, f) in self.frames.iter().enumerate() {
            self.map.insert(f.key, i);
        }
        if self.frames.is_empty() {
            self.hand = 0;
        } else {
            self.hand %= self.frames.len();
        }
    }

    /// Empties the cache (used by benchmarks that want cold-cache queries).
    pub fn clear(&mut self) {
        self.map.clear();
        self.frames.clear();
        self.hand = 0;
    }
}

/// Per-shard counters and occupancy, snapshotted by
/// [`ShardedCache::shard_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheShardStats {
    /// Accesses this shard served from a resident page.
    pub hits: u64,
    /// Accesses that missed and were admitted (charged to the device).
    pub misses: u64,
    /// Pages currently resident in this shard.
    pub len: usize,
    /// This shard's slice of the total capacity.
    pub capacity: usize,
}

/// One independently locked slice of a [`ShardedCache`].
#[derive(Debug)]
struct CacheShard {
    clock: Mutex<BufferCache>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// A buffer cache split into independently locked CLOCK shards.
///
/// Pages are assigned to shards by a `(file, page)` hash, so concurrent
/// readers (parallel query partitions, maintenance scans) contend only when
/// they touch pages that happen to share a shard. Each shard runs its own
/// CLOCK hand over its slice of the capacity and counts hits/misses in
/// atomics; [`Storage`](crate::Storage) rolls the aggregate into
/// [`IoStats`](crate::IoStats) exactly as it did for the single CLOCK.
///
/// With `shards == 1` the behaviour (admissions, evictions, hit pattern) is
/// identical to a plain [`BufferCache`] of the same capacity.
#[derive(Debug)]
pub struct ShardedCache {
    shards: Vec<CacheShard>,
    capacity: usize,
}

impl ShardedCache {
    /// Creates a cache of `capacity` total pages split over `shards`
    /// independently locked CLOCK instances. The shard count is clamped to
    /// `[1, capacity]` so every shard owns at least one frame (a
    /// zero-capacity cache keeps one disabled shard).
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.clamp(1, capacity.max(1));
        let base = capacity / shards;
        let extra = capacity % shards;
        let shards = (0..shards)
            .map(|i| CacheShard {
                clock: Mutex::new(BufferCache::new(base + usize::from(i < extra))),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
            })
            .collect();
        ShardedCache { shards, capacity }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total configured capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total resident pages across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.clock.lock().len()).sum()
    }

    /// True if no pages are resident anywhere.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.clock.lock().is_empty())
    }

    fn shard(&self, file: FileId, page: PageNo) -> &CacheShard {
        // fmix64 finalizer: full avalanche, so consecutive pages of one
        // file spread evenly across shards.
        let h = lsm_bloom::fmix64((u64::from(file.0) << 32) | u64::from(page));
        &self.shards[(h % self.shards.len() as u64) as usize]
    }

    /// Marks `(file, page)` as accessed in its shard. Returns `true` on a
    /// hit; on a miss the page is admitted (evicting within the shard).
    pub fn access(&self, file: FileId, page: PageNo) -> bool {
        let shard = self.shard(file, page);
        let hit = shard.clock.lock().access(file, page);
        if hit {
            shard.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            shard.misses.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// True if `(file, page)` is resident, without touching reference bits
    /// or counters.
    pub fn contains(&self, file: FileId, page: PageNo) -> bool {
        self.shard(file, page).clock.lock().contains(file, page)
    }

    /// Counts a hit on `(file, page)` in its shard without probing the
    /// CLOCK: the caller re-reads a page it holds pinned.
    pub fn count_pinned_hit(&self, file: FileId, page: PageNo) {
        self.shard(file, page).hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Drops all pages belonging to `file` from every shard.
    pub fn evict_file(&self, file: FileId) {
        for shard in &self.shards {
            shard.clock.lock().evict_file(file);
        }
    }

    /// Empties every shard (counters are preserved).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.clock.lock().clear();
        }
    }

    /// Point-in-time per-shard hit/miss/occupancy rows, in shard order.
    pub fn shard_stats(&self) -> Vec<CacheShardStats> {
        self.shards
            .iter()
            .map(|s| {
                let clock = s.clock.lock();
                CacheShardStats {
                    hits: s.hits.load(Ordering::Relaxed),
                    misses: s.misses.load(Ordering::Relaxed),
                    len: clock.len(),
                    capacity: clock.capacity(),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(id: u32) -> FileId {
        FileId(id)
    }

    #[test]
    fn hits_after_admission() {
        let mut c = BufferCache::new(4);
        assert!(!c.access(f(1), 0));
        assert!(c.access(f(1), 0));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn zero_capacity_never_hits() {
        let mut c = BufferCache::new(0);
        assert!(!c.access(f(1), 0));
        assert!(!c.access(f(1), 0));
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn evicts_at_capacity() {
        let mut c = BufferCache::new(2);
        c.access(f(1), 0);
        c.access(f(1), 1);
        c.access(f(1), 2); // evicts one of the first two
        assert_eq!(c.len(), 2);
        assert!(c.contains(f(1), 2));
    }

    #[test]
    fn clock_prefers_evicting_unreferenced() {
        let mut c = BufferCache::new(2);
        c.access(f(1), 0);
        c.access(f(1), 1);
        // Touch page 0 so that its reference bit survives the first sweep.
        assert!(c.access(f(1), 0));
        c.access(f(1), 2);
        // Page 0 was recently referenced; CLOCK gives it a second chance.
        // After the sweep, one unreferenced frame was replaced.
        assert!(c.contains(f(1), 2));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn repeated_scan_larger_than_cache_always_misses() {
        let mut c = BufferCache::new(4);
        for round in 0..3 {
            let mut hits = 0;
            for p in 0..8 {
                if c.access(f(1), p) {
                    hits += 1;
                }
            }
            if round > 0 {
                // Sequential flooding defeats CLOCK just as it defeats LRU —
                // this mirrors the paper's full-scan behaviour on a cache
                // smaller than the dataset.
                assert!(hits <= 4, "round {round} had {hits} hits");
            }
        }
    }

    #[test]
    fn evict_file_removes_only_that_file() {
        let mut c = BufferCache::new(8);
        c.access(f(1), 0);
        c.access(f(2), 0);
        c.access(f(2), 1);
        c.evict_file(f(2));
        assert!(c.contains(f(1), 0));
        assert!(!c.contains(f(2), 0));
        assert!(!c.contains(f(2), 1));
        assert_eq!(c.len(), 1);
        // Cache still works after the rebuild.
        assert!(!c.access(f(3), 7));
        assert!(c.access(f(3), 7));
    }

    #[test]
    fn clear_empties() {
        let mut c = BufferCache::new(4);
        c.access(f(1), 0);
        c.clear();
        assert!(c.is_empty());
        assert!(!c.access(f(1), 0));
    }

    /// Replays an access trace against a plain CLOCK and a 1-shard
    /// [`ShardedCache`]; every hit/miss decision must be identical.
    #[test]
    fn one_shard_matches_single_clock() {
        let mut single = BufferCache::new(8);
        let sharded = ShardedCache::new(8, 1);
        // A trace with re-references, capacity pressure, and two files.
        let trace: Vec<(u32, PageNo)> = (0..200)
            .map(|i| ((i % 3) as u32, (i * 7 % 13) as PageNo))
            .collect();
        for &(file, page) in &trace {
            assert_eq!(
                single.access(f(file), page),
                sharded.access(f(file), page),
                "diverged at ({file}, {page})"
            );
        }
        assert_eq!(single.len(), sharded.len());
        let stats = sharded.shard_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].hits + stats[0].misses, trace.len() as u64);
    }

    #[test]
    fn shards_split_capacity_and_count_accesses() {
        let c = ShardedCache::new(10, 4);
        assert_eq!(c.num_shards(), 4);
        assert_eq!(c.capacity(), 10);
        let stats = c.shard_stats();
        assert_eq!(stats.iter().map(|s| s.capacity).sum::<usize>(), 10);
        assert!(stats.iter().all(|s| s.capacity >= 2));
        for p in 0..6 {
            assert!(!c.access(f(1), p));
            assert!(c.access(f(1), p));
        }
        let stats = c.shard_stats();
        assert_eq!(stats.iter().map(|s| s.hits).sum::<u64>(), 6);
        assert_eq!(stats.iter().map(|s| s.misses).sum::<u64>(), 6);
        assert_eq!(c.len(), 6);
    }

    #[test]
    fn shard_count_clamped_to_capacity() {
        let c = ShardedCache::new(2, 16);
        assert_eq!(c.num_shards(), 2);
        // Zero capacity: one disabled shard, every access misses.
        let c = ShardedCache::new(0, 8);
        assert_eq!(c.num_shards(), 1);
        assert!(!c.access(f(1), 0));
        assert!(!c.access(f(1), 0));
        assert!(c.is_empty());
    }

    #[test]
    fn sharded_evict_file_and_clear() {
        let c = ShardedCache::new(32, 4);
        for p in 0..8 {
            c.access(f(1), p);
            c.access(f(2), p);
        }
        c.evict_file(f(1));
        assert!((0..8).all(|p| !c.contains(f(1), p)));
        assert!((0..8).all(|p| c.contains(f(2), p)));
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn sharded_concurrent_access_is_safe() {
        let c = std::sync::Arc::new(ShardedCache::new(64, 8));
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let c = c.clone();
                scope.spawn(move || {
                    for i in 0..500u32 {
                        c.access(f(t), i % 37);
                    }
                });
            }
        });
        let stats = c.shard_stats();
        let total: u64 = stats.iter().map(|s| s.hits + s.misses).sum();
        assert_eq!(total, 4 * 500);
        assert!(c.len() <= 64);
    }
}
