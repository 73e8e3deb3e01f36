//! Stateful B+-tree search cursor (Section 3.2, "Stateful B+-tree Lookup").
//!
//! When a batch of sorted primary keys is probed against a component, most
//! consecutive probes land on the same or the next leaf. The cursor
//! keeps the last leaf **pinned** (its page handle and last key) and:
//!
//! * probes within the pinned leaf using **exponential search** from the
//!   last position (cheap for nearby keys) instead of a full root-to-leaf
//!   descent, without going back to storage for the page: the probe is
//!   accounted as the cache hit a re-read would be (global and per-shard
//!   counters) with the same CPU charge, so simulated time is unchanged;
//! * falls back to a root descent only when the probe key leaves the
//!   pinned leaf's key range.
//!
//! Probe keys must be non-decreasing; this is guaranteed by the sorted fetch
//! lists the engine produces.

use crate::leaf::LeafView;
use crate::tree::BTree;
use lsm_common::Result;
use lsm_storage::{PageNo, PageSlice};
use std::sync::Arc;

/// The leaf a cursor holds between probes.
struct PinnedLeaf {
    leaf_no: PageNo,
    page: Arc<[u8]>,
    /// Position of the previous probe within the leaf.
    pos: usize,
}

/// A stateful lookup cursor over one [`BTree`].
pub struct StatefulCursor<'t> {
    tree: &'t BTree,
    /// The current leaf, once a probe has descended to one.
    pinned: Option<PinnedLeaf>,
    /// Last key of the pinned leaf (meaningful while `pinned` is set),
    /// copied once per leaf.
    last_key: Vec<u8>,
    /// Reused buffer for keys rebuilt from prefix-compressed leaves.
    scratch: Vec<u8>,
    /// Statistics: root descents performed.
    pub descents: u64,
    /// Statistics: probes served from the pinned leaf.
    pub leaf_hits: u64,
}

impl<'t> StatefulCursor<'t> {
    /// Creates a cursor with no pinned leaf.
    pub fn new(tree: &'t BTree) -> Self {
        StatefulCursor {
            tree,
            pinned: None,
            last_key: Vec::new(),
            scratch: Vec::new(),
            descents: 0,
            leaf_hits: 0,
        }
    }

    /// Probes `key`, returning `(value, ordinal)` if present.
    ///
    /// Keys across successive calls must be non-decreasing.
    pub fn seek(&mut self, key: &[u8]) -> Result<Option<(Vec<u8>, u64)>> {
        Ok(self.seek_pinned(key)?.map(|(v, ord)| (v.to_vec(), ord)))
    }

    /// Like [`StatefulCursor::seek`] but the value pins the cached leaf
    /// page instead of being copied — the zero-copy batched-probe path.
    pub fn seek_pinned(&mut self, key: &[u8]) -> Result<Option<(PageSlice, u64)>> {
        // Fast path: the pinned leaf still covers `key`.
        if let Some(pinned) = &self.pinned {
            if key <= self.last_key.as_slice() {
                self.leaf_hits += 1;
                self.tree
                    .storage()
                    .note_pinned_hit(self.tree.file(), pinned.leaf_no);
                return self.probe_pinned(key, true);
            }
        }
        // Slow path: descend from the root and pin the leaf reached.
        self.descents += 1;
        let Some(leaf_no) = self.tree.locate_leaf(key)? else {
            return Ok(None);
        };
        let page = self.tree.read_leaf(leaf_no)?;
        let leaf = LeafView::parse(&page)?;
        match leaf.count() {
            0 => self.last_key.clear(),
            n => {
                leaf.entry_into(n - 1, &mut self.last_key)?;
            }
        }
        self.pinned = Some(PinnedLeaf {
            leaf_no,
            page,
            pos: 0,
        });
        self.probe_pinned(key, false)
    }

    /// Searches the pinned leaf for `key` — galloping from the previous
    /// position, or a full in-page search after a descent — and charges
    /// the node visit.
    fn probe_pinned(&mut self, key: &[u8], exponential: bool) -> Result<Option<(PageSlice, u64)>> {
        // INVARIANT: both callers pin a leaf first.
        let pinned = self.pinned.as_mut().expect("a pinned leaf");
        let leaf = LeafView::parse(&pinned.page)?;
        let (found, cmps) = if exponential {
            leaf.exponential_search(key, pinned.pos, &mut self.scratch)?
        } else {
            leaf.search(key)?
        };
        let storage = self.tree.storage();
        let cpu = storage.cpu();
        storage.charge_cpu(cpu.btree_node_visit_ns + u64::from(cmps) * cpu.key_cmp_ns);

        pinned.pos = match found {
            Ok(i) => i,
            Err(i) => i.min(leaf.count().saturating_sub(1)),
        };
        match found {
            Ok(i) => {
                let v = leaf.value(i, &mut self.scratch)?;
                let ordinal = leaf.base_ordinal() + i as u64;
                Ok(Some((PageSlice::from_subslice(&pinned.page, v), ordinal)))
            }
            Err(_) => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::BTreeBuilder;
    use lsm_storage::{IoStatsSnapshot, LeafEncoding, Storage, StorageOptions};
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    }

    /// Counts the allocations of the calling thread only, so tests running
    /// on other threads do not disturb a count.
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

    fn build(n: u32) -> BTree {
        let s = Storage::new(StorageOptions::test());
        let mut b = BTreeBuilder::new(s);
        for i in 0..n {
            b.add(format!("key{i:08}").as_bytes(), format!("v{i}").as_bytes())
                .unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn seek_finds_every_present_key_in_order() {
        let t = build(2000);
        let mut c = StatefulCursor::new(&t);
        for i in (0..2000u32).step_by(3) {
            let k = format!("key{i:08}");
            let (v, ord) = c.seek(k.as_bytes()).unwrap().unwrap();
            assert_eq!(v, format!("v{i}").as_bytes());
            assert_eq!(ord, i as u64);
        }
    }

    #[test]
    fn seek_misses_absent_keys() {
        let t = build(100);
        let mut c = StatefulCursor::new(&t);
        assert!(c.seek(b"key00000010x").unwrap().is_none());
        // Still finds later keys after a miss.
        assert!(c.seek(b"key00000050").unwrap().is_some());
        assert!(c.seek(b"zzz").unwrap().is_none());
    }

    #[test]
    fn dense_probes_mostly_avoid_descents() {
        let t = build(5000);
        let mut c = StatefulCursor::new(&t);
        for i in 0..5000u32 {
            let k = format!("key{i:08}");
            c.seek(k.as_bytes()).unwrap().unwrap();
        }
        // Dense ascending probes should ride leaves: descents only when
        // crossing leaf boundaries... and even those go through the fast
        // path check first. Expect descents << probes.
        assert!(
            c.descents < 5000 / 4,
            "descents {} leaf_hits {}",
            c.descents,
            c.leaf_hits
        );
        assert!(c.leaf_hits > 5000 / 2);
    }

    #[test]
    fn cursor_on_empty_tree() {
        let t = build(0);
        let mut c = StatefulCursor::new(&t);
        assert!(c.seek(b"x").unwrap().is_none());
    }

    #[test]
    fn sparse_probes_still_correct() {
        let t = build(5000);
        let mut c = StatefulCursor::new(&t);
        for i in (0..5000u32).step_by(997) {
            let k = format!("key{i:08}");
            let (v, _) = c.seek(k.as_bytes()).unwrap().unwrap();
            assert_eq!(v, format!("v{i}").as_bytes());
        }
    }

    /// What one probe sequence did: the ordinals it found, the device
    /// counter delta, the simulated-clock delta and the per-shard cache
    /// hits.
    #[derive(Debug, PartialEq, Eq)]
    struct ProbeLedger {
        found: Vec<Option<u64>>,
        stats: IoStatsSnapshot,
        clock_ns: u64,
        shard_hits: Vec<u64>,
    }

    fn key_of(i: u32) -> Vec<u8> {
        format!("key{i:08}").into_bytes()
    }

    /// Builds `n` keys on a fresh device, empties its cache, then runs
    /// `probes` through one cursor and returns the ledger of the probes
    /// alone.
    fn probe_ledger(opts: StorageOptions, n: u32, probes: &[Vec<u8>]) -> ProbeLedger {
        let s = Storage::new(opts);
        let mut b = BTreeBuilder::new(s.clone());
        for i in 0..n {
            b.add(&key_of(i), format!("v{i}").as_bytes()).unwrap();
        }
        let t = b.finish().unwrap();
        s.clear_cache();
        let shard_hits =
            |s: &Storage| -> Vec<u64> { s.cache_shard_stats().iter().map(|x| x.hits).collect() };
        let (before, clock_before, hits_before) =
            (s.stats(), s.clock().now_nanos(), shard_hits(&s));
        let mut c = StatefulCursor::new(&t);
        let found = probes
            .iter()
            .map(|k| c.seek_pinned(k).unwrap().map(|(_, ord)| ord))
            .collect();
        ProbeLedger {
            found,
            stats: s.stats().since(&before),
            clock_ns: s.clock().now_nanos() - clock_before,
            shard_hits: shard_hits(&s)
                .iter()
                .zip(&hits_before)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }

    /// The probe sequences of [`cursor_ledger_is_pinned`], by name.
    fn probe_sequences(t: &BTree) -> Vec<(&'static str, u32, Vec<Vec<u8>>)> {
        // Leaf-crossing: the last key of every leaf, then the first key
        // of the next one.
        let mut crossing = Vec::new();
        for leaf in 1..t.num_leaves() {
            let first = t.leaf_first_key(leaf).unwrap().unwrap();
            let i: u32 = std::str::from_utf8(&first[3..]).unwrap().parse().unwrap();
            crossing.push(key_of(i - 1));
            crossing.push(first);
        }
        vec![
            ("dense", 3000, (0..3000).map(key_of).collect()),
            ("sparse", 3000, (0..3000).step_by(397).map(key_of).collect()),
            (
                "repeated",
                3000,
                (0..600)
                    .step_by(5)
                    .flat_map(|i| [key_of(i), key_of(i), key_of(i)])
                    .collect(),
            ),
            (
                "miss",
                3000,
                (0..3000)
                    .step_by(7)
                    .map(|i| {
                        let mut k = key_of(i);
                        k.push(b'x');
                        k
                    })
                    .chain([b"zzz".to_vec()])
                    .collect(),
            ),
            ("crossing", 3000, crossing),
            ("empty", 0, vec![b"a".to_vec(), key_of(5), b"zzz".to_vec()]),
        ]
    }

    /// Every probe sequence charges exactly the device counters, cache
    /// hits (global and per shard) and simulated time recorded before the
    /// cursor pinned its leaf: serving a probe from the pinned page must
    /// account for it as the cache hit it replaces.
    #[test]
    fn cursor_ledger_is_pinned() {
        let configs = [
            ("plain", StorageOptions::test()),
            (
                "prefix-sharded",
                StorageOptions {
                    leaf_encoding: lsm_storage::LeafEncoding::Prefix,
                    cache_pages: 8,
                    cache_shards: 4,
                    ..StorageOptions::test()
                },
            ),
        ];
        let layout = build(3000);
        let mut want = RECORDED.iter();
        for (config, opts) in configs {
            for (name, n, probes) in probe_sequences(&layout) {
                let l = probe_ledger(opts.clone(), n, &probes);
                let expect_found: Vec<Option<u64>> = probes
                    .iter()
                    .map(|k| {
                        let i: u32 = std::str::from_utf8(k.strip_prefix(b"key")?)
                            .ok()?
                            .parse()
                            .ok()?;
                        (i < n && key_of(i) == *k).then_some(u64::from(i))
                    })
                    .collect();
                assert_eq!(l.found, expect_found, "{config} {name}");
                let &(seq_reads, rand_reads, cache_hits, cpu_ns, clock_ns, shard_hits) =
                    want.next().unwrap();
                let stats = IoStatsSnapshot {
                    seq_reads,
                    rand_reads,
                    cache_hits,
                    bytes_read: (seq_reads + rand_reads) * 4096,
                    cpu_ns,
                    ..IoStatsSnapshot::default()
                };
                assert_eq!(
                    (l.stats, l.clock_ns, l.shard_hits.as_slice()),
                    (stats, clock_ns, shard_hits),
                    "{config} {name}"
                );
            }
        }
    }

    /// `(seq_reads, rand_reads, cache_hits, cpu_ns, clock_ns, shard hits)`
    /// per configuration and sequence of [`cursor_ledger_is_pinned`], in
    /// order, recorded with a cursor that re-read its leaf on every probe.
    #[allow(clippy::type_complexity)]
    const RECORDED: [(u64, u64, u64, u64, u64, &[u64]); 12] = [
        (15, 2, 2999, 455_625, 17_151_945, &[2999]),
        (0, 9, 7, 3_925, 72_372_565, &[7]),
        (3, 2, 359, 58_050, 16_262_850, &[359]),
        (15, 2, 432, 112_125, 16_808_445, &[432]),
        (15, 2, 29, 12_550, 16_708_870, &[29]),
        (0, 0, 0, 0, 0, &[0]),
        (6, 4, 2998, 452_125, 32_861_725, &[925, 831, 410, 832]),
        (6, 2, 7, 4_525, 16_332_205, &[1, 0, 0, 6]),
        (1, 2, 359, 57_425, 16_180_305, &[358, 0, 0, 1]),
        (6, 4, 431, 110_650, 32_520_250, &[131, 118, 58, 124]),
        (6, 2, 29, 10_375, 16_338_055, &[6, 6, 5, 12]),
        (0, 0, 0, 0, 0, &[0, 0, 0, 0]),
    ];

    /// A seek the pinned leaf serves allocates nothing, on either leaf
    /// encoding: no page read, no last-key copy, and prefix keys are
    /// rebuilt in the cursor's reused buffer.
    #[test]
    fn pinned_leaf_seek_allocates_nothing() {
        for leaf_encoding in LeafEncoding::ALL {
            let s = Storage::new(StorageOptions {
                leaf_encoding,
                ..StorageOptions::test()
            });
            let mut b = BTreeBuilder::new(s);
            for i in 0..3000 {
                b.add(&key_of(i), format!("v{i}").as_bytes()).unwrap();
            }
            let t = b.finish().unwrap();
            let probes: Vec<Vec<u8>> = (1..40).map(key_of).collect();
            let mut c = StatefulCursor::new(&t);
            c.seek_pinned(&key_of(0)).unwrap().unwrap();
            let before = ALLOCATIONS.with(Cell::get);
            for k in &probes {
                c.seek_pinned(k).unwrap().unwrap();
            }
            let allocs = ALLOCATIONS.with(Cell::get) - before;
            assert_eq!((c.descents, c.leaf_hits), (1, 39), "{leaf_encoding:?}");
            assert_eq!(allocs, 0, "{leaf_encoding:?}");
        }
    }

    #[test]
    fn stateful_cursor_charges_less_cpu_than_cold_searches() {
        let t = build(5000);
        let s = t.storage().clone();
        // Warm the cache so only CPU costs differ.
        let mut c = StatefulCursor::new(&t);
        for i in 0..5000u32 {
            c.seek(format!("key{i:08}").as_bytes()).unwrap();
        }
        let cpu_before = s.stats().cpu_ns;
        let mut c = StatefulCursor::new(&t);
        for i in 0..5000u32 {
            c.seek(format!("key{i:08}").as_bytes()).unwrap();
        }
        let cursor_cpu = s.stats().cpu_ns - cpu_before;

        let cpu_before = s.stats().cpu_ns;
        for i in 0..5000u32 {
            t.search(format!("key{i:08}").as_bytes()).unwrap();
        }
        let cold_cpu = s.stats().cpu_ns - cpu_before;
        assert!(
            cursor_cpu < cold_cpu,
            "cursor {cursor_cpu} vs cold {cold_cpu}"
        );
    }
}
