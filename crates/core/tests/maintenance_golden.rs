//! Golden bytes of the maintenance stream.
//!
//! Flushes, merges and merge-repairs a fixed-seed tweet dataset on
//! `StorageOptions::test()` and folds every page on the device into an
//! FNV-1a hash after each maintenance step. A second hash (the ledger)
//! folds in the simulated clock and the device counters at the same
//! checkpoints, which pins the order of every page read, cache access and
//! simulated-time charge. A third folds in every component's validity
//! bitmap, which pins every repair decision.
//!
//! The pages constants were recorded before the maintenance stream was
//! made allocation-free, and the bitmap constants before repair validation
//! was batched: a change to how entries stream, or to how repair reaches
//! its decisions, must leave them untouched. The ledger constants were
//! re-recorded when repair validation moved from one Bloom check and
//! root-to-leaf descent per candidate and pk component to one sorted
//! stateful-cursor pass per component; that changes the page-access order
//! and saves descents, so it shifts the ledger on purpose (validation
//! `0x3e95ec78a5d293da` → `0xfeb9ef6ae801e7b3`, correlated Bloom
//! `0x8914c6d1a84da6b6` → `0xc094b06ef69426c1`, prefix leaves
//! `0x0af29be747a22ec4` → `0x06f4c2597b07e361`).

use lsm_engine::{Dataset, DatasetConfig, SecondaryIndexDef, StrategyKind};
use lsm_storage::{FileId, LeafEncoding, Storage, StorageOptions};
use lsm_workload::{TweetConfig, TweetGenerator, UpdateDistribution, UpsertWorkload};
use std::sync::Arc;

/// Upper bound on file ids probed at a checkpoint; the scenarios create a
/// few hundred files at most.
const MAX_FILES: u32 = 4096;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Folds every live file (in id order) into `pages`, and the simulated
/// clock plus device counters into `ledger`. Page bytes are read with
/// `page_data`, which neither touches the cache nor charges the device.
fn checkpoint(storage: &Storage, pages: &mut Fnv, ledger: &mut Fnv) {
    for id in 0..MAX_FILES {
        let file = FileId(id);
        let Ok(n) = storage.file_pages(file) else {
            continue;
        };
        pages.u64(u64::from(id));
        pages.u64(u64::from(n));
        for p in 0..n {
            let data = storage.page_data(file, p).unwrap();
            pages.u64(data.len() as u64);
            pages.bytes(&data);
        }
    }
    let s = storage.stats();
    for v in [
        storage.clock().now_nanos(),
        s.cpu_ns,
        s.pages_written,
        s.bytes_written,
        s.seq_reads,
        s.rand_reads,
        s.cache_hits,
        s.bytes_read,
        s.bloom_checks,
        s.bloom_negatives,
    ] {
        ledger.u64(v);
    }
}

/// Folds every disk component of every index (primary, pk index, then
/// secondaries, newest component first) into `bitmaps`: its id, entry
/// count and the positions of its set validity-bitmap bits. This pins
/// every repair decision independently of how repair reached it.
fn fold_bitmaps(ds: &Dataset, bitmaps: &mut Fnv) {
    let trees = std::iter::once(ds.primary())
        .chain(ds.pk_index())
        .chain(ds.secondaries().iter().map(|s| &s.tree));
    for tree in trees {
        let comps = tree.disk_components();
        bitmaps.u64(comps.len() as u64);
        for comp in &comps {
            bitmaps.u64(comp.id().min_ts);
            bitmaps.u64(comp.id().max_ts);
            bitmaps.u64(comp.num_entries());
            match comp.bitmap() {
                None => bitmaps.u64(u64::MAX),
                Some(bm) => {
                    bitmaps.u64(bm.count_set());
                    for pos in (0..bm.len()).filter(|&p| bm.get(p)) {
                        bitmaps.u64(pos);
                    }
                }
            }
        }
    }
}

/// The hashes one scenario run produces.
struct Golden {
    pages: u64,
    ledger: u64,
    bitmaps: u64,
    merges: u64,
    repairs: u64,
}

/// Runs the scenario and returns its hashes and maintenance counts.
fn run(correlated_bloom_repair: bool, leaf_encoding: LeafEncoding) -> Golden {
    let mut cfg = DatasetConfig::new(TweetGenerator::schema(), 0);
    cfg.strategy = StrategyKind::Validation;
    cfg.secondary_indexes = vec![
        SecondaryIndexDef {
            name: "user_id".into(),
            field: 1,
        },
        SecondaryIndexDef {
            name: "location".into(),
            field: 2,
        },
    ];
    cfg.filter_field = Some(3);
    cfg.memory_budget = usize::MAX; // every flush is explicit
    cfg.merge_repair = true;
    cfg.merge.correlated = correlated_bloom_repair;
    cfg.repair_bloom_opt = correlated_bloom_repair;
    let storage = Storage::new(StorageOptions {
        leaf_encoding,
        ..StorageOptions::test()
    });
    let ds: Arc<Dataset> = Dataset::open(storage.clone(), None, cfg).unwrap();

    let mut w = UpsertWorkload::new(
        TweetConfig {
            msg_min: 40,
            msg_max: 120,
            seed: 7,
        },
        0.5,
        UpdateDistribution::Uniform,
    );
    let (mut pages, mut ledger, mut bitmaps) = (Fnv::new(), Fnv::new(), Fnv::new());
    for _ in 0..14 {
        for _ in 0..600 {
            ds.upsert(w.next_op().record()).unwrap();
        }
        ds.maintenance().flush().unwrap();
        checkpoint(&storage, &mut pages, &mut ledger);
        ds.maintenance().run_merges().unwrap();
        checkpoint(&storage, &mut pages, &mut ledger);
        fold_bitmaps(&ds, &mut bitmaps);
    }
    ds.maintenance().repair_all().unwrap();
    checkpoint(&storage, &mut pages, &mut ledger);
    fold_bitmaps(&ds, &mut bitmaps);
    let stats = ds.stats();
    let load = |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed);
    Golden {
        pages: pages.0,
        ledger: ledger.0,
        bitmaps: bitmaps.0,
        merges: load(&stats.merges),
        repairs: load(&stats.repairs),
    }
}

fn assert_golden(g: &Golden, want: (u64, u64, u64)) {
    assert!(
        g.merges > 0 && g.repairs > 0,
        "merges {} repairs {}",
        g.merges,
        g.repairs
    );
    assert_eq!(
        (g.pages, g.ledger, g.bitmaps),
        want,
        "pages {:#018x} ledger {:#018x} bitmaps {:#018x}",
        g.pages,
        g.ledger,
        g.bitmaps
    );
}

#[test]
fn validation_merge_repair_pages_are_golden() {
    assert_golden(
        &run(false, LeafEncoding::Plain),
        (0x259d85aa27a21749, 0xfeb9ef6ae801e7b3, 0x5fc01b5c70b737a9),
    );
}

#[test]
fn correlated_bloom_repair_pages_are_golden() {
    assert_golden(
        &run(true, LeafEncoding::Plain),
        (0x63dd88cd2ad2b133, 0xc094b06ef69426c1, 0xb12226921d3a6302),
    );
}

#[test]
fn prefix_leaf_pages_are_golden() {
    assert_golden(
        &run(false, LeafEncoding::Prefix),
        (0x452b2ae160e67509, 0x06f4c2597b07e361, 0xebb8b0bb2f56fda7),
    );
}
