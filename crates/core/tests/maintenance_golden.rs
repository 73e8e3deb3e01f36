//! Golden bytes of the maintenance stream.
//!
//! Flushes, merges and merge-repairs a fixed-seed tweet dataset on
//! `StorageOptions::test()` and folds every page on the device into an
//! FNV-1a hash after each maintenance step. A second hash folds in the
//! simulated clock and the device counters at the same checkpoints, which
//! pins the order of every page read, cache access and simulated-time
//! charge. Both constants were recorded before the maintenance stream was
//! made allocation-free: a change to how entries stream from page to page
//! must leave them untouched.

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

/// Runs the scenario and returns `(pages hash, ledger hash, merges,
/// repairs)`.
fn run(correlated_bloom_repair: bool, leaf_encoding: LeafEncoding) -> (u64, u64, u64, u64) {
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
    let (mut pages, mut ledger) = (Fnv::new(), Fnv::new());
    for _ in 0..14 {
        for _ in 0..600 {
            ds.upsert(w.next_op().record()).unwrap();
        }
        ds.maintenance().flush().unwrap();
        checkpoint(&storage, &mut pages, &mut ledger);
        ds.maintenance().run_merges().unwrap();
        checkpoint(&storage, &mut pages, &mut ledger);
    }
    ds.maintenance().repair_all().unwrap();
    checkpoint(&storage, &mut pages, &mut ledger);
    let stats = ds.stats();
    let load = |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed);
    (pages.0, ledger.0, load(&stats.merges), load(&stats.repairs))
}

#[test]
fn validation_merge_repair_pages_are_golden() {
    let (pages, ledger, merges, repairs) = run(false, LeafEncoding::Plain);
    assert!(
        merges > 0 && repairs > 0,
        "merges {merges} repairs {repairs}"
    );
    assert_eq!(
        (pages, ledger),
        (0x259d85aa27a21749, 0x3e95ec78a5d293da),
        "pages {pages:#018x} ledger {ledger:#018x}"
    );
}

#[test]
fn correlated_bloom_repair_pages_are_golden() {
    let (pages, ledger, merges, repairs) = run(true, LeafEncoding::Plain);
    assert!(
        merges > 0 && repairs > 0,
        "merges {merges} repairs {repairs}"
    );
    assert_eq!(
        (pages, ledger),
        (0x63dd88cd2ad2b133, 0x8914c6d1a84da6b6),
        "pages {pages:#018x} ledger {ledger:#018x}"
    );
}

#[test]
fn prefix_leaf_pages_are_golden() {
    let (pages, ledger, merges, repairs) = run(false, LeafEncoding::Prefix);
    assert!(
        merges > 0 && repairs > 0,
        "merges {merges} repairs {repairs}"
    );
    assert_eq!(
        (pages, ledger),
        (0x452b2ae160e67509, 0x0af29be747a22ec4),
        "pages {pages:#018x} ledger {ledger:#018x}"
    );
}
