//! Repair differential oracle.
//!
//! A seeded workload of upserts and deletes, with flushes, pk-index merges,
//! merge repairs, standalone repairs and `repair_all` in random order,
//! runs under the primary-key-index repair mode (Bloom optimization on and
//! off, merge-scan optimization on and off) and the deleted-key B+-tree
//! baseline, on both leaf encodings. After every repair, every secondary
//! component's validity bitmap must equal a brute-force oracle: an entry
//! is invalid iff it was invalid before (standalone repair carries old
//! bits over) or its primary key's newest version in the pk-index
//! components the repair captured and did not prune — found by a full
//! scan, anti-matter counted — carries a larger timestamp. Throughout,
//! Timestamp-validated index-only queries (serial and parallel) must
//! return the keys the Direct-validated query returns.

use lsm_common::{FieldType, Record, Schema, Timestamp, Value};
use lsm_engine::keys::split_sk_pk;
use lsm_engine::{
    Dataset, DatasetConfig, QueryResult, SecondaryIndexDef, StrategyKind, ValidationMethod,
};
use lsm_storage::{LeafEncoding, Storage, StorageOptions};
use lsm_tree::{DiskComponent, LsmEntry, MergeRange};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

const INDEXES: [&str; 2] = ["a", "b"];

/// One configuration of the oracle run.
#[derive(Debug, Clone, Copy)]
struct Variant {
    strategy: StrategyKind,
    bloom: bool,
    merge_scan: bool,
    encoding: LeafEncoding,
}

fn open(v: Variant) -> Arc<Dataset> {
    let schema = Schema::new(vec![
        ("id", FieldType::Int),
        ("a", FieldType::Int),
        ("b", FieldType::Int),
    ])
    .unwrap();
    let mut cfg = DatasetConfig::new(schema, 0);
    cfg.strategy = v.strategy;
    cfg.memory_budget = usize::MAX; // flushes under test control
    cfg.merge_repair = false; // repairs are explicit
    cfg.secondary_indexes = INDEXES
        .iter()
        .enumerate()
        .map(|(i, name)| SecondaryIndexDef {
            name: (*name).into(),
            field: i + 1,
        })
        .collect();
    let storage = Storage::new(StorageOptions {
        leaf_encoding: v.encoding,
        ..StorageOptions::test()
    });
    Dataset::open(storage, None, cfg).unwrap()
}

/// The newest timestamp per primary key among `pk_components` (newest
/// first) that `prune` does not prune, by full scan, anti-matter counted.
fn newest_unpruned(
    pk_components: &[Arc<DiskComponent>],
    prune: Timestamp,
) -> HashMap<Vec<u8>, Timestamp> {
    let mut newest = HashMap::new();
    for comp in pk_components.iter().filter(|c| !c.id().at_or_before(prune)) {
        let mut scan = comp.btree().scan_all().unwrap();
        while let Some((key, raw, _)) = scan.next_entry().unwrap() {
            let ts = LsmEntry::decode(&raw).unwrap().ts;
            newest.entry(key).or_insert(ts);
        }
    }
    newest
}

/// Checks `comp`'s bitmap entry by entry: bit `o` is set iff `old(o)` or
/// entry `o` is a live entry whose pk has a newer version in `newest`.
/// Returns the number of bits the repair had to set.
fn check_bitmap(
    comp: &DiskComponent,
    newest: &HashMap<Vec<u8>, Timestamp>,
    old: impl Fn(u64) -> bool,
    what: &str,
) -> u64 {
    let bitmap = comp.bitmap();
    let mut scan = comp.btree().scan_all().unwrap();
    let (mut invalid, mut found) = (0u64, 0u64);
    while let Some((key, raw, ordinal)) = scan.next_entry().unwrap() {
        let entry = LsmEntry::decode(&raw).unwrap();
        let pk = split_sk_pk(&key).unwrap().1;
        let obsolete = !entry.anti_matter && newest.get(pk).is_some_and(|&ts| ts > entry.ts);
        let want = old(ordinal) || obsolete;
        let got = bitmap.as_ref().is_some_and(|b| b.get(ordinal));
        assert_eq!(got, want, "{what}: entry {ordinal} (ts {})", entry.ts);
        invalid += u64::from(want);
        found += u64::from(obsolete && !old(ordinal));
    }
    assert_eq!(
        bitmap.map_or(0, |b| b.count_set()),
        invalid,
        "{what}: bits beyond the component's entries"
    );
    found
}

/// The repaired timestamp a repair pruning at `prune` against
/// `pk_components` must leave behind.
fn expected_repaired_ts(pk_components: &[Arc<DiskComponent>], prune: Timestamp) -> Timestamp {
    pk_components
        .iter()
        .filter(|c| !c.id().at_or_before(prune))
        .map(|c| c.id().max_ts)
        .max()
        .unwrap_or(0)
        .max(prune)
}

/// The validation pruning timestamp: the deleted-key B+-tree baseline
/// validates against every pk component.
fn effective(v: Variant, prune: Timestamp) -> Timestamp {
    if v.strategy == StrategyKind::DeletedKeyBTree {
        0
    } else {
        prune
    }
}

fn plan(ds: &Dataset, v: Variant) -> lsm_engine::RepairPlan<'_> {
    ds.maintenance()
        .plan()
        .bloom(v.bloom)
        .merge_scan(v.merge_scan)
}

/// Merge-repairs every component of index `name` and checks the result;
/// returns the number of entries the repair found obsolete.
fn merge_repair_and_check(ds: &Dataset, v: Variant, name: &str) -> u64 {
    let sec = &ds.secondary(name).unwrap().tree;
    let inputs = sec.disk_components();
    if inputs.is_empty() {
        return 0;
    }
    let prune = inputs.iter().map(|c| c.repaired_ts()).min().unwrap();
    let captured = ds.pk_index().unwrap().disk_components();
    let newest = newest_unpruned(&captured, effective(v, prune));
    plan(ds, v).with_merge(true).repair_index(name).unwrap();
    let comps = sec.disk_components();
    assert_eq!(comps.len(), 1);
    let what = format!("{v:?} merge repair of {name}");
    let found = check_bitmap(&comps[0], &newest, |_| false, &what);
    assert_eq!(
        comps[0].repaired_ts(),
        expected_repaired_ts(&captured, prune),
        "{what}"
    );
    found
}

/// Runs `repair` (standalone repairs of the indexes in `names`) and
/// checks every component of those indexes; returns the number of
/// entries the repair newly found obsolete.
fn standalone_repair_and_check(
    ds: &Dataset,
    v: Variant,
    names: &[&str],
    repair: impl FnOnce(),
) -> u64 {
    let captured = ds.pk_index().unwrap().disk_components();
    let before: Vec<Vec<_>> = names
        .iter()
        .map(|name| {
            ds.secondary(name)
                .unwrap()
                .tree
                .disk_components()
                .into_iter()
                .map(|c| {
                    let old = c.bitmap().map(|b| b.snapshot());
                    (c.clone(), c.repaired_ts(), old)
                })
                .collect()
        })
        .collect();
    repair();
    let mut found = 0;
    for (name, comps) in names.iter().zip(before) {
        for (comp, prune, old) in comps {
            let what = format!("{v:?} standalone repair of {name} at {:?}", comp.id());
            let old_bit = |o: u64| old.as_ref().is_some_and(|b| b.get(o));
            let unpruned = captured.iter().any(|c| !c.id().at_or_before(prune));
            if !unpruned {
                // Nothing new to validate against: the bitmap stays.
                check_bitmap(&comp, &HashMap::new(), old_bit, &what);
                continue;
            }
            let newest = newest_unpruned(&captured, effective(v, prune));
            found += check_bitmap(&comp, &newest, old_bit, &what);
            assert_eq!(
                comp.repaired_ts(),
                expected_repaired_ts(&captured, prune),
                "{what}"
            );
        }
    }
    found
}

fn keys_of(result: QueryResult) -> Vec<Value> {
    let QueryResult::Keys(mut keys) = result else {
        panic!("index-only query returned records");
    };
    keys.sort();
    keys
}

/// Timestamp-validated index-only queries, serial and parallel, return
/// exactly the keys the Direct-validated query returns.
fn check_queries(ds: &Dataset, rng: &mut StdRng) {
    for name in INDEXES {
        let lo = rng.gen_range(0..40i64);
        let hi = lo + rng.gen_range(0..12i64);
        let query = || ds.query(name).range(lo, hi).index_only();
        let direct = keys_of(
            query()
                .validation(ValidationMethod::Direct)
                .execute()
                .unwrap(),
        );
        let ts = keys_of(
            query()
                .validation(ValidationMethod::Timestamp)
                .execute()
                .unwrap(),
        );
        assert_eq!(ts, direct, "index {name} [{lo}, {hi}] serial");
        let parallel = keys_of(
            query()
                .validation(ValidationMethod::Timestamp)
                .parallel(2)
                .execute()
                .unwrap(),
        );
        assert_eq!(parallel, direct, "index {name} [{lo}, {hi}] parallel");
    }
}

fn run(v: Variant, seed: u64) {
    let ds = open(v);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut found = 0;
    for _ in 0..10 {
        for _ in 0..rng.gen_range(100..250) {
            let id = rng.gen_range(0..300i64);
            if rng.gen_bool(0.15) {
                ds.delete(&Value::Int(id)).unwrap();
            } else {
                let (a, b) = (rng.gen_range(0..40i64), rng.gen_range(0..40i64));
                ds.upsert(&Record::new(vec![
                    Value::Int(id),
                    Value::Int(a),
                    Value::Int(b),
                ]))
                .unwrap();
            }
        }
        check_queries(&ds, &mut rng); // with a memory component
        ds.flush_all().unwrap();
        let name = INDEXES[rng.gen_range(0..INDEXES.len())];
        match rng.gen_range(0..5) {
            0 => {
                let pk = ds.pk_index().unwrap();
                let n = pk.num_disk_components();
                if n >= 2 {
                    let start = rng.gen_range(0..n - 1);
                    let end = rng.gen_range(start + 1..n);
                    pk.merge_range(MergeRange { start, end }).unwrap();
                }
            }
            1 => found += merge_repair_and_check(&ds, v, name),
            2 => {
                found += standalone_repair_and_check(&ds, v, &[name], || {
                    plan(&ds, v).repair_index(name).unwrap();
                })
            }
            3 => {
                found += standalone_repair_and_check(&ds, v, &INDEXES, || {
                    plan(&ds, v).repair_all().unwrap();
                })
            }
            _ => {}
        }
        check_queries(&ds, &mut rng);
    }
    found += standalone_repair_and_check(&ds, v, &INDEXES, || {
        plan(&ds, v).repair_all().unwrap();
    });
    found += merge_repair_and_check(&ds, v, INDEXES[0]);
    check_queries(&ds, &mut rng);
    assert!(found > 0, "{v:?}: no repair found an obsolete entry");
}

fn variants(strategy: StrategyKind) -> Vec<Variant> {
    let mut out = Vec::new();
    for encoding in LeafEncoding::ALL {
        for (bloom, merge_scan) in [(false, false), (false, true), (true, false), (true, true)] {
            if strategy == StrategyKind::DeletedKeyBTree && bloom {
                continue; // the baseline has no Bloom optimization
            }
            out.push(Variant {
                strategy,
                bloom,
                merge_scan,
                encoding,
            });
        }
    }
    out
}

#[test]
fn primary_key_index_repair_matches_oracle() {
    for (i, v) in variants(StrategyKind::Validation).into_iter().enumerate() {
        run(v, 0x5eed + i as u64);
    }
}

#[test]
fn deleted_key_btree_repair_matches_oracle() {
    for (i, v) in variants(StrategyKind::DeletedKeyBTree)
        .into_iter()
        .enumerate()
    {
        run(v, 0xd1b7 + i as u64);
    }
}
