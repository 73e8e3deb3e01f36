//! Property tests: an LSM-tree under random interleavings of puts, deletes,
//! flushes, and merges behaves exactly like a BTreeMap model.

use lsm_storage::{Storage, StorageOptions};
use lsm_tree::{point_lookup, LsmEntry, LsmOptions, LsmTree, ScanOptions, TieringPolicy};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::ops::Bound;

#[derive(Debug, Clone)]
enum OpKind {
    Put(u8, u8),
    Delete(u8),
    Flush,
    Merge,
}

fn arb_ops() -> impl Strategy<Value = Vec<OpKind>> {
    proptest::collection::vec(
        prop_oneof![
            4 => (any::<u8>(), any::<u8>()).prop_map(|(k, v)| OpKind::Put(k, v)),
            2 => any::<u8>().prop_map(OpKind::Delete),
            1 => Just(OpKind::Flush),
            1 => Just(OpKind::Merge),
        ],
        0..120,
    )
}

fn key(k: u8) -> Vec<u8> {
    vec![b'k', k]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lsm_matches_model(ops in arb_ops()) {
        let tree = LsmTree::new(Storage::new(StorageOptions::test()), LsmOptions::default());
        let policy = TieringPolicy::new(u64::MAX);
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let mut ts = 0u64;
        for op in &ops {
            ts += 1;
            match op {
                OpKind::Put(k, v) => {
                    tree.put(key(*k), LsmEntry::put_ts(vec![*v], ts), ts);
                    model.insert(key(*k), vec![*v]);
                }
                OpKind::Delete(k) => {
                    tree.put(key(*k), LsmEntry::anti_matter_ts(ts), ts);
                    model.remove(&key(*k));
                }
                OpKind::Flush => {
                    tree.flush().unwrap();
                }
                OpKind::Merge => {
                    tree.maybe_merge(&policy).unwrap();
                }
            }
        }

        // Point lookups agree for every possible key byte.
        for k in 0..=255u8 {
            let got = point_lookup(&tree, &key(k))
                .unwrap()
                .filter(|e| !e.anti_matter)
                .map(|e| e.value.into_bytes());
            prop_assert_eq!(got, model.get(&key(k)).cloned(), "key {}", k);
        }

        // A full reconciling scan agrees with the model.
        let mut scan = tree
            .scan(Bound::Unbounded, Bound::Unbounded, ScanOptions::default())
            .unwrap();
        let mut got = Vec::new();
        while let Some((k, e)) = scan.next_entry().unwrap() {
            got.push((k, e.value.into_bytes()));
        }
        let want: Vec<_> = model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn full_merge_drops_all_garbage(ops in arb_ops()) {
        // After flushing everything and merging to one component, the
        // component holds exactly the live keys (anti-matter and stale
        // versions all physically removed).
        let tree = LsmTree::new(Storage::new(StorageOptions::test()), LsmOptions::default());
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        let mut ts = 0u64;
        for op in &ops {
            ts += 1;
            match op {
                OpKind::Put(k, v) => {
                    tree.put(key(*k), LsmEntry::put_ts(vec![*v], ts), ts);
                    model.insert(key(*k), vec![*v]);
                }
                OpKind::Delete(k) => {
                    tree.put(key(*k), LsmEntry::anti_matter_ts(ts), ts);
                    model.remove(&key(*k));
                }
                OpKind::Flush | OpKind::Merge => {
                    tree.flush().unwrap();
                }
            }
        }
        tree.flush().unwrap();
        let n = tree.num_disk_components();
        if n >= 2 {
            tree.merge_range(lsm_tree::MergeRange { start: 0, end: n - 1 }).unwrap();
            // A full merge (including the oldest component) physically drops
            // all anti-matter and stale versions: exactly the live keys stay.
            prop_assert_eq!(tree.disk_entries(), model.len() as u64);
        }
        prop_assert!(tree.num_disk_components() <= 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // `encode_into` appends exactly the bytes `encode` returns, after
    // whatever the buffer already holds, and `encoded_len` predicts them.
    #[test]
    fn encode_into_appends_exactly_encode(
        anti_matter in any::<bool>(),
        has_ts in any::<bool>(),
        ts in any::<u64>(),
        value in proptest::collection::vec(any::<u8>(), 0..64),
        prefix in proptest::collection::vec(any::<u8>(), 0..16),
    ) {
        let entry = LsmEntry {
            anti_matter,
            ts: if has_ts { ts.max(1) } else { 0 },
            value: value.into(),
        };
        let encoded = entry.encode();
        prop_assert_eq!(encoded.len(), entry.encoded_len());
        let mut out = prefix.clone();
        entry.encode_into(&mut out);
        prop_assert_eq!(&out[..prefix.len()], prefix.as_slice());
        prop_assert_eq!(&out[prefix.len()..], encoded.as_slice());
        prop_assert_eq!(LsmEntry::decode(&encoded).unwrap(), entry);
    }
}
