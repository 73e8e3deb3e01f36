//! Property tests for the prefix-compressed leaf codec: encode→decode
//! identity, search agreement with the plain (uncompressed) encoding, and
//! restart-interval edge cases, over key sets drawn from a small alphabet
//! so shared-prefix clusters arise naturally. Page sizes 0 and 1 are
//! inside the generated range, so empty and single-entry pages are
//! exercised too.

use lsm_btree::page::LeafPageBuilder;
use lsm_btree::{BTree, BTreeBuilder, LeafView, PrefixLeafPageBuilder};
use lsm_storage::{LeafEncoding, Storage, StorageOptions};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::ops::{Bound, RangeBounds};

/// Keys over a 4-symbol alphabet: dense shared prefixes at every length.
fn arb_entries() -> impl Strategy<Value = BTreeMap<Vec<u8>, Vec<u8>>> {
    proptest::collection::btree_map(
        proptest::collection::vec(
            prop_oneof![Just(b'a'), Just(b'b'), Just(b'c'), Just(b'd')],
            1..16,
        ),
        proptest::collection::vec(any::<u8>(), 0..24),
        0..120,
    )
}

fn build_prefix(entries: &BTreeMap<Vec<u8>, Vec<u8>>, base: u64, interval: u16) -> Vec<u8> {
    let mut b = PrefixLeafPageBuilder::with_restart_interval(1 << 24, base, interval);
    for (k, v) in entries {
        b.add(k, v).unwrap();
    }
    b.finish()
}

fn build_plain(entries: &BTreeMap<Vec<u8>, Vec<u8>>, base: u64) -> Vec<u8> {
    let mut b = LeafPageBuilder::new(1 << 24, base);
    for (k, v) in entries {
        b.add(k, v).unwrap();
    }
    b.finish()
}

fn build_tree(entries: &BTreeMap<Vec<u8>, Vec<u8>>, encoding: LeafEncoding) -> BTree {
    let storage = Storage::new(StorageOptions {
        leaf_encoding: encoding,
        ..StorageOptions::test()
    });
    let mut b = BTreeBuilder::new(storage);
    for (k, v) in entries {
        b.add(k, v).unwrap();
    }
    b.finish().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Encode→decode identity: every entry, the count, the base ordinal,
    // and the first/last keys survive a round trip at any restart
    // interval (1 = every entry is a restart; larger than the entry
    // count = a single restart block).
    #[test]
    fn prefix_roundtrip_identity(
        entries in arb_entries(),
        base in 0u64..1 << 40,
        interval in 1u16..40,
    ) {
        let data = build_prefix(&entries, base, interval);
        let view = LeafView::parse(&data).unwrap();
        prop_assert!(matches!(view, LeafView::Prefix(_)));
        prop_assert_eq!(view.count(), entries.len());
        prop_assert_eq!(view.base_ordinal(), base);
        for (i, (k, v)) in entries.iter().enumerate() {
            let (gk, gv) = view.entry(i).unwrap();
            prop_assert_eq!(gk.as_ref(), k.as_slice(), "key {}", i);
            prop_assert_eq!(gv, v.as_slice(), "value {}", i);
        }
        let first = view.first_key().unwrap();
        prop_assert_eq!(
            first.as_ref().map(|k| k.as_ref()),
            entries.keys().next().map(|k| k.as_slice())
        );
        let last = view.last_key().unwrap();
        prop_assert_eq!(
            last.as_ref().map(|k| k.as_ref()),
            entries.keys().next_back().map(|k| k.as_slice())
        );
    }

    // In-page binary search and galloping search over the compressed page
    // return exactly what the uncompressed page returns, for present keys
    // and arbitrary probes alike.
    #[test]
    fn prefix_search_agrees_with_plain(
        entries in arb_entries(),
        interval in 1u16..40,
        probes in proptest::collection::vec(
            proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'b'), Just(b'c'), Just(b'e')], 1..16),
            0..24,
        ),
        from in 0usize..140,
    ) {
        let prefix = build_prefix(&entries, 0, interval);
        let plain = build_plain(&entries, 0);
        let pv = LeafView::parse(&prefix).unwrap();
        let lv = LeafView::parse(&plain).unwrap();
        for probe in entries.keys().map(|k| k.as_slice()).chain(probes.iter().map(|p| p.as_slice())) {
            let (a, _) = pv.search(probe).unwrap();
            let (b, _) = lv.search(probe).unwrap();
            prop_assert_eq!(a, b, "search {:?}", probe);
            let (a, _) = pv.exponential_search(probe, from, &mut Vec::new()).unwrap();
            let (b, _) = lv.exponential_search(probe, from, &mut Vec::new()).unwrap();
            prop_assert_eq!(a, b, "exponential_search {:?} from {}", probe, from);
        }
    }

    // The Plain encoding routed through the storage option produces pages
    // the original builder wrote, byte for byte.
    #[test]
    fn plain_pages_are_byte_identical(entries in arb_entries()) {
        let via_any = {
            let mut b = lsm_btree::AnyLeafBuilder::new(LeafEncoding::Plain, 1 << 24, 7);
            for (k, v) in &entries {
                b.add(k, v).unwrap();
            }
            b.finish()
        };
        prop_assert_eq!(via_any, build_plain(&entries, 7));
    }

    // Whole-tree agreement: a bulk-loaded tree with prefix-compressed
    // leaves answers searches and range scans identically to the plain
    // tree (and to the model), across leaf boundaries.
    #[test]
    fn compressed_trees_match_plain_tree(
        entries in arb_entries(),
        lo in proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'c')], 1..8),
        hi in proptest::collection::vec(prop_oneof![Just(b'b'), Just(b'd')], 1..8),
    ) {
        let plain = build_tree(&entries, LeafEncoding::Plain);
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        let collect = |tree: &BTree| {
            let mut scan = tree
                .scan(Bound::Included(&lo), Bound::Included(hi.clone()))
                .unwrap();
            let mut got = Vec::new();
            while let Some((k, v, o)) = scan.next_entry().unwrap() {
                got.push((k, v, o));
            }
            got
        };
        let tree = build_tree(&entries, LeafEncoding::Prefix);
        for (k, v) in &entries {
            let got = tree.search(k).unwrap().expect("present key");
            prop_assert_eq!(&got.0, v);
            prop_assert_eq!(got.1, plain.search(k).unwrap().unwrap().1, "ordinal");
        }
        prop_assert_eq!(collect(&tree), collect(&plain));
    }

    // Every encoding in `LeafEncoding::ALL`, built through the dispatching
    // builder, parses back as that encoding with every entry intact.
    #[test]
    fn every_encoding_roundtrips_through_any_builder(entries in arb_entries()) {
        for encoding in LeafEncoding::ALL {
            let mut b = lsm_btree::AnyLeafBuilder::new(encoding, 1 << 24, 3);
            for (k, v) in &entries {
                b.add(k, v).unwrap();
            }
            let data = b.finish();
            let view = LeafView::parse(&data).unwrap();
            let is_prefix = matches!(view, LeafView::Prefix(_));
            prop_assert_eq!(is_prefix, encoding == LeafEncoding::Prefix);
            prop_assert_eq!((view.count(), view.base_ordinal()), (entries.len(), 3));
            for (i, (k, v)) in entries.iter().enumerate() {
                let (gk, gv) = view.entry(i).unwrap();
                prop_assert_eq!((gk.as_ref(), gv), (k.as_slice(), v.as_slice()));
            }
        }
    }
}

/// A bound of kind `kind` (0 = unbounded, 1 = included, 2 = excluded) on
/// `key`.
fn bound_of(kind: u8, key: &[u8]) -> Bound<Vec<u8>> {
    match kind % 3 {
        0 => Bound::Unbounded,
        1 => Bound::Included(key.to_vec()),
        _ => Bound::Excluded(key.to_vec()),
    }
}

/// Every `(key, value, ordinal)` a scan over `[lo, hi]` yields, read with
/// [`lsm_btree::BTreeScan::next_entry_into`] through one key buffer that
/// is scribbled over between calls, as a stream recycling its keys does.
fn scan_into(
    tree: &BTree,
    lo: &Bound<Vec<u8>>,
    hi: &Bound<Vec<u8>>,
) -> Vec<(Vec<u8>, Vec<u8>, u64)> {
    let lo = match lo {
        Bound::Unbounded => Bound::Unbounded,
        Bound::Included(k) => Bound::Included(k.as_slice()),
        Bound::Excluded(k) => Bound::Excluded(k.as_slice()),
    };
    let mut scan = tree.scan(lo, hi.clone()).unwrap();
    let mut key = Vec::new();
    let mut got = Vec::new();
    while let Some((v, o)) = scan.next_entry_into(&mut key).unwrap() {
        got.push((key.clone(), v.to_vec(), o));
        key.clear();
        key.extend_from_slice(b"scribble");
    }
    got
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Range scans over prefix-compressed leaves, which decode each entry
    // once by carrying the previous key forward, yield exactly what scans
    // over plain leaves yield, for every combination of bound kinds and
    // at every restart interval the builder writes.
    #[test]
    fn prefix_scans_with_random_bounds_equal_plain_scans(
        entries in arb_entries(),
        lo in proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'b'), Just(b'c'), Just(b'd')], 1..8),
        hi in proptest::collection::vec(prop_oneof![Just(b'a'), Just(b'b'), Just(b'c'), Just(b'd')], 1..8),
        lo_kind in 0u8..3,
        hi_kind in 0u8..3,
    ) {
        let (lo, hi) = (bound_of(lo_kind, &lo), bound_of(hi_kind, &hi));
        let plain = build_tree(&entries, LeafEncoding::Plain);
        let prefix = build_tree(&entries, LeafEncoding::Prefix);
        let want = scan_into(&plain, &lo, &hi);
        let in_range = |k: &Vec<u8>| (lo.as_ref(), hi.as_ref()).contains(k);
        let model: Vec<&Vec<u8>> = entries.keys().filter(|k| in_range(k)).collect();
        prop_assert_eq!(want.iter().map(|(k, _, _)| k).collect::<Vec<_>>(), model);
        prop_assert_eq!(scan_into(&prefix, &lo, &hi), want);
    }
}
