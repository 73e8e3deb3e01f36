//! Point lookups: single, naive-sorted, and batched (Section 3.2).
//!
//! The paper's central query-processing contribution is an efficient way to
//! fetch many records by primary key after a secondary-index search:
//!
//! * **naive**: keys are sorted, but each key is probed through all LSM
//!   components before moving to the next key — the device head bounces
//!   between component files, turning every read into a random I/O;
//! * **batched**: keys are split into batches and, per batch, components
//!   are probed *one at a time*, newest to oldest, each component's pages
//!   being touched in ascending key order — sequential where density allows;
//! * per-component probes optionally use the **stateful cursor** with
//!   exponential search, and Bloom filters (standard or **blocked**) gate
//!   every component probe;
//! * **component-ID propagation** ("pID", after Jia): a per-key timestamp
//!   interval (the ID of the secondary-index component the key was found
//!   in) prunes primary components whose ID interval is disjoint.
//!
//! The same per-component loop also serves the **newest-version probe**
//! of Timestamp Validation and index repair (Sections 4.3-4.4): for a
//! sorted list of primary keys, each with its own pruning timestamp, it
//! finds the timestamp of every key's newest version (anti-matter
//! included) in the primary key index. Components are visited newest
//! first, one Bloom batch and one stateful cursor each, so a repair's
//! thousands of candidates cost one ascending pass per component instead
//! of a Bloom check plus a root-to-leaf descent per candidate and
//! component.

use crate::component::DiskComponent;
use crate::component_id::ComponentId;
use crate::entry::LsmEntry;
use crate::tree::LsmTree;
use lsm_btree::StatefulCursor;
use lsm_common::{Key, Result, Timestamp};
use lsm_storage::PageSlice;
use std::sync::Arc;

/// Options for [`lookup_sorted`].
#[derive(Debug, Clone, Copy, Default)]
pub struct LookupOptions<'a> {
    /// Probe components one at a time per batch (vs per key).
    pub batched: bool,
    /// Keys per batch when `batched` (0 = one single batch).
    pub keys_per_batch: usize,
    /// Use the stateful B+-tree cursor with exponential search.
    pub stateful: bool,
    /// Per-key component-ID hints, parallel to the key slice ("pID").
    /// A component is skipped for a key when their intervals are disjoint.
    pub id_hints: Option<&'a [ComponentId]>,
}

/// Result of a sorted multi-key lookup: `(index into the key slice, entry)`
/// for every key resolved to a live value, in retrieval order (not
/// necessarily key order when batching).
pub type FoundEntries = Vec<(usize, LsmEntry)>;

/// Looks up one key: memory component first, then disk components newest to
/// oldest, gated by Bloom filters. Returns the newest version — which may
/// be an anti-matter entry; callers decide what deletion means. Entries
/// invalidated by a validity bitmap are treated as deleted (`None`).
pub fn point_lookup(tree: &LsmTree, key: &[u8]) -> Result<Option<LsmEntry>> {
    if let Some(e) = tree.mem_get(key) {
        return Ok(Some(e));
    }
    let storage = tree.storage();
    for comp in tree.disk_components() {
        if !comp.bloom_may_contain(storage, key) {
            continue;
        }
        if let Some((entry, ordinal)) = comp.search(key)? {
            if !comp.is_valid(ordinal) {
                return Ok(None);
            }
            return Ok(Some(entry));
        }
    }
    Ok(None)
}

/// Locates the valid (bitmap-live, non-anti-matter) disk entry for `key`,
/// returning its component and ordinal — the Mutable-bitmap strategy's
/// delete/upsert probe (Section 5.2): "search the primary key index to
/// locate the position of the deleted key".
pub fn locate_valid(
    tree: &LsmTree,
    key: &[u8],
) -> Result<Option<(Arc<DiskComponent>, u64, LsmEntry)>> {
    let storage = tree.storage();
    for comp in tree.disk_components() {
        if !comp.bloom_may_contain(storage, key) {
            continue;
        }
        if let Some((entry, ordinal)) = comp.search(key)? {
            if !comp.is_valid(ordinal) || entry.anti_matter {
                return Ok(None); // deleted already; older versions are stale
            }
            return Ok(Some((comp, ordinal, entry)));
        }
    }
    Ok(None)
}

/// Fetches many keys (must be sorted ascending). See [`LookupOptions`].
///
/// The memory component is read live through `tree` and the disk-component
/// list is captured *after* the memory pass, so an entry mid-flush is seen
/// in memory or on disk (never neither). Every call builds its own
/// per-component stateful cursors — concurrent callers (parallel query
/// partitions fetching their own sorted batches) share no cursor state.
pub fn lookup_sorted(
    tree: &LsmTree,
    keys: &[Key],
    opts: &LookupOptions<'_>,
) -> Result<FoundEntries> {
    let mut found: FoundEntries = Vec::new();
    if keys.is_empty() {
        return Ok(found);
    }
    // The memory component is always checked first (it is the newest);
    // the disk list is captured after, closing the flush-install window.
    let unresolved = resolve_mem(keys, |k| tree.mem_get(k), &mut found);
    let components = tree.disk_components();
    lookup_disk(
        tree.storage(),
        &components,
        keys,
        &unresolved,
        opts,
        &mut found,
    )?;
    Ok(found)
}

/// [`lookup_sorted`] over an explicit snapshot — a key-ordered in-memory
/// run plus a disk-component list, e.g. one captured atomically with
/// [`LsmTree::mem_and_disk_snapshot`].
///
/// Parallel queries fetch candidate batches per partition against one
/// shared snapshot: every partition resolves against the same component
/// list (so an entry mid-flush is seen exactly once, and component-ID
/// pruning agrees across partitions), while each call still builds its own
/// stateful cursors — no cursor is ever shared across partitions.
pub fn lookup_sorted_view(
    storage: &Arc<lsm_storage::Storage>,
    mem: Option<&[(Key, LsmEntry)]>,
    components: &[Arc<DiskComponent>],
    keys: &[Key],
    opts: &LookupOptions<'_>,
) -> Result<FoundEntries> {
    let mut found: FoundEntries = Vec::new();
    if keys.is_empty() {
        return Ok(found);
    }
    let mem_get = |key: &[u8]| {
        let run = mem?;
        run.binary_search_by(|(k, _)| k.as_slice().cmp(key))
            .ok()
            .map(|idx| run[idx].1.clone())
    };
    let unresolved = resolve_mem(keys, mem_get, &mut found);
    lookup_disk(storage, components, keys, &unresolved, opts, &mut found)?;
    Ok(found)
}

/// Resolves the keys found in memory into `found`; returns the indices
/// still unresolved, in ascending key order.
fn resolve_mem(
    keys: &[Key],
    mem_get: impl Fn(&[u8]) -> Option<LsmEntry>,
    found: &mut FoundEntries,
) -> Vec<usize> {
    debug_assert!(keys.windows(2).all(|w| w[0] <= w[1]), "keys must be sorted");
    let mut unresolved: Vec<usize> = Vec::with_capacity(keys.len());
    for (i, key) in keys.iter().enumerate() {
        match mem_get(key) {
            Some(e) if e.anti_matter => {} // deleted: resolved, no result
            Some(e) => found.push((i, e)),
            None => unresolved.push(i),
        }
    }
    unresolved
}

/// The disk half of a sorted lookup: probes `components` (newest first)
/// for the still-unresolved keys, batched or naive per `opts`.
fn lookup_disk(
    storage: &Arc<lsm_storage::Storage>,
    components: &[Arc<DiskComponent>],
    keys: &[Key],
    unresolved: &[usize],
    opts: &LookupOptions<'_>,
    found: &mut FoundEntries,
) -> Result<()> {
    if opts.batched {
        let batch = if opts.keys_per_batch == 0 {
            unresolved.len().max(1)
        } else {
            opts.keys_per_batch
        };
        for chunk in unresolved.chunks(batch) {
            lookup_batch(storage, keys, chunk, components, opts, found)?;
        }
    } else {
        // Naive: per key, walk the components newest → oldest.
        for &i in unresolved {
            let key = &keys[i];
            for comp in components {
                if let Some(hints) = opts.id_hints {
                    if !comp.id().overlaps(&hints[i]) {
                        continue;
                    }
                }
                if !comp.bloom_may_contain(storage, key) {
                    continue;
                }
                if let Some((entry, ordinal)) = comp.search(key)? {
                    if comp.is_valid(ordinal) && !entry.anti_matter {
                        found.push((i, entry));
                    }
                    break; // resolved (live, deleted, or invalidated)
                }
            }
        }
    }
    Ok(())
}

/// One batch of the batched algorithm (Section 3.2): probe each component
/// once, in ascending key order, dropping resolved keys as we go.
fn lookup_batch(
    storage: &Arc<lsm_storage::Storage>,
    keys: &[Key],
    batch: &[usize],
    components: &[Arc<DiskComponent>],
    opts: &LookupOptions<'_>,
    found: &mut FoundEntries,
) -> Result<()> {
    let skip = |comp: &DiskComponent, i: usize| {
        opts.id_hints
            .is_some_and(|hints| !comp.id().overlaps(&hints[i]))
    };
    probe_components(
        storage,
        components,
        keys,
        batch.to_vec(),
        opts.stateful,
        skip,
        |comp, i, raw, ordinal| {
            let entry = LsmEntry::decode_slice(raw)?;
            if comp.is_valid(ordinal) && !entry.anti_matter {
                found.push((i, entry));
            }
            // resolved either way: newest version seen
            Ok(())
        },
    )
}

/// The per-component loop of every batched probe. Visits `components`
/// newest first; for each, the keys of `remaining` (indices into `keys`,
/// in ascending key order) that `skip` does not prune for it go through
/// ONE Bloom filter call, so blocked filters resolve all block loads
/// before the in-block probes, and the positives are searched in ascending
/// order — through one [`StatefulCursor`] when `stateful`. A key found in
/// a component is handed to `resolve` and probed no further; the others
/// move on to the next component. Pruned keys are never Bloom-checked, so
/// the bloom-check stats match a per-key walk over the same components.
fn probe_components<K: AsRef<[u8]>>(
    storage: &Arc<lsm_storage::Storage>,
    components: &[Arc<DiskComponent>],
    keys: &[K],
    mut remaining: Vec<usize>,
    stateful: bool,
    skip: impl Fn(&DiskComponent, usize) -> bool,
    mut resolve: impl FnMut(&DiskComponent, usize, PageSlice, u64) -> Result<()>,
) -> Result<()> {
    // Buffers reused across components: each component's pass refills
    // them, so a batch allocates them once rather than once per component.
    let mut still_unresolved: Vec<usize> = Vec::with_capacity(remaining.len());
    let mut candidates: Vec<&[u8]> = Vec::with_capacity(remaining.len());
    let mut verdicts: Vec<bool> = Vec::with_capacity(remaining.len());
    for comp in components {
        if remaining.is_empty() {
            break;
        }
        candidates.clear();
        candidates.extend(
            remaining
                .iter()
                .filter(|&&i| !skip(comp, i))
                .map(|&i| keys[i].as_ref()),
        );
        comp.bloom_may_contain_batch(storage, &candidates, &mut verdicts);
        let mut verdict = verdicts.iter();
        let mut cursor = stateful.then(|| StatefulCursor::new(comp.btree()));
        still_unresolved.clear();
        for &i in &remaining {
            // INVARIANT: `verdicts` holds one verdict per key `skip` kept,
            // in `remaining` order.
            if skip(comp, i) || !*verdict.next().expect("one verdict per probed key") {
                still_unresolved.push(i);
                continue;
            }
            let key = keys[i].as_ref();
            let hit = match &mut cursor {
                Some(c) => c.seek_pinned(key)?,
                None => comp.btree().search_pinned(key)?,
            };
            match hit {
                Some((raw, ordinal)) => resolve(comp, i, raw, ordinal)?,
                None => still_unresolved.push(i),
            }
        }
        std::mem::swap(&mut remaining, &mut still_unresolved);
    }
    Ok(())
}

/// The newest-version probe of Timestamp Validation and index repair
/// (Sections 4.3-4.4) over a live tree: the timestamp of each key's newest
/// version, anti-matter included and validity bitmaps ignored, or `None`
/// if no version survives pruning. `keys` must be sorted ascending
/// (repeats allowed); disk components at or below `prune_ts(i)` are
/// pruned for key `i`. The memory component is always consulted, first,
/// and the disk list is captured after it, so an entry mid-flush is seen
/// in memory or on disk (never neither).
pub fn newest_versions<K: AsRef<[u8]>>(
    tree: &LsmTree,
    keys: &[K],
    prune_ts: impl Fn(usize) -> Timestamp,
) -> Result<Vec<Option<Timestamp>>> {
    let mut newest = vec![None; keys.len()];
    let mut unresolved = Vec::with_capacity(keys.len());
    for (i, key) in keys.iter().enumerate() {
        match tree.mem_get(key.as_ref()) {
            Some(e) => newest[i] = Some(e.ts),
            None => unresolved.push(i),
        }
    }
    let components = tree.disk_components();
    probe_newest(
        tree.storage(),
        &components,
        keys,
        unresolved,
        prune_ts,
        &mut newest,
    )?;
    Ok(newest)
}

/// [`newest_versions`] against `components` alone, a captured disk list
/// (newest first): index repair validates against flushed state it
/// captured once, and advances the repaired timestamp to the newest
/// unpruned component of that same capture.
pub fn newest_disk_versions<K: AsRef<[u8]>>(
    storage: &Arc<lsm_storage::Storage>,
    components: &[Arc<DiskComponent>],
    keys: &[K],
    prune_ts: impl Fn(usize) -> Timestamp,
) -> Result<Vec<Option<Timestamp>>> {
    let mut newest = vec![None; keys.len()];
    probe_newest(
        storage,
        components,
        keys,
        (0..keys.len()).collect(),
        prune_ts,
        &mut newest,
    )?;
    Ok(newest)
}

/// The disk half of the newest-version probe: resolves the keys of
/// `remaining` into `newest`.
fn probe_newest<K: AsRef<[u8]>>(
    storage: &Arc<lsm_storage::Storage>,
    components: &[Arc<DiskComponent>],
    keys: &[K],
    remaining: Vec<usize>,
    prune_ts: impl Fn(usize) -> Timestamp,
    newest: &mut [Option<Timestamp>],
) -> Result<()> {
    debug_assert!(
        keys.windows(2).all(|w| w[0].as_ref() <= w[1].as_ref()),
        "keys must be sorted"
    );
    probe_components(
        storage,
        components,
        keys,
        remaining,
        true,
        |comp, i| comp.id().at_or_before(prune_ts(i)),
        |_, i, raw, _| {
            newest[i] = Some(LsmEntry::decode_slice(raw)?.ts);
            Ok(())
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{LsmOptions, LsmTree};
    use lsm_storage::{Storage, StorageOptions};

    fn key(i: u32) -> Key {
        format!("k{i:06}").into_bytes()
    }

    /// Three disk components + a memtable, every entry stamped with its
    /// write timestamp:
    ///   comp ids 1-300 (keys 0..300), 301-400 (100..200 overwritten),
    ///   401-450 (250..300 deleted), mem: key 0 overwritten at ts 451.
    fn sample_tree() -> LsmTree {
        let t = LsmTree::new(Storage::new(StorageOptions::test()), LsmOptions::default());
        let mut ts = 1;
        for i in 0..300 {
            t.put(key(i), LsmEntry::put_ts(b"v1".to_vec(), ts), ts);
            ts += 1;
        }
        t.flush().unwrap();
        for i in 100..200 {
            t.put(key(i), LsmEntry::put_ts(b"v2".to_vec(), ts), ts);
            ts += 1;
        }
        t.flush().unwrap();
        for i in 250..300 {
            t.put(key(i), LsmEntry::anti_matter_ts(ts), ts);
            ts += 1;
        }
        t.flush().unwrap();
        t.put(key(0), LsmEntry::put_ts(b"mem".to_vec(), ts), ts);
        t
    }

    #[test]
    fn point_lookup_sees_newest_version() {
        let t = sample_tree();
        assert_eq!(point_lookup(&t, &key(0)).unwrap().unwrap().value, b"mem");
        assert_eq!(point_lookup(&t, &key(50)).unwrap().unwrap().value, b"v1");
        assert_eq!(point_lookup(&t, &key(150)).unwrap().unwrap().value, b"v2");
        assert!(point_lookup(&t, &key(270)).unwrap().unwrap().anti_matter);
        assert!(point_lookup(&t, &key(999)).unwrap().is_none());
    }

    fn check_all_modes(t: &LsmTree, keys: Vec<Key>, expect: &[(u32, &[u8])]) {
        for (batched, stateful) in [(false, false), (true, false), (true, true)] {
            let opts = LookupOptions {
                batched,
                stateful,
                keys_per_batch: 7,
                id_hints: None,
            };
            let mut got: Vec<(Key, Vec<u8>)> = lookup_sorted(t, &keys, &opts)
                .unwrap()
                .into_iter()
                .map(|(i, e)| (keys[i].clone(), e.value.into_bytes()))
                .collect();
            got.sort();
            let mut want: Vec<(Key, Vec<u8>)> =
                expect.iter().map(|(i, v)| (key(*i), v.to_vec())).collect();
            want.sort();
            assert_eq!(got, want, "batched={batched} stateful={stateful}");
        }
    }

    #[test]
    fn lookup_sorted_modes_agree() {
        let t = sample_tree();
        let keys: Vec<Key> = vec![
            key(0),   // mem version
            key(50),  // v1
            key(120), // v2
            key(260), // deleted
            key(999), // absent
        ];
        check_all_modes(&t, keys, &[(0, b"mem"), (50, b"v1"), (120, b"v2")]);
    }

    #[test]
    fn batched_does_fewer_random_reads_than_naive() {
        // Keys striped across 4 components (key i lives in component i % 4),
        // so a sorted probe stream alternates between component files under
        // the naive algorithm but walks each file in order when batched —
        // the exact effect of Section 3.2 / Figure 12.
        let t = LsmTree::new(Storage::new(StorageOptions::test()), LsmOptions::default());
        let n = 2000u32;
        let mut ts = 1;
        for stripe in 0..4 {
            for i in (0..n).filter(|i| i % 4 == stripe) {
                t.put(key(i), LsmEntry::put(vec![b'x'; 100]), ts);
                ts += 1;
            }
            t.flush().unwrap();
        }
        let keys: Vec<Key> = (0..n).map(key).collect();
        let s = t.storage().clone();

        s.clear_cache();
        let before = s.stats();
        let res = lookup_sorted(&t, &keys, &LookupOptions::default()).unwrap();
        assert_eq!(res.len(), n as usize);
        let naive = s.stats().since(&before);

        s.clear_cache();
        let before = s.stats();
        let res = lookup_sorted(
            &t,
            &keys,
            &LookupOptions {
                batched: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(res.len(), n as usize);
        let batched = s.stats().since(&before);

        assert!(
            batched.rand_reads * 2 < naive.rand_reads,
            "batched {} vs naive {}",
            batched.rand_reads,
            naive.rand_reads
        );
        // Batching changes the ORDER of page accesses, not the pages;
        // leaf-page volume is the same (router pages may differ via cache).
        assert!(batched.seq_reads > naive.seq_reads);
    }

    #[test]
    fn id_hints_prune_components() {
        let t = sample_tree();
        let s = t.storage().clone();
        // Key 50 only exists in component 1-300; hint it tightly so the
        // other components are pruned without bloom checks.
        let keys = vec![key(50)];
        let hints = vec![ComponentId::new(10, 20)];
        let before = s.stats();
        let res = lookup_sorted(
            &t,
            &keys,
            &LookupOptions {
                batched: true,
                id_hints: Some(&hints),
                ..Default::default()
            },
        )
        .unwrap();
        let d = s.stats().since(&before);
        assert_eq!(res.len(), 1);
        // Only the one overlapping component was bloom-checked.
        assert_eq!(d.bloom_checks, 1);
    }

    #[test]
    fn newest_versions_prune_per_key() {
        let t = sample_tree();
        // Key 50 was written at ts 51 in component 1-300: pruning at 300
        // hides it, pruning at 0 finds it. Key 150's newest version
        // (ts 351) survives pruning at 300. Key 260's newest version is
        // its anti-matter (ts 411). Mem entries are always visible.
        let keys = [key(0), key(50), key(50), key(150), key(260), key(999)];
        let prune = [u64::MAX, 300, 0, 300, 300, 0];
        let got = newest_versions(&t, &keys, |i| prune[i]).unwrap();
        assert_eq!(got, [Some(451), None, Some(51), Some(351), Some(411), None]);
        // Disk-only: key 0's memory version is out of sight.
        let comps = t.disk_components();
        let got = newest_disk_versions(t.storage(), &comps, &keys[..1], |_| 0).unwrap();
        assert_eq!(got, [Some(1)]);
    }

    /// The newest-version probe agrees with a per-key walk over every
    /// component, under every pruning timestamp, and checks each Bloom
    /// filter exactly as often as that walk.
    #[test]
    fn newest_versions_match_per_key_walk() {
        let t = sample_tree();
        let comps = t.disk_components();
        let keys: Vec<Key> = (0..320).step_by(3).map(key).collect();
        for prune in [0, 150, 300, 350, 400, 450] {
            let before = t.storage().stats();
            let got = newest_disk_versions(t.storage(), &comps, &keys, |_| prune).unwrap();
            let checks = t.storage().stats().since(&before).bloom_checks;
            let mut want_checks = 0;
            let want: Vec<Option<Timestamp>> = keys
                .iter()
                .map(|k| {
                    for comp in comps.iter().filter(|c| !c.id().at_or_before(prune)) {
                        want_checks += u64::from(comp.has_bloom());
                        if let Some((e, _)) = comp.search(k).unwrap() {
                            return Some(e.ts);
                        }
                    }
                    None
                })
                .collect();
            assert_eq!(got, want, "prune {prune}");
            assert_eq!(checks, want_checks, "prune {prune}");
        }
    }

    #[test]
    fn locate_valid_finds_live_disk_entries() {
        let t = sample_tree();
        let (comp, ordinal, e) = locate_valid(&t, &key(150)).unwrap().unwrap();
        assert_eq!(e.value, b"v2");
        assert!(comp.is_valid(ordinal));
        // Deleted key: the anti-matter entry is newest → None.
        assert!(locate_valid(&t, &key(260)).unwrap().is_none());
        assert!(locate_valid(&t, &key(12345)).unwrap().is_none());
    }

    #[test]
    fn locate_valid_respects_bitmaps() {
        let t = sample_tree();
        let (comp, ordinal, _) = locate_valid(&t, &key(40)).unwrap().unwrap();
        let bm = Arc::new(crate::bitmap::AtomicBitmap::new(comp.num_entries()));
        bm.set(ordinal);
        comp.set_bitmap(bm).unwrap();
        assert!(locate_valid(&t, &key(40)).unwrap().is_none());
        // point_lookup treats the invalidated entry as deleted too.
        assert!(point_lookup(&t, &key(40)).unwrap().is_none());
    }

    #[test]
    fn empty_inputs() {
        let t = sample_tree();
        assert!(lookup_sorted(&t, &[], &LookupOptions::default())
            .unwrap()
            .is_empty());
    }

    /// The snapshot-view lookup must agree with the live lookup when handed
    /// an atomically captured view of the same tree.
    #[test]
    fn lookup_view_matches_live_lookup() {
        use std::ops::Bound;
        let t = sample_tree();
        let keys: Vec<Key> = vec![key(0), key(50), key(120), key(260), key(999)];
        let (mem, comps) = t.mem_and_disk_snapshot(Bound::Unbounded, Bound::Unbounded);
        for (batched, stateful) in [(false, false), (true, false), (true, true)] {
            let opts = LookupOptions {
                batched,
                stateful,
                keys_per_batch: 3,
                id_hints: None,
            };
            let mut live: Vec<(usize, Vec<u8>)> = lookup_sorted(&t, &keys, &opts)
                .unwrap()
                .into_iter()
                .map(|(i, e)| (i, e.value.into_bytes()))
                .collect();
            let mut view: Vec<(usize, Vec<u8>)> =
                lookup_sorted_view(t.storage(), Some(&mem), &comps, &keys, &opts)
                    .unwrap()
                    .into_iter()
                    .map(|(i, e)| (i, e.value.into_bytes()))
                    .collect();
            live.sort();
            view.sort();
            assert_eq!(live, view, "batched={batched} stateful={stateful}");
        }
        // An empty mem view resolves everything on disk (key 0's mem
        // version disappears, exposing the disk version).
        let found = lookup_sorted_view(
            t.storage(),
            None,
            &comps,
            &[key(0)],
            &LookupOptions::default(),
        )
        .unwrap();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].1.value, b"v1");
    }
}
