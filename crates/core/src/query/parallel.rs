//! Parallel query execution: the Figure 5 pipeline fanned across
//! partitions of the key space.
//!
//! [`QueryBuilder::parallel(n)`](crate::QueryBuilder::parallel) executes a
//! secondary-index query in two scatter phases over up to `n` threads
//! (a shared [`QueryPool`](crate::query::pool::QueryPool) when the
//! dataset's runtime has one, ephemeral threads otherwise — the caller
//! always participates):
//!
//! 1. **Partitioned scan + validation.** One atomically captured snapshot
//!    of the secondary index (in-memory run + disk components) is split
//!    into ≤ `n` disjoint secondary-key sub-ranges along component page
//!    boundaries ([`LsmScan::partition_scan`]); each partition scans,
//!    sorts, deduplicates, and (when requested) Timestamp-validates its
//!    own candidates. The pk-ordered partial candidate lists are then
//!    k-way merged and deduplicated globally — exactly the candidate set
//!    the serial pipeline produces — and query-driven repair marks
//!    collected by the partitions are applied once, after the merge.
//! 2. **Partitioned record fetch.** The merged candidate list is split
//!    into ≤ `n` contiguous primary-key chunks; each chunk fetches its
//!    records with the batched point-lookup machinery
//!    ([`lookup_sorted_view`]) against one shared snapshot of the primary
//!    index, re-checking the predicate under Direct validation. Chunks are
//!    disjoint and ascending, so concatenating them yields the final,
//!    primary-key-ordered result with no further merge.
//!
//! Parallel results are therefore always in primary-key order (the order
//! `sort_output` produces serially), and identical to the serial result —
//! the parallel-vs-serial oracle test in `tests/parallel_query.rs` holds
//! across strategies and under concurrent background maintenance.

use crate::dataset::Dataset;
use crate::keys::{bound_as_ref, sk_range};
use crate::query::exec::{self, Candidate, RepairMark};
use crate::query::pool::{scatter, QueryPool, TaskFn};
use crate::query::{QueryOptions, QueryResult, ValidationMethod};
use lsm_common::{Key, Record, Result, Value};
use lsm_tree::{lookup_sorted_view, ComponentId, DiskComponent, LookupOptions, LsmEntry, LsmScan};
use std::ops::Bound;
use std::sync::Arc;

/// What one phase-1 partition task yields: its candidate list plus the
/// query-driven repair marks it collected.
type GatherOutcome = Result<(Vec<Candidate>, Vec<RepairMark>)>;

/// Slices a key-ordered run down to `lo..hi` by binary search, returning
/// the sub-slice bounds as indices. Shared with the partitioned filter-scan
/// path, which slices its captured memory run the same way.
pub(crate) fn slice_range(
    run: &[(Key, LsmEntry)],
    lo: &Bound<Key>,
    hi: &Bound<Key>,
) -> (usize, usize) {
    let start = match lo {
        Bound::Unbounded => 0,
        Bound::Included(k) => run.partition_point(|(key, _)| key < k),
        Bound::Excluded(k) => run.partition_point(|(key, _)| key <= k),
    };
    let end = match hi {
        Bound::Unbounded => run.len(),
        Bound::Included(k) => run.partition_point(|(key, _)| key <= k),
        Bound::Excluded(k) => run.partition_point(|(key, _)| key < k),
    };
    (start, end.max(start))
}

/// K-way merges per-partition candidate lists (each sorted by
/// `(pk asc, ts desc)`) into one list in the same order. Entries are
/// moved, not cloned; the fan-out is small, so a per-element linear scan
/// over the part heads beats heap bookkeeping.
fn merge_candidates(parts: Vec<Vec<Candidate>>) -> Vec<Candidate> {
    let total: usize = parts.iter().map(Vec::len).sum();
    let mut merged = Vec::with_capacity(total);
    let mut iters: Vec<std::vec::IntoIter<Candidate>> = parts
        .into_iter()
        .filter(|p| !p.is_empty())
        .map(Vec::into_iter)
        .collect();
    loop {
        let mut best: Option<usize> = None;
        for (i, iter) in iters.iter().enumerate() {
            let Some(cand) = iter.as_slice().first() else {
                continue;
            };
            best = match best {
                None => Some(i),
                Some(b) => {
                    // INVARIANT: `b` was only ever set for an iterator whose
                    // head existed, and nothing advances iterators in this loop.
                    let bc = iters[b].as_slice().first().expect("non-exhausted head");
                    // Same comparator as the serial sort: pk asc, ts desc.
                    if (&cand.pk_key, bc.ts) < (&bc.pk_key, cand.ts) {
                        Some(i)
                    } else {
                        Some(b)
                    }
                }
            };
        }
        match best {
            None => break,
            // INVARIANT: `best` points at an iterator whose head was just
            // peeked as present; `next()` consumes exactly that element.
            Some(i) => merged.push(iters[i].next().expect("peeked head present")),
        }
    }
    merged
}

/// Phase 1: partitioned scan + validation + merge. Returns the same
/// candidate set (distinct primary keys, ascending) as
/// [`exec::gather_candidates`], with repair marks applied once.
pub(crate) fn gather_parallel(
    ds: &Arc<Dataset>,
    index: &str,
    lo: Option<&Value>,
    hi: Option<&Value>,
    opts: &QueryOptions,
    parallelism: usize,
    pool: Option<&Arc<QueryPool>>,
) -> Result<Vec<Candidate>> {
    let sec = ds.secondary(index)?;
    let (lo_b, hi_b) = sk_range(lo, hi);
    let (lo_ref, hi_ref) = (bound_as_ref(&lo_b), bound_as_ref(&hi_b));

    // One atomically captured view of the secondary index: every partition
    // scans the same in-memory run and component list, so an entry
    // mid-flush is seen exactly once across the whole fan-out.
    let (mem, comps) = sec
        .tree
        .mem_and_disk_snapshot_if(lo_ref, hi_ref, |_, _| true);
    let partitions = LsmScan::partition_scan(&comps, lo_ref, hi_ref, parallelism)?;
    ds.stats().record_parallel_query(partitions.len());

    let mem: Arc<Vec<(Key, LsmEntry)>> = Arc::new(mem.unwrap_or_default());
    let comps: Arc<Vec<Arc<DiskComponent>>> = Arc::new(comps);
    let opts = *opts;
    let tasks: Vec<TaskFn<GatherOutcome>> = partitions
        .into_iter()
        .map(|(plo, phi)| {
            let ds = ds.clone();
            let mem = mem.clone();
            let comps = comps.clone();
            let task = move || {
                let (start, end) = slice_range(&mem, &plo, &phi);
                let mem_slice = (start < end).then(|| mem[start..end].to_vec());
                let mut cands = exec::scan_candidates(
                    &ds,
                    mem_slice,
                    &comps,
                    bound_as_ref(&plo),
                    bound_as_ref(&phi),
                )?;
                exec::sort_dedup_candidates(&ds, &mut cands, &opts);
                let mut marks = Vec::new();
                let cands = exec::validate_candidates(&ds, &comps, cands, &opts, Some(&mut marks))?;
                Ok((cands, marks))
            };
            Box::new(task) as Box<dyn FnOnce() -> _ + Send>
        })
        .collect();

    let mut partial = Vec::with_capacity(tasks.len());
    let mut all_marks: Vec<RepairMark> = Vec::new();
    for outcome in scatter(pool, tasks) {
        let (cands, marks) = outcome?;
        partial.push(cands);
        all_marks.extend(marks);
    }

    // Merge the pk-ordered partial lists and apply the serial pipeline's
    // global deduplication: the same pk can match in several sk partitions
    // (an updated record leaves entries under old and new secondary keys).
    let total: usize = partial.iter().map(Vec::len).sum();
    exec::charge_sort(ds, total as u64);
    let mut candidates = merge_candidates(partial);
    candidates.dedup_by(|a, b| a.pk_key == b.pk_key && a.ts == b.ts);
    candidates.dedup_by(|a, b| a.pk_key == b.pk_key);

    // Query-driven repair marks, aggregated per partition, applied once.
    if !all_marks.is_empty() {
        all_marks.sort_unstable();
        all_marks.dedup();
        for (idx, ordinal) in all_marks {
            comps[idx].bitmap_or_create().set(ordinal);
        }
    }
    Ok(candidates)
}

/// Phase 2: fetches the merged candidates' records in parallel pk chunks
/// against one shared primary-index snapshot; the concatenated result is
/// pk-ordered. Records failing a Direct predicate re-check are dropped.
#[allow(clippy::too_many_arguments)]
fn fetch_parallel(
    ds: &Arc<Dataset>,
    candidates: Vec<Candidate>,
    sec_field: usize,
    lo: Option<&Value>,
    hi: Option<&Value>,
    opts: &QueryOptions,
    parallelism: usize,
    pool: Option<&Arc<QueryPool>>,
) -> Result<Vec<Record>> {
    if candidates.is_empty() {
        return Ok(Vec::new());
    }
    // One consistent view of the primary index over the candidates' pk
    // span: partitions resolving against the same snapshot cannot miss an
    // entry that moves from memory to disk mid-query.
    let span_lo = Bound::Included(candidates[0].pk_key.as_slice());
    let span_hi = Bound::Included(candidates[candidates.len() - 1].pk_key.as_slice());
    let (mem, comps) = ds.primary().mem_and_disk_snapshot(span_lo, span_hi);
    let mem: Arc<Vec<(Key, LsmEntry)>> = Arc::new(mem);
    let comps: Arc<Vec<Arc<DiskComponent>>> = Arc::new(comps);

    let keys_per_batch = exec::keys_per_batch(ds, opts.batch_bytes);
    let chunk_len = candidates.len().div_ceil(parallelism.max(1)).max(1);
    let n_chunks = candidates.len().div_ceil(chunk_len);
    let opts = *opts;
    let lo = lo.cloned();
    let hi = hi.cloned();
    let mut pending = candidates.into_iter();
    let tasks: Vec<TaskFn<Result<Vec<Record>>>> = (0..n_chunks)
        .map(|_| {
            let ds = ds.clone();
            let mem = mem.clone();
            let comps = comps.clone();
            let (keys, hints): (Vec<Key>, Vec<ComponentId>) = pending
                .by_ref()
                .take(chunk_len)
                .map(|c| (c.pk_key, c.source_id))
                .unzip();
            let (lo, hi) = (lo.clone(), hi.clone());
            let task = move || {
                let lopts = LookupOptions {
                    batched: opts.batched,
                    keys_per_batch,
                    stateful: opts.stateful,
                    id_hints: opts.propagate_component_ids.then_some(hints.as_slice()),
                };
                let mut found =
                    lookup_sorted_view(ds.storage(), Some(&mem), &comps, &keys, &lopts)?;
                exec::fetch_missing_under_lock(&ds, &keys, &mut found)?;
                // Batched probing destroys key order within the chunk;
                // restore it so concatenated chunks are globally ordered.
                exec::charge_sort(&ds, found.len() as u64);
                found.sort_by_key(|(i, _)| *i);
                let mut records = Vec::with_capacity(found.len());
                for (_, entry) in found {
                    let record = Record::decode(&entry.value)?;
                    if opts.validation == ValidationMethod::Direct
                        && !exec::direct_predicate_holds(
                            &record,
                            sec_field,
                            lo.as_ref(),
                            hi.as_ref(),
                        )
                    {
                        continue;
                    }
                    records.push(record);
                }
                Ok(records)
            };
            Box::new(task) as Box<dyn FnOnce() -> _ + Send>
        })
        .collect();

    let mut records = Vec::new();
    for outcome in scatter(pool, tasks) {
        records.extend(outcome?);
    }
    Ok(records)
}

/// Runs the full pipeline with both phases fanned across up to
/// `parallelism` threads. Results are always in primary-key order
/// (`sort_output` is implied).
pub(crate) fn execute_parallel(
    ds: &Arc<Dataset>,
    index: &str,
    lo: Option<&Value>,
    hi: Option<&Value>,
    opts: &QueryOptions,
    limit: Option<usize>,
    parallelism: usize,
) -> Result<QueryResult> {
    let pool = ds.query_pool();
    let sec_field = ds.secondary(index)?.field;
    let candidates = gather_parallel(ds, index, lo, hi, opts, parallelism, pool.as_ref())?;

    // Index-only fast path: no record fetch needed.
    if opts.index_only && opts.validation != ValidationMethod::Direct {
        let mut keys = candidates
            .iter()
            .map(|c| crate::keys::decode_pk(&c.pk_key))
            .collect::<Result<Vec<_>>>()?;
        if let Some(n) = limit {
            keys.truncate(n);
        }
        return Ok(QueryResult::Keys(keys));
    }

    // Limited record queries fetch through the streaming path so the
    // point-lookup I/O stops at `limit` results (candidates are already
    // pk-ordered, so the stream preserves the parallel output order).
    if limit.is_some() && !opts.index_only {
        let (keys, hints) = candidates
            .into_iter()
            .map(|c| (c.pk_key, c.source_id))
            .unzip();
        let stream = crate::query::RecordStream::from_candidates(
            ds,
            keys,
            hints,
            sec_field,
            lo.cloned(),
            hi.cloned(),
            opts,
            limit,
        );
        let records = stream.collect::<Result<Vec<_>>>()?;
        return Ok(QueryResult::Records(records));
    }

    let records = fetch_parallel(
        ds,
        candidates,
        sec_field,
        lo,
        hi,
        opts,
        parallelism,
        pool.as_ref(),
    )?;

    if opts.index_only {
        // Direct validation + index-only still had to fetch records.
        let pk_field = ds.config().pk_field;
        let mut keys: Vec<Value> = records.iter().map(|r| r.get(pk_field).clone()).collect();
        if let Some(n) = limit {
            keys.truncate(n);
        }
        return Ok(QueryResult::Keys(keys));
    }
    Ok(QueryResult::Records(records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsm_tree::LsmEntry;

    fn cand(pk: u8, ts: u64) -> Candidate {
        Candidate {
            pk_key: vec![pk],
            ts,
            repaired_ts: 0,
            source_id: ComponentId::new(1, 1),
            source: None,
        }
    }

    #[test]
    fn merge_orders_by_pk_then_ts_desc() {
        let merged = merge_candidates(vec![
            vec![cand(1, 5), cand(3, 2)],
            vec![cand(1, 9), cand(2, 1)],
            vec![],
        ]);
        let got: Vec<(u8, u64)> = merged.iter().map(|c| (c.pk_key[0], c.ts)).collect();
        assert_eq!(got, vec![(1, 9), (1, 5), (2, 1), (3, 2)]);
    }

    #[test]
    fn slice_range_respects_bounds() {
        let run: Vec<(Key, LsmEntry)> = (0u8..10)
            .map(|i| (vec![i], LsmEntry::put(vec![])))
            .collect();
        assert_eq!(
            slice_range(&run, &Bound::Unbounded, &Bound::Unbounded),
            (0, 10)
        );
        assert_eq!(
            slice_range(&run, &Bound::Included(vec![3]), &Bound::Excluded(vec![7])),
            (3, 7)
        );
        assert_eq!(
            slice_range(&run, &Bound::Excluded(vec![3]), &Bound::Included(vec![7])),
            (4, 8)
        );
        assert_eq!(
            slice_range(&run, &Bound::Included(vec![20]), &Bound::Unbounded),
            (10, 10)
        );
    }
}
