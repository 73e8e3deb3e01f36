//! Query execution internals shared by the fluent
//! [`QueryBuilder`](crate::query::QueryBuilder) and the streaming
//! [`RecordStream`](crate::query::RecordStream): the Figure 5 pipeline of
//! secondary-index scan → candidate sort/dedup → validation → record fetch.

use crate::dataset::{Dataset, SecondaryIndex};
use crate::keys::{bound_as_ref, sk_range};
use crate::query::{QueryOptions, QueryResult, ValidationMethod};
use lsm_common::{Error, Key, Record, Result, Timestamp, Value};
use lsm_tree::{lookup_sorted, newest_versions, ComponentId, LookupOptions, LsmScan, ScanOptions};

/// One candidate produced by the secondary-index scan.
#[derive(Debug, Clone)]
pub(crate) struct Candidate {
    pub pk_key: Key,
    pub ts: Timestamp,
    /// Repaired timestamp of the source component (`now` for memory).
    pub repaired_ts: Timestamp,
    /// Component ID of the source (for pID pruning).
    pub source_id: ComponentId,
    /// Source disk component index and entry ordinal (None for memory),
    /// for query-driven repair.
    pub source: Option<(usize, u64)>,
}

/// A query-driven-repair mark: `(disk component index, entry ordinal)` in
/// the component list the candidates were scanned from. The parallel path
/// collects these per partition and applies the aggregate once; the serial
/// path applies them inline.
pub(crate) type RepairMark = (usize, u64);

/// Steps 1-3 of Figure 5: scan the secondary index for `sk ∈ [lo, hi]`,
/// sort and deduplicate the candidates, and apply Timestamp validation when
/// requested. The returned candidates are distinct primary keys in
/// ascending key order.
pub(crate) fn gather_candidates(
    ds: &Dataset,
    sec: &SecondaryIndex,
    lo: Option<&Value>,
    hi: Option<&Value>,
    opts: &QueryOptions,
) -> Result<Vec<Candidate>> {
    let (lo_b, hi_b) = sk_range(lo, hi);
    let (lo_ref, hi_ref) = (bound_as_ref(&lo_b), bound_as_ref(&hi_b));
    let mem = sec.tree.mem_snapshot_range(lo_ref, hi_ref);
    let comps = sec.tree.disk_components();
    let mem = (!mem.is_empty()).then_some(mem);
    let mut candidates = scan_candidates(ds, mem, &comps, lo_ref, hi_ref)?;
    sort_dedup_candidates(ds, &mut candidates, opts);
    validate_candidates(ds, &comps, candidates, opts, None)
}

/// Step 1 of Figure 5 over an explicit view: scans `[lo, hi]` of the
/// secondary index given an in-memory run (`None` = nothing buffered;
/// owned, so the serial path moves its snapshot in without copying) and
/// a disk-component list. Candidate `source` indices refer to `comps`.
/// The parallel path calls this once per partition against one shared
/// snapshot.
pub(crate) fn scan_candidates(
    ds: &Dataset,
    mem: Option<Vec<(Key, lsm_tree::LsmEntry)>>,
    comps: &[std::sync::Arc<lsm_tree::DiskComponent>],
    lo: std::ops::Bound<&[u8]>,
    hi: std::ops::Bound<&[u8]>,
) -> Result<Vec<Candidate>> {
    let storage = ds.storage();
    let mem = mem.filter(|m| !m.is_empty());
    let has_mem = mem.is_some();
    let mut scan = LsmScan::new(storage.clone(), mem, comps, lo, hi, ScanOptions::default())?;
    let now = ds.clock().now();
    let mut candidates: Vec<Candidate> = Vec::new();
    while let Some((key, entry, rank, ordinal)) = scan.next_reconciled()? {
        if entry.anti_matter {
            continue;
        }
        let (repaired_ts, source_id, source) = if has_mem && rank == 0 {
            (now, ComponentId::new(entry.ts.max(1), now.max(1)), None)
        } else {
            let idx = rank - usize::from(has_mem);
            let comp = &comps[idx];
            (comp.repaired_ts(), comp.id(), Some((idx, ordinal)))
        };
        let (_, pk_key) = crate::keys::split_sk_pk(&key)?;
        candidates.push(Candidate {
            pk_key: pk_key.to_vec(),
            ts: entry.ts,
            repaired_ts,
            source_id,
            source,
        });
    }
    Ok(candidates)
}

/// Step 2 of Figure 5: sort by `(pk asc, ts desc)` and deduplicate —
/// exact `(pk, ts)` duplicates always, and down to one (the newest)
/// candidate per pk when no Timestamp validation will follow.
pub(crate) fn sort_dedup_candidates(
    ds: &Dataset,
    candidates: &mut Vec<Candidate>,
    opts: &QueryOptions,
) {
    charge_sort(ds, candidates.len() as u64);
    candidates.sort_by(|a, b| (&a.pk_key, b.ts).cmp(&(&b.pk_key, a.ts)));
    candidates.dedup_by(|a, b| a.pk_key == b.pk_key && a.ts == b.ts);
    if opts.validation == ValidationMethod::None || opts.validation == ValidationMethod::Direct {
        // Distinct on pk (keep the newest candidate).
        candidates.dedup_by(|a, b| a.pk_key == b.pk_key);
    }
}

/// Step 3 of Figure 5: Timestamp validation (Figure 5b) against the
/// primary key index, plus the final distinct-pk pass. A no-op for the
/// other validation methods. With `marks` set, query-driven-repair
/// obsolescence proofs are collected there (indices into `comps`) instead
/// of being applied inline — the parallel path aggregates marks across
/// partitions and applies them once.
pub(crate) fn validate_candidates(
    ds: &Dataset,
    comps: &[std::sync::Arc<lsm_tree::DiskComponent>],
    mut candidates: Vec<Candidate>,
    opts: &QueryOptions,
    mut marks: Option<&mut Vec<RepairMark>>,
) -> Result<Vec<Candidate>> {
    if opts.validation != ValidationMethod::Timestamp {
        return Ok(candidates);
    }
    let pk_tree = ds
        .pk_index()
        .ok_or_else(|| Error::invalid("timestamp validation requires the pk index"))?;
    // Candidates arrive sorted by pk: one batched probe of the pk index
    // validates them all, each pruned at its own timestamps.
    let newest = {
        let pks: Vec<&[u8]> = candidates.iter().map(|c| c.pk_key.as_slice()).collect();
        newest_versions(pk_tree, &pks, |i| {
            candidates[i].ts.max(candidates[i].repaired_ts)
        })?
    };
    let mut valid = Vec::with_capacity(candidates.len());
    for (cand, newest) in candidates.into_iter().zip(newest) {
        let invalid = newest.is_some_and(|ts| ts > cand.ts);
        if !invalid {
            valid.push(cand);
        } else if opts.query_driven_repair {
            // Query-driven maintenance: record the proof of obsolescence
            // so future queries skip this entry without re-validating.
            if let Some((idx, ordinal)) = cand.source {
                match marks.as_deref_mut() {
                    Some(collected) => collected.push((idx, ordinal)),
                    None => {
                        comps[idx].bitmap_or_create().set(ordinal);
                    }
                }
            }
        }
    }
    candidates = valid;
    candidates.dedup_by(|a, b| a.pk_key == b.pk_key);
    Ok(candidates)
}

/// Re-probes every candidate key that resolved to "not found" via
/// [`Dataset::second_chance_lookup`] — the Mutable-bitmap §5.2 race fix
/// (an MB upsert marks the old version deleted in place before the new
/// one reaches memory, so a racing lookup can find neither). Cheap: only
/// unresolved candidates are re-probed, deletions gate most probes
/// through the Bloom filters, and the whole pass is a no-op for the
/// other strategies.
pub(crate) fn fetch_missing_under_lock(
    ds: &Dataset,
    keys: &[Key],
    found: &mut lsm_tree::lookup::FoundEntries,
) -> Result<()> {
    if ds.config().strategy != crate::StrategyKind::MutableBitmap {
        return Ok(());
    }
    let mut have = vec![false; keys.len()];
    for (i, _) in found.iter() {
        have[*i] = true;
    }
    for (i, key) in keys.iter().enumerate() {
        if have[i] {
            continue;
        }
        if let Some(e) = ds.second_chance_lookup(key)? {
            if !e.anti_matter {
                found.push((i, e));
            }
        }
    }
    Ok(())
}

/// Re-checks the query predicate on a fetched record (Direct validation,
/// Figure 5a).
pub(crate) fn direct_predicate_holds(
    record: &Record,
    sec_field: usize,
    lo: Option<&Value>,
    hi: Option<&Value>,
) -> bool {
    let sk = record.get(sec_field);
    lo.is_none_or(|l| sk >= l) && hi.is_none_or(|h| sk <= h)
}

/// Step 4 of Figure 5 (collecting form): fetch all candidate records from
/// the primary index with the batched point-lookup machinery, applying
/// Direct validation when requested.
fn fetch_records(
    ds: &Dataset,
    sec: &SecondaryIndex,
    candidates: Vec<Candidate>,
    lo: Option<&Value>,
    hi: Option<&Value>,
    opts: &QueryOptions,
) -> Result<Vec<Record>> {
    let (keys, hints): (Vec<Key>, Vec<ComponentId>) = candidates
        .into_iter()
        .map(|c| (c.pk_key, c.source_id))
        .unzip();
    let keys_per_batch = keys_per_batch(ds, opts.batch_bytes);
    let lopts = LookupOptions {
        batched: opts.batched,
        keys_per_batch,
        stateful: opts.stateful,
        id_hints: opts.propagate_component_ids.then_some(hints.as_slice()),
    };
    let mut found = lookup_sorted(ds.primary(), &keys, &lopts)?;
    fetch_missing_under_lock(ds, &keys, &mut found)?;

    let mut records = Vec::with_capacity(found.len());
    for (_, entry) in found {
        let record = Record::decode(&entry.value)?;
        if opts.validation == ValidationMethod::Direct
            && !direct_predicate_holds(&record, sec.field, lo, hi)
        {
            continue;
        }
        records.push(record);
    }
    Ok(records)
}

/// Runs the full query pipeline, collecting every result up to an optional
/// result limit.
pub(crate) fn execute(
    ds: &Dataset,
    index: &str,
    lo: Option<&Value>,
    hi: Option<&Value>,
    opts: &QueryOptions,
    limit: Option<usize>,
) -> Result<QueryResult> {
    // Limited record queries go through the stream so the record fetch —
    // the dominant I/O — stops after `limit` results instead of fetching
    // every candidate and truncating. The stream yields primary-key order,
    // which matches the `sort_output` collecting path.
    if limit.is_some() && !opts.index_only {
        let stream =
            crate::query::RecordStream::open(ds, index, lo.cloned(), hi.cloned(), opts, limit)?;
        let records = stream.collect::<Result<Vec<_>>>()?;
        return Ok(QueryResult::Records(records));
    }

    let sec = ds.secondary(index)?;
    let candidates = gather_candidates(ds, sec, lo, hi, opts)?;

    // Index-only fast path: no record fetch needed.
    if opts.index_only && opts.validation != ValidationMethod::Direct {
        let mut keys = candidates
            .iter()
            .map(|c| crate::keys::decode_pk(&c.pk_key))
            .collect::<Result<Vec<_>>>()?;
        truncate_to(&mut keys, limit);
        return Ok(QueryResult::Keys(keys));
    }

    let mut records = fetch_records(ds, sec, candidates, lo, hi, opts)?;

    if opts.index_only {
        // Direct validation + index-only still had to fetch records.
        let mut keys: Vec<Value> = records
            .iter()
            .map(|r| r.get(ds.config().pk_field).clone())
            .collect();
        truncate_to(&mut keys, limit);
        return Ok(QueryResult::Keys(keys));
    }

    if opts.sort_output {
        charge_sort(ds, records.len() as u64);
        let pk_field = ds.config().pk_field;
        records.sort_by(|a, b| a.get(pk_field).cmp(b.get(pk_field)));
    }
    Ok(QueryResult::Records(records))
}

fn truncate_to<T>(items: &mut Vec<T>, limit: Option<usize>) {
    if let Some(n) = limit {
        items.truncate(n);
    }
}

/// Charges the CPU cost model for an `n log n` sort.
pub(crate) fn charge_sort(ds: &Dataset, n: u64) {
    if n > 1 {
        let log_n = u64::from(64 - n.leading_zeros());
        ds.storage()
            .charge_cpu(n * log_n * ds.storage().cpu().sort_entry_ns);
    }
}

/// Derives the per-batch key count from the batching memory and the average
/// record size of the primary index.
pub(crate) fn keys_per_batch(ds: &Dataset, batch_bytes: usize) -> usize {
    let entries = ds.primary().disk_entries().max(1);
    let avg = (ds.primary().disk_bytes() / entries).max(64) as usize;
    (batch_bytes / avg).max(1)
}
