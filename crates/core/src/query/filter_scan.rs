//! Primary-index scans with range-filter pruning (Sections 3, 6.4.2).
//!
//! A query with a predicate on the filter key (the paper's `creation_time`)
//! scans the primary index, pruning components whose range filter is
//! disjoint from the predicate. *Which* components can be pruned depends on
//! the maintenance strategy:
//!
//! * **Eager** — filters are widened by old records on update/delete, so an
//!   overlapping filter is an accurate signal: scan exactly the overlapping
//!   components, reconciling among them;
//! * **Validation** — filters cover new records only; a query touching an
//!   older component must also read *every newer component* so it cannot
//!   miss overriding updates, which halves the pruning power (Figure 19,
//!   "old" queries);
//! * **Mutable-bitmap** — deletes are applied in place through bitmaps, so
//!   every surviving entry is the unique live version of its key:
//!   components are scanned one by one, independently, with no
//!   reconciliation and full pruning.
//!
//! Both the serial and the partitioned execution paths run over **one**
//! plan captured by `capture_plan`, so the snapshot discipline (and the
//! per-strategy memory-inclusion rules documented there) cannot drift
//! between them.
//!
//! # Partitioned filter scans
//!
//! [`FilterScanBuilder::parallel(n)`](FilterScanBuilder::parallel) splits
//! the captured plan into ≤ `n` disjoint, ascending primary-key sub-ranges
//! along component leaf boundaries ([`LsmScan::partition_scan`]) and
//! scatters one scan+filter task per partition over the engine's shared
//! [`QueryPool`](crate::query::pool::QueryPool) (ephemeral threads when
//! the dataset's runtime has none — the caller always participates, and
//! each task re-installs the caller's I/O throttles). Every partition
//! reads the same captured memory run (sliced to its bounds) and the same
//! component list; reconciliation is per-key and keys never span
//! partitions, so per-partition outputs are exactly the serial outputs
//! restricted to each sub-range. Partitions are disjoint and ascending,
//! so concatenating them in partition order *is* the k-way merge — the
//! result is in primary-key order, identical to the serial path (the
//! Mutable-bitmap branch sorts each partition locally with the same
//! comparator the serial path uses globally).

use crate::config::StrategyKind;
use crate::dataset::Dataset;
use crate::query::exec;
use crate::query::parallel::slice_range;
use crate::query::pool::{scatter, TaskFn};
use lsm_common::{Key, Record, Result, Value};
use lsm_tree::{
    scan_components_sequential_frozen, BitmapSnapshot, DiskComponent, LsmEntry, LsmScan,
    RangeFilter, ScanOptions,
};
use std::ops::Bound;
use std::sync::Arc;

/// What a filter scan did (for assertions and bench reporting).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FilterScanReport {
    /// Records satisfying the predicate.
    pub matches: u64,
    /// Disk components scanned.
    pub components_scanned: u64,
    /// Disk components pruned by their range filters.
    pub components_pruned: u64,
    /// Scan partitions planned (0 for the serial path).
    pub partitions: u64,
}

fn overlaps(filter: Option<&RangeFilter>, lo: Option<&Value>, hi: Option<&Value>) -> bool {
    match filter {
        // No filter: cannot prune.
        None => true,
        Some(f) => f.overlaps(lo, hi),
    }
}

/// Does `record` satisfy `filter_field ∈ [lo, hi]`?
fn matches_pred(
    record: &Record,
    filter_field: usize,
    lo: Option<&Value>,
    hi: Option<&Value>,
) -> bool {
    let v = record.get(filter_field);
    lo.is_none_or(|l| v >= l) && hi.is_none_or(|h| v <= h)
}

/// One captured filter-scan plan: the strategy's component-inclusion
/// decision plus the memory run, taken atomically. Consumed by exactly one
/// execution path (serial, partitioned, or streaming).
struct ScanPlan {
    filter_field: usize,
    strategy: StrategyKind,
    /// The captured memory run — already gated by the inclusion rules
    /// below, `None` when the strategy may skip memory entirely.
    mem: Option<Vec<(Key, LsmEntry)>>,
    /// Disk components to scan, newest-first.
    included: Vec<Arc<DiskComponent>>,
    /// Bitmap snapshots frozen atomically with the capture, one per
    /// included component — populated only for Mutable-bitmap (the other
    /// strategies never mutate primary bitmaps in place). Shared by every
    /// partition of a partitioned execution.
    bitmaps: Arc<Vec<Option<BitmapSnapshot>>>,
    components_pruned: u64,
}

/// Captures one filter-scan plan for `filter_key ∈ [lo, hi]` — the single
/// capture point shared by the serial and partitioned paths.
///
/// Atomic memory+disk capture: an entry mid-flush appears in exactly
/// one of the two, which the Mutable-bitmap branch (no reconciliation)
/// depends on — a separate capture could see it twice or not at all.
/// The memory filter's overlap is evaluated under the capture locks
/// against the filter describing the captured entries (the live filter
/// would be wrong: a flush may have rotated the memtable in between),
/// but whether a non-overlapping memory run can be *pruned* depends on
/// the strategy: Eager widens the filter by old records and
/// Mutable-bitmap deletes in place, so their filters are accurate;
/// Validation covers new records only and must still read memory for
/// overriding updates whenever an older component is read — the
/// captured disk list decides that atomically, so a fully-pruned query
/// still skips the memory copy.
///
/// Under Mutable-bitmap the capture additionally runs under the dataset
/// **write** lock and freezes the included components' bitmap snapshots
/// before releasing it: an in-place update marks the old on-disk
/// version's bitmap bit *before* inserting the replacement into memory
/// (both steps under the dataset read lock), so a capture that read live
/// bitmaps afterwards could observe the mark without the replacement and
/// lose the record — the same torn window the Side-file method closes for
/// flushes, and exactly what the churn oracle exercises.
fn capture_plan(ds: &Dataset, lo: Option<&Value>, hi: Option<&Value>) -> Result<ScanPlan> {
    let filter_field = ds
        .config()
        .filter_field
        .ok_or_else(|| lsm_common::Error::invalid("dataset has no filter field"))?;
    let strategy = ds.config().strategy;
    let primary = ds.primary();
    // Filter scans read the full primary-key range; pruning happens per
    // component through the range filters on the *filter* key.
    let (scan_lo, scan_hi): (Bound<&[u8]>, Bound<&[u8]>) = (Bound::Unbounded, Bound::Unbounded);
    let lazy_mem = matches!(
        strategy,
        StrategyKind::Validation | StrategyKind::DeletedKeyBTree
    );
    // Excludes writers (which hold the read lock across mark-then-insert)
    // for the duration of the capture and bitmap freeze; see above.
    let _capture_guard =
        (strategy == StrategyKind::MutableBitmap).then(|| ds.dataset_lock().write());
    let mut mem_filter_overlaps = false;
    let (mem_snapshot, comps) = primary.mem_and_disk_snapshot_if(scan_lo, scan_hi, |f, disk| {
        mem_filter_overlaps = overlaps(f, lo, hi);
        mem_filter_overlaps || (lazy_mem && disk.iter().any(|c| overlaps(c.range_filter(), lo, hi)))
    });
    let mem_all = mem_snapshot.unwrap_or_default();
    let mem_overlaps = mem_filter_overlaps && !mem_all.is_empty();

    let included: Vec<_> = match strategy {
        // Independent per-component pruning (Mutable-bitmap needs no
        // reconciliation; Eager filters are accurate).
        StrategyKind::Eager | StrategyKind::MutableBitmap => comps
            .iter()
            .filter(|c| overlaps(c.range_filter(), lo, hi))
            .cloned()
            .collect(),
        // All components newer than (and including) the oldest
        // overlapping one must be read.
        StrategyKind::Validation | StrategyKind::DeletedKeyBTree => {
            match comps
                .iter()
                .rposition(|c| overlaps(c.range_filter(), lo, hi))
            {
                None => Vec::new(),
                Some(i) => comps[..=i].to_vec(),
            }
        }
    };
    let include_mem = match strategy {
        StrategyKind::Eager | StrategyKind::MutableBitmap => mem_overlaps,
        StrategyKind::Validation | StrategyKind::DeletedKeyBTree => {
            mem_overlaps || !included.is_empty()
        }
    };
    // Still under the capture guard: the frozen snapshots and the memory
    // run describe the same instant.
    let bitmaps = match strategy {
        StrategyKind::MutableBitmap => included
            .iter()
            .map(|c| c.bitmap().map(|b| b.snapshot()))
            .collect(),
        _ => Vec::new(),
    };
    let components_pruned = (comps.len() - included.len()) as u64;
    Ok(ScanPlan {
        filter_field,
        strategy,
        mem: (include_mem && !mem_all.is_empty()).then_some(mem_all),
        included,
        bitmaps: Arc::new(bitmaps),
        components_pruned,
    })
}

/// Runs `plan` serially, invoking `visit` for every match. Returns whether
/// the visit order was primary-key order — true for the reconciled
/// strategies; the Mutable-bitmap sequential scan visits in component
/// order, so callers needing pk order must sort.
fn scan_serial(
    ds: &Dataset,
    plan: ScanPlan,
    lo: Option<&Value>,
    hi: Option<&Value>,
    mut visit: impl FnMut(Key, Record),
) -> Result<bool> {
    let field = plan.filter_field;
    match plan.strategy {
        StrategyKind::MutableBitmap => {
            scan_components_sequential_frozen(
                plan.mem,
                &plan.included,
                &plan.bitmaps,
                Bound::Unbounded,
                Bound::Unbounded,
                |k, e| {
                    if let Ok(r) = Record::decode(&e.value) {
                        if matches_pred(&r, field, lo, hi) {
                            visit(k, r);
                        }
                    }
                },
            )?;
            Ok(false)
        }
        _ => {
            let mut scan = LsmScan::new(
                ds.storage().clone(),
                plan.mem,
                &plan.included,
                Bound::Unbounded,
                Bound::Unbounded,
                ScanOptions::default(),
            )?;
            while let Some((k, e)) = scan.next_entry()? {
                let r = Record::decode(&e.value)?;
                if matches_pred(&r, field, lo, hi) {
                    visit(k, r);
                }
            }
            Ok(true)
        }
    }
}

/// One partition's output: match count plus its collected `(pk, record)`
/// rows (empty when only counting).
type PartitionOutput = Result<(u64, Vec<(Key, Record)>)>;

/// Runs `plan` across ≤ `parallelism` partitions (see the module docs).
/// Returns `(matches, records, partitions)`; `records` is empty unless
/// `collect` is set, and always in primary-key order.
fn scan_partitioned(
    ds: &Arc<Dataset>,
    plan: ScanPlan,
    lo: Option<&Value>,
    hi: Option<&Value>,
    parallelism: usize,
    collect: bool,
) -> Result<(u64, Vec<Record>, u64)> {
    let partitions = LsmScan::partition_scan(
        &plan.included,
        Bound::Unbounded,
        Bound::Unbounded,
        parallelism,
    )?;
    ds.stats().record_parallel_filter_scan(partitions.len());
    let num_partitions = partitions.len() as u64;

    let mem: Arc<Vec<(Key, LsmEntry)>> = Arc::new(plan.mem.unwrap_or_default());
    let included: Arc<Vec<Arc<DiskComponent>>> = Arc::new(plan.included);
    let bitmaps = plan.bitmaps;
    let (strategy, field) = (plan.strategy, plan.filter_field);
    let (lo, hi) = (lo.cloned(), hi.cloned());
    let tasks: Vec<TaskFn<PartitionOutput>> = partitions
        .into_iter()
        .map(|(plo, phi)| {
            let ds = ds.clone();
            let mem = mem.clone();
            let included = included.clone();
            let bitmaps = bitmaps.clone();
            let (lo, hi) = (lo.clone(), hi.clone());
            let task = move || {
                let (start, end) = slice_range(&mem, &plo, &phi);
                let mem_slice = (start < end).then(|| mem[start..end].to_vec());
                let (plo, phi) = (
                    crate::keys::bound_as_ref(&plo),
                    crate::keys::bound_as_ref(&phi),
                );
                let mut count = 0u64;
                let mut out: Vec<(Key, Record)> = Vec::new();
                let mut on_match = |k: Key, r: Record| {
                    count += 1;
                    if collect {
                        out.push((k, r));
                    }
                };
                match strategy {
                    StrategyKind::MutableBitmap => {
                        // All partitions reuse the plan's frozen bitmaps.
                        scan_components_sequential_frozen(
                            mem_slice,
                            &included,
                            &bitmaps,
                            plo,
                            phi,
                            |k, e| {
                                if let Ok(r) = Record::decode(&e.value) {
                                    if matches_pred(&r, field, lo.as_ref(), hi.as_ref()) {
                                        on_match(k, r);
                                    }
                                }
                            },
                        )?;
                        // Local sort per partition: with disjoint ascending
                        // partitions this yields the global pk order the
                        // serial path produces by sorting everything.
                        if out.len() > 1 {
                            exec::charge_sort(&ds, out.len() as u64);
                            out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
                        }
                    }
                    _ => {
                        let mut scan = LsmScan::new(
                            ds.storage().clone(),
                            mem_slice,
                            &included,
                            plo,
                            phi,
                            ScanOptions::default(),
                        )?;
                        while let Some((k, e)) = scan.next_entry()? {
                            let r = Record::decode(&e.value)?;
                            if matches_pred(&r, field, lo.as_ref(), hi.as_ref()) {
                                on_match(k, r);
                            }
                        }
                    }
                }
                Ok((count, out))
            };
            Box::new(task) as Box<dyn FnOnce() -> _ + Send>
        })
        .collect();

    let pool = ds.query_pool();
    let mut matches = 0u64;
    let mut records = Vec::new();
    for outcome in scatter(pool.as_ref(), tasks) {
        let (count, part) = outcome?;
        matches += count;
        records.extend(part.into_iter().map(|(_, r)| r));
    }
    Ok((matches, records, num_partitions))
}

impl Dataset {
    /// Starts a fluent primary-index filter scan (requires
    /// [`DatasetConfig::filter_field`](crate::DatasetConfig) to be set).
    ///
    /// ```
    /// use lsm_common::{FieldType, Record, Schema, Value};
    /// use lsm_engine::{Dataset, DatasetConfig, StrategyKind};
    /// use lsm_storage::{Storage, StorageOptions};
    ///
    /// let schema = Schema::new(vec![
    ///     ("id", FieldType::Int),
    ///     ("created", FieldType::Int),
    /// ]).unwrap();
    /// let mut cfg = DatasetConfig::new(schema, 0);
    /// cfg.filter_field = Some(1);
    /// let ds = Dataset::open(Storage::new(StorageOptions::test()), None, cfg).unwrap();
    /// for i in 0..10 {
    ///     ds.insert(&Record::new(vec![Value::Int(i), Value::Int(i * 100)])).unwrap();
    /// }
    ///
    /// // Count matches; or fetch them, in primary-key order, optionally
    /// // across partitions.
    /// let report = ds.filter_scan().range_to(499).count().unwrap();
    /// assert_eq!(report.matches, 5);
    /// let records = ds.filter_scan().range_to(499).parallel(2).records().unwrap();
    /// assert_eq!(records.len(), 5);
    /// ```
    pub fn filter_scan(&self) -> FilterScanBuilder<'_> {
        FilterScanBuilder {
            ds: self,
            lo: None,
            hi: None,
            parallel: None,
        }
    }
}

/// A fluent primary-index filter scan under construction; obtained from
/// [`Dataset::filter_scan`]. The predicate is on the dataset's configured
/// filter field; execution is serial unless
/// [`parallel(n)`](FilterScanBuilder::parallel) is requested.
#[derive(Debug, Clone)]
#[must_use = "a FilterScanBuilder does nothing until executed"]
pub struct FilterScanBuilder<'a> {
    ds: &'a Dataset,
    lo: Option<Value>,
    hi: Option<Value>,
    parallel: Option<usize>,
}

impl<'a> FilterScanBuilder<'a> {
    /// Restricts the scan to `filter_key ∈ [lo, hi]` (inclusive).
    pub fn range(mut self, lo: impl Into<Value>, hi: impl Into<Value>) -> Self {
        self.lo = Some(lo.into());
        self.hi = Some(hi.into());
        self
    }

    /// Restricts the scan to `filter_key >= lo`.
    pub fn range_from(mut self, lo: impl Into<Value>) -> Self {
        self.lo = Some(lo.into());
        self
    }

    /// Restricts the scan to `filter_key <= hi`.
    pub fn range_to(mut self, hi: impl Into<Value>) -> Self {
        self.hi = Some(hi.into());
        self
    }

    /// Executes the scan across up to `n` primary-key partitions in
    /// parallel (the engine's shared query pool when the dataset's runtime
    /// has one, ephemeral threads otherwise; the caller always
    /// participates). Results are identical to the serial execution and in
    /// primary-key order; `n <= 1` still runs through the partitioned
    /// path on the calling thread.
    pub fn parallel(mut self, n: usize) -> Self {
        self.parallel = Some(n.max(1));
        self
    }

    /// Runs the scan, returning the match count plus pruning statistics.
    pub fn count(self) -> Result<FilterScanReport> {
        let (lo, hi) = (self.lo.as_ref(), self.hi.as_ref());
        let plan = capture_plan(self.ds, lo, hi)?;
        let mut report = FilterScanReport {
            components_scanned: plan.included.len() as u64,
            components_pruned: plan.components_pruned,
            ..FilterScanReport::default()
        };
        match self.parallel {
            None => {
                scan_serial(self.ds, plan, lo, hi, |_, _| report.matches += 1)?;
            }
            Some(n) => {
                let ds = self.ds.shared()?;
                let (matches, _, partitions) = scan_partitioned(&ds, plan, lo, hi, n, false)?;
                report.matches = matches;
                report.partitions = partitions;
            }
        }
        Ok(report)
    }

    /// Runs the scan and collects the matching records in primary-key
    /// order (identical output for the serial and partitioned paths).
    pub fn records(self) -> Result<Vec<Record>> {
        let (lo, hi) = (self.lo.as_ref(), self.hi.as_ref());
        match self.parallel {
            Some(n) => {
                let ds = self.ds.shared()?;
                let plan = capture_plan(&ds, lo, hi)?;
                let (_, records, _) = scan_partitioned(&ds, plan, lo, hi, n, true)?;
                Ok(records)
            }
            None => {
                let plan = capture_plan(self.ds, lo, hi)?;
                let mut out: Vec<(Key, Record)> = Vec::new();
                let ordered = scan_serial(self.ds, plan, lo, hi, |k, r| out.push((k, r)))?;
                if !ordered {
                    exec::charge_sort(self.ds, out.len() as u64);
                    out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
                }
                Ok(out.into_iter().map(|(_, r)| r).collect())
            }
        }
    }

    /// Runs the scan as an iterator of matching records in primary-key
    /// order. For the reconciled strategies (serial) this streams from the
    /// underlying merge scan with bounded memory; the Mutable-bitmap
    /// strategy and the partitioned path must materialize (and, for
    /// Mutable-bitmap, sort) the matches first, so their streams replay a
    /// buffer.
    pub fn stream(self) -> Result<FilterScanStream> {
        if self.parallel.is_some() {
            let records = self.records()?;
            return Ok(FilterScanStream {
                inner: StreamInner::Buffered(records.into_iter()),
            });
        }
        let (lo, hi) = (self.lo.clone(), self.hi.clone());
        let plan = capture_plan(self.ds, lo.as_ref(), hi.as_ref())?;
        if plan.strategy == StrategyKind::MutableBitmap {
            let records = self.records()?;
            return Ok(FilterScanStream {
                inner: StreamInner::Buffered(records.into_iter()),
            });
        }
        let filter_field = plan.filter_field;
        let scan = LsmScan::new(
            self.ds.storage().clone(),
            plan.mem,
            &plan.included,
            Bound::Unbounded,
            Bound::Unbounded,
            ScanOptions::default(),
        )?;
        Ok(FilterScanStream {
            inner: StreamInner::Scan {
                scan,
                // Keep the captured components alive for the stream's
                // lifetime — dropping them would retire their files while
                // the scan still reads them.
                _components: plan.included,
                filter_field,
                lo,
                hi,
            },
        })
    }
}

/// Streaming filter-scan results in primary-key order; obtained from
/// [`FilterScanBuilder::stream`].
pub struct FilterScanStream {
    inner: StreamInner,
}

enum StreamInner {
    /// Live merge scan over the captured snapshot (bounded memory).
    Scan {
        scan: LsmScan,
        _components: Vec<Arc<DiskComponent>>,
        filter_field: usize,
        lo: Option<Value>,
        hi: Option<Value>,
    },
    /// Pre-materialized matches (Mutable-bitmap / partitioned execution).
    Buffered(std::vec::IntoIter<Record>),
}

impl std::fmt::Debug for FilterScanStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            StreamInner::Scan { .. } => f.write_str("FilterScanStream::Scan"),
            StreamInner::Buffered(it) => f
                .debug_struct("FilterScanStream::Buffered")
                .field("remaining", &it.len())
                .finish(),
        }
    }
}

impl Iterator for FilterScanStream {
    type Item = Result<Record>;

    fn next(&mut self) -> Option<Self::Item> {
        match &mut self.inner {
            StreamInner::Buffered(it) => it.next().map(Ok),
            StreamInner::Scan {
                scan,
                filter_field,
                lo,
                hi,
                ..
            } => loop {
                match scan.next_entry() {
                    Err(e) => return Some(Err(e)),
                    Ok(None) => return None,
                    Ok(Some((_, e))) => match Record::decode(&e.value) {
                        Err(e) => return Some(Err(e)),
                        Ok(r) => {
                            if matches_pred(&r, *filter_field, lo.as_ref(), hi.as_ref()) {
                                return Some(Ok(r));
                            }
                        }
                    },
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DatasetConfig, StrategyKind};
    use lsm_common::{FieldType, Schema};
    use lsm_storage::{Storage, StorageOptions};
    use std::sync::Arc;

    fn dataset(strategy: StrategyKind) -> Arc<Dataset> {
        let schema = Schema::new(vec![("id", FieldType::Int), ("time", FieldType::Int)]).unwrap();
        let mut cfg = DatasetConfig::new(schema, 0);
        cfg.strategy = strategy;
        cfg.filter_field = Some(1);
        cfg.memory_budget = usize::MAX;
        cfg.merge_repair = false;
        Dataset::open(Storage::new(StorageOptions::test()), None, cfg).unwrap()
    }

    fn rec(id: i64, t: i64) -> Record {
        Record::new(vec![Value::Int(id), Value::Int(t)])
    }

    /// Three time-correlated components: times 0..100, 100..200, 200..300.
    fn load(ds: &Dataset) {
        for c in 0..3i64 {
            for i in 0..100 {
                ds.insert(&rec(c * 100 + i, c * 100 + i)).unwrap();
            }
            ds.flush_all().unwrap();
        }
    }

    fn all_strategies() -> Vec<StrategyKind> {
        vec![
            StrategyKind::Eager,
            StrategyKind::Validation,
            StrategyKind::MutableBitmap,
        ]
    }

    #[test]
    fn counts_are_correct_for_all_strategies() {
        for s in all_strategies() {
            let ds = dataset(s);
            load(&ds);
            let r = ds.filter_scan().range(50, 149).count().unwrap();
            assert_eq!(r.matches, 100, "{s:?}");
            let r = ds.filter_scan().range_to(99).count().unwrap();
            assert_eq!(r.matches, 100, "{s:?}");
            let r = ds.filter_scan().range_from(250).count().unwrap();
            assert_eq!(r.matches, 50, "{s:?}");
        }
    }

    #[test]
    fn eager_and_bitmap_prune_old_queries_but_validation_cannot() {
        for s in all_strategies() {
            let ds = dataset(s);
            load(&ds);
            // Query on OLD data (component 0 only).
            let r = ds.filter_scan().range_to(99).count().unwrap();
            match s {
                StrategyKind::Eager | StrategyKind::MutableBitmap => {
                    assert_eq!(r.components_scanned, 1, "{s:?}");
                    assert_eq!(r.components_pruned, 2, "{s:?}");
                }
                _ => {
                    // Validation must read all newer components too.
                    assert_eq!(r.components_scanned, 3, "{s:?}");
                    assert_eq!(r.components_pruned, 0, "{s:?}");
                }
            }
            // Query on RECENT data: everyone prunes the old components.
            let r = ds.filter_scan().range_from(200).count().unwrap();
            assert_eq!(r.components_scanned, 1, "{s:?}");
            assert_eq!(r.components_pruned, 2, "{s:?}");
        }
    }

    #[test]
    fn updates_do_not_leak_old_versions() {
        for s in all_strategies() {
            let ds = dataset(s);
            load(&ds);
            // Move records 0..10 from time 0..10 to time 290+.
            for i in 0..10 {
                ds.upsert(&rec(i, 290)).unwrap();
            }
            ds.flush_all().unwrap();
            // Old-data query must NOT return the stale versions.
            let r = ds.filter_scan().range_to(10).count().unwrap();
            assert_eq!(r.matches, 1, "{s:?}"); // only id=10 (time 10) remains
                                               // Recent-data query sees the moved records.
            let r = ds.filter_scan().range_from(290).count().unwrap();
            assert_eq!(r.matches, 10 + 10, "{s:?}"); // ids 0..10 + 290..300
        }
    }

    #[test]
    fn eager_widening_forces_inclusion_but_stays_correct() {
        let ds = dataset(StrategyKind::Eager);
        load(&ds);
        // Update an old record; Eager widens the memory filter by the OLD
        // time (Figure 3), so an old-data query must include the memory
        // component and see the deletion.
        ds.upsert(&rec(5, 299)).unwrap();
        let r = ds.filter_scan().range_to(10).count().unwrap();
        assert_eq!(r.matches, 10); // ids 0..11 minus the moved id 5
    }

    #[test]
    fn mutable_bitmap_prunes_despite_updates() {
        let ds = dataset(StrategyKind::MutableBitmap);
        load(&ds);
        for i in 0..10 {
            ds.upsert(&rec(i, 290)).unwrap();
        }
        ds.flush_all().unwrap();
        // Old-data query: old components' filters unchanged, deletes are in
        // the bitmaps — pruning power intact (Figure 19's key effect).
        let r = ds.filter_scan().range_to(10).count().unwrap();
        assert_eq!(r.components_pruned, 3); // two newer + ... of 4 comps
        assert_eq!(r.matches, 1);
    }

    /// Regression: an unflushed update whose new filter value does NOT
    /// overlap the query must still override its old on-disk version under
    /// Validation — the memory run cannot be pruned by its own filter when
    /// an older component is read (the quickstart scenario).
    #[test]
    fn validation_reads_memory_even_when_its_filter_misses() {
        for s in [StrategyKind::Validation, StrategyKind::DeletedKeyBTree] {
            let ds = dataset(s);
            for i in 0..3 {
                ds.insert(&rec(i, i)).unwrap();
            }
            ds.flush_all().unwrap();
            // Move id 0 to time 100 — stays in memory, mem filter [100,100].
            ds.upsert(&rec(0, 100)).unwrap();
            // Old-data query: mem filter misses, but the stale version of
            // id 0 must still be overridden.
            let r = ds.filter_scan().range_to(10).count().unwrap();
            assert_eq!(r.matches, 2, "{s:?}: stale version leaked");
        }
    }

    #[test]
    fn no_filter_field_is_an_error() {
        let schema = Schema::new(vec![("id", FieldType::Int)]).unwrap();
        let cfg = DatasetConfig::new(schema, 0);
        let ds = Dataset::open(Storage::new(StorageOptions::test()), None, cfg).unwrap();
        assert!(ds.filter_scan().count().is_err());
    }

    /// The builder's serial/parallel/stream outputs agree with each other
    /// and with the count, across strategies and fan-outs (the in-crate
    /// miniature of the `filter_scan_oracle` integration test).
    #[test]
    fn builder_paths_agree_across_strategies() {
        for s in [
            StrategyKind::Eager,
            StrategyKind::Validation,
            StrategyKind::MutableBitmap,
            StrategyKind::DeletedKeyBTree,
        ] {
            let ds = dataset(s);
            load(&ds);
            for i in 0..30 {
                ds.upsert(&rec(i * 7, 295)).unwrap();
            }
            for i in 0..10 {
                ds.delete(&Value::Int(150 + i)).unwrap();
            }
            ds.flush_all().unwrap();
            for (lo, hi) in [
                (None, None),
                (Some(60i64), Some(260i64)),
                (None, Some(99)),
                (Some(250), None),
            ] {
                let lo_v = lo.map(Value::Int);
                let hi_v = hi.map(Value::Int);
                let scan = || {
                    let mut b = ds.filter_scan();
                    if let Some(l) = &lo_v {
                        b = b.range_from(l.clone());
                    }
                    if let Some(h) = &hi_v {
                        b = b.range_to(h.clone());
                    }
                    b
                };
                let serial = scan().records().unwrap();
                assert_eq!(
                    serial.len() as u64,
                    scan().count().unwrap().matches,
                    "{s:?} [{lo:?},{hi:?}]"
                );
                // Serial records are in pk order.
                let ids: Vec<i64> = serial.iter().map(|r| r.get(0).as_int().unwrap()).collect();
                assert!(ids.windows(2).all(|w| w[0] < w[1]), "{s:?} unordered");
                let streamed: Vec<Record> =
                    scan().stream().unwrap().collect::<Result<_>>().unwrap();
                assert_eq!(streamed, serial, "{s:?} stream [{lo:?},{hi:?}]");
                for n in [1, 2, 3, 7] {
                    let par = scan().parallel(n).records().unwrap();
                    assert_eq!(par, serial, "{s:?} parallel({n}) [{lo:?},{hi:?}]");
                    let report = scan().parallel(n).count().unwrap();
                    assert_eq!(report.matches, serial.len() as u64, "{s:?} n={n}");
                    assert!(report.partitions >= 1 && report.partitions <= n as u64);
                    let streamed: Vec<Record> = scan()
                        .parallel(n)
                        .stream()
                        .unwrap()
                        .collect::<Result<_>>()
                        .unwrap();
                    assert_eq!(streamed, serial, "{s:?} parallel({n}) stream");
                }
            }
        }
    }

    #[test]
    fn partitioned_scans_are_counted() {
        let ds = dataset(StrategyKind::Eager);
        load(&ds);
        let before = ds.stats().snapshot();
        let report = ds.filter_scan().parallel(3).count().unwrap();
        let after = ds.stats().snapshot();
        assert_eq!(
            after.parallel_filter_scans - before.parallel_filter_scans,
            1
        );
        assert_eq!(
            after.filter_scan_partitions - before.filter_scan_partitions,
            report.partitions
        );
        // Serial scans leave the partitioned counters untouched.
        let r = ds.filter_scan().count().unwrap();
        assert_eq!(r.partitions, 0);
        assert_eq!(
            ds.stats().snapshot().parallel_filter_scans,
            after.parallel_filter_scans
        );
    }

    /// Serial and partitioned counts share one plan capture, so they
    /// report the same pruning statistics as well as the same matches.
    #[test]
    fn parallel_count_reports_serial_pruning() {
        for s in all_strategies() {
            let ds = dataset(s);
            load(&ds);
            for (lo, hi) in [(0i64, 99i64), (150, 249), (250, 299), (0, 299)] {
                let serial = ds.filter_scan().range(lo, hi).count().unwrap();
                for n in [1, 4] {
                    let par = ds.filter_scan().range(lo, hi).parallel(n).count().unwrap();
                    let ctx = format!("{s:?} [{lo},{hi}] parallel({n})");
                    assert_eq!(par.matches, serial.matches, "{ctx}");
                    assert_eq!(par.components_scanned, serial.components_scanned, "{ctx}");
                    assert_eq!(par.components_pruned, serial.components_pruned, "{ctx}");
                }
            }
        }
    }
}
