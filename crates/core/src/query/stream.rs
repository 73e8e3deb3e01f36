//! Streaming query execution: [`RecordStream`] yields records batch by
//! batch with bounded memory.
//!
//! [`PreparedQuery::stream`](crate::query::PreparedQuery::stream) runs
//! steps 1-3 of the Figure 5 pipeline up front (the candidate set is
//! primary *keys* only — a few dozen bytes per match), then fetches full
//! records lazily: one batch of at most `batch_bytes` worth of records at a
//! time, using the same batched point-lookup machinery as the collecting
//! path. A range query whose records would not fit in RAM therefore holds
//! at most one batch of decoded records at any moment.
//!
//! Records are yielded in primary-key order: candidate keys are sorted, the
//! stream fetches them in consecutive chunks, and each fetched batch is
//! re-sorted into key order (the per-batch equivalent of the collecting
//! path's `sort_output`).

use crate::dataset::Dataset;
use crate::query::{exec, QueryOptions, ValidationMethod};
use lsm_common::{Key, Record, Result, Value};
use lsm_tree::{lookup_sorted, ComponentId, LookupOptions};
use std::collections::VecDeque;

/// A batch-at-a-time iterator over query results; see the module docs.
pub struct RecordStream<'a> {
    ds: &'a Dataset,
    /// Post-validation candidate primary keys, ascending.
    keys: Vec<Key>,
    /// Per-key component-ID hints, parallel to `keys` (pID).
    hints: Vec<ComponentId>,
    /// Next position in `keys` to fetch.
    pos: usize,
    /// The current batch, in primary-key order.
    batch: VecDeque<Record>,
    keys_per_batch: usize,
    opts: QueryOptions,
    sec_field: usize,
    lo: Option<Value>,
    hi: Option<Value>,
    /// Results still allowed out (`usize::MAX` = unlimited).
    remaining: usize,
    /// Diagnostics: batches fetched and the largest batch held so far.
    batches_fetched: usize,
    peak_batch_len: usize,
}

impl<'a> RecordStream<'a> {
    pub(crate) fn open(
        ds: &'a Dataset,
        index: &str,
        lo: Option<Value>,
        hi: Option<Value>,
        opts: &QueryOptions,
        limit: Option<usize>,
    ) -> Result<Self> {
        if opts.index_only {
            return Err(lsm_common::Error::invalid(
                "index-only queries return keys, not records; use execute()",
            ));
        }
        let sec = ds.secondary(index)?;
        let candidates = exec::gather_candidates(ds, sec, lo.as_ref(), hi.as_ref(), opts)?;
        let (keys, hints) = candidates
            .into_iter()
            .map(|c| (c.pk_key, c.source_id))
            .unzip();
        Ok(Self::from_candidates(
            ds, keys, hints, sec.field, lo, hi, opts, limit,
        ))
    }

    /// A stream over an already-gathered candidate set (post-validation
    /// primary keys, ascending, with their pID hints). The parallel query
    /// path gathers candidates across partitions, k-way merges them, and
    /// streams the fetch from here — same bounded memory and pk order as
    /// the serial stream.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_candidates(
        ds: &'a Dataset,
        keys: Vec<lsm_common::Key>,
        hints: Vec<ComponentId>,
        sec_field: usize,
        lo: Option<Value>,
        hi: Option<Value>,
        opts: &QueryOptions,
        limit: Option<usize>,
    ) -> Self {
        RecordStream {
            ds,
            keys,
            hints,
            pos: 0,
            batch: VecDeque::new(),
            keys_per_batch: exec::keys_per_batch(ds, opts.batch_bytes),
            opts: *opts,
            sec_field,
            lo,
            hi,
            remaining: limit.unwrap_or(usize::MAX),
            batches_fetched: 0,
            peak_batch_len: 0,
        }
    }

    /// Candidates that passed validation (an upper bound on the number of
    /// records the stream will yield).
    pub fn candidate_count(&self) -> usize {
        self.keys.len()
    }

    /// Keys fetched per batch (derived from `batch_bytes` and the primary
    /// index's average record size).
    pub fn keys_per_batch(&self) -> usize {
        self.keys_per_batch
    }

    /// Batches fetched so far.
    pub fn batches_fetched(&self) -> usize {
        self.batches_fetched
    }

    /// The largest number of records held in memory at once so far.
    pub fn peak_batch_len(&self) -> usize {
        self.peak_batch_len
    }

    /// Fetches the next chunk of candidate keys into `self.batch`.
    fn fetch_next_batch(&mut self) -> Result<()> {
        while self.batch.is_empty() && self.pos < self.keys.len() {
            let end = (self.pos + self.keys_per_batch).min(self.keys.len());
            let chunk = &self.keys[self.pos..end];
            let hint_chunk = &self.hints[self.pos..end];
            let lopts = LookupOptions {
                batched: self.opts.batched,
                keys_per_batch: self.keys_per_batch,
                stateful: self.opts.stateful,
                id_hints: self.opts.propagate_component_ids.then_some(hint_chunk),
            };
            let mut found = lookup_sorted(self.ds.primary(), chunk, &lopts)?;
            exec::fetch_missing_under_lock(self.ds, chunk, &mut found)?;
            // Batched probing destroys key order within the batch; restore
            // it so the stream is globally primary-key ordered.
            exec::charge_sort(self.ds, found.len() as u64);
            found.sort_by_key(|(i, _)| *i);
            for (_, entry) in found {
                let record = Record::decode(&entry.value)?;
                if self.opts.validation == ValidationMethod::Direct
                    && !exec::direct_predicate_holds(
                        &record,
                        self.sec_field,
                        self.lo.as_ref(),
                        self.hi.as_ref(),
                    )
                {
                    continue;
                }
                self.batch.push_back(record);
            }
            self.pos = end;
            self.batches_fetched += 1;
            self.peak_batch_len = self.peak_batch_len.max(self.batch.len());
        }
        Ok(())
    }
}

impl Iterator for RecordStream<'_> {
    type Item = Result<Record>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        if self.batch.is_empty() {
            if let Err(e) = self.fetch_next_batch() {
                self.remaining = 0; // a failed stream stays finished
                return Some(Err(e));
            }
        }
        let record = self.batch.pop_front()?;
        self.remaining -= 1;
        Some(Ok(record))
    }
}

impl std::fmt::Debug for RecordStream<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecordStream")
            .field("candidates", &self.keys.len())
            .field("pos", &self.pos)
            .field("keys_per_batch", &self.keys_per_batch)
            .field("buffered", &self.batch.len())
            .finish()
    }
}
