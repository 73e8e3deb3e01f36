//! Spans and counter probes, recorded from outside the engine: the
//! benchmark times its own calls into each layer's public functions and
//! diffs the layers' public counters around them.

use lsm_bench::alloc_track;
use lsm_engine::Dataset;
use lsm_storage::Storage;
use std::io::{self, Write};
use std::time::Instant;

/// Public counters of every layer, read at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Simulated clock (device + CPU model), shared by both devices.
    pub sim_ns: u64,
    /// Simulated CPU-model time charged on both devices.
    pub cpu_ns: u64,
    pub cache_hits: u64,
    pub seq_reads: u64,
    pub rand_reads: u64,
    pub bytes_read: u64,
    /// Bytes written to the data device.
    pub data_bytes_written: u64,
    /// Bytes written to the log device (the WAL).
    pub log_bytes_written: u64,
    pub bloom_checks: u64,
    pub bloom_negatives: u64,
    pub batched_lookups_saved: u64,
    pub wal_groups: u64,
    pub wal_grouped_records: u64,
    pub flushes: u64,
    pub merges: u64,
    pub repairs: u64,
    pub maintenance_lookups: u64,
    pub flush_jobs: u64,
    pub merge_jobs: u64,
    pub backpressure_stalls: u64,
    /// Heap allocations by the whole process (the counting allocator).
    pub allocs: u64,
}

macro_rules! counter_fields {
    ($m:ident) => {
        $m!(
            sim_ns,
            cpu_ns,
            cache_hits,
            seq_reads,
            rand_reads,
            bytes_read,
            data_bytes_written,
            log_bytes_written,
            bloom_checks,
            bloom_negatives,
            batched_lookups_saved,
            wal_groups,
            wal_grouped_records,
            flushes,
            merges,
            repairs,
            maintenance_lookups,
            flush_jobs,
            merge_jobs,
            backpressure_stalls,
            allocs
        )
    };
}

impl Counters {
    /// Reads every counter of `ds` and its two devices.
    pub fn read(ds: &Dataset, data: &Storage, log: &Storage) -> Counters {
        let d = data.stats();
        let l = log.stats();
        let e = ds.stats().snapshot();
        Counters {
            sim_ns: data.clock().now_nanos(),
            cpu_ns: d.cpu_ns + l.cpu_ns,
            cache_hits: d.cache_hits,
            seq_reads: d.seq_reads,
            rand_reads: d.rand_reads,
            bytes_read: d.bytes_read,
            data_bytes_written: d.bytes_written,
            log_bytes_written: l.bytes_written,
            bloom_checks: d.bloom_checks,
            bloom_negatives: d.bloom_negatives,
            batched_lookups_saved: d.batched_lookups_saved,
            wal_groups: e.wal_groups,
            wal_grouped_records: e.wal_grouped_records,
            flushes: e.flushes,
            merges: e.merges,
            repairs: e.repairs,
            maintenance_lookups: e.maintenance_lookups,
            flush_jobs: e.flush_jobs,
            merge_jobs: e.merge_jobs,
            backpressure_stalls: e.backpressure_stalls,
            allocs: alloc_track::allocations(),
        }
    }

    /// `self - earlier`, field by field.
    pub fn since(&self, earlier: &Counters) -> Counters {
        macro_rules! diff {
            ($($f:ident),*) => {
                Counters { $($f: self.$f - earlier.$f),* }
            };
        }
        counter_fields!(diff)
    }

    /// `self + other`, field by field.
    pub fn plus(&self, other: &Counters) -> Counters {
        macro_rules! sum {
            ($($f:ident),*) => {
                Counters { $($f: self.$f + other.$f),* }
            };
        }
        counter_fields!(sum)
    }

    /// Writes the non-zero counters as a JSON object.
    fn write_json(&self, out: &mut impl Write) -> io::Result<()> {
        let mut sep = "";
        out.write_all(b"{")?;
        macro_rules! fields {
            ($($f:ident),*) => {
                $(
                    if self.$f != 0 {
                        write!(out, "{sep}\"{}\":{}", stringify!($f), self.$f)?;
                        sep = ",";
                    }
                )*
            };
        }
        counter_fields!(fields);
        out.write_all(b"}")
    }
}

/// Which part of a round an op belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Set-up upserts (preload), before the timed window.
    Preload,
    /// The timed window.
    Run,
    /// Checked reads after the timed window.
    Verify,
}

/// One finished span. `parent` is 0 for an op's top-level span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Result rows, for query spans.
    pub rows: u32,
    /// Counter deltas between span start and end.
    pub delta: Counters,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span that has started and not ended.
pub struct Open {
    id: u32,
    parent: u32,
    name: &'static str,
    start: Instant,
    before: Counters,
}

impl Open {
    pub fn id(&self) -> u32 {
        self.id
    }
}

/// Times ops; when tracing, also records a span with counter deltas for
/// each. Untraced, a span is just two `Instant` reads.
pub struct Timer<'a> {
    ds: &'a Dataset,
    data: &'a Storage,
    log: &'a Storage,
    epoch: Instant,
    tracing: bool,
    phase: Phase,
    op: u64,
    next_id: u32,
    pub spans: Vec<Span>,
    /// Highest `EngineStats::queue_depth` seen between ops (traced only).
    pub queue_depth_max: u64,
}

impl<'a> Timer<'a> {
    pub fn new(ds: &'a Dataset, data: &'a Storage, log: &'a Storage, tracing: bool) -> Self {
        Timer {
            ds,
            data,
            log,
            epoch: Instant::now(),
            tracing,
            phase: Phase::Run,
            op: 0,
            next_id: 1,
            spans: Vec::new(),
            queue_depth_max: 0,
        }
    }

    pub fn tracing(&self) -> bool {
        self.tracing
    }

    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Starts op number `op` of `phase`; its spans carry that op id.
    pub fn next_op(&mut self, phase: Phase, op: u64) {
        self.phase = phase;
        self.op = op;
        if self.tracing {
            let depth = self
                .ds
                .stats()
                .queue_depth
                .load(std::sync::atomic::Ordering::Relaxed);
            self.queue_depth_max = self.queue_depth_max.max(depth);
        }
    }

    pub fn begin(&mut self, name: &'static str, parent: u32) -> Open {
        let before = if self.tracing {
            Counters::read(self.ds, self.data, self.log)
        } else {
            Counters::default()
        };
        let id = self.next_id;
        self.next_id += 1;
        Open {
            id,
            parent,
            name,
            start: Instant::now(),
            before,
        }
    }

    /// Ends `open`, returning its wall duration in nanoseconds.
    pub fn end(&mut self, open: Open, rows: usize) -> u64 {
        let end = Instant::now();
        let ns = end.duration_since(open.start).as_nanos() as u64;
        if self.tracing {
            let delta = Counters::read(self.ds, self.data, self.log).since(&open.before);
            let start_ns = open.start.duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                id: open.id,
                parent: open.parent,
                op: self.op,
                name: open.name,
                start_ns,
                end_ns: start_ns + ns,
                rows: rows as u32,
                delta,
            });
        }
        ns
    }
}

/// Writes `spans` as JSON lines, one span per line.
pub fn write_spans(out: &mut impl Write, round: usize, spans: &[Span]) -> io::Result<()> {
    for s in spans {
        write!(
            out,
            "{{\"round\":{round},\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"rows\":{},\"delta\":",
            s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns, s.rows
        )?;
        s.delta.write_json(out)?;
        out.write_all(b"}\n")?;
    }
    Ok(())
}

/// Self time of each span: its duration minus the part its children
/// cover. Children of one span never overlap (they run on the caller's
/// thread, one after another).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: std::collections::HashMap<u32, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut covered = vec![0u64; spans.len()];
    for s in spans.iter().filter(|s| s.parent != 0) {
        if let Some(&p) = index.get(&s.parent) {
            covered[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}
