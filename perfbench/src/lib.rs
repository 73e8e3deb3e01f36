//! The repository benchmark: three seeded, single-client workloads over the
//! tweet dataset of Section 6.1 (one `user_id` secondary index, the primary
//! key index and a `creation_time` range filter, on the `ssd` device
//! profile).
//!
//! A run repeats *rounds* until `seconds` of timed windows have passed (at
//! least [`MIN_ROUNDS`]). Each round builds a fresh dataset from
//! the seed (set-up), runs the workload's op stream (the timed window),
//! then runs checked verification reads. Every answer is compared with an
//! in-memory model of each key's latest record, outside the timed spans.
//! Wall-clock metrics are scaled to a reference machine speed, measured
//! between ops with a fixed kernel (`src/speed.rs`); per-layer span times are
//! raw wall time.
//!
//! Untraced runs report the end-to-end metrics. Traced runs alternate
//! untraced and traced rounds; traced rounds record a span per op (and per
//! layer call inside a get) with counter deltas, and report the per-layer
//! metrics computed from those spans.

mod gen;
pub mod heap;
mod model;
mod speed;
mod trace;

pub use gen::Sizes;

use gen::{Op, QueryKind};
use lsm_bench::{open_tweet_dataset, tweet_dataset_config, BenchDevice, EnvConfig};
use lsm_common::{Record, Value};
use lsm_engine::keys::encode_pk;
use lsm_engine::{Dataset, MaintenanceMode, QueryResult, StrategyKind};
use lsm_storage::Storage;
use lsm_tree::point_lookup;
use model::Model;
use speed::Speed;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use trace::{Counters, Phase, Span, Timer};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Upserts only (50% updates, uniform over past keys) on Validation
    /// with inline maintenance: the write path, WAL, flush, merge and
    /// merge-time repair.
    Ingest,
    /// Gets and `user_id` range queries over a preloaded dataset about 15×
    /// larger than the buffer cache: the read path.
    Lookup,
    /// Upserts (Zipf-skewed to recent keys), gets of recent keys and
    /// narrow queries on Eager with one background maintenance worker,
    /// over data that fits in the cache.
    Mixed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Ingest, Workload::Lookup, Workload::Mixed];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::Lookup => "lookup",
            Workload::Mixed => "mixed",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    fn strategy(self) -> StrategyKind {
        match self {
            Workload::Ingest | Workload::Lookup => StrategyKind::Validation,
            Workload::Mixed => StrategyKind::Eager,
        }
    }

    fn maintenance(self) -> MaintenanceMode {
        match self {
            Workload::Ingest | Workload::Lookup => MaintenanceMode::Inline,
            Workload::Mixed => MaintenanceMode::Background { workers: 1 },
        }
    }

    /// Buffer cache as a share of the bytes a round upserts: the paper's
    /// 2GB / 30GB, or twice the data so that it fits.
    fn cache_fraction(self) -> f64 {
        match self {
            Workload::Ingest | Workload::Lookup => 0.067,
            Workload::Mixed => 2.0,
        }
    }
}

/// Rounds a run makes even when `seconds` has already passed: set-up time
/// is a median over rounds, and the deterministic metrics come from these
/// rounds.
const MIN_ROUNDS: usize = 3;

/// What one benchmark run does.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// Timed-window seconds to accumulate before stopping.
    pub seconds: f64,
    /// Report per-layer metrics from traced rounds instead of end-to-end
    /// metrics.
    pub trace: bool,
    pub sizes: Sizes,
    /// Corrupts one model entry before the verification reads, to prove
    /// that wrong answers are caught (self-test only).
    pub corrupt_model: bool,
    /// Where a traced run writes its spans (`<workload>.jsonl`).
    pub trace_dir: Option<PathBuf>,
}

impl RunConfig {
    /// The benchmark's configuration of `workload`.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Self {
        RunConfig {
            workload,
            seed,
            seconds,
            trace,
            sizes: Sizes::for_workload(workload, 1.0),
            corrupt_model: false,
            trace_dir: None,
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count behind a latency percentile.
    pub samples: Option<usize>,
}

/// The result of a run.
#[derive(Debug, Clone)]
pub struct Report {
    pub workload: Workload,
    pub rounds: usize,
    pub traced_rounds: usize,
    /// Every op attempted, in every phase of every round.
    pub attempted: u64,
    /// Ops that returned an error or a wrong answer.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Human-readable lines: every metric by name and unit, the sample
    /// count of each percentile, and the error rate.
    pub fn table(&self) -> String {
        let mut out = format!(
            "# workload={} rounds={} traced_rounds={} attempted={} failed={}\n",
            self.workload.name(),
            self.rounds,
            self.traced_rounds,
            self.attempted,
            self.failed
        );
        for m in &self.metrics {
            let _ = write!(out, "{:<40} {:>16.4} {}", m.name, m.value, m.unit);
            if let Some(n) = m.samples {
                let _ = write!(out, " (n={n})");
            }
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "{:<40} {:>16.6} ratio",
            "error_rate",
            self.error_rate()
        );
        out
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

const UPSERT: usize = 0;
const GET: usize = 1;
const NARROW: usize = 2;
const WIDE: usize = 3;

/// Per-op latencies in ns at the reference speed, by phase (preload, run,
/// verify) and op kind.
type Latencies = [[Vec<u64>; 4]; 3];

fn phase_index(p: Phase) -> usize {
    match p {
        Phase::Preload => 0,
        Phase::Run => 1,
        Phase::Verify => 2,
    }
}

/// Disk components of the primary index, pk index and `user_id` index.
type Components = [usize; 3];

fn components(ds: &Dataset) -> Components {
    [
        ds.primary().num_disk_components(),
        ds.pk_index().map_or(0, |t| t.num_disk_components()),
        ds.secondaries()[0].tree.num_disk_components(),
    ]
}

/// Everything one round measured. Set-up time, op durations and the
/// final `quiesce` are scaled to the reference speed (see [`speed`]).
struct Round {
    traced: bool,
    setup_s: f64,
    /// Wall seconds of the timed window, checks included.
    window_s: f64,
    /// Duration of each timed-window op, in order.
    run_ns: Vec<u64>,
    /// The `quiesce` ending the timed window under background maintenance.
    quiesce_ns: u64,
    lat: Latencies,
    attempted: u64,
    failed: u64,
    /// Counter deltas over the timed window.
    window: Counters,
    /// User bytes upserted in the timed window.
    run_user_bytes: u64,
    sim_us_per_op: f64,
    write_amp: f64,
    space_amp: f64,
    components: [Components; 2],
    spans: Vec<Span>,
    queue_depth_max: u64,
    /// Most heap the engine held in the timed window, in MiB.
    heap_peak_mb: f64,
}

/// Timed-window ops per chunk of [`ops_per_s`].
const OPS_CHUNK: usize = 10_000;

/// Throughput of `rounds`: for each chunk of [`OPS_CHUNK`] consecutive
/// timed-window ops, its ops divided by their summed durations plus their
/// share of the round's final `quiesce`; the median over chunks. A rare
/// long op (a stall behind a merge on the other core) then moves the
/// result only if it lands in half of the chunks. A round shorter than one
/// chunk counts as one chunk.
fn ops_per_s<'a>(rounds: impl IntoIterator<Item = &'a Round>) -> f64 {
    let mut per_chunk = Vec::new();
    for r in rounds {
        let drain_per_op = r.quiesce_ns as f64 / r.run_ns.len() as f64;
        let size = OPS_CHUNK.min(r.run_ns.len());
        for c in r.run_ns.chunks_exact(size) {
            let ns = c.iter().sum::<u64>() as f64 + drain_per_op * c.len() as f64;
            per_chunk.push(c.len() as f64 / (ns / 1e9));
        }
    }
    median(per_chunk)
}

/// The tweet dataset of Section 6.1 as the figure benches build it, with
/// the workload's strategy, maintenance mode and cache size.
fn open(w: Workload, sizes: Sizes) -> (lsm_bench::Env, Arc<Dataset>) {
    // ~550 bytes per upsert, as the figure benches size their datasets.
    let dataset_bytes = sizes.upserts(w) as u64 * 550;
    let env = lsm_bench::Env::new_with_device(
        BenchDevice::Ssd,
        &EnvConfig {
            dataset_bytes,
            cache_fraction: w.cache_fraction(),
            ..EnvConfig::default()
        },
    );
    let mut cfg = tweet_dataset_config(w.strategy(), dataset_bytes, 1);
    cfg.maintenance = w.maintenance();
    if w == Workload::Mixed {
        // Four times the 1% budget: at 1%, the background worker was busy
        // so much of the time that the client's throughput and upsert p99
        // varied by 15-35% between runs on a 2-core machine.
        cfg.memory_budget *= 4;
    }
    let ds = open_tweet_dataset(&env, cfg);
    (env, ds)
}

/// The call sequence of `Dataset::get` for strategies other than
/// Mutable-bitmap, with a child span around each layer's call.
fn traced_get(
    t: &mut Timer,
    ds: &Dataset,
    pk: &Value,
    parent: u32,
) -> lsm_common::Result<Option<Record>> {
    let s = t.begin("get.encode_pk", parent);
    let key = encode_pk(pk);
    t.end(s, 0);
    let s = t.begin("get.point_lookup", parent);
    let hit = point_lookup(ds.primary(), &key);
    t.end(s, 0);
    let s = t.begin("get.record_decode", parent);
    let rec = match hit? {
        Some(e) if !e.anti_matter => Some(Record::decode(&e.value)).transpose(),
        _ => Ok(None),
    };
    t.end(s, 0);
    rec
}

/// Counts of attempted and failed ops.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Runs one op, checks its answer against `model` after the span closes,
/// and returns its duration in ns, scaled to the reference speed.
fn exec(
    t: &mut Timer,
    speed: &mut Speed,
    ds: &Dataset,
    model: &mut Model,
    op: &Op,
    lat: &mut Latencies,
    tally: &mut Tally,
) -> u64 {
    let (kind, ns, ok) = match op {
        Op::Upsert(u) => {
            let s = t.begin("upsert", 0);
            let res = ds.upsert(&u.record);
            let ns = t.end(s, 0);
            heap::outside(|| model.apply(u));
            (UPSERT, ns, res.is_ok())
        }
        Op::Get(pk) => {
            let key = Value::Int(*pk);
            let s = t.begin("get", 0);
            let res = if t.tracing() {
                let parent = s.id();
                traced_get(t, ds, &key, parent)
            } else {
                ds.get(&key)
            };
            let ns = t.end(s, 0);
            let ok = matches!(&res, Ok(got) if model.check_get(*pk, got.as_ref()));
            (GET, ns, ok)
        }
        Op::Query(kind, lo, hi) => {
            let (name, k) = match kind {
                QueryKind::Narrow => ("query_narrow", NARROW),
                QueryKind::Wide => ("query_wide", WIDE),
            };
            let s = t.begin(name, 0);
            let res = ds.query("user_id").range(*lo, *hi).execute();
            let ns = t.end(s, res.as_ref().map_or(0, |r| r.len()));
            let ok =
                matches!(&res, Ok(QueryResult::Records(recs)) if model.check_query(*lo, *hi, recs));
            (k, ns, ok)
        }
    };
    let ns = speed.scale(ns);
    heap::outside(|| lat[phase_index(t.phase())][kind].push(ns));
    tally.record(ok);
    speed.tick();
    ns
}

/// Timed-window ops between two readings of [`engine_heap_mb`].
const HEAP_SAMPLE_OPS: usize = 256;

/// Heap bytes the engine holds, in MiB: the live heap bytes allocated
/// since `base` (read before the dataset opened), less the benchmark's
/// own and the bytes stored on the simulated devices, which stand for
/// disk.
fn engine_heap_mb(base: i64, data: &Storage, log: &Storage) -> f64 {
    let device = (data.total_bytes() + log.total_bytes()) as i64;
    (heap::inside() - base - device) as f64 / (1024.0 * 1024.0)
}

fn user_bytes(ops: &[Op]) -> u64 {
    ops.iter()
        .map(|op| match op {
            Op::Upsert(u) => u.len,
            _ => 0,
        })
        .sum()
}

fn round(cfg: &RunConfig, speed: &mut Speed, traced: bool, seed: u64) -> Round {
    let w = cfg.workload;
    let setup = Instant::now();
    speed.begin_phase();
    let gen::Streams {
        preload,
        run,
        verify,
    } = gen::generate(w, cfg.sizes, seed);
    let heap_base = heap::inside();
    let (env, ds) = open(w, cfg.sizes);
    let (data, log) = (env.storage, env.log_storage);
    let opened = Counters::read(&ds, &data, &log);
    let mut model = Model::default();
    let mut lat = Latencies::default();
    let mut tally = Tally::default();
    let preload_bytes = user_bytes(&preload);
    {
        let mut t = Timer::new(&ds, &data, &log, false);
        for (i, op) in preload.iter().enumerate() {
            t.next_op(Phase::Preload, i as u64);
            exec(&mut t, speed, &ds, &mut model, op, &mut lat, &mut tally);
        }
    }
    heap::outside(|| drop(preload));
    if w == Workload::Lookup {
        tally.record(ds.flush_all().is_ok());
    }
    if ds.is_background() {
        tally.record(ds.maintenance().quiesce().is_ok());
    }
    let setup_s = speed.end_phase(setup.elapsed().as_nanos() as u64) / 1e9;

    let run_user_bytes = user_bytes(&run);
    let start_components = components(&ds);
    let before = Counters::read(&ds, &data, &log);
    let window_start = Instant::now();
    let mut t = Timer::new(&ds, &data, &log, traced);
    let mut run_ns = heap::outside(|| Vec::with_capacity(run.len()));
    let mut heap_peak_mb = engine_heap_mb(heap_base, &data, &log);
    for (i, op) in run.iter().enumerate() {
        t.next_op(Phase::Run, i as u64);
        run_ns.push(exec(
            &mut t, speed, &ds, &mut model, op, &mut lat, &mut tally,
        ));
        if i % HEAP_SAMPLE_OPS == HEAP_SAMPLE_OPS - 1 {
            heap_peak_mb = heap_peak_mb.max(engine_heap_mb(heap_base, &data, &log));
        }
    }
    let mut quiesce_ns = 0;
    if ds.is_background() {
        t.next_op(Phase::Run, run.len() as u64);
        let s = t.begin("quiesce", 0);
        let res = ds.maintenance().quiesce();
        quiesce_ns = speed.scale(t.end(s, 0));
        tally.record(res.is_ok());
    }
    let window_s = window_start.elapsed().as_secs_f64();
    heap_peak_mb = heap_peak_mb.max(engine_heap_mb(heap_base, &data, &log));
    let after = Counters::read(&ds, &data, &log);
    let end_components = components(&ds);
    let window = after.since(&before);
    let since_open = after.since(&opened);
    let written = since_open.data_bytes_written + since_open.log_bytes_written;
    let write_amp = written as f64 / (preload_bytes + run_user_bytes) as f64;
    let space_amp = data.total_bytes() as f64 / model.live_bytes() as f64;

    let queue_depth_max = t.queue_depth_max;
    let spans = std::mem::take(&mut t.spans);
    // Verification reads are outside the timed window and never traced.
    let mut t = Timer::new(&ds, &data, &log, false);
    if cfg.corrupt_model {
        if let Some(Op::Get(pk)) = verify.iter().find(|op| matches!(op, Op::Get(_))) {
            model.corrupt(*pk);
        }
    }
    for (i, op) in verify.iter().enumerate() {
        t.next_op(Phase::Verify, i as u64);
        exec(&mut t, speed, &ds, &mut model, op, &mut lat, &mut tally);
    }
    Round {
        traced,
        setup_s,
        window_s,
        run_ns,
        quiesce_ns,
        lat,
        attempted: tally.attempted,
        failed: tally.failed,
        window,
        run_user_bytes,
        sim_us_per_op: window.sim_ns as f64 / 1e3 / run.len() as f64,
        write_amp,
        space_amp,
        components: [start_components, end_components],
        spans,
        queue_depth_max,
        heap_peak_mb,
    }
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Percentile `p` of latency samples kept in the order they were taken:
/// the median, over consecutive chunks of `20 / (1 - p)` samples (so each
/// chunk has 20 beyond its percentile), of each chunk's percentile. A
/// slow spell of the machine then moves the result only if it covers half
/// of the run. With fewer than two chunks, the percentile of all samples.
fn chunked_percentile(samples: &[u64], p: f64) -> f64 {
    let chunk = (20.0 / (1.0 - p)).ceil() as usize;
    if samples.len() < 2 * chunk {
        return percentile(&sorted(samples.to_vec()), p);
    }
    median(
        samples
            .chunks_exact(chunk)
            .map(|c| percentile(&sorted(c.to_vec()), p))
            .collect(),
    )
}

/// Nearest-rank percentile `p` (0..=1) of `sorted`; 0 when empty.
fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples: None,
    }
}

/// The end-to-end metrics over all rounds. A latency comes from the timed
/// window when the workload's op stream has that op; otherwise upserts
/// come from the set-up preload and reads from the verification reads.
fn end_to_end(rounds: &[Round]) -> Vec<Metric> {
    let pooled = |kind: usize| -> Vec<u64> {
        let phase = [Phase::Run, Phase::Preload, Phase::Verify]
            .into_iter()
            .find(|&p| {
                rounds
                    .iter()
                    .any(|r| !r.lat[phase_index(p)][kind].is_empty())
            })
            .unwrap_or(Phase::Run);
        rounds
            .iter()
            .flat_map(|r| r.lat[phase_index(phase)][kind].iter().copied())
            .collect::<Vec<u64>>()
    };
    let lat = |name: &'static str, kind: usize, p: f64, unit: &'static str, div: f64| {
        let v = pooled(kind);
        Metric {
            name,
            value: chunked_percentile(&v, p) / div,
            unit,
            samples: Some(v.len()),
        }
    };
    // Deterministic metrics come from the rounds every run has, so a
    // seed always gives the same values however many rounds the time
    // budget allowed.
    let det = |f: fn(&Round) -> f64| median(rounds.iter().take(MIN_ROUNDS).map(f).collect());
    vec![
        metric(
            "setup_s",
            median(rounds.iter().map(|r| r.setup_s).collect()),
            "s",
        ),
        metric("ops_per_s", ops_per_s(rounds), "1/s"),
        lat("upsert_p50_us", UPSERT, 0.50, "us", 1e3),
        lat("upsert_p99_us", UPSERT, 0.99, "us", 1e3),
        lat("get_p50_us", GET, 0.50, "us", 1e3),
        lat("get_p99_us", GET, 0.99, "us", 1e3),
        lat("query_narrow_p50_us", NARROW, 0.50, "us", 1e3),
        lat("query_wide_p50_ms", WIDE, 0.50, "ms", 1e6),
        metric("sim_us_per_op", det(|r| r.sim_us_per_op), "sim_us"),
        metric("write_amp", det(|r| r.write_amp), "ratio"),
        metric("space_amp", det(|r| r.space_amp), "ratio"),
        metric(
            "heap_peak_mb",
            median(rounds.iter().map(|r| r.heap_peak_mb).collect()),
            "MiB",
        ),
    ]
}

/// The per-layer metrics, from the timed windows of the traced rounds.
fn per_layer(w: Workload, rounds: &[Round]) -> Vec<Metric> {
    let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
    let n_rounds = traced.len().max(1) as f64;
    let win = traced
        .iter()
        .fold(Counters::default(), |acc, r| acc.plus(&r.window));
    let ops: u64 = traced.iter().map(|r| r.run_ns.len() as u64).sum();
    let user_bytes: u64 = traced.iter().map(|r| r.run_user_bytes).sum();
    // Only the timed window is traced; each span with its self time.
    let run_spans: Vec<(&Span, u64)> = traced
        .iter()
        .flat_map(|r| r.spans.iter().zip(trace::self_times(&r.spans)))
        .collect();
    let named = |name: &'static str| run_spans.iter().filter(move |(s, _)| s.name == name);
    let count = |name: &'static str| named(name).count() as u64;
    let sum = |name: &'static str, f: fn(&Span) -> u64| named(name).map(|(s, _)| f(s)).sum::<u64>();
    let dur_pct = |name: &'static str, p: f64| {
        percentile(&sorted(named(name).map(|(s, _)| s.dur_ns()).collect()), p)
    };
    let moved = |s: &Span| s.delta.flushes + s.delta.merges > 0;
    let upserts = count("upsert");
    let queries = count("query_narrow") + count("query_wide");
    let inline = w.maintenance() == MaintenanceMode::Inline;
    let upsert_self: Vec<u64> = named("upsert")
        .filter(|(s, _)| !moved(s))
        .map(|(_, own)| *own)
        .collect();
    let inline_ns: u64 = if inline {
        named("upsert")
            .filter(|(s, _)| moved(s))
            .map(|(s, _)| s.dur_ns())
            .sum()
    } else {
        0
    };
    let last = traced.last().map_or([[0; 3]; 2], |r| r.components);
    let overhead =
        ops_per_s(traced.iter().copied()) / ops_per_s(rounds.iter().filter(|r| !r.traced));
    let disk_reads = win.seq_reads + win.rand_reads;
    vec![
        metric(
            "storage.cache_hit_ratio",
            ratio(win.cache_hits, win.cache_hits + disk_reads),
            "ratio",
        ),
        metric("storage.disk_reads_per_op", ratio(disk_reads, ops), "count"),
        metric(
            "storage.rand_reads_per_op",
            ratio(win.rand_reads, ops),
            "count",
        ),
        metric("storage.bytes_read_per_op", ratio(win.bytes_read, ops), "B"),
        metric(
            "storage.bytes_written_per_op",
            ratio(win.data_bytes_written, ops),
            "B",
        ),
        metric(
            "storage.sim_device_us_per_op",
            ratio(win.sim_ns - win.cpu_ns, ops) / 1e3,
            "sim_us",
        ),
        metric(
            "storage.sim_cpu_us_per_op",
            ratio(win.cpu_ns, ops) / 1e3,
            "sim_us",
        ),
        metric(
            "storage.batched_lookups_saved_per_query",
            ratio(
                sum("query_narrow", |s| s.delta.batched_lookups_saved)
                    + sum("query_wide", |s| s.delta.batched_lookups_saved),
                queries,
            ),
            "count",
        ),
        metric("bloom.checks_per_op", ratio(win.bloom_checks, ops), "count"),
        metric(
            "bloom.negative_ratio",
            ratio(win.bloom_negatives, win.bloom_checks),
            "ratio",
        ),
        metric(
            "wal.bytes_per_user_byte",
            ratio(win.log_bytes_written, user_bytes),
            "ratio",
        ),
        metric(
            "wal.records_per_group",
            ratio(win.wal_grouped_records, win.wal_groups),
            "count",
        ),
        Metric {
            name: "upsert.self_us",
            value: percentile(&sorted(upsert_self.clone()), 0.5) / 1e3,
            unit: "us",
            samples: Some(upsert_self.len()),
        },
        metric(
            "alloc.upsert_per_op",
            ratio(sum("upsert", |s| s.delta.allocs), upserts),
            "count",
        ),
        metric(
            "alloc.get_per_op",
            ratio(sum("get", |s| s.delta.allocs), count("get")),
            "count",
        ),
        metric(
            "alloc.query_narrow_per_op",
            ratio(
                sum("query_narrow", |s| s.delta.allocs),
                count("query_narrow"),
            ),
            "count",
        ),
        metric(
            "maintenance.lookups_per_upsert",
            ratio(win.maintenance_lookups, upserts),
            "count",
        ),
        metric(
            "maintenance.flushes",
            win.flushes as f64 / n_rounds,
            "count",
        ),
        metric("maintenance.merges", win.merges as f64 / n_rounds, "count"),
        metric(
            "maintenance.repairs",
            win.repairs as f64 / n_rounds,
            "count",
        ),
        metric(
            "maintenance.inline_s",
            inline_ns as f64 / 1e9 / n_rounds,
            "s",
        ),
        metric(
            "scheduler.flush_jobs",
            win.flush_jobs as f64 / n_rounds,
            "count",
        ),
        metric(
            "scheduler.merge_jobs",
            win.merge_jobs as f64 / n_rounds,
            "count",
        ),
        metric(
            "scheduler.queue_depth_max",
            traced.iter().map(|r| r.queue_depth_max).max().unwrap_or(0) as f64,
            "count",
        ),
        metric(
            "scheduler.backpressure_stalls",
            win.backpressure_stalls as f64 / n_rounds,
            "count",
        ),
        metric(
            "scheduler.quiesce_s",
            sum("quiesce", Span::dur_ns) as f64 / 1e9 / n_rounds,
            "s",
        ),
        metric(
            "query.narrow_rows",
            ratio(
                sum("query_narrow", |s| u64::from(s.rows)),
                count("query_narrow"),
            ),
            "count",
        ),
        metric(
            "query.wide_rows",
            ratio(
                sum("query_wide", |s| u64::from(s.rows)),
                count("query_wide"),
            ),
            "count",
        ),
        metric(
            "query.wide_rows_per_s",
            ratio(
                sum("query_wide", |s| u64::from(s.rows)),
                sum("query_wide", Span::dur_ns),
            ) * 1e9,
            "1/s",
        ),
        metric("query.wide_p99_ms", dur_pct("query_wide", 0.99) / 1e6, "ms"),
        metric(
            "query.narrow_p99_us",
            dur_pct("query_narrow", 0.99) / 1e3,
            "us",
        ),
        metric("lsm.primary_components.start", last[0][0] as f64, "count"),
        metric("lsm.primary_components.end", last[1][0] as f64, "count"),
        metric("lsm.pk_components.start", last[0][1] as f64, "count"),
        metric("lsm.pk_components.end", last[1][1] as f64, "count"),
        metric("lsm.secondary_components.start", last[0][2] as f64, "count"),
        metric("lsm.secondary_components.end", last[1][2] as f64, "count"),
        metric(
            "lsm.point_lookup_us",
            dur_pct("get.point_lookup", 0.5) / 1e3,
            "us",
        ),
        metric(
            "common.record_decode_us",
            dur_pct("get.record_decode", 0.5) / 1e3,
            "us",
        ),
        metric("trace.overhead_ratio", overhead, "ratio"),
    ]
}

/// Runs `cfg` and reports its metrics. A traced run also writes its spans
/// to `cfg.trace_dir`, which is the only I/O that can fail.
pub fn run(cfg: &RunConfig) -> std::io::Result<Report> {
    let mut rounds: Vec<Round> = Vec::new();
    let mut speed = Speed::new();
    loop {
        // Traced runs alternate untraced and traced rounds, so the tracing
        // overhead is measured within one run.
        let traced = cfg.trace && rounds.len() % 2 == 1;
        // Each round's data comes from its own seed derived from the run's,
        // so one run averages over several datasets; a traced round reuses
        // the dataset of the untraced round before it.
        let dataset = if cfg.trace {
            rounds.len() / 2
        } else {
            rounds.len()
        };
        let seed = cfg
            .seed
            .wrapping_mul(1_000_003)
            .wrapping_add(dataset as u64);
        rounds.push(round(cfg, &mut speed, traced, seed));
        let measured: f64 = rounds.iter().map(|r| r.window_s).sum();
        let has_traced = !cfg.trace || rounds.iter().any(|r| r.traced);
        if rounds.len() >= MIN_ROUNDS && measured >= cfg.seconds && has_traced {
            break;
        }
    }
    let metrics = if cfg.trace {
        per_layer(cfg.workload, &rounds)
    } else {
        end_to_end(&rounds)
    };
    if let (true, Some(dir)) = (cfg.trace, &cfg.trace_dir) {
        std::fs::create_dir_all(dir)?;
        let file = std::fs::File::create(dir.join(format!("{}.jsonl", cfg.workload.name())))?;
        let mut out = std::io::BufWriter::new(file);
        for (i, r) in rounds.iter().enumerate().filter(|(_, r)| r.traced) {
            trace::write_spans(&mut out, i, &r.spans)?;
        }
        std::io::Write::flush(&mut out)?;
    }
    Ok(Report {
        workload: cfg.workload,
        rounds: rounds.len(),
        traced_rounds: rounds.iter().filter(|r| r.traced).count(),
        attempted: rounds.iter().map(|r| r.attempted).sum(),
        failed: rounds.iter().map(|r| r.failed).sum(),
        metrics,
    })
}
