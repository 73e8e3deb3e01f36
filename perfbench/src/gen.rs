//! Seeded op streams. Everything the engine receives is generated here,
//! from the seed alone, before any timed loop starts.

use crate::Workload;
use lsm_common::Record;
use lsm_workload::{
    SelectivityQueries, TweetConfig, UpdateDistribution, UpsertWorkload, ZipfSampler,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hash::Hasher;

/// One pre-generated upsert, with the facts the answer model needs.
pub struct Upsert {
    pub record: Record,
    pub pk: i64,
    pub user_id: i64,
    /// Hash of the encoded record ([`record_hash`]).
    pub hash: u64,
    /// Encoded record length in bytes (the user bytes it writes).
    pub len: u64,
}

/// A `user_id` range query returning full records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// 0.01% of the `user_id` domain.
    Narrow,
    /// 1% of the `user_id` domain.
    Wide,
}

impl QueryKind {
    fn selectivity(self) -> f64 {
        match self {
            QueryKind::Narrow => 0.0001,
            QueryKind::Wide => 0.01,
        }
    }
}

pub enum Op {
    Upsert(Upsert),
    Get(i64),
    Query(QueryKind, i64, i64),
}

/// Op counts of one round; [`Sizes::for_workload`] holds the benchmark's.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Upserts applied during set-up, before the timed window.
    pub preload: usize,
    /// Ops in the timed window.
    pub run: usize,
    /// Checked gets, narrow and wide queries after the timed window.
    pub verify_gets: usize,
    pub verify_narrow: usize,
    pub verify_wide: usize,
}

impl Sizes {
    /// The benchmark's sizes, multiplied by `scale` (1.0 in the benchmark
    /// binary; the self-test runs smaller).
    pub fn for_workload(w: Workload, scale: f64) -> Sizes {
        let (preload, run) = match w {
            // Enough upserts for many flush/merge cycles, so that
            // write_amp levels off.
            Workload::Ingest => (0, 200_000),
            Workload::Lookup => (100_000, 25_000),
            Workload::Mixed => (50_000, 200_000),
        };
        let s = |n: usize| ((n as f64 * scale).round() as usize).max(if n == 0 { 0 } else { 20 });
        Sizes {
            preload: s(preload),
            run: s(run),
            verify_gets: s(40_000),
            verify_narrow: s(5_000),
            verify_wide: s(200),
        }
    }

    /// Upserts a round applies (preload plus timed window), which sizes
    /// the memory budget, merge limit and cache.
    pub fn upserts(self, w: Workload) -> usize {
        match w {
            Workload::Ingest => self.run,
            Workload::Lookup => self.preload,
            Workload::Mixed => self.preload + self.run / 2,
        }
    }
}

pub struct Streams {
    pub preload: Vec<Op>,
    pub run: Vec<Op>,
    pub verify: Vec<Op>,
}

/// Deterministic hash of a record's encoding, used to compare answers with
/// the model (`DefaultHasher::new` has fixed keys).
pub fn record_hash(encoded: &[u8]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    h.write(encoded);
    h.finish()
}

struct Gen {
    upserts: UpsertWorkload,
    rng: StdRng,
    ranges: SelectivityQueries,
    zipf: ZipfSampler,
}

impl Gen {
    fn upsert(&mut self) -> Op {
        let record = match self.upserts.next_op() {
            lsm_workload::Op::Upsert(r) | lsm_workload::Op::Insert(r) => r,
        };
        let encoded = record.encode();
        Op::Upsert(Upsert {
            pk: record.get(0).as_int().expect("tweet id is an int"),
            user_id: record.get(1).as_int().expect("tweet user_id is an int"),
            hash: record_hash(&encoded),
            len: encoded.len() as u64,
            record,
        })
    }

    fn uniform_get(&mut self) -> Op {
        let g = self.upserts.generator();
        Op::Get(g.issued_key(self.rng.gen_range(0..g.num_issued())))
    }

    /// A get skewed to recently ingested keys (Zipf, rank 1 = newest).
    fn recent_get(&mut self) -> Op {
        let n = self.upserts.generator().num_issued();
        self.zipf.grow_to(n as u64);
        let rank = self.zipf.sample(&mut self.rng) as usize;
        Op::Get(self.upserts.generator().issued_key(n - rank))
    }

    fn query(&mut self, kind: QueryKind) -> Op {
        let (lo, hi) = self.ranges.user_id_range(kind.selectivity());
        Op::Query(kind, lo, hi)
    }
}

/// Generates a round's streams. The same `(workload, sizes, seed)` always
/// gives the same streams.
pub fn generate(w: Workload, sizes: Sizes, seed: u64) -> Streams {
    let distribution = match w {
        Workload::Mixed => UpdateDistribution::Zipf,
        Workload::Ingest | Workload::Lookup => UpdateDistribution::Uniform,
    };
    let mut g = Gen {
        upserts: UpsertWorkload::new(
            // One message length for every record: with variable lengths,
            // flush and merge points (and so the LSM shape the reads see)
            // would move with the seed.
            TweetConfig {
                msg_min: 500,
                msg_max: 500,
                seed,
            },
            0.5,
            distribution,
        ),
        rng: StdRng::seed_from_u64(seed ^ 0x6E75_6C6C_6B65_7973),
        ranges: SelectivityQueries::new(seed ^ 0x7261_6E67_6573),
        zipf: ZipfSampler::new(0.99),
    };
    let preload = (0..sizes.preload).map(|_| g.upsert()).collect();
    let run = (0..sizes.run)
        .map(|i| match w {
            Workload::Ingest => g.upsert(),
            // Every 50 ops: 40 gets, 9 narrow queries, 1 wide query.
            Workload::Lookup => match i % 50 {
                49 => g.query(QueryKind::Wide),
                p if p % 5 == 4 => g.query(QueryKind::Narrow),
                _ => g.uniform_get(),
            },
            // Every 20 ops: 10 upserts, 9 gets, 1 narrow query.
            Workload::Mixed => match i % 20 {
                19 => g.query(QueryKind::Narrow),
                p if p % 2 == 0 => g.upsert(),
                _ => g.recent_get(),
            },
        })
        .collect();
    let mut verify: Vec<Op> = (0..sizes.verify_gets).map(|_| g.uniform_get()).collect();
    verify.extend((0..sizes.verify_narrow).map(|_| g.query(QueryKind::Narrow)));
    verify.extend((0..sizes.verify_wide).map(|_| g.query(QueryKind::Wide)));
    Streams {
        preload,
        run,
        verify,
    }
}
