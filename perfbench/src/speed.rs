//! The machine's current speed, so that wall-clock metrics do not move
//! with it.
//!
//! The benchmark runs on shared virtual machines whose cores run 15-40%
//! faster or slower from one minute to the next (turbo headroom, a busy
//! hyperthread sibling). Ten runs of unchanged code then spread wider than
//! any useful bound. So the client thread times a fixed reference kernel
//! between ops, every [`INTERVAL_NS`] of wall time, and each wall time the
//! benchmark reports is scaled by [`REF_NS`] divided by the median of the
//! last [`WINDOW`] kernel times: it reads as the time the op would take on
//! a machine where the kernel takes [`REF_NS`]. The kernel touches no
//! engine code or data and runs from the L1 cache, which it warms untimed,
//! so a change to the engine moves the scaled times exactly as much as the
//! raw ones.

use std::hint::black_box;
use std::time::Instant;

/// Median kernel time on the machine the benchmark was tuned on (a 2-core
/// Xeon virtual machine at 2.1 GHz), so scaled times read close to raw
/// times there.
const REF_NS: f64 = 7_100.0;

/// Wall time between kernel samples.
const INTERVAL_NS: u128 = 1_000_000;

/// Kernel samples behind the current scale.
const WINDOW: usize = 31;

/// Table entries the kernel searches: 8 KiB, well inside the L1 cache.
const TABLE: usize = 1024;

/// Searches per kernel sample.
const STEPS: usize = 600;

/// Samples a set-up phase can record (far more than one takes).
const HISTORY: usize = 1 << 16;

pub struct Speed {
    table: Vec<u64>,
    recent: [u64; WINDOW],
    next: usize,
    /// REF_NS over the median of `recent`.
    scale: f64,
    last: Instant,
    /// Kernel samples since [`Speed::begin_phase`].
    history: Vec<u64>,
    /// Wall ns spent sampling since [`Speed::begin_phase`].
    spent_ns: u64,
}

impl Speed {
    /// Allocates the kernel's table and takes a first window of samples.
    pub fn new() -> Speed {
        let table = (0..TABLE as u64)
            .map(|i| i.wrapping_mul(u64::MAX / TABLE as u64))
            .collect();
        let mut s = Speed {
            table,
            recent: [0; WINDOW],
            next: 0,
            scale: 1.0,
            last: Instant::now(),
            history: Vec::with_capacity(HISTORY),
            spent_ns: 0,
        };
        s.burst();
        s
    }

    /// A wall time of `ns`, scaled to the reference speed.
    pub fn scale(&self, ns: u64) -> u64 {
        (ns as f64 * self.scale).round() as u64
    }

    /// Takes a sample if [`INTERVAL_NS`] has passed since the last one.
    /// Call it between ops, never inside a timed span.
    pub fn tick(&mut self) {
        if self.last.elapsed().as_nanos() >= INTERVAL_NS {
            self.sample();
        }
    }

    /// Starts a phase whose wall time [`Speed::end_phase`] will scale,
    /// with a fresh window of samples.
    pub fn begin_phase(&mut self) {
        self.history.clear();
        self.spent_ns = 0;
        self.burst();
    }

    /// Scales `wall_ns`, the wall time since [`Speed::begin_phase`], by
    /// the median of every sample the phase took, after taking out the
    /// time spent sampling.
    pub fn end_phase(&mut self, wall_ns: u64) -> f64 {
        self.burst();
        self.history.sort_unstable();
        let median = self.history[self.history.len() / 2] as f64;
        (wall_ns.saturating_sub(self.spent_ns)) as f64 * REF_NS / median
    }

    fn burst(&mut self) {
        for _ in 0..WINDOW {
            self.sample();
        }
    }

    fn sample(&mut self) {
        let start = Instant::now();
        // Untimed: bring the table into the L1 cache.
        let mut warm = 0u64;
        for line in self.table.chunks(8) {
            warm = warm.wrapping_add(line[0]);
        }
        black_box(warm);
        let t0 = Instant::now();
        black_box(kernel(black_box(&self.table)));
        let ns = t0.elapsed().as_nanos() as u64;
        self.recent[self.next] = ns;
        self.next = (self.next + 1) % WINDOW;
        if self.history.len() < self.history.capacity() {
            self.history.push(ns);
        }
        let mut w = self.recent;
        w.sort_unstable();
        if w[0] > 0 {
            self.scale = REF_NS / w[WINDOW / 2] as f64;
        }
        self.last = Instant::now();
        self.spent_ns += self.last.duration_since(start).as_nanos() as u64;
    }
}

/// Fixed work: binary searches of a pseudo-random key sequence, the same
/// sequence every call.
fn kernel(table: &[u64]) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = table.partition_point(|&v| v < x) as u64;
        acc = (acc ^ i).rotate_left(5).wrapping_add(x);
    }
    acc
}
