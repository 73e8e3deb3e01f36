//! Benchmark self-test, on small rounds of the real workloads:
//! deterministic metrics repeat exactly for one seed, a wrong answer is
//! caught, and the metrics reported are exactly those `BENCHMARK.json`
//! names.
//!
//! ```sh
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use perfbench::{run, Report, RunConfig, Sizes, Workload};
use std::collections::BTreeSet;
use std::sync::Mutex;

#[global_allocator]
static ALLOC: perfbench::heap::HeapAlloc = perfbench::heap::HeapAlloc;

/// Allocation counts are process-wide, so tests must not overlap.
static SERIAL: Mutex<()> = Mutex::new(());

fn small(w: Workload, trace: bool) -> RunConfig {
    let mut cfg = RunConfig::new(w, 7, 0.0, trace);
    cfg.sizes = Sizes::for_workload(w, 0.05);
    cfg
}

fn run_ok(cfg: &RunConfig) -> Report {
    let r = run(cfg).expect("no trace file is written");
    assert!(
        r.correct(),
        "{} failed {} of {} ops",
        cfg.workload.name(),
        r.failed,
        r.attempted
    );
    r
}

fn values(r: &Report, names: &[&str]) -> Vec<(String, f64)> {
    r.metrics
        .iter()
        .filter(|m| names.iter().any(|n| m.name.starts_with(n)))
        .map(|m| (m.name.to_string(), m.value))
        .collect()
}

#[test]
fn deterministic_metrics_repeat_exactly_for_one_seed() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for w in [Workload::Ingest, Workload::Lookup] {
        let e2e = ["sim_us_per_op", "write_amp", "space_amp", "heap_peak_mb"];
        let first = values(&run_ok(&small(w, false)), &e2e);
        let second = values(&run_ok(&small(w, false)), &e2e);
        assert_eq!(first.len(), 4);
        assert!(first.iter().all(|(_, v)| *v > 0.0), "{first:?}");
        assert_eq!(first, second, "{}", w.name());

        let allocs = values(&run_ok(&small(w, true)), &["alloc."]);
        assert_eq!(allocs.len(), 3);
        assert!(allocs.iter().any(|(_, v)| *v > 0.0), "{allocs:?}");
        assert_eq!(
            allocs,
            values(&run_ok(&small(w, true)), &["alloc."]),
            "{}",
            w.name()
        );
    }
}

#[test]
fn corrupted_model_entry_raises_error_rate() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for w in Workload::ALL {
        let mut cfg = small(w, false);
        cfg.corrupt_model = true;
        let r = run(&cfg).expect("no trace file is written");
        assert!(!r.correct(), "{}", w.name());
        assert!(r.error_rate() > 0.0, "{}", w.name());
    }
}

#[test]
fn reported_metrics_match_benchmark_json() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let listed: BTreeSet<&str> = spec
        .split("\"name\": \"")
        .skip(1)
        .filter_map(|s| s.split('"').next())
        .filter(|n| Workload::parse(n).is_none())
        .collect();
    for w in Workload::ALL {
        let mut reported = BTreeSet::new();
        for trace in [false, true] {
            let r = run_ok(&small(w, trace));
            assert!(r.metrics.iter().all(|m| m.value.is_finite()));
            reported.extend(r.metrics.iter().map(|m| m.name));
        }
        assert_eq!(reported, listed, "{}", w.name());
    }
}
