//! Runs one benchmark workload and prints its metrics; the last line of
//! standard output is the JSON result.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ingest --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Exits 1 if any op failed or returned a wrong answer, 2 on bad arguments.

use perfbench::{run, RunConfig, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: perfbench::heap::HeapAlloc = perfbench::heap::HeapAlloc;

const USAGE: &str =
    "usage: perfbench --workload <ingest|lookup|mixed> --seed <n> --seconds <n> --trace <0|1>";

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                seconds = Some(if s.is_finite() && s > 0.0 {
                    s
                } else {
                    return Err(bad());
                });
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |f: &str| format!("missing {f}");
    let mut cfg = RunConfig::new(
        workload.ok_or_else(|| missing("--workload"))?,
        seed.ok_or_else(|| missing("--seed"))?,
        seconds.ok_or_else(|| missing("--seconds"))?,
        trace.ok_or_else(|| missing("--trace"))?,
    );
    cfg.trace_dir = Some(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("traces"));
    Ok(cfg)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: writing the trace failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", report.table());
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} of {} ops failed or returned a wrong answer",
            report.failed, report.attempted
        );
        ExitCode::FAILURE
    }
}
