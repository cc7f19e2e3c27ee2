//! The iloc benchmark: one workload per process, named on the command
//! line, measured for a fixed window after warm-up, with every answer
//! checked. The last line of standard output is the result:
//!
//! ```text
//! {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//! ```
//!
//! With `--trace 0` the metrics are the end-to-end ones; with
//! `--trace 1` the per-layer ones (see README.md).

mod check;
mod engine_mix;
mod inputs;
mod ladder;
mod trace;
mod util;
mod wire_churn;

use std::path::PathBuf;
use std::time::Duration;

use util::{json_str, metrics_json, Metrics};

#[global_allocator]
static GLOBAL: iloc_server::alloc_count::CountingAllocator =
    iloc_server::alloc_count::CountingAllocator;

/// What the command line asks for.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub window: Duration,
    pub trace: bool,
    /// Scratch directory for durable stores and span files (inside the
    /// checkout; removed at exit).
    pub work_dir: PathBuf,
}

/// One workload's result.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    /// Operations that returned an error (also counted in `attempted`).
    pub failed: u64,
    /// Check failures; any makes the run incorrect.
    pub errors: Vec<String>,
    pub metrics: Metrics,
}

impl Outcome {
    /// Records an operation that returned an error. The run stays
    /// `correct` unless a check on the operations that did not fail
    /// fails too.
    pub fn fail(&mut self, what: &str, e: impl std::fmt::Display) {
        self.failed += 1;
        eprintln!("perfbench: FAILED: {what}: {e}");
    }

    /// Records a check verdict.
    pub fn verdict(&mut self, what: &str, v: check::Verdict) {
        if let Err(e) = v {
            if self.errors.len() < 20 {
                self.errors.push(format!("{what}: {e}"));
            }
        }
    }
}

pub const WORKLOADS: [&str; 2] = ["engine_mix", "wire_churn"];

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut work_dir) =
        (None, None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        window: Duration::from_secs_f64(seconds),
        trace: trace.unwrap_or(false),
        work_dir: work_dir.unwrap_or_else(|| PathBuf::from(".bench_build/perfbench-work")),
    })
}

/// Core count, CPU model, build profile and features: the machine and
/// build a figure belongs to.
fn fingerprint() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|rest| rest.split_once(':'))
        .map(|(_, m)| m.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"cores\": {cores}, \"cpu_model\": {}, \"profile\": {}, \"features\": []}}",
        json_str(&model),
        json_str(profile)
    )
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    iloc_server::alloc_count::mark_installed();
    let run_dir = args.work_dir.join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("perfbench: cannot create {}: {e}", run_dir.display());
        std::process::exit(2);
    }
    let args = Args {
        work_dir: run_dir.clone(),
        ..args
    };
    let outcome = match args.workload.as_str() {
        "engine_mix" => engine_mix::run(&args),
        _ => wire_churn::run(&args),
    };
    let _ = std::fs::remove_dir_all(&run_dir);
    for e in &outcome.errors {
        eprintln!("perfbench: CHECK FAILED: {e}");
    }
    if outcome.metrics.is_empty() {
        // A set-up failed before anything was measured.
        eprintln!("perfbench: the run measured nothing");
        std::process::exit(1);
    }
    println!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"machine\": {}, \"attempted\": {}, \"failed\": {}}}",
        json_str(&args.workload),
        args.seed,
        args.trace,
        fingerprint(),
        outcome.attempted,
        outcome.failed,
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.errors.is_empty(),
        outcome.attempted,
        outcome.failed,
        metrics_json(&outcome.metrics)
    );
}
