//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload and prints, as the last line of standard output,
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Diagnostics go to standard error. Exits non-zero, printing no result,
//! when the run cannot measure what it promises.
//!
//! Environment: `PERFBENCH_BIN` is the directory holding the `flowd` and
//! `flow-gateway` binaries (`service_mix` only); `PERFBENCH_WORK` is a
//! scratch directory for daemon caches and trace files. `run.sh` sets
//! both after building.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::jobs::Workload;
use perfbench::metrics::{END_TO_END, PER_LAYER};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: '{value}'");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                })
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn env_dir(var: &str, default: &str) -> PathBuf {
    std::env::var_os(var)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(default))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let work = env_dir("PERFBENCH_WORK", ".bench_build/perfbench");
    let bin = env_dir("PERFBENCH_BIN", ".bench_build/release");
    let trace_dir = work.join("traces");
    let outcome = match args.workload {
        Workload::ServiceMix => {
            perfbench::service::run(args.seed, args.seconds, args.trace, &work, &bin)
        }
        w => perfbench::cold::run(w, args.seed, args.seconds, args.trace, &trace_dir),
    };
    let spec = if args.trace { PER_LAYER } else { END_TO_END };
    match outcome.and_then(|o| o.to_json(spec)) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            ExitCode::from(1)
        }
    }
}
