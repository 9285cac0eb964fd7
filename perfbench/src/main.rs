//! `perfbench --workload <name> [--seed n] [--seconds s] [--trace 0|1]`
//!
//! Prints the run record, then one JSON result line as the last line of
//! standard output; the human-readable report goes to standard error.
//! Normally started through `perfbench/run.py`, which builds both the
//! plain and the traced binary.

use std::process::{Command, ExitCode};
use std::time::Instant;

use perfbench::workloads::Workload;
use perfbench::{Options, SetupSample, DEFAULT_SEED};

/// Set-ups per end-to-end run: this process's own plus `SETUPS - 1`
/// measured in child processes, so `setup_s` is a median.
const SETUPS: usize = 3;

struct Args {
    opts: Options,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut untraced_throughput = None;
    let mut spans_out = None;
    let mut commit = "unknown".to_string();
    let mut setup_only = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--setup-only" {
            setup_only = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--untraced-throughput" => {
                untraced_throughput = Some(value.parse().map_err(|e| bad(&e))?)
            }
            "--spans-out" => spans_out = Some(value.into()),
            "--commit" => commit = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if trace && !cfg!(feature = "telemetry") {
        return Err("--trace 1 needs the build with the `telemetry` feature".into());
    }
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        opts: Options {
            workload,
            seed,
            seconds,
            trace,
            untraced_throughput,
            spans_out,
            commit,
        },
        setup_only,
    })
}

/// Measures `n` set-ups, each in a fresh child process, one after the
/// other so they do not contend.
fn child_setups(opts: &Options, n: usize) -> Result<Vec<SetupSample>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    (0..n)
        .map(|_| {
            let out = Command::new(&exe)
                .args(["--setup-only", "--workload", opts.workload.name()])
                .args(["--seed", &opts.seed.to_string()])
                .output()
                .map_err(|e| e.to_string())?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            stdout
                .lines()
                .find_map(SetupSample::parse)
                .filter(|_| out.status.success())
                .ok_or_else(|| {
                    format!(
                        "set-up process failed: {}",
                        String::from_utf8_lossy(&out.stderr)
                    )
                })
        })
        .collect()
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let opts = &args.opts;
    if args.setup_only {
        println!(
            "{}",
            perfbench::setup_only(opts.workload, opts.seed, process_start).to_line()
        );
        return ExitCode::SUCCESS;
    }
    let others = if opts.trace {
        Vec::new()
    } else {
        match child_setups(opts, SETUPS - 1) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    // The child set-ups ran first; this process's own set-up is timed
    // from here.
    let outcome = perfbench::run(opts, Instant::now(), &others);
    eprintln!(
        "perfbench {} seed {} ({}): {} attempted, {} failed",
        opts.workload.name(),
        opts.seed,
        if opts.trace { "traced" } else { "end to end" },
        outcome.attempted,
        outcome.failed
    );
    for m in &outcome.metrics {
        eprintln!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{{\"record\": {}}}", outcome.record);
    println!("{}", outcome.result_line());
    // A wrong output is reported through `correct`, not the exit code.
    ExitCode::SUCCESS
}
