//! The repository benchmark.
//!
//! Usage:
//! `perfbench --workload <serve_fused|serve_mixed|spmv_large|solve_pcg>
//!  --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a header of `# ` lines (every pinned setting, sample sizes and
//! tail percentiles), one `metric<TAB>value<TAB>unit` line per metric, and
//! as its last line one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! With `--trace 0` the metrics are the end-to-end ones, with `--trace 1`
//! the per-layer ones. Exits non-zero when any operation failed or a
//! simulated statistic was not reproducible.

use std::process::ExitCode;

use perfbench::serve::{ServeSpec, SHARDS};
use perfbench::{calibration_kernel, host_threads, large, pcg, serve, Metrics, Outcome};

/// Jobs per drain of `serve_fused`.
const FUSED_JOBS: usize = 16_000;

/// Jobs per drain of `serve_mixed`.
const MIXED_JOBS: usize = 6_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Peak resident set size of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn json(out: &Outcome, correct: bool) -> String {
    let metrics: Vec<String> = out
        .metrics
        .0
        .iter()
        .map(|m| {
            // JSON has no NaN or infinity; such a run is reported incorrect.
            let value = if m.value.is_finite() {
                m.value.to_string()
            } else {
                "null".into()
            };
            format!(
                "{:?}: {{\"value\": {value}, \"unit\": {:?}}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    // The calibration child (see `perfbench::calibrate`).
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, workers] = argv.as_slice() {
        if flag == "--calibrate" {
            let Ok(workers) = workers.parse::<usize>() else {
                eprintln!("perfbench: bad --calibrate {workers:?}");
                return ExitCode::from(2);
            };
            println!("{}", calibration_kernel(workers.clamp(1, 64)));
            return ExitCode::SUCCESS;
        }
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <serve_fused|serve_mixed|spmv_large|solve_pcg> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    // The sync shim reads PSIM_SYNC once per process; the benchmark
    // measures the production passthrough backend only.
    std::env::remove_var("PSIM_SYNC");
    let threads = host_threads(SHARDS);
    let mut out = match args.workload.as_str() {
        "serve_fused" => serve::run(
            &ServeSpec::fused(FUSED_JOBS, threads),
            args.seed,
            args.seconds,
            args.trace,
        ),
        "serve_mixed" => serve::run(
            &ServeSpec::mixed(MIXED_JOBS, threads),
            args.seed,
            args.seconds,
            args.trace,
        ),
        "spmv_large" => large::run(args.seed, args.seconds, args.trace),
        "solve_pcg" => pcg::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    let Some(rss) = peak_rss_mb() else {
        eprintln!("perfbench: cannot read peak RSS from /proc/self/status");
        return ExitCode::from(1);
    };
    if !args.trace {
        out.metrics.push("peak_rss_mb", rss, "MiB");
    }
    let failed_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "# workload={} seed={} seconds={} trace={} engine=Event sync=passthrough nproc={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host_threads(usize::MAX),
    );
    for note in &out.notes {
        println!("# {note}");
    }
    println!(
        "# failed_ops_ratio={failed_ratio} ({} of {} operations) reproducible={}",
        out.failed, out.attempted, !out.nondeterministic
    );
    let Metrics(list) = &out.metrics;
    for m in list {
        println!("{}\t{}\t{}", m.name, m.value, m.unit);
    }
    let finite = list.iter().all(|m| m.value.is_finite());
    let correct = out.failed == 0 && !out.nondeterministic && finite;
    println!("{}", json(&out, correct));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
