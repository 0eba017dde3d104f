//! The VMPlants benchmark: one workload per process.
//!
//! `vmbench --workload <steady|storm|zipf|live> --seed <n> --seconds <s>
//! --trace <0|1> [--trace-out <file>]` prints progress notes and, as its
//! last line, one JSON object of metric samples that `run.py` summarises.
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` runs the traced pass and the per-layer replays.

mod cycle;
mod live;
mod report;
mod sim;
mod traced;
mod workload;

use report::Report;
use workload::{Plan, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut trace_out = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                })
            }
            "--trace-out" => trace_out = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        trace_out,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("vmbench: {e}");
            std::process::exit(2);
        }
    };
    let plan = Plan::new(args.workload, args.seed);
    let mut report = Report::default();
    let calibration_ms = report::calibration_ms();
    report.note(format!("calibration loop: {calibration_ms:.3} ms"));
    if args.trace {
        traced::run(&plan, args.seconds, args.trace_out.as_deref(), &mut report);
        report.value("calibration.loop_ms", "ms", calibration_ms, 1);
    } else {
        match args.workload {
            Workload::Live => live::run(&plan, args.seconds, &mut report),
            _ => sim::run(&plan, args.seconds, &mut report),
        }
        let rss = report::peak_rss_mb().unwrap_or(f64::NAN);
        report.value("peak_rss_mb", "MiB", rss, 1);
    }
    for line in &report.notes {
        println!("{line}");
    }
    println!("{}", report.to_json());
}
