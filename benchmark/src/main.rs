//! Command-line entry of the EdgeBOL benchmark.
//!
//! ```text
//! edgebol-benchmark --workload <steady_T800|cold_start|fleet_churn>
//!                   --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints every metric with its unit and sample count, the correctness
//! checks and the trace digest, then one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Exits 1 when a check fails and 2 on a bad command line.

use edgebol_benchmark::heap::CountingAlloc;
use edgebol_benchmark::run::{run, Args};
use edgebol_benchmark::workload::Workload;
use edgebol_benchmark::{Metric, Report};
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage: edgebol-benchmark --workload <steady_T800|cold_start|fleet_churn> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!("  {:<28} {:>16.6} {:<6} n={}", m.name, m.value, m.unit, m.samples);
    }
}

fn json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { format!("{:?}", m.value) } else { "null".into() };
            format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| ".bench_build".into(), PathBuf::from);
    let scratch = target.join(format!("scratch-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("cannot create {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    println!(
        "workload={} agent={} seed={} seconds={} trace={} threads={}",
        args.workload.name(),
        args.workload.agent_label(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let result = run(args, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    let mut report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            let mut r = Report { attempted: 1, failed: 1, ..Report::default() };
            r.check(e, false);
            r
        }
    };
    let finite = report.metrics.iter().all(|m| m.value.is_finite());
    report.check("every reported metric is a finite number", finite);
    print_metrics(
        if args.trace { "per-layer metrics" } else { "end-to-end metrics" },
        &report.metrics,
    );
    print_metrics("further figures", &report.info);
    for note in &report.notes {
        println!("{note}");
    }
    for (what, ok) in &report.checks {
        println!("check {}: {what}", if *ok { "ok" } else { "FAILED" });
    }
    println!("{}", json(&report));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
