//! Benchmark entry point. See the README next to this crate for the
//! workloads, metrics and how to run them.
//!
//! Usage: `byz-e2e-bench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1> [--out <dir>]`. Prints a stamp line and, last, one JSON
//! result line; a traced run also writes its spans under `--out`.

use byz_e2e_bench::bench::{self, Plan};
use byz_e2e_bench::report::{END_TO_END, PER_LAYER};
use byz_e2e_bench::workload::Workload;
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut out = "e2e_bench/out".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds out of range: {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--out" => out = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        out,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let plan = Plan::new(args.workload, args.seed, args.seconds, args.trace);
    eprintln!(
        "{} seed {} trace {}: {} rounds",
        plan.workload.name(),
        plan.seed,
        u8::from(plan.traced),
        plan.rounds
    );
    let (report, spans) = bench::run(&plan);
    for check in report.checks.iter().filter(|c| !c.passed) {
        eprintln!("check failed: {}: {}", check.name, check.detail);
    }
    if args.trace {
        let path = format!(
            "{}/spans-{}-seed{}.jsonl",
            args.out,
            plan.workload.name(),
            plan.seed
        );
        if let Err(e) =
            std::fs::create_dir_all(&args.out).and_then(|()| std::fs::write(&path, &spans))
        {
            eprintln!("error: writing {path}: {e}");
            return ExitCode::from(1);
        }
        eprintln!("spans: {path}");
    }
    let table = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    match report.result_json(table) {
        Ok(line) => {
            println!("{}", report.stamp_json());
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(problems) => {
            for p in problems {
                eprintln!("error: {p}");
            }
            ExitCode::from(1)
        }
    }
}
