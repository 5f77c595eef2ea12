//! The command line.
//!
//! ```text
//! perm_bench [--workload NAME]… [--seed N] [--seconds S] [--trace 0|1]
//!            [--repeat N] [--smoke] [--out FILE]
//! perm_bench compare A.json B.json
//! ```
//!
//! Without `--workload` every workload runs. Each run prints its metrics
//! by name on stderr and one JSON result object on stdout, so with a
//! single workload that object is the last line of stdout.

use std::path::PathBuf;
use std::process::ExitCode;

use crate::json::Json;
use crate::report::{compare, render, result_line, suite_json, SuiteHeader};
use crate::runner::{run, RunConfig};
use crate::workloads::{find, Workload, WORKLOADS};

const USAGE: &str = "usage: perm_bench [--workload NAME]... [--seed N] [--seconds S] \
    [--trace 0|1] [--repeat N] [--smoke] [--out FILE]\n       perm_bench compare A.json B.json";

struct Args {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: u64,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Vec::new(),
        seed: 42,
        seconds: 15.0,
        trace: false,
        repeat: 1,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {v}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed
                    .workloads
                    .push(find(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => parsed.seed = number(value()?)?,
            "--repeat" => parsed.repeat = number(value()?)?.max(1),
            "--seconds" => {
                let v = value()?;
                parsed.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 600.0)
                    .ok_or(format!("--seconds: not in (0, 600]: {v}"))?;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v}")),
                }
            }
            "--smoke" => parsed.smoke = true,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if parsed.workloads.is_empty() {
        parsed.workloads = WORKLOADS.iter().collect();
    }
    if parsed.smoke {
        parsed.seconds = parsed.seconds.min(1.0);
    }
    Ok(parsed)
}

/// Scratch space next to the executable: inside the build directory, so
/// inside the checkout and already ignored by git.
fn work_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    Ok(exe
        .parent()
        .ok_or("the executable has no directory")?
        .join("perm-bench-work"))
}

fn run_suite(args: &Args) -> Result<bool, String> {
    let work_dir = work_dir()?;
    // Spill files go where the system says temporary files go; keep that
    // inside the checkout. No thread has been started yet.
    std::env::set_var("TMPDIR", &work_dir);
    let header = SuiteHeader {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
        host_parallelism: perm_exec::auto_parallelism(),
        effective_dop: match perm_core::SessionOptions::default().max_parallelism {
            0 => perm_exec::auto_parallelism(),
            n => n,
        },
    };
    eprintln!(
        "perm_bench: seed {} window {} s trace {} host_parallelism {} effective_dop {}",
        header.seed, header.seconds, header.trace, header.host_parallelism, header.effective_dop
    );
    let mut all_correct = true;
    let mut runs = Vec::new();
    for w in &args.workloads {
        let mut reports = Vec::new();
        for i in 0..args.repeat {
            let report = run(&RunConfig {
                workload: w,
                seed: args.seed + i,
                seconds: args.seconds,
                trace: args.trace,
                smoke: args.smoke,
                work_dir: work_dir.clone(),
            })
            .map_err(|e| format!("{}: {e}", w.name))?;
            eprint!("{}", render(w.name, &report));
            println!("{}", result_line(&report));
            all_correct &= report.failed == 0;
            reports.push(report);
        }
        runs.push((w.name, reports));
    }
    if let Some(out) = &args.out {
        let doc = suite_json(&header, &runs).to_pretty();
        std::fs::write(out, doc).map_err(|e| format!("{out:?}: {e}"))?;
    }
    Ok(all_correct)
}

fn run_compare(a: &str, b: &str) -> Result<bool, String> {
    let load = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let result = compare(&load(a)?, &load(b)?)?;
    print!("{}", result.table);
    for line in &result.more_failures {
        println!("more failures: {line}");
    }
    println!(
        "{} regressed, {} unresolved",
        result.regressed, result.unresolved
    );
    Ok(result.passed())
}

/// Exit code 0: ran and every output was correct (or nothing regressed);
/// 1: an output check failed (or a metric regressed); 2: could not run.
pub fn main(args: Vec<String>) -> ExitCode {
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => run_compare(a, b),
            _ => Err(USAGE.to_string()),
        },
        Some("--help" | "-h") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => parse_args(&args).and_then(|a| run_suite(&a)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perm_bench: {e}");
            ExitCode::from(2)
        }
    }
}
