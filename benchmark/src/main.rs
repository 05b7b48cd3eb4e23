//! `tqp-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Progress notes go to standard error. The exit code is not 0
//! when a result disagreed with the oracle or an operation failed.

use std::process::ExitCode;

use tqp_benchmark::{metrics, Options};

const USAGE: &str = "usage: tqp-benchmark --workload <name> [--seed <u64>] [--seconds <n>] \
[--trace <0|1>] [--smoke] [--regen-golden]\n       tqp-benchmark --list";

fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        smoke: false,
        regen_golden: false,
    };
    let mut seconds_given = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--list" => return Ok(None),
            "--workload" => opts.workload = value("a name")?,
            "--seed" => {
                opts.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                opts.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                seconds_given = true;
            }
            "--trace" => {
                opts.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--smoke" => opts.smoke = true,
            "--regen-golden" => opts.regen_golden = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if opts.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if !(opts.seconds > 0.0 && opts.seconds <= 60.0) {
        return Err(format!(
            "--seconds must be in (0, 60], got {}",
            opts.seconds
        ));
    }
    if opts.smoke && !seconds_given {
        opts.seconds = 2.0;
    }
    Ok(Some(opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(Some(opts)) => opts,
        Ok(None) => {
            println!("{}", metrics::catalog_json().to_string_pretty());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match tqp_benchmark::run(&opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let defs = if opts.trace {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    println!("{}", report.to_json(&defs));
    if report.failed > 0 {
        eprintln!(
            "{} of {} operations failed or disagreed with the oracle",
            report.failed, report.attempted
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
