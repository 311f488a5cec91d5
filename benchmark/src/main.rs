use std::path::PathBuf;
use std::process::ExitCode;

use hpd_benchmark::compare;
use hpd_benchmark::gated::{self, GatedOptions};
use hpd_benchmark::traced::{self, TracedOptions};
use hpd_benchmark::workloads;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: PathBuf,
}

const USAGE: &str = "usage: hpd-benchmark --workload <dss|htap|scan_hot|scan_cold> --seed <n> \
--seconds <s> --trace <0|1> [--quick] [--out <dir>]\n       \
hpd-benchmark compare <dirA> <dirB> [--bounds <BENCHMARK.json>]";

/// `compare <dirA> <dirB>`: exit 0 when nothing is `worse` or `unresolved`.
fn run_compare(args: &[String]) -> ExitCode {
    let (mut dirs, mut bounds_file) = (Vec::new(), PathBuf::from("BENCHMARK.json"));
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--bounds" {
            let Some(file) = it.next() else {
                eprintln!("--bounds needs a file\n{USAGE}");
                return ExitCode::from(2);
            };
            bounds_file = PathBuf::from(file);
        } else {
            dirs.push(PathBuf::from(a));
        }
    }
    let [a, b] = dirs.as_slice() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let loaded = compare::read_bounds(&bounds_file)
        .and_then(|bounds| Ok((compare::read_dir(a)?, compare::read_dir(b)?, bounds)));
    match loaded {
        Ok((a, b, bounds)) => {
            let (table, flagged) = compare::render(&a, &b, &bounds);
            print!("{table}");
            println!("{flagged} workload x metric pairs worse or unresolved");
            if flagged == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("compare: {e}");
            ExitCode::from(2)
        }
    }
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 1,
        seconds: 26.0,
        trace: false,
        quick: false,
        out: PathBuf::from(".bench_out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => out.workload = value()?,
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds > 0.0 && out.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => out.quick = true,
            "--out" => out.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if out.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().is_some_and(|a| a == "compare") {
        return run_compare(&argv[1..]);
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workloads::by_name(&args.workload) else {
        eprintln!("unknown workload {}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let seconds = if args.quick { 2.0 } else { args.seconds };
    let result = if args.trace {
        traced::run(
            w.as_ref(),
            &TracedOptions {
                seed: args.seed,
                seconds,
                out_dir: &args.out,
            },
        )
    } else {
        gated::run(
            w.as_ref(),
            &GatedOptions {
                seed: args.seed,
                seconds,
            },
        )
    };
    match result {
        Ok(mut outcome) => {
            outcome.comparable = !args.quick;
            print!("{}", outcome.summary());
            if let Err(e) = outcome.write_detail(&args.out) {
                eprintln!("could not write the detail file: {e}");
                return ExitCode::FAILURE;
            }
            println!("{}", outcome.result_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("run failed: {e}");
            ExitCode::FAILURE
        }
    }
}
