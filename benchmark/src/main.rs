//! `benchmark --workload W --seed N --seconds S --trace 0|1` runs one
//! workload in this process and ends with the contract's result line.
//! Without `--workload` every workload runs, each mode in a process of its
//! own. `benchmark --compare base.jsonl new.jsonl` is the regression gate.

use pinot_benchmark::report;
use pinot_benchmark::run::{self, Options};
use pinot_benchmark::workloads::Workload;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage:
  benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--quick] [--record FILE]
  benchmark [--seed N] [--seconds S] [--runs K] [--quick] [--record FILE]   (all workloads)
  benchmark --compare <base.jsonl> <new.jsonl>
  benchmark --setup-only --workload <name> [--seed N]   (one set-up, timed; what a run repeats)
workloads: wvmp_point anomaly_scan anomaly_startree hybrid_ingest";

/// Default length of the measured window, `run_seconds` of BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 16.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    setup_only: bool,
    runs: usize,
    record: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        setup_only: false,
        runs: 1,
        record: None,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        let number = |s: String| s.parse::<f64>().map_err(|_| format!("not a number: {s}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => args.seed = number(value("a number")?)? as u64,
            "--seconds" => args.seconds = number(value("a number")?)?,
            "--trace" => args.trace = number(value("0 or 1")?)? != 0.0,
            "--runs" => args.runs = number(value("a number")?)? as usize,
            "--record" => args.record = Some(value("a file")?.into()),
            "--quick" => args.quick = true,
            "--setup-only" => args.setup_only = true,
            "--compare" => {
                args.compare = Some((value("two files")?.into(), value("two files")?.into()))
            }
            "-h" | "--help" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if args.seconds <= 0.0 || args.seconds > 600.0 {
        return Err("--seconds must be in (0, 600]".into());
    }
    if args.setup_only && args.workload.is_none() {
        return Err("--setup-only needs --workload".into());
    }
    if args.quick && args.seconds == DEFAULT_SECONDS {
        args.seconds = 1.5;
    }
    Ok(args)
}

fn compare(base: &PathBuf, new: &PathBuf) -> Result<bool, String> {
    let load = |p: &PathBuf| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        report::parse_result_set(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    Ok(report::compare(&load(base)?, &load(new)?))
}

/// Every workload, both modes, `runs` times: each in its own process so
/// that peak memory is the workload's own.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_ok = true;
    for run in 0..args.runs {
        for workload in Workload::ALL {
            for trace in ["0", "1"] {
                let mut cmd = Command::new(&exe);
                cmd.args(["--workload", workload.name(), "--trace", trace])
                    .args(["--seed", &(args.seed + run as u64).to_string()])
                    .args(["--seconds", &args.seconds.to_string()]);
                if args.quick {
                    cmd.arg("--quick");
                }
                if let Some(record) = &args.record {
                    cmd.arg("--record").arg(record);
                }
                println!("# {} trace={trace} run={run}", workload.name());
                // `status` waits for the child to end.
                let status = cmd.status().map_err(|e| e.to_string())?;
                all_ok &= status.success();
            }
        }
    }
    Ok(all_ok)
}

fn run_one(args: &Args, name: &str) -> Result<bool, String> {
    let workload = Workload::from_name(name).ok_or(format!("unknown workload {name}\n{USAGE}"))?;
    if args.setup_only {
        let line = run::setup_only(workload, args.seed, args.quick).map_err(|e| e.to_string())?;
        println!("{line}");
        return Ok(true);
    }
    let opts = Options {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        quick: args.quick,
        trace_file: Some(report::out_dir().join(format!("{name}.trace.jsonl"))),
        exe: Some(std::env::current_exe().map_err(|e| e.to_string())?),
    };
    std::fs::create_dir_all(report::out_dir()).map_err(|e| e.to_string())?;
    let report = run::run(&opts).map_err(|e| e.to_string())?;
    report::persist(&report, name, args.record.as_deref()).map_err(|e| e.to_string())?;
    if args.quick {
        println!("# --quick: tiny sizes, numbers are not for comparison");
    }
    for (key, value) in &report.record {
        println!("# {key} = {}", value.emit());
    }
    report.print_metrics();
    println!("attempted {} count", report.attempted);
    println!("failed {} count", report.failed);
    println!("{}", report.result_line());
    Ok(report.correct())
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        if let Some((base, new)) = &args.compare {
            return compare(base, new);
        }
        // Two load threads on fewer than two cores would measure the
        // scheduler; refuse rather than report modeled numbers.
        if report::host_cores() < 2 {
            return Err("this benchmark needs at least 2 cores (nproc < 2)".into());
        }
        match &args.workload {
            Some(name) => run_one(&args, name),
            None => run_all(&args),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
