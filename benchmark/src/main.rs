//! The `dss-perf` command line.
//!
//! ```text
//! dss-perf --workload W --seed N --seconds S --trace 0|1   one driver run
//! dss-perf [--seed N] [--reps R] [--smoke]                 all four workloads
//! dss-perf compare A.json B.json                           the regression gate
//! ```
//!
//! Progress goes to stderr. A driver run ends with one JSON line on stdout;
//! a full run prints the metric table and writes `results.json` and
//! `spans-<workload>.jsonl` under `--out` (default `benchmark/out`).

use std::path::PathBuf;
use std::process::ExitCode;

use dss_perf::run::{self, Options, Reps};
use dss_perf::workloads::Workload;
use dss_perf::{alloc, compare, host, json, spec};

#[global_allocator]
static COUNTING: alloc::CountingAlloc = alloc::CountingAlloc;

/// Timed reps a driver run makes however short `--seconds` is: three for a
/// median, two beside a traced rep (which only needs a reference wall time).
const MIN_REPS: usize = 3;
const MIN_REPS_BESIDE_TRACE: usize = 2;

#[derive(Default)]
struct Args {
    positional: Vec<String>,
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<u64>,
    reps: Option<usize>,
    mode: Option<String>,
    out: Option<PathBuf>,
    tmp: Option<PathBuf>,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{arg} needs {what}"));
        let number = |text: String| {
            text.parse::<u64>()
                .map_err(|_| format!("`{text}` is not a whole number"))
        };
        match arg.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => args.seed = Some(number(value("a seed")?)?),
            "--seconds" => {
                let text = value("a duration")?;
                args.seconds = Some(
                    text.parse()
                        .map_err(|_| format!("`{text}` is not a duration"))?,
                );
            }
            "--trace" => args.trace = Some(number(value("0 or 1")?)?),
            "--reps" => args.reps = Some(number(value("a count")?)? as usize),
            "--mode" => args.mode = Some(value("timed or traced")?),
            "--out" => args.out = Some(PathBuf::from(value("a directory")?)),
            "--tmp" => args.tmp = Some(PathBuf::from(value("a directory")?)),
            "--smoke" => args.smoke = true,
            flag if flag.starts_with("--") => return Err(format!("unknown option {flag}")),
            _ => args.positional.push(arg),
        }
    }
    Ok(args)
}

fn workload_named(name: Option<&str>) -> Result<Workload, String> {
    let name = name.ok_or("--workload is required")?;
    Workload::from_name(name).ok_or_else(|| {
        let known: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (known: {})", known.join(", "))
    })
}

fn real_main() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let opts = Options {
        out_dir: args
            .out
            .clone()
            .unwrap_or_else(|| PathBuf::from("benchmark/out")),
        smoke: args.smoke,
    };
    let seed = args.seed.unwrap_or(42);
    match args.positional.first().map(String::as_str) {
        // One rep, in this process: what the parent spawns.
        Some("rep") => {
            let workload = workload_named(args.workload.as_deref())?;
            let tmp = args.tmp.ok_or("rep needs --tmp")?;
            let report = match args.mode.as_deref() {
                Some("timed") => run::timed_rep(workload, seed, &opts, &tmp),
                Some("traced") => run::traced_rep(workload, seed, &opts, &tmp)?,
                _ => return Err("rep needs --mode timed|traced".into()),
            };
            println!("{}", report.to_line());
            Ok(ExitCode::SUCCESS)
        }
        Some("compare") => {
            let [_, a, b] = &args.positional[..] else {
                return Err("usage: dss-perf compare A.json B.json".into());
            };
            let load = |path: &String| {
                let text =
                    std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
                json::parse(&text).map_err(|e| format!("{path}: {e}"))
            };
            let cmp = compare::compare(&load(a)?, &load(b)?)?;
            print!("{}", cmp.render());
            Ok(if cmp.regressed() {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            })
        }
        Some(other) => Err(format!("unknown command `{other}`")),
        // One driver run: a single workload, one result line.
        None if args.workload.is_some() => {
            let workload = workload_named(args.workload.as_deref())?;
            let traced = match args.trace {
                None | Some(0) => false,
                Some(1) => true,
                Some(n) => return Err(format!("--trace takes 0 or 1, not {n}")),
            };
            let reps = Reps::Seconds {
                seconds: args.seconds.unwrap_or(spec::RUN_SECONDS as f64),
                min: if traced {
                    MIN_REPS_BESIDE_TRACE
                } else {
                    MIN_REPS
                },
            };
            let result = run::run_workload(workload, seed, reps, traced, &opts)?;
            println!("{}", run::result_line(&result, traced).to_line());
            Ok(ExitCode::SUCCESS)
        }
        // Everything: four workloads, timed reps plus a traced rep each.
        None => {
            let reps = args.reps.unwrap_or(MIN_REPS);
            let header = host::header(seed, reps, opts.smoke);
            eprintln!("dss-perf: {}", header.to_line());
            let mut results = Vec::new();
            for workload in Workload::ALL {
                results.push(run::run_workload(
                    workload,
                    seed,
                    Reps::Count(reps),
                    true,
                    &opts,
                )?);
            }
            print!("{}", run::table(&results));
            let path = opts.out_dir.join("results.json");
            std::fs::write(&path, run::results_file(header, &results).to_pretty())
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            println!("results written to {}", path.display());
            let failed: usize = results.iter().map(|r| r.failures.len()).sum();
            Ok(if failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
    }
}

fn main() -> ExitCode {
    real_main().unwrap_or_else(|e| {
        eprintln!("dss-perf: error: {e}");
        ExitCode::from(2)
    })
}
