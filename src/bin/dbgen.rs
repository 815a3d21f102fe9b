//! `dbgen` — the TPC-D population generator as a command-line tool,
//! emitting the standard pipe-delimited `.tbl` files.
//!
//! ```text
//! cargo run --release --bin dbgen -- --scale 0.01 --seed 42 --dir /tmp/tpcd
//! ```
//!
//! It writes the population [`dss_workbench::tpcd::Generator`] builds for
//! `Database::build` — the one the golden artifacts and every paper result
//! pin — so a `.tbl` file here is exactly what the simulated engine loads.

use std::path::PathBuf;
use std::process::ExitCode;

use dss_workbench::tpcd::{valid_scale, Generator, MAX_SCALE};

fn main() -> ExitCode {
    let mut scale = dss_workbench::tpcd::PAPER_SCALE;
    let mut seed = 42u64;
    let mut dir = PathBuf::from("tpcd-data");

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--scale" => match value("--scale").parse() {
                Ok(v) if valid_scale(v) => scale = v,
                _ => {
                    eprintln!("--scale must be a positive number no larger than {MAX_SCALE}");
                    return ExitCode::from(2);
                }
            },
            "--seed" => match value("--seed").parse() {
                Ok(v) => seed = v,
                Err(_) => {
                    eprintln!("--seed must be an integer");
                    return ExitCode::from(2);
                }
            },
            "--dir" => dir = PathBuf::from(value("--dir")),
            "--help" | "-h" => {
                println!("usage: dbgen [--scale F] [--seed N] [--dir PATH]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument {other} (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    let started = std::time::Instant::now();
    let data = Generator::new(scale, seed).generate();
    if let Err(e) = data.write_tbl(&dir) {
        eprintln!("failed to write {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    println!(
        "wrote {} rows across 8 tables to {} in {:.1?} (scale {scale}, seed {seed})",
        data.total_rows(),
        dir.display(),
        started.elapsed()
    );
    ExitCode::SUCCESS
}
