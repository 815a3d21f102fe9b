//! `dssql` — an interactive shell over the emulated Postgres95.
//!
//! ```text
//! cargo run --release --bin dssql              # paper-scale database
//! cargo run --release --bin dssql -- 0.002     # custom scale factor
//! ```
//!
//! Statements end with `;`. Meta-commands:
//!
//! * `\tables` — list tables with row/page counts and indexes,
//! * `\d <table>` — describe a table's columns,
//! * `\explain <select…>;` — show the plan without running it,
//! * `\trace on|off` — print trace statistics and a baseline simulation of
//!   each statement's memory references,
//! * `\vacuum <table>` — compact tombstones and rebuild indexes,
//! * `\q` — quit.

use std::io::{self, BufRead, Write};
use std::time::Instant;

use dss_workbench::memsim::{Machine, MachineConfig};
use dss_workbench::query::{Database, Datum, DbConfig, Session, StatementOutput};
use dss_workbench::tpcd::{valid_scale, MAX_SCALE};
use dss_workbench::trace::TraceStats;

fn main() {
    let scale: f64 = match std::env::args().nth(1) {
        None => dss_workbench::tpcd::PAPER_SCALE,
        Some(a) => match a.parse() {
            Ok(s) if valid_scale(s) => s,
            _ => {
                eprintln!("dssql: `{a}` is not a scale factor in (0, {MAX_SCALE}] (try 0.002)");
                std::process::exit(2);
            }
        },
    };
    eprint!("building TPC-D database at scale {scale}... ");
    let started = Instant::now();
    let mut db = Database::build(&DbConfig {
        scale,
        nbuffers: (16384.0 * scale.max(0.002) / 0.01) as u32 + 1024,
        ..DbConfig::default()
    });
    eprintln!("done in {:.1?}", started.elapsed());
    eprintln!("type SQL ending with ';', or \\q to quit — try: select count(*) from lineitem;");

    let mut session = Session::new(0);
    let mut tracing = false;
    session.tracer.set_enabled(false);

    let stdin = io::stdin();
    let mut buffer = String::new();
    loop {
        if buffer.is_empty() {
            print!("dssql> ");
        } else {
            print!("   ..> ");
        }
        io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                eprintln!("input error: {e}");
                break;
            }
        }
        let line = line.trim();
        if buffer.is_empty() && line.starts_with('\\') {
            if !meta_command(line, &mut db, &mut session, &mut tracing) {
                break;
            }
            continue;
        }
        buffer.push_str(line);
        buffer.push(' ');
        if !line.ends_with(';') {
            continue;
        }
        let sql = buffer.trim().trim_end_matches(';').to_owned();
        buffer.clear();
        run_statement(&sql, &mut db, &mut session, tracing);
    }
}

/// Handles a backslash command; returns `false` to quit.
fn meta_command(line: &str, db: &mut Database, session: &mut Session, tracing: &mut bool) -> bool {
    let mut parts = line.splitn(2, ' ');
    match (
        parts.next().unwrap_or(""),
        parts.next().unwrap_or("").trim(),
    ) {
        ("\\q", _) => return false,
        ("\\tables", _) => {
            println!("{:<10} {:>9} {:>7}  indexes", "table", "rows", "pages");
            for (name, meta) in db.catalog.iter() {
                let idx: Vec<&str> = meta.indexes.iter().map(|i| i.name.as_str()).collect();
                println!(
                    "{:<10} {:>9} {:>7}  {}",
                    name,
                    meta.heap.ntuples(),
                    meta.heap.npages(),
                    idx.join(", ")
                );
            }
        }
        ("\\d", table) => match db.catalog.table(table) {
            Some(meta) => {
                for col in &meta.heap.def().columns {
                    println!("  {:<16} {:?}", col.name, col.ty);
                }
            }
            None => println!("no table {table}"),
        },
        ("\\explain", sql) => {
            let sql = sql.trim_end_matches(';');
            match db.plan_sql(sql) {
                Ok(plan) => print!("{}", plan.explain()),
                Err(e) => println!("error: {e}"),
            }
        }
        ("\\vacuum", table) => match db.vacuum(table) {
            Ok(n) => println!("vacuumed {table}: {n} dead tuples removed"),
            Err(e) => println!("error: {e}"),
        },
        ("\\trace", arg) => {
            *tracing = arg == "on";
            session.tracer.set_enabled(*tracing);
            println!("tracing {}", if *tracing { "on" } else { "off" });
        }
        (cmd, _) => {
            println!("unknown command {cmd} (try \\tables, \\d, \\explain, \\trace, \\vacuum, \\q)")
        }
    }
    true
}

fn run_statement(sql: &str, db: &mut Database, session: &mut Session, tracing: bool) {
    let started = Instant::now();
    match db.execute(sql, session) {
        Ok(StatementOutput::Rows(out)) => {
            let n = out.rows.len();
            for row in out.rows.iter().take(40) {
                let cells: Vec<String> = row.iter().map(Datum::to_string).collect();
                println!("  {}", cells.join(" | "));
            }
            if n > 40 {
                println!("  … {} more rows", n - 40);
            }
            println!("({n} rows in {:.1?})", started.elapsed());
        }
        Ok(StatementOutput::Affected(n)) => {
            println!("({n} tuples affected in {:.1?})", started.elapsed());
        }
        Err(e) => println!("error: {e}"),
    }
    if tracing {
        let trace = session.tracer.take();
        let stats = TraceStats::from_trace(&trace);
        let sim = Machine::new(MachineConfig::baseline()).run(&[trace]);
        let b = sim.time_breakdown();
        println!(
            "trace: {} refs ({} priv / {} shared); simulated {} cycles \
             (busy {:.0}% mem {:.0}%), L1 miss {:.1}%",
            stats.total_refs(),
            stats.private_refs(),
            stats.shared_refs(),
            sim.exec_cycles(),
            100.0 * b.busy,
            100.0 * b.mem,
            100.0 * sim.l1.read_miss_rate()
        );
    }
}
