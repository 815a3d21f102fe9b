//! Streaming traces: record a query's references straight to disk as block
//! files and replay them through the simulator without ever holding a full
//! trace in memory — the bounded-memory pipeline DESIGN.md §6 describes.
//!
//! ```text
//! cargo run --release --example streaming_traces
//! ```

use std::fs::File;
use std::io::BufWriter;

use dss_workbench::memsim::{Machine, MachineConfig};
use dss_workbench::query::{sql_for, Database, DbConfig, Session};
use dss_workbench::tpcd::params;
use dss_workbench::trace::{materialize, FileTraceSource, Tracer};

const NPROCS: usize = 2;

/// Small blocks so even this toy run spans several; the repro harness uses
/// `dss_workbench::trace::DEFAULT_BLOCK_EVENTS` (64 Ki events).
const BLOCK_EVENTS: usize = 4096;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut db = Database::build(&DbConfig {
        scale: 0.002,
        nbuffers: 2048,
        ..DbConfig::default()
    });

    // 1. Generate. Each processor runs Q6 through a sinked tracer: events
    //    drain to a block file as they are recorded, so the tracer holds at
    //    most one block (BLOCK_EVENTS events) however long the query runs.
    let dir = std::env::temp_dir().join(format!("dss-streaming-example-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let mut paths = Vec::new();
    for p in 0..NPROCS {
        let path = FileTraceSource::proc_path(&dir, "q6", p);
        let sink = Box::new(BufWriter::new(File::create(&path)?));
        let mut session = Session::new(p);
        session.tracer = Tracer::with_sink(p, BLOCK_EVENTS, sink)?;
        db.run(&sql_for(6, &params(6, p as u64)), &mut session)?;
        let events = session.tracer.finish_sink()?;
        let bytes = std::fs::metadata(&path)?.len();
        // The file holds the packed 8-byte event word itself, plus 24 bytes
        // of framing and checksum per block.
        println!(
            "proc {p}: {events} events streamed to disk ({:.1} MB, {:.2} B/event, {} blocks)",
            bytes as f64 / 1e6,
            bytes as f64 / events as f64,
            events as usize / BLOCK_EVENTS + 1,
        );
        paths.push(path);
    }

    // 2. Simulate. The machine pulls blocks from the files on demand; peak
    //    memory is one block buffer per processor, independent of trace
    //    length or database scale.
    let src = FileTraceSource::new(paths);
    let streamed = Machine::new(MachineConfig::baseline()).run_source(&src)?;
    println!(
        "\nstreamed replay: {} cycles, L1 read miss rate {:.1}%, L2 global {:.2}%",
        streamed.exec_cycles(),
        100.0 * streamed.l1.read_miss_rate(),
        100.0 * streamed.l2_global_read_miss_rate(),
    );

    // 3. Determinism. Materializing the same files and replaying in memory
    //    gives field-for-field identical statistics: block size and trace
    //    mode never leak into results.
    let traces = materialize(&src)?;
    let materialized = Machine::new(MachineConfig::baseline()).run(&traces);
    assert_eq!(streamed, materialized);
    println!("materialized replay matches bit for bit");

    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
