//! Using the trace-analysis API directly: quantify a query's locality the
//! way the paper's Section 3 does by reading address traces.
//!
//! ```text
//! cargo run --release --example trace_analysis
//! ```

use dss_workbench::query::{Database, DbConfig, Session};
use dss_workbench::tpcd::params;
use dss_workbench::trace::{
    analyze, read_trace_blocks, write_trace_blocks, DataClass, DEFAULT_BLOCK_EVENTS,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut db = Database::build(&DbConfig {
        scale: 0.004,
        nbuffers: 2048,
        ..DbConfig::default()
    });

    // Trace one Q6 instance.
    let mut session = Session::new(0);
    let sql = dss_workbench::query::sql_for(6, &params(6, 0));
    db.run(&sql, &mut session)?;
    let trace = session.tracer.take();

    // Traces serialize compactly for offline analysis.
    let mut bytes = Vec::new();
    write_trace_blocks(&trace, &mut bytes, DEFAULT_BLOCK_EVENTS)?;
    println!(
        "trace: {} events, {:.1} MB serialized",
        trace.len(),
        bytes.len() as f64 / 1e6
    );
    let trace = read_trace_blocks(bytes.as_slice())?;

    // Locality at both of the paper's line granularities.
    for line in [32u64, 64] {
        let a = analyze(&trace, line);
        let data = a.class(DataClass::Data);
        let priv_heap = a.class(DataClass::PrivHeap);
        println!("\nat {line}-byte lines:");
        println!(
            "  Data: {} refs over {} lines, {:.0}% sequential, {:.0}% cold, \
             {:.0}% reused immediately",
            data.refs,
            data.footprint_lines,
            100.0 * data.sequentiality(),
            100.0 * data.reuse.cold_fraction(),
            100.0 * data.reuse.reused_within(0),
        );
        println!(
            "  Priv: {} refs over {} lines ({:.0}% reused within 256 lines — the \
             slot reuse the paper describes)",
            priv_heap.refs,
            priv_heap.footprint_lines,
            100.0 * priv_heap.reuse.reused_within(256),
        );
    }
    Ok(())
}
