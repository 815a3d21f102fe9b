//! Using the trace-analysis API directly: quantify a query's locality the
//! way the paper's Section 3 does by reading address traces.
//!
//! ```text
//! cargo run --release --example trace_analysis
//! ```
//!
//! It ends with the two measurements EXPERIMENTS.md "Miss path and point
//! reuse (PR 17)" quotes, at the `sweep` workload's scale and seed: how often
//! a reference lands on the line its processor touched last (what a
//! last-line memo in the simulator could skip), and how much of the Figure
//! 8 / 10 / 13 sequence is the baseline machine simulated again.

use dss_workbench::core::{Workbench, STUDIED_QUERIES};
use dss_workbench::query::{Database, DbConfig, Session};
use dss_workbench::tpcd::params;
use dss_workbench::trace::{
    analyze, read_trace_blocks, write_trace_blocks, DataClass, EventKind, DEFAULT_BLOCK_EVENTS,
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

    let sweep_config = DbConfig {
        scale: 0.005,
        seed: 42,
        nbuffers: 2048,
        ..DbConfig::default()
    };
    let mut wb = Workbench::new(&sweep_config, 4).with_jobs(1);
    println!("\nreferences on the line of the same processor's previous reference:");
    for q in STUDIED_QUERIES {
        let traces = wb.traces(q, 0);
        let shares: Vec<String> = [16u64, 32, 128]
            .iter()
            .map(|line| {
                let (mut same, mut refs) = (0u64, 0u64);
                for trace in traces.iter() {
                    let mut last = u64::MAX;
                    for event in &trace.events {
                        if let EventKind::Ref(r) = event.kind() {
                            refs += 1;
                            same += u64::from(r.addr / line == last);
                            last = r.addr / line;
                        }
                    }
                }
                format!("{:.1}% at {line} B", 100.0 * same as f64 / refs as f64)
            })
            .collect();
        println!("  Q{q}: {}", shares.join(", "));
    }

    // The `sweep` workload's sequence: every figure around one baseline.
    for q in STUDIED_QUERIES {
        wb.line_size_sweep(q);
    }
    for q in STUDIED_QUERIES {
        wb.cache_size_sweep(q);
    }
    for q in STUDIED_QUERIES {
        wb.prefetch_experiment(q);
    }
    let sequence = wb.take_tally();
    // What the reused points would have cost: the baseline machine, timed on
    // a workbench that has not seen it.
    let mut fresh = Workbench::new(&sweep_config, 4).with_jobs(1);
    fresh.baseline_suite(&STUDIED_QUERIES);
    let skipped = fresh.take_tally().compute.as_secs_f64() * sequence.points_reused as f64
        / STUDIED_QUERIES.len() as f64;
    let simulated = sequence.compute.as_secs_f64();
    println!(
        "\nfigures 8, 10 and 13: {} points simulated in {simulated:.2} s, {} reused \
         ({:.0}% of the simulated time of simulating all {})",
        sequence.points_computed,
        sequence.points_reused,
        100.0 * skipped / (skipped + simulated),
        sequence.points_computed + sequence.points_reused,
    );
    Ok(())
}
