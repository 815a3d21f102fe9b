//! Benchmark support for the DSS workload study.
//!
//! The interesting artifacts live elsewhere:
//!
//! * the `repro` binary (`cargo run -p dss-bench --release --bin repro`)
//!   regenerates every table and figure of the paper and verifies the
//!   qualitative shape checks,
//! * `benches/substrates.rs`, `benches/machine.rs` and `benches/stages.rs`
//!   are Criterion microbenchmarks of the substrates (b-tree, generator,
//!   SQL front end, block codec), the simulator, and an experiment's stages
//!   end to end.
//!
//! This library only hosts small helpers shared by both.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

use dss_query::{Database, DbConfig, Session};
use dss_tpcd::params;
use dss_trace::Trace;

/// Builds a small database suitable for microbenchmarks (scale 1/500).
pub fn bench_database() -> Database {
    Database::build(&DbConfig {
        scale: 0.002,
        nbuffers: 2048,
        ..DbConfig::default()
    })
}

/// Traces one query instance on one simulated processor.
#[expect(clippy::expect_used, reason = "a fixture that fails is a bug")]
pub fn trace_query(db: &mut Database, query: u8, seed: u64) -> Trace {
    let mut session = Session::new(0);
    let sql = dss_query::sql_for(query, &params(query, seed));
    db.run(&sql, &mut session).expect("benchmark query runs");
    session.tracer.take()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_helpers_work() {
        let mut db = bench_database();
        let trace = trace_query(&mut db, 6, 0);
        assert!(!trace.is_empty());
    }
}
