//! Experiment harness for the HPCA'97 DSS memory-performance reproduction.
//!
//! This crate ties the substrates together into the paper's methodology
//! (its Section 4): build a memory-resident, 100×-scaled TPC-D database in
//! the emulated Postgres95, run one parameterized query per simulated
//! processor to produce classified reference traces, and feed those traces
//! into the CC-NUMA memory-hierarchy simulator under each experiment's
//! machine configuration.
//!
//! * [`Workbench`] — database + trace cache (each set recorded once per
//!   run; one trace population drives a whole parameter sweep, since
//!   traces are machine-independent) and the experiment methods, one per
//!   table/figure of the evaluation. Given a spill directory
//!   ([`Workbench::set_trace_dir`]) the workbench records traces straight
//!   to block files and replays them from disk, bounding peak memory at any
//!   scale. Every sweep point takes one path: a fresh
//!   [`dss_memsim::Machine`] replays its [`SimSource`] — a materialized
//!   [`TraceSet`] in place ([`dss_memsim::Machine::run`]) or block files a
//!   block at a time ([`dss_memsim::Machine::run_source`]), the same replay
//!   loop either way — fanned across worker threads with results
//!   bit-identical to a serial run.
//! * [`experiments`] — the experiments' result types.
//! * [`report`] — ASCII renderings in the paper's chart shapes.
//! * [`paper`] — the paper's claims as executable shape checks.
//! * [`write_atomic`] — atomic artifact persistence for everything the
//!   workbench writes to disk.
//! * [`CheckpointJournal`] / [`config_fingerprint`] — crash safety and the
//!   one recovery path: a checksummed, fsynced journal of completed sweep
//!   points. A crash or a panicking point aborts the run; a resumed run
//!   replays the journal, recomputes only what is missing (recording every
//!   trace set a fresh run records, in the same order), and renders output
//!   byte-identical to a fresh run.
//!
//! # Example
//!
//! ```no_run
//! use dss_core::{report, Workbench};
//!
//! let mut wb = Workbench::paper();
//! let baselines = wb.baseline_suite(&[3, 6, 12]);
//! println!("{}", report::render_fig6a(&baselines));
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]
#![expect(clippy::expect_used, reason = "not yet converted to `Result` paths")]

mod checkpoint;
pub mod experiments;
pub mod paper;
mod persist;
pub mod report;
mod sim;
mod workload;

pub use checkpoint::{config_fingerprint, CheckpointJournal};
pub use persist::{fsync_dir, write_atomic};
pub use workload::{
    query_label, SimSource, SweepTally, TraceMode, TraceSet, Workbench, STUDIED_QUERIES,
};
