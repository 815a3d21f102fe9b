//! # dss-workbench
//!
//! A from-scratch Rust reproduction of
//!
//! > P. Trancoso, J.-L. Larriba-Pey, Z. Zhang, J. Torrellas,
//! > *The Memory Performance of DSS Commercial Workloads in Shared-Memory
//! > Multiprocessors*, HPCA 1997.
//!
//! The crate is a facade re-exporting the workspace's components:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`trace`] | `dss-trace` | classified memory references, tracers, cost model |
//! | [`shmem`] | `dss-shmem` | emulated shared/private address spaces |
//! | [`tpcd`] | `dss-tpcd` | deterministic TPC-D generator and query parameters |
//! | [`bufcache`] | `dss-bufcache` | Postgres95-style buffer cache module |
//! | [`lockmgr`] | `dss-lockmgr` | lock manager with Lock/Xid hashes and `LockMgrLock` |
//! | [`btree`] | `dss-btree` | b-tree indices in buffer pages |
//! | [`sql`] | `dss-sql` | SQL subset lexer/parser |
//! | [`query`] | `dss-query` | catalog, planner, Volcano executor, TPC-D queries |
//! | [`memsim`] | `dss-memsim` | 4-node CC-NUMA memory-hierarchy simulator |
//! | [`core`] | `dss-core` | per-figure experiment runners, reports, shape checks |
//!
//! # Quickstart
//!
//! ```
//! use dss_workbench::memsim::{Machine, MachineConfig};
//! use dss_workbench::query::{Database, DbConfig, Session};
//!
//! // Build a small memory-resident TPC-D database and trace a query.
//! let mut db = Database::build(&DbConfig::tiny());
//! let mut session = Session::new(0);
//! let out = db
//!     .run("select count(*) from lineitem where l_shipmode = 'AIR'", &mut session)
//!     .expect("valid query");
//! assert_eq!(out.rows.len(), 1);
//!
//! // Simulate its memory references on the paper's baseline machine.
//! let stats = Machine::new(MachineConfig::baseline()).run(&[session.tracer.take()]);
//! assert!(stats.exec_cycles() > 0);
//! ```
//!
//! To regenerate every table and figure of the paper (`--jobs N` fans the
//! sweep points across N threads with bit-identical output):
//!
//! ```text
//! cargo run -p dss-bench --release --bin repro -- all --jobs 4
//! ```

#![forbid(unsafe_code)]

pub use dss_btree as btree;
pub use dss_bufcache as bufcache;
pub use dss_core as core;
// The shared-trace handle, re-exported at the top level so downstream users
// can name it without reaching into `core`.
pub use dss_core::TraceSet;
pub use dss_lockmgr as lockmgr;
pub use dss_memsim as memsim;
pub use dss_query as query;
pub use dss_shmem as shmem;
pub use dss_sql as sql;
pub use dss_tpcd as tpcd;
pub use dss_trace as trace;
