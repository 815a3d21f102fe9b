//! B+-tree indices for the emulated Postgres95.
//!
//! Postgres95 stores b-tree indices in the same 8 KB shared buffer blocks as
//! heap data; the HPCA'97 paper attributes a large share of an *Index*
//! query's misses to them and observes that "the top levels of the index
//! b-tree are traversed very frequently" (temporal locality) while leaf-level
//! range scans read "consecutive locations" (spatial locality). This crate
//! reproduces that access pattern:
//!
//! * [`Key`] — fixed-width, order-preserving key encodings for the TPC-D
//!   attribute types (integers, dates, decimals, string prefixes, pairs).
//! * [`BTree`] — create/bulk-build/insert plus traced range scans whose node
//!   probes emit [`dss_trace::DataClass::Index`] references and whose page
//!   pins flow through the instrumented buffer manager.
//! * [`Cursor`] — a positioned scan that keeps its current leaf pinned and
//!   follows right-sibling links, like the real access method.
//!
//! See [`BTree`] for a complete example.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]
#![expect(clippy::expect_used, reason = "not yet converted to `Result` paths")]

mod key;
mod node;
mod tree;

pub use key::Key;
pub use node::{NodeKind, TupleId, CAPACITY, ENTRY_SIZE, HEADER_SIZE};
pub use tree::{BTree, Cursor};
