//! The emulated Postgres95 relational engine.
//!
//! This crate is the database half of the HPCA'97 reproduction: a real (if
//! compact) relational engine whose every data-structure access emits a
//! classified memory reference. It computes genuine TPC-D query answers over
//! pages in the shared buffer cache while producing the reference traces the
//! memory-hierarchy simulator consumes.
//!
//! Components:
//!
//! * [`Catalog`] / [`Heap`] — tables as fixed-width tuples in 8 KB buffer
//!   pages, with b-tree indices and per-column statistics.
//! * [`plan_query`] — the left-deep optimizer (scan selection, nested-loop /
//!   merge / hash join choice), reproducing Postgres95's planning behavior.
//! * [`exec`] — the Volcano executor, with private-memory slots, sort
//!   workspaces, hash tables, and per-node machinery arenas.
//! * [`sql_for`] — the seventeen read-only TPC-D query templates.
//! * [`Database`] / [`Session`] — the top-level build-once, run-per-processor
//!   API.
//!
//! See [`Database`] for a complete example.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]
#![expect(clippy::expect_used, reason = "invariants; each message says why")]

mod catalog;
mod datum;
mod engine;
pub mod exec;
mod expr;
mod heap;
mod plan;
mod planner;
mod queries;
mod row;

pub use catalog::{index_key, paper_index_set, Catalog, ColumnStats, IndexMeta, TableMeta};
pub use datum::{like_match, Datum};
pub use engine::{Database, DbConfig, EngineError, QueryOutput, Session, StatementOutput};
pub use expr::{bind, Scalar, SlotSource};
pub use heap::{Heap, PAGE_HEADER, TUPLE_HEADER};
pub use plan::{AggSpec, Plan, PlanFeatures};
pub use planner::plan_query;
pub use queries::{insert_lineitems_sql, insert_orders_sql, sql_for, sql_literal, uf2_sql};
pub use row::{Row, RowShape};

/// A planning failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanError {
    message: String,
}

impl PlanError {
    /// Creates a planning error.
    pub fn new(message: String) -> Self {
        PlanError { message }
    }
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "plan error: {}", self.message)
    }
}

impl std::error::Error for PlanError {}
