//! A deterministic TPC-D (dbgen) workload generator.
//!
//! The HPCA'97 study populates its database with the TPC Council's `dbgen`
//! tool and then scales the data set down 100×, yielding a ~20 MB
//! memory-resident database whose `lineitem` table is about 70 % of the data.
//! This crate reproduces that population from scratch:
//!
//! * [`tpcd_schema`] — the eight benchmark tables with the spec's columns,
//!   held as fixed-width attributes (decimals in hundredths, 4-byte dates).
//! * [`Generator`] — the dbgen equivalent: deterministic, seeded, scale-factor
//!   aware, with the spec's value distributions, price formulas, and
//!   lineitem-per-order fan-out.
//! * [`params`] — per-query substitution parameters (clause 2.4), used to
//!   give each simulated processor a different instance of the same query.
//!
//! # Example
//!
//! ```
//! use dss_tpcd::{params, Generator};
//!
//! // The paper's configuration is scale 0.01 (100× smaller than standard).
//! let db = Generator::new(0.005, 1).generate();
//! assert_eq!(db.orders.len(), 7500);
//!
//! // Four processors, four different Q6 parameter draws.
//! let draws: Vec<_> = (0..4).map(|p| params(6, p)).collect();
//! assert_ne!(draws[0], draws[1]);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]
#![expect(clippy::expect_used, reason = "not yet converted to `Result` paths")]

mod date;
mod gen;
mod params;
mod schema;
mod tbl;
pub mod text;

pub use date::Date;
pub use gen::{
    Customer, DbData, Generator, Lineitem, Nation, Order, Part, PartSupp, Region, Supplier,
};
pub use params::{params, ParamSet};
pub use schema::{scaled_cardinality, table_def, tpcd_schema, ColType, ColumnDef, TableDef, Value};
pub use tbl::{from_tbl, to_tbl, TblError};

/// The paper's scale factor: the standard 1.0 data set scaled down 100×.
pub const PAPER_SCALE: f64 = 0.01;

/// The largest scale factor TPC-D defines (a 1 TB data set).
pub const MAX_SCALE: f64 = 1000.0;

/// Whether `scale` is a scale factor the generator accepts: positive and at
/// most [`MAX_SCALE`] (so neither NaN nor infinite). Every command line checks
/// it before building anything, so an out-of-range value is a usage error
/// rather than a panic sizing the tables.
pub fn valid_scale(scale: f64) -> bool {
    scale > 0.0 && scale <= MAX_SCALE
}
