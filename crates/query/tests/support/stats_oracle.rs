//! The reference definition of the planner's column statistics, column by
//! column: `min` and `max` by [`Datum::compare`], `ndistinct` as the number of
//! distinct [`Datum::hash64`] values. The load computes them in one row-major
//! pass; the catalog's property test and the vacuum test hold that pass to
//! this definition. The including module provides `Datum` and `ColumnStats`.

use std::collections::BTreeSet;

use super::{ColumnStats, Datum};

/// Statistics of each of the `ncols` columns of `rows`.
pub fn reference_stats(rows: &[Vec<Datum>], ncols: usize) -> Vec<ColumnStats> {
    (0..ncols)
        .map(|c| {
            let column = || rows.iter().map(|row| &row[c]);
            ColumnStats {
                min: column().min_by(|a, b| a.compare(b)).cloned(),
                max: column().max_by(|a, b| a.compare(b)).cloned(),
                ndistinct: column().map(Datum::hash64).collect::<BTreeSet<_>>().len() as u64,
            }
        })
        .collect()
}
