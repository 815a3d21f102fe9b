//! The left-deep query optimizer.
//!
//! Reproduces the planning behavior the paper attributes to Postgres95: the
//! optimizer "generates left-deep trees … built based on heuristics and cost
//! analysis". Scan selection chooses an index scan when a selective predicate
//! matches an indexed column, and join algorithm selection follows the
//! paper's observed choices: nested loop with a parameterized inner index
//! scan for small outers, merge join against a full-range ordered index scan
//! for large outers joining a unique key, and hash join when the outer is
//! very large or the inner column has no index.

use dss_sql::{BinOp, Expr, Query};

use crate::catalog::Catalog;
use crate::expr::{bind, Scalar};
use crate::plan::{AggSpec, Plan};
use crate::{Datum, PlanError};

/// Index scans are chosen when the predicate keeps no more than this
/// fraction of the table.
const INDEX_SEL_THRESHOLD: f64 = 0.25;

/// Outer cardinalities above this prefer a hash join (build the inner in a
/// private hash table) over probing an index per outer row.
const HASH_OUTER_LIMIT: f64 = 6000.0;

/// Merge join is preferred over nested loop when the outer estimate exceeds
/// this and the inner is an unfiltered scan of a large unique index.
const MERGE_OUTER_LIMIT: f64 = 600.0;

/// Inner tables smaller than this never use merge join (an index probe per
/// outer row is cheaper than scanning the whole index).
const MERGE_INNER_MIN_ROWS: u64 = 1000;

/// One column of a plan node's output.
#[derive(Clone, Debug)]
struct OutCol {
    table: String,
    name: String,
}

type Scope = Vec<OutCol>;

fn resolve(scope: &Scope, qual: Option<&str>, name: &str) -> Option<usize> {
    scope
        .iter()
        .position(|c| c.name == name && qual.is_none_or(|q| q == c.table))
}

/// Plans a parsed query against the catalog.
///
/// # Errors
///
/// Returns [`PlanError`] for unknown tables/columns, cross products (no join
/// predicate between a table and the tables before it), or unsupported
/// constructs (grouping by non-columns).
pub fn plan_query(cat: &Catalog, q: &Query) -> Result<Plan, PlanError> {
    Planner { cat }.plan(q)
}

struct Planner<'a> {
    cat: &'a Catalog,
}

impl<'a> Planner<'a> {
    fn plan(&self, q: &Query) -> Result<Plan, PlanError> {
        // Validate the FROM list.
        for t in &q.from {
            if self.cat.table(t).is_none() {
                return Err(PlanError::new(format!("unknown table {t}")));
            }
        }
        if q.from.is_empty() {
            return Err(PlanError::new("empty from list".to_owned()));
        }
        // Desugar `select *` into the full column list, in FROM order.
        let expanded;
        let q = if q.star {
            if !q.group_by.is_empty() {
                return Err(PlanError::new("select * cannot be grouped".to_owned()));
            }
            let mut items = Vec::new();
            for t in &q.from {
                let def = self.cat.table(t).expect("validated").heap.def();
                for c in &def.columns {
                    items.push(dss_sql::SelectItem {
                        expr: Expr::qcol(t, c.name),
                        alias: None,
                    });
                }
            }
            expanded = Query {
                items,
                star: false,
                ..q.clone()
            };
            &expanded
        } else {
            q
        };

        // Partition the WHERE conjuncts.
        let conjuncts: Vec<&Expr> = q
            .where_clause
            .as_ref()
            .map(|w| w.conjuncts())
            .unwrap_or_default();
        let mut single: Vec<Vec<&Expr>> = vec![Vec::new(); q.from.len()];
        let mut joins: Vec<JoinPred> = Vec::new();
        let mut residual: Vec<&Expr> = Vec::new();
        for c in conjuncts {
            match self.classify(q, c)? {
                Classified::Single(ti) => single[ti].push(c),
                Classified::Join(jp) => joins.push(jp),
                Classified::Residual => residual.push(c),
            }
        }

        // Which attributes each table must project: everything the query
        // references.
        let needed = self.needed_columns(q, &joins, &residual)?;

        // Left-deep join construction in FROM order.
        let mut joins_left = joins;
        let (mut plan, mut scope) = self.scan(&q.from[0], &single[0], &needed[0])?;
        let mut est = self.estimate_scan(&q.from[0], &single[0]);
        let mut joined: Vec<usize> = vec![0];
        for ti in 1..q.from.len() {
            let table = &q.from[ti];
            // Find the first join predicate linking the joined set to this
            // table (clause order matters, as in Postgres95).
            let jp_pos = joins_left
                .iter()
                .position(|jp| {
                    (jp.left_table == ti && joined.contains(&jp.right_table))
                        || (jp.right_table == ti && joined.contains(&jp.left_table))
                })
                .ok_or_else(|| {
                    PlanError::new(format!(
                        "no join predicate connects {table} (cross products unsupported)"
                    ))
                })?;
            let jp = joins_left.remove(jp_pos);
            // Orient: outer side is the already-joined plan.
            let (outer_col_name, outer_qual, inner_col_name) = if joined.contains(&jp.left_table) {
                (&jp.left_col, &q.from[jp.left_table], &jp.right_col)
            } else {
                (&jp.right_col, &q.from[jp.right_table], &jp.left_col)
            };
            let outer_key = resolve(&scope, Some(outer_qual), outer_col_name).ok_or_else(|| {
                PlanError::new(format!("join key {outer_col_name} not projected"))
            })?;

            let meta = self.cat.table(table).expect("validated");
            let inner_col = meta
                .heap
                .def()
                .column_index(inner_col_name)
                .ok_or_else(|| PlanError::new(format!("unknown join column {inner_col_name}")))?;
            let inner_rows = meta.heap.ntuples();
            let inner_has_index = meta.index_on(inner_col).is_some();
            let inner_unique = meta.stats[inner_col].ndistinct == inner_rows && inner_rows > 0;
            let inner_has_preds = !single[ti].is_empty();
            let inner_est = self.estimate_scan(table, &single[ti]);

            let use_hash = est > HASH_OUTER_LIMIT || !inner_has_index;
            let use_merge = !use_hash
                && inner_has_index
                && inner_unique
                && !inner_has_preds
                && inner_rows >= MERGE_INNER_MIN_ROWS
                && est > MERGE_OUTER_LIMIT;

            let (new_plan, inner_scope) = if use_hash {
                let (inner_plan, inner_scope) = self.scan(table, &single[ti], &needed[ti])?;
                let inner_key =
                    resolve(&inner_scope, Some(table.as_str()), inner_col_name).expect("projected");
                (
                    Plan::HashJoin {
                        outer: Box::new(plan),
                        outer_key,
                        inner: Box::new(inner_plan),
                        inner_key,
                    },
                    inner_scope,
                )
            } else if use_merge {
                let (inner_plan, inner_scope) = self.index_scan(
                    table,
                    inner_col,
                    &single[ti],
                    &needed[ti],
                    None,
                    None,
                    false,
                )?;
                let inner_key =
                    resolve(&inner_scope, Some(table.as_str()), inner_col_name).expect("projected");
                let sorted_outer = Plan::Sort {
                    input: Box::new(plan),
                    keys: vec![(outer_key, false)],
                };
                (
                    Plan::MergeJoin {
                        outer: Box::new(sorted_outer),
                        outer_key,
                        inner: Box::new(inner_plan),
                        inner_key,
                    },
                    inner_scope,
                )
            } else {
                // Nested loop with a parameterized inner index scan.
                let (inner_plan, inner_scope) =
                    self.index_scan(table, inner_col, &single[ti], &needed[ti], None, None, true)?;
                (
                    Plan::NestLoop {
                        outer: Box::new(plan),
                        inner: Box::new(inner_plan),
                        outer_key,
                    },
                    inner_scope,
                )
            };
            plan = new_plan;
            scope.extend(inner_scope);
            joined.push(ti);
            // Rough join-output estimate: outer × per-probe fanout.
            let fanout = if meta.stats[inner_col].ndistinct > 0 {
                inner_est / meta.stats[inner_col].ndistinct as f64
            } else {
                1.0
            };
            est *= fanout.max(0.001);
        }

        // Residual cross-table predicates, plus any join predicates not
        // consumed while building the tree (e.g. a second equality between
        // two already-joined tables) applied as equality filters.
        if !residual.is_empty() || !joins_left.is_empty() {
            let scope_ref = &scope;
            let mut preds = residual
                .iter()
                .map(|e| bind(e, &|q2, n| resolve(scope_ref, q2, n)))
                .collect::<Result<Vec<_>, _>>()?;
            for jp in &joins_left {
                let l = resolve(scope_ref, Some(&q.from[jp.left_table]), &jp.left_col).ok_or_else(
                    || PlanError::new(format!("join column {} not projected", jp.left_col)),
                )?;
                let r = resolve(scope_ref, Some(&q.from[jp.right_table]), &jp.right_col)
                    .ok_or_else(|| {
                        PlanError::new(format!("join column {} not projected", jp.right_col))
                    })?;
                preds.push(Scalar::Binary {
                    op: BinOp::Eq,
                    lhs: Box::new(Scalar::Slot(l)),
                    rhs: Box::new(Scalar::Slot(r)),
                });
            }
            plan = Plan::Filter {
                input: Box::new(plan),
                preds,
            };
        }

        // Grouping and aggregation.
        let aggs_in_items = collect_aggs(q);
        let has_group = !q.group_by.is_empty();
        let mut agg_scope: Option<(Vec<usize>, usize)> = None; // (key slots, n keys)
        if has_group || !aggs_in_items.is_empty() {
            let scope_ref = &scope;
            let key_slots: Vec<usize> = q
                .group_by
                .iter()
                .map(|g| match g {
                    Expr::Column { table, name } => resolve(scope_ref, table.as_deref(), name)
                        .ok_or_else(|| PlanError::new(format!("unknown group column {name}"))),
                    _ => Err(PlanError::new("group by requires plain columns".to_owned())),
                })
                .collect::<Result<_, _>>()?;
            let specs: Vec<AggSpec> = aggs_in_items
                .iter()
                .map(|a| self.bind_agg(a, scope_ref))
                .collect::<Result<_, _>>()?;
            if has_group {
                // Postgres95 groups a sorted stream: Sort → Group (+ Aggregate).
                plan = Plan::Sort {
                    input: Box::new(plan),
                    keys: key_slots.iter().map(|&k| (k, false)).collect(),
                };
                plan = Plan::Group {
                    input: Box::new(plan),
                    keys: key_slots.clone(),
                    aggs: specs,
                };
            } else {
                plan = Plan::Aggregate {
                    input: Box::new(plan),
                    aggs: specs,
                };
            }
            agg_scope = Some((key_slots, q.group_by.len()));
        }

        // HAVING: a filter over the grouped output.
        if let Some(h) = &q.having {
            let (key_slots, _) = agg_scope
                .as_ref()
                .ok_or_else(|| PlanError::new("having requires group by".to_owned()))?;
            let pred =
                rewrite_post_agg(h, &q.group_by, key_slots, &aggs_in_items).map_err(|_| {
                    PlanError::new(
                        "having must reference group keys or selected aggregates".to_owned(),
                    )
                })?;
            plan = Plan::Filter {
                input: Box::new(plan),
                preds: vec![pred],
            };
        }

        // Final projection to the SELECT item list.
        let items: Vec<Scalar> = match &agg_scope {
            Some((key_slots, _)) => {
                let aggs = &aggs_in_items;
                q.items
                    .iter()
                    .map(|item| rewrite_post_agg(&item.expr, &q.group_by, key_slots, aggs))
                    .collect::<Result<_, _>>()?
            }
            None => {
                let scope_ref = &scope;
                q.items
                    .iter()
                    .map(|i| bind(&i.expr, &|q2, n| resolve(scope_ref, q2, n)))
                    .collect::<Result<_, _>>()?
            }
        };
        let needs_project = items
            .iter()
            .enumerate()
            .any(|(i, e)| !matches!(e, Scalar::Slot(s) if *s == i))
            || {
                // Narrow wider outputs down to the item list.
                let current_arity = match &agg_scope {
                    Some((keys, _)) => keys.len() + aggs_in_items.len(),
                    None => scope.len(),
                };
                current_arity != q.items.len()
            };
        if needs_project {
            plan = Plan::Project {
                input: Box::new(plan),
                exprs: items,
            };
        }

        // ORDER BY over the final item list.
        if !q.order_by.is_empty() {
            let keys = q
                .order_by
                .iter()
                .map(|k| {
                    let idx = find_order_target(q, &k.expr)?;
                    Ok((idx, k.desc))
                })
                .collect::<Result<Vec<_>, PlanError>>()?;
            plan = Plan::Sort {
                input: Box::new(plan),
                keys,
            };
        }
        if let Some(n) = q.limit {
            plan = Plan::Limit {
                input: Box::new(plan),
                n,
            };
        }
        Ok(plan)
    }

    /// Builds the cheapest scan for one table.
    fn scan(
        &self,
        table: &str,
        preds: &[&Expr],
        needed: &[usize],
    ) -> Result<(Plan, Scope), PlanError> {
        let meta = self.cat.table(table).expect("validated");
        // Candidate index: the indexed column whose extracted bounds are most
        // selective.
        let mut best: Option<(usize, f64)> = None;
        for idx in &meta.indexes {
            let sel = self.bounds_selectivity(table, idx.column, preds);
            if let Some(sel) = sel {
                if sel <= INDEX_SEL_THRESHOLD && best.is_none_or(|(_, s)| sel < s) {
                    best = Some((idx.column, sel));
                }
            }
        }
        match best {
            Some((col, _)) => {
                let (lo, hi) = self.extract_bounds(table, col, preds);
                self.index_scan(table, col, preds, needed, lo, hi, false)
            }
            None => {
                let scope_cols = self.scan_scope(table, needed);
                let def = meta.heap.def();
                let bound = preds
                    .iter()
                    .map(|e| {
                        bind(e, &|q2, n| {
                            (q2.is_none_or(|q2| q2 == table))
                                .then(|| def.column_index(n))
                                .flatten()
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok((
                    Plan::SeqScan {
                        table: table.to_owned(),
                        preds: bound,
                        project: needed.to_vec(),
                        block_range: None,
                    },
                    scope_cols,
                ))
            }
        }
    }

    #[allow(
        clippy::too_many_arguments,
        reason = "mirrors `IndexScanExec::new` one-to-one"
    )]
    fn index_scan(
        &self,
        table: &str,
        column: usize,
        preds: &[&Expr],
        needed: &[usize],
        lo: Option<Datum>,
        hi: Option<Datum>,
        parameterized: bool,
    ) -> Result<(Plan, Scope), PlanError> {
        let meta = self.cat.table(table).expect("validated");
        if meta.index_on(column).is_none() {
            return Err(PlanError::new(format!(
                "no index on column {column} of {table}"
            )));
        }
        let def = meta.heap.def();
        let bound = preds
            .iter()
            .map(|e| {
                bind(e, &|q2, n| {
                    (q2.is_none_or(|q2| q2 == table))
                        .then(|| def.column_index(n))
                        .flatten()
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok((
            Plan::IndexScan {
                table: table.to_owned(),
                index_column: column,
                lo,
                hi,
                parameterized,
                preds: bound,
                project: needed.to_vec(),
            },
            self.scan_scope(table, needed),
        ))
    }

    fn scan_scope(&self, table: &str, needed: &[usize]) -> Scope {
        let def = self.cat.table(table).expect("validated").heap.def().clone();
        needed
            .iter()
            .map(|&a| OutCol {
                table: table.to_owned(),
                name: def.columns[a].name.to_owned(),
            })
            .collect()
    }

    /// Which attributes of each FROM table the query touches.
    fn needed_columns(
        &self,
        q: &Query,
        joins: &[JoinPred],
        residual: &[&Expr],
    ) -> Result<Vec<Vec<usize>>, PlanError> {
        let mut needed: Vec<Vec<usize>> = vec![Vec::new(); q.from.len()];
        let mut add = |planner: &Self, qual: Option<&str>, name: &str| -> Result<(), PlanError> {
            let (table, col) = planner
                .cat
                .resolve_column(qual, name)
                .ok_or_else(|| PlanError::new(format!("unknown column {name}")))?;
            if let Some(ti) = q.from.iter().position(|f| f == table) {
                if !needed[ti].contains(&col) {
                    needed[ti].push(col);
                }
                Ok(())
            } else {
                Err(PlanError::new(format!(
                    "column {name} belongs to {table}, not in FROM"
                )))
            }
        };
        let mut exprs: Vec<&Expr> = Vec::new();
        for item in &q.items {
            exprs.push(&item.expr);
        }
        if let Some(w) = &q.where_clause {
            exprs.push(w);
        }
        exprs.extend(q.group_by.iter());
        for k in &q.order_by {
            exprs.push(&k.expr);
        }
        exprs.extend(residual.iter().copied());
        for e in exprs {
            for (qual, name) in e.columns() {
                // Order-by items naming aliases resolve later; skip unknowns
                // that match an alias.
                if qual.is_none() && q.items.iter().any(|i| i.alias.as_deref() == Some(name)) {
                    continue;
                }
                add(self, qual.as_deref(), name)?;
            }
        }
        for jp in joins {
            add(self, Some(&q.from[jp.left_table]), &jp.left_col)?;
            add(self, Some(&q.from[jp.right_table]), &jp.right_col)?;
        }
        for n in &mut needed {
            n.sort_unstable();
        }
        Ok(needed)
    }

    fn classify(&self, q: &Query, e: &Expr) -> Result<Classified, PlanError> {
        // Equality between two columns of two different FROM tables is a join
        // predicate.
        if let Expr::Binary {
            op: BinOp::Eq,
            lhs,
            rhs,
        } = e
        {
            if let (
                Expr::Column {
                    table: t1,
                    name: n1,
                },
                Expr::Column {
                    table: t2,
                    name: n2,
                },
            ) = (lhs.as_ref(), rhs.as_ref())
            {
                let (tbl1, _) = self
                    .cat
                    .resolve_column(t1.as_deref(), n1)
                    .ok_or_else(|| PlanError::new(format!("unknown column {n1}")))?;
                let (tbl2, _) = self
                    .cat
                    .resolve_column(t2.as_deref(), n2)
                    .ok_or_else(|| PlanError::new(format!("unknown column {n2}")))?;
                if tbl1 != tbl2 {
                    let ti1 = q.from.iter().position(|f| f == tbl1);
                    let ti2 = q.from.iter().position(|f| f == tbl2);
                    if let (Some(a), Some(b)) = (ti1, ti2) {
                        return Ok(Classified::Join(JoinPred {
                            left_table: a,
                            left_col: n1.to_owned(),
                            right_table: b,
                            right_col: n2.to_owned(),
                        }));
                    }
                }
            }
        }
        // Otherwise: single-table if all its columns resolve to one table.
        let mut tables: Vec<&str> = Vec::new();
        for (qual, name) in e.columns() {
            let (tbl, _) = self
                .cat
                .resolve_column(qual.as_deref(), name)
                .ok_or_else(|| PlanError::new(format!("unknown column {name}")))?;
            if !tables.contains(&tbl) {
                tables.push(tbl);
            }
        }
        match tables.len() {
            0 | 1 => {
                let ti = tables
                    .first()
                    .and_then(|t| q.from.iter().position(|f| f == t))
                    .unwrap_or(0);
                Ok(Classified::Single(ti))
            }
            _ => Ok(Classified::Residual),
        }
    }

    fn bind_agg(&self, agg: &Expr, scope: &Scope) -> Result<AggSpec, PlanError> {
        match agg {
            Expr::Agg {
                func,
                arg,
                distinct,
            } => Ok(AggSpec {
                func: *func,
                arg: arg
                    .as_ref()
                    .map(|a| bind(a, &|q2, n| resolve(scope, q2, n)))
                    .transpose()?,
                distinct: *distinct,
            }),
            other => Err(PlanError::new(format!(
                "expected aggregate, found {other:?}"
            ))),
        }
    }

    /// Estimated output rows of scanning `table` under `preds`.
    ///
    /// Range conjuncts on the same column are combined into one interval
    /// (so `c >= lo and c < hi` estimates the window, not the product of two
    /// independent half-lines); all other conjuncts multiply independently.
    fn estimate_scan(&self, table: &str, preds: &[&Expr]) -> f64 {
        let meta = self.cat.table(table).expect("validated");
        let def = meta.heap.def();
        let mut est = meta.heap.ntuples() as f64;
        let mut bounded: Vec<&str> = Vec::new();
        for (ci, col) in def.columns.iter().enumerate() {
            if let Some(sel) = self.bounds_selectivity(table, ci, preds) {
                est *= sel;
                bounded.push(col.name);
            }
        }
        for p in preds {
            if !Self::is_bound_conjunct(p, &bounded) {
                est *= self.selectivity(table, p);
            }
        }
        est
    }

    /// Whether `e` is a simple literal bound on one of the columns already
    /// accounted for by interval estimation.
    fn is_bound_conjunct(e: &Expr, bounded: &[&str]) -> bool {
        match e {
            Expr::Binary { op, lhs, rhs } if op.is_comparison() && *op != BinOp::Ne => {
                match (lhs.as_ref(), rhs.as_ref()) {
                    (Expr::Column { name, .. }, k) | (k, Expr::Column { name, .. }) => {
                        literal_datum(k).is_some() && bounded.contains(&name.as_str())
                    }
                    _ => false,
                }
            }
            Expr::Between {
                expr,
                lo,
                hi,
                negated: false,
            } => match expr.as_ref() {
                Expr::Column { name, .. } => {
                    literal_datum(lo).is_some()
                        && literal_datum(hi).is_some()
                        && bounded.contains(&name.as_str())
                }
                _ => false,
            },
            _ => false,
        }
    }

    /// Heuristic selectivity of one conjunct.
    fn selectivity(&self, table: &str, e: &Expr) -> f64 {
        let meta = self.cat.table(table).expect("validated");
        let def = meta.heap.def();
        match e {
            Expr::Binary { op, lhs, rhs } if op.is_comparison() => {
                let (col, konst) = match (lhs.as_ref(), rhs.as_ref()) {
                    (Expr::Column { name, .. }, k) if literal_datum(k).is_some() => (Some(name), k),
                    (k, Expr::Column { name, .. }) if literal_datum(k).is_some() => (Some(name), k),
                    _ => (None, e),
                };
                match col.and_then(|c| def.column_index(c)) {
                    Some(ci) => match op {
                        BinOp::Eq => 1.0 / meta.stats[ci].ndistinct.max(1) as f64,
                        BinOp::Ne => 1.0 - 1.0 / meta.stats[ci].ndistinct.max(1) as f64,
                        _ => self
                            .range_fraction(table, ci, *op, literal_datum(konst))
                            .unwrap_or(0.33),
                    },
                    // Column-to-column comparisons (commitdate < receiptdate).
                    None => 0.33,
                }
            }
            Expr::Between {
                expr,
                lo,
                hi,
                negated,
            } => {
                let inside = match expr.as_ref() {
                    Expr::Column { name, .. } => def
                        .column_index(name)
                        .and_then(|ci| {
                            let lo = literal_datum(lo)?;
                            let hi = literal_datum(hi)?;
                            let below = self.fraction_below(table, ci, &hi)?;
                            let above = self.fraction_below(table, ci, &lo)?;
                            Some((below - above).clamp(0.001, 1.0))
                        })
                        .unwrap_or(0.25),
                    _ => 0.25,
                };
                if *negated {
                    1.0 - inside
                } else {
                    inside
                }
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let base = match expr.as_ref() {
                    Expr::Column { name, .. } => def
                        .column_index(name)
                        .map(|ci| list.len() as f64 / meta.stats[ci].ndistinct.max(1) as f64)
                        .unwrap_or(0.25),
                    _ => 0.25,
                };
                if *negated {
                    1.0 - base
                } else {
                    base
                }
            }
            Expr::Like { negated, .. } => {
                if *negated {
                    0.8
                } else {
                    0.2
                }
            }
            Expr::Not(inner) => 1.0 - self.selectivity(table, inner),
            Expr::Binary {
                op: BinOp::And,
                lhs,
                rhs,
            } => self.selectivity(table, lhs) * self.selectivity(table, rhs),
            Expr::Binary {
                op: BinOp::Or,
                lhs,
                rhs,
            } => {
                let a = self.selectivity(table, lhs);
                let b = self.selectivity(table, rhs);
                (a + b - a * b).min(1.0)
            }
            _ => 0.33,
        }
    }

    fn range_fraction(&self, table: &str, ci: usize, op: BinOp, k: Option<Datum>) -> Option<f64> {
        let k = k?;
        let below = self.fraction_below(table, ci, &k)?;
        Some(match op {
            BinOp::Lt | BinOp::Le => below.clamp(0.001, 1.0),
            BinOp::Gt | BinOp::Ge => (1.0 - below).clamp(0.001, 1.0),
            _ => return None,
        })
    }

    /// Fraction of the column's [min, max] range lying below `k`.
    fn fraction_below(&self, table: &str, ci: usize, k: &Datum) -> Option<f64> {
        let meta = self.cat.table(table).expect("validated");
        let stats = &meta.stats[ci];
        let (min, max) = (stats.min.as_ref()?, stats.max.as_ref()?);
        let to_f = |d: &Datum| -> Option<f64> {
            Some(match d {
                Datum::Int(v) | Datum::Dec(v) => *v as f64,
                Datum::Date(d) => d.day_number() as f64,
                Datum::Str(_) => return None,
            })
        };
        let (lo, hi, x) = (to_f(min)?, to_f(max)?, to_f(k)?);
        if hi <= lo {
            return Some(0.5);
        }
        Some(((x - lo) / (hi - lo)).clamp(0.0, 1.0))
    }

    /// The most selective bounds preds place on `column`, if any.
    fn bounds_selectivity(&self, table: &str, column: usize, preds: &[&Expr]) -> Option<f64> {
        let (lo, hi) = self.extract_bounds(table, column, preds);
        if lo.is_none() && hi.is_none() {
            return None;
        }
        let meta = self.cat.table(table).expect("validated");
        if let (Some(l), Some(h)) = (&lo, &hi) {
            if l.compare(h).is_eq() {
                return Some(1.0 / meta.stats[column].ndistinct.max(1) as f64);
            }
        }
        let below_hi = match &hi {
            Some(h) => self.fraction_below(table, column, h).unwrap_or(1.0),
            None => 1.0,
        };
        let below_lo = match &lo {
            Some(l) => self.fraction_below(table, column, l).unwrap_or(0.0),
            None => 0.0,
        };
        Some((below_hi - below_lo).clamp(0.001, 1.0))
    }

    /// Extracts constant `[lo, hi]` bounds on `column` from the conjuncts.
    fn extract_bounds(
        &self,
        table: &str,
        column: usize,
        preds: &[&Expr],
    ) -> (Option<Datum>, Option<Datum>) {
        let def = self.cat.table(table).expect("validated").heap.def();
        let col_name = def.columns[column].name;
        let mut lo: Option<Datum> = None;
        let mut hi: Option<Datum> = None;
        let mut tighten_lo = |d: Datum| match &lo {
            Some(cur) if d.compare(cur).is_le() => {}
            _ => lo = Some(d),
        };
        let mut tighten_hi = |d: Datum| match &hi {
            Some(cur) if d.compare(cur).is_ge() => {}
            _ => hi = Some(d),
        };
        for p in preds {
            match p {
                Expr::Binary { op, lhs, rhs } if op.is_comparison() => {
                    let (name, k, flipped) = match (lhs.as_ref(), rhs.as_ref()) {
                        (Expr::Column { name, .. }, k) => (name.as_str(), literal_datum(k), false),
                        (k, Expr::Column { name, .. }) => (name.as_str(), literal_datum(k), true),
                        _ => continue,
                    };
                    if name != col_name {
                        continue;
                    }
                    let Some(k) = k else { continue };
                    let op = if flipped { flip(*op) } else { *op };
                    match op {
                        BinOp::Eq => {
                            tighten_lo(k.clone());
                            tighten_hi(k);
                        }
                        // Open bounds become closed: the heap re-check makes
                        // the boundary tuples harmless.
                        BinOp::Lt | BinOp::Le => tighten_hi(k),
                        BinOp::Gt | BinOp::Ge => tighten_lo(k),
                        _ => {}
                    }
                }
                Expr::Between {
                    expr,
                    lo: l,
                    hi: h,
                    negated: false,
                } => {
                    if let Expr::Column { name, .. } = expr.as_ref() {
                        if name == col_name {
                            if let (Some(l), Some(h)) = (literal_datum(l), literal_datum(h)) {
                                tighten_lo(l);
                                tighten_hi(h);
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        (lo, hi)
    }
}

fn flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

/// A literal AST node as a datum.
fn literal_datum(e: &Expr) -> Option<Datum> {
    Some(match e {
        Expr::Int(v) => Datum::Int(*v),
        Expr::Dec(v) => Datum::Dec(*v),
        Expr::Str(s) => Datum::Str(s.clone()),
        Expr::DateLit { year, month, day } => {
            Datum::Date(dss_tpcd::Date::from_ymd(*year, *month, *day))
        }
        _ => return None,
    })
}

enum Classified {
    Single(usize),
    Join(JoinPred),
    Residual,
}

struct JoinPred {
    left_table: usize,
    left_col: String,
    right_table: usize,
    right_col: String,
}

/// All aggregate sub-expressions of the select items, in item order.
fn collect_aggs(q: &Query) -> Vec<Expr> {
    fn walk(e: &Expr, out: &mut Vec<Expr>) {
        match e {
            Expr::Agg { .. } => out.push(e.clone()),
            Expr::Binary { lhs, rhs, .. } => {
                walk(lhs, out);
                walk(rhs, out);
            }
            Expr::Not(inner) => walk(inner, out),
            _ => {}
        }
    }
    let mut out = Vec::new();
    for item in &q.items {
        walk(&item.expr, &mut out);
    }
    out
}

/// Rewrites a select item over the Group/Aggregate output: group-by columns
/// become key slots, aggregate calls become agg slots.
fn rewrite_post_agg(
    e: &Expr,
    group_by: &[Expr],
    key_slots: &[usize],
    aggs: &[Expr],
) -> Result<Scalar, PlanError> {
    // The Group node outputs keys (in group-by order) then aggs.
    if let Some(pos) = group_by.iter().position(|g| g == e) {
        let _ = key_slots;
        return Ok(Scalar::Slot(pos));
    }
    if let Some(pos) = aggs.iter().position(|a| a == e) {
        return Ok(Scalar::Slot(group_by.len() + pos));
    }
    match e {
        Expr::Binary { op, lhs, rhs } => Ok(Scalar::Binary {
            op: *op,
            lhs: Box::new(rewrite_post_agg(lhs, group_by, key_slots, aggs)?),
            rhs: Box::new(rewrite_post_agg(rhs, group_by, key_slots, aggs)?),
        }),
        Expr::Int(v) => Ok(Scalar::Const(Datum::Int(*v))),
        Expr::Dec(v) => Ok(Scalar::Const(Datum::Dec(*v))),
        Expr::Str(s) => Ok(Scalar::Const(Datum::Str(s.clone()))),
        Expr::Column { name, .. } => Err(PlanError::new(format!(
            "column {name} must appear in group by"
        ))),
        other => Err(PlanError::new(format!(
            "unsupported post-aggregate expression {other:?}"
        ))),
    }
}

/// Resolves an order-by expression to an output item index (alias, identical
/// expression, or bare column matching an item).
fn find_order_target(q: &Query, e: &Expr) -> Result<usize, PlanError> {
    if let Expr::Column { table: None, name } = e {
        if let Some(i) = q
            .items
            .iter()
            .position(|it| it.alias.as_deref() == Some(name.as_str()))
        {
            return Ok(i);
        }
    }
    if let Some(i) = q.items.iter().position(|it| &it.expr == e) {
        return Ok(i);
    }
    // A bare column that appears inside exactly one item.
    if let Expr::Column { name, .. } = e {
        if let Some(i) = q
            .items
            .iter()
            .position(|it| matches!(&it.expr, Expr::Column { name: n, .. } if n == name))
        {
            return Ok(i);
        }
    }
    Err(PlanError::new(format!(
        "order by target {e:?} is not in the select list"
    )))
}
