//! The system catalog: tables, indices, and column statistics.

use std::collections::BTreeMap;

use dss_btree::{BTree, Key, TupleId};
use dss_bufcache::BufferPool;
use dss_tpcd::{tpcd_schema, DbData, Value};

use crate::datum::value_hash64;
use crate::{Datum, Heap};

/// Per-column statistics gathered at load time, used by the planner's
/// selectivity estimates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColumnStats {
    /// Smallest value, if the table is non-empty.
    pub min: Option<Datum>,
    /// Largest value, if the table is non-empty.
    pub max: Option<Datum>,
    /// Number of distinct values.
    pub ndistinct: u64,
}

/// A b-tree index over one column of a table.
#[derive(Clone, Debug)]
pub struct IndexMeta {
    /// Index name (`lineitem_l_orderkey_idx`).
    pub name: String,
    /// The indexed column's position in the table.
    pub column: usize,
    /// The tree itself (pages live in the buffer pool).
    pub tree: BTree,
}

/// A table: its heap, indices, and statistics.
#[derive(Clone, Debug)]
pub struct TableMeta {
    /// Heap storage.
    pub heap: Heap,
    /// Secondary structures.
    pub indexes: Vec<IndexMeta>,
    /// Per-column statistics (parallel to the schema's columns).
    pub stats: Vec<ColumnStats>,
}

impl TableMeta {
    /// The index whose key is `column`, if one exists.
    pub fn index_on(&self, column: usize) -> Option<&IndexMeta> {
        self.indexes.iter().find(|i| i.column == column)
    }
}

/// Encodes a stored value as a b-tree key (see [`dss_btree::Key`] for
/// ordering guarantees per type). The load, vacuum and inserts key their
/// index entries with it.
pub fn index_key(v: &Value) -> Key {
    match v {
        Value::Int(v) | Value::Dec(v) => Key::int(*v),
        Value::Date(dt) => Key::int(dt.day_number() as i64),
        Value::Str(s) => Key::str8(s),
    }
}

/// [`index_key`] of the value `d` converts to: the key an index probe for
/// `d` looks up.
pub(crate) fn probe_key(d: &Datum) -> Key {
    match d {
        Datum::Int(v) | Datum::Dec(v) => Key::int(*v),
        Datum::Date(dt) => Key::int(dt.day_number() as i64),
        Datum::Str(s) => Key::str8(s),
    }
}

/// The default index set of the study.
///
/// The paper notes that which select algorithm each query uses "is a function
/// of the set of indices that we added"; this set — primary keys plus the
/// foreign keys and selective attributes the Index queries probe — reproduces
/// the paper's Table 1 operator matrix.
pub fn paper_index_set() -> Vec<(&'static str, &'static str)> {
    vec![
        ("customer", "c_custkey"),
        ("customer", "c_mktsegment"),
        ("customer", "c_nationkey"),
        ("orders", "o_orderkey"),
        ("orders", "o_custkey"),
        ("lineitem", "l_orderkey"),
        ("lineitem", "l_partkey"),
        ("part", "p_partkey"),
        ("part", "p_size"),
        ("supplier", "s_suppkey"),
        ("supplier", "s_nationkey"),
        ("partsupp", "ps_partkey"),
        ("partsupp", "ps_suppkey"),
        ("nation", "n_nationkey"),
        ("nation", "n_regionkey"),
        ("nation", "n_name"),
        ("region", "r_regionkey"),
        ("region", "r_name"),
    ]
}

/// The system catalog.
///
/// Owns every table's heap and index metadata; the page contents live in the
/// shared buffer pool.
#[derive(Clone, Debug, Default)]
pub struct Catalog {
    tables: BTreeMap<String, TableMeta>,
    next_rel: u32,
}

impl Catalog {
    /// Builds the catalog by loading a generated TPC-D population into the
    /// pool and bulk-building the given `(table, column)` indices.
    ///
    /// Loading is untraced: the paper populates the database before tracing
    /// begins.
    ///
    /// # Panics
    ///
    /// Panics if an index names an unknown table or column, or if the pool is
    /// too small to hold the database.
    pub fn load(pool: &mut BufferPool, data: &DbData, index_set: &[(&str, &str)]) -> Self {
        let mut cat = Catalog {
            tables: BTreeMap::new(),
            next_rel: 1,
        };
        for def in tpcd_schema() {
            let rel = cat.next_rel;
            cat.next_rel += 1;
            let mut heap = Heap::create(rel, def.clone());
            let indexed: Vec<(usize, String)> = index_set
                .iter()
                .filter(|(t, _)| *t == def.name)
                .map(|(tname, cname)| {
                    let column = def
                        .column_index(cname)
                        .unwrap_or_else(|| panic!("index column {cname} not in {tname}"));
                    (column, format!("{tname}_{cname}_idx"))
                })
                .collect();
            let mut pass = LoadPass::new(def.columns.len(), indexed.iter().map(|(c, _)| *c));
            data.for_each_row(def.name, |row| pass.push(&mut heap, pool, row));
            let (stats, entries) = pass.finish();
            let indexes = indexed
                .into_iter()
                .zip(entries)
                .map(|((column, name), entries)| {
                    let index_rel = cat.next_rel;
                    cat.next_rel += 1;
                    IndexMeta {
                        name,
                        column,
                        tree: BTree::bulk_build(pool, index_rel, &entries),
                    }
                })
                .collect();
            cat.tables.insert(
                def.name.to_owned(),
                TableMeta {
                    heap,
                    indexes,
                    stats,
                },
            );
        }
        cat
    }

    /// The table called `name`.
    pub fn table(&self, name: &str) -> Option<&TableMeta> {
        self.tables.get(name)
    }

    /// Mutable access to the table called `name` (for inserts and deletes).
    pub fn table_mut(&mut self, name: &str) -> Option<&mut TableMeta> {
        self.tables.get_mut(name)
    }

    /// Iterates over `(name, meta)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &TableMeta)> {
        self.tables.iter().map(|(n, m)| (n.as_str(), m))
    }

    /// Resolves a possibly-qualified column to `(table, column index)`.
    ///
    /// TPC-D column names carry their table prefix (`l_`, `o_`, …), so bare
    /// names are unambiguous; qualified names are checked against the table.
    pub fn resolve_column(&self, table: Option<&str>, name: &str) -> Option<(&str, usize)> {
        match table {
            Some(t) => {
                let meta = self.tables.get_key_value(t)?;
                let idx = meta.1.heap.def().column_index(name)?;
                Some((meta.0.as_str(), idx))
            }
            None => {
                for (t, meta) in &self.tables {
                    if let Some(idx) = meta.heap.def().column_index(name) {
                        return Some((t.as_str(), idx));
                    }
                }
                None
            }
        }
    }

    /// Total heap pages across all tables (for footprint reports).
    pub fn total_heap_pages(&self) -> u64 {
        self.tables.values().map(|t| t.heap.npages() as u64).sum()
    }
}

/// One table's rows on their way into its heap: each row is appended, folded
/// into per-column statistics and keyed for every index in a single visit.
/// [`Catalog::load`] feeds it generated rows and
/// [`Database::vacuum`](crate::Database::vacuum) a heap's live rows.
pub(crate) struct LoadPass {
    columns: Vec<StatsAcc>,
    indexes: Vec<(usize, Vec<(Key, TupleId)>)>,
}

impl LoadPass {
    /// A pass over a table of `ncols` columns with an index on each of
    /// `indexed` (in index order).
    pub(crate) fn new(ncols: usize, indexed: impl IntoIterator<Item = usize>) -> Self {
        LoadPass {
            columns: (0..ncols).map(|_| StatsAcc::default()).collect(),
            indexes: indexed.into_iter().map(|c| (c, Vec::new())).collect(),
        }
    }

    /// Appends `row` to `heap` and records its statistics and index keys.
    pub(crate) fn push(&mut self, heap: &mut Heap, pool: &mut BufferPool, row: &[Value]) {
        let tid = heap.append(pool, row);
        for (acc, v) in self.columns.iter_mut().zip(row) {
            acc.fold(v);
        }
        for (column, entries) in &mut self.indexes {
            entries.push((index_key(&row[*column]), tid));
        }
    }

    /// The table's statistics, and each index's entries sorted for
    /// [`BTree::bulk_build`].
    pub(crate) fn finish(self) -> (Vec<ColumnStats>, Vec<Vec<(Key, TupleId)>>) {
        let stats = self.columns.into_iter().map(StatsAcc::finish).collect();
        let entries = self
            .indexes
            .into_iter()
            .map(|(_, mut entries)| {
                entries.sort_unstable();
                entries
            })
            .collect();
        (stats, entries)
    }
}

/// Running [`ColumnStats`] of one column. A column holds one kind of value,
/// on which `Value`'s order is [`Datum::compare`]'s; `ndistinct` counts
/// distinct [`Datum::hash64`] values.
#[derive(Default)]
struct StatsAcc {
    min: Option<Value>,
    max: Option<Value>,
    hashes: Vec<u64>,
    /// Set once deduplicating a full list failed to halve it: the column is
    /// mostly distinct, and its list is only sorted once, at the end.
    distinct: bool,
}

impl StatsAcc {
    /// A full list of at least this many hashes is deduplicated before it
    /// grows, so a low-cardinality column's list stays small.
    const COMPACT_AT: usize = 4096;

    fn fold(&mut self, v: &Value) {
        if self.min.as_ref().is_none_or(|m| v < m) {
            self.min = Some(v.clone());
        }
        if self.max.as_ref().is_none_or(|m| v > m) {
            self.max = Some(v.clone());
        }
        let cap = self.hashes.capacity();
        if !self.distinct && self.hashes.len() == cap && cap >= Self::COMPACT_AT {
            self.dedup();
            self.distinct = self.hashes.len() > cap / 2;
        }
        self.hashes.push(value_hash64(v));
    }

    fn dedup(&mut self) {
        self.hashes.sort_unstable();
        self.hashes.dedup();
    }

    fn finish(mut self) -> ColumnStats {
        self.dedup();
        ColumnStats {
            min: self.min.map(Datum::from),
            max: self.max.map(Datum::from),
            ndistinct: self.hashes.len() as u64,
        }
    }
}

#[cfg(test)]
#[path = "../tests/support/stats_oracle.rs"]
mod stats_oracle;

#[cfg(test)]
mod tests {
    use super::stats_oracle::reference_stats;
    use super::*;
    use dss_shmem::AddressSpace;
    use dss_tpcd::{ColType, ColumnDef, Date, Generator, TableDef};
    use proptest::prelude::*;

    fn tiny_catalog() -> (BufferPool, Catalog) {
        let mut space = AddressSpace::new();
        let mut pool = BufferPool::new(&mut space, 512);
        let data = Generator::new(0.001, 3).generate();
        let cat = Catalog::load(&mut pool, &data, &paper_index_set());
        (pool, cat)
    }

    #[test]
    fn all_tables_load_with_row_counts() {
        let (_pool, cat) = tiny_catalog();
        assert_eq!(cat.table("customer").unwrap().heap.ntuples(), 150);
        assert_eq!(cat.table("orders").unwrap().heap.ntuples(), 1500);
        assert!(cat.table("lineitem").unwrap().heap.ntuples() >= 1500);
        assert_eq!(cat.table("region").unwrap().heap.ntuples(), 5);
        assert!(cat.table("bogus").is_none());
    }

    #[test]
    fn paper_index_set_builds() {
        let (_pool, cat) = tiny_catalog();
        let li = cat.table("lineitem").unwrap();
        assert_eq!(li.indexes.len(), 2);
        let okey_col = li.heap.def().column_index("l_orderkey").unwrap();
        let idx = li.index_on(okey_col).unwrap();
        assert_eq!(idx.tree.len(), li.heap.ntuples());
        assert!(idx.name.contains("l_orderkey"));
    }

    #[test]
    fn index_probes_find_heap_tuples() {
        let (mut pool, cat) = tiny_catalog();
        let orders = cat.table("orders").unwrap();
        let col = orders.heap.def().column_index("o_orderkey").unwrap();
        let idx = orders.index_on(col).unwrap();
        let t = dss_trace::Tracer::disabled();
        let hits = idx
            .tree
            .lookup_range(&mut pool, &t, Key::int(700), Key::int(700));
        assert_eq!(hits.len(), 1);
        let (_, tid) = hits[0];
        let buf = pool.lookup(orders.heap.page(tid.block)).unwrap();
        assert_eq!(
            orders.heap.attr_value(&pool, buf, tid.slot, col),
            Datum::Int(700)
        );
    }

    #[test]
    fn bare_column_names_resolve_via_prefix() {
        let (_pool, cat) = tiny_catalog();
        let (table, idx) = cat.resolve_column(None, "l_shipdate").unwrap();
        assert_eq!(table, "lineitem");
        assert_eq!(idx, 10);
        let (table, _) = cat.resolve_column(Some("orders"), "o_custkey").unwrap();
        assert_eq!(table, "orders");
        assert!(cat.resolve_column(Some("orders"), "l_shipdate").is_none());
        assert!(cat.resolve_column(None, "nonexistent").is_none());
    }

    #[test]
    fn stats_reflect_domains() {
        let (_pool, cat) = tiny_catalog();
        let customer = cat.table("customer").unwrap();
        let seg = customer.heap.def().column_index("c_mktsegment").unwrap();
        assert_eq!(customer.stats[seg].ndistinct, 5);
        let key = customer.heap.def().column_index("c_custkey").unwrap();
        assert_eq!(customer.stats[key].ndistinct, 150);
        assert_eq!(customer.stats[key].min, Some(Datum::Int(1)));
        assert_eq!(customer.stats[key].max, Some(Datum::Int(150)));
    }

    #[test]
    fn string_index_groups_scan() {
        let (mut pool, cat) = tiny_catalog();
        let customer = cat.table("customer").unwrap();
        let seg_col = customer.heap.def().column_index("c_mktsegment").unwrap();
        let idx = customer.index_on(seg_col).unwrap();
        let t = dss_trace::Tracer::disabled();
        let probe = index_key(&Value::Str("BUILDING".into()));
        let hits = idx
            .tree
            .lookup_range(&mut pool, &t, probe.min_in_group(), probe.max_in_group());
        assert!(!hits.is_empty());
        // Every hit really is a BUILDING customer.
        for (_, tid) in hits {
            let buf = pool.lookup(customer.heap.page(tid.block)).unwrap();
            assert_eq!(
                customer.heap.attr_value(&pool, buf, tid.slot, seg_col),
                Datum::Str("BUILDING".into())
            );
        }
    }

    /// A table of every column type; `t_str` is narrower than some of the
    /// strings stored in it.
    fn mixed_def() -> TableDef {
        let column = |name, ty| ColumnDef { name, ty };
        TableDef {
            name: "t",
            columns: vec![
                column("t_int", ColType::Int),
                column("t_dec", ColType::Dec),
                column("t_date", ColType::Date),
                column("t_str", ColType::Str(6)),
            ],
            base_cardinality: 0,
        }
    }

    /// Random rows for [`mixed_def`]: column `c` draws from a domain of
    /// `domains[c]` values (1 makes it all-equal), strings are up to twice
    /// the column's width.
    fn mixed_rows(seeds: &[u64], domains: [u64; 4]) -> Vec<Vec<Value>> {
        seeds
            .iter()
            .enumerate()
            .map(|(i, &seed)| {
                let pick = |c: usize| (seed.rotate_left(16 * c as u32) ^ i as u64) % domains[c];
                let text: String = (0..pick(3) % 13)
                    .map(|k| ["a", "b", " ", "c"][((pick(3) >> k) % 4) as usize])
                    .collect();
                vec![
                    Value::Int(pick(0) as i64 - 50),
                    Value::Dec(pick(1) as i64 * 25 - 1000),
                    Value::Date(Date::from_day_number(pick(2) as i32 - 30)),
                    Value::Str(text),
                ]
            })
            .collect()
    }

    /// The one-pass statistics of `rows` loaded into a fresh heap, next to
    /// [`reference_stats`] of the same rows.
    fn both_stats(rows: &[Vec<Value>]) -> (Vec<ColumnStats>, Vec<ColumnStats>) {
        let def = mixed_def();
        let mut pool = BufferPool::new(&mut AddressSpace::new(), 512);
        let mut heap = Heap::create(1, def.clone());
        let mut pass = LoadPass::new(def.columns.len(), [0, 3]);
        for row in rows {
            pass.push(&mut heap, &mut pool, row);
        }
        let datums: Vec<Vec<Datum>> = rows
            .iter()
            .map(|row| row.iter().map(Datum::from).collect())
            .collect();
        (pass.finish().0, reference_stats(&datums, def.columns.len()))
    }

    #[test]
    fn one_pass_stats_of_empty_and_single_row_tables() {
        for rows in [Vec::new(), mixed_rows(&[7], [100; 4])] {
            let (got, want) = both_stats(&rows);
            assert_eq!(got, want);
        }
        assert_eq!(both_stats(&[]).0[0].min, None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Small tables, any mix of domain sizes.
        #[test]
        fn one_pass_stats_match_the_reference(
            seeds in proptest::collection::vec(any::<u64>(), 0..60),
            domains in (1u64..4, 1u64..200, 1u64..3000, 1u64..1 << 20),
        ) {
            let rows = mixed_rows(&seeds, [domains.0, domains.1, domains.2, domains.3]);
            let (got, want) = both_stats(&rows);
            prop_assert_eq!(got, want);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Tables long enough for the distinct-hash lists to be compacted
        /// while they fill.
        #[test]
        fn one_pass_stats_match_the_reference_on_long_tables(
            seeds in proptest::collection::vec(any::<u64>(), 4000..12_000),
            domains in (1u64..3, 1u64..5000, 2000u64..40_000, 1u64..1 << 30),
        ) {
            let rows = mixed_rows(&seeds, [domains.0, domains.1, domains.2, domains.3]);
            let (got, want) = both_stats(&rows);
            prop_assert_eq!(got, want);
        }
    }
}
