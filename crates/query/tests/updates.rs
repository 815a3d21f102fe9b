//! Write-statement tests: inserts, deletes, visibility, and index
//! maintenance (TPC-D's update functions UF1/UF2).

#![expect(clippy::expect_used, reason = "fixture statements must run")]

use dss_query::{ColumnStats, Database, Datum, DbConfig, Session, StatementOutput};
use dss_tpcd::Generator;

#[path = "support/stats_oracle.rs"]
mod stats_oracle;
use stats_oracle::reference_stats;

fn db() -> Database {
    Database::build(&DbConfig {
        scale: 0.002,
        seed: 9,
        nbuffers: 2048,
        ..DbConfig::default()
    })
}

fn count(db: &mut Database, sql: &str) -> i64 {
    let mut s = Session::untraced(0);
    db.run(sql, &mut s).expect("count query").rows[0][0].int()
}

fn affected(db: &mut Database, sql: &str) -> u64 {
    let mut s = Session::untraced(0);
    match db.execute(sql, &mut s).expect("write statement") {
        StatementOutput::Affected(n) => n,
        StatementOutput::Rows(_) => panic!("expected a write"),
    }
}

#[test]
fn insert_then_select_finds_row() {
    let mut db = db();
    let before = count(&mut db, "select count(*) from region");
    let n = affected(
        &mut db,
        "insert into region values (5, 'ATLANTIS', 'sunken')",
    );
    assert_eq!(n, 1);
    assert_eq!(count(&mut db, "select count(*) from region"), before + 1);
    let mut s = Session::untraced(0);
    let rows = db
        .run("select r_name from region where r_regionkey = 5", &mut s)
        .expect("select")
        .rows;
    assert_eq!(rows, vec![vec![Datum::Str("ATLANTIS".into())]]);
}

#[test]
fn multi_row_insert_and_typed_literals() {
    let mut db = db();
    let n = affected(
        &mut db,
        "insert into orders values \
         (900001, 1, 'O', 123.45, date '1996-05-01', '1-URGENT', 'Clerk#1', 0, 'x'), \
         (900002, 2, 'F', 67.00, date '1994-02-03', '5-LOW', 'Clerk#2', 0, 'y')",
    );
    assert_eq!(n, 2);
    let mut s = Session::untraced(0);
    let rows = db
        .run(
            "select o_totalprice, o_orderdate from orders where o_orderkey = 900001",
            &mut s,
        )
        .expect("select")
        .rows;
    assert_eq!(rows[0][0], Datum::Dec(12345));
    assert_eq!(rows[0][1].date().ymd(), (1996, 5, 1));
}

#[test]
fn inserted_rows_are_visible_through_indexes() {
    let mut db = db();
    affected(
        &mut db,
        "insert into orders values \
         (900010, 3, 'O', 10.00, date '1996-05-01', '1-URGENT', 'Clerk#1', 0, 'x')",
    );
    // o_orderkey is indexed; an index-scan plan must find the new tuple.
    let mut s = Session::untraced(0);
    let out = db
        .run(
            "select count(*) from orders where o_orderkey = 900010",
            &mut s,
        )
        .expect("select");
    assert!(matches!(
        out.plan,
        dss_query::Plan::Project { .. } | dss_query::Plan::Aggregate { .. }
    ));
    assert_eq!(out.rows[0][0], Datum::Int(1));
}

#[test]
fn delete_hides_rows_from_seq_and_index_scans() {
    let mut db = db();
    let total = count(&mut db, "select count(*) from orders");
    let sel = count(
        &mut db,
        "select count(*) from orders where o_orderkey <= 10",
    );
    assert!(sel > 0);
    let n = affected(&mut db, "delete from orders where o_orderkey <= 10");
    assert_eq!(n as i64, sel);
    assert_eq!(count(&mut db, "select count(*) from orders"), total - sel);
    // Index probes (dangling entries) must skip the tombstones.
    assert_eq!(
        count(&mut db, "select count(*) from orders where o_orderkey = 5"),
        0
    );
}

#[test]
fn delete_affects_only_matching_rows_and_is_idempotent() {
    let mut db = db();
    let n1 = affected(
        &mut db,
        "delete from customer where c_mktsegment = 'BUILDING'",
    );
    assert!(n1 > 0);
    let n2 = affected(
        &mut db,
        "delete from customer where c_mktsegment = 'BUILDING'",
    );
    assert_eq!(n2, 0, "already deleted");
    assert_eq!(
        count(
            &mut db,
            "select count(*) from customer where c_mktsegment = 'BUILDING'"
        ),
        0
    );
    assert!(
        count(&mut db, "select count(*) from customer") > 0,
        "other segments remain"
    );
}

#[test]
fn uf1_and_uf2_roundtrip() {
    let mut db = db();
    let generator = Generator::new(0.002, 9);
    let before_orders = count(&mut db, "select count(*) from orders");
    let before_items = count(&mut db, "select count(*) from lineitem");

    // UF1: insert 0.1%-ish new orders above the existing key space.
    let base_key = 1_000_000;
    let (orders, lineitems) = generator.uf1_rows(7, 5, base_key);
    assert_eq!(orders.len(), 5);
    let mut s = Session::untraced(0);
    db.execute(&dss_query::insert_orders_sql(&orders), &mut s)
        .expect("UF1 orders");
    db.execute(&dss_query::insert_lineitems_sql(&lineitems), &mut s)
        .expect("UF1 lineitems");
    assert_eq!(
        count(&mut db, "select count(*) from orders"),
        before_orders + 5
    );
    assert_eq!(
        count(&mut db, "select count(*) from lineitem"),
        before_items + lineitems.len() as i64
    );

    // UF2: delete them again.
    let [del_items, del_orders] = dss_query::uf2_sql(base_key, base_key + 4);
    let removed_items = affected(&mut db, &del_items);
    let removed_orders = affected(&mut db, &del_orders);
    assert_eq!(removed_orders, 5);
    assert_eq!(removed_items as usize, lineitems.len());
    assert_eq!(count(&mut db, "select count(*) from orders"), before_orders);
    assert_eq!(
        count(&mut db, "select count(*) from lineitem"),
        before_items
    );
}

#[test]
fn writes_emit_data_writes_and_take_write_locks() {
    use dss_trace::{DataClass, TraceStats};
    let mut db = db();
    let mut s = Session::new(0);
    db.execute(
        "insert into region values (6, 'LEMURIA', 'also sunken')",
        &mut s,
    )
    .expect("insert");
    let stats = TraceStats::from_trace(&s.tracer.take());
    assert!(stats.writes(DataClass::Data) > 0, "tuple bytes written");
    assert!(stats.writes(DataClass::Index) > 0, "index entries written");
    // Locks all released at statement end.
    for rel in 1..40 {
        assert_eq!(db.lockmgr.granted(rel), [0, 0]);
    }
}

#[test]
fn type_mismatch_is_rejected() {
    let mut db = db();
    let mut s = Session::untraced(0);
    let err = db
        .execute("insert into region values ('oops', 'NAME', 'c')", &mut s)
        .unwrap_err();
    assert!(err.to_string().contains("does not fit"), "{err}");
    let err = db
        .execute("insert into region values (1)", &mut s)
        .unwrap_err();
    assert!(
        err.to_string().contains("arity") || err.to_string().contains("fit"),
        "{err}"
    );
}

#[test]
fn delete_from_unknown_table_is_rejected() {
    let mut db = db();
    let mut s = Session::untraced(0);
    assert!(db.execute("delete from nope", &mut s).is_err());
}

#[test]
fn select_through_execute_returns_rows() {
    let mut db = db();
    let mut s = Session::untraced(0);
    match db
        .execute("select count(*) from nation", &mut s)
        .expect("select")
    {
        StatementOutput::Rows(out) => assert_eq!(out.rows[0][0], Datum::Int(25)),
        StatementOutput::Affected(_) => panic!("expected rows"),
    }
}

#[test]
fn vacuum_compacts_and_preserves_results() {
    let mut db = db();
    let before = count(&mut db, "select count(*) from orders");
    let deleted = affected(&mut db, "delete from orders where o_orderkey <= 100");
    assert!(deleted > 0);
    let live_rows = {
        let mut s = Session::untraced(0);
        db.run(
            "select o_orderkey, o_totalprice from orders order by o_orderkey",
            &mut s,
        )
        .unwrap()
        .rows
    };

    let removed = db.vacuum("orders").expect("vacuum runs");
    assert_eq!(removed, deleted);
    assert_eq!(db.catalog.table("orders").unwrap().heap.ndead(), 0);
    // Heap shrank to exactly the live tuples.
    assert_eq!(
        db.catalog.table("orders").unwrap().heap.ntuples() as i64,
        before - deleted as i64
    );

    // Same answers afterwards, through both scan kinds.
    let after_rows = {
        let mut s = Session::untraced(0);
        db.run(
            "select o_orderkey, o_totalprice from orders order by o_orderkey",
            &mut s,
        )
        .unwrap()
        .rows
    };
    assert_eq!(live_rows, after_rows);
    assert_eq!(
        count(
            &mut db,
            "select count(*) from orders where o_orderkey = 101"
        ),
        1
    );
    assert_eq!(
        count(&mut db, "select count(*) from orders where o_orderkey = 50"),
        0
    );

    // Idempotent when nothing is dead.
    assert_eq!(db.vacuum("orders").unwrap(), 0);
}

#[test]
fn vacuum_refreshes_statistics() {
    let mut db = db();
    // Delete everything above key 50, vacuum, and check the planner stats
    // see the shrunken domain.
    affected(&mut db, "delete from orders where o_orderkey > 50");
    db.vacuum("orders").expect("vacuum");
    let meta = db.catalog.table("orders").unwrap();
    let key_col = meta.heap.def().column_index("o_orderkey").unwrap();
    assert_eq!(meta.stats[key_col].max, Some(Datum::Int(50)));
    assert_eq!(meta.stats[key_col].ndistinct, 50);
    // Every column's statistics are the reference definition's over the
    // live rows, as a scan reads them back.
    let stats = meta.stats.clone();
    let mut s = Session::untraced(0);
    let live = db.run("select * from orders", &mut s).expect("scan").rows;
    assert_eq!(live.len(), 50);
    assert_eq!(stats, reference_stats(&live, stats.len()));
}

#[test]
fn vacuum_unknown_table_errors() {
    let mut db = db();
    assert!(db.vacuum("nope").is_err());
}
