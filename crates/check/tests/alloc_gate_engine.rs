//! The engine half of the allocation budget at the small scale: an untraced
//! query execution's heap use is an exact, repeatable count — so
//! `paper_scale.rs` can pin it at the paper scale — and a per-row clone
//! adds at least one allocation per tuple to it.
//!
//! Alone in its test binary: the counting allocator's counters are
//! process-global, and even the test harness reporting another test's
//! result would pollute an exact comparison.

#[path = "../src/alloc.rs"]
mod alloc;

use alloc::{AllocGate, CountingAlloc};
use dss_core::Workbench;
use dss_query::{sql_for, Datum, Session};
use dss_tpcd::params;

#[global_allocator]
static COUNTING_ALLOC: CountingAlloc = CountingAlloc;

/// Sabotage: one `RowShape` clone per scanned tuple, the per-row habit the
/// executor was cured of, adds at least one allocation per tuple to the
/// count a clean Q1 execution repeats exactly.
#[test]
fn replanted_per_row_shape_clone_breaks_the_engine_budget() {
    let mut wb = Workbench::small();
    let plan = wb.db.plan_sql(&sql_for(1, &params(1, 0))).unwrap();
    let shape = plan.shape(&wb.db.catalog);
    let count = wb
        .db
        .run("select count(*) from lineitem", &mut Session::untraced(0))
        .unwrap();
    let Datum::Int(tuples) = count.rows[0][0] else {
        panic!("count(*) is an integer");
    };
    assert!(tuples > 0);

    let mut measure = |clones_per_tuple: i64| {
        let mut session = Session::untraced(0);
        let gate = AllocGate::begin();
        let out = wb.db.run_plan(&plan, &mut session);
        for _ in 0..tuples * clones_per_tuple {
            std::hint::black_box(shape.clone());
        }
        let execution = gate.end();
        assert!(!out.rows.is_empty(), "Q1 reports its groups");
        execution
    };
    measure(0); // first use grows the lock manager's host-side tables
    let clean = measure(0);
    assert_eq!(measure(0), clean, "a clean Q1 execution is not repeatable");
    let cloned = measure(1);
    assert!(
        cloned.allocs >= clean.allocs + tuples.unsigned_abs(),
        "{tuples} shape clones moved the count from {clean:?} to {cloned:?}"
    );
}
