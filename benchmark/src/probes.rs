//! Isolated probes of the substrates beneath the query engine, run in the
//! traced rep of `tracegen` only. Shapes follow
//! `crates/bench/benches/substrates.rs`; each runs for a fixed slice of host
//! time and reports time per operation. They move `query.exec_untraced_s`.

use std::time::{Duration, Instant};

use dss_btree::{BTree, Key, TupleId};
use dss_bufcache::BufferPool;
use dss_lockmgr::{LockMgr, LockMode, Xid};
use dss_shmem::AddressSpace;
use dss_tpcd::params;
use dss_trace::Tracer;

use crate::spans::Spans;

/// Host time each probe measures for.
const BUDGET: Duration = Duration::from_millis(250);

/// Repeats `op` in batches until [`BUDGET`] is spent; nanoseconds per call.
fn ns_per_op(rec: &mut Spans, name: &'static str, mut op: impl FnMut()) -> f64 {
    rec.time(name, || {
        let start = Instant::now();
        let mut calls = 0u64;
        while start.elapsed() < BUDGET {
            for _ in 0..256 {
                op();
            }
            calls += 256;
        }
        start.elapsed().as_nanos() as f64 / calls as f64
    })
}

/// Runs the four probes; `(metric, value)` pairs.
pub fn substrates(rec: &mut Spans) -> Vec<(&'static str, f64)> {
    let t = Tracer::disabled();
    let mut out = Vec::new();

    let mut pool = BufferPool::new(&mut AddressSpace::new(), 1024);
    let entries: Vec<(Key, TupleId)> = (0..200_000)
        .map(|i| (Key::int(i), TupleId::new((i / 64) as u32, (i % 64) as u32)))
        .collect();
    let tree = BTree::bulk_build(&mut pool, 1, &entries);
    let mut key = 0i64;
    out.push((
        "btree.lookup_ns",
        ns_per_op(rec, "btree.lookup", || {
            key = (key + 48_271) % 200_000;
            std::hint::black_box(tree.lookup_range(&mut pool, &t, Key::int(key), Key::int(key)));
        }),
    ));

    let mut pool = BufferPool::new(&mut AddressSpace::new(), 2048);
    let pages: Vec<_> = (0..2000).map(|_| pool.alloc_page(1)).collect();
    let mut i = 0usize;
    out.push((
        "bufcache.pin_unpin_ns",
        ns_per_op(rec, "bufcache.pin_unpin", || {
            i = (i + 977) % pages.len();
            let buf = pool.pin(pages[i], &t);
            pool.unpin(buf, &t);
        }),
    ));

    let mut mgr = LockMgr::new(&mut AddressSpace::new(), 1024);
    let mut n = 0u32;
    out.push((
        "lockmgr.acquire_release_ns",
        ns_per_op(rec, "lockmgr.acquire_release", || {
            n = n.wrapping_add(1);
            let xid = Xid(n % 16);
            mgr.acquire(xid, n % 64, LockMode::Read, &t);
            mgr.release_all(xid, &t);
        }),
    ));

    let texts: Vec<String> = (1..=17u8)
        .map(|q| dss_query::sql_for(q, &params(q, 1)))
        .collect();
    let mut next = 0usize;
    out.push((
        "sql.parse_us",
        ns_per_op(rec, "sql.parse", || {
            next = (next + 1) % texts.len();
            std::hint::black_box(dss_sql::parse(&texts[next]).expect("template parses"));
        }) / 1e3,
    ));
    out
}
