//! Criterion microbenchmarks of the individual substrates.

#![expect(clippy::expect_used, reason = "fixtures must build")]

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use dss_btree::{BTree, Key, TupleId};
use dss_bufcache::BufferPool;
use dss_memsim::{Machine, MachineConfig};
use dss_shmem::{AddressSpace, PrivateHeap};
use dss_tpcd::{params, Generator};
use dss_trace::{DataClass, LockClass, LockToken, TraceStats, Tracer};

fn bench_dbgen(c: &mut Criterion) {
    let mut g = c.benchmark_group("tpcd-dbgen");
    for scale in [0.001f64, 0.005] {
        let rows = Generator::new(scale, 1).generate().total_rows() as u64;
        g.throughput(Throughput::Elements(rows));
        g.bench_function(format!("scale-{scale}"), |b| {
            b.iter(|| Generator::new(scale, 1).generate())
        });
    }
    g.finish();
}

fn bench_btree(c: &mut Criterion) {
    let mut space = AddressSpace::new();
    let mut pool = BufferPool::new(&mut space, 1024);
    let entries: Vec<(Key, TupleId)> = (0..200_000)
        .map(|i| (Key::int(i), TupleId::new((i / 64) as u32, (i % 64) as u32)))
        .collect();
    let tree = BTree::bulk_build(&mut pool, 1, &entries);
    let t = Tracer::disabled();

    let mut g = c.benchmark_group("btree");
    g.throughput(Throughput::Elements(1));
    g.bench_function("point-probe", |b| {
        let mut key = 0i64;
        b.iter(|| {
            key = (key + 48_271) % 200_000;
            tree.lookup_range(&mut pool, &t, Key::int(key), Key::int(key))
        })
    });
    g.throughput(Throughput::Elements(1000));
    g.bench_function("range-scan-1k", |b| {
        b.iter(|| tree.lookup_range(&mut pool, &t, Key::int(50_000), Key::int(50_999)))
    });
    g.bench_function("bulk-build-200k", |b| {
        b.iter_batched(
            || BufferPool::new(&mut AddressSpace::new(), 1024),
            |mut pool| BTree::bulk_build(&mut pool, 1, &entries),
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

fn bench_sql(c: &mut Criterion) {
    let texts: Vec<String> = (1..=17u8)
        .map(|q| dss_query::sql_for(q, &params(q, 1)))
        .collect();
    let mut g = c.benchmark_group("sql");
    g.throughput(Throughput::Elements(texts.len() as u64));
    g.bench_function("parse-all-17-queries", |b| {
        b.iter(|| {
            for t in &texts {
                dss_sql::parse(t).expect("valid");
            }
        })
    });
    g.finish();
}

fn bench_memsim(c: &mut Criterion) {
    // A synthetic trace: a streaming shared scan interleaved with private
    // pointer-chasing, roughly the mix the queries produce.
    let make_trace = |proc: usize| {
        let t = Tracer::new(proc);
        let heap = PrivateHeap::new(proc);
        let priv_base = heap.proc_id() as u64; // silence unused
        let _ = priv_base;
        let pbase = dss_shmem::private_base(proc);
        for i in 0..50_000u64 {
            t.read(dss_shmem::SHARED_BASE + i * 48, 8, DataClass::Data);
            t.read(pbase + (i * 136) % 8192, 8, DataClass::PrivHeap);
            t.write(pbase + (i * 88) % 4096, 8, DataClass::PrivHeap);
            t.busy(12);
        }
        t.take()
    };
    let traces: Vec<_> = (0..4).map(make_trace).collect();
    let events: usize = traces.iter().map(|t| t.len()).sum();

    let mut g = c.benchmark_group("memsim");
    g.throughput(Throughput::Elements(events as u64));
    g.bench_function("baseline-4proc", |b| {
        b.iter(|| Machine::new(MachineConfig::baseline()).run(&traces))
    });
    g.bench_function("prefetch-4proc", |b| {
        b.iter(|| Machine::new(MachineConfig::baseline().with_data_prefetch(4)).run(&traces))
    });
    g.finish();
}

fn bench_lockmgr(c: &mut Criterion) {
    use dss_lockmgr::{LockMgr, LockMode, Xid};
    let mut mgr = LockMgr::new(&mut AddressSpace::new(), 1024);
    let t = Tracer::disabled();
    let mut g = c.benchmark_group("lockmgr");
    g.throughput(Throughput::Elements(2));
    g.bench_function("acquire-release-all", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            let xid = Xid(i % 16);
            mgr.acquire(xid, i % 64, LockMode::Read, &t);
            mgr.release_all(xid, &t);
        })
    });
    g.finish();
}

fn bench_bufcache(c: &mut Criterion) {
    let mut space = AddressSpace::new();
    let mut pool = BufferPool::new(&mut space, 2048);
    let pages: Vec<_> = (0..2000).map(|_| pool.alloc_page(1)).collect();
    let t = Tracer::disabled();
    let mut g = c.benchmark_group("bufcache");
    g.throughput(Throughput::Elements(1));
    g.bench_function("pin-unpin", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 977) % pages.len();
            let buf = pool.pin(pages[i], &t);
            pool.unpin(buf, &t);
        })
    });
    g.finish();
}

fn bench_analyze(c: &mut Criterion) {
    // A realistic mixed trace: streaming shared data + hot private slots.
    let t = Tracer::new(0);
    for i in 0..100_000u64 {
        t.read(dss_shmem::SHARED_BASE + i * 48, 8, DataClass::Data);
        t.read(
            dss_shmem::private_base(0) + (i * 136) % 4096,
            8,
            DataClass::PrivHeap,
        );
    }
    let trace = t.take();
    let mut g = c.benchmark_group("trace");
    g.sample_size(10);
    g.throughput(Throughput::Elements(trace.len() as u64));
    g.bench_function("analyze-reuse-distances", |b| {
        b.iter(|| dss_trace::analyze(&trace, 64))
    });
    g.finish();
}

/// The block codec as `streamed` drives it: a writer fed
/// `DEFAULT_BLOCK_EVENTS`-sized blocks, a reader drained through
/// `next_block` into one reused buffer. In memory, so the time is the
/// codec's own.
fn bench_block_codec(c: &mut Criterion) {
    let t = Tracer::new(0);
    record_mix(&t, 100_000);
    let trace = t.take();
    let mut encoded = Vec::new();
    dss_trace::write_trace_blocks(&trace, &mut encoded, dss_trace::DEFAULT_BLOCK_EVENTS)
        .expect("in-memory");

    let mut g = c.benchmark_group("trace");
    g.throughput(Throughput::Bytes(encoded.len() as u64));
    g.bench_function("encode-blocks", |b| {
        let mut buf = Vec::with_capacity(encoded.len());
        b.iter(|| {
            buf.clear();
            dss_trace::write_trace_blocks(&trace, &mut buf, dss_trace::DEFAULT_BLOCK_EVENTS)
                .expect("in-memory");
            buf.len()
        })
    });
    g.bench_function("decode-blocks", |b| {
        let mut block = Vec::new();
        b.iter(|| {
            let mut reader = dss_trace::BlockReader::new(encoded.as_slice()).expect("header");
            let mut events = 0;
            while reader.next_block(&mut block).expect("valid stream") > 0 {
                events += block.len();
            }
            events
        })
    });
    g.finish();
}

/// What `tracer/record` records and `trace-stats/accumulate` then counts:
/// per iteration a shared load, a private load and store, a busy charge, and
/// every 16th iteration a metalock critical section — roughly what a scan
/// operator emits.
fn record_mix(t: &Tracer, iterations: u64) {
    let lock = LockToken::new(dss_shmem::SHARED_BASE, LockClass::BufMgr);
    let pbase = dss_shmem::private_base(0);
    for i in 0..iterations {
        t.read(dss_shmem::SHARED_BASE + 64 + i * 48, 8, DataClass::Data);
        t.read(pbase + (i * 136) % 8192, 8, DataClass::PrivHeap);
        t.write(pbase + (i * 88) % 4096, 8, DataClass::PrivHeap);
        t.busy(12);
        if i % 16 == 0 {
            t.lock_acquire(lock);
            t.write(dss_shmem::SHARED_BASE + 8, 4, DataClass::BufDesc);
            t.lock_release(lock);
        }
    }
}

fn bench_tracer(c: &mut Criterion) {
    const ITERATIONS: u64 = 100_000;
    let t = Tracer::new(0);
    record_mix(&t, ITERATIONS);
    let trace = t.take();

    let mut g = c.benchmark_group("tracer");
    g.throughput(Throughput::Elements(trace.len() as u64));
    g.bench_function("record", |b| {
        b.iter(|| {
            record_mix(&t, ITERATIONS);
            t.take()
        })
    });
    g.finish();

    let mut g = c.benchmark_group("trace-stats");
    g.throughput(Throughput::Elements(trace.len() as u64));
    g.bench_function("accumulate", |b| b.iter(|| TraceStats::from_trace(&trace)));
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_dbgen, bench_btree, bench_sql, bench_memsim, bench_lockmgr,
        bench_bufcache, bench_analyze, bench_block_codec, bench_tracer
}
criterion_main!(benches);
