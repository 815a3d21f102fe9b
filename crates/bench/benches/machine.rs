//! Criterion benchmarks of the simulator hot loop (`Machine::run`).
//!
//! Five workloads isolate the per-reference costs of the hot path:
//!
//! * `l1-hit-stream` — every reference hits the primary cache: pure
//!   lookup/scheduler overhead, no miss classification.
//! * `l2-hit-stream` — every L1 miss hits the secondary cache: exercises the
//!   miss-classification path (one history probe per miss) without the
//!   directory.
//! * `remote-ping-pong` — two processors write-share one line: directory
//!   transactions, invalidations, and coherence classification dominate.
//! * `lockstep-4p` — four processors replaying identical 1-cycle events: every
//!   clock ties, so the run-ahead scheduler's runs are one event long and
//!   every event pays a switch — its worst case.
//! * `full-q6` — four processors each running a real traced Q6 instance: the
//!   end-to-end mix every figure of the paper pays for.
//!
//! Before/after numbers are recorded in EXPERIMENTS.md ("Simulator
//! performance").

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use dss_bench::{bench_database, trace_query};
use dss_memsim::{Machine, MachineConfig};
use dss_shmem::{private_base, SHARED_BASE};
use dss_trace::{DataClass, Trace, Tracer};

/// One processor cycling through a working set that fits the 4 KB L1.
fn l1_hit_trace(events: u64) -> Trace {
    let t = Tracer::new(0);
    for i in 0..events {
        // 64 distinct 32-byte lines = 2 KB: resident after the first lap.
        t.read(SHARED_BASE + (i % 64) * 32, 8, DataClass::Data);
        t.busy(1);
    }
    t.take()
}

/// One processor cycling through a set that overflows L1 but fits the
/// 128 KB L2 (4 KB direct-mapped L1 thrashes on the 64 KB stride pattern).
fn l2_hit_trace(events: u64) -> Trace {
    let t = Tracer::new(0);
    for i in 0..events {
        // 1024 distinct 64-byte lines = 64 KB, strided to collide in L1.
        t.read(SHARED_BASE + (i % 1024) * 64, 8, DataClass::Data);
        t.busy(1);
    }
    t.take()
}

/// Two processors alternately writing the same shared line.
fn ping_pong_traces(events: u64) -> Vec<Trace> {
    (0..2)
        .map(|p| {
            let t = Tracer::new(p);
            for _ in 0..events {
                t.write(SHARED_BASE + 4096, 8, DataClass::LockHash);
                t.busy(400);
            }
            t.take()
        })
        .collect()
}

/// Four processors each hitting their own resident line, one cycle an event.
fn lockstep_traces(events: u64) -> Vec<Trace> {
    (0..4)
        .map(|p| {
            let t = Tracer::new(p);
            for _ in 0..events {
                t.read(private_base(p), 8, DataClass::PrivHeap);
            }
            t.take()
        })
        .collect()
}

fn bench_hot_loop(c: &mut Criterion) {
    const N: u64 = 200_000;
    let l1 = vec![l1_hit_trace(N)];
    let l2 = vec![l2_hit_trace(N)];
    let pp = ping_pong_traces(N / 4);
    let ls = lockstep_traces(N / 4);

    let mut g = c.benchmark_group("machine");
    g.sample_size(10);
    g.throughput(Throughput::Elements(
        l1.iter().map(|t| t.len() as u64).sum(),
    ));
    g.bench_function("l1-hit-stream", |b| {
        b.iter(|| Machine::new(MachineConfig::baseline()).run(&l1))
    });
    g.throughput(Throughput::Elements(
        l2.iter().map(|t| t.len() as u64).sum(),
    ));
    g.bench_function("l2-hit-stream", |b| {
        b.iter(|| Machine::new(MachineConfig::baseline()).run(&l2))
    });
    g.throughput(Throughput::Elements(
        pp.iter().map(|t| t.len() as u64).sum(),
    ));
    g.bench_function("remote-ping-pong", |b| {
        b.iter(|| Machine::new(MachineConfig::baseline()).run(&pp))
    });
    g.throughput(Throughput::Elements(
        ls.iter().map(|t| t.len() as u64).sum(),
    ));
    g.bench_function("lockstep-4p", |b| {
        b.iter(|| Machine::new(MachineConfig::baseline()).run(&ls))
    });
    g.finish();
}

fn bench_full_q6(c: &mut Criterion) {
    let mut db = bench_database();
    let traces: Vec<Trace> = (0..4)
        .map(|p| {
            let mut t = trace_query(&mut db, 6, p as u64);
            t.proc_id = p;
            t
        })
        .collect();
    let events: u64 = traces.iter().map(|t| t.len() as u64).sum();

    let mut g = c.benchmark_group("machine");
    g.sample_size(10);
    g.throughput(Throughput::Elements(events));
    g.bench_function("full-q6", |b| {
        b.iter(|| Machine::new(MachineConfig::baseline()).run(&traces))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_hot_loop, bench_full_q6
}
criterion_main!(benches);
