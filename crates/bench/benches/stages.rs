//! Criterion benchmarks of an experiment's stages end to end: database
//! build, query tracing, and trace simulation.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use dss_bench::{bench_database, trace_query};
use dss_memsim::{Machine, MachineConfig};
use dss_query::{Database, DbConfig};

fn bench_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("stages");
    g.sample_size(10);
    g.bench_function("database-build-scale-0.002", |b| {
        b.iter(|| {
            Database::build(&DbConfig {
                scale: 0.002,
                nbuffers: 2048,
                ..DbConfig::default()
            })
        })
    });
    g.finish();
}

fn bench_trace_generation(c: &mut Criterion) {
    let mut db = bench_database();
    let mut g = c.benchmark_group("stages");
    g.sample_size(10);
    for q in [3u8, 6, 12] {
        let events = trace_query(&mut db, q, 0).len() as u64;
        g.throughput(Throughput::Elements(events));
        g.bench_function(format!("trace-Q{q}"), |b| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                trace_query(&mut db, q, seed)
            })
        });
    }
    g.finish();
}

fn bench_simulation(c: &mut Criterion) {
    let mut db = bench_database();
    let mut g = c.benchmark_group("stages");
    g.sample_size(10);
    for q in [3u8, 6, 12] {
        let traces: Vec<_> = (0..4)
            .map(|p| {
                let mut t = trace_query(&mut db, q, p as u64);
                t.proc_id = p;
                t
            })
            .collect();
        let events: usize = traces.iter().map(|t| t.len()).sum();
        g.throughput(Throughput::Elements(events as u64));
        g.bench_function(format!("simulate-Q{q}-baseline"), |b| {
            b.iter(|| Machine::new(MachineConfig::baseline()).run(&traces))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_build,
    bench_trace_generation,
    bench_simulation
);
criterion_main!(benches);
