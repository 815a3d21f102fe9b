//! The traced rep: each workload's steps performed by the benchmark itself,
//! one public call per layer, each call inside a span.
//!
//! `Generator::generate` → `Database::build_from` → `Database::plan_sql` /
//! `run_plan` / `execute` with `Session::new` → `BlockWriter::write_block` /
//! `BlockReader::next_block` → `Machine::new(cfg).run` / `run_source` →
//! `analyze` → `report::render_*` / `paper::check_*`. Layers are measured
//! from outside; nothing inside the crates is instrumented. The per-point
//! statistics this path computes must equal the `Workbench` path's exactly —
//! the run checks it — and that equality is what licenses reading layer
//! times off a call path the user never takes.
//!
//! Three root spans partition the rep. `setup` is database generation and
//! load. `rep` mirrors the timed region step for step, on one thread; its
//! duration against the timed reps' median is the tracing overhead. `probes`
//! holds work done only to attribute time: the same statements re-executed
//! untraced, block files replayed as slices, the substrate micro-probes.
//! Probe work that has to happen in the middle of `rep` (reference
//! statistics on a trace about to be dropped) runs with the recorder's clock
//! stopped, so it appears in no span.
//!
//! The benchmark calls only API the ROADMAP's collapse keeps: no
//! `write_trace`/`read_trace`, `sim_points*`, `split_jobs`, pipeline types,
//! `run_into`/`run_source_into`, or `Workbench::take_*`.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use dss_core::experiments::{
    CachePoint, LinePoint, PrefetchPair, QueryBaseline, ReuseSet, CACHE_SIZES_KB, LINE_SIZES,
    PREFETCH_LINES, REUSE_CACHES_KB,
};
use dss_core::STUDIED_QUERIES;
use dss_memsim::{Machine, MachineConfig, SimStats};
use dss_query::{sql_for, Database, Session};
use dss_tpcd::params;
use dss_trace::{
    materialize, BlockWriter, FileTraceSource, Trace, TraceStats, DEFAULT_BLOCK_EVENTS,
};

use crate::spans::Spans;
use crate::streams::{IoMeter, TimedFile, TimedFileSource};
use crate::workloads::{
    build_database, db_config, refresh, refs_by_substrate, report_baselines, report_cache_sweep,
    report_line_sweep, report_prefetch, report_reuse, tracegen, tracegen_statements, Outcome,
    Sizing, Workload, NPROCS, STREAMED_QUERIES,
};

/// The sweep point `memsim.stream_overhead_s` is measured at.
const OVERHEAD_PROBE_LINE: u64 = 64;

/// What the traced rep hands back. Every time is in seconds at reference
/// speed (see [`crate::pace`]); the recording itself stays in host
/// nanoseconds.
pub struct Traced {
    /// Output, checks and points — to be compared with the timed reps'.
    pub outcome: Outcome,
    /// The recording.
    pub spans: Spans,
    /// Reference seconds per host second while the rep ran.
    pub speed_factor: f64,
    /// Every per-layer metric this rep can compute on its own. The parent
    /// adds the few that need the timed reps' median.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Duration of the `rep` root: the traced counterpart of `wall_s`.
    pub wall_s: f64,
    /// Self time per span name under `rep`.
    pub self_s: BTreeMap<String, f64>,
    /// Summed one-thread time of every sweep point, replay included: the
    /// numerator of `core.parallel_eff`.
    pub point_work_s: f64,
}

struct Rep {
    rec: Spans,
    db: Database,
    o: Outcome,
    /// Statements executed traced inside `rep` that `probes` re-executes
    /// untraced, and the traced time they took.
    probed: Vec<(usize, String)>,
    probed_traced_s: f64,
    /// Reference statistics over every trace the rep generated.
    refs: TraceStats,
    /// Block files `streamed` wrote, per query.
    files: Vec<BlockFiles>,
    point_work_s: f64,
}

/// One query's per-processor block files.
#[derive(Clone)]
struct BlockFiles {
    paths: Vec<PathBuf>,
    /// Events in them, all processors together.
    events: u64,
    /// Time the [`OVERHEAD_PROBE_LINE`] point took through `run_source`.
    probe_point_s: f64,
}

fn events_in(traces: &[Trace]) -> u64 {
    traces.iter().map(|t| t.len() as u64).sum()
}

impl Rep {
    /// Processor `p`'s trace of `query` — one iteration of what
    /// `Workbench::traces` does.
    fn gen_trace(&mut self, query: u8, seed_base: u64, p: usize) -> Trace {
        let sql = sql_for(query, &params(query, seed_base + p as u64));
        let plan = self
            .rec
            .time("query.plan", || self.db.plan_sql(&sql))
            .unwrap_or_else(|e| panic!("Q{query} failed to plan: {e}"));
        let mut session = Session::new(p);
        let start = Instant::now();
        let out = self.rec.time("query.exec_traced", || {
            self.db.run_plan(&plan, &mut session)
        });
        self.probed_traced_s += start.elapsed().as_secs_f64();
        let trace = session.tracer.take();
        self.rec.count("query.statements", 1);
        self.rec.count("query.rows_out", out.rows.len() as u64);
        self.rec.count("query.events", trace.len() as u64);
        self.probed.push((p, sql));
        self.note_refs(std::slice::from_ref(&trace));
        trace
    }

    fn gen_set(&mut self, query: u8, seed_base: u64) -> Vec<Trace> {
        let set = (0..NPROCS)
            .map(|p| self.gen_trace(query, seed_base, p))
            .collect();
        self.rec.tick();
        set
    }

    /// Folds traces into the rep's reference statistics, off the clock: the
    /// user's path computes these only in `tracegen`.
    fn note_refs(&mut self, traces: &[Trace]) {
        let stats = self.rec.off_the_clock(|| TraceStats::from_traces(traces));
        self.refs.merge(&stats);
    }

    /// One cold sweep point.
    fn sim(&mut self, cfg: MachineConfig, traces: &[Trace]) -> SimStats {
        self.sim_warm(cfg, None, traces)
    }

    /// One point on a fresh machine, optionally warmed by another set first.
    fn sim_warm(
        &mut self,
        cfg: MachineConfig,
        warm: Option<&[Trace]>,
        traces: &[Trace],
    ) -> SimStats {
        self.rec.count("memsim.points", 1);
        self.rec.count(
            "memsim.events",
            warm.map_or(0, events_in) + events_in(traces),
        );
        let start = Instant::now();
        let stats = self.rec.time("memsim.run", || {
            let mut machine = Machine::new(cfg);
            if let Some(warm) = warm {
                machine.run(warm);
            }
            machine.run(traces)
        });
        self.point_work_s += start.elapsed().as_secs_f64();
        self.rec.tick();
        stats
    }

    fn report(&mut self, f: impl FnOnce(&mut Outcome)) {
        self.rec.time("core.report", || f(&mut self.o));
        self.rec.tick();
    }

    fn sweep(&mut self) {
        let sets: Vec<(u8, Vec<Trace>)> = STUDIED_QUERIES
            .iter()
            .map(|&q| (q, self.gen_set(q, 0)))
            .collect();
        for (q, traces) in &sets {
            let points: Vec<LinePoint> = LINE_SIZES
                .iter()
                .map(|&l2_line| LinePoint {
                    l2_line,
                    stats: self.sim(MachineConfig::baseline().with_line_size(l2_line), traces),
                })
                .collect();
            self.report(|o| report_line_sweep(*q, &points, o));
        }
        for (q, traces) in &sets {
            let points: Vec<CachePoint> = CACHE_SIZES_KB
                .iter()
                .map(|&(l1_kb, l2_kb)| CachePoint {
                    l1_kb,
                    l2_kb,
                    stats: self.sim(
                        MachineConfig::baseline().with_cache_sizes(l1_kb * 1024, l2_kb * 1024),
                        traces,
                    ),
                })
                .collect();
            self.report(|o| report_cache_sweep(*q, &points, o));
        }
        let pairs: Vec<PrefetchPair> = sets
            .iter()
            .map(|(q, traces)| PrefetchPair {
                query: *q,
                base: self.sim(MachineConfig::baseline(), traces),
                opt: self.sim(
                    MachineConfig::baseline().with_data_prefetch(PREFETCH_LINES),
                    traces,
                ),
            })
            .collect();
        self.report(|o| report_prefetch(&pairs, o));
    }

    /// `streamed`, with the codec and the file system pulled apart. One
    /// trace at a time is recorded, encoded through `BlockWriter` into an
    /// 8 KB-buffered file and made durable (the program's own policy:
    /// `sync_all` per file, then the directory); every sweep point then
    /// replays the files through `run_source`, a block at a time.
    fn streamed(&mut self, dir: &Path) {
        for q in STREAMED_QUERIES {
            let mut events = 0;
            let paths: Vec<PathBuf> = (0..NPROCS)
                .map(|p| {
                    let trace = self.gen_trace(q, 0, p);
                    events += trace.len() as u64;
                    let path = FileTraceSource::proc_path(dir, &format!("traced.q{q}"), p);
                    self.write_blocks(&trace, &path)
                        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
                    self.rec.tick();
                    path
                })
                .collect();
            self.rec
                .time("trace.file_write", || dss_core::fsync_dir(Some(dir)))
                .unwrap_or_else(|e| panic!("fsync {}: {e}", dir.display()));
            self.files.push(BlockFiles {
                paths,
                events,
                probe_point_s: 0.0,
            });
        }
        for (i, q) in STREAMED_QUERIES.into_iter().enumerate() {
            let files = self.files[i].clone();
            let points: Vec<LinePoint> = LINE_SIZES
                .iter()
                .map(|&l2_line| {
                    let start = Instant::now();
                    let stats =
                        self.replay(MachineConfig::baseline().with_line_size(l2_line), &files);
                    let took = start.elapsed().as_secs_f64();
                    self.point_work_s += took;
                    self.rec.tick();
                    if l2_line == OVERHEAD_PROBE_LINE {
                        self.files[i].probe_point_s = took;
                    }
                    LinePoint { l2_line, stats }
                })
                .collect();
            self.report(|o| report_line_sweep(q, &points, o));
        }
    }

    /// Encodes `trace` into a block file at `path`. The `trace.encode` span
    /// covers the whole `BlockWriter` pass; the time its buffered writer
    /// spent inside `write(2)` is attached as one `trace.file_write` child
    /// at the span's start, and `sync_all` is a `trace.file_write` of its
    /// own. So encode self time is codec time alone.
    fn write_blocks(&mut self, trace: &Trace, path: &Path) -> std::io::Result<()> {
        let meter = Arc::new(IoMeter::default());
        let file = File::create(path)?;
        let sink = BufWriter::new(TimedFile::new(file.try_clone()?, Arc::clone(&meter)));
        let span = self.rec.enter("trace.encode");
        let start_ns = self.rec.clock().now_ns();
        let mut writer = BlockWriter::new(sink, trace.proc_id)?;
        for block in trace.events.chunks(DEFAULT_BLOCK_EVENTS) {
            writer.write_block(block)?;
        }
        writer.finish()?;
        self.rec.exit(span);
        self.rec
            .attach(span, "trace.file_write", start_ns, start_ns + meter.ns());
        self.rec.time("trace.file_write", || file.sync_all())?;
        self.rec.count("trace.bytes", meter.bytes());
        self.rec.count("trace.blocks", writer.blocks_written());
        self.rec.count("trace.encoded_events", trace.len() as u64);
        Ok(())
    }

    /// One sweep point over block files. Every `next_block` call the
    /// simulator makes becomes a `trace.decode` span under the point's
    /// `memsim.run`, holding the file time of that block as a
    /// `trace.file_read` child; memsim self time is what is left.
    fn replay(&mut self, cfg: MachineConfig, files: &BlockFiles) -> SimStats {
        let source = TimedFileSource::new(files.paths.clone(), self.rec.clock());
        let span = self.rec.enter("memsim.run");
        let stats = Machine::new(cfg)
            .run_source(&source)
            .unwrap_or_else(|e| panic!("trace stream failed: {e}"));
        self.rec.exit(span);
        let (log, bytes) = source.into_log();
        for block in log {
            let decode = self
                .rec
                .attach(span, "trace.decode", block.start_ns, block.end_ns);
            self.rec.attach(
                decode,
                "trace.file_read",
                block.start_ns,
                block.start_ns + block.read_ns,
            );
        }
        self.rec.count("trace.decoded_bytes", bytes);
        self.rec.count("memsim.points", 1);
        self.rec.count("memsim.events", files.events);
        stats
    }

    fn mixed(&mut self, sizing: &Sizing, seed: u64) {
        // The five sets `baseline_suite` and the two `reuse_experiment`
        // calls generate between them (the workbench's four-slot cache
        // regenerates none of them).
        let measured: Vec<(u8, Vec<Trace>)> = STUDIED_QUERIES
            .iter()
            .map(|&q| (q, self.gen_set(q, 0)))
            .collect();
        let baselines: Vec<QueryBaseline> = measured
            .iter()
            .map(|(q, traces)| QueryBaseline {
                query: *q,
                stats: self.sim(MachineConfig::baseline(), traces),
            })
            .collect();
        self.report(|o| report_baselines(&baselines, o));

        fn set_of(measured: &[(u8, Vec<Trace>)], q: u8) -> &[Trace] {
            &measured.iter().find(|(m, _)| *m == q).expect("studied").1
        }
        let warm3 = self.gen_set(3, 1000);
        let warm12 = self.gen_set(12, 1000);
        let (l1_kb, l2_kb) = REUSE_CACHES_KB;
        let cfg = MachineConfig::baseline().with_cache_sizes(l1_kb * 1024, l2_kb * 1024);
        let mut reuse = |query: u8, other: u8, same: &[Trace], cross: &[Trace]| ReuseSet {
            query,
            other,
            cold: self.sim_warm(cfg.clone(), None, set_of(&measured, query)),
            warm_same: self.sim_warm(cfg.clone(), Some(same), set_of(&measured, query)),
            warm_other: self.sim_warm(cfg.clone(), Some(cross), set_of(&measured, query)),
        };
        let q3 = reuse(3, 12, &warm3, &warm12);
        let q12 = reuse(12, 3, &warm12, &warm3);
        self.report(|o| report_reuse(&q3, &q12, o));

        // The workbench still holds its cached sets while the refresh phase
        // runs; so do we.
        let traces = refresh(sizing, seed, &mut self.rec, &mut self.o);
        self.note_refs(&traces);
    }

    /// Probe: re-executes every probed statement with a disabled tracer —
    /// the engine's time without the tracer's.
    fn probe_untraced(&mut self) -> f64 {
        let mut total = 0.0;
        for (p, sql) in std::mem::take(&mut self.probed) {
            let plan = self.db.plan_sql(&sql).expect("planned once already");
            let mut session = Session::untraced(p);
            let start = Instant::now();
            let out = self.rec.time("query.exec_untraced", || {
                self.db.run_plan(&plan, &mut session)
            });
            total += start.elapsed().as_secs_f64();
            std::hint::black_box(out);
            self.rec.tick();
        }
        total
    }

    /// Probe: each query's block files materialized and simulated as slices
    /// at [`OVERHEAD_PROBE_LINE`]. Returns the time `run_source` took for
    /// those points in `rep` minus the time `run` takes here: what streaming
    /// (file, codec, block hand-off) adds to a point.
    fn probe_stream_overhead(&mut self) -> f64 {
        let mut overhead = 0.0;
        for files in std::mem::take(&mut self.files) {
            let traces = materialize(&FileTraceSource::new(files.paths))
                .unwrap_or_else(|e| panic!("trace stream failed: {e}"));
            let cfg = MachineConfig::baseline().with_line_size(OVERHEAD_PROBE_LINE);
            let start = Instant::now();
            let stats = self
                .rec
                .time("memsim.run", || Machine::new(cfg).run(&traces));
            overhead += files.probe_point_s - start.elapsed().as_secs_f64();
            std::hint::black_box(stats);
            self.rec.tick();
        }
        overhead
    }
}

/// Performs one traced rep of `workload`. `tmp` is a private directory for
/// block files.
pub fn run(workload: Workload, sizing: &Sizing, seed: u64, tmp: &Path) -> Traced {
    // The traced rep runs on one thread whatever the workload's job count.
    let mut rec = Spans::on().paced(1, workload.pace_share());

    let setup = rec.enter("setup");
    let config = db_config(sizing.scale_of(workload), seed, 1.0);
    let db = build_database(&config, &mut rec);
    rec.exit(setup);
    rec.tick();

    let mut rep = Rep {
        rec,
        db,
        o: Outcome::default(),
        probed: Vec::new(),
        probed_traced_s: 0.0,
        refs: TraceStats::default(),
        files: Vec::new(),
        point_work_s: 0.0,
    };
    let root = rep.rec.enter("rep");
    match workload {
        Workload::Sweep => rep.sweep(),
        Workload::Streamed => rep.streamed(tmp),
        Workload::Tracegen => {
            rep.refs = tracegen(&mut rep.db, &mut rep.rec, &mut rep.o);
            rep.probed = tracegen_statements().map(|(_, p, sql)| (p, sql)).collect();
        }
        Workload::Mixed => rep.mixed(sizing, seed),
    }
    rep.rec.exit(root);
    if workload == Workload::Tracegen {
        // Every traced execution in `tracegen` is probed, so the traced side
        // of the comparison is the whole of its exec self time.
        rep.probed_traced_s = rep.rec.self_by_name("rep")["query.exec_traced"];
    }

    let probes = rep.rec.enter("probes");
    let untraced_s = rep.probe_untraced();
    let stream_overhead_s = rep.probe_stream_overhead();
    let substrates = if workload == Workload::Tracegen {
        crate::probes::substrates(&mut rep.rec)
    } else {
        Vec::new()
    };
    rep.rec.exit(probes);

    // One factor for the whole rep: host speed wobbles within it, but the
    // layer times are summed over all of it.
    let speed_factor = rep
        .rec
        .finish_pace()
        .expect("the recorder was paced")
        .factor();
    let mut metrics = layer_metrics(&rep, untraced_s * speed_factor, speed_factor);
    metrics.insert("memsim.stream_overhead_s", stream_overhead_s * speed_factor);
    metrics.extend(
        substrates
            .into_iter()
            .map(|(name, per_op)| (name, per_op * speed_factor)),
    );
    let scaled = |s: f64| s * speed_factor;
    Traced {
        wall_s: scaled(rep.rec.root_s("rep")),
        self_s: rep
            .rec
            .self_by_name("rep")
            .into_iter()
            .map(|(name, s)| (name, scaled(s)))
            .collect(),
        point_work_s: scaled(rep.point_work_s),
        outcome: rep.o,
        spans: rep.rec,
        speed_factor,
        metrics,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics the rep can compute alone. `untraced_s` is already
/// at reference speed; every other time is scaled by `speed_factor` here.
fn layer_metrics(rep: &Rep, untraced_s: f64, speed_factor: f64) -> BTreeMap<&'static str, f64> {
    let rec = &rep.rec;
    // Layer time is self time under `rep`, plus `setup` for the two layers
    // that also run there. `probes` is never counted.
    let mut own = rec.self_by_name("rep");
    for (name, s) in rec.self_by_name("setup") {
        *own.entry(name).or_insert(0.0) += s;
    }
    let self_s = |name: &str| own.get(name).copied().unwrap_or(0.0) * speed_factor;
    let count = |name: &str| rec.counted(name) as f64;
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

    m.insert("tpcd.rows", count("tpcd.rows"));
    m.insert("tpcd.gen_s", self_s("tpcd.gen"));
    m.insert(
        "tpcd.mrows_per_s",
        ratio(count("tpcd.rows") / 1e6, self_s("tpcd.gen")),
    );
    m.insert("query.build_s", self_s("query.build"));
    m.insert("query.heap_pages", count("query.heap_pages"));
    m.insert("query.plan_s", self_s("query.plan"));
    m.insert("query.statements", count("query.statements"));
    m.insert("query.exec_untraced_s", untraced_s);
    m.insert("query.rows_out", count("query.rows_out"));
    m.insert("query.exec_traced_s", self_s("query.exec_traced"));
    m.insert("query.events", count("query.events"));
    m.insert(
        "query.mevents_per_s",
        ratio(
            count("query.events") / 1e6,
            self_s("query.exec_traced") + self_s("query.write"),
        ),
    );
    m.insert("query.write_s", self_s("query.write"));
    m.insert("query.rows_written", count("query.rows_written"));
    for (name, refs) in refs_by_substrate(&rep.refs) {
        m.insert(name, refs as f64);
    }
    // Reported by `tracegen` only; 0 elsewhere.
    for name in [
        "btree.lookup_ns",
        "bufcache.pin_unpin_ns",
        "lockmgr.acquire_release_ns",
        "sql.parse_us",
    ] {
        m.insert(name, 0.0);
    }
    // Events of the probed statements: all of them except the refresh
    // phase's, whose writes cannot be executed twice.
    let probed_events = count("query.events") - count("refresh.events");
    let record_s = rep.probed_traced_s * speed_factor - untraced_s;
    m.insert("trace.record_s", record_s);
    m.insert(
        "trace.record_ns_per_event",
        ratio(record_s * 1e9, probed_events),
    );
    m.insert("trace.bytes", count("trace.bytes"));
    m.insert("trace.blocks", count("trace.blocks"));
    m.insert(
        "trace.bytes_per_event",
        ratio(count("trace.bytes"), count("trace.encoded_events")),
    );
    m.insert("trace.encode_s", self_s("trace.encode"));
    m.insert(
        "trace.encode_mb_per_s",
        ratio(count("trace.bytes") / 1e6, self_s("trace.encode")),
    );
    m.insert("trace.decode_s", self_s("trace.decode"));
    m.insert(
        "trace.decode_mb_per_s",
        ratio(count("trace.decoded_bytes") / 1e6, self_s("trace.decode")),
    );
    m.insert("trace.file_write_s", self_s("trace.file_write"));
    m.insert("trace.file_read_s", self_s("trace.file_read"));
    m.insert("trace.analyze_s", self_s("trace.analyze"));
    m.insert(
        "trace.analyze_mevents_per_s",
        ratio(
            count("trace.analyzed_events") / 1e6,
            self_s("trace.analyze"),
        ),
    );

    let point_ms: Vec<f64> = rec
        .durations_ms("rep", "memsim.run")
        .into_iter()
        .map(|ms| ms * speed_factor)
        .collect();
    let summary = crate::stats::Summary::of(&point_ms);
    m.insert("memsim.points", count("memsim.points"));
    m.insert("memsim.events", count("memsim.events"));
    m.insert("memsim.run_s", self_s("memsim.run"));
    m.insert(
        "memsim.ns_per_event",
        ratio(self_s("memsim.run") * 1e9, count("memsim.events")),
    );
    m.insert(
        "memsim.mevents_per_s",
        ratio(count("memsim.events") / 1e6, self_s("memsim.run")),
    );
    m.insert("memsim.point_ms_p50", summary.map_or(0.0, |s| s.median));
    m.insert("memsim.point_ms_max", summary.map_or(0.0, |s| s.max));
    let points = &rep.o.points;
    let sum = |f: &dyn Fn(&SimStats) -> u64| points.iter().map(|(_, s)| f(s)).sum::<u64>() as f64;
    m.insert("memsim.sim_cycles", sum(&|s| s.exec_cycles()));
    m.insert("memsim.busy_cycles", sum(&|s| s.total(|p| p.busy)));
    m.insert(
        "memsim.mem_stall_cycles",
        sum(&|s| s.total(|p| p.mem_stall)),
    );
    m.insert("memsim.sync_cycles", sum(&|s| s.total(|p| p.msync)));
    m.insert("memsim.l1_read_misses", sum(&|s| s.l1.read_misses.total()));
    m.insert("memsim.l2_read_misses", sum(&|s| s.l2.read_misses.total()));
    m.insert("core.report_s", self_s("core.report"));
    m
}
