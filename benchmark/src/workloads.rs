//! The four workloads as a user runs them: through `dss_core::Workbench`
//! where it has an experiment for the job, and through the crates' public
//! functions where it does not (`tracegen`, and the refresh phase of
//! `mixed`). This is the path the end-to-end metrics time.
//!
//! The traced rep in [`crate::layers`] performs the same steps one layer at a
//! time. Both paths feed their results through the `report_*` functions
//! here, so they render the same text, run the same shape checks and label
//! the same sweep points — which is what lets a run verify that the two
//! paths computed identical simulated statistics.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use dss_core::experiments::{
    self, CachePoint, LinePoint, PrefetchPair, QueryBaseline, ReuseSet, UpdateRuns,
};
use dss_core::paper::{self, ShapeCheck};
use dss_core::{report, TraceMode, Workbench, STUDIED_QUERIES};
use dss_memsim::{Machine, MachineConfig, Protocol, SimStats};
use dss_query::{
    insert_lineitems_sql, insert_orders_sql, sql_for, uf2_sql, Database, DbConfig, Session,
};
use dss_tpcd::{params, Generator};
use dss_trace::{analyze, DataClass, Trace, TraceStats};

use crate::spans::Spans;

/// Simulated processors (the paper's machine has four nodes).
pub const NPROCS: usize = 4;

/// Queries the `streamed` workload sweeps.
pub const STREAMED_QUERIES: [u8; 2] = [6, 12];

/// Worker threads of the `streamed` workload; every other workload uses one.
pub const STREAMED_JOBS: usize = 2;

/// Parameter seed offsets `tracegen` runs every template at.
pub const PARAM_BASES: [u64; 2] = [0, 1000];

/// One of the four workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Cold line-size, cache-size and prefetch sweeps over materialized
    /// traces.
    Sweep,
    /// Line-size sweeps replayed from block files by two workers.
    Streamed,
    /// All seventeen templates traced and characterized; no simulator.
    Tracegen,
    /// Baselines, warm-cache reuse runs, and an update refresh phase.
    Mixed,
}

impl Workload {
    /// All four, in [`crate::spec::WORKLOADS`] order.
    pub const ALL: [Workload; 4] = [
        Workload::Sweep,
        Workload::Streamed,
        Workload::Tracegen,
        Workload::Mixed,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        crate::spec::WORKLOADS[self as usize].name
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        crate::spec::workload_index(name).map(|i| Workload::ALL[i])
    }

    /// How much of the workload's time moves with the pace's slice (see
    /// [`crate::pace::Pace::start`]). Fitted once on this sandbox — the
    /// slope of log wall time against log slice time over reps of one seed
    /// spanning both of the host's regimes: 1.05 and 1.37 for `sweep` and
    /// `mixed`, 0.75 for `tracegen`, 0.46 for `streamed` (whose `fsync`s and
    /// block decoding do not care about the neighbours' cache use) — then
    /// rounded and frozen.
    pub fn pace_share(self) -> f64 {
        match self {
            Workload::Sweep | Workload::Mixed => 1.0,
            Workload::Tracegen => 0.75,
            Workload::Streamed => 0.5,
        }
    }

    /// Worker threads the workload's sweeps fan out over.
    pub fn jobs(self) -> usize {
        match self {
            Workload::Streamed => STREAMED_JOBS,
            _ => 1,
        }
    }
}

/// Input sizes. Frozen: changing any of them starts a new baseline.
#[derive(Clone, Copy, Debug)]
pub struct Sizing {
    /// Scale factor of `sweep`, `tracegen` and the read half of `mixed`.
    pub scale: f64,
    /// Scale factor of `streamed`: twice the others, so its traces are the
    /// largest any workload produces while its memory stays the smallest.
    pub streamed_scale: f64,
    /// Scale factor of the database `mixed` refreshes.
    pub refresh_scale: f64,
    /// Orders each processor's UF1 inserts (and its UF2 deletes).
    pub refresh_orders: usize,
}

impl Sizing {
    /// The measured sizes: half the paper's scale, so three reps of the
    /// largest workload and the set-up fit one driver run. Every footprint
    /// (7 MB of tuples and up) still dwarfs the modelled 128 KB L2.
    pub const FULL: Sizing = Sizing {
        scale: 0.005,
        streamed_scale: 0.01,
        refresh_scale: 0.005,
        refresh_orders: 750,
    };

    /// Sizes for the end-to-end test: every step of every workload, in
    /// seconds of a debug build. Shape checks are not expected to hold.
    pub const SMOKE: Sizing = Sizing {
        scale: 0.002,
        streamed_scale: 0.002,
        refresh_scale: 0.002,
        refresh_orders: 40,
    };

    /// Scale factor of the database `workload` sets up.
    pub fn scale_of(&self, workload: Workload) -> f64 {
        match workload {
            Workload::Streamed => self.streamed_scale,
            _ => self.scale,
        }
    }
}

/// The database configuration at `scale`, with room for `growth` times the
/// base population. The pool must hold the whole database (it is memory
/// resident), so it scales the way `repro --sf` scales it.
pub fn db_config(scale: f64, seed: u64, growth: f64) -> DbConfig {
    let base = DbConfig::default();
    let nbuffers = (base.nbuffers as f64 * scale / base.scale * growth).ceil() as u32;
    DbConfig {
        scale,
        seed,
        nbuffers: nbuffers.max(2048),
        ..base
    }
}

/// `Database::build`, one layer at a time: generation and load in a span
/// each, with the rows and pages they produced counted.
pub fn build_database(config: &DbConfig, rec: &mut Spans) -> Database {
    let data = rec.time("tpcd.gen", || {
        Generator::new(config.scale, config.seed).generate()
    });
    rec.count("tpcd.rows", data.total_rows() as u64);
    let db = rec.time("query.build", || Database::build_from(config, &data));
    rec.count("query.heap_pages", db.catalog.total_heap_pages());
    db
}

/// What one rep produced, on either path.
#[derive(Default)]
pub struct Outcome {
    /// Everything a user would have seen on stdout: figures, checks, tables.
    pub output: String,
    /// Every shape check run: `(name, passed)`.
    pub checks: Vec<(String, bool)>,
    /// Every reported sweep point: `(label, simulated statistics)`.
    pub points: Vec<(String, SimStats)>,
    /// Wall time `streamed` spent inside its sweeps once the block files
    /// existed: the denominator of `core.parallel_eff`. 0 elsewhere.
    pub fanout_wall_s: f64,
}

impl Outcome {
    fn figure(&mut self, text: String) {
        self.output.push_str(&text);
        self.output.push('\n');
    }

    fn checked(&mut self, checks: Vec<ShapeCheck>) {
        self.figure(paper::render_checks(&checks));
        self.checks
            .extend(checks.into_iter().map(|c| (c.name, c.ok)));
    }

    fn point(&mut self, label: String, stats: &SimStats) {
        self.points.push((label, stats.clone()));
    }
}

/// 64-bit FNV-1a, the digest every output and statistic is compared by.
pub fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(seed, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of one point's full statistics record.
pub fn point_digest(stats: &SimStats) -> u64 {
    fnv1a(FNV_OFFSET, stats.to_record().as_bytes())
}

/// Digest over every point's label and record, in order.
pub fn stats_digest(points: &[(String, SimStats)]) -> u64 {
    points.iter().fold(FNV_OFFSET, |h, (label, stats)| {
        let h = fnv1a(h, label.as_bytes());
        fnv1a(h, stats.to_record().as_bytes())
    })
}

// --- Rendering and checking, shared by both paths -------------------------

/// Figures 8 and 9 for one query.
pub fn report_line_sweep(q: u8, points: &[LinePoint], o: &mut Outcome) {
    for p in points {
        o.point(format!("fig8/Q{q}/l2_line={}", p.l2_line), &p.stats);
    }
    o.figure(report::render_fig8(q, points));
    o.checked(paper::check_fig8(q, points));
    o.figure(report::render_fig9(q, points));
    o.checked(paper::check_fig9(q, points));
}

/// Figures 10 and 11 for one query.
pub fn report_cache_sweep(q: u8, points: &[CachePoint], o: &mut Outcome) {
    for p in points {
        o.point(
            format!("fig10/Q{q}/l1_kb={}_l2_kb={}", p.l1_kb, p.l2_kb),
            &p.stats,
        );
    }
    o.figure(report::render_fig10(q, points));
    o.checked(paper::check_fig10(q, points));
    o.figure(report::render_fig11(q, points));
    o.checked(paper::check_fig11(q, points));
}

/// Figure 13.
pub fn report_prefetch(pairs: &[PrefetchPair], o: &mut Outcome) {
    for p in pairs {
        o.point(format!("fig13/Q{}/prefetch=0", p.query), &p.base);
        o.point(
            format!(
                "fig13/Q{}/prefetch={}",
                p.query,
                experiments::PREFETCH_LINES
            ),
            &p.opt,
        );
    }
    o.figure(report::render_fig13(pairs));
    o.checked(paper::check_fig13(pairs));
}

/// Figures 6 and 7 and the quoted miss rates.
pub fn report_baselines(baselines: &[QueryBaseline], o: &mut Outcome) {
    for b in baselines {
        o.point(format!("fig6/Q{}/baseline", b.query), &b.stats);
    }
    o.figure(report::render_fig6a(baselines));
    o.figure(report::render_fig6b(baselines));
    o.checked(paper::check_fig6(baselines));
    for b in baselines {
        o.figure(report::render_fig7(b));
    }
    o.checked(paper::check_fig7(baselines));
    let rates: Vec<_> = baselines.iter().map(experiments::miss_rates).collect();
    o.figure(report::render_miss_rates(&rates));
}

/// Figure 12.
pub fn report_reuse(q3: &ReuseSet, q12: &ReuseSet, o: &mut Outcome) {
    for set in [q3, q12] {
        let arm = |name| format!("fig12/Q{}v{}/{name}", set.query, set.other);
        o.point(arm("cold"), &set.cold);
        o.point(arm("warm_same"), &set.warm_same);
        o.point(arm("warm_other"), &set.warm_other);
        o.figure(report::render_fig12(set));
    }
    o.checked(paper::check_fig12(q3, q12));
}

// --- tracegen -------------------------------------------------------------

/// Every statement `tracegen` executes: `(query, processor, sql)`, all 17
/// templates on all processors at each of [`PARAM_BASES`].
///
/// The substitution parameters do not follow the benchmark seed; only the
/// data does (as in `Workbench`, whose experiments always draw parameters
/// from seed base 0). The driver judges run-to-run spread across runs of
/// different seeds, and a Q3 whose segment and date move with the seed
/// changes the work by more than any bound the benchmark could then hold.
pub fn tracegen_statements() -> impl Iterator<Item = (u8, usize, String)> {
    PARAM_BASES.into_iter().flat_map(move |base| {
        (1..=17u8).flat_map(move |q| {
            (0..NPROCS).map(move |p| (q, p, sql_for(q, &params(q, base + p as u64))))
        })
    })
}

fn rows_digest(h: u64, rows: &[Vec<dss_query::Datum>]) -> u64 {
    fnv1a(h, format!("{rows:?}").as_bytes())
}

/// What `tracegen` learned about one query template, over all its instances.
#[derive(Default)]
struct TemplateProfile {
    rows: u64,
    rows_digest: u64,
    events: u64,
    stats: TraceStats,
}

/// The `tracegen` workload: Table 1, then every template on every processor
/// with a recording tracer, reference statistics on each trace and the
/// Section 3 locality analysis on processor 0's trace of the three studied
/// queries. Nothing is simulated.
///
/// One template's four traces are alive at a time, the way
/// `Workbench::traces` holds a set. With a single trace alive, peak memory
/// was whichever instance of Q7 happened to join the most rows — 175 to
/// 227 MB across ten seeds at this scale; with a set alive it is Q1's four
/// full scans of `lineitem`, which every seed produces alike.
///
/// Returns the reference statistics summed over every trace.
pub fn tracegen(db: &mut Database, rec: &mut Spans, o: &mut Outcome) -> TraceStats {
    let span = rec.enter("core.report");
    let table1 = rec.time("query.plan", || experiments::table1(db));
    rec.count("query.statements", table1.len() as u64);
    o.figure(report::render_table1(&table1));
    rec.exit(span);

    let mut profiles: Vec<TemplateProfile> = (0..17).map(|_| TemplateProfile::default()).collect();
    let mut localities = Vec::new();
    let mut total = TraceStats::default();
    let mut set: Vec<Trace> = Vec::with_capacity(NPROCS);
    let first_pass = tracegen_statements().count() / PARAM_BASES.len();
    for (i, (q, p, sql)) in tracegen_statements().enumerate() {
        let plan = rec
            .time("query.plan", || db.plan_sql(&sql))
            .unwrap_or_else(|e| panic!("Q{q} failed to plan: {e}"));
        let mut session = Session::new(p);
        let out = rec.time("query.exec_traced", || db.run_plan(&plan, &mut session));
        set.push(session.tracer.take());
        rec.count("query.statements", 1);
        rec.count("query.rows_out", out.rows.len() as u64);
        let profile = &mut profiles[q as usize - 1];
        profile.rows += out.rows.len() as u64;
        profile.rows_digest = rows_digest(profile.rows_digest, &out.rows);
        rec.tick();
        if set.len() < NPROCS {
            continue;
        }
        // The template's set is complete: characterize it, then let it go.
        for trace in &set {
            let stats = rec.time("trace.stats", || TraceStats::from_trace(trace));
            rec.count("query.events", trace.len() as u64);
            profile.events += trace.len() as u64;
            profile.stats.merge(&stats);
            total.merge(&stats);
        }
        if i < first_pass && STUDIED_QUERIES.contains(&q) {
            let analysis = rec.time("trace.analyze", || analyze(&set[0], 64));
            rec.count("trace.analyzed_events", set[0].len() as u64);
            localities.push((q, analysis));
        }
        set.clear();
        rec.tick();
    }

    let span = rec.enter("core.report");
    let mut text = String::from("Reference characterization (all instances per template)\n");
    for (i, t) in profiles.iter().enumerate() {
        writeln!(
            text,
            "  Q{:<2} rows {:>6} (digest {:016x})  events {:>9}  refs {:>9}  priv/shared {:>5.2}  \
             busy {:>10}  locks {:>6}",
            i + 1,
            t.rows,
            t.rows_digest,
            t.events,
            t.stats.total_refs(),
            t.stats.priv_to_shared_ratio().unwrap_or(0.0),
            t.stats.busy_cycles,
            t.stats.lock_acquires,
        )
        .expect("string write");
    }
    for (q, a) in &localities {
        writeln!(
            text,
            "Locality of Q{q} on processor 0 (64-byte lines): footprint {} lines",
            a.total_footprint_lines()
        )
        .expect("string write");
        for (class, c) in &a.classes {
            writeln!(
                text,
                "  {:<10} refs {:>9}  lines {:>7}  sequential {:.3}  reused<=256 {:.3}  cold {:.3}",
                class.label(),
                c.refs,
                c.footprint_lines,
                c.sequentiality(),
                c.reuse.reused_within(256),
                c.reuse.cold_fraction(),
            )
            .expect("string write");
        }
    }
    o.figure(text);
    rec.exit(span);
    total
}

// --- the refresh phase of `mixed` -----------------------------------------

/// Machine configurations the refresh traces are simulated under. The
/// baseline already has 64-byte L2 lines, so the line-size variant is 128.
pub fn refresh_configs() -> [(&'static str, MachineConfig); 3] {
    [
        ("msi", MachineConfig::baseline()),
        (
            "mesi",
            MachineConfig::baseline().with_protocol(Protocol::Mesi),
        ),
        ("line128", MachineConfig::baseline().with_line_size(128)),
    ]
}

/// The refresh phase: on a database of its own, each processor inserts
/// `refresh_orders` new orders with their lineitems (UF1) and deletes as
/// many old ones (UF2) over key ranges disjoint from every other
/// processor's; `orders` and `lineitem` are vacuumed; each processor then
/// runs Q6 over the refreshed tables in the same session. The four traces
/// are simulated under [`refresh_configs`].
///
/// This is the engine's write path (heap insert, b-tree maintenance,
/// write-mode locks) and the simulator under write sharing — neither of
/// which any read-only sweep reaches. Returns the four traces.
pub fn refresh(sizing: &Sizing, seed: u64, rec: &mut Spans, o: &mut Outcome) -> Vec<Trace> {
    // Room for the inserted tuples and the index pages they split.
    let config = db_config(sizing.refresh_scale, seed, 1.5);
    let generator = Generator::new(config.scale, config.seed);
    let mut db = build_database(&config, rec);
    rec.tick();

    let per_proc = sizing.refresh_orders;
    let mut sessions: Vec<Session> = (0..NPROCS).map(Session::new).collect();
    let (mut inserted, mut deleted) = (0u64, 0u64);
    fn write(db: &mut Database, sql: &str, session: &mut Session, rec: &mut Spans) -> u64 {
        rec.count("query.statements", 1);
        rec.time("query.write", || db.execute(sql, session))
            .unwrap_or_else(|e| panic!("refresh statement failed: {e}"))
            .affected()
            .expect("a write reports its affected rows")
    }
    for (p, session) in sessions.iter_mut().enumerate() {
        // UF1: fresh orders in a per-processor key range above the population.
        let base = 10_000_000 + p as i64 * 1_000_000;
        let (orders, lineitems) = rec.time("tpcd.gen", || {
            generator.uf1_rows(seed + p as u64, per_proc, base)
        });
        inserted += write(&mut db, &insert_orders_sql(&orders), session, rec);
        inserted += write(&mut db, &insert_lineitems_sql(&lineitems), session, rec);
        // UF2: a disjoint slice of the original population.
        let lo = 1 + (p * per_proc) as i64;
        for sql in uf2_sql(lo, lo + per_proc as i64 - 1) {
            deleted += write(&mut db, &sql, session, rec);
        }
        rec.tick();
    }
    rec.count("query.rows_written", inserted + deleted);
    rec.time("query.write", || {
        for table in ["orders", "lineitem"] {
            db.vacuum(table).expect("refreshed table exists");
        }
    });
    rec.tick();
    for (p, session) in sessions.iter_mut().enumerate() {
        let sql = sql_for(6, &params(6, p as u64));
        let plan = rec
            .time("query.plan", || db.plan_sql(&sql))
            .unwrap_or_else(|e| panic!("Q6 failed to plan: {e}"));
        let out = rec.time("query.exec_traced", || db.run_plan(&plan, session));
        rec.count("query.statements", 1);
        rec.count("query.rows_out", out.rows.len() as u64);
    }
    let traces: Vec<Trace> = sessions.iter().map(|s| s.tracer.take()).collect();
    let events: u64 = traces.iter().map(|t| t.len() as u64).sum();
    rec.count("query.events", events);
    rec.count("refresh.events", events);

    let runs: Vec<(&str, UpdateRuns)> = refresh_configs()
        .into_iter()
        .map(|(label, cfg)| {
            rec.tick();
            let stats = rec.time("memsim.run", || Machine::new(cfg).run(&traces));
            rec.count("memsim.points", 1);
            rec.count("memsim.events", events);
            (
                label,
                UpdateRuns {
                    stats,
                    inserted,
                    deleted,
                },
            )
        })
        .collect();
    rec.time("core.report", || {
        for (label, run) in &runs {
            o.point(format!("refresh/{label}"), &run.stats);
            o.figure(format!("[{label}] {}", report::render_ext_updates(run)));
        }
    });
    traces
}

// --- the timed path --------------------------------------------------------

/// Points the workbench at block files under `dir`. The one place the
/// benchmark selects a trace mode, so a later change to how `dss-core`
/// spells that choice is a change to this function only.
fn stream_traces_from(wb: &mut Workbench, dir: &Path) {
    wb.set_trace_dir(dir.to_path_buf());
    wb.set_trace_mode(TraceMode::Streamed);
}

/// Runs `workload` once on the user's path. `wb` is the freshly built
/// workbench (set-up is timed by the caller); `tmp` is a private directory
/// for `streamed`'s block files; `rec` is a disabled recorder whose pace is
/// ticked between experiments.
pub fn run(
    workload: Workload,
    wb: &mut Workbench,
    sizing: &Sizing,
    seed: u64,
    tmp: &Path,
    rec: &mut Spans,
) -> Outcome {
    let mut o = Outcome::default();
    wb.set_jobs(workload.jobs());
    match workload {
        Workload::Sweep => {
            for q in STUDIED_QUERIES {
                report_line_sweep(q, &wb.line_size_sweep(q), &mut o);
                rec.tick();
            }
            for q in STUDIED_QUERIES {
                report_cache_sweep(q, &wb.cache_size_sweep(q), &mut o);
                rec.tick();
            }
            let pairs: Vec<_> = STUDIED_QUERIES
                .iter()
                .map(|q| {
                    let pair = wb.prefetch_experiment(*q);
                    rec.tick();
                    pair
                })
                .collect();
            report_prefetch(&pairs, &mut o);
        }
        Workload::Streamed => {
            stream_traces_from(wb, tmp);
            for q in STREAMED_QUERIES {
                // Record the block files first, so the sweep's own wall time
                // is fan-out and replay alone.
                wb.source(q, 0);
                rec.tick();
                let start = Instant::now();
                let points = wb.line_size_sweep(q);
                o.fanout_wall_s += start.elapsed().as_secs_f64();
                report_line_sweep(q, &points, &mut o);
                rec.tick();
            }
        }
        Workload::Tracegen => {
            tracegen(&mut wb.db, rec, &mut o);
        }
        Workload::Mixed => {
            report_baselines(&wb.baseline_suite(&STUDIED_QUERIES), &mut o);
            rec.tick();
            let q3 = wb.reuse_experiment(3, 12);
            rec.tick();
            let q12 = wb.reuse_experiment(12, 3);
            rec.tick();
            report_reuse(&q3, &q12, &mut o);
            drop(refresh(sizing, seed, rec, &mut o));
        }
    }
    o
}

/// References of the classes each substrate owns, from reference statistics:
/// `(btree, bufcache, lockmgr, private heap, tuple data)`.
pub fn refs_by_substrate(stats: &TraceStats) -> [(&'static str, u64); 5] {
    let sum = |classes: &[DataClass]| classes.iter().map(|c| stats.refs(*c)).sum();
    [
        ("btree.refs", sum(&[DataClass::Index])),
        (
            "bufcache.refs",
            sum(&[
                DataClass::BufDesc,
                DataClass::BufLookup,
                DataClass::BufMgrLock,
            ]),
        ),
        (
            "lockmgr.refs",
            sum(&[
                DataClass::LockHash,
                DataClass::XidHash,
                DataClass::LockMgrLock,
            ]),
        ),
        ("shmem.priv_refs", sum(&[DataClass::PrivHeap])),
        (
            "query.data_refs",
            sum(&[DataClass::Data, DataClass::SharedMisc]),
        ),
    ]
}
