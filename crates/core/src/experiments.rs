//! Runners for every table and figure in the paper's evaluation.
//!
//! The experiment API lives on [`Workbench`]: each method generates (or
//! reuses) the traces it needs and runs the memory-hierarchy simulator at the
//! appropriate configurations, fanning independent sweep points across up to
//! [`Workbench::jobs`] worker threads through one point runner
//! (`Workbench::fan_out_labeled`) — with results bit-identical to a serial
//! run at any job count. The returned
//! structs carry raw [`SimStats`]; rendering to the paper's chart shapes
//! lives in [`crate::report`].
//!
//! Every sweep consumes its traces through [`crate::SimSource`], so the same
//! experiment code runs over materialized sets or, once
//! [`Workbench::set_trace_dir`] names a spill directory, block files — with
//! bit-identical results.

use std::sync::Mutex;
use std::time::Instant;

use dss_faultkit::crash::crash_point;
use dss_memsim::{Machine, MachineConfig, Protocol, SimStats};
use dss_query::{Database, PlanFeatures};
use dss_tpcd::params;
use dss_trace::ProcPrefix;

use crate::checkpoint::CheckpointJournal;
use crate::sim::run_points;
use crate::workload::{SimSource, Workbench};

/// L2 line sizes swept by Figures 8 and 9 (L1 lines are half).
pub const LINE_SIZES: [u64; 5] = [16, 32, 64, 128, 256];

/// `(L1 KB, L2 KB)` cache sizes swept by Figures 10 and 11, from the
/// baseline "4-Kbyte primary and 128-Kbyte secondary caches to 256-Kbyte
/// primary and 8-Mbyte secondary caches".
pub const CACHE_SIZES_KB: [(u64, u64); 4] = [(4, 128), (16, 512), (64, 2048), (256, 8192)];

/// The very large caches of the inter-query reuse experiment (Figure 12):
/// "a 1-Mbyte primary cache and a 32-Mbyte secondary cache … to identify the
/// upper bound on the data reuse".
pub const REUSE_CACHES_KB: (u64, u64) = (1024, 32 * 1024);

/// The prefetch degree of Section 6: four primary-cache lines.
pub const PREFETCH_LINES: u32 = 4;

/// Prefetch degrees swept by the prefetch-depth ablation.
pub const PREFETCH_DEGREES: [u32; 5] = [0, 1, 2, 4, 8];

/// Processor counts swept by the scaling experiment.
pub const PROC_COUNTS: [usize; 3] = [1, 2, 4];

/// Baseline simulation of one query type (Figures 6 and 7, and the quoted
/// miss rates).
#[derive(Clone, Debug)]
pub struct QueryBaseline {
    /// The query (3, 6, or 12).
    pub query: u8,
    /// Simulation results at the baseline machine.
    pub stats: SimStats,
}

/// One point of the line-size sweep.
#[derive(Clone, Debug)]
pub struct LinePoint {
    /// Secondary-cache line size in bytes.
    pub l2_line: u64,
    /// Results.
    pub stats: SimStats,
}

/// One point of the cache-size sweep.
#[derive(Clone, Debug)]
pub struct CachePoint {
    /// Primary cache size in KB.
    pub l1_kb: u64,
    /// Secondary cache size in KB.
    pub l2_kb: u64,
    /// Results.
    pub stats: SimStats,
}

/// Figure 12 results for one measured query: cold caches, caches warmed by
/// another instance of the same query (different parameters), and caches
/// warmed by the other query type.
#[derive(Clone, Debug)]
pub struct ReuseSet {
    /// The measured query.
    pub query: u8,
    /// The other query type used for the third warm-up.
    pub other: u8,
    /// Cold-start run.
    pub cold: SimStats,
    /// Run after warming with the same query type, different parameters.
    pub warm_same: SimStats,
    /// Run after warming with `other`.
    pub warm_other: SimStats,
}

/// Figure 13 results for one query: baseline vs. baseline plus the simple
/// sequential prefetcher for database data.
#[derive(Clone, Debug)]
pub struct PrefetchPair {
    /// The query.
    pub query: u8,
    /// Baseline run.
    pub base: SimStats,
    /// Run with 4-line data prefetching.
    pub opt: SimStats,
}

impl PrefetchPair {
    /// Relative execution-time change of the optimized run (negative =
    /// speedup).
    pub fn delta(&self) -> f64 {
        self.opt.exec_cycles() as f64 / self.base.exec_cycles() as f64 - 1.0
    }
}

/// Coherence-protocol ablation for one query: the paper's MSI baseline
/// against a MESI variant whose exclusive-clean state absorbs first writes.
#[derive(Clone, Debug)]
pub struct ProtocolAblation {
    /// The query.
    pub query: u8,
    /// The paper's protocol.
    pub msi: SimStats,
    /// The MESI variant.
    pub mesi: SimStats,
}

/// One sweep point by value: a fresh machine of `cfg`, optionally warmed by
/// replaying the `warm` trace set first, then measured over the `measured`
/// one. Sets are named by `(query, seed_base)`.
struct Point {
    label: String,
    cfg: MachineConfig,
    warm: Option<(u8, u64)>,
    measured: (u8, u64),
}

/// A [`Point`] with its trace sources in hand, ready for a worker.
struct PointTask {
    cfg: MachineConfig,
    warm: Option<SimSource>,
    source: SimSource,
}

impl PointTask {
    /// Simulates the point: every replay feeds the machine the leading
    /// `cfg.nprocs` traces of its source — a materialized set in place,
    /// block files a block at a time. A stream failure panics, naming the
    /// file, and aborts the run like any other failing point.
    fn run(&self) -> SimStats {
        let mut machine = Machine::new(self.cfg.clone());
        let nprocs = self.cfg.nprocs;
        let mut replay = |src: &SimSource| match src {
            SimSource::Set(set) => machine.run(&set[..nprocs.min(set.len())]),
            SimSource::Files(files) => machine
                .run_source(&ProcPrefix::new(files, nprocs))
                .unwrap_or_else(|e| panic!("trace stream failed: {e}")),
        };
        if let Some(warm) = &self.warm {
            replay(warm);
        }
        replay(&self.source)
    }
}

/// Durably appends a finished point to the journal. A journal that stops
/// persisting degrades resume, not correctness: the sweep carries on.
fn journal_point(journal: &Mutex<CheckpointJournal>, label: &str, seed: u64, stats: &SimStats) {
    let mut journal = journal.lock().unwrap_or_else(|p| p.into_inner());
    if let Err(e) = journal.append(label, seed, stats) {
        eprintln!("checkpoint append failed for {label}: {e}");
    }
}

impl Workbench {
    /// The stats this workbench already holds for `point`, if it is a cold
    /// point it has simulated (or loaded) before under any label.
    fn known_cold(&self, point: &Point) -> Option<&SimStats> {
        let (query, seed_base) = point.measured;
        if point.warm.is_some() {
            return None;
        }
        self.cold_points
            .iter()
            .find(|(q, s, cfg, _)| (*q, *s) == (query, seed_base) && *cfg == point.cfg)
            .map(|(.., stats)| stats)
    }

    /// The point runner: fans labeled points across this workbench's worker
    /// threads and is the one writer of the [`crate::SweepTally`] that
    /// [`Workbench::take_tally`] drains. A panicking point aborts the sweep
    /// with its own panic once the other workers have finished.
    ///
    /// Every point's sources are taken first, in point order, whatever the
    /// journal or the cold-point store holds: a resumed run records the
    /// sets a fresh one does, in the same order.
    ///
    /// With a checkpoint journal attached ([`Workbench::set_checkpoint`]),
    /// points the journal already holds are served from it — no simulation,
    /// no compute time — and each newly computed point is durably appended
    /// the moment its worker finishes it, so an interrupted or aborted sweep
    /// resumes from the last completed point, not the last completed
    /// experiment.
    ///
    /// A cold point is a pure function of its trace set and its
    /// [`MachineConfig`], so one this workbench has already simulated under
    /// another figure's label (the baseline machine is a point of Figures 6,
    /// 8, 10 and 13) is served from memory the same way: looked up on this
    /// thread before the fan-out, counted as `points_reused`, journaled
    /// under its own label.
    fn fan_out_labeled(&mut self, points: Vec<Point>) -> Vec<SimStats> {
        let tasks: Vec<PointTask> = points
            .iter()
            .map(|point| PointTask {
                cfg: point.cfg.clone(),
                warm: point.warm.map(|(q, seed_base)| self.source(q, seed_base)),
                source: self.source(point.measured.0, point.measured.1),
            })
            .collect();
        let checkpoint = self.checkpoint.clone();
        // Lookups happen up front on this thread: a point the journal or this
        // workbench's memory already holds never reaches a worker.
        let mut results: Vec<Option<SimStats>> = Vec::with_capacity(points.len());
        for point in &points {
            let seed = point.measured.1;
            let journaled = checkpoint.as_ref().and_then(|j| {
                let journal = j.lock().unwrap_or_else(|p| p.into_inner());
                journal.lookup(&point.label, seed).cloned()
            });
            results.push(if journaled.is_some() {
                self.tally.points_loaded += 1;
                journaled
            } else if let Some(stats) = self.known_cold(point) {
                let stats = stats.clone();
                self.tally.points_reused += 1;
                if let Some(journal) = &checkpoint {
                    journal_point(journal, &point.label, seed, &stats);
                }
                Some(stats)
            } else {
                None
            });
        }
        let todo: Vec<usize> = (0..points.len())
            .filter(|&i| results[i].is_none())
            .collect();
        // Each run yields its stats and how long simulating them took.
        let runs: Vec<_> = todo
            .iter()
            .map(|&i| {
                let checkpoint = checkpoint.as_deref();
                let (point, task) = (&points[i], &tasks[i]);
                move || {
                    #[expect(clippy::disallowed_methods, reason = "times the point for `SweepTally::compute`: stderr and bench-JSON timing only")]
                    let start = Instant::now();
                    let stats = task.run();
                    let elapsed = start.elapsed();
                    if let Some(journal) = checkpoint {
                        crash_point("crash.point.pre-journal");
                        journal_point(journal, &point.label, point.measured.1, &stats);
                        crash_point("crash.point.post-journal");
                    }
                    (stats, elapsed)
                }
            })
            .collect();
        let outcomes = run_points(self.jobs(), &runs);
        drop(runs);
        for ((stats, elapsed), i) in outcomes.into_iter().zip(todo) {
            self.tally.compute += elapsed;
            self.tally.points_computed += 1;
            results[i] = Some(stats);
        }
        let results: Vec<SimStats> = results
            .into_iter()
            .map(|stats| stats.expect("every point served or simulated"))
            .collect();
        for (point, stats) in points.into_iter().zip(&results) {
            if point.warm.is_none() && self.known_cold(&point).is_none() {
                let (query, seed_base) = point.measured;
                self.cold_points
                    .push((query, seed_base, point.cfg, stats.clone()));
            }
        }
        results
    }

    /// The common sweep shape: one point per entry of `params`, all over
    /// `query`'s trace source, each labeled and configured from its entry.
    fn sweep<P: Copy>(
        &mut self,
        query: u8,
        params: &[P],
        label: impl Fn(P) -> String,
        config: impl Fn(P) -> MachineConfig,
    ) -> Vec<(P, SimStats)> {
        let points = params
            .iter()
            .map(|&p| Point {
                label: label(p),
                cfg: config(p),
                warm: None,
                measured: (query, 0),
            })
            .collect();
        let stats = self.fan_out_labeled(points);
        params.iter().copied().zip(stats).collect()
    }

    /// Runs the baseline for a set of queries (default: the three studied
    /// ones), one sweep point per query.
    pub fn baseline_suite(&mut self, queries: &[u8]) -> Vec<QueryBaseline> {
        let points = queries
            .iter()
            .map(|&q| Point {
                label: format!("fig6/Q{q}/baseline"),
                cfg: MachineConfig::baseline(),
                warm: None,
                measured: (q, 0),
            })
            .collect();
        let stats = self.fan_out_labeled(points);
        queries
            .iter()
            .zip(stats)
            .map(|(&query, stats)| QueryBaseline { query, stats })
            .collect()
    }

    /// Figures 8 and 9: sweep the cache line size for one query.
    pub fn line_size_sweep(&mut self, query: u8) -> Vec<LinePoint> {
        let points = self.sweep(
            query,
            &LINE_SIZES,
            |l| format!("fig8/Q{query}/l2_line={l}"),
            |l| MachineConfig::baseline().with_line_size(l),
        );
        points
            .into_iter()
            .map(|(l2_line, stats)| LinePoint { l2_line, stats })
            .collect()
    }

    /// Figures 10 and 11: sweep the cache sizes for one query (64-byte L2
    /// lines, as the paper uses for its temporal-locality studies).
    pub fn cache_size_sweep(&mut self, query: u8) -> Vec<CachePoint> {
        let points = self.sweep(
            query,
            &CACHE_SIZES_KB,
            |(l1, l2)| format!("fig10/Q{query}/l1_kb={l1}_l2_kb={l2}"),
            |(l1, l2)| MachineConfig::baseline().with_cache_sizes(l1 * 1024, l2 * 1024),
        );
        points
            .into_iter()
            .map(|((l1_kb, l2_kb), stats)| CachePoint {
                l1_kb,
                l2_kb,
                stats,
            })
            .collect()
    }

    /// Figure 13: the Section 6 prefetching experiment.
    pub fn prefetch_experiment(&mut self, query: u8) -> PrefetchPair {
        let points = self.sweep(
            query,
            &[0, PREFETCH_LINES],
            |d| format!("fig13/Q{query}/prefetch={d}"),
            |d| MachineConfig::baseline().with_data_prefetch(d),
        );
        let [base, opt] = all_points(points.into_iter().map(|(_, stats)| stats));
        PrefetchPair { query, base, opt }
    }

    /// Sweeps the sequential-prefetch degree (the paper fixes it at 4).
    pub fn prefetch_degree_sweep(&mut self, query: u8) -> Vec<(u32, SimStats)> {
        self.sweep(
            query,
            &PREFETCH_DEGREES,
            |d| format!("prefetch-depth/Q{query}/degree={d}"),
            |d| MachineConfig::baseline().with_data_prefetch(d),
        )
    }

    /// Runs the MSI-vs-MESI ablation.
    pub fn protocol_ablation(&mut self, query: u8) -> ProtocolAblation {
        let points = self.sweep(
            query,
            &[("msi", Protocol::Msi), ("mesi", Protocol::Mesi)],
            |(name, _)| format!("protocol/Q{query}/{name}"),
            |(_, protocol)| MachineConfig::baseline().with_protocol(protocol),
        );
        let [msi, mesi] = all_points(points.into_iter().map(|(_, stats)| stats));
        ProtocolAblation { query, msi, mesi }
    }

    /// Scales the machine from one to four processors, running one query
    /// instance per processor (the paper's inter-query parallelism model).
    /// Each point reports how metalock spinning and coherence misses grow.
    pub fn processor_sweep(&mut self, query: u8) -> Vec<(usize, SimStats)> {
        // Each point runs its config over the leading `nprocs` traces, which
        // is exactly the scaling subset.
        self.sweep(
            query,
            &PROC_COUNTS,
            |n| format!("scaling/Q{query}/nprocs={n}"),
            |n| MachineConfig::baseline().with_processors(n),
        )
    }

    /// Figure 12: inter-query temporal locality with very large caches.
    ///
    /// Each arm warms (or doesn't) its *own* machine and then replays the
    /// measured set on it, so the three arms are independent sweep points and
    /// fan across up to [`Workbench::jobs`] workers; the within-arm
    /// warm→measured order is what carries the cache-reuse effect and stays
    /// serial. The measured set is recorded once and replayed by every arm.
    pub fn reuse_experiment(&mut self, query: u8, other: u8) -> ReuseSet {
        let (l1_kb, l2_kb) = REUSE_CACHES_KB;
        let cfg = MachineConfig::baseline().with_cache_sizes(l1_kb * 1024, l2_kb * 1024);
        let points = [
            ("cold", None),
            ("warm_same", Some((query, 1000))),
            ("warm_other", Some((other, 1000))),
        ]
        .into_iter()
        .map(|(arm, warm)| Point {
            label: format!("fig12/Q{query}v{other}/{arm}"),
            cfg: cfg.clone(),
            warm,
            measured: (query, 0),
        })
        .collect();
        let [cold, warm_same, warm_other] = all_points(self.fan_out_labeled(points));
        ReuseSet {
            query,
            other,
            cold,
            warm_same,
            warm_other,
        }
    }
}

/// The `N` results of a comparison, in sweep order.
fn all_points<const N: usize>(stats: impl IntoIterator<Item = SimStats>) -> [SimStats; N] {
    let stats: Vec<SimStats> = stats.into_iter().collect();
    stats.try_into().expect("one result per sweep point")
}

/// Table 1: the operator matrix of all seventeen read-only queries.
pub fn table1(db: &Database) -> Vec<(u8, PlanFeatures)> {
    (1..=17u8)
        .map(|q| {
            let sql = dss_query::sql_for(q, &params(q, 1));
            let plan = db
                .plan_sql(&sql)
                .unwrap_or_else(|e| panic!("Q{q} failed to plan: {e}"));
            (q, plan.features())
        })
        .collect()
}

/// The paper's quoted absolute miss rates: per query, the primary-cache read
/// miss rate and the "global" secondary-cache read miss rate.
#[derive(Clone, Copy, Debug)]
pub struct MissRates {
    /// The query.
    pub query: u8,
    /// L1 read miss rate (fraction).
    pub l1: f64,
    /// L2 misses over all processor loads (fraction).
    pub l2_global: f64,
}

/// Computes miss rates from a baseline run.
pub fn miss_rates(baseline: &QueryBaseline) -> MissRates {
    MissRates {
        query: baseline.query,
        l1: baseline.stats.l1.read_miss_rate(),
        l2_global: baseline.stats.l2_global_read_miss_rate(),
    }
}

// ---------------------------------------------------------------------------
// Extension experiments beyond the paper's figures: ablations of the design
// choices its architecture section fixes, and the processor-scaling question
// its future-work section raises. These trace *while* executing updates or
// rewritten plans, so they stay free functions over the workbench.
// ---------------------------------------------------------------------------

/// Results of the update-workload extension: four processors each running a
/// UF1 (insert new orders) followed by a UF2 (delete old ones).
#[derive(Clone, Debug)]
pub struct UpdateRuns {
    /// Baseline simulation of the four update streams.
    pub stats: SimStats,
    /// Orders + lineitems inserted across all processors.
    pub inserted: u64,
    /// Tuples deleted across all processors.
    pub deleted: u64,
}

/// The update-workload extension: the paper declines to trace TPC-D's update
/// functions (Postgres95's relation-level locking would serialize them);
/// here each processor's UF1/UF2 pair touches a disjoint key range, exposing
/// the *memory-system* cost of writes — ownership misses on data pages,
/// write-buffer pressure, and index-maintenance traffic.
///
/// Builds its own database so the workbench's image stays pristine.
pub fn update_experiment(scale: f64) -> UpdateRuns {
    use dss_query::{
        insert_lineitems_sql, insert_orders_sql, uf2_sql, Database, DbConfig, Session,
    };
    use dss_tpcd::Generator;

    let config = DbConfig {
        scale,
        ..DbConfig::default()
    };
    let mut db = Database::build(&config);
    let generator = Generator::new(config.scale, config.seed);
    let norders = db.catalog.table("orders").expect("orders").heap.ntuples() as i64;
    // UF1/UF2 touch 0.1% of orders each, the spec's refresh fraction.
    let per_proc = ((norders / 1000) as usize).max(4);

    let mut traces = Vec::new();
    let mut inserted = 0;
    let mut deleted = 0;
    for p in 0..4usize {
        let mut session = Session::new(p);
        // UF1: fresh orders in a per-processor key range above the population.
        let base = 10_000_000 + (p as i64) * 1_000_000;
        let (orders, lineitems) = generator.uf1_rows(p as u64, per_proc, base);
        inserted += db
            .execute(&insert_orders_sql(&orders), &mut session)
            .expect("UF1 orders")
            .affected()
            .expect("write");
        inserted += db
            .execute(&insert_lineitems_sql(&lineitems), &mut session)
            .expect("UF1 lineitems")
            .affected()
            .expect("write");
        // UF2: delete a disjoint slice of the original population.
        let lo = 1 + (p as i64) * per_proc as i64;
        let hi = lo + per_proc as i64 - 1;
        for sql in uf2_sql(lo, hi) {
            deleted += db
                .execute(&sql, &mut session)
                .expect("UF2")
                .affected()
                .expect("write");
        }
        traces.push(session.tracer.take());
    }
    let stats = Machine::new(MachineConfig::baseline()).run(&traces);
    UpdateRuns {
        stats,
        inserted,
        deleted,
    }
}

/// Results of the intra-query-parallelism extension: Q6 executed by one
/// processor vs. partitioned across four (each scanning a quarter of
/// `lineitem` and computing a partial aggregate).
#[derive(Clone, Debug)]
pub struct IntraQueryRuns {
    /// Single-processor full scan.
    pub single: SimStats,
    /// Four processors scanning disjoint quarters concurrently.
    pub partitioned: SimStats,
    /// The partial aggregates, summed (for a correctness cross-check).
    pub partial_sum: i64,
    /// The single-processor aggregate.
    pub full_sum: i64,
}

/// The intra-query-parallelism extension (the paper's closing future-work
/// item): partition Q6's sequential scan across the processors by heap block
/// range — each node aggregates its fragment; a real system would combine
/// the partials for free.
pub fn intra_query_experiment(wb: &mut Workbench) -> IntraQueryRuns {
    use dss_query::Session;
    use dss_tpcd::params;

    let p = params(6, 0);
    let sql = dss_query::sql_for(6, &p);

    // Single-processor baseline: the ordinary Q6 plan on processor 0.
    let (single, full_sum) = {
        let mut session = Session::new(0);
        let out = wb.db.run(&sql, &mut session).expect("Q6 runs");
        let sum = out.rows[0][0].dec();
        let trace = session.tracer.take();
        (Machine::new(MachineConfig::baseline()).run(&[trace]), sum)
    };

    // Partitioned: every node scans its quarter of `lineitem`'s blocks.
    let mut sessions: Vec<Session> = (0..4).map(Session::new).collect();
    let outputs = wb
        .db
        .run_partitioned(&sql, &mut sessions.iter_mut().collect::<Vec<_>>())
        .expect("Q6 runs");
    let partial_sum = outputs.iter().map(|out| out.rows[0][0].dec()).sum();
    let traces: Vec<_> = sessions.iter().map(|s| s.tracer.take()).collect();
    let partitioned = Machine::new(MachineConfig::baseline()).run(&traces);
    IntraQueryRuns {
        single,
        partitioned,
        partial_sum,
        full_sum,
    }
}

/// Results of the query-stream extension: each processor runs a mixed
/// stream of queries back to back, as a DSS system would between users.
#[derive(Clone, Debug)]
pub struct StreamRuns {
    /// The stream each processor executed.
    pub queries: Vec<u8>,
    /// One baseline simulation of the four streams.
    pub stats: SimStats,
}

/// The query-stream extension: runs `queries` consecutively on every
/// processor (different parameters per instance). Inter-query locality —
/// indices and, for Sequential queries, whole tables — is captured within
/// each stream, quantifying the paper's Figure 12 upper bound under a
/// realistic mixed workload and ordinary cache sizes.
///
/// Streams are used once, so they are recorded uncached (block files
/// `streams.q3-6-12.s0` in streamed mode, deleted once replayed) and
/// replayed like a sweep point.
pub fn stream_experiment(wb: &mut Workbench, queries: &[u8]) -> StreamRuns {
    let stem = || {
        let names: Vec<String> = queries.iter().map(u8::to_string).collect();
        format!("streams.q{}.s0", names.join("-"))
    };
    let point = PointTask {
        cfg: MachineConfig::baseline(),
        warm: None,
        source: wb.record_source(queries, 0, stem),
    };
    let stats = point.run();
    if let SimSource::Files(files) = &point.source {
        for path in files.paths() {
            let _ = std::fs::remove_file(path);
        }
    }
    StreamRuns {
        queries: queries.to_vec(),
        stats,
    }
}
