//! The workbench: a built database plus cached per-processor traces.

use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use dss_faultkit::crash::crash_point;
use dss_memsim::{MachineConfig, SimStats};
use dss_query::{Database, DbConfig, Session};
use dss_tpcd::params;
use dss_trace::{FileTraceSource, Trace, Tracer, DEFAULT_BLOCK_EVENTS};

use crate::checkpoint::CheckpointJournal;
use crate::degrade::PointError;
use crate::persist::fsync_dir;

/// A shared, immutable set of per-processor traces.
///
/// Trace *generation* needs `&mut` access to the database (buffer-cache and
/// lock-manager state move); trace *consumption* does not: once generated, a
/// trace set is frozen and [`Send`]` + `[`Sync`], so any number of simulated
/// machines — on any number of worker threads — can replay it concurrently.
/// [`Workbench::traces`] hands out cheap clones of one allocation.
pub type TraceSet = Arc<[Trace]>;

/// The three queries the paper studies in detail: Q3 (*Index*), Q6
/// (*Sequential*), and Q12 (*Sequential* with an index-scanned second table).
pub const STUDIED_QUERIES: [u8; 3] = [3, 6, 12];

/// Maximum trace sets kept in memory: the reuse experiment touches four
/// distinct (query, seed) sets per call, and holding all four avoids
/// regenerating any of them mid-experiment. At SF ≤ 0.03 generation is
/// history-independent (a test below pins it at SF 0.001), so there the slot
/// count never changes results — only how often sets are rebuilt. At SF 0.1
/// it is not: which sets ran before moves a set's lock-table addresses.
const TRACE_CACHE_SLOTS: usize = 4;

/// How the workbench hands traces to the simulator: the two spellings of
/// [`Workbench::set_trace_mode`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TraceMode {
    /// Generate whole trace sets in memory ([`TraceSet`]) and replay from
    /// there. Fastest for repeated sweeps at the paper's scale.
    #[default]
    Materialized,
    /// Record traces straight to block files under the directory
    /// [`Workbench::set_trace_dir`] names and replay them a block at a time:
    /// peak memory stays bounded by the block size however large the scale
    /// factor. Results are bit-identical to [`TraceMode::Materialized`].
    Streamed,
}

/// A trace population as the experiment sweeps consume it: either a
/// materialized in-memory set or block files replayed from disk. Cloning is
/// cheap (an `Arc` bump or a path list), and both variants yield identical
/// events.
#[derive(Clone, Debug)]
pub enum SimSource {
    /// A fully materialized, shared trace set.
    Set(TraceSet),
    /// Per-processor block files on disk.
    Files(FileTraceSource),
}

/// What the sweeps have done since the last [`Workbench::take_tally`]. The
/// one point runner is its only writer, on the calling thread, after the
/// workers have joined.
///
/// A point counts in `points_computed` and `compute` when its simulation
/// finished *and its value was returned*. A point that outran the point
/// deadline was simulated (and journaled, when a journal is attached) but
/// its value was discarded, so like a panicking point it appears in `errors`
/// only; a resumed run serves it from the journal as `points_loaded`. A
/// point is counted under exactly one of `points_loaded`, `points_reused`
/// and `points_computed`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SweepTally {
    /// Per-point simulation time summed over the worker threads: the
    /// wall-clock a serial harness would have spent simulating. Against the
    /// observed wall-clock it gives the parallel speedup.
    pub compute: Duration,
    /// Sweep points served from the checkpoint journal.
    pub points_loaded: u64,
    /// Cold sweep points served from this workbench's memory: the same
    /// trace set on the same machine, already simulated under another label.
    pub points_reused: u64,
    /// Sweep points simulated.
    pub points_computed: u64,
    /// Points that failed under fail-soft mode, in sweep order.
    pub errors: Vec<PointError>,
}

/// Label of a query ("Q3").
pub fn query_label(q: u8) -> String {
    format!("Q{q}")
}

/// A built database plus a small cache of generated trace sets.
///
/// Trace generation follows the paper's methodology: one query of the given
/// type per processor, each with different TPC-D substitution parameters,
/// statistics recorded from start to finish with no warm-up discarded.
/// Traces depend only on the query and parameter seeds — never on the
/// simulated machine — so one set drives every sweep point, and the sweep
/// points themselves are independent: the experiment methods
/// ([`Workbench::line_size_sweep`] and friends, see [`crate::experiments`])
/// fan them out across up to [`Workbench::jobs`] worker threads with
/// bit-identical results to a serial run.
///
/// # Example
///
/// ```no_run
/// use dss_core::Workbench;
/// use dss_memsim::{Machine, MachineConfig};
///
/// let mut wb = Workbench::paper();
/// let traces = wb.traces(6, 0); // TraceSet: shared, immutable, Send + Sync
/// let stats = Machine::new(MachineConfig::baseline()).run(&traces);
/// assert!(stats.exec_cycles() > 0);
///
/// // Sweep experiments fan out across threads (same results at any job count).
/// let points = wb.line_size_sweep(6);
/// assert_eq!(points.len(), 5);
/// ```
pub struct Workbench {
    /// The shared database image. Traces are cached by `(query, seed_base)`
    /// and cold sweep points by `(query, seed_base, machine)`, both on the
    /// premise that the image only ever runs the read-only query templates:
    /// a caller that changes it through this field has invalidated both.
    pub db: Database,
    nprocs: usize,
    jobs: usize,
    /// Materialized sets by `(query, seed_base)`, oldest first: FIFO
    /// eviction at [`TRACE_CACHE_SLOTS`].
    sets: Vec<((u8, u64), TraceSet)>,
    /// Where block files are recorded. `Some` makes every sweep replay block
    /// files instead of materialized sets.
    spill: Option<PathBuf>,
    /// Block files already recorded this run. Files cost no memory, so
    /// unlike `sets` this list never evicts.
    files: Vec<((u8, u64), FileTraceSource)>,
    /// Every cold sweep point simulated (or journal-loaded) so far, by value:
    /// `(query, seed_base, machine, stats)`. A few dozen small records that
    /// outlive [`Workbench::clear_traces`]; a `Vec` searched by equality, so
    /// no iteration order exists to leak.
    pub(crate) cold_points: Vec<(u8, u64, MachineConfig, SimStats)>,
    /// What the sweeps have done since the last [`Workbench::take_tally`].
    pub(crate) tally: SweepTally,
    /// Fail-soft mode: sweep points run under `catch_unwind`, failures become
    /// [`PointError`]s instead of aborting the sweep. Off by default (a
    /// failing point panics the caller, exactly as before).
    pub(crate) fail_soft: bool,
    /// Optional per-point deadline enforced (in fail-soft mode) by the sweep
    /// watchdog.
    pub(crate) point_deadline: Option<Duration>,
    /// Fault-injection hook: the label of one sweep point to sabotage (it
    /// panics instead of simulating), for exercising the degradation path.
    pub(crate) sabotage: Option<String>,
    /// The crash-safety journal: completed sweep points are served from it
    /// and newly computed points are appended (durably) as they finish.
    pub(crate) checkpoint: Option<Arc<Mutex<CheckpointJournal>>>,
}

impl Workbench {
    /// Builds a workbench over `config` with `nprocs` simulated processors.
    ///
    /// Experiments run their sweep points on up to
    /// [`available_parallelism`](std::thread::available_parallelism) worker
    /// threads by default; tune with [`Workbench::set_jobs`].
    pub fn new(config: &DbConfig, nprocs: usize) -> Self {
        #[expect(
            clippy::disallowed_methods,
            reason = "sizes the worker pool; results merge in point order at any job count"
        )]
        let jobs = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Workbench {
            db: Database::build(config),
            nprocs,
            jobs,
            sets: Vec::new(),
            spill: None,
            files: Vec::new(),
            cold_points: Vec::new(),
            tally: SweepTally::default(),
            fail_soft: false,
            point_deadline: None,
            sabotage: None,
            checkpoint: None,
        }
    }

    /// The paper's setup: scale 0.01, four processors.
    pub fn paper() -> Self {
        Workbench::new(&DbConfig::default(), 4)
    }

    /// A reduced setup for fast tests (small database, four processors).
    pub fn small() -> Self {
        Workbench::new(
            &DbConfig {
                scale: 0.003,
                nbuffers: 2048,
                ..DbConfig::default()
            },
            4,
        )
    }

    /// Number of simulated processors.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Number of worker threads experiment sweeps may use.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Sets the number of worker threads for experiment sweeps (clamped to at
    /// least 1). `1` reproduces the fully serial harness.
    pub fn set_jobs(&mut self, jobs: usize) {
        self.jobs = jobs.max(1);
    }

    /// Chainable form of [`Workbench::set_jobs`].
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.set_jobs(jobs);
        self
    }

    /// Enables (or disables) fail-soft sweeps. In fail-soft mode each sweep
    /// point runs under `catch_unwind` with the optional
    /// [`Workbench::set_point_deadline`] watchdog; a failed point becomes a
    /// [`PointError`] (drained with [`Workbench::take_tally`]) and the
    /// remaining points still run. Off (the default) reproduces the original
    /// fail-hard behavior: the first panicking point propagates.
    ///
    /// With no faults, fail-soft results are bit-identical to fail-hard ones
    /// at any job count.
    pub fn set_fail_soft(&mut self, on: bool) {
        self.fail_soft = on;
    }

    /// Sets the per-point deadline for fail-soft sweeps (`None` disables the
    /// watchdog). A point that outruns the deadline is classified
    /// [`crate::PointCause::TimedOut`] and its result is discarded — the
    /// watchdog cannot preempt a wedged simulation, so the run still waits
    /// for it, but its outcome no longer depends on how late it finished.
    pub fn set_point_deadline(&mut self, deadline: Option<Duration>) {
        self.point_deadline = deadline;
    }

    /// Sabotages the sweep point whose label equals `label` (e.g.
    /// `"fig8/Q6/l2_line=64"`): it panics instead of simulating. A
    /// fault-injection hook for exercising the degradation path end to end;
    /// `None` disables it.
    pub fn set_sabotage(&mut self, label: Option<String>) {
        self.sabotage = label;
    }

    /// Drains what the experiment sweeps did since the last call: compute
    /// time, journal provenance and point failures, together.
    pub fn take_tally(&mut self) -> SweepTally {
        std::mem::take(&mut self.tally)
    }

    /// Number of trace sets currently cached (bounded by the cache's slot
    /// count regardless of how many sets were requested).
    pub fn cached_trace_sets(&self) -> usize {
        self.sets.len()
    }

    /// Returns (generating and caching on demand) the per-processor traces
    /// for `query`, with parameter seeds starting at `seed_base`.
    ///
    /// Different `seed_base` values give independent instances of the same
    /// query type — the warm-up runs of the inter-query reuse experiment.
    ///
    /// The returned [`TraceSet`] is immutable and `Send + Sync`: cloning it is
    /// an `Arc` bump, and clones stay valid (and share one allocation) even
    /// after the cache evicts the entry.
    ///
    /// # Panics
    ///
    /// Panics if the query fails to plan or execute (a bug, since all
    /// seventeen templates are tested).
    pub fn traces(&mut self, query: u8, seed_base: u64) -> TraceSet {
        let key = (query, seed_base);
        if let Some((_, set)) = self.sets.iter().find(|(k, _)| *k == key) {
            return Arc::clone(set);
        }
        // Bound memory, and evict before recording so the evicted set's
        // buffers are parked for the new one.
        while self.sets.len() >= TRACE_CACHE_SLOTS {
            self.sets.remove(0);
        }
        let set: TraceSet = self
            .record(&[query], seed_base, Tracer::new, |tracer| {
                let mut trace = tracer.take();
                // A cached set lives long: hold the events, not whatever
                // recycled buffer they were recorded into.
                trace.events.shrink_to_fit();
                trace
            })
            .into();
        self.sets.push((key, Arc::clone(&set)));
        set
    }

    /// Drops all cached traces (frees memory between experiment suites).
    /// Block files stay on disk and stay cached — they hold no memory — and
    /// so do the cold sweep points already simulated.
    pub fn clear_traces(&mut self) {
        self.sets.clear();
    }

    /// Selects materialized or streamed trace delivery (see [`TraceMode`]).
    /// [`TraceMode::Materialized`] turns block files off;
    /// [`TraceMode::Streamed`] only confirms the directory
    /// [`Workbench::set_trace_dir`] already turned them on with. Results are
    /// identical either way; only peak memory and wall-clock differ.
    ///
    /// # Panics
    ///
    /// Panics on [`TraceMode::Streamed`] when no directory is set.
    pub fn set_trace_mode(&mut self, mode: TraceMode) {
        match mode {
            TraceMode::Materialized => self.spill = None,
            TraceMode::Streamed => assert!(
                self.spill.is_some(),
                "streamed traces need a directory: call set_trace_dir first"
            ),
        }
    }

    /// Makes every sweep replay block files recorded under `dir` instead of
    /// materialized sets. Takes effect for sets not yet recorded.
    pub fn set_trace_dir(&mut self, dir: PathBuf) {
        self.spill = Some(dir);
    }

    /// Attaches a checkpoint journal: experiment sweeps serve completed
    /// points from it (skipping the simulation entirely) and durably append
    /// each newly computed point the moment it finishes.
    pub fn set_checkpoint(&mut self, journal: CheckpointJournal) {
        self.checkpoint = Some(Arc::new(Mutex::new(journal)));
    }

    /// Returns the trace population for `query`: per-processor block files
    /// once [`Workbench::set_trace_dir`] has named a directory (recorded on
    /// first request), otherwise a cheap clone of the materialized set.
    ///
    /// # Panics
    ///
    /// Panics if the query fails, or on an I/O failure while recording the
    /// block files.
    pub fn source(&mut self, query: u8, seed_base: u64) -> SimSource {
        if self.spill.is_some() {
            SimSource::Files(self.trace_files(query, seed_base))
        } else {
            SimSource::Set(self.traces(query, seed_base))
        }
    }

    /// Returns (recording on first request) per-processor block files for
    /// `query`, with parameter seeds starting at `seed_base`, under the
    /// directory [`Workbench::set_trace_dir`] named.
    ///
    /// Each processor's query runs with a sinked [`Tracer`] draining event
    /// blocks straight to disk, so recording holds at most one block per
    /// processor in memory — this is the generation half of the
    /// bounded-memory pipeline. A block file is derived data, a pure
    /// function of the configuration, query, seed and processor, so every
    /// set is recorded from scratch the first time this workbench asks for
    /// it: whatever an earlier (perhaps killed) run left at the path is
    /// overwritten. Files are fsynced on completion.
    ///
    /// # Panics
    ///
    /// Panics if no directory is set, if the query fails to plan or execute,
    /// or on an I/O failure.
    pub fn trace_files(&mut self, query: u8, seed_base: u64) -> FileTraceSource {
        let key = (query, seed_base);
        if let Some((_, src)) = self.files.iter().find(|(k, _)| *k == key) {
            return src.clone();
        }
        let Some(dir) = self.spill.clone() else {
            panic!("block files need a directory: call set_trace_dir first");
        };
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| panic!("create trace dir {}: {e}", dir.display()));
        let stem = format!("q{query}.s{seed_base}");
        let paths: Vec<PathBuf> = (0..self.nprocs)
            .map(|p| FileTraceSource::proc_path(&dir, &stem, p))
            .collect();
        let open = |p: usize| {
            let path = &paths[p];
            let file = std::fs::File::create(path)
                .unwrap_or_else(|e| panic!("create {}: {e}", path.display()));
            let sink = Box::new(BufWriter::new(BlockFile(file)));
            Tracer::with_sink(p, DEFAULT_BLOCK_EVENTS, sink)
                .unwrap_or_else(|e| panic!("trace sink {}: {e}", path.display()))
        };
        self.record(&[query], seed_base, open, |tracer| {
            crash_point("crash.trace.pre-finish");
            // Writes the end marker and fsyncs the file (see `BlockFile`)
            // before anything records it as usable.
            tracer
                .finish_sink()
                .unwrap_or_else(|e| panic!("finish {}: {e}", paths[tracer.proc_id()].display()));
        });
        fsync_dir(Some(&dir)).unwrap_or_else(|e| panic!("fsync dir {}: {e}", dir.display()));
        let src = FileTraceSource::new(paths);
        self.files.push((key, src.clone()));
        src
    }

    /// Generates per-processor traces where each processor runs a *stream*
    /// of queries back to back in one session (uncached: streams are used
    /// once).
    ///
    /// # Panics
    ///
    /// Panics if any query fails.
    pub fn stream_traces(&mut self, queries: &[u8], seed_base: u64) -> Vec<Trace> {
        self.record(queries, seed_base, Tracer::new, |tracer| tracer.take())
    }

    /// The one recording loop: processor `p` runs `queries` back to back in
    /// one session recording into `open(p)`, query `i` with parameter seed
    /// `seed_base + p + i·nprocs`, and `close` receives its tracer after the
    /// last query. Processors record one after another, in order.
    fn record<T>(
        &mut self,
        queries: &[u8],
        seed_base: u64,
        mut open: impl FnMut(usize) -> Tracer,
        mut close: impl FnMut(Tracer) -> T,
    ) -> Vec<T> {
        let nprocs = self.nprocs;
        (0..nprocs)
            .map(|p| {
                let mut session = Session::new(p);
                session.tracer = open(p);
                for (i, &q) in queries.iter().enumerate() {
                    let seed = seed_base + (p + i * nprocs) as u64;
                    let sql = dss_query::sql_for(q, &params(q, seed));
                    self.db
                        .run(&sql, &mut session)
                        .unwrap_or_else(|e| panic!("Q{q} (seed {seed}) failed: {e}"));
                }
                close(session.tracer)
            })
            .collect()
    }
}

/// A block file beneath a recording sink's [`BufWriter`]. Every write syscall
/// arms the `crash.trace.block-write` crash site — the crash campaign's way
/// of dying inside a block flush; unarmed, that is one relaxed atomic load
/// per flush. A flush, which the sink issues once when it finishes, fsyncs.
struct BlockFile(std::fs::File);

impl Write for BlockFile {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        crash_point("crash.trace.block-write");
        self.0.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.0.sync_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(nprocs: usize) -> Workbench {
        Workbench::new(
            &DbConfig {
                scale: 0.001,
                nbuffers: 1024,
                ..DbConfig::default()
            },
            nprocs,
        )
    }

    #[test]
    fn traces_are_cached_and_bounded() {
        let mut wb = tiny(2);
        let a = wb.traces(6, 0);
        let b = wb.traces(6, 0);
        assert!(Arc::ptr_eq(&a, &b), "second request served from cache");
        let _c = wb.traces(6, 100);
        let _d = wb.traces(3, 0); // evicts the oldest
        assert!(wb.sets.len() <= TRACE_CACHE_SLOTS);
    }

    #[test]
    fn cached_sets_hold_exactly_their_events() {
        // On a thread of its own: which buffers a recording finds parked is
        // per-thread state, and here it must be this test's evicted set.
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut wb = tiny(2);
                // One set more than the cache holds: the last is recorded
                // into the buffers the evicted first set left behind.
                for set in 0..=TRACE_CACHE_SLOTS as u64 {
                    wb.traces(6, 100 * set);
                }
                assert_eq!(wb.sets.len(), TRACE_CACHE_SLOTS);
                assert!(wb.sets.iter().all(|(key, _)| *key != (6, 0)));
                for (key, set) in &wb.sets {
                    for t in set.iter() {
                        assert!(!t.is_empty());
                        assert_eq!(t.events.capacity(), t.len(), "{key:?}");
                    }
                }
            });
        });
    }

    #[test]
    fn trace_sets_outlive_eviction_and_cross_threads() {
        let mut wb = tiny(2);
        let a = wb.traces(6, 0);
        wb.clear_traces();
        // The evicted set is still alive through our clone, and usable from
        // another thread (TraceSet: Send + Sync).
        let events = std::thread::scope(|s| {
            let a = &a;
            s.spawn(move || a.iter().map(|t| t.events.len()).sum::<usize>())
                .join()
                .unwrap()
        });
        assert!(events > 0);
    }

    #[test]
    fn each_processor_gets_its_own_parameters() {
        let mut wb = tiny(2);
        let traces = wb.traces(6, 0);
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0].proc_id, 0);
        assert_eq!(traces[1].proc_id, 1);
        // Different parameters make different traces.
        assert_ne!(traces[0].events.len(), 0);
        assert_ne!(traces[0].events, traces[1].events);
    }

    #[test]
    fn regeneration_is_history_independent() {
        // The streaming redesign leans on this invariant: a (query, seed)
        // pair generates the same trace no matter what ran before it, so
        // cache-eviction order, cache sizing, and streamed-vs-materialized
        // generation order can never change simulation results.
        let mut wb = tiny(2);
        let a = wb.traces(6, 0);
        let _ = wb.traces(3, 0);
        let _ = wb.traces(12, 0);
        wb.clear_traces();
        let b = wb.traces(6, 0);
        assert_eq!(a[..], b[..], "regenerated traces must be identical");
    }

    #[test]
    fn streamed_files_replay_the_materialized_events() {
        use dss_trace::materialize;

        let mut wb = tiny(2);
        let dir = std::env::temp_dir().join(format!("dss-wb-stream-{}", std::process::id()));
        wb.set_trace_dir(dir.clone());
        let files = wb.trace_files(6, 0);
        let replayed = materialize(&files).unwrap();
        let in_memory = wb.traces(6, 0);
        assert_eq!(replayed[..], in_memory[..], "same events either way");
        // Second request reuses the recorded files.
        assert_eq!(files.paths(), wb.trace_files(6, 0).paths());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "call set_trace_dir")]
    fn the_spill_directory_picks_the_source() {
        let mut wb = tiny(2);
        let dir = std::env::temp_dir().join(format!("dss-wb-spill-{}", std::process::id()));
        wb.set_trace_dir(dir.clone());
        assert!(matches!(wb.source(6, 0), SimSource::Files(_)));
        wb.set_trace_mode(TraceMode::Materialized);
        assert!(matches!(wb.source(6, 0), SimSource::Set(_)));
        let _ = std::fs::remove_dir_all(&dir);
        // Streamed only confirms a directory; with none set it is a bug.
        wb.set_trace_mode(TraceMode::Streamed);
    }

    #[test]
    fn without_resume_leftover_files_are_rewritten() {
        let config = DbConfig {
            scale: 0.001,
            nbuffers: 1024,
            ..DbConfig::default()
        };
        let dir = std::env::temp_dir().join(format!("dss-wb-leftover-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut wb = Workbench::new(&config, 3);
        wb.set_trace_dir(dir.clone());
        let paths = wb.trace_files(6, 0).paths().to_vec();
        let whole: Vec<Vec<u8>> = paths.iter().map(|p| std::fs::read(p).unwrap()).collect();
        // What an interrupted run may leave: proc 0's file torn mid-block,
        // proc 1's complete but followed by bytes no reader looks at, and
        // proc 2's a complete file of the previous block format.
        std::fs::write(&paths[0], &whole[0][..whole[0].len() - 9]).unwrap();
        let mut p1 = std::fs::OpenOptions::new()
            .append(true)
            .open(&paths[1])
            .unwrap();
        p1.write_all(b"JUNK").unwrap();
        drop(p1);
        let mut old_format = whole[2].clone();
        old_format[..8].copy_from_slice(b"DSSTRB01");
        std::fs::write(&paths[2], old_format).unwrap();

        let mut wb2 = Workbench::new(&config, 3);
        wb2.set_trace_dir(dir.clone());
        let _ = wb2.trace_files(6, 0);
        for (p, path) in paths.iter().enumerate() {
            assert_eq!(
                std::fs::read(path).unwrap(),
                whole[p],
                "proc {p}'s file rewritten to the uninterrupted bytes"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn jobs_default_and_clamp() {
        let mut wb = tiny(2);
        assert!(wb.jobs() >= 1);
        wb.set_jobs(0);
        assert_eq!(wb.jobs(), 1, "jobs clamps to at least one worker");
        let wb = wb.with_jobs(3);
        assert_eq!(wb.jobs(), 3);
    }

    #[test]
    fn labels() {
        assert_eq!(query_label(3), "Q3");
        assert_eq!(STUDIED_QUERIES, [3, 6, 12]);
    }
}
