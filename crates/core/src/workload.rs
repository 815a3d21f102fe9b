//! The workbench: a built database plus cached per-processor traces.

use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use dss_faultkit::crash::crash_point;
use dss_memsim::{MachineConfig, SimStats};
use dss_query::{Database, DbConfig, Session};
use dss_tpcd::params;
use dss_trace::{materialize, FileTraceSource, Trace, Tracer, DEFAULT_BLOCK_EVENTS};

use crate::checkpoint::CheckpointJournal;

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
    /// factor. Results are bit-identical to [`TraceMode::Materialized`] at
    /// every scale: both record each set once, in the same order.
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
/// workers have joined. A point is counted under exactly one of
/// `points_loaded`, `points_reused` and `points_computed`.
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
}

/// Label of a query ("Q3").
pub fn query_label(q: u8) -> String {
    format!("Q{q}")
}

/// A built database plus every trace set recorded on it.
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
    /// Where block files are recorded. `Some` makes every set recorded from
    /// then on block files instead of a materialized set.
    spill: Option<PathBuf>,
    /// Every set recorded so far by `(query, seed_base)`, in first-use
    /// order. It never evicts: recording moves the buffer pool and lock
    /// tables, so a set recorded twice could differ from itself. A run uses
    /// at most five sets; block files hold no memory.
    sources: Vec<((u8, u64), SimSource)>,
    /// Every cold sweep point simulated (or journal-loaded) so far, by value:
    /// `(query, seed_base, machine, stats)`. A few dozen small records; a
    /// `Vec` searched by equality, so no iteration order exists to leak.
    pub(crate) cold_points: Vec<(u8, u64, MachineConfig, SimStats)>,
    /// What the sweeps have done since the last [`Workbench::take_tally`].
    pub(crate) tally: SweepTally,
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
            spill: None,
            sources: Vec::new(),
            cold_points: Vec::new(),
            tally: SweepTally::default(),
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

    /// Drains what the experiment sweeps did since the last call: compute
    /// time and where each point's value came from.
    pub fn take_tally(&mut self) -> SweepTally {
        std::mem::take(&mut self.tally)
    }

    /// Returns the per-processor traces for `query`, with parameter seeds
    /// starting at `seed_base`: [`Workbench::source`]'s set, read back from
    /// disk if it was recorded as block files. Never records a set twice.
    ///
    /// Different `seed_base` values give independent instances of the same
    /// query type — the warm-up runs of the inter-query reuse experiment.
    ///
    /// The returned [`TraceSet`] is immutable and `Send + Sync`: cloning it is
    /// an `Arc` bump, and clones share one allocation.
    ///
    /// # Panics
    ///
    /// Panics if the query fails to plan or execute (a bug, since all
    /// seventeen templates are tested), or if its block files cannot be read.
    pub fn traces(&mut self, query: u8, seed_base: u64) -> TraceSet {
        match self.source(query, seed_base) {
            SimSource::Set(set) => set,
            SimSource::Files(files) => materialize(&files)
                .unwrap_or_else(|e| panic!("read back Q{query} (seed {seed_base}): {e}"))
                .into(),
        }
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
    /// materialized sets. Takes effect for sets not yet recorded: a recorded
    /// set is served as it was recorded.
    pub fn set_trace_dir(&mut self, dir: PathBuf) {
        self.spill = Some(dir);
    }

    /// Attaches a checkpoint journal: experiment sweeps serve completed
    /// points from it (skipping the simulation entirely) and durably append
    /// each newly computed point the moment it finishes.
    pub fn set_checkpoint(&mut self, journal: CheckpointJournal) {
        self.checkpoint = Some(Arc::new(Mutex::new(journal)));
    }

    /// Returns the trace population for `query`, with parameter seeds
    /// starting at `seed_base`, recording it on first request: block files
    /// if [`Workbench::set_trace_dir`] has named a directory, otherwise a
    /// materialized set. The one way a set gets recorded, and it records
    /// each `(query, seed_base)` at most once per workbench.
    ///
    /// # Panics
    ///
    /// Panics if the query fails, or on an I/O failure while recording the
    /// block files.
    pub fn source(&mut self, query: u8, seed_base: u64) -> SimSource {
        let key = (query, seed_base);
        if let Some((_, src)) = self.sources.iter().find(|(k, _)| *k == key) {
            return src.clone();
        }
        let src = if self.spill.is_some() {
            self.record_source(&[query], seed_base, || format!("q{query}.s{seed_base}"))
        } else {
            let set = self.record(&[query], seed_base, Tracer::new, |tracer| {
                let mut trace = tracer.take();
                // A cached set lives long: hold the events, not whatever
                // recycled buffer they were recorded into.
                trace.events.shrink_to_fit();
                trace
            });
            SimSource::Set(set.into())
        };
        self.sources.push((key, src.clone()));
        src
    }

    /// Records `queries` (see `Workbench::record`), uncached: block files
    /// named by `stem()` under the spill directory if one is set, otherwise
    /// a materialized set held in whatever buffers it was recorded into.
    ///
    /// Each processor's query runs with a sinked [`Tracer`] draining event
    /// blocks straight to disk, so recording holds at most one block per
    /// processor in memory. Block files are scratch for this process: no
    /// later run reads them, so they are not fsynced, and whatever an
    /// earlier (perhaps killed) run left at the path is overwritten.
    pub(crate) fn record_source(
        &mut self,
        queries: &[u8],
        seed_base: u64,
        stem: impl FnOnce() -> String,
    ) -> SimSource {
        let Some(dir) = self.spill.clone() else {
            let set = self.record(queries, seed_base, Tracer::new, |tracer| tracer.take());
            return SimSource::Set(set.into());
        };
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| panic!("create trace dir {}: {e}", dir.display()));
        let stem = stem();
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
        self.record(queries, seed_base, open, |tracer| {
            // A kill here leaves a file without its end marker.
            crash_point("crash.trace.pre-finish");
            // Writes the end marker and flushes the file.
            tracer
                .finish_sink()
                .unwrap_or_else(|e| panic!("finish {}: {e}", paths[tracer.proc_id()].display()));
        });
        SimSource::Files(FileTraceSource::new(paths))
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
/// per flush.
struct BlockFile(std::fs::File);

impl Write for BlockFile {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        crash_point("crash.trace.block-write");
        self.0.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.0.flush()
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
        let _d = wb.traces(3, 0);
        // One entry per distinct set, and the first is never evicted.
        assert_eq!(wb.sources.len(), 3);
        assert!(Arc::ptr_eq(&a, &wb.traces(6, 0)));
        assert_eq!(wb.sources.len(), 3);
    }

    #[test]
    fn cached_sets_hold_exactly_their_events() {
        // On a thread of its own: which buffers a recording finds parked is
        // per-thread state, and here it must be this test's dropped trace.
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut wb = tiny(2);
                // A dropped trace parks a buffer far larger than the set
                // needs, and the first processor records into it.
                drop(Trace {
                    proc_id: 0,
                    events: Vec::with_capacity(1 << 22),
                });
                for t in wb.traces(6, 0).iter() {
                    assert!(!t.is_empty());
                    assert_eq!(t.events.capacity(), t.len(), "proc {}", t.proc_id);
                }
            });
        });
    }

    #[test]
    fn trace_sets_outlive_eviction_and_cross_threads() {
        let mut wb = tiny(2);
        let a = wb.traces(6, 0);
        drop(wb);
        // The set is still alive through our clone once its workbench is
        // gone, and usable from another thread (TraceSet: Send + Sync).
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
        // At this scale a (query, seed) pair generates the same trace no
        // matter which sets a workbench recorded before it. At SF 0.1 it
        // does not, which is why a workbench records each set once.
        let a = tiny(2).traces(6, 0);
        let mut after = tiny(2);
        let _ = after.traces(3, 0);
        let _ = after.traces(12, 0);
        let b = after.traces(6, 0);
        assert_eq!(a[..], b[..], "same traces whatever was recorded first");
    }

    #[test]
    fn streamed_files_replay_the_materialized_events() {
        let mut wb = tiny(2);
        let dir = std::env::temp_dir().join(format!("dss-wb-stream-{}", std::process::id()));
        wb.set_trace_dir(dir.clone());
        let SimSource::Files(files) = wb.source(6, 0) else {
            panic!("a spill directory records block files");
        };
        let replayed = materialize(&files).unwrap();
        let in_memory = tiny(2).traces(6, 0);
        assert_eq!(replayed[..], in_memory[..], "same events either way");
        // Second request reuses the recorded files, and `traces` reads
        // them back rather than recording again.
        assert!(matches!(wb.source(6, 0), SimSource::Files(f) if f.paths() == files.paths()));
        assert_eq!(wb.traces(6, 0)[..], in_memory[..]);
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
        assert!(
            matches!(wb.source(6, 0), SimSource::Files(_)),
            "a recorded set is served as it was recorded"
        );
        assert!(matches!(wb.source(3, 0), SimSource::Set(_)));
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
        let SimSource::Files(files) = wb.source(6, 0) else {
            panic!("a spill directory records block files");
        };
        let paths = files.paths().to_vec();
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
        let _ = wb2.source(6, 0);
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
