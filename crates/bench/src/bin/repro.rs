//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run -p dss-bench --release --bin repro                 # everything
//! cargo run -p dss-bench --release --bin repro -- fig8         # one experiment
//! cargo run -p dss-bench --release --bin repro -- all --jobs 4 # four workers
//! ```
//!
//! Arguments are experiment names — the names in the `EXPERIMENTS` table, or
//! its groups `all` (the paper's tables and figures; the default) and `ext`
//! (the extensions) — and the options of the `OPTIONS` table. `--jobs N`
//! sets the number of worker threads the sweeps fan out over (default:
//! available parallelism), `--sf X` overrides the database scale factor
//! (default: the paper's 0.01), `--trace-mode streamed|materialized` picks
//! how traces reach the simulator (streamed records block files and replays
//! them from disk, so peak memory stays bounded at any scale factor; stdout
//! is identical either way), and `--bench-json PATH` writes the
//! per-experiment wall/compute timings, heap-allocation counts (measured by a
//! counting allocator), and per-experiment peak RSS as a machine-readable
//! JSON file. Each experiment prints the paper-shaped chart plus its
//! PASS/FAIL shape checks.
//!
//! The run is crash-safe when given a state directory: `--state-dir PATH`
//! keeps a checkpoint manifest (`PATH/manifest.ckpt`) journaling every
//! completed sweep point as it finishes, plus the streamed-mode block files
//! (`PATH/traces/`). After a crash — power loss included; the journal is
//! fsynced record by record — rerunning with `--resume` replays the journal,
//! skips completed points, and computes only what is missing, recording from
//! scratch every trace set a remaining point needs (block files are derived
//! data; whatever the crash left of them is overwritten); stdout is
//! byte-identical to an uninterrupted run. The manifest carries a
//! fingerprint of the configuration (scale, seed, buffer pool, processor
//! count), so resuming under different parameters safely starts fresh.
//! `--resume` without `--state-dir` is a usage error.
//!
//! The run degrades gracefully instead of aborting: every sweep point runs
//! fail-soft (a panicking or deadline-blown point becomes a structured
//! `PointError` and the rest of the sweep completes), and every experiment
//! body runs under `catch_unwind` so one broken figure cannot take down the
//! others. Two flags exercise this path deterministically: `--inject LABEL`
//! makes the sweep point with that label (e.g. `fig8/Q6/l2_line=64`) panic,
//! and `--point-deadline-ms N` times out any point slower than `N` ms.
//!
//! An argument that is neither a known experiment nor a known option is a
//! usage error naming the valid ones; nothing runs.
//!
//! Exit codes: `0` success, `1` artifact write failure, `2` usage error,
//! `3` partial results (one or more points or experiments failed; everything
//! that could run did, and the failures are listed in the `--bench-json`
//! report's `point_errors` / `failed_experiments` arrays).
//!
//! Tables and checks go to stdout; progress and timing go to stderr, so
//! stdout is byte-identical at every `--jobs` value and safe to diff.

#![deny(clippy::disallowed_methods)]

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dss_core::experiments::{self, CACHE_SIZES_KB, LINE_SIZES};
use dss_core::{
    config_fingerprint, paper, query_label, report, CheckpointJournal, PointError, SweepTally,
    TraceMode, Workbench, STUDIED_QUERIES,
};
use dss_query::DbConfig;

// The counting allocator is a single shared source file (see its module doc
// for why it is not a library export).
#[allow(dead_code, reason = "this binary reads only the alloc-side counters")]
#[path = "../../../check/src/alloc.rs"]
mod alloc;

/// Counts every heap operation of the run, so each experiment's entry in the
/// benchmark log can report its total allocation traffic (worker threads
/// included — the counters are process-global).
#[global_allocator]
static COUNTING_ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// One recorded experiment: label, wall-clock, heap traffic, two RSS
/// measures — this experiment's own peak (bytes) and the process-wide
/// high-water mark so far — and what its sweeps did.
struct BenchEntry {
    name: String,
    wall: Duration,
    heap: alloc::AllocReport,
    peak_rss: u64,
    peak_rss_cumulative: u64,
    /// Fanned-out compute time, points served from the checkpoint journal
    /// (resume provenance) or from the workbench's memory (a cold point
    /// another figure already simulated) vs. simulated, and the points that
    /// failed.
    tally: SweepTally,
}

/// The run-wide half of the `--bench-json` document.
struct RunHeader {
    jobs: usize,
    trace_mode: TraceMode,
    scale: f64,
    total_wall: Duration,
    /// `"fresh"` or `"resumed"`.
    resume_mode: &'static str,
    /// The armed crash-injection site, if any.
    crash_site: Option<String>,
}

/// The process's peak resident set size (`VmHWM`) in bytes, or 0 where
/// `/proc/self/status` is unavailable. A high-water mark: monotone unless
/// reset through `/proc/self/clear_refs` (see [`BenchLog::arm`]).
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map(|kb| kb * 1024)
        .unwrap_or(0)
}

/// Resets the process's `VmHWM` high-water mark to the current RSS, so the
/// next reading measures only what happened since. Returns false where the
/// kernel interface is unavailable.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Per-experiment timings and heap traffic, printed to stderr as they happen
/// and optionally dumped as JSON at exit (`--bench-json`).
#[derive(Default)]
struct BenchLog {
    entries: Vec<BenchEntry>,
    /// Process-wide peak RSS observed across all measurements so far.
    cumulative_rss: u64,
    /// `VmHWM` when the current experiment was armed (the delta baseline
    /// where the high-water mark cannot be reset).
    armed_rss: u64,
    /// Whether `/proc/self/clear_refs` resets worked at arm time.
    armed_reset: bool,
    /// The labels of the experiments that were abandoned (see [`guarded`]).
    failed: Vec<String>,
}

impl BenchLog {
    /// Marks the start of an experiment's RSS window: resets the kernel
    /// high-water mark where possible so the next [`BenchLog::record`] reads
    /// this experiment's own peak, falling back to delta-from-start
    /// accounting where it is not.
    fn arm(&mut self) {
        self.cumulative_rss = self.cumulative_rss.max(peak_rss_bytes());
        self.armed_reset = reset_peak_rss();
        self.armed_rss = peak_rss_bytes();
    }

    /// Records one experiment: its wall-clock against the single-thread
    /// compute its sweeps fanned out (their ratio is the parallel speedup),
    /// the heap traffic its gate observed, the peak RSS of its own window,
    /// and the sweep-point failures. Stderr, to keep stdout diffable.
    fn record(
        &mut self,
        name: String,
        wall: Duration,
        heap: alloc::AllocReport,
        tally: SweepTally,
    ) {
        let hwm = peak_rss_bytes();
        // With a working reset, `hwm` is this experiment's own peak; without
        // one it is process-monotone, so report how much it grew instead.
        let peak_rss = if self.armed_reset {
            hwm
        } else {
            hwm.saturating_sub(self.armed_rss)
        };
        self.cumulative_rss = self.cumulative_rss.max(hwm);
        let peak_rss_cumulative = self.cumulative_rss;
        let mb = heap.bytes_allocated / 1_000_000;
        let rss_mb = peak_rss / 1_000_000;
        // An experiment that simulated also reports the single-thread compute
        // it fanned out against its wall-clock: the parallel speedup.
        let compute = tally.compute;
        let sim = if compute.is_zero() {
            String::new()
        } else {
            let speedup = compute.as_secs_f64() / wall.as_secs_f64().max(1e-9);
            format!(", sim compute {compute:.1?}, speedup {speedup:.2}x")
        };
        eprintln!(
            "  [{name}] wall {wall:.1?}{sim}; heap {} alloc(s), {mb} MB; peak rss {rss_mb} MB",
            heap.allocs
        );
        if tally.points_loaded > 0 {
            eprintln!(
                "  [{name}] {} point(s) served from the checkpoint journal",
                tally.points_loaded
            );
        }
        if tally.points_reused > 0 {
            eprintln!(
                "  [{name}] {} point(s) reused from an earlier figure",
                tally.points_reused
            );
        }
        for err in &tally.errors {
            eprintln!("  point error: {err}");
        }
        self.entries.push(BenchEntry {
            name,
            wall,
            heap,
            peak_rss,
            peak_rss_cumulative,
            tally,
        });
    }

    /// Every sweep-point failure of the run, in experiment then sweep order.
    fn point_errors(&self) -> impl Iterator<Item = &PointError> {
        self.entries.iter().flat_map(|e| &e.tally.errors)
    }

    /// The recorded timings as a self-describing JSON document, schema
    /// `dss-bench-repro/v8`. Labels are experiment names from this binary (no
    /// escaping needed).
    ///
    /// The run header carries `jobs`, `trace_mode`, `scale`,
    /// `total_wall_ns` and a `resume` object: `mode` (`"fresh"` or
    /// `"resumed"`), `crash_site` (the armed crash-injection site or `null`)
    /// and the run's total `points_loaded` / `points_reused` /
    /// `points_computed`. `point_errors` and `failed_experiments` are the
    /// degradation record, both empty on a healthy run.
    ///
    /// Each experiment reports `wall_ns`, `sim_compute_ns`, `allocs`,
    /// `alloc_bytes`, its own `peak_rss` (the kernel high-water mark is reset
    /// at its start; where that interface is missing, the growth since its
    /// start) and the monotone `peak_rss_cumulative`. Of its points,
    /// `points_loaded` came from the checkpoint journal, `points_reused` from
    /// the workbench's memory (another figure had simulated the same traces
    /// on the same machine) and `points_computed` were simulated; `retries`
    /// counts the points a resumed run had to recompute, always 0 in a fresh
    /// run.
    fn to_json(&self, run: &RunHeader) -> String {
        let resumed = run.resume_mode == "resumed";
        let experiments: Vec<String> = self
            .entries
            .iter()
            .map(|e| {
                format!(
                    "    {{\"name\": \"{}\", \"wall_ns\": {}, \"sim_compute_ns\": {}, \
                     \"allocs\": {}, \"alloc_bytes\": {}, \"peak_rss\": {}, \
                     \"peak_rss_cumulative\": {}, \"points_loaded\": {}, \
                     \"points_reused\": {}, \"points_computed\": {}, \"retries\": {}}}",
                    e.name,
                    e.wall.as_nanos(),
                    e.tally.compute.as_nanos(),
                    e.heap.allocs,
                    e.heap.bytes_allocated,
                    e.peak_rss,
                    e.peak_rss_cumulative,
                    e.tally.points_loaded,
                    e.tally.points_reused,
                    e.tally.points_computed,
                    if resumed { e.tally.points_computed } else { 0 }
                )
            })
            .collect();
        let errors: Vec<String> = self
            .point_errors()
            .map(|e| format!("    {}", e.to_json()))
            .collect();
        let abandoned: Vec<String> = self.failed.iter().map(|f| format!("\"{f}\"")).collect();
        let mode = match run.trace_mode {
            TraceMode::Materialized => "materialized",
            TraceMode::Streamed => "streamed",
        };
        let total = |count: fn(&SweepTally) -> u64| -> u64 {
            self.entries.iter().map(|e| count(&e.tally)).sum()
        };
        let site = match &run.crash_site {
            Some(s) => format!("\"{s}\""),
            None => "null".to_string(),
        };
        format!(
            "{{\n  \"schema\": \"dss-bench-repro/v8\",\n  \"jobs\": {},\n  \
             \"trace_mode\": \"{}\",\n  \"scale\": {},\n  \
             \"resume\": {{\"mode\": \"{}\", \"crash_site\": {}, \
             \"points_loaded\": {}, \"points_reused\": {}, \
             \"points_computed\": {}}},\n  \
             \"total_wall_ns\": {},\n  \"point_errors\": [{}],\n  \
             \"failed_experiments\": [{}],\n  \"experiments\": [\n{}\n  ]\n}}\n",
            run.jobs,
            mode,
            run.scale,
            run.resume_mode,
            site,
            total(|t| t.points_loaded),
            total(|t| t.points_reused),
            total(|t| t.points_computed),
            run.total_wall.as_nanos(),
            if errors.is_empty() {
                String::new()
            } else {
                format!("\n{}\n  ", errors.join(",\n"))
            },
            abandoned.join(", "),
            experiments.join(",\n")
        )
    }
}

/// Runs one experiment body under `catch_unwind`, so a failure that escapes
/// the fail-soft sweeps (a paired experiment that lost its partner point, a
/// renderer handed an impossible shape) abandons that one experiment instead
/// of the whole run. The abandonment is recorded for the exit code and the
/// benchmark report.
fn guarded(label: &str, failed: &mut Vec<String>, f: impl FnOnce()) {
    if catch_unwind(AssertUnwindSafe(f)).is_err() {
        eprintln!("  [{label}] ABANDONED — experiment failed; continuing with the rest");
        failed.push(label.to_string());
    }
}

/// An experiment's body: runs it and prints its charts and shape checks.
/// `want` says which of its row's names the command line asked for.
type Run = fn(&mut Workbench, want: &dyn Fn(&str) -> bool);

/// The group of the paper's own tables and figures; the default.
const ALL: &str = "all";
/// The group of the extensions beyond the paper.
const EXT: &str = "ext";

// The names of the rows that render several figures from one sweep: their
// bodies ask which of them to print.
const FIG6: &str = "fig6";
const FIG7: &str = "fig7";
const RATES: &str = "rates";
const FIG8: &str = "fig8";
const FIG9: &str = "fig9";
const FIG10: &str = "fig10";
const FIG11: &str = "fig11";

/// Every experiment `repro` can run, in the order it runs them. A row —
/// replay a trace set at some configurations, render, check the shape — is
/// the command-line words that select it (joined by `/` they are its label
/// on stderr and in the benchmark report), the group word that also selects
/// it ([`ALL`] or [`EXT`]), and its body.
const EXPERIMENTS: [(&[&str], &str, Run); 12] = [
    (&["table1"], ALL, |wb, _| {
        let rows = experiments::table1(&wb.db);
        println!("{}", report::render_table1(&rows));
    }),
    (&[FIG6, FIG7, RATES], ALL, baselines),
    (&[FIG8, FIG9], ALL, line_sizes),
    (&[FIG10, FIG11], ALL, cache_sizes),
    (&["fig12"], ALL, |wb, _| {
        let q3 = wb.reuse_experiment(3, 12);
        let q12 = wb.reuse_experiment(12, 3);
        println!("{}", report::render_fig12(&q3));
        println!("{}", report::render_fig12(&q12));
        println!("{}", paper::render_checks(&paper::check_fig12(&q3, &q12)));
    }),
    (&["fig13"], ALL, |wb, _| {
        let pairs: Vec<_> = STUDIED_QUERIES
            .iter()
            .map(|q| wb.prefetch_experiment(*q))
            .collect();
        println!("{}", report::render_fig13(&pairs));
        println!("{}", paper::render_checks(&paper::check_fig13(&pairs)));
    }),
    (&["ext-protocol"], EXT, |wb, _| {
        let ablations: Vec<_> = STUDIED_QUERIES
            .iter()
            .map(|q| wb.protocol_ablation(*q))
            .collect();
        println!("{}", report::render_ext_protocol(&ablations));
    }),
    (&["ext-prefetch"], EXT, |wb, _| {
        for q in [6u8, 12] {
            let points = wb.prefetch_degree_sweep(q);
            println!("{}", report::render_ext_prefetch(q, &points));
        }
    }),
    (&["ext-updates"], EXT, |_, _| {
        let runs = experiments::update_experiment(dss_tpcd::PAPER_SCALE);
        println!("{}", report::render_ext_updates(&runs));
    }),
    (&["ext-intra"], EXT, |wb, _| {
        let runs = experiments::intra_query_experiment(wb);
        println!("{}", report::render_ext_intra(&runs));
    }),
    (&["ext-streams"], EXT, |wb, _| {
        let baselines = wb.baseline_suite(&STUDIED_QUERIES);
        let runs = experiments::stream_experiment(wb, &[3, 6, 12]);
        println!("{}", report::render_ext_streams(&runs, &baselines));
    }),
    (&["ext-procs"], EXT, |wb, _| {
        for q in STUDIED_QUERIES {
            let points = wb.processor_sweep(q);
            println!("{}", report::render_ext_procs(q, &points));
        }
    }),
];

/// Figures 6 and 7 and the quoted miss rates, from one baseline suite.
fn baselines(wb: &mut Workbench, want: &dyn Fn(&str) -> bool) {
    let baselines = wb.baseline_suite(&STUDIED_QUERIES);
    let degraded = baselines.len() < STUDIED_QUERIES.len();
    if want(FIG6) {
        println!("{}", report::render_fig6a(&baselines));
        println!("{}", report::render_fig6b(&baselines));
        if degraded {
            println!("  ({FIG6} shape checks skipped: suite degraded, see point errors)");
        } else {
            println!("{}", paper::render_checks(&paper::check_fig6(&baselines)));
        }
    }
    if want(FIG7) {
        for b in &baselines {
            println!("{}", report::render_fig7(b));
        }
        if degraded {
            println!("  ({FIG7} shape checks skipped: suite degraded, see point errors)");
        } else {
            println!("{}", paper::render_checks(&paper::check_fig7(&baselines)));
        }
    }
    if want(RATES) {
        let rates: Vec<_> = baselines.iter().map(experiments::miss_rates).collect();
        println!("{}", report::render_miss_rates(&rates));
    }
}

/// Figures 8 and 9, from one line-size sweep per studied query.
fn line_sizes(wb: &mut Workbench, want: &dyn Fn(&str) -> bool) {
    for q in STUDIED_QUERIES {
        let points = wb.line_size_sweep(q);
        if points.len() < LINE_SIZES.len() {
            println!(
                "Figure 8/9 ({}): skipped — sweep degraded, see point errors",
                query_label(q)
            );
            continue;
        }
        if want(FIG8) {
            println!("{}", report::render_fig8(q, &points));
            println!("{}", paper::render_checks(&paper::check_fig8(q, &points)));
        }
        if want(FIG9) {
            println!("{}", report::render_fig9(q, &points));
            println!("{}", paper::render_checks(&paper::check_fig9(q, &points)));
        }
    }
}

/// Figures 10 and 11, from one cache-size sweep per studied query.
fn cache_sizes(wb: &mut Workbench, want: &dyn Fn(&str) -> bool) {
    for q in STUDIED_QUERIES {
        let points = wb.cache_size_sweep(q);
        if points.len() < CACHE_SIZES_KB.len() {
            println!(
                "Figure 10/11 ({}): skipped — sweep degraded, see point errors",
                query_label(q)
            );
            continue;
        }
        if want(FIG10) {
            println!("{}", report::render_fig10(q, &points));
            println!("{}", paper::render_checks(&paper::check_fig10(q, &points)));
        }
        if want(FIG11) {
            println!("{}", report::render_fig11(q, &points));
            println!("{}", paper::render_checks(&paper::check_fig11(q, &points)));
        }
    }
}

/// Every word the command line accepts as an experiment: each group,
/// followed by the names of its rows.
fn accepted_names() -> Vec<&'static str> {
    let mut words = Vec::new();
    for (names, group, _) in EXPERIMENTS {
        if !words.contains(&group) {
            words.push(group);
        }
        words.extend(names);
    }
    words
}

/// The identity of a command-line option, for the parser in `main`.
#[derive(Clone, Copy)]
enum Flag {
    Jobs,
    Sf,
    TraceMode,
    BenchJson,
    StateDir,
    Resume,
    Inject,
    PointDeadlineMs,
}

/// Every option the command line accepts: its identity, its spelling,
/// whether it takes a value (`--x V` or `--x=V`), and its usage-error line.
const OPTIONS: [(Flag, &str, bool, &str); 8] = [
    (
        Flag::Jobs,
        "--jobs",
        true,
        "--jobs needs a number (e.g. --jobs 4)",
    ),
    (
        Flag::Sf,
        "--sf",
        true,
        "--sf needs a positive scale factor (e.g. --sf 0.05)",
    ),
    (
        Flag::TraceMode,
        "--trace-mode",
        true,
        "--trace-mode must be `streamed` or `materialized`",
    ),
    (
        Flag::BenchJson,
        "--bench-json",
        true,
        "--bench-json needs a path",
    ),
    (
        Flag::StateDir,
        "--state-dir",
        true,
        "--state-dir needs a path",
    ),
    (
        Flag::Resume,
        "--resume",
        false,
        "--resume needs --state-dir (the journal to resume from)",
    ),
    (
        Flag::Inject,
        "--inject",
        true,
        "--inject needs a sweep-point label",
    ),
    (
        Flag::PointDeadlineMs,
        "--point-deadline-ms",
        true,
        "--point-deadline-ms needs a number of milliseconds",
    ),
];

/// Prints one usage-error line and exits 2.
fn usage_error(line: &str) -> ! {
    eprintln!("error: {line}");
    std::process::exit(2)
}

/// Matches `arg` (`--x` or `--x=V`) against [`OPTIONS`] and returns its flag,
/// its value — the inline `V`, else the next argument, or nothing for an
/// option that takes none — and its error line. An unknown option or a
/// missing value is a usage error.
fn option_value(
    arg: &str,
    rest: &mut impl Iterator<Item = String>,
) -> (Flag, String, &'static str) {
    let (name, inline) = match arg.split_once('=') {
        Some((name, value)) => (name, Some(value.to_string())),
        None => (arg, None),
    };
    for &(flag, spelling, takes_value, error) in &OPTIONS {
        if spelling == name && (takes_value || inline.is_none()) {
            let value = if takes_value {
                inline.or_else(|| rest.next())
            } else {
                Some(String::new())
            };
            return (flag, value.unwrap_or_else(|| usage_error(error)), error);
        }
    }
    let spellings: Vec<&str> = OPTIONS.iter().map(|&(_, spelling, ..)| spelling).collect();
    usage_error(&format!(
        "unknown option `{arg}` (options: {})",
        spellings.join(", ")
    ))
}

fn main() {
    let mut jobs: Option<usize> = None;
    let mut bench_json: Option<String> = None;
    let mut inject: Option<String> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut sf: Option<f64> = None;
    let mut trace_mode = TraceMode::Materialized;
    // `--resume`'s error line, owed until `--state-dir` is known to be given.
    let mut resume = None;
    let mut state_dir: Option<String> = None;
    let mut words = BTreeSet::new();
    let accepted = accepted_names();
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        if !arg.starts_with('-') {
            if !accepted.contains(&arg.as_str()) {
                usage_error(&format!(
                    "unknown experiment `{arg}` (experiments: {})",
                    accepted.join(", ")
                ));
            }
            words.insert(arg);
            continue;
        }
        let (flag, value, error) = option_value(&arg, &mut argv);
        match flag {
            Flag::Jobs => jobs = Some(value.parse().unwrap_or_else(|_| usage_error(error))),
            Flag::Sf => match value.parse() {
                Ok(s) if dss_tpcd::valid_scale(s) => sf = Some(s),
                _ => usage_error(error),
            },
            Flag::TraceMode => match value.as_str() {
                "materialized" => trace_mode = TraceMode::Materialized,
                "streamed" => trace_mode = TraceMode::Streamed,
                _ => usage_error(error),
            },
            Flag::BenchJson => bench_json = Some(value),
            Flag::StateDir => state_dir = Some(value),
            Flag::Resume => resume = Some(error),
            Flag::Inject => inject = Some(value),
            Flag::PointDeadlineMs => {
                deadline_ms = Some(value.parse().unwrap_or_else(|_| usage_error(error)));
            }
        }
    }
    if let (Some(error), None) = (resume, &state_dir) {
        usage_error(error);
    }
    let mut log = BenchLog::default();

    #[expect(
        clippy::disallowed_methods,
        reason = "whole-run wall time, for stderr and the bench JSON; never stdout"
    )]
    let start = Instant::now();
    let mut config = DbConfig::default();
    if let Some(s) = sf {
        // The buffer pool must hold the whole database (it is memory
        // resident), so it grows with the scale override.
        config.nbuffers = (config.nbuffers as f64 * (s / config.scale).max(1.0)).ceil() as u32;
        config.scale = s;
    }
    let scale = config.scale;
    eprintln!("Building the database (TPC-D at scale {scale}, memory resident)...");
    let mut wb = Workbench::new(&config, 4);
    if let Some(n) = jobs {
        wb.set_jobs(n);
    }
    // Block files live under the state dir (`traces/`), else in a scratch
    // dir deleted at exit.
    let mut scratch_dir = None;
    if trace_mode == TraceMode::Streamed {
        let dir = match &state_dir {
            Some(state) => Path::new(state).join("traces"),
            None => {
                #[expect(
                    clippy::disallowed_methods,
                    reason = "names a scratch directory; the diffed artifact is the files' contents"
                )]
                let dir =
                    std::env::temp_dir().join(format!("dss-repro-traces-{}", std::process::id()));
                scratch_dir = Some(dir.clone());
                dir
            }
        };
        eprintln!(
            "trace mode: streamed (block files under {}, replayed from disk)",
            dir.display()
        );
        wb.set_trace_dir(dir);
    }
    let mut resume_mode = "fresh";
    if let Some(dir) = &state_dir {
        let dir = PathBuf::from(dir);
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("error: could not create state dir {}: {e}", dir.display());
            std::process::exit(1);
        }
        let manifest = dir.join("manifest.ckpt");
        let traces = dir.join("traces");
        let fingerprint = config_fingerprint(&config, wb.nprocs());
        let journal = if resume.is_some() {
            match CheckpointJournal::resume(&manifest, fingerprint) {
                Ok(j) => {
                    if let Some(reason) = j.fresh_reason() {
                        // The old state answers a different experiment (or
                        // does not exist); its trace files are stale too.
                        eprintln!("resume: starting fresh — {reason}");
                        let _ = std::fs::remove_dir_all(&traces);
                    } else {
                        eprintln!(
                            "resume: {} completed point(s) journaled in {}",
                            j.replayed(),
                            manifest.display()
                        );
                        resume_mode = "resumed";
                    }
                    j
                }
                Err(e) => {
                    eprintln!("error: could not resume {}: {e}", manifest.display());
                    std::process::exit(1);
                }
            }
        } else {
            // A fresh run owns the state dir outright: discard any leftovers.
            let _ = std::fs::remove_dir_all(&traces);
            match CheckpointJournal::create(&manifest, fingerprint) {
                Ok(j) => j,
                Err(e) => {
                    eprintln!("error: could not create {}: {e}", manifest.display());
                    std::process::exit(1);
                }
            }
        };
        wb.set_checkpoint(journal);
    }
    wb.set_fail_soft(true);
    if let Some(label) = inject {
        eprintln!("fault injection armed: sweep point `{label}` will panic");
        wb.set_sabotage(Some(label));
    }
    if let Some(ms) = deadline_ms {
        wb.set_point_deadline(Some(Duration::from_millis(ms)));
    }
    eprintln!(
        "  built in {:.1?}: {} heap pages (~{} MB of data), {} shared MB mapped; \
         {} simulation worker(s)\n",
        start.elapsed(),
        wb.db.catalog.total_heap_pages(),
        wb.db.catalog.total_heap_pages() * 8192 / 1_000_000,
        wb.db.space.mapped_bytes() / 1_000_000,
        wb.jobs(),
    );

    for (names, group, run) in EXPERIMENTS {
        // No word at all asks for the paper's group.
        let whole = words.contains(group) || (words.is_empty() && group == ALL);
        let want = |name: &str| whole || words.contains(name);
        if !names.iter().any(|name| want(name)) {
            continue;
        }
        let label = names.join("/");
        #[expect(
            clippy::disallowed_methods,
            reason = "times one experiment, for its stderr line and the bench JSON; never stdout"
        )]
        let t = Instant::now();
        let gate = alloc::AllocGate::begin();
        log.arm();
        guarded(&label, &mut log.failed, || run(&mut wb, &want));
        log.record(label, t.elapsed(), gate.end(), wb.take_tally());
    }

    let total = start.elapsed();
    eprintln!("total wall time: {total:.1?}");
    if let Some(dir) = scratch_dir {
        let _ = std::fs::remove_dir_all(&dir);
    }
    if let Some(path) = bench_json {
        #[expect(
            clippy::disallowed_methods,
            reason = "records which crash site was armed: provenance every byte comparison normalizes away"
        )]
        let json = log.to_json(&RunHeader {
            jobs: wb.jobs(),
            trace_mode,
            scale,
            total_wall: total,
            resume_mode,
            // Provenance for the crash campaign: which site (if any) was
            // armed to kill this very process partway through.
            crash_site: std::env::var(dss_faultkit::crash::ENV_SITE)
                .ok()
                .filter(|s| !s.is_empty()),
        });
        if let Err(e) = dss_core::write_atomic(Path::new(&path), json.as_bytes()) {
            eprintln!("error: could not write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("benchmark timings written to {path}");
    }
    let (errors, abandoned) = (log.point_errors().count(), log.failed.len());
    if errors + abandoned > 0 {
        eprintln!(
            "repro: partial results — {errors} point error(s), {abandoned} abandoned experiment(s)"
        );
        std::process::exit(3);
    }
}
