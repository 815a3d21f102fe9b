//! Reps as child processes, and folding their reports into a result.
//!
//! Every rep — timed or traced — is a fresh `dss-perf rep` process, so
//! page-fault and allocator state never leak from one rep or workload into
//! the next and `peak_rss_mb` is that child's own high-water mark. The child
//! prints one JSON line; the parent collects the lines, verifies the outputs
//! against each other, and derives the metrics that need more than one rep.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use dss_core::Workbench;

use crate::json::{self, Value};
use crate::pace::Pace;
use crate::spans::Spans;
use crate::spec;
use crate::stats::{median, Summary};
use crate::workloads::{self, db_config, Outcome, Sizing, Workload, NPROCS};
use crate::{alloc, host, layers};

/// Databases each timed child builds, timing each: `setup_s` is sub-second
/// and noisy, so one sample per child would make its median meaningless.
const SETUP_BUILDS: usize = 3;

/// Free space `streamed` insists on before it writes block files.
const MIN_FREE_BYTES: u64 = 2 << 30;

/// Where and at what size to run.
#[derive(Clone, Debug)]
pub struct Options {
    /// Directory for spans, results and the per-rep scratch directories.
    pub out_dir: PathBuf,
    /// Whether to run at [`Sizing::SMOKE`] sizes.
    pub smoke: bool,
}

impl Options {
    fn sizing(&self) -> Sizing {
        if self.smoke {
            Sizing::SMOKE
        } else {
            Sizing::FULL
        }
    }
}

/// How many timed reps to run.
#[derive(Clone, Copy, Debug)]
pub enum Reps {
    /// Exactly this many.
    Count(usize),
    /// At least `min`, and more while another one fits in `seconds`.
    Seconds {
        /// The measuring budget.
        seconds: f64,
        /// Reps run regardless of the budget.
        min: usize,
    },
}

/// A directory removed when the value drops — on every return path, a
/// failed check and a panic included.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn create(path: PathBuf) -> Result<ScratchDir, String> {
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(ScratchDir(path))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Nothing useful can be done about a failure here, and Drop must
        // not panic.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

// --- the child side --------------------------------------------------------

fn hex(digest: u64) -> Value {
    Value::Str(format!("{digest:016x}"))
}

/// What a rep computed, reduced to what reps are compared by.
fn fingerprint(o: &Outcome) -> Value {
    Value::obj([
        (
            "output_digest",
            hex(workloads::fnv1a(workloads::FNV_OFFSET, o.output.as_bytes())),
        ),
        ("output_bytes", Value::Num(o.output.len() as f64)),
        ("stats_digest", hex(workloads::stats_digest(&o.points))),
        (
            "points",
            Value::Arr(
                o.points
                    .iter()
                    .map(|(label, stats)| {
                        Value::Arr(vec![
                            Value::Str(label.clone()),
                            hex(workloads::point_digest(stats)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "checks",
            Value::Arr(
                o.checks
                    .iter()
                    .map(|(name, ok)| Value::Arr(vec![Value::Str(name.clone()), Value::Bool(*ok)]))
                    .collect(),
            ),
        ),
    ])
}

/// One timed rep, in this process: set-up (timed on its own), then the
/// workload on the user's path with tracing off. Times are in seconds at
/// reference speed (see [`crate::pace`]); `wall_raw_s` is the host's own.
pub fn timed_rep(workload: Workload, seed: u64, opts: &Options, tmp: &Path) -> Value {
    let sizing = opts.sizing();
    let config = db_config(sizing.scale_of(workload), seed, 1.0);
    let mut setup_s = Vec::with_capacity(SETUP_BUILDS);
    let mut wb = None;
    let mut pace = Pace::start(1, 1.0);
    for _ in 0..SETUP_BUILDS {
        // Drop the previous image first: two alive would double the peak.
        drop(wb.take());
        pace.tick();
        wb = Some(Workbench::new(&config, NPROCS));
        setup_s.push(pace.tick().scaled_s);
    }
    drop(pace);
    let mut wb = wb.expect("SETUP_BUILDS is positive");

    let mut rec = Spans::off().paced(workload.jobs(), workload.pace_share());
    // From here on the high-water mark is the timed region's own (where the
    // kernel allows the reset; otherwise it covers set-up too).
    host::reset_peak_rss();
    let (allocs0, bytes0) = alloc::snapshot();
    let cpu0 = host::user_cpu_s();
    let outcome = workloads::run(workload, &mut wb, &sizing, seed, tmp, &mut rec);
    let pace = rec.finish_pace().expect("the recorder was paced");
    // The pace's slices ran on this thread at full tilt: their wall time is
    // user CPU time that is not the workload's.
    let user_cpu_s = (host::user_cpu_s() - cpu0 - pace.slices_s()).max(0.0);
    let (allocs1, bytes1) = alloc::snapshot();
    let peak_rss_mb = host::peak_rss_mb();

    Value::obj([
        ("wall_s", Value::Num(pace.scaled_s())),
        ("wall_raw_s", Value::Num(pace.raw_s())),
        ("speed_factor", Value::Num(pace.factor())),
        ("user_cpu_s", Value::Num(user_cpu_s * pace.factor())),
        ("peak_rss_mb", Value::Num(peak_rss_mb)),
        ("setup_s", Value::nums(&setup_s)),
        ("alloc_count", Value::Num((allocs1 - allocs0) as f64)),
        ("alloc_mb", Value::Num((bytes1 - bytes0) as f64 / 1e6)),
        (
            "fanout_wall_s",
            Value::Num(outcome.fanout_wall_s * pace.factor()),
        ),
        ("fingerprint", fingerprint(&outcome)),
    ])
}

/// The traced rep, in this process. Writes `spans-<workload>.jsonl` and
/// `output-<workload>.txt`.
pub fn traced_rep(
    workload: Workload,
    seed: u64,
    opts: &Options,
    tmp: &Path,
) -> Result<Value, String> {
    let traced = layers::run(workload, &opts.sizing(), seed, tmp);
    let spans = &traced.spans;
    // The recording, and the text behind `core.output_digest`: what a user
    // running the same experiments would have read on stdout.
    let write = |file: String, contents: &str| {
        let path = opts.out_dir.join(file);
        std::fs::write(&path, contents).map_err(|e| format!("write {}: {e}", path.display()))
    };
    write(
        format!("spans-{}.jsonl", workload.name()),
        &spans.to_jsonl(workload.name(), 0),
    )?;
    write(
        format!("output-{}.txt", workload.name()),
        &traced.outcome.output,
    )?;
    Ok(Value::obj([
        ("traced_wall_s", Value::Num(traced.wall_s)),
        ("speed_factor", Value::Num(traced.speed_factor)),
        ("point_work_s", Value::Num(traced.point_work_s)),
        (
            "span_error",
            spans.check().err().map_or(Value::Null, Value::Str),
        ),
        (
            "metrics",
            Value::obj(traced.metrics.iter().map(|(k, v)| (*k, Value::Num(*v)))),
        ),
        (
            "self_s",
            Value::obj(
                traced
                    .self_s
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::Num(*v))),
            ),
        ),
        ("fingerprint", fingerprint(&traced.outcome)),
    ]))
}

// --- the parent side -------------------------------------------------------

/// One workload's folded result.
#[derive(Clone, Debug)]
pub struct WorkloadResult {
    /// The workload.
    pub workload: Workload,
    /// Timed reps that completed.
    pub reps: usize,
    /// Samples per end-to-end metric (`setup_s` has several per rep). Times
    /// are in seconds at reference speed.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Per timed rep: wall time in this host's own seconds, and the speed
    /// factor that turned it into `wall_s`. Not metrics — the evidence
    /// behind them.
    pub host: BTreeMap<&'static str, Vec<f64>>,
    /// Per-layer metrics, when a traced rep ran.
    pub layers: Option<BTreeMap<&'static str, f64>>,
    /// Self time per span name under the traced rep's `rep` root.
    pub self_s: BTreeMap<String, f64>,
    /// Shape checks plus output verifications attempted.
    pub attempted: u64,
    /// Those that failed, by name.
    pub failures: Vec<String>,
}

impl WorkloadResult {
    /// Median, extremes and count of an end-to-end metric.
    pub fn summary(&self, metric: &str) -> Option<Summary> {
        self.samples.get(metric).and_then(|s| Summary::of(s))
    }
}

fn spawn_rep(
    workload: Workload,
    seed: u64,
    traced: bool,
    opts: &Options,
    index: usize,
) -> Result<Value, String> {
    let tmp = ScratchDir::create(opts.out_dir.join(format!(
        "tmp-{}-{}-{index}",
        std::process::id(),
        workload.name()
    )))?;
    let exe = std::env::current_exe().map_err(|e| format!("locate dss-perf: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.arg("rep")
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--mode", if traced { "traced" } else { "timed" }])
        .arg("--out")
        .arg(&opts.out_dir)
        .arg("--tmp")
        .arg(&tmp.0);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child, so no process outlives this call.
    let out = cmd
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn rep: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "rep of {} exited with {}",
            workload.name(),
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("rep of {} printed nothing", workload.name()))?;
    json::parse(line).map_err(|e| format!("rep of {} printed bad JSON: {e}", workload.name()))
}

fn num(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("rep report lacks `{key}`"))
}

fn digest48(fp: &Value, key: &str) -> f64 {
    // The low 48 bits: exact in a JSON number.
    fp.get(key)
        .and_then(Value::as_str)
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .map_or(0.0, |d| (d & 0xffff_ffff_ffff) as f64)
}

/// Checks the host can run `workload` at all.
fn preflight(workload: Workload, opts: &Options) -> Result<(), String> {
    let nproc = host::nproc();
    if workload.jobs() > nproc {
        return Err(format!(
            "{} runs {} workers but this host offers {nproc} CPU(s); refusing to oversubscribe",
            workload.name(),
            workload.jobs()
        ));
    }
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("create {}: {e}", opts.out_dir.display()))?;
    if workload == Workload::Streamed {
        match host::free_bytes(&opts.out_dir) {
            Some(free) if free < MIN_FREE_BYTES => {
                return Err(format!(
                    "streamed needs {} MB free under {} for block files; {} MB available",
                    MIN_FREE_BYTES >> 20,
                    opts.out_dir.display(),
                    free >> 20
                ));
            }
            Some(_) => {}
            None => eprintln!("dss-perf: could not read free space (no `df`); continuing"),
        }
    }
    Ok(())
}

/// The run's own verification: every item attempted, and the ones that
/// failed by name.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failures: Vec<String>,
}

impl Checks {
    fn verify(&mut self, name: impl Into<String>, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failures.push(name.into());
        }
    }
}

/// ` (why)` after a check's name when there is a why.
fn because(error: Option<&str>) -> String {
    error.map_or(String::new(), |e| format!(" ({e})"))
}

/// Median of `key` over the timed reps' reports.
fn median_over(timed: &[Value], key: &str) -> Result<f64, String> {
    let values = timed
        .iter()
        .map(|rep| num(rep, key))
        .collect::<Result<Vec<_>, _>>()?;
    median(&values).ok_or_else(|| "no timed rep".to_string())
}

/// Runs `workload`: the traced rep first when asked for, then timed reps.
///
/// # Errors
///
/// When the host cannot run the workload, or no rep completed: there is
/// then nothing to report.
pub fn run_workload(
    workload: Workload,
    seed: u64,
    reps: Reps,
    traced: bool,
    opts: &Options,
) -> Result<WorkloadResult, String> {
    preflight(workload, opts)?;
    let started = Instant::now();
    let mut checks = Checks::default();

    let traced_report = if traced {
        eprintln!("dss-perf: {} traced rep", workload.name());
        let report = spawn_rep(workload, seed, true, opts, 0);
        checks.verify(
            format!(
                "traced rep completes{}",
                because(report.as_ref().err().map(String::as_str))
            ),
            report.is_ok(),
        );
        report.ok()
    } else {
        None
    };

    let mut timed = Vec::new();
    let mut longest = 0.0f64;
    let mut rep_error = None;
    loop {
        let done = timed.len();
        let more = match reps {
            Reps::Count(n) => done < n,
            Reps::Seconds { seconds, min } => {
                done < min || started.elapsed().as_secs_f64() + longest <= seconds
            }
        };
        if !more {
            break;
        }
        let rep_started = Instant::now();
        let report = spawn_rep(workload, seed, false, opts, done + 1);
        longest = longest.max(rep_started.elapsed().as_secs_f64());
        match report {
            Ok(v) => {
                eprintln!(
                    "dss-perf: {} rep {}: wall {:.3} s, user {:.3} s at reference speed \
                     ({:.3} s of wall on this host, speed factor {:.2}), peak {:.1} MB",
                    workload.name(),
                    done + 1,
                    num(&v, "wall_s")?,
                    num(&v, "user_cpu_s")?,
                    num(&v, "wall_raw_s")?,
                    num(&v, "speed_factor")?,
                    num(&v, "peak_rss_mb")?,
                );
                timed.push(v);
            }
            Err(e) => {
                rep_error = Some(e);
                break;
            }
        }
    }
    checks.verify(
        format!("every timed rep completes{}", because(rep_error.as_deref())),
        rep_error.is_none(),
    );
    let first = timed
        .first()
        .ok_or_else(|| format!("no timed rep of {} completed", workload.name()))?;

    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut host: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for rep in &timed {
        for metric in ["wall_s", "user_cpu_s", "peak_rss_mb"] {
            samples.entry(metric).or_default().push(num(rep, metric)?);
        }
        for key in ["wall_raw_s", "speed_factor"] {
            host.entry(key).or_default().push(num(rep, key)?);
        }
        let setup = rep
            .get("setup_s")
            .and_then(Value::as_f64s)
            .ok_or("rep report lacks `setup_s`")?;
        samples.entry("setup_s").or_default().extend(setup);
    }

    // Shape checks count once: every rep must reproduce them bit for bit,
    // which the digests below verify.
    let fp = first
        .get("fingerprint")
        .ok_or("rep report lacks `fingerprint`")?;
    for check in fp.get("checks").and_then(Value::as_arr).unwrap_or(&[]) {
        if let Some([name, ok]) = check.as_arr() {
            checks.verify(
                format!("shape: {}", name.as_str().unwrap_or("?")),
                // At smoke sizes the paper's shapes are not expected to
                // hold; only that they were computed.
                opts.smoke || ok.as_bool() == Some(true),
            );
        }
    }
    for key in ["output_digest", "stats_digest"] {
        let same = timed
            .iter()
            .all(|rep| rep.get("fingerprint").and_then(|f| f.get(key)) == fp.get(key));
        checks.verify(format!("{key} identical across {} reps", timed.len()), same);
    }

    let mut layers = None;
    let mut self_s = BTreeMap::new();
    if let Some(report) = &traced_report {
        self_s = report
            .get("self_s")
            .and_then(Value::as_obj)
            .ok_or("traced report lacks `self_s`")?
            .iter()
            .filter_map(|(name, s)| Some((name.clone(), s.as_f64()?)))
            .collect();
        let mut m = fold_traced(workload, report, &timed, fp, &self_s, &mut checks)?;
        // The two counts are themselves layer metrics, so they go in last.
        m.insert("core.checks_attempted", checks.attempted as f64);
        m.insert(
            "core.checks_passed",
            (checks.attempted - checks.failures.len() as u64) as f64,
        );
        let missing: Vec<_> = spec::PER_LAYER
            .iter()
            .filter(|l| !m.contains_key(l.name))
            .map(|l| l.name)
            .collect();
        if !missing.is_empty() {
            return Err(format!("traced rep did not report {missing:?}"));
        }
        layers = Some(m);
    }
    for failure in &checks.failures {
        eprintln!("dss-perf: {} FAILED: {failure}", workload.name());
    }
    Ok(WorkloadResult {
        workload,
        reps: timed.len(),
        samples,
        host,
        layers,
        self_s,
        attempted: checks.attempted,
        failures: checks.failures,
    })
}

/// Verifies the traced rep against the timed reps (`fp` is their
/// fingerprint) and completes its per-layer metrics with the ones that need
/// both.
fn fold_traced(
    workload: Workload,
    report: &Value,
    timed: &[Value],
    fp: &Value,
    self_s: &BTreeMap<String, f64>,
    checks: &mut Checks,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let traced_fp = report
        .get("fingerprint")
        .ok_or("traced report lacks `fingerprint`")?;
    let threads = if workload.jobs() > 1 {
        format!(" (jobs {} against one thread)", workload.jobs())
    } else {
        String::new()
    };
    checks.verify(
        format!("traced rep's per-point SimStats equal the Workbench reps'{threads}"),
        traced_fp.get("points") == fp.get("points"),
    );
    checks.verify(
        "traced rep's output equals the Workbench reps'",
        traced_fp.get("output_digest") == fp.get("output_digest"),
    );
    let span_error = report.get("span_error").and_then(Value::as_str);
    checks.verify(
        format!(
            "every span closed and inside its parent{}",
            because(span_error)
        ),
        span_error.is_none(),
    );

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let reported = report.get("metrics").and_then(Value::as_obj);
    for layer in &spec::PER_LAYER {
        if let Some(v) = reported
            .and_then(|r| r.get(layer.name))
            .and_then(Value::as_f64)
        {
            m.insert(layer.name, v);
        }
    }
    let absent = |names: &[&str]| names.iter().all(|n| m.get(n) == Some(&0.0));
    match workload {
        Workload::Sweep => checks.verify(
            "no codec or file work in sweep",
            absent(&[
                "trace.encode_s",
                "trace.decode_s",
                "trace.file_write_s",
                "trace.file_read_s",
                "trace.bytes",
            ]),
        ),
        Workload::Tracegen => checks.verify(
            "no simulator work in tracegen",
            absent(&["memsim.points", "memsim.events", "memsim.run_s"]),
        ),
        Workload::Streamed | Workload::Mixed => {}
    }
    checks.verify(
        "the write path runs in mixed and nowhere else",
        (m.get("query.write_s") > Some(&0.0)) == (workload == Workload::Mixed),
    );

    m.insert("memsim.stats_digest", digest48(fp, "stats_digest"));
    m.insert("core.output_digest", digest48(fp, "output_digest"));
    m.insert("core.output_bytes", num(fp, "output_bytes")?);
    // The traced rep runs its sweep points on one thread. Against a workload
    // that fans them over `jobs` workers, its point time counts as if it had
    // scaled perfectly; what the workers then lose to each other lands in
    // `core.harness_s`, where fan-out costs belong.
    let wall = median_over(timed, "wall_s")?;
    let jobs = workload.jobs() as f64;
    let point_work_s = num(report, "point_work_s")?;
    let compressed = point_work_s * (1.0 - 1.0 / jobs);
    let layer_self_s = self_s.values().sum::<f64>() - compressed;
    m.insert("core.harness_s", wall - layer_self_s);
    m.insert("core.harness_share", (wall - layer_self_s) / wall);
    let fanout = median_over(timed, "fanout_wall_s")?;
    m.insert(
        "core.parallel_eff",
        if fanout > 0.0 {
            point_work_s / (jobs * fanout)
        } else {
            0.0
        },
    );
    m.insert("alloc.count", median_over(timed, "alloc_count")?);
    m.insert("alloc.mb", median_over(timed, "alloc_mb")?);
    m.insert(
        "trace_overhead_share",
        (num(report, "traced_wall_s")? - compressed - wall) / wall,
    );
    Ok(m)
}

// --- output ----------------------------------------------------------------

/// The driver's result line: `correct`, `attempted`, `failed`, and either
/// every end-to-end metric (medians) or every per-layer metric.
pub fn result_line(result: &WorkloadResult, per_layer: bool) -> Value {
    let metric = |value: f64, unit: &str| {
        Value::obj([
            ("value", Value::Num(value)),
            ("unit", Value::Str(unit.into())),
        ])
    };
    let metrics = if per_layer {
        let layers = result.layers.as_ref().expect("traced rep ran");
        Value::obj(
            spec::PER_LAYER
                .iter()
                .map(|l| (l.name, metric(layers[l.name], l.unit))),
        )
    } else {
        Value::obj(spec::END_TO_END.iter().map(|m| {
            let s = result.summary(m.name).expect("at least one rep");
            (m.name, metric(s.median, m.unit))
        }))
    };
    Value::obj([
        ("correct", Value::Bool(result.failures.is_empty())),
        ("attempted", Value::Num(result.attempted as f64)),
        ("failed", Value::Num(result.failures.len() as f64)),
        ("metrics", metrics),
    ])
}

/// The results file: header plus every workload's samples and layers.
pub fn results_file(header: Value, results: &[WorkloadResult]) -> Value {
    let workloads = results.iter().map(|r| {
        let end_to_end = spec::END_TO_END.iter().filter_map(|m| {
            let s = r.summary(m.name)?;
            Some((
                m.name,
                Value::obj([
                    ("unit", Value::Str(m.unit.into())),
                    ("n", Value::Num(s.n as f64)),
                    ("median", Value::Num(s.median)),
                    ("min", Value::Num(s.min)),
                    ("max", Value::Num(s.max)),
                    ("samples", Value::nums(&r.samples[m.name])),
                ]),
            ))
        });
        let per_layer = r.layers.iter().flat_map(|layers| {
            spec::PER_LAYER.iter().map(|l| {
                (
                    l.name,
                    Value::obj([
                        ("unit", Value::Str(l.unit.into())),
                        ("exact", Value::Bool(l.exact)),
                        ("value", Value::Num(layers[l.name])),
                    ]),
                )
            })
        });
        (
            r.workload.name(),
            Value::obj([
                ("reps", Value::Num(r.reps as f64)),
                ("checks_attempted", Value::Num(r.attempted as f64)),
                ("checks_failed", Value::Num(r.failures.len() as f64)),
                (
                    "failures",
                    Value::Arr(r.failures.iter().cloned().map(Value::Str).collect()),
                ),
                ("end_to_end", Value::obj(end_to_end)),
                (
                    "host",
                    Value::obj(r.host.iter().map(|(k, v)| (*k, Value::nums(v)))),
                ),
                ("per_layer", Value::obj(per_layer)),
                (
                    "self_s",
                    Value::obj(r.self_s.iter().map(|(k, v)| (k.clone(), Value::Num(*v)))),
                ),
            ]),
        )
    });
    Value::obj([
        ("schema", Value::Str("dss-perf/1".into())),
        ("header", header),
        ("workloads", Value::obj(workloads)),
    ])
}

/// Every metric by name with its unit, one workload after another.
pub fn table(results: &[WorkloadResult]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for r in results {
        writeln!(
            out,
            "== {} — {} timed rep(s); checks: {} attempted, {} failed",
            r.workload.name(),
            r.reps,
            r.attempted,
            r.failures.len()
        )
        .expect("string write");
        for m in &spec::END_TO_END {
            let Some(s) = r.summary(m.name) else { continue };
            let tail = crate::stats::highest_percentile(&r.samples[m.name])
                .map_or(String::new(), |(label, v)| format!("  {label} {v:.4}"));
            writeln!(
                out,
                "  {:<28} {:>14.4} {:<8} median of {} (min {:.4}, max {:.4}){tail}; {} is better, bound {:.0}%",
                m.name,
                s.median,
                m.unit,
                s.n,
                s.min,
                s.max,
                m.better.label(),
                m.bound * 100.0,
            )
            .expect("string write");
        }
        if let Some(layers) = &r.layers {
            for l in &spec::PER_LAYER {
                let v = layers[l.name];
                let shown = if v.fract() == 0.0 {
                    format!("{v:.0}")
                } else {
                    format!("{v:.4}")
                };
                writeln!(
                    out,
                    "  {:<28} {:>14} {:<8}{}",
                    l.name,
                    shown,
                    l.unit,
                    if l.exact { " exact" } else { "" }
                )
                .expect("string write");
            }
            let total: f64 = r.self_s.values().sum();
            writeln!(
                out,
                "  layer self time in the traced rep ({total:.3} s under `rep`):"
            )
            .expect("string write");
            for (name, s) in &r.self_s {
                writeln!(
                    out,
                    "    {:<26} {:>10.4} s  {:>5.1}%",
                    name,
                    s,
                    100.0 * s / total
                )
                .expect("string write");
            }
        }
        for failure in &r.failures {
            writeln!(out, "  FAILED: {failure}").expect("string write");
        }
    }
    out
}
