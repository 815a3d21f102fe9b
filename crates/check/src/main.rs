//! `dss-check` — the workbench's verification gate.
//!
//! ```text
//! dss-check fault        # fault-injection campaign: every fault detected
//! dss-check crash        # crash-recovery campaign over a child `repro`
//! dss-check model        # exhaustive coherence-protocol model checking
//! dss-check races        # happens-before races + lock-order over Q3/Q6/Q12
//! dss-check invariants   # coherence invariants over the baseline suite
//! dss-check alloc        # allocation audit of Machine::run and three engine runs
//! dss-check all          # every pass above except `crash`
//! ```
//!
//! The passes are the rows of [`PASSES`]; `main` is one loop over it. The
//! project's source rules are not here: they are clippy's (`clippy.toml`,
//! `[workspace.lints]`), gated by `cargo clippy --workspace --all-targets`.
//!
//! `alloc` options: `--report PATH` writes the measured budget JSON to
//! `PATH`; `--update` regenerates the committed
//! `crates/check/alloc-budget.json` instead of diffing against it.
//!
//! `fault` options: `--seed N` replays the campaign's exact corruption
//! schedule under seed `N` (default 1); same seed, same schedule, on any
//! machine. `--site NAME` runs (and gates on) a single site. `crash` takes
//! the same two options; without `--seed` it runs every kill schedule of
//! `dss_check::crash::DEFAULT_SEEDS`.
//!
//! `--json` emits one machine-readable document (schema `dss-check/v2`)
//! covering every pass that ran — its wall time, its findings count, and its
//! own report: per-site fault outcomes, per-query race summaries and lock
//! nesting, the allocation budget, the model pass's state/transition counts
//! — so CI archives one artifact instead of scraping stderr. With `--json`,
//! `--report PATH` names that combined document (the allocation budget is
//! embedded as its own section); without `--report` it prints to stdout
//! after the human-readable output.
//!
//! A model-pass violation additionally writes its minimal replayable
//! counterexample to `model-counterexample.txt` in the current directory,
//! for CI to upload on failure.
//!
//! Exits 0 when every requested pass is clean, 1 on any finding, 2 on usage
//! or environment errors. Build with `--features check-invariants` to also
//! arm the simulator's per-transaction observer during the invariants pass.
//!
//! The binary installs a counting `#[global_allocator]` (see [`alloc`]); the
//! library crate stays `#![forbid(unsafe_code)]`, so the allocator lives
//! here, where `unsafe` is denied by default but granted to that one module.

mod alloc;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use dss_check::budget::{AllocBudget, Counts, RunBudget};
use dss_check::{check_baseline_suite, detect_races};
use dss_core::{json_string, query_label, Workbench, STUDIED_QUERIES};
use dss_memsim::{Machine, MachineConfig, Protocol, SimStats};
use dss_query::{sql_for, Session};
use dss_tpcd::params;
use dss_trace::LockClass;

use crate::alloc::{AllocGate, AllocReport, CountingAlloc};

/// Counts every heap operation of the whole binary, so [`AllocGate`] scopes
/// inside the `alloc` pass see exactly what `Machine::run` does.
#[global_allocator]
static COUNTING_ALLOC: CountingAlloc = CountingAlloc;

/// What the command line asked for, plus the one workbench the trace-driven
/// passes share (its trace cache holds a query's traces across all of them;
/// the first pass that asks pays for building the database).
#[derive(Default)]
struct Ctx {
    seed: Option<u64>,
    site: Option<String>,
    /// `--report`, when it names the standalone allocation budget.
    budget_report: Option<String>,
    update: bool,
    wb: Option<Workbench>,
}

impl Ctx {
    fn workbench(&mut self) -> &mut Workbench {
        self.wb.get_or_insert_with(Workbench::paper)
    }
}

/// A pass's findings count and its section of the `--json` document, or the
/// environment error that kept it from running (exit 2).
type PassResult = Result<(usize, String), String>;

/// One verification pass.
struct Pass {
    name: &'static str,
    /// Whether `dss-check all` runs it.
    in_all: bool,
    run: fn(&mut Ctx) -> PassResult,
}

/// Every pass, in the order `all` runs them. `crash` is deliberately not in
/// `all`: it needs the `repro` binary built and runs whole child sweeps, so
/// CI invokes it as a dedicated step.
#[rustfmt::skip]
const PASSES: [Pass; 6] = [
    Pass { name: "fault",      in_all: true,  run: fault_campaign },
    Pass { name: "crash",      in_all: false, run: crash_campaign },
    Pass { name: "model",      in_all: true,  run: model },
    Pass { name: "races",      in_all: true,  run: races },
    Pass { name: "invariants", in_all: true,  run: invariants },
    Pass { name: "alloc",      in_all: true,  run: alloc_audit },
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().map_or("", String::as_str);
    let selected: Vec<&Pass> = PASSES
        .iter()
        .filter(|p| p.name == mode || (mode == "all" && p.in_all))
        .collect();
    if selected.is_empty() {
        let names: Vec<&str> = PASSES.iter().map(|p| p.name).collect();
        eprintln!(
            "usage: dss-check <{}|all> [--report PATH] [--update] [--seed N] [--site NAME] [--json]",
            names.join("|")
        );
        return ExitCode::from(2);
    }
    let mut ctx = Ctx::default();
    let mut report_path: Option<String> = None;
    let mut json = false;
    let mut rest = args[1..].iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--report" => match rest.next() {
                Some(p) => report_path = Some(p.clone()),
                None => {
                    eprintln!("--report requires a path");
                    return ExitCode::from(2);
                }
            },
            "--update" => ctx.update = true,
            "--seed" => match rest.next().map(|s| s.parse::<u64>()) {
                Some(Ok(n)) => ctx.seed = Some(n),
                _ => {
                    eprintln!("--seed requires an unsigned integer");
                    return ExitCode::from(2);
                }
            },
            "--site" => match rest.next() {
                Some(s) => ctx.site = Some(s.clone()),
                None => {
                    eprintln!("--site requires a site name");
                    return ExitCode::from(2);
                }
            },
            "--json" => json = true,
            other => {
                eprintln!("unknown option `{other}`");
                return ExitCode::from(2);
            }
        }
    }
    // With `--json`, `--report` names the combined document instead of the
    // standalone budget report.
    if !json {
        ctx.budget_report = report_path.take();
    }

    let mut findings = 0usize;
    let mut sections: Vec<String> = Vec::new();
    for pass in selected {
        let started = Instant::now();
        let (n, report) = match (pass.run)(&mut ctx) {
            Ok(done) => done,
            Err(e) => {
                eprintln!("{}: {e}", pass.name);
                return ExitCode::from(2);
            }
        };
        findings += n;
        sections.push(format!(
            "\"{}\": {{\"wall_ms\": {}, \"findings\": {n}, \"report\": {report}}}",
            pass.name,
            started.elapsed().as_millis()
        ));
    }
    if json {
        let doc = format!(
            "{{\n  \"schema\": \"dss-check/v2\",\n  \"findings\": {findings},\n  \
             \"clean\": {},\n  \"passes\": {{{}}}\n}}\n",
            findings == 0,
            sections.join(", ")
        );
        match report_path.as_deref() {
            Some(path) => {
                if let Err(e) = dss_core::write_atomic(Path::new(path), doc.as_bytes()) {
                    eprintln!("--report: writing {path}: {e}");
                    return ExitCode::from(2);
                }
                println!("json: report written to {path}");
            }
            None => print!("{doc}"),
        }
    }
    if findings > 0 {
        eprintln!("dss-check: {findings} finding(s)");
        ExitCode::from(1)
    } else {
        println!("dss-check: clean");
        ExitCode::SUCCESS
    }
}

/// Runs the fault-injection campaign: every registered site corrupts its
/// layer's input under a seed-derived schedule, and any fault the layer
/// absorbs (or any site that could not run) is a finding. `--site` restricts
/// the run to one named site.
///
/// # Errors
///
/// A `--site` name matching no site is an environment error, not a clean run.
fn fault_campaign(ctx: &mut Ctx) -> PassResult {
    let seed = ctx.seed.unwrap_or(1);
    let mut reports = dss_faultkit::run_campaign(seed);
    if let Some(name) = ctx.site.as_deref() {
        reports.retain(|r| r.site == name);
        if reports.is_empty() {
            return Err(format!("--site {name}: no such fault site"));
        }
    }
    let mut findings = 0usize;
    let mut sites = Vec::new();
    for r in &reports {
        match &r.outcome {
            dss_faultkit::Outcome::Detected { classification } => {
                println!("fault: {}: detected, classified `{classification}`", r.site);
                sites.push(format!(
                    "{{\"site\": {}, \"outcome\": \"detected\", \"classification\": {}}}",
                    json_string(r.site),
                    json_string(classification)
                ));
            }
            dss_faultkit::Outcome::Absorbed { detail } => {
                eprintln!("fault: {}: ABSORBED — {detail}", r.site);
                sites.push(format!(
                    "{{\"site\": {}, \"outcome\": \"absorbed\", \"detail\": {}}}",
                    json_string(r.site),
                    json_string(detail)
                ));
                findings += 1;
            }
            dss_faultkit::Outcome::Skipped { reason } => {
                eprintln!("fault: {}: skipped — {reason}", r.site);
                sites.push(format!(
                    "{{\"site\": {}, \"outcome\": \"skipped\", \"reason\": {}}}",
                    json_string(r.site),
                    json_string(reason)
                ));
                findings += 1;
            }
        }
    }
    println!(
        "fault: {} site(s) injected under seed {seed}, {} finding(s)",
        reports.len(),
        findings
    );
    let frag = format!(
        "{{\"seed\": {seed}, \"findings\": {findings}, \"sites\": [{}]}}",
        sites.join(", ")
    );
    Ok((findings, frag))
}

/// Runs the crash-recovery campaign (`dss-check crash`): under `--seed` (or
/// each of `DEFAULT_SEEDS`), kills a child `repro` sweep at each registered
/// crash site at a seed-chosen hit, resumes it, and requires stdout
/// byte-identical to an uninterrupted baseline plus an equal normalized
/// benchmark report. `--site` restricts the run to one site. Work directories
/// of failed sites are kept under the reported path for post-mortem (CI
/// uploads them as artifacts).
///
/// # Errors
///
/// A missing `repro` binary, a failing baseline run, or an unknown `--site`
/// is an environment error; a site that fails to recover is a finding.
fn crash_campaign(ctx: &mut Ctx) -> PassResult {
    let seeds = ctx
        .seed
        .map_or(dss_check::crash::DEFAULT_SEEDS.to_vec(), |s| vec![s]);
    let repro = dss_check::crash::find_repro()?;
    let work = std::env::temp_dir().join(format!("dss-crash-campaign-{}", std::process::id()));
    println!(
        "crash: driving {} under seed(s) {seeds:?} (work dir {})",
        repro.display(),
        work.display()
    );
    let report = dss_check::crash::run_crash_campaign(&repro, &work, &seeds, ctx.site.as_deref())?;
    let mut sites = Vec::new();
    for o in &report.outcomes {
        if o.recovered {
            println!(
                "crash: seed {}: {}: recovered — {}",
                o.seed, o.site, o.detail
            );
        } else {
            eprintln!(
                "crash: seed {}: {}: NOT RECOVERED — {}",
                o.seed, o.site, o.detail
            );
        }
        sites.push(format!(
            "{{\"seed\": {}, \"site\": {}, \"layer\": {}, \"hit\": {}, \
             \"outcome\": \"{}\", \"detail\": {}}}",
            o.seed,
            json_string(o.site),
            json_string(o.layer),
            o.hit,
            if o.recovered {
                "recovered"
            } else {
                "not-recovered"
            },
            json_string(&o.detail)
        ));
    }
    let findings = report.findings();
    println!(
        "crash: {} kill(s) resumed under seed(s) {seeds:?}, {} finding(s)",
        report.outcomes.len(),
        findings
    );
    for kept in &report.kept {
        eprintln!("crash: evidence kept at {}", kept.display());
    }
    let frag = format!(
        "{{\"seeds\": {seeds:?}, \"findings\": {findings}, \"sites\": [{}]}}",
        sites.join(", ")
    );
    Ok((findings, frag))
}

/// Runs the exhaustive coherence-protocol model pass: the kernel's full
/// reachable state space over {MSI, MESI} × 2–4 processors × 1–2 lines plus
/// the litmus suite. A violation also writes its minimal replayable
/// counterexample to `model-counterexample.txt` for CI to archive.
fn model(_ctx: &mut Ctx) -> PassResult {
    let report = dss_check::check_model();
    let mut runs = Vec::new();
    for run in &report.runs {
        let status = match (&run.violation, run.complete) {
            (Some(v), _) => format!("VIOLATION: {}", v.rule),
            (None, false) => "INCOMPLETE (state cap hit)".to_string(),
            (None, true) => "exhausted, clean".to_string(),
        };
        println!(
            "model: {} {}p ×{}L: {} states, {} transitions, {status}",
            dss_check::model::protocol_name(run.protocol),
            run.nprocs,
            run.nlines,
            run.states,
            run.transitions
        );
        runs.push(format!(
            "{{\"protocol\": \"{}\", \"procs\": {}, \"lines\": {}, \"states\": {}, \
             \"transitions\": {}, \"complete\": {}, \"violation\": {}}}",
            dss_check::model::protocol_name(run.protocol),
            run.nprocs,
            run.nlines,
            run.states,
            run.transitions,
            run.complete,
            run.violation
                .as_ref()
                .map_or("null".to_string(), |v| json_string(v.rule))
        ));
    }
    let mut litmus = Vec::new();
    for l in &report.litmus {
        match &l.failure {
            Some(why) => eprintln!("model: litmus {}: FAILED — {why}", l.name),
            None => println!("model: litmus {}: ok", l.name),
        }
        litmus.push(format!(
            "{{\"name\": {}, \"passed\": {}}}",
            json_string(l.name),
            l.failure.is_none()
        ));
    }
    if let Some(run) = report.first_violation() {
        let text = dss_check::render_counterexample(run);
        eprint!("model: counterexample:\n{text}");
        let path = Path::new("model-counterexample.txt");
        match dss_core::write_atomic(path, text.as_bytes()) {
            Ok(()) => eprintln!("model: counterexample written to {}", path.display()),
            Err(e) => eprintln!("model: writing {}: {e}", path.display()),
        }
    }
    let findings = report.findings();
    println!(
        "model: {} exploration(s), {} litmus test(s), {} finding(s)",
        report.runs.len(),
        report.litmus.len(),
        findings
    );
    let frag = format!(
        "{{\"findings\": {findings}, \"explorations\": [{}], \"litmus\": [{}]}}",
        runs.join(", "),
        litmus.join(", ")
    );
    Ok((findings, frag))
}

/// Runs the race detector over the studied queries. A race, a cycle among
/// the lock classes a replay nests (the lock-order contract; the engine
/// nests none today), or an unanalyzable trace set is a finding.
fn races(ctx: &mut Ctx) -> PassResult {
    let mut findings = 0;
    let mut queries = Vec::new();
    for query in STUDIED_QUERIES {
        let label = query_label(query);
        let traces = ctx.workbench().traces(query, 0);
        match detect_races(&traces) {
            Ok(report) => {
                for race in &report.races {
                    eprintln!("races: {label}: {race}");
                }
                let cycle = report.lock_order_cycle();
                if let Some(cycle) = &cycle {
                    eprintln!("races: {label}: lock-order cycle {cycle:?}");
                }
                println!(
                    "races: {label}: {} race(s) over {} shared accesses in {} classes; \
                     {} nested lock pair(s) {:?}",
                    report.races.len(),
                    report.total_checked(),
                    report.checked.len(),
                    report.nesting.len(),
                    report.nesting
                );
                findings += report.races.len() + usize::from(cycle.is_some());
                let pairs: Vec<String> = report
                    .nesting
                    .iter()
                    .map(|&(held, acquired)| class_names(&[held, acquired]))
                    .collect();
                queries.push(format!(
                    "{{\"query\": {}, \"races\": {}, \"checked\": {}, \"classes\": {}, \
                     \"nesting\": [{}], \"lock_order_cycle\": {}}}",
                    json_string(&label),
                    report.races.len(),
                    report.total_checked(),
                    report.checked.len(),
                    pairs.join(", "),
                    cycle.map_or("null".to_string(), |c| class_names(&c))
                ));
            }
            Err(e) => {
                eprintln!("races: {label}: traces not analyzable: {e}");
                findings += 1;
                queries.push(format!(
                    "{{\"query\": {}, \"error\": {}}}",
                    json_string(&label),
                    json_string(&e.to_string())
                ));
            }
        }
    }
    let frag = format!(
        "{{\"findings\": {findings}, \"queries\": [{}]}}",
        queries.join(", ")
    );
    Ok((findings, frag))
}

/// Lock classes as a JSON array of their names.
fn class_names(classes: &[LockClass]) -> String {
    let names: Vec<String> = classes.iter().map(|c| format!("\"{c:?}\"")).collect();
    format!("[{}]", names.join(", "))
}

/// Runs the coherence invariant suite; returns findings.
fn invariants(ctx: &mut Ctx) -> PassResult {
    let observer = if cfg!(feature = "check-invariants") {
        "per-transaction observer armed"
    } else {
        "post-run sweep only"
    };
    Ok(match check_baseline_suite(ctx.workbench()) {
        Ok(summaries) => {
            println!(
                "invariants: {} run(s) verified ({observer})",
                summaries.len()
            );
            let frag = format!(
                "{{\"runs\": {}, \"observer\": \"{observer}\", \"failure\": null}}",
                summaries.len()
            );
            (0, frag)
        }
        Err(failure) => {
            eprintln!("invariants: {failure}");
            let frag = format!(
                "{{\"observer\": \"{observer}\", \"failure\": {}}}",
                json_string(&failure.to_string())
            );
            (1, frag)
        }
    })
}

fn to_counts(r: AllocReport) -> Counts {
    Counts {
        allocs: r.allocs,
        deallocs: r.deallocs,
        reallocs: r.reallocs,
        bytes_allocated: r.bytes_allocated,
        peak_bytes: r.peak_bytes,
    }
}

/// Measures the baseline suite under the counting allocator: for each run a
/// warm-up phase (machine construction + first simulation, where buffers
/// grow) and a steady-state phase (identical second simulation on the warmed
/// machine, which must be heap-silent). The measurement itself must stay
/// single-threaded — the counters are process-global — so everything that
/// parallelizes (trace generation) happens before the first gate opens.
///
/// Then the engine's host path: one untraced execution each of
/// [`ENGINE_RUNS`], the whole of it ratcheted (the simulated machine never
/// sees host allocation, so nothing else would notice a per-row clone coming
/// back).
fn measure_suite(wb: &mut Workbench) -> Result<AllocBudget, String> {
    let configs: [(&str, MachineConfig); 2] = [
        ("MSI baseline", MachineConfig::baseline()),
        (
            "MESI",
            MachineConfig::baseline().with_protocol(Protocol::Mesi),
        ),
    ];
    let mut measured = AllocBudget::default();
    for query in STUDIED_QUERIES {
        let traces = wb.traces(query, 0);
        for (name, config) in &configs {
            let run = format!("{} / {name}", query_label(query));
            let mut stats = SimStats::default();

            let gate = AllocGate::begin();
            let mut machine = Machine::new(config.clone());
            machine.run_into(&traces, &mut stats);
            let warmup = gate.end();

            let gate = AllocGate::begin();
            machine.run_into(&traces, &mut stats);
            let steady = gate.end();

            measured.runs.push(RunBudget {
                run,
                warmup: to_counts(warmup),
                steady: to_counts(steady),
                steady_ratcheted: false,
            });
        }
    }
    for (query, path) in ENGINE_RUNS {
        let plan = wb
            .db
            .plan_sql(&sql_for(query, &params(query, 0)))
            .map_err(|e| format!("{}: {e}", query_label(query)))?;
        // Unmeasured first: whatever host-side tables the lock manager and
        // the pool grow on first use are grown, so the count does not depend
        // on which passes ran before this one.
        wb.db.run_plan(&plan, &mut Session::untraced(0));
        let mut session = Session::untraced(0);
        let gate = AllocGate::begin();
        wb.db.run_plan(&plan, &mut session);
        let execution = gate.end();
        measured.runs.push(RunBudget {
            run: format!("{} / engine untraced ({path})", query_label(query)),
            warmup: to_counts(execution),
            steady: Counts::default(),
            steady_ratcheted: false,
        });
    }
    measured.runs.push(measure_traced_twice(wb)?);
    Ok(measured)
}

/// The recording path: [`TRACED_QUERY`] executed twice on processor 0 with a
/// recording tracer, the first [`dss_trace::Trace`] dropped before the second
/// recording starts. The first grows its event buffer by doubling; the second
/// finds that buffer parked and must not allocate one again, so its
/// `reallocs` and `bytes_allocated` are the engine's alone.
fn measure_traced_twice(wb: &mut Workbench) -> Result<RunBudget, String> {
    let plan = wb
        .db
        .plan_sql(&sql_for(TRACED_QUERY, &params(TRACED_QUERY, 0)))
        .map_err(|e| format!("{}: {e}", query_label(TRACED_QUERY)))?;
    // Unmeasured first, as for the untraced engine runs: first use grows the
    // lock manager's host-side tables.
    wb.db.run_plan(&plan, &mut Session::untraced(0));
    let db = &mut wb.db;
    // On a thread of its own: parked buffers are per-thread, and the first
    // recording must find none, whatever earlier passes dropped on this one.
    let (warmup, steady) = std::thread::scope(|s| {
        s.spawn(move || {
            let mut record = || {
                let mut session = Session::new(0);
                let gate = AllocGate::begin();
                db.run_plan(&plan, &mut session);
                let trace = session.tracer.take();
                (gate.end(), trace)
            };
            let (warmup, first) = record();
            drop(first);
            let (steady, _) = record();
            (warmup, steady)
        })
        .join()
    })
    .map_err(|_| "the traced engine run panicked".to_string())?;
    Ok(RunBudget {
        run: format!(
            "{} / engine traced, recorded twice",
            query_label(TRACED_QUERY)
        ),
        warmup: to_counts(warmup),
        steady: to_counts(steady),
        steady_ratcheted: true,
    })
}

/// The engine executions the audit ratchets: a template and the operators
/// its plan is made of.
const ENGINE_RUNS: [(u8, &str); 2] = [(1, "scan, sort, group"), (9, "nested-loop and hash joins")];

/// The template the audit records twice: a scan whose trace is a few million
/// events, so an event buffer grown again shows as tens of megabytes.
const TRACED_QUERY: u8 = 6;

/// The workspace root: the first directory at or above the current one whose
/// `Cargo.toml` declares `[workspace]` — where the committed budget lives.
fn find_workspace_root() -> Result<PathBuf, String> {
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    cwd.ancestors()
        .find(|dir| {
            std::fs::read_to_string(dir.join("Cargo.toml")).is_ok_and(|m| m.contains("[workspace]"))
        })
        .map(Path::to_path_buf)
        .ok_or_else(|| format!("no workspace root above {}", cwd.display()))
}

/// The allocation audit pass; returns the number of findings.
///
/// # Errors
///
/// Environment errors (unlocatable workspace root, unwritable report paths,
/// unparsable committed budget); measurement findings are counted, not
/// errors.
fn alloc_audit(ctx: &mut Ctx) -> PassResult {
    let update = ctx.update;
    let budget_path = find_workspace_root()?.join("crates/check/alloc-budget.json");

    let measured = measure_suite(ctx.workbench())?;
    for r in &measured.runs {
        println!(
            "alloc: {}: warm-up {}; steady {}",
            r.run, r.warmup, r.steady
        );
    }
    let json = measured.to_json();
    if let Some(path) = &ctx.budget_report {
        dss_core::write_atomic(Path::new(path), json.as_bytes())
            .map_err(|e| format!("writing report: {e}"))?;
    }

    let mut problems: Vec<String> = Vec::new();
    if update {
        dss_core::write_atomic(&budget_path, json.as_bytes())
            .map_err(|e| format!("writing budget: {e}"))?;
        println!("alloc: budget written to {}", budget_path.display());
        // Even a freshly written budget must uphold the invariant the audit
        // exists for: a warmed Machine::run never touches the heap.
        problems = measured.silence_violations();
    } else {
        match std::fs::read_to_string(&budget_path) {
            Ok(text) => {
                let committed = AllocBudget::parse(&text)
                    .map_err(|e| format!("{}: {e}", budget_path.display()))?;
                problems = committed.diff(&measured);
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                problems.push(format!(
                    "no committed budget at {} — run `dss-check alloc --update` and commit it",
                    budget_path.display()
                ));
                problems.extend(measured.silence_violations());
            }
            Err(e) => return Err(format!("reading {}: {e}", budget_path.display())),
        }
    }
    for p in &problems {
        eprintln!("alloc: {p}");
    }
    println!(
        "alloc: {} run(s) audited, {} problem(s)",
        measured.runs.len(),
        problems.len()
    );
    let problem_json: Vec<String> = problems.iter().map(|p| json_string(p)).collect();
    // The measured budget is itself JSON; embed it verbatim as a section.
    let frag = format!(
        "{{\"updated\": {update}, \"problems\": [{}], \"budget\": {}}}",
        problem_json.join(", "),
        json.trim_end()
    );
    Ok((problems.len(), frag))
}
