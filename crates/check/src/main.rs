//! `dss-check` — the workbench's verification gate.
//!
//! ```text
//! dss-check lint         # workspace lint rules (lexer-based)
//! dss-check races        # happens-before race detection over Q3/Q6/Q12
//! dss-check invariants   # coherence invariants over the baseline suite
//! dss-check alloc        # allocation audit of Machine::run (counting allocator)
//! dss-check fault        # fault-injection campaign: every fault detected
//! dss-check model        # exhaustive coherence-protocol model checking
//! dss-check determinism  # source→sink nondeterminism taint over the call graph
//! dss-check locks        # static lock-order graph + dynamic nesting cross-check
//! dss-check all          # everything above
//! ```
//!
//! `alloc` options: `--report PATH` writes the measured budget JSON to
//! `PATH`; `--update` regenerates the committed
//! `crates/check/alloc-budget.json` instead of diffing against it.
//!
//! `lint` options: `--prune` rewrites `crates/check/lint-allow.txt` without
//! its stale entries (which otherwise count as findings), mirroring the
//! alloc ratchet's `--update` UX.
//!
//! `fault` options: `--seed N` replays the campaign's exact corruption
//! schedule under seed `N` (default 1); same seed, same schedule, on any
//! machine. `--site NAME` runs (and gates on) a single site — CI's
//! standalone drill steps use it. `crash` takes the same two options;
//! without `--seed` it runs every kill schedule of
//! `dss_check::crash::DEFAULT_SEEDS`.
//!
//! `--json` emits one machine-readable document (schema `dss-check/v1`)
//! covering every pass that ran — per-site fault outcomes, lint findings,
//! per-query race summaries, the allocation budget, and the model pass's
//! state/transition counts — so CI archives one artifact instead of
//! scraping stderr. With `--json`, `--report PATH` names that combined
//! document (the allocation budget is embedded as its own section);
//! without `--report` it prints to stdout after the human-readable output.
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

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod alloc;

use std::process::ExitCode;

use dss_check::budget::{AllocBudget, Counts, RunBudget};
use dss_check::{
    check_baseline_suite, detect_races, find_workspace_root, lint_workspace, Allowlist,
};
use dss_core::{query_label, Workbench, STUDIED_QUERIES};
use dss_memsim::{Machine, MachineConfig, Protocol, SimStats};

use crate::alloc::{AllocGate, AllocReport, CountingAlloc};

/// Counts every heap operation of the whole binary, so [`AllocGate`] scopes
/// inside the `alloc` pass see exactly what `Machine::run` does.
#[global_allocator]
static COUNTING_ALLOC: CountingAlloc = CountingAlloc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().map(String::as_str);
    let all = mode == Some("all");
    let run_lint = all || mode == Some("lint");
    let run_races = all || mode == Some("races");
    let run_invariants = all || mode == Some("invariants");
    let run_alloc = all || mode == Some("alloc");
    let run_fault = all || mode == Some("fault");
    let run_model = all || mode == Some("model");
    let run_determinism = all || mode == Some("determinism");
    let run_locks = all || mode == Some("locks");
    // Deliberately not in `all`: it needs the `repro` binary built and runs
    // whole child sweeps, so CI invokes it as a dedicated step.
    let run_crash = mode == Some("crash");
    if !(run_lint
        || run_races
        || run_invariants
        || run_alloc
        || run_fault
        || run_model
        || run_determinism
        || run_locks
        || run_crash)
    {
        eprintln!(
            "usage: dss-check <lint|races|invariants|alloc|fault|model|determinism|locks|crash|\
             all> [--report PATH] [--update] [--prune] [--seed N] [--site NAME] [--json]"
        );
        return ExitCode::from(2);
    }
    let mut report_path: Option<String> = None;
    let mut update = false;
    let mut prune = false;
    let mut seed: Option<u64> = None;
    let mut site: Option<String> = None;
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
            "--update" => update = true,
            "--prune" => prune = true,
            "--seed" => match rest.next().map(|s| s.parse::<u64>()) {
                Some(Ok(n)) => seed = Some(n),
                _ => {
                    eprintln!("--seed requires an unsigned integer");
                    return ExitCode::from(2);
                }
            },
            "--site" => match rest.next() {
                Some(s) => site = Some(s.clone()),
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

    // Each pass reports its findings count plus a JSON fragment for the
    // combined `--json` document.
    let mut findings = 0usize;
    let mut sections: Vec<(&'static str, String)> = Vec::new();
    if run_fault {
        match fault_campaign(seed.unwrap_or(1), site.as_deref()) {
            Ok((n, frag)) => {
                findings += n;
                sections.push(("fault", frag));
            }
            Err(e) => {
                eprintln!("fault: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if run_crash {
        let seeds = seed.map_or(dss_check::crash::DEFAULT_SEEDS.to_vec(), |s| vec![s]);
        match crash_campaign(&seeds, site.as_deref()) {
            Ok((n, frag)) => {
                findings += n;
                sections.push(("crash", frag));
            }
            Err(e) => {
                eprintln!("crash: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if run_lint {
        match lint(prune) {
            Ok((n, frag)) => {
                findings += n;
                sections.push(("lint", frag));
            }
            Err(e) => {
                eprintln!("lint: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if run_model {
        let (n, frag) = model();
        findings += n;
        sections.push(("model", frag));
    }
    if run_determinism {
        match determinism() {
            Ok((n, frag)) => {
                findings += n;
                sections.push(("determinism", frag));
            }
            Err(e) => {
                eprintln!("determinism: {e}");
                return ExitCode::from(2);
            }
        }
    }
    // The trace-driven passes share one workbench (the trace cache holds a
    // query's traces across all of them).
    if run_races || run_invariants || run_alloc || run_locks {
        let mut wb = Workbench::paper();
        if run_races {
            let (n, frag) = races(&mut wb);
            findings += n;
            sections.push(("races", frag));
        }
        if run_locks {
            match locks(&mut wb) {
                Ok((n, frag)) => {
                    findings += n;
                    sections.push(("locks", frag));
                }
                Err(e) => {
                    eprintln!("locks: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        if run_invariants {
            let (n, frag) = invariants(&mut wb);
            findings += n;
            sections.push(("invariants", frag));
        }
        if run_alloc {
            // With `--json`, `--report` names the combined document instead
            // of the standalone budget report.
            let budget_report = if json { None } else { report_path.as_deref() };
            match alloc_audit(&mut wb, budget_report, update) {
                Ok((n, frag)) => {
                    findings += n;
                    sections.push(("alloc", frag));
                }
                Err(e) => {
                    eprintln!("alloc: {e}");
                    return ExitCode::from(2);
                }
            }
        }
    }
    if json {
        let passes: Vec<String> = sections
            .iter()
            .map(|(name, frag)| format!("\"{name}\": {frag}"))
            .collect();
        let doc = format!(
            "{{\n  \"schema\": \"dss-check/v1\",\n  \"findings\": {findings},\n  \
             \"clean\": {},\n  \"passes\": {{{}}}\n}}\n",
            findings == 0,
            passes.join(", ")
        );
        match report_path.as_deref() {
            Some(path) => {
                if let Err(e) = dss_core::write_atomic(std::path::Path::new(path), doc.as_bytes()) {
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

/// Escapes `s` for embedding in a JSON string literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Runs the fault-injection campaign: every registered site corrupts its
/// layer's input under a seed-derived schedule, and any fault the layer
/// absorbs (or any site that could not run) is a finding. The static-
/// analysis drill sites from [`dss_check::drill`] join faultkit's table;
/// `only` (from `--site`) restricts the run to one named site.
///
/// # Errors
///
/// An `only` name matching no site is an environment error, not a clean run.
fn fault_campaign(seed: u64, only: Option<&str>) -> Result<(usize, String), String> {
    let mut reports = dss_faultkit::run_campaign_with_extra(seed, dss_check::drill::sites());
    if let Some(name) = only {
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
                    "{{\"site\": \"{}\", \"outcome\": \"detected\", \"classification\": \"{}\"}}",
                    esc(r.site),
                    esc(classification)
                ));
            }
            dss_faultkit::Outcome::Absorbed { detail } => {
                eprintln!("fault: {}: ABSORBED — {detail}", r.site);
                sites.push(format!(
                    "{{\"site\": \"{}\", \"outcome\": \"absorbed\", \"detail\": \"{}\"}}",
                    esc(r.site),
                    esc(detail)
                ));
                findings += 1;
            }
            dss_faultkit::Outcome::Skipped { reason } => {
                eprintln!("fault: {}: skipped — {reason}", r.site);
                sites.push(format!(
                    "{{\"site\": \"{}\", \"outcome\": \"skipped\", \"reason\": \"{}\"}}",
                    esc(r.site),
                    esc(reason)
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

/// Runs the crash-recovery campaign (`dss-check crash`): under each of
/// `seeds`, kills a child `repro` sweep at each registered crash site at a
/// seed-chosen hit, resumes it, and requires stdout byte-identical to an
/// uninterrupted baseline plus an equal normalized benchmark report. `only` (from `--site`) restricts
/// the run to one site. Work directories of failed sites are kept under the
/// reported path for post-mortem (CI uploads them as artifacts).
///
/// # Errors
///
/// A missing `repro` binary, a failing baseline run, or an unknown `only`
/// site is an environment error; a site that fails to recover is a finding.
fn crash_campaign(seeds: &[u64], only: Option<&str>) -> Result<(usize, String), String> {
    let repro = dss_check::crash::find_repro()?;
    let work = std::env::temp_dir().join(format!("dss-crash-campaign-{}", std::process::id()));
    println!(
        "crash: driving {} under seed(s) {seeds:?} (work dir {})",
        repro.display(),
        work.display()
    );
    let report = dss_check::crash::run_crash_campaign(&repro, &work, seeds, only)?;
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
            "{{\"seed\": {}, \"site\": \"{}\", \"layer\": \"{}\", \"hit\": {}, \
             \"outcome\": \"{}\", \"detail\": \"{}\"}}",
            o.seed,
            esc(o.site),
            esc(o.layer),
            o.hit,
            if o.recovered {
                "recovered"
            } else {
                "not-recovered"
            },
            esc(&o.detail)
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
fn model() -> (usize, String) {
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
            match &run.violation {
                Some(v) => format!("\"{}\"", esc(v.rule)),
                None => "null".to_string(),
            }
        ));
    }
    let mut litmus = Vec::new();
    for l in &report.litmus {
        match &l.failure {
            Some(why) => eprintln!("model: litmus {}: FAILED — {why}", l.name),
            None => println!("model: litmus {}: ok", l.name),
        }
        litmus.push(format!(
            "{{\"name\": \"{}\", \"passed\": {}}}",
            esc(l.name),
            l.failure.is_none()
        ));
    }
    if let Some(run) = report.first_violation() {
        let text = dss_check::render_counterexample(run);
        eprint!("model: counterexample:\n{text}");
        let path = std::path::Path::new("model-counterexample.txt");
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
    (findings, frag)
}

/// Runs the determinism taint pass: nondeterminism sources reachable from a
/// byte-diffable sink through the workspace call graph are findings, less
/// the committed `determinism-allow.txt` ratchet (whose stale entries are
/// findings too).
///
/// # Errors
///
/// Environment errors (unlocatable workspace root, unreadable sources).
fn determinism() -> std::io::Result<(usize, String)> {
    let cwd = std::env::current_dir()?;
    let root = find_workspace_root(&cwd)?;
    let (report, _allow) = dss_check::check_determinism(&root)?;
    let mut items = Vec::new();
    for f in &report.findings {
        eprintln!("determinism: {f}");
        items.push(format!(
            "{{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"what\": \"{}\", \
             \"chain\": \"{}\"}}",
            esc(&f.file.display().to_string()),
            f.line,
            esc(f.rule),
            esc(&f.what),
            esc(&f.chain)
        ));
    }
    for entry in &report.stale {
        eprintln!("determinism: stale allowlist entry `{entry}` no longer matches anything");
    }
    println!(
        "determinism: {} fn(s), {} sink root(s), {} source site(s) seen, \
         {} finding(s), {} stale allowlist entr(ies)",
        report.fns,
        report.sink_roots,
        report.sources_seen,
        report.findings.len(),
        report.stale.len()
    );
    let stale_json: Vec<String> = report
        .stale
        .iter()
        .map(|s| format!("\"{}\"", esc(s)))
        .collect();
    let frag = format!(
        "{{\"fns\": {}, \"sink_roots\": {}, \"sources_seen\": {}, \"findings\": [{}], \
         \"stale_allowlist\": [{}]}}",
        report.fns,
        report.sink_roots,
        report.sources_seen,
        items.join(", "),
        stale_json.join(", ")
    );
    Ok((report.findings.len() + report.stale.len(), frag))
}

/// Runs the lock-order pass: the static acquisition graph must be acyclic,
/// and every nesting pair the Q3/Q6/Q12 replays perform must be derivable
/// from it (else the extractor is blind to an acquisition site).
///
/// # Errors
///
/// Environment errors (unlocatable workspace root, unreadable sources).
fn locks(wb: &mut Workbench) -> std::io::Result<(usize, String)> {
    let cwd = std::env::current_dir()?;
    let root = find_workspace_root(&cwd)?;
    let mut report = dss_check::check_locks(&root)?;
    let mut dynamic = std::collections::BTreeSet::new();
    for query in STUDIED_QUERIES {
        let traces = wb.traces(query, 0);
        dynamic.extend(dss_check::locks::dynamic_nesting(&traces));
    }
    dss_check::locks::cross_check(&mut report, &dynamic);
    let mut items = Vec::new();
    for f in &report.findings {
        eprintln!("locks: {f}");
        items.push(format!(
            "{{\"rule\": \"{}\", \"detail\": \"{}\"}}",
            esc(f.rule),
            esc(&f.detail)
        ));
    }
    let edges: Vec<String> = report
        .edges
        .iter()
        .map(|e| {
            format!(
                "{{\"held\": \"{}\", \"acquired\": \"{}\", \"at\": \"{}:{}\", \"in\": \"{}\"}}",
                esc(&e.held),
                esc(&e.acquired),
                esc(&e.file.display().to_string()),
                e.line,
                esc(&e.in_fn)
            )
        })
        .collect();
    println!(
        "locks: {} lock(s), {} fn(s) acquiring, {} order edge(s), {} dynamic \
         pair(s) cross-checked, {} finding(s)",
        report.locks.len(),
        report.fns_with_locks,
        report.edges.len(),
        report.dynamic_pairs,
        report.findings.len()
    );
    let frag = format!(
        "{{\"locks\": {}, \"fns_with_locks\": {}, \"dynamic_pairs\": {}, \"edges\": [{}], \
         \"findings\": [{}]}}",
        report.locks.len(),
        report.fns_with_locks,
        report.dynamic_pairs,
        edges.join(", "),
        items.join(", ")
    );
    Ok((report.findings.len(), frag))
}

/// Runs the workspace lint; returns the number of findings. With `prune`,
/// stale `lint-allow.txt` entries are removed from the committed file
/// instead of counting as findings.
fn lint(prune: bool) -> std::io::Result<(usize, String)> {
    let cwd = std::env::current_dir()?;
    let root = find_workspace_root(&cwd)?;
    let mut allow = Allowlist::load(&root)?;
    let findings = lint_workspace(&root, &mut allow)?;
    let mut items = Vec::new();
    for f in &findings {
        eprintln!("lint: {f}");
        items.push(format!(
            "{{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
            esc(&f.file.display().to_string()),
            f.line,
            esc(f.rule),
            esc(&f.message)
        ));
    }
    let stale = allow.unused();
    let mut pruned = false;
    if prune && !stale.is_empty() {
        let path = root.join("crates/check/lint-allow.txt");
        let text = std::fs::read_to_string(&path)?;
        let kept = dss_check::lint::prune_allowlist_text(&text, &stale);
        dss_core::write_atomic(&path, kept.as_bytes())?;
        println!(
            "lint: pruned {} stale entr(ies) from {}",
            stale.len(),
            path.display()
        );
        pruned = true;
    } else {
        for entry in &stale {
            eprintln!("lint: stale allowlist entry `{entry}` no longer matches anything");
        }
    }
    println!(
        "lint: {} finding(s), {} stale allowlist entr(ies)",
        findings.len(),
        stale.len()
    );
    let stale_json: Vec<String> = stale.iter().map(|s| format!("\"{}\"", esc(s))).collect();
    let frag = format!(
        "{{\"findings\": [{}], \"stale_allowlist\": [{}], \"pruned\": {pruned}}}",
        items.join(", "),
        stale_json.join(", ")
    );
    let stale_findings = if pruned { 0 } else { stale.len() };
    Ok((findings.len() + stale_findings, frag))
}

/// Runs the race detector over the studied queries; returns findings.
fn races(wb: &mut Workbench) -> (usize, String) {
    let mut findings = 0;
    let mut queries = Vec::new();
    for query in STUDIED_QUERIES {
        let traces = wb.traces(query, 0);
        match detect_races(&traces) {
            Ok(report) => {
                for race in &report.races {
                    eprintln!("races: {}: {race}", query_label(query));
                }
                println!(
                    "races: {}: {} race(s) over {} shared accesses in {} classes",
                    query_label(query),
                    report.races.len(),
                    report.total_checked(),
                    report.checked.len()
                );
                findings += report.races.len();
                queries.push(format!(
                    "{{\"query\": \"{}\", \"races\": {}, \"checked\": {}, \"classes\": {}}}",
                    esc(&query_label(query)),
                    report.races.len(),
                    report.total_checked(),
                    report.checked.len()
                ));
            }
            Err(e) => {
                eprintln!("races: {}: traces not analyzable: {e}", query_label(query));
                findings += 1;
                queries.push(format!(
                    "{{\"query\": \"{}\", \"error\": \"{}\"}}",
                    esc(&query_label(query)),
                    esc(&e.to_string())
                ));
            }
        }
    }
    let frag = format!(
        "{{\"findings\": {findings}, \"queries\": [{}]}}",
        queries.join(", ")
    );
    (findings, frag)
}

/// Runs the coherence invariant suite; returns findings.
fn invariants(wb: &mut Workbench) -> (usize, String) {
    let observer = if cfg!(feature = "check-invariants") {
        "per-transaction observer armed"
    } else {
        "post-run sweep only"
    };
    match check_baseline_suite(wb) {
        Ok(summaries) => {
            println!(
                "invariants: {} run(s) verified ({observer})",
                summaries.len()
            );
            let frag = format!(
                "{{\"runs\": {}, \"observer\": \"{}\", \"failure\": null}}",
                summaries.len(),
                esc(observer)
            );
            (0, frag)
        }
        Err(failure) => {
            eprintln!("invariants: {failure}");
            let frag = format!(
                "{{\"observer\": \"{}\", \"failure\": \"{}\"}}",
                esc(observer),
                esc(&failure.to_string())
            );
            (1, frag)
        }
    }
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
pub fn measure_suite(wb: &mut Workbench) -> AllocBudget {
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
            });
        }
    }
    measured
}

/// The allocation audit pass; returns the number of findings.
///
/// # Errors
///
/// Environment errors (unlocatable workspace root, unwritable report paths,
/// unparsable committed budget); measurement findings are counted, not
/// errors.
fn alloc_audit(
    wb: &mut Workbench,
    report_path: Option<&str>,
    update: bool,
) -> Result<(usize, String), String> {
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    let root = find_workspace_root(&cwd).map_err(|e| e.to_string())?;
    let budget_path = root.join("crates/check/alloc-budget.json");

    let measured = measure_suite(wb);
    for r in &measured.runs {
        println!(
            "alloc: {}: warm-up {}; steady {}",
            r.run, r.warmup, r.steady
        );
    }
    let json = measured.to_json();
    if let Some(path) = report_path {
        dss_core::write_atomic(std::path::Path::new(path), json.as_bytes())
            .map_err(|e| format!("writing report: {e}"))?;
    }

    let mut problems: Vec<String> = Vec::new();
    if update {
        dss_core::write_atomic(&budget_path, json.as_bytes())
            .map_err(|e| format!("writing budget: {e}"))?;
        println!("alloc: budget written to {}", budget_path.display());
        // Even a freshly written budget must uphold the invariant the audit
        // exists for: a warmed Machine::run never touches the heap.
        for r in &measured.runs {
            if !r.steady.is_heap_silent() {
                problems.push(format!(
                    "{}: steady-state heap activity ({}) — Machine::run must not allocate once warmed",
                    r.run, r.steady
                ));
            }
        }
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
                for r in &measured.runs {
                    if !r.steady.is_heap_silent() {
                        problems.push(format!(
                            "{}: steady-state heap activity ({})",
                            r.run, r.steady
                        ));
                    }
                }
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
    let problem_json: Vec<String> = problems.iter().map(|p| format!("\"{}\"", esc(p))).collect();
    // The measured budget is itself JSON; embed it verbatim as a section.
    let frag = format!(
        "{{\"updated\": {update}, \"problems\": [{}], \"budget\": {}}}",
        problem_json.join(", "),
        json.trim_end()
    );
    Ok((problems.len(), frag))
}
