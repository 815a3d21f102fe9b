//! `dss-check determinism` — static source→sink taint over the call graph.
//!
//! Every result in the reproduction rests on one invariant: same seed ⇒
//! bit-identical stdout at any `--jobs`/chunk size/trace mode.
//! The golden tests and CI cmp drills enforce it dynamically; this pass adds
//! the static story. It classifies nondeterminism **sources** —
//! `Instant::now`/`SystemTime::now`, iteration over `RandomState`-hashed
//! `HashMap`/`HashSet` state, `thread::current()`, environment reads
//! (`env::var`, `env::temp_dir`, `available_parallelism`, `process::id`),
//! and pointer→integer casts — and **sinks** — the byte-diffable stdout
//! surface and `--bench-json` writer in `repro`, and the trace/block codec
//! writers — then reports every source whose function lies inside a sink's
//! transitive call tree, with the shortest sink→source call chain.
//!
//! Intentional nondeterminism (stderr timing, tmp-file naming) is
//! allowlisted in a committed
//! `crates/check/determinism-allow.txt` with the same justified-entry and
//! stale-entry discipline as `lint-allow.txt`.
//!
//! The taint lattice is two-point (clean / tainted-reaches-sink) over fns,
//! not values: a source *anywhere inside* a sink's dynamic extent is assumed
//! able to reach the sink's output. That over-approximates (a watchdog
//! timestamp that only gates a deadline still flags) and the allowlist
//! absorbs the reviewed exceptions; the converse under-approximation —
//! a tainted value returned upward past the sink's caller — is covered by
//! sink roots sitting high (e.g. `repro`'s `main`). DESIGN.md §5i has the
//! full inventory.

use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};

use crate::callgraph::{load_workspace, CallGraph, SourceFile};
use crate::lexer::{Token, TokenKind};
use crate::lint::Allowlist;
use crate::parse::{parse_file, Binding, CallKind};

/// Classification for wall-clock reads on a sink path.
pub const RULE_TIME: &str = "wall-clock time reaches a byte-diffable sink";
/// Classification for hash-order-dependent iteration on a sink path.
pub const RULE_HASH_ORDER: &str = "hash-iteration order reaches a byte-diffable sink";
/// Classification for thread-identity reads on a sink path.
pub const RULE_THREAD_ID: &str = "thread identity reaches a byte-diffable sink";
/// Classification for environment reads on a sink path.
pub const RULE_ENV: &str = "environment read reaches a byte-diffable sink";
/// Classification for address-as-value casts on a sink path.
pub const RULE_ADDR: &str = "address-as-value cast reaches a byte-diffable sink";
/// Classification for files the parser could not follow (nothing can be
/// proven about a file that did not parse).
pub const RULE_PARSE: &str = "file not analyzable by the syntactic parser";

/// Methods whose call on a hash container observes its iteration order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
    "retain",
];

/// `std::env` functions that read the environment.
const ENV_FNS: &[&str] = &["var", "var_os", "vars", "vars_os", "temp_dir"];

/// Byte-diffable sink surfaces: `(file substring, selector)`. A fn in a
/// matching file is a sink root when the selector recognizes it.
const SINK_SPECS: &[(&str, SinkSel)] = &[
    // repro's stdout tables/checks and its --bench-json writer.
    ("crates/bench/src/bin/repro.rs", SinkSel::StdoutOrReport),
    // The trace/block codec writers: the on-disk byte stream they produce
    // is itself diffed by the CI cmp drills.
    ("crates/trace/src/io.rs", SinkSel::CodecWriters),
];

/// How a sink spec recognizes root fns within its file.
#[derive(Clone, Copy, Debug)]
enum SinkSel {
    /// Uses `print!`/`println!`, calls `write_atomic`, or is named
    /// `to_json` (the bench-json serializer).
    StdoutOrReport,
    /// Is named `write_*` or is a `BlockWriter` method.
    CodecWriters,
}

/// One determinism finding (post-allowlist).
#[derive(Clone, Debug)]
pub struct DetFinding {
    /// Workspace-relative file of the source site.
    pub file: PathBuf,
    /// 1-based line of the source site (0 for whole-file findings).
    pub line: usize,
    /// The classification rule that fired.
    pub rule: &'static str,
    /// What the source is (`Instant::now`, `iteration over \`cache\``, …).
    pub what: String,
    /// The sink→source call chain, rendered with qualified fn names.
    pub chain: String,
}

impl std::fmt::Display for DetFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {} — via {}",
            self.file.display(),
            self.line,
            self.rule,
            self.what,
            self.chain
        )
    }
}

/// The determinism pass's result.
#[derive(Clone, Debug, Default)]
pub struct DetReport {
    /// Findings that survived the allowlist.
    pub findings: Vec<DetFinding>,
    /// Allowlist entries that no longer match anything.
    pub stale: Vec<String>,
    /// Source sites seen before allowlisting (reported for scale).
    pub sources_seen: usize,
    /// Sink-root fns identified.
    pub sink_roots: usize,
    /// Functions analyzed.
    pub fns: usize,
}

/// Runs the determinism pass over the workspace at `root`, consulting the
/// committed `crates/check/determinism-allow.txt`.
///
/// # Errors
///
/// Propagates filesystem errors; findings are data, not errors.
pub fn check_determinism(root: &Path) -> io::Result<(DetReport, Allowlist)> {
    let files = load_workspace(root)?;
    let mut allow = Allowlist::load_at(root, "crates/check/determinism-allow.txt")?;
    let report = analyze_determinism(&files, &mut allow, &[]);
    Ok((report, allow))
}

/// Pure analysis over an explicit file set — the workspace pass and the
/// fault-injection drill share this entry point.
pub fn analyze_determinism(
    files: &[SourceFile],
    allow: &mut Allowlist,
    features: &[&str],
) -> DetReport {
    let graph = CallGraph::build(files);
    let mut report = DetReport {
        fns: graph.nodes.len(),
        ..DetReport::default()
    };

    // A file that does not parse hides an unknown number of sources.
    for (fi, err) in &graph.parse_errors {
        report.sources_seen += 1;
        let file = &files[*fi].rel;
        if !allow.permits(file, &err.to_string()) {
            report.findings.push(DetFinding {
                file: file.clone(),
                line: 0,
                rule: RULE_PARSE,
                what: err.to_string(),
                chain: "(no call graph for this file)".to_string(),
            });
        }
    }

    let roots: Vec<usize> = (0..graph.nodes.len())
        .filter(|&i| is_sink_root(&graph, files, i))
        .collect();
    report.sink_roots = roots.len();
    let parents = graph.reach_from(&roots, features);

    // Fields anywhere in the workspace whose type hashes with RandomState;
    // receivers are matched by name (an over-approximation the allowlist
    // absorbs — a same-named ordered container would flag, not hide).
    let hash_fields: BTreeSet<String> = files
        .iter()
        .filter_map(|f| parse_file(&f.text).ok())
        .flat_map(|p| p.fields)
        .filter(|f| is_hash_type(&f.ty))
        .map(|f| f.name)
        .collect();

    for (fi, file) in files.iter().enumerate() {
        let Ok(parsed) = parse_file(&file.text) else {
            continue; // already reported above
        };
        let lines: Vec<&str> = file.text.lines().collect();
        for (oi, f) in parsed.fns.iter().enumerate() {
            let node = graph.by_file[fi][oi];
            if !graph.enabled(node, features) || parents[node].is_none() {
                continue;
            }
            let mut local_hash: BTreeSet<&str> = hash_fields.iter().map(String::as_str).collect();
            for Binding { name, ty, .. } in &f.bindings {
                if is_hash_type(ty) {
                    local_hash.insert(name);
                }
            }
            let sites = scan_sources(&parsed.toks, f.body.clone(), &local_hash);
            report.sources_seen += sites.len();
            if sites.is_empty() {
                continue;
            }
            let chain = graph.render_chain(&graph.chain(&parents, node));
            for (line, rule, what) in sites {
                let line_text = lines.get(line.saturating_sub(1)).copied().unwrap_or("");
                if !allow.permits(&file.rel, line_text) {
                    report.findings.push(DetFinding {
                        file: file.rel.clone(),
                        line,
                        rule,
                        what,
                        chain: chain.clone(),
                    });
                }
            }
        }
    }
    report.stale = allow.unused();
    report
}

/// Whether `ty` (space-joined type tokens) names a `RandomState`-hashed
/// container.
fn is_hash_type(ty: &str) -> bool {
    ty.split(' ').any(|w| w == "HashMap" || w == "HashSet")
}

/// Whether graph node `i` is a sink root per [`SINK_SPECS`].
fn is_sink_root(graph: &CallGraph, files: &[SourceFile], i: usize) -> bool {
    let node = &graph.nodes[i];
    let rel = files[node.file].rel.to_string_lossy();
    for (file_pat, sel) in SINK_SPECS {
        if !rel.ends_with(file_pat) {
            continue;
        }
        let hit = match sel {
            SinkSel::StdoutOrReport => {
                node.name == "to_json"
                    || node.calls.iter().any(|c| {
                        (c.kind == CallKind::Macro
                            && (c.name() == "println" || c.name() == "print"))
                            || (c.kind == CallKind::Path && c.name() == "write_atomic")
                    })
            }
            SinkSel::CodecWriters => {
                node.name.starts_with("write") || node.self_ty.as_deref() == Some("BlockWriter")
            }
        };
        if hit {
            return true;
        }
    }
    false
}

/// Scans one fn body for nondeterminism sources. Returns
/// `(line, rule, what)` triples in token order.
fn scan_sources(
    toks: &[Token<'_>],
    body: std::ops::Range<usize>,
    hash_names: &BTreeSet<&str>,
) -> Vec<(usize, &'static str, String)> {
    let mut out = Vec::new();
    let id = |i: usize, s: &str| body.contains(&i) && toks[i].is_ident(s);
    let p = |i: usize, c: char| body.contains(&i) && toks[i].is_punct(c);
    let path2 =
        |i: usize, a: &str, b: &str| id(i, a) && p(i + 1, ':') && p(i + 2, ':') && id(i + 3, b);
    for i in body.clone() {
        let t = &toks[i];
        let line = t.line;
        if path2(i, "Instant", "now") || path2(i, "SystemTime", "now") {
            out.push((line, RULE_TIME, format!("`{}::now`", t.text)));
        } else if path2(i, "thread", "current") {
            out.push((line, RULE_THREAD_ID, "`thread::current`".to_string()));
        } else if path2(i, "process", "id") {
            out.push((line, RULE_ENV, "`process::id`".to_string()));
        } else if t.is_ident("env")
            && p(i + 1, ':')
            && p(i + 2, ':')
            && body.contains(&(i + 3))
            && toks[i + 3].kind == TokenKind::Ident
            && ENV_FNS.contains(&toks[i + 3].text)
        {
            out.push((line, RULE_ENV, format!("`env::{}`", toks[i + 3].text)));
        } else if t.is_ident("available_parallelism") && p(i + 1, '(') {
            out.push((line, RULE_ENV, "`available_parallelism`".to_string()));
        } else if t.is_ident("as") && p(i + 1, '*') {
            out.push((line, RULE_ADDR, "raw-pointer cast chain".to_string()));
        } else if (t.is_ident("as_ptr") || t.is_ident("as_mut_ptr"))
            && p(i + 1, '(')
            && p(i + 2, ')')
            && id(i + 3, "as")
        {
            out.push((line, RULE_ADDR, format!("`{}() as …`", t.text)));
        } else if t.is_punct('.')
            && body.contains(&(i + 1))
            && toks[i + 1].kind == TokenKind::Ident
            && ITER_METHODS.contains(&toks[i + 1].text)
            && p(i + 2, '(')
            && i > body.start
            && toks[i - 1].kind == TokenKind::Ident
            && hash_names.contains(toks[i - 1].text)
        {
            out.push((
                line,
                RULE_HASH_ORDER,
                format!(
                    "`{}.{}()` on a hash container",
                    toks[i - 1].text,
                    toks[i + 1].text
                ),
            ));
        } else if t.is_ident("for") {
            // `for pat in EXPR {`: a hash-typed name anywhere in EXPR.
            if let Some((name, at)) = for_loop_hash_expr(toks, &body, i, hash_names) {
                out.push((
                    at,
                    RULE_HASH_ORDER,
                    format!("`for … in` over hash container `{name}`"),
                ));
            }
        }
    }
    out
}

/// For a `for` at `i`, finds a hash-typed ident inside the iterated
/// expression (between top-level `in` and the loop's `{`).
fn for_loop_hash_expr(
    toks: &[Token<'_>],
    body: &std::ops::Range<usize>,
    i: usize,
    hash_names: &BTreeSet<&str>,
) -> Option<(String, usize)> {
    let mut depth = 0i64;
    let mut j = i + 1;
    // Find the pattern's `in`.
    while j < body.end {
        let t = &toks[j];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if t.is_punct('{') || t.is_punct(';') {
            return None; // not a for-loop shape we follow
        } else if t.is_ident("in") && depth == 0 {
            break;
        }
        j += 1;
    }
    let mut k = j + 1;
    let mut depth = 0i64;
    while k < body.end {
        let t = &toks[k];
        if t.is_punct('{') && depth == 0 {
            return None;
        }
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if t.kind == TokenKind::Ident
            && hash_names.contains(t.text)
            && !toks.get(k + 1).is_some_and(|n| n.is_punct('.'))
        {
            // A hash name followed by `.` is deferred to the method rule
            // (`seen.drain()` would double-report); bare names — `&self.map`
            // ends in one — flag here.
            return Some((t.text.to_string(), t.line));
        }
        k += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(rel: &str, text: &str) -> SourceFile {
        SourceFile {
            rel: PathBuf::from(rel),
            text: text.to_string(),
        }
    }

    fn sink_main(body: &str) -> SourceFile {
        file(
            "crates/bench/src/bin/repro.rs",
            &format!("fn main() {{ println!(\"t\"); {body} }}"),
        )
    }

    #[test]
    fn source_inside_sink_extent_is_a_finding() {
        let files = [
            sink_main("helper();"),
            file(
                "crates/core/src/sim.rs",
                "pub fn helper() { let t = Instant::now(); }",
            ),
        ];
        let mut allow = Allowlist::default();
        let r = analyze_determinism(&files, &mut allow, &[]);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].rule, RULE_TIME);
        assert!(r.findings[0].chain.contains("main -> helper"));
    }

    #[test]
    fn source_outside_any_sink_extent_is_clean() {
        let files = [
            sink_main(""),
            file(
                "crates/core/src/sim.rs",
                "pub fn unreached() { let t = Instant::now(); }",
            ),
        ];
        let r = analyze_determinism(&files, &mut Allowlist::default(), &[]);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn hash_iteration_flags_fields_and_locals() {
        let files = [
            sink_main("render(); drainit();"),
            file(
                "crates/query/src/exec.rs",
                "struct S { cache: HashMap<u64, u64> }
                 impl S {
                     fn render(&self) { for (k, v) in &self.cache { emit(k); } }
                     fn drainit(&self) {
                         let mut seen: HashSet<u64> = HashSet::new();
                         for v in seen.drain() { emit(v); }
                     }
                 }
                 fn emit(_: u64) {}",
            ),
        ];
        let r = analyze_determinism(&files, &mut Allowlist::default(), &[]);
        let rules: Vec<&str> = r.findings.iter().map(|f| f.rule).collect();
        assert_eq!(
            rules,
            vec![RULE_HASH_ORDER, RULE_HASH_ORDER],
            "{:?}",
            r.findings
        );
    }

    #[test]
    fn count_only_hash_use_is_clean() {
        let files = [
            sink_main("count();"),
            file(
                "crates/query/src/agg.rs",
                "struct A { distinct: HashSet<u64> }
                 impl A { fn count(&self) -> usize { self.distinct.len() } }",
            ),
        ];
        let r = analyze_determinism(&files, &mut Allowlist::default(), &[]);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn allowlist_absorbs_and_ratchets() {
        let files = [
            sink_main("helper();"),
            file(
                "crates/core/src/sim.rs",
                "pub fn helper() { let started = Instant::now(); }",
            ),
        ];
        let mut allow = Allowlist::parse("crates/core/src/sim.rs :: Instant::now\n");
        let r = analyze_determinism(&files, &mut allow, &[]);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert!(r.stale.is_empty());
        assert_eq!(r.sources_seen, 1, "source still counted");

        let mut stale = Allowlist::parse("crates/core/src/sim.rs :: SystemTime\n");
        let r = analyze_determinism(&files, &mut stale, &[]);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.stale.len(), 1, "unmatched entry is stale");
    }

    #[test]
    fn env_thread_and_parse_failures_flag() {
        let files = [
            sink_main("a(); b(); c();"),
            file(
                "crates/core/src/workload.rs",
                "pub fn a() { let d = std::env::temp_dir(); }
                 pub fn b() { let j = std::thread::available_parallelism(); }
                 pub fn c() { let id = std::thread::current(); }",
            ),
            file("crates/core/src/broken.rs", "fn broken() { let x = "),
        ];
        let r = analyze_determinism(&files, &mut Allowlist::default(), &[]);
        let rules: BTreeSet<&str> = r.findings.iter().map(|f| f.rule).collect();
        assert!(rules.contains(RULE_ENV), "{:?}", r.findings);
        assert!(rules.contains(RULE_THREAD_ID));
        assert!(rules.contains(RULE_PARSE));
    }

    #[test]
    fn codec_writers_are_sink_roots() {
        let files = [file(
            "crates/trace/src/io.rs",
            "pub fn write_trace_blocks() { stamp(); }
             fn stamp() { let t = SystemTime::now(); }",
        )];
        let r = analyze_determinism(&files, &mut Allowlist::default(), &[]);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert!(r.findings[0].chain.contains("write_trace_blocks -> stamp"));
    }
}
