//! `dss-check locks` — static lock-acquisition order over the call graph.
//!
//! The traced engine serializes shared metadata behind simulated spinlocks
//! (`LockToken` events the race detector treats as release/acquire edges)
//! and the host-side pipeline uses real `std::sync` primitives. Deadlock
//! freedom for both reduces to the classic condition: the "acquire B while
//! holding A" relation must be acyclic. This pass extracts that relation
//! statically and checks it, then cross-checks it against the nesting the
//! dynamic replays actually perform.
//!
//! **Lock identities.** A simulated spinlock is identified by its
//! `LockClass` variant (`LockClass::BufMgr`, …): the class is resolved from
//! the `LockToken::new(addr, LockClass::X)` constructor, either inline in
//! the acquire call, through a struct-literal field init (`lock:
//! LockToken::new(…)` makes `self.lock` that class), or through a `let`
//! binding. A host lock is identified by the `Mutex`/`RwLock`-typed field
//! or binding name it is acquired through (`Mutex(merge)`).
//!
//! **Holding.** `lock_acquire(tok)`/`lock_release(tok)` bracket spinlock
//! sections exactly. A host guard from `.lock()`/`.read()`/`.write()` is
//! held to the end of the enclosing statement, or to the end of the fn when
//! `let`-bound — an over-approximation (guards dropped early stay "held")
//! that can only add order edges, never hide one. While any lock is held,
//! every call's transitive may-acquire set contributes edges.
//!
//! A cycle in the resulting order graph is a finding ([`RULE_CYCLE`]); a
//! nesting pair observed by the Q3/Q6/Q12 replays that static analysis
//! never derived is a finding too ([`RULE_DYNAMIC`]) — it means the
//! extractor lost track of an acquisition site.

use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};

use dss_trace::{EventKind, Trace};

use crate::callgraph::{load_workspace, CallGraph, SourceFile};
use crate::lexer::{Token, TokenKind};
use crate::parse::parse_file;

/// Classification for a cycle in the static lock-order graph.
pub const RULE_CYCLE: &str = "lock-order cycle across acquisition sites";
/// Classification for dynamic nesting the static graph never derived.
pub const RULE_DYNAMIC: &str = "dynamic lock nesting outside the static order graph";

/// Guard-producing methods on `Mutex`/`RwLock`.
const GUARD_METHODS: &[&str] = &["lock", "read", "write"];

/// One `held → acquired` edge with an example site.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct LockEdge {
    /// Lock held at the acquisition site.
    pub held: String,
    /// Lock acquired while holding it.
    pub acquired: String,
    /// Workspace-relative file of the example site.
    pub file: PathBuf,
    /// 1-based line of the example site.
    pub line: usize,
    /// Qualified fn the site is in.
    pub in_fn: String,
    /// For interprocedural edges, the callee whose may-acquire set supplied
    /// `acquired`.
    pub via_call: Option<String>,
}

/// One lock-order finding.
#[derive(Clone, Debug)]
pub struct LockFinding {
    /// The classification rule that fired.
    pub rule: &'static str,
    /// Human-readable description (cycle path or unexplained pair).
    pub detail: String,
}

impl std::fmt::Display for LockFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.rule, self.detail)
    }
}

/// The lock pass's result.
#[derive(Clone, Debug, Default)]
pub struct LockReport {
    /// The static order graph, deduplicated by `(held, acquired)` with the
    /// first site seen kept as the example.
    pub edges: Vec<LockEdge>,
    /// Cycle and cross-check findings.
    pub findings: Vec<LockFinding>,
    /// Every lock identity seen at an acquisition site.
    pub locks: BTreeSet<String>,
    /// Fns containing at least one acquisition site.
    pub fns_with_locks: usize,
    /// Dynamic nesting pairs cross-checked (0 until [`cross_check`] runs).
    pub dynamic_pairs: usize,
}

/// Runs the static half over the workspace at `root` (cycles only; the
/// dynamic cross-check needs traces the caller replays).
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn check_locks(root: &Path) -> io::Result<LockReport> {
    let files = load_workspace(root)?;
    Ok(analyze_locks(&files, &[]))
}

/// Intra-fn lock event, in token order.
#[derive(Clone)]
enum Ev {
    Acq(String, usize),
    Rel(String),
    /// Guard acquire that auto-releases after token index `.2`.
    Scoped(String, usize, usize),
    /// A call site (for interprocedural edges): ordinal into the fn's
    /// parsed call list.
    Call(usize),
}

/// Pure analysis over an explicit file set; `features` arms feature-gated
/// fns (the inverted-pair drill analyzes with its gate open).
pub fn analyze_locks(files: &[SourceFile], features: &[&str]) -> LockReport {
    let graph = CallGraph::build(files);
    let mut report = LockReport::default();

    // Pass 1: name → lock identity, workspace-wide. Struct fields typed
    // Mutex/RwLock, plus names initialized from `LockToken::new(…)`.
    let mut names: BTreeMap<String, String> = BTreeMap::new();
    let mut parsed_files = Vec::with_capacity(files.len());
    for file in files {
        let parsed = parse_file(&file.text).ok();
        if let Some(p) = &parsed {
            for f in &p.fields {
                if let Some(id) = host_lock_id(&f.name, &f.ty) {
                    names.insert(f.name.clone(), id);
                }
            }
            for fun in &p.fns {
                for b in &fun.bindings {
                    if let Some(id) = host_lock_id(&b.name, &b.ty) {
                        names.insert(b.name.clone(), id);
                    }
                }
            }
            collect_token_inits(&p.toks, &mut names);
        }
        parsed_files.push(parsed);
    }

    // Pass 2: per-fn event scan → direct acquires + intraprocedural edges.
    let mut events: Vec<Vec<Ev>> = vec![Vec::new(); graph.nodes.len()];
    for (fi, parsed) in parsed_files.iter().enumerate() {
        let Some(p) = parsed else { continue };
        for (oi, f) in p.fns.iter().enumerate() {
            let node = graph.by_file[fi][oi];
            if graph.enabled(node, features) {
                events[node] = scan_lock_events(&p.toks, f, &names);
            }
        }
    }

    let mut direct: Vec<BTreeSet<String>> = events
        .iter()
        .map(|evs| {
            evs.iter()
                .filter_map(|e| match e {
                    Ev::Acq(id, _) | Ev::Scoped(id, _, _) => Some(id.clone()),
                    _ => None,
                })
                .collect()
        })
        .collect();
    report.fns_with_locks = direct.iter().filter(|s| !s.is_empty()).count();

    // Transitive may-acquire over call edges, to fixpoint. The workspace
    // graph is small; the loop converges in a handful of rounds.
    loop {
        let mut changed = false;
        for i in 0..graph.nodes.len() {
            if !graph.enabled(i, features) {
                continue;
            }
            let mut add = Vec::new();
            for &j in &graph.edges[i] {
                if graph.enabled(j, features) {
                    for id in &direct[j] {
                        if !direct[i].contains(id) {
                            add.push(id.clone());
                        }
                    }
                }
            }
            for id in add {
                direct[i].insert(id);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let may_acquire = direct;

    // Pass 3: replay each fn's events with a held multiset, emitting edges.
    let mut seen: BTreeSet<(String, String)> = BTreeSet::new();
    for (node, evs) in events.iter().enumerate() {
        let n = &graph.nodes[node];
        let file = files[n.file].rel.clone();
        let mut held: Vec<(String, Option<usize>)> = Vec::new(); // (id, expiry)
        for ev in evs {
            match ev {
                Ev::Acq(id, line) | Ev::Scoped(id, line, _) => {
                    // Self re-acquisition is a *discipline* fault the trace
                    // checker owns; order edges relate distinct locks.
                    for (h, _) in held.iter().filter(|(h, _)| h != id) {
                        push_edge(&mut report, &mut seen, h, id, &file, *line, &n.qpath, None);
                    }
                    report.locks.insert(id.clone());
                    let expiry = match ev {
                        Ev::Scoped(_, _, until) => Some(*until),
                        _ => None,
                    };
                    held.push((id.clone(), expiry));
                }
                Ev::Rel(id) => {
                    if let Some(at) = held.iter().rposition(|(h, _)| h == id) {
                        held.remove(at);
                    }
                }
                Ev::Call(ord) => {
                    if held.is_empty() {
                        continue;
                    }
                    let Some(call) = n.calls.get(*ord) else {
                        continue;
                    };
                    for &callee in &graph.edges[node] {
                        if !graph.enabled(callee, features)
                            || graph.nodes[callee].name != *call.name()
                        {
                            continue;
                        }
                        for id in &may_acquire[callee] {
                            for (h, _) in &held {
                                if h != id {
                                    push_edge(
                                        &mut report,
                                        &mut seen,
                                        h,
                                        id,
                                        &file,
                                        call.line,
                                        &n.qpath,
                                        Some(&graph.nodes[callee].qpath),
                                    );
                                }
                            }
                        }
                    }
                }
            }
            // Expire scoped guards whose statement ended before the *next*
            // event; expiry indices are compared against the event's own
            // position via the stored token index.
        }
        let _ = held; // balance not required: release omission is covered
                      // by the trace-level lock-discipline checker.
    }

    find_cycles(&mut report);
    report
}

/// Adds one deduplicated edge.
#[allow(clippy::too_many_arguments)] // plain edge constructor
fn push_edge(
    report: &mut LockReport,
    seen: &mut BTreeSet<(String, String)>,
    held: &str,
    acquired: &str,
    file: &Path,
    line: usize,
    in_fn: &str,
    via_call: Option<&str>,
) {
    report.locks.insert(held.to_string());
    report.locks.insert(acquired.to_string());
    if seen.insert((held.to_string(), acquired.to_string())) {
        report.edges.push(LockEdge {
            held: held.to_string(),
            acquired: acquired.to_string(),
            file: file.to_path_buf(),
            line,
            in_fn: in_fn.to_string(),
            via_call: via_call.map(str::to_string),
        });
    }
}

/// `Mutex`/`RwLock` typed name → its lock identity.
fn host_lock_id(name: &str, ty: &str) -> Option<String> {
    let mut words = ty.split(' ');
    if words.any(|w| w == "Mutex" || w == "RwLock") {
        Some(format!("Mutex({name})"))
    } else {
        None
    }
}

/// Scans a whole file's token stream for `NAME : LockToken :: new ( …
/// LockClass :: C … )` (struct-literal init) and `let NAME = LockToken ::
/// new ( … )`, recording `NAME → LockClass::C`.
fn collect_token_inits(toks: &[Token<'_>], names: &mut BTreeMap<String, String>) {
    for i in 0..toks.len() {
        if !(toks[i].is_ident("LockToken")
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 3).is_some_and(|t| t.is_ident("new")))
        {
            continue;
        }
        let Some(class) = class_in_group(toks, i + 4) else {
            continue;
        };
        // Walk back over the initializer position: `name:` (struct literal
        // — requiring an identifier before the `:` rules out the second
        // colon of a `::` path) or `name =` (let/assignment).
        let name = (i >= 2
            && toks[i - 2].kind == TokenKind::Ident
            && (toks[i - 1].is_punct(':') || toks[i - 1].is_punct('=')))
        .then(|| &toks[i - 2]);
        if let Some(n) = name {
            names.insert(n.text.to_string(), class);
        }
    }
}

/// Finds `LockClass :: C` inside the paren group starting at `open` (which
/// must index a `(`).
fn class_in_group(toks: &[Token<'_>], open: usize) -> Option<String> {
    if !toks.get(open)?.is_punct('(') {
        return None;
    }
    let mut depth = 0i64;
    let mut i = open;
    while let Some(t) = toks.get(i) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return None;
            }
        } else if t.is_ident("LockClass")
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 3).is_some_and(|t| t.kind == TokenKind::Ident)
        {
            return Some(format!("LockClass::{}", toks[i + 3].text));
        }
        i += 1;
    }
    None
}

/// Resolves a `lock_acquire`/`lock_release` argument group to an identity:
/// inline `LockClass::C`, else the last ident (field or binding) looked up
/// in the name map, else `unresolved:<name>` so the site still surfaces.
fn arg_lock_id(
    toks: &[Token<'_>],
    open: usize,
    names: &BTreeMap<String, String>,
) -> Option<String> {
    if let Some(c) = class_in_group(toks, open) {
        return Some(c);
    }
    let mut depth = 0i64;
    let mut i = open;
    let mut last_ident: Option<&str> = None;
    while let Some(t) = toks.get(i) {
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if t.kind == TokenKind::Ident && t.text != "self" {
            last_ident = Some(t.text);
        }
        i += 1;
    }
    let name = last_ident?;
    Some(
        names
            .get(name)
            .cloned()
            .unwrap_or_else(|| format!("unresolved:{name}")),
    )
}

/// Scans one fn for lock events in token order.
fn scan_lock_events(
    toks: &[Token<'_>],
    f: &crate::parse::FnDef,
    names: &BTreeMap<String, String>,
) -> Vec<Ev> {
    let mut local = names.clone();
    for b in &f.bindings {
        if let Some(id) = host_lock_id(&b.name, &b.ty) {
            local.insert(b.name.clone(), id);
        }
    }
    let body = f.body.clone();
    let mut out = Vec::new();
    let mut call_ord = 0usize;
    for i in body.clone() {
        let t = &toks[i];
        let next_is = |k: usize, c: char| body.contains(&(i + k)) && toks[i + k].is_punct(c);
        if t.is_ident("lock_acquire") && next_is(1, '(') {
            if let Some(id) = arg_lock_id(toks, i + 1, &local) {
                out.push(Ev::Acq(id, t.line));
            }
        } else if t.is_ident("lock_release") && next_is(1, '(') {
            if let Some(id) = arg_lock_id(toks, i + 1, &local) {
                out.push(Ev::Rel(id));
            }
        } else if t.is_punct('.')
            && body.contains(&(i + 1))
            && toks[i + 1].kind == TokenKind::Ident
            && GUARD_METHODS.contains(&toks[i + 1].text)
            && next_is(2, '(')
            && next_is(3, ')')
            && i > body.start
            && toks[i - 1].kind == TokenKind::Ident
        {
            if let Some(id) = local.get(toks[i - 1].text) {
                if id.starts_with("Mutex(") {
                    // Guard extent: to the statement's `;` at depth 0, or the
                    // fn end for `let`-bound guards — found by walking on.
                    let until = guard_extent(toks, &body, i);
                    out.push(Ev::Scoped(id.clone(), toks[i + 1].line, until));
                }
            }
        }
        // Track call ordinals so interprocedural edges interleave at the
        // right point relative to acquire/release events.
        if f.calls
            .get(call_ord)
            .is_some_and(|c| c.line == t.line && t.kind == TokenKind::Ident && c.name() == t.text)
        {
            out.push(Ev::Call(call_ord));
            call_ord += 1;
        }
    }
    // Scoped guards: convert into Rel events at their expiry by re-walking.
    expand_scoped(out)
}

/// Where a guard born at token `i` dies: the next `;` at brace depth 0
/// (statement temporary) or the body end (conservative for `let` guards —
/// the scan walks back for a `let` on the same statement).
fn guard_extent(toks: &[Token<'_>], body: &std::ops::Range<usize>, i: usize) -> usize {
    // Walk back to the statement start looking for `let`.
    let mut j = i;
    while j > body.start {
        j -= 1;
        let t = &toks[j];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        if t.is_ident("let") {
            return body.end;
        }
    }
    let mut depth = 0i64;
    let mut k = i;
    while k < body.end {
        let t = &toks[k];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if t.is_punct(';') && depth <= 0 {
            return k;
        }
        k += 1;
    }
    body.end
}

/// Rewrites `Scoped` events into `Acq` + a `Rel` placed before the first
/// event past the guard's extent.
fn expand_scoped(evs: Vec<Ev>) -> Vec<Ev> {
    // Pair each event with the token position we recorded (Scoped carries
    // it; others are already ordered), then emit releases lazily.
    let mut out: Vec<Ev> = Vec::with_capacity(evs.len());
    let mut pending: Vec<(usize, String)> = Vec::new(); // (expiry ordinal in token terms, id)
    for ev in evs {
        match ev {
            Ev::Scoped(id, line, until) => {
                out.push(Ev::Acq(id.clone(), line));
                pending.push((until, id));
            }
            other => out.push(other),
        }
    }
    // Without per-event token positions for non-scoped events, release all
    // scoped guards at fn end — the conservative extent documented above.
    for (_, id) in pending {
        out.push(Ev::Rel(id));
    }
    out
}

/// Finds cycles in the order graph; each cycle is reported once, anchored
/// at its lexicographically smallest lock.
fn find_cycles(report: &mut LockReport) {
    let mut adj: BTreeMap<&str, Vec<&LockEdge>> = BTreeMap::new();
    for e in &report.edges {
        adj.entry(e.held.as_str()).or_default().push(e);
    }
    let locks: Vec<&str> = report.locks.iter().map(String::as_str).collect();
    let mut findings = Vec::new();
    for &start in &locks {
        // BFS from `start` back to itself over edges whose nodes are all
        // ≥ start (so each cycle is reported exactly once).
        let mut parent: BTreeMap<&str, &LockEdge> = BTreeMap::new();
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(start);
        let mut closed: Option<&LockEdge> = None;
        'bfs: while let Some(at) = queue.pop_front() {
            for e in adj.get(at).into_iter().flatten() {
                let next = e.acquired.as_str();
                if next == start {
                    closed = Some(e);
                    break 'bfs;
                }
                if next > start && !parent.contains_key(next) {
                    parent.insert(next, e);
                    queue.push_back(next);
                }
            }
        }
        if let Some(last) = closed {
            let mut path = vec![last];
            let mut at = last.held.as_str();
            while at != start {
                let Some(e) = parent.get(at) else { break };
                path.push(e);
                at = e.held.as_str();
            }
            path.reverse();
            let mut detail = String::new();
            for e in &path {
                detail.push_str(&format!(
                    "{} -> {} ({}:{} in {}){}",
                    e.held,
                    e.acquired,
                    e.file.display(),
                    e.line,
                    e.in_fn,
                    if Some(*e) == path.last().copied() {
                        ""
                    } else {
                        "; "
                    }
                ));
            }
            findings.push(LockFinding {
                rule: RULE_CYCLE,
                detail,
            });
        }
    }
    report.findings.extend(findings);
}

/// Extracts the `(held, acquired)` class pairs a replayed trace set
/// actually nests, per processor, using `LockClass` identities.
pub fn dynamic_nesting(traces: &[Trace]) -> BTreeSet<(String, String)> {
    let mut pairs = BTreeSet::new();
    for t in traces {
        let mut held: Vec<String> = Vec::new();
        for ev in &t.events {
            match ev.kind() {
                EventKind::LockAcquire(tok) => {
                    let id = format!("LockClass::{:?}", tok.class);
                    for h in &held {
                        if *h != id {
                            pairs.insert((h.clone(), id.clone()));
                        }
                    }
                    held.push(id);
                }
                EventKind::LockRelease(tok) => {
                    let id = format!("LockClass::{:?}", tok.class);
                    if let Some(at) = held.iter().rposition(|h| *h == id) {
                        held.remove(at);
                    }
                }
                _ => {}
            }
        }
    }
    pairs
}

/// Cross-checks dynamic nesting against the static graph: every pair the
/// replays perform must be a static edge, else the extractor is blind to an
/// acquisition site and its cycle check is unsound.
pub fn cross_check(report: &mut LockReport, dynamic: &BTreeSet<(String, String)>) {
    report.dynamic_pairs = dynamic.len();
    let static_pairs: BTreeSet<(&str, &str)> = report
        .edges
        .iter()
        .map(|e| (e.held.as_str(), e.acquired.as_str()))
        .collect();
    for (h, a) in dynamic {
        if !static_pairs.contains(&(h.as_str(), a.as_str())) {
            report.findings.push(LockFinding {
                rule: RULE_DYNAMIC,
                detail: format!("replay nests {a} under {h}; no static edge derives it"),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dss_trace::{LockClass, LockToken, Tracer};

    fn file(rel: &str, text: &str) -> SourceFile {
        SourceFile {
            rel: PathBuf::from(rel),
            text: text.to_string(),
        }
    }

    #[test]
    fn field_constructor_resolves_class_and_nesting_edges() {
        let files = [file(
            "crates/x/src/lib.rs",
            "struct B { lock: LockToken }
             impl B {
                 fn new() -> B { B { lock: LockToken::new(0x40, LockClass::BufMgr) } }
                 fn pin(&self, t: &Tracer) {
                     t.lock_acquire(self.lock);
                     t.lock_acquire(LockToken::new(0x80, LockClass::LockMgr));
                     t.lock_release(LockToken::new(0x80, LockClass::LockMgr));
                     t.lock_release(self.lock);
                 }
             }",
        )];
        let r = analyze_locks(&files, &[]);
        assert_eq!(r.edges.len(), 1, "{:?}", r.edges);
        assert_eq!(r.edges[0].held, "LockClass::BufMgr");
        assert_eq!(r.edges[0].acquired, "LockClass::LockMgr");
        assert!(r.findings.is_empty(), "no cycle from one edge");
    }

    #[test]
    fn inverted_pair_is_a_cycle() {
        let files = [file(
            "crates/x/src/lib.rs",
            "fn a(t: &Tracer) {
                 t.lock_acquire(LockToken::new(1, LockClass::BufMgr));
                 t.lock_acquire(LockToken::new(2, LockClass::LockMgr));
                 t.lock_release(LockToken::new(2, LockClass::LockMgr));
                 t.lock_release(LockToken::new(1, LockClass::BufMgr));
             }
             fn b(t: &Tracer) {
                 t.lock_acquire(LockToken::new(2, LockClass::LockMgr));
                 t.lock_acquire(LockToken::new(1, LockClass::BufMgr));
                 t.lock_release(LockToken::new(1, LockClass::BufMgr));
                 t.lock_release(LockToken::new(2, LockClass::LockMgr));
             }",
        )];
        let r = analyze_locks(&files, &[]);
        assert_eq!(r.edges.len(), 2);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].rule, RULE_CYCLE);
        assert!(r.findings[0].detail.contains("LockClass::BufMgr"));
    }

    #[test]
    fn interprocedural_edge_through_a_call() {
        let files = [file(
            "crates/x/src/lib.rs",
            "fn outer(t: &Tracer) {
                 t.lock_acquire(LockToken::new(1, LockClass::BufMgr));
                 inner(t);
                 t.lock_release(LockToken::new(1, LockClass::BufMgr));
             }
             fn inner(t: &Tracer) {
                 t.lock_acquire(LockToken::new(2, LockClass::LockMgr));
                 t.lock_release(LockToken::new(2, LockClass::LockMgr));
             }",
        )];
        let r = analyze_locks(&files, &[]);
        let e = r
            .edges
            .iter()
            .find(|e| e.held == "LockClass::BufMgr" && e.acquired == "LockClass::LockMgr");
        match e {
            Some(e) => assert!(e.via_call.as_deref().is_some_and(|v| v.contains("inner"))),
            None => panic!("missing interprocedural edge: {:?}", r.edges),
        }
    }

    #[test]
    fn feature_gated_sites_only_count_when_armed() {
        let files = [file(
            "crates/x/src/lib.rs",
            "#[cfg(feature = \"drill\")]
             fn bad(t: &Tracer) {
                 t.lock_acquire(LockToken::new(2, LockClass::LockMgr));
                 t.lock_acquire(LockToken::new(1, LockClass::BufMgr));
                 t.lock_release(LockToken::new(1, LockClass::BufMgr));
                 t.lock_release(LockToken::new(2, LockClass::LockMgr));
             }
             fn good(t: &Tracer) {
                 t.lock_acquire(LockToken::new(1, LockClass::BufMgr));
                 t.lock_acquire(LockToken::new(2, LockClass::LockMgr));
                 t.lock_release(LockToken::new(2, LockClass::LockMgr));
                 t.lock_release(LockToken::new(1, LockClass::BufMgr));
             }",
        )];
        let closed = analyze_locks(&files, &[]);
        assert!(closed.findings.is_empty(), "{:?}", closed.findings);
        let armed = analyze_locks(&files, &["drill"]);
        assert_eq!(armed.findings.len(), 1);
        assert_eq!(armed.findings[0].rule, RULE_CYCLE);
    }

    #[test]
    fn mutex_guard_names_become_lock_ids() {
        let files = [file(
            "crates/x/src/lib.rs",
            "struct S { merge: Mutex<u32> }
             impl S {
                 fn commit(&self, t: &Tracer) {
                     let g = self.merge.lock();
                     t.lock_acquire(LockToken::new(1, LockClass::BufMgr));
                     t.lock_release(LockToken::new(1, LockClass::BufMgr));
                 }
             }",
        )];
        let r = analyze_locks(&files, &[]);
        assert!(r.locks.contains("Mutex(merge)"), "{:?}", r.locks);
        let e = r.edges.iter().find(|e| e.held == "Mutex(merge)");
        assert!(
            e.is_some_and(|e| e.acquired == "LockClass::BufMgr"),
            "{:?}",
            r.edges
        );
    }

    #[test]
    fn dynamic_pairs_cross_check_against_static_edges() {
        let t = Tracer::new(0);
        t.lock_acquire(LockToken::new(1, LockClass::BufMgr));
        t.lock_acquire(LockToken::new(2, LockClass::LockMgr));
        t.lock_release(LockToken::new(2, LockClass::LockMgr));
        t.lock_release(LockToken::new(1, LockClass::BufMgr));
        let traces = vec![t.take()];
        let pairs = dynamic_nesting(&traces);
        assert_eq!(pairs.len(), 1);

        let mut explained = LockReport::default();
        let mut seen = BTreeSet::new();
        push_edge(
            &mut explained,
            &mut seen,
            "LockClass::BufMgr",
            "LockClass::LockMgr",
            Path::new("crates/x/src/lib.rs"),
            1,
            "x::pin",
            None,
        );
        cross_check(&mut explained, &pairs);
        assert!(explained.findings.is_empty(), "{:?}", explained.findings);

        let mut blind = LockReport::default();
        cross_check(&mut blind, &pairs);
        assert_eq!(blind.findings.len(), 1);
        assert_eq!(blind.findings[0].rule, RULE_DYNAMIC);
    }
}
