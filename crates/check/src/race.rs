//! Happens-before race detection over per-processor traces.
//!
//! The paper's metadata-sharing analysis rests on the premise that all
//! accesses to shared engine metadata (LockHash, XidHash, BufDesc, BufLookup)
//! are serialized by the `LockMgrLock` / `BufMgrLock` spinlocks. This module
//! machine-checks that premise: it replays a [`TraceSet`]-shaped slice of
//! traces under the same deterministic interleaving the simulator uses,
//! treats [`EventKind::LockAcquire`] / [`EventKind::LockRelease`] as acquire/release
//! synchronization edges, and reports any pair of conflicting accesses (two
//! accesses to the same word, at least one a write, from different
//! processors) that are not ordered by the resulting happens-before relation.
//!
//! The analysis is the classic vector-clock construction (Djit+/FastTrack
//! family): each processor carries a vector clock `C_p`, each lock carries
//! the clock its last holder released with, an acquire joins the lock's clock
//! into the acquirer's, and a release publishes the holder's clock and then
//! advances the holder's own component. Each shared word remembers its last
//! write epoch and the last read epoch per processor; an access races with a
//! prior one exactly when the prior epoch is not covered by the current
//! processor's clock.
//!
//! Soundness precondition: every trace must use its locks in the balanced,
//! nested discipline checked by [`check_lock_discipline`] — the detector
//! validates that first and refuses to analyze ill-formed traces.
//!
//! There is one replay, [`detect_races_source`], over any [`TraceSource`]: it
//! holds one event block per processor and checks the discipline
//! incrementally as events stream past, so block files are analyzable
//! without ever materializing a trace. [`detect_races`] is the same call for
//! materialized traces — a slice of traces is a source.

use std::collections::BTreeMap;
use std::fmt;

use dss_trace::{
    DataClass, Event, EventKind, EventStream, LockClass, LockDisciplineError, LockToken, Trace,
    TraceError, TraceSource,
};

/// Access granularity of the detector: 8-byte words, matching the engine's
/// field sizes (refcounts, pointers, hash buckets are all ≤ 8 bytes).
const WORD: u64 = 8;

/// One side of a racy pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Access {
    /// Processor that performed the access.
    pub proc_id: usize,
    /// Index of the event in that processor's trace.
    pub index: usize,
    /// Whether the access was a write.
    pub write: bool,
}

/// A pair of conflicting accesses unordered by happens-before.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Race {
    /// Word address (8-byte aligned) both accesses touched.
    pub word: u64,
    /// Data class of the later access.
    pub class: DataClass,
    /// The earlier access (in the deterministic replay order).
    pub first: Access,
    /// The later access, which the detector flagged.
    pub second: Access,
}

impl fmt::Display for Race {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = |a: &Access| if a.write { "write" } else { "read" };
        write!(
            f,
            "race on {} word {:#x}: {} by proc {} (event {}) is concurrent with {} by proc {} (event {})",
            self.class,
            self.word,
            kind(&self.first),
            self.first.proc_id,
            self.first.index,
            kind(&self.second),
            self.second.proc_id,
            self.second.index,
        )
    }
}

/// Why a trace set could not be analyzed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RaceAnalysisError {
    /// A trace broke the lock discipline the vector clocks assume.
    Discipline {
        /// Processor whose trace is ill-formed.
        proc_id: usize,
        /// The discipline violation.
        error: LockDisciplineError,
    },
    /// The replay deadlocked: every unfinished trace is parked on a lock.
    /// With discipline-checked traces this indicates cross-processor lock
    /// cycles, which the engine's two global spinlocks cannot produce.
    Deadlock,
    /// A streamed source failed mid-analysis (truncated or corrupt block
    /// file, I/O error). Carries the rendered [`TraceError`], which is not
    /// itself comparable.
    Stream(String),
}

impl fmt::Display for RaceAnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RaceAnalysisError::Discipline { proc_id, error } => {
                write!(f, "proc {proc_id}: {error}")
            }
            RaceAnalysisError::Deadlock => {
                write!(f, "replay deadlocked on lock acquisition order")
            }
            RaceAnalysisError::Stream(msg) => write!(f, "trace stream failed: {msg}"),
        }
    }
}

/// Result of a race analysis: the races found, per-class coverage, and the
/// lock nesting the replay performed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RaceReport {
    /// All unordered conflicting pairs, in replay order (first per word pair).
    pub races: Vec<Race>,
    /// Shared accesses checked, per data class — evidence of what the
    /// "zero races" verdict actually covered.
    pub checked: BTreeMap<DataClass, u64>,
    /// Every `(held, acquired)` pair of distinct [`LockClass`]es some
    /// processor nested, in first-seen order. The engine's lock-order
    /// contract is that these never form a cycle (today it nests nothing).
    pub nesting: Vec<(LockClass, LockClass)>,
}

impl RaceReport {
    /// Whether the analysis found no races and no lock-order cycle.
    pub fn is_clean(&self) -> bool {
        self.races.is_empty() && self.lock_order_cycle().is_none()
    }

    /// A cycle in the nesting order, if the replay's processors took lock
    /// classes in conflicting orders — a deadlock some other interleaving
    /// can reach even though this one completed. The cycle is returned as
    /// the classes along it, starting and ending at the same class.
    pub fn lock_order_cycle(&self) -> Option<Vec<LockClass>> {
        // Depth-first over a graph of at most three classes.
        fn extend(
            edges: &[(LockClass, LockClass)],
            path: &mut Vec<LockClass>,
        ) -> Option<Vec<LockClass>> {
            let tip = *path.last()?;
            for &(_, next) in edges.iter().filter(|(held, _)| *held == tip) {
                if let Some(at) = path.iter().position(|c| *c == next) {
                    let mut cycle = path[at..].to_vec();
                    cycle.push(next);
                    return Some(cycle);
                }
                path.push(next);
                if let Some(cycle) = extend(edges, path) {
                    return Some(cycle);
                }
                path.pop();
            }
            None
        }
        self.nesting
            .iter()
            .find_map(|&(held, _)| extend(&self.nesting, &mut vec![held]))
    }

    /// Total shared accesses checked across all classes.
    pub fn total_checked(&self) -> u64 {
        self.checked.values().sum()
    }
}

/// A processor's vector clock.
#[derive(Clone, Debug, Default)]
struct VClock(Vec<u64>);

impl VClock {
    fn new(n: usize) -> Self {
        VClock(vec![0; n])
    }

    fn join(&mut self, other: &VClock) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a = (*a).max(*b);
        }
    }

    /// Whether an event at `epoch` on `proc` happened before this clock.
    fn covers(&self, proc_id: usize, epoch: u64) -> bool {
        self.0[proc_id] >= epoch
    }
}

/// Per-word access history: the last write epoch plus the last read epoch of
/// every processor since that write.
#[derive(Clone, Debug)]
struct WordState {
    class: DataClass,
    write: Option<(usize, u64, usize)>, // (proc, epoch, event index)
    reads: Vec<(u64, usize)>,           // per proc: (epoch, event index); 0 = none
}

/// A lock's replay state.
#[derive(Clone, Debug, Default)]
struct LockState {
    holder: Option<usize>,
    /// Clock released by the last holder (the detector's `L`).
    released: VClock,
    /// Parked processors, woken in park order at release.
    waiters: Vec<usize>,
}

/// Detects happens-before races over materialized `traces` (one per
/// processor): [`detect_races_source`] over the slice.
///
/// # Errors
///
/// As [`detect_races_source`]; a slice never fails as a stream.
pub fn detect_races(traces: &[Trace]) -> Result<RaceReport, RaceAnalysisError> {
    detect_races_source(traces)
}

/// One processor's replay cursor over a streamed trace: the current block,
/// the stream it refills from, and the incremental lock-discipline stack.
///
/// `base + pos` is the event's index within the processor's whole trace, so
/// races and discipline errors report trace-wide indices whatever the block
/// size.
struct Cursor<'a> {
    stream: Box<dyn EventStream + 'a>,
    buf: Vec<Event>,
    /// Position of the current event within `buf`.
    pos: usize,
    /// Trace-wide index of `buf[0]`.
    base: usize,
    /// The stream returned its zero-count end-of-stream block.
    done: bool,
    /// Locks currently held: `(token, trace-wide acquire index)`, innermost
    /// last — the streaming equivalent of
    /// [`dss_trace::check_lock_discipline`]'s stack.
    held: Vec<(LockToken, usize)>,
}

impl Cursor<'_> {
    /// The current event, pulling the next block when this one is drained.
    /// `Ok(None)` means the stream is exhausted.
    fn current(&mut self) -> Result<Option<Event>, TraceError> {
        while self.pos >= self.buf.len() {
            if self.done {
                return Ok(None);
            }
            self.base += self.buf.len();
            self.pos = 0;
            if self.stream.next_block(&mut self.buf)? == 0 {
                self.done = true;
                self.buf.clear();
            }
        }
        Ok(Some(self.buf[self.pos]))
    }

    /// Trace-wide index of the current event.
    fn index(&self) -> usize {
        self.base + self.pos
    }
}

/// Detects happens-before races over a [`TraceSource`] (one stream per
/// processor), holding one event block per processor — block files are
/// analyzable at any trace length without materializing.
///
/// Lock acquisition order — and therefore the synchronization edges — comes
/// from the same deterministic simulated-time interleaving the memory
/// simulator uses: processors advance by busy cycles and one cycle per
/// reference, and a contended acquire parks the processor until the holder's
/// release. The result is reproducible and matches what the simulated
/// machine actually interleaves.
///
/// The lock discipline is checked *incrementally* as events stream past, so
/// when several violations exist the reported one is the first encountered
/// in replay order.
///
/// # Errors
///
/// Returns [`RaceAnalysisError::Discipline`] if any trace breaks the lock
/// stack discipline (see [`dss_trace::check_lock_discipline`]), making
/// vector-clock analysis meaningless, [`RaceAnalysisError::Deadlock`] if the
/// replay cannot make progress, and [`RaceAnalysisError::Stream`] when the
/// source fails mid-analysis (truncated or corrupt block files).
pub fn detect_races_source<S>(src: &S) -> Result<RaceReport, RaceAnalysisError>
where
    S: TraceSource + ?Sized,
{
    let stream_err = |e: TraceError| RaceAnalysisError::Stream(e.to_string());
    let streams = src.open().map_err(stream_err)?;
    let n = streams.len();
    let mut cursors: Vec<Cursor> = streams
        .into_iter()
        .map(|stream| Cursor {
            stream,
            buf: Vec::new(),
            pos: 0,
            base: 0,
            done: false,
            held: Vec::new(),
        })
        .collect();
    let discipline = |c: &Cursor, error: LockDisciplineError| RaceAnalysisError::Discipline {
        proc_id: c.stream.proc_id(),
        error,
    };

    let mut report = RaceReport::default();
    let mut clocks: Vec<VClock> = (0..n).map(|_| VClock::new(n)).collect();
    for (p, c) in clocks.iter_mut().enumerate() {
        c.0[p] = 1; // Epoch 0 means "no access recorded".
    }
    let mut time = vec![0u64; n];
    let mut parked = vec![false; n];
    let mut locks: BTreeMap<u64, LockState> = BTreeMap::new();
    let mut words: BTreeMap<u64, WordState> = BTreeMap::new();

    loop {
        // Deterministic merge: the runnable processor with the least
        // (time, id) steps next, exactly like the simulator's event queue. A
        // parked processor is unfinished by definition; an unparked one is
        // runnable when its cursor still yields an event.
        let mut next: Option<(usize, Event)> = None;
        let mut unfinished = false;
        for p in 0..n {
            if parked[p] {
                unfinished = true;
                continue;
            }
            if let Some(event) = cursors[p].current().map_err(stream_err)? {
                unfinished = true;
                if next.is_none_or(|(b, _)| (time[p], p) < (time[b], b)) {
                    next = Some((p, event));
                }
            }
        }
        let Some((p, event)) = next else {
            // A trace that ended inside a critical section is the breach to
            // report — also when it left every other processor parked on
            // that lock, which would otherwise read as a deadlock.
            for c in cursors.iter().filter(|c| c.done) {
                if let Some(&(tok, index)) = c.held.first() {
                    return Err(discipline(
                        c,
                        LockDisciplineError::HeldAtEnd {
                            index,
                            addr: tok.addr,
                        },
                    ));
                }
            }
            if unfinished {
                return Err(RaceAnalysisError::Deadlock);
            }
            break;
        };
        let index = cursors[p].index();
        match event.kind() {
            EventKind::Busy(cycles) => {
                time[p] += cycles as u64;
                cursors[p].pos += 1;
            }
            EventKind::Ref(r) => {
                if r.class.is_shared() {
                    check_ref(p, index, &r, &clocks[p], &mut words, &mut report);
                    *report.checked.entry(r.class).or_insert(0) += 1;
                }
                time[p] += 1;
                cursors[p].pos += 1;
            }
            EventKind::LockAcquire(tok) => {
                if cursors[p].held.iter().any(|&(h, _)| h.addr == tok.addr) {
                    return Err(discipline(
                        &cursors[p],
                        LockDisciplineError::Reacquired {
                            index,
                            addr: tok.addr,
                        },
                    ));
                }
                let lock = locks.entry(tok.addr).or_default();
                match lock.holder {
                    Some(holder) if holder != p => {
                        lock.waiters.push(p);
                        parked[p] = true;
                    }
                    _ => {
                        lock.holder = Some(p);
                        // Acquire edge: everything before the last release
                        // happened before this critical section.
                        let released = lock.released.clone();
                        clocks[p].join(&released);
                        for &(h, _) in &cursors[p].held {
                            let pair = (h.class, tok.class);
                            if h.class != tok.class && !report.nesting.contains(&pair) {
                                report.nesting.push(pair);
                            }
                        }
                        cursors[p].held.push((tok, index));
                        time[p] += 1;
                        cursors[p].pos += 1;
                    }
                }
            }
            EventKind::LockRelease(tok) => {
                match cursors[p].held.last().copied() {
                    Some((innermost, _)) if innermost.addr == tok.addr => {
                        cursors[p].held.pop();
                    }
                    Some((innermost, _)) => {
                        let error = if cursors[p].held.iter().any(|&(h, _)| h.addr == tok.addr) {
                            LockDisciplineError::NotNested {
                                index,
                                addr: tok.addr,
                                innermost: innermost.addr,
                            }
                        } else {
                            LockDisciplineError::ReleaseUnheld {
                                index,
                                addr: tok.addr,
                            }
                        };
                        return Err(discipline(&cursors[p], error));
                    }
                    None => {
                        return Err(discipline(
                            &cursors[p],
                            LockDisciplineError::ReleaseUnheld {
                                index,
                                addr: tok.addr,
                            },
                        ));
                    }
                }
                let release_time = time[p] + 1;
                let released = clocks[p].clone();
                let lock = locks.entry(tok.addr).or_default();
                lock.released = released;
                lock.holder = None;
                // Wake every waiter; they re-contend in deterministic order.
                for w in lock.waiters.drain(..) {
                    parked[w] = false;
                    time[w] = time[w].max(release_time);
                }
                clocks[p].0[p] += 1;
                time[p] = release_time;
                cursors[p].pos += 1;
            }
        }
    }
    Ok(report)
}

/// Checks one shared reference against the per-word history and records it.
fn check_ref(
    p: usize,
    index: usize,
    r: &dss_trace::MemRef,
    clock: &VClock,
    words: &mut BTreeMap<u64, WordState>,
    report: &mut RaceReport,
) {
    let n = clock.0.len();
    let epoch = clock.0[p];
    let first_word = r.addr & !(WORD - 1);
    let last_word = (r.addr + r.size.max(1) as u64 - 1) & !(WORD - 1);
    let mut word = first_word;
    while word <= last_word {
        let state = words.entry(word).or_insert_with(|| WordState {
            class: r.class,
            write: None,
            reads: vec![(0, 0); n],
        });
        state.class = r.class;
        // Any access conflicts with a concurrent prior write.
        if let Some((wp, wepoch, windex)) = state.write {
            if wp != p && !clock.covers(wp, wepoch) {
                report.races.push(Race {
                    word,
                    class: r.class,
                    first: Access {
                        proc_id: wp,
                        index: windex,
                        write: true,
                    },
                    second: Access {
                        proc_id: p,
                        index,
                        write: r.write,
                    },
                });
            }
        }
        if r.write {
            // A write additionally conflicts with concurrent prior reads.
            for (q, &(repoch, rindex)) in state.reads.iter().enumerate() {
                if q != p && repoch != 0 && !clock.covers(q, repoch) {
                    report.races.push(Race {
                        word,
                        class: r.class,
                        first: Access {
                            proc_id: q,
                            index: rindex,
                            write: false,
                        },
                        second: Access {
                            proc_id: p,
                            index,
                            write: true,
                        },
                    });
                }
            }
            state.write = Some((p, epoch, index));
            state.reads.fill((0, 0));
        } else {
            state.reads[p] = (epoch, index);
        }
        word += WORD;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dss_trace::{write_trace_blocks, FileTraceSource, Tracer};

    const ADDR: u64 = 0x1_0000_0000;

    fn tok() -> LockToken {
        LockToken::new(0x40, LockClass::LockMgr)
    }

    #[test]
    fn locked_writers_do_not_race() {
        let mut traces = Vec::new();
        for p in 0..2 {
            let t = Tracer::new(p);
            t.busy(10 * (p as u32 + 1));
            t.lock_acquire(tok());
            t.read(ADDR, 8, DataClass::LockHash);
            t.write(ADDR, 8, DataClass::LockHash);
            t.lock_release(tok());
            traces.push(t.take());
        }
        let report = detect_races(&traces).expect("analyzable");
        assert!(report.is_clean(), "races: {:?}", report.races);
        assert_eq!(report.checked[&DataClass::LockHash], 4);
    }

    #[test]
    fn unlocked_conflicting_writes_race() {
        let mut traces = Vec::new();
        for p in 0..2 {
            let t = Tracer::new(p);
            t.busy(100);
            t.write(ADDR, 8, DataClass::BufDesc);
            traces.push(t.take());
        }
        let report = detect_races(&traces).expect("analyzable");
        assert_eq!(report.races.len(), 1);
        let race = &report.races[0];
        assert_eq!(race.word, ADDR);
        assert_eq!(race.class, DataClass::BufDesc);
        assert!(race.first.write && race.second.write);
        assert!(race.to_string().contains("BufDesc"));
    }

    #[test]
    fn store_outside_the_lock_races_with_locked_readers() {
        // Proc 0 updates under the lock; proc 1 stores without taking it.
        let t0 = Tracer::new(0);
        t0.lock_acquire(tok());
        t0.read(ADDR, 8, DataClass::LockHash);
        t0.write(ADDR, 8, DataClass::LockHash);
        t0.lock_release(tok());
        let t1 = Tracer::new(1);
        t1.busy(1000);
        t1.write(ADDR, 8, DataClass::LockHash);
        let report = detect_races(&[t0.take(), t1.take()]).expect("analyzable");
        assert!(!report.is_clean());
        assert!(report.races.iter().all(|r| r.second.proc_id == 1));
    }

    #[test]
    fn read_only_sharing_is_not_a_race() {
        let mut traces = Vec::new();
        for p in 0..4 {
            let t = Tracer::new(p);
            t.read(ADDR, 8, DataClass::Data);
            t.read(ADDR + 8, 8, DataClass::Index);
            traces.push(t.take());
        }
        let report = detect_races(&traces).expect("analyzable");
        assert!(report.is_clean());
        assert_eq!(report.total_checked(), 8);
    }

    #[test]
    fn private_accesses_are_ignored() {
        let mut traces = Vec::new();
        for p in 0..2 {
            let t = Tracer::new(p);
            t.write(0x4000_0000, 8, DataClass::PrivHeap);
            traces.push(t.take());
        }
        let report = detect_races(&traces).expect("analyzable");
        assert!(report.is_clean());
        assert_eq!(report.total_checked(), 0);
    }

    #[test]
    fn ill_formed_traces_are_rejected() {
        let t = Tracer::new(0);
        t.lock_acquire(tok());
        let err = detect_races(&[t.take()]).unwrap_err();
        assert!(matches!(
            err,
            RaceAnalysisError::Discipline { proc_id: 0, .. }
        ));
    }

    /// A contended workload with locked sections, unlocked racy stores, and
    /// enough events to span several small blocks.
    fn contended_traces(nprocs: usize) -> Vec<Trace> {
        (0..nprocs)
            .map(|p| {
                let t = Tracer::new(p);
                t.busy(3 * (p as u32 + 1));
                for i in 0..40u64 {
                    t.lock_acquire(tok());
                    t.read(ADDR + (i % 4) * 8, 8, DataClass::LockHash);
                    t.write(ADDR + (i % 4) * 8, 8, DataClass::LockHash);
                    t.lock_release(tok());
                    t.busy((i % 7) as u32);
                    // Unsynchronized shared store: a deliberate race.
                    t.write(ADDR + 0x100, 8, DataClass::BufDesc);
                }
                t.take()
            })
            .collect()
    }

    fn block_files(traces: &[Trace], dir: &std::path::Path, block: usize) -> FileTraceSource {
        std::fs::create_dir_all(dir).unwrap();
        let paths = traces
            .iter()
            .map(|t| {
                let path = FileTraceSource::proc_path(dir, "race", t.proc_id);
                let mut bytes = Vec::new();
                write_trace_blocks(t, &mut bytes, block).unwrap();
                std::fs::write(&path, bytes).unwrap();
                path
            })
            .collect();
        FileTraceSource::new(paths)
    }

    #[test]
    fn block_size_never_changes_the_report() {
        let traces = contended_traces(3);
        let whole = detect_races(&traces).expect("analyzable");
        assert!(!whole.races.is_empty(), "workload must exercise the races");

        // Block files at several block sizes must all reproduce the slice's
        // report exactly — trace-wide indices included.
        let dir = std::env::temp_dir().join(format!("dss-race-src-{}", std::process::id()));
        for block in [7, 64, 4096] {
            let src = block_files(&traces, &dir, block);
            let streamed = detect_races_source(&src).expect("analyzable");
            assert_eq!(whole, streamed, "block_events={block}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn discipline_violations_are_reported_with_their_index() {
        // Held at the end of the stream.
        let t = Tracer::new(0);
        t.busy(5);
        t.lock_acquire(tok());
        let traces = [t.take()];
        let err = detect_races_source(&traces[..]).unwrap_err();
        assert_eq!(
            err,
            RaceAnalysisError::Discipline {
                proc_id: 0,
                error: dss_trace::LockDisciplineError::HeldAtEnd {
                    index: 1,
                    addr: 0x40
                }
            }
        );
        // Held at the end with a waiter parked on it: still the discipline
        // breach, not the deadlock it causes.
        let t0 = Tracer::new(0);
        t0.lock_acquire(tok());
        let t1 = Tracer::new(1);
        t1.busy(5);
        t1.lock_acquire(tok());
        t1.lock_release(tok());
        let err = detect_races(&[t0.take(), t1.take()]).unwrap_err();
        assert!(matches!(
            err,
            RaceAnalysisError::Discipline {
                proc_id: 0,
                error: dss_trace::LockDisciplineError::HeldAtEnd { index: 0, .. }
            }
        ));
        // Released while never held.
        let t = Tracer::new(0);
        t.lock_release(tok());
        let traces = [t.take()];
        let err = detect_races_source(&traces[..]).unwrap_err();
        assert!(matches!(
            err,
            RaceAnalysisError::Discipline {
                proc_id: 0,
                error: dss_trace::LockDisciplineError::ReleaseUnheld { index: 0, .. }
            }
        ));
    }

    #[test]
    fn truncated_block_file_is_a_stream_error() {
        let traces = contended_traces(2);
        let dir = std::env::temp_dir().join(format!("dss-race-trunc-{}", std::process::id()));
        let src = block_files(&traces, &dir, 16);
        // Cut the second processor's file mid-block.
        let victim = &src.paths()[1];
        let bytes = std::fs::read(victim).unwrap();
        std::fs::write(victim, &bytes[..bytes.len() - 9]).unwrap();
        let err = detect_races_source(&src).unwrap_err();
        match err {
            RaceAnalysisError::Stream(msg) => {
                assert!(msg.contains("race.p1.trb"), "names the file: {msg}")
            }
            other => panic!("expected a stream error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn release_after_contention_orders_the_next_section() {
        // Proc 1 contends, parks, and acquires after proc 0's release: its
        // critical-section accesses must be ordered, not racy.
        let t0 = Tracer::new(0);
        t0.lock_acquire(tok());
        t0.write(ADDR, 8, DataClass::XidHash);
        t0.busy(500);
        t0.lock_release(tok());
        let t1 = Tracer::new(1);
        t1.busy(10); // arrives while proc 0 holds the lock
        t1.lock_acquire(tok());
        t1.write(ADDR, 8, DataClass::XidHash);
        t1.lock_release(tok());
        let report = detect_races(&[t0.take(), t1.take()]).expect("analyzable");
        assert!(report.is_clean(), "races: {:?}", report.races);
    }
}
