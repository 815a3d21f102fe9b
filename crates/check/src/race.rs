//! Happens-before race detection over per-processor traces.
//!
//! The paper's metadata-sharing analysis rests on the premise that all
//! accesses to shared engine metadata (LockHash, XidHash, BufDesc, BufLookup)
//! are serialized by the `LockMgrLock` / `BufMgrLock` spinlocks. This module
//! machine-checks that premise: it replays a slice of per-processor traces
//! under the same deterministic interleaving the simulator uses, treats
//! [`EventKind::LockAcquire`] / [`EventKind::LockRelease`] as acquire/release
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
//! nested discipline checked by [`check_lock_discipline`] — [`detect_races`]
//! runs that check on every trace first and refuses to analyze ill-formed
//! ones.

use std::collections::BTreeMap;
use std::fmt;

use dss_trace::{
    check_lock_discipline, DataClass, EventKind, LockClass, LockDisciplineError, Trace,
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

/// Detects happens-before races over `traces`, one per processor.
///
/// Every trace's lock discipline is checked first
/// ([`check_lock_discipline`]), in processor order. The traces are then
/// replayed under the same deterministic simulated-time interleaving the
/// memory simulator uses: processors advance by busy cycles and one cycle
/// per reference, and a contended acquire parks the processor until the
/// holder's release. The result is reproducible and matches what the
/// simulated machine actually interleaves.
///
/// # Errors
///
/// Returns [`RaceAnalysisError::Discipline`] for the first trace, in
/// processor order, that breaks the lock stack discipline (making
/// vector-clock analysis meaningless), and [`RaceAnalysisError::Deadlock`]
/// if the replay cannot make progress.
pub fn detect_races(traces: &[Trace]) -> Result<RaceReport, RaceAnalysisError> {
    for trace in traces {
        check_lock_discipline(trace).map_err(|error| RaceAnalysisError::Discipline {
            proc_id: trace.proc_id,
            error,
        })?;
    }
    let n = traces.len();
    let mut report = RaceReport::default();
    let mut clocks: Vec<VClock> = (0..n).map(|_| VClock::new(n)).collect();
    for (p, c) in clocks.iter_mut().enumerate() {
        c.0[p] = 1; // Epoch 0 means "no access recorded".
    }
    let mut pos = vec![0usize; n];
    let mut time = vec![0u64; n];
    let mut parked = vec![false; n];
    // Lock classes each processor holds, innermost last.
    let mut held: Vec<Vec<LockClass>> = vec![Vec::new(); n];
    let mut locks: BTreeMap<u64, LockState> = BTreeMap::new();
    let mut words: BTreeMap<u64, WordState> = BTreeMap::new();

    loop {
        // Deterministic merge: the runnable processor with the least
        // (time, id) steps next, exactly like the simulator's event queue. A
        // parked processor is unfinished by definition; an unparked one is
        // runnable while its trace has events left.
        let mut next: Option<usize> = None;
        let mut unfinished = false;
        for p in 0..n {
            if parked[p] {
                unfinished = true;
            } else if pos[p] < traces[p].events.len() {
                unfinished = true;
                if next.is_none_or(|b| (time[p], p) < (time[b], b)) {
                    next = Some(p);
                }
            }
        }
        let Some(p) = next else {
            if unfinished {
                return Err(RaceAnalysisError::Deadlock);
            }
            break;
        };
        let index = pos[p];
        match traces[p].events[index].kind() {
            EventKind::Busy(cycles) => time[p] += cycles as u64,
            EventKind::Ref(r) => {
                if r.class.is_shared() {
                    check_ref(p, index, &r, &clocks[p], &mut words, &mut report);
                    *report.checked.entry(r.class).or_insert(0) += 1;
                }
                time[p] += 1;
            }
            EventKind::LockAcquire(tok) => {
                let lock = locks.entry(tok.addr).or_default();
                if lock.holder.is_some_and(|holder| holder != p) {
                    // Parked on the same event until the holder releases.
                    lock.waiters.push(p);
                    parked[p] = true;
                    continue;
                }
                lock.holder = Some(p);
                // Acquire edge: everything before the last release happened
                // before this critical section.
                let released = lock.released.clone();
                clocks[p].join(&released);
                for &outer in &held[p] {
                    let pair = (outer, tok.class);
                    if outer != tok.class && !report.nesting.contains(&pair) {
                        report.nesting.push(pair);
                    }
                }
                held[p].push(tok.class);
                time[p] += 1;
            }
            EventKind::LockRelease(tok) => {
                // The discipline check made this the innermost held lock.
                held[p].pop();
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
            }
        }
        pos[p] += 1;
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
    use dss_trace::{LockToken, Tracer};

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

    #[test]
    fn discipline_violations_are_reported_with_their_index() {
        // Held at the end of the trace.
        let t = Tracer::new(0);
        t.busy(5);
        t.lock_acquire(tok());
        let err = detect_races(&[t.take()]).unwrap_err();
        assert!(matches!(
            err,
            RaceAnalysisError::Discipline {
                proc_id: 0,
                error: LockDisciplineError::HeldAtEnd {
                    index: 1,
                    addr: 0x40
                }
            }
        ));
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
                error: LockDisciplineError::HeldAtEnd { index: 0, .. }
            }
        ));
        // Released while never held.
        let t = Tracer::new(0);
        t.lock_release(tok());
        let err = detect_races(&[t.take()]).unwrap_err();
        assert!(matches!(
            err,
            RaceAnalysisError::Discipline {
                proc_id: 0,
                error: LockDisciplineError::ReleaseUnheld { index: 0, .. }
            }
        ));
    }

    #[test]
    fn the_first_broken_trace_in_processor_order_is_named() {
        // Proc 1 breaks the discipline at its first event, proc 0 only at
        // its end: processor order, not replay order, picks the report.
        let t0 = Tracer::new(0);
        t0.busy(1000);
        t0.lock_acquire(tok());
        let t1 = Tracer::new(1);
        t1.lock_release(tok());
        let err = detect_races(&[t0.take(), t1.take()]).unwrap_err();
        assert!(matches!(
            err,
            RaceAnalysisError::Discipline {
                proc_id: 0,
                error: LockDisciplineError::HeldAtEnd { index: 1, .. }
            }
        ));
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
