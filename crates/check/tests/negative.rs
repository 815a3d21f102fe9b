//! Negative tests: the checkers must actually fire when the property they
//! guard is deliberately broken — an unlocked store into shared metadata for
//! the race detector, a corrupted directory sharer mask for the coherence
//! invariant checker, two processors taking the engine's spinlocks in
//! opposite orders for the lock-order contract. The real workload passing
//! them all is `paper_scale.rs`; the counting allocator's own sabotage test
//! is `alloc_gate_engine.rs`.

use dss_check::{check_machine, detect_races};
use dss_core::Workbench;
use dss_memsim::{Machine, MachineConfig, MAX_PROCS};
use dss_trace::{DataClass, Event, EventKind, MemRef, Trace};

/// A small workbench shared per test (each builds its own database).
fn workbench() -> Workbench {
    Workbench::small()
}

#[test]
fn unlocked_shared_store_is_caught() {
    let mut wb = workbench();
    let traces = wb.traces(6, 0);
    let mut traces: Vec<Trace> = traces.to_vec();
    // Sabotage: processor 1 stores into a LockHash word that processor 0's
    // trace writes under the lock — without taking the lock. Find such a
    // word from proc 0's trace so the store provably conflicts.
    let victim = traces[0]
        .events
        .iter()
        .find_map(|e| match e.kind() {
            EventKind::Ref(r) if r.class == DataClass::LockHash && r.write => Some(r.addr),
            _ => None,
        })
        .expect("Q6 writes lock-manager metadata");
    traces[1].events.insert(
        0,
        Event::reference(MemRef {
            addr: victim,
            size: 8,
            write: true,
            class: DataClass::LockHash,
        }),
    );
    let report = detect_races(&traces).expect("still well-formed: no lock events touched");
    assert!(!report.is_clean(), "deliberate unlocked store not flagged");
    let race = &report.races[0];
    assert_eq!(race.class, DataClass::LockHash);
    assert!(
        race.first.proc_id == 1 || race.second.proc_id == 1,
        "the saboteur is one side of the race: {race}"
    );
}

#[test]
fn corrupted_directory_sharer_mask_is_caught() {
    let mut wb = workbench();
    let traces = wb.traces(3, 0);
    let mut machine = Machine::new(MachineConfig::baseline());
    machine.run(&traces);
    check_machine(&machine).expect("healthy run verifies clean");
    // Sabotage: claim some shared line is cached only by a node that does
    // not exist. Pick a line the directory actually tracks.
    let mut line = None;
    machine.for_each_directory_entry(|l, e| {
        if line.is_none() && e.sharers != 0 {
            line = Some(l);
        }
    });
    let line = line.expect("a query run leaves shared lines tracked");
    let phantom = 1 << (MAX_PROCS - 1);
    machine.corrupt_directory_sharers(line, phantom);
    let mut stored = None;
    machine.for_each_directory_entry(|l, e| {
        if l == line {
            stored = Some(e.sharers);
        }
    });
    assert_eq!(
        stored,
        Some(phantom),
        "the phantom sharer is stored, not lost"
    );
    let violation = check_machine(&machine).expect_err("corruption must be caught");
    assert_eq!(violation.line, line);
}

/// Sabotage for the race detector's well-formedness gate: a trace cut short
/// (as a truncated trace file would be) leaves a lock held at end-of-trace,
/// and the detector must refuse to analyze it rather than replay a schedule
/// whose critical section never closes.
#[test]
fn truncated_trace_with_held_lock_is_rejected() {
    use dss_check::RaceAnalysisError;
    use dss_trace::LockDisciplineError;

    let mut wb = workbench();
    let traces = wb.traces(6, 0);
    let mut traces: Vec<Trace> = traces.to_vec();
    // Cut processor 1's trace right after its first lock acquire — the
    // in-memory shape of a file that ended before the release was written.
    let acquire_at = traces[1]
        .events
        .iter()
        .position(|e| matches!(e.kind(), EventKind::LockAcquire(_)))
        .expect("Q6 takes locks");
    traces[1].events.truncate(acquire_at + 1);

    match detect_races(&traces) {
        Err(RaceAnalysisError::Discipline {
            proc_id,
            error: LockDisciplineError::HeldAtEnd { index, .. },
        }) => {
            assert_eq!(proc_id, 1, "the cut trace is named");
            assert_eq!(index, acquire_at, "the unmatched acquire is named");
        }
        other => panic!("truncated trace not rejected as held-at-end: {other:?}"),
    }
}

/// Sabotage for the lock-order contract: processor 0 takes `BufMgrLock` then
/// `LockMgrLock`, processor 1 — late enough that this interleaving never
/// contends — takes them the other way round. The replay completes, and the
/// nesting it observed must still be reported as a cycle.
#[test]
fn inverted_lock_pair_is_caught() {
    use dss_trace::{LockClass, LockToken, Tracer};

    let buf = LockToken::new(0x100, LockClass::BufMgr);
    let lck = LockToken::new(0x140, LockClass::LockMgr);
    let nest = |proc_id, delay, outer, inner| {
        let t = Tracer::new(proc_id);
        t.busy(delay);
        t.lock_acquire(outer);
        t.lock_acquire(inner);
        t.lock_release(inner);
        t.lock_release(outer);
        t.take()
    };

    let consistent = [nest(0, 1, buf, lck), nest(1, 1000, buf, lck)];
    let report = detect_races(&consistent).expect("well-formed");
    assert_eq!(report.nesting, [(LockClass::BufMgr, LockClass::LockMgr)]);
    assert!(report.is_clean(), "one order is no cycle");

    let inverted = [nest(0, 1, buf, lck), nest(1, 1000, lck, buf)];
    let report = detect_races(&inverted).expect("well-formed, and never contended");
    assert!(report.races.is_empty());
    let cycle = report.lock_order_cycle().expect("AB/BA must be a cycle");
    assert_eq!(cycle.first(), cycle.last());
    assert_eq!(cycle.len(), 3, "{cycle:?}");
    assert!(!report.is_clean());
}
