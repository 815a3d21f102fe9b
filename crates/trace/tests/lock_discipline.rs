//! Property tests: traces built through [`Tracer`] from arbitrary well-formed
//! critical-section programs satisfy the lock stack discipline that the
//! happens-before race detector in `dss-check` assumes, and any single
//! unbalancing mutation of such a trace is caught by
//! [`check_lock_discipline`].

use dss_trace::{check_lock_discipline, DataClass, Event, EventKind, LockClass, LockToken, Tracer};
use proptest::prelude::*;

/// One step of a generated program. `Open`/`Close` drive a lock stack: an
/// `Open` acquires a fresh lock for the current nesting depth, a `Close`
/// releases the innermost one (and is a no-op at depth zero), so every
/// rendered trace is well-formed by construction.
#[derive(Clone, Copy, Debug)]
enum Cmd {
    Busy(u32),
    Read(u32),
    Write(u32),
    Open,
    Close,
}

fn cmd_strategy() -> impl Strategy<Value = Cmd> {
    prop_oneof![
        2 => (1u32..1000).prop_map(Cmd::Busy),
        3 => (0u32..64).prop_map(Cmd::Read),
        3 => (0u32..64).prop_map(Cmd::Write),
        2 => Just(Cmd::Open),
        2 => Just(Cmd::Close),
    ]
}

/// Lock word for nesting depth `d`: depths get distinct addresses, so nested
/// sections never re-acquire a held lock.
fn lock_at(depth: usize) -> LockToken {
    LockToken::new(0x1_0000_0000 + depth as u64 * 0x40, LockClass::Other)
}

/// Renders a command list into a trace, closing every still-open section at
/// the end.
fn render(cmds: &[Cmd]) -> dss_trace::Trace {
    let t = Tracer::new(0);
    let mut depth = 0usize;
    for cmd in cmds {
        match *cmd {
            Cmd::Busy(n) => t.busy(n),
            Cmd::Read(slot) => t.read(0x2_0000_0000 + slot as u64 * 8, 8, DataClass::Data),
            Cmd::Write(slot) => t.write(0x2_0000_0000 + slot as u64 * 8, 8, DataClass::LockHash),
            Cmd::Open => {
                t.lock_acquire(lock_at(depth));
                depth += 1;
            }
            Cmd::Close => {
                if depth > 0 {
                    depth -= 1;
                    t.lock_release(lock_at(depth));
                }
            }
        }
    }
    while depth > 0 {
        depth -= 1;
        t.lock_release(lock_at(depth));
    }
    t.take()
}

/// Indices of the trace's events matched by `want`.
fn positions(trace: &dss_trace::Trace, want: fn(&Event) -> bool) -> Vec<usize> {
    trace
        .events
        .iter()
        .enumerate()
        .filter(|(_, e)| want(e))
        .map(|(i, _)| i)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Well-formed programs — arbitrary nesting, interleaved references —
    /// always pass the discipline check.
    #[test]
    fn generated_traces_are_balanced_and_nested(
        cmds in proptest::collection::vec(cmd_strategy(), 0..120)
    ) {
        let trace = render(&cmds);
        prop_assert_eq!(check_lock_discipline(&trace), Ok(()));
    }

    /// Deleting any one release unbalances the trace and is caught.
    #[test]
    fn dropping_a_release_is_caught(
        cmds in proptest::collection::vec(cmd_strategy(), 0..120),
        pick in any::<usize>(),
    ) {
        let mut trace = render(&cmds);
        let releases = positions(&trace, |e| matches!(e.kind(), EventKind::LockRelease(_)));
        if !releases.is_empty() {
            trace.events.remove(releases[pick % releases.len()]);
            prop_assert!(check_lock_discipline(&trace).is_err());
        }
    }

    /// Duplicating any one acquire re-acquires a held lock and is caught.
    #[test]
    fn duplicating_an_acquire_is_caught(
        cmds in proptest::collection::vec(cmd_strategy(), 0..120),
        pick in any::<usize>(),
    ) {
        let mut trace = render(&cmds);
        let acquires = positions(&trace, |e| matches!(e.kind(), EventKind::LockAcquire(_)));
        if !acquires.is_empty() {
            let i = acquires[pick % acquires.len()];
            let dup = trace.events[i];
            trace.events.insert(i + 1, dup);
            prop_assert!(check_lock_discipline(&trace).is_err());
        }
    }

    /// Releasing a lock the trace never acquired is caught.
    #[test]
    fn stray_release_is_caught(
        cmds in proptest::collection::vec(cmd_strategy(), 0..120)
    ) {
        let mut trace = render(&cmds);
        trace
            .events
            .push(Event::lock_release(LockToken::new(0xdead_0000, LockClass::Other)));
        prop_assert!(check_lock_discipline(&trace).is_err());
    }
}
