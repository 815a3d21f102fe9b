//! Conformance: the cycle-accurate [`Machine`] is a refinement of the pure
//! transition kernel in [`dss_memsim::protocol`].
//!
//! The model checker (`dss_check::check_model`) exhausts the *kernel's* state
//! space; that proof only covers the simulator if the simulator's coherence
//! transitions actually are the kernel's. This suite pins that: random
//! read/write schedules over two shared lines are replayed on a real
//! machine, with each operation pinned into its own 10 000-cycle busy
//! window so the machine's smallest-clock-first arbitration executes them
//! in the schedule's global total order (an operation costs at most ~352
//! cycles and schedules stay short, so per-node clock drift never escapes
//! a window). After every prefix of the schedule, a fresh machine's
//! observable protocol state — the directory entry plus every node's L2
//! line state — must equal folding the same prefix through
//! [`Kernel::step`].
//!
//! The two addresses sit on consecutive 64-byte lines (distinct L2 sets in
//! the baseline geometry), so no conflict eviction ever fires and the
//! machine's transition sequence is exactly the schedule.

use dss_memsim::protocol::{Kernel, Op as KernelOp, ProtocolState};
use dss_memsim::{DirEntry, LineState, Machine, MachineConfig, Protocol};
use dss_shmem::SHARED_BASE;
use dss_trace::{DataClass, Tracer};
use proptest::prelude::*;

/// Two line-aligned shared addresses on consecutive (conflict-free) lines.
const LINE_ADDRS: [u64; 2] = [SHARED_BASE, SHARED_BASE + 64];

/// One global window per schedule slot; far larger than any op's cost.
const WINDOW: u32 = 10_000;

/// One scheduled operation: `node` reads or writes `LINE_ADDRS[line]`.
#[derive(Clone, Copy, Debug)]
struct SchedOp {
    node: usize,
    line: usize,
    write: bool,
}

impl SchedOp {
    fn kernel_op(&self) -> KernelOp {
        if self.write {
            KernelOp::Write { node: self.node }
        } else {
            KernelOp::Read { node: self.node }
        }
    }
}

/// Runs the first `k` schedule entries on a fresh machine, each pinned to
/// its global window, and returns the observable protocol state per line.
fn run_prefix(
    protocol: Protocol,
    nprocs: usize,
    schedule: &[SchedOp],
    k: usize,
) -> Vec<(DirEntry, Vec<Option<LineState>>)> {
    let tracers: Vec<Tracer> = (0..nprocs).map(Tracer::new).collect();
    // Whole windows of busy already emitted per node. The ops themselves
    // cost only cycles, not windows: a node's clock sits at
    // `padded * WINDOW` plus the small accumulated cost of its past ops, so
    // padding to the slot's absolute window start keeps every op inside its
    // own window (drift stays far below WINDOW for these short schedules).
    let mut padded = vec![0u32; nprocs];
    for (slot, op) in schedule[..k].iter().enumerate() {
        let slot = slot as u32;
        if slot > padded[op.node] {
            tracers[op.node].busy((slot - padded[op.node]) * WINDOW);
            padded[op.node] = slot;
        }
        let addr = LINE_ADDRS[op.line];
        if op.write {
            tracers[op.node].write(addr, 8, DataClass::Data);
        } else {
            tracers[op.node].read(addr, 8, DataClass::Data);
        }
    }
    let traces: Vec<_> = tracers.iter().map(Tracer::take).collect();
    let mut m = Machine::new(
        MachineConfig::baseline()
            .with_processors(nprocs)
            .with_protocol(protocol),
    );
    m.run(&traces);
    LINE_ADDRS
        .iter()
        .map(|&addr| m.observe_protocol_state(addr))
        .collect()
}

/// Folds the first `k` schedule entries through the kernel, per line.
fn fold_kernel(protocol: Protocol, schedule: &[SchedOp], k: usize) -> [ProtocolState; 2] {
    let kernel = Kernel::new(protocol);
    let mut states = [ProtocolState::reset(), ProtocolState::reset()];
    for op in &schedule[..k] {
        states[op.line] = kernel.step(states[op.line], op.kernel_op()).0;
    }
    states
}

/// Asserts machine and kernel agree on every line after `k` schedule steps.
fn assert_prefix_agrees(protocol: Protocol, nprocs: usize, schedule: &[SchedOp], k: usize) {
    let observed = run_prefix(protocol, nprocs, schedule, k);
    let folded = fold_kernel(protocol, schedule, k);
    for (line, (entry, caches)) in observed.iter().enumerate() {
        assert_eq!(
            *entry,
            folded[line].entry,
            "{protocol:?} {nprocs}p: directory diverges on line {line} after {:?}",
            &schedule[..k]
        );
        assert_eq!(
            caches[..nprocs],
            folded[line].caches[..nprocs],
            "{protocol:?} {nprocs}p: caches diverge on line {line} after {:?}",
            &schedule[..k]
        );
    }
}

fn schedule_strategy() -> impl Strategy<Value = Vec<SchedOp>> {
    proptest::collection::vec(
        (0usize..8, 0usize..2, any::<bool>()).prop_map(|(node, line, write)| SchedOp {
            node,
            line,
            write,
        }),
        1..14,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Machine ⊆ kernel: every prefix of a random schedule lands the
    /// machine in exactly the state the kernel's fold predicts, across
    /// 2–8 processors and both protocols.
    #[test]
    fn machine_follows_the_kernel_relation(
        nprocs in 2usize..=8,
        mesi in any::<bool>(),
        raw in schedule_strategy(),
    ) {
        let protocol = if mesi { Protocol::Mesi } else { Protocol::Msi };
        let schedule: Vec<SchedOp> = raw
            .into_iter()
            .map(|op| SchedOp { node: op.node % nprocs, ..op })
            .collect();
        for k in 1..=schedule.len() {
            assert_prefix_agrees(protocol, nprocs, &schedule, k);
        }
    }
}

/// A pinned anchor: the classic migratory pattern on 3 processors, MSI.
/// P0 writes (Modified), P1 reads (downgrade to Shared ×2), P2 writes
/// (invalidate both, Modified at P2).
#[test]
fn migratory_anchor_msi() {
    let schedule = [
        SchedOp {
            node: 0,
            line: 0,
            write: true,
        },
        SchedOp {
            node: 1,
            line: 0,
            write: false,
        },
        SchedOp {
            node: 2,
            line: 0,
            write: true,
        },
    ];
    for k in 1..=schedule.len() {
        assert_prefix_agrees(Protocol::Msi, 3, &schedule, k);
    }
    let end = fold_kernel(Protocol::Msi, &schedule, 3)[0];
    assert_eq!(end.entry.owner, Some(2));
    assert_eq!(end.caches[2], Some(LineState::Modified));
    assert_eq!(end.caches[0], None);
    assert_eq!(end.caches[1], None);
}

/// MESI grants Exclusive to a sole-sharer read; the machine must install
/// the same state the kernel does, and a second reader demotes both.
#[test]
fn exclusive_grant_anchor_mesi() {
    let schedule = [
        SchedOp {
            node: 1,
            line: 1,
            write: false,
        },
        SchedOp {
            node: 0,
            line: 1,
            write: false,
        },
    ];
    for k in 1..=schedule.len() {
        assert_prefix_agrees(Protocol::Mesi, 2, &schedule, k);
    }
    let mid = fold_kernel(Protocol::Mesi, &schedule, 1)[1];
    assert_eq!(mid.caches[1], Some(LineState::Exclusive));
    let end = fold_kernel(Protocol::Mesi, &schedule, 2)[1];
    assert_eq!(end.caches[0], Some(LineState::Shared));
    assert_eq!(end.caches[1], Some(LineState::Shared));
}
