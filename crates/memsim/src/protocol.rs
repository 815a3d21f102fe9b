//! The pure coherence-protocol transition kernel.
//!
//! Everything the MSI/MESI directory protocol *decides* — who gets
//! invalidated, who downgrades, whether a fill installs Shared or Exclusive,
//! how a directory entry changes — lives here as side-effect-free functions
//! over [`DirEntry`] and per-node [`LineState`]s. The simulator
//! ([`crate::Machine`]) applies these decisions to its caches, latencies, and
//! statistics; `dss_check::check_model` drives the very same functions
//! through [`Kernel::step`] to enumerate the protocol's entire reachable state space
//! over small configurations. One transition table, two consumers — the
//! model checker cannot drift from the machine it vouches for.
//!
//! Three layers, from innermost out:
//!
//! * **Directory transforms** ([`dir_read`], [`dir_write`],
//!   [`dir_exclusive`], [`dir_drop`]) — pure `DirEntry -> DirEntry` steps.
//!   [`crate::Directory`]'s `record_*` methods delegate to them.
//! * **Transaction decisions** ([`Kernel::read_miss`],
//!   [`Kernel::write_transaction`]) — allocation-free structs the machine's
//!   miss paths consume for downgrade targets, hop shapes, and install
//!   states.
//! * **The model relation** ([`ProtocolState`], [`Op`], [`Kernel::step`]) —
//!   whole-line states over up to [`MAX_MODEL_NODES`] nodes, stepped one
//!   memory operation at a time, with the data-value invariant tracked as a
//!   per-copy freshness bit (an abstraction of symbolic write tokens: only
//!   "holds the latest token" matters, so the state space stays finite).
//!
//! [`check_line`] and [`check_data_value`] are the invariant definitions
//! themselves — [`crate::Machine::verify_line`] and the model checker's BFS
//! ([`explore`]) both call them, so the runtime observer and the exhaustive
//! checker enforce literally the same rules. [`explore`] returns violations
//! as minimal replayable event sequences from the reset state.
//!
//! [`KernelFault`] compiles two deliberate transition-table bugs for the
//! fault-injection campaign (`protocol.kernel.*` sites): the model pass must
//! detect and classify both, proving the checker has teeth.

use std::collections::{HashMap, VecDeque};
use std::fmt;

use crate::cache::LineState;
use crate::config::Protocol;
use crate::directory::DirEntry;
// Rule strings live in `crate::rules` (the one home for every coherence
// rule literal); re-exported here so `protocol::RULE_*` paths keep working.
pub use crate::rules::{
    RULE_NO_QUIESCENCE, RULE_OWNER_NO_COPY, RULE_SHARED_NOT_IN_MASK, RULE_STALE_COPY,
    RULE_STALE_MEMORY, RULE_STRAY_SHARER, RULE_TWO_WRITERS, RULE_WRITABLE_COEXISTS,
    RULE_WRITABLE_NOT_OWNER,
};

// --- directory transforms ----------------------------------------------------

/// A read by `node`: the node joins the sharers; a recorded owner (being
/// downgraded by the caller) folds into the sharer mask.
pub fn dir_read(entry: DirEntry, node: usize) -> DirEntry {
    let mut sharers = entry.sharers;
    if let Some(owner) = entry.owner {
        sharers |= 1 << owner;
    }
    sharers |= 1 << node;
    DirEntry {
        sharers,
        owner: None,
    }
}

/// A write by `node`: returns the new entry (exclusively owned by `node`)
/// and the bitmask of nodes whose copies must be invalidated.
pub fn dir_write(entry: DirEntry, node: usize) -> (DirEntry, u64) {
    let mut invalidate = entry.sharers;
    if let Some(owner) = entry.owner {
        invalidate |= 1 << owner;
    }
    invalidate &= !(1u64 << node);
    (
        DirEntry {
            sharers: 0,
            owner: Some(node),
        },
        invalidate,
    )
}

/// An exclusive-clean installation by `node` (MESI): the node becomes owner
/// without invalidations. The caller has verified the line was uncached.
pub fn dir_exclusive(entry: DirEntry, node: usize) -> DirEntry {
    DirEntry {
        sharers: entry.sharers,
        owner: Some(node),
    }
}

/// `node` dropped its copy (eviction or invalidation): it leaves the sharer
/// mask, and its ownership — if it held any — is cleared.
pub fn dir_drop(entry: DirEntry, node: usize) -> DirEntry {
    DirEntry {
        sharers: entry.sharers & !(1u64 << node),
        owner: if entry.owner == Some(node) {
            None
        } else {
            entry.owner
        },
    }
}

// --- invariant definitions ---------------------------------------------------

/// Checks the directory-protocol invariants for one line: `caches[i]` is
/// node `i`'s cached state (its L2 state, for the machine), `entry` the
/// directory's view. Allocation-free; rules fire in a fixed order, so a
/// given corruption always classifies the same way.
///
/// # Errors
///
/// Returns the first violated rule (one of the `RULE_*` constants).
pub fn check_line(caches: &[Option<LineState>], entry: DirEntry) -> Result<(), &'static str> {
    let mut writable_holder: Option<usize> = None;
    let mut copies = 0u64;
    for (id, state) in caches.iter().enumerate() {
        if state.is_some() {
            copies |= 1 << id;
        }
        if let Some(LineState::Exclusive | LineState::Modified) = state {
            if writable_holder.is_some() {
                return Err(RULE_TWO_WRITERS);
            }
            writable_holder = Some(id);
            if entry.owner != Some(id) {
                return Err(RULE_WRITABLE_NOT_OWNER);
            }
        }
        if *state == Some(LineState::Shared)
            && entry.sharers & (1 << id) == 0
            && entry.owner != Some(id)
        {
            return Err(RULE_SHARED_NOT_IN_MASK);
        }
    }
    if let Some(owner) = entry.owner {
        if writable_holder.is_none() && copies & (1 << owner) == 0 {
            // The recorded owner evicted or never held the line; a stale
            // owner would silently absorb writes that should invalidate.
            return Err(RULE_OWNER_NO_COPY);
        }
    }
    // Evictions inform the directory (record_drop), so the mask is exact: a
    // stray sharer bit means an invalidation went to — or a write will wait
    // on — a node that holds nothing.
    if entry.sharers & !copies != 0 {
        return Err(RULE_STRAY_SHARER);
    }
    if writable_holder.is_some() && copies.count_ones() > 1 {
        return Err(RULE_WRITABLE_COEXISTS);
    }
    Ok(())
}

/// Checks the data-value invariant of a model state: every cached copy is
/// fresh (holds the latest write token), and memory is fresh whenever no
/// Modified copy exists to supply the value instead.
///
/// # Errors
///
/// Returns the violated rule.
pub fn check_data_value(s: &ProtocolState, nprocs: usize) -> Result<(), &'static str> {
    let mut modified = false;
    for id in 0..nprocs.min(MAX_MODEL_NODES) {
        if let Some(state) = s.caches[id] {
            if s.fresh & (1 << id) == 0 {
                return Err(RULE_STALE_COPY);
            }
            modified |= state == LineState::Modified;
        }
    }
    if !s.mem_fresh && !modified {
        return Err(RULE_STALE_MEMORY);
    }
    Ok(())
}

// --- the model relation ------------------------------------------------------

/// Upper bound on the node count the model state carries (the conformance
/// tests go to 8 processors; exhaustive exploration uses 2–4).
pub const MAX_MODEL_NODES: usize = 8;

/// Whole-protocol state of one memory line: each node's cached state, the
/// directory entry, and the data-value abstraction — `fresh` bit `i` means
/// node `i`'s copy holds the latest written value, `mem_fresh` that memory
/// does. A symbolic write token would make the space infinite; only
/// "latest or not" is observable, so a bit per copy suffices.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ProtocolState {
    /// Per-node cached state (`None` = not cached).
    pub caches: [Option<LineState>; MAX_MODEL_NODES],
    /// The directory's view of the line.
    pub entry: DirEntry,
    /// Bit `i`: node `i`'s copy holds the latest written value.
    pub fresh: u8,
    /// Memory holds the latest written value.
    pub mem_fresh: bool,
}

impl ProtocolState {
    /// The reset state: nothing cached, empty directory entry, memory
    /// current.
    pub fn reset() -> Self {
        ProtocolState {
            caches: [None; MAX_MODEL_NODES],
            entry: DirEntry::default(),
            fresh: 0,
            mem_fresh: true,
        }
    }

    /// Whether this is the stable drained state over `nprocs` nodes: no
    /// cached copies, an empty directory entry, and current memory.
    pub fn is_quiescent(&self, nprocs: usize) -> bool {
        (0..nprocs.min(MAX_MODEL_NODES)).all(|n| self.caches[n].is_none())
            && self.entry == DirEntry::default()
            && self.mem_fresh
    }

    /// Clears freshness bits of nodes that cache nothing (don't-care bits,
    /// normalized away so equal protocol states hash equally).
    fn normalize(&mut self) {
        for (i, state) in self.caches.iter().enumerate() {
            if state.is_none() {
                self.fresh &= !(1u8 << i);
            }
        }
    }
}

impl Default for ProtocolState {
    fn default() -> Self {
        ProtocolState::reset()
    }
}

/// One memory operation on one line by one node — the alphabet the model
/// relation is closed under. `Prefetch` is distinct from `Read` because the
/// machine's simple prefetcher skips remotely-owned lines and always
/// installs Shared (never a MESI Exclusive grant).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Op {
    /// A load by `node`.
    Read {
        /// Issuing node.
        node: usize,
    },
    /// A store by `node`.
    Write {
        /// Issuing node.
        node: usize,
    },
    /// `node` evicts its copy (replacement).
    Evict {
        /// Evicting node.
        node: usize,
    },
    /// A background prefetch into `node`.
    Prefetch {
        /// Prefetching node.
        node: usize,
    },
}

impl Op {
    /// The node issuing the operation.
    pub fn node(self) -> usize {
        match self {
            Op::Read { node } | Op::Write { node } | Op::Evict { node } | Op::Prefetch { node } => {
                node
            }
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Read { node } => write!(f, "P{node} Read"),
            Op::Write { node } => write!(f, "P{node} Write"),
            Op::Evict { node } => write!(f, "P{node} Evict"),
            Op::Prefetch { node } => write!(f, "P{node} Prefetch"),
        }
    }
}

/// A coherence-visible consequence of a [`Kernel::step`], in protocol order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoherenceAction {
    /// `node`'s copy is invalidated by a write transaction.
    Invalidate {
        /// Node losing its copy.
        node: usize,
    },
    /// `node`'s writable copy downgrades to Shared for a remote read.
    Downgrade {
        /// Node being downgraded.
        node: usize,
    },
    /// `node`'s dirty copy is written back to memory.
    WriteBack {
        /// Node supplying the data.
        node: usize,
    },
    /// The line installs at `node` in `state`.
    Fill {
        /// Node receiving the fill.
        node: usize,
        /// Installed state.
        state: LineState,
    },
}

/// A deliberate transition-table bug, for the fault-injection campaign. The
/// faults live in [`Kernel`]'s model path only — the free directory
/// transforms the simulator routes through stay correct.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelFault {
    /// A store to a Shared copy skips the invalidation round, as if the
    /// copy were Exclusive — the silent-upgrade rule applied under MSI,
    /// where it is never legal.
    SilentUpgradeMsi,
    /// An eviction forgets to clear the evicting node's ownership: the
    /// directory keeps pointing at a node that caches nothing.
    StaleOwner,
}

/// The transition kernel: a protocol variant plus (for the fault campaign)
/// an optional deliberate bug. All methods are pure — the same inputs
/// always produce the same decisions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Kernel {
    protocol: Protocol,
    fault: Option<KernelFault>,
}

/// The kernel's decision for a read that missed both private caches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadMiss {
    /// Remote owner whose copy downgrades to Shared before the fill.
    pub downgrade: Option<usize>,
    /// The data is forwarded from a dirty remote owner (the 3-hop
    /// transaction shape when the home is a third node).
    pub dirty_forward: bool,
    /// State the requester installs (Exclusive for a MESI grant on an
    /// uncached line, Shared otherwise).
    pub install: LineState,
}

/// The kernel's decision for a store that needs a directory transaction
/// (the requester holds the line Shared, or not at all).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WriteMiss {
    /// Nodes whose copies the home invalidates.
    pub invalidate: u64,
    /// The line was owned by another node (3-hop shape on a full miss).
    pub remote_owner: bool,
    /// The directory entry after the transaction.
    pub entry: DirEntry,
}

impl Kernel {
    /// A correct kernel for `protocol`.
    pub fn new(protocol: Protocol) -> Self {
        Kernel {
            protocol,
            fault: None,
        }
    }

    /// A kernel with `fault` compiled into its transition table, for the
    /// fault-injection campaign.
    pub fn with_fault(protocol: Protocol, fault: KernelFault) -> Self {
        Kernel {
            protocol,
            fault: Some(fault),
        }
    }

    /// The protocol variant this kernel implements.
    pub fn protocol(&self) -> Protocol {
        self.protocol
    }

    /// Decides a read miss: `entry` is the directory's view, `node` the
    /// requester, `owner_dirty` whether a remote owner's copy is Modified
    /// (the caller reads this from the owning cache). Allocation-free.
    pub fn read_miss(&self, entry: DirEntry, node: usize, owner_dirty: bool) -> ReadMiss {
        let remote_owner = match entry.owner {
            Some(owner) if owner != node => Some(owner),
            _ => None,
        };
        let install =
            if self.protocol == Protocol::Mesi && entry.owner.is_none() && entry.sharers == 0 {
                LineState::Exclusive
            } else {
                LineState::Shared
            };
        ReadMiss {
            downgrade: remote_owner,
            dirty_forward: remote_owner.is_some() && owner_dirty,
            install,
        }
    }

    /// Decides a store's directory transaction: who to invalidate, whether a
    /// remote owner makes it 3-hop, and the entry afterwards.
    /// Allocation-free.
    pub fn write_transaction(&self, entry: DirEntry, node: usize) -> WriteMiss {
        let remote_owner = matches!(entry.owner, Some(owner) if owner != node);
        let (next, invalidate) = dir_write(entry, node);
        WriteMiss {
            invalidate,
            remote_owner,
            entry: next,
        }
    }

    /// [`dir_drop`] with this kernel's fault applied: the stale-owner bug
    /// keeps the evicting node's ownership on the books.
    fn dir_drop(&self, entry: DirEntry, node: usize) -> DirEntry {
        let mut next = dir_drop(entry, node);
        if self.fault == Some(KernelFault::StaleOwner) && entry.owner == Some(node) {
            next.owner = entry.owner;
        }
        next
    }

    /// Applies one memory operation to a line's protocol state, returning
    /// the successor state and the coherence actions the transition implies.
    /// This is the model relation the checker explores; the simulator takes
    /// the same decisions through [`Kernel::read_miss`],
    /// [`Kernel::write_transaction`], and the directory transforms.
    pub fn step(&self, s: ProtocolState, op: Op) -> (ProtocolState, Vec<CoherenceAction>) {
        let mut next = s;
        let mut actions = Vec::new();
        match op {
            Op::Read { node } => {
                if next.caches[node].is_some() {
                    return (next, actions); // hit: no coherence transaction
                }
                let owner_dirty = match s.entry.owner {
                    Some(owner) if owner != node => s.caches[owner] == Some(LineState::Modified),
                    _ => false,
                };
                let rm = self.read_miss(s.entry, node, owner_dirty);
                if let Some(owner) = rm.downgrade {
                    if let Some(state) = next.caches[owner] {
                        if state.dirty() {
                            // The forwarded data also updates memory.
                            next.mem_fresh = next.fresh & (1 << owner) != 0;
                            actions.push(CoherenceAction::WriteBack { node: owner });
                        }
                        next.caches[owner] = Some(LineState::Shared);
                        actions.push(CoherenceAction::Downgrade { node: owner });
                    }
                }
                next.entry = if rm.install == LineState::Exclusive {
                    dir_exclusive(next.entry, node)
                } else {
                    dir_read(next.entry, node)
                };
                next.caches[node] = Some(rm.install);
                // The fill carries what memory (now updated by any
                // writeback) holds.
                if next.mem_fresh {
                    next.fresh |= 1 << node;
                }
                actions.push(CoherenceAction::Fill {
                    node,
                    state: rm.install,
                });
            }
            Op::Write { node } => {
                match next.caches[node] {
                    Some(LineState::Modified) => {} // hit: no transaction
                    Some(LineState::Exclusive) => {
                        // MESI silent upgrade: no coherence transaction.
                        next.caches[node] = Some(LineState::Modified);
                    }
                    cached => {
                        if self.fault == Some(KernelFault::SilentUpgradeMsi)
                            && cached == Some(LineState::Shared)
                        {
                            // FAULT: the Shared copy is treated like an
                            // Exclusive one — no invalidation round, no
                            // directory transaction; other sharers keep
                            // (now stale) copies.
                            next.caches[node] = Some(LineState::Modified);
                        } else {
                            let wt = self.write_transaction(next.entry, node);
                            let mut mask = wt.invalidate;
                            while mask != 0 {
                                let q = mask.trailing_zeros() as usize;
                                mask &= mask - 1;
                                if q < MAX_MODEL_NODES && next.caches[q].is_some() {
                                    next.caches[q] = None;
                                    actions.push(CoherenceAction::Invalidate { node: q });
                                }
                            }
                            next.entry = wt.entry;
                            if cached.is_none() {
                                actions.push(CoherenceAction::Fill {
                                    node,
                                    state: LineState::Modified,
                                });
                            }
                            next.caches[node] = Some(LineState::Modified);
                        }
                    }
                }
                // The store mints the latest value at the writer; every
                // other copy, and memory, is now behind.
                next.fresh = 1 << node;
                next.mem_fresh = false;
            }
            Op::Evict { node } => {
                let Some(state) = next.caches[node] else {
                    return (next, actions); // nothing cached: no-op
                };
                if state.dirty() {
                    next.mem_fresh = next.fresh & (1 << node) != 0;
                    actions.push(CoherenceAction::WriteBack { node });
                }
                next.caches[node] = None;
                next.entry = self.dir_drop(next.entry, node);
            }
            Op::Prefetch { node } => {
                if next.caches[node].is_some() {
                    return (next, actions); // resident: nothing to fetch
                }
                if matches!(next.entry.owner, Some(owner) if owner != node) {
                    return (next, actions); // owned elsewhere: skipped
                }
                next.entry = dir_read(next.entry, node);
                next.caches[node] = Some(LineState::Shared);
                if next.mem_fresh {
                    next.fresh |= 1 << node;
                }
                actions.push(CoherenceAction::Fill {
                    node,
                    state: LineState::Shared,
                });
            }
        }
        next.normalize();
        (next, actions)
    }
}

// --- exhaustive exploration --------------------------------------------------

/// Bounds of one exhaustive exploration.
#[derive(Clone, Copy, Debug)]
pub struct ExploreConfig {
    /// Modeled processors (1..=[`MAX_MODEL_NODES`]).
    pub nprocs: usize,
    /// Independent lines explored as a product space (1 or 2 — enough for
    /// message-ordering shapes without blowing up the product).
    pub nlines: usize,
    /// Also require every reachable state to drain to quiescence.
    pub check_quiescence: bool,
    /// Safety cap on discovered states; hitting it reports `complete:
    /// false` instead of running away.
    pub max_states: usize,
}

impl ExploreConfig {
    /// Defaults: quiescence on, a generous state cap.
    pub fn new(nprocs: usize, nlines: usize) -> Self {
        ExploreConfig {
            nprocs,
            nlines,
            check_quiescence: true,
            max_states: 1_000_000,
        }
    }
}

/// An invariant violation found by [`explore`], with a minimal replayable
/// path: applying `path`'s ops (each tagged with its line index) to per-line
/// [`ProtocolState::reset`] states through [`Kernel::step`] reproduces
/// `states`, whose line `line` breaks `rule`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModelViolation {
    /// The violated `RULE_*` constant.
    pub rule: &'static str,
    /// Index of the modeled line that breaks the rule.
    pub line: usize,
    /// Shortest event sequence from reset, as `(line index, op)` pairs.
    pub path: Vec<(usize, Op)>,
    /// The offending per-line states after replaying `path`.
    pub states: Vec<ProtocolState>,
}

/// Result of one exhaustive exploration.
#[derive(Clone, Debug)]
pub struct Exploration {
    /// Distinct reachable states discovered.
    pub states: usize,
    /// Transitions examined (state × op pairs).
    pub transitions: usize,
    /// Whether the space was exhausted (false only at the `max_states` cap).
    pub complete: bool,
    /// The first (shortest-path) violation, if any.
    pub violation: Option<ModelViolation>,
}

/// Exhaustive BFS over every state `kernel` can reach from reset under
/// `cfg`'s bounds, checking [`check_line`], [`check_data_value`], and
/// (optionally) quiescence at every state. BFS order makes the first
/// reported violation's path minimal; op enumeration order is fixed, so the
/// same kernel and bounds always classify a bug identically.
///
/// Lives in `dss-memsim` rather than `dss-check` so the fault-injection
/// campaign (`dss-faultkit`) can drive it against deliberately broken
/// kernels without depending on the checker.
///
/// # Panics
///
/// Panics if `cfg.nprocs` is 0 or exceeds [`MAX_MODEL_NODES`], or if
/// `cfg.nlines` is 0.
pub fn explore(kernel: &Kernel, cfg: &ExploreConfig) -> Exploration {
    assert!(
        cfg.nprocs >= 1 && cfg.nprocs <= MAX_MODEL_NODES,
        "model supports 1..={MAX_MODEL_NODES} processors"
    );
    assert!(cfg.nlines >= 1, "at least one line to model");
    let init: Vec<ProtocolState> = vec![ProtocolState::reset(); cfg.nlines];
    let mut states: Vec<Vec<ProtocolState>> = vec![init.clone()];
    let mut parent: Vec<Option<(usize, (usize, Op))>> = vec![None];
    let mut index: HashMap<Vec<ProtocolState>, usize> = HashMap::new();
    index.insert(init, 0);
    let mut queue: VecDeque<usize> = VecDeque::new();
    queue.push_back(0);
    let mut transitions = 0usize;
    let mut capped = false;

    while let Some(cur) = queue.pop_front() {
        let state = states[cur].clone();
        // Invariants first: a violating state is reported, not expanded, so
        // every counterexample ends at its first broken state.
        for (li, s) in state.iter().enumerate() {
            let verdict = check_line(&s.caches[..cfg.nprocs], s.entry)
                .and_then(|()| check_data_value(s, cfg.nprocs));
            if let Err(rule) = verdict {
                return Exploration {
                    states: states.len(),
                    transitions,
                    complete: false,
                    violation: Some(ModelViolation {
                        rule,
                        line: li,
                        path: path_to(&parent, cur),
                        states: state,
                    }),
                };
            }
        }
        if cfg.check_quiescence {
            for (li, s) in state.iter().enumerate() {
                let (drained, ops, broken) = drain(kernel, *s, cfg.nprocs);
                // Invariants are re-checked along the drain so a fault that
                // the eviction path exposes classifies by the concrete rule
                // it breaks (e.g. a stale directory owner), not merely as a
                // failure to quiesce; the quiescence rule is the fallback
                // when the drain stays clean but never empties.
                let rule = match broken {
                    Some(rule) => Some(rule),
                    None if !drained.is_quiescent(cfg.nprocs) => Some(RULE_NO_QUIESCENCE),
                    None => None,
                };
                if let Some(rule) = rule {
                    let mut path = path_to(&parent, cur);
                    path.extend(ops.into_iter().map(|op| (li, op)));
                    let mut end = state.clone();
                    end[li] = drained;
                    return Exploration {
                        states: states.len(),
                        transitions,
                        complete: false,
                        violation: Some(ModelViolation {
                            rule,
                            line: li,
                            path,
                            states: end,
                        }),
                    };
                }
            }
        }
        for li in 0..cfg.nlines {
            for node in 0..cfg.nprocs {
                for op in [
                    Op::Read { node },
                    Op::Write { node },
                    Op::Evict { node },
                    Op::Prefetch { node },
                ] {
                    transitions += 1;
                    let (next_line, _actions) = kernel.step(state[li], op);
                    if next_line == state[li] {
                        continue;
                    }
                    let mut next = state.clone();
                    next[li] = next_line;
                    if index.contains_key(&next) {
                        continue;
                    }
                    if states.len() >= cfg.max_states {
                        capped = true;
                        continue;
                    }
                    let id = states.len();
                    index.insert(next.clone(), id);
                    states.push(next);
                    parent.push(Some((cur, (li, op))));
                    queue.push_back(id);
                }
            }
        }
    }
    Exploration {
        states: states.len(),
        transitions,
        complete: !capped,
        violation: None,
    }
}

/// Reconstructs the op path from the reset state to state `cur` by walking
/// the BFS predecessor chain.
fn path_to(parent: &[Option<(usize, (usize, Op))>], mut cur: usize) -> Vec<(usize, Op)> {
    let mut path = Vec::new();
    while let Some(Some((prev, step))) = parent.get(cur) {
        path.push(*step);
        cur = *prev;
    }
    path.reverse();
    path
}

/// Evicts every cached copy of `s` in node order, returning the reached
/// state, the ops applied (for counterexample paths), and the first
/// invariant rule an intermediate drain state violates (the drain stops
/// there).
fn drain(
    kernel: &Kernel,
    s: ProtocolState,
    nprocs: usize,
) -> (ProtocolState, Vec<Op>, Option<&'static str>) {
    let mut state = s;
    let mut ops = Vec::new();
    for node in 0..nprocs.min(MAX_MODEL_NODES) {
        if state.caches[node].is_some() {
            let op = Op::Evict { node };
            state = kernel.step(state, op).0;
            ops.push(op);
            let verdict = check_line(&state.caches[..nprocs], state.entry)
                .and_then(|()| check_data_value(&state, nprocs));
            if let Err(rule) = verdict {
                return (state, ops, Some(rule));
            }
        }
    }
    (state, ops, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(sharers: u64, owner: Option<usize>) -> DirEntry {
        DirEntry { sharers, owner }
    }

    #[test]
    fn dir_transforms_match_the_directory_semantics() {
        // read folds a downgraded owner into the sharer mask
        let e = dir_read(entry(0, Some(3)), 0);
        assert_eq!(e, entry((1 << 3) | 1, None));
        // write invalidates sharers and any remote owner, then owns
        let (e, inv) = dir_write(entry(0b101, Some(3)), 0);
        assert_eq!(e, entry(0, Some(0)));
        assert_eq!(inv, 0b100 | (1 << 3));
        // exclusive grant owns without invalidations
        assert_eq!(dir_exclusive(entry(0, None), 2), entry(0, Some(2)));
        // drop clears the node's sharer bit and its ownership
        assert_eq!(dir_drop(entry(0b11, Some(1)), 1), entry(0b01, None));
        assert_eq!(dir_drop(entry(0b11, Some(1)), 0), entry(0b10, Some(1)));
    }

    #[test]
    fn read_miss_decisions() {
        let msi = Kernel::new(Protocol::Msi);
        let mesi = Kernel::new(Protocol::Mesi);
        // Uncached line: MSI installs Shared, MESI grants Exclusive.
        assert_eq!(
            msi.read_miss(entry(0, None), 0, false),
            ReadMiss {
                downgrade: None,
                dirty_forward: false,
                install: LineState::Shared
            }
        );
        assert_eq!(
            mesi.read_miss(entry(0, None), 0, false).install,
            LineState::Exclusive
        );
        // Owned elsewhere: downgrade; dirty owners forward (3-hop shape).
        let rm = msi.read_miss(entry(0, Some(2)), 0, true);
        assert_eq!(rm.downgrade, Some(2));
        assert!(rm.dirty_forward);
        assert_eq!(rm.install, LineState::Shared);
        // Clean MESI owner downgrades without a forward.
        let rm = mesi.read_miss(entry(0, Some(2)), 0, false);
        assert_eq!(rm.downgrade, Some(2));
        assert!(!rm.dirty_forward);
        // The requester itself recorded as owner: no downgrade.
        assert_eq!(msi.read_miss(entry(0, Some(0)), 0, false).downgrade, None);
    }

    #[test]
    fn step_models_a_read_write_invalidate_round() {
        let k = Kernel::new(Protocol::Msi);
        let s = ProtocolState::reset();
        let (s, _) = k.step(s, Op::Read { node: 0 });
        let (s, _) = k.step(s, Op::Read { node: 1 });
        assert_eq!(s.caches[0], Some(LineState::Shared));
        assert_eq!(s.entry.sharers, 0b11);
        let (s, actions) = k.step(s, Op::Write { node: 1 });
        assert_eq!(s.caches[0], None, "sharer invalidated");
        assert_eq!(s.caches[1], Some(LineState::Modified));
        assert_eq!(s.entry, entry(0, Some(1)));
        assert!(actions.contains(&CoherenceAction::Invalidate { node: 0 }));
        assert!(!s.mem_fresh, "memory is behind the modified copy");
        // A remote read forwards the dirty data and refreshes memory.
        let (s, actions) = k.step(s, Op::Read { node: 2 });
        assert!(actions.contains(&CoherenceAction::WriteBack { node: 1 }));
        assert!(s.mem_fresh);
        assert_eq!(s.caches[1], Some(LineState::Shared));
        assert_eq!(s.caches[2], Some(LineState::Shared));
        check_line(&s.caches[..4], s.entry).expect("clean protocol state");
        check_data_value(&s, 4).expect("values coherent");
    }

    #[test]
    fn step_mesi_exclusive_grant_and_silent_upgrade() {
        let k = Kernel::new(Protocol::Mesi);
        let (s, _) = k.step(ProtocolState::reset(), Op::Read { node: 0 });
        assert_eq!(s.caches[0], Some(LineState::Exclusive));
        assert_eq!(s.entry, entry(0, Some(0)));
        let (s, actions) = k.step(s, Op::Write { node: 0 });
        assert_eq!(s.caches[0], Some(LineState::Modified));
        assert!(actions.is_empty(), "silent upgrade has no visible actions");
    }

    #[test]
    fn step_prefetch_skips_owned_lines_and_installs_shared() {
        let k = Kernel::new(Protocol::Mesi);
        // Prefetch of an uncached line installs Shared even under MESI.
        let (s, _) = k.step(ProtocolState::reset(), Op::Prefetch { node: 0 });
        assert_eq!(s.caches[0], Some(LineState::Shared));
        // A line owned elsewhere is skipped entirely.
        let (s, _) = k.step(ProtocolState::reset(), Op::Write { node: 1 });
        let (after, actions) = k.step(s, Op::Prefetch { node: 0 });
        assert_eq!(after, s);
        assert!(actions.is_empty());
    }

    #[test]
    fn step_evict_writes_back_and_informs_the_directory() {
        let k = Kernel::new(Protocol::Msi);
        let (s, _) = k.step(ProtocolState::reset(), Op::Write { node: 2 });
        let (s, actions) = k.step(s, Op::Evict { node: 2 });
        assert!(actions.contains(&CoherenceAction::WriteBack { node: 2 }));
        assert!(s.is_quiescent(4), "drained to the stable state");
    }

    #[test]
    fn negative_each_invariant_rule_fires_on_a_hand_corrupted_state() {
        let two_writers = [Some(LineState::Modified), Some(LineState::Modified)];
        assert_eq!(
            check_line(&two_writers, entry(0, Some(0))),
            Err(RULE_TWO_WRITERS)
        );
        let unowned_writer = [Some(LineState::Modified), None];
        assert_eq!(
            check_line(&unowned_writer, entry(0, None)),
            Err(RULE_WRITABLE_NOT_OWNER)
        );
        let unmasked_sharer = [Some(LineState::Shared), None];
        assert_eq!(
            check_line(&unmasked_sharer, entry(0, None)),
            Err(RULE_SHARED_NOT_IN_MASK)
        );
        let absent_owner: [Option<LineState>; 2] = [None, None];
        assert_eq!(
            check_line(&absent_owner, entry(0, Some(1))),
            Err(RULE_OWNER_NO_COPY)
        );
        let phantom_sharer: [Option<LineState>; 2] = [None, None];
        assert_eq!(
            check_line(&phantom_sharer, entry(0b10, None)),
            Err(RULE_STRAY_SHARER)
        );
        // Writable-coexists needs the writer owned (else the ownership rule
        // fires first) and the bystander masked (else the mask rule fires):
        // exactly the silent-upgrade wreckage after the directory "caught
        // up" with the writer.
        let coexist = [Some(LineState::Modified), Some(LineState::Shared)];
        assert_eq!(
            check_line(&coexist, entry(0b10, Some(0))),
            Err(RULE_WRITABLE_COEXISTS)
        );
        // Data-value rules.
        let mut s = ProtocolState::reset();
        s.caches[0] = Some(LineState::Shared);
        s.entry = entry(0b1, None);
        s.fresh = 0; // cached but stale
        assert_eq!(check_data_value(&s, 2), Err(RULE_STALE_COPY));
        let mut s = ProtocolState::reset();
        s.mem_fresh = false; // nothing cached, memory behind
        assert_eq!(check_data_value(&s, 2), Err(RULE_STALE_MEMORY));
    }

    #[test]
    fn explore_exhausts_clean_kernels() {
        for protocol in [Protocol::Msi, Protocol::Mesi] {
            let ex = explore(&Kernel::new(protocol), &ExploreConfig::new(3, 1));
            assert!(ex.complete);
            assert!(ex.violation.is_none(), "{:?}", ex.violation);
            assert!(ex.states > 10, "only {} states", ex.states);
        }
    }

    #[test]
    fn explore_finds_the_silent_upgrade_with_a_minimal_path() {
        let k = Kernel::with_fault(Protocol::Msi, KernelFault::SilentUpgradeMsi);
        let ex = explore(&k, &ExploreConfig::new(2, 1));
        let v = ex.violation.expect("fault must be found");
        assert_eq!(v.rule, RULE_WRITABLE_NOT_OWNER);
        // Minimal: one read to get a Shared copy, one write to abuse it.
        assert_eq!(v.path.len(), 2, "path {:?}", v.path);
        // The path replays to the reported state.
        let mut s = ProtocolState::reset();
        for (_, op) in &v.path {
            s = k.step(s, *op).0;
        }
        assert_eq!(s, v.states[v.line]);
    }

    #[test]
    fn explore_finds_the_stale_owner() {
        let k = Kernel::with_fault(Protocol::Msi, KernelFault::StaleOwner);
        let ex = explore(&k, &ExploreConfig::new(2, 1));
        let v = ex.violation.expect("fault must be found");
        assert_eq!(v.rule, RULE_OWNER_NO_COPY);
        assert_eq!(v.path.len(), 2, "write then evict: {:?}", v.path);
    }

    #[test]
    fn explore_state_cap_reports_incomplete() {
        let ex = explore(
            &Kernel::new(Protocol::Msi),
            &ExploreConfig {
                max_states: 4,
                ..ExploreConfig::new(4, 1)
            },
        );
        assert!(!ex.complete);
        assert!(ex.violation.is_none());
    }

    #[test]
    fn two_line_product_space_stays_clean_and_finite() {
        let ex = explore(&Kernel::new(Protocol::Mesi), &ExploreConfig::new(2, 2));
        assert!(ex.complete);
        assert!(ex.violation.is_none());
    }

    #[test]
    fn ops_render_for_counterexamples() {
        assert_eq!(Op::Read { node: 3 }.to_string(), "P3 Read");
        assert_eq!(Op::Write { node: 0 }.node(), 0);
    }
}
