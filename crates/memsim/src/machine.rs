//! The multiprocessor simulator: interleaves per-processor traces by
//! simulated time through private two-level caches, write buffers, a full-map
//! directory, and spinlock timing.
//!
//! Modeling follows the paper's architecture section: processors stall on
//! read misses and write-buffer overflow; a fixed-latency interconnect
//! (contention modeled everywhere except the network); MSI directory
//! coherence at L2-line granularity with inclusive L1s. Cache and directory
//! state changes are applied when a reference is issued, which keeps the
//! interleaving deterministic.
//!
//! The hot loop is hash-free and allocation-free: the processor with the
//! smallest `(clock, index)` runs ahead until that key passes the runner-up's
//! — one scan of the live clocks per switch, nothing per event — a miss is
//! classified and filled by one [`Cache::fill`] per level (one probe of the
//! history byte its 2-bit code shares with three neighbours, one set scan),
//! and invalidation targets arrive as a node bitmask from the directory.

#![deny(clippy::disallowed_types, clippy::cast_possible_truncation)]
#![deny(clippy::panic, clippy::unreachable)]

use std::collections::VecDeque;
use std::convert::Infallible;

use dss_shmem::MAX_PROCS;
use dss_trace::{DataClass, Event, EventKind, EventStream, Trace, TraceError, TraceSource};

use crate::cache::{Cache, LineState, MissKind};
use crate::config::MachineConfig;
use crate::directory::{home_of, Directory};
use crate::protocol::Kernel;
use crate::stats::{LevelStats, ProcStats, SimStats};

pub(crate) struct Node {
    pub(crate) l1: Cache,
    pub(crate) l2: Cache,
}

/// A machine whose cache and directory state persists across runs — warm one
/// query, then measure the next, as the paper's inter-query reuse experiment
/// does.
///
/// # Example
///
/// ```
/// use dss_memsim::{Machine, MachineConfig};
/// use dss_trace::{DataClass, Tracer};
///
/// let tracer = Tracer::new(0);
/// tracer.busy(10);
/// tracer.read(dss_shmem::SHARED_BASE, 8, DataClass::Data);
/// let trace = tracer.take();
///
/// let mut machine = Machine::new(MachineConfig::baseline());
/// let stats = machine.run(&[trace]);
/// assert_eq!(stats.l1.read_misses.total(), 1); // cold miss
/// ```
pub struct Machine {
    cfg: MachineConfig,
    /// The pure transition kernel deciding every coherence transaction
    /// (`crate::protocol`) — the same kernel `dss_check::check_model` explores
    /// exhaustively, so the simulator cannot drift from the checked protocol.
    kernel: Kernel,
    pub(crate) nodes: Vec<Node>,
    pub(crate) dir: Directory,
    /// Held metalocks as `(lock word, holder)`. A handful of distinct lock
    /// words exist (`LockMgrLock`, `BufMgrLock`, the odd metalock), so a
    /// linear scan over a small vector beats hashing on the lock path and
    /// keeps the hot loop free of hashed containers.
    locks: Vec<(u64, usize)>,
    /// Reusable per-processor run state. Hoisted out of the replay loop so
    /// that, once a run has grown these buffers, subsequent runs (through
    /// [`Machine::run_into`]) never touch the heap — the steady-state
    /// property `dss-check`'s `paper_scale` test measures.
    scratch: Vec<ProcScratch>,
    /// Reusable per-processor block buffers for [`Machine::run_source`]: the
    /// streaming run replays one block per processor at a time, refilling
    /// these in place, so peak memory stays bounded by the block size — not
    /// the trace length — and steady-state streaming runs stay heap-quiet.
    blocks: Vec<Vec<Event>>,
    // Geometry hoisted out of the per-event paths.
    pub(crate) l1_line: u64,
    pub(crate) l2_line: u64,
    pub(crate) l2_line_mask: u64,
    prefetches_issued: u64,
    prefetches_filled: u64,
    /// First coherence-invariant violation observed by the per-transaction
    /// hook (only compiled under `check-invariants`; boxed so the default
    /// path never grows).
    #[cfg(feature = "check-invariants")]
    violation: Option<Box<crate::verify::CoherenceViolation>>,
}

/// Per-processor run state. Holds no reference to the trace it replays (the
/// run loop passes the trace alongside), so the machine can keep these
/// between runs and reuse their buffers.
#[derive(Default)]
struct ProcScratch {
    /// The node this trace executes on.
    node: usize,
    pos: usize,
    clock: u64,
    /// Pending write-buffer entries: (L2 line, completion time), in issue
    /// order (completions are monotone).
    wb: VecDeque<(u64, u64)>,
    stats: ProcStats,
}

impl ProcScratch {
    /// Resets for a fresh run on node `node`, keeping buffer capacity.
    fn reset(&mut self, node: usize) {
        self.node = node;
        self.pos = 0;
        self.clock = 0;
        self.wb.clear();
        self.stats = ProcStats::default();
    }

    fn retire_wb(&mut self) {
        while let Some(&(_, complete)) = self.wb.front() {
            if complete <= self.clock {
                self.wb.pop_front();
            } else {
                break;
            }
        }
    }

    fn charge_mem(&mut self, class: DataClass, cycles: u64) {
        self.stats.mem_stall += cycles;
        self.stats.stall_by_class[class.index()] += cycles;
    }
}

/// The per-processor block cursors of one run: for each processor, the block
/// of events being replayed and how to replace it once it is exhausted. The
/// replay loop is generic over this, so whole in-memory traces and streamed
/// block files share one scheduler.
trait BlockCursors {
    /// How a refill can fail.
    type Error;

    /// Number of processors with a trace.
    fn len(&self) -> usize;

    /// The simulated processor cursor `i` belongs to.
    fn proc_id(&self, i: usize) -> usize;

    /// Cursor `i`'s current block.
    fn block(&self, i: usize) -> &[Event];

    /// Replaces cursor `i`'s exhausted block with its next one. `false`
    /// means the trace has ended (and the current block is unchanged or
    /// empty).
    fn refill(&mut self, i: usize) -> Result<bool, Self::Error>;
}

/// Moves processor `i` onto its next block, if there is one.
fn advance<C: BlockCursors>(
    cursors: &mut C,
    i: usize,
    rp: &mut ProcScratch,
) -> Result<bool, C::Error> {
    let more = cursors.refill(i)?;
    if more {
        rp.pos = 0;
    }
    Ok(more)
}

/// Materialized traces, borrowed: each trace is its own single block, so a
/// run copies nothing and allocates nothing.
struct WholeTraces<'a>(&'a [Trace]);

impl BlockCursors for WholeTraces<'_> {
    type Error = Infallible;

    fn len(&self) -> usize {
        self.0.len()
    }

    fn proc_id(&self, i: usize) -> usize {
        self.0[i].proc_id
    }

    fn block(&self, i: usize) -> &[Event] {
        &self.0[i].events
    }

    fn refill(&mut self, _i: usize) -> Result<bool, Infallible> {
        Ok(false)
    }
}

/// Open event streams, each refilling one of the machine's reusable block
/// buffers in place.
struct StreamBlocks<'a> {
    streams: Vec<Box<dyn EventStream + 'a>>,
    blocks: Vec<Vec<Event>>,
}

impl BlockCursors for StreamBlocks<'_> {
    type Error = TraceError;

    fn len(&self) -> usize {
        self.streams.len()
    }

    fn proc_id(&self, i: usize) -> usize {
        self.streams[i].proc_id()
    }

    fn block(&self, i: usize) -> &[Event] {
        &self.blocks[i]
    }

    fn refill(&mut self, i: usize) -> Result<bool, TraceError> {
        Ok(self.streams[i].next_block(&mut self.blocks[i])? > 0)
    }
}

impl Machine {
    /// Builds a machine with cold caches.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent.
    pub fn new(cfg: MachineConfig) -> Self {
        cfg.validate();
        let nodes = (0..cfg.nprocs)
            .map(|_| Node {
                l1: Cache::new(cfg.l1),
                l2: Cache::new(cfg.l2),
            })
            .collect();
        Machine {
            nodes,
            kernel: Kernel::new(cfg.protocol),
            dir: Directory::with_line_size(cfg.l2.line),
            // Lock acquisition follows a strict per-processor stack discipline
            // (enforced by the trace layer's `check_lock_discipline`), so at
            // most a few locks per processor are held at once. Reserving that
            // bound up front keeps `run` heap-silent even when warm-cache
            // timing overlaps more lock holds than the cold first run did.
            locks: Vec::with_capacity(4 * cfg.nprocs),
            scratch: Vec::new(),
            blocks: Vec::new(),
            l1_line: cfg.l1.line,
            l2_line: cfg.l2.line,
            l2_line_mask: !(cfg.l2.line - 1),
            prefetches_issued: 0,
            prefetches_filled: 0,
            #[cfg(feature = "check-invariants")]
            violation: None,
            cfg,
        }
    }

    /// The holder of the metalock at `addr`, if any.
    fn lock_holder(&self, addr: u64) -> Option<usize> {
        self.locks
            .iter()
            .find(|&&(a, _)| a == addr)
            .map(|&(_, holder)| holder)
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Runs one trace per processor to completion and returns the statistics
    /// of this run. Cache and directory contents persist into the next call
    /// (use a fresh [`Machine`] for cold-start numbers); clocks, write
    /// buffers, and locks reset per run.
    ///
    /// # Panics
    ///
    /// Panics if more traces than processors are supplied, or if a lock
    /// release does not match its holder.
    pub fn run(&mut self, traces: &[Trace]) -> SimStats {
        let mut stats = SimStats::default();
        self.run_into(traces, &mut stats);
        stats
    }

    /// [`Machine::run`] into a caller-owned [`SimStats`], overwriting it.
    ///
    /// This is the allocation-free form: the traces are replayed in place
    /// (no copy) and all per-run state lives in buffers the machine reuses
    /// between runs, so once one run has grown them (and the caches' lazily
    /// paged tables have seen the trace's address footprint), subsequent
    /// runs perform **zero** heap allocations — `dss-check`'s `paper_scale`
    /// test measures exactly this with a counting allocator. [`Machine::run`] is a
    /// convenience wrapper that allocates one fresh `SimStats` per call.
    ///
    /// # Panics
    ///
    /// As [`Machine::run`].
    pub fn run_into(&mut self, traces: &[Trace], out: &mut SimStats) {
        match self.replay(&mut WholeTraces(traces), out) {
            Ok(()) => {}
            Err(never) => match never {},
        }
    }

    /// Runs a streaming [`TraceSource`] to completion: each processor's
    /// events are consumed one block at a time, so peak memory is bounded by
    /// the block size regardless of trace length. Identical in every
    /// simulated respect to materializing the source and calling
    /// [`Machine::run`] — both drive the same replay loop, and block
    /// boundaries carry no timing — which the equivalence tests pin
    /// bit-for-bit.
    ///
    /// # Errors
    ///
    /// Propagates the first [`TraceError`] from the source (truncated or
    /// corrupt block stream, I/O failure). Cache state reflects the events
    /// already replayed; use a fresh machine after an error.
    ///
    /// # Panics
    ///
    /// As [`Machine::run`].
    pub fn run_source(&mut self, src: &dyn TraceSource) -> Result<SimStats, TraceError> {
        let streams = src.open()?;
        let mut blocks = std::mem::take(&mut self.blocks);
        blocks.resize_with(blocks.len().max(streams.len()), Vec::new);
        blocks.iter_mut().for_each(Vec::clear);
        let mut cursors = StreamBlocks { streams, blocks };
        let mut stats = SimStats::default();
        let result = self.replay(&mut cursors, &mut stats);
        self.blocks = cursors.blocks;
        result.map(|()| stats)
    }

    /// The one replay loop: interleaves the processors' events by simulated
    /// time, whichever kind of block cursor delivers them.
    fn replay<C: BlockCursors>(
        &mut self,
        cursors: &mut C,
        out: &mut SimStats,
    ) -> Result<(), C::Error> {
        let n = cursors.len();
        assert!(n <= self.cfg.nprocs, "more traces than processors");
        self.locks.clear();
        // Move the reusable buffers out of `self` so the loop can borrow them
        // mutably alongside `&mut self`; they go back at the end, whether or
        // not a cursor failed mid-stream.
        let mut scratch = std::mem::take(&mut self.scratch);
        while scratch.len() < n {
            scratch.push(ProcScratch::default());
        }
        let mut seen: u128 = 0;
        for (i, rp) in scratch[..n].iter_mut().enumerate() {
            let proc_id = cursors.proc_id(i);
            assert!(
                proc_id < self.cfg.nprocs,
                "trace for processor {} on a {}-processor machine",
                proc_id,
                self.cfg.nprocs
            );
            assert!(
                seen & (1 << proc_id) == 0,
                "two traces for processor {proc_id}"
            );
            seen |= 1 << proc_id;
            rp.reset(proc_id);
            // The write buffer never holds more than `cfg.write_buffer`
            // entries (overflow stalls instead), but warm-cache timing can
            // fill it deeper than the cold first run did — reserve the full
            // bound now so later runs never grow it mid-loop.
            rp.wb.reserve(self.cfg.write_buffer);
        }
        let mut l1s = LevelStats::default();
        let mut l2s = LevelStats::default();
        let result = self.interleave(cursors, &mut scratch[..n], &mut l1s, &mut l2s);

        if result.is_ok() {
            self.collect(&mut scratch[..n], l1s, l2s, out);
        }
        self.scratch = scratch;
        result
    }

    /// Closes a finished run: drains each processor's write buffer into its
    /// final time and moves the run's counters into `out`.
    fn collect(
        &mut self,
        scratch: &mut [ProcScratch],
        l1s: LevelStats,
        l2s: LevelStats,
        out: &mut SimStats,
    ) {
        out.procs.clear();
        out.procs.resize(self.cfg.nprocs, ProcStats::default());
        for rp in scratch {
            if let Some(&(_, complete)) = rp.wb.back() {
                rp.clock = rp.clock.max(complete);
            }
            rp.stats.cycles = rp.clock;
            out.procs[rp.node] = rp.stats;
        }
        out.l1 = l1s;
        out.l2 = l2s;
        out.prefetches_issued = std::mem::take(&mut self.prefetches_issued);
        out.prefetches_filled = std::mem::take(&mut self.prefetches_filled);
    }

    /// Deterministic interleave: the unfinished processor with the smallest
    /// clock (ties by position) executes its next event. A step moves only
    /// the stepping processor's clock, so the minimum stays the minimum until
    /// its `(clock, index)` key passes the runner-up's: one scan picks both
    /// and the minimum runs ahead to that limit, in exactly the order a
    /// one-event-at-a-time scan would produce. A contended lock acquire
    /// advances the clock but not the position, so spinning is the same loop.
    /// Block boundaries only decide when a refill happens, never who steps
    /// next.
    fn interleave<C: BlockCursors>(
        &mut self,
        cursors: &mut C,
        scratch: &mut [ProcScratch],
        l1s: &mut LevelStats,
        l2s: &mut LevelStats,
    ) -> Result<(), C::Error> {
        /// Clock of a processor with no events left: never the minimum.
        const DONE: u64 = u64::MAX;
        // The scheduler's keys, dense: a switch scans a few adjacent words,
        // not one `ProcScratch` per processor.
        let mut clocks = [DONE; MAX_PROCS];
        let clocks = &mut clocks[..scratch.len()];
        for (i, rp) in scratch.iter_mut().enumerate() {
            if !cursors.block(i).is_empty() || advance(cursors, i, rp)? {
                clocks[i] = rp.clock;
            }
        }
        loop {
            let (mut i, mut least) = (usize::MAX, DONE);
            let (mut next, mut second) = (usize::MAX, DONE);
            for (j, &clock) in clocks.iter().enumerate() {
                if clock < least {
                    (next, second) = (i, least);
                    (i, least) = (j, clock);
                } else if clock < second {
                    (next, second) = (j, clock);
                }
            }
            if least == DONE {
                return Ok(());
            }
            // `i` keeps stepping while `(clock, i) < (second, next)`.
            let limit = second.saturating_add(u64::from(i < next));
            let rp = &mut scratch[i];
            let node = rp.node;
            clocks[i] = loop {
                self.step(node, cursors.block(i), rp, l1s, l2s);
                if rp.pos == cursors.block(i).len() && !advance(cursors, i, rp)? {
                    break DONE;
                }
                if rp.clock >= limit {
                    break rp.clock;
                }
            };
        }
    }

    /// Verifies the structural invariants of the cache hierarchy and
    /// directory; intended for tests (cheap relative to a simulation run).
    /// The non-panicking form is [`Machine::verify_coherence`].
    ///
    /// # Panics
    ///
    /// Panics if L1/L2 inclusion is violated, a line is writable in two
    /// nodes, or cache line states disagree with the directory.
    #[expect(clippy::panic, reason = "the panicking form of `verify_coherence`")]
    pub fn check_invariants(&self) {
        if let Err(v) = self.verify_coherence() {
            panic!("{v}");
        }
    }

    /// Executes processor `p`'s next event. Inlined into the run-ahead loop
    /// (its one caller outside tests), which keeps the stepping processor's
    /// clock and position in registers from one event to the next.
    #[inline(always)]
    fn step(
        &mut self,
        p: usize,
        block: &[Event],
        rp: &mut ProcScratch,
        l1s: &mut LevelStats,
        l2s: &mut LevelStats,
    ) {
        let event = block[rp.pos];
        match event.kind() {
            EventKind::Busy(n) => {
                rp.clock += n as u64;
                rp.stats.busy += n as u64;
                rp.pos += 1;
            }
            EventKind::Ref(r) if !r.write => {
                if !rp.wb.is_empty() {
                    self.wait_for_pending_write(rp, r.addr, r.class);
                }
                let stall = self.read_access(p, r.addr, r.class, l1s, l2s);
                rp.clock += 1 + stall;
                rp.stats.busy += 1;
                if stall > 0 {
                    rp.charge_mem(r.class, stall);
                }
                if r.class == DataClass::Data && self.cfg.prefetch_data_lines > 0 {
                    self.prefetch_from(p, r.addr);
                }
                rp.pos += 1;
            }
            EventKind::Ref(r) => {
                let service = self.write_service(p, r.addr, l1s, l2s);
                if service > 0 {
                    self.push_wb(rp, r.addr, service, r.class);
                }
                rp.clock += 1;
                rp.stats.busy += 1;
                if r.class == DataClass::Data && self.cfg.prefetch_data_lines > 0 {
                    self.prefetch_from(p, r.addr);
                }
                rp.pos += 1;
            }
            EventKind::LockAcquire(tok) => {
                let class = tok.class.data_class();
                match self.lock_holder(tok.addr) {
                    Some(holder) if holder != p => {
                        // Spin: poll the lock word, then back off. All time
                        // spent here is the paper's MSync.
                        let stall = self.read_access(p, tok.addr, class, l1s, l2s);
                        let wait = 1 + stall + self.cfg.spin_interval;
                        rp.clock += wait;
                        rp.stats.msync += wait;
                        // Do not advance: retry the acquire.
                    }
                    _ => {
                        // Free: acquire with a blocking read-modify-write.
                        // Its miss latency is ordinary memory stall on the
                        // lock's data structure (the paper's Metadata time).
                        let service = self.write_service(p, tok.addr, l1s, l2s);
                        rp.clock += 1 + service;
                        rp.stats.busy += 1;
                        rp.charge_mem(class, service);
                        if self.lock_holder(tok.addr).is_none() {
                            self.locks.push((tok.addr, p));
                        }
                        rp.pos += 1;
                    }
                }
            }
            EventKind::LockRelease(tok) => {
                let class = tok.class.data_class();
                let holder = self
                    .locks
                    .iter()
                    .position(|&(a, _)| a == tok.addr)
                    .map(|i| self.locks.swap_remove(i).1);
                assert_eq!(holder, Some(p), "lock released by non-holder");
                let service = self.write_service(p, tok.addr, l1s, l2s);
                if service > 0 {
                    self.push_wb(rp, tok.addr, service, class);
                }
                rp.clock += 1;
                rp.stats.busy += 1;
                rp.pos += 1;
            }
        }
        // The observer hook: after every completed transaction, check the
        // directory protocol's invariants on the line the event touched.
        // Compiled out by default so the hot loop stays exactly as profiled.
        #[cfg(feature = "check-invariants")]
        self.observe(event, rp.clock);
    }

    /// Per-transaction invariant hook (see [`crate::verify`]): records the
    /// first violation involving the line the event touched.
    #[cfg(feature = "check-invariants")]
    fn observe(&mut self, event: Event, clock: u64) {
        if self.violation.is_some() {
            return;
        }
        let addr = match event.kind() {
            EventKind::Ref(r) => r.addr,
            EventKind::LockAcquire(tok) | EventKind::LockRelease(tok) => tok.addr,
            EventKind::Busy(_) => return,
        };
        if let Err(mut v) = self.verify_line(addr & self.l2_line_mask) {
            v.clock = clock;
            self.violation = Some(Box::new(v));
        }
    }

    /// The first coherence violation seen by the per-transaction observer
    /// hook, if any (only present under the `check-invariants` feature).
    #[cfg(feature = "check-invariants")]
    pub fn first_violation(&self) -> Option<&crate::verify::CoherenceViolation> {
        self.violation.as_deref()
    }

    /// A read must wait for a pending write-buffer entry to the same line.
    fn wait_for_pending_write(&self, rp: &mut ProcScratch, addr: u64, class: DataClass) {
        let line = addr & self.l2_line_mask;
        if let Some(&(_, complete)) = rp
            .wb
            .iter()
            .find(|(l, complete)| *l == line && *complete > rp.clock)
        {
            let wait = complete - rp.clock;
            rp.clock = complete;
            rp.charge_mem(class, wait);
        }
        rp.retire_wb();
    }

    fn push_wb(&self, rp: &mut ProcScratch, addr: u64, service: u64, class: DataClass) {
        rp.retire_wb();
        if rp.wb.len() >= self.cfg.write_buffer {
            // Overflow: stall until the oldest entry drains (the paper's
            // write-buffer-overflow component of Mem).
            if let Some(&(_, earliest)) = rp.wb.front() {
                let wait = earliest.saturating_sub(rp.clock);
                rp.clock += wait;
                rp.charge_mem(class, wait);
                rp.retire_wb();
            }
        }
        let line = addr & self.l2_line_mask;
        let start = rp
            .wb
            .back()
            .map(|&(_, c)| c)
            .unwrap_or(rp.clock)
            .max(rp.clock);
        rp.wb.push_back((line, start + service));
    }

    /// Resolves a load: returns the stall beyond the 1-cycle issue slot.
    /// Inlined with [`Machine::step`]: most events are loads.
    #[inline(always)]
    fn read_access(
        &mut self,
        p: usize,
        addr: u64,
        class: DataClass,
        l1s: &mut LevelStats,
        l2s: &mut LevelStats,
    ) -> u64 {
        l1s.read_accesses += 1;
        if self.nodes[p].l1.lookup(addr).is_some() {
            return 0;
        }
        l2s.read_accesses += 1;
        let (stall, state) = match self.nodes[p].l2.lookup(addr) {
            Some(state) => (self.cfg.lat.l2, state),
            None => {
                let (stall, state) = self.remote_read(p, addr);
                l2s.read_misses.add(class, self.fill_l2(p, addr, state));
                (stall, state)
            }
        };
        // L1 victims stay resident in L2, so no directory action.
        l1s.read_misses
            .add(class, self.nodes[p].l1.fill(addr, state).0);
        stall
    }

    /// Directory transaction for a load that missed both private caches.
    /// The kernel decides the transaction shape (downgrade target, dirty
    /// forwarding, install state); this method applies it and prices the
    /// hops. Returns the stall and the state to install.
    fn remote_read(&mut self, p: usize, addr: u64) -> (u64, LineState) {
        let line = addr & self.l2_line_mask;
        let home = home_of(addr, self.cfg.nprocs);
        let entry = self.dir.entry(line);
        let owner_dirty = match entry.owner {
            Some(owner) if owner != p => self.nodes[owner]
                .l2
                .peek_state(line)
                .map(LineState::dirty)
                .unwrap_or(false),
            _ => false,
        };
        let rm = self.kernel.read_miss(entry, p, owner_dirty);
        if let Some(owner) = rm.downgrade {
            self.downgrade(owner, line);
        }
        // Dirty copies are forwarded (3-hop when the home is a third node);
        // clean owners just downgrade, with the home supplying the data.
        let lat = if rm.dirty_forward {
            if home == p {
                self.cfg.lat.remote2
            } else {
                self.cfg.lat.remote3
            }
        } else if home == p {
            self.cfg.lat.local
        } else {
            self.cfg.lat.remote2
        };
        if rm.install == LineState::Exclusive {
            self.dir.record_exclusive(line, p);
        } else {
            self.dir.record_read(line, p);
        }
        (lat, rm.install)
    }

    /// Resolves a store: returns the write-buffer service latency
    /// (0 = completed immediately against an exclusive line). Inlined with
    /// [`Machine::step`] for the common case, an L1 hit on a `Modified` line;
    /// everything else is [`Machine::write_slow`], handed the one L1 probe.
    #[inline(always)]
    fn write_service(
        &mut self,
        p: usize,
        addr: u64,
        l1s: &mut LevelStats,
        l2s: &mut LevelStats,
    ) -> u64 {
        l1s.write_accesses += 1;
        let hit = self.nodes[p].l1.lookup(addr);
        if hit == Some(LineState::Modified) {
            return 0;
        }
        self.write_slow(p, addr, hit, l1s, l2s)
    }

    /// A store that [`Machine::write_service`] could not complete inline:
    /// `hit` is its L1 lookup (already counted and LRU-touched).
    #[inline(never)]
    fn write_slow(
        &mut self,
        p: usize,
        addr: u64,
        hit: Option<LineState>,
        l1s: &mut LevelStats,
        l2s: &mut LevelStats,
    ) -> u64 {
        let in_l1 = match hit {
            Some(state) if state.writable() => {
                // MESI: the first write to an Exclusive line completes
                // silently; promote both levels to Modified.
                if state == LineState::Exclusive {
                    let line = addr & self.l2_line_mask;
                    self.nodes[p].l2.set_state(line, LineState::Modified);
                    self.nodes[p].l1.set_state(addr, LineState::Modified);
                }
                return 0;
            }
            hit => hit.is_some(),
        };
        l2s.write_accesses += 1;
        let line = addr & self.l2_line_mask;
        let home = home_of(addr, self.cfg.nprocs);
        let service = match self.nodes[p].l2.lookup(addr) {
            Some(LineState::Modified) => self.cfg.lat.l2,
            Some(LineState::Exclusive) => {
                // Silent upgrade (MESI): no coherence transaction.
                self.nodes[p].l2.set_state(line, LineState::Modified);
                self.cfg.lat.l2
            }
            Some(LineState::Shared) => {
                // Upgrade: invalidate the other sharers through the home.
                let inv = self.dir.record_write(line, p);
                self.invalidate_nodes(inv, line);
                self.nodes[p].l2.set_state(line, LineState::Modified);
                if home == p {
                    self.cfg.lat.local
                } else {
                    self.cfg.lat.remote2
                }
            }
            None => {
                l2s.write_misses += 1;
                let entry = self.dir.entry(line);
                let wt = self.kernel.write_transaction(entry, p);
                let inv = self.dir.record_write(line, p);
                debug_assert_eq!(inv, wt.invalidate, "directory and kernel disagree");
                self.invalidate_nodes(inv, line);
                self.fill_l2(p, addr, LineState::Modified);
                if wt.remote_owner {
                    if home == p {
                        self.cfg.lat.remote2
                    } else {
                        self.cfg.lat.remote3
                    }
                } else if home == p {
                    self.cfg.lat.local
                } else {
                    self.cfg.lat.remote2
                }
            }
        };
        if in_l1 {
            self.nodes[p].l1.set_state(addr, LineState::Modified);
        } else {
            l1s.write_misses += 1;
            self.nodes[p].l1.fill(addr, LineState::Modified);
        }
        service
    }

    /// Invalidates `line` in every node set in `mask` (a bitmask from
    /// [`Directory::record_write`]); nodes are independent, so bit order is
    /// immaterial.
    fn invalidate_nodes(&mut self, mask: u64, line: u64) {
        let mut m = mask;
        while m != 0 {
            let q = m.trailing_zeros() as usize;
            m &= m - 1;
            self.nodes[q].l2.invalidate(line);
            let mut a = line;
            while a < line + self.l2_line {
                self.nodes[q].l1.invalidate(a);
                a += self.l1_line;
            }
        }
    }

    fn downgrade(&mut self, owner: usize, line: u64) {
        self.nodes[owner].l2.set_state(line, LineState::Shared);
        let mut a = line;
        while a < line + self.l2_line {
            self.nodes[owner].l1.set_state(a, LineState::Shared);
            a += self.l1_line;
        }
    }

    /// Fills `p`'s L2 after a miss on `addr` and returns the miss's
    /// classification.
    fn fill_l2(&mut self, p: usize, addr: u64, state: LineState) -> MissKind {
        let (kind, evicted) = self.nodes[p].l2.fill(addr, state);
        if let Some((victim, _dirty)) = evicted {
            // Inclusion: the victim's L1 lines leave too; the directory
            // forgets this node (dirty victims write back at no charged cost).
            self.dir.record_drop(victim, p);
            let mut a = victim;
            while a < victim + self.l2_line {
                self.nodes[p].l1.evict_for_inclusion(a);
                a += self.l1_line;
            }
        }
        kind
    }

    /// The paper's Section 6 prefetcher: on an access to database data,
    /// fetch the next N primary-cache lines into L1 (stopping at the 8 KB
    /// buffer-block boundary), in the background (no processor stall).
    fn prefetch_from(&mut self, p: usize, addr: u64) {
        let base = self.nodes[p].l1.line_of(addr);
        for i in 1..=self.cfg.prefetch_data_lines as u64 {
            let pf = base + i * self.l1_line;
            if pf >> 13 != addr >> 13 {
                break;
            }
            self.prefetches_issued += 1;
            if self.nodes[p].l1.contains(pf) {
                continue;
            }
            if !self.nodes[p].l2.contains(pf) {
                let line = pf & self.l2_line_mask;
                let entry = self.dir.entry(line);
                if matches!(entry.owner, Some(o) if o != p) {
                    // Dirty elsewhere: the simple prefetcher skips it.
                    continue;
                }
                self.dir.record_read(line, p);
                self.fill_l2(p, pf, LineState::Shared);
            }
            // A skipped line was never filled, so it keeps its history for
            // the demand miss that follows.
            self.nodes[p].l1.fill(pf, LineState::Shared);
            self.prefetches_filled += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dss_shmem::SHARED_BASE;
    use dss_trace::{LockClass, LockToken, Tracer};

    fn machine() -> Machine {
        Machine::new(MachineConfig::baseline())
    }

    #[test]
    fn cold_miss_then_hit() {
        let t = Tracer::new(0);
        t.read(SHARED_BASE, 8, DataClass::Data);
        t.read(SHARED_BASE + 8, 8, DataClass::Data); // same L1 line
        t.read(SHARED_BASE + 64, 8, DataClass::Data); // new L2 line
        let stats = machine().run(&[t.take()]);
        assert_eq!(stats.l1.read_accesses, 3);
        assert_eq!(stats.l1.read_misses.total(), 2);
        assert_eq!(stats.l1.read_misses.get(DataClass::Data, MissKind::Cold), 2);
        assert_eq!(stats.l2.read_misses.total(), 2);
    }

    #[test]
    fn local_vs_remote_latency() {
        // SHARED_BASE's page has home node 0.
        let t0 = Tracer::new(0);
        t0.read(SHARED_BASE, 8, DataClass::Data);
        let t1 = Tracer::new(1);
        t1.read(SHARED_BASE + 8192 * 4, 8, DataClass::Data); // also home 0
        let stats = machine().run(&[t0.take(), t1.take()]);
        assert_eq!(stats.procs[0].mem_stall, 80, "local memory");
        assert_eq!(stats.procs[1].mem_stall, 249, "2-hop remote");
    }

    #[test]
    fn dirty_third_node_is_three_hops() {
        let addr = SHARED_BASE + 8192; // home node 1
        let tw = Tracer::new(0);
        tw.write(addr, 8, DataClass::Data);
        let tr = Tracer::new(2);
        tr.busy(10_000); // ensure the write happens first
        tr.read(addr, 8, DataClass::Data);
        let stats = machine().run(&[tw.take(), tr.take()]);
        assert_eq!(stats.procs[2].mem_stall, 351, "dirty in third node");
    }

    #[test]
    fn coherence_miss_after_remote_write() {
        let addr = SHARED_BASE;
        // Proc 0 reads, proc 1 writes (invalidating 0), proc 0 rereads.
        let t0 = Tracer::new(0);
        t0.read(addr, 8, DataClass::LockHash);
        t0.busy(100_000);
        t0.read(addr, 8, DataClass::LockHash);
        let t1 = Tracer::new(1);
        t1.busy(50_000);
        t1.write(addr, 8, DataClass::LockHash);
        let stats = machine().run(&[t0.take(), t1.take()]);
        assert_eq!(
            stats
                .l2
                .read_misses
                .get(DataClass::LockHash, MissKind::Coherence),
            1,
            "reread after invalidation is a coherence miss"
        );
    }

    #[test]
    fn conflict_misses_in_direct_mapped_l1() {
        let t = Tracer::new(0);
        // Two addresses 4 KB apart collide in the 4 KB direct-mapped L1 but
        // coexist in the 2-way L2.
        for _ in 0..4 {
            t.read(SHARED_BASE, 8, DataClass::PrivHeap);
            t.read(SHARED_BASE + 4096, 8, DataClass::PrivHeap);
        }
        let stats = machine().run(&[t.take()]);
        let conf = stats
            .l1
            .read_misses
            .get(DataClass::PrivHeap, MissKind::Conflict);
        assert_eq!(conf, 6, "all but the two cold misses conflict");
        assert_eq!(stats.l2.read_misses.total(), 2, "L2 holds both");
    }

    #[test]
    fn write_buffer_absorbs_writes_until_full() {
        let t = Tracer::new(0);
        for i in 0..16 {
            t.write(SHARED_BASE + i * 4096 * 31, 8, DataClass::PrivHeap);
        }
        let few = machine().run(&[t.take()]);
        // 16 writes fit the buffer: no memory stall, 1 cycle each.
        assert_eq!(few.procs[0].mem_stall, 0);
        assert_eq!(few.procs[0].busy, 16);

        let t = Tracer::new(0);
        for i in 0..40 {
            t.write(SHARED_BASE + i * 4096 * 31, 8, DataClass::PrivHeap);
        }
        let many = machine().run(&[t.take()]);
        assert!(many.procs[0].mem_stall > 0, "overflow stalls the processor");
    }

    #[test]
    fn read_waits_for_pending_write_to_same_line() {
        let t = Tracer::new(0);
        t.write(SHARED_BASE, 8, DataClass::Data);
        t.read(SHARED_BASE + 8, 8, DataClass::Data);
        let stats = machine().run(&[t.take()]);
        // The read waited for the buffered write to drain (then hit).
        assert!(stats.procs[0].mem_stall > 0);
        assert_eq!(stats.l1.read_misses.total(), 0, "line filled by the write");
    }

    #[test]
    fn contended_lock_spins_into_msync() {
        let tok = LockToken::new(SHARED_BASE + 64, LockClass::LockMgr);
        let t0 = Tracer::new(0);
        t0.lock_acquire(tok);
        t0.busy(5_000);
        t0.lock_release(tok);
        let t1 = Tracer::new(1);
        t1.lock_acquire(tok);
        t1.lock_release(tok);
        let stats = machine().run(&[t0.take(), t1.take()]);
        assert_eq!(stats.procs[0].msync, 0, "uncontended holder");
        assert!(stats.procs[1].msync >= 4_000, "waiter spins while held");
        // The spinning produced lock-word traffic in the stats.
        assert!(stats.l1.read_accesses > 0);
    }

    #[test]
    fn lock_transfer_causes_coherence_misses_on_lock_word() {
        let tok = LockToken::new(SHARED_BASE + 64, LockClass::LockMgr);
        // Two processors ping-pong the lock without overlapping.
        let t0 = Tracer::new(0);
        t0.lock_acquire(tok);
        t0.lock_release(tok);
        t0.busy(100_000);
        t0.lock_acquire(tok);
        t0.lock_release(tok);
        let t1 = Tracer::new(1);
        t1.busy(50_000);
        t1.lock_acquire(tok);
        t1.lock_release(tok);
        let stats = machine().run(&[t0.take(), t1.take()]);
        // Proc 0's second acquire finds its copy invalidated by proc 1.
        assert!(stats.l2.write_misses > 0 || stats.l2.read_misses.total() > 0);
        let meta_stall: u64 = stats.total(|p| p.stall_of(DataClass::LockMgrLock));
        assert!(meta_stall > 0, "lock RMW misses charge Metadata mem time");
    }

    #[test]
    #[should_panic(expected = "released by non-holder")]
    fn mismatched_release_panics() {
        let tok = LockToken::new(SHARED_BASE + 64, LockClass::BufMgr);
        let t = Tracer::new(0);
        t.lock_release(tok);
        machine().run(&[t.take()]);
    }

    #[test]
    fn warm_run_keeps_cache_contents() {
        let addr = SHARED_BASE;
        let make = || {
            let t = Tracer::new(0);
            for i in 0..64 {
                t.read(addr + i * 64, 8, DataClass::Data);
            }
            t.take()
        };
        let mut m = machine();
        let cold = m.run(&[make()]);
        assert_eq!(cold.l2.read_misses.total(), 64);
        let warm = m.run(&[make()]);
        assert_eq!(warm.l2.read_misses.total(), 0, "all lines still resident");
        assert!(warm.exec_cycles() < cold.exec_cycles());
    }

    #[test]
    fn prefetch_eliminates_sequential_data_misses() {
        let make = || {
            let t = Tracer::new(0);
            for i in 0..512 {
                t.read(SHARED_BASE + i * 16, 8, DataClass::Data); // sequential 8 KB
            }
            t.take()
        };
        let base = Machine::new(MachineConfig::baseline()).run(&[make()]);
        let pf = Machine::new(MachineConfig::baseline().with_data_prefetch(4)).run(&[make()]);
        assert!(pf.prefetches_issued > 0);
        assert!(
            pf.l1.read_misses.by_class(DataClass::Data)
                < base.l1.read_misses.by_class(DataClass::Data) / 2,
            "prefetching removes most sequential data misses ({} vs {})",
            pf.l1.read_misses.by_class(DataClass::Data),
            base.l1.read_misses.by_class(DataClass::Data)
        );
        assert!(pf.exec_cycles() < base.exec_cycles());
    }

    #[test]
    fn prefetch_stops_at_page_boundary() {
        let t = Tracer::new(0);
        // Read the last line of a page: no prefetch may cross into the next.
        t.read(SHARED_BASE + 8192 - 32, 8, DataClass::Data);
        let mut m = Machine::new(MachineConfig::baseline().with_data_prefetch(4));
        let stats = m.run(&[t.take()]);
        assert_eq!(stats.prefetches_issued, 0);
    }

    #[test]
    fn skipped_prefetch_leaves_the_line_unseen() {
        // Node 1 dirties the second L2 line of a page; node 0 then reads the
        // first with prefetching on. The prefetcher fills what it can and
        // skips the dirty line — which must still classify as cold when
        // node 0 finally demands it.
        let t1 = Tracer::new(1);
        t1.write(SHARED_BASE + 64, 8, DataClass::Data);
        let t0 = Tracer::new(0);
        t0.busy(10_000);
        t0.read(SHARED_BASE, 8, DataClass::Data);
        t0.read(SHARED_BASE + 64, 8, DataClass::Data);
        let mut m = Machine::new(MachineConfig::baseline().with_data_prefetch(4));
        let stats = m.run(&[t0.take(), t1.take()]);
        assert!(stats.prefetches_filled < stats.prefetches_issued, "skipped");
        let misses = |kind| stats.l1.read_misses.get(DataClass::Data, kind);
        assert_eq!((misses(MissKind::Cold), misses(MissKind::Conflict)), (2, 0));
    }

    #[test]
    fn busy_time_accumulates() {
        let t = Tracer::new(0);
        t.busy(100);
        t.read(SHARED_BASE, 8, DataClass::Data);
        let stats = machine().run(&[t.take()]);
        assert_eq!(stats.procs[0].busy, 101);
        assert_eq!(stats.procs[0].cycles, 101 + 80);
    }

    #[test]
    fn mesi_sole_reader_writes_silently() {
        let make = || {
            let t = Tracer::new(0);
            t.read(SHARED_BASE, 8, DataClass::PrivHeap);
            t.write(SHARED_BASE, 8, DataClass::PrivHeap);
            t.take()
        };
        let msi = Machine::new(MachineConfig::baseline()).run(&[make()]);
        let mesi = Machine::new(MachineConfig::baseline().with_protocol(crate::Protocol::Mesi))
            .run(&[make()]);
        // Under MSI the write upgrades through the directory; under MESI the
        // Exclusive line absorbs it without any L2 transaction.
        assert_eq!(msi.l2.write_accesses, 1);
        assert_eq!(mesi.l2.write_accesses, 0);
        assert!(mesi.exec_cycles() <= msi.exec_cycles());
    }

    #[test]
    fn mesi_second_reader_downgrades_clean_copy() {
        let addr = SHARED_BASE; // home node 0
        let t0 = Tracer::new(0);
        t0.read(addr, 8, DataClass::Data);
        let t1 = Tracer::new(1);
        t1.busy(10_000);
        t1.read(addr, 8, DataClass::Data);
        let stats = Machine::new(MachineConfig::baseline().with_protocol(crate::Protocol::Mesi))
            .run(&[t0.take(), t1.take()]);
        // The copy was Exclusive but clean: a 2-hop transfer, not 3-hop.
        assert_eq!(stats.procs[1].mem_stall, 249);
    }

    #[test]
    fn mesi_write_invalidates_exclusive_reader() {
        let addr = SHARED_BASE;
        let t0 = Tracer::new(0);
        t0.read(addr, 8, DataClass::Data);
        t0.busy(100_000);
        t0.read(addr, 8, DataClass::Data);
        let t1 = Tracer::new(1);
        t1.busy(50_000);
        t1.write(addr, 8, DataClass::Data);
        let stats = Machine::new(MachineConfig::baseline().with_protocol(crate::Protocol::Mesi))
            .run(&[t0.take(), t1.take()]);
        assert_eq!(
            stats
                .l2
                .read_misses
                .get(DataClass::Data, crate::MissKind::Coherence),
            1,
            "proc 0's exclusive copy must be invalidated by proc 1's write"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let make_traces = || {
            let mut out = Vec::new();
            for p in 0..4 {
                let t = Tracer::new(p);
                for i in 0..200 {
                    t.read(
                        SHARED_BASE + ((i * 37 + p as u64 * 11) % 4096) * 8,
                        8,
                        DataClass::Data,
                    );
                    t.busy((i % 7) as u32);
                    t.write(dss_shmem::private_base(p) + i * 16, 8, DataClass::PrivHeap);
                }
                out.push(t.take());
            }
            out
        };
        let a = Machine::new(MachineConfig::baseline()).run(&make_traces());
        let b = Machine::new(MachineConfig::baseline()).run(&make_traces());
        assert_eq!(a.exec_cycles(), b.exec_cycles());
        assert_eq!(a.l1.read_misses, b.l1.read_misses);
        assert_eq!(a.l2.read_misses, b.l2.read_misses);
    }

    /// A materialized-source wrapper with a configurable block size, so the
    /// streaming tests can exercise refills at awkward boundaries.
    struct Chopped<'a> {
        traces: &'a [Trace],
        block: usize,
    }

    struct ChoppedStream<'a> {
        trace: &'a Trace,
        pos: usize,
        block: usize,
    }

    impl dss_trace::EventStream for ChoppedStream<'_> {
        fn proc_id(&self) -> usize {
            self.trace.proc_id
        }

        fn next_block(&mut self, buf: &mut Vec<Event>) -> Result<usize, TraceError> {
            buf.clear();
            let n = (self.trace.events.len() - self.pos).min(self.block);
            buf.extend_from_slice(&self.trace.events[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    impl TraceSource for Chopped<'_> {
        fn nprocs(&self) -> usize {
            self.traces.len()
        }

        fn open(&self) -> Result<Vec<Box<dyn dss_trace::EventStream + '_>>, TraceError> {
            Ok(self
                .traces
                .iter()
                .map(|trace| {
                    Box::new(ChoppedStream {
                        trace,
                        pos: 0,
                        block: self.block,
                    }) as Box<dyn dss_trace::EventStream>
                })
                .collect())
        }
    }

    /// Contended traces: everyone hammers the same lock and lines, so the
    /// interleave exercises parked processors across block refills.
    #[expect(clippy::cast_possible_truncation, reason = "small test constants")]
    fn contended_traces(nprocs: usize) -> Vec<Trace> {
        let tok = LockToken::new(SHARED_BASE + 0x40, LockClass::LockMgr);
        (0..nprocs)
            .map(|p| {
                let t = Tracer::new(p);
                for i in 0..300u64 {
                    t.busy((p as u32 + 1) * (i as u32 % 5));
                    t.lock_acquire(tok);
                    t.read(SHARED_BASE + (i % 64) * 8, 8, DataClass::LockHash);
                    t.write(SHARED_BASE + (i % 64) * 8, 8, DataClass::LockHash);
                    t.lock_release(tok);
                    t.write(dss_shmem::private_base(p) + i * 24, 8, DataClass::PrivHeap);
                }
                t.take()
            })
            .collect()
    }

    #[test]
    fn run_source_matches_run_at_any_block_size() {
        let traces = contended_traces(4);
        let materialized = Machine::new(MachineConfig::baseline()).run(&traces);
        // The default materialized adapter…
        let streamed = Machine::new(MachineConfig::baseline())
            .run_source(&&traces[..])
            .expect("materialized source cannot fail");
        assert_eq!(streamed, materialized);
        // …and adversarial block sizes, including 1 (a refill per event) and
        // sizes that split lock-acquire retries across block boundaries.
        for block in [1, 2, 3, 7, 64, 100_000] {
            let streamed = Machine::new(MachineConfig::baseline())
                .run_source(&Chopped {
                    traces: &traces,
                    block,
                })
                .expect("in-memory source cannot fail");
            assert_eq!(streamed, materialized, "block size {block}");
        }
    }

    #[test]
    fn run_source_reuses_buffers_and_matches_warm_run() {
        // Warm-cache equivalence: the second run over the same machine must
        // match run()'s second run, proving cache/directory state carries
        // across streaming runs identically.
        let traces = contended_traces(2);
        let mut m_mat = Machine::new(MachineConfig::baseline());
        let mut m_str = Machine::new(MachineConfig::baseline());
        let first_mat = m_mat.run(&traces);
        let first_str = m_str.run_source(&&traces[..]).unwrap();
        assert_eq!(first_mat, first_str);
        let second_mat = m_mat.run(&traces);
        let second_str = m_str.run_source(&&traces[..]).unwrap();
        assert_eq!(second_mat, second_str);
        assert_ne!(first_mat, second_mat, "warm run differs from cold");
    }

    #[test]
    fn lone_trace_needs_no_arbitration() {
        // With no runner-up the run-ahead limit is never reached: the trace
        // replays in one stretch, refills included, exactly as the
        // one-event-at-a-time definition has it.
        let traces = contended_traces(1);
        let mut whole = machine();
        let mut chopped = machine();
        let stats = whole.run(&traces);
        let streamed = chopped
            .run_source(&Chopped {
                traces: &traces,
                block: 7,
            })
            .expect("in-memory source cannot fail");
        assert_eq!(stats, streamed);
        assert_eq!(stats, run_reference(&mut machine(), &traces));
    }

    #[test]
    fn mid_stream_error_hands_the_buffers_back() {
        /// Two processors' streams: one healthy block of busy time each, then
        /// a truncation.
        struct Broken;
        struct BrokenStream {
            proc_id: usize,
            served: bool,
        }
        impl dss_trace::EventStream for BrokenStream {
            fn proc_id(&self) -> usize {
                self.proc_id
            }
            fn next_block(&mut self, buf: &mut Vec<Event>) -> Result<usize, TraceError> {
                buf.clear();
                if std::mem::replace(&mut self.served, true) {
                    return Err(TraceError::Truncated {
                        offset: 42,
                        expected: "event record",
                        event: None,
                    });
                }
                buf.extend([Event::busy(5); 3]);
                Ok(3)
            }
        }
        impl TraceSource for Broken {
            fn nprocs(&self) -> usize {
                2
            }
            fn open(&self) -> Result<Vec<Box<dyn dss_trace::EventStream + '_>>, TraceError> {
                Ok((0..2)
                    .map(|proc_id| {
                        Box::new(BrokenStream {
                            proc_id,
                            served: false,
                        }) as Box<dyn dss_trace::EventStream>
                    })
                    .collect())
            }
        }
        let mut m = machine();
        let err = m.run_source(&Broken).map(|_| ()).unwrap_err();
        assert_eq!(err.kind(), "truncated");
        assert_eq!(
            (m.scratch.len(), m.blocks.len()),
            (2, 2),
            "run state and block buffers are back"
        );
        // The machine is still usable for a fresh run afterwards.
        let traces = contended_traces(2);
        assert_eq!(
            Machine::new(MachineConfig::baseline()).run(&traces),
            m.run(&traces),
            "post-error machine had cold caches (only busy time was replayed)"
        );
    }

    /// The definition run-ahead scheduling must equal: scan the unfinished
    /// processors for the smallest `(clock, index)` and step it exactly one
    /// event, over and over.
    fn run_reference(m: &mut Machine, traces: &[Trace]) -> SimStats {
        m.locks.clear();
        let mut procs: Vec<ProcScratch> = traces
            .iter()
            .map(|t| {
                let mut rp = ProcScratch::default();
                rp.reset(t.proc_id);
                rp
            })
            .collect();
        let mut l1s = LevelStats::default();
        let mut l2s = LevelStats::default();
        while let Some(i) = (0..traces.len())
            .filter(|&i| procs[i].pos < traces[i].events.len())
            .min_by_key(|&i| (procs[i].clock, i))
        {
            let node = procs[i].node;
            m.step(node, &traces[i].events, &mut procs[i], &mut l1s, &mut l2s);
        }
        let mut out = SimStats::default();
        m.collect(&mut procs, l1s, l2s, &mut out);
        out
    }

    /// Every node's resident lines, L1 then L2.
    fn resident(m: &Machine) -> Vec<Vec<(u64, LineState)>> {
        m.nodes
            .iter()
            .flat_map(|n| [n.l1.resident_lines(), n.l2.resident_lines()])
            .collect()
    }

    mod scheduler {
        use super::*;
        use proptest::prelude::*;

        #[derive(Clone, Debug)]
        enum Op {
            /// Busy cycles from a tiny set, so clocks tie constantly.
            Busy(u32),
            /// A reference to one of a few lines every processor shares.
            Shared { slot: u8, write: bool },
            /// A reference to the processor's own heap.
            Private { slot: u8, write: bool },
            /// A critical section on one of two contended locks.
            Critical { lock: bool, hold: u8, slot: u8 },
        }

        fn op() -> impl Strategy<Value = Op> {
            prop_oneof![
                3 => (0u8..3).prop_map(|k| Op::Busy(if k < 2 { 1 } else { 7 })),
                3 => (0u8..12, any::<bool>()).prop_map(|(slot, write)| Op::Shared { slot, write }),
                2 => (any::<u8>(), any::<bool>()).prop_map(|(slot, write)| Op::Private { slot, write }),
                2 => (any::<bool>(), 0u8..40, 0u8..12)
                    .prop_map(|(lock, hold, slot)| Op::Critical { lock, hold, slot }),
            ]
        }

        fn trace(proc: usize, ops: &[Op]) -> Trace {
            let t = Tracer::new(proc);
            for op in ops {
                match *op {
                    Op::Busy(cycles) => t.busy(cycles),
                    Op::Shared { slot, write: false } => {
                        t.read(SHARED_BASE + 4096 + slot as u64 * 32, 8, DataClass::Data)
                    }
                    Op::Shared { slot, write: true } => {
                        t.write(SHARED_BASE + 4096 + slot as u64 * 32, 8, DataClass::Data)
                    }
                    Op::Private { slot, write } => {
                        // 4 KB apart: collides in the direct-mapped L1.
                        let addr = dss_shmem::private_base(proc) + (slot as u64 % 24) * 4096;
                        if write {
                            t.write(addr, 8, DataClass::PrivHeap);
                        } else {
                            t.read(addr, 8, DataClass::PrivHeap);
                        }
                    }
                    Op::Critical { lock, hold, slot } => {
                        let tok = LockToken::new(
                            SHARED_BASE + 64 * (1 + lock as u64),
                            if lock {
                                LockClass::LockMgr
                            } else {
                                LockClass::BufMgr
                            },
                        );
                        t.lock_acquire(tok);
                        t.busy(hold as u32 * 10);
                        t.write(
                            SHARED_BASE + 4096 + slot as u64 * 32,
                            8,
                            DataClass::LockHash,
                        );
                        t.lock_release(tok);
                    }
                }
            }
            t.take()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Run-ahead scheduling replays exactly the one-event-at-a-time
            /// interleave — same statistics, same cache contents — cold and
            /// warm, whole traces and blocks that end mid-spin.
            #[test]
            fn run_ahead_equals_one_event_at_a_time(
                per_proc in proptest::collection::vec(
                    proptest::collection::vec(op(), 0..120), 2..9),
                lockstep in any::<bool>(),
                mesi in any::<bool>(),
            ) {
                // Lockstep: every processor replays processor 0's ops, so
                // every shared-free stretch is one long clock tie.
                let traces: Vec<Trace> = per_proc
                    .iter()
                    .enumerate()
                    .map(|(p, ops)| trace(p, if lockstep { &per_proc[0] } else { ops }))
                    .collect();
                let mut cfg = MachineConfig::baseline().with_processors(traces.len());
                if mesi {
                    cfg = cfg.with_protocol(crate::Protocol::Mesi);
                }
                let mut reference = Machine::new(cfg.clone());
                let mut whole = Machine::new(cfg.clone());
                let mut chopped: Vec<(usize, Machine)> = [1, 3, 64]
                    .into_iter()
                    .map(|block| (block, Machine::new(cfg.clone())))
                    .collect();
                for pass in ["cold", "warm"] {
                    let expected = run_reference(&mut reference, &traces);
                    let lines = resident(&reference);
                    prop_assert_eq!(&whole.run(&traces), &expected, "{} whole", pass);
                    prop_assert_eq!(&resident(&whole), &lines, "{} whole", pass);
                    for (block, m) in &mut chopped {
                        let got = m
                            .run_source(&Chopped { traces: &traces, block: *block })
                            .expect("in-memory source cannot fail");
                        prop_assert_eq!(&got, &expected, "{} block {}", pass, block);
                        prop_assert_eq!(&resident(m), &lines, "{} block {}", pass, block);
                    }
                    reference.check_invariants();
                }
            }
        }
    }
}
