//! The Lock Management Module of the emulated Postgres95.
//!
//! Postgres95 grants **data locks** (protecting database data, as opposed to
//! the metalock spinlocks protecting Postgres95's own structures) through a
//! shared-memory module containing two hash tables — the **Lock hash**
//! (lock tag → lock state) and the **Xid hash** (transaction × lock →
//! per-holder state) — all guarded by a single spinlock, **`LockMgrLock`**,
//! which the HPCA'97 paper calls *LockSLock* and identifies as a major source
//! of coherence misses in Index queries: it "is continuously accessed by all
//! processors".
//!
//! Data locks are multi-mode (read/write) and conceptually multi-level
//! (relation, page, tuple), but Postgres95 only fully implements the relation
//! level — a limitation the paper calls out and that is harmless for the
//! read-only queries studied. We model exactly that: [`LockMode`] with a
//! conflict matrix, relation-granularity [`LockTag`]s, and hash-table traffic
//! emitted for every acquire/release.
//!
//! # Example
//!
//! ```
//! use dss_lockmgr::{LockMgr, LockMode, LockResult, Xid};
//! use dss_shmem::AddressSpace;
//! use dss_trace::Tracer;
//!
//! let mut space = AddressSpace::new();
//! let mut mgr = LockMgr::new(&mut space, 256);
//! let t = Tracer::new(0);
//!
//! assert_eq!(mgr.acquire(Xid(1), 7, LockMode::Read, &t), LockResult::Granted);
//! assert_eq!(mgr.acquire(Xid(2), 7, LockMode::Read, &t), LockResult::Granted);
//! assert_eq!(mgr.acquire(Xid(3), 7, LockMode::Write, &t), LockResult::WouldBlock);
//! mgr.release_all(Xid(1), &t);
//! mgr.release_all(Xid(2), &t);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]
#![expect(clippy::expect_used, reason = "not yet converted to `Result` paths")]

use std::collections::BTreeMap;

use dss_shmem::AddressSpace;
use dss_trace::{CostModel, DataClass, LockClass, LockToken, Tracer};

/// Modeled size of a Lock-hash entry (tag, grant counts, waiter mask).
pub const LOCK_ENTRY_SIZE: u64 = 64;

/// Modeled size of an Xid-hash entry (xid, tag, per-mode counts).
pub const XID_ENTRY_SIZE: u64 = 32;

/// A transaction identifier; each query execution runs as one transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Xid(pub u32);

/// Data-lock modes. Postgres95's lock types are read and write; the conflict
/// matrix allows shared readers and exclusive writers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LockMode {
    /// Shared read lock.
    Read,
    /// Exclusive write lock.
    Write,
}

impl LockMode {
    /// Whether a holder in `self` mode conflicts with a request in `other`.
    pub fn conflicts_with(self, other: LockMode) -> bool {
        !matches!((self, other), (LockMode::Read, LockMode::Read))
    }

    fn index(self) -> usize {
        match self {
            LockMode::Read => 0,
            LockMode::Write => 1,
        }
    }
}

/// Outcome of a lock request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockResult {
    /// The lock was granted.
    Granted,
    /// A conflicting holder exists; the caller would have to wait. The
    /// read-only DSS queries never hit this case (the paper: datalock
    /// synchronization time is negligible because there is no contention).
    WouldBlock,
}

/// A lock tag: Postgres95 only fully implements relation-level locking.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LockTag {
    /// The locked relation.
    pub rel: u32,
}

#[derive(Clone, Debug)]
struct LockEntry {
    /// Granted holds per mode (read, write), across all transactions.
    granted: [u32; 2],
    /// Shared-memory slot of this entry.
    slot: u32,
}

#[derive(Clone, Debug)]
struct XidEntry {
    /// Holds per mode by this transaction on this tag.
    held: [u32; 2],
    /// Shared-memory slot of this entry.
    slot: u32,
}

/// The shared lock manager.
///
/// Every operation takes `LockMgrLock`, probes the Lock hash, and updates the
/// Xid hash, emitting classified references throughout — reproducing the
/// metadata traffic that dominates Index queries in the paper.
#[derive(Debug)]
pub struct LockMgr {
    lock: LockToken,
    nbuckets: u64,
    lock_buckets_base: u64,
    lock_entries_base: u64,
    xid_buckets_base: u64,
    xid_entries_base: u64,
    cost: CostModel,
    locks: BTreeMap<LockTag, LockEntry>,
    xids: BTreeMap<(Xid, LockTag), XidEntry>,
    lock_slot_free: Vec<u32>,
    xid_slot_free: Vec<u32>,
    next_lock_slot: u32,
    next_xid_slot: u32,
    capacity: u32,
    /// Running count of acquire calls (for tests and reports).
    acquires: u64,
}

impl LockMgr {
    /// Creates a lock manager with space for `capacity` concurrent lock and
    /// per-transaction entries, mapping its regions into `space`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(space: &mut AddressSpace, capacity: u32) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        let nbuckets = (2 * capacity as u64).next_power_of_two();
        let lock_addr = space.map_region("LockMgrLock", DataClass::LockMgrLock, 64, 64);
        let lock_buckets_base =
            space.map_region("lock hash buckets", DataClass::LockHash, nbuckets * 8, 64);
        let lock_entries_base = space.map_region(
            "lock hash entries",
            DataClass::LockHash,
            capacity as u64 * LOCK_ENTRY_SIZE,
            64,
        );
        let xid_buckets_base =
            space.map_region("xid hash buckets", DataClass::XidHash, nbuckets * 8, 64);
        let xid_entries_base = space.map_region(
            "xid hash entries",
            DataClass::XidHash,
            capacity as u64 * XID_ENTRY_SIZE,
            64,
        );
        LockMgr {
            lock: LockToken::new(lock_addr, LockClass::LockMgr),
            nbuckets,
            lock_buckets_base,
            lock_entries_base,
            xid_buckets_base,
            xid_entries_base,
            cost: CostModel::default(),
            locks: BTreeMap::new(),
            xids: BTreeMap::new(),
            lock_slot_free: Vec::new(),
            xid_slot_free: Vec::new(),
            next_lock_slot: 0,
            next_xid_slot: 0,
            capacity,
            acquires: 0,
        }
    }

    /// The `LockMgrLock` spinlock token.
    pub fn lock_token(&self) -> LockToken {
        self.lock
    }

    /// Number of acquire calls so far.
    pub fn acquire_count(&self) -> u64 {
        self.acquires
    }

    /// Requests a `mode` lock on relation `rel` for transaction `xid`.
    ///
    /// Re-acquisition by the same transaction is always granted (Postgres95
    /// holds locks until transaction end and counts re-grants). Returns
    /// [`LockResult::WouldBlock`] when a *different* transaction holds a
    /// conflicting mode; no wait queue is modeled because the paper's
    /// read-only queries never contend on data locks.
    pub fn acquire(&mut self, xid: Xid, rel: u32, mode: LockMode, t: &Tracer) -> LockResult {
        self.acquires += 1;
        let tag = LockTag { rel };
        t.lock_acquire(self.lock);
        t.busy(self.cost.lock_call);
        self.probe_lock_bucket(tag, t);
        // Conflict check against other transactions' holds.
        let own = self.xids.get(&(xid, tag)).map(|e| e.held).unwrap_or([0, 0]);
        let granted = self.locks.get(&tag).map(|e| e.granted).unwrap_or([0, 0]);
        let other = [granted[0] - own[0], granted[1] - own[1]];
        let conflict = match mode {
            LockMode::Read => other[LockMode::Write.index()] > 0,
            LockMode::Write => other[0] + other[1] > 0,
        };
        if conflict && own == [0, 0] {
            t.lock_release(self.lock);
            return LockResult::WouldBlock;
        }
        // Create or update the lock entry.
        let (lock_slot, fresh) = match self.locks.get_mut(&tag) {
            Some(e) => {
                e.granted[mode.index()] += 1;
                (e.slot, false)
            }
            None => {
                let slot = self.take_slot(true);
                let mut granted = [0, 0];
                granted[mode.index()] = 1;
                self.locks.insert(tag, LockEntry { granted, slot });
                (slot, true)
            }
        };
        let entry_addr = self.lock_entries_base + lock_slot as u64 * LOCK_ENTRY_SIZE;
        if fresh {
            // Initialize tag + counters.
            t.write(entry_addr, 24, DataClass::LockHash);
            t.write(
                self.lock_buckets_base + (self.bucket_of_tag(tag) as u64) * 8,
                8,
                DataClass::LockHash,
            );
        } else {
            t.write(entry_addr + 8, 8, DataClass::LockHash);
        }
        // Probe and update the Xid hash.
        self.probe_xid_bucket(xid, tag, t);
        match self.xids.get_mut(&(xid, tag)) {
            Some(e) => {
                e.held[mode.index()] += 1;
                let addr = self.xid_entries_base + e.slot as u64 * XID_ENTRY_SIZE;
                t.write(addr + 8, 8, DataClass::XidHash);
            }
            None => {
                let slot = self.take_slot(false);
                let mut held = [0, 0];
                held[mode.index()] = 1;
                self.xids.insert((xid, tag), XidEntry { held, slot });
                let addr = self.xid_entries_base + slot as u64 * XID_ENTRY_SIZE;
                t.write(addr, 24, DataClass::XidHash);
                t.write(
                    self.xid_buckets_base + (self.bucket_of_xid(xid, tag) as u64) * 8,
                    8,
                    DataClass::XidHash,
                );
            }
        }
        t.lock_release(self.lock);
        LockResult::Granted
    }

    /// Releases one `mode` hold on `rel` by `xid`.
    ///
    /// # Panics
    ///
    /// Panics if the transaction does not hold such a lock.
    pub fn release(&mut self, xid: Xid, rel: u32, mode: LockMode, t: &Tracer) {
        let tag = LockTag { rel };
        t.lock_acquire(self.lock);
        t.busy(self.cost.lock_call);
        self.probe_lock_bucket(tag, t);
        self.probe_xid_bucket(xid, tag, t);
        let xe = self
            .xids
            .get_mut(&(xid, tag))
            .expect("release of unheld lock");
        assert!(xe.held[mode.index()] > 0, "release of unheld mode");
        xe.held[mode.index()] -= 1;
        let xe_addr = self.xid_entries_base + xe.slot as u64 * XID_ENTRY_SIZE;
        t.write(xe_addr + 8, 8, DataClass::XidHash);
        let xe_empty = xe.held == [0, 0];
        let xe_slot = xe.slot;
        if xe_empty {
            self.xids.remove(&(xid, tag));
            self.xid_slot_free.push(xe_slot);
        }
        let le = self.locks.get_mut(&tag).expect("lock entry missing");
        le.granted[mode.index()] -= 1;
        let le_addr = self.lock_entries_base + le.slot as u64 * LOCK_ENTRY_SIZE;
        t.write(le_addr + 8, 8, DataClass::LockHash);
        let le_empty = le.granted == [0, 0];
        let le_slot = le.slot;
        if le_empty {
            self.locks.remove(&tag);
            self.lock_slot_free.push(le_slot);
            t.write(
                self.lock_buckets_base + (self.bucket_of_tag(tag) as u64) * 8,
                8,
                DataClass::LockHash,
            );
        }
        t.lock_release(self.lock);
    }

    /// Releases every hold of transaction `xid` (Postgres95's
    /// `LockReleaseAll`, run at transaction end).
    ///
    /// Release order is deterministic *structurally*: the xid table is a
    /// `BTreeMap` keyed `(Xid, LockTag)`, so ranging over `xid` yields tags
    /// in sorted order — the trace (and therefore the simulation) stays a
    /// pure function of the workload without a collect-and-sort step whose
    /// omission nothing would catch. The lint gate pins the structure: a
    /// `HashMap` iterated here is a `clippy::disallowed_methods` error.
    pub fn release_all(&mut self, xid: Xid, t: &Tracer) {
        let mine: Vec<(LockTag, [u32; 2])> = self
            .xids
            .range((xid, LockTag { rel: u32::MIN })..=(xid, LockTag { rel: u32::MAX }))
            .map(|((_, tag), e)| (*tag, e.held))
            .collect();
        for (tag, held) in mine {
            for _ in 0..held[0] {
                self.release(xid, tag.rel, LockMode::Read, t);
            }
            for _ in 0..held[1] {
                self.release(xid, tag.rel, LockMode::Write, t);
            }
        }
    }

    /// Number of modes currently granted on `rel` (for tests).
    pub fn granted(&self, rel: u32) -> [u32; 2] {
        self.locks
            .get(&LockTag { rel })
            .map(|e| e.granted)
            .unwrap_or([0, 0])
    }

    /// Whether `xid` currently holds any lock.
    pub fn holds_any(&self, xid: Xid) -> bool {
        self.xids
            .range((xid, LockTag { rel: u32::MIN })..=(xid, LockTag { rel: u32::MAX }))
            .next()
            .is_some()
    }

    fn take_slot(&mut self, lock_table: bool) -> u32 {
        let (free, next) = if lock_table {
            (&mut self.lock_slot_free, &mut self.next_lock_slot)
        } else {
            (&mut self.xid_slot_free, &mut self.next_xid_slot)
        };
        if let Some(s) = free.pop() {
            return s;
        }
        let s = *next;
        assert!(s < self.capacity, "lock table exhausted");
        *next += 1;
        s
    }

    fn probe_lock_bucket(&self, tag: LockTag, t: &Tracer) {
        let bucket = self.bucket_of_tag(tag);
        t.read(
            self.lock_buckets_base + bucket as u64 * 8,
            8,
            DataClass::LockHash,
        );
        if let Some(e) = self.locks.get(&tag) {
            t.read(
                self.lock_entries_base + e.slot as u64 * LOCK_ENTRY_SIZE,
                16,
                DataClass::LockHash,
            );
        }
    }

    fn probe_xid_bucket(&self, xid: Xid, tag: LockTag, t: &Tracer) {
        let bucket = self.bucket_of_xid(xid, tag);
        t.read(
            self.xid_buckets_base + bucket as u64 * 8,
            8,
            DataClass::XidHash,
        );
        if let Some(e) = self.xids.get(&(xid, tag)) {
            t.read(
                self.xid_entries_base + e.slot as u64 * XID_ENTRY_SIZE,
                16,
                DataClass::XidHash,
            );
        }
    }

    fn bucket_of_tag(&self, tag: LockTag) -> usize {
        ((tag.rel as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) % self.nbuckets) as usize
    }

    fn bucket_of_xid(&self, xid: Xid, tag: LockTag) -> usize {
        let h = (xid.0 as u64)
            .wrapping_mul(0xc2b2_ae3d_27d4_eb4f)
            .wrapping_add((tag.rel as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        (h % self.nbuckets) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dss_trace::{Event, EventKind, TraceStats};

    fn mgr() -> LockMgr {
        LockMgr::new(&mut AddressSpace::new(), 64)
    }

    #[test]
    fn conflict_matrix() {
        assert!(!LockMode::Read.conflicts_with(LockMode::Read));
        assert!(LockMode::Read.conflicts_with(LockMode::Write));
        assert!(LockMode::Write.conflicts_with(LockMode::Read));
        assert!(LockMode::Write.conflicts_with(LockMode::Write));
    }

    #[test]
    fn shared_readers_coexist() {
        let mut m = mgr();
        let t = Tracer::disabled();
        assert_eq!(
            m.acquire(Xid(1), 5, LockMode::Read, &t),
            LockResult::Granted
        );
        assert_eq!(
            m.acquire(Xid(2), 5, LockMode::Read, &t),
            LockResult::Granted
        );
        assert_eq!(m.granted(5), [2, 0]);
    }

    #[test]
    fn writer_blocks_on_readers_and_vice_versa() {
        let mut m = mgr();
        let t = Tracer::disabled();
        m.acquire(Xid(1), 5, LockMode::Read, &t);
        assert_eq!(
            m.acquire(Xid(2), 5, LockMode::Write, &t),
            LockResult::WouldBlock
        );
        m.release_all(Xid(1), &t);
        assert_eq!(
            m.acquire(Xid(2), 5, LockMode::Write, &t),
            LockResult::Granted
        );
        assert_eq!(
            m.acquire(Xid(3), 5, LockMode::Read, &t),
            LockResult::WouldBlock
        );
    }

    #[test]
    fn reacquisition_by_holder_is_granted() {
        let mut m = mgr();
        let t = Tracer::disabled();
        assert_eq!(
            m.acquire(Xid(1), 5, LockMode::Write, &t),
            LockResult::Granted
        );
        assert_eq!(
            m.acquire(Xid(1), 5, LockMode::Write, &t),
            LockResult::Granted
        );
        assert_eq!(m.granted(5), [0, 2]);
        m.release(Xid(1), 5, LockMode::Write, &t);
        assert_eq!(m.granted(5), [0, 1]);
    }

    #[test]
    fn release_all_trace_is_independent_of_acquisition_order() {
        // Regression for the hash-iteration leak (PR 9) that motivated the
        // BTreeMap tables: release_all's trace events must be a pure
        // function of the *set* of holds, never of hash-bucket placement.
        // Slot addresses legitimately depend on acquisition order (take_slot
        // hands them out as holds arrive), so across orders we compare the
        // event *shape*; across identical runs the trace must be bit-equal.
        fn release_events(rels: &[u32]) -> Vec<Event> {
            let mut m = mgr();
            let t = Tracer::new(0);
            for &rel in rels {
                m.acquire(Xid(7), rel, LockMode::Read, &t);
            }
            let _ = t.take();
            m.release_all(Xid(7), &t);
            std::mem::take(&mut t.take().events)
        }
        fn shape(events: &[Event]) -> Vec<String> {
            events
                .iter()
                .map(|e| match e.kind() {
                    EventKind::Ref(r) => {
                        format!("ref {:?} size={} write={}", r.class, r.size, r.write)
                    }
                    EventKind::Busy(c) => format!("busy {c}"),
                    EventKind::LockAcquire(tok) => format!("acq {:?}", tok.class),
                    EventKind::LockRelease(tok) => format!("rel {:?}", tok.class),
                })
                .collect()
        }
        let rels: [u32; 6] = [9, 2, 40, 17, 5, 33];
        let reversed: Vec<u32> = rels.iter().rev().copied().collect();
        let forward = release_events(&rels);
        let forward_again = release_events(&rels);
        let backward = release_events(&reversed);
        assert!(!forward.is_empty(), "release trace");
        assert_eq!(
            forward, forward_again,
            "release_all trace must be bit-identical across identical runs"
        );
        assert_eq!(
            shape(&forward),
            shape(&backward),
            "release_all event shape must not depend on acquisition order"
        );
    }

    #[test]
    fn release_all_clears_everything() {
        let mut m = mgr();
        let t = Tracer::disabled();
        m.acquire(Xid(1), 5, LockMode::Read, &t);
        m.acquire(Xid(1), 6, LockMode::Read, &t);
        m.acquire(Xid(1), 6, LockMode::Read, &t);
        assert!(m.holds_any(Xid(1)));
        m.release_all(Xid(1), &t);
        assert!(!m.holds_any(Xid(1)));
        assert_eq!(m.granted(5), [0, 0]);
        assert_eq!(m.granted(6), [0, 0]);
    }

    #[test]
    fn acquire_emits_lockslock_and_hash_traffic() {
        let mut m = mgr();
        let t = Tracer::new(0);
        m.acquire(Xid(1), 5, LockMode::Read, &t);
        let stats = TraceStats::from_trace(&t.take());
        assert_eq!(stats.lock_acquires, 1, "one LockMgrLock critical section");
        assert!(stats.reads(DataClass::LockHash) >= 1);
        assert!(stats.writes(DataClass::LockHash) >= 1);
        assert!(stats.writes(DataClass::XidHash) >= 1);
    }

    #[test]
    fn would_block_releases_spinlock() {
        let mut m = mgr();
        let setup = Tracer::disabled();
        m.acquire(Xid(1), 5, LockMode::Write, &setup);
        let t = Tracer::new(0);
        assert_eq!(
            m.acquire(Xid(2), 5, LockMode::Read, &t),
            LockResult::WouldBlock
        );
        let stats = TraceStats::from_trace(&t.take());
        assert_eq!(stats.lock_acquires, 1);
        assert_eq!(stats.lock_releases, 1);
    }

    #[test]
    fn slots_are_reused_after_release() {
        let mut m = mgr();
        let t = Tracer::disabled();
        m.acquire(Xid(1), 5, LockMode::Read, &t);
        m.release_all(Xid(1), &t);
        m.acquire(Xid(2), 6, LockMode::Read, &t);
        // Slot 0 freed by the first release must be reused by the second
        // acquire, keeping the entry footprint tiny as the paper observes.
        assert_eq!(m.next_lock_slot, 1);
        assert_eq!(m.next_xid_slot, 1);
        m.release_all(Xid(2), &t);
    }

    #[test]
    #[should_panic(expected = "release of unheld")]
    fn release_without_hold_panics() {
        let mut m = mgr();
        m.release(Xid(1), 5, LockMode::Read, &Tracer::disabled());
    }

    #[test]
    fn distinct_relations_are_independent() {
        let mut m = mgr();
        let t = Tracer::disabled();
        m.acquire(Xid(1), 5, LockMode::Write, &t);
        assert_eq!(
            m.acquire(Xid(2), 6, LockMode::Write, &t),
            LockResult::Granted
        );
    }
}
