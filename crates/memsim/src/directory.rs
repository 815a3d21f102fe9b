//! The full-map directory and NUMA home assignment.
//!
//! Directory state lives in a paged flat store indexed by line offset from
//! the emulated segment bases ([`crate::paged::PagedMap`]), not a
//! `HashMap<u64, DirEntry>`: every transaction on the simulator's miss path
//! is one indexed load or store. Invalidation targets are returned as a node
//! bitmask rather than an allocated `Vec`, keeping the coherence path
//! allocation-free.

#![deny(clippy::disallowed_types, clippy::cast_possible_truncation)]
#![deny(clippy::panic, clippy::unreachable)]

use dss_shmem::{segment_of, Segment, MAX_PROCS};

use crate::paged::PagedMap;
use crate::protocol;

/// Directory entry for one (L2-granularity) memory line.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct DirEntry {
    /// Bitmask of sharers.
    pub sharers: u64,
    /// Node holding the line Modified, if any.
    pub owner: Option<usize>,
}

/// Packed stored form of one entry, 4 bytes: one sharer bit per processor
/// (so [`MAX_PROCS`] bounds the mask's width), the owner as `owner_plus1` to
/// avoid an `Option` discriminant, and `touched`, which keeps
/// [`Directory::len`]'s "lines ever recorded" count exact even after a
/// [`Directory::record_drop`] returns an entry to its default value.
/// [`DirEntry`] and the protocol kernel stay `u64`-wide; only this stored
/// form is narrow.
#[derive(Clone, Copy, Debug, Default)]
struct DirSlot {
    sharers: u16,
    owner_plus1: u8,
    touched: bool,
}

const _: () = assert!(size_of::<DirSlot>() == 4);
const _: () = assert!(MAX_PROCS <= u16::BITS as usize);

impl DirSlot {
    #[inline]
    fn owner(&self) -> Option<usize> {
        self.owner_plus1.checked_sub(1).map(usize::from)
    }

    /// The one widening path from the stored form to a [`DirEntry`].
    #[inline]
    fn entry(&self) -> DirEntry {
        DirEntry {
            sharers: u64::from(self.sharers),
            owner: self.owner(),
        }
    }

    /// The one narrowing path. Nodes are below `nprocs ≤ MAX_PROCS`
    /// ([`crate::MachineConfig::validate`]), so nothing is lost; a wider mask
    /// fails the debug assertion, and a release build records every node as
    /// a sharer rather than dropping one.
    #[expect(clippy::cast_possible_truncation, reason = "node < MAX_PROCS = 16")]
    #[inline]
    fn store(&mut self, e: DirEntry) {
        let sharers = u16::try_from(e.sharers);
        debug_assert!(
            sharers.is_ok(),
            "sharer mask {:#x} past MAX_PROCS",
            e.sharers
        );
        self.sharers = sharers.unwrap_or(u16::MAX);
        self.owner_plus1 = match e.owner {
            Some(node) => node as u8 + 1,
            None => 0,
        };
    }
}

/// A full-map directory over the lines actually touched.
#[derive(Clone, Debug)]
pub struct Directory {
    slots: PagedMap<DirSlot>,
    touched: u64,
}

impl Default for Directory {
    fn default() -> Self {
        Directory::new()
    }
}

impl Directory {
    /// Creates an empty directory at the finest meaningful granularity
    /// (16-byte lines — every valid configuration's lines are multiples).
    pub fn new() -> Self {
        Directory::with_line_size(16)
    }

    /// Creates an empty directory whose lines are `line` bytes, so entries
    /// pack densely for that line size.
    ///
    /// # Panics
    ///
    /// Panics if `line` is not a power of two.
    pub fn with_line_size(line: u64) -> Self {
        assert!(line.is_power_of_two(), "line size must be a power of two");
        Directory {
            slots: PagedMap::new(line.trailing_zeros()),
            touched: 0,
        }
    }

    /// The slot for `line`, created (and counted) on first touch.
    #[inline]
    fn slot_mut(&mut self, line: u64) -> &mut DirSlot {
        let s = self.slots.get_mut(line);
        if !s.touched {
            s.touched = true;
            self.touched += 1;
        }
        s
    }

    /// The entry for `line` (default: uncached).
    #[inline]
    pub fn entry(&self, line: u64) -> DirEntry {
        self.slots.get(line).entry()
    }

    /// Records a read by `node`: adds it to the sharers and clears a dirty
    /// owner (who is downgraded to sharer by the caller). The transition
    /// itself is [`crate::protocol::dir_read`].
    pub fn record_read(&mut self, line: u64, node: usize) {
        let e = self.slot_mut(line);
        e.store(protocol::dir_read(e.entry(), node));
    }

    /// Records a write by `node`: returns the bitmask of nodes whose copies
    /// must be invalidated; the entry becomes exclusively owned. The
    /// transition itself is [`crate::protocol::dir_write`].
    pub fn record_write(&mut self, line: u64, node: usize) -> u64 {
        let e = self.slot_mut(line);
        let (next, invalidate) = protocol::dir_write(e.entry(), node);
        e.store(next);
        invalidate
    }

    /// Records an exclusive-clean installation by `node` (MESI): the node
    /// becomes owner without any invalidations (the caller has verified the
    /// line was uncached). The transition itself is
    /// [`crate::protocol::dir_exclusive`].
    pub fn record_exclusive(&mut self, line: u64, node: usize) {
        let e = self.slot_mut(line);
        debug_assert_eq!(
            (e.sharers, e.owner()),
            (0, None),
            "exclusive grant to a cached line"
        );
        e.store(protocol::dir_exclusive(e.entry(), node));
    }

    /// Records that `node` dropped the line (eviction or invalidation). The
    /// transition itself is [`crate::protocol::dir_drop`].
    pub fn record_drop(&mut self, line: u64, node: usize) {
        if let Some(e) = self.slots.peek_mut(line) {
            e.store(protocol::dir_drop(e.entry(), node));
        }
    }

    /// Visits every line that has ever held directory state with its current
    /// entry, for post-run invariant sweeps. Cost is proportional to the
    /// directory's allocated pages, not the address space.
    pub fn for_each_entry(&self, mut f: impl FnMut(u64, DirEntry)) {
        self.slots.for_each(|line, s| {
            if s.touched {
                f(line, s.entry());
            }
        });
    }

    /// Overwrites the sharer mask of `line` without any protocol action —
    /// deliberately desynchronizing the directory from the caches. Exists so
    /// the coherence invariant checker's negative tests can prove a corrupted
    /// sharer mask is detected; never call it from simulation code.
    ///
    /// # Panics
    ///
    /// Panics if `sharers` names a node at or above [`MAX_PROCS`]: the
    /// stored mask has no bit for it.
    pub fn corrupt_sharers(&mut self, line: u64, sharers: u64) {
        assert!(
            sharers >> MAX_PROCS == 0,
            "sharer mask {sharers:#x} names a node at or above MAX_PROCS = {MAX_PROCS}"
        );
        let s = self.slot_mut(line);
        s.store(DirEntry {
            sharers,
            ..s.entry()
        });
    }

    /// Overwrites the recorded owner of `line` without any protocol action —
    /// the stale-owner flavor of [`Directory::corrupt_sharers`], for the same
    /// negative tests and fault-injection campaigns; never call it from
    /// simulation code.
    ///
    /// # Panics
    ///
    /// Panics if `owner` is a node at or above [`MAX_PROCS`].
    pub fn corrupt_owner(&mut self, line: u64, owner: Option<usize>) {
        assert!(
            owner.is_none_or(|node| node < MAX_PROCS),
            "owner {owner:?} is a node at or above MAX_PROCS = {MAX_PROCS}"
        );
        let s = self.slot_mut(line);
        s.store(DirEntry { owner, ..s.entry() });
    }

    /// Number of lines that have ever held directory state.
    #[expect(clippy::cast_possible_truncation, reason = "counts resident entries")]
    pub fn len(&self) -> usize {
        self.touched as usize
    }

    /// Whether the directory has never tracked a line.
    pub fn is_empty(&self) -> bool {
        self.touched == 0
    }
}

/// NUMA home node of an address: shared pages are distributed round-robin by
/// 8 KB page; private segments live on their owner's node.
pub fn home_of(addr: u64, nprocs: usize) -> usize {
    match segment_of(addr) {
        Some(Segment::Private(owner)) => owner % nprocs,
        _ => ((addr >> 13) % nprocs as u64) as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Unpacks an invalidation mask into ascending node ids.
    fn nodes(mask: u64) -> Vec<usize> {
        (0..MAX_PROCS).filter(|n| mask & (1 << n) != 0).collect()
    }

    #[test]
    fn read_then_write_invalidates_sharers() {
        let mut d = Directory::new();
        d.record_read(0x100, 0);
        d.record_read(0x100, 1);
        d.record_read(0x100, 2);
        let inv = d.record_write(0x100, 1);
        assert_eq!(nodes(inv), vec![0, 2]);
        assert_eq!(
            d.entry(0x100),
            DirEntry {
                sharers: 0,
                owner: Some(1)
            }
        );
    }

    #[test]
    fn write_then_read_downgrades_owner() {
        let mut d = Directory::new();
        assert_eq!(d.record_write(0x100, 3), 0);
        d.record_read(0x100, 0);
        let e = d.entry(0x100);
        assert_eq!(e.owner, None);
        assert_eq!(e.sharers, (1 << 3) | (1 << 0));
    }

    #[test]
    fn write_by_owner_invalidates_nobody() {
        let mut d = Directory::new();
        d.record_write(0x100, 2);
        assert_eq!(d.record_write(0x100, 2), 0);
    }

    #[test]
    fn drop_clears_state() {
        let mut d = Directory::new();
        d.record_write(0x100, 1);
        d.record_drop(0x100, 1);
        assert_eq!(d.entry(0x100), DirEntry::default());
        d.record_read(0x200, 0);
        d.record_drop(0x200, 0);
        assert_eq!(d.entry(0x200).sharers, 0);
    }

    #[test]
    fn len_counts_lines_ever_recorded() {
        let mut d = Directory::new();
        assert!(d.is_empty());
        d.record_drop(0x100, 0); // drop of an unknown line records nothing
        assert_eq!(d.len(), 0);
        d.record_read(0x100, 0);
        d.record_write(0x200, 1);
        assert_eq!(d.len(), 2);
        d.record_read(0x100, 2); // existing line: no growth
        assert_eq!(d.len(), 2);
        d.record_drop(0x100, 0);
        d.record_drop(0x100, 2);
        assert_eq!(d.entry(0x100), DirEntry::default());
        assert_eq!(d.len(), 2, "dropped lines stay counted, as before");
        assert!(!d.is_empty());
    }

    #[test]
    fn line_granularity_keeps_lines_distinct() {
        let mut d = Directory::with_line_size(64);
        d.record_read(0x1000, 0);
        d.record_read(0x1040, 1);
        assert_eq!(d.entry(0x1000).sharers, 1 << 0);
        assert_eq!(d.entry(0x1040).sharers, 1 << 1);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn for_each_entry_reports_current_state() {
        let mut d = Directory::with_line_size(64);
        d.record_read(0x1000, 0);
        d.record_write(0x1040, 2);
        let mut seen = Vec::new();
        d.for_each_entry(|line, e| seen.push((line, e)));
        seen.sort_by_key(|(line, _)| *line);
        assert_eq!(
            seen,
            vec![
                (
                    0x1000,
                    DirEntry {
                        sharers: 1,
                        owner: None
                    }
                ),
                (
                    0x1040,
                    DirEntry {
                        sharers: 0,
                        owner: Some(2)
                    }
                ),
            ]
        );
    }

    #[test]
    fn corrupt_sharers_bypasses_the_protocol() {
        let mut d = Directory::new();
        d.record_read(0x100, 0);
        d.corrupt_sharers(0x100, 0b1010);
        assert_eq!(d.entry(0x100).sharers, 0b1010);
    }

    #[test]
    fn the_widest_machine_round_trips_through_the_slot() {
        let last = MAX_PROCS - 1;
        let full = (1u64 << MAX_PROCS) - 1;
        let mut d = Directory::new();
        for node in 0..MAX_PROCS {
            d.record_read(0x100, node);
        }
        assert_eq!(
            d.entry(0x100),
            DirEntry {
                sharers: full,
                owner: None
            }
        );
        assert_eq!(
            nodes(d.record_write(0x100, last)),
            (0..last).collect::<Vec<_>>()
        );
        assert_eq!(
            d.entry(0x100),
            DirEntry {
                sharers: 0,
                owner: Some(last)
            }
        );
        d.record_read(0x100, 0);
        assert_eq!(d.entry(0x100).sharers, 1 | 1 << last);
        let mut seen = Vec::new();
        d.for_each_entry(|line, e| seen.push((line, e)));
        assert_eq!(seen, vec![(0x100, d.entry(0x100))]);
    }

    #[test]
    #[should_panic(expected = "at or above MAX_PROCS")]
    fn corrupt_sharers_rejects_a_node_the_slot_cannot_hold() {
        Directory::new().corrupt_sharers(0x100, 1 << MAX_PROCS);
    }

    #[test]
    #[should_panic(expected = "at or above MAX_PROCS")]
    fn corrupt_owner_rejects_a_node_the_slot_cannot_hold() {
        Directory::new().corrupt_owner(0x100, Some(MAX_PROCS));
    }

    #[test]
    fn homes_distribute_shared_pages() {
        let a = dss_shmem::SHARED_BASE;
        let homes: Vec<usize> = (0..8).map(|i| home_of(a + i * 8192, 4)).collect();
        assert_eq!(homes, vec![0, 1, 2, 3, 0, 1, 2, 3]);
        // Within a page, the home is constant.
        assert_eq!(home_of(a + 100, 4), home_of(a + 8000, 4));
    }

    #[test]
    fn private_addresses_live_with_their_owner() {
        for p in 0..4 {
            assert_eq!(home_of(dss_shmem::private_base(p) + 64, 4), p);
        }
    }
}
