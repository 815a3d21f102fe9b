//! A two-level paged flat map over the emulated address space.
//!
//! The simulator's per-line bookkeeping — miss-classification history in
//! [`crate::Cache`], entries in [`crate::Directory`] — was originally
//! hash-based (`HashSet`/`HashMap` keyed by line address), which put one to
//! three hash probes on every simulated miss. [`PagedMap`] replaces the
//! hashing with pure array indexing by exploiting the known layout of the
//! emulated address space (see `dss_shmem`): the shared segment is dense from
//! `SHARED_BASE` up, and above `PRIVATE_BASE` live at most [`MAX_PROCS`]
//! private segments, one per simulated processor, at a fixed power-of-two
//! stride, each dense from its own base; an address past the last one is a
//! bug and panics. An address therefore splits into `(segment, offset from
//! the segment's base)` with a compare or two and a shift — page tables
//! start where the data does — the offset shifts down by the map's
//! granularity to a line index, and the index selects a slot inside a lazily
//! allocated fixed-size page.
//!
//! Reads of untouched pages return `T::default()` without allocating; writes
//! allocate at page granularity, so sparse traces stay cheap while hot lines
//! cost exactly one indexed load or store. An untouched page is an empty
//! slice, so a present slot is three bounds-checked indexings and growing the
//! tables is one cold call on the first touch of a page.

#![deny(clippy::disallowed_types, clippy::cast_possible_truncation)]
#![deny(clippy::panic, clippy::unreachable)]

use dss_shmem::{MAX_PROCS, PRIVATE_BASE, PRIVATE_STRIDE, SHARED_BASE};

/// log2 of the slots per page (4096 slots).
const PAGE_SHIFT: u32 = 12;
const PAGE_SLOTS: usize = 1 << PAGE_SHIFT;
const STRIDE_SHIFT: u32 = PRIVATE_STRIDE.trailing_zeros();
const _: () = assert!(PRIVATE_STRIDE.is_power_of_two());
/// Page-table slots a segment reserves at its first write (4 KB of them), so
/// a table that grows page by page from its base does not reallocate until
/// the segment spans 32 MB of 32-byte lines.
const INITIAL_PAGES: usize = 256;
/// Segments below the private ones: the range below `SHARED_BASE` (outside
/// every allocator; unit tests put lock words there), then the shared segment.
const LOW_SEGMENTS: usize = 2;

/// One segment's lazily allocated pages; an untouched page is empty (and
/// owns no allocation).
#[derive(Clone, Debug)]
struct Segment<T> {
    pages: Vec<Box<[T]>>,
}

impl<T> Default for Segment<T> {
    fn default() -> Self {
        Segment { pages: Vec::new() }
    }
}

/// A flat map from line-granular addresses to `T`, paged per segment.
#[derive(Clone, Debug)]
pub(crate) struct PagedMap<T> {
    /// Granularity shift: slot index = segment offset >> `gran`.
    gran: u32,
    /// Segment 0 is everything below `SHARED_BASE`, segment 1 the shared
    /// segment, segment 2 + p process p's private segment — ascending by
    /// address, each indexed from its own base.
    segments: Vec<Segment<T>>,
}

/// Splits an address into its segment index and in-segment offset.
///
/// # Panics
///
/// Panics if `addr` lies past the last private segment — such an address
/// cannot come from the emulated allocators, so indexing it indicates a bug.
#[inline]
fn split(addr: u64) -> (usize, u64) {
    if addr < SHARED_BASE {
        (0, addr)
    } else if addr < PRIVATE_BASE {
        (1, addr - SHARED_BASE)
    } else {
        let d = addr - PRIVATE_BASE;
        let seg = (d >> STRIDE_SHIFT) as usize;
        assert!(
            seg < MAX_PROCS,
            "address {addr:#x} beyond the emulated address space"
        );
        (LOW_SEGMENTS + seg, d & (PRIVATE_STRIDE - 1))
    }
}

impl<T: Copy + Default> PagedMap<T> {
    /// An empty map with the given granularity shift (e.g. log2 of the cache
    /// line size).
    pub(crate) fn new(gran: u32) -> Self {
        PagedMap {
            gran,
            segments: Vec::new(),
        }
    }

    #[expect(clippy::cast_possible_truncation, reason = "page of a 48-bit offset")]
    #[inline]
    fn locate(&self, addr: u64) -> (usize, usize, usize) {
        let (seg, off) = split(addr);
        let idx = off >> self.gran;
        (
            (idx >> PAGE_SHIFT) as usize,
            idx as usize & (PAGE_SLOTS - 1),
            seg,
        )
    }

    /// The value at `addr` (`T::default()` if never written).
    #[inline]
    pub(crate) fn get(&self, addr: u64) -> T {
        let (page, slot, seg) = self.locate(addr);
        self.segments
            .get(seg)
            .and_then(|s| s.pages.get(page))
            .and_then(|p| p.get(slot))
            .copied()
            .unwrap_or_default()
    }

    /// Mutable access to the slot for `addr`, allocating its page on demand.
    /// Inlined for the page-present case; growth is [`PagedMap::grow`].
    #[inline(always)]
    pub(crate) fn get_mut(&mut self, addr: u64) -> &mut T {
        let (page, slot, seg) = self.locate(addr);
        let present = self
            .segments
            .get(seg)
            .and_then(|s| s.pages.get(page))
            .is_some_and(|p| !p.is_empty());
        if !present {
            self.grow(seg, page);
        }
        &mut self.segments[seg].pages[page][slot]
    }

    /// Allocates page `page` of segment `seg`, growing the tables to reach
    /// it: once per page the map ever writes, so out of the per-event path.
    #[cold]
    #[inline(never)]
    fn grow(&mut self, seg: usize, page: usize) {
        if seg >= self.segments.len() {
            self.segments.resize_with(seg + 1, Segment::default);
        }
        let pages = &mut self.segments[seg].pages;
        if page >= pages.len() {
            if pages.capacity() == 0 {
                pages.reserve(INITIAL_PAGES.max(page + 1));
            }
            pages.resize_with(page + 1, Box::default);
        }
        pages[page] = vec![T::default(); PAGE_SLOTS].into_boxed_slice();
    }

    /// Mutable access without allocating: `None` if the page was never
    /// written (every slot in it still holds `T::default()`).
    #[inline]
    pub(crate) fn peek_mut(&mut self, addr: u64) -> Option<&mut T> {
        let (page, slot, seg) = self.locate(addr);
        self.segments
            .get_mut(seg)?
            .pages
            .get_mut(page)?
            .get_mut(slot)
    }

    /// Visits every slot of every allocated page as `(address, value)`, where
    /// the address is the base of the slot's line. Untouched pages are never
    /// visited; touched pages yield all their slots (including ones still at
    /// `T::default()`), so callers that only care about live entries filter.
    /// Cost is proportional to allocated pages — fine for post-run sweeps,
    /// not for per-event paths.
    pub(crate) fn for_each(&self, mut f: impl FnMut(u64, T)) {
        for (seg_idx, seg) in self.segments.iter().enumerate() {
            let base = match seg_idx {
                0 => 0,
                1 => SHARED_BASE,
                _ => PRIVATE_BASE + (seg_idx - LOW_SEGMENTS) as u64 * PRIVATE_STRIDE,
            };
            for (page_idx, slots) in seg.pages.iter().enumerate() {
                for (slot_idx, value) in slots.iter().enumerate() {
                    let line_idx = ((page_idx as u64) << PAGE_SHIFT) + slot_idx as u64;
                    f(base + (line_idx << self.gran), *value);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dss_shmem::private_base;

    #[test]
    fn default_until_written() {
        let mut m: PagedMap<u8> = PagedMap::new(6);
        assert_eq!(m.get(SHARED_BASE), 0);
        *m.get_mut(SHARED_BASE) = 7;
        assert_eq!(m.get(SHARED_BASE), 7);
        // Same 64-byte line, different byte: same slot.
        assert_eq!(m.get(SHARED_BASE + 63), 7);
        // Next line: untouched.
        assert_eq!(m.get(SHARED_BASE + 64), 0);
    }

    #[test]
    fn segments_are_independent() {
        let mut m: PagedMap<u32> = PagedMap::new(6);
        *m.get_mut(SHARED_BASE) = 1;
        *m.get_mut(private_base(0)) = 2;
        *m.get_mut(private_base(3)) = 3;
        assert_eq!(m.get(SHARED_BASE), 1);
        assert_eq!(m.get(private_base(0)), 2);
        assert_eq!(m.get(private_base(3)), 3);
        // Low addresses (outside any allocator) still index cleanly.
        assert_eq!(m.get(0x40), 0);
        *m.get_mut(0x40) = 9;
        assert_eq!(m.get(0x40), 9);
    }

    #[test]
    fn peek_mut_never_allocates() {
        let mut m: PagedMap<u8> = PagedMap::new(6);
        assert!(m.peek_mut(SHARED_BASE).is_none());
        *m.get_mut(SHARED_BASE) = 5;
        assert_eq!(m.peek_mut(SHARED_BASE).copied(), Some(5));
        // A different page of the same segment is still untouched.
        assert!(m.peek_mut(SHARED_BASE + (1 << 30)).is_none());
    }

    #[test]
    fn for_each_visits_touched_pages_with_reconstructed_addresses() {
        let mut m: PagedMap<u32> = PagedMap::new(6);
        *m.get_mut(0x40) = 3;
        *m.get_mut(SHARED_BASE + 128) = 7;
        *m.get_mut(private_base(2) + 64) = 9;
        let mut live = Vec::new();
        m.for_each(|addr, v| {
            if v != 0 {
                live.push((addr, v));
            }
        });
        live.sort_unstable();
        assert_eq!(
            live,
            vec![(0x40, 3), (SHARED_BASE + 128, 7), (private_base(2) + 64, 9)]
        );
    }

    #[test]
    fn page_tables_start_at_their_segment_base() {
        // The first shared touch sizes the table for the data, not for the
        // 4 GiB below `SHARED_BASE`.
        let mut m: PagedMap<u8> = PagedMap::new(3);
        *m.get_mut(SHARED_BASE) = 1;
        *m.get_mut(private_base(1)) = 1;
        *m.get_mut(0x40) = 1;
        for seg in &m.segments {
            assert!(seg.pages.len() <= 1, "{} page slots", seg.pages.len());
        }
    }

    #[test]
    #[should_panic(expected = "beyond the emulated address space")]
    fn rejects_addresses_past_the_last_segment() {
        let m: PagedMap<u8> = PagedMap::new(6);
        m.get(PRIVATE_BASE + MAX_PROCS as u64 * PRIVATE_STRIDE);
    }
}
