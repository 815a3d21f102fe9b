//! Emulated address spaces for the DSS workload study.
//!
//! The original study traced a real Postgres95 process with Mint, so every
//! reference carried a machine virtual address. Our engine instead allocates
//! its data structures out of an *emulated* address space and attaches the
//! resulting addresses to the references it emits. Two kinds of memory exist,
//! mirroring Postgres95's process model:
//!
//! * **Shared memory** ([`AddressSpace`]): one global region table holding the
//!   buffer blocks, buffer descriptors, lookup hash, lock-manager hash tables
//!   and spinlocks. Regions are mapped once at startup and classified with a
//!   [`DataClass`], so any address can be attributed to the data structure it
//!   belongs to.
//! * **Private heaps** ([`PrivateHeap`]): one per simulated processor, with a
//!   `palloc`-style size-classed free list so freed chunks are reused — the
//!   source of the private-data temporal locality the paper reports.
//!
//! Private *stack and static* data is never modelled: the paper's methodology
//! assumes those references always hit (its scaling correction), so they are
//! simply not emitted.
//!
//! # Example
//!
//! ```
//! use dss_shmem::{AddressSpace, PrivateHeap};
//! use dss_trace::DataClass;
//!
//! let mut shared = AddressSpace::new();
//! let blocks = shared.map_region("buffer blocks", DataClass::Data, 64 * 8192, 8192);
//! assert_eq!(shared.classify(blocks + 100), Some(DataClass::Data));
//!
//! let mut heap = PrivateHeap::new(0);
//! let a = heap.alloc(100);
//! heap.free(a, 100);
//! let b = heap.alloc(100); // reuses the freed chunk
//! assert_eq!(a, b);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

mod heap;
mod space;

pub use heap::PrivateHeap;
pub use space::{AddressSpace, Vma};

use dss_trace::{DataClass, Event};

/// Base of the emulated shared segment.
pub const SHARED_BASE: u64 = 0x0001_0000_0000;

/// Base of the first private segment.
pub const PRIVATE_BASE: u64 = 0x0100_0000_0000;

/// Distance between consecutive processes' private segments.
pub const PRIVATE_STRIDE: u64 = 0x0010_0000_0000;

/// Maximum number of simulated processes with private segments, and so of
/// simulated processors. It also sizes the simulator's directory slot: a
/// sharer mask holds one bit per processor, so 16 fits a 4-byte entry.
/// Widening the machine starts here and at that slot.
pub const MAX_PROCS: usize = 16;

// Every emulated address must fit a trace event's address field: widening the
// address space cannot silently outgrow the packed word.
const _: () = assert!(PRIVATE_BASE + MAX_PROCS as u64 * PRIVATE_STRIDE <= Event::ADDR_LIMIT);

/// Returns the private segment base for simulated process `proc_id`.
///
/// # Panics
///
/// Panics if `proc_id >= MAX_PROCS`.
pub fn private_base(proc_id: usize) -> u64 {
    assert!(proc_id < MAX_PROCS, "proc_id {proc_id} out of range");
    PRIVATE_BASE + proc_id as u64 * PRIVATE_STRIDE
}

/// If `addr` lies in some process's private segment, returns that process id.
pub fn private_owner(addr: u64) -> Option<usize> {
    if addr < PRIVATE_BASE {
        return None;
    }
    let idx = (addr - PRIVATE_BASE) / PRIVATE_STRIDE;
    (idx < MAX_PROCS as u64).then_some(idx as usize)
}

/// Whether `addr` lies in the emulated shared segment.
pub fn is_shared_addr(addr: u64) -> bool {
    (SHARED_BASE..PRIVATE_BASE).contains(&addr)
}

/// Classifies an address as shared or private without consulting a region
/// table; used by the simulator for NUMA home-node placement.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Segment {
    /// The global shared segment.
    Shared,
    /// A process's private segment.
    Private(usize),
}

/// Returns which segment `addr` belongs to, if any.
pub fn segment_of(addr: u64) -> Option<Segment> {
    if is_shared_addr(addr) {
        Some(Segment::Shared)
    } else {
        private_owner(addr).map(Segment::Private)
    }
}

/// Convenience: the [`DataClass`] for anything allocated from a private heap.
pub const PRIVATE_CLASS: DataClass = DataClass::PrivHeap;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn private_segments_do_not_overlap_shared() {
        assert!(private_base(0) > SHARED_BASE);
        assert!(!is_shared_addr(private_base(0)));
        assert!(is_shared_addr(SHARED_BASE));
    }

    #[test]
    fn owner_roundtrip() {
        for p in [0usize, 1, 3, MAX_PROCS - 1] {
            assert_eq!(private_owner(private_base(p)), Some(p));
            assert_eq!(private_owner(private_base(p) + PRIVATE_STRIDE - 1), Some(p));
        }
        assert_eq!(private_owner(SHARED_BASE), None);
    }

    #[test]
    fn segment_of_distinguishes() {
        assert_eq!(segment_of(SHARED_BASE + 10), Some(Segment::Shared));
        assert_eq!(segment_of(private_base(2) + 10), Some(Segment::Private(2)));
        assert_eq!(segment_of(0x10), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn private_base_rejects_large_ids() {
        private_base(MAX_PROCS);
    }
}
