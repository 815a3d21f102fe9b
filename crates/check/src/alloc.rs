//! A counting global allocator and RAII measurement scope.
//!
//! The audit's claim — "`Machine::run` is allocation-free once warmed" — is
//! only credible if it is *measured*, not pattern-matched from source. This
//! module wraps [`std::alloc::System`] with relaxed atomic counters for
//! every `alloc`/`dealloc`/`realloc` the process performs, and exposes
//! [`AllocGate`], a scope that snapshots the counters on entry and reports
//! the delta on exit.
//!
//! The module is deliberately *not* part of the `dss-check` library: the
//! library root keeps `#![forbid(unsafe_code)]`, while a `GlobalAlloc` impl is
//! irreducibly unsafe. Instead `repro` and the test crates that need it
//! include this file directly with `#[path = ...] mod alloc;` and install
//! their own `#[global_allocator]` instance:
//!
//! ```ignore
//! #[path = "../src/alloc.rs"]
//! mod alloc;
//! #[global_allocator]
//! static COUNTER: alloc::CountingAlloc = alloc::CountingAlloc;
//! ```
//!
//! Counters are process-global, so concurrent threads pollute each other's
//! deltas. Measurement scopes are therefore only meaningful around
//! single-threaded code: `tests/paper_scale.rs` generates traces (the
//! parallel part) before opening its gates, and each exact-count test lives
//! alone in its own test binary.
#![allow(
    unsafe_code,
    reason = "`GlobalAlloc` is an unsafe trait; this module is the workspace's one audited exception"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static DEALLOCS: AtomicU64 = AtomicU64::new(0);
static REALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES_ALLOCATED: AtomicU64 = AtomicU64::new(0);
/// Live bytes right now (allocated minus freed).
static CURRENT: AtomicU64 = AtomicU64::new(0);
/// High-water mark of `CURRENT` since the last [`AllocGate::begin`].
static PEAK: AtomicU64 = AtomicU64::new(0);

/// A `#[global_allocator]` that counts every heap operation.
///
/// Forwards all requests to [`System`]; the counting is a handful of relaxed
/// atomic adds, cheap enough to leave installed for a whole binary.
pub struct CountingAlloc;

impl CountingAlloc {
    fn note_alloc(size: u64) {
        ALLOCS.fetch_add(1, Relaxed);
        BYTES_ALLOCATED.fetch_add(size, Relaxed);
        let live = CURRENT.fetch_add(size, Relaxed) + size;
        PEAK.fetch_max(live, Relaxed);
    }

    fn note_dealloc(size: u64) {
        DEALLOCS.fetch_add(1, Relaxed);
        CURRENT.fetch_sub(size, Relaxed);
    }
}

// SAFETY: every method forwards verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the counter updates never touch the returned
// memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            Self::note_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            Self::note_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        Self::note_dealloc(layout.size() as u64);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            REALLOCS.fetch_add(1, Relaxed);
            let (old, new) = (layout.size() as u64, new_size as u64);
            BYTES_ALLOCATED.fetch_add(new, Relaxed);
            let live = CURRENT.fetch_add(new, Relaxed) + new;
            PEAK.fetch_max(live, Relaxed);
            CURRENT.fetch_sub(old, Relaxed);
        }
        p
    }
}

/// What one [`AllocGate`] scope observed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocReport {
    /// Calls to `alloc`/`alloc_zeroed` inside the scope.
    pub allocs: u64,
    /// Calls to `dealloc` inside the scope.
    pub deallocs: u64,
    /// Calls to `realloc` inside the scope.
    pub reallocs: u64,
    /// Bytes requested by allocations inside the scope.
    pub bytes_allocated: u64,
    /// Peak live heap bytes reached inside the scope, measured from the
    /// scope's entry level (0 when nothing grew past where it started).
    pub peak_bytes: u64,
}

/// A measurement scope over the process-global counters.
///
/// `begin()` snapshots the counters (and resets the peak tracker to the
/// current live level); `end()` returns the delta as an [`AllocReport`].
/// Scopes must not nest or overlap across threads — the counters are global.
#[must_use = "an AllocGate measures nothing until end() is called"]
pub struct AllocGate {
    allocs: u64,
    deallocs: u64,
    reallocs: u64,
    bytes_allocated: u64,
    start_live: u64,
}

impl AllocGate {
    /// Opens a measurement scope at the current counter values.
    pub fn begin() -> AllocGate {
        let start_live = CURRENT.load(Relaxed);
        // Restart peak tracking from the present live level so the report's
        // peak is relative to this scope, not the process lifetime.
        PEAK.store(start_live, Relaxed);
        AllocGate {
            allocs: ALLOCS.load(Relaxed),
            deallocs: DEALLOCS.load(Relaxed),
            reallocs: REALLOCS.load(Relaxed),
            bytes_allocated: BYTES_ALLOCATED.load(Relaxed),
            start_live,
        }
    }

    /// Closes the scope and reports what happened inside it.
    pub fn end(self) -> AllocReport {
        AllocReport {
            allocs: ALLOCS.load(Relaxed) - self.allocs,
            deallocs: DEALLOCS.load(Relaxed) - self.deallocs,
            reallocs: REALLOCS.load(Relaxed) - self.reallocs,
            bytes_allocated: BYTES_ALLOCATED.load(Relaxed) - self.bytes_allocated,
            peak_bytes: PEAK.load(Relaxed).saturating_sub(self.start_live),
        }
    }
}
