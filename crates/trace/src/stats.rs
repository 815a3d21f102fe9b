//! Summary statistics over recorded traces.

use crate::{DataClass, Event, EventKind, Trace};

/// Counters summarizing one trace: reference counts by class and direction,
/// busy cycles, and lock activity.
///
/// Used by calibration tests — e.g. the paper observes about five times more
/// private than shared references, which [`TraceStats::priv_to_shared_ratio`]
/// checks directly.
///
/// # Example
///
/// ```
/// use dss_trace::{DataClass, Tracer, TraceStats};
///
/// let t = Tracer::new(0);
/// t.read(0x100, 8, DataClass::Data);
/// t.write(0x900, 8, DataClass::PrivHeap);
/// let stats = TraceStats::from_trace(&t.take());
/// assert_eq!(stats.total_refs(), 2);
/// assert_eq!(stats.reads(DataClass::Data), 1);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Loads and stores per class, indexed by [`DataClass::index`].
    reads: [u64; DataClass::ALL.len()],
    writes: [u64; DataClass::ALL.len()],
    /// Total busy cycles charged in the trace.
    pub busy_cycles: u64,
    /// Number of lock acquisitions.
    pub lock_acquires: u64,
    /// Number of lock releases.
    pub lock_releases: u64,
}

impl TraceStats {
    /// Computes statistics over `trace`.
    pub fn from_trace(trace: &Trace) -> Self {
        let mut s = TraceStats::default();
        s.accumulate(&trace.events);
        s
    }

    /// Folds a block of events into the counters — the incremental form used
    /// by streaming consumers, for which the whole trace never exists at
    /// once. Accumulating a trace's blocks in order (at any block size)
    /// equals [`TraceStats::from_trace`] over the materialized trace.
    pub fn accumulate(&mut self, events: &[Event]) {
        for event in events {
            match event.kind() {
                EventKind::Ref(r) => {
                    let counts = if r.write {
                        &mut self.writes
                    } else {
                        &mut self.reads
                    };
                    counts[r.class.index()] += 1;
                }
                EventKind::Busy(c) => self.busy_cycles += c as u64,
                EventKind::LockAcquire(_) => self.lock_acquires += 1,
                EventKind::LockRelease(_) => self.lock_releases += 1,
            }
        }
    }

    /// Computes combined statistics over several traces.
    pub fn from_traces<'a>(traces: impl IntoIterator<Item = &'a Trace>) -> Self {
        let mut total = TraceStats::default();
        for t in traces {
            total.merge(&Self::from_trace(t));
        }
        total
    }

    /// Adds another set of counters into this one.
    pub fn merge(&mut self, other: &TraceStats) {
        for (mine, theirs) in self.reads.iter_mut().zip(&other.reads) {
            *mine += theirs;
        }
        for (mine, theirs) in self.writes.iter_mut().zip(&other.writes) {
            *mine += theirs;
        }
        self.busy_cycles += other.busy_cycles;
        self.lock_acquires += other.lock_acquires;
        self.lock_releases += other.lock_releases;
    }

    /// Load references of `class`.
    pub fn reads(&self, class: DataClass) -> u64 {
        self.reads[class.index()]
    }

    /// Store references of `class`.
    pub fn writes(&self, class: DataClass) -> u64 {
        self.writes[class.index()]
    }

    /// All references (loads + stores) of `class`.
    pub fn refs(&self, class: DataClass) -> u64 {
        self.reads(class) + self.writes(class)
    }

    /// All references in the trace.
    pub fn total_refs(&self) -> u64 {
        self.reads.iter().chain(&self.writes).sum()
    }

    /// References to private data.
    pub fn private_refs(&self) -> u64 {
        self.refs(DataClass::PrivHeap)
    }

    /// References to shared data (everything that is not private heap).
    pub fn shared_refs(&self) -> u64 {
        self.total_refs() - self.private_refs()
    }

    /// Ratio of private to shared references; the paper reports roughly 5.
    ///
    /// Returns `None` if the trace has no shared references.
    pub fn priv_to_shared_ratio(&self) -> Option<f64> {
        let shared = self.shared_refs();
        (shared > 0).then(|| self.private_refs() as f64 / shared as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LockClass, LockToken, Tracer};

    fn sample_trace() -> Trace {
        let t = Tracer::new(0);
        t.busy(100);
        t.read(0x1000, 8, DataClass::Data);
        t.read(0x2000, 8, DataClass::Index);
        t.write(0x9000, 16, DataClass::PrivHeap); // splits into two stores
        t.lock_acquire(LockToken::new(0x40, LockClass::LockMgr));
        t.lock_release(LockToken::new(0x40, LockClass::LockMgr));
        t.take()
    }

    #[test]
    fn counts_by_class_and_direction() {
        let s = TraceStats::from_trace(&sample_trace());
        assert_eq!(s.reads(DataClass::Data), 1);
        assert_eq!(s.reads(DataClass::Index), 1);
        assert_eq!(s.writes(DataClass::PrivHeap), 2);
        assert_eq!(s.total_refs(), 4);
        assert_eq!(s.busy_cycles, 100);
        assert_eq!(s.lock_acquires, 1);
        assert_eq!(s.lock_releases, 1);
    }

    #[test]
    fn shared_and_private_partition_total() {
        let s = TraceStats::from_trace(&sample_trace());
        assert_eq!(s.private_refs() + s.shared_refs(), s.total_refs());
        assert_eq!(s.private_refs(), 2);
        assert_eq!(s.shared_refs(), 2);
        assert_eq!(s.priv_to_shared_ratio(), Some(1.0));
    }

    #[test]
    fn ratio_none_without_shared_refs() {
        let t = Tracer::new(0);
        t.write(0x9000, 8, DataClass::PrivHeap);
        let s = TraceStats::from_trace(&t.take());
        assert_eq!(s.priv_to_shared_ratio(), None);
    }

    #[test]
    fn merge_adds_counters() {
        let a = sample_trace();
        let b = sample_trace();
        let merged = TraceStats::from_traces([&a, &b]);
        assert_eq!(merged.total_refs(), 8);
        assert_eq!(merged.busy_cycles, 200);
    }

    #[test]
    fn accumulating_blocks_matches_from_trace_at_any_block_size() {
        let trace = sample_trace();
        let whole = TraceStats::from_trace(&trace);
        for block in 1..=trace.events.len() {
            let mut s = TraceStats::default();
            for chunk in trace.events.chunks(block) {
                s.accumulate(chunk);
            }
            assert_eq!(s, whole, "block size {block}");
        }
    }
}
