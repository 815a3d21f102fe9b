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
        // One counter per tag · write · class slot of the packed word, in two
        // banks taken alternately: a run of like events (a scan's loads)
        // would otherwise chain every increment on the previous one's store.
        let mut banks = [[0u64; Event::COUNTER_SLOTS]; 2];
        // Spelled out two at a time: `banks[i & 1]` over an enumerated
        // loop measured no faster than one bank.
        let mut pairs = events.chunks_exact(2);
        for pair in &mut pairs {
            banks[0][pair[0].counter_slot()] += 1;
            banks[1][pair[1].counter_slot()] += 1;
            self.busy_cycles += pair[0].busy_cycles() + pair[1].busy_cycles();
        }
        for event in pairs.remainder() {
            banks[0][event.counter_slot()] += 1;
            self.busy_cycles += event.busy_cycles();
        }
        for (slot, (a, b)) in banks[0].iter().zip(&banks[1]).enumerate() {
            // A slot no event maps to counted nothing.
            let Some(event) = Event::from_bits(slot as u64) else {
                continue;
            };
            let n = a + b;
            match event.kind() {
                EventKind::Ref(r) if r.write => self.writes[r.class.index()] += n,
                EventKind::Ref(r) => self.reads[r.class.index()] += n,
                EventKind::Busy(_) => {}
                EventKind::LockAcquire(_) => self.lock_acquires += n,
                EventKind::LockRelease(_) => self.lock_releases += n,
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
    use crate::{LockClass, LockToken, MemRef, Tracer};
    use proptest::collection;
    use proptest::prelude::*;

    /// [`TraceStats::accumulate`] as a match on each decoded event.
    fn accumulate_by_kind(s: &mut TraceStats, events: &[Event]) {
        for event in events {
            match event.kind() {
                EventKind::Ref(r) if r.write => s.writes[r.class.index()] += 1,
                EventKind::Ref(r) => s.reads[r.class.index()] += 1,
                EventKind::Busy(c) => s.busy_cycles += c as u64,
                EventKind::LockAcquire(_) => s.lock_acquires += 1,
                EventKind::LockRelease(_) => s.lock_releases += 1,
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn counting_by_slot_equals_counting_by_kind(
            picks in collection::vec((0u8..4, 0usize..DataClass::ALL.len(), any::<u32>()), 0..300),
        ) {
            let events: Vec<Event> = picks
                .into_iter()
                .map(|(variant, class, n)| {
                    let token = LockToken::new(n as u64, [LockClass::LockMgr, LockClass::BufMgr, LockClass::Other][class % 3]);
                    match variant {
                        0 => Event::busy(n),
                        1 => Event::reference(MemRef {
                            addr: n as u64,
                            size: 1 + (n % 8) as u16,
                            write: n % 2 == 1,
                            class: DataClass::ALL[class],
                        }),
                        2 => Event::lock_acquire(token),
                        _ => Event::lock_release(token),
                    }
                })
                .collect();
            let mut by_kind = TraceStats::default();
            accumulate_by_kind(&mut by_kind, &events);
            let mut by_slot = TraceStats::default();
            by_slot.accumulate(&events);
            prop_assert_eq!(by_slot, by_kind);
        }
    }

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
