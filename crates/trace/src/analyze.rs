//! Trace analysis: locality evidence straight from the reference stream.
//!
//! The paper's Section 3 derives its locality claims from inspecting address
//! traces ("a close look at the traces reveals …"). This module computes the
//! same evidence quantitatively:
//!
//! * **footprints** — distinct cache lines touched per data structure,
//! * **sequentiality** — how often a class's next reference lands on the
//!   same or adjacent line (spatial locality),
//! * **reuse distances** — for every reference, the number of *distinct*
//!   lines touched since this line was last referenced (temporal locality;
//!   computed exactly with a Fenwick tree over access times).

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

use crate::{DataClass, EventKind, Trace};

/// Reuse-distance histogram buckets (upper bounds in distinct lines); the
/// last bucket counts cold (first-touch) references.
pub const REUSE_BUCKETS: [u64; 5] = [0, 16, 256, 4096, 65536];

/// A reuse-distance histogram: one count per [`REUSE_BUCKETS`] bound, one
/// overflow bucket, and one cold bucket.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReuseHistogram {
    /// `counts[i]` = references with distance ≤ `REUSE_BUCKETS[i]` (first
    /// matching bucket); `counts[5]` = larger; `counts[6]` = cold.
    pub counts: [u64; 7],
}

impl ReuseHistogram {
    fn add(&mut self, distance: Option<u64>) {
        match distance {
            None => self.counts[6] += 1,
            Some(d) => {
                let idx = REUSE_BUCKETS.iter().position(|b| d <= *b).unwrap_or(5);
                self.counts[idx] += 1;
            }
        }
    }

    /// Total references recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fraction of (non-cold) references reused within `bound` distinct
    /// lines — a cache of that many lines would hit them.
    pub fn reused_within(&self, bound: u64) -> f64 {
        let covered: u64 = REUSE_BUCKETS
            .iter()
            .zip(&self.counts)
            .filter(|(b, _)| **b <= bound)
            .map(|(_, c)| *c)
            .sum();
        covered as f64 / self.total().max(1) as f64
    }

    /// Fraction of references that are first touches.
    pub fn cold_fraction(&self) -> f64 {
        self.counts[6] as f64 / self.total().max(1) as f64
    }
}

/// Per-class locality metrics for one trace.
#[derive(Clone, Debug, Default)]
pub struct ClassLocality {
    /// References of this class.
    pub refs: u64,
    /// Distinct lines touched.
    pub footprint_lines: u64,
    /// References landing on the same line as the class's previous
    /// reference.
    pub same_line: u64,
    /// References landing on the line adjacent to the previous one.
    pub next_line: u64,
    /// Reuse-distance histogram (in distinct lines, all classes counted
    /// toward the distance).
    pub reuse: ReuseHistogram,
}

impl ClassLocality {
    /// Fraction of references on the same or adjacent line as the previous
    /// reference of this class — the spatial-locality signal.
    pub fn sequentiality(&self) -> f64 {
        (self.same_line + self.next_line) as f64 / self.refs.max(1) as f64
    }
}

/// Full analysis of one trace at a given line granularity.
#[derive(Clone, Debug, Default)]
pub struct TraceAnalysis {
    /// Line size used (bytes).
    pub line_size: u64,
    /// Per-class metrics, only for classes that appear.
    pub classes: BTreeMap<DataClass, ClassLocality>,
}

impl TraceAnalysis {
    /// Metrics for `class` (zeroed if absent).
    pub fn class(&self, class: DataClass) -> ClassLocality {
        self.classes.get(&class).cloned().unwrap_or_default()
    }

    /// Total distinct lines touched by the whole trace.
    pub fn total_footprint_lines(&self) -> u64 {
        self.classes.values().map(|c| c.footprint_lines).sum()
    }
}

/// Analyzes a trace at `line_size` granularity.
///
/// Runs in O(n log n) over the reference count: reuse distances use a
/// Fenwick tree over access timestamps, the textbook exact algorithm.
///
/// # Panics
///
/// Panics if `line_size` is not a power of two.
///
/// # Example
///
/// ```
/// use dss_trace::{analyze, DataClass, Tracer};
///
/// let t = Tracer::new(0);
/// t.read(0x1000, 8, DataClass::Data);
/// t.read(0x1008, 8, DataClass::Data); // same 64-byte line
/// t.read(0x1000, 8, DataClass::Data); // immediate reuse
/// let a = analyze(&t.take(), 64);
/// let data = a.class(DataClass::Data);
/// assert_eq!(data.footprint_lines, 1);
/// assert_eq!(data.reuse.cold_fraction(), 1.0 / 3.0);
/// ```
pub fn analyze(trace: &Trace, line_size: u64) -> TraceAnalysis {
    assert!(
        line_size.is_power_of_two(),
        "line size must be a power of two"
    );
    let mask = !(line_size - 1);

    // Count line-granularity references to size the Fenwick tree.
    let nrefs = trace
        .iter()
        .filter(|e| matches!(e.kind(), EventKind::Ref(_)))
        .count();
    let mut fenwick = Fenwick::new(nrefs + 1);
    let mut lines: HashMap<u64, LineState, BuildHasherDefault<LineHasher>> = HashMap::default();
    // Per-class state in `DataClass::index()` slots.
    let mut per_class: [ClassLocality; NCLASSES] = Default::default();
    let mut last_line: [Option<u64>; NCLASSES] = [None; NCLASSES];

    let mut t = 0usize;
    for event in trace {
        let EventKind::Ref(r) = event.kind() else {
            continue;
        };
        t += 1;
        let line = r.addr & mask;
        let class = r.class.index();
        let entry = &mut per_class[class];
        entry.refs += 1;

        // Spatial signal: same / adjacent line as this class's previous ref.
        match last_line[class].replace(line) {
            Some(prev) if prev == line => entry.same_line += 1,
            Some(prev) if prev + line_size == line || line + line_size == prev => {
                entry.next_line += 1
            }
            _ => {}
        }

        // Temporal signal: exact reuse distance in distinct lines. Footprint:
        // a line counts once for every class that touches it.
        let class_bit = 1u16 << class;
        match lines.entry(line) {
            Entry::Vacant(slot) => {
                entry.reuse.add(None);
                entry.footprint_lines += 1;
                fenwick.add(t, 1);
                slot.insert(LineState {
                    last_access: t,
                    classes: class_bit,
                });
            }
            Entry::Occupied(mut slot) => {
                let state = slot.get_mut();
                // Distinct lines touched strictly between the last access
                // and now: lines whose most recent access lies in between.
                let distance = fenwick.range_sum(state.last_access + 1, t);
                entry.reuse.add(Some(distance));
                fenwick.add(state.last_access, -1);
                fenwick.add(t, 1);
                state.last_access = t;
                if state.classes & class_bit == 0 {
                    state.classes |= class_bit;
                    entry.footprint_lines += 1;
                }
            }
        }
    }
    TraceAnalysis {
        line_size,
        classes: DataClass::ALL
            .into_iter()
            .zip(per_class)
            .filter(|(_, c)| c.refs > 0)
            .collect(),
    }
}

const NCLASSES: usize = DataClass::ALL.len();

/// What [`analyze`] remembers about one touched line.
struct LineState {
    /// Timestamp of the line's most recent reference.
    last_access: usize,
    /// Bit `DataClass::index()` set for every class that has touched it.
    classes: u16,
}

/// Multiplicative hashing for line addresses: the keys are the trace's own
/// addresses, not outside input, and the map is probed three times less
/// often than it was under SipHash but still once per reference. The
/// rotation brings the product's well-mixed high bits down to where the
/// table takes its bucket index (a line address has none of its own there).
#[derive(Default)]
struct LineHasher(u64);

impl Hasher for LineHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A Fenwick (binary indexed) tree over access timestamps.
struct Fenwick {
    tree: Vec<i64>,
}

impl Fenwick {
    fn new(n: usize) -> Self {
        Fenwick {
            tree: vec![0; n + 1],
        }
    }

    fn add(&mut self, mut i: usize, delta: i64) {
        while i < self.tree.len() {
            self.tree[i] += delta;
            i += i & i.wrapping_neg();
        }
    }

    fn prefix_sum(&self, mut i: usize) -> i64 {
        let mut s = 0;
        while i > 0 {
            s += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        s
    }

    /// Sum over `[lo, hi)`.
    fn range_sum(&self, lo: usize, hi: usize) -> u64 {
        if hi <= lo {
            return 0;
        }
        (self.prefix_sum(hi - 1) - self.prefix_sum(lo.saturating_sub(1))).max(0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Event, MemRef, Tracer};
    use proptest::collection;
    use proptest::prelude::*;

    /// [`analyze`] as it was before it ran in one pass: three SipHash maps,
    /// a `BTreeMap` entry per reference and a second pass for footprints.
    fn analyze_reference(trace: &Trace, line_size: u64) -> TraceAnalysis {
        assert!(
            line_size.is_power_of_two(),
            "line size must be a power of two"
        );
        let mask = !(line_size - 1);

        // Pass 1: count line-granularity references to size the Fenwick tree.
        let nrefs = trace
            .iter()
            .filter(|e| matches!(e.kind(), EventKind::Ref(_)))
            .count();
        let mut fenwick = Fenwick::new(nrefs + 1);
        let mut last_access: HashMap<u64, usize> = HashMap::new();
        let mut last_line_by_class: HashMap<DataClass, u64> = HashMap::new();
        let mut analysis = TraceAnalysis {
            line_size,
            classes: BTreeMap::new(),
        };

        let mut t = 0usize;
        for event in trace {
            let EventKind::Ref(r) = event.kind() else {
                continue;
            };
            t += 1;
            let line = r.addr & mask;
            let entry = analysis.classes.entry(r.class).or_default();
            entry.refs += 1;

            // Spatial signal: same / adjacent line as this class's previous ref.
            match last_line_by_class.get(&r.class) {
                Some(&prev) if prev == line => entry.same_line += 1,
                Some(&prev) if prev + line_size == line || line + line_size == prev => {
                    entry.next_line += 1
                }
                _ => {}
            }
            last_line_by_class.insert(r.class, line);

            // Temporal signal: exact reuse distance in distinct lines.
            match last_access.insert(line, t) {
                None => {
                    entry.reuse.add(None);
                    fenwick.add(t, 1);
                }
                Some(prev_t) => {
                    // Distinct lines touched strictly between prev_t and now:
                    // lines whose most recent access lies in (prev_t, t).
                    let distance = fenwick.range_sum(prev_t + 1, t);
                    entry.reuse.add(Some(distance));
                    fenwick.add(prev_t, -1);
                    fenwick.add(t, 1);
                }
            }
        }
        for (_, entry) in analysis.classes.iter_mut() {
            // Footprint: lines whose last access carries this class… cheaper:
            // recompute below.
            entry.footprint_lines = 0;
        }
        // Footprints per class (distinct lines, a line counted once per class
        // that touches it).
        let mut seen: HashMap<(DataClass, u64), ()> = HashMap::new();
        for event in trace {
            let EventKind::Ref(r) = event.kind() else {
                continue;
            };
            let line = r.addr & mask;
            if seen.insert((r.class, line), ()).is_none() {
                // The entry exists: the counting pass above visited this event.
                if let Some(entry) = analysis.classes.get_mut(&r.class) {
                    entry.footprint_lines += 1;
                }
            }
        }
        analysis
    }

    fn trace_of(addrs: &[(u64, DataClass)]) -> Trace {
        let t = Tracer::new(0);
        for (addr, class) in addrs {
            t.read(*addr, 8, *class);
        }
        t.take()
    }

    #[test]
    fn footprint_counts_distinct_lines() {
        let a = analyze(
            &trace_of(&[
                (0x100, DataClass::Data),
                (0x108, DataClass::Data),  // same line
                (0x140, DataClass::Data),  // next line
                (0x100, DataClass::Index), // same address, other class
            ]),
            64,
        );
        assert_eq!(a.class(DataClass::Data).footprint_lines, 2);
        assert_eq!(a.class(DataClass::Index).footprint_lines, 1);
        assert_eq!(a.total_footprint_lines(), 3);
    }

    #[test]
    fn sequentiality_detects_streams() {
        // A pure stream: every ref on the next line.
        let stream: Vec<(u64, DataClass)> = (0..50)
            .map(|i| (0x1000 + i * 64, DataClass::Data))
            .collect();
        let a = analyze(&trace_of(&stream), 64);
        let c = a.class(DataClass::Data);
        assert!(c.sequentiality() > 0.95, "{}", c.sequentiality());

        // A scatter: strides far beyond a line.
        let scatter: Vec<(u64, DataClass)> = (0..50)
            .map(|i| (0x1000 + i * 4096, DataClass::PrivHeap))
            .collect();
        let a = analyze(&trace_of(&scatter), 64);
        assert_eq!(a.class(DataClass::PrivHeap).sequentiality(), 0.0);
    }

    #[test]
    fn reuse_distances_are_exact() {
        // Access lines A B C A: A's reuse distance is 2 (B and C).
        let a = analyze(
            &trace_of(&[
                (0x0000, DataClass::Data),
                (0x1000, DataClass::Data),
                (0x2000, DataClass::Data),
                (0x0000, DataClass::Data),
            ]),
            64,
        );
        let reuse = &a.class(DataClass::Data).reuse;
        assert_eq!(reuse.counts[6], 3, "three cold touches");
        // Distance 2 falls in the ≤16 bucket (index 1).
        assert_eq!(reuse.counts[1], 1);
    }

    #[test]
    fn immediate_reuse_is_distance_zero() {
        let a = analyze(
            &trace_of(&[
                (0x0, DataClass::Data),
                (0x8, DataClass::Data),
                (0x0, DataClass::Data),
            ]),
            64,
        );
        let reuse = &a.class(DataClass::Data).reuse;
        // Two hits on the resident line at distance 0.
        assert_eq!(reuse.counts[0], 2);
        assert_eq!(reuse.cold_fraction(), 1.0 / 3.0);
    }

    #[test]
    fn reused_within_is_monotone() {
        let mixed: Vec<(u64, DataClass)> = (0..200)
            .map(|i| (((i * 37) % 50) * 64, DataClass::Data))
            .collect();
        let a = analyze(&trace_of(&mixed), 64);
        let r = &a.class(DataClass::Data).reuse;
        assert!(r.reused_within(16) <= r.reused_within(256));
        assert!(r.reused_within(256) <= r.reused_within(65536));
        assert!(r.reused_within(65536) <= 1.0);
    }

    #[test]
    fn no_reuse_in_a_pure_scan() {
        let scan: Vec<(u64, DataClass)> = (0..100).map(|i| (i * 64, DataClass::Data)).collect();
        let a = analyze(&trace_of(&scan), 64);
        assert_eq!(a.class(DataClass::Data).reuse.cold_fraction(), 1.0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_line_size_rejected() {
        analyze(&Trace::new(0), 48);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// References of every class over a few dense regions (so lines are
        /// shared between classes, revisited and walked) with busy events
        /// between them: the one-pass analysis reports what the two-pass one
        /// did, field for field.
        #[test]
        fn one_pass_agrees_with_the_two_pass_reference(
            refs in collection::vec((0usize..NCLASSES, 0u64..4, 0u64..2048, 0u32..3), 0..400),
        ) {
            let mut trace = Trace::new(0);
            for (class, region, offset, busy) in refs {
                if busy == 0 {
                    trace.events.push(Event::busy(7));
                }
                let addr = region * 0x10_0000 + offset;
                trace.events.push(Event::reference(MemRef::load(addr, 1, DataClass::ALL[class])));
            }
            for line_size in [16, 64, 256] {
                prop_assert_eq!(
                    format!("{:?}", analyze(&trace, line_size)),
                    format!("{:?}", analyze_reference(&trace, line_size))
                );
            }
        }
    }
}
