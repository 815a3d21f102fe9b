//! Simulation statistics: everything the paper's figures report.

use std::collections::BTreeMap;

use dss_trace::{DataClass, DataGroup};

use crate::cache::MissKind;

/// Number of data classes.
pub(crate) const NCLASSES: usize = DataClass::ALL.len();

fn kind_index(k: MissKind) -> usize {
    match k {
        MissKind::Cold => 0,
        MissKind::Conflict => 1,
        MissKind::Coherence => 2,
    }
}

/// Per-class, per-kind miss counters for one cache level.
///
/// Stored inline as a fixed array (not a `Vec`): the counters are part of
/// every [`SimStats`], and keeping them allocation-free lets a warmed
/// [`crate::Machine`] fill a caller-owned `SimStats` without touching the
/// heap (the property `dss-check`'s `paper_scale` test measures).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MissMatrix {
    counts: [[u64; 3]; NCLASSES],
}

impl MissMatrix {
    pub(crate) fn add(&mut self, class: DataClass, kind: MissKind) {
        self.counts[class.index()][kind_index(kind)] += 1;
    }

    /// Misses of `class` and `kind`.
    pub fn get(&self, class: DataClass, kind: MissKind) -> u64 {
        self.counts[class.index()][kind_index(kind)]
    }

    /// All misses of `class`.
    pub fn by_class(&self, class: DataClass) -> u64 {
        self.counts[class.index()].iter().sum()
    }

    /// All misses of classes in `group`.
    pub fn by_group(&self, group: DataGroup) -> u64 {
        DataClass::ALL
            .iter()
            .filter(|c| c.group() == group)
            .map(|c| self.by_class(*c))
            .sum()
    }

    /// Misses of `group` and `kind`.
    pub fn by_group_kind(&self, group: DataGroup, kind: MissKind) -> u64 {
        DataClass::ALL
            .iter()
            .filter(|c| c.group() == group)
            .map(|c| self.get(*c, kind))
            .sum()
    }

    /// Total misses.
    pub fn total(&self) -> u64 {
        self.counts.iter().flatten().sum()
    }

    /// Adds another matrix's counts into this one.
    pub fn merge(&mut self, other: &MissMatrix) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        }
    }
}

/// Counters for one cache level, aggregated across processors.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LevelStats {
    /// Load references reaching this level.
    pub read_accesses: u64,
    /// Store references reaching this level.
    pub write_accesses: u64,
    /// Load misses, classified.
    pub read_misses: MissMatrix,
    /// Store misses (unclassified; the paper's Figure 7 reports read misses).
    pub write_misses: u64,
}

impl LevelStats {
    /// Read miss rate at this level (misses over accesses at this level).
    pub fn read_miss_rate(&self) -> f64 {
        if self.read_accesses == 0 {
            0.0
        } else {
            self.read_misses.total() as f64 / self.read_accesses as f64
        }
    }

    /// Adds another level's counters into this one.
    pub fn merge(&mut self, other: &LevelStats) {
        self.read_accesses += other.read_accesses;
        self.write_accesses += other.write_accesses;
        self.read_misses.merge(&other.read_misses);
        self.write_misses += other.write_misses;
    }
}

/// Per-processor timing, with memory stall attributed per data class (the
/// paper's Figure 6(b) decomposition).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProcStats {
    /// Final clock value.
    pub cycles: u64,
    /// Cycles doing non-stalled work (the paper's Busy).
    pub busy: u64,
    /// Cycles stalled on memory (the paper's Mem), including write-buffer
    /// overflow.
    pub mem_stall: u64,
    /// Cycles spinning on metalocks (the paper's MSync).
    pub msync: u64,
    /// Memory stall per data class.
    pub(crate) stall_by_class: [u64; NCLASSES],
}

impl ProcStats {
    /// Memory stall attributed to `class`.
    pub fn stall_of(&self, class: DataClass) -> u64 {
        self.stall_by_class[class.index()]
    }

    /// Memory stall attributed to `group`.
    pub fn stall_of_group(&self, group: DataGroup) -> u64 {
        DataClass::ALL
            .iter()
            .filter(|c| c.group() == group)
            .map(|c| self.stall_of(*c))
            .sum()
    }

    /// Stall on private data (the paper's PMem).
    pub fn pmem(&self) -> u64 {
        self.stall_of_group(DataGroup::Priv)
    }

    /// Stall on shared data (the paper's SMem).
    pub fn smem(&self) -> u64 {
        self.mem_stall - self.pmem()
    }
}

/// Full results of one simulation run.
///
/// Equality is exact and field-by-field, so tests can assert that a parallel
/// experiment harness reproduces its serial results bit for bit.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Per-processor timing.
    pub procs: Vec<ProcStats>,
    /// Primary-cache counters (all processors).
    pub l1: LevelStats,
    /// Secondary-cache counters (all processors).
    pub l2: LevelStats,
    /// Prefetches issued (when prefetching is enabled).
    pub prefetches_issued: u64,
    /// Prefetched lines that were actually filled.
    pub prefetches_filled: u64,
}

impl SimStats {
    /// Execution time: the slowest processor's cycle count.
    pub fn exec_cycles(&self) -> u64 {
        self.procs.iter().map(|p| p.cycles).max().unwrap_or(0)
    }

    /// Sum of a per-processor field across processors.
    pub fn total<F: Fn(&ProcStats) -> u64>(&self, f: F) -> u64 {
        self.procs.iter().map(f).sum()
    }

    /// Aggregate busy / mem / msync fractions of total processor cycles.
    pub fn time_breakdown(&self) -> TimeBreakdown {
        let cycles = self.total(|p| p.cycles).max(1);
        TimeBreakdown {
            busy: self.total(|p| p.busy) as f64 / cycles as f64,
            mem: self.total(|p| p.mem_stall) as f64 / cycles as f64,
            msync: self.total(|p| p.msync) as f64 / cycles as f64,
        }
    }

    /// Aggregate memory-stall cycles per class across processors.
    pub fn stall_by_class(&self) -> BTreeMap<DataClass, u64> {
        DataClass::ALL
            .iter()
            .map(|c| (*c, self.total(|p| p.stall_of(*c))))
            .collect()
    }

    /// The paper's "global" L2 read miss rate: L2 read misses over all load
    /// references issued by the processors.
    pub fn l2_global_read_miss_rate(&self) -> f64 {
        if self.l1.read_accesses == 0 {
            0.0
        } else {
            self.l2.read_misses.total() as f64 / self.l1.read_accesses as f64
        }
    }

    /// Serializes every counter into a compact, whitespace-free record for
    /// the experiment checkpoint journal: the processor count, a `;`, then
    /// all `u64` counters comma-separated in a fixed field order. The
    /// matching [`SimStats::from_record`] restores an exactly equal value
    /// (`==` is field-by-field), which is what lets a resumed sweep re-render
    /// byte-identical output from journaled results.
    pub fn to_record(&self) -> String {
        let mut vals: Vec<u64> = Vec::new();
        for p in &self.procs {
            vals.extend([p.cycles, p.busy, p.mem_stall, p.msync]);
            vals.extend(p.stall_by_class);
        }
        for level in [&self.l1, &self.l2] {
            vals.extend([
                level.read_accesses,
                level.write_accesses,
                level.write_misses,
            ]);
            for row in &level.read_misses.counts {
                vals.extend(row);
            }
        }
        vals.extend([self.prefetches_issued, self.prefetches_filled]);
        let body: Vec<String> = vals.iter().map(|v| v.to_string()).collect();
        format!("{};{}", self.procs.len(), body.join(","))
    }

    /// Parses a record produced by [`SimStats::to_record`]. Returns `None`
    /// for anything malformed — wrong field count, non-numeric values, an
    /// impossible processor count — so a torn or hand-edited journal line is
    /// rejected rather than replayed as different results.
    pub fn from_record(record: &str) -> Option<SimStats> {
        let (nprocs, body) = record.split_once(';')?;
        let nprocs: usize = nprocs.parse().ok()?;
        // One sweep point simulates at most a machine's worth of processors;
        // a huge count here is corruption, not data.
        if nprocs > 1 << 16 {
            return None;
        }
        let per_proc = 4 + NCLASSES;
        let per_level = 3 + NCLASSES * 3;
        let expected = nprocs * per_proc + 2 * per_level + 2;
        let mut vals = Vec::with_capacity(expected);
        for field in body.split(',') {
            vals.push(field.parse::<u64>().ok()?);
        }
        if vals.len() != expected {
            return None;
        }
        let mut it = vals.into_iter();
        let mut next = || it.next().unwrap_or(0);
        let mut stats = SimStats::default();
        for _ in 0..nprocs {
            let mut p = ProcStats {
                cycles: next(),
                busy: next(),
                mem_stall: next(),
                msync: next(),
                ..Default::default()
            };
            for slot in &mut p.stall_by_class {
                *slot = next();
            }
            stats.procs.push(p);
        }
        for level in [&mut stats.l1, &mut stats.l2] {
            level.read_accesses = next();
            level.write_accesses = next();
            level.write_misses = next();
            for row in &mut level.read_misses.counts {
                for cell in row {
                    *cell = next();
                }
            }
        }
        stats.prefetches_issued = next();
        stats.prefetches_filled = next();
        Some(stats)
    }
}

/// Fractions of total processor time (sums to ~1.0).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimeBreakdown {
    /// Busy fraction.
    pub busy: f64,
    /// Memory-stall fraction.
    pub mem: f64,
    /// Metalock-synchronization fraction.
    pub msync: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_matrix_accumulates_and_groups() {
        let mut m = MissMatrix::default();
        m.add(DataClass::Data, MissKind::Cold);
        m.add(DataClass::Data, MissKind::Cold);
        m.add(DataClass::LockMgrLock, MissKind::Coherence);
        m.add(DataClass::BufDesc, MissKind::Conflict);
        assert_eq!(m.get(DataClass::Data, MissKind::Cold), 2);
        assert_eq!(m.by_class(DataClass::Data), 2);
        assert_eq!(m.by_group(DataGroup::Metadata), 2);
        assert_eq!(m.by_group_kind(DataGroup::Metadata, MissKind::Coherence), 1);
        assert_eq!(m.total(), 4);
    }

    #[test]
    fn proc_stats_split_pmem_smem() {
        let mut p = ProcStats::default();
        p.stall_by_class[DataClass::PrivHeap.index()] = 30;
        p.stall_by_class[DataClass::Data.index()] = 50;
        p.stall_by_class[DataClass::Index.index()] = 20;
        p.mem_stall = 100;
        assert_eq!(p.pmem(), 30);
        assert_eq!(p.smem(), 70);
        assert_eq!(p.stall_of_group(DataGroup::Data), 50);
    }

    #[test]
    fn breakdown_fractions() {
        let stats = SimStats {
            procs: vec![
                ProcStats {
                    cycles: 100,
                    busy: 60,
                    mem_stall: 30,
                    msync: 10,
                    ..Default::default()
                },
                ProcStats {
                    cycles: 100,
                    busy: 50,
                    mem_stall: 40,
                    msync: 10,
                    ..Default::default()
                },
            ],
            ..Default::default()
        };
        let b = stats.time_breakdown();
        assert!((b.busy - 0.55).abs() < 1e-9);
        assert!((b.mem - 0.35).abs() < 1e-9);
        assert!((b.msync - 0.10).abs() < 1e-9);
        assert_eq!(stats.exec_cycles(), 100);
    }

    #[test]
    fn miss_rates_guard_against_zero() {
        let l = LevelStats::default();
        assert_eq!(l.read_miss_rate(), 0.0);
        let s = SimStats::default();
        assert_eq!(s.l2_global_read_miss_rate(), 0.0);
    }

    fn nontrivial_stats() -> SimStats {
        let mut stats = SimStats {
            prefetches_issued: 17,
            prefetches_filled: 11,
            ..Default::default()
        };
        for i in 0..3u64 {
            let mut p = ProcStats {
                cycles: 1000 + i,
                busy: 600 + i,
                mem_stall: 300,
                msync: 100,
                ..Default::default()
            };
            for (c, slot) in p.stall_by_class.iter_mut().enumerate() {
                *slot = i * 100 + c as u64;
            }
            stats.procs.push(p);
        }
        stats.l1.read_accesses = 123_456;
        stats.l1.write_accesses = 7_890;
        stats.l1.write_misses = 42;
        stats.l2.read_accesses = 9_876;
        for class in DataClass::ALL {
            stats.l1.read_misses.add(class, MissKind::Cold);
            stats.l2.read_misses.add(class, MissKind::Conflict);
            stats.l2.read_misses.add(class, MissKind::Coherence);
        }
        stats
    }

    #[test]
    fn record_roundtrip_is_exact() {
        for stats in [SimStats::default(), nontrivial_stats()] {
            let record = stats.to_record();
            assert!(
                !record.contains(char::is_whitespace),
                "journal records must be whitespace-free: {record:?}"
            );
            assert_eq!(SimStats::from_record(&record), Some(stats));
        }
    }

    #[test]
    fn malformed_records_are_rejected_not_misread() {
        let good = nontrivial_stats().to_record();
        let torn = &good[..good.len() / 2];
        let extra = format!("{good},5");
        let junk = format!("{good}x");
        for bad in [
            "",
            ";",
            "3",
            "not-a-number;1,2,3",
            "99999999999999999999;1",
            torn,
            extra.as_str(),
            junk.as_str(),
        ] {
            assert_eq!(SimStats::from_record(bad), None, "accepted {bad:?}");
        }
    }
}
