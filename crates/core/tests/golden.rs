//! Golden-stats regression test for the simulator.
//!
//! The hot-path work in `dss-memsim` (paged miss-classification history, flat
//! directory, heap scheduler) is only legitimate if it is *stats-invisible*:
//! the simulator must produce the same `SimStats` to the last cycle. This
//! test pins the `baseline_suite` miss matrices and per-class stall totals
//! for the three studied queries against literals captured from the
//! pre-rewrite simulator, so any future change that shifts a single count or
//! cycle fails loudly. A second test pins a digest of the whole `SimStats`
//! of one point per other geometry the figures sweep (line sizes, cache
//! sizes, warm caches, prefetching, MESI, fewer processors).
//!
//! Both tables are `const`s that a failure prints the replacement for: a
//! snapshot mismatch prints the measured `QuerySnapshot` literal, a digest
//! mismatch the whole `POINT_DIGESTS` table. If a change is *meant* to alter
//! simulation results, paste it over the old one and say so in the commit.

use dss_core::{Workbench, STUDIED_QUERIES};
use dss_memsim::MissKind;
use dss_trace::DataClass;

const KINDS: [MissKind; 3] = [MissKind::Cold, MissKind::Conflict, MissKind::Coherence];

/// One query's pinned numbers: totals, miss matrices over
/// `DataClass::ALL` × cold/conflict/coherence, and per-class stalls.
#[derive(Debug, PartialEq, Eq)]
struct QuerySnapshot {
    query: u8,
    exec_cycles: u64,
    busy: u64,
    mem_stall: u64,
    msync: u64,
    l1_read_accesses: u64,
    l1_write_accesses: u64,
    l1_write_misses: u64,
    l2_read_accesses: u64,
    l2_write_accesses: u64,
    l2_write_misses: u64,
    l1_read_misses: [[u64; 3]; 10],
    l2_read_misses: [[u64; 3]; 10],
    stall_by_class: [u64; 10],
}

/// Captured from the seed simulator at the commit introducing this test,
/// `Workbench::small()` with one job.
const SNAPSHOTS: [QuerySnapshot; 3] = [
    QuerySnapshot {
        query: 3,
        exec_cycles: 16210682,
        busy: 30764052,
        mem_stall: 18446983,
        msync: 3608586,
        l1_read_accesses: 464441,
        l1_write_accesses: 186300,
        l1_write_misses: 73583,
        l2_read_accesses: 229311,
        l2_write_accesses: 90457,
        l2_write_misses: 12138,
        l1_read_misses: [
            [1461, 106506, 0],
            [34044, 125, 0],
            [16332, 21908, 0],
            [1762, 4875, 1259],
            [3158, 14078, 0],
            [24, 6911, 1498],
            [24, 5354, 1418],
            [3, 70, 3052],
            [1, 188, 5260],
            [0, 0, 0],
        ],
        l2_read_misses: [
            [1348, 1917, 0],
            [22844, 83, 0],
            [10428, 4934, 0],
            [1762, 1009, 3968],
            [2218, 3468, 0],
            [24, 569, 2527],
            [24, 101, 1372],
            [3, 0, 3122],
            [1, 36, 5412],
            [0, 0, 0],
        ],
        stall_by_class: [
            1951613, 4938746, 3564872, 2025403, 1378717, 1024198, 546129, 569118, 2448187, 0,
        ],
    },
    QuerySnapshot {
        query: 6,
        exec_cycles: 26699603,
        busy: 58618731,
        mem_stall: 46798498,
        msync: 65988,
        l1_read_accesses: 1679485,
        l1_write_accesses: 594529,
        l1_write_misses: 192010,
        l2_read_accesses: 673869,
        l2_write_accesses: 193930,
        l2_write_misses: 4053,
        l1_read_misses: [
            [388, 444297, 0],
            [219432, 4261, 0],
            [0, 0, 0],
            [1628, 0, 0],
            [2896, 820, 0],
            [4, 8, 0],
            [4, 5, 3],
            [3, 0, 3],
            [1, 52, 64],
            [0, 0, 0],
        ],
        l2_read_misses: [
            [352, 2017, 0],
            [180424, 0, 0],
            [0, 0, 0],
            [1628, 0, 0],
            [2104, 140, 0],
            [4, 2, 6],
            [4, 5, 3],
            [3, 0, 3],
            [1, 0, 116],
            [0, 0, 0],
        ],
        stall_by_class: [
            7287005, 37994966, 0, 479314, 487499, 3533, 2854, 2333, 540994, 0,
        ],
    },
    QuerySnapshot {
        query: 12,
        exec_cycles: 38594139,
        busy: 89780204,
        mem_stall: 60671480,
        msync: 2576554,
        l1_read_accesses: 2285326,
        l1_write_accesses: 677101,
        l1_write_misses: 243936,
        l2_read_accesses: 913692,
        l2_write_accesses: 261616,
        l2_write_misses: 11590,
        l1_read_misses: [
            [979, 511225, 0],
            [325141, 3813, 0],
            [6351, 22918, 0],
            [2014, 2752, 2249],
            [3478, 11827, 0],
            [12, 5277, 1579],
            [12, 5799, 1498],
            [3, 110, 5198],
            [1, 136, 1320],
            [0, 0, 0],
        ],
        l2_read_misses: [
            [888, 5827, 0],
            [199290, 8, 0],
            [4112, 355, 0],
            [2014, 13, 4035],
            [2400, 638, 0],
            [12, 700, 3087],
            [12, 700, 3044],
            [3, 4, 5304],
            [1, 3, 1453],
            [0, 0, 0],
        ],
        stall_by_class: [
            8651705, 43280456, 1317300, 1934003, 823618, 1200064, 1191389, 567458, 1705487, 0,
        ],
    },
];

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 of a point's `format!("{stats:?}")`: every field of `SimStats`.
fn digest(stats: &dss_memsim::SimStats) -> u64 {
    format!("{stats:?}").bytes().fold(FNV_OFFSET, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

/// One sweep point per geometry the simulator's specialized paths serve
/// beyond the baseline machine: the smallest and largest lines, the largest
/// caches, a warmed machine, prefetching, MESI and a two-processor machine.
/// Captured on the parent of PR 26 before any hot-path edit,
/// `Workbench::small()` with one job.
const POINT_DIGESTS: [(&str, u64); 7] = [
    ("fig8/Q6/l2_line=16", 0xaf57cf8e66d07797),
    ("fig8/Q6/l2_line=256", 0x7a1e09aac9571589),
    ("fig10/Q12/l1_kb=256_l2_kb=8192", 0xbd5ffe8850037f9a),
    ("fig12/Q3v12/warm_same", 0xd0e9e8cf42d92133),
    ("fig13/Q3/prefetch=4", 0x30c6468e09d470b1),
    ("protocol/Q12/mesi", 0x92873effa6be56b7),
    ("scaling/Q3/nprocs=2", 0x8f93f2b42978b679),
];

fn matrix(m: &dss_memsim::MissMatrix) -> [[u64; 3]; 10] {
    let mut out = [[0u64; 3]; 10];
    for (row, c) in out.iter_mut().zip(DataClass::ALL.iter()) {
        for (cell, k) in row.iter_mut().zip(KINDS.iter()) {
            *cell = m.get(*c, *k);
        }
    }
    out
}

#[test]
fn baseline_suite_matches_pinned_snapshots() {
    let mut wb = Workbench::small().with_jobs(1);
    let results = wb.baseline_suite(&STUDIED_QUERIES);
    assert_eq!(results.len(), SNAPSHOTS.len());
    for (b, want) in results.iter().zip(SNAPSHOTS.iter()) {
        let s = &b.stats;
        let mut stall_by_class = [0u64; 10];
        for (cell, c) in stall_by_class.iter_mut().zip(DataClass::ALL.iter()) {
            *cell = s.total(|p| p.stall_of(*c));
        }
        let got = QuerySnapshot {
            query: b.query,
            exec_cycles: s.exec_cycles(),
            busy: s.total(|p| p.busy),
            mem_stall: s.total(|p| p.mem_stall),
            msync: s.total(|p| p.msync),
            l1_read_accesses: s.l1.read_accesses,
            l1_write_accesses: s.l1.write_accesses,
            l1_write_misses: s.l1.write_misses,
            l2_read_accesses: s.l2.read_accesses,
            l2_write_accesses: s.l2.write_accesses,
            l2_write_misses: s.l2.write_misses,
            l1_read_misses: matrix(&s.l1.read_misses),
            l2_read_misses: matrix(&s.l2.read_misses),
            stall_by_class,
        };
        assert!(
            got == *want,
            "Q{} diverged from the pinned snapshot; this tree simulates:\n{got:#?},",
            b.query
        );
    }
}

#[test]
fn geometry_points_match_pinned_digests() {
    let mut wb = Workbench::small().with_jobs(1);
    let line = |points: &[dss_core::experiments::LinePoint], l2_line| {
        let p = points.iter().find(|p| p.l2_line == l2_line);
        digest(&p.expect("line point").stats)
    };
    let fig8 = wb.line_size_sweep(6);
    let fig10 = wb.cache_size_sweep(12);
    let big = fig10.iter().find(|p| (p.l1_kb, p.l2_kb) == (256, 8192));
    let scaling = wb.processor_sweep(3);
    let two = scaling.iter().find(|(n, _)| *n == 2);
    let actual = [
        line(&fig8, 16),
        line(&fig8, 256),
        digest(&big.expect("256 K / 8 M point").stats),
        digest(&wb.reuse_experiment(3, 12).warm_same),
        digest(&wb.prefetch_experiment(3).opt),
        digest(&wb.protocol_ablation(12).mesi),
        digest(&two.expect("two-processor point").1),
    ];
    let table: String = POINT_DIGESTS
        .iter()
        .zip(actual)
        .map(|((label, _), d)| format!("    ({label:?}, {d:#018x}),\n"))
        .collect();
    assert!(
        POINT_DIGESTS.iter().map(|(_, d)| *d).eq(actual),
        "a sweep point's stats moved; this tree simulates:\n{table}"
    );
}
