//! Cold-point reuse: a sweep point with no warm-up is a pure function of its
//! trace set and its machine, so a workbench that has simulated it under one
//! figure's label serves it from memory under another's — with the same
//! value a fresh simulation returns, at any job count and in either trace
//! mode, and without hiding the point from the journal.

use std::path::PathBuf;

use dss_core::{config_fingerprint, CheckpointJournal, SweepTally, Workbench};
use dss_memsim::SimStats;
use dss_query::DbConfig;

fn config() -> DbConfig {
    DbConfig {
        scale: 0.001,
        nbuffers: 1024,
        ..DbConfig::default()
    }
}

#[expect(clippy::unwrap_used, reason = "scratch directories must exist")]
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dss-reuse-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A fresh two-processor workbench, replaying block files under `trace_dir`
/// if there is one.
fn wb(jobs: usize, trace_dir: Option<PathBuf>) -> Workbench {
    let mut wb = Workbench::new(&config(), 2).with_jobs(jobs);
    if let Some(dir) = trace_dir {
        wb.set_trace_dir(dir);
    }
    wb
}

/// `(loaded, reused, computed)` since the last drain.
fn counts(wb: &mut Workbench) -> (u64, u64, u64) {
    let SweepTally {
        points_loaded,
        points_reused,
        points_computed,
        ..
    } = wb.take_tally();
    (points_loaded, points_reused, points_computed)
}

/// Figures 8, 10 and 13 for Q6, as the stats of their eleven points in order.
fn three_figures(wb: &mut [Workbench; 3]) -> Vec<SimStats> {
    let [lines, sizes, prefetch] = wb;
    let pair = prefetch.prefetch_experiment(6);
    let mut stats: Vec<SimStats> = lines
        .line_size_sweep(6)
        .into_iter()
        .map(|p| p.stats)
        .collect();
    stats.extend(sizes.cache_size_sweep(6).into_iter().map(|p| p.stats));
    stats.extend([pair.base, pair.opt]);
    stats
}

#[test]
fn one_workbench_equals_three_and_simulates_the_baseline_once() {
    let dir = temp_dir("figures");
    for (jobs, streamed) in [(1, false), (4, false), (1, true), (4, true)] {
        let mut fresh = ["lines", "sizes", "prefetch", "all"]
            .map(|tag| wb(jobs, streamed.then(|| dir.join(format!("{tag}-{jobs}")))));
        let [fresh @ .., one] = &mut fresh;
        let expected = three_figures(fresh);
        for wb in fresh {
            assert_eq!(counts(wb).1, 0, "a lone figure has nothing to reuse");
        }

        let lines = one.line_size_sweep(6);
        assert_eq!(counts(one), (0, 0, 5));
        let sizes = one.cache_size_sweep(6);
        assert_eq!(counts(one), (0, 1, 3), "the 4 KB / 128 KB point");
        let pair = one.prefetch_experiment(6);
        assert_eq!(counts(one), (0, 1, 1), "the prefetch=0 point");

        let mut got: Vec<SimStats> = lines.into_iter().map(|p| p.stats).collect();
        got.extend(sizes.into_iter().map(|p| p.stats));
        got.extend([pair.base, pair.opt]);
        assert_eq!(got, expected, "jobs={jobs} streamed={streamed}");
        // The three baseline-machine points are one value.
        assert_eq!(got[2], got[5]);
        assert_eq!(got[2], got[9]);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_reused_point_is_journaled_under_its_own_label() {
    let dir = temp_dir("journal");
    let manifest = dir.join("manifest.ckpt");
    let fp = config_fingerprint(&config(), 2);

    let mut first = wb(2, None);
    first.set_checkpoint(CheckpointJournal::create(&manifest, fp).unwrap());
    let lines = first.line_size_sweep(6);
    let sizes = first.cache_size_sweep(6);
    assert_eq!(counts(&mut first), (0, 1, 8));
    let text = std::fs::read_to_string(&manifest).unwrap();
    assert_eq!(text.lines().count(), 1 + 9, "header plus every point");
    assert!(text.contains("pt fig10/Q6/l1_kb=4_l2_kb=128 "));

    // A resumed run finds the reused label like any other; run in the other
    // order, it has nothing left to reuse or compute.
    let journal = CheckpointJournal::resume(&manifest, fp).unwrap();
    assert_eq!(journal.replayed(), 9);
    let mut resumed = wb(2, None);
    resumed.set_checkpoint(journal);
    let sizes_again = resumed.cache_size_sweep(6);
    assert_eq!(counts(&mut resumed), (4, 0, 0));
    let lines_again = resumed.line_size_sweep(6);
    assert_eq!(counts(&mut resumed), (5, 0, 0));
    for (a, b) in sizes.iter().zip(&sizes_again) {
        assert_eq!(a.stats, b.stats);
    }
    for (a, b) in lines.iter().zip(&lines_again) {
        assert_eq!(a.stats, b.stats);
    }
    // A journal-loaded cold point feeds the store too: a label the journal
    // never saw is served from memory.
    let pair = resumed.prefetch_experiment(6);
    assert_eq!(counts(&mut resumed), (0, 1, 1));
    assert_eq!(pair.base, lines[2].stats);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warmed_arms_are_always_simulated() {
    let mut wb = wb(2, None);
    let _ = wb.baseline_suite(&[3, 6]);
    let first = wb.reuse_experiment(6, 3);
    assert_eq!(counts(&mut wb), (0, 0, 5), "no arm is a baseline point");
    // Only the cold arm is a function of its traces and machine alone.
    let again = wb.reuse_experiment(6, 3);
    assert_eq!(counts(&mut wb), (0, 1, 2));
    assert_eq!(first.cold, again.cold);
    assert_eq!(first.warm_same, again.warm_same);
    assert_eq!(first.warm_other, again.warm_other);
}
