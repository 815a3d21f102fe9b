//! Determinism regression tests for the parallel experiment harness: any
//! `--jobs` value must reproduce the serial results bit for bit, and the
//! shared-trace cache must record each set once however sweeps use it.
//! Each side of a comparison gets its own workbench: a second identical
//! sweep on one workbench is served from memory (`tests/point_reuse.rs`),
//! not simulated.

use std::sync::Arc;

use dss_core::{TraceMode, Workbench};

#[test]
fn q6_line_size_sweep_is_job_count_invariant() {
    let serial = Workbench::small().with_jobs(1).line_size_sweep(6);
    let parallel = Workbench::small().with_jobs(4).line_size_sweep(6);

    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.l2_line, p.l2_line);
        assert_eq!(s.stats, p.stats, "jobs=4 diverged at l2_line={}", s.l2_line);
    }
}

#[test]
fn processor_sweep_runs_each_prefix_at_any_job_count() {
    let serial = Workbench::small().with_jobs(1).processor_sweep(6);
    for (n, stats) in &serial {
        let active = stats.procs.iter().filter(|p| p.cycles > 0).count();
        assert_eq!(
            (stats.procs.len(), active),
            (*n, *n),
            "the {n}-processor point replays the leading {n} traces"
        );
    }
    let parallel = Workbench::small().with_jobs(3).processor_sweep(6);
    assert_eq!(serial, parallel, "jobs=3 diverged");
}

#[test]
fn block_file_sweep_matches_the_materialized_one_at_any_job_count() {
    let materialized = Workbench::small().with_jobs(1).line_size_sweep(6);

    let dir = std::env::temp_dir().join(format!("dss-parallel-trb-{}", std::process::id()));
    for jobs in [1, 4] {
        let mut wb = Workbench::small().with_jobs(jobs);
        wb.set_trace_dir(dir.join(jobs.to_string()));
        wb.set_trace_mode(TraceMode::Streamed);
        let streamed = wb.line_size_sweep(6);
        assert_eq!(wb.take_tally().points_computed, 5);
        assert_eq!(materialized.len(), streamed.len());
        for (m, s) in materialized.iter().zip(&streamed) {
            assert_eq!(m.l2_line, s.l2_line);
            assert_eq!(
                m.stats, s.stats,
                "block files at jobs={jobs} diverged at l2_line={}",
                m.l2_line
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_cache_stays_bounded_under_method_sweeps() {
    // The cache is bounded by the sets a run uses: each is recorded once.
    let mut wb = Workbench::small();
    let held = [wb.traces(3, 0), wb.traces(6, 0), wb.traces(12, 0)];
    // Two more sets, (3, 1000) and (12, 1000): five in all, and none of
    // the first three is recorded again.
    let _ = wb.baseline_suite(&[3, 6, 12]);
    let _ = wb.reuse_experiment(3, 12);
    for (set, q) in held.iter().zip([3, 6, 12]) {
        assert!(
            Arc::ptr_eq(set, &wb.traces(q, 0)),
            "Q{q}'s set was recorded again"
        );
    }
}

#[test]
fn parallel_sweeps_record_compute_time() {
    let mut wb = Workbench::small().with_jobs(2);
    let _ = wb.take_tally();
    let _ = wb.line_size_sweep(6);
    assert!(wb.take_tally().compute.as_nanos() > 0);
    // Taking the tally resets it.
    assert_eq!(wb.take_tally().compute.as_nanos(), 0);
}

#[test]
fn reuse_experiment_records_compute_time() {
    let mut wb = Workbench::small().with_jobs(2);
    let _ = wb.take_tally();
    let _ = wb.reuse_experiment(6, 3);
    assert!(
        wb.take_tally().compute.as_nanos() > 0,
        "fig12's arms run through the instrumented point runner"
    );
}
