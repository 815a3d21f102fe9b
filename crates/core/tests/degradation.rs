//! Graceful degradation of the sweep pipeline: a failed sweep point becomes
//! a structured [`PointError`] instead of an aborted run.
//!
//! These tests drive the fault path end to end through the public API: the
//! sabotage hook panics one labeled point, the deadline watchdog times
//! points out, and fail-soft mode must (a) complete every healthy point,
//! (b) classify every failure, and (c) change nothing at all when no fault
//! fires.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use dss_core::{config_fingerprint, CheckpointJournal, PointCause, Workbench};
use dss_query::DbConfig;

fn config() -> DbConfig {
    DbConfig {
        scale: 0.001,
        nbuffers: 1024,
        ..DbConfig::default()
    }
}

/// A tiny workbench: big enough to sweep, small enough to build per test.
fn wb() -> Workbench {
    Workbench::new(&config(), 2).with_jobs(2)
}

#[test]
fn sabotaged_point_degrades_not_aborts() {
    let mut wb = wb();
    wb.set_fail_soft(true);
    wb.set_sabotage(Some("fig8/Q6/l2_line=64".into()));
    let points = wb.line_size_sweep(6);
    // The four healthy points completed; only the sabotaged one is missing.
    assert_eq!(points.len(), 4, "remaining points still ran");
    assert!(
        points.iter().all(|p| p.l2_line != 64),
        "the sabotaged point is skipped, not fabricated"
    );
    let errors = wb.take_point_errors();
    assert_eq!(errors.len(), 1);
    assert_eq!(errors[0].site, "fig8/Q6/l2_line=64");
    assert_eq!(errors[0].seed, 0);
    match &errors[0].cause {
        PointCause::Panicked(msg) => assert!(msg.contains("injected"), "payload kept: {msg}"),
        other => panic!("expected a panic classification, got {other:?}"),
    }
    // Drained: a second read is clean.
    assert_eq!(wb.point_error_count(), 0);
}

#[test]
fn zero_deadline_times_every_point_out() {
    let mut wb = wb();
    wb.set_fail_soft(true);
    wb.set_point_deadline(Some(Duration::ZERO));
    assert!(
        wb.line_size_sweep(6).is_empty(),
        "every result is discarded"
    );
    let errors = wb.take_point_errors();
    assert_eq!(errors.len(), 5);
    assert!(errors
        .iter()
        .all(|e| matches!(e.cause, PointCause::TimedOut { limit_ms: 0 })));
    // Lifting the deadline restores the full sweep on the same workbench.
    wb.set_point_deadline(None);
    assert_eq!(wb.line_size_sweep(6).len(), 5);
}

#[test]
fn fail_hard_mode_still_propagates_the_panic() {
    let mut wb = wb();
    wb.set_sabotage(Some("fig8/Q6/l2_line=32".into()));
    let result = catch_unwind(AssertUnwindSafe(|| wb.line_size_sweep(6)));
    let payload = result.expect_err("fail-hard sweeps abort on a faulty point");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(
        msg.contains("injected"),
        "original payload re-raised: {msg}"
    );
    assert_eq!(wb.point_error_count(), 0, "fail-hard records nothing");
}

#[test]
fn fail_soft_without_faults_is_bit_identical() {
    let mut wb = wb();
    let hard: Vec<_> = wb.line_size_sweep(6).into_iter().map(|p| p.stats).collect();
    wb.set_fail_soft(true);
    wb.set_point_deadline(Some(Duration::from_secs(3600)));
    let soft: Vec<_> = wb.line_size_sweep(6).into_iter().map(|p| p.stats).collect();
    assert_eq!(hard, soft, "fail-soft mode must not perturb results");
    assert_eq!(wb.point_error_count(), 0);
}

#[test]
fn sabotaged_reuse_arm_is_recorded_and_the_other_arms_are_journaled() {
    let dir = std::env::temp_dir().join(format!("dss-degrade-fig12-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let manifest = dir.join("manifest.ckpt");
    let fp = config_fingerprint(&config(), 2);

    let mut wb = wb();
    wb.set_checkpoint(CheckpointJournal::create(&manifest, fp).expect("journal"));
    wb.set_fail_soft(true);
    wb.set_sabotage(Some("fig12/Q3v12/warm_same".into()));
    // Figure 12 needs all three arms, so the experiment itself is abandoned…
    catch_unwind(AssertUnwindSafe(|| wb.reuse_experiment(3, 12)))
        .expect_err("an incomplete comparison is not returned");
    // …but only after the failure was recorded and the healthy arms ran.
    let errors = wb.take_point_errors();
    assert_eq!(errors.len(), 1);
    assert_eq!(errors[0].site, "fig12/Q3v12/warm_same");
    assert!(matches!(&errors[0].cause, PointCause::Panicked(m) if m.contains("injected")));
    assert_eq!(
        wb.take_checkpoint_counts(),
        (0, 2),
        "cold and warm_other computed"
    );
    assert_eq!(
        CheckpointJournal::resume(&manifest, fp)
            .expect("journal reopens")
            .replayed(),
        2,
        "and journaled, so a resume only redoes the sabotaged arm"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
