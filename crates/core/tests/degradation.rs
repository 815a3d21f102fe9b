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

use dss_core::{
    config_fingerprint, CheckpointJournal, PointCause, PointError, SweepTally, Workbench,
};
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
    let errors = wb.take_tally().errors;
    assert_eq!(errors.len(), 1);
    assert_eq!(errors[0].site, "fig8/Q6/l2_line=64");
    assert_eq!(errors[0].seed, 0);
    match &errors[0].cause {
        PointCause::Panicked(msg) => assert!(msg.contains("injected"), "payload kept: {msg}"),
        other => panic!("expected a panic classification, got {other:?}"),
    }
    // Drained: a second read is clean.
    assert!(wb.take_tally().errors.is_empty());
}

#[test]
fn one_tally_carries_errors_compute_and_counts_together() {
    let dir = std::env::temp_dir().join(format!("dss-degrade-tally-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let manifest = dir.join("manifest.ckpt");
    let fp = config_fingerprint(&config(), 2);

    // Journal two of the five points, as an interrupted earlier run would.
    let mut first = wb();
    first.set_checkpoint(CheckpointJournal::create(&manifest, fp).expect("journal"));
    let _ = first.line_size_sweep(6);
    let text = std::fs::read_to_string(&manifest).expect("manifest");
    let keep: Vec<&str> = text.lines().take(3).collect();
    std::fs::write(&manifest, format!("{}\n", keep.join("\n"))).expect("tear");
    let journal = CheckpointJournal::resume(&manifest, fp).expect("journal reopens");
    assert_eq!(journal.replayed(), 2);

    let mut wb = wb();
    wb.set_checkpoint(journal);
    wb.set_fail_soft(true);
    wb.set_sabotage(Some("fig8/Q6/l2_line=256".into()));
    assert_eq!(wb.line_size_sweep(6).len(), 4);
    // One drain reports the whole sweep: the failure, the time spent on the
    // points that ran, and where every point's value came from.
    let tally = wb.take_tally();
    assert_eq!(tally.errors.len(), 1);
    assert_eq!(tally.errors[0].site, "fig8/Q6/l2_line=256");
    assert!(tally.compute > Duration::ZERO);
    assert_eq!((tally.points_loaded, tally.points_computed), (2, 2));
    assert_eq!(wb.take_tally(), SweepTally::default(), "drained clean");
    let _ = std::fs::remove_dir_all(&dir);
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
    let tally = wb.take_tally();
    assert_eq!(tally.errors.len(), 5);
    assert!(tally
        .errors
        .iter()
        .all(|e| matches!(e.cause, PointCause::TimedOut { limit_ms: 0 })));
    // A discarded result is not a computed point (see `SweepTally`).
    assert_eq!((tally.points_computed, tally.compute), (0, Duration::ZERO));
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
    assert!(
        wb.take_tally().errors.is_empty(),
        "fail-hard records nothing"
    );
}

#[test]
fn fail_soft_without_faults_is_bit_identical() {
    let hard: Vec<_> = wb()
        .line_size_sweep(6)
        .into_iter()
        .map(|p| p.stats)
        .collect();
    // A workbench of its own: on the first, the sweep would be served from
    // memory.
    let mut wb = wb();
    wb.set_fail_soft(true);
    wb.set_point_deadline(Some(Duration::from_secs(3600)));
    let soft: Vec<_> = wb.line_size_sweep(6).into_iter().map(|p| p.stats).collect();
    assert_eq!(hard, soft, "fail-soft mode must not perturb results");
    let tally = wb.take_tally();
    assert!(tally.errors.is_empty());
    assert_eq!(tally.points_computed, 5);
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
    let tally = wb.take_tally();
    assert_eq!(tally.errors.len(), 1);
    assert_eq!(tally.errors[0].site, "fig12/Q3v12/warm_same");
    assert!(matches!(&tally.errors[0].cause, PointCause::Panicked(m) if m.contains("injected")));
    assert_eq!(
        (tally.points_loaded, tally.points_computed),
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

/// Decodes one JSON string token off the front of `json` the way a strict
/// parser does — a raw control character or an unknown escape is an error —
/// returning the text and the rest of the input.
fn parse_json_string(json: &str) -> Option<(String, &str)> {
    let mut chars = json.strip_prefix('"')?.chars();
    let mut out = String::new();
    loop {
        match chars.next()? {
            '"' => return Some((out, chars.as_str())),
            '\\' => match chars.next()? {
                c @ ('"' | '\\' | '/') => out.push(c),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = chars.by_ref().take(4).collect();
                    out.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
                }
                _ => return None,
            },
            c if c < ' ' => return None,
            c => out.push(c),
        }
    }
}

#[test]
fn multi_line_cause_survives_a_strict_json_parse() {
    // What `assert_eq!(holder, Some(p), "lock released by non-holder")` in
    // the simulator panics with, plus a quote and a stray control character.
    let msg = "lock released by non-holder\n  left: None\n right: Some(1)\t\"\u{1}\\";
    let e = PointError {
        site: "fig8/Q6/l2_line=64".into(),
        cause: PointCause::Panicked(msg.into()),
        seed: 3,
    };
    let json = e.to_json();
    let rest = json.strip_prefix("{\"site\": ").expect("site key");
    let (site, rest) = parse_json_string(rest).expect("site is a strict JSON string");
    let rest = rest.strip_prefix(", \"cause\": ").expect("cause key");
    let (cause, rest) = parse_json_string(rest).expect("cause is a strict JSON string");
    assert_eq!(site, e.site);
    assert_eq!(cause, format!("panicked: {msg}"));
    assert_eq!(rest, ", \"seed\": 3}");
}
