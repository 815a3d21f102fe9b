//! The degradation drill: one sweep point injected to fail, and the rest of
//! the run completes. `repro` must exit 3 (partial results), print the
//! degraded figure as skipped while still rendering the next query's, and
//! name the failed point in its `--bench-json` report — also when the
//! injected label is a point an earlier figure already simulated, so a point
//! served from memory cannot hide from the injection.

use std::process::{Command, Output};

/// The sabotaged point: Q6's baseline-line-size point of Figure 8, which is
/// also Figure 6's baseline machine.
const SITE: &str = "fig8/Q6/l2_line=64";

#[expect(clippy::expect_used, reason = "spawning `repro` is the test")]
fn repro(experiments: &[&str], extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(experiments)
        .args(["--sf", "0.003", "--jobs", "2", "--inject", SITE])
        .args(extra)
        .output()
        .expect("spawning repro")
}

/// Exit 3 and Q6's figure skipped; returns stdout.
fn degraded(out: &Output) -> String {
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert_eq!(
        out.status.code(),
        Some(3),
        "partial results exit 3\n{stdout}"
    );
    assert!(
        stdout.contains("Figure 8/9 (Q6): skipped"),
        "the degraded figure is skipped:\n{stdout}"
    );
    stdout
}

#[test]
fn injected_point_degrades_only_its_figure() {
    let json = std::env::temp_dir().join(format!("dss-degraded-{}.json", std::process::id()));
    let json_arg = json.to_str().expect("utf-8 temp path");
    let stdout = degraded(&repro(&["fig8"], &["--bench-json", json_arg]));
    assert!(
        stdout.contains("Figure 8 (Q12)"),
        "the sweeps after it still ran:\n{stdout}"
    );
    let report = std::fs::read_to_string(&json).expect("bench report");
    let _ = std::fs::remove_file(&json);
    assert!(
        report.contains(&format!("\"site\": \"{SITE}\"")),
        "the report names the failed point:\n{report}"
    );
}

#[test]
fn injection_reaches_a_point_served_from_memory() {
    // Figure 6 simulates Q6's baseline machine first; Figure 8 would reuse it.
    degraded(&repro(&["fig6", "fig8"], &[]));
}
