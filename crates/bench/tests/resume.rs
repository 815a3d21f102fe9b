//! End-to-end crash/resume pinning for the `repro` binary: a run killed by
//! an armed crash site must, after `--resume`, produce stdout byte-identical
//! to an uninterrupted run, with honest resume provenance in the benchmark
//! report. This is the same contract the `dss-check crash` campaign sweeps
//! over every site; here one representative site is pinned in the test
//! suite so plain `cargo test` exercises the kill→resume cycle.

#![cfg(unix)]

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// The sweep under test — small, streamed (so trace salvage is exercised),
/// and multi-point (so the journal matters).
const ARGS: &[&str] = &[
    "fig8",
    "--sf",
    "0.003",
    "--jobs",
    "2",
    "--trace-mode",
    "streamed",
];

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dss-repro-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[expect(clippy::expect_used, reason = "spawning `repro` is the test")]
fn repro(state: &Path, extra: &[&str], arm: Option<(&str, u64)>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.args(ARGS)
        .arg("--state-dir")
        .arg(state)
        .args(extra)
        .env_remove(dss_faultkit::crash::ENV_SITE)
        .env_remove(dss_faultkit::crash::ENV_HITS);
    if let Some((site, hits)) = arm {
        cmd.env(dss_faultkit::crash::ENV_SITE, site)
            .env(dss_faultkit::crash::ENV_HITS, hits.to_string());
    }
    cmd.output().expect("spawning repro")
}

#[test]
fn crashed_sweep_resumes_to_identical_stdout() {
    let base_dir = temp_dir("baseline");
    let crash_dir = temp_dir("crashed");

    let baseline = repro(&base_dir, &[], None);
    assert!(baseline.status.success(), "baseline run must succeed");

    // Kill the sweep at a point boundary after several points completed.
    let crashed = repro(&crash_dir, &[], Some(("crash.point.post-journal", 4)));
    {
        use std::os::unix::process::ExitStatusExt;
        assert_eq!(
            crashed.status.signal(),
            Some(6),
            "armed crash site must abort the child (SIGABRT)"
        );
    }
    let manifest = crash_dir.join("manifest.ckpt");
    assert!(manifest.is_file(), "crashed run must leave its journal");

    let json = crash_dir.join("bench.json");
    let resumed = repro(
        &crash_dir,
        &["--resume", "--bench-json", &json.display().to_string()],
        None,
    );
    assert!(
        resumed.status.success(),
        "resume must succeed: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(
        resumed.stdout, baseline.stdout,
        "resumed stdout must be byte-identical to the uninterrupted run"
    );

    let bench = std::fs::read_to_string(&json).unwrap();
    assert!(bench.contains("\"schema\": \"dss-bench-repro/v8\""));
    assert!(
        bench.contains("\"mode\": \"resumed\""),
        "provenance must record the resume: {bench}"
    );
    // At least the points journaled before the kill were served back.
    let loaded: u64 = bench
        .lines()
        .find(|l| l.trim_start().starts_with("\"resume\""))
        .and_then(|l| l.split("\"points_loaded\": ").nth(1))
        .and_then(|s| s.split(',').next())
        .and_then(|s| s.trim().parse().ok())
        .expect("resume provenance with points_loaded");
    assert!(loaded >= 3, "expected >=3 journaled points, got {loaded}");

    let _ = std::fs::remove_dir_all(&base_dir);
    let _ = std::fs::remove_dir_all(&crash_dir);
}

#[test]
fn completed_sweep_resumes_as_pure_replay() {
    let dir = temp_dir("replay");
    let first = repro(&dir, &[], None);
    assert!(first.status.success());

    let json = dir.join("bench.json");
    let replay = repro(
        &dir,
        &["--resume", "--bench-json", &json.display().to_string()],
        None,
    );
    assert!(replay.status.success());
    assert_eq!(
        replay.stdout, first.stdout,
        "full replay must reproduce the original stdout"
    );
    let bench = std::fs::read_to_string(&json).unwrap();
    assert!(bench.contains("\"mode\": \"resumed\""));
    assert!(
        bench.contains("\"points_computed\": 0"),
        "nothing may be recomputed on a completed journal: {bench}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_without_state_dir_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fig8", "--sf", "0.003", "--resume"])
        .output()
        .expect("spawning repro");
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--state-dir"),
        "usage error must name the missing flag"
    );
}
