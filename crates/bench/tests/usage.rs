//! `repro` rejects arguments it does not know instead of folding them into
//! its experiment-name set, where a stale flag's value or a typo used to
//! select nothing (or, alone, everything) and exit 0.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawning repro")
}

/// Exit 2, nothing on stdout, one error line on stderr — and no database
/// was built to find that out.
fn usage_error(out: &Output) -> String {
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    assert!(out.stdout.is_empty(), "nothing may run");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(stderr.lines().count(), 1, "one line: {stderr}");
    stderr
}

#[test]
fn unknown_option_is_rejected() {
    // A retired flag: it and its value used to become experiment names.
    let stderr = usage_error(&repro(&["fig8", "--gen-jobs", "2"]));
    assert!(stderr.contains("unknown option `--gen-jobs`"), "{stderr}");
    assert!(
        stderr.contains("--jobs") && stderr.contains("--trace-mode"),
        "lists the valid options: {stderr}"
    );
}

#[test]
fn unknown_experiment_is_rejected() {
    let stderr = usage_error(&repro(&["fig8", "fig99"]));
    assert!(stderr.contains("unknown experiment `fig99`"), "{stderr}");
    assert!(
        stderr.contains("fig13") && stderr.contains("ext-procs") && stderr.contains("all"),
        "lists the valid experiments: {stderr}"
    );
}
