//! `repro` rejects arguments it does not know instead of folding them into
//! its experiment-name set, where a stale flag's value or a typo used to
//! select nothing (or, alone, everything) and exit 0.

use std::process::{Command, Output};

#[expect(clippy::expect_used, reason = "spawning `repro` is the test")]
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
fn retired_fault_flags_are_rejected() {
    // A failing sweep point aborts the run; there is no fail-soft mode left
    // to drive.
    for args in [
        ["fig8", "--inject", "fig8/Q6/l2_line=64"],
        ["fig8", "--point-deadline-ms", "5"],
    ] {
        let stderr = usage_error(&repro(&args));
        assert!(
            stderr.contains(&format!("unknown option `{}`", args[1])),
            "{stderr}"
        );
    }
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

#[test]
fn non_finite_scale_is_rejected() {
    // `inf` passed the old `> 0` guard and died sizing the buffer pool;
    // `1e300` passed the `is_finite` one and died sizing the tables.
    for sf in ["inf", "NaN", "-1", "0", "1e300"] {
        let stderr = usage_error(&repro(&["--sf", sf]));
        assert!(
            stderr.contains("--sf needs a positive scale factor"),
            "{sf}: {stderr}"
        );
    }
}

/// The words the usage error says are accepted: the experiment table's
/// `names` with each group word ahead of its rows.
#[expect(clippy::expect_used, reason = "the usage line carries the list")]
fn accepted_names() -> Vec<String> {
    let stderr = usage_error(&repro(&["fig99"]));
    let (_, list) = stderr.split_once("(experiments: ").expect("a name list");
    let names = list.trim_end().trim_end_matches(')').split(", ");
    names.map(str::to_string).collect()
}

#[test]
fn every_listed_name_is_accepted() {
    let names = accepted_names();
    let ext = names
        .iter()
        .position(|n| n == "ext")
        .expect("the ext group");
    assert_eq!(names[0], "all", "each group precedes its rows: {names:?}");
    assert!(names[ext + 1..].iter().all(|n| n.starts_with("ext-")));
    assert!(names.iter().any(|n| n == "table1") && names.len() > ext + 1);
    // All of them at once, then a bad option: the parser must get past every
    // name to find it (and builds nothing to say so).
    let mut args: Vec<&str> = names.iter().map(String::as_str).collect();
    args.push("--bogus");
    let stderr = usage_error(&repro(&args));
    assert!(stderr.contains("unknown option `--bogus`"), "{stderr}");
}

#[test]
fn selected_rows_run_in_table_order() {
    let json = std::env::temp_dir().join(format!("dss-usage-{}.json", std::process::id()));
    // Given backwards; the table, not the command line, orders the run.
    let out = repro(&[
        "fig13",
        "table1",
        "--sf",
        "0.003",
        "--bench-json",
        json.to_str().expect("utf-8 temp path"),
    ]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let table1 = stdout.find("Table 1").expect("Table 1 printed");
    let fig13 = stdout.find("Figure 13").expect("Figure 13 printed");
    assert!(table1 < fig13, "table order");
    assert!(!stdout.contains("Figure 8"), "only the selected rows run");
    let report = std::fs::read_to_string(&json).expect("bench report");
    let ran: Vec<&str> = report
        .lines()
        .filter_map(|l| l.trim_start().strip_prefix("{\"name\": \""))
        .filter_map(|rest| rest.split('"').next())
        .collect();
    assert_eq!(ran, ["table1", "fig13"]);
    let _ = std::fs::remove_file(&json);
}
