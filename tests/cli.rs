//! The two workspace-root binaries at their command line: what `dbgen`
//! writes, the flags it no longer takes, and the scale factors `dbgen` and
//! `dssql` turn away before building anything.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

/// FNV-1a digest of each `.tbl` file `dbgen --scale 0.001 --seed 42` writes,
/// captured from the generator before the chunked second one was deleted. It
/// pins the population, the `.tbl` rendering, and every draw of
/// `text::comment` and `text::phone`.
const TBL_DIGESTS: [(&str, u64); 8] = [
    ("region", 0xa189_3b06_5f76_8d6c),
    ("nation", 0x49f4_3015_3868_a93e),
    ("supplier", 0xd5cd_801c_8a59_c7da),
    ("customer", 0xa602_2503_5ec6_36de),
    ("part", 0x6d1b_4522_01e9_5db6),
    ("partsupp", 0xd812_8ce4_1827_c2a7),
    ("orders", 0x950e_92e1_e406_9d9e),
    ("lineitem", 0x575f_dcbd_c1f5_3f4b),
];

/// Scale factors that are not TPC-D's: non-numbers, non-positive, and past
/// the largest defined scale (which used to overflow sizing the tables).
const BAD_SCALES: [&str; 5] = ["inf", "1e300", "NaN", "0", "-1"];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dss-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[expect(clippy::expect_used, reason = "spawning the binary is the test")]
fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("spawning the binary")
}

fn dbgen(args: &[&str]) -> Output {
    run(env!("CARGO_BIN_EXE_dbgen"), args)
}

/// Exit 2, nothing on stdout, one line on stderr; returns that line.
fn usage_error(out: &Output) -> String {
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    assert!(out.stdout.is_empty(), "nothing may run");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(stderr.lines().count(), 1, "one line: {stderr}");
    stderr
}

#[test]
fn dbgen_writes_the_pinned_population() {
    let dir = temp_dir("dbgen");
    let path = dir.to_str().expect("utf-8 temp path");
    let out = dbgen(&["--scale", "0.001", "--seed", "42", "--dir", path]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let files: Vec<_> = std::fs::read_dir(&dir)
        .expect("output dir")
        .map(|e| e.expect("dir entry").file_name())
        .collect();
    assert_eq!(files.len(), 8, "eight tables and nothing else: {files:?}");
    for (table, digest) in TBL_DIGESTS {
        let bytes = std::fs::read(dir.join(format!("{table}.tbl"))).expect("table file");
        assert_eq!(fnv1a(&bytes), digest, "{table}.tbl moved");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dbgen_rejects_retired_flags() {
    // The chunked generator's switch and its two knobs.
    for (flag, value) in [("chunked", None), ("jobs", Some("2")), ("batch", Some("8"))] {
        let flag = format!("--{flag}");
        let args: Vec<&str> = [flag.as_str()].into_iter().chain(value).collect();
        let stderr = usage_error(&dbgen(&args));
        assert!(stderr.contains("unknown argument"), "{args:?}: {stderr}");
    }
}

#[test]
fn bad_scale_is_a_usage_error() {
    let dir = temp_dir("bad-scale");
    let path = dir.to_str().expect("utf-8 temp path");
    for sf in BAD_SCALES {
        let stderr = usage_error(&dbgen(&["--scale", sf, "--dir", path]));
        assert!(stderr.contains("--scale"), "dbgen {sf}: {stderr}");
        assert!(!dir.exists(), "dbgen {sf} created {path}");

        let stderr = usage_error(&run(env!("CARGO_BIN_EXE_dssql"), &[sf]));
        assert!(
            stderr.contains("not a scale factor"),
            "dssql {sf}: {stderr}"
        );
        assert!(
            !stderr.contains("building"),
            "dssql built a database: {stderr}"
        );
    }
}
