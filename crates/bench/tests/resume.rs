//! End-to-end crash/resume pinning for the `repro` binary: a run killed by
//! an armed crash site must, after `--resume`, produce stdout byte-identical
//! to an uninterrupted run, with honest resume provenance in the benchmark
//! report, and must leave the `--bench-json` it would have replaced intact.
//!
//! The two long contracts are `#[ignore]`d, for `cargo test --release --
//! --ignored`: the crash campaign (every registered crash site under three
//! kill schedules) and an SF 0.1 sweep held to its memory and trace-file
//! bounds and resumed from two kills at point boundaries.

#![cfg(unix)]

use std::fs::File;
use std::io::{BufReader, Read};
use std::os::unix::process::ExitStatusExt;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use dss_faultkit::crash::{CRASH_SITES, ENV_HITS, ENV_SITE};
use dss_faultkit::FaultPlan;
use dss_trace::BlockReader;
use rand::Rng;

/// The sweep under test — small, streamed (so a kill can tear a block file
/// the resume must rewrite), and multi-point (so the journal matters).
const ARGS: &[&str] = &[
    "fig8",
    "--sf",
    "0.003",
    "--jobs",
    "2",
    "--trace-mode",
    "streamed",
];

/// The signal an armed crash site's `abort` raises.
const SIGABRT: i32 = 6;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dss-repro-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[expect(clippy::expect_used, reason = "spawning `repro` is the test")]
fn repro(sweep: &[&str], state: &Path, extra: &[&str], arm: Option<(&str, u64)>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.args(sweep)
        .arg("--state-dir")
        .arg(state)
        .args(extra)
        .env_remove(ENV_SITE)
        .env_remove(ENV_HITS);
    if let Some((site, hits)) = arm {
        cmd.env(ENV_SITE, site).env(ENV_HITS, hits.to_string());
    }
    cmd.output().expect("spawning repro")
}

/// The last few lines of a child's stderr, for failure messages.
fn stderr_tail(out: &Output) -> String {
    let text = String::from_utf8_lossy(&out.stderr);
    let lines: Vec<&str> = text.lines().rev().take(3).collect();
    lines.into_iter().rev().collect::<Vec<_>>().join(" | ")
}

/// Strips the honest-measurement fields from a `--bench-json` report,
/// keeping everything a resumed run must reproduce exactly: the schema and
/// run parameters, and each experiment's name.
/// Timings, heap counts, RSS, and the resume-provenance counters differ
/// between a fresh and a resumed run by construction.
fn normalize_bench(json: &str) -> String {
    let mut out = String::new();
    for line in json.lines() {
        let t = line.trim_start();
        let deterministic = ["\"schema\"", "\"jobs\"", "\"trace_mode\"", "\"scale\""]
            .iter()
            .any(|k| t.starts_with(k));
        if deterministic {
            out.push_str(t);
            out.push('\n');
        } else if let Some(rest) = t.strip_prefix("{\"name\": \"") {
            if let Some(name) = rest.split('"').next() {
                out.push_str(name);
                out.push('\n');
            }
        }
    }
    out
}

/// The unsigned number after the first `"key": ` in `text`.
fn number(text: &str, key: &str) -> u64 {
    text.split(&format!("\"{key}\": "))
        .nth(1)
        .and_then(|s| s.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no `{key}` in {text}"))
}

/// The `points_loaded` of a report's `resume` block.
fn points_loaded(bench: &str) -> u64 {
    let resume = bench
        .lines()
        .find(|l| l.trim_start().starts_with("\"resume\""))
        .unwrap_or_else(|| panic!("no resume provenance: {bench}"));
    number(resume, "points_loaded")
}

#[test]
fn crashed_sweep_resumes_to_identical_stdout() {
    let base_dir = temp_dir("baseline");
    let crash_dir = temp_dir("crashed");

    let baseline = repro(ARGS, &base_dir, &[], None);
    assert!(baseline.status.success(), "baseline run must succeed");

    // Kill the sweep at a point boundary after several points completed. The
    // report it was asked to write already exists: dying must not tear it.
    std::fs::create_dir_all(&crash_dir).unwrap();
    let json = crash_dir.join("bench.json");
    let sentinel = "{\"sentinel\": true}\n";
    std::fs::write(&json, sentinel).unwrap();
    let crashed = repro(
        ARGS,
        &crash_dir,
        &["--bench-json", &json.display().to_string()],
        Some(("crash.point.post-journal", 4)),
    );
    assert_eq!(
        crashed.status.signal(),
        Some(SIGABRT),
        "armed crash site must abort the child"
    );
    assert_eq!(
        std::fs::read_to_string(&json).unwrap(),
        sentinel,
        "the aborted run touched the report it never finished"
    );
    let manifest = crash_dir.join("manifest.ckpt");
    assert!(manifest.is_file(), "crashed run must leave its journal");

    let resumed = repro(
        ARGS,
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
    assert!(bench.contains("\"schema\": \"dss-bench-repro/v9\""));
    assert!(
        bench.contains("\"mode\": \"resumed\""),
        "provenance must record the resume: {bench}"
    );
    // At least the points journaled before the kill were served back.
    let loaded = points_loaded(&bench);
    assert!(loaded >= 3, "expected >=3 journaled points, got {loaded}");
    // Block files live for one run: the resume removed its own and the ones
    // the killed run left.
    assert!(
        !crash_dir.join("traces").exists(),
        "block files left behind"
    );

    let _ = std::fs::remove_dir_all(&base_dir);
    let _ = std::fs::remove_dir_all(&crash_dir);
}

#[test]
fn completed_sweep_resumes_as_pure_replay() {
    let dir = temp_dir("replay");
    let first = repro(ARGS, &dir, &[], None);
    assert!(first.status.success());
    // A finished run leaves its journal and nothing else.
    let left: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(left, ["manifest.ckpt"], "block files left behind");

    let json = dir.join("bench.json");
    let replay = repro(
        ARGS,
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

#[test]
fn normalization_keeps_only_the_deterministic_fields() {
    let json = "{\n  \"schema\": \"dss-bench-repro/v9\",\n  \"jobs\": 2,\n  \
                \"trace_mode\": \"streamed\",\n  \"scale\": 0.003,\n  \
                \"resume\": {\"mode\": \"fresh\", \"crash_site\": null, \
                \"points_loaded\": 0, \"points_computed\": 15},\n  \
                \"total_wall_ns\": 12345,\n  \"experiments\": [\n    \
                {\"name\": \"fig8/fig9\", \"wall_ns\": 999, \"points_loaded\": 0}\n  ]\n}\n";
    let norm = normalize_bench(json);
    assert!(norm.contains("\"schema\": \"dss-bench-repro/v9\","));
    assert!(norm.contains("\"scale\": 0.003,"));
    assert!(norm.contains("fig8/fig9"));
    assert!(!norm.contains("wall_ns"), "timings must be stripped");
    assert!(!norm.contains("resume"), "provenance must be stripped");
    assert!(!norm.contains("12345"));
    assert_eq!(points_loaded(json), 0);
}

#[test]
fn normalization_is_insensitive_to_measurement_noise() {
    let a = "{\n  \"schema\": \"x\",\n  \"total_wall_ns\": 1,\n  \
             \"experiments\": [\n    {\"name\": \"fig12\", \"wall_ns\": 7}\n  ]\n}\n";
    let b = "{\n  \"schema\": \"x\",\n  \"total_wall_ns\": 999999,\n  \
             \"experiments\": [\n    {\"name\": \"fig12\", \"wall_ns\": 123456}\n  ]\n}\n";
    assert_eq!(normalize_bench(a), normalize_bench(b));
}

/// The crash campaign: under each kill schedule, every registered crash site
/// is armed at a seed-chosen hit, the child must die by SIGABRT, and the
/// unarmed `--resume` must exit 0 with stdout byte-identical to one
/// uninterrupted baseline and an equal normalized report. A kill at a
/// trace-block site leaves a torn or unfinished block file, which the resume
/// rewrites; seed 5 places `crash.trace.pre-finish` at hit 2, a finished
/// processor's file beside an unfinished one. Every kill runs before the
/// verdict, and a failed kill keeps its state directory.
#[test]
#[ignore = "18 killed and resumed sweeps: run with `--release -- --ignored`"]
fn every_crash_site_resumes_to_identical_output() {
    // The trace-block sites are only reached when the sweep streams.
    assert!(ARGS.windows(2).any(|w| w == ["--trace-mode", "streamed"]));
    let work = temp_dir("campaign");
    std::fs::create_dir_all(&work).unwrap();
    let base_json = work.join("baseline.json");
    let baseline = repro(
        ARGS,
        &work.join("baseline"),
        &["--bench-json", &base_json.display().to_string()],
        None,
    );
    assert!(baseline.status.success(), "{}", stderr_tail(&baseline));
    let base_bench = normalize_bench(&std::fs::read_to_string(&base_json).unwrap());

    let mut failures = Vec::new();
    for seed in [1, 5, 11] {
        for site in CRASH_SITES {
            // Early hits exist at every site (the sweep has 15 points and
            // many more block writes and manifest appends), so the schedule
            // is valid for all of them while still varying with the seed.
            let hit = FaultPlan::new(seed).rng_for(site.name).gen_range(1..=3u64);
            let state = work.join(format!("seed{seed}-{}", site.name));
            let json = work.join(format!("seed{seed}-{}.json", site.name));
            let kill = format!("seed {seed}, {} at hit {hit}", site.name);

            let crashed = repro(ARGS, &state, &[], Some((site.name, hit)));
            if crashed.status.signal() != Some(SIGABRT) {
                failures.push(format!(
                    "{kill}: the armed site did not kill the child ({}): {}",
                    crashed.status,
                    stderr_tail(&crashed)
                ));
                continue;
            }
            let resumed = repro(
                ARGS,
                &state,
                &["--resume", "--bench-json", &json.display().to_string()],
                None,
            );
            if !resumed.status.success() {
                failures.push(format!(
                    "{kill}: resume failed ({}): {}",
                    resumed.status,
                    stderr_tail(&resumed)
                ));
            } else if resumed.stdout != baseline.stdout {
                failures.push(format!("{kill}: resumed stdout diverged from the baseline"));
            } else if normalize_bench(&std::fs::read_to_string(&json).unwrap()) != base_bench {
                failures.push(format!(
                    "{kill}: resumed report diverged after normalization"
                ));
            } else {
                let _ = std::fs::remove_dir_all(&state);
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {} kills did not recover (state kept under {}):\n{}",
        failures.len(),
        3 * CRASH_SITES.len(),
        work.display(),
        failures.join("\n")
    );
    let _ = std::fs::remove_dir_all(&work);
}

/// Ten times the paper's scale, streamed: the memory-resident database plus
/// its shared mapping is ~0.7 GB, so 2 GiB bounds the trace overhead on top,
/// where materializing the event sets would need tens of GB. A block file is
/// the packed 8-byte event word plus 24 bytes of framing per block, so
/// walking every file the killed runs left must find at most 8.1 bytes per
/// event, each read cleanly to its end marker; the resumes remove them.
/// The same sweep is killed twice, after its fourth journaled point (inside
/// Figure 8's Q3 sweep) and after its fifth (the last of that sweep, so the
/// journal serves every Q3 point), and each kill resumes: exit 0, stdout
/// byte-identical to the uninterrupted run's, an equal normalized report, at
/// least the journaled points served back. A resume records every set the
/// uninterrupted run recorded, in the same order, so every later set meets
/// the lock-table history that run gives it. (Two Figure 12 shape checks
/// fail at this scale, identically in all runs; this test does not assert
/// the checks.)
#[test]
#[ignore = "five SF 0.1 sweeps and ~4 GB of trace files: run with `--release -- --ignored`"]
fn sf_0_1_sweep_stays_bounded_and_resumes_from_a_kill() {
    const SWEEP: &[&str] = &[
        "fig8",
        "fig12",
        "--sf",
        "0.1",
        "--trace-mode",
        "streamed",
        "--jobs",
        "4",
    ];
    const GIB: u64 = 1 << 30;

    let base_dir = temp_dir("sf01-baseline");
    let base_json = base_dir.join("bench.json");
    let baseline = repro(
        SWEEP,
        &base_dir,
        &["--bench-json", &base_json.display().to_string()],
        None,
    );
    assert!(baseline.status.success(), "{}", stderr_tail(&baseline));
    let base_bench = std::fs::read_to_string(&base_json).unwrap();
    assert!(base_bench.contains("\"scale\": 0.1,"), "{base_bench}");
    assert!(base_bench.contains("\"trace_mode\": \"streamed\""));
    let experiments: Vec<&str> = base_bench
        .lines()
        .filter(|l| l.trim_start().starts_with("{\"name\""))
        .collect();
    assert_eq!(experiments.len(), 2, "{base_bench}");
    for e in experiments {
        let (peak, cumulative) = (number(e, "peak_rss"), number(e, "peak_rss_cumulative"));
        assert!(peak > 0 && peak < 2 * GIB, "peak RSS {peak} B: {e}");
        assert!(
            cumulative >= peak,
            "cumulative high-water mark below a window peak: {e}"
        );
    }

    assert!(!base_dir.join("traces").exists(), "block files left behind");

    let (mut events, mut bytes) = (0u64, 0u64);
    let mut block = Vec::new();
    for hits in [4, 5] {
        let crash_dir = temp_dir(&format!("sf01-crashed-{hits}"));
        let crashed = repro(
            SWEEP,
            &crash_dir,
            &[],
            Some(("crash.point.post-journal", hits)),
        );
        assert_eq!(
            crashed.status.signal(),
            Some(SIGABRT),
            "{}",
            stderr_tail(&crashed)
        );
        // The kill lands at a point boundary, so every set it recorded is
        // whole.
        for entry in std::fs::read_dir(crash_dir.join("traces")).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_none_or(|x| x != "trb") {
                continue;
            }
            bytes += std::fs::metadata(&path).unwrap().len();
            let mut file = BufReader::new(File::open(&path).unwrap());
            let mut reader =
                BlockReader::new(&mut file).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            loop {
                match reader.next_block(&mut block) {
                    Ok(0) => break,
                    Ok(n) => events += n as u64,
                    Err(e) => panic!("{}: {e}", path.display()),
                }
            }
            assert_eq!(
                file.read(&mut [0u8; 1]).unwrap(),
                0,
                "{}: bytes after the end marker",
                path.display()
            );
        }
        let json = crash_dir.join("bench.json");
        let resumed = repro(
            SWEEP,
            &crash_dir,
            &["--resume", "--bench-json", &json.display().to_string()],
            None,
        );
        let bench = std::fs::read_to_string(&json);
        let traces_left = crash_dir.join("traces").exists();
        let _ = std::fs::remove_dir_all(&crash_dir);
        assert!(resumed.status.success(), "{}", stderr_tail(&resumed));
        assert!(!traces_left, "block files left behind");
        let bench = bench.unwrap();
        assert_eq!(normalize_bench(&bench), normalize_bench(&base_bench));
        assert!(bench.contains("\"mode\": \"resumed\""), "{bench}");
        let loaded = points_loaded(&bench);
        assert!(loaded >= hits, "resume replayed only {loaded} points");
        assert!(
            resumed.stdout == baseline.stdout,
            "killed at journaled point {hits}, resumed stdout differs from the \
             uninterrupted run's:\n{}",
            String::from_utf8_lossy(&resumed.stdout)
        );
    }
    assert!(events > 0, "no block files recorded");
    assert!(
        bytes * 10 <= events * 81,
        "{bytes} bytes of .trb for {events} events"
    );
    let _ = std::fs::remove_dir_all(&base_dir);
}
