//! The benchmark end to end, at smoke sizes: every workload, every metric,
//! every file it writes — and the declared surface against `BENCHMARK.json`.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use dss_perf::json::{self, Value};
use dss_perf::{spans, spec};

const DSS_PERF: &str = env!("CARGO_BIN_EXE_dss-perf");

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars().next().unwrap().is_ascii_alphanumeric()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn benchmark_json_declares_exactly_what_the_code_emits() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let keys: Vec<_> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    assert_eq!(
        doc.get("paths").unwrap(),
        &Value::Arr(vec![Value::Str("benchmark".into())])
    );
    assert_eq!(
        doc.get("run_seconds").and_then(Value::as_u64),
        Some(spec::RUN_SECONDS)
    );
    let field = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).unwrap().to_string();

    let workloads: Vec<_> = doc
        .get("workloads")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .collect();
    assert_eq!(workloads.len(), spec::WORKLOADS.len());
    for (declared, ours) in workloads.iter().zip(&spec::WORKLOADS) {
        assert_eq!(field(declared, "name"), ours.name);
        assert_eq!(field(declared, "why"), ours.why);
        assert!(is_name(ours.name));
        assert!(
            ours.why.len() <= 200 && !ours.why.contains('\n'),
            "{}",
            ours.name
        );
    }

    let end_to_end = doc.get("end_to_end").unwrap().as_arr().unwrap();
    assert_eq!(end_to_end.len(), spec::END_TO_END.len());
    for (declared, ours) in end_to_end.iter().zip(&spec::END_TO_END) {
        assert_eq!(field(declared, "name"), ours.name);
        assert_eq!(field(declared, "unit"), ours.unit);
        assert_eq!(field(declared, "better"), ours.better.label());
        assert_eq!(
            declared.get("bound").and_then(Value::as_f64),
            Some(ours.bound)
        );
        assert!(ours.bound > 0.0 && ours.bound <= 0.25);
        assert!(is_name(ours.name) && is_unit(ours.unit));
    }
    let setup = spec::END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .unwrap();
    assert!(
        spec::END_TO_END.iter().all(|m| m.bound <= setup.bound),
        "setup_s carries the largest bound"
    );

    let per_layer = doc.get("per_layer").unwrap().as_arr().unwrap();
    assert_eq!(per_layer.len(), spec::PER_LAYER.len());
    assert!(per_layer.len() <= 128);
    for (declared, ours) in per_layer.iter().zip(&spec::PER_LAYER) {
        assert_eq!(field(declared, "name"), ours.name);
        assert_eq!(field(declared, "unit"), ours.unit);
        assert_eq!(
            field(declared, "better"),
            ours.better.label(),
            "{}",
            ours.name
        );
        assert!(is_name(ours.name) && is_unit(ours.unit), "{}", ours.name);
    }
    let names: BTreeSet<_> = spec::END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(spec::PER_LAYER.iter().map(|m| m.name))
        .chain(spec::WORKLOADS.iter().map(|w| w.name))
        .collect();
    assert_eq!(
        names.len(),
        spec::END_TO_END.len() + spec::PER_LAYER.len() + spec::WORKLOADS.len(),
        "every name is used once"
    );
}

/// All four workloads at smoke sizes with one timed rep and the traced rep,
/// then the result file through `compare` against itself.
#[test]
fn smoke_run_of_all_four_workloads() {
    let out = scratch("smoke");
    let run = Command::new(DSS_PERF)
        .args(["--smoke", "--reps", "1", "--seed", "7", "--out"])
        .arg(&out)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "smoke run failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );

    let results_path = out.join("results.json");
    let text = std::fs::read_to_string(&results_path).unwrap();
    let doc = json::parse(&text).unwrap();
    assert_eq!(
        json::parse(&doc.to_pretty()).unwrap(),
        doc,
        "the results file round-trips"
    );
    let header = doc.get("header").unwrap();
    assert_eq!(header.get("seed").and_then(Value::as_u64), Some(7));
    assert_eq!(header.get("smoke").and_then(Value::as_bool), Some(true));
    for key in ["reps", "nproc", "cpu_model", "load1", "noisy_host"] {
        assert!(header.get(key).is_some(), "header lacks {key}");
    }

    let workloads = doc.get("workloads").and_then(Value::as_obj).unwrap();
    let expected: BTreeSet<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(
        workloads
            .keys()
            .map(String::as_str)
            .collect::<BTreeSet<_>>(),
        expected
    );
    for (name, w) in workloads {
        assert_eq!(w.get("reps").and_then(Value::as_u64), Some(1), "{name}");
        assert_eq!(
            w.get("checks_failed").and_then(Value::as_u64),
            Some(0),
            "{name}: {w:?}"
        );
        assert!(w.get("checks_attempted").and_then(Value::as_u64).unwrap() >= 5);

        let e2e = w.get("end_to_end").and_then(Value::as_obj).unwrap();
        let declared: BTreeSet<_> = spec::END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(
            e2e.keys().map(String::as_str).collect::<BTreeSet<_>>(),
            declared
        );
        for (metric, entry) in e2e {
            let median = entry.get("median").and_then(Value::as_f64).unwrap();
            assert!(median > 0.0, "{name}.{metric} must never be 0");
            let n = entry.get("n").and_then(Value::as_u64).unwrap();
            assert_eq!(
                n,
                if metric == "setup_s" { 3 } else { 1 },
                "{name}.{metric}"
            );
            assert_eq!(
                entry.get("unit").and_then(Value::as_str),
                spec::unit_of(metric),
                "{name}.{metric}"
            );
            assert!(stdout.contains(metric.as_str()), "table lists {metric}");
        }

        let layers = w.get("per_layer").and_then(Value::as_obj).unwrap();
        let declared: BTreeSet<_> = spec::PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(
            layers.keys().map(String::as_str).collect::<BTreeSet<_>>(),
            declared
        );
        let value = |metric: &str| layers[metric].get("value").and_then(Value::as_f64).unwrap();
        // The workloads stress what they claim to.
        assert_eq!(value("memsim.points") == 0.0, name == "tracegen", "{name}");
        assert_eq!(value("trace.bytes") > 0.0, name == "streamed", "{name}");
        assert_eq!(value("query.rows_written") > 0.0, name == "mixed", "{name}");
        assert_eq!(value("btree.lookup_ns") > 0.0, name == "tracegen", "{name}");
        assert_eq!(
            value("core.parallel_eff") > 0.0,
            name == "streamed",
            "{name}"
        );
        assert!(
            value("query.events") > 0.0 && value("tpcd.rows") > 0.0,
            "{name}"
        );
        assert_eq!(
            value("core.checks_attempted"),
            w.get("checks_attempted").and_then(Value::as_f64).unwrap()
        );

        // The spans file: one object per line, closed, nested, all ours.
        let jsonl = std::fs::read_to_string(out.join(format!("spans-{name}.jsonl"))).unwrap();
        let recorded: Vec<spans::Span> = jsonl
            .lines()
            .map(|line| {
                let v = json::parse(line).unwrap();
                assert_eq!(
                    v.get("workload").and_then(Value::as_str),
                    Some(name.as_str())
                );
                spans::Span {
                    name: v.get("name").and_then(Value::as_str).unwrap().to_string(),
                    start_ns: v.get("start_ns").and_then(Value::as_u64).unwrap(),
                    end_ns: v.get("end_ns").and_then(Value::as_u64),
                    parent: v.get("parent").and_then(Value::as_u64).map(|p| p as usize),
                }
            })
            .collect();
        assert_eq!(spans::check_spans(&recorded), Ok(()), "{name}");
        let roots: Vec<_> = recorded
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(roots, ["setup", "rep", "probes"], "{name}");
    }

    // No scratch directory (streamed's block files live in one) survives.
    let leftovers: Vec<_> = std::fs::read_dir(&out)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|f| f.starts_with("tmp-"))
        .collect();
    assert!(leftovers.is_empty(), "{leftovers:?}");

    // A file compared with itself regresses nowhere and differs nowhere.
    let cmp = Command::new(DSS_PERF)
        .arg("compare")
        .args([&results_path, &results_path])
        .output()
        .unwrap();
    let table = String::from_utf8_lossy(&cmp.stdout);
    assert!(cmp.status.success(), "{table}");
    assert_eq!(
        table.lines().count(),
        1 + spec::WORKLOADS.len() * spec::END_TO_END.len(),
        "{table}"
    );
    assert!(
        !table.contains("worse") && !table.contains("differs"),
        "{table}"
    );
}

/// One driver run: the last stdout line is the contract's JSON object.
#[test]
fn a_driver_run_ends_with_one_result_line() {
    let out = scratch("driver");
    for (trace, declared) in [
        (
            "0",
            spec::END_TO_END
                .iter()
                .map(|m| (m.name, m.unit))
                .collect::<Vec<_>>(),
        ),
        (
            "1",
            spec::PER_LAYER.iter().map(|m| (m.name, m.unit)).collect(),
        ),
    ] {
        let run = Command::new(DSS_PERF)
            .args([
                "--workload",
                "tracegen",
                "--seed",
                "3",
                "--seconds",
                "1",
                "--smoke",
            ])
            .args(["--trace", trace, "--out"])
            .arg(&out)
            .output()
            .unwrap();
        assert!(
            run.status.success(),
            "{}",
            String::from_utf8_lossy(&run.stderr)
        );
        let stdout = String::from_utf8_lossy(&run.stdout);
        let line = json::parse(stdout.lines().last().unwrap()).unwrap();
        let keys: Vec<_> = line.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(line.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(line.get("failed").and_then(Value::as_u64), Some(0));
        assert!(line.get("attempted").and_then(Value::as_u64).unwrap() >= 1);
        let metrics = line.get("metrics").and_then(Value::as_obj).unwrap();
        assert_eq!(metrics.len(), declared.len());
        for (name, unit) in declared {
            let m = &metrics[name];
            assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name}");
            assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit), "{name}");
        }
    }
}

#[test]
fn bad_invocations_exit_non_zero_without_a_result() {
    for args in [
        vec!["--workload", "nope", "--trace", "0"],
        vec!["--workload", "sweep", "--trace", "2"],
        vec!["--workload", "sweep", "--seed", "x"],
        vec!["compare", "only-one.json"],
        vec!["frobnicate"],
    ] {
        let run = Command::new(DSS_PERF).args(&args).output().unwrap();
        assert!(!run.status.success(), "{args:?}");
        assert!(run.stdout.is_empty(), "{args:?} printed a result");
    }
}
