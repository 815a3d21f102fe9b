//! `dss-perf compare A.json B.json`: the regression gate.
//!
//! One row per (end-to-end metric, workload), judged by the metric's bound:
//! B is *worse* when its median is worse than A's by more than the bound,
//! *better* when it is better by more than the bound, *within* otherwise —
//! and *unresolved* when either side's own min–max spread exceeds the bound
//! and the two sides' ranges overlap, because a difference smaller than the
//! noise is not a finding in either direction. One more row per exact layer
//! count that differs: a host-speed change must leave all of those alone.

use std::fmt::Write as _;

use crate::json::Value;
use crate::spec::{self, Better, EndToEnd};
use crate::stats::Summary;

/// What a row concluded about B relative to A.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Better by more than the bound.
    Better,
    /// Within the bound either way.
    Within,
    /// Worse by more than the bound.
    Worse,
    /// Too noisy to say.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges B against A for one metric.
pub fn judge(metric: &EndToEnd, a: &Summary, b: &Summary) -> Verdict {
    let worse_by = match metric.better {
        Better::Lower => (b.median - a.median) / a.median,
        Better::Higher => (a.median - b.median) / a.median,
    };
    let noisy = a.spread() > metric.bound || b.spread() > metric.bound;
    let overlap = a.min <= b.max && b.min <= a.max;
    if noisy && overlap {
        Verdict::Unresolved
    } else if worse_by > metric.bound {
        Verdict::Worse
    } else if worse_by < -metric.bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// One (metric, workload) row.
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: &'static str,
    /// A's samples, summarized.
    pub a: Summary,
    /// B's samples, summarized.
    pub b: Summary,
    /// The verdict.
    pub verdict: Verdict,
}

/// Everything `compare` found.
#[derive(Clone, Debug, Default)]
pub struct Comparison {
    /// One row per end-to-end metric and workload present in both files.
    pub rows: Vec<Row>,
    /// Exact layer counts that differ: `(workload, metric, a, b)`.
    pub exact_diffs: Vec<(String, &'static str, f64, f64)>,
    /// Workloads where more checks failed in B, or a larger share of them.
    pub check_rises: Vec<String>,
}

impl Comparison {
    /// Whether B regressed: any `worse` row, or any rise in failed checks.
    pub fn regressed(&self) -> bool {
        !self.check_rises.is_empty() || self.rows.iter().any(|r| r.verdict == Verdict::Worse)
    }

    /// The rows as a table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        writeln!(
            out,
            "{:<10} {:<12} {:>12} {:>12} {:>8}  {:>7} {:>7}  verdict",
            "workload", "metric", "A median", "B median", "change", "A sprd", "B sprd"
        )
        .expect("string write");
        for r in &self.rows {
            writeln!(
                out,
                "{:<10} {:<12} {:>12.4} {:>12.4} {:>+7.1}%  {:>6.1}% {:>6.1}%  {} (n={}/{})",
                r.workload,
                r.metric,
                r.a.median,
                r.b.median,
                100.0 * (r.b.median - r.a.median) / r.a.median,
                100.0 * r.a.spread(),
                100.0 * r.b.spread(),
                r.verdict.label(),
                r.a.n,
                r.b.n,
            )
            .expect("string write");
        }
        for (workload, metric, a, b) in &self.exact_diffs {
            writeln!(
                out,
                "{workload:<10} {metric}: exact count differs, {a} -> {b}"
            )
            .expect("string write");
        }
        for rise in &self.check_rises {
            writeln!(out, "{rise}").expect("string write");
        }
        out
    }
}

fn summary_of(entry: &Value) -> Option<Summary> {
    Some(Summary {
        n: entry.get("n")?.as_u64()? as usize,
        median: entry.get("median")?.as_f64()?,
        min: entry.get("min")?.as_f64()?,
        max: entry.get("max")?.as_f64()?,
    })
}

/// Compares two results files (as parsed JSON).
///
/// # Errors
///
/// When either document is not a results file.
pub fn compare(a: &Value, b: &Value) -> Result<Comparison, String> {
    let workloads = |doc: &Value, which: &str| {
        doc.get("workloads")
            .and_then(Value::as_obj)
            .cloned()
            .ok_or_else(|| format!("{which} is not a dss-perf results file"))
    };
    let (wa, wb) = (workloads(a, "A")?, workloads(b, "B")?);
    let mut cmp = Comparison::default();
    for w in &spec::WORKLOADS {
        let (Some(ra), Some(rb)) = (wa.get(w.name), wb.get(w.name)) else {
            continue;
        };
        for metric in &spec::END_TO_END {
            let side = |r: &Value| r.get("end_to_end")?.get(metric.name).and_then(summary_of);
            if let (Some(sa), Some(sb)) = (side(ra), side(rb)) {
                cmp.rows.push(Row {
                    workload: w.name.to_string(),
                    metric: metric.name,
                    a: sa,
                    b: sb,
                    verdict: judge(metric, &sa, &sb),
                });
            }
        }
        for layer in spec::PER_LAYER.iter().filter(|l| l.exact) {
            let side = |r: &Value| r.get("per_layer")?.get(layer.name)?.get("value")?.as_f64();
            if let (Some(va), Some(vb)) = (side(ra), side(rb)) {
                if va != vb {
                    cmp.exact_diffs
                        .push((w.name.to_string(), layer.name, va, vb));
                }
            }
        }
        let checks = |r: &Value| {
            Some((
                r.get("checks_failed")?.as_f64()?,
                r.get("checks_attempted")?.as_f64()?.max(1.0),
            ))
        };
        if let (Some((fa, na)), Some((fb, nb))) = (checks(ra), checks(rb)) {
            if fb > fa || fb / nb > fa / na {
                cmp.check_rises.push(format!(
                    "{:<10} checks failed rose: {fa} of {na} -> {fb} of {nb}",
                    w.name
                ));
            }
        }
    }
    if cmp.rows.is_empty() {
        return Err("the two files share no workload".to_string());
    }
    Ok(cmp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    /// A results file with one workload whose `wall_s` samples are given.
    fn file(wall: &[f64], cycles: f64, failed: u64) -> Value {
        let s = Summary::of(wall).unwrap();
        parse(&format!(
            r#"{{"workloads": {{"sweep": {{
                "checks_attempted": 40, "checks_failed": {failed},
                "end_to_end": {{"wall_s": {{"unit": "s", "n": {}, "median": {}, "min": {}, "max": {}}}}},
                "per_layer": {{"memsim.sim_cycles": {{"unit": "cycles", "exact": true, "value": {cycles}}},
                               "memsim.run_s": {{"unit": "s", "exact": false, "value": {}}}}}
            }}}}}}"#,
            s.n, s.median, s.min, s.max, s.median
        ))
        .unwrap()
    }

    /// Judged against a 10 % bound, whatever the real metrics carry.
    fn verdict(a: &[f64], b: &[f64]) -> Verdict {
        let metric = EndToEnd {
            name: "t_s",
            unit: "s",
            better: Better::Lower,
            bound: 0.10,
        };
        judge(&metric, &Summary::of(a).unwrap(), &Summary::of(b).unwrap())
    }

    #[test]
    fn better_worse_within_unresolved() {
        let a = [10.0, 10.1, 10.2];
        assert_eq!(verdict(&a, &[8.0, 8.1, 8.2]), Verdict::Better);
        assert_eq!(verdict(&a, &[12.0, 12.1, 12.2]), Verdict::Worse);
        assert_eq!(verdict(&a, &[10.3, 10.4, 10.5]), Verdict::Within);
        // B's own spread (30 %) exceeds the bound and overlaps A.
        assert_eq!(verdict(&a, &[9.0, 11.8, 12.0]), Verdict::Unresolved);
        // Just as noisy, but every B run is slower than every A run.
        assert_eq!(verdict(&a, &[12.0, 14.0, 16.0]), Verdict::Worse);
        // ... or faster.
        assert_eq!(verdict(&a, &[5.0, 6.0, 7.0]), Verdict::Better);
        // Higher-is-better metrics flip the sign.
        let rate = EndToEnd {
            name: "r",
            unit: "1/s",
            better: Better::Higher,
            bound: 0.10,
        };
        let (lo, hi) = (Summary::of(&[8.0]).unwrap(), Summary::of(&[10.0]).unwrap());
        assert_eq!(judge(&rate, &hi, &lo), Verdict::Worse);
        assert_eq!(judge(&rate, &lo, &hi), Verdict::Better);
    }

    #[test]
    fn only_worse_rows_and_check_rises_fail_the_gate() {
        let bound = spec::END_TO_END[0].bound;
        let steady = |median: f64| [median * 0.99, median, median * 1.01];
        let a = file(&steady(10.0), 5.0, 0);
        let same = compare(&a, &a).unwrap();
        assert_eq!(same.rows.len(), 1);
        assert_eq!(same.rows[0].verdict, Verdict::Within);
        assert!(!same.regressed());
        assert!(same.exact_diffs.is_empty());

        let slower = compare(&a, &file(&steady(10.0 * (1.0 + 2.0 * bound)), 5.0, 0)).unwrap();
        assert_eq!(slower.rows[0].verdict, Verdict::Worse);
        assert!(slower.regressed());

        let wide = [
            10.0 * (1.0 - bound),
            10.0 * (1.0 + bound),
            10.0 * (1.0 + 2.0 * bound),
        ];
        let noisy = compare(&a, &file(&wide, 5.0, 0)).unwrap();
        assert_eq!(noisy.rows[0].verdict, Verdict::Unresolved);
        assert!(!noisy.regressed(), "unresolved is reported, not failed");

        // A changed exact count is a row of its own; a changed host time
        // among the layers is not.
        let model = compare(&a, &file(&steady(10.0), 6.0, 0)).unwrap();
        assert_eq!(
            model.exact_diffs,
            vec![("sweep".to_string(), "memsim.sim_cycles", 5.0, 6.0)]
        );
        assert!(!model.regressed());
        assert!(model.render().contains("exact count differs"));

        let broken = compare(&a, &file(&steady(10.0), 5.0, 1)).unwrap();
        assert!(broken.regressed());
        assert!(broken.render().contains("checks failed rose"));
    }

    #[test]
    fn rejects_files_that_are_not_results() {
        assert!(compare(&parse("{}").unwrap(), &parse("{}").unwrap()).is_err());
        let a = file(&[1.0], 1.0, 0);
        let other = parse(r#"{"workloads": {}}"#).unwrap();
        assert!(compare(&a, &other).is_err());
    }
}
