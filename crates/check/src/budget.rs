//! The allocation budget: the machine-readable counts `tests/paper_scale.rs`
//! measures and ratchets.
//!
//! One [`RunBudget`] per audited run (query × protocol), split into the
//! warm-up phase (machine construction plus the first, buffer-growing
//! simulation) and the steady-state phase (an identical second simulation on
//! the warmed machine, which must not touch the heap at all). An untraced
//! engine execution is a run with the first phase only: the whole of it is
//! ratcheted, and it has no phase that must be silent. A traced engine
//! execution recorded twice has both phases and both are ratcheted
//! ([`RunBudget::steady_ratcheted`]): the engine allocates per row either
//! time, and what the second recording must not do again is grow an event
//! buffer. The committed
//! copy lives at `crates/check/alloc-budget.json`; [`AllocBudget::diff`]
//! compares a fresh measurement against it with ratchet semantics:
//!
//! * any steady-state heap activity of a simulation is a hard failure (no
//!   allowlisting);
//! * a ratcheted count *above* the committed budget is a regression;
//! * a ratcheted count *below* it is an improvement that must be banked by
//!   committing the budget the failing test prints, so the budget only ever
//!   tracks reality.
//!
//! The format is JSON for toolability, but constrained — one run object per
//! line — so this std-only parser can read it back line by line without a
//! JSON library.

use std::fmt;

/// Heap counters for one measured phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Calls to `alloc`/`alloc_zeroed`.
    pub allocs: u64,
    /// Calls to `dealloc`.
    pub deallocs: u64,
    /// Calls to `realloc`.
    pub reallocs: u64,
    /// Bytes requested by allocations.
    pub bytes_allocated: u64,
    /// Peak live heap bytes above the phase's entry level.
    pub peak_bytes: u64,
}

impl Counts {
    /// True when the phase performed no heap operation at all.
    pub fn is_heap_silent(&self) -> bool {
        self.allocs == 0 && self.deallocs == 0 && self.reallocs == 0
    }
}

impl fmt::Display for Counts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} alloc(s) / {} dealloc(s) / {} realloc(s), {} B allocated, {} B peak",
            self.allocs, self.deallocs, self.reallocs, self.bytes_allocated, self.peak_bytes
        )
    }
}

/// The audited phases of one run of the baseline suite.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunBudget {
    /// Run label ("Q3 / MSI baseline").
    pub run: String,
    /// The ratcheted phase: machine construction plus the first simulation
    /// (buffers grow here), or an engine run's whole execution.
    pub warmup: Counts,
    /// The second simulation on the warmed machine; must be heap-silent.
    /// Zero for an untraced engine run.
    pub steady: Counts,
    /// The steady phase is a second traced execution, ratcheted like the
    /// warm-up instead of held to silence.
    pub steady_ratcheted: bool,
}

/// The whole budget file: one [`RunBudget`] per audited run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AllocBudget {
    /// Budgets in suite order (queries × protocols).
    pub runs: Vec<RunBudget>,
}

/// Schema tag written into (and required from) the budget file.
pub const BUDGET_SCHEMA: &str = "dss-check-alloc/v1";

impl AllocBudget {
    /// Renders the budget as JSON, one run object per line.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{BUDGET_SCHEMA}\",\n"));
        out.push_str("  \"runs\": [\n");
        for (i, r) in self.runs.iter().enumerate() {
            let sep = if i + 1 == self.runs.len() { "" } else { "," };
            let ratcheted = if r.steady_ratcheted {
                ", \"steady_ratcheted\": true"
            } else {
                ""
            };
            out.push_str(&format!(
                "    {{\"run\": \"{}\", {}, {}{ratcheted}}}{sep}\n",
                r.run,
                phase_json("warmup", &r.warmup),
                phase_json("steady", &r.steady),
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses what [`AllocBudget::to_json`] wrote.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line; a missing or
    /// mismatched schema tag is an error so stale files fail loudly.
    pub fn parse(text: &str) -> Result<AllocBudget, String> {
        if !text.contains(BUDGET_SCHEMA) {
            return Err(format!("budget file lacks schema tag `{BUDGET_SCHEMA}`"));
        }
        let mut runs = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if !line.starts_with("{\"run\":") && !line.starts_with("{ \"run\":") {
                continue;
            }
            runs.push(parse_run(line)?);
        }
        Ok(AllocBudget { runs })
    }

    /// The invariant no budget can bank away: one problem per simulation run
    /// whose steady state touched the heap.
    pub fn silence_violations(&self) -> Vec<String> {
        self.runs
            .iter()
            .filter(|r| !r.steady_ratcheted && !r.steady.is_heap_silent())
            .map(|r| {
                format!(
                    "{}: steady-state heap activity ({}) — Machine::run must not allocate once warmed",
                    r.run, r.steady
                )
            })
            .collect()
    }

    /// Ratchet comparison of `measured` against this committed budget.
    /// Returns human-readable problems; empty means the gate passes.
    pub fn diff(&self, measured: &AllocBudget) -> Vec<String> {
        let mut problems = measured.silence_violations();
        for m in &measured.runs {
            match self.runs.iter().find(|b| b.run == m.run) {
                None => problems.push(format!(
                    "{}: not in the committed budget — commit the measured budget",
                    m.run
                )),
                Some(b) => {
                    problems.extend(ratchet(&m.run, "", &m.warmup, &b.warmup));
                    if m.steady_ratcheted {
                        problems.extend(ratchet(&m.run, "steady-state ", &m.steady, &b.steady));
                    }
                }
            }
        }
        for b in &self.runs {
            if !measured.runs.iter().any(|m| m.run == b.run) {
                problems.push(format!(
                    "{}: in the committed budget but not measured",
                    b.run
                ));
            }
        }
        problems
    }
}

/// One ratcheted phase against its budget: worse is a regression, different
/// and no worse an improvement to bank.
fn ratchet(run: &str, phase: &str, measured: &Counts, budget: &Counts) -> Option<String> {
    if worse(measured, budget) {
        Some(format!(
            "{run}: {phase}heap use regressed: measured {measured} vs budget {budget}"
        ))
    } else if measured != budget {
        Some(format!(
            "{run}: {phase}heap use improved ({measured} vs budget {budget}) — bank it: commit the measured budget"
        ))
    } else {
        None
    }
}

/// Any counter above budget makes a phase worse.
fn worse(measured: &Counts, budget: &Counts) -> bool {
    measured.allocs > budget.allocs
        || measured.deallocs > budget.deallocs
        || measured.reallocs > budget.reallocs
        || measured.bytes_allocated > budget.bytes_allocated
        || measured.peak_bytes > budget.peak_bytes
}

fn phase_json(name: &str, c: &Counts) -> String {
    format!(
        "\"{name}\": {{\"allocs\": {}, \"deallocs\": {}, \"reallocs\": {}, \"bytes_allocated\": {}, \"peak_bytes\": {}}}",
        c.allocs, c.deallocs, c.reallocs, c.bytes_allocated, c.peak_bytes
    )
}

/// Extracts the string value of `"key"` from a single-line JSON object.
fn str_field<'a>(line: &'a str, key: &str) -> Result<&'a str, String> {
    let pat = format!("\"{key}\": \"");
    let start = line
        .find(&pat)
        .ok_or_else(|| format!("missing `{key}` in `{line}`"))?
        + pat.len();
    let end = line[start..]
        .find('"')
        .ok_or_else(|| format!("unterminated `{key}` in `{line}`"))?;
    Ok(&line[start..start + end])
}

/// Extracts the number after the `n`-th occurrence of `"key":`.
fn num_field(line: &str, key: &str, occurrence: usize) -> Result<u64, String> {
    let pat = format!("\"{key}\": ");
    let mut from = 0;
    for _ in 0..=occurrence {
        let at = line[from..]
            .find(&pat)
            .ok_or_else(|| format!("missing `{key}` #{occurrence} in `{line}`"))?;
        from += at + pat.len();
    }
    let digits: String = line[from..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits
        .parse()
        .map_err(|_| format!("bad `{key}` #{occurrence} in `{line}`"))
}

fn parse_phase(line: &str, occurrence: usize) -> Result<Counts, String> {
    Ok(Counts {
        allocs: num_field(line, "allocs", occurrence)?,
        deallocs: num_field(line, "deallocs", occurrence)?,
        reallocs: num_field(line, "reallocs", occurrence)?,
        bytes_allocated: num_field(line, "bytes_allocated", occurrence)?,
        peak_bytes: num_field(line, "peak_bytes", occurrence)?,
    })
}

fn parse_run(line: &str) -> Result<RunBudget, String> {
    Ok(RunBudget {
        run: str_field(line, "run")?.to_string(),
        warmup: parse_phase(line, 0)?,
        steady: parse_phase(line, 1)?,
        steady_ratcheted: line.contains("\"steady_ratcheted\": true"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AllocBudget {
        AllocBudget {
            runs: vec![
                RunBudget {
                    run: "Q3 / MSI baseline".into(),
                    warmup: Counts {
                        allocs: 120,
                        deallocs: 40,
                        reallocs: 8,
                        bytes_allocated: 1 << 20,
                        peak_bytes: 900_000,
                    },
                    steady: Counts::default(),
                    steady_ratcheted: false,
                },
                RunBudget {
                    run: "Q3 / MESI".into(),
                    warmup: Counts {
                        allocs: 110,
                        deallocs: 35,
                        reallocs: 7,
                        bytes_allocated: 1 << 19,
                        peak_bytes: 400_000,
                    },
                    steady: Counts::default(),
                    steady_ratcheted: false,
                },
                RunBudget {
                    run: "Q6 / engine traced, recorded twice".into(),
                    warmup: Counts {
                        allocs: 500,
                        deallocs: 499,
                        reallocs: 30,
                        bytes_allocated: 1 << 22,
                        peak_bytes: 1 << 21,
                    },
                    steady: Counts {
                        allocs: 500,
                        deallocs: 499,
                        reallocs: 9,
                        bytes_allocated: 1 << 18,
                        peak_bytes: 1 << 17,
                    },
                    steady_ratcheted: true,
                },
            ],
        }
    }

    #[test]
    fn json_roundtrips() {
        let b = sample();
        let parsed = AllocBudget::parse(&b.to_json()).expect("parses its own output");
        assert_eq!(parsed, b);
    }

    #[test]
    fn schema_tag_is_required() {
        assert!(AllocBudget::parse("{\"runs\": []}").is_err());
    }

    #[test]
    fn identical_budgets_diff_clean() {
        assert!(sample().diff(&sample()).is_empty());
    }

    #[test]
    fn steady_state_activity_is_a_hard_failure() {
        let mut m = sample();
        m.runs[0].steady.allocs = 1;
        let problems = sample().diff(&m);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("steady-state heap activity"));
    }

    #[test]
    fn warmup_drift_fails_in_both_directions() {
        let mut worse = sample();
        worse.runs[0].warmup.allocs += 1;
        assert!(sample().diff(&worse)[0].contains("regressed"));

        let mut better = sample();
        better.runs[1].warmup.bytes_allocated -= 1;
        assert!(sample().diff(&better)[0].contains("improved"));
    }

    #[test]
    fn a_ratcheted_steady_state_drifts_like_a_warmup() {
        let mut worse = sample();
        worse.runs[2].steady.reallocs += 1;
        let problems = sample().diff(&worse);
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("steady-state heap use regressed"));

        let mut better = sample();
        better.runs[2].steady.bytes_allocated -= 1;
        assert!(sample().diff(&better)[0].contains("improved"));
    }

    #[test]
    fn run_set_mismatches_are_reported() {
        let mut m = sample();
        m.runs.remove(1);
        m.runs.push(RunBudget {
            run: "Q99 / MSI baseline".into(),
            warmup: Counts::default(),
            steady: Counts::default(),
            steady_ratcheted: false,
        });
        let problems = sample().diff(&m);
        assert!(problems
            .iter()
            .any(|p| p.contains("not in the committed budget")));
        assert!(problems.iter().any(|p| p.contains("not measured")));
    }
}
