//! The model check: exhaustive reachability checking of the
//! coherence-protocol transition kernel.
//!
//! The simulator routes every coherence decision through the pure kernel in
//! `dss_memsim::protocol`; this pass explores that kernel's *entire*
//! reachable state space over small configurations ({MSI, MESI} × 2–4
//! processors × 1–2 lines) and checks, at every reachable state:
//!
//! * **SWMR and directory–cache agreement** — the same
//!   [`dss_memsim::protocol::check_line`] rules the runtime observer
//!   (`Machine::verify_line`) enforces;
//! * **the data-value invariant** — via the kernel's freshness abstraction
//!   of symbolic write tokens ([`dss_memsim::protocol::check_data_value`]);
//! * **quiescence** — draining every cached copy reaches the stable
//!   uncached state.
//!
//! Because the machine takes its transitions from the same kernel, a clean
//! exploration vouches for the protocol the simulator actually runs — new
//! variants (the roadmap's MOESI, update-based protocols) land against this
//! gate instead of against golden statistics alone.
//!
//! A litmus suite pins individual transaction shapes (store-buffering
//! interleavings, dirty forwarding, MESI exclusive grants, prefetch
//! filtering) to their required final states, so a regression is reported as
//! the specific named scenario it breaks, not only as an abstract
//! reachability failure. Violations render as minimal replayable event
//! sequences ([`render_counterexample`]), which the failing test prints.

use std::fmt::Write as _;

use dss_memsim::protocol::{
    check_data_value, check_line, explore, ExploreConfig, Kernel, ModelViolation, Op, ProtocolState,
};
use dss_memsim::Protocol;

/// One exhaustive exploration of a (protocol, processors, lines) point.
#[derive(Debug)]
pub struct ModelRun {
    /// Protocol variant explored.
    pub protocol: Protocol,
    /// Modeled processors.
    pub nprocs: usize,
    /// Independent lines modeled as a product space.
    pub nlines: usize,
    /// Distinct reachable states.
    pub states: usize,
    /// Transitions examined.
    pub transitions: usize,
    /// Whether the space was exhausted.
    pub complete: bool,
    /// The first violation found, if any (with a minimal replay path).
    pub violation: Option<ModelViolation>,
}

impl ModelRun {
    /// Whether this run is a finding (violation or un-exhausted space).
    pub fn is_finding(&self) -> bool {
        self.violation.is_some() || !self.complete
    }
}

/// Result of one litmus test: `failure` describes what diverged from the
/// required behavior, `None` means the scenario played out as pinned.
#[derive(Debug)]
pub struct LitmusOutcome {
    /// Scenario name.
    pub name: &'static str,
    /// What went wrong, if anything.
    pub failure: Option<String>,
}

/// Everything the model pass measured.
#[derive(Debug)]
pub struct ModelReport {
    /// Exhaustive explorations, in matrix order.
    pub runs: Vec<ModelRun>,
    /// Litmus outcomes, in suite order.
    pub litmus: Vec<LitmusOutcome>,
}

impl ModelReport {
    /// Findings: violations, incomplete explorations, and failed litmus
    /// tests.
    pub fn findings(&self) -> usize {
        self.runs.iter().filter(|r| r.is_finding()).count()
            + self.litmus.iter().filter(|l| l.failure.is_some()).count()
    }
}

/// Human name of a protocol variant.
pub fn protocol_name(p: Protocol) -> &'static str {
    match p {
        Protocol::Msi => "MSI",
        Protocol::Mesi => "MESI",
    }
}

/// Runs the full model pass: the exhaustive exploration matrix
/// ({MSI, MESI} × 2–4 processors × 1–2 lines, quiescence checked) plus the
/// litmus suite.
pub fn check_model() -> ModelReport {
    let mut runs = Vec::new();
    for protocol in [Protocol::Msi, Protocol::Mesi] {
        for nprocs in 2..=4usize {
            for nlines in 1..=2usize {
                let kernel = Kernel::new(protocol);
                let ex = explore(&kernel, &ExploreConfig::new(nprocs, nlines));
                runs.push(ModelRun {
                    protocol,
                    nprocs,
                    nlines,
                    states: ex.states,
                    transitions: ex.transitions,
                    complete: ex.complete,
                    violation: ex.violation,
                });
            }
        }
    }
    let litmus = LITMUS.iter().map(run_litmus).collect();
    ModelReport { runs, litmus }
}

/// Renders a violating run as a replayable counterexample: the kernel
/// configuration, the violated rule, the minimal op sequence from reset, and
/// the state it reaches. Empty string for clean runs.
pub fn render_counterexample(run: &ModelRun) -> String {
    let Some(v) = &run.violation else {
        return String::new();
    };
    let mut out = String::new();
    let _ = writeln!(out, "model counterexample");
    let _ = writeln!(
        out,
        "kernel: {}, {} processors, {} modeled line(s)",
        protocol_name(run.protocol),
        run.nprocs,
        run.nlines
    );
    let _ = writeln!(out, "violated rule: {} (on line {})", v.rule, v.line);
    let _ = writeln!(out, "replay from reset:");
    for (i, (line, op)) in v.path.iter().enumerate() {
        let _ = writeln!(out, "  {}. line {line}: {op}", i + 1);
    }
    let _ = writeln!(out, "state after replay:");
    for (li, s) in v.states.iter().enumerate() {
        let _ = writeln!(out, "  line {li}: {}", render_state(s, run.nprocs));
    }
    out
}

/// One-line rendering of a protocol state over `nprocs` nodes.
fn render_state(s: &ProtocolState, nprocs: usize) -> String {
    let mut caches = String::new();
    for node in 0..nprocs {
        if node > 0 {
            caches.push_str(", ");
        }
        match s.caches.get(node).copied().flatten() {
            Some(state) => {
                let _ = write!(caches, "P{node}={state:?}");
            }
            None => {
                let _ = write!(caches, "P{node}=-");
            }
        }
    }
    format!(
        "caches [{caches}] directory {{ sharers: {:#b}, owner: {:?} }} fresh={:#b} memory {}",
        s.entry.sharers,
        s.entry.owner,
        s.fresh,
        if s.mem_fresh { "current" } else { "stale" },
    )
}

/// A pinned event sequence with a required outcome: `ops` replay from reset
/// (every intermediate state must satisfy the invariants), then `check`
/// judges the final per-line states.
struct Litmus {
    name: &'static str,
    protocol: Protocol,
    nprocs: usize,
    nlines: usize,
    ops: &'static [(usize, Op)],
    check: fn(&[ProtocolState]) -> Result<(), String>,
}

const R0: Op = Op::Read { node: 0 };
const R1: Op = Op::Read { node: 1 };
const W0: Op = Op::Write { node: 0 };
const W1: Op = Op::Write { node: 1 };
const W2: Op = Op::Write { node: 2 };
const E0: Op = Op::Evict { node: 0 };
const PF0: Op = Op::Prefetch { node: 0 };

use dss_memsim::LineState::{Exclusive, Modified, Shared};

/// The litmus suite: message-ordering and transaction-shape scenarios with
/// required final states.
static LITMUS: &[Litmus] = &[
    Litmus {
        name: "msi-read-installs-shared",
        protocol: Protocol::Msi,
        nprocs: 2,
        nlines: 1,
        ops: &[(0, R0)],
        check: |s| {
            expect(s[0].caches[0] == Some(Shared), "P0 holds Shared")?;
            expect(s[0].entry.sharers == 0b1, "P0 in the sharer mask")
        },
    },
    Litmus {
        name: "read-share",
        protocol: Protocol::Msi,
        nprocs: 2,
        nlines: 1,
        ops: &[(0, R0), (0, R1)],
        check: |s| {
            expect(
                s[0].caches[0] == Some(Shared) && s[0].caches[1] == Some(Shared),
                "both nodes hold Shared",
            )?;
            expect(
                s[0].entry.sharers == 0b11 && s[0].entry.owner.is_none(),
                "directory lists both, owns neither",
            )
        },
    },
    Litmus {
        name: "write-invalidates-sharers",
        protocol: Protocol::Msi,
        nprocs: 3,
        nlines: 1,
        ops: &[(0, R0), (0, R1), (0, W2)],
        check: |s| {
            expect(
                s[0].caches[0].is_none() && s[0].caches[1].is_none(),
                "both sharers invalidated",
            )?;
            expect(s[0].caches[2] == Some(Modified), "writer holds Modified")?;
            expect(s[0].entry.owner == Some(2), "writer owns the line")
        },
    },
    Litmus {
        name: "mesi-exclusive-grant",
        protocol: Protocol::Mesi,
        nprocs: 2,
        nlines: 1,
        ops: &[(0, R0)],
        check: |s| {
            expect(s[0].caches[0] == Some(Exclusive), "sole reader granted E")?;
            expect(s[0].entry.owner == Some(0), "grant recorded as ownership")
        },
    },
    Litmus {
        name: "mesi-silent-upgrade",
        protocol: Protocol::Mesi,
        nprocs: 2,
        nlines: 1,
        ops: &[(0, R0), (0, W0)],
        check: |s| {
            expect(s[0].caches[0] == Some(Modified), "E upgraded to M in place")?;
            expect(s[0].entry.owner == Some(0), "ownership unchanged")
        },
    },
    Litmus {
        name: "mesi-second-reader-shares",
        protocol: Protocol::Mesi,
        nprocs: 2,
        nlines: 1,
        ops: &[(0, R0), (0, R1)],
        check: |s| {
            expect(
                s[0].caches[0] == Some(Shared) && s[0].caches[1] == Some(Shared),
                "exclusive copy downgraded for the second reader",
            )
        },
    },
    Litmus {
        name: "dirty-forward-refreshes-memory",
        protocol: Protocol::Msi,
        nprocs: 3,
        nlines: 1,
        ops: &[(0, W0), (0, R1)],
        check: |s| {
            expect(
                s[0].caches[0] == Some(Shared) && s[0].caches[1] == Some(Shared),
                "dirty owner downgraded, reader filled",
            )?;
            expect(s[0].mem_fresh, "forwarded data also updated memory")?;
            expect(s[0].fresh == 0b11, "both copies hold the written value")
        },
    },
    Litmus {
        name: "evict-writeback-quiesces",
        protocol: Protocol::Msi,
        nprocs: 2,
        nlines: 1,
        ops: &[(0, W0), (0, E0)],
        check: |s| {
            expect(
                s[0].is_quiescent(2),
                "writeback drained to the stable state",
            )
        },
    },
    Litmus {
        name: "prefetch-skips-dirty",
        protocol: Protocol::Mesi,
        nprocs: 2,
        nlines: 1,
        ops: &[(0, W1), (0, PF0)],
        check: |s| {
            expect(
                s[0].caches[0].is_none(),
                "prefetcher skipped the owned line",
            )?;
            expect(s[0].caches[1] == Some(Modified), "owner undisturbed")
        },
    },
    Litmus {
        name: "invalidate-then-reread",
        protocol: Protocol::Msi,
        nprocs: 2,
        nlines: 1,
        ops: &[(0, R0), (0, W1), (0, R0)],
        check: |s| {
            expect(s[0].fresh & 0b1 != 0, "re-read observes the new value")?;
            expect(
                s[0].caches[0] == Some(Shared) && s[0].caches[1] == Some(Shared),
                "writer downgraded for the re-read",
            )
        },
    },
    // The store-buffering interleaving (P0: W x; R y || P1: W y; R x) over
    // two lines: both reads must observe the other node's write.
    Litmus {
        name: "store-buffering",
        protocol: Protocol::Msi,
        nprocs: 2,
        nlines: 2,
        ops: &[(0, W0), (1, W1), (1, R0), (0, R1)],
        check: |s| {
            expect(s[1].fresh & 0b1 != 0, "P0's read of y observes P1's write")?;
            expect(s[0].fresh & 0b10 != 0, "P1's read of x observes P0's write")?;
            expect(
                s[0].caches[0] == Some(Shared) && s[0].caches[1] == Some(Shared),
                "x settles shared",
            )?;
            expect(
                s[1].caches[0] == Some(Shared) && s[1].caches[1] == Some(Shared),
                "y settles shared",
            )
        },
    },
];

/// `Ok(())` if `cond`, else the failed requirement.
fn expect(cond: bool, what: &str) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(format!("expected {what}"))
    }
}

/// Replays one litmus scenario through the kernel, checking the invariants
/// at every step and the pinned outcome at the end.
fn run_litmus(l: &Litmus) -> LitmusOutcome {
    let kernel = Kernel::new(l.protocol);
    let mut states = vec![ProtocolState::reset(); l.nlines];
    for (i, (line, op)) in l.ops.iter().enumerate() {
        let Some(s) = states.get(*line).copied() else {
            return LitmusOutcome {
                name: l.name,
                failure: Some(format!("op {} targets line {line} of {}", i + 1, l.nlines)),
            };
        };
        states[*line] = kernel.step(s, *op).0;
        for (li, s) in states.iter().enumerate() {
            let verdict = check_line(&s.caches[..l.nprocs], s.entry)
                .and_then(|()| check_data_value(s, l.nprocs));
            if let Err(rule) = verdict {
                return LitmusOutcome {
                    name: l.name,
                    failure: Some(format!(
                        "invariant broken after op {} ({op} on line {line}): {rule}; line {li}: {}",
                        i + 1,
                        render_state(s, l.nprocs)
                    )),
                };
            }
        }
    }
    let failure = (l.check)(&states).err().map(|why| {
        let rendered: Vec<String> = states
            .iter()
            .enumerate()
            .map(|(li, s)| format!("line {li}: {}", render_state(s, l.nprocs)))
            .collect();
        format!("{why}; final state {}", rendered.join("; "))
    });
    LitmusOutcome {
        name: l.name,
        failure,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dss_memsim::protocol::KernelFault;

    #[test]
    fn the_full_matrix_is_clean_and_exhausted() {
        let report = check_model();
        assert_eq!(
            report.runs.len(),
            12,
            "2 protocols × 3 sizes × 2 line counts"
        );
        for run in &report.runs {
            assert!(run.complete, "{:?} not exhausted", run);
            assert!(run.violation.is_none(), "{}", render_counterexample(run));
        }
        assert_eq!(report.findings(), 0);
    }

    #[test]
    fn every_litmus_scenario_passes_on_the_real_kernel() {
        let report = check_model();
        assert!(!report.litmus.is_empty());
        for l in &report.litmus {
            assert!(l.failure.is_none(), "{}: {:?}", l.name, l.failure);
        }
    }

    #[test]
    fn counterexamples_render_as_replayable_sequences() {
        let kernel = Kernel::with_fault(Protocol::Msi, KernelFault::SilentUpgradeMsi);
        let ex = explore(&kernel, &ExploreConfig::new(2, 1));
        let run = ModelRun {
            protocol: Protocol::Msi,
            nprocs: 2,
            nlines: 1,
            states: ex.states,
            transitions: ex.transitions,
            complete: ex.complete,
            violation: ex.violation,
        };
        assert!(run.is_finding());
        let text = render_counterexample(&run);
        assert!(text.contains("violated rule: a node holds the line writable"));
        assert!(text.contains("replay from reset:"));
        assert!(text.contains("1. line 0: P0 Read"), "{text}");
        assert!(text.contains("2. line 0: P0 Write"), "{text}");
        assert!(text.contains("memory stale"), "{text}");
    }

    #[test]
    fn clean_runs_render_nothing() {
        let run = ModelRun {
            protocol: Protocol::Mesi,
            nprocs: 2,
            nlines: 1,
            states: 1,
            transitions: 0,
            complete: true,
            violation: None,
        };
        assert!(render_counterexample(&run).is_empty());
        assert!(!run.is_finding());
    }

    #[test]
    fn a_broken_litmus_outcome_names_the_divergence() {
        // Run the prefetch litmus against a kernel with the silent-upgrade
        // fault: the scenario itself is unaffected, so instead check a
        // deliberately wrong predicate reports through `failure`.
        let bad = Litmus {
            name: "deliberately-wrong",
            protocol: Protocol::Msi,
            nprocs: 2,
            nlines: 1,
            ops: &[(0, R0)],
            check: |s| expect(s[0].caches[0].is_none(), "reader cached nothing"),
        };
        let out = run_litmus(&bad);
        let failure = out.failure.expect("predicate must fail");
        assert!(failure.contains("expected reader cached nothing"));
        assert!(failure.contains("final state"), "{failure}");
    }
}
