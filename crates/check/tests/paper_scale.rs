//! The trace-driven checks at the paper's scale, over one
//! `Workbench::paper()`:
//!
//! * **races** — the happens-before replay of Q3, Q6 and Q12 finds no race,
//!   nests no spinlocks (so no lock-order cycle), and actually covers the
//!   buffer and lock metadata the paper's premise concerns;
//! * **invariants** — every run of the baseline suite (the studied queries ×
//!   {MSI, MESI}) leaves the directory protocol's invariants intact (with
//!   `--features check-invariants`, after every transaction too);
//! * **allocation budget** — a warmed `Machine::run` touches the heap not at
//!   all, and every measured count equals [`BUDGET`]. On a difference the
//!   failure prints the table this tree measures, to paste over `BUDGET`
//!   after a deliberate change.
//!
//! One test alone in its binary: the counting allocator's counters are
//! process-global, so nothing may run beside the measured scopes.

#[path = "../src/alloc.rs"]
mod alloc;

use alloc::{AllocGate, AllocReport, CountingAlloc};
use dss_check::{check_machine, detect_races};
use dss_core::{query_label, Workbench, STUDIED_QUERIES};
use dss_memsim::{Machine, MachineConfig, Protocol, SimStats};
use dss_query::{sql_for, Plan, Session};
use dss_tpcd::params;
use dss_trace::DataClass;

#[global_allocator]
static COUNTING_ALLOC: CountingAlloc = CountingAlloc;

/// The allocation budget, in [`measure`]'s order: per run a label, then
/// `[allocs, deallocs, reallocs, bytes_allocated, peak_bytes]` of its first
/// phase and of its second. A simulation's first phase is machine
/// construction plus the first run, its second an identical run on the
/// warmed machine; an untraced engine run has a first phase only; the traced
/// engine run's phases are its two recordings.
const BUDGET: [(&str, [u64; 5], [u64; 5]); 9] = [
    (
        "Q3 / MSI baseline",
        [346, 0, 5, 2352256, 2351776],
        [0, 0, 0, 0, 0],
    ),
    ("Q3 / MESI", [346, 0, 5, 2352256, 2351776], [0, 0, 0, 0, 0]),
    (
        "Q6 / MSI baseline",
        [262, 0, 5, 1750144, 1749664],
        [0, 0, 0, 0, 0],
    ),
    ("Q6 / MESI", [262, 0, 5, 1750144, 1749664], [0, 0, 0, 0, 0]),
    (
        "Q12 / MSI baseline",
        [309, 0, 5, 2077824, 2077344],
        [0, 0, 0, 0, 0],
    ),
    ("Q12 / MESI", [309, 0, 5, 2077824, 2077344], [0, 0, 0, 0, 0]),
    (
        "Q1 / engine untraced (scan, sort, group)",
        [723407, 723402, 34, 36682224, 12388624],
        [0, 0, 0, 0, 0],
    ),
    (
        "Q9 / engine untraced (nested-loop and hash joins)",
        [142404, 142393, 83, 13974489, 3351480],
        [0, 0, 0, 0, 0],
    ),
    (
        "Q6 / engine traced, recorded twice",
        [1300, 1295, 19, 33677964, 25167788],
        [1299, 1295, 0, 123564, 3124],
    ),
];

/// The engine executions the budget pins: a template and the operators
/// its plan is made of.
const ENGINE_RUNS: [(u8, &str); 2] = [(1, "scan, sort, group"), (9, "nested-loop and hash joins")];

/// The template the budget records twice: a scan whose trace is a few
/// million events, so an event buffer grown again shows as tens of
/// megabytes.
const TRACED_QUERY: u8 = 6;

#[test]
fn paper_scale_traces_are_race_free_coherent_and_on_budget() {
    let mut wb = Workbench::paper();

    for query in STUDIED_QUERIES {
        let label = query_label(query);
        let report = detect_races(&wb.traces(query, 0))
            .unwrap_or_else(|e| panic!("{label}: traces not analyzable: {e}"));
        assert!(
            report.races.is_empty(),
            "{label}: {} race(s), first: {}",
            report.races.len(),
            report.races[0]
        );
        assert_eq!(report.nesting, [], "{label} nests its spinlocks");
        for class in [
            DataClass::BufDesc,
            DataClass::BufLookup,
            DataClass::LockHash,
        ] {
            assert!(
                report.checked.get(&class).is_some_and(|&n| n > 0),
                "{label}: no {class} accesses checked — the detector saw nothing"
            );
        }
    }

    let measured = measure(&mut wb);
    let table: String = measured
        .iter()
        .map(|(run, first, second)| format!("    ({run:?}, {first:?}, {second:?}),\n"))
        .collect();
    assert!(
        measured
            .iter()
            .map(|(run, first, second)| (run.as_str(), *first, *second))
            .eq(BUDGET),
        "the allocation budget moved; this tree measures:\n{table}"
    );
}

type Measured = (String, [u64; 5], [u64; 5]);

fn counts(r: AllocReport) -> [u64; 5] {
    [
        r.allocs,
        r.deallocs,
        r.reallocs,
        r.bytes_allocated,
        r.peak_bytes,
    ]
}

/// Measures every budgeted run under the counting allocator, in
/// [`BUDGET`]'s order.
///
/// The baseline suite first: per run a warm-up phase (machine construction
/// plus the first simulation, where buffers grow) and a steady-state phase
/// (an identical second simulation on the warmed machine), which must be
/// heap-silent whatever the budget says. Once both gates are closed, the
/// machine's coherence invariants are checked. The traces were generated by
/// the race checks before, so the scopes are single-threaded. Then the
/// engine's host path: one untraced execution each of [`ENGINE_RUNS`], the
/// whole of it counted (the simulated machine never sees host allocation, so
/// nothing else would notice a per-row clone coming back), and
/// [`TRACED_QUERY`] recorded twice.
fn measure(wb: &mut Workbench) -> Vec<Measured> {
    let configs: [(&str, MachineConfig); 2] = [
        ("MSI baseline", MachineConfig::baseline()),
        (
            "MESI",
            MachineConfig::baseline().with_protocol(Protocol::Mesi),
        ),
    ];
    let mut measured = Vec::new();
    for query in STUDIED_QUERIES {
        let traces = wb.traces(query, 0);
        for (name, config) in &configs {
            let run = format!("{} / {name}", query_label(query));
            let mut stats = SimStats::default();

            let gate = AllocGate::begin();
            let mut machine = Machine::new(config.clone());
            machine.run_into(&traces, &mut stats);
            let warmup = gate.end();

            let gate = AllocGate::begin();
            machine.run_into(&traces, &mut stats);
            let steady = gate.end();

            assert_eq!(
                steady,
                AllocReport::default(),
                "{run}: steady-state heap activity — Machine::run must not allocate once warmed"
            );
            check_machine(&machine).unwrap_or_else(|v| panic!("{run}: {v}"));
            assert!(stats.exec_cycles() > 0, "{run} simulated nothing");
            measured.push((run, counts(warmup), counts(steady)));
        }
    }
    for (query, path) in ENGINE_RUNS {
        let plan = plan(wb, query);
        // Unmeasured first: whatever host-side tables the lock manager and
        // the pool grow on first use are grown, so the count does not depend
        // on what ran before.
        wb.db.run_plan(&plan, &mut Session::untraced(0));
        let mut session = Session::untraced(0);
        let gate = AllocGate::begin();
        wb.db.run_plan(&plan, &mut session);
        let execution = gate.end();
        measured.push((
            format!("{} / engine untraced ({path})", query_label(query)),
            counts(execution),
            [0; 5],
        ));
    }
    measured.push(measure_traced_twice(wb));
    measured
}

fn plan(wb: &Workbench, query: u8) -> Plan {
    wb.db
        .plan_sql(&sql_for(query, &params(query, 0)))
        .unwrap_or_else(|e| panic!("{}: {e}", query_label(query)))
}

/// The recording path: [`TRACED_QUERY`] executed twice on processor 0 with a
/// recording tracer, the first [`dss_trace::Trace`] dropped before the second
/// recording starts. The first grows its event buffer by doubling; the second
/// finds that buffer parked and must not allocate one again, so its
/// `reallocs` and `bytes_allocated` are the engine's alone.
fn measure_traced_twice(wb: &mut Workbench) -> Measured {
    let plan = plan(wb, TRACED_QUERY);
    // Unmeasured first, as for the untraced engine runs: first use grows the
    // lock manager's host-side tables.
    wb.db.run_plan(&plan, &mut Session::untraced(0));
    let db = &mut wb.db;
    // On a thread of its own: parked buffers are per-thread, and the first
    // recording must find none, whatever earlier checks dropped on this one.
    let (warmup, steady) = std::thread::scope(|s| {
        s.spawn(move || {
            let mut record = || {
                let mut session = Session::new(0);
                let gate = AllocGate::begin();
                db.run_plan(&plan, &mut session);
                let trace = session.tracer.take();
                (gate.end(), trace)
            };
            let (warmup, first) = record();
            drop(first);
            let (steady, _) = record();
            (warmup, steady)
        })
        .join()
        .unwrap_or_else(|_| panic!("the traced engine run panicked"))
    });
    (
        format!(
            "{} / engine traced, recorded twice",
            query_label(TRACED_QUERY)
        ),
        counts(warmup),
        counts(steady),
    )
}
