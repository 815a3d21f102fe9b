//! Coherence invariant checking over the baseline simulation suite.
//!
//! Drives the real workload traces (Q3, Q6, Q12) through fresh machines in
//! the configurations the reproduction reports — the MSI baseline and the
//! MESI variant — and sweeps every touched line through
//! [`dss_memsim::Machine::verify_coherence`] after each run. When the
//! `check-invariants` feature is enabled the per-transaction observer inside
//! the machine is also active, so a violation is caught at the clock it
//! first arises rather than at end of run.

use dss_core::{query_label, Workbench, STUDIED_QUERIES};
use dss_memsim::{CoherenceViolation, Machine, MachineConfig, Protocol};
use std::fmt;

/// A coherence violation, tagged with the run that produced it.
#[derive(Clone, Debug)]
pub struct InvariantFailure {
    /// Which run broke ("Q3 / MESI").
    pub run: String,
    /// The violation the checker reported.
    pub violation: CoherenceViolation,
}

impl fmt::Display for InvariantFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.run, self.violation)
    }
}

/// Summary of one verified run.
#[derive(Clone, Debug)]
pub struct RunSummary {
    /// Run label ("Q3 / MSI baseline").
    pub run: String,
    /// Simulated execution cycles (evidence the run did real work).
    pub exec_cycles: u64,
}

/// Runs the baseline suite (studied queries × {MSI baseline, MESI}) with
/// invariant verification after every run.
///
/// # Errors
///
/// Returns the first [`InvariantFailure`]; the post-run sweep catches any
/// end-state inconsistency, and with the `check-invariants` feature the
/// mid-run observer catches transient ones with the offending clock.
pub fn check_baseline_suite(wb: &mut Workbench) -> Result<Vec<RunSummary>, InvariantFailure> {
    let configs: [(&str, MachineConfig); 2] = [
        ("MSI baseline", MachineConfig::baseline()),
        (
            "MESI",
            MachineConfig::baseline().with_protocol(Protocol::Mesi),
        ),
    ];
    let mut summaries = Vec::new();
    for query in STUDIED_QUERIES {
        let traces = wb.traces(query, 0);
        for (name, config) in &configs {
            let run = format!("{} / {name}", query_label(query));
            let mut machine = Machine::new(config.clone());
            let stats = machine.run(&traces);
            check_machine(&machine).map_err(|violation| InvariantFailure {
                run: run.clone(),
                violation,
            })?;
            summaries.push(RunSummary {
                run,
                exec_cycles: stats.exec_cycles(),
            });
        }
    }
    Ok(summaries)
}

/// Verifies one finished machine: the mid-run observer's verdict first (when
/// compiled in), then the exhaustive post-run sweep.
///
/// # Errors
///
/// Returns the violation, preferring the observer's (it carries the clock).
pub fn check_machine(machine: &Machine) -> Result<(), CoherenceViolation> {
    #[cfg(feature = "check-invariants")]
    if let Some(v) = machine.first_violation() {
        return Err(v.clone());
    }
    machine.verify_coherence()
}
