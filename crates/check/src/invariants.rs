//! Coherence invariant checking of a finished simulation.
//!
//! [`check_machine`] sweeps every touched line through
//! [`dss_memsim::Machine::verify_coherence`]. When the `check-invariants`
//! feature is enabled the per-transaction observer inside the machine is also
//! active, so a violation is caught at the clock it first arises rather than
//! at end of run. `tests/paper_scale.rs` applies it to every run of the
//! baseline suite (the studied queries × {MSI, MESI}).

use dss_memsim::{CoherenceViolation, Machine};

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
