//! Deterministic fault injection for the DSS workbench.
//!
//! A reproduction pipeline is only trustworthy if its failure detection is:
//! every layer that *claims* to reject corrupt input must be shown rejecting
//! it, or a bad trace file / hostile `.tbl` row / flipped directory bit will
//! silently skew the very numbers the workbench exists to pin down. This
//! crate is that proof, organized as a *campaign*: a table of named fault
//! sites ([`sites`]), each of which corrupts one layer's input in a seeded,
//! clock-free way and reports whether the layer **detected and classified**
//! the fault ([`Outcome::Detected`]) or silently absorbed it
//! ([`Outcome::Absorbed`] — always a finding).
//!
//! Determinism is load-bearing: a [`FaultPlan`] derives one RNG per site from
//! `campaign seed ⊕ FNV-1a(site name)`, so `run_campaign(N)` re-runs the
//! exact corruption schedule of any earlier report, and adding a site
//! never perturbs the draws of the others. Nothing here reads the clock, the
//! filesystem, or the environment — except the [`crash`] module's
//! explicitly env-armed process-fatal sites, which exist to be triggered
//! from *outside* the process (see its docs).
//!
//! The sites span the workbench's three trust boundaries:
//!
//! * **trace codec** (`trace.io.*`, `trace.blocks.*`) — truncations, bad
//!   magic, flipped bits, impossible tags/classes, reordered blocks against
//!   [`dss_trace::read_trace_blocks`];
//! * **trace semantics** (`trace.check.*`) — lock-discipline breaches a
//!   truncated or interleaving-corrupted trace would exhibit;
//! * **database loader** (`tpcd.tbl.*`) — hostile rows against
//!   [`dss_tpcd::from_tbl`];
//! * **coherence state** (`memsim.*`) — directory and cache corruption
//!   against the invariant checker;
//! * **protocol kernel** (`protocol.kernel.*`) — deliberate bugs compiled
//!   into the transition kernel's tables
//!   ([`dss_memsim::protocol::KernelFault`]), which the exhaustive model
//!   exploration must find and classify by the exact invariant rule they
//!   break.
//!
//! `cargo test -p dss-faultkit` is the campaign: every site detected and
//! classified under three seeds, the schedule replayed from its seed.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

use rand::rngs::StdRng;
use rand::SeedableRng;

pub mod crash;
mod site;

pub use site::{sites, Site};

/// FNV-1a 64-bit hash, used to derive stable per-site sub-seeds.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What happened when a fault was injected at a site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The layer rejected the fault with the classification the site
    /// demands (an error kind, an invariant rule, a parse diagnostic).
    Detected {
        /// The classification label the layer produced.
        classification: String,
    },
    /// The layer accepted corrupted input as if it were healthy, or
    /// rejected it with the *wrong* classification. Always a finding.
    Absorbed {
        /// What the layer did instead of detecting the fault.
        detail: String,
    },
    /// The site could not be exercised (a fixture failed to build). Counted
    /// as a finding by the campaign gate — a site that cannot run proves
    /// nothing.
    Skipped {
        /// Why the site could not run.
        reason: String,
    },
}

impl Outcome {
    /// Whether the fault was detected and correctly classified.
    pub fn is_detected(&self) -> bool {
        matches!(self, Outcome::Detected { .. })
    }
}

/// One site's result within a campaign run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SiteReport {
    /// The site's stable name, e.g. `"trace.io.bit-flip"`.
    pub site: &'static str,
    /// The layer under test, e.g. `"trace codec"`.
    pub layer: &'static str,
    /// What happened.
    pub outcome: Outcome,
}

/// A seeded, clock-free fault-injection schedule.
///
/// The same seed always produces the same corruptions at every site, in the
/// same order, regardless of wall-clock, platform, or how many other sites
/// exist — each site's RNG is derived independently from the seed and the
/// site's name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
}

impl FaultPlan {
    /// A plan reproducing the corruption schedule of `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed }
    }

    /// The campaign seed this plan replays.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The RNG a site named `site` draws its corruptions from — independent
    /// of every other site's stream.
    pub fn rng_for(&self, site: &str) -> StdRng {
        StdRng::seed_from_u64(self.seed ^ fnv1a(site.as_bytes()))
    }

    /// Runs every registered site once and collects the reports, in the
    /// site table's (stable) order.
    pub fn run(&self) -> Vec<SiteReport> {
        sites()
            .iter()
            .map(|s| {
                let mut rng = self.rng_for(s.name);
                SiteReport {
                    site: s.name,
                    layer: s.layer,
                    outcome: (s.run)(&mut rng),
                }
            })
            .collect()
    }
}

/// Runs the full campaign under `seed` (see [`FaultPlan`]).
pub fn run_campaign(seed: u64) -> Vec<SiteReport> {
    FaultPlan::new(seed).run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_registers_every_site() {
        // The in-cache state site only exists beside the observer it trips.
        let expected = if cfg!(feature = "check-invariants") {
            22
        } else {
            21
        };
        assert_eq!(sites().len(), expected, "a fault site was added or dropped");
    }

    #[test]
    fn site_names_are_unique_and_namespaced() {
        let mut names: Vec<&str> = sites().iter().map(|s| s.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate site names");
        for name in names {
            assert!(
                name.starts_with("trace.")
                    || name.starts_with("tpcd.")
                    || name.starts_with("memsim.")
                    || name.starts_with("protocol."),
                "unnamespaced site {name}"
            );
        }
    }

    #[test]
    fn every_fault_is_detected_and_classified() {
        for seed in [0, 1, 0xD55] {
            for report in run_campaign(seed) {
                assert!(
                    report.outcome.is_detected(),
                    "seed {seed}, site {}: {:?}",
                    report.site,
                    report.outcome
                );
            }
        }
    }

    #[test]
    fn schedule_is_reproducible_from_the_seed() {
        assert_eq!(run_campaign(42), run_campaign(42));
        // Different seeds draw different corruptions, but classification
        // labels stay stable per site (the site table's contract).
        let a = run_campaign(1);
        let b = run_campaign(2);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.site, y.site);
        }
    }

    #[test]
    fn per_site_streams_are_independent() {
        use rand::RngCore;
        let plan = FaultPlan::new(7);
        let a = plan.rng_for("trace.io.bit-flip").next_u64();
        let b = plan.rng_for("trace.io.bad-magic").next_u64();
        assert_ne!(a, b, "sites must not share a stream");
        assert_eq!(plan.rng_for("trace.io.bit-flip").next_u64(), a);
        assert_eq!(plan.seed(), 7);
    }
}
