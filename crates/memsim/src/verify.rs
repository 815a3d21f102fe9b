//! Coherence invariant checking over a [`Machine`]'s caches and directory.
//!
//! The simulator's hot loop (paged tables, packed directory entries, bitmask
//! invalidations) is exactly the kind of code where a silent protocol bug
//! would quietly skew every miss decomposition the reproduction reports, so
//! this module makes the directory protocol's invariants machine-checkable:
//!
//! * **single-writer / multiple-reader** — at most one node holds a line in a
//!   writable (Exclusive/Modified) state, and never alongside other copies;
//!   in particular no dirty line exists in two L2s;
//! * **directory covers the copies** — the sharer mask ∪ owner is a superset
//!   of the nodes actually caching the line;
//! * **cache state consistent with directory state** — a writable copy is
//!   recorded as the directory owner, and a recorded owner actually holds the
//!   line writable;
//! * **inclusion** — every resident L1 line is backed by its L2 line, and an
//!   L1 copy is never more privileged than the L2 line containing it;
//! * **resident ⇒ seen** — a resident line's classification history reads
//!   *seen* at both levels, which is what lets replacement and inclusion
//!   eviction write no history ([`crate::Cache::fill`]).
//!
//! The directory-protocol rules themselves (everything except inclusion,
//! which concerns the machine's two physical cache levels) are defined once,
//! in [`crate::protocol::check_line`] — the same function the exhaustive
//! model check (`dss_check::check_model`) evaluates over the kernel's whole
//! reachable state space, so the runtime observer and the model checker
//! cannot drift.
//!
//! [`Machine::verify_line`] checks one line (allocation-free on the success
//! path, so the per-transaction observer hook compiled in by the
//! `check-invariants` feature can call it after every transaction without
//! disturbing the default build), and [`Machine::verify_coherence`] sweeps
//! every line the directory or any cache has ever touched. Violations carry
//! the offending line, the clock (when observed mid-run), and a rendering of
//! the per-node cache states against the directory entry.

use std::collections::BTreeSet;
use std::fmt;

use crate::cache::{LineState, MissKind};
use crate::machine::Machine;

/// A detected breach of the directory protocol's invariants.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoherenceViolation {
    /// The L2-granularity line address the violation concerns.
    pub line: u64,
    /// Simulated clock of the observing processor when the violation was
    /// caught mid-run; zero for post-run sweeps.
    pub clock: u64,
    /// Which invariant broke.
    pub rule: &'static str,
    /// Per-node cache states and the directory entry at the time.
    pub detail: String,
}

impl fmt::Display for CoherenceViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "coherence violation at line {:#x} (clock {}): {}; {}",
            self.line, self.clock, self.rule, self.detail
        )
    }
}

impl Machine {
    /// Renders the directory entry and every node's L2/L1 state for `line` —
    /// the `detail` of a [`CoherenceViolation`].
    fn render_line(&self, line: u64) -> String {
        let entry = self.dir.entry(line);
        let mut out = format!(
            "directory {{ sharers: {:#b}, owner: {:?} }}",
            entry.sharers, entry.owner
        );
        for (id, node) in self.nodes.iter().enumerate() {
            let l2 = node.l2.peek_state(line);
            let mut l1 = Vec::new();
            let mut a = line;
            while a < line + self.l2_line {
                if let Some(s) = node.l1.peek_state(a) {
                    l1.push(format!("{:#x}:{s:?}", a));
                }
                a += self.l1_line;
            }
            out.push_str(&format!(
                ", node {id} {{ l2: {l2:?}, l1: [{}] }}",
                l1.join(", ")
            ));
        }
        out
    }

    fn violation(&self, line: u64, rule: &'static str) -> CoherenceViolation {
        CoherenceViolation {
            line,
            clock: 0,
            rule,
            detail: self.render_line(line),
        }
    }

    /// Checks the protocol invariants for the single L2 line `line`.
    ///
    /// Allocation-free unless a violation is found, so it is cheap enough for
    /// the `check-invariants` observer hook to run after every transaction.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant, with per-node state attached.
    pub fn verify_line(&self, line: u64) -> Result<(), CoherenceViolation> {
        let entry = self.dir.entry(line);
        // The directory-protocol rules are the kernel's
        // ([`crate::protocol::check_line`]): one definition serves this
        // runtime observer and the exhaustive `dss_check::check_model`, so the
        // two can never drift.
        let mut caches = [None; dss_shmem::MAX_PROCS];
        for (id, node) in self.nodes.iter().enumerate() {
            caches[id] = node.l2.peek_state(line);
        }
        let nprocs = self.nodes.len();
        if let Err(rule) = crate::protocol::check_line(&caches[..nprocs], entry) {
            return Err(self.violation(line, rule));
        }
        // Inclusion is a property of the machine's two physical cache levels,
        // not of the protocol, so its rules stay here: every resident L1
        // sub-line is backed by the L2 line and never more privileged. So
        // does the classifier's: a resident line's history reads seen (whose
        // next miss is a conflict).
        let seen = |cache: &crate::Cache, a| cache.classify_miss(a) == MissKind::Conflict;
        for (id, node) in self.nodes.iter().enumerate() {
            let l2 = caches[id];
            if l2.is_some() && !seen(&node.l2, line) {
                return Err(self.violation(line, crate::rules::RULE_RESIDENT_UNSEEN));
            }
            let mut a = line;
            while a < line + self.l2_line {
                if let Some(l1) = node.l1.peek_state(a) {
                    if !seen(&node.l1, a) {
                        return Err(self.violation(line, crate::rules::RULE_RESIDENT_UNSEEN));
                    }
                    match l2 {
                        None => {
                            return Err(self.violation(line, crate::rules::RULE_INCLUSION_MISSING))
                        }
                        Some(l2s) if l1.writable() && !l2s.writable() => {
                            return Err(
                                self.violation(line, crate::rules::RULE_INCLUSION_PRIVILEGE)
                            );
                        }
                        Some(_) => {}
                    }
                }
                a += self.l1_line;
            }
        }
        Ok(())
    }

    /// Snapshot of the line containing `addr` as the transition kernel sees
    /// it: the directory entry plus every node's L2 state. This is the
    /// machine-side image of a [`crate::protocol::ProtocolState`], exposed so
    /// conformance tests can check that every transition the full machine
    /// takes is in the kernel's relation.
    pub fn observe_protocol_state(&self, addr: u64) -> (crate::DirEntry, Vec<Option<LineState>>) {
        let line = addr & self.l2_line_mask;
        let entry = self.dir.entry(line);
        let caches = self
            .nodes
            .iter()
            .map(|node| node.l2.peek_state(line))
            .collect();
        (entry, caches)
    }

    /// Sweeps every line the directory or any cache has ever touched through
    /// [`Machine::verify_line`]. Proportional to touched state, so intended
    /// after a run, not per event.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant (lowest line address first).
    pub fn verify_coherence(&self) -> Result<(), CoherenceViolation> {
        let mut lines = BTreeSet::new();
        self.dir.for_each_entry(|line, entry| {
            if entry.sharers != 0 || entry.owner.is_some() {
                lines.insert(line);
            }
        });
        for node in &self.nodes {
            for (l2_line, _) in node.l2.resident_lines() {
                lines.insert(l2_line);
            }
            for (l1_line, _) in node.l1.resident_lines() {
                lines.insert(l1_line & self.l2_line_mask);
            }
        }
        for line in lines {
            self.verify_line(line)?;
        }
        Ok(())
    }

    /// Visits every line the directory has ever tracked with its current
    /// entry — lets external checkers pick real lines to probe or corrupt.
    pub fn for_each_directory_entry(&self, f: impl FnMut(u64, crate::DirEntry)) {
        self.dir.for_each_entry(f);
    }

    /// Overwrites the directory sharer mask for the line containing `addr`
    /// without touching any cache — deliberately breaking coherence so
    /// negative tests can prove the invariant checker fires. Never call this
    /// from simulation code.
    ///
    /// # Panics
    ///
    /// Panics if `sharers` names a node at or above [`crate::MAX_PROCS`].
    pub fn corrupt_directory_sharers(&mut self, addr: u64, sharers: u64) {
        let line = addr & self.l2_line_mask;
        self.dir.corrupt_sharers(line, sharers);
    }

    /// Overwrites the directory's recorded owner for the line containing
    /// `addr` without touching any cache — the stale-owner counterpart of
    /// [`Machine::corrupt_directory_sharers`], for negative tests and the
    /// fault-injection campaign. Never call this from simulation code.
    ///
    /// # Panics
    ///
    /// Panics if `owner` is a node at or above [`crate::MAX_PROCS`].
    pub fn corrupt_directory_owner(&mut self, addr: u64, owner: Option<usize>) {
        let line = addr & self.l2_line_mask;
        self.dir.corrupt_owner(line, owner);
    }

    /// Forces `node`'s L2 copy of the line containing `addr` into `state`
    /// without any protocol action — cache-state corruption for the
    /// fault-injection campaign, compiled only alongside the invariant
    /// observer (`check-invariants`) that exists to catch it. Never call
    /// this from simulation code.
    ///
    /// The line must be resident in that L2 (corrupting a non-resident line
    /// is a no-op, so campaigns pick a line from
    /// [`Cache::resident_lines`](crate::Cache::resident_lines)).
    #[cfg(feature = "check-invariants")]
    pub fn corrupt_cache_state(&mut self, node: usize, addr: u64, state: LineState) {
        let line = addr & self.l2_line_mask;
        if let Some(n) = self.nodes.get_mut(node) {
            if n.l2.contains(line) {
                n.l2.set_state(line, state);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::MachineConfig;
    use dss_shmem::SHARED_BASE;
    use dss_trace::{DataClass, Tracer};

    fn run_small() -> crate::Machine {
        let t0 = Tracer::new(0);
        t0.read(SHARED_BASE, 8, DataClass::Data);
        t0.write(SHARED_BASE + 4096, 8, DataClass::LockHash);
        let t1 = Tracer::new(1);
        t1.busy(10_000);
        t1.read(SHARED_BASE, 8, DataClass::Data);
        let mut m = crate::Machine::new(MachineConfig::baseline());
        m.run(&[t0.take(), t1.take()]);
        m
    }

    #[test]
    fn healthy_run_verifies_clean() {
        let m = run_small();
        m.verify_coherence().expect("protocol invariants hold");
        m.check_invariants();
    }

    #[test]
    fn corrupted_sharer_mask_is_detected() {
        let mut m = run_small();
        // Claim a node that caches nothing is a sharer, and drop the real
        // sharers: the cached copies are now missing from the mask.
        m.corrupt_directory_sharers(SHARED_BASE, 1 << 3);
        let v = m.verify_coherence().expect_err("corruption must be caught");
        assert_eq!(v.line, SHARED_BASE);
        assert!(v.rule.contains("sharer mask"), "rule was {:?}", v.rule);
        assert!(v.detail.contains("node 0"), "detail renders per-node state");
    }

    #[test]
    fn verify_line_reports_only_the_probed_line() {
        let mut m = run_small();
        m.corrupt_directory_sharers(SHARED_BASE, 0);
        assert!(m.verify_line(SHARED_BASE).is_err());
        assert!(m.verify_line(SHARED_BASE + 4096).is_ok());
    }
}
