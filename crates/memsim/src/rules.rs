//! The single home of every coherence rule string.
//!
//! The runtime observer ([`crate::verify`]), the exhaustive model checker
//! ([`crate::protocol::explore`]), the fault-injection campaign, and
//! `dss_check::check_model` all report violations by these exact strings,
//! and the drill sites match on them verbatim — so a reworded copy in one place
//! would silently break the cross-checks. The unit test below enforces the
//! dedup: any of these literals appearing in memsim source outside this
//! module fails it.

/// Invariant: at most one node holds a line writable.
pub const RULE_TWO_WRITERS: &str = "two nodes hold the line writable";
/// Invariant: a writable copy is recorded as the directory owner.
pub const RULE_WRITABLE_NOT_OWNER: &str =
    "a node holds the line writable without directory ownership";
/// Invariant: every cached Shared copy appears in the sharer mask (or is the
/// recorded owner mid-downgrade).
pub const RULE_SHARED_NOT_IN_MASK: &str =
    "a cached shared copy is missing from the directory sharer mask";
/// Invariant: a recorded owner actually caches the line.
pub const RULE_OWNER_NO_COPY: &str = "directory owner holds no copy of the line";
/// Invariant: the sharer mask lists only nodes that cache the line.
pub const RULE_STRAY_SHARER: &str = "directory lists a sharer that caches no copy of the line";
/// Invariant: a writable copy never coexists with other cached copies.
pub const RULE_WRITABLE_COEXISTS: &str = "a writable copy coexists with other cached copies";
/// Data-value invariant: every cached copy holds the latest written value.
pub const RULE_STALE_COPY: &str = "a cached copy does not hold the latest written value";
/// Data-value invariant: memory is current unless a Modified copy exists.
pub const RULE_STALE_MEMORY: &str = "memory is stale with no modified copy to supply the value";
/// Quiescence: evicting every cached copy must reach the stable uncached
/// state (empty directory entry, memory current).
pub const RULE_NO_QUIESCENCE: &str =
    "draining every cached copy does not reach the stable uncached state";
/// Inclusion: every resident L1 line is backed by its L2 line.
pub const RULE_INCLUSION_MISSING: &str = "L1 holds a line its L2 does not (inclusion)";
/// Inclusion: an L1 copy is never more privileged than the L2 line holding it.
pub const RULE_INCLUSION_PRIVILEGE: &str = "L1 copy is more privileged than its L2 line";
/// History: a resident line is marked seen — what lets replacement and
/// inclusion eviction leave the classification history alone.
pub const RULE_RESIDENT_UNSEEN: &str = "a resident line's miss history is not `seen`";

/// Every rule string, for exhaustive cross-checks.
pub const ALL: &[&str] = &[
    RULE_TWO_WRITERS,
    RULE_WRITABLE_NOT_OWNER,
    RULE_SHARED_NOT_IN_MASK,
    RULE_OWNER_NO_COPY,
    RULE_STRAY_SHARER,
    RULE_WRITABLE_COEXISTS,
    RULE_STALE_COPY,
    RULE_STALE_MEMORY,
    RULE_NO_QUIESCENCE,
    RULE_INCLUSION_MISSING,
    RULE_INCLUSION_PRIVILEGE,
    RULE_RESIDENT_UNSEEN,
];

#[cfg(test)]
mod tests {
    /// A rule literal re-typed in any other source file of this crate would
    /// drift from the one the cross-checks match.
    #[test]
    fn rule_strings_live_only_here() {
        let src = concat!(env!("CARGO_MANIFEST_DIR"), "/src");
        for entry in std::fs::read_dir(src).unwrap() {
            let path = entry.unwrap().path();
            if path.ends_with("rules.rs") {
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            for rule in super::ALL {
                let literal = format!("\"{rule}\"");
                assert!(!text.contains(&literal), "{path:?} re-types {literal}");
            }
        }
    }
}
