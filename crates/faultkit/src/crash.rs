//! Process-fatal crash sites for the crash-recovery campaign.
//!
//! The corruption sites in [`crate::sites`] run in-process: they hand a
//! layer damaged input and ask how it classifies the damage. Crash sites
//! prove a different property — that the pipeline's *durability protocol*
//! (checkpoint journal, streamed block files) survives the process dying at
//! the worst possible instants — and a site that calls
//! [`std::process::abort`] cannot report its own outcome. So the campaign
//! inverts: `dss-bench`'s `tests/resume.rs` spawns `repro` as a child with
//! one site armed
//! through the environment, lets the abort kill it, then reruns with
//! `--resume` and compares the recovered output against an uninterrupted
//! baseline.
//!
//! Arming is environment-driven and hit-counted: [`ENV_SITE`] names the
//! site, [`ENV_HITS`] the 1-based occurrence that fires, so a seeded plan
//! can place the kill at *different* block writes / manifest appends per
//! seed. Unarmed (the env unset — every normal run), [`crash_point`] is a
//! single relaxed atomic load and the instrumented code paths are
//! unperturbed. This module is the one deliberate exception to the crate's
//! "nothing reads the environment" motto, and the arming read happens once.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Environment variable naming the armed crash site (a [`CrashSite::name`]).
pub const ENV_SITE: &str = "DSS_CRASH_SITE";

/// Environment variable giving the 1-based hit count at which the armed
/// site aborts. Unset or unparsable means the first hit.
pub const ENV_HITS: &str = "DSS_CRASH_HITS";

/// One place the pipeline can be killed, with enough metadata for the
/// campaign report. The hook itself is a [`crash_point`] call at the named
/// spot in `dss-core`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashSite {
    /// Stable name, e.g. `"crash.trace.block-write"` — the [`ENV_SITE`]
    /// value that arms it.
    pub name: &'static str,
    /// The durability mechanism under test.
    pub layer: &'static str,
    /// What dying here must not be able to destroy.
    pub what: &'static str,
}

/// The registered crash sites, in campaign order. Each corresponds to a
/// `crash_point` call in `dss-core`'s checkpoint/trace plumbing; the crash
/// campaign (`dss-bench`'s `tests/resume.rs`) kills a `repro` child at every
/// one and requires resume to reproduce the uninterrupted run bit for bit.
pub const CRASH_SITES: &[CrashSite] = &[
    CrashSite {
        name: "crash.trace.block-write",
        layer: "streamed trace file",
        what: "a block file torn mid-write is rewritten from scratch on resume",
    },
    CrashSite {
        name: "crash.trace.pre-finish",
        layer: "streamed trace file",
        what: "a block file missing its end marker is rewritten, not reused as-is",
    },
    CrashSite {
        name: "crash.manifest.torn-append",
        layer: "checkpoint journal",
        what: "a half-written journal record is discarded by the checksum scan",
    },
    CrashSite {
        name: "crash.manifest.post-append",
        layer: "checkpoint journal",
        what: "a fsynced record survives and its point is skipped on resume",
    },
    CrashSite {
        name: "crash.point.pre-journal",
        layer: "sweep point boundary",
        what: "a computed-but-unjournaled point is recomputed identically",
    },
    CrashSite {
        name: "crash.point.post-journal",
        layer: "sweep point boundary",
        what: "a journaled point is served from the journal, not re-simulated",
    },
];

/// The armed site and its firing hit count, read from the environment once.
#[expect(
    clippy::disallowed_methods,
    reason = "arming decides whether `crash_point` aborts, never what a run writes; resumes run unarmed"
)]
fn armed() -> Option<&'static (String, u64)> {
    static ARMED: OnceLock<Option<(String, u64)>> = OnceLock::new();
    ARMED
        .get_or_init(|| {
            let site = std::env::var(ENV_SITE).ok().filter(|s| !s.is_empty())?;
            let hits = std::env::var(ENV_HITS)
                .ok()
                .and_then(|h| h.parse().ok())
                .unwrap_or(1u64)
                .max(1);
            Some((site, hits))
        })
        .as_ref()
}

/// A crash hook: aborts the process if `site` is armed via the environment
/// and this is its [`ENV_HITS`]-th execution. A no-op otherwise — normal
/// runs pay one atomic load per call and nothing else. Placed inside block
/// writes, around manifest appends, and at sweep point boundaries by
/// `dss-core`.
pub fn crash_point(site: &str) {
    static HITS: AtomicU64 = AtomicU64::new(0);
    let Some((name, fire_at)) = armed() else {
        return;
    };
    if name != site {
        return;
    }
    let hit = HITS.fetch_add(1, Ordering::Relaxed) + 1;
    if hit >= *fire_at {
        eprintln!("crash_point: aborting at {site} (hit {hit})");
        std::process::abort();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_sites_are_unique_and_namespaced() {
        let mut names: Vec<&str> = CRASH_SITES.iter().map(|s| s.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate crash-site names");
        for name in names {
            assert!(name.starts_with("crash."), "unnamespaced crash site {name}");
        }
    }

    #[test]
    fn unarmed_crash_points_are_no_ops() {
        // The test process never sets ENV_SITE, so every site is a no-op —
        // including unknown names (an armed-but-mistyped site must not
        // perturb anything either way).
        for site in CRASH_SITES {
            crash_point(site.name);
        }
        crash_point("crash.no.such.site");
    }
}
