//! Verification tooling for the DSS workbench.
//!
//! The reproduction's results all flow through hand-optimized simulator code
//! (paged tables, packed directory entries, bitmask invalidations) and rest
//! on an assumed property of the traced engine — that shared metadata is
//! serialized by the `LockMgrLock`/`BufMgrLock` spinlocks. This crate makes
//! both machine-checked. (The project's *source* rules — no hashing in the
//! simulator's hot modules, panic-free converted crates, no clock or
//! hash-order reads in library code — are clippy's: the root `clippy.toml`
//! and the `[lints]` tables, with every exception an `#[expect]` at its site.)
//!
//! * [`invariants`] — runs the baseline suite and sweeps the directory
//!   protocol's invariants over every touched line (with the
//!   `check-invariants` feature, also after every transaction mid-run).
//! * [`race`] — a vector-clock happens-before race detector over the query
//!   traces, treating `LockAcquire`/`LockRelease` as release/acquire edges;
//!   the same replay records which lock classes each processor nests and
//!   reports a cycle among them.
//! * [`budget`] — the allocation-budget report `dss-check alloc` emits:
//!   per-run warm-up and steady-state heap counters with ratchet-diff
//!   semantics (the counting allocator itself lives in the binary, which may
//!   use `unsafe`; this library must not).
//! * [`model`] — exhaustive BFS reachability over the coherence-protocol
//!   transition kernel (`dss_memsim::protocol`) across {MSI, MESI} × 2–4
//!   processors × 1–2 lines, checking SWMR, directory–cache agreement, the
//!   data-value invariant, and quiescence at every reachable state, plus a
//!   litmus suite of pinned transaction shapes; violations come back as
//!   minimal replayable event sequences.
//! * [`crash`] — the crash-recovery campaign (`dss-check crash`): spawns
//!   `repro` as a child with each `dss_faultkit::crash` site armed, requires
//!   the abort to kill it, resumes with `--resume`, and requires stdout
//!   byte-identical to an uninterrupted baseline. Not part of `all`: it
//!   needs the `repro` binary on disk and runs whole child sweeps.
//!
//! The `dss-check` binary runs any or all passes and exits non-zero on the
//! first finding; CI gates on `dss-check all`.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

pub mod budget;
pub mod crash;
pub mod invariants;
pub mod model;
pub mod race;

pub use budget::{AllocBudget, Counts, RunBudget};
pub use invariants::{check_baseline_suite, check_machine, InvariantFailure, RunSummary};
pub use model::{check_model, render_counterexample, LitmusOutcome, ModelReport, ModelRun};
pub use race::{detect_races, detect_races_source, Access, Race, RaceAnalysisError, RaceReport};
