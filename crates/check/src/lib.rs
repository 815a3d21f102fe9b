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
//! * [`budget`] — the committed allocation budget: per-run warm-up and
//!   steady-state heap counters with ratchet-diff semantics (the counting
//!   allocator itself, `src/alloc.rs`, is included by file into the binaries
//!   and tests that install it, which may use `unsafe`; this library must
//!   not).
//! * [`model`] — exhaustive BFS reachability over the coherence-protocol
//!   transition kernel (`dss_memsim::protocol`) across {MSI, MESI} × 2–4
//!   processors × 1–2 lines, checking SWMR, directory–cache agreement, the
//!   data-value invariant, and quiescence at every reachable state, plus a
//!   litmus suite of pinned transaction shapes; violations come back as
//!   minimal replayable event sequences.
//!
//! `tests/paper_scale.rs` runs the race, invariant and allocation checks
//! over one paper-scale workbench; `cargo test` is the gate.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

pub mod budget;
pub mod invariants;
pub mod model;
pub mod race;

pub use budget::{AllocBudget, Counts, RunBudget};
pub use invariants::{check_baseline_suite, check_machine, InvariantFailure, RunSummary};
pub use model::{check_model, render_counterexample, LitmusOutcome, ModelReport, ModelRun};
pub use race::{detect_races, detect_races_source, Access, Race, RaceAnalysisError, RaceReport};
