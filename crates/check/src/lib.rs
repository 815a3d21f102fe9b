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
//! * [`invariants`] — sweeps the directory protocol's invariants over every
//!   line a finished machine touched (with the `check-invariants` feature,
//!   also after every transaction mid-run).
//! * [`race`] — a vector-clock happens-before race detector over the query
//!   traces, treating `LockAcquire`/`LockRelease` as release/acquire edges.
//!   It runs `dss_trace::check_lock_discipline` on every trace, then replays
//!   the slices by index; the same replay records which lock classes each
//!   processor nests and reports a cycle among them.
//! * [`model`] — exhaustive BFS reachability over the coherence-protocol
//!   transition kernel (`dss_memsim::protocol`) across {MSI, MESI} × 2–4
//!   processors × 1–2 lines, checking SWMR, directory–cache agreement, the
//!   data-value invariant, and quiescence at every reachable state, plus a
//!   litmus suite of pinned transaction shapes; violations come back as
//!   minimal replayable event sequences.
//!
//! The counting allocator, `src/alloc.rs`, is not part of the library: it is
//! included by file into the binaries and tests that install it, which may
//! use `unsafe`; this library must not. `tests/paper_scale.rs` runs the race,
//! invariant and allocation checks over one paper-scale workbench and pins
//! the allocation budget as a `const` table, the way every reference value in
//! the workspace is pinned; `cargo test` is the gate.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

pub mod invariants;
pub mod model;
pub mod race;

pub use invariants::check_machine;
pub use model::{check_model, render_counterexample, LitmusOutcome, ModelReport, ModelRun};
pub use race::{detect_races, Access, Race, RaceAnalysisError, RaceReport};
