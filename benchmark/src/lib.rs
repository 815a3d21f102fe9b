//! `dss-perf`: the repository's benchmark.
//!
//! Four workloads, each timed end to end on the path a user takes (through
//! `dss_core::Workbench`) in fresh child processes with tracing off, plus one
//! traced rep per workload in which the benchmark performs the same steps
//! itself, one public call per layer, to say where the time went. See
//! `benchmark/README.md` for the metric tables and how to read the output.
//!
//! The crate is a workspace of its own with path dependencies on
//! `../crates/*`, so building it leaves the root manifest and lockfile alone.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod compare;
pub mod host;
pub mod json;
pub mod layers;
pub mod pace;
pub mod probes;
pub mod run;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod streams;
pub mod workloads;
