//! Directory-based CC-NUMA memory-hierarchy simulator for the DSS study.
//!
//! Models the paper's evaluation platform: a 4-processor cache-coherent NUMA
//! shared-memory multiprocessor where each node has an off-the-shelf 500 MHz
//! processor, a 16-entry write buffer, a 4 KB direct-mapped on-chip primary
//! cache with 32-byte lines, and a 128 KB 2-way off-chip secondary cache with
//! 64-byte lines. Processors stall on read misses and on write-buffer
//! overflow. The interconnect has a fixed 100-cycle hop, giving round-trip
//! latencies of 16 / 80 / 249 / 351 cycles for requests satisfied by the
//! secondary cache, local memory, a 2-hop remote transaction, or a 3-hop
//! (dirty-in-third-node) transaction.
//!
//! Inputs are per-processor [`dss_trace::Trace`]s; the simulator interleaves
//! them deterministically by simulated time, models metalock spinning at
//! simulation time (the paper's *MSync*), classifies every read miss as cold
//! / conflict / coherence per data structure (Figure 7), attributes memory
//! stall cycles per data structure (Figure 6(b)), and optionally applies the
//! paper's Section 6 sequential prefetcher for database data.
//!
//! Configurations are built from [`MachineConfig::baseline`] plus chained
//! `with_*` deviations (see [`MachineConfig`]); [`Machine`] shows an
//! end-to-end example. [`Machine`], [`MachineConfig`], and [`SimStats`] are
//! all `Send`, so a parallel experiment harness can run one simulation per
//! thread — each point is a fresh machine, and results are deterministic
//! regardless of scheduling.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

mod cache;
mod config;
mod directory;
mod machine;
mod paged;
pub mod protocol;
pub mod rules;
mod stats;
mod verify;

pub use cache::{Cache, LineState, MissKind, RemovalCause};
pub use config::{CacheConfig, Latencies, MachineConfig, Protocol};
pub use directory::{home_of, DirEntry, Directory};
pub use dss_shmem::MAX_PROCS;
pub use machine::Machine;
pub use stats::{LevelStats, MissMatrix, ProcStats, SimStats, TimeBreakdown};
pub use verify::CoherenceViolation;

// The parallel harness in `dss-core` moves machines and results across
// threads; keep that guaranteed at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Machine>();
    assert_send_sync::<MachineConfig>();
    assert_send_sync::<SimStats>();
};
