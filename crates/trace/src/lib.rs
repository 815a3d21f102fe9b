//! Memory-reference trace model for the DSS workload study.
//!
//! This crate defines the vocabulary shared by the database engine (which
//! *produces* memory references) and the multiprocessor memory-hierarchy
//! simulator (which *consumes* them):
//!
//! * [`DataClass`] — the data structure a reference touches, mirroring the
//!   categories of the HPCA'97 paper (database `Data`, `Index`, the buffer- and
//!   lock-manager metadata structures, and private heap data).
//! * [`MemRef`] / [`Event`] — a single classified memory reference, plus the
//!   busy-cycle and spinlock events interleaved with references. An
//!   [`Event`] is one packed 8-byte word, the only stored form;
//!   [`Event::kind`] decodes it to the [`EventKind`] enum to match on.
//! * [`Tracer`] — a cheaply clonable recording handle threaded through the
//!   engine; one per simulated processor.
//! * [`CostModel`] — the per-operation busy-cycle charges that stand in for
//!   the instructions Mint would have executed between references.
//! * [`TraceStats`] — summary statistics over a recorded trace.
//! * [`TraceSource`] / [`EventStream`] — the streaming contract: per-block
//!   checksummed event chunks consumed one at a time, so trace generation
//!   can fuse with simulation in bounded memory at any scale factor (see
//!   [`BlockWriter`], [`BlockReader`], [`FileTraceSource`]). The block
//!   stream (`DSSTRB02`: the same packed words, little-endian, in
//!   checksummed blocks) is the one on-disk trace format; a slice of
//!   materialized [`Trace`]s is a source too, so every consumer is written
//!   once, against the streaming contract.
//!
//! The paper's methodology applies one correction we reproduce here by
//! construction: accesses to private *stack and static* data are assumed to
//! always hit and are therefore never emitted; only private *heap* references
//! (class [`DataClass::PrivHeap`]) appear in traces.
//!
//! # Example
//!
//! ```
//! use dss_trace::{DataClass, EventKind, Tracer};
//!
//! let tracer = Tracer::new(0);
//! tracer.busy(12);
//! tracer.read(0x1000_0040, 8, DataClass::Data);
//! tracer.write(0x4000_0000, 8, DataClass::PrivHeap);
//! let trace = tracer.take();
//! assert_eq!(trace.events.len(), 3);
//! assert!(matches!(trace.events[0].kind(), EventKind::Busy(12)));
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

mod analyze;
mod class;
mod cost;
mod discipline;
mod event;
mod io;
mod source;
mod stats;
mod tracer;

pub use analyze::{analyze, ClassLocality, ReuseHistogram, TraceAnalysis, REUSE_BUCKETS};
pub use class::{DataClass, DataGroup};
pub use cost::CostModel;
pub use discipline::{check_lock_discipline, LockDisciplineError};
pub use event::{Event, EventKind, LockClass, LockToken, MemRef};
pub use io::{
    read_trace_blocks, write_trace_blocks, BlockReader, BlockWriter, TraceError, BLOCK_MAGIC,
    MAX_BLOCK_EVENTS,
};
pub use source::{
    materialize, EventStream, FileTraceSource, ProcPrefix, TraceSource, DEFAULT_BLOCK_EVENTS,
};
pub use stats::TraceStats;
pub use tracer::{Trace, Tracer};
