//! The Volcano-style executor.
//!
//! Each plan node becomes an [`ExecNode`] pulled tuple-at-a-time, exactly as
//! the paper describes Postgres95's pipelined execution of left-deep trees.
//! All operator state — tuple slots, sort workspaces, hash tables, aggregate
//! accumulators, and the per-node "machinery" (expression nodes, slot
//! descriptors) — lives in the session's private heap, so the executor's
//! private references reproduce the paper's observation of roughly five times
//! more private than shared accesses, with a private working set that
//! overflows a 4 KB L1 but sits comfortably in a 128 KB L2.

mod agg;
mod join;
mod scan;
mod sort;

use dss_bufcache::BufferPool;
use dss_lockmgr::{LockMgr, Xid};
use dss_shmem::PrivateHeap;
use dss_trace::{CostModel, DataClass, MemRef, Tracer};

use crate::catalog::Catalog;
use crate::expr::{Scalar, SlotSource};
use crate::plan::Plan;
use crate::row::{Row, RowShape};
use crate::Datum;

pub(crate) use agg::{AggregateExec, FilterExec, GroupExec, LimitExec, ProjectExec};
pub(crate) use join::{HashJoinExec, MergeJoinExec, NestLoopExec};
pub(crate) use scan::{IndexScanExec, SeqScanExec};
pub(crate) use sort::SortExec;

/// Everything an operator needs while running: the shared database state,
/// this processor's tracer, private heap, and transaction id.
pub struct ExecCtx<'a> {
    /// The shared buffer pool.
    pub pool: &'a mut BufferPool,
    /// The shared lock manager.
    pub lockmgr: &'a mut LockMgr,
    /// The catalog (read-only during execution).
    pub cat: &'a Catalog,
    /// This processor's private heap.
    pub mem: &'a mut PrivateHeap,
    /// This processor's tracer.
    pub t: Tracer,
    /// Busy-cycle charges.
    pub cost: CostModel,
    /// The executing transaction.
    pub xid: Xid,
}

/// A per-node private arena standing in for the executor machinery Postgres95
/// touches for every tuple: expression trees, slot descriptors, function-call
/// scratch. Touches walk deterministic scattered offsets so the arena behaves
/// like real pointer-linked executor state.
#[derive(Clone, Debug)]
pub struct Arena {
    base: u64,
    cursor: u64,
}

/// Arena size per plan node (a few KB of executor state, so a plan tree's
/// combined machinery overflows a 4 KB L1 but fits an L2).
pub const ARENA_SIZE: u64 = 8 * 1024;

/// Span of the frequently revisited part of an arena (slot headers,
/// expression-context fields). Touches stride through it coarsely —
/// executor state is pointer-linked structs, not streams — so private data
/// shows the paper's poor spatial locality in a small L1.
const ARENA_HOT_BYTES: u64 = 6528;

/// Stride between consecutive hot touches (wider than a cache line, so
/// longer lines do not help private data).
const ARENA_HOT_STRIDE: u64 = 136;

impl Arena {
    /// Allocates an arena of [`ARENA_SIZE`] bytes from the private heap.
    pub fn new(mem: &mut PrivateHeap) -> Self {
        Arena {
            base: mem.alloc(ARENA_SIZE),
            cursor: 0,
        }
    }

    /// Emits `n` machinery references (mostly reads, some writes). Touches
    /// stride coarsely through the hot region — pointer-linked executor
    /// structs, one field per struct — with an occasional excursion over the
    /// whole arena. The resulting private working set has the paper's poor
    /// spatial locality: wider cache lines do not capture more useful state,
    /// they only shrink the number of lines a small L1 can hold.
    ///
    /// The cursor advances whether or not `t` is recording, so a session
    /// that toggles recording resumes at the position it would have reached.
    #[inline]
    pub fn touch(&mut self, t: &Tracer, n: u32) {
        let (base, first) = (self.base, self.cursor + 1);
        self.cursor += n as u64;
        t.refs((first..first + n as u64).map(|cursor| Arena::touch_at(base, cursor)));
    }

    /// The reference the touch numbered `cursor` makes.
    #[inline]
    fn touch_at(base: u64, cursor: u64) -> MemRef {
        let off = if cursor.is_multiple_of(16) {
            // Occasional visit to one of the colder structs further out.
            ((cursor / 16).wrapping_mul(264) % (ARENA_SIZE - 8)) & !7
        } else {
            // One field of each of 48 hot structs, round robin: the spot
            // set is fixed, one cache line apart or more, so line size
            // buys nothing while cache capacity (in lines) decides.
            ((cursor % 48).wrapping_mul(ARENA_HOT_STRIDE) % ARENA_HOT_BYTES.min(ARENA_SIZE - 8))
                & !7
        };
        MemRef {
            addr: base + off,
            size: 8,
            write: cursor % 3 == 2,
            class: DataClass::PrivHeap,
        }
    }

    /// Releases the arena back to the heap.
    pub fn free(self, mem: &mut PrivateHeap) {
        mem.free(self.base, ARENA_SIZE);
    }
}

/// A [`SlotSource`] over a materialized row: loads emit `Priv` reads at the
/// row's slot address.
pub struct RowSrc<'a> {
    row: &'a Row,
    shape: &'a RowShape,
}

impl<'a> RowSrc<'a> {
    /// Wraps a row and its layout.
    pub fn new(row: &'a Row, shape: &'a RowShape) -> Self {
        RowSrc { row, shape }
    }
}

impl SlotSource for RowSrc<'_> {
    fn load(&mut self, i: usize, t: &Tracer) -> Datum {
        let width = self.shape.field_width(i).clamp(1, 8);
        t.read(
            self.row.addr + self.shape.offsets[i],
            width,
            DataClass::PrivHeap,
        );
        self.row.vals[i].clone()
    }
}

/// Copies a row into a destination slot, emitting the private-to-private
/// word copies, and returns the new row at the destination.
pub fn copy_row_to(t: &Tracer, row: &Row, shape: &RowShape, dst: u64) -> Row {
    if shape.width > 0 {
        t.copy(
            row.addr,
            DataClass::PrivHeap,
            dst,
            DataClass::PrivHeap,
            shape.width,
        );
    }
    Row::new(dst, row.vals.clone())
}

/// One executable operator.
pub trait ExecNode {
    /// Prepares for execution: acquires locks, allocates private state.
    fn open(&mut self, ctx: &mut ExecCtx<'_>);
    /// Produces the next row, or `None` when exhausted.
    fn next(&mut self, ctx: &mut ExecCtx<'_>) -> Option<Row>;
    /// Repositions a parameterized scan on a new key (nested-loop inners).
    ///
    /// # Panics
    ///
    /// Panics on nodes that are not parameterized index scans.
    fn rescan(&mut self, _ctx: &mut ExecCtx<'_>, _key: &Datum) {
        panic!("rescan on a non-parameterized node");
    }
    /// Releases private state and pins.
    fn close(&mut self, ctx: &mut ExecCtx<'_>);
    /// Output layout.
    fn shape(&self) -> &RowShape;
}

/// Instantiates the executor tree for a plan.
pub fn build(plan: &Plan, cat: &Catalog) -> Box<dyn ExecNode> {
    match plan {
        Plan::SeqScan {
            table,
            preds,
            project,
            block_range,
        } => Box::new(SeqScanExec::new(
            cat,
            table,
            preds.clone(),
            project.clone(),
            *block_range,
        )),
        Plan::IndexScan {
            table,
            index_column,
            lo,
            hi,
            parameterized,
            preds,
            project,
        } => Box::new(IndexScanExec::new(
            cat,
            table,
            *index_column,
            lo.clone(),
            hi.clone(),
            *parameterized,
            preds.clone(),
            project.clone(),
        )),
        Plan::NestLoop {
            outer,
            inner,
            outer_key,
        } => Box::new(NestLoopExec::new(
            build(outer, cat),
            build(inner, cat),
            *outer_key,
        )),
        Plan::MergeJoin {
            outer,
            outer_key,
            inner,
            inner_key,
        } => Box::new(MergeJoinExec::new(
            build(outer, cat),
            *outer_key,
            build(inner, cat),
            *inner_key,
        )),
        Plan::HashJoin {
            outer,
            outer_key,
            inner,
            inner_key,
        } => Box::new(HashJoinExec::new(
            build(outer, cat),
            *outer_key,
            build(inner, cat),
            *inner_key,
        )),
        Plan::Filter { input, preds } => {
            Box::new(FilterExec::new(build(input, cat), preds.clone()))
        }
        Plan::Sort { input, keys } => Box::new(SortExec::new(build(input, cat), keys.clone())),
        Plan::Group { input, keys, aggs } => {
            let shape = plan.shape(cat);
            Box::new(GroupExec::new(
                build(input, cat),
                keys.clone(),
                aggs.clone(),
                shape,
            ))
        }
        Plan::Aggregate { input, aggs } => {
            let shape = plan.shape(cat);
            Box::new(AggregateExec::new(build(input, cat), aggs.clone(), shape))
        }
        Plan::Project { input, exprs } => {
            let shape = plan.shape(cat);
            Box::new(ProjectExec::new(build(input, cat), exprs.clone(), shape))
        }
        Plan::Limit { input, n } => Box::new(LimitExec::new(build(input, cat), *n)),
    }
}

/// Opens `root`, drains every row, closes it, and returns the decoded rows.
pub fn run_to_completion(root: &mut dyn ExecNode, ctx: &mut ExecCtx<'_>) -> Vec<Vec<Datum>> {
    root.open(ctx);
    let mut out = Vec::new();
    while let Some(row) = root.next(ctx) {
        out.push(row.vals);
    }
    root.close(ctx);
    out
}

/// Evaluates a conjunct list against a row, short-circuiting on failure.
pub(crate) fn eval_preds(
    preds: &[Scalar],
    row: &Row,
    shape: &RowShape,
    t: &Tracer,
    cost: &CostModel,
) -> bool {
    let mut src = RowSrc::new(row, shape);
    preds.iter().all(|p| p.eval_bool(&mut src, t, cost))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The touch sequence as it was recorded one event at a time, before
    /// [`Tracer::refs`]: the formula [`Arena::touch`] must keep.
    fn touch_one_by_one(arena: &mut Arena, t: &Tracer, n: u32) {
        for _ in 0..n {
            arena.cursor += 1;
            let off = if arena.cursor.is_multiple_of(16) {
                ((arena.cursor / 16).wrapping_mul(264) % (ARENA_SIZE - 8)) & !7
            } else {
                ((arena.cursor % 48).wrapping_mul(ARENA_HOT_STRIDE)
                    % ARENA_HOT_BYTES.min(ARENA_SIZE - 8))
                    & !7
            };
            if arena.cursor % 3 == 2 {
                t.write(arena.base + off, 8, DataClass::PrivHeap);
            } else {
                t.read(arena.base + off, 8, DataClass::PrivHeap);
            }
        }
    }

    /// Cursor positions around the every-16th cold touch, the `% 3` write
    /// and the 48-touch hot round, plus one far into the cold walk.
    const PHASES: [u64; 8] = [0, 1, 14, 15, 16, 46, 47, 16 * 8191 - 3];

    #[test]
    fn touch_records_the_per_event_sequence() {
        let mut mem = PrivateHeap::new(0);
        let base = Arena::new(&mut mem).base;
        for cursor in PHASES {
            for n in 0..=48 {
                let (bulk, single) = (Tracer::new(0), Tracer::new(0));
                let mut a = Arena { base, cursor };
                let mut b = a.clone();
                a.touch(&bulk, n);
                touch_one_by_one(&mut b, &single, n);
                assert_eq!(a.cursor, b.cursor);
                assert_eq!(bulk.take(), single.take(), "{n} from cursor {cursor}");
            }
        }
    }

    #[test]
    fn touch_advances_the_cursor_while_recording_is_off() {
        let mut mem = PrivateHeap::new(0);
        let base = Arena::new(&mut mem).base;
        for cursor in PHASES {
            let (toggled, throughout) = (Tracer::new(0), Tracer::new(0));
            let mut a = Arena { base, cursor };
            let mut b = a.clone();
            toggled.set_enabled(false);
            a.touch(&toggled, 21);
            toggled.set_enabled(true);
            a.touch(&toggled, 30);
            b.touch(&throughout, 21);
            throughout.take();
            b.touch(&throughout, 30);
            assert_eq!(toggled.take(), throughout.take(), "from cursor {cursor}");
        }
    }
}
