//! Sequential and index scan selects.

use dss_btree::{BTree, Cursor};
use dss_bufcache::BufId;
use dss_lockmgr::{LockMode, LockResult};
use dss_trace::{DataClass, Tracer};

use crate::catalog::{probe_key, Catalog};
use crate::expr::{Scalar, SlotSource};
use crate::heap::Heap;
use crate::row::{Row, RowShape};
use crate::Datum;

use super::{Arena, ExecCtx, ExecNode};

/// A [`SlotSource`] over a heap tuple: loads emit `Data` reads with
/// Postgres-style tuple deforming (see [`Heap::read_attr_walking`]). One
/// `HeapSrc` is created per tuple, so the deforming state resets per tuple.
struct HeapSrc<'a> {
    heap: &'a Heap,
    pool: &'a dss_bufcache::BufferPool,
    buf: BufId,
    slot: u32,
    deformed_to: usize,
}

impl<'a> HeapSrc<'a> {
    fn new(heap: &'a Heap, pool: &'a dss_bufcache::BufferPool, buf: BufId, slot: u32) -> Self {
        HeapSrc {
            heap,
            pool,
            buf,
            slot,
            deformed_to: 0,
        }
    }
}

impl SlotSource for HeapSrc<'_> {
    fn load(&mut self, i: usize, t: &Tracer) -> Datum {
        self.heap
            .read_attr_walking(self.pool, self.buf, self.slot, i, &mut self.deformed_to, t)
    }
}

/// Projects the given attributes of a heap tuple into a private output slot,
/// emitting the shared-to-private word copies (the paper: a selected tuple's
/// attributes are "read again and copied to private storage").
#[allow(
    clippy::too_many_arguments,
    reason = "the per-tuple path threads its context as scalars; a struct would be built per tuple"
)]
fn project_tuple(
    heap: &Heap,
    pool: &dss_bufcache::BufferPool,
    buf: BufId,
    slot: u32,
    project: &[usize],
    shape: &RowShape,
    slot_addr: u64,
    t: &Tracer,
) -> Row {
    let mut vals = Vec::with_capacity(project.len());
    for (k, &attr) in project.iter().enumerate() {
        let src = heap.attr_addr(pool, buf, slot, attr);
        let width = heap.attr_width(attr);
        t.copy(
            src,
            DataClass::Data,
            slot_addr + shape.offsets[k],
            DataClass::PrivHeap,
            width,
        );
        vals.push(heap.attr_value(pool, buf, slot, attr));
    }
    Row::new(slot_addr, vals)
}

/// Sequential scan select: visits every tuple of the table in heap order.
pub struct SeqScanExec {
    heap: Heap,
    preds: Vec<Scalar>,
    project: Vec<usize>,
    shape: RowShape,
    arena: Option<Arena>,
    slot_addr: u64,
    /// Scanned block range `[lo, hi)` (the whole heap unless partitioned).
    range: (u32, u32),
    block: u32,
    slot: u32,
    page_tuples: u32,
    buf: Option<BufId>,
}

impl SeqScanExec {
    pub(crate) fn new(
        cat: &Catalog,
        table: &str,
        preds: Vec<Scalar>,
        project: Vec<usize>,
        block_range: Option<(u32, u32)>,
    ) -> Self {
        let heap = cat.table(table).expect("planned table").heap.clone();
        let def = heap.def();
        let shape = RowShape::new(project.iter().map(|&a| def.columns[a].ty).collect());
        let range = match block_range {
            Some((lo, hi)) => (lo.min(heap.npages()), hi.min(heap.npages())),
            None => (0, heap.npages()),
        };
        SeqScanExec {
            heap,
            preds,
            project,
            shape,
            arena: None,
            slot_addr: 0,
            range,
            block: range.0,
            slot: 0,
            page_tuples: 0,
            buf: None,
        }
    }
}

impl ExecNode for SeqScanExec {
    fn open(&mut self, ctx: &mut ExecCtx<'_>) {
        let granted = ctx
            .lockmgr
            .acquire(ctx.xid, self.heap.rel(), LockMode::Read, &ctx.t);
        assert_eq!(
            granted,
            LockResult::Granted,
            "read locks never conflict here"
        );
        ctx.t.busy(ctx.cost.scan_start);
        self.arena = Some(Arena::new(ctx.mem));
        self.slot_addr = ctx.mem.alloc(self.shape.width.max(8));
        self.block = self.range.0;
        self.slot = 0;
        self.buf = None;
    }

    fn next(&mut self, ctx: &mut ExecCtx<'_>) -> Option<Row> {
        let arena = self.arena.as_mut().expect("opened");
        loop {
            let buf = match self.buf {
                Some(b) => b,
                None => {
                    if self.block >= self.range.1 {
                        return None;
                    }
                    ctx.t.busy(ctx.cost.page_advance);
                    let b = ctx.pool.pin(self.heap.page(self.block), &ctx.t);
                    self.page_tuples = self.heap.tuples_on_page(ctx.pool, b, &ctx.t);
                    self.slot = 0;
                    self.buf = Some(b);
                    b
                }
            };
            if self.slot >= self.page_tuples {
                ctx.pool.unpin(buf, &ctx.t);
                self.buf = None;
                self.block += 1;
                continue;
            }
            let slot = self.slot;
            self.slot += 1;
            ctx.t.busy(ctx.cost.tuple_overhead);
            if !self.heap.visible(ctx.pool, buf, slot, &ctx.t) {
                continue;
            }
            arena.touch(&ctx.t, 12);
            let mut src = HeapSrc::new(&self.heap, ctx.pool, buf, slot);
            let mut pass = true;
            for p in &self.preds {
                arena.touch(&ctx.t, 6);
                if !p.eval_bool(&mut src, &ctx.t, &ctx.cost) {
                    pass = false;
                    break;
                }
            }
            if !pass {
                continue;
            }
            arena.touch(&ctx.t, 3 * self.project.len() as u32);
            return Some(project_tuple(
                &self.heap,
                ctx.pool,
                buf,
                slot,
                &self.project,
                &self.shape,
                self.slot_addr,
                &ctx.t,
            ));
        }
    }

    fn close(&mut self, ctx: &mut ExecCtx<'_>) {
        if let Some(buf) = self.buf.take() {
            ctx.pool.unpin(buf, &ctx.t);
        }
        if let Some(arena) = self.arena.take() {
            arena.free(ctx.mem);
            ctx.mem.free(self.slot_addr, self.shape.width.max(8));
        }
    }

    fn shape(&self) -> &RowShape {
        &self.shape
    }
}

/// Index scan select: walks a key range of a b-tree and fetches the matching
/// heap tuples. When `parameterized`, the range is an equality on the key
/// delivered by [`ExecNode::rescan`] from a nested-loop join.
pub struct IndexScanExec {
    heap: Heap,
    tree: BTree,
    index_column: usize,
    lo: Option<Datum>,
    hi: Option<Datum>,
    parameterized: bool,
    param: Option<Datum>,
    preds: Vec<Scalar>,
    project: Vec<usize>,
    shape: RowShape,
    arena: Option<Arena>,
    slot_addr: u64,
    cursor: Option<Cursor>,
    /// Cached heap pin: Postgres95's scan-level buffer reuse
    /// (`ReleaseAndReadBuffer` plus private reference counts) skips the
    /// buffer manager when consecutive fetches hit the same heap page.
    heap_pin: Option<(u32, BufId)>,
}

impl IndexScanExec {
    #[allow(
        clippy::too_many_arguments,
        reason = "one caller, the planner; no builder"
    )]
    pub(crate) fn new(
        cat: &Catalog,
        table: &str,
        index_column: usize,
        lo: Option<Datum>,
        hi: Option<Datum>,
        parameterized: bool,
        preds: Vec<Scalar>,
        project: Vec<usize>,
    ) -> Self {
        let meta = cat.table(table).expect("planned table");
        let heap = meta.heap.clone();
        let tree = meta
            .index_on(index_column)
            .expect("planned index")
            .tree
            .clone();
        let def = heap.def();
        let shape = RowShape::new(project.iter().map(|&a| def.columns[a].ty).collect());
        IndexScanExec {
            heap,
            tree,
            index_column,
            lo,
            hi,
            parameterized,
            param: None,
            preds,
            project,
            shape,
            arena: None,
            slot_addr: 0,
            cursor: None,
            heap_pin: None,
        }
    }

    /// Pins the heap page holding `block`, reusing the cached pin when the
    /// page is unchanged.
    fn heap_buf(&mut self, ctx: &mut ExecCtx<'_>, block: u32) -> BufId {
        match self.heap_pin {
            Some((b, buf)) if b == block => buf,
            _ => {
                if let Some((_, old)) = self.heap_pin.take() {
                    ctx.pool.unpin(old, &ctx.t);
                }
                let buf = ctx.pool.pin(self.heap.page(block), &ctx.t);
                self.heap_pin = Some((block, buf));
                buf
            }
        }
    }

    fn drop_heap_pin(&mut self, ctx: &mut ExecCtx<'_>) {
        if let Some((_, buf)) = self.heap_pin.take() {
            ctx.pool.unpin(buf, &ctx.t);
        }
    }

    /// Opens the b-tree cursor for the current bounds. Models Postgres95's
    /// scan start: lock-manager interactions for both the heap and the index
    /// relation (the paper's continuously accessed `LockMgrLock`) followed by
    /// the index descent.
    fn start_scan(&mut self, ctx: &mut ExecCtx<'_>) {
        let granted = ctx
            .lockmgr
            .acquire(ctx.xid, self.heap.rel(), LockMode::Read, &ctx.t);
        assert_eq!(
            granted,
            LockResult::Granted,
            "read locks never conflict here"
        );
        let granted = ctx
            .lockmgr
            .acquire(ctx.xid, self.tree.rel(), LockMode::Read, &ctx.t);
        assert_eq!(
            granted,
            LockResult::Granted,
            "index read locks never conflict"
        );
        ctx.t.busy(ctx.cost.scan_start);
        let (lo_key, hi_key) = match (&self.param, &self.lo, &self.hi) {
            (Some(p), _, _) => {
                let k = probe_key(p);
                (k.min_in_group(), k.max_in_group())
            }
            (None, lo, hi) => {
                let lo_key = match lo {
                    Some(d) => probe_key(d).min_in_group(),
                    None => dss_btree::Key::MIN,
                };
                let hi_key = match hi {
                    Some(d) => probe_key(d).max_in_group(),
                    None => dss_btree::Key::MAX,
                };
                (lo_key, hi_key)
            }
        };
        if let Some(mut old) = self.cursor.take() {
            old.close(ctx.pool, &ctx.t);
        }
        self.cursor = Some(self.tree.scan_range(ctx.pool, &ctx.t, lo_key, hi_key));
    }
}

impl ExecNode for IndexScanExec {
    fn open(&mut self, ctx: &mut ExecCtx<'_>) {
        self.arena = Some(Arena::new(ctx.mem));
        self.slot_addr = ctx.mem.alloc(self.shape.width.max(8));
        if !self.parameterized {
            self.start_scan(ctx);
        }
    }

    fn rescan(&mut self, ctx: &mut ExecCtx<'_>, key: &Datum) {
        assert!(self.parameterized, "rescan of a static index scan");
        self.param = Some(key.clone());
        self.start_scan(ctx);
    }

    fn next(&mut self, ctx: &mut ExecCtx<'_>) -> Option<Row> {
        loop {
            let cursor = self.cursor.as_mut()?;
            let Some((_key, tid)) = cursor.next(ctx.pool, &ctx.t) else {
                self.drop_heap_pin(ctx);
                return None;
            };
            ctx.t.busy(ctx.cost.tuple_overhead);
            let buf = self.heap_buf(ctx, tid.block);
            if !self.heap.visible(ctx.pool, buf, tid.slot, &ctx.t) {
                // A dangling index entry to a deleted tuple.
                continue;
            }
            let arena = self.arena.as_mut().expect("opened");
            arena.touch(&ctx.t, 16);
            // Re-check the key attribute: string index keys are 8-byte
            // prefixes, and parameterized scans verify the join equality.
            let mut src = HeapSrc::new(&self.heap, ctx.pool, buf, tid.slot);
            let mut pass = true;
            if let Some(p) = &self.param {
                let v = src.load(self.index_column, &ctx.t);
                pass = v.compare(p).is_eq();
            }
            if pass {
                for p in &self.preds {
                    arena.touch(&ctx.t, 6);
                    if !p.eval_bool(&mut src, &ctx.t, &ctx.cost) {
                        pass = false;
                        break;
                    }
                }
            }
            if !pass {
                continue;
            }
            arena.touch(&ctx.t, 3 * self.project.len() as u32);
            let row = project_tuple(
                &self.heap,
                ctx.pool,
                buf,
                tid.slot,
                &self.project,
                &self.shape,
                self.slot_addr,
                &ctx.t,
            );
            return Some(row);
        }
    }

    fn close(&mut self, ctx: &mut ExecCtx<'_>) {
        self.drop_heap_pin(ctx);
        if let Some(mut cursor) = self.cursor.take() {
            cursor.close(ctx.pool, &ctx.t);
        }
        if let Some(arena) = self.arena.take() {
            arena.free(ctx.mem);
            ctx.mem.free(self.slot_addr, self.shape.width.max(8));
        }
    }

    fn shape(&self) -> &RowShape {
        &self.shape
    }
}
