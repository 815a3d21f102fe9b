//! The sort operator.

use crate::row::{Row, RowShape};

use super::{copy_row_to, Arena, ExecCtx, ExecNode};

/// Sorts its input by materializing every row into a private workspace — the
/// paper's "temporary tables … to store the whole input data" — then
/// emitting rows in key order. Comparator key reads and the workspace copies
/// are the main source of private-data traffic in sorting queries.
pub struct SortExec {
    input: Box<dyn ExecNode>,
    keys: Vec<(usize, bool)>,
    shape: RowShape,
    arena: Option<Arena>,
    slot_addr: u64,
    stored: Vec<(u64, Row)>,
    emit_order: Vec<usize>,
    emit_pos: usize,
    loaded: bool,
}

impl SortExec {
    pub(crate) fn new(input: Box<dyn ExecNode>, keys: Vec<(usize, bool)>) -> Self {
        let shape = input.shape().clone();
        SortExec {
            input,
            keys,
            shape,
            arena: None,
            slot_addr: 0,
            stored: Vec::new(),
            emit_order: Vec::new(),
            emit_pos: 0,
            loaded: false,
        }
    }

    fn load_and_sort(&mut self, ctx: &mut ExecCtx<'_>) {
        let width = self.shape.width.max(8);
        while let Some(r) = self.input.next(ctx) {
            let addr = ctx.mem.alloc(width);
            let stored = copy_row_to(&ctx.t, &r, &self.shape, addr);
            self.stored.push((addr, stored));
        }
        let mut order: Vec<usize> = (0..self.stored.len()).collect();
        // Stable sort with a tracing comparator: each comparison reads the
        // key fields of both rows from the private workspace.
        let stored = &self.stored;
        let keys = &self.keys;
        let shape = &self.shape;
        let t = ctx.t.clone();
        let cost = ctx.cost;
        order.sort_by(|&a, &b| {
            t.busy(cost.sort_compare);
            let ra = &stored[a].1;
            let rb = &stored[b].1;
            for (k, desc) in keys {
                let w = shape.field_width(*k).clamp(1, 8);
                t.read(
                    ra.addr + shape.offsets[*k],
                    w,
                    dss_trace::DataClass::PrivHeap,
                );
                t.read(
                    rb.addr + shape.offsets[*k],
                    w,
                    dss_trace::DataClass::PrivHeap,
                );
                let ord = ra.vals[*k].compare(&rb.vals[*k]);
                let ord = if *desc { ord.reverse() } else { ord };
                if !ord.is_eq() {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        self.emit_order = order;
        self.emit_pos = 0;
        self.loaded = true;
    }
}

impl ExecNode for SortExec {
    fn open(&mut self, ctx: &mut ExecCtx<'_>) {
        self.input.open(ctx);
        self.arena = Some(Arena::new(ctx.mem));
        self.slot_addr = ctx.mem.alloc(self.shape.width.max(8));
        self.load_and_sort(ctx);
    }

    fn next(&mut self, ctx: &mut ExecCtx<'_>) -> Option<Row> {
        assert!(self.loaded, "next before open");
        if self.emit_pos >= self.emit_order.len() {
            return None;
        }
        let idx = self.emit_order[self.emit_pos];
        self.emit_pos += 1;
        ctx.t.busy(ctx.cost.tuple_overhead);
        self.arena.as_mut().expect("opened").touch(&ctx.t, 4);
        let (_, row) = &self.stored[idx];
        Some(copy_row_to(&ctx.t, row, &self.shape, self.slot_addr))
    }

    fn close(&mut self, ctx: &mut ExecCtx<'_>) {
        let width = self.shape.width.max(8);
        for (addr, _) in self.stored.drain(..) {
            ctx.mem.free(addr, width);
        }
        self.input.close(ctx);
        if let Some(arena) = self.arena.take() {
            arena.free(ctx.mem);
            ctx.mem.free(self.slot_addr, width);
        }
    }

    fn shape(&self) -> &RowShape {
        &self.shape
    }
}
