//! Nested-loop, merge, and hash joins.

use dss_trace::DataClass;

use crate::row::{Row, RowShape};
use crate::Datum;

use super::{copy_row_to, Arena, ExecCtx, ExecNode};

/// Forms the join output row: outer fields then inner fields, copied into the
/// node's private slot (the paper: joins build result tuples in private
/// storage).
fn combine(
    ctx: &mut ExecCtx<'_>,
    slot_addr: u64,
    outer: &Row,
    outer_shape: &RowShape,
    inner: &Row,
    inner_shape: &RowShape,
) -> Row {
    ctx.t.busy(ctx.cost.tuple_overhead);
    if outer_shape.width > 0 {
        ctx.t.copy(
            outer.addr,
            DataClass::PrivHeap,
            slot_addr,
            DataClass::PrivHeap,
            outer_shape.width,
        );
    }
    if inner_shape.width > 0 {
        ctx.t.copy(
            inner.addr,
            DataClass::PrivHeap,
            slot_addr + outer_shape.width,
            DataClass::PrivHeap,
            inner_shape.width,
        );
    }
    let vals = outer.vals.iter().chain(&inner.vals).cloned().collect();
    Row::new(slot_addr, vals)
}

/// Nested-loop join: rescans a parameterized inner index scan once per outer
/// row (the paper's Q3 pattern).
pub struct NestLoopExec {
    outer: Box<dyn ExecNode>,
    inner: Box<dyn ExecNode>,
    outer_key: usize,
    shape: RowShape,
    arena: Option<Arena>,
    slot_addr: u64,
    cur_outer: Option<Row>,
}

impl NestLoopExec {
    pub(crate) fn new(
        outer: Box<dyn ExecNode>,
        inner: Box<dyn ExecNode>,
        outer_key: usize,
    ) -> Self {
        let shape = outer.shape().concat(inner.shape());
        NestLoopExec {
            outer,
            inner,
            outer_key,
            shape,
            arena: None,
            slot_addr: 0,
            cur_outer: None,
        }
    }
}

impl ExecNode for NestLoopExec {
    fn open(&mut self, ctx: &mut ExecCtx<'_>) {
        self.outer.open(ctx);
        self.inner.open(ctx);
        self.arena = Some(Arena::new(ctx.mem));
        self.slot_addr = ctx.mem.alloc(self.shape.width.max(8));
        self.cur_outer = None;
    }

    fn next(&mut self, ctx: &mut ExecCtx<'_>) -> Option<Row> {
        loop {
            if self.cur_outer.is_none() {
                let row = self.outer.next(ctx)?;
                self.inner.rescan(ctx, &row.vals[self.outer_key]);
                self.arena.as_mut().expect("opened").touch(&ctx.t, 8);
                self.cur_outer = Some(row);
            }
            match self.inner.next(ctx) {
                Some(inner_row) => {
                    return Some(combine(
                        ctx,
                        self.slot_addr,
                        self.cur_outer.as_ref().expect("set above"),
                        self.outer.shape(),
                        &inner_row,
                        self.inner.shape(),
                    ));
                }
                None => self.cur_outer = None,
            }
        }
    }

    fn close(&mut self, ctx: &mut ExecCtx<'_>) {
        self.outer.close(ctx);
        self.inner.close(ctx);
        if let Some(arena) = self.arena.take() {
            arena.free(ctx.mem);
            ctx.mem.free(self.slot_addr, self.shape.width.max(8));
        }
    }

    fn shape(&self) -> &RowShape {
        &self.shape
    }
}

/// Merge join of two inputs ordered on their join keys; buffers the current
/// inner key group in private memory to handle duplicates on both sides.
pub struct MergeJoinExec {
    outer: Box<dyn ExecNode>,
    outer_key: usize,
    inner: Box<dyn ExecNode>,
    inner_key: usize,
    shape: RowShape,
    arena: Option<Arena>,
    slot_addr: u64,
    cur_outer: Option<Row>,
    group_key: Option<Datum>,
    group: Vec<(u64, Row)>,
    group_idx: usize,
    inner_ahead: Option<Row>,
    inner_done: bool,
}

impl MergeJoinExec {
    pub(crate) fn new(
        outer: Box<dyn ExecNode>,
        outer_key: usize,
        inner: Box<dyn ExecNode>,
        inner_key: usize,
    ) -> Self {
        let shape = outer.shape().concat(inner.shape());
        MergeJoinExec {
            outer,
            outer_key,
            inner,
            inner_key,
            shape,
            arena: None,
            slot_addr: 0,
            cur_outer: None,
            group_key: None,
            group: Vec::new(),
            group_idx: 0,
            inner_ahead: None,
            inner_done: false,
        }
    }
}

/// Frees a merge join's buffered inner key group (`width` bytes per row).
fn free_group(group: &mut Vec<(u64, Row)>, width: u64, ctx: &mut ExecCtx<'_>) {
    for (addr, _) in group.drain(..) {
        ctx.mem.free(addr, width);
    }
}

impl ExecNode for MergeJoinExec {
    fn open(&mut self, ctx: &mut ExecCtx<'_>) {
        self.outer.open(ctx);
        self.inner.open(ctx);
        self.arena = Some(Arena::new(ctx.mem));
        self.slot_addr = ctx.mem.alloc(self.shape.width.max(8));
    }

    fn next(&mut self, ctx: &mut ExecCtx<'_>) -> Option<Row> {
        loop {
            if self.cur_outer.is_none() {
                self.cur_outer = Some(self.outer.next(ctx)?);
                self.group_idx = 0;
            }
            let outer_row = self.cur_outer.as_ref().expect("set above");
            let okey = &outer_row.vals[self.outer_key];
            self.arena.as_mut().expect("opened").touch(&ctx.t, 4);
            // Emit from the buffered group when it matches this outer key.
            if self.group_key.as_ref().map(|k| k.compare(okey).is_eq()) == Some(true) {
                if let Some((_, inner_row)) = self.group.get(self.group_idx) {
                    self.group_idx += 1;
                    return Some(combine(
                        ctx,
                        self.slot_addr,
                        outer_row,
                        self.outer.shape(),
                        inner_row,
                        self.inner.shape(),
                    ));
                }
                self.cur_outer = None;
                continue;
            }
            // The group is behind this outer key: advance the inner side.
            if self.group_key.as_ref().map(|k| k.compare(okey).is_lt()) != Some(false) {
                // Skip inner rows below the outer key.
                loop {
                    if self.inner_ahead.is_none() && !self.inner_done {
                        self.inner_ahead = self.inner.next(ctx);
                        if self.inner_ahead.is_none() {
                            self.inner_done = true;
                        }
                    }
                    match &self.inner_ahead {
                        Some(r) => {
                            ctx.t.busy(ctx.cost.sort_compare);
                            if r.vals[self.inner_key].compare(okey).is_lt() {
                                self.inner_ahead = None;
                                continue;
                            }
                            break;
                        }
                        None => break,
                    }
                }
                // Collect the group equal to the outer key.
                let inner_width = self.inner.shape().width.max(8);
                free_group(&mut self.group, inner_width, ctx);
                self.group_key = Some(okey.clone());
                self.group_idx = 0;
                loop {
                    if self.inner_ahead.is_none() && !self.inner_done {
                        self.inner_ahead = self.inner.next(ctx);
                        if self.inner_ahead.is_none() {
                            self.inner_done = true;
                        }
                    }
                    match self.inner_ahead.take() {
                        Some(r) => {
                            ctx.t.busy(ctx.cost.sort_compare);
                            if r.vals[self.inner_key].compare(okey).is_eq() {
                                let addr = ctx.mem.alloc(inner_width);
                                let stored = copy_row_to(&ctx.t, &r, self.inner.shape(), addr);
                                self.group.push((addr, stored));
                            } else {
                                self.inner_ahead = Some(r);
                                break;
                            }
                        }
                        None => break,
                    }
                }
                if self.group.is_empty() {
                    // No inner match for this outer row.
                    self.cur_outer = None;
                }
                continue;
            }
            // Group key is ahead of the outer key: no match for this outer.
            self.cur_outer = None;
        }
    }

    fn close(&mut self, ctx: &mut ExecCtx<'_>) {
        let inner_width = self.inner.shape().width.max(8);
        free_group(&mut self.group, inner_width, ctx);
        self.outer.close(ctx);
        self.inner.close(ctx);
        if let Some(arena) = self.arena.take() {
            arena.free(ctx.mem);
            ctx.mem.free(self.slot_addr, self.shape.width.max(8));
        }
    }

    fn shape(&self) -> &RowShape {
        &self.shape
    }
}

/// Hash join: materializes the inner (build) side into a private hash table
/// at open, then probes it once per outer row.
pub struct HashJoinExec {
    outer: Box<dyn ExecNode>,
    outer_key: usize,
    inner: Box<dyn ExecNode>,
    inner_key: usize,
    shape: RowShape,
    arena: Option<Arena>,
    slot_addr: u64,
    buckets_addr: u64,
    nbuckets: u64,
    /// bucket -> entries of (entry address, key, stored row).
    table: Vec<Vec<(u64, Datum, Row)>>,
    cur_outer: Option<Row>,
    chain_idx: usize,
    built: bool,
}

impl HashJoinExec {
    pub(crate) fn new(
        outer: Box<dyn ExecNode>,
        outer_key: usize,
        inner: Box<dyn ExecNode>,
        inner_key: usize,
    ) -> Self {
        let shape = outer.shape().concat(inner.shape());
        HashJoinExec {
            outer,
            outer_key,
            inner,
            inner_key,
            shape,
            arena: None,
            slot_addr: 0,
            buckets_addr: 0,
            nbuckets: 0,
            table: Vec::new(),
            cur_outer: None,
            chain_idx: 0,
            built: false,
        }
    }

    fn build_table(&mut self, ctx: &mut ExecCtx<'_>) {
        let mut rows = Vec::new();
        let inner_shape = self.inner.shape().clone();
        let entry_width = inner_shape.width.max(8) + 16; // header + next pointer
        while let Some(r) = self.inner.next(ctx) {
            ctx.t.busy(ctx.cost.hash_step);
            let addr = ctx.mem.alloc(entry_width);
            let stored = copy_row_to(&ctx.t, &r, &inner_shape, addr + 16);
            let key = r.vals[self.inner_key].clone();
            rows.push((addr, key, stored));
        }
        self.nbuckets = (rows.len() as u64 * 2).next_power_of_two().max(64);
        self.buckets_addr = ctx.mem.alloc(self.nbuckets * 8);
        self.table = vec![Vec::new(); self.nbuckets as usize];
        for (addr, key, row) in rows {
            let b = (key.hash64() % self.nbuckets) as usize;
            // Link into the bucket: write the bucket head and entry header.
            ctx.t
                .write(self.buckets_addr + b as u64 * 8, 8, DataClass::PrivHeap);
            ctx.t.write(addr, 8, DataClass::PrivHeap);
            self.table[b].push((addr, key, row));
        }
        self.built = true;
    }
}

impl ExecNode for HashJoinExec {
    fn open(&mut self, ctx: &mut ExecCtx<'_>) {
        self.outer.open(ctx);
        self.inner.open(ctx);
        self.arena = Some(Arena::new(ctx.mem));
        self.slot_addr = ctx.mem.alloc(self.shape.width.max(8));
        self.build_table(ctx);
    }

    fn next(&mut self, ctx: &mut ExecCtx<'_>) -> Option<Row> {
        assert!(self.built, "next before open");
        loop {
            if self.cur_outer.is_none() {
                let row = self.outer.next(ctx)?;
                ctx.t.busy(ctx.cost.hash_step);
                self.arena.as_mut().expect("opened").touch(&ctx.t, 6);
                let b = (row.vals[self.outer_key].hash64() % self.nbuckets) as usize;
                ctx.t
                    .read(self.buckets_addr + b as u64 * 8, 8, DataClass::PrivHeap);
                self.cur_outer = Some(row);
                self.chain_idx = 0;
            }
            let outer_row = self.cur_outer.as_ref().expect("set above");
            let okey = &outer_row.vals[self.outer_key];
            let b = (okey.hash64() % self.nbuckets) as usize;
            let chain = &self.table[b];
            let mut matched = None;
            while self.chain_idx < chain.len() {
                let (addr, key, row) = &chain[self.chain_idx];
                self.chain_idx += 1;
                // Read the entry's key field for the comparison.
                ctx.t.read(*addr + 16, 8, DataClass::PrivHeap);
                ctx.t.busy(ctx.cost.predicate_eval);
                if key.compare(okey).is_eq() {
                    matched = Some(row);
                    break;
                }
            }
            match matched {
                Some(inner_row) => {
                    return Some(combine(
                        ctx,
                        self.slot_addr,
                        outer_row,
                        self.outer.shape(),
                        inner_row,
                        self.inner.shape(),
                    ));
                }
                None => self.cur_outer = None,
            }
        }
    }

    fn close(&mut self, ctx: &mut ExecCtx<'_>) {
        let inner_width = self.inner.shape().width.max(8) + 16;
        for chain in self.table.drain(..) {
            for (addr, _, _) in chain {
                ctx.mem.free(addr, inner_width);
            }
        }
        if self.nbuckets > 0 {
            ctx.mem.free(self.buckets_addr, self.nbuckets * 8);
        }
        self.outer.close(ctx);
        self.inner.close(ctx);
        if let Some(arena) = self.arena.take() {
            arena.free(ctx.mem);
            ctx.mem.free(self.slot_addr, self.shape.width.max(8));
        }
    }

    fn shape(&self) -> &RowShape {
        &self.shape
    }
}
