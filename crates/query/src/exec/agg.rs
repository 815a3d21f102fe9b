//! Grouping, aggregation, filtering, and projection.

use std::collections::HashSet;

use dss_sql::AggFunc;
use dss_trace::DataClass;

use crate::plan::AggSpec;
use crate::row::{Row, RowShape};
use crate::Datum;

use super::{eval_preds, Arena, ExecCtx, ExecNode, RowSrc};

/// Running state of one aggregate.
#[derive(Clone, Debug)]
struct AggState {
    count: i64,
    sum: i64,
    sum_is_dec: bool,
    min: Option<Datum>,
    max: Option<Datum>,
    distinct: HashSet<Datum>,
}

impl AggState {
    fn new() -> Self {
        AggState {
            count: 0,
            sum: 0,
            sum_is_dec: false,
            min: None,
            max: None,
            distinct: HashSet::new(),
        }
    }

    fn update(&mut self, spec: &AggSpec, v: Option<Datum>) {
        match (&spec.func, v) {
            (AggFunc::Count, v) => {
                if spec.distinct {
                    if let Some(v) = v {
                        self.distinct.insert(v);
                    }
                } else {
                    self.count += 1;
                }
            }
            (AggFunc::Sum | AggFunc::Avg, Some(v)) => {
                self.count += 1;
                match v {
                    Datum::Int(x) => self.sum += x,
                    Datum::Dec(x) => {
                        self.sum += x;
                        self.sum_is_dec = true;
                    }
                    other => panic!("sum over non-numeric {other:?}"),
                }
            }
            (AggFunc::Min, Some(v)) => match &self.min {
                Some(cur) if v.compare(cur).is_ge() => {}
                _ => self.min = Some(v),
            },
            (AggFunc::Max, Some(v)) => match &self.max {
                Some(cur) if v.compare(cur).is_le() => {}
                _ => self.max = Some(v),
            },
            (f, None) => panic!("aggregate {f:?} without an argument"),
        }
    }

    fn finish(&self, spec: &AggSpec) -> Datum {
        match spec.func {
            AggFunc::Count => {
                if spec.distinct {
                    Datum::Int(self.distinct.len() as i64)
                } else {
                    Datum::Int(self.count)
                }
            }
            AggFunc::Sum => {
                if self.sum_is_dec {
                    Datum::Dec(self.sum)
                } else {
                    Datum::Int(self.sum)
                }
            }
            AggFunc::Avg => {
                let n = self.count.max(1);
                if self.sum_is_dec {
                    Datum::Dec(self.sum / n)
                } else {
                    Datum::Dec(self.sum * 100 / n)
                }
            }
            AggFunc::Min => self.min.clone().unwrap_or(Datum::Int(0)),
            AggFunc::Max => self.max.clone().unwrap_or(Datum::Int(0)),
        }
    }
}

/// Shared core of grouped and scalar aggregation.
struct AggCore {
    specs: Vec<AggSpec>,
    states: Vec<AggState>,
    /// Private block holding the accumulators (8 bytes per aggregate).
    acc_addr: u64,
}

impl AggCore {
    fn new(specs: Vec<AggSpec>, ctx: &mut ExecCtx<'_>) -> Self {
        let n = specs.len().max(1) as u64;
        AggCore {
            states: vec![AggState::new(); specs.len()],
            specs,
            acc_addr: ctx.mem.alloc(n * 8),
        }
    }

    fn reset(&mut self) {
        self.states = vec![AggState::new(); self.specs.len()];
    }

    /// Feeds one input row: evaluates each argument (private reads of the
    /// row's fields) and updates the accumulator (read + write + arithmetic).
    fn update(&mut self, ctx: &mut ExecCtx<'_>, row: &Row, shape: &RowShape) {
        for (i, spec) in self.specs.iter().enumerate() {
            let v = spec.arg.as_ref().map(|a| {
                let mut src = RowSrc::new(row, shape);
                a.eval_value(&mut src, &ctx.t, &ctx.cost)
            });
            let addr = self.acc_addr + i as u64 * 8;
            ctx.t.read(addr, 8, DataClass::PrivHeap);
            ctx.t.busy(ctx.cost.arithmetic);
            ctx.t.write(addr, 8, DataClass::PrivHeap);
            self.states[i].update(spec, v);
        }
    }

    fn finish(&self) -> Vec<Datum> {
        self.specs
            .iter()
            .zip(&self.states)
            .map(|(s, st)| st.finish(s))
            .collect()
    }

    fn free(self, ctx: &mut ExecCtx<'_>) {
        ctx.mem
            .free(self.acc_addr, self.specs.len().max(1) as u64 * 8);
    }
}

/// Grouped aggregation over a sorted input — Postgres95's Group + Aggregate
/// node pair, fused.
pub struct GroupExec {
    input: Box<dyn ExecNode>,
    keys: Vec<usize>,
    specs: Vec<AggSpec>,
    shape: RowShape,
    arena: Option<Arena>,
    slot_addr: u64,
    core: Option<AggCore>,
    cur_keys: Option<Vec<Datum>>,
    lookahead: Option<Row>,
    done: bool,
}

impl GroupExec {
    pub(crate) fn new(
        input: Box<dyn ExecNode>,
        keys: Vec<usize>,
        specs: Vec<AggSpec>,
        shape: RowShape,
    ) -> Self {
        GroupExec {
            input,
            keys,
            specs,
            shape,
            arena: None,
            slot_addr: 0,
            core: None,
            cur_keys: None,
            lookahead: None,
            done: false,
        }
    }

    fn emit(&mut self, ctx: &mut ExecCtx<'_>, keys: Vec<Datum>) -> Row {
        let core = self.core.as_mut().expect("opened");
        let mut vals = keys;
        vals.extend(core.finish());
        core.reset();
        // Write the result row into the output slot.
        for (i, off) in self.shape.offsets.iter().enumerate() {
            let w = self.shape.field_width(i).clamp(1, 8);
            ctx.t.write(self.slot_addr + off, w, DataClass::PrivHeap);
        }
        Row::new(self.slot_addr, vals)
    }
}

impl ExecNode for GroupExec {
    fn open(&mut self, ctx: &mut ExecCtx<'_>) {
        self.input.open(ctx);
        self.arena = Some(Arena::new(ctx.mem));
        self.slot_addr = ctx.mem.alloc(self.shape.width.max(8));
        self.core = Some(AggCore::new(self.specs.clone(), ctx));
    }

    fn next(&mut self, ctx: &mut ExecCtx<'_>) -> Option<Row> {
        if self.done {
            return None;
        }
        loop {
            let row = match self.lookahead.take() {
                Some(r) => Some(r),
                None => self.input.next(ctx),
            };
            match row {
                Some(r) => {
                    // Read this row's group keys (private reads + compares).
                    let row_keys: Vec<Datum> = {
                        use crate::expr::SlotSource;
                        let mut src = RowSrc::new(&r, self.input.shape());
                        self.keys
                            .iter()
                            .map(|&k| {
                                ctx.t.busy(ctx.cost.predicate_eval);
                                src.load(k, &ctx.t)
                            })
                            .collect()
                    };
                    self.arena.as_mut().expect("opened").touch(&ctx.t, 4);
                    match &self.cur_keys {
                        Some(cur)
                            if cur.iter().zip(&row_keys).all(|(a, b)| a.compare(b).is_eq()) =>
                        {
                            self.core
                                .as_mut()
                                .expect("opened")
                                .update(ctx, &r, self.input.shape());
                        }
                        Some(_) => {
                            // Boundary: emit the finished group, start anew.
                            let finished = self.cur_keys.replace(row_keys).expect("checked");
                            let out = self.emit(ctx, finished);
                            self.core
                                .as_mut()
                                .expect("opened")
                                .update(ctx, &r, self.input.shape());
                            self.lookahead = None;
                            let _ = &out;
                            // The consumed row already updated the new group.
                            return Some(out);
                        }
                        None => {
                            self.cur_keys = Some(row_keys);
                            self.core
                                .as_mut()
                                .expect("opened")
                                .update(ctx, &r, self.input.shape());
                        }
                    }
                }
                None => {
                    self.done = true;
                    return self.cur_keys.take().map(|keys| self.emit(ctx, keys));
                }
            }
        }
    }

    fn close(&mut self, ctx: &mut ExecCtx<'_>) {
        self.input.close(ctx);
        if let Some(core) = self.core.take() {
            core.free(ctx);
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

/// Scalar aggregation: one output row over the whole input (even when the
/// input is empty, counts are zero — sums of empty inputs report zero).
pub struct AggregateExec {
    input: Box<dyn ExecNode>,
    specs: Vec<AggSpec>,
    shape: RowShape,
    arena: Option<Arena>,
    slot_addr: u64,
    core: Option<AggCore>,
    done: bool,
}

impl AggregateExec {
    pub(crate) fn new(input: Box<dyn ExecNode>, specs: Vec<AggSpec>, shape: RowShape) -> Self {
        AggregateExec {
            input,
            specs,
            shape,
            arena: None,
            slot_addr: 0,
            core: None,
            done: false,
        }
    }
}

impl ExecNode for AggregateExec {
    fn open(&mut self, ctx: &mut ExecCtx<'_>) {
        self.input.open(ctx);
        self.arena = Some(Arena::new(ctx.mem));
        self.slot_addr = ctx.mem.alloc(self.shape.width.max(8));
        self.core = Some(AggCore::new(self.specs.clone(), ctx));
    }

    fn next(&mut self, ctx: &mut ExecCtx<'_>) -> Option<Row> {
        if self.done {
            return None;
        }
        while let Some(r) = self.input.next(ctx) {
            self.arena.as_mut().expect("opened").touch(&ctx.t, 4);
            self.core
                .as_mut()
                .expect("opened")
                .update(ctx, &r, self.input.shape());
        }
        self.done = true;
        let vals = self.core.as_ref().expect("opened").finish();
        for (i, off) in self.shape.offsets.iter().enumerate() {
            let w = self.shape.field_width(i).clamp(1, 8);
            ctx.t.write(self.slot_addr + off, w, DataClass::PrivHeap);
        }
        Some(Row::new(self.slot_addr, vals))
    }

    fn close(&mut self, ctx: &mut ExecCtx<'_>) {
        self.input.close(ctx);
        if let Some(core) = self.core.take() {
            core.free(ctx);
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

/// Residual predicate filter (pass-through rows).
pub struct FilterExec {
    input: Box<dyn ExecNode>,
    preds: Vec<crate::expr::Scalar>,
    shape: RowShape,
    arena: Option<Arena>,
}

impl FilterExec {
    pub(crate) fn new(input: Box<dyn ExecNode>, preds: Vec<crate::expr::Scalar>) -> Self {
        let shape = input.shape().clone();
        FilterExec {
            input,
            preds,
            shape,
            arena: None,
        }
    }
}

impl ExecNode for FilterExec {
    fn open(&mut self, ctx: &mut ExecCtx<'_>) {
        self.input.open(ctx);
        self.arena = Some(Arena::new(ctx.mem));
    }

    fn next(&mut self, ctx: &mut ExecCtx<'_>) -> Option<Row> {
        loop {
            let row = self.input.next(ctx)?;
            self.arena.as_mut().expect("opened").touch(&ctx.t, 3);
            if eval_preds(&self.preds, &row, &self.shape, &ctx.t, &ctx.cost) {
                return Some(row);
            }
        }
    }

    fn close(&mut self, ctx: &mut ExecCtx<'_>) {
        self.input.close(ctx);
        if let Some(arena) = self.arena.take() {
            arena.free(ctx.mem);
        }
    }

    fn shape(&self) -> &RowShape {
        &self.shape
    }
}

/// Computes output expressions into a fresh private slot.
pub struct ProjectExec {
    input: Box<dyn ExecNode>,
    exprs: Vec<crate::expr::Scalar>,
    shape: RowShape,
    arena: Option<Arena>,
    slot_addr: u64,
}

impl ProjectExec {
    pub(crate) fn new(
        input: Box<dyn ExecNode>,
        exprs: Vec<crate::expr::Scalar>,
        shape: RowShape,
    ) -> Self {
        ProjectExec {
            input,
            exprs,
            shape,
            arena: None,
            slot_addr: 0,
        }
    }
}

impl ExecNode for ProjectExec {
    fn open(&mut self, ctx: &mut ExecCtx<'_>) {
        self.input.open(ctx);
        self.arena = Some(Arena::new(ctx.mem));
        self.slot_addr = ctx.mem.alloc(self.shape.width.max(8));
    }

    fn next(&mut self, ctx: &mut ExecCtx<'_>) -> Option<Row> {
        let row = self.input.next(ctx)?;
        let input_shape = self.input.shape();
        self.arena.as_mut().expect("opened").touch(&ctx.t, 1);
        let mut vals = Vec::with_capacity(self.exprs.len());
        for (i, e) in self.exprs.iter().enumerate() {
            let v = {
                let mut src = RowSrc::new(&row, input_shape);
                e.eval_value(&mut src, &ctx.t, &ctx.cost)
            };
            let w = self.shape.field_width(i).clamp(1, 8);
            ctx.t.write(
                self.slot_addr + self.shape.offsets[i],
                w,
                DataClass::PrivHeap,
            );
            vals.push(v);
        }
        Some(Row::new(self.slot_addr, vals))
    }

    fn close(&mut self, ctx: &mut ExecCtx<'_>) {
        self.input.close(ctx);
        if let Some(arena) = self.arena.take() {
            arena.free(ctx.mem);
            ctx.mem.free(self.slot_addr, self.shape.width.max(8));
        }
    }

    fn shape(&self) -> &RowShape {
        &self.shape
    }
}

/// Stops after a fixed number of rows.
pub struct LimitExec {
    input: Box<dyn ExecNode>,
    n: u64,
    produced: u64,
    shape: RowShape,
}

impl LimitExec {
    pub(crate) fn new(input: Box<dyn ExecNode>, n: u64) -> Self {
        let shape = input.shape().clone();
        LimitExec {
            input,
            n,
            produced: 0,
            shape,
        }
    }
}

impl ExecNode for LimitExec {
    fn open(&mut self, ctx: &mut ExecCtx<'_>) {
        self.input.open(ctx);
        self.produced = 0;
    }

    fn next(&mut self, ctx: &mut ExecCtx<'_>) -> Option<Row> {
        if self.produced >= self.n {
            return None;
        }
        let row = self.input.next(ctx)?;
        self.produced += 1;
        Some(row)
    }

    fn close(&mut self, ctx: &mut ExecCtx<'_>) {
        self.input.close(ctx);
    }

    fn shape(&self) -> &RowShape {
        &self.shape
    }
}
