//! Heap table storage: fixed-width tuples in 8 KB buffer pages.

use dss_btree::TupleId;
use dss_bufcache::{BufId, BufferPool, PageId, BLOCK_SIZE};
use dss_tpcd::{ColType, Date, TableDef, Value};
use dss_trace::{DataClass, Tracer};

use crate::Datum;

/// Bytes of page header (tuple count plus reserved space).
pub const PAGE_HEADER: u64 = 16;

/// Bytes of per-tuple header, sized like Postgres95's `HeapTupleHeader`
/// (transaction ids, ctid, null bitmap). Its presence matters: it is why the
/// paper's 100×-scaled database still occupies ~20 MB.
pub const TUPLE_HEADER: u64 = 40;

/// Reads of string attributes during predicate evaluation are capped at this
/// many bytes — a comparison resolves within the first words.
const STRING_PROBE_BYTES: u64 = 16;

/// Number of leading attributes whose offsets Postgres95 caches (fixed-width
/// columns before the first variable-width one); see
/// [`Heap::read_attr_walking`].
pub const CACHED_OFFSET_ATTRS: usize = 4;

/// Tuple-header flag marking a deleted tuple (Postgres marks deletion in the
/// header and leaves the slot for a later vacuum; index entries keep pointing
/// at it and scans re-check visibility).
const FLAG_DEAD: u32 = 1;

/// A heap table: metadata plus accessors over its pages in the buffer pool.
///
/// All tuple bytes really live in the pool's blocks, so queries compute real
/// answers; accessors that take a [`Tracer`] also emit
/// [`DataClass::Data`] references at the tuple's emulated address.
#[derive(Clone, Debug)]
pub struct Heap {
    rel: u32,
    def: TableDef,
    attr_offsets: Vec<u64>,
    row_width: u64,
    tuples_per_page: u32,
    ntuples: u64,
    ndead: u64,
}

impl Heap {
    /// Creates an empty heap for relation `rel` with `def`'s schema.
    pub fn create(rel: u32, def: TableDef) -> Self {
        let mut attr_offsets = Vec::with_capacity(def.columns.len());
        let mut off = 0u64;
        for c in &def.columns {
            attr_offsets.push(off);
            off += c.ty.width() as u64;
        }
        let slot = TUPLE_HEADER + off;
        let tuples_per_page = ((BLOCK_SIZE - PAGE_HEADER) / slot) as u32;
        assert!(tuples_per_page > 0, "tuple wider than a page");
        Heap {
            rel,
            def,
            attr_offsets,
            row_width: off,
            tuples_per_page,
            ntuples: 0,
            ndead: 0,
        }
    }

    /// The heap's relation id.
    pub fn rel(&self) -> u32 {
        self.rel
    }

    /// The table definition.
    pub fn def(&self) -> &TableDef {
        &self.def
    }

    /// Total tuples stored (including dead ones awaiting vacuum).
    pub fn ntuples(&self) -> u64 {
        self.ntuples
    }

    /// Tuples marked deleted.
    pub fn ndead(&self) -> u64 {
        self.ndead
    }

    /// Tuple payload width (excluding the header).
    pub fn row_width(&self) -> u64 {
        self.row_width
    }

    /// Tuples that fit on one page.
    pub fn tuples_per_page(&self) -> u32 {
        self.tuples_per_page
    }

    /// Number of heap pages.
    pub fn npages(&self) -> u32 {
        self.ntuples.div_ceil(self.tuples_per_page as u64) as u32
    }

    /// The page id of heap block `block`.
    pub fn page(&self, block: u32) -> PageId {
        PageId::new(self.rel, block)
    }

    /// Appends a row during load (no references emitted).
    ///
    /// # Panics
    ///
    /// Panics if the row does not match the schema.
    pub fn append(&mut self, pool: &mut BufferPool, row: &[Value]) -> TupleId {
        assert_eq!(row.len(), self.def.columns.len(), "row arity mismatch");
        let slot_in_page = (self.ntuples % self.tuples_per_page as u64) as u32;
        let block = (self.ntuples / self.tuples_per_page as u64) as u32;
        let buf = if slot_in_page == 0 {
            if block < pool.rel_len(self.rel) {
                // Reusing a page truncated by vacuum.
                pool.lookup(self.page(block)).expect("page exists")
            } else {
                let page = pool.alloc_page(self.rel);
                debug_assert_eq!(page.block, block);
                pool.lookup(page).expect("just allocated")
            }
        } else {
            pool.lookup(self.page(block)).expect("page exists")
        };
        let base = self.slot_off(slot_in_page) + TUPLE_HEADER;
        for (i, v) in row.iter().enumerate() {
            let off = (base + self.attr_offsets[i]) as usize;
            let ty = self.def.columns[i].ty;
            match (v, ty) {
                (Value::Int(x), ColType::Int) | (Value::Dec(x), ColType::Dec) => {
                    pool.put_u64(buf, off, *x as u64);
                }
                (Value::Date(d), ColType::Date) => {
                    pool.put_u32(buf, off, d.day_number() as u32);
                }
                (Value::Str(s), ColType::Str(w)) => {
                    let n = s.len().min(w as usize);
                    pool.put_bytes(buf, off, &s.as_bytes()[..n]);
                    pool.fill_bytes(buf, off + n, w as usize - n, b' ');
                }
                (v, ty) => panic!("value {v:?} does not fit column type {ty:?}"),
            }
        }
        pool.put_u32(buf, 0, slot_in_page + 1); // tuple count on this page
        pool.put_u32(buf, (self.slot_off(slot_in_page)) as usize, 0); // live header
        self.ntuples += 1;
        TupleId::new(block, slot_in_page)
    }

    /// Resets the heap to empty, keeping its allocated pages for reuse
    /// (vacuum support; untraced maintenance).
    pub fn truncate(&mut self) {
        self.ntuples = 0;
        self.ndead = 0;
    }

    /// Tuples stored on the page held by `buf`, reading the page header
    /// (one traced 4-byte [`DataClass::Data`] load).
    pub fn tuples_on_page(&self, pool: &BufferPool, buf: BufId, t: &Tracer) -> u32 {
        t.read(pool.page_addr(buf, 0), 4, DataClass::Data);
        pool.get_u32(buf, 0)
    }

    /// Emulated address of attribute `attr` of the tuple in `slot`.
    pub fn attr_addr(&self, pool: &BufferPool, buf: BufId, slot: u32, attr: usize) -> u64 {
        pool.page_addr(
            buf,
            self.slot_off(slot) + TUPLE_HEADER + self.attr_offsets[attr],
        )
    }

    /// On-page width of attribute `attr`.
    pub fn attr_width(&self, attr: usize) -> u64 {
        self.def.columns[attr].ty.width() as u64
    }

    /// Decodes attribute `attr` without emitting references.
    pub fn attr_value(&self, pool: &BufferPool, buf: BufId, slot: u32, attr: usize) -> Datum {
        let off = (self.slot_off(slot) + TUPLE_HEADER + self.attr_offsets[attr]) as usize;
        match self.def.columns[attr].ty {
            ColType::Int => Datum::Int(pool.get_u64(buf, off) as i64),
            ColType::Dec => Datum::Dec(pool.get_u64(buf, off) as i64),
            ColType::Date => Datum::Date(Date::from_day_number(pool.get_u32(buf, off) as i32)),
            ColType::Str(w) => {
                let mut bytes = vec![0u8; w as usize];
                pool.get_bytes(buf, off, &mut bytes);
                // Space padding is ASCII, so trimming bytes before decoding
                // equals trimming the decoded text, and the buffer becomes
                // the string.
                let len = bytes.iter().rposition(|&b| b != b' ').map_or(0, |i| i + 1);
                bytes.truncate(len);
                Datum::Str(
                    String::from_utf8(bytes)
                        .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned()),
                )
            }
        }
    }

    /// Reads attribute `attr` for a predicate check: decodes the value and
    /// emits a [`DataClass::Data`] load at its address (string reads capped
    /// at 16 bytes — a comparison resolves within the first words).
    pub fn read_attr(
        &self,
        pool: &BufferPool,
        buf: BufId,
        slot: u32,
        attr: usize,
        t: &Tracer,
    ) -> Datum {
        let width = self.attr_width(attr).min(STRING_PROBE_BYTES);
        t.read(
            self.attr_addr(pool, buf, slot, attr),
            width,
            DataClass::Data,
        );
        self.attr_value(pool, buf, slot, attr)
    }

    /// Reads attribute `attr` with Postgres-style tuple deforming.
    ///
    /// Postgres95 caches the offsets of the first few fixed-width attributes
    /// but must *walk* the tuple — touching every intervening byte — to reach
    /// attributes beyond a variable-width column (`nocachegetattr`). This is
    /// the source of the strong intra-tuple spatial locality the paper
    /// measures: fetching one late attribute streams through the tuple
    /// prefix. `deformed_to` tracks how far this tuple has already been
    /// deformed, so later attributes of the same tuple emit only the
    /// incremental walk.
    pub fn read_attr_walking(
        &self,
        pool: &BufferPool,
        buf: BufId,
        slot: u32,
        attr: usize,
        deformed_to: &mut usize,
        t: &Tracer,
    ) -> Datum {
        if attr < CACHED_OFFSET_ATTRS || attr < *deformed_to {
            return self.read_attr(pool, buf, slot, attr, t);
        }
        let from = (*deformed_to).max(CACHED_OFFSET_ATTRS);
        let start = self.attr_offsets[from];
        let end = self.attr_offsets[attr] + self.attr_width(attr).min(STRING_PROBE_BYTES);
        t.read(
            self.attr_addr(pool, buf, slot, from),
            end - start,
            DataClass::Data,
        );
        *deformed_to = attr + 1;
        self.attr_value(pool, buf, slot, attr)
    }

    /// Appends a row *with tracing*: the insert's stores to the page (tuple
    /// header plus every attribute, copied from the private scratch buffer at
    /// `src_addr`) are emitted as [`DataClass::Data`] writes. Pins the target
    /// page through the buffer manager like any other access.
    pub fn append_traced(
        &mut self,
        pool: &mut BufferPool,
        row: &[Value],
        src_addr: u64,
        t: &Tracer,
    ) -> TupleId {
        let tid = self.append(pool, row);
        let buf = pool.pin(self.page(tid.block), t);
        let base = self.slot_off(tid.slot);
        // Tuple header (xmin/xmax/ctid) and the page's tuple count.
        t.write(pool.page_addr(buf, base), 16, DataClass::Data);
        t.write(pool.page_addr(buf, 0), 4, DataClass::Data);
        let mut src_off = 0;
        for attr in 0..self.def.columns.len() {
            let width = self.attr_width(attr);
            t.copy(
                src_addr + src_off,
                DataClass::PrivHeap,
                self.attr_addr(pool, buf, tid.slot, attr),
                DataClass::Data,
                width,
            );
            src_off += width;
        }
        pool.unpin(buf, t);
        tid
    }

    /// Marks the tuple dead (traced header write). The slot remains until a
    /// vacuum; index entries keep pointing at it and visibility checks hide
    /// it from scans.
    ///
    /// # Panics
    ///
    /// Panics if the tuple is already dead.
    pub fn tombstone(&mut self, pool: &mut BufferPool, buf: BufId, slot: u32, t: &Tracer) {
        let off = self.slot_off(slot) as usize;
        assert_eq!(pool.get_u32(buf, off), 0, "tuple already deleted");
        pool.put_u32(buf, off, FLAG_DEAD);
        t.write(pool.page_addr(buf, off as u64), 4, DataClass::Data);
        self.ndead += 1;
    }

    /// Whether the tuple is live, without tracing (for loads and tests).
    pub fn is_live(&self, pool: &BufferPool, buf: BufId, slot: u32) -> bool {
        pool.get_u32(buf, self.slot_off(slot) as usize) == 0
    }

    /// Visibility check as the executor performs it: reads the tuple header
    /// (one traced 4-byte [`DataClass::Data`] load, as Postgres reads xmin/
    /// xmax on every fetch) and reports whether the tuple is live.
    pub fn visible(&self, pool: &BufferPool, buf: BufId, slot: u32, t: &Tracer) -> bool {
        let off = self.slot_off(slot);
        t.read(pool.page_addr(buf, off), 4, DataClass::Data);
        self.is_live(pool, buf, slot)
    }

    fn slot_off(&self, slot: u32) -> u64 {
        PAGE_HEADER + slot as u64 * (TUPLE_HEADER + self.row_width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dss_shmem::AddressSpace;
    use dss_tpcd::table_def;
    use dss_trace::TraceStats;

    fn region_heap() -> (BufferPool, Heap) {
        let mut space = AddressSpace::new();
        let pool = BufferPool::new(&mut space, 64);
        let heap = Heap::create(3, table_def("region").unwrap().clone());
        (pool, heap)
    }

    #[test]
    fn append_and_read_roundtrip() {
        let (mut pool, mut heap) = region_heap();
        let tid = heap.append(
            &mut pool,
            &[
                Value::Int(0),
                Value::Str("AFRICA".into()),
                Value::Str("vast".into()),
            ],
        );
        assert_eq!(tid, TupleId::new(0, 0));
        let buf = pool.lookup(heap.page(0)).unwrap();
        assert_eq!(heap.attr_value(&pool, buf, 0, 0), Datum::Int(0));
        assert_eq!(
            heap.attr_value(&pool, buf, 0, 1),
            Datum::Str("AFRICA".into())
        );
        assert_eq!(heap.attr_value(&pool, buf, 0, 2), Datum::Str("vast".into()));
        assert_eq!(heap.ntuples(), 1);
    }

    #[test]
    fn rows_cross_page_boundaries() {
        let (mut pool, mut heap) = region_heap();
        let per_page = heap.tuples_per_page() as u64;
        for i in 0..per_page + 3 {
            heap.append(
                &mut pool,
                &[
                    Value::Int(i as i64),
                    Value::Str(format!("R{i}")),
                    Value::Str("c".into()),
                ],
            );
        }
        assert_eq!(heap.npages(), 2);
        let buf0 = pool.lookup(heap.page(0)).unwrap();
        let buf1 = pool.lookup(heap.page(1)).unwrap();
        let t = Tracer::disabled();
        assert_eq!(heap.tuples_on_page(&pool, buf0, &t), per_page as u32);
        assert_eq!(heap.tuples_on_page(&pool, buf1, &t), 3);
        assert_eq!(
            heap.attr_value(&pool, buf1, 0, 0),
            Datum::Int(per_page as i64)
        );
    }

    #[test]
    fn lineitem_rows_per_page_matches_paper_footprint() {
        let heap = Heap::create(1, table_def("lineitem").unwrap().clone());
        // 140-byte payload + 40-byte header => 45 tuples per 8 KB page, so
        // ~60k lineitems occupy ~1340 pages ≈ 11 MB, the paper's "about 12
        // Mbytes" for the scaled lineitem table.
        assert_eq!(heap.row_width(), 140);
        assert_eq!(heap.tuples_per_page(), 45);
    }

    #[test]
    fn read_attr_emits_data_refs_at_the_right_address() {
        let (mut pool, mut heap) = region_heap();
        heap.append(
            &mut pool,
            &[
                Value::Int(4),
                Value::Str("ASIA".into()),
                Value::Str("c".into()),
            ],
        );
        let buf = pool.lookup(heap.page(0)).unwrap();
        let t = Tracer::new(0);
        let v = heap.read_attr(&pool, buf, 0, 0, &t);
        assert_eq!(v, Datum::Int(4));
        let trace = t.take();
        let stats = TraceStats::from_trace(&trace);
        assert_eq!(stats.reads(DataClass::Data), 1);
        match trace.events[0].kind() {
            dss_trace::EventKind::Ref(r) => {
                assert_eq!(r.addr, heap.attr_addr(&pool, buf, 0, 0));
                assert_eq!(r.size, 8);
            }
            other => panic!("expected ref, got {other:?}"),
        }
    }

    #[test]
    fn string_probe_reads_are_capped() {
        let (mut pool, mut heap) = region_heap();
        heap.append(
            &mut pool,
            &[
                Value::Int(0),
                Value::Str("AMERICA".into()),
                Value::Str("c".into()),
            ],
        );
        let buf = pool.lookup(heap.page(0)).unwrap();
        let t = Tracer::new(0);
        // r_name is CHAR(25) but a probe reads at most 16 bytes (2 refs).
        heap.read_attr(&pool, buf, 0, 1, &t);
        assert_eq!(t.take().events.len(), 2);
    }

    #[test]
    fn strings_are_space_padded_and_trimmed() {
        let (mut pool, mut heap) = region_heap();
        heap.append(
            &mut pool,
            &[
                Value::Int(0),
                Value::Str("EUROPE".into()),
                Value::Str("x".into()),
            ],
        );
        let buf = pool.lookup(heap.page(0)).unwrap();
        // On page, padded to 25 chars; decoded, trimmed back.
        assert_eq!(
            heap.attr_value(&pool, buf, 0, 1),
            Datum::Str("EUROPE".into())
        );
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn wrong_arity_rejected() {
        let (mut pool, mut heap) = region_heap();
        heap.append(&mut pool, &[Value::Int(0)]);
    }
}
