//! The b-tree proper: build, insert, and traced range scans.

use dss_bufcache::{BufId, BufferPool, PageId};
use dss_trace::{CostModel, DataClass, Tracer};

use crate::node::{
    entry_key, entry_off, entry_payload, init_node, insert_entry_at, kind, nkeys, right, set_nkeys,
    set_right, write_entry, NodeKind, CAPACITY, NO_BLOCK,
};
use crate::{Key, TupleId};

/// Bulk-build fill factor: nodes are filled to 70 %, like Postgres.
const FILL: usize = CAPACITY * 7 / 10;

/// A B+-tree index over heap tuples, stored in buffer pages.
///
/// Every traced operation emits [`DataClass::Index`] references against the
/// page addresses of the nodes it touches, plus the buffer-manager metadata
/// traffic of pinning those pages — reproducing the paper's observation that
/// Index queries combine index misses (good spatial locality, reused top
/// levels) with lock/buffer metadata misses.
///
/// # Example
///
/// ```
/// use dss_btree::{BTree, Key, TupleId};
/// use dss_bufcache::BufferPool;
/// use dss_shmem::AddressSpace;
/// use dss_trace::Tracer;
///
/// let mut space = AddressSpace::new();
/// let mut pool = BufferPool::new(&mut space, 64);
/// let t = Tracer::disabled();
///
/// let entries: Vec<(Key, TupleId)> =
///     (0..1000).map(|i| (Key::int(i), TupleId::new(0, i as u32))).collect();
/// let tree = BTree::bulk_build(&mut pool, 42, &entries);
///
/// let mut cursor = tree.scan_range(&mut pool, &t, Key::int(10), Key::int(12));
/// let mut hits = Vec::new();
/// while let Some((key, tid)) = cursor.next(&mut pool, &t) {
///     hits.push((key, tid));
/// }
/// assert_eq!(hits.len(), 3);
/// ```
#[derive(Clone, Debug)]
pub struct BTree {
    rel: u32,
    root: u32,
    height: u32,
    len: u64,
}

impl BTree {
    /// Creates an empty tree whose pages belong to relation `rel`.
    pub fn create(pool: &mut BufferPool, rel: u32) -> Self {
        let page = pool.alloc_page(rel);
        let buf = pool.lookup(page).expect("just allocated");
        init_node(pool, buf, NodeKind::Leaf, 0);
        BTree {
            rel,
            root: page.block,
            height: 1,
            len: 0,
        }
    }

    /// Bulk-builds a tree from entries sorted by key (duplicates allowed),
    /// filling nodes to 70 %. Emits no references: the paper builds the
    /// database before tracing starts.
    ///
    /// # Panics
    ///
    /// Panics if the entries are not sorted by key.
    pub fn bulk_build(pool: &mut BufferPool, rel: u32, entries: &[(Key, TupleId)]) -> Self {
        if entries.is_empty() {
            return BTree::create(pool, rel);
        }
        for w in entries.windows(2) {
            assert!(w[0].0 <= w[1].0, "bulk_build requires sorted entries");
        }
        // Build the leaf level.
        let mut level: Vec<(Key, u32)> = Vec::new();
        let mut prev: Option<BufId> = None;
        for chunk in entries.chunks(FILL) {
            let page = pool.alloc_page(rel);
            let buf = pool.lookup(page).expect("just allocated");
            init_node(pool, buf, NodeKind::Leaf, 0);
            for (i, (k, tid)) in chunk.iter().enumerate() {
                write_entry(pool, buf, i, *k, tid.pack());
            }
            set_nkeys(pool, buf, chunk.len());
            if let Some(p) = prev {
                set_right(pool, p, page.block);
            }
            prev = Some(buf);
            level.push((chunk[0].0, page.block));
        }
        // Build internal levels until a single root remains.
        let mut height = 1;
        while level.len() > 1 {
            height += 1;
            let mut next_level = Vec::new();
            for chunk in level.chunks(FILL) {
                let page = pool.alloc_page(rel);
                let buf = pool.lookup(page).expect("just allocated");
                init_node(pool, buf, NodeKind::Internal, height - 1);
                for (i, (k, child)) in chunk.iter().enumerate() {
                    write_entry(pool, buf, i, *k, *child as u64);
                }
                set_nkeys(pool, buf, chunk.len());
                next_level.push((chunk[0].0, page.block));
            }
            level = next_level;
        }
        BTree {
            rel,
            root: level[0].1,
            height,
            len: entries.len() as u64,
        }
    }

    /// The relation id owning this tree's pages.
    pub fn rel(&self) -> u32 {
        self.rel
    }

    /// Number of entries.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the tree has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of levels (1 for a lone leaf).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Inserts an entry, splitting nodes as needed. Emits traced index
    /// references when `t` is enabled.
    pub fn insert(&mut self, pool: &mut BufferPool, t: &Tracer, key: Key, tid: TupleId) {
        let cost = CostModel::default();
        // Descend, remembering the path of (block, child index).
        let mut path: Vec<(u32, usize)> = Vec::new();
        let mut block = self.root;
        loop {
            let buf = pool.pin(PageId::new(self.rel, block), t);
            self.trace_header(pool, buf, t);
            match kind(pool, buf) {
                NodeKind::Leaf => {
                    let idx = self.search_node(pool, buf, key, t, &cost);
                    if nkeys(pool, buf) < CAPACITY {
                        insert_entry_at(pool, buf, idx, key, tid.pack());
                        let addr = pool.page_addr(buf, entry_off(idx) as u64);
                        t.write(addr, 24, DataClass::Index);
                        pool.unpin(buf, t);
                    } else {
                        pool.unpin(buf, t);
                        self.split_and_insert(pool, t, &path, block, key, tid.pack(), true);
                    }
                    self.len += 1;
                    return;
                }
                NodeKind::Internal => {
                    let idx = self.child_index(pool, buf, key, t, &cost);
                    let child = entry_payload(pool, buf, idx) as u32;
                    let addr = pool.page_addr(buf, entry_off(idx) as u64 + 16);
                    t.read(addr, 8, DataClass::Index);
                    pool.unpin(buf, t);
                    path.push((block, idx));
                    block = child;
                }
            }
        }
    }

    /// Opens a cursor positioned at the first entry with `key >= lo`; the
    /// cursor yields entries until `key > hi`.
    ///
    /// The descent pins one node per level (through the buffer manager, with
    /// its metadata traffic) and binary-searches each, emitting an
    /// [`DataClass::Index`] read per probed key — the repeated top-level
    /// probes are the index temporal locality the paper measures.
    pub fn scan_range(&self, pool: &mut BufferPool, t: &Tracer, lo: Key, hi: Key) -> Cursor {
        let cost = CostModel::default();
        let mut block = self.root;
        loop {
            let buf = pool.pin(PageId::new(self.rel, block), t);
            self.trace_header(pool, buf, t);
            match kind(pool, buf) {
                NodeKind::Leaf => {
                    let idx = self.search_node(pool, buf, lo, t, &cost);
                    return Cursor {
                        rel: self.rel,
                        hi,
                        block,
                        buf: Some(buf),
                        idx,
                    };
                }
                NodeKind::Internal => {
                    let idx = self.child_index(pool, buf, lo, t, &cost);
                    let child = entry_payload(pool, buf, idx) as u32;
                    let addr = pool.page_addr(buf, entry_off(idx) as u64 + 16);
                    t.read(addr, 8, DataClass::Index);
                    pool.unpin(buf, t);
                    block = child;
                }
            }
        }
    }

    /// Collects all entries in `[lo, hi]` (convenience over [`BTree::scan_range`]).
    pub fn lookup_range(
        &self,
        pool: &mut BufferPool,
        t: &Tracer,
        lo: Key,
        hi: Key,
    ) -> Vec<(Key, TupleId)> {
        let mut cursor = self.scan_range(pool, t, lo, hi);
        let mut out = Vec::new();
        while let Some(hit) = cursor.next(pool, t) {
            out.push(hit);
        }
        out
    }

    fn trace_header(&self, pool: &BufferPool, buf: BufId, t: &Tracer) {
        let addr = pool.page_addr(buf, 0);
        t.read(addr, 8, DataClass::Index);
    }

    /// First index in a leaf whose key is `>= target`.
    fn search_node(
        &self,
        pool: &BufferPool,
        buf: BufId,
        target: Key,
        t: &Tracer,
        cost: &CostModel,
    ) -> usize {
        let n = nkeys(pool, buf);
        let (mut lo, mut hi) = (0usize, n);
        while lo < hi {
            let mid = (lo + hi) / 2;
            t.busy(cost.btree_step);
            let addr = pool.page_addr(buf, entry_off(mid) as u64);
            t.read(addr, 16, DataClass::Index);
            if entry_key(pool, buf, mid) < target {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Child slot to descend into: the last entry with key `<= target`
    /// (clamped to 0).
    fn child_index(
        &self,
        pool: &BufferPool,
        buf: BufId,
        target: Key,
        t: &Tracer,
        cost: &CostModel,
    ) -> usize {
        let first_ge = self.search_node(pool, buf, target, t, cost);
        let n = nkeys(pool, buf);
        if first_ge < n && entry_key(pool, buf, first_ge) == target {
            first_ge
        } else {
            first_ge.saturating_sub(1).min(n.saturating_sub(1))
        }
    }

    /// Splits the full node `block` (found via `path`) and inserts
    /// `(key, payload)` into the appropriate half, propagating upward.
    #[allow(
        clippy::too_many_arguments,
        reason = "one operation's state, not a reusable bundle"
    )]
    fn split_and_insert(
        &mut self,
        pool: &mut BufferPool,
        t: &Tracer,
        path: &[(u32, usize)],
        block: u32,
        key: Key,
        payload: u64,
        leaf: bool,
    ) {
        let buf = pool.pin(PageId::new(self.rel, block), t);
        let n = nkeys(pool, buf);
        let mid = n / 2;
        let new_page = pool.alloc_page(self.rel);
        let new_buf = pool.lookup(new_page).expect("just allocated");
        init_node(
            pool,
            new_buf,
            if leaf {
                NodeKind::Leaf
            } else {
                NodeKind::Internal
            },
            0,
        );
        // Move the upper half.
        for i in mid..n {
            let k = entry_key(pool, buf, i);
            let p = entry_payload(pool, buf, i);
            write_entry(pool, new_buf, i - mid, k, p);
        }
        set_nkeys(pool, new_buf, n - mid);
        set_nkeys(pool, buf, mid);
        if leaf {
            set_right(pool, new_buf, right(pool, buf));
            set_right(pool, buf, new_page.block);
        }
        let sep = entry_key(pool, new_buf, 0);
        // Insert the pending entry into the proper half.
        let (target_buf, target_block) = if key < sep {
            (buf, block)
        } else {
            (new_buf, new_page.block)
        };
        let idx = self.search_node(pool, target_buf, key, t, &CostModel::default());
        insert_entry_at(pool, target_buf, idx, key, payload);
        let addr = pool.page_addr(target_buf, entry_off(idx) as u64);
        t.write(addr, 24, DataClass::Index);
        let _ = target_block;
        pool.unpin(buf, t);
        // Propagate the separator into the parent.
        match path.split_last() {
            Some(((parent_block, _), rest)) => {
                let parent_buf = pool.pin(PageId::new(self.rel, *parent_block), t);
                if nkeys(pool, parent_buf) < CAPACITY {
                    let pidx = self.search_node(pool, parent_buf, sep, t, &CostModel::default());
                    insert_entry_at(pool, parent_buf, pidx, sep, new_page.block as u64);
                    pool.unpin(parent_buf, t);
                } else {
                    pool.unpin(parent_buf, t);
                    self.split_and_insert(
                        pool,
                        t,
                        rest,
                        *parent_block,
                        sep,
                        new_page.block as u64,
                        false,
                    );
                }
            }
            None => {
                // Splitting the root: grow the tree.
                let root_page = pool.alloc_page(self.rel);
                let root_buf = pool.lookup(root_page).expect("just allocated");
                init_node(pool, root_buf, NodeKind::Internal, self.height);
                let old_first = {
                    let old_buf = pool.pin(PageId::new(self.rel, block), t);
                    let k = entry_key(pool, old_buf, 0);
                    pool.unpin(old_buf, t);
                    k
                };
                write_entry(pool, root_buf, 0, old_first, block as u64);
                write_entry(pool, root_buf, 1, sep, new_page.block as u64);
                set_nkeys(pool, root_buf, 2);
                self.root = root_page.block;
                self.height += 1;
            }
        }
    }
}

/// A positioned range-scan cursor.
///
/// Keeps the current leaf pinned between calls (as Postgres does) and moves
/// through right-sibling links; reaching the end — or [`Cursor::close`] —
/// unpins it.
#[derive(Debug)]
pub struct Cursor {
    rel: u32,
    hi: Key,
    block: u32,
    buf: Option<BufId>,
    idx: usize,
}

impl Cursor {
    /// Advances to the next entry within the scan bounds.
    pub fn next(&mut self, pool: &mut BufferPool, t: &Tracer) -> Option<(Key, TupleId)> {
        loop {
            let buf = self.buf?;
            if self.idx >= nkeys(pool, buf) {
                // Advance to the right sibling.
                let next = right(pool, buf);
                let addr = pool.page_addr(buf, 8);
                t.read(addr, 4, DataClass::Index);
                pool.unpin(buf, t);
                if next == NO_BLOCK {
                    self.buf = None;
                    return None;
                }
                let nbuf = pool.pin(PageId::new(self.rel, next), t);
                t.read(pool.page_addr(nbuf, 0), 8, DataClass::Index);
                self.block = next;
                self.buf = Some(nbuf);
                self.idx = 0;
                continue;
            }
            let addr = pool.page_addr(buf, entry_off(self.idx) as u64);
            t.read(addr, 24, DataClass::Index);
            let key = entry_key(pool, buf, self.idx);
            if key > self.hi {
                pool.unpin(buf, t);
                self.buf = None;
                return None;
            }
            let tid = TupleId::unpack(entry_payload(pool, buf, self.idx));
            self.idx += 1;
            return Some((key, tid));
        }
    }

    /// Releases the cursor's pin early; safe to call repeatedly.
    pub fn close(&mut self, pool: &mut BufferPool, t: &Tracer) {
        if let Some(buf) = self.buf.take() {
            pool.unpin(buf, t);
        }
    }

    /// Whether the cursor has been exhausted or closed.
    pub fn is_closed(&self) -> bool {
        self.buf.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dss_shmem::AddressSpace;
    use dss_trace::TraceStats;

    fn setup(nbuffers: u32) -> (BufferPool, Tracer) {
        let mut space = AddressSpace::new();
        (BufferPool::new(&mut space, nbuffers), Tracer::disabled())
    }

    fn collect(tree: &BTree, pool: &mut BufferPool, lo: Key, hi: Key) -> Vec<(Key, TupleId)> {
        tree.lookup_range(pool, &Tracer::disabled(), lo, hi)
    }

    #[test]
    fn empty_tree_scans_empty() {
        let (mut pool, _t) = setup(8);
        let tree = BTree::create(&mut pool, 1);
        assert!(tree.is_empty());
        assert_eq!(collect(&tree, &mut pool, Key::MIN, Key::MAX), vec![]);
    }

    #[test]
    fn bulk_build_finds_every_key() {
        let (mut pool, _t) = setup(64);
        let entries: Vec<(Key, TupleId)> = (0..5000)
            .map(|i| {
                (
                    Key::int(i),
                    TupleId::new((i / 100) as u32, (i % 100) as u32),
                )
            })
            .collect();
        let tree = BTree::bulk_build(&mut pool, 1, &entries);
        assert_eq!(tree.len(), 5000);
        assert!(tree.height() >= 2);
        for probe in [0i64, 1, 499, 2500, 4999] {
            let hits = collect(&tree, &mut pool, Key::int(probe), Key::int(probe));
            assert_eq!(hits.len(), 1, "probe {probe}");
            assert_eq!(
                hits[0].1,
                TupleId::new((probe / 100) as u32, (probe % 100) as u32)
            );
        }
        assert!(collect(&tree, &mut pool, Key::int(5000), Key::int(9000)).is_empty());
    }

    #[test]
    fn range_scan_is_sorted_and_complete() {
        let (mut pool, _t) = setup(64);
        let entries: Vec<(Key, TupleId)> = (0..3000)
            .map(|i| (Key::int(i * 2), TupleId::new(0, i as u32)))
            .collect();
        let tree = BTree::bulk_build(&mut pool, 1, &entries);
        let hits = collect(&tree, &mut pool, Key::int(100), Key::int(200));
        assert_eq!(hits.len(), 51); // 100,102..200
        assert!(hits.windows(2).all(|w| w[0].0 < w[1].0));
        // Bounds that fall between keys.
        let hits = collect(&tree, &mut pool, Key::int(99), Key::int(101));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, Key::int(100));
    }

    #[test]
    fn duplicates_are_all_returned() {
        let (mut pool, _t) = setup(64);
        let mut entries = Vec::new();
        for i in 0..100i64 {
            for dup in 0..20u32 {
                entries.push((Key::int(i), TupleId::new(i as u32, dup)));
            }
        }
        let tree = BTree::bulk_build(&mut pool, 1, &entries);
        let hits = collect(&tree, &mut pool, Key::int(42), Key::int(42));
        assert_eq!(hits.len(), 20);
        assert!(hits.iter().all(|(k, _)| *k == Key::int(42)));
    }

    #[test]
    fn insert_matches_bulk_build() {
        let (mut pool, t) = setup(128);
        let entries: Vec<(Key, TupleId)> = (0..2000)
            .map(|i| (Key::int((i * 37) % 2000), TupleId::new(0, i as u32)))
            .collect();
        let mut sorted = entries.clone();
        sorted.sort();
        let bulk = BTree::bulk_build(&mut pool, 1, &sorted);
        let mut incr = BTree::create(&mut pool, 2);
        for (k, tid) in &entries {
            incr.insert(&mut pool, &t, *k, *tid);
        }
        assert_eq!(incr.len(), bulk.len());
        let a = collect(&bulk, &mut pool, Key::MIN, Key::MAX);
        let mut b = collect(&incr, &mut pool, Key::MIN, Key::MAX);
        // Duplicate keys may order differently by tid; normalize.
        b.sort();
        let mut a2 = a.clone();
        a2.sort();
        assert_eq!(a2, b);
    }

    #[test]
    fn scan_emits_index_class_refs() {
        let (mut pool, _) = setup(64);
        let entries: Vec<(Key, TupleId)> = (0..5000)
            .map(|i| (Key::int(i), TupleId::new(0, i as u32)))
            .collect();
        let tree = BTree::bulk_build(&mut pool, 1, &entries);
        let t = Tracer::new(0);
        let hits = tree.lookup_range(&mut pool, &t, Key::int(1000), Key::int(1100));
        assert_eq!(hits.len(), 101);
        let stats = TraceStats::from_trace(&t.take());
        assert!(stats.reads(DataClass::Index) > 101, "probes + entries");
        assert_eq!(
            stats.writes(DataClass::Index),
            0,
            "scans never write the index"
        );
        // Pinning traffic flows through the buffer manager.
        assert!(stats.reads(DataClass::BufDesc) >= tree.height() as u64);
        assert!(stats.lock_acquires >= tree.height() as u64);
    }

    #[test]
    fn cursor_close_is_idempotent_and_unpins() {
        let (mut pool, t) = setup(64);
        let entries: Vec<(Key, TupleId)> = (0..100)
            .map(|i| (Key::int(i), TupleId::new(0, i as u32)))
            .collect();
        let tree = BTree::bulk_build(&mut pool, 1, &entries);
        let mut cursor = tree.scan_range(&mut pool, &t, Key::int(0), Key::int(99));
        assert!(cursor.next(&mut pool, &t).is_some());
        cursor.close(&mut pool, &t);
        assert!(cursor.is_closed());
        cursor.close(&mut pool, &t);
        assert_eq!(cursor.next(&mut pool, &t), None);
    }

    #[test]
    fn exhausted_cursor_leaves_no_pins() {
        let (mut pool, t) = setup(64);
        let entries: Vec<(Key, TupleId)> = (0..1000)
            .map(|i| (Key::int(i), TupleId::new(0, i as u32)))
            .collect();
        let tree = BTree::bulk_build(&mut pool, 1, &entries);
        let mut cursor = tree.scan_range(&mut pool, &t, Key::MIN, Key::MAX);
        let mut n = 0;
        while cursor.next(&mut pool, &t).is_some() {
            n += 1;
        }
        assert_eq!(n, 1000);
        // All pages unpinned: pin counts are zero everywhere.
        for block in 0..pool.rel_len(1) {
            let buf = pool.lookup(PageId::new(1, block)).unwrap();
            assert_eq!(pool.refcount(buf), 0, "block {block} still pinned");
        }
    }

    #[test]
    fn string_group_scan() {
        let (mut pool, t) = setup(64);
        let segs = [
            "AUTOMOBILE",
            "BUILDING",
            "FURNITURE",
            "HOUSEHOLD",
            "MACHINERY",
        ];
        let mut entries: Vec<(Key, TupleId)> = Vec::new();
        for i in 0..500u32 {
            let seg = segs[i as usize % 5];
            entries.push((Key::str8_int(seg, i as i64), TupleId::new(0, i)));
        }
        entries.sort();
        let tree = BTree::bulk_build(&mut pool, 1, &entries);
        let probe = Key::str8("BUILDING");
        let hits = tree.lookup_range(&mut pool, &t, probe.min_in_group(), probe.max_in_group());
        assert_eq!(hits.len(), 100);
    }
}
