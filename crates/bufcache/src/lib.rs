//! The Buffer Cache Module of the emulated Postgres95.
//!
//! Postgres95 keeps all application data and indices in 8-Kbyte shared
//! **buffer blocks**, managed by **buffer descriptors** (control structures),
//! found through the **buffer lookup hash**, and protected by the
//! **`BufMgrLock`** spinlock. The HPCA'97 paper attributes misses to exactly
//! these structures, so this crate models each of them with its own region of
//! the emulated shared segment and emits classified references for every
//! operation:
//!
//! * [`BufferPool::pin`] — acquires `BufMgrLock`, probes the lookup hash
//!   (bucket read + chain walk), touches the descriptor tag and bumps its
//!   reference count, then releases the lock. This is the metadata access
//!   pattern behind the paper's `BufDesc`/`BufLook`/metalock miss categories.
//! * Page *content* accessors ([`BufferPool::get_u64`] …) read and write real
//!   bytes but emit **no** references — content classification (database
//!   `Data` vs. `Index`) is only known to the heap and b-tree layers, which
//!   emit those references themselves against [`BufferPool::page_addr`].
//!
//! The database is memory-resident (the paper's setup), so the pool never
//! evicts and a pin never misses. Its capacity, `nbuffers`, is the hard
//! limit on allocated pages and sizes the emulated `buffer blocks` region,
//! but host memory follows use: a buffer's 8-Kbyte block is allocated, zeroed,
//! when [`BufferPool::alloc_page`] hands that buffer out, and a pool sized for
//! a database it never fills costs only its descriptors and lookup buckets.
//!
//! # Example
//!
//! ```
//! use dss_bufcache::{BufferPool, PageId, BLOCK_SIZE};
//! use dss_shmem::AddressSpace;
//! use dss_trace::Tracer;
//!
//! let mut space = AddressSpace::new();
//! let mut pool = BufferPool::new(&mut space, 64);
//! let tracer = Tracer::new(0);
//!
//! let page = pool.alloc_page(1);
//! let buf = pool.pin(page, &tracer);
//! pool.put_u64(buf, 0, 0xdead_beef);
//! assert_eq!(pool.get_u64(buf, 0), 0xdead_beef);
//! pool.unpin(buf, &tracer);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]
#![expect(clippy::expect_used, reason = "not yet converted to `Result` paths")]

use std::collections::HashMap;

use dss_shmem::AddressSpace;
use dss_trace::{CostModel, DataClass, LockClass, LockToken, Tracer};

/// Size of one buffer block (page), as in Postgres95.
pub const BLOCK_SIZE: u64 = 8192;

/// Modeled size of one buffer descriptor (one L2 line).
pub const DESC_SIZE: u64 = 64;

/// Modeled size of one lookup-hash chain entry (tag + pointer + next).
pub const HASH_ENTRY_SIZE: u64 = 24;

/// Byte offset of the tag within a descriptor.
const DESC_TAG_OFF: u64 = 0;
/// Byte offset of the reference count within a descriptor.
const DESC_REFCOUNT_OFF: u64 = 8;

/// Identifies a page: a relation id plus a block number within it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId {
    /// Owning relation.
    pub rel: u32,
    /// Block number within the relation (0-based).
    pub block: u32,
}

impl PageId {
    /// Creates a page id.
    pub fn new(rel: u32, block: u32) -> Self {
        PageId { rel, block }
    }
}

/// A pinned buffer handle (index into the pool).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BufId(u32);

impl BufId {
    /// The raw pool index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Clone, Debug)]
struct BufferDesc {
    tag: PageId,
    refcount: u32,
}

/// The shared buffer pool.
///
/// Holds real page bytes (so the engine computes real query results) plus the
/// emulated addresses of every modeled structure, and emits classified
/// references for all metadata traffic.
#[derive(Debug)]
pub struct BufferPool {
    nbuffers: u32,
    nbuckets: u64,
    blocks_base: u64,
    desc_base: u64,
    buckets_base: u64,
    entries_base: u64,
    lock: LockToken,
    cost: CostModel,
    /// Page bytes of the buffers handed out so far, one block per buffer in
    /// allocation order: `blocks.len() == next_free`.
    blocks: Vec<Box<[u8]>>,
    descs: Vec<BufferDesc>,
    /// Lookup-hash buckets: chain of buffer ids, walked in order on probe.
    buckets: Vec<Vec<u32>>,
    /// Fast mirror of the hash table for assertions and loading.
    map: HashMap<PageId, u32>,
    next_free: u32,
    /// Next block number per relation, for `alloc_page`.
    rel_next_block: HashMap<u32, u32>,
}

impl BufferPool {
    /// Creates a pool of `nbuffers` buffers, mapping its four shared regions
    /// (blocks, descriptors, hash buckets, hash entries) plus `BufMgrLock`
    /// into `space`. No block is allocated yet: each comes with the
    /// [`BufferPool::alloc_page`] that hands its buffer out.
    ///
    /// # Panics
    ///
    /// Panics if `nbuffers` is zero.
    pub fn new(space: &mut AddressSpace, nbuffers: u32) -> Self {
        assert!(nbuffers > 0, "pool must have at least one buffer");
        let nbuckets = (2 * nbuffers as u64).next_power_of_two();
        let lock_addr = space.map_region("BufMgrLock", DataClass::BufMgrLock, 64, 64);
        let desc_base = space.map_region(
            "buffer descriptors",
            DataClass::BufDesc,
            nbuffers as u64 * DESC_SIZE,
            64,
        );
        let buckets_base = space.map_region(
            "buffer lookup buckets",
            DataClass::BufLookup,
            nbuckets * 8,
            64,
        );
        let entries_base = space.map_region(
            "buffer lookup entries",
            DataClass::BufLookup,
            nbuffers as u64 * HASH_ENTRY_SIZE,
            64,
        );
        let blocks_base = space.map_region(
            "buffer blocks",
            DataClass::Data,
            nbuffers as u64 * BLOCK_SIZE,
            BLOCK_SIZE,
        );
        BufferPool {
            nbuffers,
            nbuckets,
            blocks_base,
            desc_base,
            buckets_base,
            entries_base,
            lock: LockToken::new(lock_addr, LockClass::BufMgr),
            cost: CostModel::default(),
            blocks: Vec::new(),
            descs: (0..nbuffers)
                .map(|_| BufferDesc {
                    tag: PageId::new(u32::MAX, u32::MAX),
                    refcount: 0,
                })
                .collect(),
            buckets: vec![Vec::new(); nbuckets as usize],
            map: HashMap::new(),
            next_free: 0,
            rel_next_block: HashMap::new(),
        }
    }

    /// Number of buffers in the pool.
    pub fn nbuffers(&self) -> u32 {
        self.nbuffers
    }

    /// Number of buffers currently holding a page.
    pub fn used_buffers(&self) -> u32 {
        self.next_free
    }

    /// Number of pages allocated to relation `rel`.
    pub fn rel_len(&self, rel: u32) -> u32 {
        self.rel_next_block.get(&rel).copied().unwrap_or(0)
    }

    /// The spinlock protecting this pool.
    pub fn lock_token(&self) -> LockToken {
        self.lock
    }

    /// Allocates the next page of relation `rel` in the next free buffer,
    /// with a zeroed block (used while loading the database; emits no
    /// references).
    ///
    /// # Panics
    ///
    /// Panics if the pool is full — the study's database is memory-resident,
    /// so the pool must be sized to hold it entirely.
    pub fn alloc_page(&mut self, rel: u32) -> PageId {
        assert!(
            self.next_free < self.nbuffers,
            "buffer pool exhausted: size it to hold the whole database"
        );
        let block = self.rel_next_block.entry(rel).or_insert(0);
        let page = PageId::new(rel, *block);
        *block += 1;
        let buf = self.next_free;
        self.next_free += 1;
        self.blocks
            .push(vec![0u8; BLOCK_SIZE as usize].into_boxed_slice());
        self.descs[buf as usize] = BufferDesc {
            tag: page,
            refcount: 0,
        };
        let bucket = self.bucket_of(page);
        self.buckets[bucket].push(buf);
        self.map.insert(page, buf);
        page
    }

    /// Pins `page`, emitting the Postgres95 metadata access pattern:
    /// `BufMgrLock` acquire, lookup-hash bucket read and chain walk,
    /// descriptor tag read and refcount bump, `BufMgrLock` release.
    ///
    /// # Panics
    ///
    /// Panics if the page was never allocated (the database is
    /// memory-resident, so a miss is a bug).
    pub fn pin(&mut self, page: PageId, t: &Tracer) -> BufId {
        t.lock_acquire(self.lock);
        t.busy(self.cost.buffer_call);
        let bucket = self.bucket_of(page);
        t.read(
            self.buckets_base + bucket as u64 * 8,
            8,
            DataClass::BufLookup,
        );
        let mut found = None;
        for &buf in &self.buckets[bucket] {
            // Read the chain entry's tag (and implicitly its next pointer).
            t.read(
                self.entries_base + buf as u64 * HASH_ENTRY_SIZE,
                16,
                DataClass::BufLookup,
            );
            if self.descs[buf as usize].tag == page {
                found = Some(buf);
                break;
            }
        }
        let buf = found.unwrap_or_else(|| panic!("page {page:?} not resident"));
        let desc_addr = self.desc_base + buf as u64 * DESC_SIZE;
        t.read(desc_addr + DESC_TAG_OFF, 8, DataClass::BufDesc);
        let desc = &mut self.descs[buf as usize];
        desc.refcount += 1;
        t.write(desc_addr + DESC_REFCOUNT_OFF, 8, DataClass::BufDesc);
        t.lock_release(self.lock);
        BufId(buf)
    }

    /// Unpins a buffer, dropping its reference count under `BufMgrLock`.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is not pinned.
    pub fn unpin(&mut self, buf: BufId, t: &Tracer) {
        let desc = &mut self.descs[buf.index()];
        assert!(desc.refcount > 0, "unpin of unpinned buffer {buf:?}");
        desc.refcount -= 1;
        t.lock_acquire(self.lock);
        t.busy(self.cost.buffer_call);
        let desc_addr = self.desc_base + buf.0 as u64 * DESC_SIZE;
        t.write(desc_addr + DESC_REFCOUNT_OFF, 8, DataClass::BufDesc);
        t.lock_release(self.lock);
    }

    /// Pin count of a buffer (for tests).
    pub fn refcount(&self, buf: BufId) -> u32 {
        self.descs[buf.index()].refcount
    }

    /// Looks up the buffer holding `page` without pinning or tracing.
    pub fn lookup(&self, page: PageId) -> Option<BufId> {
        self.map.get(&page).map(|&b| BufId(b))
    }

    /// Emulated address of byte `off` within the block held by `buf`.
    ///
    /// # Panics
    ///
    /// Panics if `off` is outside the block.
    pub fn page_addr(&self, buf: BufId, off: u64) -> u64 {
        assert!(off < BLOCK_SIZE, "offset {off} beyond block");
        self.blocks_base + buf.0 as u64 * BLOCK_SIZE + off
    }

    /// Reads a little-endian `u64` from a block (no references emitted).
    pub fn get_u64(&self, buf: BufId, off: usize) -> u64 {
        let b = &self.blocks[buf.index()][off..off + 8];
        u64::from_le_bytes(b.try_into().expect("8 bytes"))
    }

    /// Writes a little-endian `u64` to a block (no references emitted).
    pub fn put_u64(&mut self, buf: BufId, off: usize, v: u64) {
        self.blocks[buf.index()][off..off + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Reads a little-endian `u32` from a block (no references emitted).
    pub fn get_u32(&self, buf: BufId, off: usize) -> u32 {
        let b = &self.blocks[buf.index()][off..off + 4];
        u32::from_le_bytes(b.try_into().expect("4 bytes"))
    }

    /// Writes a little-endian `u32` to a block (no references emitted).
    pub fn put_u32(&mut self, buf: BufId, off: usize, v: u32) {
        self.blocks[buf.index()][off..off + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Copies bytes out of a block (no references emitted).
    pub fn get_bytes(&self, buf: BufId, off: usize, out: &mut [u8]) {
        out.copy_from_slice(&self.blocks[buf.index()][off..off + out.len()]);
    }

    /// Copies bytes into a block (no references emitted).
    pub fn put_bytes(&mut self, buf: BufId, off: usize, data: &[u8]) {
        self.blocks[buf.index()][off..off + data.len()].copy_from_slice(data);
    }

    /// Sets `len` bytes of a block to `byte` (no references emitted).
    pub fn fill_bytes(&mut self, buf: BufId, off: usize, len: usize, byte: u8) {
        self.blocks[buf.index()][off..off + len].fill(byte);
    }

    fn bucket_of(&self, page: PageId) -> usize {
        let h = (page.rel as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add((page.block as u64).wrapping_mul(0xc2b2_ae3d_27d4_eb4f));
        (h % self.nbuckets) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dss_trace::{EventKind, TraceStats};

    fn pool_with_space() -> (AddressSpace, BufferPool) {
        let mut space = AddressSpace::new();
        let pool = BufferPool::new(&mut space, 128);
        (space, pool)
    }

    #[test]
    fn alloc_assigns_sequential_blocks_per_rel() {
        let (_s, mut pool) = pool_with_space();
        assert_eq!(pool.alloc_page(1), PageId::new(1, 0));
        assert_eq!(pool.alloc_page(1), PageId::new(1, 1));
        assert_eq!(pool.alloc_page(2), PageId::new(2, 0));
        assert_eq!(pool.rel_len(1), 2);
        assert_eq!(pool.rel_len(2), 1);
        assert_eq!(pool.used_buffers(), 3);
    }

    #[test]
    fn pin_emits_lock_hash_and_desc_traffic() {
        let (_s, mut pool) = pool_with_space();
        let page = pool.alloc_page(1);
        let t = Tracer::new(0);
        let buf = pool.pin(page, &t);
        assert_eq!(pool.refcount(buf), 1);
        let trace = t.take();
        let stats = TraceStats::from_trace(&trace);
        assert_eq!(stats.lock_acquires, 1);
        assert_eq!(stats.lock_releases, 1);
        assert!(
            stats.reads(DataClass::BufLookup) >= 2,
            "bucket + chain entry"
        );
        assert_eq!(stats.reads(DataClass::BufDesc), 1);
        assert_eq!(stats.writes(DataClass::BufDesc), 1);
        // Lock ordering: acquire first, release last.
        assert!(matches!(
            trace.events.first().map(|e| e.kind()),
            Some(EventKind::LockAcquire(_))
        ));
        assert!(matches!(
            trace.events.last().map(|e| e.kind()),
            Some(EventKind::LockRelease(_))
        ));
    }

    #[test]
    fn unpin_restores_refcount() {
        let (_s, mut pool) = pool_with_space();
        let page = pool.alloc_page(1);
        let t = Tracer::disabled();
        let buf = pool.pin(page, &t);
        let buf2 = pool.pin(page, &t);
        assert_eq!(buf, buf2);
        assert_eq!(pool.refcount(buf), 2);
        pool.unpin(buf, &t);
        pool.unpin(buf, &t);
        assert_eq!(pool.refcount(buf), 0);
    }

    #[test]
    #[should_panic(expected = "not resident")]
    fn pin_of_unallocated_page_panics() {
        let (_s, mut pool) = pool_with_space();
        pool.pin(PageId::new(9, 9), &Tracer::disabled());
    }

    #[test]
    #[should_panic(expected = "unpin of unpinned")]
    fn double_unpin_panics() {
        let (_s, mut pool) = pool_with_space();
        let page = pool.alloc_page(1);
        let t = Tracer::disabled();
        let buf = pool.pin(page, &t);
        pool.unpin(buf, &t);
        pool.unpin(buf, &t);
    }

    #[test]
    fn content_roundtrips() {
        let (_s, mut pool) = pool_with_space();
        let page = pool.alloc_page(1);
        let buf = pool.lookup(page).unwrap();
        pool.put_u64(buf, 100, 0x0123_4567_89ab_cdef);
        pool.put_u32(buf, 200, 42);
        pool.put_bytes(buf, 300, b"hello");
        assert_eq!(pool.get_u64(buf, 100), 0x0123_4567_89ab_cdef);
        assert_eq!(pool.get_u32(buf, 200), 42);
        let mut out = [0u8; 5];
        pool.get_bytes(buf, 300, &mut out);
        assert_eq!(&out, b"hello");
    }

    #[test]
    fn page_addresses_are_disjoint_per_buffer() {
        let (_s, mut pool) = pool_with_space();
        let p1 = pool.alloc_page(1);
        let p2 = pool.alloc_page(1);
        let b1 = pool.lookup(p1).unwrap();
        let b2 = pool.lookup(p2).unwrap();
        let a1 = pool.page_addr(b1, 0);
        let a2 = pool.page_addr(b2, 0);
        assert_eq!(a2 - a1, BLOCK_SIZE);
        assert_eq!(a1 % BLOCK_SIZE, 0, "blocks are page aligned");
    }

    #[test]
    fn addresses_classify_back_to_their_regions() {
        let mut space = AddressSpace::new();
        let mut pool = BufferPool::new(&mut space, 16);
        let page = pool.alloc_page(1);
        let buf = pool.lookup(page).unwrap();
        assert_eq!(
            space.classify(pool.page_addr(buf, 0)),
            Some(DataClass::Data)
        );
        assert_eq!(
            space.classify(pool.lock_token().addr),
            Some(DataClass::BufMgrLock)
        );
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn overflow_panics() {
        let mut space = AddressSpace::new();
        let mut pool = BufferPool::new(&mut space, 2);
        pool.alloc_page(1);
        pool.alloc_page(1);
        pool.alloc_page(1);
    }

    #[test]
    fn chain_walk_length_reflects_collisions() {
        // With many pages, at least some buckets chain; the pin of a page at
        // chain position k must read k+1 entries.
        let (_s, mut pool) = pool_with_space();
        let pages: Vec<PageId> = (0..100).map(|_| pool.alloc_page(1)).collect();
        let mut max_entry_reads = 0;
        for page in pages {
            let t = Tracer::new(0);
            let buf = pool.pin(page, &t);
            pool.unpin(buf, &Tracer::disabled());
            let stats = TraceStats::from_trace(&t.take());
            // Each chain entry read is 16 bytes => two 8-byte refs.
            let entry_reads = stats.reads(DataClass::BufLookup).saturating_sub(1) / 2;
            max_entry_reads = max_entry_reads.max(entry_reads);
        }
        assert!(max_entry_reads >= 1);
    }
}
