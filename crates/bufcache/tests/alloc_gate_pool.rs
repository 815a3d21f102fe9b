//! Pool memory follows allocated pages: `BufferPool::new` allocates buffer
//! descriptors and lookup buckets but no block, each `alloc_page` allocates
//! the one 8 KB block of the buffer it hands out, and an accessor still
//! panics rather than read past the end of its own block.
//!
//! Alone in its test binary, with one test: the counting allocator's
//! counters are process-global, and another test running beside the gates
//! would pollute them.

#[path = "../../check/src/alloc.rs"]
mod alloc;

use std::panic::{catch_unwind, AssertUnwindSafe};

use alloc::{AllocGate, CountingAlloc};
use dss_bufcache::{BufferPool, PageId, BLOCK_SIZE};
use dss_shmem::AddressSpace;

#[global_allocator]
static COUNTING_ALLOC: CountingAlloc = CountingAlloc;

/// Buffers in the measured pool.
const NBUFFERS: u32 = 4_096;
/// Pages the test allocates: half the pool.
const PAGES: u32 = NBUFFERS / 2;

#[test]
fn pool_memory_follows_allocated_pages() {
    let mut space = AddressSpace::new();
    let gate = AllocGate::begin();
    let mut pool = BufferPool::new(&mut space, NBUFFERS);
    let new = gate.end();
    // Descriptors and buckets: about 0.25 MB. All 4 096 blocks would be 32 MiB.
    assert!(
        new.bytes_allocated < 1 << 20,
        "BufferPool::new allocated {new:?} for {NBUFFERS} buffers"
    );

    // Each page brings its block. The bucket chains, the lookup map and the
    // block list grow besides, by about 1 % of the blocks' bytes.
    let mut bookkeeping = 0;
    for page in 0..PAGES {
        let gate = AllocGate::begin();
        pool.alloc_page(1);
        let one = gate.end();
        assert!(
            one.bytes_allocated >= BLOCK_SIZE,
            "alloc_page #{page} allocated {one:?}, not its block"
        );
        bookkeeping += one.bytes_allocated - BLOCK_SIZE;
    }
    assert!(
        bookkeeping < u64::from(PAGES) * BLOCK_SIZE / 32,
        "{PAGES} pages allocated {bookkeeping} bytes besides their blocks"
    );

    // Buffers 0 and 1 hold adjacent pages, and a read that runs off the end
    // of buffer 0's block still panics instead of reading buffer 1's.
    let first = pool.lookup(PageId::new(1, 0)).expect("page 0 is resident");
    let off = BLOCK_SIZE as usize - 4;
    pool.put_u32(first, off, 7);
    assert_eq!(pool.get_u32(first, off), 7);
    let past_end = catch_unwind(AssertUnwindSafe(|| {
        let mut out = [0u8; 8];
        pool.get_bytes(first, off, &mut out);
    }));
    assert!(past_end.is_err(), "get_bytes read past the end of a block");
}
