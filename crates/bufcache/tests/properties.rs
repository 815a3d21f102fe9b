//! Property tests: pin accounting and content integrity of the buffer pool.

use dss_bufcache::{BufferPool, PageId};
use dss_shmem::AddressSpace;
use dss_trace::Tracer;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Reference counts always equal pins minus unpins per buffer, for any
    /// interleaving across any number of pages.
    #[test]
    fn refcounts_match_a_counter(
        npages in 1u32..40,
        ops in proptest::collection::vec((any::<u32>(), any::<bool>()), 1..300),
    ) {
        let mut space = AddressSpace::new();
        let mut pool = BufferPool::new(&mut space, 64);
        let pages: Vec<PageId> = (0..npages).map(|_| pool.alloc_page(1)).collect();
        let t = Tracer::disabled();
        let mut counts = vec![0u32; npages as usize];
        for (raw, unpin) in ops {
            let i = (raw % npages) as usize;
            if unpin && counts[i] > 0 {
                let buf = pool.lookup(pages[i]).unwrap();
                pool.unpin(buf, &t);
                counts[i] -= 1;
            } else if !unpin {
                pool.pin(pages[i], &t);
                counts[i] += 1;
            }
        }
        for (i, page) in pages.iter().enumerate() {
            let buf = pool.lookup(*page).unwrap();
            prop_assert_eq!(pool.refcount(buf), counts[i], "page {}", i);
        }
    }

    /// Page contents written through the pool read back exactly, across
    /// many pages and offsets.
    #[test]
    fn contents_roundtrip(
        writes in proptest::collection::vec((0u32..16, 0usize..1000, any::<u64>()), 1..100),
    ) {
        let mut space = AddressSpace::new();
        let mut pool = BufferPool::new(&mut space, 32);
        let pages: Vec<PageId> = (0..16).map(|_| pool.alloc_page(7)).collect();
        let mut shadow = std::collections::HashMap::new();
        for (page, off8, value) in writes {
            let buf = pool.lookup(pages[page as usize]).unwrap();
            let off = off8 * 8;
            pool.put_u64(buf, off, value);
            shadow.insert((page, off), value);
        }
        #[expect(clippy::iter_over_hash_type, reason = "each entry is checked on its own")]
        for ((page, off), value) in shadow {
            let buf = pool.lookup(pages[page as usize]).unwrap();
            prop_assert_eq!(pool.get_u64(buf, off), value);
        }
    }

    /// Every page's emulated address is block-aligned, unique, and
    /// classified as database data.
    #[test]
    fn page_addresses_unique_and_classified(npages in 1u32..60) {
        let mut space = AddressSpace::new();
        let mut pool = BufferPool::new(&mut space, 64);
        let mut seen = std::collections::HashSet::new();
        for rel in 1..=2u32 {
            for _ in 0..npages / 2 + 1 {
                let page = pool.alloc_page(rel);
                let buf = pool.lookup(page).unwrap();
                let addr = pool.page_addr(buf, 0);
                prop_assert_eq!(addr % dss_bufcache::BLOCK_SIZE, 0);
                prop_assert!(seen.insert(addr), "duplicate page address");
                prop_assert_eq!(space.classify(addr), Some(dss_trace::DataClass::Data));
            }
        }
    }
}
