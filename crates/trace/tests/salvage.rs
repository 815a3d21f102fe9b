//! Property tests for crash salvage of chunked block streams: a block file
//! truncated at *any* byte offset is either salvaged down to the last
//! checksum-valid block ([`dss_trace::salvage_scan`]) or rejected with a
//! structured [`TraceError`] — never a panic, a hang, or a silent short
//! read. The salvaged prefix must also be completable: appending the
//! regenerated remainder through [`BlockWriter::resume`] reproduces the
//! uninterrupted stream byte for byte.

use proptest::prelude::*;

use dss_trace::{
    read_trace_blocks, salvage_scan, write_trace_blocks, BlockWriter, DataClass, LockClass,
    LockToken, Tracer,
};

/// Byte length of the stream header (magic, proc id, header checksum).
const HEADER: usize = 24;

/// Builds a deterministic trace of `nevents` events mixing every kind.
fn sample_trace(nevents: usize) -> dss_trace::Trace {
    let t = Tracer::new(2);
    for i in 0..nevents {
        match i % 4 {
            0 => t.read(0x1000 + i as u64 * 8, 8, DataClass::Data),
            1 => t.write(0x9000 + i as u64 * 8, 8, DataClass::PrivHeap),
            2 => t.lock_acquire(LockToken::new(0x40, LockClass::LockMgr)),
            _ => t.lock_release(LockToken::new(0x40, LockClass::LockMgr)),
        }
    }
    t.take()
}

/// Byte offset after each block, with the cumulative event count — the only
/// prefixes a salvage may stop at.
fn block_boundaries(nevents: usize, block_events: usize) -> Vec<(usize, u64)> {
    let mut out = Vec::new();
    let mut offset = HEADER;
    let mut events = 0u64;
    let mut remaining = nevents;
    while remaining > 0 {
        let n = remaining.min(block_events);
        offset += 16 + n * 8 + 8;
        events += n as u64;
        out.push((offset, events));
        remaining -= n;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any cut either salvages to the last checksummed block boundary or is
    /// rejected as truncated — and the codec's strict reader agrees that the
    /// cut stream is not a whole trace.
    #[test]
    fn any_truncation_salvages_or_rejects(
        block_events in 1usize..=8,
        nevents in 0usize..=40,
        cut_seed in any::<usize>(),
    ) {
        let trace = sample_trace(nevents);
        let mut whole = Vec::new();
        write_trace_blocks(&trace, &mut whole, block_events).expect("in-memory write");
        let cut = cut_seed % (whole.len() + 1);
        let torn = &whole[..cut];

        // The strict reader never silently short-reads a cut stream.
        match read_trace_blocks(torn) {
            Ok(back) => prop_assert_eq!((cut, back), (whole.len(), trace.clone())),
            Err(e) => prop_assert_eq!(e.kind(), "truncated", "cut at {}", cut),
        }

        let boundaries = block_boundaries(nevents, block_events);
        if cut < HEADER {
            // Nothing valid to keep: header damage is rejected, not salvaged.
            let err = salvage_scan(torn).expect_err("headerless prefix");
            prop_assert_eq!(err.kind(), "truncated", "cut at {}", cut);
            return Ok(());
        }
        let scan = salvage_scan(torn).expect("salvage never fails past the header");
        let (want_len, want_events) = boundaries
            .iter()
            .rev()
            .find(|(off, _)| *off <= cut)
            .copied()
            .unwrap_or((HEADER, 0));
        let want_blocks = boundaries.iter().filter(|(off, _)| *off <= cut).count() as u64;
        prop_assert_eq!(scan.proc_id, 2);
        prop_assert_eq!(scan.complete, cut == whole.len());
        if scan.complete {
            prop_assert_eq!(scan.valid_len as usize, whole.len());
        } else {
            prop_assert_eq!(scan.valid_len as usize, want_len);
        }
        prop_assert_eq!((scan.blocks, scan.events), (want_blocks, want_events));

        // The salvaged prefix is completable: appending the regenerated
        // remainder reproduces the uninterrupted stream byte for byte.
        if !scan.complete {
            let mut resumed = torn[..scan.valid_len as usize].to_vec();
            let mut bw = BlockWriter::resume(&mut resumed, scan.blocks);
            for chunk in trace.events[scan.events as usize..].chunks(block_events) {
                bw.write_block(chunk).expect("append");
            }
            bw.finish().expect("finish");
            prop_assert_eq!(&resumed, &whole, "cut at {}", cut);
        }
    }
}
