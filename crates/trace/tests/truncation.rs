//! Negative tests for cut-short traces, at both trust boundaries: the codec
//! must classify empty/header-only/mid-event files as
//! [`TraceError::Truncated`] with the offset where the bytes ran out — and a
//! cut at *any* byte offset as truncated, never a silent short read — and
//! the lock-discipline checker must flag the in-memory shape a truncated
//! trace would have (a lock acquired, the trace ending before its release).

#![expect(clippy::expect_used, reason = "in-memory writes cannot fail")]

use proptest::prelude::*;

use dss_trace::{
    check_lock_discipline, materialize, read_trace_blocks, write_trace_blocks, DataClass,
    FileTraceSource, LockClass, LockDisciplineError, LockToken, TraceError, Tracer,
};

/// Encodes a one-block trace whose one critical section sits mid-stream.
fn locked_trace_bytes() -> Vec<u8> {
    let t = Tracer::new(0);
    t.read(0x1000, 8, DataClass::Data);
    t.lock_acquire(LockToken::new(0x40, LockClass::LockMgr));
    t.write(0x2000, 8, DataClass::LockHash);
    t.lock_release(LockToken::new(0x40, LockClass::LockMgr));
    t.busy(7);
    let mut bytes = Vec::new();
    write_trace_blocks(&t.take(), &mut bytes, 8).expect("in-memory write cannot fail");
    bytes
}

/// Decodes `bytes`, demanding a truncation at `offset` while reading
/// `expected`, inside event `event` if any.
fn assert_truncated_at(bytes: &[u8], offset: u64, expected: &str, event: Option<(usize, usize)>) {
    match read_trace_blocks(bytes) {
        Err(TraceError::Truncated {
            offset: at,
            expected: what,
            event: ev,
        }) => assert_eq!((at, what, ev), (offset, expected, event)),
        other => panic!("{} bytes: expected Truncated, got {other:?}", bytes.len()),
    }
}

#[test]
fn cut_streams_are_truncated_where_the_bytes_ran_out() {
    let bytes = locked_trace_bytes();
    assert_truncated_at(&[], 0, "block stream magic", None);
    assert_truncated_at(&bytes[..8], 8, "block stream header", None);
    let err = read_trace_blocks(&bytes[..8]).expect_err("magic-only stream");
    assert!(err.to_string().contains("byte offset 8"), "{err}");
    // A whole stream header and nothing else: no block, no end marker.
    assert_truncated_at(&bytes[..24], 24, "block header", None);
    // A block header promising five events, then nothing.
    assert_truncated_at(&bytes[..40], 40, "event record", Some((0, 5)));
    // Cut inside the critical section: past the acquire (event 1), before
    // the release (event 3).
    let cut = 40 + 2 * 8 + 5;
    assert_truncated_at(&bytes[..cut], 40 + 2 * 8, "event record", Some((2, 5)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A stream cut at any byte offset, at any block size, decodes to the
    /// whole trace (only when nothing was cut) or is rejected as truncated.
    #[test]
    fn any_cut_reads_back_whole_or_truncated(
        block_events in 1usize..=8,
        nevents in 0usize..=40,
        cut_seed in any::<usize>(),
    ) {
        let t = Tracer::new(2);
        for i in 0..nevents as u64 {
            match i % 4 {
                0 => t.read(0x1000 + i * 8, 8, DataClass::Data),
                1 => t.write(0x9000 + i * 8, 8, DataClass::PrivHeap),
                2 => t.lock_acquire(LockToken::new(0x40, LockClass::LockMgr)),
                _ => t.lock_release(LockToken::new(0x40, LockClass::LockMgr)),
            }
        }
        let trace = t.take();
        let mut whole = Vec::new();
        write_trace_blocks(&trace, &mut whole, block_events).expect("in-memory write");
        let cut = cut_seed % (whole.len() + 1);
        match read_trace_blocks(&whole[..cut]) {
            Ok(back) => prop_assert_eq!((cut, back), (whole.len(), trace)),
            Err(e) => prop_assert_eq!(e.kind(), "truncated", "cut at {}", cut),
        }
    }
}

#[test]
fn empty_and_header_only_files_are_classified() {
    let dir = std::env::temp_dir().join(format!("dss-trunc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (name, contents) in [
        ("empty.trb", &[][..]),
        ("header-only.trb", &locked_trace_bytes()[..24]),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, contents).expect("write fixture");
        let err =
            materialize(&FileTraceSource::new(vec![path])).expect_err("cut file must not decode");
        assert_eq!(err.kind(), "truncated", "{name}: {err}");
        // The InFile wrapper names the file so an operator can find it.
        assert!(err.to_string().contains(name), "{name}: {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_ending_with_a_held_lock_is_flagged() {
    // The in-memory shape a truncated trace would decode to, had the cut
    // landed on an event boundary of a (checksum-less) stream: the acquire
    // is present, the release never arrives.
    let full = {
        let t = Tracer::new(0);
        t.read(0x1000, 8, DataClass::Data);
        t.lock_acquire(LockToken::new(0x40, LockClass::LockMgr));
        t.write(0x2000, 8, DataClass::LockHash);
        t.lock_release(LockToken::new(0x40, LockClass::LockMgr));
        t.busy(7);
        t.take()
    };
    check_lock_discipline(&full).expect("the full trace is disciplined");

    let mut cut = full;
    cut.events.truncate(3); // read, acquire, write — release dropped
    match check_lock_discipline(&cut) {
        Err(LockDisciplineError::HeldAtEnd { index, addr, .. }) => {
            assert_eq!(index, 1, "the unmatched acquire");
            assert_eq!(addr, 0x40);
        }
        other => panic!("held-at-end not flagged: {other:?}"),
    }
}
