//! Fuzz-style robustness tests for the trace codec: arbitrary byte soup and
//! single-byte corruptions of a valid trace must all come back as structured
//! [`TraceError`]s — never a panic, and never garbage silently accepted as a
//! healthy trace. (Truncation at every byte offset is `tests/salvage.rs`.)
//! Records the file format can spell but the packed in-memory `Event`
//! cannot hold are part of that: they are `Corrupt`, not a constructor panic.

use proptest::collection;
use proptest::prelude::*;
use proptest::TestCaseError;

use dss_trace::{
    read_trace_blocks, write_trace_blocks, DataClass, Event, LockClass, LockToken, TraceError,
    Tracer,
};

/// Encodes a small valid trace with every event kind represented, in two
/// blocks so block framing is part of what gets corrupted.
fn valid_trace_bytes() -> Vec<u8> {
    let t = Tracer::new(1);
    t.read(0x1000, 8, DataClass::Data);
    t.lock_acquire(LockToken::new(0x40, LockClass::LockMgr));
    t.write(0x1040, 8, DataClass::Index);
    t.lock_release(LockToken::new(0x40, LockClass::LockMgr));
    t.busy(123);
    let mut bytes = Vec::new();
    write_trace_blocks(&t.take(), &mut bytes, 3).expect("in-memory write cannot fail");
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes never panic the decoder, and anything it accepts must
    /// at least have carried the format magic.
    #[test]
    fn byte_soup_never_panics(bytes in collection::vec(any::<u8>(), 0..512)) {
        match read_trace_blocks(&bytes[..]) {
            Ok(_) => prop_assert!(bytes.len() >= 8 && &bytes[..8] == b"DSSTRB01"),
            Err(e) => prop_assert!(!e.kind().is_empty()),
        }
    }

    /// Flipping any single byte of a valid trace is always detected: the
    /// magic check, the chunk sequence, the per-event validation, or a header
    /// or block checksum must catch it — a one-byte corruption can never
    /// round-trip as healthy.
    #[test]
    fn single_byte_flip_is_always_detected(pos in 0usize..1000, flip in 1u8..=255) {
        let mut bytes = valid_trace_bytes();
        let pos = pos % bytes.len();
        bytes[pos] ^= flip;
        let err = match read_trace_blocks(&bytes[..]) {
            Ok(_) => return Err(TestCaseError::fail(format!(
                "flip of byte {pos} by {flip:#04x} was silently absorbed"
            ))),
            Err(e) => e,
        };
        prop_assert!(
            matches!(err.kind(), "bad-magic" | "truncated" | "corrupt" | "checksum-mismatch"),
            "unexpected classification {} for flip at byte {}", err.kind(), pos
        );
    }
}

/// The unmutated fixture itself must decode — otherwise the proptests above
/// would be vacuously rejecting everything.
#[test]
fn the_fixture_is_actually_valid() {
    let bytes = valid_trace_bytes();
    let trace = read_trace_blocks(&bytes[..]).expect("fixture decodes");
    assert_eq!(trace.len(), 5);
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A one-block `DSSTRB01` stream holding the raw record `tag, a, b`, every
/// checksum valid — so only the record's own values can be wrong.
fn stream_with_record(tag: u8, a: u64, b: u64) -> Vec<u8> {
    let mut bytes = b"DSSTRB01".to_vec();
    let proc_id = 0u64.to_le_bytes();
    bytes.extend(proc_id);
    bytes.extend(fnv1a(&proc_id).to_le_bytes());
    let mut block = Vec::new();
    block.extend(1u64.to_le_bytes()); // count
    block.extend(0u64.to_le_bytes()); // chunk
    block.push(tag);
    block.extend(a.to_le_bytes());
    block.extend(b.to_le_bytes());
    bytes.extend(&block);
    bytes.extend(fnv1a(&block).to_le_bytes());
    let mut end = Vec::new();
    end.extend(0u64.to_le_bytes());
    end.extend(1u64.to_le_bytes());
    bytes.extend(&end);
    bytes.extend(fnv1a(&end).to_le_bytes());
    bytes
}

/// Wire `b` word of a reference record.
fn ref_meta(size: u64, write: bool, class: u64) -> u64 {
    size << 8 | (write as u64) << 7 | class
}

#[test]
fn the_hand_built_stream_is_the_real_format() {
    // Otherwise the rejections below could be framing errors in disguise.
    let bytes = stream_with_record(1, 0x1000, ref_meta(8, true, 2));
    let trace = read_trace_blocks(&bytes[..]).expect("a valid record decodes");
    let t = Tracer::new(0);
    t.write(0x1000, 8, DataClass::Index);
    assert_eq!(trace, t.take());
}

#[test]
fn records_the_packed_event_cannot_hold_are_corrupt_not_panics() {
    let past = Event::ADDR_LIMIT;
    let oversize = Event::MAX_REF_SIZE as u64 + 1;
    let cases: [(&str, u8, u64, u64); 8] = [
        ("ref address at the limit", 1, past, ref_meta(8, false, 1)),
        ("ref address all ones", 1, u64::MAX, ref_meta(8, false, 1)),
        ("acquire address at the limit", 2, past, 0),
        ("release address at the limit", 3, past, 0),
        (
            "oversize reference",
            1,
            0x1000,
            ref_meta(oversize, false, 1),
        ),
        (
            "largest encodable size",
            1,
            0x1000,
            ref_meta(0xffff, true, 1),
        ),
        ("class past the last", 1, 0x1000, ref_meta(8, false, 10)),
        ("lock class past the last", 2, 0x40, 3),
    ];
    for (name, tag, a, b) in cases {
        let bytes = stream_with_record(tag, a, b);
        match read_trace_blocks(&bytes[..]) {
            Err(TraceError::Corrupt {
                offset,
                event: Some((0, 1)),
                ..
            }) => assert_eq!(offset, 24 + 16, "{name}: offset of the record"),
            other => panic!("{name}: expected Corrupt, got {other:?}"),
        }
    }
}
