//! Fuzz-style robustness tests for the trace codec: arbitrary byte soup and
//! single-byte corruptions of a valid trace must all come back as structured
//! [`TraceError`]s — never a panic, and never garbage silently accepted as a
//! healthy trace. (Truncation at every byte offset is `tests/salvage.rs`.)

use proptest::collection;
use proptest::prelude::*;
use proptest::TestCaseError;

use dss_trace::{read_trace_blocks, write_trace_blocks, DataClass, LockClass, LockToken, Tracer};

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
