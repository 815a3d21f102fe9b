//! Fuzz-style robustness tests for the trace codec: arbitrary byte soup and
//! single-byte corruptions of a valid trace must all come back as structured
//! [`TraceError`]s — never a panic, and never garbage silently accepted as a
//! healthy trace. (Truncation at every byte offset is `tests/truncation.rs`.)
//! Words no `Event` constructor produces, and block counts no writer emits,
//! are part of that: they are `Corrupt`, not a misread and not an allocation.

#![expect(clippy::expect_used, reason = "in-memory writes cannot fail")]

use proptest::collection;
use proptest::prelude::*;
use proptest::TestCaseError;

use dss_trace::{
    read_trace_blocks, write_trace_blocks, DataClass, Event, LockClass, LockToken, TraceError,
    Tracer, MAX_BLOCK_EVENTS,
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
            Ok(_) => prop_assert!(bytes.len() >= 8 && &bytes[..8] == b"DSSTRB02"),
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

/// A stream whose blocks each span several of the reader's bulk reads, so
/// flips land in every position a word can have within one.
fn large_trace_bytes() -> Vec<u8> {
    let t = Tracer::new(3);
    for i in 0..20_000u64 {
        match i % 5 {
            0 => t.lock_acquire(LockToken::new(0x40, LockClass::BufMgr)),
            1 => t.write(0x1_0000 + i * 8, 8, DataClass::BufDesc),
            2 => t.lock_release(LockToken::new(0x40, LockClass::BufMgr)),
            3 => t.read(0x2_0000 + i * 4, 4, DataClass::Data),
            _ => t.busy(i as u32),
        }
    }
    let mut bytes = Vec::new();
    write_trace_blocks(&t.take(), &mut bytes, 9_000).expect("in-memory write cannot fail");
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One flipped bit anywhere in a large stream is a classified error.
    #[test]
    fn single_bit_flip_in_a_large_stream_is_detected(pos in any::<usize>(), bit in 0u32..8) {
        let mut bytes = large_trace_bytes();
        let pos = pos % bytes.len();
        bytes[pos] ^= 1 << bit;
        match read_trace_blocks(&bytes[..]) {
            Ok(_) => prop_assert!(false, "flip of bit {} of byte {} was absorbed", bit, pos),
            Err(e) => prop_assert!(
                matches!(e.kind(), "bad-magic" | "truncated" | "corrupt" | "checksum-mismatch"),
                "unexpected classification {} for flip at byte {}", e.kind(), pos
            ),
        }
    }
}

/// The unmutated fixture itself must decode — otherwise the proptests above
/// would be vacuously rejecting everything.
#[test]
fn the_fixture_is_actually_valid() {
    let bytes = valid_trace_bytes();
    let trace = read_trace_blocks(&bytes[..]).expect("fixture decodes");
    assert_eq!(trace.len(), 5);
    let large = read_trace_blocks(&large_trace_bytes()[..]).expect("large fixture decodes");
    assert_eq!(large.len(), 20_000);
}

/// One step of the format's word-wise checksum, spelled out again here so
/// the hand-built streams below do not borrow the writer's arithmetic.
fn mix(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
}

const MIX_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// A `DSSTRB02` stream whose one block claims `count` events and carries
/// `words` as its payload, every checksum valid — so only the count or the
/// words' own values can be wrong.
fn stream_with_block(count: u64, words: &[u64]) -> Vec<u8> {
    let mut bytes = b"DSSTRB02".to_vec();
    let mut put = |ws: &[u64]| {
        let mut h = MIX_SEED;
        for &w in ws {
            bytes.extend(w.to_le_bytes());
            h = mix(h, w);
        }
        bytes.extend(h.to_le_bytes());
    };
    put(&[0]); // processor id
    put(&[&[count, 0], words].concat()); // count, chunk, payload
    put(&[0, 1]); // end marker
    bytes
}

/// The packed word of a reference, field by field (DESIGN.md §6).
fn ref_word(addr: u64, size: u64, class: u64, write: bool) -> u64 {
    addr << 16 | size << 7 | class << 3 | (write as u64) << 2 | 1
}

#[test]
fn the_hand_built_stream_is_the_real_format() {
    // Otherwise the rejections below could be framing errors in disguise.
    let bytes = stream_with_block(1, &[ref_word(0x1000, 8, 2, true)]);
    let trace = read_trace_blocks(&bytes[..]).expect("a valid word decodes");
    let t = Tracer::new(0);
    t.write(0x1000, 8, DataClass::Index);
    assert_eq!(trace, t.take());
    let mut written = Vec::new();
    write_trace_blocks(&trace, &mut written, 8).expect("in-memory write cannot fail");
    assert_eq!(written, bytes, "and it is what the writer emits");
}

#[test]
fn words_no_event_packs_to_are_corrupt_not_panics() {
    let lock = |tag: u64, class: u64| 0x40 << 16 | class << 3 | tag;
    let cases: [(&str, u64); 9] = [
        ("class past the last", ref_word(0x1000, 8, 10, false)),
        ("class all ones", ref_word(0x1000, 8, 15, true)),
        ("reserved bit 11", ref_word(0x1000, 8, 1, false) | 1 << 11),
        ("reserved bit 15", ref_word(0x1000, 8, 1, false) | 1 << 15),
        ("acquire of lock class 3", lock(2, 3)),
        ("release of lock class 3", lock(3, 3)),
        ("write bit on a lock", lock(2, 0) | 1 << 2),
        ("busy with a flag bit", 123 << 16 | 1 << 5),
        ("busy past 32 bits", 1 << 48),
    ];
    for (name, word) in cases {
        assert_eq!(Event::from_bits(word), None, "{name}");
        // Second of two, so the offset and index are not trivially zero.
        let bytes = stream_with_block(2, &[Event::busy(7).to_bits(), word]);
        match read_trace_blocks(&bytes[..]) {
            Err(TraceError::Corrupt {
                offset,
                event: Some((1, 2)),
                ..
            }) => assert_eq!(offset, 24 + 16 + 8, "{name}: offset of the word"),
            other => panic!("{name}: expected Corrupt, got {other:?}"),
        }
    }
}

#[test]
fn a_count_past_the_block_limit_is_corrupt_at_the_header() {
    for count in [MAX_BLOCK_EVENTS as u64 + 1, u64::MAX] {
        // Checksummed as if honest: only the bound can refuse it.
        let bytes = stream_with_block(count, &[Event::busy(7).to_bits()]);
        match read_trace_blocks(&bytes[..]) {
            Err(TraceError::Corrupt {
                offset: 24,
                event: None,
                what,
            }) => assert!(what.contains(&count.to_string()), "{what}"),
            other => panic!("count {count}: expected Corrupt, got {other:?}"),
        }
    }
    // A small overstatement runs into the end of the stream instead.
    let bytes = stream_with_block(40, &[Event::busy(7).to_bits()]);
    let err = read_trace_blocks(&bytes[..]).expect_err("39 events are missing");
    assert_eq!(err.kind(), "truncated", "{err}");
}
