//! Compact binary serialization of traces: the chunked block format.
//!
//! Traces run to millions of events; this fixed-width little-endian format
//! lets a workload be traced once and re-simulated elsewhere (the same
//! workflow as saving an execution-driven simulator's address trace), a
//! block at a time in bounded memory. No external dependencies: a stream is
//! eight bytes of magic and a checksummed sixteen-byte header, then blocks of
//! packed 8-byte [`Event`] words — the in-memory word, little-endian — each
//! block carrying its sequential chunk index and a word-wise checksum, so a
//! single flipped bit anywhere in the file, or a block out of order, is
//! *detected* instead of silently replayed as a different workload.
//!
//! Failures never panic: malformed or truncated input comes back as a
//! structured [`TraceError`] carrying the byte offset (and, for event-level
//! failures, the event index) where decoding stopped, and the file-level
//! reader ([`crate::FileTraceSource`]) wraps the file path, so a bad trace on
//! disk is diagnosable from the error alone. A stream ends with an explicit
//! marker, so a killed writer leaves a file that reads back as truncated.

use std::fmt;
use std::io::{self, Read, Write};
use std::path::PathBuf;

use crate::source::DEFAULT_BLOCK_EVENTS;
use crate::{Event, Trace};

/// Format magic: a stream header followed by independently checksummed event
/// blocks, so a trace can be produced and consumed incrementally with bounded
/// memory. It names the one format there is a reader for (a file of the
/// revision before it is a foreign file), so anything that vouches for block
/// files on disk folds it into what it vouches for.
pub const BLOCK_MAGIC: &[u8; 8] = b"DSSTRB02";

/// The most events one block may hold. A reader refuses a larger count
/// before allocating anything for it; [`BlockWriter::write_block`] splits a
/// longer slice.
pub const MAX_BLOCK_EVENTS: usize = 16 * DEFAULT_BLOCK_EVENTS;

/// Words moved per bulk read or write: the size of the one scratch buffer a
/// reader or writer owns, whatever a block's count says.
const SLICE_WORDS: usize = 4096;

/// Seed and multiplier (the FNV-1a 64-bit constants) of the checksum over a
/// header's or block's words.
const MIX_SEED: u64 = 0xcbf2_9ce4_8422_2325;
const MIX_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One checksum step. For a fixed `w` this is a bijection of `h` (xor, then
/// multiplication by an odd number), and for a fixed `h` a bijection of `w`:
/// a change confined to one word changes the final checksum, always.
#[inline]
fn mix(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(MIX_PRIME)
}

/// A failure while decoding (or, for [`TraceError::Io`], transporting) a
/// serialized trace. Every variant pins down *where* in the stream decoding
/// stopped and *what* was wrong, so fault-injection campaigns can assert a
/// corrupted byte is classified, never absorbed.
#[derive(Debug)]
pub enum TraceError {
    /// The stream is not a DSS trace: the leading magic did not match.
    BadMagic {
        /// The eight bytes found where the magic should be.
        found: [u8; 8],
    },
    /// The stream ended before the structure it promised was complete —
    /// an empty file, a header-only file, or a file cut mid-event.
    Truncated {
        /// Byte offset of the record the decoder was reading when the
        /// stream ended.
        offset: u64,
        /// What the decoder was expecting to read there.
        expected: &'static str,
        /// `(index, total)` of the event being decoded, if the cut happened
        /// inside the event section.
        event: Option<(usize, usize)>,
    },
    /// A structurally complete record held an impossible value (unknown
    /// event tag, out-of-range data class or lock class).
    Corrupt {
        /// Byte offset of the record holding the bad value.
        offset: u64,
        /// `(index, total)` of the offending event.
        event: Option<(usize, usize)>,
        /// What was wrong with the record.
        what: String,
    },
    /// Every record decoded, but the header's or block's checksum does not
    /// match the bytes read — some bit of the file changed since it was
    /// written.
    ChecksumMismatch {
        /// The checksum stored in the file.
        stored: u64,
        /// The checksum computed over the bytes actually read.
        computed: u64,
    },
    /// An underlying transport error (not a format violation).
    Io {
        /// Byte offset reached when the error occurred.
        offset: u64,
        /// The I/O error itself.
        source: io::Error,
    },
    /// An error wrapped with the file it concerned.
    InFile {
        /// The file being read.
        path: PathBuf,
        /// The underlying failure.
        source: Box<TraceError>,
    },
}

impl TraceError {
    /// A short classification label (stable across messages), e.g.
    /// `"truncated"` or `"checksum-mismatch"` — what a fault campaign
    /// asserts against.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceError::BadMagic { .. } => "bad-magic",
            TraceError::Truncated { .. } => "truncated",
            TraceError::Corrupt { .. } => "corrupt",
            TraceError::ChecksumMismatch { .. } => "checksum-mismatch",
            TraceError::Io { .. } => "io",
            TraceError::InFile { source, .. } => source.kind(),
        }
    }
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::BadMagic { found } => write!(
                f,
                "not a DSS trace file (bad magic at byte offset 0: {:?})",
                String::from_utf8_lossy(found)
            ),
            TraceError::Truncated {
                offset,
                expected,
                event: Some((i, n)),
            } => write!(
                f,
                "truncated trace: event {i} of {n} at byte offset {offset}: \
                 stream ended while reading {expected}"
            ),
            TraceError::Truncated {
                offset,
                expected,
                event: None,
            } => write!(
                f,
                "truncated trace: stream ended at byte offset {offset} \
                 while reading {expected}"
            ),
            TraceError::Corrupt {
                offset,
                event: Some((i, n)),
                what,
            } => write!(f, "event {i} of {n} at byte offset {offset}: {what}"),
            TraceError::Corrupt {
                offset,
                event: None,
                what,
            } => write!(f, "corrupt record at byte offset {offset}: {what}"),
            TraceError::ChecksumMismatch { stored, computed } => write!(
                f,
                "trace checksum mismatch: file says {stored:#018x}, bytes hash to \
                 {computed:#018x} — the trace was corrupted after it was written"
            ),
            TraceError::Io { offset, source } => {
                write!(f, "I/O error at byte offset {offset}: {source}")
            }
            TraceError::InFile { path, source } => write!(f, "{}: {source}", path.display()),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io { source, .. } => Some(source),
            TraceError::InFile { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

impl From<TraceError> for io::Error {
    fn from(e: TraceError) -> io::Error {
        let kind = match &e {
            TraceError::Truncated { .. } => io::ErrorKind::UnexpectedEof,
            TraceError::Io { source, .. } => source.kind(),
            TraceError::InFile { source, .. } => match source.as_ref() {
                TraceError::Truncated { .. } => io::ErrorKind::UnexpectedEof,
                TraceError::Io { source, .. } => source.kind(),
                _ => io::ErrorKind::InvalidData,
            },
            _ => io::ErrorKind::InvalidData,
        };
        io::Error::new(kind, e.to_string())
    }
}

/// An incremental writer for the chunked block format ([`BLOCK_MAGIC`]).
///
/// The stream is a header (magic, processor id, header checksum) followed by
/// any number of blocks, each independently checksummed:
///
/// ```text
/// count:u64  chunk:u64  count × packed event word:u64  checksum:u64
/// ```
///
/// all little-endian; the checksum is [`mix`] folded over `count`, `chunk`
/// and the event words. `chunk` numbers the blocks sequentially from zero,
/// so a reader detects reordered, duplicated, or mis-seeded chunks (e.g.
/// from a buggy parallel producer) as corruption instead of replaying a
/// scrambled workload. A zero-count block terminates the stream; a stream
/// cut before that marker is reported as truncated. Nothing about the
/// stream's total length is promised up front, so a producer can emit blocks
/// as it generates them and never hold more than one block in memory.
pub struct BlockWriter<W: Write> {
    w: W,
    next_chunk: u64,
    finished: bool,
    scratch: Vec<u8>,
}

impl<W: Write> BlockWriter<W> {
    /// Starts a block stream for `proc_id`, writing the stream header.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn new(mut w: W, proc_id: usize) -> io::Result<Self> {
        w.write_all(BLOCK_MAGIC)?;
        let id = proc_id as u64;
        w.write_all(&id.to_le_bytes())?;
        w.write_all(&mix(MIX_SEED, id).to_le_bytes())?;
        Ok(BlockWriter {
            w,
            next_chunk: 0,
            finished: false,
            scratch: vec![0; SLICE_WORDS * 8],
        })
    }

    /// Appends `events` as one block — or as several, when there are more
    /// than [`MAX_BLOCK_EVENTS`]. An empty slice writes nothing (a zero
    /// count is the end-of-stream marker).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    ///
    /// # Panics
    ///
    /// Panics if called after [`BlockWriter::finish`].
    pub fn write_block(&mut self, events: &[Event]) -> io::Result<()> {
        assert!(!self.finished, "write_block after finish");
        for block in events.chunks(MAX_BLOCK_EVENTS) {
            let mut hash = self.put_header(block.len() as u64)?;
            for slice in block.chunks(SLICE_WORDS) {
                let bytes = &mut self.scratch[..slice.len() * 8];
                for (record, event) in bytes.as_chunks_mut::<8>().0.iter_mut().zip(slice) {
                    let w = event.to_bits();
                    hash = mix(hash, w);
                    *record = w.to_le_bytes();
                }
                self.w.write_all(bytes)?;
            }
            self.w.write_all(&hash.to_le_bytes())?;
            self.next_chunk += 1;
        }
        Ok(())
    }

    /// Writes a block's `count` and chunk index, returning the checksum so
    /// far.
    fn put_header(&mut self, count: u64) -> io::Result<u64> {
        self.w.write_all(&count.to_le_bytes())?;
        self.w.write_all(&self.next_chunk.to_le_bytes())?;
        Ok(mix(mix(MIX_SEED, count), self.next_chunk))
    }

    /// Writes the end-of-stream marker and flushes. Must be called exactly
    /// once; a stream without it reads back as truncated.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn finish(&mut self) -> io::Result<()> {
        assert!(!self.finished, "finish called twice");
        self.finished = true;
        let hash = self.put_header(0)?;
        self.w.write_all(&hash.to_le_bytes())?;
        self.w.flush()
    }

    /// Number of blocks written so far.
    pub fn blocks_written(&self) -> u64 {
        self.next_chunk
    }

    /// Consumes the writer, returning the underlying sink (after `finish`).
    pub fn into_inner(self) -> W {
        self.w
    }
}

/// A reader for the chunked block format, yielding one block of events at a
/// time — the [`crate::EventStream`] counterpart of [`BlockWriter`].
#[derive(Debug)]
pub struct BlockReader<R> {
    r: R,
    /// Bytes consumed so far: where the next record begins.
    offset: u64,
    proc_id: usize,
    next_chunk: u64,
    done: bool,
    scratch: Vec<u8>,
}

impl<R: Read> BlockReader<R> {
    /// Opens a block stream, validating the header.
    ///
    /// # Errors
    ///
    /// [`TraceError::BadMagic`] for a foreign stream, [`TraceError::Truncated`] /
    /// [`TraceError::Io`] when the header cannot be read, and
    /// [`TraceError::ChecksumMismatch`] when the header checksum fails.
    pub fn new(r: R) -> Result<Self, TraceError> {
        let mut reader = BlockReader {
            r,
            offset: 0,
            proc_id: 0,
            next_chunk: 0,
            done: false,
            scratch: vec![0; SLICE_WORDS * 8],
        };
        let magic = reader.word("block stream magic")?.to_le_bytes();
        if &magic != BLOCK_MAGIC {
            return Err(TraceError::BadMagic { found: magic });
        }
        let id = reader.word("block stream header")?;
        let stored = reader.word("block stream header checksum")?;
        let computed = mix(MIX_SEED, id);
        if stored != computed {
            return Err(TraceError::ChecksumMismatch { stored, computed });
        }
        reader.proc_id = id as usize;
        Ok(reader)
    }

    /// The processor id from the stream header.
    pub fn proc_id(&self) -> usize {
        self.proc_id
    }

    /// Reads the next block into `buf` (cleared first), returning the number
    /// of events read. Zero means the stream's end marker was reached; later
    /// calls keep returning zero.
    ///
    /// # Errors
    ///
    /// [`TraceError::Truncated`] when the stream ends mid-block or before the
    /// end marker, [`TraceError::Corrupt`] for a word no event packs to, a
    /// count above [`MAX_BLOCK_EVENTS`], or a block whose chunk index breaks
    /// the expected sequence (a chunk-seed or chunk-order mismatch from a bad
    /// producer), and [`TraceError::ChecksumMismatch`] when a block's words
    /// do not hash to its stored checksum.
    pub fn next_block(&mut self, buf: &mut Vec<Event>) -> Result<usize, TraceError> {
        buf.clear();
        if self.done {
            return Ok(0);
        }
        let header_at = self.offset;
        let count = self.word("block header")?;
        let chunk = self.word("block header")?;
        let corrupt = |what: String| TraceError::Corrupt {
            offset: header_at,
            event: None,
            what,
        };
        // `count` is whatever the file says: bound it before it sizes a read.
        let n = match usize::try_from(count) {
            Ok(n) if n <= MAX_BLOCK_EVENTS => n,
            _ => {
                return Err(corrupt(format!(
                    "block claims {count} events, more than the {MAX_BLOCK_EVENTS} a block may hold"
                )))
            }
        };
        if chunk != self.next_chunk {
            return Err(corrupt(format!(
                "chunk-seed mismatch: block claims chunk {chunk} where chunk {} was \
                 expected — the stream was produced or assembled out of order",
                self.next_chunk
            )));
        }
        // One allocation for an honest block; a lying count buys no more.
        buf.reserve(n.min(DEFAULT_BLOCK_EVENTS));
        let mut hash = mix(mix(MIX_SEED, count), chunk);
        let mut first = 0;
        while first < n {
            let words = (n - first).min(SLICE_WORDS);
            let at = self.offset;
            let got = self.fill(words * 8)?;
            if got < words * 8 {
                return Err(TraceError::Truncated {
                    offset: at + (got & !7) as u64,
                    expected: "event record",
                    event: Some((first + got / 8, n)),
                });
            }
            // One pass hashes, validates and keeps. An impossible word is
            // reported whatever the checksum would have said.
            for (i, record) in self.scratch[..got].as_chunks::<8>().0.iter().enumerate() {
                let w = u64::from_le_bytes(*record);
                hash = mix(hash, w);
                let Some(event) = Event::from_bits(w) else {
                    return Err(TraceError::Corrupt {
                        offset: at + i as u64 * 8,
                        event: Some((first + i, n)),
                        what: format!("no event packs to the word {w:#018x}"),
                    });
                };
                buf.push(event);
            }
            first += words;
        }
        let stored = self.word("block checksum")?;
        if stored != hash {
            return Err(TraceError::ChecksumMismatch {
                stored,
                computed: hash,
            });
        }
        if n == 0 {
            self.done = true;
        } else {
            self.next_chunk += 1;
        }
        Ok(n)
    }

    /// Reads one little-endian word, classifying a short read as
    /// [`TraceError::Truncated`] over `expected` at the word's offset.
    fn word(&mut self, expected: &'static str) -> Result<u64, TraceError> {
        let offset = self.offset;
        let got = self.fill(8)?;
        match self.scratch[..got].as_chunks::<8>().0 {
            [word] => Ok(u64::from_le_bytes(*word)),
            _ => Err(TraceError::Truncated {
                offset,
                expected,
                event: None,
            }),
        }
    }

    /// Reads into the head of the scratch buffer until `len` bytes are there
    /// or the stream ends, returning how many arrived.
    fn fill(&mut self, len: usize) -> Result<usize, TraceError> {
        let mut filled = 0;
        while filled < len {
            match self.r.read(&mut self.scratch[filled..len]) {
                Ok(0) => break,
                Ok(n) => filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(source) => {
                    return Err(TraceError::Io {
                        offset: self.offset + filled as u64,
                        source,
                    })
                }
            }
        }
        self.offset += filled as u64;
        Ok(filled)
    }
}

/// Writes `trace` as a block stream with at most `block_events` events per
/// block.
///
/// # Errors
///
/// Propagates I/O errors from `w`.
///
/// # Panics
///
/// Panics if `block_events` is zero.
pub fn write_trace_blocks<W: Write>(trace: &Trace, w: W, block_events: usize) -> io::Result<()> {
    assert!(block_events > 0, "block_events must be positive");
    let mut bw = BlockWriter::new(w, trace.proc_id)?;
    for chunk in trace.events.chunks(block_events) {
        bw.write_block(chunk)?;
    }
    bw.finish()
}

/// Reads an entire block stream back into a materialized [`Trace`].
///
/// # Errors
///
/// As [`BlockReader::new`] and [`BlockReader::next_block`].
pub fn read_trace_blocks<R: Read>(r: R) -> Result<Trace, TraceError> {
    let mut br = BlockReader::new(r)?;
    let mut events = Vec::new();
    let mut block = Vec::new();
    while br.next_block(&mut block)? > 0 {
        events.extend_from_slice(&block);
    }
    Ok(Trace {
        proc_id: br.proc_id(),
        events,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DataClass, LockClass, LockToken, Tracer};

    /// Stream header: magic, processor id, header checksum.
    const HEADER: usize = 24;
    /// End marker: zero count, next chunk index, checksum.
    const END: usize = 24;

    /// Byte length of a block of `n` events: count, chunk index, `n` packed
    /// words, checksum.
    fn block(n: usize) -> usize {
        16 + n * 8 + 8
    }

    fn sample() -> Trace {
        let t = Tracer::new(3);
        t.busy(1234);
        t.read(0x1_0000_0040, 8, DataClass::Data);
        t.write(0x100_0000_0010, 4, DataClass::PrivHeap);
        t.lock_acquire(LockToken::new(0x40, LockClass::LockMgr));
        t.read(0x1_0000_2000, 16, DataClass::Index);
        t.lock_release(LockToken::new(0x40, LockClass::LockMgr));
        t.busy(u32::MAX);
        t.take()
    }

    #[test]
    fn every_class_roundtrips() {
        let t = Tracer::new(0);
        for (i, class) in DataClass::ALL.iter().enumerate() {
            t.read(0x1000 + i as u64 * 8, 8, *class);
        }
        let trace = t.take();
        let mut buf = Vec::new();
        write_trace_blocks(&trace, &mut buf, 4).unwrap();
        assert_eq!(read_trace_blocks(buf.as_slice()).unwrap(), trace);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = read_trace_blocks(&b"NOTATRCE"[..]).unwrap_err();
        assert!(matches!(err, TraceError::BadMagic { .. }), "{err}");
        assert_eq!(err.kind(), "bad-magic");
    }

    #[test]
    fn missing_block_checksum_is_truncation() {
        let mut buf = Vec::new();
        write_trace_blocks(&sample(), &mut buf, 100).unwrap();
        buf.truncate(buf.len() - END - 8); // end marker, then the block's checksum
        let err = read_trace_blocks(buf.as_slice()).unwrap_err();
        match err {
            TraceError::Truncated { expected, .. } => assert_eq!(expected, "block checksum"),
            other => panic!("expected Truncated, got {other}"),
        }
    }

    #[test]
    fn impossible_word_is_rejected() {
        let mut buf = Vec::new();
        write_trace_blocks(&sample(), &mut buf, 3).unwrap();
        // Set a reserved bit in the second event's word (stream header,
        // block header, one word).
        let at = HEADER + 16 + 8;
        buf[at + 1] |= 0x80;
        let err = read_trace_blocks(buf.as_slice()).unwrap_err();
        // The word is reported, not the block checksum it also breaks.
        match &err {
            TraceError::Corrupt {
                what,
                event,
                offset,
            } => {
                assert!(what.contains("no event packs to the word"), "{err}");
                assert_eq!((*event, *offset), (Some((1, 3)), at as u64));
            }
            other => panic!("expected Corrupt, got {other}"),
        }
    }

    #[test]
    fn old_format_is_refused() {
        // A `DSSTRB01` stream is a foreign file, whatever follows the magic.
        let mut buf = Vec::new();
        write_trace_blocks(&sample(), &mut buf, 3).unwrap();
        buf[..8].copy_from_slice(b"DSSTRB01");
        for bytes in [&buf[..], &buf[..8]] {
            match read_trace_blocks(bytes).unwrap_err() {
                TraceError::BadMagic { found } => assert_eq!(&found, b"DSSTRB01"),
                other => panic!("expected BadMagic, got {other}"),
            }
        }
    }

    /// A one-block stream whose header claims `count` events, followed by
    /// `payload` zero bytes.
    fn stream_claiming(count: u64, payload: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        BlockWriter::new(&mut buf, 0).unwrap();
        buf.extend(count.to_le_bytes());
        buf.extend(0u64.to_le_bytes());
        buf.resize(buf.len() + payload, 0);
        buf
    }

    #[test]
    fn oversized_count_is_corrupt_before_anything_is_read_for_it() {
        for count in [MAX_BLOCK_EVENTS as u64 + 1, 1 << 32, u64::MAX] {
            let buf = stream_claiming(count, 64);
            let mut reader = BlockReader::new(buf.as_slice()).unwrap();
            let mut events = Vec::new();
            match reader.next_block(&mut events).unwrap_err() {
                TraceError::Corrupt {
                    offset,
                    event: None,
                    what,
                } => {
                    assert_eq!(offset, HEADER as u64, "the block header's offset");
                    assert!(what.contains(&count.to_string()), "{what}");
                }
                other => panic!("count {count}: expected Corrupt, got {other}"),
            }
            assert_eq!(events.capacity(), 0, "nothing allocated for the claim");
            assert_eq!(reader.offset, HEADER as u64 + 16, "payload untouched");
        }
        // The largest legal claim over a short payload is an honest
        // truncation, and memory follows the bytes that arrived, not the
        // claim.
        let buf = stream_claiming(MAX_BLOCK_EVENTS as u64, 64);
        let mut reader = BlockReader::new(buf.as_slice()).unwrap();
        let mut events = Vec::new();
        let err = reader.next_block(&mut events).unwrap_err();
        assert_eq!(err.kind(), "truncated", "{err}");
        assert!(events.capacity() <= DEFAULT_BLOCK_EVENTS);
        assert_eq!(reader.scratch.len(), SLICE_WORDS * 8);
    }

    #[test]
    fn a_slice_longer_than_a_block_is_split() {
        let events = vec![Event::busy(1); MAX_BLOCK_EVENTS + 5];
        let mut buf = Vec::new();
        let mut bw = BlockWriter::new(&mut buf, 0).unwrap();
        bw.write_block(&events).unwrap();
        assert_eq!(bw.blocks_written(), 2);
        bw.finish().unwrap();
        let mut reader = BlockReader::new(buf.as_slice()).unwrap();
        let mut block = Vec::new();
        assert_eq!(reader.next_block(&mut block).unwrap(), MAX_BLOCK_EVENTS);
        assert_eq!(reader.next_block(&mut block).unwrap(), 5);
        assert_eq!(reader.next_block(&mut block).unwrap(), 0);
    }

    #[test]
    fn trace_errors_convert_to_io_errors() {
        let err = read_trace_blocks(&b""[..]).unwrap_err();
        let io_err: io::Error = err.into();
        assert_eq!(io_err.kind(), io::ErrorKind::UnexpectedEof);
        let err = read_trace_blocks(&b"NOTATRCE"[..]).unwrap_err();
        let io_err: io::Error = err.into();
        assert_eq!(io_err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn format_is_compact() {
        let trace = sample();
        let mut buf = Vec::new();
        write_trace_blocks(&trace, &mut buf, 3).unwrap();
        let blocks = trace.events.len().div_ceil(3);
        assert_eq!(
            buf.len(),
            HEADER + blocks * (16 + 8) + trace.events.len() * 8 + END,
            "header, per-block framing, 8 bytes an event, end marker"
        );
    }

    #[test]
    fn block_roundtrip_at_any_block_size() {
        let trace = sample();
        for block_events in 1..=trace.events.len() + 1 {
            let mut buf = Vec::new();
            write_trace_blocks(&trace, &mut buf, block_events).unwrap();
            let back = read_trace_blocks(buf.as_slice())
                .unwrap_or_else(|e| panic!("block_events={block_events}: {e}"));
            assert_eq!(back, trace, "block_events={block_events}");
        }
    }

    #[test]
    fn block_reader_yields_written_block_boundaries() {
        let trace = sample();
        let mut buf = Vec::new();
        write_trace_blocks(&trace, &mut buf, 3).unwrap();
        let mut br = BlockReader::new(buf.as_slice()).unwrap();
        assert_eq!(br.proc_id(), trace.proc_id);
        let mut block = Vec::new();
        let mut sizes = Vec::new();
        loop {
            let n = br.next_block(&mut block).unwrap();
            if n == 0 {
                break;
            }
            sizes.push(n);
        }
        assert_eq!(sizes, vec![3, 3, 2], "8 events in blocks of 3");
        // Exhausted streams keep reporting zero.
        assert_eq!(br.next_block(&mut block).unwrap(), 0);
    }

    #[test]
    fn block_stream_without_end_marker_is_truncated() {
        let trace = sample();
        let mut buf = Vec::new();
        write_trace_blocks(&trace, &mut buf, 4).unwrap();
        buf.truncate(buf.len() - END); // drop the end marker
        let err = read_trace_blocks(buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), "truncated", "{err}");
    }

    #[test]
    fn block_cut_mid_event_is_truncated_with_event_context() {
        let trace = sample();
        let mut buf = Vec::new();
        write_trace_blocks(&trace, &mut buf, 4).unwrap();
        // Cut inside the second block's second event record.
        let second_block_events = HEADER + block(4) + 16;
        buf.truncate(second_block_events + 8 + 5);
        let err = read_trace_blocks(buf.as_slice()).unwrap_err();
        match err {
            TraceError::Truncated { offset, event, .. } => {
                assert_eq!(offset, second_block_events as u64 + 8);
                assert_eq!(event, Some((1, 4)));
            }
            other => panic!("expected Truncated, got {other}"),
        }
    }

    #[test]
    fn reordered_blocks_are_a_chunk_mismatch() {
        let trace = sample();
        let mut buf = Vec::new();
        write_trace_blocks(&trace, &mut buf, 2).unwrap();
        // Swap the first two (equal-sized) blocks: each is internally
        // consistent, so only the chunk sequence can reveal the damage.
        let (start, mid) = (HEADER, HEADER + block(2));
        for i in 0..block(2) {
            buf.swap(start + i, mid + i);
        }
        let err = read_trace_blocks(buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), "corrupt", "{err}");
        assert!(err.to_string().contains("chunk-seed mismatch"), "{err}");
    }

    #[test]
    fn any_flipped_block_stream_bit_is_detected() {
        let trace = sample();
        let mut clean = Vec::new();
        write_trace_blocks(&trace, &mut clean, 3).unwrap();
        for bit in 0..clean.len() * 8 {
            let mut buf = clean.clone();
            buf[bit / 8] ^= 1 << (bit % 8);
            assert!(
                read_trace_blocks(buf.as_slice()).is_err(),
                "flip of bit {} of byte {} went undetected",
                bit % 8,
                bit / 8
            );
        }
    }

    /// The bytes of a `DSSTRB02` file are a format, not an implementation
    /// detail: this digest changes only with the magic.
    #[test]
    fn wire_format_golden() {
        // Every variant, every lock class, both directions, the extremes of
        // `Busy`, in blocks of 4.
        let t = Tracer::new(2);
        t.busy(1);
        t.read(0x1_0000_0040, 8, DataClass::Data);
        t.write(0x100_0000_0010, 4, DataClass::PrivHeap);
        t.lock_acquire(LockToken::new(0x1_0000_0000, LockClass::LockMgr));
        t.read(0x1_0000_2001, 1, DataClass::LockHash);
        t.lock_release(LockToken::new(0x1_0000_0000, LockClass::LockMgr));
        t.busy(u32::MAX);
        t.lock_acquire(LockToken::new(0x1_0000_0008, LockClass::BufMgr));
        t.write(0x1_0000_3000, 8, DataClass::BufDesc);
        t.lock_release(LockToken::new(0x1_0000_0008, LockClass::BufMgr));
        t.lock_acquire(LockToken::new(0x1_0000_0010, LockClass::Other));
        t.read(0x1_0000_4000, 2, DataClass::SharedMisc);
        t.lock_release(LockToken::new(0x1_0000_0010, LockClass::Other));
        let mut buf = Vec::new();
        write_trace_blocks(&t.take(), &mut buf, 4).unwrap();
        assert_eq!(buf.len(), HEADER + 3 * block(4) + block(1) + END);
        // Byte-wise FNV-1a of the file: independent of the format's own
        // word-wise checksum.
        let digest = buf.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!(digest, 0x62cf_dd55_4d4a_f66d);
        // And the payload is what the module says it is: the first event,
        // `Busy(1)`, as its little-endian packed word.
        assert_eq!(buf[HEADER + 16..][..8], [0, 0, 1, 0, 0, 0, 0, 0]);
    }
}
