//! Compact binary serialization of traces: the chunked block format.
//!
//! Traces run to millions of events; this fixed-width little-endian format
//! lets a workload be traced once and re-simulated elsewhere (the same
//! workflow as saving an execution-driven simulator's address trace), a
//! block at a time in bounded memory. No external dependencies: a stream is
//! eight bytes of magic and a checksummed sixteen-byte header, then blocks of
//! 17-byte event records, each block carrying its sequential chunk index and
//! an FNV-1a checksum — so a single flipped bit anywhere in the file, or a
//! block out of order, is *detected* instead of silently replayed as a
//! different workload.
//!
//! Failures never panic: malformed or truncated input comes back as a
//! structured [`TraceError`] carrying the byte offset (and, for event-level
//! failures, the event index) where decoding stopped, and the file-level
//! readers ([`salvage_scan_file`], [`crate::FileTraceSource`]) wrap the file
//! path, so a bad trace on disk is diagnosable from the error alone. A stream
//! ends with an explicit marker, so a killed writer leaves a file that reads
//! back as truncated and that [`salvage_scan`] can cut to its last valid
//! block.

use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, Read, Write};
use std::path::{Path, PathBuf};

use crate::{DataClass, Event, EventKind, LockClass, LockToken, MemRef, Trace};

/// Format magic: a stream header followed by independently checksummed event
/// blocks, so a trace can be produced and consumed incrementally with bounded
/// memory.
const BLOCK_MAGIC: &[u8; 8] = b"DSSTRB01";

/// FNV-1a 64-bit offset basis / prime, the checksum of header and blocks.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    let mut h = hash;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
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

/// Encodes one event as its 17-byte wire record. The record is wider than
/// the in-memory word and laid out differently; this and [`decode_event`]
/// are the only translation between the two.
fn encode_event(event: Event) -> [u8; 17] {
    let (tag, a, b): (u8, u64, u64) = match event.kind() {
        EventKind::Busy(n) => (0, n as u64, 0),
        EventKind::Ref(r) => {
            let meta = (r.size as u64) << 8 | (r.write as u64) << 7 | r.class.index() as u64;
            (1, r.addr, meta)
        }
        EventKind::LockAcquire(tok) => (2, tok.addr, tok.class.code() as u64),
        EventKind::LockRelease(tok) => (3, tok.addr, tok.class.code() as u64),
    };
    let mut record = [0u8; 17];
    record[0] = tag;
    record[1..9].copy_from_slice(&a.to_le_bytes());
    record[9..17].copy_from_slice(&b.to_le_bytes());
    record
}

/// An incremental writer for the chunked block format ([`BLOCK_MAGIC`]).
///
/// The stream is a header (magic, processor id, header checksum) followed by
/// any number of blocks, each independently checksummed:
///
/// ```text
/// count:u64  chunk:u64  count × 17-byte event records  fnv1a:u64
/// ```
///
/// `chunk` numbers the blocks sequentially from zero, so a reader detects
/// reordered, duplicated, or mis-seeded chunks (e.g. from a buggy parallel
/// producer) as corruption instead of replaying a scrambled workload. A
/// zero-count block terminates the stream; a stream cut before that marker
/// is reported as truncated. Nothing about the stream's total length is
/// promised up front, so a producer can emit blocks as it generates them and
/// never hold more than one block in memory.
pub struct BlockWriter<W: Write> {
    w: W,
    next_chunk: u64,
    finished: bool,
}

impl<W: Write> BlockWriter<W> {
    /// Starts a block stream for `proc_id`, writing the stream header.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn new(mut w: W, proc_id: usize) -> io::Result<Self> {
        w.write_all(BLOCK_MAGIC)?;
        let id = (proc_id as u64).to_le_bytes();
        w.write_all(&id)?;
        w.write_all(&fnv1a(FNV_OFFSET, &id).to_le_bytes())?;
        Ok(BlockWriter {
            w,
            next_chunk: 0,
            finished: false,
        })
    }

    /// Appends one block of events. Empty blocks are skipped (a zero count is
    /// the end-of-stream marker).
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
        if events.is_empty() {
            return Ok(());
        }
        let mut hash = FNV_OFFSET;
        let mut put = |w: &mut W, bytes: &[u8]| -> io::Result<()> {
            hash = fnv1a(hash, bytes);
            w.write_all(bytes)
        };
        put(&mut self.w, &(events.len() as u64).to_le_bytes())?;
        put(&mut self.w, &self.next_chunk.to_le_bytes())?;
        for &event in events {
            put(&mut self.w, &encode_event(event))?;
        }
        self.w.write_all(&hash.to_le_bytes())?;
        self.next_chunk += 1;
        Ok(())
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
        let mut hash = FNV_OFFSET;
        let zero = 0u64.to_le_bytes();
        let chunk = self.next_chunk.to_le_bytes();
        hash = fnv1a(hash, &zero);
        hash = fnv1a(hash, &chunk);
        self.w.write_all(&zero)?;
        self.w.write_all(&chunk)?;
        self.w.write_all(&hash.to_le_bytes())?;
        self.w.flush()
    }

    /// Resumes a block stream whose header and first `next_chunk` blocks are
    /// already durable in `w` — the crash-recovery counterpart of
    /// [`BlockWriter::new`]. No header is written; the caller must have
    /// positioned `w` exactly at the end of a prefix validated by
    /// [`salvage_scan`] (so the next block's chunk index is `next_chunk`).
    pub fn resume(w: W, next_chunk: u64) -> Self {
        BlockWriter {
            w,
            next_chunk,
            finished: false,
        }
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
    r: CountingReader<R>,
    proc_id: usize,
    next_chunk: u64,
    done: bool,
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
        let mut r = CountingReader {
            inner: r,
            offset: 0,
            hash: FNV_OFFSET,
            hashing: false,
        };
        let mut magic = [0u8; 8];
        r.fill(&mut magic, "block stream magic", None)?;
        if &magic != BLOCK_MAGIC {
            return Err(TraceError::BadMagic { found: magic });
        }
        let mut word = [0u8; 8];
        r.hashing = true;
        r.hash = FNV_OFFSET;
        r.fill(&mut word, "block stream header", None)?;
        let proc_id = u64::from_le_bytes(word) as usize;
        r.hashing = false;
        let computed = r.hash;
        r.fill(&mut word, "block stream header checksum", None)?;
        let stored = u64::from_le_bytes(word);
        if stored != computed {
            return Err(TraceError::ChecksumMismatch { stored, computed });
        }
        Ok(BlockReader {
            r,
            proc_id,
            next_chunk: 0,
            done: false,
        })
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
    /// end marker, [`TraceError::Corrupt`] for impossible record values or a
    /// block whose chunk index breaks the expected sequence (a chunk-seed or
    /// chunk-order mismatch from a bad producer), and
    /// [`TraceError::ChecksumMismatch`] when a block's bytes do not hash to
    /// its stored checksum.
    pub fn next_block(&mut self, buf: &mut Vec<Event>) -> Result<usize, TraceError> {
        buf.clear();
        if self.done {
            return Ok(0);
        }
        let r = &mut self.r;
        r.hashing = true;
        r.hash = FNV_OFFSET;
        let mut word = [0u8; 8];
        let header_at = r.fill(&mut word, "block header", None)?;
        let n = u64::from_le_bytes(word) as usize;
        r.fill(&mut word, "block header", None)?;
        let chunk = u64::from_le_bytes(word);
        if chunk != self.next_chunk {
            return Err(TraceError::Corrupt {
                offset: header_at,
                event: None,
                what: format!(
                    "chunk-seed mismatch: block claims chunk {chunk} where chunk {} was \
                     expected — the stream was produced or assembled out of order",
                    self.next_chunk
                ),
            });
        }
        let mut record = [0u8; 17];
        buf.reserve(n.min(1 << 24));
        for i in 0..n {
            let start = r.fill(&mut record, "event record", Some((i, n)))?;
            buf.push(decode_event(&record, start, (i, n))?);
        }
        r.hashing = false;
        let computed = r.hash;
        r.fill(&mut word, "block checksum", None)?;
        let stored = u64::from_le_bytes(word);
        if stored != computed {
            return Err(TraceError::ChecksumMismatch { stored, computed });
        }
        if n == 0 {
            self.done = true;
        } else {
            self.next_chunk += 1;
        }
        Ok(n)
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

/// What [`salvage_scan`] found in a (possibly torn) block stream: the length
/// of the longest checksum-valid prefix and whether the end marker was seen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SalvageScan {
    /// The processor id from the stream header.
    pub proc_id: usize,
    /// Number of checksum-valid event blocks in the prefix (the chunk index
    /// the next appended block must carry).
    pub blocks: u64,
    /// Number of events in those blocks.
    pub events: u64,
    /// Byte length of the valid prefix: header plus whole valid blocks, and
    /// the end marker when `complete`. Truncating the file to this length
    /// yields a stream a resumed writer can append to.
    pub valid_len: u64,
    /// Whether the end-of-stream marker was reached — i.e. the stream is a
    /// whole trace, not a crashed writer's prefix.
    pub complete: bool,
}

/// Scans a block stream for crash recovery: reads forward block by block and
/// stops at the first damage (truncation, corruption, checksum mismatch)
/// instead of failing, reporting the longest valid prefix. A writer killed
/// mid-stream leaves a file this scan salvages down to the last
/// checksum-valid block; [`BlockWriter::resume`] can then append the rest.
///
/// # Errors
///
/// Header damage is not salvageable — there is nothing valid to keep — so
/// [`TraceError::BadMagic`], a truncated header, or a header checksum
/// mismatch is returned as the error it is. [`TraceError::Io`] transport
/// errors also propagate: a failing disk is not a decidable salvage. Damage
/// *after* the header is never an error; it just ends the valid prefix.
pub fn salvage_scan<R: Read>(r: R) -> Result<SalvageScan, TraceError> {
    let mut br = BlockReader::new(r)?;
    let mut scan = SalvageScan {
        proc_id: br.proc_id(),
        blocks: 0,
        events: 0,
        valid_len: br.r.offset,
        complete: false,
    };
    let mut buf = Vec::new();
    loop {
        match br.next_block(&mut buf) {
            Ok(0) => {
                scan.complete = true;
                scan.valid_len = br.r.offset;
                return Ok(scan);
            }
            Ok(n) => {
                scan.blocks += 1;
                scan.events += n as u64;
                scan.valid_len = br.r.offset;
            }
            Err(e @ TraceError::Io { .. }) => return Err(e),
            Err(_) => return Ok(scan),
        }
    }
}

/// Runs [`salvage_scan`] over the file at `path`.
///
/// # Errors
///
/// As [`salvage_scan`] (plus the file-open error), wrapped in
/// [`TraceError::InFile`] naming the path.
pub fn salvage_scan_file(path: &Path) -> Result<SalvageScan, TraceError> {
    let run = || -> Result<SalvageScan, TraceError> {
        let file = File::open(path).map_err(|source| TraceError::Io { offset: 0, source })?;
        salvage_scan(BufReader::new(file))
    };
    run().map_err(|e| TraceError::InFile {
        path: path.to_path_buf(),
        source: Box::new(e),
    })
}

/// A reader that remembers how many bytes it has yielded and hashes them, so
/// decode errors can report where in the stream they happened and the
/// trailing checksum can be verified.
#[derive(Debug)]
struct CountingReader<R> {
    inner: R,
    offset: u64,
    hash: u64,
    hashing: bool,
}

impl<R: Read> CountingReader<R> {
    /// Reads exactly `buf.len()` bytes, classifying a short read as
    /// [`TraceError::Truncated`] over `expected` at the offset where the
    /// record began.
    fn fill(
        &mut self,
        buf: &mut [u8],
        expected: &'static str,
        event: Option<(usize, usize)>,
    ) -> Result<u64, TraceError> {
        let start = self.offset;
        let mut filled = 0;
        while filled < buf.len() {
            match self.inner.read(&mut buf[filled..]) {
                Ok(0) => {
                    return Err(TraceError::Truncated {
                        offset: start,
                        expected,
                        event,
                    })
                }
                Ok(n) => {
                    filled += n;
                    self.offset += n as u64;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(source) => {
                    return Err(TraceError::Io {
                        offset: self.offset,
                        source,
                    })
                }
            }
        }
        if self.hashing {
            self.hash = fnv1a(self.hash, buf);
        }
        Ok(start)
    }
}

/// Decodes one 17-byte event record beginning at byte `offset`. A record
/// the packed [`Event`] cannot hold — an address at or past
/// [`Event::ADDR_LIMIT`], a size past [`Event::MAX_REF_SIZE`], an unknown
/// class — is [`TraceError::Corrupt`] here, so a file can never reach the
/// constructors' assertions.
fn decode_event(
    record: &[u8; 17],
    offset: u64,
    event: (usize, usize),
) -> Result<Event, TraceError> {
    let corrupt = |what: String| TraceError::Corrupt {
        offset,
        event: Some(event),
        what,
    };
    let a = u64::from_le_bytes([
        record[1], record[2], record[3], record[4], record[5], record[6], record[7], record[8],
    ]);
    let b = u64::from_le_bytes([
        record[9], record[10], record[11], record[12], record[13], record[14], record[15],
        record[16],
    ]);
    let addr = || {
        if a < Event::ADDR_LIMIT {
            Ok(a)
        } else {
            Err(corrupt(format!("address {a:#x} beyond the 48-bit space")))
        }
    };
    let lock = || {
        Ok(LockToken::new(
            addr()?,
            lock_from(b as u8).map_err(corrupt)?,
        ))
    };
    Ok(match record[0] {
        0 => Event::busy(a as u32),
        1 => {
            let class = class_from(b as u8 & 0x7f).map_err(corrupt)?;
            let size = (b >> 8) as u16;
            if size > Event::MAX_REF_SIZE {
                return Err(corrupt(format!("bad reference size {size}")));
            }
            Event::reference(MemRef {
                addr: addr()?,
                size,
                write: b & 0x80 != 0,
                class,
            })
        }
        2 => Event::lock_acquire(lock()?),
        3 => Event::lock_release(lock()?),
        other => return Err(corrupt(format!("unknown event tag {other}"))),
    })
}

fn class_from(code: u8) -> Result<DataClass, String> {
    DataClass::ALL
        .get(code as usize)
        .copied()
        .ok_or_else(|| format!("bad class {code}"))
}

fn lock_from(code: u8) -> Result<LockClass, String> {
    LockClass::from_code(code).ok_or_else(|| format!("bad lock class {code}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tracer;

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
        buf.truncate(buf.len() - 24 - 8); // end marker, then the block's checksum
        let err = read_trace_blocks(buf.as_slice()).unwrap_err();
        match err {
            TraceError::Truncated { expected, .. } => assert_eq!(expected, "block checksum"),
            other => panic!("expected Truncated, got {other}"),
        }
    }

    #[test]
    fn bad_event_tag_is_rejected() {
        let mut buf = Vec::new();
        write_trace_blocks(&sample(), &mut buf, 3).unwrap();
        // Corrupt the first event's tag byte (stream header, block header).
        buf[24 + 16] = 9;
        let err = read_trace_blocks(buf.as_slice()).unwrap_err();
        // The tag error is reported before the block checksum is reached.
        match &err {
            TraceError::Corrupt { what, event, .. } => {
                assert!(what.contains("unknown event tag 9"), "{err}");
                assert_eq!(*event, Some((0, 3)));
            }
            other => panic!("expected Corrupt, got {other}"),
        }
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
            24 + blocks * (16 + 8) + trace.events.len() * 17 + 24,
            "header, per-block framing, 17 bytes an event, end marker"
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
        buf.truncate(buf.len() - 24); // drop the end marker
        let err = read_trace_blocks(buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), "truncated", "{err}");
    }

    #[test]
    fn block_cut_mid_event_is_truncated_with_event_context() {
        let trace = sample();
        let mut buf = Vec::new();
        write_trace_blocks(&trace, &mut buf, 4).unwrap();
        // Cut inside the second block's first event record.
        let second_block_events = 24 + (16 + 4 * 17 + 8) + 16;
        buf.truncate(second_block_events + 9);
        let err = read_trace_blocks(buf.as_slice()).unwrap_err();
        match err {
            TraceError::Truncated { offset, event, .. } => {
                assert_eq!(offset, second_block_events as u64);
                assert_eq!(event, Some((0, 4)));
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
        let block = 16 + 2 * 17 + 8;
        let (start, mid) = (24, 24 + block);
        for i in 0..block {
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
        for pos in 0..clean.len() {
            let mut buf = clean.clone();
            buf[pos] ^= 1 << (pos % 8);
            assert!(
                read_trace_blocks(buf.as_slice()).is_err(),
                "flip at byte {pos} went undetected"
            );
        }
    }

    #[test]
    fn salvage_scan_reports_complete_streams() {
        let trace = sample();
        let mut buf = Vec::new();
        write_trace_blocks(&trace, &mut buf, 3).unwrap();
        let scan = salvage_scan(buf.as_slice()).unwrap();
        assert_eq!(scan.proc_id, trace.proc_id);
        assert_eq!(scan.blocks, 3, "8 events in blocks of 3");
        assert_eq!(scan.events, trace.events.len() as u64);
        assert_eq!(scan.valid_len, buf.len() as u64);
        assert!(scan.complete);
    }

    #[test]
    fn salvage_scan_stops_at_the_last_valid_block() {
        let trace = sample();
        let mut buf = Vec::new();
        write_trace_blocks(&trace, &mut buf, 3).unwrap();
        let block = |n: usize| 16 + n * 17 + 8;
        // Cut inside the second block: only the first survives.
        let first_end = 24 + block(3);
        let mut torn = buf.clone();
        torn.truncate(first_end + 20);
        let scan = salvage_scan(torn.as_slice()).unwrap();
        assert_eq!(
            (scan.blocks, scan.events, scan.valid_len, scan.complete),
            (1, 3, first_end as u64, false)
        );
        // A flipped bit in the second block ends the prefix at the same place.
        let mut flipped = buf.clone();
        flipped[first_end + 20] ^= 0x40;
        let scan = salvage_scan(flipped.as_slice()).unwrap();
        assert_eq!((scan.blocks, scan.valid_len), (1, first_end as u64));
        // A stream cut right before the end marker keeps every block but is
        // not complete.
        let mut unfinished = buf.clone();
        unfinished.truncate(buf.len() - 24);
        let scan = salvage_scan(unfinished.as_slice()).unwrap();
        assert_eq!((scan.blocks, scan.complete), (3, false));
        assert_eq!(scan.valid_len, (buf.len() - 24) as u64);
    }

    #[test]
    fn salvage_scan_rejects_damaged_headers() {
        // Nothing before a valid header is salvageable.
        assert_eq!(salvage_scan(&b""[..]).unwrap_err().kind(), "truncated");
        assert_eq!(
            salvage_scan(&b"NOTATRCE"[..]).unwrap_err().kind(),
            "bad-magic"
        );
        let mut buf = Vec::new();
        write_trace_blocks(&sample(), &mut buf, 3).unwrap();
        buf.truncate(20); // mid-header
        assert_eq!(
            salvage_scan(buf.as_slice()).unwrap_err().kind(),
            "truncated"
        );
    }

    #[test]
    fn resumed_writer_completes_a_salvaged_prefix() {
        let trace = sample();
        let mut whole = Vec::new();
        write_trace_blocks(&trace, &mut whole, 3).unwrap();
        // Crash after two blocks: keep the valid prefix, then append the
        // remaining blocks through a resumed writer.
        let mut torn = whole.clone();
        torn.truncate(24 + 2 * (16 + 3 * 17 + 8) + 5);
        let scan = salvage_scan(torn.as_slice()).unwrap();
        assert_eq!(scan.blocks, 2);
        let mut buf = torn[..scan.valid_len as usize].to_vec();
        let mut bw = BlockWriter::resume(&mut buf, scan.blocks);
        bw.write_block(&trace.events[scan.events as usize..])
            .unwrap();
        bw.finish().unwrap();
        assert_eq!(buf, whole, "salvage + resume reproduces the whole stream");
        assert_eq!(read_trace_blocks(buf.as_slice()).unwrap(), trace);
    }

    /// The in-memory representation is free to change; the bytes of a
    /// `DSSTRB01` file are not. The value was captured on the commit before
    /// `Event` became a packed word.
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
        assert_eq!(buf.len(), 365);
        assert_eq!(fnv1a(FNV_OFFSET, &buf), 0x4ed4_0e52_4648_c220);
    }
}
