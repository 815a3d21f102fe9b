//! Streaming trace sources: the block-at-a-time contract between trace
//! producers and the memory simulator.
//!
//! The original pipeline materialized every processor's full event vector
//! before the first simulated cycle, which put peak memory on the order of
//! the trace itself — fine at the paper's 10 MB scale factor, prohibitive at
//! SF 0.1 and beyond. This module replaces that contract with two small
//! traits:
//!
//! * [`EventStream`] — one processor's trace, yielded one block of events at
//!   a time into a caller-owned buffer (so a consumer that replays blocks in
//!   place allocates one buffer per processor, ever).
//! * [`TraceSource`] — a reopenable set of per-processor streams. Opening is
//!   cheap and repeatable, so independent simulation points can each stream
//!   the same workload concurrently without sharing cursors.
//!
//! Two implementations cover both ends of the migration:
//! [`TraceSource` for `[Trace]`](TraceSource#impl-TraceSource-for-%5BTrace%5D)
//! adapts already-materialized traces (preserving every existing caller),
//! and [`FileTraceSource`] streams the chunked on-disk format written by
//! [`crate::BlockWriter`], whose per-block checksums and sequential chunk
//! indices make torn or reordered streams a classified [`TraceError`] rather
//! than a silently different workload.

use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};

use crate::io::BlockReader;
use crate::{Event, Trace, TraceError};

/// Default number of events per block when slicing a materialized trace:
/// large enough to amortize per-block overhead, small enough (512 KB of
/// events) that per-processor buffers stay trivially bounded.
pub const DEFAULT_BLOCK_EVENTS: usize = 1 << 16;

/// One processor's trace, consumed one block at a time.
pub trait EventStream {
    /// The simulated processor this stream belongs to.
    fn proc_id(&self) -> usize;

    /// Fills `buf` (cleared first) with the next block of events, returning
    /// how many were produced. Zero means the stream is exhausted; further
    /// calls must keep returning zero.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] when the underlying transport fails or the
    /// stream is malformed (truncated, corrupt, checksum mismatch).
    fn next_block(&mut self, buf: &mut Vec<Event>) -> Result<usize, TraceError>;
}

/// A reopenable set of per-processor event streams.
///
/// `Sync` is a supertrait so a source can be shared across simulation worker
/// threads; each worker opens its own streams and no cursor state is shared.
pub trait TraceSource: Sync {
    /// Number of processors (streams) the source yields.
    fn nprocs(&self) -> usize;

    /// Opens fresh streams for all processors, in processor order.
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] when a stream cannot be opened (e.g. a
    /// missing or foreign block file).
    fn open(&self) -> Result<Vec<Box<dyn EventStream + '_>>, TraceError>;
}

/// Blanket impl so `&S` is a source wherever `S` is.
impl<S: TraceSource + ?Sized> TraceSource for &S {
    fn nprocs(&self) -> usize {
        (**self).nprocs()
    }

    fn open(&self) -> Result<Vec<Box<dyn EventStream + '_>>, TraceError> {
        (**self).open()
    }
}

/// A stream over an already-materialized trace, yielding
/// [`DEFAULT_BLOCK_EVENTS`]-sized blocks.
struct SliceStream<'a> {
    trace: &'a Trace,
    pos: usize,
}

impl EventStream for SliceStream<'_> {
    fn proc_id(&self) -> usize {
        self.trace.proc_id
    }

    fn next_block(&mut self, buf: &mut Vec<Event>) -> Result<usize, TraceError> {
        buf.clear();
        let n = (self.trace.events.len() - self.pos).min(DEFAULT_BLOCK_EVENTS);
        buf.extend_from_slice(&self.trace.events[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// The materialized adapter: any slice of traces is a [`TraceSource`], so
/// every caller holding the old fully-materialized `Arc<[Trace]>` contract
/// can feed the streaming pipeline unchanged.
impl TraceSource for [Trace] {
    fn nprocs(&self) -> usize {
        self.len()
    }

    fn open(&self) -> Result<Vec<Box<dyn EventStream + '_>>, TraceError> {
        Ok(self
            .iter()
            .map(|trace| Box::new(SliceStream { trace, pos: 0 }) as Box<dyn EventStream>)
            .collect())
    }
}

/// A source restricted to the leading `n` processors of another source — the
/// streaming equivalent of simulating `&traces[..n]` for processor-scaling
/// sweeps.
pub struct ProcPrefix<S> {
    inner: S,
    n: usize,
}

impl<S: TraceSource> ProcPrefix<S> {
    /// Restricts `inner` to its first `min(n, nprocs)` processors.
    pub fn new(inner: S, n: usize) -> Self {
        ProcPrefix { inner, n }
    }
}

impl<S: TraceSource> TraceSource for ProcPrefix<S> {
    fn nprocs(&self) -> usize {
        self.inner.nprocs().min(self.n)
    }

    fn open(&self) -> Result<Vec<Box<dyn EventStream + '_>>, TraceError> {
        let mut streams = self.inner.open()?;
        streams.truncate(self.n);
        Ok(streams)
    }
}

/// A set of on-disk block streams (the [`crate::BlockWriter`] format), one
/// file per processor.
///
/// Opening is just opening files, so any number of simulation points can
/// stream the same workload concurrently; peak memory per consumer is one
/// block buffer per processor regardless of trace length.
#[derive(Clone, Debug)]
pub struct FileTraceSource {
    paths: Vec<PathBuf>,
}

impl FileTraceSource {
    /// A source over explicit per-processor block files, in processor order.
    pub fn new(paths: Vec<PathBuf>) -> Self {
        FileTraceSource { paths }
    }

    /// The conventional block-file path for processor `p` under `dir`.
    pub fn proc_path(dir: &Path, stem: &str, p: usize) -> PathBuf {
        dir.join(format!("{stem}.p{p}.trb"))
    }

    /// The per-processor file paths, in processor order.
    pub fn paths(&self) -> &[PathBuf] {
        &self.paths
    }
}

/// A [`BlockReader`] over a file, wrapping every error with the path.
struct FileStream {
    reader: BlockReader<BufReader<File>>,
    path: PathBuf,
}

fn in_file(path: &Path, e: TraceError) -> TraceError {
    TraceError::InFile {
        path: path.to_path_buf(),
        source: Box::new(e),
    }
}

impl EventStream for FileStream {
    fn proc_id(&self) -> usize {
        self.reader.proc_id()
    }

    fn next_block(&mut self, buf: &mut Vec<Event>) -> Result<usize, TraceError> {
        self.reader
            .next_block(buf)
            .map_err(|e| in_file(&self.path, e))
    }
}

impl TraceSource for FileTraceSource {
    fn nprocs(&self) -> usize {
        self.paths.len()
    }

    fn open(&self) -> Result<Vec<Box<dyn EventStream + '_>>, TraceError> {
        self.paths
            .iter()
            .map(|path| {
                let file = File::open(path)
                    .map_err(|source| in_file(path, TraceError::Io { offset: 0, source }))?;
                let reader =
                    BlockReader::new(BufReader::new(file)).map_err(|e| in_file(path, e))?;
                Ok(Box::new(FileStream {
                    reader,
                    path: path.clone(),
                }) as Box<dyn EventStream>)
            })
            .collect()
    }
}

/// Drains a source into fully-materialized traces — the bridge back from the
/// streaming world for consumers that need random access (tests, analyzers).
///
/// # Errors
///
/// Propagates the first stream error.
pub fn materialize<S: TraceSource + ?Sized>(src: &S) -> Result<Vec<Trace>, TraceError> {
    let mut traces = Vec::with_capacity(src.nprocs());
    let mut block = Vec::new();
    for mut stream in src.open()? {
        let mut events = Vec::new();
        while stream.next_block(&mut block)? > 0 {
            events.extend_from_slice(&block);
        }
        traces.push(Trace {
            proc_id: stream.proc_id(),
            events,
        });
    }
    Ok(traces)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{write_trace_blocks, DataClass, Tracer};

    fn sample(nprocs: usize, events_per_proc: usize) -> Vec<Trace> {
        (0..nprocs)
            .map(|p| {
                let t = Tracer::new(p);
                for i in 0..events_per_proc as u64 {
                    t.read(0x1_0000_0000 + i * 8, 8, DataClass::Data);
                }
                t.take()
            })
            .collect()
    }

    #[test]
    fn slice_source_roundtrips() {
        let traces = sample(3, 100);
        let back = materialize(&traces[..]).unwrap();
        assert_eq!(back, traces);
    }

    #[test]
    fn slice_source_blocks_are_bounded() {
        let traces = sample(1, DEFAULT_BLOCK_EVENTS + 7);
        let mut streams = traces[..].open().unwrap();
        let mut buf = Vec::new();
        assert_eq!(
            streams[0].next_block(&mut buf).unwrap(),
            DEFAULT_BLOCK_EVENTS
        );
        assert_eq!(streams[0].next_block(&mut buf).unwrap(), 7);
        assert_eq!(streams[0].next_block(&mut buf).unwrap(), 0);
        assert_eq!(
            streams[0].next_block(&mut buf).unwrap(),
            0,
            "stays exhausted"
        );
    }

    #[test]
    fn prefix_limits_processors() {
        let traces = sample(4, 10);
        let prefix = ProcPrefix::new(&traces[..], 2);
        assert_eq!(prefix.nprocs(), 2);
        let back = materialize(&prefix).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back, traces[..2]);
        // A prefix wider than the source is the source.
        assert_eq!(ProcPrefix::new(&traces[..], 9).nprocs(), 4);
    }

    #[test]
    fn file_source_roundtrips_and_reopens() {
        let dir = std::env::temp_dir().join("dss-trace-source-test");
        std::fs::create_dir_all(&dir).unwrap();
        let traces = sample(2, 500);
        let paths: Vec<PathBuf> = traces
            .iter()
            .map(|t| FileTraceSource::proc_path(&dir, "q", t.proc_id))
            .collect();
        for (t, path) in traces.iter().zip(&paths) {
            let mut buf = Vec::new();
            write_trace_blocks(t, &mut buf, 64).unwrap();
            std::fs::write(path, buf).unwrap();
        }
        let src = FileTraceSource::new(paths);
        assert_eq!(src.nprocs(), 2);
        // Two independent opens see the same events.
        assert_eq!(materialize(&src).unwrap(), traces);
        assert_eq!(materialize(&src).unwrap(), traces);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_source_errors_name_the_path() {
        let src = FileTraceSource::new(vec![PathBuf::from("/no/such/file.trb")]);
        let err = match src.open() {
            Err(e) => e,
            Ok(_) => panic!("opening a missing file must fail"),
        };
        assert_eq!(err.kind(), "io");
        assert!(err.to_string().contains("file.trb"), "{err}");
    }
}
