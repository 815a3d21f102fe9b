//! Block files with a stopwatch on the file system side.
//!
//! The traced rep of `streamed` writes block files with `BlockWriter` and
//! replays them with `BlockReader::next_block` exactly as `dss-core` does —
//! through 8 KB buffered file handles, a block at a time, never holding a
//! whole trace — but wraps the raw file in a reader or writer that times
//! each call into the operating system. Codec time is then the time inside
//! `write_block` / `next_block` minus the time inside the file.

use std::fs::File;
use std::io::{self, BufReader, Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dss_trace::{BlockReader, Event, EventStream, TraceError, TraceSource};

use crate::spans::Clock;

/// Time and bytes that went through a [`TimedFile`].
#[derive(Debug, Default)]
pub struct IoMeter {
    ns: AtomicU64,
    bytes: AtomicU64,
}

impl IoMeter {
    /// Nanoseconds spent inside `read` / `write` calls so far.
    pub fn ns(&self) -> u64 {
        self.ns.load(Relaxed)
    }

    /// Bytes transferred so far.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Relaxed)
    }

    fn note(&self, start: Instant, result: &io::Result<usize>) {
        self.ns
            .fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
        if let Ok(n) = result {
            self.bytes.fetch_add(*n as u64, Relaxed);
        }
    }
}

/// A file whose `read` and `write` calls are metered.
pub struct TimedFile {
    file: File,
    meter: Arc<IoMeter>,
}

impl TimedFile {
    /// Wraps `file`; the meter is shared so the caller can read it while a
    /// codec owns the file.
    pub fn new(file: File, meter: Arc<IoMeter>) -> TimedFile {
        TimedFile { file, meter }
    }
}

impl Read for TimedFile {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let start = Instant::now();
        let result = self.file.read(buf);
        self.meter.note(start, &result);
        result
    }
}

impl Write for TimedFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let start = Instant::now();
        let result = self.file.write(buf);
        self.meter.note(start, &result);
        result
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }
}

/// One `next_block` call, stamped on the recorder's clock.
#[derive(Clone, Copy, Debug)]
pub struct BlockTiming {
    /// When `next_block` was entered.
    pub start_ns: u64,
    /// When it returned.
    pub end_ns: u64,
    /// The part of that spent reading the file.
    pub read_ns: u64,
}

/// Per-processor block files as a [`TraceSource`] that logs every
/// `next_block` call. The same shape as `dss_trace::FileTraceSource`.
pub struct TimedFileSource {
    paths: Vec<PathBuf>,
    clock: Clock,
    log: Mutex<Vec<BlockTiming>>,
    meter: Arc<IoMeter>,
}

impl TimedFileSource {
    /// A source over `paths`, in processor order, stamping with `clock`.
    pub fn new(paths: Vec<PathBuf>, clock: Clock) -> TimedFileSource {
        TimedFileSource {
            paths,
            clock,
            log: Mutex::new(Vec::new()),
            meter: Arc::default(),
        }
    }

    /// The logged calls, in the order they happened, and the bytes read.
    pub fn into_log(self) -> (Vec<BlockTiming>, u64) {
        let log = self.log.into_inner().expect("no stream panicked mid-push");
        (log, self.meter.bytes())
    }
}

struct TimedStream<'a> {
    reader: BlockReader<BufReader<TimedFile>>,
    source: &'a TimedFileSource,
}

impl EventStream for TimedStream<'_> {
    fn proc_id(&self) -> usize {
        self.reader.proc_id()
    }

    fn next_block(&mut self, buf: &mut Vec<Event>) -> Result<usize, TraceError> {
        let read_before = self.source.meter.ns();
        let start_ns = self.source.clock.now_ns();
        let result = self.reader.next_block(buf);
        let end_ns = self.source.clock.now_ns();
        self.source
            .log
            .lock()
            .expect("no stream panicked mid-push")
            .push(BlockTiming {
                start_ns,
                end_ns,
                read_ns: self.source.meter.ns() - read_before,
            });
        result
    }
}

impl TraceSource for TimedFileSource {
    fn nprocs(&self) -> usize {
        self.paths.len()
    }

    fn open(&self) -> Result<Vec<Box<dyn EventStream + '_>>, TraceError> {
        self.paths
            .iter()
            .map(|path| {
                let in_file = |e: TraceError| TraceError::InFile {
                    path: path.clone(),
                    source: Box::new(e),
                };
                let file = File::open(path)
                    .map_err(|source| in_file(TraceError::Io { offset: 0, source }))?;
                let file = TimedFile::new(file, Arc::clone(&self.meter));
                let reader = BlockReader::new(BufReader::new(file)).map_err(in_file)?;
                Ok(Box::new(TimedStream {
                    reader,
                    source: self,
                }) as Box<dyn EventStream>)
            })
            .collect()
    }
}
