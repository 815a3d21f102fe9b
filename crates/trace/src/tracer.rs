//! The recording handle threaded through the database engine.

use std::cell::{RefCell, RefMut};
use std::io::{self, Write};
use std::rc::Rc;

use crate::io::BlockWriter;
use crate::{DataClass, Event, LockToken, MemRef};

/// Maximum width of a single emitted reference; wider accesses are split.
const MAX_REF_BYTES: u64 = 8;

/// Event buffers a thread keeps for its next tracers: one trace set of the
/// paper's four-node machine.
const PARKED_BUFFERS: usize = 4;

thread_local! {
    /// The cleared allocations of traces dropped on this thread, most recent
    /// last. A buffer of tens of megabytes that goes back to the allocator
    /// goes back to the kernel, and the next tracer pays a page fault per
    /// 4 KiB to grow the same buffer again; parked here, it is touched once.
    static PARKED: RefCell<Vec<Vec<Event>>> = const { RefCell::new(Vec::new()) };
}

/// A recorded per-processor reference trace.
///
/// Dropping one parks its cleared event buffer (the thread keeps at most
/// four) for the next in-memory [`Tracer`] on that thread to record into, so
/// `events` may have more capacity than a recording needed; whoever keeps a
/// trace for long can `shrink_to_fit` it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    /// The simulated processor that produced this trace.
    pub proc_id: usize,
    /// The events, in program order.
    pub events: Vec<Event>,
}

impl Drop for Trace {
    fn drop(&mut self) {
        if self.events.capacity() == 0 {
            return;
        }
        let mut events = std::mem::take(&mut self.events);
        events.clear();
        // During thread teardown the list may be gone already, and a full
        // list keeps what it has: either way the closure's buffer just frees.
        let _ = PARKED.try_with(move |parked| {
            let mut parked = parked.borrow_mut();
            if parked.len() < PARKED_BUFFERS {
                parked.push(events);
            }
        });
    }
}

impl Trace {
    /// Creates an empty trace for `proc_id`.
    pub fn new(proc_id: usize) -> Self {
        Trace {
            proc_id,
            events: Vec::new(),
        }
    }

    /// Number of events in the trace.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterates over the events in program order.
    pub fn iter(&self) -> std::slice::Iter<'_, Event> {
        self.events.iter()
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a Event;
    type IntoIter = std::slice::Iter<'a, Event>;
    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

/// A block sink draining the buffer to a [`BlockWriter`] as it fills, so a
/// streaming tracer holds at most one block of events in memory.
struct Sink {
    writer: BlockWriter<Box<dyn Write>>,
    events_emitted: u64,
    /// First write failure, deferred: the engine's trace calls cannot carry
    /// errors, so the failure surfaces at [`Tracer::finish_sink`].
    error: Option<io::Error>,
}

impl std::fmt::Debug for Sink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sink")
            .field("events_emitted", &self.events_emitted)
            .field("error", &self.error)
            .finish_non_exhaustive()
    }
}

#[derive(Debug)]
struct TraceBuffer {
    events: Vec<Event>,
    /// Busy cycles accumulated since the last non-busy event, coalesced to
    /// keep traces compact.
    pending_busy: u64,
    enabled: bool,
    /// Buffered events at which a block drains to the sink; `usize::MAX`
    /// without one, so recording tests one length whether it streams or not.
    block_events: usize,
    sink: Option<Sink>,
}

impl TraceBuffer {
    /// Emits the pending busy cycles ahead of a non-busy event. Every
    /// recording call comes through here, so the test is inline and the
    /// work is not.
    #[inline]
    fn flush_busy(&mut self) {
        if self.pending_busy != 0 {
            self.emit_pending_busy();
        }
    }

    #[inline(never)]
    fn emit_pending_busy(&mut self) {
        while self.pending_busy > 0 {
            let chunk = self.pending_busy.min(u32::MAX as u64) as u32;
            self.push(Event::busy(chunk));
            self.pending_busy -= chunk as u64;
        }
    }

    /// Appends one event, draining a full block to the sink when streaming.
    #[inline]
    fn push(&mut self, event: Event) {
        if self.events.capacity() == 0 {
            self.adopt_parked();
        }
        self.events.push(event);
        if self.events.len() >= self.block_events {
            self.drain_block();
        }
    }

    /// The first event of an in-memory recording: record into the buffer the
    /// thread's most recently dropped [`Trace`] left behind, if any. A
    /// streaming tracer owns one block from the start and never gets here.
    #[cold]
    #[inline(never)]
    fn adopt_parked(&mut self) {
        if self.sink.is_none() {
            if let Ok(Some(parked)) = PARKED.try_with(|parked| parked.borrow_mut().pop()) {
                self.events = parked;
            }
        }
    }

    #[inline(never)]
    fn drain_block(&mut self) {
        // `block_events` is finite only while a sink is attached.
        let Some(sink) = &mut self.sink else { return };
        if sink.error.is_none() {
            if let Err(e) = sink.writer.write_block(&self.events) {
                sink.error = Some(e);
            }
        }
        sink.events_emitted += self.events.len() as u64;
        self.events.clear();
    }
}

/// A cheaply clonable recording handle for one simulated processor.
///
/// The engine's layers (buffer cache, lock manager, b-tree, executor) all
/// receive a `Tracer` and emit classified references through it. Cloning
/// shares the underlying buffer, so a single processor's components append to
/// one program-ordered stream.
///
/// Recording can be disabled (see [`Tracer::set_enabled`]) to build the
/// database image or run cache warm-up work without recording it.
///
/// # Example
///
/// ```
/// use dss_trace::{DataClass, Tracer};
///
/// let t = Tracer::new(0);
/// t.copy(0x1000, DataClass::Data, 0x9000, DataClass::PrivHeap, 24);
/// // 24 bytes copied in 8-byte strides: 3 loads + 3 stores.
/// assert_eq!(t.take().events.len(), 6);
/// ```
#[derive(Clone, Debug)]
pub struct Tracer {
    proc_id: usize,
    buf: Rc<RefCell<TraceBuffer>>,
}

impl Tracer {
    /// Creates an enabled tracer for simulated processor `proc_id`.
    pub fn new(proc_id: usize) -> Self {
        Tracer {
            proc_id,
            buf: Rc::new(RefCell::new(TraceBuffer {
                events: Vec::new(),
                pending_busy: 0,
                enabled: true,
                block_events: usize::MAX,
                sink: None,
            })),
        }
    }

    /// Creates a tracer that discards everything (for untraced setup work).
    pub fn disabled() -> Self {
        let t = Tracer::new(usize::MAX);
        t.set_enabled(false);
        t
    }

    /// Creates a streaming tracer: recorded events drain to `w` as
    /// [`crate::BlockWriter`] blocks of `block_events` events, so the tracer
    /// holds at most one block in memory however long the recording runs.
    /// The stream header is written immediately; call
    /// [`Tracer::finish_sink`] when recording ends to flush the final
    /// partial block and the end-of-stream marker.
    ///
    /// # Errors
    ///
    /// Propagates the header write failure. Later write failures are
    /// deferred and surface at [`Tracer::finish_sink`].
    ///
    /// # Panics
    ///
    /// Panics if `block_events` is zero.
    pub fn with_sink(proc_id: usize, block_events: usize, w: Box<dyn Write>) -> io::Result<Self> {
        assert!(block_events > 0, "block_events must be positive");
        let writer = BlockWriter::new(w, proc_id)?;
        let t = Tracer::new(proc_id);
        {
            let mut buf = t.buf.borrow_mut();
            // The one block a streaming tracer ever holds, so it never regrows.
            buf.events.reserve_exact(block_events);
            buf.block_events = block_events;
            buf.sink = Some(Sink {
                writer,
                events_emitted: 0,
                error: None,
            });
        }
        Ok(t)
    }

    /// Ends a streaming recording: flushes pending busy cycles, the final
    /// partial block, and the end-of-stream marker, returning the total
    /// number of events emitted. The tracer reverts to plain in-memory
    /// recording afterwards.
    ///
    /// # Errors
    ///
    /// Surfaces the first deferred block-write failure, or the final
    /// flush/marker failure.
    ///
    /// # Panics
    ///
    /// Panics if the tracer has no sink (not created by
    /// [`Tracer::with_sink`], or already finished).
    pub fn finish_sink(&self) -> io::Result<u64> {
        let mut buf = self.buf.borrow_mut();
        buf.flush_busy();
        #[expect(clippy::expect_used, reason = "a sinkless tracer is a caller bug")]
        let mut sink = buf.sink.take().expect("finish_sink on a sinkless tracer");
        buf.block_events = usize::MAX;
        if let Some(e) = sink.error.take() {
            return Err(e);
        }
        sink.writer.write_block(&buf.events)?;
        sink.events_emitted += buf.events.len() as u64;
        buf.events.clear();
        sink.writer.finish()?;
        Ok(sink.events_emitted)
    }

    /// The simulated processor this tracer records for.
    pub fn proc_id(&self) -> usize {
        self.proc_id
    }

    /// Enables or disables recording.
    pub fn set_enabled(&self, enabled: bool) {
        self.buf.borrow_mut().enabled = enabled;
    }

    /// Number of events recorded so far (excluding coalesced pending busy).
    pub fn len(&self) -> usize {
        self.buf.borrow().events.len()
    }

    /// Whether no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0 && self.buf.borrow().pending_busy == 0
    }

    /// Records a load of `size` bytes at `addr`, split into at most 8-byte
    /// references.
    #[inline]
    pub fn read(&self, addr: u64, size: u64, class: DataClass) {
        self.access(addr, size, false, class);
    }

    /// Records a store of `size` bytes at `addr`, split into at most 8-byte
    /// references.
    #[inline]
    pub fn write(&self, addr: u64, size: u64, class: DataClass) {
        self.access(addr, size, true, class);
    }

    /// Records a run of references as given (the caller has split them into
    /// words of at most 8 bytes), in iteration order: the events one
    /// [`Tracer::read`] or [`Tracer::write`] per reference would record, for
    /// one buffer borrow and one enabled test. An empty run records nothing
    /// and leaves pending busy cycles coalescing — only an event ends a busy
    /// run.
    #[inline]
    pub fn refs(&self, refs: impl IntoIterator<Item = MemRef>) {
        let mut buf = self.buf.borrow_mut();
        if !buf.enabled {
            return;
        }
        let mut refs = refs.into_iter();
        let Some(first) = refs.next() else { return };
        buf.flush_busy();
        buf.push(Event::reference(first));
        for r in refs {
            buf.push(Event::reference(r));
        }
    }

    /// Records a memory-to-memory copy: paired loads from `src` and stores to
    /// `dst` in 8-byte strides, as a word-copy loop would issue them. A
    /// zero-length copy records nothing.
    #[inline]
    pub fn copy(&self, src: u64, src_class: DataClass, dst: u64, dst_class: DataClass, len: u64) {
        if len == 0 {
            return;
        }
        let Some(mut buf) = self.recording() else {
            return;
        };
        for (off, size) in words(len) {
            buf.push(Event::reference(MemRef::load(src + off, size, src_class)));
            buf.push(Event::reference(MemRef::store(dst + off, size, dst_class)));
        }
    }

    /// Records `cycles` of non-memory work. Consecutive busy charges are
    /// coalesced into a single event.
    #[inline]
    pub fn busy(&self, cycles: u32) {
        let mut buf = self.buf.borrow_mut();
        if buf.enabled {
            buf.pending_busy += cycles as u64;
        }
    }

    /// Records a metalock acquisition.
    #[inline]
    pub fn lock_acquire(&self, token: LockToken) {
        if let Some(mut buf) = self.recording() {
            buf.push(Event::lock_acquire(token));
        }
    }

    /// Records a metalock release.
    #[inline]
    pub fn lock_release(&self, token: LockToken) {
        if let Some(mut buf) = self.recording() {
            buf.push(Event::lock_release(token));
        }
    }

    /// Drains the recorded events into a [`Trace`], leaving the tracer empty
    /// (and still usable).
    pub fn take(&self) -> Trace {
        let mut buf = self.buf.borrow_mut();
        buf.flush_busy();
        Trace {
            proc_id: self.proc_id,
            events: std::mem::take(&mut buf.events),
        }
    }

    /// Borrows the buffer to append events, the pending busy cycles emitted
    /// ahead of them; `None` while recording is disabled.
    #[inline]
    fn recording(&self) -> Option<RefMut<'_, TraceBuffer>> {
        let mut buf = self.buf.borrow_mut();
        if !buf.enabled {
            return None;
        }
        buf.flush_busy();
        Some(buf)
    }

    #[inline]
    fn access(&self, addr: u64, size: u64, write: bool, class: DataClass) {
        let Some(mut buf) = self.recording() else {
            return;
        };
        for (off, size) in words(size) {
            buf.push(Event::reference(MemRef {
                addr: addr + off,
                size,
                write,
                class,
            }));
        }
    }
}

/// Splits `len` bytes into `(offset, width)` words of at most
/// [`MAX_REF_BYTES`], the last one short when `len` is not a multiple.
#[inline]
fn words(len: u64) -> impl Iterator<Item = (u64, u16)> {
    (0..len.div_ceil(MAX_REF_BYTES)).map(move |i| {
        let off = i * MAX_REF_BYTES;
        (off, (len - off).min(MAX_REF_BYTES) as u16)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventKind, LockClass};

    /// A shared `Vec<u8>` sink (single-threaded, like the tracer itself).
    #[derive(Clone, Default)]
    struct Shared(Rc<RefCell<Vec<u8>>>);
    impl std::io::Write for Shared {
        fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
            self.0.borrow_mut().extend_from_slice(b);
            Ok(b.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn busy_cycles_coalesce() {
        let t = Tracer::new(0);
        t.busy(10);
        t.busy(5);
        t.read(0x100, 4, DataClass::Data);
        t.busy(3);
        let trace = t.take();
        assert_eq!(
            trace.events,
            vec![
                Event::busy(15),
                Event::reference(MemRef::load(0x100, 4, DataClass::Data)),
                Event::busy(3),
            ]
        );
    }

    #[test]
    fn wide_accesses_split_into_words() {
        let t = Tracer::new(0);
        t.read(0x100, 20, DataClass::Index);
        let trace = t.take();
        assert_eq!(trace.events.len(), 3);
        assert_eq!(
            trace.events[0],
            Event::reference(MemRef::load(0x100, 8, DataClass::Index))
        );
        assert_eq!(
            trace.events[1],
            Event::reference(MemRef::load(0x108, 8, DataClass::Index))
        );
        assert_eq!(
            trace.events[2],
            Event::reference(MemRef::load(0x110, 4, DataClass::Index))
        );
    }

    #[test]
    fn copy_interleaves_loads_and_stores() {
        let t = Tracer::new(1);
        t.copy(0x100, DataClass::Data, 0x900, DataClass::PrivHeap, 16);
        let trace = t.take();
        assert_eq!(trace.proc_id, 1);
        assert_eq!(trace.events.len(), 4);
        assert!(matches!(
            trace.events[0].kind(),
            EventKind::Ref(MemRef { write: false, .. })
        ));
        assert!(matches!(
            trace.events[1].kind(),
            EventKind::Ref(MemRef {
                write: true,
                class: DataClass::PrivHeap,
                ..
            })
        ));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        t.busy(100);
        t.read(0x100, 8, DataClass::Data);
        t.lock_acquire(LockToken::new(0x10, LockClass::LockMgr));
        assert!(t.take().is_empty());
    }

    #[test]
    fn enable_toggle_resumes_recording() {
        let t = Tracer::new(0);
        t.set_enabled(false);
        t.read(0x100, 8, DataClass::Data);
        t.set_enabled(true);
        t.read(0x200, 8, DataClass::Data);
        let trace = t.take();
        assert_eq!(trace.events.len(), 1);
        assert_eq!(
            trace.events[0],
            Event::reference(MemRef::load(0x200, 8, DataClass::Data))
        );
    }

    #[test]
    fn take_leaves_tracer_reusable() {
        let t = Tracer::new(0);
        t.read(0x100, 8, DataClass::Data);
        assert_eq!(t.take().len(), 1);
        assert!(t.is_empty());
        t.read(0x200, 8, DataClass::Data);
        assert_eq!(t.take().len(), 1);
    }

    #[test]
    fn clones_share_the_buffer() {
        let t = Tracer::new(0);
        let t2 = t.clone();
        t.read(0x100, 8, DataClass::Data);
        t2.read(0x200, 8, DataClass::Index);
        let trace = t.take();
        assert_eq!(trace.events.len(), 2);
    }

    #[test]
    fn sinked_tracer_streams_blocks_and_bounds_memory() {
        use crate::read_trace_blocks;

        let out = Shared::default();
        let t = Tracer::with_sink(2, 4, Box::new(out.clone())).unwrap();
        let reference = Tracer::new(2);
        for both in [&t, &reference] {
            both.busy(10);
            for i in 0..10u64 {
                both.read(0x1000 + i * 8, 8, DataClass::Data);
            }
            both.busy(3);
        }
        // Full blocks drained as recording went: at most one block buffered.
        assert!(t.len() < 4, "buffered events stay under one block");
        assert_eq!(t.finish_sink().unwrap(), 12);
        let streamed = read_trace_blocks(out.0.borrow().as_slice()).unwrap();
        assert_eq!(streamed, reference.take(), "streaming changes no events");
        assert_eq!(streamed.proc_id, 2);
    }

    #[test]
    fn lock_events_flush_pending_busy() {
        let t = Tracer::new(0);
        t.busy(7);
        t.lock_acquire(LockToken::new(0x40, LockClass::BufMgr));
        t.lock_release(LockToken::new(0x40, LockClass::BufMgr));
        let trace = t.take();
        assert_eq!(trace.events.len(), 3);
        assert_eq!(trace.events[0], Event::busy(7));
    }

    #[test]
    fn empty_runs_leave_busy_coalesced() {
        let t = Tracer::new(0);
        t.busy(10);
        t.refs(std::iter::empty());
        t.copy(0x100, DataClass::Data, 0x900, DataClass::PrivHeap, 0);
        t.busy(5);
        t.refs([MemRef::load(0x100, 8, DataClass::Data)]);
        assert_eq!(
            t.take().events,
            vec![
                Event::busy(15),
                Event::reference(MemRef::load(0x100, 8, DataClass::Data)),
            ]
        );
    }

    #[test]
    fn disabled_tracer_records_nothing_through_refs() {
        let t = Tracer::disabled();
        t.busy(100);
        t.refs([MemRef::load(0x100, 8, DataClass::Data)]);
        t.copy(0x100, DataClass::Data, 0x900, DataClass::PrivHeap, 16);
        assert!(t.take().is_empty());
    }

    #[test]
    fn runs_split_into_blocks_where_single_references_do() {
        // 23 references with busy charges between them, as runs of 1, 7, 0,
        // 9 and 6 that meet the 4-event block boundary at every phase, then
        // a 20-byte copy (three word pairs) across one more.
        let refs: Vec<MemRef> = (0..23u64)
            .map(|i| MemRef {
                addr: 0x1000 + i * 8,
                size: 8,
                write: i % 3 == 2,
                class: DataClass::PrivHeap,
            })
            .collect();
        let record = |bulk: bool| {
            let out = Shared::default();
            let t = Tracer::with_sink(0, 4, Box::new(out.clone())).unwrap();
            let mut rest = refs.as_slice();
            for n in [1, 7, 0, 9, 6] {
                let (run, tail) = rest.split_at(n);
                if bulk {
                    t.refs(run.iter().copied());
                } else {
                    for r in run {
                        t.access(r.addr, 8, r.write, r.class);
                    }
                }
                t.busy(n as u32 + 1);
                rest = tail;
            }
            if bulk {
                t.copy(0x100, DataClass::Data, 0x900, DataClass::PrivHeap, 20);
            } else {
                for (off, size) in [(0, 8), (8, 8), (16, 4)] {
                    t.read(0x100 + off, size, DataClass::Data);
                    t.write(0x900 + off, size, DataClass::PrivHeap);
                }
            }
            let events = t.finish_sink().unwrap();
            let bytes = out.0.borrow().clone();
            (events, bytes)
        };
        let (events, bytes) = record(true);
        assert_eq!(events, 23 + 4 + 6, "the empty run splits no busy charge");
        assert_eq!((events, bytes), record(false));
    }
}
