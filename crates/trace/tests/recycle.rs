//! A dropped [`Trace`] parks its event buffer for the thread's next
//! [`Tracer`]: whatever buffer a recording lands in, it records the same
//! events, and the list stays small, per thread and out of a streaming
//! tracer's way.
//!
//! The parked list is per-thread state, so every case runs on a thread of
//! its own ([`fresh_thread`]) and cannot see what another case dropped.

use std::cell::RefCell;
use std::ops::Range;

use dss_trace::{DataClass, LockClass, LockToken, MemRef, Trace, Tracer};

/// Runs `case` on a new thread: an empty parked list, whatever ran before.
fn fresh_thread<T: Send>(case: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| s.spawn(case).join())
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

/// Every kind of recording call, roughly as a scan operator mixes them:
/// five events an iteration and a few more.
fn record_mix(t: &Tracer, iterations: Range<u64>) {
    let lock = LockToken::new(0x1000_0000, LockClass::BufMgr);
    let private = 0x7000_0000_0000;
    for i in iterations {
        t.read(0x1000_0040 + i * 48, 8, DataClass::Data);
        t.refs([
            MemRef::load(private + (i * 136) % 8192, 8, DataClass::PrivHeap),
            MemRef::store(private + (i * 88) % 4096, 8, DataClass::PrivHeap),
        ]);
        t.busy(12);
        if i % 16 == 0 {
            t.lock_acquire(lock);
            t.write(0x1000_0008, 4, DataClass::BufDesc);
            t.lock_release(lock);
            t.copy(
                0x1000_0100,
                DataClass::Data,
                private,
                DataClass::PrivHeap,
                20,
            );
        }
    }
}

fn recorded(proc_id: usize, iterations: u64) -> Trace {
    let t = Tracer::new(proc_id);
    record_mix(&t, 0..iterations);
    t.take()
}

/// The capacity a tracer created now records into: one event, taken. The
/// caller keeps the trace alive for as long as its buffer must stay unparked.
fn start_of_next_tracer() -> Trace {
    let t = Tracer::new(0);
    t.read(0x100, 8, DataClass::Data);
    t.take()
}

#[test]
fn a_recycled_buffer_records_the_same_events() {
    let on_fresh_thread = fresh_thread(|| recorded(0, 1000));
    let after_a_larger = fresh_thread(|| {
        drop(recorded(1, 5000));
        recorded(0, 1000)
    });
    let after_a_smaller = fresh_thread(|| {
        drop(recorded(1, 10));
        recorded(0, 1000)
    });
    assert!(on_fresh_thread.len() > 4000);
    assert!(after_a_larger.events.capacity() > on_fresh_thread.events.capacity());
    assert_eq!(after_a_larger, on_fresh_thread);
    assert_eq!(after_a_smaller, on_fresh_thread);
}

#[test]
fn at_most_four_buffers_are_parked() {
    fresh_thread(|| {
        let dropped: Vec<Trace> = (0..10).map(|p| recorded(p, 200)).collect();
        let smallest = dropped.iter().map(|t| t.events.capacity()).min().unwrap();
        assert!(smallest >= 1000);
        drop(dropped);
        let later: Vec<Trace> = (0..10).map(|_| start_of_next_tracer()).collect();
        let recycled = later
            .iter()
            .filter(|t| t.events.capacity() >= smallest)
            .count();
        assert_eq!(recycled, 4, "one trace set's worth, and all of it reused");
        assert!(later.iter().all(|t| t.len() == 1));
    });
}

#[test]
fn a_streaming_tracer_keeps_its_one_block() {
    const BLOCK_EVENTS: usize = 64;
    fresh_thread(|| {
        let large = [recorded(0, 2000), recorded(1, 2000)];
        let large_capacity = large[0].events.capacity();
        drop(large);
        let t = Tracer::with_sink(2, BLOCK_EVENTS, Box::new(std::io::sink())).unwrap();
        record_mix(&t, 0..200);
        assert!(t.len() < BLOCK_EVENTS);
        assert!(t.finish_sink().unwrap() > 10 * BLOCK_EVENTS as u64);
        // Sinkless again, the tracer still records into the block it was
        // given when the sink was attached: it neither grew nor adopted.
        t.read(0x100, 8, DataClass::Data);
        let block = t.take();
        assert_eq!(block.events.capacity(), BLOCK_EVENTS);
        // And both parked buffers are still there for in-memory tracers.
        let (a, b) = (start_of_next_tracer(), start_of_next_tracer());
        assert_eq!(a.events.capacity(), large_capacity);
        assert_eq!(b.events.capacity(), large_capacity);
    });
}

#[test]
fn a_trace_dropped_elsewhere_stays_elsewhere() {
    thread_local! {
        /// A trace its thread still owns when it exits.
        static HELD: RefCell<Option<Trace>> = const { RefCell::new(None) };
    }
    fresh_thread(|| {
        let trace = recorded(0, 2000);
        let capacity = trace.events.capacity();
        // Dropped on another thread: parked there, reused there.
        fresh_thread(move || {
            drop(trace);
            assert_eq!(start_of_next_tracer().events.capacity(), capacity);
        });
        // Dropped by thread-local destructors while the thread exits, with
        // the parked list created after the holder and before it: whichever
        // is destroyed first, the drop must not panic (that would abort).
        fresh_thread(|| {
            HELD.with(|held| *held.borrow_mut() = Some(recorded(1, 2000)));
            drop(recorded(2, 10));
        });
        fresh_thread(|| {
            drop(recorded(2, 10));
            HELD.with(|held| *held.borrow_mut() = Some(recorded(1, 2000)));
        });
        // None of those buffers reached this thread.
        assert!(start_of_next_tracer().events.capacity() < capacity);
    });
}

#[test]
fn recording_continues_in_program_order_after_take() {
    fresh_thread(|| {
        let whole = recorded(0, 300);
        let t = Tracer::new(0);
        record_mix(&t, 0..200);
        let first = t.take();
        let (mut events, capacity) = (first.events.clone(), first.events.capacity());
        // Dropped, the first part parks its buffer, and the same tracer,
        // empty-handed after `take`, records the rest into it.
        drop(first);
        record_mix(&t, 200..300);
        let rest = t.take();
        assert_eq!(rest.events.capacity(), capacity);
        events.extend(&rest);
        assert_eq!(events, whole.events);
    });
}
