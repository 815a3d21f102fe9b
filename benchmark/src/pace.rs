//! Host speed, measured while the benchmark runs, so that times can be
//! reported at a reference speed.
//!
//! This sandbox is a shared virtual machine whose speed is not its own: the
//! same rep of `sweep`, same binary, same seed, took anywhere from 4.5 s to
//! 8.6 s over one evening, drifting between a fast and a slow regime over
//! tens of minutes and wobbling by ±15 % within seconds. User CPU time moves
//! with wall time and steal time stays near 1 %, so the process is running,
//! only slower; a slice of pure integer arithmetic keeps its pace while that
//! happens and a slice that walks an 8 MB table does not, so the cause is
//! other tenants in the shared cache and memory system. No amount of
//! repetition inside a 20-second run averages that away: raw seconds cannot
//! resolve a 10 % regression here, or even a 25 % one.
//!
//! So every rep is paced. At the step boundaries of a workload the benchmark
//! runs a fixed slice of work of its own — ten million dependent integer
//! operations with loads and stores into an 8 MB table, about 50 ms — and
//! times it. A segment of the rep is then worth its duration times
//! [`REFERENCE_SLICE_S`] over the mean of the two slices that bracket it:
//! *seconds at reference speed*. On a host running at the reference speed
//! (this sandbox at its fastest) that is plain seconds; on the same host in
//! its slow regime the slices and the segments stretch together and the
//! product stays put. Measured on `sweep`, one seed, 24 reps across both
//! regimes: raw seconds scatter by 14.8 % (standard deviation over mean),
//! reference seconds by 8.5 %, and the regimes no longer show. Slices are
//! excluded from every time reported.
//!
//! The slice is benchmark code and touches nothing under `crates/`, so no
//! change to the program can speed it up, and a change that claims a gain
//! may not edit the benchmark: a faster simulator shows as fewer reference
//! seconds at any host speed.

use std::time::Instant;

/// Time one slice takes on the reference host: this sandbox at its fastest.
/// Frozen; it only fixes the scale, and cancels in every comparison.
pub const REFERENCE_SLICE_S: f64 = 0.0500;

/// Loop iterations per slice.
const SLICE_ITERS: u64 = 10_000_000;

/// Shortest segment [`Pace::tick_if_due`] closes: slices every quarter of a
/// second follow the host's wobble closely and cost a fifth of the run at
/// most. (Shorter slices were tried: 20 ms ones left 8.4 % of scatter where
/// these leave 6.1 %.)
const MIN_SEGMENT_S: f64 = 0.25;

/// Table entries: 8 MB, past the private caches, so the slice feels the same
/// shared-cache and memory contention the simulator's tables and the
/// engine's buffer pool do.
const TABLE_LEN: usize = 1 << 20;

/// One closed segment: what ran between two slices.
#[derive(Clone, Copy, Debug)]
pub struct Segment {
    /// Its duration in host seconds.
    pub raw_s: f64,
    /// Its duration in seconds at reference speed.
    pub scaled_s: f64,
}

/// The pacer: alternates segments of measured work with timed slices.
pub struct Pace {
    /// One table per thread the paced workload runs on.
    tables: Vec<Vec<u64>>,
    share: f64,
    state: u64,
    /// Duration of the slice that closed the previous segment.
    last_slice_s: f64,
    /// When that slice ended, i.e. when the current segment began.
    segment_start: Instant,
    raw_s: f64,
    scaled_s: f64,
    slices_s: f64,
}

impl Pace {
    /// Starts pacing a workload that runs on `threads` threads: builds the
    /// tables, runs one untimed slice to fault them in and one timed slice,
    /// and opens the first segment.
    ///
    /// A slice runs on as many threads as the workload does, each on a table
    /// of its own, and lasts until the slowest is done — so it feels both
    /// CPUs' speed, and each thread's pressure on the other, the way a
    /// two-worker fan-out does.
    ///
    /// `share` is how much of the workload's time moves with the slice's: a
    /// segment is scaled by the slice ratio raised to it. The slice lives in
    /// the shared cache and is about as exposed to the neighbours as code
    /// can be; a workload that spends part of its time in `fsync` or in a
    /// compute-bound codec is less so, and scaling it one for one would put
    /// back more scatter than it takes out.
    pub fn start(threads: usize, share: f64) -> Pace {
        let table = |t: u64| -> Vec<u64> {
            (0..TABLE_LEN as u64)
                .map(|i| (i ^ t).wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .collect()
        };
        let mut pace = Pace {
            tables: (0..threads.max(1) as u64).map(table).collect(),
            share,
            state: 0x2545_f491_4f6c_dd1d,
            last_slice_s: 0.0,
            segment_start: Instant::now(),
            raw_s: 0.0,
            scaled_s: 0.0,
            slices_s: 0.0,
        };
        pace.slice();
        pace.last_slice_s = pace.slice();
        pace.segment_start = Instant::now();
        pace
    }

    /// Runs one slice; host seconds it took.
    fn slice(&mut self) -> f64 {
        let start = Instant::now();
        let seed = self.state;
        let (first, rest) = self.tables.split_first_mut().expect("at least one table");
        self.state = std::thread::scope(|scope| {
            for (t, table) in rest.iter_mut().enumerate() {
                scope.spawn(move || slice_on(table, seed ^ (t as u64 + 1)));
            }
            slice_on(first, seed)
        });
        start.elapsed().as_secs_f64()
    }

    /// Closes the current segment with a slice and opens the next.
    pub fn tick(&mut self) -> Segment {
        let raw_s = self.segment_start.elapsed().as_secs_f64();
        let slice_s = self.slice();
        let around = (self.last_slice_s + slice_s) / 2.0;
        let segment = Segment {
            raw_s,
            scaled_s: raw_s * (REFERENCE_SLICE_S / around).powf(self.share),
        };
        self.raw_s += segment.raw_s;
        self.scaled_s += segment.scaled_s;
        self.slices_s += slice_s;
        self.last_slice_s = slice_s;
        self.segment_start = Instant::now();
        segment
    }

    /// [`Pace::tick`], unless the current segment is still shorter than a
    /// quarter of a second. Cheap enough to call after every statement.
    pub fn tick_if_due(&mut self) {
        if self.segment_start.elapsed().as_secs_f64() >= MIN_SEGMENT_S {
            self.tick();
        }
    }

    /// Host seconds in all closed segments (slices excluded).
    pub fn raw_s(&self) -> f64 {
        self.raw_s
    }

    /// The same segments in seconds at reference speed.
    pub fn scaled_s(&self) -> f64 {
        self.scaled_s
    }

    /// Host seconds spent in slices between closed segments: CPU time to
    /// take back out of a process-wide CPU reading.
    pub fn slices_s(&self) -> f64 {
        self.slices_s
    }

    /// Reference seconds per host second over the closed segments: below 1
    /// while the host runs slower than the reference. 1 before any segment
    /// closed.
    pub fn factor(&self) -> f64 {
        if self.raw_s > 0.0 {
            self.scaled_s / self.raw_s
        } else {
            1.0
        }
    }
}

/// The slice's work on one thread: a chain of integer operations, each step
/// loading from and storing to a pseudo-random table entry.
fn slice_on(table: &mut [u64], seed: u64) -> u64 {
    let mask = table.len() - 1;
    let (mut x, mut acc) = (seed, 0u64);
    for _ in 0..SLICE_ITERS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let i = (x >> 40) as usize & mask;
        acc = acc.wrapping_add(table[i] ^ x);
        table[i] = acc;
        acc = acc.rotate_left(7).wrapping_mul(31).wrapping_add(x >> 3);
    }
    std::hint::black_box(x ^ acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_add_up_and_slices_stay_out() {
        let mut pace = Pace::start(2, 1.0);
        assert_eq!(pace.factor(), 1.0);
        std::thread::sleep(std::time::Duration::from_millis(30));
        let a = pace.tick();
        let b = pace.tick();
        assert!(a.raw_s >= 0.030 && a.raw_s < 0.2, "{a:?}");
        assert!(
            b.raw_s < 0.005,
            "an empty segment holds no slice time: {b:?}"
        );
        assert!((pace.raw_s() - (a.raw_s + b.raw_s)).abs() < 1e-12);
        assert!((pace.scaled_s() - (a.scaled_s + b.scaled_s)).abs() < 1e-12);
        assert!(pace.slices_s() > 0.0);
        // Whatever this host's speed, scaled and raw differ by one factor
        // that is the same order of magnitude as 1.
        let factor = pace.factor();
        assert!(factor > 0.02 && factor < 50.0, "{factor}");
        assert!((a.scaled_s / a.raw_s - factor).abs() / factor < 0.5);
    }
}
