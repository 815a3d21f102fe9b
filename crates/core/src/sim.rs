//! The parallel simulation harness: fan independent sweep points across
//! scoped worker threads.
//!
//! Every sweep in [`crate::experiments`] has the same shape: one immutable
//! trace population replayed through many [`dss_memsim::Machine`]s, one per
//! configuration. The points share no mutable state — each gets a fresh
//! machine with cold caches — so they can run on any number of threads with
//! bit-identical results to a serial run; only wall-clock changes. The paper
//! itself never needed this (its evaluation ran once); re-parameterized
//! replay studies do, and [`run_soft`] makes them embarrassingly parallel
//! with no dependencies beyond `std::thread::scope`.
//!
//! There is one point runner — `Workbench::fan_out_labeled` in
//! [`crate::experiments`] — and it is the only caller: a point feeds its
//! [`crate::SimSource`] to a fresh machine, a materialized
//! [`crate::TraceSet`] in place through [`dss_memsim::Machine::run`] and
//! block files on disk through [`dss_memsim::Machine::run_source`]. This
//! module only schedules the points and turns a panicking or overdue one
//! into a value.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::degrade::PointCause;

/// A point failure as the runner sees it: the public classification plus the
/// original panic payload, so hard-mode callers can re-raise it unchanged.
pub(crate) struct SoftFailure {
    /// The classification exposed as [`crate::PointError`].
    pub cause: PointCause,
    /// The panic payload, when the cause was a panic.
    pub payload: Option<Box<dyn Any + Send>>,
}

/// Renders a panic payload the way the default hook would.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `points` on up to `jobs` threads, preserving order, with each point
/// under `catch_unwind` and an optional per-point `deadline`.
///
/// A panicking point yields `Err(SoftFailure)` carrying its payload; the
/// remaining points still run (the scope is never poisoned). With a deadline
/// set, a watchdog thread flags points that outrun it — the flagged point's
/// result is *discarded* (classified [`PointCause::TimedOut`]) even if the
/// computation eventually finishes, so outputs never depend on how late a
/// slow point was. The watchdog classifies and warns; it cannot preempt a
/// runaway simulation, so a wedged point still delays completion of the run
/// (but no longer decides its outcome).
///
/// With no deadline and no panics the results are bit-identical at any job
/// count.
#[expect(
    clippy::disallowed_methods,
    reason = "the watchdog samples wall-clock only to decide whether a point is abandoned"
)]
pub(crate) fn run_soft<T, F>(
    jobs: usize,
    points: &[F],
    deadline: Option<Duration>,
) -> Vec<Result<T, SoftFailure>>
where
    T: Send,
    F: Fn() -> T + Sync,
{
    let classify = |started: Instant, flagged: bool, outcome: Result<T, Box<dyn Any + Send>>| {
        let late = deadline.is_some_and(|d| flagged || started.elapsed() > d);
        match outcome {
            _ if late => Err(SoftFailure {
                cause: PointCause::TimedOut {
                    limit_ms: deadline.unwrap_or_default().as_millis() as u64,
                },
                payload: None,
            }),
            Ok(v) => Ok(v),
            Err(payload) => Err(SoftFailure {
                cause: PointCause::Panicked(panic_message(payload.as_ref())),
                payload: Some(payload),
            }),
        }
    };
    if jobs <= 1 || points.len() <= 1 {
        return points
            .iter()
            .map(|f| {
                let started = Instant::now();
                classify(started, false, catch_unwind(AssertUnwindSafe(f)))
            })
            .collect();
    }
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    // Per-point watchdog state: nanoseconds since `base` when the point
    // started (0 = not started), and whether the watchdog flagged it.
    let base = Instant::now();
    let started_at: Vec<AtomicU64> = (0..points.len()).map(|_| AtomicU64::new(0)).collect();
    let flagged: Vec<AtomicBool> = (0..points.len()).map(|_| AtomicBool::new(false)).collect();
    let results: Mutex<Vec<Option<Result<T, SoftFailure>>>> =
        Mutex::new((0..points.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(points.len()) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(f) = points.get(i) else {
                    break;
                };
                let started = Instant::now();
                started_at[i].store(base.elapsed().as_nanos().max(1) as u64, Ordering::Release);
                let outcome = catch_unwind(AssertUnwindSafe(f));
                // Mark the point finished before reading its flag, so the
                // watchdog stops considering it.
                started_at[i].store(u64::MAX, Ordering::Release);
                done.fetch_add(1, Ordering::Release);
                let slot = classify(started, flagged[i].load(Ordering::Acquire), outcome);
                results.lock().expect("no poisoned workers")[i] = Some(slot);
            });
        }
        if let Some(limit) = deadline {
            let (done, started_at, flagged) = (&done, &started_at, &flagged);
            scope.spawn(move || {
                let tick = (limit / 4).clamp(Duration::from_millis(1), Duration::from_millis(50));
                while done.load(Ordering::Acquire) < points.len() {
                    std::thread::sleep(tick);
                    let now = base.elapsed().as_nanos() as u64;
                    for i in 0..points.len() {
                        let at = started_at[i].load(Ordering::Acquire);
                        if at != 0
                            && at != u64::MAX
                            && !flagged[i].load(Ordering::Acquire)
                            && now.saturating_sub(at) > limit.as_nanos() as u64
                        {
                            flagged[i].store(true, Ordering::Release);
                            eprintln!(
                                "  watchdog: sweep point {i} exceeded its {limit:?} deadline — \
                                 its result will be discarded"
                            );
                        }
                    }
                }
            });
        }
    });
    results
        .into_inner()
        .expect("workers joined")
        .into_iter()
        .map(|slot| slot.expect("every point ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_is_preserved_at_any_job_count() {
        let points: Vec<_> = (0..9u64).map(|i| move || i * i).collect();
        for jobs in [0, 1, 2, 4, 16] {
            let got: Vec<u64> = run_soft(jobs, &points, None)
                .into_iter()
                .map(|slot| slot.unwrap_or_else(|f| panic!("{}", f.cause)))
                .collect();
            assert_eq!(got, [0, 1, 4, 9, 16, 25, 36, 49, 64], "jobs={jobs}");
        }
    }

    #[test]
    fn no_points_is_fine() {
        let points: [fn() -> u64; 0] = [];
        assert!(run_soft(4, &points, None).is_empty());
    }

    #[test]
    fn a_panicking_point_is_classified_and_the_rest_still_run() {
        let points: Vec<_> = (0..4u64)
            .map(|i| {
                move || {
                    assert!(i != 2, "point {i} broke");
                    i
                }
            })
            .collect();
        for jobs in [1, 3] {
            let outcomes = run_soft(jobs, &points, Some(Duration::from_secs(3600)));
            for (i, slot) in outcomes.into_iter().enumerate() {
                match slot {
                    Ok(v) => assert_eq!(v, i as u64),
                    Err(f) => {
                        assert_eq!(i, 2, "only the broken point fails");
                        assert!(f.payload.is_some(), "payload kept for fail-hard callers");
                        assert!(
                            matches!(&f.cause, PointCause::Panicked(m) if m.contains("point 2 broke")),
                            "{}",
                            f.cause
                        );
                    }
                }
            }
        }
    }
}
