//! The parallel simulation harness: fan independent sweep points across
//! scoped worker threads.
//!
//! Every sweep in [`crate::experiments`] has the same shape: one immutable
//! trace population replayed through many [`dss_memsim::Machine`]s, one per
//! configuration. The points share no mutable state — each gets a fresh
//! machine with cold caches — so they can run on any number of threads with
//! bit-identical results to a serial run; only wall-clock changes. The paper
//! itself never needed this (its evaluation ran once); re-parameterized
//! replay studies do, and [`run_points`] makes them embarrassingly parallel
//! with no dependencies beyond `std::thread::scope`.
//!
//! There is one point runner — `Workbench::fan_out_labeled` in
//! [`crate::experiments`] — and it is the only caller: a point feeds its
//! [`crate::SimSource`] to a fresh machine, a materialized
//! [`crate::TraceSet`] in place through [`dss_memsim::Machine::run`] and
//! block files on disk through [`dss_memsim::Machine::run_source`]. This
//! module only schedules the points.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `points` on up to `jobs` threads and returns their results in point
/// order, bit-identical at any job count. Workers take the next unstarted
/// point from a shared index until none is left.
///
/// A panicking point is a bug, not a result: once every worker has stopped,
/// the panic is re-raised with its original payload. The worker it struck
/// stops; the others run the rest of the queue first. With one job the
/// points after it do not run.
pub(crate) fn run_points<T, F>(jobs: usize, points: &[F]) -> Vec<T>
where
    T: Send,
    F: Fn() -> T + Sync,
{
    if jobs <= 1 || points.len() <= 1 {
        return points.iter().map(|f| f()).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..points.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..jobs.min(points.len()))
            .map(|_| {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(f) = points.get(i) else {
                        break;
                    };
                    let value = f();
                    slots.lock().expect("no worker panics holding the lock")[i] = Some(value);
                })
            })
            .collect();
        // Joined by hand, a worker's panic comes back as its payload instead
        // of the scope's "a scoped thread panicked"; the scope re-raises it
        // once the other workers have finished.
        for worker in workers {
            if let Err(payload) = worker.join() {
                resume_unwind(payload);
            }
        }
    });
    slots
        .into_inner()
        .expect("workers joined")
        .into_iter()
        .map(|slot| slot.expect("every point ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use super::*;

    #[test]
    fn order_is_preserved_at_any_job_count() {
        let points: Vec<_> = (0..9u64).map(|i| move || i * i).collect();
        for jobs in [0, 1, 2, 4, 16] {
            let got: Vec<u64> = run_points(jobs, &points);
            assert_eq!(got, [0, 1, 4, 9, 16, 25, 36, 49, 64], "jobs={jobs}");
        }
    }

    #[test]
    fn no_points_is_fine() {
        let points: [fn() -> u64; 0] = [];
        assert!(run_points(4, &points).is_empty());
    }

    #[test]
    fn a_panicking_point_re_raises_its_own_payload() {
        for jobs in [1, 3] {
            let ran = AtomicUsize::new(0);
            let points: Vec<_> = (0..4u64)
                .map(|i| {
                    let ran = &ran;
                    move || {
                        assert!(i != 2, "point {i} broke");
                        ran.fetch_add(1, Ordering::Relaxed);
                        i
                    }
                })
                .collect();
            let payload = catch_unwind(AssertUnwindSafe(|| run_points(jobs, &points)))
                .expect_err("a panicking point aborts the run");
            let msg = payload
                .downcast_ref::<String>()
                .expect("a formatted message");
            assert!(msg.contains("point 2 broke"), "jobs={jobs}: {msg}");
            // Serially the run stops at the panic; in parallel the other
            // workers finish the queue.
            let others = if jobs == 1 { 2 } else { 3 };
            assert_eq!(ran.load(Ordering::Relaxed), others, "jobs={jobs}");
        }
    }
}
