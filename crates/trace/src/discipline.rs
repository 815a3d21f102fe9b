//! Lock-discipline validation over a recorded trace.
//!
//! The engine's spinlocks are non-reentrant and the simulator's deterministic
//! interleaver parks waiters until the holder releases, so a well-formed
//! per-processor trace must use its locks in a strict stack discipline: every
//! [`crate::EventKind::LockRelease`] matches the most recent unreleased
//! [`crate::EventKind::LockAcquire`] of the same address, no held lock is
//! acquired again, and nothing is still held when the trace ends. This is
//! also the soundness precondition of the happens-before race detector in
//! `dss-check` — its vector clocks assume acquire/release pairs bracket
//! critical sections — so [`check_lock_discipline`] is run before any
//! race analysis and exposed here for tests over generated traces.

use std::fmt;

use crate::{EventKind, Trace};

/// A breach of the per-processor lock stack discipline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockDisciplineError {
    /// A lock was released without being held.
    ReleaseUnheld {
        /// Index of the offending event in the trace.
        index: usize,
        /// Lock word address released.
        addr: u64,
    },
    /// A release crossed an inner critical section: the innermost held lock
    /// was a different one.
    NotNested {
        /// Index of the offending release in the trace.
        index: usize,
        /// Lock word address released.
        addr: u64,
        /// The innermost held lock that should have been released first.
        innermost: u64,
    },
    /// A lock already held was acquired again (the non-reentrant spinlock
    /// would self-deadlock).
    Reacquired {
        /// Index of the offending acquire in the trace.
        index: usize,
        /// Lock word address acquired twice.
        addr: u64,
    },
    /// The trace ended with a lock still held.
    HeldAtEnd {
        /// Index of the acquire that was never released.
        index: usize,
        /// Lock word address still held.
        addr: u64,
    },
}

impl LockDisciplineError {
    /// Index of the event (acquire or release) the violation points at.
    pub fn index(&self) -> usize {
        match *self {
            LockDisciplineError::ReleaseUnheld { index, .. }
            | LockDisciplineError::NotNested { index, .. }
            | LockDisciplineError::Reacquired { index, .. }
            | LockDisciplineError::HeldAtEnd { index, .. } => index,
        }
    }
}

impl fmt::Display for LockDisciplineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            LockDisciplineError::ReleaseUnheld { index, addr } => {
                write!(f, "event {index}: release of {addr:#x} which is not held")
            }
            LockDisciplineError::NotNested {
                index,
                addr,
                innermost,
            } => write!(
                f,
                "event {index}: release of {addr:#x} while {innermost:#x} \
                 (acquired later) is still held — critical sections must nest"
            ),
            LockDisciplineError::Reacquired { index, addr } => {
                write!(
                    f,
                    "event {index}: acquire of {addr:#x} which is already held"
                )
            }
            LockDisciplineError::HeldAtEnd { index, addr } => write!(
                f,
                "trace ends with {addr:#x} still held (acquired at event {index})"
            ),
        }
    }
}

/// Checks that `trace` acquires and releases its locks in a balanced,
/// correctly nested (stack) discipline with no re-acquisition of a held lock
/// and nothing held at the end.
///
/// # Errors
///
/// Returns the first violation in trace order.
pub fn check_lock_discipline(trace: &Trace) -> Result<(), LockDisciplineError> {
    // (lock address, index of its acquire), innermost last. Traces hold at
    // most a couple of locks at once, so a linear scan beats any map.
    let mut held: Vec<(u64, usize)> = Vec::new();
    for (index, event) in trace.events.iter().enumerate() {
        match event.kind() {
            EventKind::LockAcquire(tok) => {
                if held.iter().any(|&(a, _)| a == tok.addr) {
                    return Err(LockDisciplineError::Reacquired {
                        index,
                        addr: tok.addr,
                    });
                }
                held.push((tok.addr, index));
            }
            EventKind::LockRelease(tok) => match held.last().copied() {
                Some((innermost, _)) if innermost == tok.addr => {
                    held.pop();
                }
                Some((innermost, _)) => {
                    return Err(if held.iter().any(|&(a, _)| a == tok.addr) {
                        LockDisciplineError::NotNested {
                            index,
                            addr: tok.addr,
                            innermost,
                        }
                    } else {
                        LockDisciplineError::ReleaseUnheld {
                            index,
                            addr: tok.addr,
                        }
                    });
                }
                None => {
                    return Err(LockDisciplineError::ReleaseUnheld {
                        index,
                        addr: tok.addr,
                    });
                }
            },
            EventKind::Busy(_) | EventKind::Ref(_) => {}
        }
    }
    if let Some(&(addr, index)) = held.first() {
        return Err(LockDisciplineError::HeldAtEnd { index, addr });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DataClass, LockClass, LockToken, Tracer};

    fn tok(addr: u64) -> LockToken {
        LockToken::new(addr, LockClass::Other)
    }

    #[test]
    fn nested_sections_pass() {
        let t = Tracer::new(0);
        t.lock_acquire(tok(0x10));
        t.read(0x1_0000_0000, 8, DataClass::LockHash);
        t.lock_acquire(tok(0x20));
        t.write(0x1_0000_0100, 8, DataClass::BufDesc);
        t.lock_release(tok(0x20));
        t.lock_release(tok(0x10));
        assert_eq!(check_lock_discipline(&t.take()), Ok(()));
    }

    #[test]
    fn release_of_unheld_lock_is_flagged() {
        let t = Tracer::new(0);
        t.lock_release(tok(0x10));
        assert_eq!(
            check_lock_discipline(&t.take()),
            Err(LockDisciplineError::ReleaseUnheld {
                index: 0,
                addr: 0x10
            })
        );
    }

    #[test]
    fn crossed_sections_are_flagged() {
        let t = Tracer::new(0);
        t.lock_acquire(tok(0x10));
        t.lock_acquire(tok(0x20));
        t.lock_release(tok(0x10)); // outer before inner
        let err = check_lock_discipline(&t.take()).unwrap_err();
        assert_eq!(
            err,
            LockDisciplineError::NotNested {
                index: 2,
                addr: 0x10,
                innermost: 0x20
            }
        );
        assert_eq!(err.index(), 2);
    }

    #[test]
    fn reacquire_of_held_lock_is_flagged() {
        let t = Tracer::new(0);
        t.lock_acquire(tok(0x10));
        t.lock_acquire(tok(0x10));
        assert_eq!(
            check_lock_discipline(&t.take()),
            Err(LockDisciplineError::Reacquired {
                index: 1,
                addr: 0x10
            })
        );
    }

    #[test]
    fn lock_held_at_end_is_flagged() {
        let t = Tracer::new(0);
        t.busy(5);
        t.lock_acquire(tok(0x10));
        assert_eq!(
            check_lock_discipline(&t.take()),
            Err(LockDisciplineError::HeldAtEnd {
                index: 1,
                addr: 0x10
            })
        );
    }

    #[test]
    fn errors_render_addresses() {
        let e = LockDisciplineError::HeldAtEnd {
            index: 7,
            addr: 0xabc,
        };
        assert!(e.to_string().contains("0xabc"));
        assert!(e.to_string().contains("event 7"));
    }
}
