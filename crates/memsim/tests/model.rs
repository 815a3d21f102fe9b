//! Property test: the paged-history miss classifier agrees with a naive
//! hash-based reference model.
//!
//! The production `Cache` packs per-line classification history into a paged
//! flat table with three codes — never / seen / invalidated — written only by
//! [`Cache::fill`] and [`Cache::invalidate`]; the original implementation
//! kept an `ever_seen: HashSet` plus a
//! `removal_cause: HashMap<_, RemovalCause>` and recorded `Replaced` on every
//! eviction. The model below still does, which is the proof that write was
//! dead. This test drives both through arbitrary operation sequences over a
//! tiny cache — 2-way and direct-mapped, with addresses spanning the shared
//! segment, two private segments, and the low (unallocated) range — and
//! checks after every operation that they classify every pool address
//! identically.

use std::collections::{HashMap, HashSet};

use dss_memsim::{Cache, CacheConfig, LineState, MissKind, RemovalCause};
use dss_shmem::{private_base, SHARED_BASE};
use proptest::prelude::*;

/// A cache of four sets of 32-byte lines, 2-way (256 bytes) or
/// direct-mapped (128 bytes): any region's pool lines below collide
/// constantly and every history transition gets hit.
fn tiny_cache(assoc: u32) -> Cache {
    Cache::new(CacheConfig {
        size: 128 * assoc as u64,
        line: 32,
        assoc,
    })
}

/// Line-aligned addresses across all the segments `PagedMap` distinguishes.
fn address_pool() -> Vec<u64> {
    let mut pool = Vec::new();
    for base in [0x40, SHARED_BASE, private_base(0), private_base(2)] {
        for k in 0..8u64 {
            pool.push(base + k * 32);
        }
    }
    pool
}

/// The original hash-based classifier, verbatim.
#[derive(Default)]
struct Model {
    ever_seen: HashSet<u64>,
    removal_cause: HashMap<u64, RemovalCause>,
}

impl Model {
    fn classify(&self, line: u64) -> MissKind {
        if !self.ever_seen.contains(&line) {
            MissKind::Cold
        } else {
            match self.removal_cause.get(&line) {
                Some(RemovalCause::Invalidated) => MissKind::Coherence,
                _ => MissKind::Conflict,
            }
        }
    }

    fn mark_seen(&mut self, line: u64) {
        self.ever_seen.insert(line);
        self.removal_cause.remove(&line);
    }
}

#[derive(Clone, Debug)]
enum Op {
    Fill { idx: usize, modified: bool },
    Lookup { idx: usize },
    Invalidate { idx: usize },
    EvictForInclusion { idx: usize },
    SetState { idx: usize, modified: bool },
}

fn op_strategy(pool: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..pool, any::<bool>()).prop_map(|(idx, modified)| Op::Fill { idx, modified }),
        2 => (0..pool).prop_map(|idx| Op::Lookup { idx }),
        1 => (0..pool).prop_map(|idx| Op::Invalidate { idx }),
        1 => (0..pool).prop_map(|idx| Op::EvictForInclusion { idx }),
        1 => (0..pool, any::<bool>()).prop_map(|(idx, modified)| Op::SetState { idx, modified }),
    ]
}

fn state(modified: bool) -> LineState {
    if modified {
        LineState::Modified
    } else {
        LineState::Shared
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn paged_classifier_matches_hash_model(
        ops in proptest::collection::vec(op_strategy(32), 1..120),
        direct_mapped in any::<bool>(),
    ) {
        let pool = address_pool();
        let mut cache = tiny_cache(if direct_mapped { 1 } else { 2 });
        let mut model = Model::default();

        for op in ops {
            match op {
                Op::Fill { idx, modified } => {
                    // The machine's miss path: a lookup that misses is
                    // followed by the fill, which classifies as it marks.
                    let line = pool[idx];
                    if cache.lookup(line).is_none() {
                        let (kind, evicted) = cache.fill(line, state(modified));
                        prop_assert_eq!(kind, model.classify(line), "fill at {:#x}", line);
                        model.mark_seen(line);
                        if let Some((victim, _dirty)) = evicted {
                            prop_assert!(!cache.contains(victim));
                            model.removal_cause.insert(victim, RemovalCause::Replaced);
                        }
                    }
                    prop_assert!(cache.contains(line));
                }
                Op::Lookup { idx } => {
                    // LRU churn only; classification must be unaffected.
                    let _ = cache.lookup(pool[idx]);
                }
                Op::Invalidate { idx } => {
                    let line = pool[idx];
                    if cache.invalidate(line).is_some() {
                        model.removal_cause.insert(line, RemovalCause::Invalidated);
                    }
                }
                Op::EvictForInclusion { idx } => {
                    let line = pool[idx];
                    let present = cache.contains(line);
                    cache.evict_for_inclusion(line);
                    if present {
                        model.removal_cause.insert(line, RemovalCause::Replaced);
                    }
                }
                Op::SetState { idx, modified } => {
                    // A state change touches neither residency nor history.
                    let line = pool[idx];
                    let present = cache.contains(line);
                    cache.set_state(line, state(modified));
                    prop_assert_eq!(cache.peek_state(line), present.then(|| state(modified)));
                }
            }
            for &line in &pool {
                prop_assert_eq!(
                    cache.classify_miss(line),
                    model.classify(line),
                    "divergence at {:#x}",
                    line
                );
            }
        }
    }
}
