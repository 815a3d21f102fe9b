//! Property test: the paged-history miss classifier agrees with a naive
//! hash-based reference model.
//!
//! The production `Cache` packs per-line classification history into a paged
//! flat table ([`Cache::record_miss`] and friends); the original
//! implementation kept an `ever_seen: HashSet` plus a
//! `removal_cause: HashMap<_, RemovalCause>`. This test drives both through
//! arbitrary operation sequences over a tiny cache — with addresses spanning
//! the shared segment, two private segments, and the low (unallocated) range
//! — and checks after every operation that they classify every pool address
//! identically.

use std::collections::{HashMap, HashSet};

use dss_memsim::{Cache, CacheConfig, LineState, MissKind, RemovalCause};
use dss_shmem::{private_base, SHARED_BASE};
use proptest::prelude::*;

/// A 256-byte 2-way cache with 32-byte lines: 4 sets, so any region's pool
/// lines below collide constantly and every history transition gets hit.
fn tiny_cache() -> Cache {
    Cache::new(CacheConfig {
        size: 256,
        line: 32,
        assoc: 2,
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
    Insert { idx: usize, modified: bool },
    RecordMiss { idx: usize },
    Lookup { idx: usize },
    Invalidate { idx: usize },
    EvictForInclusion { idx: usize },
}

fn op_strategy(pool: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0..pool, any::<bool>()).prop_map(|(idx, modified)| Op::Insert { idx, modified }),
        2 => (0..pool).prop_map(|idx| Op::RecordMiss { idx }),
        2 => (0..pool).prop_map(|idx| Op::Lookup { idx }),
        1 => (0..pool).prop_map(|idx| Op::Invalidate { idx }),
        1 => (0..pool).prop_map(|idx| Op::EvictForInclusion { idx }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn paged_classifier_matches_hash_model(
        ops in proptest::collection::vec(op_strategy(32), 1..120)
    ) {
        let pool = address_pool();
        let mut cache = tiny_cache();
        let mut model = Model::default();

        for op in ops {
            match op {
                Op::Insert { idx, modified } => {
                    let line = pool[idx];
                    let state = if modified { LineState::Modified } else { LineState::Shared };
                    // The fill contract: a non-resident line is classified
                    // (and thereby marked seen) before it is inserted.
                    if !cache.contains(line) {
                        prop_assert_eq!(cache.record_miss(line), model.classify(line));
                    }
                    let evicted = cache.insert(line, state);
                    model.mark_seen(line);
                    if let Some((victim, _dirty)) = evicted {
                        model.removal_cause.insert(victim, RemovalCause::Replaced);
                    }
                }
                Op::RecordMiss { idx } => {
                    let line = pool[idx];
                    let got = cache.record_miss(line);
                    prop_assert_eq!(got, model.classify(line), "record_miss at {:#x}", line);
                    model.mark_seen(line);
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
