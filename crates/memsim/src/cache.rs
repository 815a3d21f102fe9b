//! A set-associative cache with LRU replacement, MSI line states, and the
//! bookkeeping needed to classify misses as cold, conflict, or coherence.
//!
//! The geometry math is pure shift/mask — [`CacheConfig::validate`] rejects
//! non-power-of-two line sizes and set counts at construction, so `line_of`
//! and `set_of` never divide. Classification state is a 2-bit history code
//! per line, four lines to a byte of a paged flat table
//! ([`crate::paged::PagedMap`]), and [`Cache::fill`] is the only way a
//! non-resident line becomes resident: it classifies the miss and marks the
//! line seen in one probe of that table and picks the victim in one scan of
//! the set.

#![deny(clippy::disallowed_types, clippy::cast_possible_truncation)]
#![deny(clippy::panic, clippy::unreachable)]

use dss_shmem::{PRIVATE_BASE, PRIVATE_STRIDE, SHARED_BASE};

use crate::config::CacheConfig;
use crate::paged::PagedMap;

/// MSI coherence state of a resident line.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LineState {
    /// Shared (clean, possibly in other caches).
    Shared,
    /// Exclusive (clean, sole copy — MESI only).
    Exclusive,
    /// Modified (exclusive dirty).
    Modified,
}

impl LineState {
    /// Whether a local write can proceed without a coherence transaction.
    pub fn writable(self) -> bool {
        matches!(self, LineState::Exclusive | LineState::Modified)
    }

    /// Whether the line holds the only up-to-date copy that must be written
    /// back or supplied on a remote request.
    pub fn dirty(self) -> bool {
        matches!(self, LineState::Modified)
    }
}

/// Why a line most recently left the cache, for miss classification: a line
/// lost to a directory invalidation makes the next miss a coherence miss; a
/// line lost to replacement makes it a conflict miss (the paper folds
/// capacity into conflict).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RemovalCause {
    /// Evicted to make room.
    Replaced,
    /// Invalidated by coherence activity.
    Invalidated,
}

/// Classification of a miss.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MissKind {
    /// First access to the line by this cache.
    Cold,
    /// Line was previously evicted by replacement.
    Conflict,
    /// Line was previously removed by an invalidation.
    Coherence,
}

/// Per-line classification history, one 2-bit code per line the cache ever
/// held: never filled, seen (resident, or gone by replacement — the next miss
/// is a conflict either way, so replacement and inclusion eviction write
/// nothing), removed by invalidation. A resident line is always `HIST_SEEN`.
/// Four adjacent lines share a history byte ([`HIST_LINES_SHIFT`]); line `i`'s
/// code sits at bit `2 × (i mod 4)` ([`hist_bit`]).
const HIST_NEVER: u8 = 0;
const HIST_SEEN: u8 = 1;
const HIST_INVALIDATED: u8 = 2;
/// Mask of one line's code, at bit 0.
const HIST_MASK: u8 = 0b11;
/// log2 of the lines that share a history byte.
const HIST_LINES_SHIFT: u32 = 2;

#[inline]
fn classify_code(code: u8) -> MissKind {
    match code {
        HIST_NEVER => MissKind::Cold,
        HIST_INVALIDATED => MissKind::Coherence,
        _ => MissKind::Conflict,
    }
}

/// The history map indexes lines from each segment's base and [`hist_bit`]
/// from address 0: the two agree modulo 4 for lines up to 1 GiB because every
/// segment base is 4 GiB-aligned.
const _: () = assert!(
    SHARED_BASE.trailing_zeros() >= 32
        && PRIVATE_BASE.trailing_zeros() >= 32
        && PRIVATE_STRIDE.trailing_zeros() >= 32
);

/// Bit offset of the history code of the line holding `addr`, for lines of
/// `1 << line_shift` bytes.
#[inline(always)]
fn hist_bit(addr: u64, line_shift: u32) -> u32 {
    2 * ((addr >> line_shift) & ((1 << HIST_LINES_SHIFT) - 1)) as u32
}

/// The history code at bit `bit` of `byte`.
#[inline(always)]
fn code_at(byte: u8, bit: u32) -> u8 {
    (byte >> bit) & HIST_MASK
}

/// Stores `code` as the history at bit `bit` of `byte`, and returns the code
/// it replaces.
#[inline(always)]
fn replace_code(byte: &mut u8, bit: u32, code: u8) -> u8 {
    let old = code_at(*byte, bit);
    *byte ^= (old ^ code) << bit;
    old
}

/// A resident line packed into one word: `line | state << 1 | VALID`. Lines
/// are at least [`MIN_LINE`] bytes, so the three low bits of a line address
/// are free; an empty way is 0, which no resident line encodes (not even
/// line 0, whose key still carries `VALID`).
const VALID: u64 = 1;
const STATE_SHIFT: u32 = 1;
const STATE_BITS: u64 = 0b11 << STATE_SHIFT;
/// Smallest line whose address leaves the tag bits free.
const MIN_LINE: u64 = 8;

#[inline]
fn pack(line: u64, state: LineState) -> u64 {
    line | (state as u64) << STATE_SHIFT | VALID
}

#[inline]
fn state_of(key: u64) -> LineState {
    match (key & STATE_BITS) >> STATE_SHIFT {
        0 => LineState::Shared,
        1 => LineState::Exclusive,
        _ => LineState::Modified,
    }
}

#[inline]
fn line_in(key: u64) -> u64 {
    key & !(STATE_BITS | VALID)
}

/// One processor's cache at one level.
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    /// log2 of the line size.
    line_shift: u32,
    /// `!(line - 1)`: ANDing yields the line address.
    line_mask: u64,
    /// `sets - 1`: ANDing the shifted line yields the set index.
    set_mask: u64,
    assoc: usize,
    /// One packed key per way, set-major, then — in the same allocation, so
    /// probes stay dense — one LRU timestamp per way (bigger = more recent).
    /// A direct-mapped cache has no replacement choice to make and keeps no
    /// timestamps.
    ways: Vec<u64>,
    /// Number of keys in `ways`: way `at`'s timestamp is at `at + nways`.
    nways: usize,
    tick: u64,
    /// 2-bit history codes, four lines to a byte.
    history: PagedMap<u8>,
}

impl Cache {
    /// Builds an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid (see [`CacheConfig::validate`]) or
    /// the lines are shorter than 8 bytes.
    pub fn new(cfg: CacheConfig) -> Self {
        cfg.validate();
        assert!(
            cfg.line >= MIN_LINE,
            "lines below {MIN_LINE} bytes leave no room for the state bits"
        );
        let sets = cfg.sets();
        let assoc = cfg.assoc as usize;
        #[expect(clippy::cast_possible_truncation, reason = "sizes a vector")]
        let nways = sets as usize * assoc;
        Cache {
            cfg,
            line_shift: cfg.line.trailing_zeros(),
            line_mask: !(cfg.line - 1),
            set_mask: sets - 1,
            assoc,
            ways: vec![0; if assoc > 1 { 2 * nways } else { nways }],
            nways,
            tick: 0,
            history: PagedMap::new(cfg.line.trailing_zeros() + HIST_LINES_SHIFT),
        }
    }

    /// The line address containing `addr`.
    #[inline(always)]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr & self.line_mask
    }

    /// Line size in bytes.
    pub fn line_size(&self) -> u64 {
        self.cfg.line
    }

    /// Index of the first way of `line`'s set.
    #[expect(clippy::cast_possible_truncation, reason = "masked by `set_mask`")]
    #[inline(always)]
    fn set_start(&self, line: u64) -> usize {
        ((line >> self.line_shift) & self.set_mask) as usize * self.assoc
    }

    /// Index of the way holding `line`, if it is resident: one load and one
    /// compare per way, whatever the state. A direct-mapped set (every L1
    /// the paper sweeps) is one load and one compare, with no iterator.
    #[inline(always)]
    fn find(&self, line: u64) -> Option<usize> {
        let start = self.set_start(line);
        let want = line | VALID;
        if self.assoc == 1 {
            return (self.ways[start] & !STATE_BITS == want).then_some(start);
        }
        self.ways[start..start + self.assoc]
            .iter()
            .position(|&key| key & !STATE_BITS == want)
            .map(|way| start + way)
    }

    /// Stamps way `at` most recently used.
    #[inline(always)]
    fn touch(&mut self, at: usize) {
        if self.assoc > 1 {
            self.tick += 1;
            self.ways[at + self.nways] = self.tick;
        }
    }

    /// Looks up the line containing `addr`; on a hit, refreshes LRU and
    /// returns its state.
    #[inline(always)]
    pub fn lookup(&mut self, addr: u64) -> Option<LineState> {
        let at = self.find(self.line_of(addr))?;
        self.touch(at);
        Some(state_of(self.ways[at]))
    }

    /// Classifies a miss on `addr` without recording anything (a pure query,
    /// for tests and invariant checks; the simulator classifies in
    /// [`Cache::fill`]).
    pub fn classify_miss(&self, addr: u64) -> MissKind {
        classify_code(code_at(
            self.history.get(addr),
            hist_bit(addr, self.line_shift),
        ))
    }

    /// Makes the non-resident line containing `addr` resident in `state`:
    /// classifies the miss and marks the line seen (one history probe), and
    /// replaces the set's first invalid way, else its least recently used
    /// one (one scan; a direct-mapped set has no choice to make). Returns
    /// the classification and the evicted line (address, was-dirty) if a
    /// valid victim was replaced. Call it exactly when a lookup missed.
    pub fn fill(&mut self, addr: u64, state: LineState) -> (MissKind, Option<(u64, bool)>) {
        let line = self.line_of(addr);
        debug_assert!(self.find(line).is_none(), "fill of resident {line:#x}");
        let bit = hist_bit(line, self.line_shift);
        let kind = classify_code(replace_code(self.history.get_mut(line), bit, HIST_SEEN));
        let start = self.set_start(line);
        let mut at = start;
        if self.assoc > 1 {
            for way in start..start + self.assoc {
                if self.ways[way] == 0 {
                    at = way;
                    break;
                }
                if self.ways[way + self.nways] < self.ways[at + self.nways] {
                    at = way;
                }
            }
        }
        let victim = self.ways[at];
        self.ways[at] = pack(line, state);
        self.touch(at);
        let evicted = (victim != 0).then(|| (line_in(victim), state_of(victim).dirty()));
        (kind, evicted)
    }

    /// Sets the state of a resident line (no-op if absent).
    pub fn set_state(&mut self, addr: u64, state: LineState) {
        let line = self.line_of(addr);
        if let Some(at) = self.find(line) {
            self.ways[at] = pack(line, state);
        }
    }

    /// Removes a resident line; returns whether it was dirty.
    fn remove(&mut self, line: u64) -> Option<bool> {
        let at = self.find(line)?;
        let dirty = state_of(self.ways[at]).dirty();
        self.ways[at] = 0;
        Some(dirty)
    }

    /// Removes a line due to coherence activity, so its next miss is a
    /// coherence miss; returns whether it was present (and dirty).
    pub fn invalidate(&mut self, line: u64) -> Option<bool> {
        let dirty = self.remove(line)?;
        let bit = hist_bit(line, self.line_shift);
        replace_code(self.history.get_mut(line), bit, HIST_INVALIDATED);
        Some(dirty)
    }

    /// Removes a line due to an inclusion victim in the other level. Like
    /// replacement it leaves the history alone: the next miss is a conflict.
    pub fn evict_for_inclusion(&mut self, line: u64) {
        self.remove(line);
    }

    /// Every resident line with its state (for invariant checks).
    pub fn resident_lines(&self) -> Vec<(u64, LineState)> {
        self.ways[..self.nways]
            .iter()
            .filter(|&&key| key != 0)
            .map(|&key| (line_in(key), state_of(key)))
            .collect()
    }

    /// State of the line containing `addr`, without touching LRU.
    pub fn peek_state(&self, addr: u64) -> Option<LineState> {
        self.find(self.line_of(addr))
            .map(|at| state_of(self.ways[at]))
    }

    /// Whether the line containing `addr` is resident (no LRU update).
    pub fn contains(&self, addr: u64) -> bool {
        self.find(self.line_of(addr)).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 32-byte lines = 256 bytes.
        Cache::new(CacheConfig {
            size: 256,
            line: 32,
            assoc: 2,
        })
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny();
        assert_eq!(c.lookup(0x1000), None);
        assert_eq!(c.classify_miss(0x1000), MissKind::Cold);
        c.fill(0x1000, LineState::Shared);
        assert_eq!(c.lookup(0x1010), Some(LineState::Shared), "same line");
        assert_eq!(c.lookup(0x1020), None, "next line");
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Three lines mapping to set 0 (line addr multiples of 4*32=128).
        c.fill(0x0000, LineState::Shared);
        c.fill(0x0080, LineState::Shared);
        c.lookup(0x0000); // refresh
        let (_, evicted) = c.fill(0x0100, LineState::Shared);
        assert_eq!(evicted, Some((0x0080, false)), "LRU way evicted");
        assert!(c.contains(0x0000));
        assert!(!c.contains(0x0080));
    }

    #[test]
    fn conflict_miss_after_replacement() {
        let mut c = tiny();
        c.fill(0x0000, LineState::Shared);
        c.fill(0x0080, LineState::Shared);
        c.fill(0x0100, LineState::Shared); // evicts 0x0000
        assert_eq!(c.classify_miss(0x0000), MissKind::Conflict);
    }

    #[test]
    fn coherence_miss_after_invalidation() {
        let mut c = tiny();
        c.fill(0x0000, LineState::Modified);
        assert_eq!(c.invalidate(0x0000), Some(true));
        assert_eq!(c.classify_miss(0x0000), MissKind::Coherence);
        // After the refill the next removal decides again.
        c.fill(0x0000, LineState::Shared);
        assert_eq!(c.lookup(0x0000), Some(LineState::Shared));
    }

    #[test]
    fn fill_classifies_then_marks_seen() {
        let mut c = tiny();
        assert_eq!(c.classify_miss(0x0000), MissKind::Cold);
        assert_eq!(c.fill(0x0000, LineState::Modified), (MissKind::Cold, None));
        // The same probe marked the line seen: while it is resident, and
        // after a replacement, its next miss is a conflict.
        assert_eq!(c.classify_miss(0x0000), MissKind::Conflict);
        c.invalidate(0x0000);
        assert_eq!(c.fill(0x0000, LineState::Shared).0, MissKind::Coherence);
        assert_eq!(c.classify_miss(0x0000), MissKind::Conflict);
    }

    #[test]
    fn eviction_reports_dirtiness() {
        let mut c = tiny();
        c.fill(0x0000, LineState::Modified);
        c.fill(0x0080, LineState::Shared);
        let (_, evicted) = c.fill(0x0100, LineState::Shared);
        assert_eq!(evicted, Some((0x0000, true)));
    }

    #[test]
    fn state_transitions() {
        let mut c = tiny();
        c.fill(0x40, LineState::Shared);
        c.set_state(0x40, LineState::Modified);
        assert_eq!(c.lookup(0x40), Some(LineState::Modified));
        c.set_state(0x40, LineState::Shared);
        assert_eq!(c.lookup(0x40), Some(LineState::Shared));
    }

    #[test]
    fn direct_mapped_conflicts() {
        let mut c = Cache::new(CacheConfig {
            size: 128,
            line: 32,
            assoc: 1,
        });
        c.fill(0x0000, LineState::Shared);
        c.fill(0x0080, LineState::Shared); // same set, 4 sets
        assert!(!c.contains(0x0000));
        assert_eq!(c.classify_miss(0x0000), MissKind::Conflict);
    }

    #[test]
    fn invalidate_absent_line_is_none() {
        let mut c = tiny();
        assert_eq!(c.invalidate(0x0000), None);
    }

    #[test]
    fn classification_spans_shared_and_private_segments() {
        use dss_shmem::{private_base, SHARED_BASE};
        let mut c = tiny();
        assert_eq!(c.fill(SHARED_BASE, LineState::Shared).0, MissKind::Cold);
        let private = private_base(1) + 0x40;
        assert_eq!(c.fill(private, LineState::Modified).0, MissKind::Cold);
        assert_eq!(c.classify_miss(SHARED_BASE + 8), MissKind::Conflict);
        assert_eq!(c.classify_miss(private_base(1) + 0x48), MissKind::Conflict);
        assert_eq!(c.classify_miss(private_base(1)), MissKind::Cold);
    }

    #[test]
    fn line_zero_in_shared_is_resident() {
        // Line 0 in `Shared` packs to the bare valid bit — still not the
        // empty way's 0.
        let mut c = tiny();
        c.fill(0x0000, LineState::Shared);
        assert_eq!(c.lookup(0x0008), Some(LineState::Shared));
        assert_eq!(c.resident_lines(), vec![(0x0000, LineState::Shared)]);
        // It is a victim like any other: two more lines of set 0 evict it.
        c.fill(0x0080, LineState::Shared);
        assert_eq!(c.fill(0x0100, LineState::Modified).1, Some((0x0000, false)));
        assert_eq!(c.classify_miss(0x0000), MissKind::Conflict);
    }

    #[test]
    fn invalidated_hole_is_refilled_before_any_eviction() {
        let mut c = tiny();
        c.fill(0x0000, LineState::Shared);
        c.fill(0x0080, LineState::Modified);
        // The hole is the *more* recently used way: LRU alone would evict
        // 0x0000 instead.
        assert_eq!(c.invalidate(0x0080), Some(true));
        assert_eq!(c.fill(0x0100, LineState::Shared).1, None);
        assert!(c.contains(0x0000) && c.contains(0x0100));
        // Full again: now the least recently used valid line goes.
        assert_eq!(c.fill(0x0180, LineState::Shared).1, Some((0x0000, false)));
    }

    #[test]
    fn removal_causes_decide_the_next_classification() {
        let mut c = tiny();
        c.fill(0x0000, LineState::Exclusive);
        c.evict_for_inclusion(0x0000);
        assert!(!c.contains(0x0000));
        assert_eq!(c.fill(0x0000, LineState::Exclusive).0, MissKind::Conflict);
        assert_eq!(c.invalidate(0x0000), Some(false), "Exclusive is clean");
        assert_eq!(c.classify_miss(0x0000), MissKind::Coherence);
        // Removing an absent line records nothing.
        c.evict_for_inclusion(0x0080);
        assert_eq!(c.invalidate(0x0080), None);
        assert_eq!(c.classify_miss(0x0080), MissKind::Cold);
    }

    #[test]
    fn eight_byte_lines_leave_room_for_the_state_bits() {
        // The smallest L1 line `MachineConfig::with_line_size(16)` produces.
        let mut c = Cache::new(CacheConfig {
            size: 64,
            line: 8,
            assoc: 2,
        });
        let states = [LineState::Shared, LineState::Exclusive, LineState::Modified];
        for (i, &state) in states.iter().enumerate() {
            // Adjacent lines: every address bit above the low three is used.
            let addr = 0x1000 + 8 * i as u64;
            c.fill(addr, state);
            assert_eq!(c.lookup(addr + 7), Some(state));
            assert_eq!(c.peek_state(addr), Some(state));
        }
        let mut resident = c.resident_lines();
        resident.sort_unstable_by_key(|&(line, _)| line);
        assert_eq!(
            resident,
            vec![
                (0x1000, LineState::Shared),
                (0x1008, LineState::Exclusive),
                (0x1010, LineState::Modified)
            ]
        );
    }

    #[test]
    fn four_lines_sharing_a_history_byte_classify_independently() {
        // The 8-byte L1 line of `l2_line = 16`, and 256-byte lines.
        for line in [8, 256] {
            // Direct-mapped, 8 sets: the line 8 lines on replaces a line.
            let mut c = Cache::new(CacheConfig {
                size: 8 * line,
                line,
                assoc: 1,
            });
            // Four adjacent lines from a 4-line boundary share one byte.
            let [resident, conflict, coherence, untouched] =
                [0, 1, 2, 3].map(|i| SHARED_BASE + i * line);
            assert_eq!(c.fill(coherence, LineState::Modified).0, MissKind::Cold);
            assert_eq!(c.fill(conflict, LineState::Shared).0, MissKind::Cold);
            assert_eq!(c.fill(resident, LineState::Shared).0, MissKind::Cold);
            assert_eq!(c.invalidate(coherence), Some(true));
            let (_, victim) = c.fill(conflict + 8 * line, LineState::Shared);
            assert_eq!(victim, Some((conflict, false)));
            let last = line - 1;
            assert!(c.contains(resident));
            assert_eq!(
                c.classify_miss(resident + last),
                MissKind::Conflict,
                "{line}: seen"
            );
            assert_eq!(
                c.classify_miss(conflict + last),
                MissKind::Conflict,
                "{line}"
            );
            assert_eq!(
                c.classify_miss(coherence + last),
                MissKind::Coherence,
                "{line}"
            );
            assert_eq!(c.classify_miss(untouched + last), MissKind::Cold, "{line}");
            // Each refill reads and marks its own line only.
            assert_eq!(c.fill(coherence, LineState::Shared).0, MissKind::Coherence);
            assert_eq!(c.fill(conflict, LineState::Shared).0, MissKind::Conflict);
            assert_eq!(c.classify_miss(untouched), MissKind::Cold, "{line}");
            assert_eq!(c.fill(untouched, LineState::Shared).0, MissKind::Cold);
            for l in [resident, conflict, coherence, untouched] {
                assert_eq!(c.classify_miss(l), MissKind::Conflict, "{line}: {l:#x}");
            }
            // The next line starts the next byte.
            assert_eq!(c.classify_miss(untouched + line), MissKind::Cold, "{line}");
        }
    }

    #[test]
    #[should_panic(expected = "no room for the state bits")]
    fn four_byte_lines_rejected() {
        Cache::new(CacheConfig {
            size: 64,
            line: 4,
            assoc: 1,
        });
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_line_rejected() {
        Cache::new(CacheConfig {
            size: 192,
            line: 48,
            assoc: 1,
        });
    }
}
