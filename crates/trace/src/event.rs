//! Trace events: classified memory references, busy cycles, and spinlock
//! operations.

use crate::DataClass;

/// A single classified memory reference.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MemRef {
    /// Simulated virtual address.
    pub addr: u64,
    /// Access width in bytes (1..=8; wider accesses are split by the tracer).
    pub size: u16,
    /// `true` for a store, `false` for a load.
    pub write: bool,
    /// The data structure the reference touches.
    pub class: DataClass,
}

impl MemRef {
    /// Creates a load reference.
    #[inline]
    pub fn load(addr: u64, size: u16, class: DataClass) -> Self {
        MemRef {
            addr,
            size,
            write: false,
            class,
        }
    }

    /// Creates a store reference.
    #[inline]
    pub fn store(addr: u64, size: u16, class: DataClass) -> Self {
        MemRef {
            addr,
            size,
            write: true,
            class,
        }
    }
}

/// Which spinlock a [`LockToken`] names.
///
/// The simulator needs the lock word's address (to generate the spin reads and
/// the acquiring read-modify-write) and its [`DataClass`] (to attribute the
/// resulting misses).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LockClass {
    /// The lock manager's `LockMgrLock` ("LockSLock" in the paper).
    LockMgr,
    /// The buffer manager's `BufMgrLock`.
    BufMgr,
    /// Any other metalock (shared-memory headers, …).
    Other,
}

impl LockClass {
    /// The class's 2-bit code, in a packed [`Event`] and on the wire.
    pub(crate) fn code(self) -> u8 {
        match self {
            LockClass::LockMgr => 0,
            LockClass::BufMgr => 1,
            LockClass::Other => 2,
        }
    }

    /// The class `code` names, if any.
    pub(crate) fn from_code(code: u8) -> Option<LockClass> {
        match code {
            0 => Some(LockClass::LockMgr),
            1 => Some(LockClass::BufMgr),
            2 => Some(LockClass::Other),
            _ => None,
        }
    }

    /// The data class of references to this lock's word.
    pub fn data_class(self) -> DataClass {
        match self {
            LockClass::LockMgr => DataClass::LockMgrLock,
            LockClass::BufMgr => DataClass::BufMgrLock,
            LockClass::Other => DataClass::SharedMisc,
        }
    }
}

/// A spinlock identity carried by acquire/release events.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LockToken {
    /// Address of the lock word in the simulated shared address space.
    pub addr: u64,
    /// Which lock this is, for miss attribution.
    pub class: LockClass,
}

impl LockToken {
    /// Creates a token for the lock word at `addr`.
    pub fn new(addr: u64, class: LockClass) -> Self {
        LockToken { addr, class }
    }
}

/// One entry of a processor's reference trace, decoded: the *view* of an
/// [`Event`]. Match on [`Event::kind`]; store and move [`Event`]s.
///
/// Spinlock acquisition is represented as an event rather than as raw
/// references because the *number* of spin reads depends on contention, which
/// is only known at simulation time when the four processors' clocks are
/// interleaved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A classified memory reference.
    Ref(MemRef),
    /// Non-memory work: the processor advances this many cycles.
    Busy(u32),
    /// Acquire a metalock, spinning (and re-reading the lock word) while held
    /// by another processor. Time spent spinning is the paper's *MSync*.
    LockAcquire(LockToken),
    /// Release a previously acquired metalock.
    LockRelease(LockToken),
}

/// One entry of a processor's reference trace, packed into one word — the
/// stored type of every trace buffer, block and replay loop.
///
/// ```text
/// bits 0..2    tag: 0 Busy, 1 Ref, 2 LockAcquire, 3 LockRelease
/// Ref:         bit 2 write · bits 3..7 class · bits 7..11 size · bits 16..64 address
/// Lock*:       bits 3..5 lock class · bits 16..64 address
/// Busy:        bits 16..48 cycles
/// ```
///
/// Unused bits are zero, so word equality is event equality. [`Event::kind`]
/// decodes to the [`EventKind`] view; `Debug` prints that view. The same
/// word, little-endian, is the record of the on-disk block format:
/// [`Event::to_bits`] writes it and [`Event::from_bits`] is the only way a
/// word from outside becomes an `Event`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Event(u64);

const TAG_BUSY: u64 = 0;
const TAG_REF: u64 = 1;
const TAG_ACQUIRE: u64 = 2;
const TAG_RELEASE: u64 = 3;
const TAG_MASK: u64 = 0b11;
const WRITE_BIT: u64 = 1 << 2;
const CLASS_SHIFT: u32 = 3;
const SIZE_SHIFT: u32 = 7;
const FIELD_MASK: u64 = 0xf;
const LOCK_CLASS_MASK: u64 = 0b11;
const PAYLOAD_SHIFT: u32 = 16;

/// Per tag (Busy, Ref, LockAcquire, LockRelease): the bits the variant
/// leaves unused, zero in every valid word, and one past the largest value
/// of the 4-bit field at [`CLASS_SHIFT`]. A lock's 2-bit class sits in that
/// field's low half and its high half is unused, so one comparison serves
/// both.
const UNUSED_BITS: [u64; 4] = {
    let low = (1 << PAYLOAD_SHIFT) - 1;
    let reference = TAG_MASK | WRITE_BIT | FIELD_MASK << CLASS_SHIFT | FIELD_MASK << SIZE_SHIFT;
    let lock = TAG_MASK | LOCK_CLASS_MASK << CLASS_SHIFT;
    [
        !((u32::MAX as u64) << PAYLOAD_SHIFT),
        low & !reference,
        low & !lock,
        low & !lock,
    ]
};
const CLASS_LIMIT: [u64; 4] = [1, DataClass::ALL.len() as u64, 3, 3];

/// Class of each 4-bit code. Codes past [`DataClass::ALL`] are never stored
/// (the constructors take a `DataClass`, [`Event::from_bits`] refuses them);
/// padding the table to the field's width keeps the decode free of a bounds
/// check.
const CLASS_OF: [DataClass; 16] = {
    let mut table = [DataClass::SharedMisc; 16];
    let mut i = 0;
    while i < DataClass::ALL.len() {
        table[i] = DataClass::ALL[i];
        i += 1;
    }
    table
};

impl Event {
    /// One past the largest address an event can carry (48 bits).
    pub const ADDR_LIMIT: u64 = 1 << 48;
    /// The widest reference an event can carry (a 4-bit field; the tracer
    /// splits accesses into at most 8 bytes).
    pub const MAX_REF_SIZE: u16 = FIELD_MASK as u16;

    /// A busy event of `cycles` cycles.
    #[inline]
    pub fn busy(cycles: u32) -> Event {
        Event((cycles as u64) << PAYLOAD_SHIFT | TAG_BUSY)
    }

    /// A memory-reference event.
    ///
    /// # Panics
    ///
    /// Panics if `r.addr` is not below [`Event::ADDR_LIMIT`] or `r.size`
    /// exceeds [`Event::MAX_REF_SIZE`].
    #[inline]
    pub fn reference(r: MemRef) -> Event {
        assert!(
            r.addr < Event::ADDR_LIMIT && r.size <= Event::MAX_REF_SIZE,
            "reference does not fit an Event: {r:?}"
        );
        Event(
            r.addr << PAYLOAD_SHIFT
                | (r.size as u64) << SIZE_SHIFT
                | (r.class.index() as u64) << CLASS_SHIFT
                | if r.write { WRITE_BIT } else { 0 }
                | TAG_REF,
        )
    }

    /// A metalock-acquire event.
    ///
    /// # Panics
    ///
    /// Panics if `token.addr` is not below [`Event::ADDR_LIMIT`].
    #[inline]
    pub fn lock_acquire(token: LockToken) -> Event {
        Event::lock(TAG_ACQUIRE, token)
    }

    /// A metalock-release event.
    ///
    /// # Panics
    ///
    /// Panics if `token.addr` is not below [`Event::ADDR_LIMIT`].
    #[inline]
    pub fn lock_release(token: LockToken) -> Event {
        Event::lock(TAG_RELEASE, token)
    }

    #[inline]
    fn lock(tag: u64, token: LockToken) -> Event {
        assert!(
            token.addr < Event::ADDR_LIMIT,
            "lock address does not fit an Event: {token:?}"
        );
        Event(token.addr << PAYLOAD_SHIFT | (token.class.code() as u64) << CLASS_SHIFT | tag)
    }

    /// The packed word.
    #[inline]
    pub fn to_bits(self) -> u64 {
        self.0
    }

    /// The event whose packed word is `w`, or `None` when no constructor
    /// produces `w`: a data-class code past [`DataClass::ALL`], lock class
    /// 3, or any bit set that the tagged variant does not use. This is the
    /// check at the file boundary that lets [`Event::kind`] decode without
    /// one.
    #[inline]
    pub fn from_bits(w: u64) -> Option<Event> {
        let tag = (w & TAG_MASK) as usize;
        let valid = w & UNUSED_BITS[tag] == 0 && (w >> CLASS_SHIFT) & FIELD_MASK < CLASS_LIMIT[tag];
        valid.then_some(Event(w))
    }

    /// Words with distinct [`Event::counter_slot`]s at most.
    pub(crate) const COUNTER_SLOTS: usize = 1 << SIZE_SHIFT;

    /// The word's tag, write and class bits: everything a counter keyed by
    /// event variant, direction and class needs, as one table index.
    /// `Event::from_bits(slot)` is the slot's representative event.
    #[inline]
    pub(crate) fn counter_slot(self) -> usize {
        (self.0 & (Event::COUNTER_SLOTS as u64 - 1)) as usize
    }

    /// The cycles of a busy event; zero for every other variant, without a
    /// branch.
    #[inline]
    pub(crate) fn busy_cycles(self) -> u64 {
        let is_busy = (self.0 & TAG_MASK == TAG_BUSY) as u64;
        (self.0 >> PAYLOAD_SHIFT) * is_busy
    }

    /// Decodes the word.
    #[inline]
    pub fn kind(self) -> EventKind {
        let w = self.0;
        let payload = w >> PAYLOAD_SHIFT;
        // Code 3 is never stored: the constructors take a `LockClass` and
        // `from_bits` refuses it.
        let token = || LockToken {
            addr: payload,
            class: LockClass::from_code(((w >> CLASS_SHIFT) & LOCK_CLASS_MASK) as u8)
                .unwrap_or(LockClass::Other),
        };
        match w & TAG_MASK {
            TAG_BUSY => EventKind::Busy(payload as u32),
            TAG_REF => EventKind::Ref(MemRef {
                addr: payload,
                size: ((w >> SIZE_SHIFT) & FIELD_MASK) as u16,
                write: w & WRITE_BIT != 0,
                class: CLASS_OF[((w >> CLASS_SHIFT) & FIELD_MASK) as usize],
            }),
            TAG_ACQUIRE => EventKind::LockAcquire(token()),
            _ => EventKind::LockRelease(token()),
        }
    }
}

impl From<EventKind> for Event {
    #[inline]
    fn from(kind: EventKind) -> Event {
        match kind {
            EventKind::Ref(r) => Event::reference(r),
            EventKind::Busy(n) => Event::busy(n),
            EventKind::LockAcquire(token) => Event::lock_acquire(token),
            EventKind::LockRelease(token) => Event::lock_release(token),
        }
    }
}

impl std::fmt::Debug for Event {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.kind().fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn load_and_store_set_direction() {
        let l = MemRef::load(0x10, 8, DataClass::Data);
        assert!(!l.write);
        let s = MemRef::store(0x10, 8, DataClass::Data);
        assert!(s.write);
        assert_eq!(l.addr, s.addr);
    }

    #[test]
    fn lock_class_maps_to_data_class() {
        assert_eq!(LockClass::LockMgr.data_class(), DataClass::LockMgrLock);
        assert_eq!(LockClass::BufMgr.data_class(), DataClass::BufMgrLock);
        assert_eq!(LockClass::Other.data_class(), DataClass::SharedMisc);
    }

    #[test]
    fn event_is_compact() {
        // Traces hold millions of events; every layer moves this many bytes
        // per event.
        assert_eq!(std::mem::size_of::<Event>(), 8);
    }

    #[test]
    fn debug_prints_the_decoded_view() {
        let kind = EventKind::Ref(MemRef::store(0x1040, 4, DataClass::Index));
        assert_eq!(format!("{:?}", Event::from(kind)), format!("{kind:?}"));
        assert_eq!(format!("{:?}", Event::busy(7)), "Busy(7)");
    }

    fn addr_strategy() -> impl Strategy<Value = u64> {
        prop_oneof![
            1 => Just(0u64),
            1 => Just(Event::ADDR_LIMIT - 1),
            6 => 0u64..Event::ADDR_LIMIT,
        ]
    }

    fn token_strategy() -> impl Strategy<Value = LockToken> {
        (addr_strategy(), 0u8..3).prop_map(|(addr, code)| {
            LockToken::new(
                addr,
                LockClass::from_code(code).expect("codes 0..3 are classes"),
            )
        })
    }

    fn kind_strategy() -> impl Strategy<Value = EventKind> {
        prop_oneof![
            1 => Just(EventKind::Busy(0)),
            1 => Just(EventKind::Busy(u32::MAX)),
            2 => any::<u32>().prop_map(EventKind::Busy),
            8 => (
                addr_strategy(),
                1u16..=8,
                any::<bool>(),
                0usize..DataClass::ALL.len()
            )
                .prop_map(|(addr, size, write, class)| {
                    EventKind::Ref(MemRef {
                        addr,
                        size,
                        write,
                        class: DataClass::ALL[class],
                    })
                }),
            2 => token_strategy().prop_map(EventKind::LockAcquire),
            2 => token_strategy().prop_map(EventKind::LockRelease),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn packing_round_trips(kind in kind_strategy()) {
            prop_assert_eq!(Event::from(kind).kind(), kind);
        }

        /// Equal words are equal events and nothing else is: packing
        /// leaves no don't-care bits behind.
        #[test]
        fn word_equality_is_event_equality(a in kind_strategy(), b in kind_strategy()) {
            prop_assert_eq!(Event::from(a) == Event::from(b), a == b);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn bits_round_trip(kind in kind_strategy()) {
            let e = Event::from(kind);
            prop_assert_eq!(Event::from_bits(e.to_bits()), Some(e));
        }

        /// Setting any bit the variant does not use makes the word
        /// impossible, whatever else it holds.
        #[test]
        fn any_unused_bit_is_refused(kind in kind_strategy(), bit in 0u32..64) {
            let w = Event::from(kind).to_bits();
            let unused = match kind {
                EventKind::Busy(_) => (2..16).contains(&bit) || bit >= 48,
                EventKind::Ref(_) => (11..16).contains(&bit),
                _ => bit == 2 || (5..16).contains(&bit),
            };
            if unused {
                prop_assert_eq!(Event::from_bits(w | 1 << bit), None);
            }
        }

        #[test]
        fn class_codes_past_the_last_are_refused(
            kind in kind_strategy(),
            class in DataClass::ALL.len() as u64..16,
        ) {
            let w = Event::from(kind).to_bits();
            match kind {
                EventKind::Ref(_) => {
                    let w = w & !(FIELD_MASK << CLASS_SHIFT) | class << CLASS_SHIFT;
                    prop_assert_eq!(Event::from_bits(w), None);
                }
                EventKind::LockAcquire(_) | EventKind::LockRelease(_) => {
                    let w = w | LOCK_CLASS_MASK << CLASS_SHIFT; // lock class 3
                    prop_assert_eq!(Event::from_bits(w), None);
                }
                EventKind::Busy(_) => {}
            }
        }
    }

    #[test]
    fn from_bits_accepts_exactly_the_constructors_range() {
        // Every word of the low 16 bits, over a zero payload: valid exactly
        // when a constructor can produce it.
        let accepted = (0..1u64 << 16)
            .filter(|&w| Event::from_bits(w).is_some())
            .count();
        // Busy; Ref: 2 directions x 10 classes x 16 sizes; 2 lock tags x 3.
        assert_eq!(accepted, 1 + 2 * 10 * 16 + 2 * 3);
        // A busy payload is 32 bits, an address 48.
        assert_eq!(Event::from_bits(1 << 48), None);
        assert!(Event::from_bits(1 << 47).is_some());
        assert!(Event::from_bits(1 << 63 | TAG_REF).is_some());
    }

    #[test]
    fn the_field_limits_themselves_fit() {
        let widest = MemRef::load(Event::ADDR_LIMIT - 1, Event::MAX_REF_SIZE, DataClass::Data);
        assert_eq!(Event::reference(widest).kind(), EventKind::Ref(widest));
    }

    #[test]
    #[should_panic(expected = "does not fit an Event")]
    fn a_reference_past_the_address_limit_panics() {
        Event::reference(MemRef::load(Event::ADDR_LIMIT, 8, DataClass::Data));
    }

    #[test]
    #[should_panic(expected = "does not fit an Event")]
    fn a_reference_past_the_size_limit_panics() {
        Event::reference(MemRef::load(
            0x1000,
            Event::MAX_REF_SIZE + 1,
            DataClass::Data,
        ));
    }

    #[test]
    #[should_panic(expected = "does not fit an Event")]
    fn a_lock_past_the_address_limit_panics() {
        Event::lock_release(LockToken::new(Event::ADDR_LIMIT, LockClass::Other));
    }
}
