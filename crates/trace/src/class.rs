//! Classification of memory references by the data structure they touch.

/// The data structure a memory reference touches.
///
/// These are the categories the HPCA'97 paper uses when decomposing misses
/// (its Figure 7): private data, database data (tuples in buffer blocks),
/// database indices, and the Postgres95 metadata structures — buffer
/// descriptors, the buffer lookup hash, the Lock and Xid hash tables, and the
/// `LockMgrLock` spinlock (labelled *LockSLock* in the paper). We additionally
/// distinguish the `BufMgrLock` spinlock and a catch-all for other shared
/// metadata; both fold into the paper's *Metadata* group.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DataClass {
    /// Private heap data: tuple slots, sort and hash workspaces, temporaries.
    PrivHeap,
    /// Database data: tuples stored in shared buffer blocks.
    Data,
    /// Database indices: b-tree pages stored in shared buffer blocks.
    Index,
    /// Buffer descriptors (control structures for buffer blocks).
    BufDesc,
    /// The buffer lookup hash table (page id → buffer descriptor).
    BufLookup,
    /// The lock manager's Lock hash table.
    LockHash,
    /// The lock manager's Xid (transaction) hash table.
    XidHash,
    /// The `LockMgrLock` spinlock protecting the lock manager ("LockSLock").
    LockMgrLock,
    /// The `BufMgrLock` spinlock protecting the buffer manager.
    BufMgrLock,
    /// Other shared metadata (shared-memory headers, catalog caches, …).
    SharedMisc,
}

/// Coarse grouping of [`DataClass`] used by the paper's Figures 6(b), 8 and 10.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DataGroup {
    /// Private data structures (`Priv` in the paper).
    Priv,
    /// Database data (`Data`).
    Data,
    /// Database indices (`Index`).
    Index,
    /// Database control variables (`Metadata`).
    Metadata,
}

impl DataClass {
    /// Every class, in the order the paper's Figure 7 lists them.
    pub const ALL: [DataClass; 10] = [
        DataClass::PrivHeap,
        DataClass::Data,
        DataClass::Index,
        DataClass::BufDesc,
        DataClass::BufLookup,
        DataClass::LockHash,
        DataClass::XidHash,
        DataClass::LockMgrLock,
        DataClass::BufMgrLock,
        DataClass::SharedMisc,
    ];

    /// Position of this class in [`DataClass::ALL`]: its slot in per-class
    /// counter arrays, its code in a packed [`crate::Event`] and on the wire.
    /// An exhaustive match, so the compiler guarantees every class has one.
    pub const fn index(self) -> usize {
        match self {
            DataClass::PrivHeap => 0,
            DataClass::Data => 1,
            DataClass::Index => 2,
            DataClass::BufDesc => 3,
            DataClass::BufLookup => 4,
            DataClass::LockHash => 5,
            DataClass::XidHash => 6,
            DataClass::LockMgrLock => 7,
            DataClass::BufMgrLock => 8,
            DataClass::SharedMisc => 9,
        }
    }

    /// The coarse group this class belongs to.
    pub fn group(self) -> DataGroup {
        match self {
            DataClass::PrivHeap => DataGroup::Priv,
            DataClass::Data => DataGroup::Data,
            DataClass::Index => DataGroup::Index,
            DataClass::BufDesc
            | DataClass::BufLookup
            | DataClass::LockHash
            | DataClass::XidHash
            | DataClass::LockMgrLock
            | DataClass::BufMgrLock
            | DataClass::SharedMisc => DataGroup::Metadata,
        }
    }

    /// Whether references of this class touch the shared address space.
    pub fn is_shared(self) -> bool {
        !matches!(self, DataClass::PrivHeap)
    }

    /// Label used when rendering the paper's charts.
    pub fn label(self) -> &'static str {
        match self {
            DataClass::PrivHeap => "Priv",
            DataClass::Data => "Data",
            DataClass::Index => "Index",
            DataClass::BufDesc => "BufDesc",
            DataClass::BufLookup => "BufLook",
            DataClass::LockHash => "LockHash",
            DataClass::XidHash => "XidHash",
            DataClass::LockMgrLock => "LockSLock",
            DataClass::BufMgrLock => "BufSLock",
            DataClass::SharedMisc => "SharedMisc",
        }
    }
}

impl DataGroup {
    /// Every group, in the paper's plotting order.
    pub const ALL: [DataGroup; 4] = [
        DataGroup::Priv,
        DataGroup::Data,
        DataGroup::Index,
        DataGroup::Metadata,
    ];

    /// Label used when rendering the paper's charts.
    pub fn label(self) -> &'static str {
        match self {
            DataGroup::Priv => "Priv",
            DataGroup::Data => "Data",
            DataGroup::Index => "Index",
            DataGroup::Metadata => "Metadata",
        }
    }
}

impl std::fmt::Display for DataClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::fmt::Display for DataGroup {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lists_every_class_once() {
        let mut seen = std::collections::HashSet::new();
        for class in DataClass::ALL {
            assert!(seen.insert(class), "{class:?} listed twice");
        }
        assert_eq!(seen.len(), 10);
    }

    #[test]
    fn index_is_the_position_in_all() {
        for (i, class) in DataClass::ALL.iter().enumerate() {
            assert_eq!(class.index(), i, "{class:?}");
        }
    }

    #[test]
    fn only_priv_heap_is_private() {
        for class in DataClass::ALL {
            assert_eq!(class.is_shared(), class != DataClass::PrivHeap);
        }
    }

    #[test]
    fn groups_match_paper_structure() {
        assert_eq!(DataClass::PrivHeap.group(), DataGroup::Priv);
        assert_eq!(DataClass::Data.group(), DataGroup::Data);
        assert_eq!(DataClass::Index.group(), DataGroup::Index);
        for class in [
            DataClass::BufDesc,
            DataClass::BufLookup,
            DataClass::LockHash,
            DataClass::XidHash,
            DataClass::LockMgrLock,
            DataClass::BufMgrLock,
            DataClass::SharedMisc,
        ] {
            assert_eq!(class.group(), DataGroup::Metadata);
        }
    }

    #[test]
    fn lock_mgr_lock_uses_paper_label() {
        assert_eq!(DataClass::LockMgrLock.label(), "LockSLock");
        assert_eq!(DataClass::LockMgrLock.to_string(), "LockSLock");
    }

    #[test]
    fn group_labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            DataGroup::ALL.iter().map(|g| g.label()).collect();
        assert_eq!(labels.len(), DataGroup::ALL.len());
    }
}
