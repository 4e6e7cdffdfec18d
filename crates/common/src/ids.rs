//! Strongly-typed identifiers.
//!
//! Using newtypes instead of bare integers keeps the lock manager, the heap
//! file layer and the DORA routing layer from accidentally mixing up, say, a
//! page number and a slot number. All identifiers are small `Copy` types.

use std::fmt;

/// Identifier of a transaction.
///
/// Transaction ids are allocated monotonically by the transaction manager;
/// id `0` is reserved and never handed to a real transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxnId(pub u64);

impl TxnId {
    /// The reserved "no transaction" id.
    pub const INVALID: TxnId = TxnId(0);
}

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Identifier of a table in the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub u32);

impl fmt::Display for TableId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "table#{}", self.0)
    }
}

/// Identifier of an index (primary or secondary) in the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IndexId(pub u32);

impl fmt::Display for IndexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "index#{}", self.0)
    }
}

/// Identifier of a page inside a heap file. Pages are numbered from zero
/// within their table's heap file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u32);

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "page#{}", self.0)
    }
}

/// Identifier of a slot within a slotted page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SlotId(pub u16);

impl fmt::Display for SlotId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slot#{}", self.0)
    }
}

/// A record identifier: the physical address of a tuple.
///
/// This mirrors the RID the paper talks about in Sections 4.2.1/4.2.2: DORA's
/// secondary indexes store RIDs (plus the routing fields) in their leaves, and
/// record inserts/deletes lock the RID through the centralized lock manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rid {
    /// Page holding the record.
    pub page: PageId,
    /// Slot within the page.
    pub slot: SlotId,
}

impl Rid {
    /// Builds a RID from raw page/slot numbers.
    pub fn new(page: u32, slot: u16) -> Self {
        Self {
            page: PageId(page),
            slot: SlotId(slot),
        }
    }

    /// Packs the RID into a single `u64`, used as a hash key by the lock
    /// manager and as the payload of secondary index entries.
    pub fn pack(self) -> u64 {
        ((self.page.0 as u64) << 16) | self.slot.0 as u64
    }

    /// Inverse of [`Rid::pack`].
    pub fn unpack(packed: u64) -> Self {
        Self {
            page: PageId((packed >> 16) as u32),
            slot: SlotId((packed & 0xFFFF) as u16),
        }
    }
}

impl fmt::Display for Rid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rid({},{})", self.page.0, self.slot.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invalid_txn_id_is_not_valid() {
        assert_eq!(TxnId::INVALID, TxnId(0));
        assert!(
            TxnId::INVALID < TxnId(1),
            "every allocated id orders after it"
        );
    }

    #[test]
    fn rid_pack_roundtrip() {
        let rid = Rid::new(123_456, 789);
        assert_eq!(Rid::unpack(rid.pack()), rid);
    }

    #[test]
    fn rid_pack_distinguishes_page_and_slot() {
        let a = Rid::new(1, 2);
        let b = Rid::new(2, 1);
        assert_ne!(a.pack(), b.pack());
    }

    #[test]
    fn display_formats_are_stable() {
        assert_eq!(TxnId(7).to_string(), "T7");
        assert_eq!(TableId(3).to_string(), "table#3");
        assert_eq!(Rid::new(4, 5).to_string(), "rid(4,5)");
    }
}
