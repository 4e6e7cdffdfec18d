//! Slotted heap pages.
//!
//! Records are stored in fixed-size pages with a classic slotted layout: a
//! header, a slot directory growing from the front and record payloads
//! growing from the back. A record's address — its RID — is the pair
//! (page id, slot id) and stays stable across in-place updates and page
//! compaction, which is what lets the lock manager lock RIDs and lets
//! secondary indexes store RIDs in their leaves.

use dora_common::prelude::*;

/// Per-slot metadata in the slot directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    /// Offset of the record payload within `data`.
    offset: u32,
    /// Length of the record payload in bytes.
    len: u32,
    /// Whether the slot currently holds a live record.
    live: bool,
    /// Dead slot reserved by an in-flight delete: not reusable by inserts
    /// until the deleting transaction commits ([`Page::release`]) and still
    /// restorable at its original slot if it aborts ([`Page::insert_at`]).
    reserved: bool,
}

/// A slotted page holding variable-length records.
///
/// The page owns a flat byte buffer of the configured page size. Free space
/// sits between the end of the (conceptual) slot directory and
/// `free_space_end`, the start of the payload area.
#[derive(Debug, Clone)]
pub(crate) struct Page {
    /// The page's id within its heap file.
    pub id: PageId,
    data: Vec<u8>,
    slots: Vec<Slot>,
    /// Offset one past the usable payload area: payloads are allocated
    /// downwards starting here.
    free_space_end: usize,
    /// Bytes occupied by live payloads (used to decide whether compaction
    /// would help).
    live_bytes: usize,
    /// Whether the page has been modified since it was last written back.
    dirty: bool,
}

/// Bytes of bookkeeping we charge per slot when estimating free space. The
/// in-memory representation keeps the directory in a `Vec`, but accounting
/// for it keeps page capacity realistic.
const SLOT_OVERHEAD: usize = 8;

impl Page {
    /// Creates an empty page of `size` bytes.
    pub(crate) fn new(id: PageId, size: usize) -> Self {
        Self {
            id,
            data: vec![0; size],
            slots: Vec::new(),
            free_space_end: size,
            live_bytes: 0,
            dirty: false,
        }
    }

    /// Total capacity of the page in bytes.
    pub(crate) fn capacity(&self) -> usize {
        self.data.len()
    }

    /// Whether the page has been modified since the last write-back.
    pub(crate) fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Clears the dirty flag (called by the buffer pool after write-back).
    pub(crate) fn mark_clean(&mut self) {
        self.dirty = false;
    }

    /// Contiguous free bytes available without compaction, accounting for the
    /// slot directory entry a new record would need.
    pub(crate) fn contiguous_free(&self) -> usize {
        let directory = self.slots.len() * SLOT_OVERHEAD + SLOT_OVERHEAD;
        self.free_space_end.saturating_sub(directory)
    }

    /// Free bytes that would be available after compaction.
    pub(crate) fn reclaimable_free(&self) -> usize {
        let directory = self.slots.len() * SLOT_OVERHEAD + SLOT_OVERHEAD;
        self.capacity().saturating_sub(self.live_bytes + directory)
    }

    /// Returns `true` if a record of `len` bytes fits on this page (possibly
    /// after compaction).
    pub(crate) fn fits(&self, len: usize) -> bool {
        self.reclaimable_free() >= len
    }

    /// Inserts a record, returning its slot id. Reuses dead slots when
    /// possible so that slot ids stay dense; compacts the payload area when
    /// fragmentation prevents an otherwise-possible insert.
    pub(crate) fn insert(&mut self, record: &[u8]) -> DbResult<SlotId> {
        if !self.fits(record.len()) {
            return Err(DbError::PageFull { table: TableId(0) });
        }
        if self.contiguous_free() < record.len() {
            self.compact();
        }
        let offset = self.free_space_end - record.len();
        self.data[offset..offset + record.len()].copy_from_slice(record);
        self.free_space_end = offset;
        self.live_bytes += record.len();
        self.dirty = true;

        let slot = Slot {
            offset: offset as u32,
            len: record.len() as u32,
            live: true,
            reserved: false,
        };
        // Prefer reusing a dead slot: this is exactly the physical-slot reuse
        // that creates the insert/delete conflict described in Section 4.2.1.
        // Slots reserved by an uncommitted delete are off limits — the
        // deleter may still abort and reclaim its slot.
        if let Some(idx) = self.slots.iter().position(|s| !s.live && !s.reserved) {
            self.slots[idx] = slot;
            Ok(SlotId(idx as u16))
        } else {
            self.slots.push(slot);
            Ok(SlotId((self.slots.len() - 1) as u16))
        }
    }

    /// The record in `slot`, in place: valid while the page is borrowed, so
    /// a caller holding the page latch can decode it without a copy.
    pub(crate) fn read(&self, slot: SlotId) -> DbResult<&[u8]> {
        let entry = self.slot(slot)?;
        if !entry.live {
            return Err(DbError::InvalidRid {
                table: TableId(0),
                rid: Rid {
                    page: self.id,
                    slot,
                },
            });
        }
        let start = entry.offset as usize;
        let end = start + entry.len as usize;
        Ok(&self.data[start..end])
    }

    /// Overwrites the record in `slot` with `record`, in place when it fits
    /// in the old payload slot and by re-allocation within the page
    /// otherwise.
    pub(crate) fn update(&mut self, slot: SlotId, record: &[u8]) -> DbResult<()> {
        let entry = *self.slot(slot)?;
        if !entry.live {
            return Err(DbError::InvalidRid {
                table: TableId(0),
                rid: Rid {
                    page: self.id,
                    slot,
                },
            });
        }
        self.dirty = true;
        if record.len() <= entry.len as usize {
            let start = entry.offset as usize;
            self.data[start..start + record.len()].copy_from_slice(record);
            self.live_bytes -= entry.len as usize - record.len();
            self.slots[slot.0 as usize].len = record.len() as u32;
            return Ok(());
        }
        // The record grew: release the old payload and re-allocate.
        let grow = record.len() - entry.len as usize;
        if self.reclaimable_free() < grow {
            return Err(DbError::PageFull { table: TableId(0) });
        }
        self.live_bytes -= entry.len as usize;
        self.slots[slot.0 as usize].live = false;
        if self.contiguous_free() < record.len() {
            self.compact();
        }
        let offset = self.free_space_end - record.len();
        self.data[offset..offset + record.len()].copy_from_slice(record);
        self.free_space_end = offset;
        self.live_bytes += record.len();
        self.slots[slot.0 as usize] = Slot {
            offset: offset as u32,
            len: record.len() as u32,
            live: true,
            reserved: false,
        };
        Ok(())
    }

    /// Deletes the record in `slot`, freeing its slot for reuse.
    pub(crate) fn delete(&mut self, slot: SlotId) -> DbResult<()> {
        self.delete_inner(slot, false)
    }

    /// Deletes the record in `slot` but keeps the slot *reserved*: inserts
    /// will not reuse it until [`Self::release`] frees it (at the deleting
    /// transaction's commit), while [`Self::insert_at`] can still restore the
    /// record there (at its abort). This closes the window where a concurrent
    /// insert steals the slot of an uncommitted delete and makes its rollback
    /// impossible.
    pub(crate) fn delete_reserve(&mut self, slot: SlotId) -> DbResult<()> {
        self.delete_inner(slot, true)
    }

    fn delete_inner(&mut self, slot: SlotId, reserve: bool) -> DbResult<()> {
        let entry = *self.slot(slot)?;
        if !entry.live {
            return Err(DbError::InvalidRid {
                table: TableId(0),
                rid: Rid {
                    page: self.id,
                    slot,
                },
            });
        }
        self.slots[slot.0 as usize].live = false;
        self.slots[slot.0 as usize].reserved = reserve;
        self.live_bytes -= entry.len as usize;
        self.dirty = true;
        Ok(())
    }

    /// Drops the reservation left by `Self::delete_reserve`, making the
    /// slot reusable by inserts. Called once the deleting transaction's
    /// commit is decided. Errors if the slot is live (the delete was rolled
    /// back — releasing would free an occupied slot).
    pub(crate) fn release(&mut self, slot: SlotId) -> DbResult<()> {
        let entry = *self.slot(slot)?;
        if entry.live {
            return Err(DbError::InvalidOperation(format!(
                "cannot release live slot {} of {}",
                slot.0, self.id
            )));
        }
        self.slots[slot.0 as usize].reserved = false;
        self.dirty = true;
        Ok(())
    }

    /// Re-inserts a record into a specific (currently dead) slot. Used by
    /// transaction rollback and by recovery redo, which must restore a record
    /// at its original RID.
    pub(crate) fn insert_at(&mut self, slot: SlotId, record: &[u8]) -> DbResult<()> {
        let idx = slot.0 as usize;
        if idx >= self.slots.len() {
            // Slot directory must grow to reach this slot (recovery into a
            // fresh page). Intermediate slots are created dead.
            if !self.fits(record.len()) {
                return Err(DbError::PageFull { table: TableId(0) });
            }
            while self.slots.len() <= idx {
                self.slots.push(Slot {
                    offset: 0,
                    len: 0,
                    live: false,
                    reserved: false,
                });
            }
        } else if self.slots[idx].live {
            return Err(DbError::InvalidOperation(format!(
                "slot {} of {} is occupied",
                slot.0, self.id
            )));
        }
        if !self.fits(record.len()) {
            return Err(DbError::PageFull { table: TableId(0) });
        }
        if self.contiguous_free() < record.len() {
            self.compact();
        }
        let offset = self.free_space_end - record.len();
        self.data[offset..offset + record.len()].copy_from_slice(record);
        self.free_space_end = offset;
        self.live_bytes += record.len();
        // Restoring into the slot consumes any delete reservation on it.
        self.slots[idx] = Slot {
            offset: offset as u32,
            len: record.len() as u32,
            live: true,
            reserved: false,
        };
        self.dirty = true;
        Ok(())
    }

    /// Iterates over the live slots of the page.
    pub(crate) fn live_slots(&self) -> impl Iterator<Item = SlotId> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.live)
            .map(|(i, _)| SlotId(i as u16))
    }

    fn slot(&self, slot: SlotId) -> DbResult<&Slot> {
        self.slots.get(slot.0 as usize).ok_or(DbError::InvalidRid {
            table: TableId(0),
            rid: Rid {
                page: self.id,
                slot,
            },
        })
    }

    /// Compacts the payload area, moving live payloads to the end of the page
    /// so that the free space becomes contiguous. Slot ids do not change.
    fn compact(&mut self) {
        let mut new_data = vec![0u8; self.data.len()];
        let mut end = self.data.len();
        for slot in self.slots.iter_mut() {
            if slot.live {
                let start = slot.offset as usize;
                let len = slot.len as usize;
                end -= len;
                new_data[end..end + len].copy_from_slice(&self.data[start..start + len]);
                slot.offset = end as u32;
            }
        }
        self.data = new_data;
        self.free_space_end = end;
        self.dirty = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page() -> Page {
        Page::new(PageId(0), 1024)
    }

    #[test]
    fn insert_read_roundtrip() {
        let mut p = page();
        let slot = p.insert(b"hello").unwrap();
        assert_eq!(p.read(slot).unwrap(), b"hello");
        assert_eq!(p.live_slots().count(), 1);
        assert!(p.is_dirty());
    }

    #[test]
    fn delete_frees_slot_for_reuse() {
        let mut p = page();
        let a = p.insert(b"aaaa").unwrap();
        let b = p.insert(b"bbbb").unwrap();
        p.delete(a).unwrap();
        assert!(p.read(a).is_err());
        assert_eq!(p.read(b).unwrap(), b"bbbb");
        // The freed slot id is reused by the next insert.
        let c = p.insert(b"cccc").unwrap();
        assert_eq!(c, a);
    }

    #[test]
    fn reserved_slot_is_skipped_by_inserts_until_released() {
        let mut p = page();
        let victim = p.insert(b"victim").unwrap();
        p.delete_reserve(victim).unwrap();
        assert!(p.read(victim).is_err());
        // An insert racing with the uncommitted delete must not steal the
        // reserved slot.
        let other = p.insert(b"other").unwrap();
        assert_ne!(other, victim);
        // The deleter committed: the slot becomes reusable.
        p.release(victim).unwrap();
        let reused = p.insert(b"reused").unwrap();
        assert_eq!(reused, victim);
    }

    #[test]
    fn rollback_restores_into_a_reserved_slot() {
        let mut p = page();
        let victim = p.insert(b"victim").unwrap();
        p.delete_reserve(victim).unwrap();
        p.insert(b"other").unwrap();
        // The deleter aborted: insert_at restores the record at its original
        // slot and consumes the reservation.
        p.insert_at(victim, b"victim").unwrap();
        assert_eq!(p.read(victim).unwrap(), b"victim");
        // Releasing a live slot is refused.
        assert!(p.release(victim).is_err());
    }

    #[test]
    fn update_in_place_and_grown() {
        let mut p = page();
        let slot = p.insert(b"0123456789").unwrap();
        p.update(slot, b"short").unwrap();
        assert_eq!(p.read(slot).unwrap(), b"short");
        p.update(slot, b"a considerably longer record payload")
            .unwrap();
        assert_eq!(
            p.read(slot).unwrap(),
            b"a considerably longer record payload"
        );
    }

    #[test]
    fn page_reports_full() {
        let mut p = Page::new(PageId(1), 128);
        let mut inserted = 0;
        loop {
            match p.insert(&[7u8; 32]) {
                Ok(_) => inserted += 1,
                Err(DbError::PageFull { .. }) => break,
                Err(other) => panic!("unexpected error {other}"),
            }
        }
        assert!(inserted >= 2);
        assert!(!p.fits(32));
    }

    #[test]
    fn compaction_reclaims_fragmented_space() {
        let mut p = Page::new(PageId(2), 256);
        let slots: Vec<_> = (0..4).map(|_| p.insert(&[1u8; 48]).unwrap()).collect();
        // Free alternating records to fragment the payload area.
        p.delete(slots[0]).unwrap();
        p.delete(slots[2]).unwrap();
        // 96 bytes are reclaimable but not contiguous; this insert forces a
        // compaction and must succeed.
        let slot = p.insert(&[2u8; 80]).unwrap();
        assert_eq!(p.read(slot).unwrap(), &[2u8; 80][..]);
        assert_eq!(p.read(slots[1]).unwrap(), &[1u8; 48][..]);
        assert_eq!(p.read(slots[3]).unwrap(), &[1u8; 48][..]);
    }

    #[test]
    fn insert_at_restores_specific_slot() {
        let mut p = page();
        let a = p.insert(b"first").unwrap();
        p.insert(b"second").unwrap();
        p.delete(a).unwrap();
        p.insert_at(a, b"restored").unwrap();
        assert_eq!(p.read(a).unwrap(), b"restored");
        // Occupied slots are refused.
        assert!(p.insert_at(a, b"again").is_err());
    }

    #[test]
    fn live_slots_iterates_only_live() {
        let mut p = page();
        let a = p.insert(b"a").unwrap();
        let b = p.insert(b"b").unwrap();
        let c = p.insert(b"c").unwrap();
        p.delete(b).unwrap();
        let live: Vec<_> = p.live_slots().collect();
        assert_eq!(live, vec![a, c]);
    }
}
