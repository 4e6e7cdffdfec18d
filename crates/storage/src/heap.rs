//! Heap files: collections of slotted pages holding a table's records.
//!
//! A heap file tracks which pages exist for the table and which still have
//! free space, and hands out RIDs on insert. All page access goes through the
//! buffer pool; per-page `RwLock`s act as page latches.
//!
//! Reads hand the record to the caller in place, under the page's read
//! latch ([`HeapFile::read_with`], [`HeapFile::scan`]), so the row codec
//! decodes straight from the page. [`HeapFile::read`] is the owned-copy
//! wrapper for callers that keep the bytes.

use std::sync::Arc;

use dora_common::prelude::*;
use dora_metrics::TimeCategory;

use crate::buffer::{BufferPool, PageKey};
use crate::latch::Latch;

struct HeapState {
    /// Number of pages allocated so far.
    page_count: u32,
    /// Pages believed to still have free room, most recently touched last.
    candidates: Vec<PageId>,
}

/// One slot-level operation of a batched page run
/// (see [`HeapFile::apply_page_ops`]).
#[derive(Debug, Clone, Copy)]
pub enum PageOp<'a> {
    /// Restore a record at a specific slot (redo of an insert).
    InsertAt(SlotId, &'a [u8]),
    /// Overwrite the record in a slot.
    Update(SlotId, &'a [u8]),
    /// Delete the record in a slot.
    Delete(SlotId),
}

/// A heap file for one table.
pub struct HeapFile {
    table: TableId,
    pool: Arc<BufferPool>,
    state: Latch<HeapState>,
}

impl std::fmt::Debug for HeapFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeapFile")
            .field("table", &self.table)
            .finish()
    }
}

impl HeapFile {
    /// Creates an empty heap file for `table`.
    pub fn new(table: TableId, pool: Arc<BufferPool>) -> Self {
        Self {
            table,
            pool,
            state: Latch::new(HeapState {
                page_count: 0,
                candidates: Vec::new(),
            }),
        }
    }

    /// The owning table.
    pub fn table(&self) -> TableId {
        self.table
    }

    /// Number of pages allocated so far.
    pub fn page_count(&self) -> u32 {
        self.state.lock(TimeCategory::OtherContention).page_count
    }

    fn tag(&self, err: DbError) -> DbError {
        match err {
            DbError::PageFull { .. } => DbError::PageFull { table: self.table },
            DbError::InvalidRid { rid, .. } => DbError::InvalidRid {
                table: self.table,
                rid,
            },
            other => other,
        }
    }

    /// Inserts a record, returning its new RID.
    pub fn insert(&self, record: &[u8]) -> DbResult<Rid> {
        self.insert_with(record, |_| {})
    }

    /// [`Self::insert`], invoking `on_insert` with the new RID *while the
    /// destination page's write latch is still held*. The multi-version
    /// store uses this window to seed the row's version chain before any
    /// snapshot reader can observe the slot: a reader's page latch
    /// acquisition happens-after the latch release, so by the time it can
    /// read the bytes the chain already says whether they are visible.
    pub fn insert_with(&self, record: &[u8], on_insert: impl FnOnce(Rid)) -> DbResult<Rid> {
        let mut on_insert = Some(on_insert);
        // Try candidate pages with space first, newest candidates last so
        // inserts cluster.
        let mut candidates = [None; 4];
        {
            let state = self.state.lock(TimeCategory::OtherContention);
            for (slot, page_id) in candidates.iter_mut().zip(state.candidates.iter().rev()) {
                *slot = Some(*page_id);
            }
        }
        for page_id in candidates.into_iter().flatten() {
            if let Some(rid) = self.try_insert_into(page_id, record, &mut on_insert)? {
                return Ok(rid);
            }
            // Page turned out to be full: forget it as a candidate.
            let mut state = self.state.lock(TimeCategory::OtherContention);
            state.candidates.retain(|p| *p != page_id);
        }
        // Allocate a new page. It is offered to other inserters only once
        // this record is in it: offered first, they could fill it before
        // this thread gets to it, and the refusal below would blame a small
        // record for being larger than a page.
        let page_id = {
            let mut state = self.state.lock(TimeCategory::OtherContention);
            let id = PageId(state.page_count);
            state.page_count += 1;
            id
        };
        let inserted = self.try_insert_into(page_id, record, &mut on_insert);
        self.state
            .lock(TimeCategory::OtherContention)
            .candidates
            .push(page_id);
        // A page nobody else could reach refusing the record means the
        // record is larger than a page.
        inserted?.ok_or(DbError::PageFull { table: self.table })
    }

    fn try_insert_into(
        &self,
        page_id: PageId,
        record: &[u8],
        on_insert: &mut Option<impl FnOnce(Rid)>,
    ) -> DbResult<Option<Rid>> {
        let pinned = self.pool.pin(PageKey {
            table: self.table,
            page: page_id,
        })?;
        let mut page = pinned.page.write();
        if !page.fits(record.len()) {
            return Ok(None);
        }
        let slot = page.insert(record).map_err(|e| self.tag(e))?;
        let rid = Rid {
            page: page_id,
            slot,
        };
        if let Some(hook) = on_insert.take() {
            hook(rid);
        }
        Ok(Some(rid))
    }

    /// Hands the record at `rid` to `f` in place, under the page's read
    /// latch, and returns what `f` made of it. Every single-record read
    /// goes through here; callers decode the bytes instead of copying them
    /// out.
    pub fn read_with<R>(&self, rid: Rid, f: impl FnOnce(&[u8]) -> DbResult<R>) -> DbResult<R> {
        let pinned = self.pool.pin(PageKey {
            table: self.table,
            page: rid.page,
        })?;
        let page = pinned.page.read();
        f(page.read(rid.slot).map_err(|e| self.tag(e))?)
    }

    /// An owned copy of the record at `rid`.
    pub fn read(&self, rid: Rid) -> DbResult<Arc<[u8]>> {
        self.read_with(rid, |record| Ok(Arc::from(record)))
    }

    /// Overwrites the record at `rid`.
    pub fn update(&self, rid: Rid, record: &[u8]) -> DbResult<()> {
        let pinned = self.pool.pin(PageKey {
            table: self.table,
            page: rid.page,
        })?;
        let mut page = pinned.page.write();
        page.update(rid.slot, record).map_err(|e| self.tag(e))
    }

    /// Deletes the record at `rid`, making the slot immediately reusable by
    /// later inserts. This is the non-transactional flavour: rollback of a
    /// same-transaction insert and recovery replay, where no concurrent
    /// transaction can race for the slot.
    pub fn delete(&self, rid: Rid) -> DbResult<()> {
        let pinned = self.pool.pin(PageKey {
            table: self.table,
            page: rid.page,
        })?;
        let mut page = pinned.page.write();
        page.delete(rid.slot).map_err(|e| self.tag(e))?;
        drop(page);
        let mut state = self.state.lock(TimeCategory::OtherContention);
        if !state.candidates.contains(&rid.page) {
            state.candidates.push(rid.page);
        }
        Ok(())
    }

    /// Transactional delete: removes the record but keeps the slot reserved
    /// so no concurrent insert can reuse it while the deleting transaction is
    /// still in flight. The deleter frees the slot at commit with
    /// [`Self::free_pending`]; on abort, [`Self::insert_at`] restores the
    /// record into the reserved slot. Without the reservation a concurrent
    /// insert could occupy the slot and make the delete's rollback
    /// impossible — which is also why deletes additionally lock the RID
    /// through the centralized manager even under DORA (Section 4.2.1).
    pub fn delete_pending(&self, rid: Rid) -> DbResult<()> {
        let pinned = self.pool.pin(PageKey {
            table: self.table,
            page: rid.page,
        })?;
        let mut page = pinned.page.write();
        page.delete_reserve(rid.slot).map_err(|e| self.tag(e))
    }

    /// Commit-time counterpart of [`Self::delete_pending`]: drops the slot
    /// reservation and re-offers the page to inserts.
    pub fn free_pending(&self, rid: Rid) -> DbResult<()> {
        let pinned = self.pool.pin(PageKey {
            table: self.table,
            page: rid.page,
        })?;
        let mut page = pinned.page.write();
        page.release(rid.slot).map_err(|e| self.tag(e))?;
        drop(page);
        let mut state = self.state.lock(TimeCategory::OtherContention);
        if !state.candidates.contains(&rid.page) {
            state.candidates.push(rid.page);
        }
        Ok(())
    }

    /// Restores a record at a specific RID (transaction rollback of a delete,
    /// or recovery redo of an insert).
    pub fn insert_at(&self, rid: Rid, record: &[u8]) -> DbResult<()> {
        {
            let mut state = self.state.lock(TimeCategory::OtherContention);
            if rid.page.0 >= state.page_count {
                state.page_count = rid.page.0 + 1;
            }
        }
        let pinned = self.pool.pin(PageKey {
            table: self.table,
            page: rid.page,
        })?;
        let mut page = pinned.page.write();
        page.insert_at(rid.slot, record).map_err(|e| self.tag(e))
    }

    /// Applies a run of slot-level redo operations to one page under a
    /// single pin and one page-latch acquisition — how recovery applies
    /// redo. Replay shards records by page, so a page's whole history
    /// arrives as one run; applying it in one shot amortizes the buffer-pool
    /// lookup and keeps replay workers from ever touching a shared latch
    /// per record.
    pub fn apply_page_ops(&self, page_id: PageId, ops: &[PageOp<'_>]) -> DbResult<()> {
        if ops.is_empty() {
            return Ok(());
        }
        let restores = ops.iter().any(|op| matches!(op, PageOp::InsertAt(..)));
        let deletes = ops.iter().any(|op| matches!(op, PageOp::Delete(..)));
        if restores {
            let mut state = self.state.lock(TimeCategory::OtherContention);
            if page_id.0 >= state.page_count {
                state.page_count = page_id.0 + 1;
            }
        }
        let pinned = self.pool.pin(PageKey {
            table: self.table,
            page: page_id,
        })?;
        let mut page = pinned.page.write();
        for op in ops {
            match *op {
                PageOp::InsertAt(slot, record) => page.insert_at(slot, record),
                PageOp::Update(slot, record) => page.update(slot, record),
                PageOp::Delete(slot) => page.delete(slot),
            }
            .map_err(|e| self.tag(e))?;
        }
        drop(page);
        if deletes {
            let mut state = self.state.lock(TimeCategory::OtherContention);
            if !state.candidates.contains(&page_id) {
                state.candidates.push(page_id);
            }
        }
        Ok(())
    }

    /// Returns `true` if `rid` points at a live record.
    pub fn is_live(&self, rid: Rid) -> DbResult<bool> {
        let pinned = self.pool.pin(PageKey {
            table: self.table,
            page: rid.page,
        })?;
        let page = pinned.page.read();
        Ok(page.is_live(rid.slot))
    }

    /// Full scan: calls `f` for every live record, in place under the page's
    /// read latch. Used by table scans and by consistency checks in tests.
    pub fn scan(&self, mut f: impl FnMut(Rid, &[u8])) -> DbResult<()> {
        let page_count = self.page_count();
        for page_number in 0..page_count {
            let page_id = PageId(page_number);
            let pinned = self.pool.pin(PageKey {
                table: self.table,
                page: page_id,
            })?;
            let page = pinned.page.read();
            for slot in page.live_slots() {
                let record = page.read(slot).map_err(|e| self.tag(e))?;
                f(
                    Rid {
                        page: page_id,
                        slot,
                    },
                    record,
                );
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::PageStore;

    fn heap() -> HeapFile {
        let store = Arc::new(PageStore::new());
        let pool = Arc::new(BufferPool::new(store, 64, 1024));
        HeapFile::new(TableId(1), pool)
    }

    #[test]
    fn insert_read_update_delete_cycle() {
        let heap = heap();
        let rid = heap.insert(b"payload").unwrap();
        assert_eq!(heap.read(rid).unwrap().as_ref(), b"payload");
        heap.update(rid, b"updated").unwrap();
        assert_eq!(heap.read(rid).unwrap().as_ref(), b"updated");
        heap.delete(rid).unwrap();
        assert!(heap.read(rid).is_err());
        assert!(!heap.is_live(rid).unwrap());
    }

    #[test]
    fn inserts_spill_to_new_pages() {
        let heap = heap();
        let record = vec![9u8; 200];
        let rids: Vec<_> = (0..50).map(|_| heap.insert(&record).unwrap()).collect();
        assert!(heap.page_count() > 1);
        for rid in &rids {
            assert_eq!(heap.read(*rid).unwrap().as_ref(), &record[..]);
        }
    }

    #[test]
    fn scan_visits_every_live_record() {
        let heap = heap();
        let a = heap.insert(b"a").unwrap();
        let b = heap.insert(b"b").unwrap();
        let c = heap.insert(b"c").unwrap();
        heap.delete(b).unwrap();
        let mut seen = Vec::new();
        heap.scan(|rid, bytes| seen.push((rid, bytes.to_vec())))
            .unwrap();
        assert_eq!(seen.len(), 2);
        assert!(seen.iter().any(|(rid, data)| *rid == a && data == b"a"));
        assert!(seen.iter().any(|(rid, data)| *rid == c && data == b"c"));
    }

    #[test]
    fn insert_at_restores_deleted_record() {
        let heap = heap();
        let rid = heap.insert(b"original").unwrap();
        heap.delete(rid).unwrap();
        heap.insert_at(rid, b"original").unwrap();
        assert_eq!(heap.read(rid).unwrap().as_ref(), b"original");
    }

    #[test]
    fn errors_carry_the_table_id() {
        let heap = heap();
        let missing = Rid::new(99, 0);
        match heap.read(missing) {
            Err(DbError::InvalidRid { table, .. }) => assert_eq!(table, TableId(1)),
            other => panic!("expected InvalidRid, got {other:?}"),
        }
    }

    #[test]
    fn a_new_page_is_offered_only_after_its_allocators_record_is_in() {
        let heap = heap();
        let mut offered_early = None;
        let rid = heap
            .insert_with(b"first", |rid| {
                // Runs under the page latch, right after the record went in.
                let state = heap.state.lock(TimeCategory::OtherContention);
                offered_early = Some(state.candidates.contains(&rid.page));
            })
            .unwrap();
        assert_eq!(offered_early, Some(false));
        let state = heap.state.lock(TimeCategory::OtherContention);
        assert!(state.candidates.contains(&rid.page), "offered afterwards");
    }

    /// Two records fill a page, so every other insert allocates one: a page
    /// offered before its allocator used it is filled by the other threads
    /// within a few hundred inserts, and the allocator's record is refused.
    #[test]
    fn concurrent_inserts_never_find_their_fresh_page_full() {
        let store = Arc::new(PageStore::new());
        let pool = Arc::new(BufferPool::new(store, 4096, 1024));
        let heap = Arc::new(HeapFile::new(TableId(3), pool));
        let record = [7u8; 400];
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let heap = Arc::clone(&heap);
                std::thread::spawn(move || {
                    for _ in 0..300 {
                        heap.insert(&record).expect("a 400-byte record fits a page");
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
    }

    #[test]
    fn concurrent_inserts_produce_unique_rids() {
        let store = Arc::new(PageStore::new());
        let pool = Arc::new(BufferPool::new(store, 256, 1024));
        let heap = Arc::new(HeapFile::new(TableId(2), pool));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let heap = Arc::clone(&heap);
                std::thread::spawn(move || {
                    (0..200)
                        .map(|i| heap.insert(format!("record-{t}-{i}").as_bytes()).unwrap())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut all = Vec::new();
        for handle in handles {
            all.extend(handle.join().unwrap());
        }
        let unique: std::collections::HashSet<_> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len());
    }
}
