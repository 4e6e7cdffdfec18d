//! Buffer pool.
//!
//! Shore-MT keeps the database in a CLOCK-managed buffer pool; the paper's
//! experiments place the backing "disk" on an in-memory file system so the
//! CPU can be saturated. We reproduce the same structure: a [`PageStore`]
//! plays the role of the in-memory file system and the [`BufferPool`] caches
//! frames in front of it with a CLOCK replacement policy, pin counts and
//! dirty-page write-back. With the default configuration the working set fits
//! in the pool, exactly as in the paper, but the eviction path is real and
//! exercised by tests with tiny pools.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use dora_common::prelude::*;
use dora_metrics::{incr, CounterKind, TimeCategory};

use crate::latch::Latch;
use crate::page::Page;

/// Key of a page across the whole database: which table's heap file it
/// belongs to and its page number within that file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct PageKey {
    /// Owning table.
    pub table: TableId,
    /// Page number within the table's heap file.
    pub page: PageId,
}

/// The "disk": an in-memory map from page key to the serialized page image.
///
/// This mirrors the paper's in-memory file system — durable enough to
/// exercise the write-back and recovery code paths, fast enough that the CPU,
/// not the I/O subsystem, is the bottleneck.
#[derive(Debug, Default)]
pub struct PageStore {
    pages: Mutex<HashMap<PageKey, Page>>,
}

impl PageStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes a page image back to the store.
    pub(crate) fn write(&self, key: PageKey, page: Page) {
        self.pages.lock().insert(key, page);
    }

    /// Reads a page image, if the page has ever been written back.
    pub(crate) fn read(&self, key: PageKey) -> Option<Page> {
        self.pages.lock().get(&key).cloned()
    }

    /// Number of page images in the store.
    pub(crate) fn len(&self) -> usize {
        self.pages.lock().len()
    }
}

/// A buffer-pool frame: a page plus replacement metadata. The page itself is
/// behind an `RwLock` acting as the page latch.
#[derive(Debug)]
pub(crate) struct Frame {
    /// The cached page. Readers take the lock shared, writers exclusive.
    pub page: RwLock<Page>,
    /// Number of active pins; a pinned frame cannot be evicted.
    pins: std::sync::atomic::AtomicU32,
    /// CLOCK reference bit.
    referenced: std::sync::atomic::AtomicBool,
}

impl Frame {
    fn new(page: Page) -> Self {
        Self {
            page: RwLock::new(page),
            pins: std::sync::atomic::AtomicU32::new(0),
            referenced: std::sync::atomic::AtomicBool::new(true),
        }
    }

    /// Current pin count.
    pub(crate) fn pin_count(&self) -> u32 {
        self.pins.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// A pinned frame. The pin is released when the guard drops, making the frame
/// evictable again.
#[derive(Debug)]
pub(crate) struct PinnedFrame {
    frame: Arc<Frame>,
}

impl std::ops::Deref for PinnedFrame {
    type Target = Frame;

    fn deref(&self) -> &Frame {
        &self.frame
    }
}

impl Drop for PinnedFrame {
    fn drop(&mut self) {
        self.frame
            .pins
            .fetch_sub(1, std::sync::atomic::Ordering::Relaxed);
    }
}

struct PoolState {
    frames: HashMap<PageKey, Arc<Frame>>,
    clock: Vec<PageKey>,
    hand: usize,
}

/// CLOCK-managed buffer pool in front of a [`PageStore`].
pub struct BufferPool {
    state: Latch<PoolState>,
    store: Arc<PageStore>,
    capacity: usize,
    page_size: usize,
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("capacity", &self.capacity)
            .field("page_size", &self.page_size)
            .finish()
    }
}

impl BufferPool {
    /// Creates a pool caching at most `capacity` pages of `page_size` bytes.
    pub fn new(store: Arc<PageStore>, capacity: usize, page_size: usize) -> Self {
        Self {
            state: Latch::new(PoolState {
                frames: HashMap::new(),
                clock: Vec::new(),
                hand: 0,
            }),
            store,
            capacity: capacity.max(1),
            page_size,
        }
    }

    /// Number of frames currently cached.
    #[cfg(test)]
    pub(crate) fn cached_frames(&self) -> usize {
        self.state.lock(TimeCategory::OtherContention).frames.len()
    }

    /// Fetches (pinning) the frame for `key`, materializing it from the store
    /// or creating a fresh page if it was never written.
    pub(crate) fn pin(&self, key: PageKey) -> DbResult<PinnedFrame> {
        let mut state = self.state.lock(TimeCategory::OtherContention);
        if let Some(frame) = state.frames.get(&key) {
            incr(CounterKind::BufferHits);
            frame
                .pins
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            frame
                .referenced
                .store(true, std::sync::atomic::Ordering::Relaxed);
            return Ok(PinnedFrame {
                frame: Arc::clone(frame),
            });
        }
        incr(CounterKind::BufferMisses);
        if state.frames.len() >= self.capacity {
            self.evict_one(&mut state)?;
        }
        let page = self
            .store
            .read(key)
            .unwrap_or_else(|| Page::new(key.page, self.page_size));
        let frame = Arc::new(Frame::new(page));
        frame
            .pins
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        state.frames.insert(key, Arc::clone(&frame));
        state.clock.push(key);
        Ok(PinnedFrame { frame })
    }

    /// Writes every dirty cached page back to the store (checkpoint helper).
    pub(crate) fn flush_all(&self) {
        let state = self.state.lock(TimeCategory::OtherContention);
        for (key, frame) in state.frames.iter() {
            let mut page = frame.page.write();
            if page.is_dirty() {
                self.store.write(*key, page.clone());
                page.mark_clean();
            }
        }
    }

    /// CLOCK sweep: find an unpinned frame whose reference bit is clear,
    /// giving each referenced frame a second chance. Dirty victims are
    /// written back before being dropped.
    fn evict_one(&self, state: &mut PoolState) -> DbResult<()> {
        if state.clock.is_empty() {
            return Err(DbError::InvalidOperation(
                "buffer pool has no frames to evict".into(),
            ));
        }
        let mut sweeps = 0;
        let max_sweeps = state.clock.len() * 3;
        while sweeps < max_sweeps {
            let idx = state.hand % state.clock.len();
            state.hand = (state.hand + 1) % state.clock.len().max(1);
            let key = state.clock[idx];
            let evictable = {
                let frame = state.frames.get(&key).expect("clock entry has a frame");
                // Short-circuit keeps the reference bit untouched while the
                // frame is pinned.
                frame.pin_count() == 0
                    && !frame
                        .referenced
                        .swap(false, std::sync::atomic::Ordering::Relaxed)
            };
            if evictable {
                let frame = state.frames.remove(&key).expect("frame exists");
                state.clock.remove(idx);
                if state.hand > idx {
                    state.hand -= 1;
                }
                let mut page = frame.page.write();
                if page.is_dirty() {
                    self.store.write(key, page.clone());
                    page.mark_clean();
                }
                return Ok(());
            }
            sweeps += 1;
        }
        // Every frame is pinned: the pool is over-committed. Callers treat
        // this as "pool too small"; with realistic configurations it cannot
        // happen because each thread pins at most a couple of pages at once.
        Err(DbError::InvalidOperation(
            "all buffer pool frames are pinned".into(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(table: u32, page: u32) -> PageKey {
        PageKey {
            table: TableId(table),
            page: PageId(page),
        }
    }

    #[test]
    fn pin_creates_fresh_page_and_hits_afterwards() {
        let store = Arc::new(PageStore::new());
        let pool = BufferPool::new(Arc::clone(&store), 8, 1024);
        {
            let pinned = pool.pin(key(1, 0)).unwrap();
            let mut page = pinned.page.write();
            page.insert(b"record").unwrap();
        }
        let pinned = pool.pin(key(1, 0)).unwrap();
        let page = pinned.page.read();
        assert_eq!(page.live_slots().count(), 1);
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let store = Arc::new(PageStore::new());
        let pool = BufferPool::new(Arc::clone(&store), 2, 512);
        {
            let pinned = pool.pin(key(1, 0)).unwrap();
            pinned.page.write().insert(b"zero").unwrap();
        }
        {
            let pinned = pool.pin(key(1, 1)).unwrap();
            pinned.page.write().insert(b"one").unwrap();
        }
        // Third page forces an eviction of one of the first two.
        let _pinned = pool.pin(key(1, 2)).unwrap();
        assert!(pool.cached_frames() <= 2);
        assert_ne!(store.len(), 0);
        // Whatever was evicted can be read back with its contents intact.
        let p0 = pool.pin(key(1, 0)).unwrap();
        assert_eq!(p0.page.read().live_slots().count(), 1);
    }

    #[test]
    fn pinned_frames_are_not_evicted() {
        let store = Arc::new(PageStore::new());
        let pool = BufferPool::new(Arc::clone(&store), 2, 512);
        let p0 = pool.pin(key(1, 0)).unwrap();
        let p1 = pool.pin(key(1, 1)).unwrap();
        // Both frames pinned: a third pin must fail rather than evict.
        assert!(pool.pin(key(1, 2)).is_err());
        drop(p0);
        assert!(pool.pin(key(1, 2)).is_ok());
        drop(p1);
    }

    #[test]
    fn flush_all_persists_dirty_pages() {
        let store = Arc::new(PageStore::new());
        let pool = BufferPool::new(Arc::clone(&store), 4, 512);
        {
            let pinned = pool.pin(key(3, 7)).unwrap();
            pinned.page.write().insert(b"x").unwrap();
        }
        assert_eq!(store.len(), 0);
        pool.flush_all();
        assert_eq!(store.len(), 1);
        assert_eq!(store.read(key(3, 7)).unwrap().live_slots().count(), 1);
    }

    #[test]
    fn concurrent_pins_of_same_page_share_frame() {
        let store = Arc::new(PageStore::new());
        let pool = Arc::new(BufferPool::new(store, 8, 512));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        let pinned = pool.pin(key(1, 0)).unwrap();
                        let mut page = pinned.page.write();
                        if page.live_slots().count() == 0 {
                            page.insert(b"seed").unwrap();
                        }
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        let pinned = pool.pin(key(1, 0)).unwrap();
        assert_eq!(pinned.page.read().live_slots().count(), 1);
    }
}
