//! B-Tree indexes.
//!
//! An in-memory B+Tree keyed by composite [`Key`]s. Two flavours are used by
//! the catalog:
//!
//! * **primary indexes** map a unique key to the record's RID;
//! * **secondary indexes** may be non-unique and, following Section 4.2.2 of
//!   the paper, their leaf entries carry not just the RID but also the
//!   **routing fields** of the record (so a secondary-action can be routed to
//!   the right executor after the probe) and a **`deleted` flag** (so
//!   uncommitted deletes stay visible until the deleting transaction commits
//!   and flags the entry outside any transaction).
//!
//! Keys leave a leaf two ways. [`BTreeIndex::remove`] drops a key the moment
//! it empties the key's bucket, so a primary index that loses rows from one
//! end (TPC-C's `new_order`, whose oldest orders Delivery deletes) keeps no
//! dead keys for later range reads to walk past. Flagged-deleted entries stay
//! until the leaf would split: the split path garbage-collects them before
//! deciding whether a split is really needed, as the paper suggests for
//! update-intensive workloads. Nothing merges leaves, so a leaf may be
//! underfull or empty.
//!
//! Concurrency: the tree is protected by a single readers-writer latch. This
//! is coarser than a production latch-crabbing scheme but preserves what the
//! evaluation needs — index work is charged to "useful work" and the paper's
//! contention story is entirely about the lock manager, not about index
//! latching.

use parking_lot::RwLock;

use dora_common::prelude::*;

/// An entry stored in a leaf.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexEntry {
    /// Physical address of the record.
    pub rid: Rid,
    /// Routing-field values of the record (empty for primary indexes).
    pub routing: Key,
    /// Logical-delete flag (Section 4.2.2): set after the deleting
    /// transaction commits; entries with the flag are ignored by probes and
    /// garbage-collected lazily on leaf splits.
    pub deleted: bool,
}

impl IndexEntry {
    /// Creates a live entry.
    pub fn new(rid: Rid, routing: Key) -> Self {
        Self {
            rid,
            routing,
            deleted: false,
        }
    }
}

/// Maximum number of keys per node before it splits.
const MAX_KEYS: usize = 64;

// Children stay boxed so splits move a pointer, not a 64-key node body.
#[allow(clippy::vec_box)]
#[derive(Debug)]
enum Node {
    Internal {
        keys: Vec<Key>,
        children: Vec<Box<Node>>,
    },
    Leaf {
        keys: Vec<Key>,
        values: Vec<Vec<IndexEntry>>,
    },
}

impl Node {
    fn new_leaf() -> Self {
        Node::Leaf {
            keys: Vec::new(),
            values: Vec::new(),
        }
    }

    fn is_over_capacity(&self) -> bool {
        match self {
            Node::Internal { keys, .. } => keys.len() > MAX_KEYS,
            Node::Leaf { keys, .. } => keys.len() > MAX_KEYS,
        }
    }

    /// Splits a full node in two, returning the separator key and the new
    /// right sibling.
    fn split(&mut self) -> (Key, Box<Node>) {
        match self {
            Node::Leaf { keys, values } => {
                let mid = keys.len() / 2;
                let right_keys = keys.split_off(mid);
                let right_values = values.split_off(mid);
                let separator = right_keys[0].clone();
                (
                    separator,
                    Box::new(Node::Leaf {
                        keys: right_keys,
                        values: right_values,
                    }),
                )
            }
            Node::Internal { keys, children } => {
                let mid = keys.len() / 2;
                let separator = keys[mid].clone();
                let right_keys = keys.split_off(mid + 1);
                keys.pop();
                let right_children = children.split_off(mid + 1);
                (
                    separator,
                    Box::new(Node::Internal {
                        keys: right_keys,
                        children: right_children,
                    }),
                )
            }
        }
    }
}

/// A B+Tree index from [`Key`] to one or more [`IndexEntry`] values.
pub struct BTreeIndex {
    root: RwLock<Box<Node>>,
    unique: bool,
}

impl std::fmt::Debug for BTreeIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BTreeIndex")
            .field("unique", &self.unique)
            .finish()
    }
}

impl BTreeIndex {
    /// Creates an empty index. A `unique` index rejects duplicate keys.
    pub fn new(unique: bool) -> Self {
        Self {
            root: RwLock::new(Box::new(Node::new_leaf())),
            unique,
        }
    }

    /// Whether the index enforces key uniqueness.
    pub fn is_unique(&self) -> bool {
        self.unique
    }

    /// Inserts an entry under `key`.
    pub fn insert(&self, key: &Key, entry: IndexEntry) -> DbResult<()> {
        let mut root = self.root.write();
        Self::insert_under_root(&mut root, key, entry, self.unique)
    }

    /// Inserts a batch of replayed entries under a single root-lock
    /// acquisition, so recovery does not take the tree lock once per record.
    /// There is no uniqueness check: the entries come from a committed
    /// history, and recovery replays page by page, so a key that moved to
    /// another page may be re-inserted before the entry it replaced is
    /// removed.
    pub fn insert_replayed(&self, entries: &[(Key, IndexEntry)]) -> DbResult<()> {
        if entries.is_empty() {
            return Ok(());
        }
        let mut root = self.root.write();
        for (key, entry) in entries {
            Self::insert_under_root(&mut root, key, entry.clone(), false)?;
        }
        Ok(())
    }

    fn insert_under_root(
        root: &mut Box<Node>,
        key: &Key,
        entry: IndexEntry,
        unique: bool,
    ) -> DbResult<()> {
        let result = Self::insert_into(root, key, entry, unique);
        if root.is_over_capacity() {
            let (separator, right) = root.split();
            let old_root = std::mem::replace(&mut **root, Node::new_leaf());
            **root = Node::Internal {
                keys: vec![separator],
                children: vec![Box::new(old_root), right],
            };
        }
        result
    }

    fn insert_into(node: &mut Node, key: &Key, entry: IndexEntry, unique: bool) -> DbResult<()> {
        match node {
            Node::Leaf { keys, values } => match keys.binary_search(key) {
                Ok(pos) => {
                    let bucket = &mut values[pos];
                    // Lazily garbage collect flagged entries; re-inserting a
                    // key whose previous record was flagged-deleted is legal
                    // (the paper explicitly allows re-inserting the same
                    // primary key once the old entry is flagged).
                    if unique && bucket.iter().any(|e| !e.deleted) {
                        return Err(DbError::DuplicateKey {
                            table: TableId(0),
                            detail: format!("key {key}"),
                        });
                    }
                    bucket.retain(|e| !e.deleted);
                    bucket.push(entry);
                    Ok(())
                }
                Err(pos) => {
                    keys.insert(pos, key.clone());
                    values.insert(pos, vec![entry]);
                    Ok(())
                }
            },
            Node::Internal { keys, children } => {
                let child_index = match keys.binary_search(key) {
                    Ok(pos) => pos + 1,
                    Err(pos) => pos,
                };
                let result = Self::insert_into(&mut children[child_index], key, entry, unique);
                if children[child_index].is_over_capacity() {
                    Self::gc_or_split(keys, children, child_index);
                }
                result
            }
        }
    }

    /// Before splitting a leaf, first drop entries whose every value is
    /// flagged deleted (the paper's modified leaf-split algorithm); only if
    /// the leaf is still over capacity does it actually split.
    #[allow(clippy::vec_box)]
    fn gc_or_split(keys: &mut Vec<Key>, children: &mut Vec<Box<Node>>, child_index: usize) {
        let child = &mut children[child_index];
        if let Node::Leaf {
            keys: leaf_keys,
            values,
        } = child.as_mut()
        {
            let mut i = 0;
            while i < leaf_keys.len() {
                if values[i].iter().all(|e| e.deleted) {
                    leaf_keys.remove(i);
                    values.remove(i);
                } else {
                    i += 1;
                }
            }
        }
        if child.is_over_capacity() {
            let (separator, right) = child.split();
            keys.insert(child_index, separator);
            children.insert(child_index + 1, right);
        }
    }

    /// Returns the live entries stored under `key` (ignoring flagged-deleted
    /// ones).
    pub fn get(&self, key: &Key) -> Vec<IndexEntry> {
        self.with_bucket(key, |bucket| {
            bucket.iter().filter(|e| !e.deleted).cloned().collect()
        })
    }

    /// The first live entry under `key`: a unique-key probe, which needs one
    /// entry and allocates nothing to find it.
    pub fn get_first(&self, key: &Key) -> Option<IndexEntry> {
        self.with_bucket(key, |bucket| bucket.iter().find(|e| !e.deleted).cloned())
    }

    /// Returns every entry stored under `key`, including flagged-deleted
    /// ones. DORA's secondary-action handling needs to see flagged entries so
    /// a transaction can notice that the record "was, or is being, deleted".
    pub fn get_with_deleted(&self, key: &Key) -> Vec<IndexEntry> {
        self.with_bucket(key, <[IndexEntry]>::to_vec)
    }

    /// Applies `f` to the bucket under `key` (empty if the key is absent),
    /// under the tree's read latch.
    fn with_bucket<R>(&self, key: &Key, f: impl FnOnce(&[IndexEntry]) -> R) -> R {
        let root = self.root.read();
        let mut node = root.as_ref();
        loop {
            match node {
                Node::Leaf { keys, values } => {
                    return match keys.binary_search(key) {
                        Ok(pos) => f(&values[pos]),
                        Err(_) => f(&[]),
                    };
                }
                Node::Internal { keys, children } => {
                    let child_index = match keys.binary_search(key) {
                        Ok(pos) => pos + 1,
                        Err(pos) => pos,
                    };
                    node = &children[child_index];
                }
            }
        }
    }

    /// Physically removes the entry for `rid` under `key`, and the key itself
    /// once its bucket is empty. Used by primary-key deletes, by the
    /// conventional engine's secondary-index deletes (which rely on row locks
    /// for isolation) and by rollback.
    pub fn remove(&self, key: &Key, rid: Rid) -> DbResult<()> {
        let mut root = self.root.write();
        Self::modify_bucket(&mut root, key, |bucket| {
            let before = bucket.len();
            bucket.retain(|e| e.rid != rid);
            before != bucket.len()
        })
    }

    /// Sets or clears the `deleted` flag on the entry for `rid` under `key`
    /// (Section 4.2.2: flags are set by the deleting transaction *after* it
    /// commits, and cleared when a rollback resurrects the record).
    pub fn set_deleted_flag(&self, key: &Key, rid: Rid, deleted: bool) -> DbResult<()> {
        let mut root = self.root.write();
        Self::modify_bucket(&mut root, key, |bucket| {
            let mut changed = false;
            for entry in bucket.iter_mut() {
                if entry.rid == rid {
                    entry.deleted = deleted;
                    changed = true;
                }
            }
            changed
        })
    }

    /// Applies `f` to the bucket under `key`; a bucket `f` leaves empty takes
    /// its key out of the leaf with it.
    fn modify_bucket(
        node: &mut Node,
        key: &Key,
        f: impl FnOnce(&mut Vec<IndexEntry>) -> bool,
    ) -> DbResult<()> {
        match node {
            Node::Leaf { keys, values } => match keys.binary_search(key) {
                Ok(pos) => {
                    if f(&mut values[pos]) {
                        if values[pos].is_empty() {
                            keys.remove(pos);
                            values.remove(pos);
                        }
                        Ok(())
                    } else {
                        Err(DbError::NotFound {
                            table: TableId(0),
                            detail: format!("index entry {key}"),
                        })
                    }
                }
                Err(_) => Err(DbError::NotFound {
                    table: TableId(0),
                    detail: format!("index key {key}"),
                }),
            },
            Node::Internal { keys, children } => {
                let child_index = match keys.binary_search(key) {
                    Ok(pos) => pos + 1,
                    Err(pos) => pos,
                };
                Self::modify_bucket(&mut children[child_index], key, f)
            }
        }
    }

    /// Range read: the live entries of keys in `range`, in key order, at most
    /// `limit` of them.
    pub fn range(&self, range: &KeyRange, limit: usize) -> Vec<(Key, IndexEntry)> {
        let mut out = Vec::new();
        self.range_with(range, limit, |key, entry| {
            out.push((key.clone(), entry.clone()))
        });
        out
    }

    /// [`Self::range`] without the copies: hands each entry to `f` in place,
    /// under the tree's read latch, so a caller that needs only the RIDs
    /// clones no key.
    pub fn range_with(&self, range: &KeyRange, limit: usize, mut f: impl FnMut(&Key, &IndexEntry)) {
        if limit > 0 {
            let root = self.root.read();
            let mut left = limit;
            Self::walk_range(root.as_ref(), range, &mut left, &mut f);
        }
    }

    /// Hands the live entries of `range` under `node` to `f` while `left`
    /// lasts. Descends only into children that can hold keys in the range,
    /// starts each leaf at the low bound by binary search, and returns `true`
    /// once the walk is over: a key at or past the high bound was reached, or
    /// `left` ran out.
    fn walk_range(
        node: &Node,
        range: &KeyRange,
        left: &mut usize,
        f: &mut impl FnMut(&Key, &IndexEntry),
    ) -> bool {
        let past_high = |key: &Key| range.high.as_ref().is_some_and(|high| key >= high);
        match node {
            Node::Leaf { keys, values } => {
                let start = range
                    .low
                    .as_ref()
                    .map_or(0, |low| keys.partition_point(|key| key < low));
                for (key, bucket) in keys[start..].iter().zip(&values[start..]) {
                    if past_high(key) {
                        return true;
                    }
                    for entry in bucket.iter().filter(|e| !e.deleted) {
                        f(key, entry);
                        *left -= 1;
                        if *left == 0 {
                            return true;
                        }
                    }
                }
                false
            }
            Node::Internal { keys, children } => {
                // Child `i` holds the keys in `[keys[i - 1], keys[i])`.
                let first = range
                    .low
                    .as_ref()
                    .map_or(0, |low| keys.partition_point(|separator| separator <= low));
                for (i, child) in children.iter().enumerate().skip(first) {
                    if i > 0 && past_high(&keys[i - 1]) {
                        return true;
                    }
                    if Self::walk_range(child, range, left, f) {
                        return true;
                    }
                }
                false
            }
        }
    }

    /// Number of live keys in the index (for tests and statistics).
    pub fn len(&self) -> usize {
        let root = self.root.read();
        Self::count(root.as_ref())
    }

    /// `true` if the index holds no live entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn count(node: &Node) -> usize {
        match node {
            Node::Leaf { values, .. } => values
                .iter()
                .filter(|bucket| bucket.iter().any(|e| !e.deleted))
                .count(),
            Node::Internal { children, .. } => children.iter().map(|c| Self::count(c)).sum(),
        }
    }

    /// Depth of the tree (1 for a single leaf). Diagnostics and tests.
    pub fn depth(&self) -> usize {
        let root = self.root.read();
        let mut depth = 1;
        let mut node = root.as_ref();
        while let Node::Internal { children, .. } = node {
            depth += 1;
            node = &children[0];
        }
        depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(page: u32, slot: u16) -> IndexEntry {
        IndexEntry::new(Rid::new(page, slot), Key::empty())
    }

    #[test]
    fn insert_and_get() {
        let index = BTreeIndex::new(true);
        index.insert(&Key::int(5), entry(0, 5)).unwrap();
        index.insert(&Key::int(3), entry(0, 3)).unwrap();
        let found = index.get(&Key::int(5));
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rid, Rid::new(0, 5));
        assert!(index.get(&Key::int(99)).is_empty());
    }

    #[test]
    fn unique_index_rejects_duplicates() {
        let index = BTreeIndex::new(true);
        index.insert(&Key::int(1), entry(0, 1)).unwrap();
        assert!(matches!(
            index.insert(&Key::int(1), entry(0, 2)),
            Err(DbError::DuplicateKey { .. })
        ));
    }

    #[test]
    fn non_unique_index_accumulates_entries() {
        let index = BTreeIndex::new(false);
        index.insert(&Key::int(1), entry(0, 1)).unwrap();
        index.insert(&Key::int(1), entry(0, 2)).unwrap();
        assert_eq!(index.get(&Key::int(1)).len(), 2);
    }

    #[test]
    fn splits_keep_all_keys_reachable() {
        let index = BTreeIndex::new(true);
        let n = 10_000i64;
        for i in 0..n {
            // Insert in a shuffled-ish order to exercise both split halves.
            let key = (i * 7919) % n;
            index
                .insert(&Key::int(key), entry(0, (key % 1000) as u16))
                .unwrap();
        }
        assert_eq!(index.len(), n as usize);
        assert!(index.depth() >= 3);
        for probe in [0, 1, n / 2, n - 1, 4242] {
            assert_eq!(index.get(&Key::int(probe)).len(), 1, "missing key {probe}");
        }
    }

    #[test]
    fn deleted_flag_hides_entries_but_keeps_them_visible_to_executors() {
        let index = BTreeIndex::new(false);
        index
            .insert(
                &Key::int2(1, 10),
                IndexEntry::new(Rid::new(0, 1), Key::int(1)),
            )
            .unwrap();
        index
            .set_deleted_flag(&Key::int2(1, 10), Rid::new(0, 1), true)
            .unwrap();
        assert!(index.get(&Key::int2(1, 10)).is_empty());
        assert_eq!(index.get_first(&Key::int2(1, 10)), None);
        let with_deleted = index.get_with_deleted(&Key::int2(1, 10));
        assert_eq!(with_deleted.len(), 1);
        assert!(with_deleted[0].deleted);
        // Re-inserting the same key after the flag is legal, even on a unique
        // index.
        let unique = BTreeIndex::new(true);
        unique.insert(&Key::int(9), entry(0, 1)).unwrap();
        unique
            .set_deleted_flag(&Key::int(9), Rid::new(0, 1), true)
            .unwrap();
        unique.insert(&Key::int(9), entry(0, 2)).unwrap();
        assert_eq!(unique.get_first(&Key::int(9)), Some(entry(0, 2)));
        assert_eq!(unique.get(&Key::int(9)).len(), 1);
        // A single-entry probe skips a flagged entry ahead of a live one.
        index.insert(&Key::int(7), entry(0, 3)).unwrap();
        index.insert(&Key::int(7), entry(0, 4)).unwrap();
        index
            .set_deleted_flag(&Key::int(7), Rid::new(0, 3), true)
            .unwrap();
        assert_eq!(index.get_first(&Key::int(7)), Some(entry(0, 4)));
    }

    #[test]
    fn remove_deletes_physically() {
        let index = BTreeIndex::new(false);
        index.insert(&Key::int(1), entry(0, 1)).unwrap();
        index.insert(&Key::int(1), entry(0, 2)).unwrap();
        index.remove(&Key::int(1), Rid::new(0, 1)).unwrap();
        let remaining = index.get(&Key::int(1));
        assert_eq!(remaining.len(), 1);
        assert_eq!(remaining[0].rid, Rid::new(0, 2));
        assert!(index.remove(&Key::int(42), Rid::new(0, 0)).is_err());
    }

    #[test]
    fn range_scan_returns_sorted_window() {
        let index = BTreeIndex::new(true);
        for i in 0..1000i64 {
            index
                .insert(&Key::int(i), entry(0, (i % 100) as u16))
                .unwrap();
        }
        let range = KeyRange::new(Some(Key::int(100)), Some(Key::int(110)));
        let hits = index.range(&range, usize::MAX);
        assert_eq!(hits.len(), 10);
        assert_eq!(hits[0].0, Key::int(100));
        assert_eq!(hits[9].0, Key::int(109));
        let keys: Vec<_> = hits.iter().map(|(k, _)| k.clone()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        let first_three: Vec<_> = index.range(&range, 3).into_iter().map(|(k, _)| k).collect();
        assert_eq!(first_three, keys[..3]);
        assert!(index.range(&range, 0).is_empty());
    }

    /// Every key stored in a leaf, whether its bucket holds live entries,
    /// flagged ones or none.
    fn stored_keys(index: &BTreeIndex) -> usize {
        fn walk(node: &Node) -> usize {
            match node {
                Node::Leaf { keys, .. } => keys.len(),
                Node::Internal { children, .. } => children.iter().map(|c| walk(c)).sum(),
            }
        }
        walk(index.root.read().as_ref())
    }

    #[test]
    fn remove_forgets_a_key_whose_bucket_it_empties() {
        let index = BTreeIndex::new(true);
        for i in 1..=1000i64 {
            index
                .insert(&Key::int(i), entry(0, (i % 100) as u16))
                .unwrap();
        }
        for i in 1..=999i64 {
            index
                .remove(&Key::int(i), Rid::new(0, (i % 100) as u16))
                .unwrap();
        }
        assert_eq!(
            stored_keys(&index),
            1,
            "emptied keys must leave their leaves"
        );
        let from_below = KeyRange::new(Some(Key::int(0)), None);
        let hits = index.range(&from_below, 1);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, Key::int(1000));
        // The emptied leaves still route: keys come back where they were.
        index.insert(&Key::int(5), entry(1, 5)).unwrap();
        assert_eq!(index.get(&Key::int(5))[0].rid, Rid::new(1, 5));
        assert_eq!(index.range(&KeyRange::all(), usize::MAX).len(), 2);
    }

    #[test]
    fn leaf_split_garbage_collects_flagged_entries() {
        let index = BTreeIndex::new(true);
        // Fill one leaf to capacity with entries then flag them all deleted.
        for i in 0..MAX_KEYS as i64 {
            index.insert(&Key::int(i), entry(0, i as u16)).unwrap();
        }
        for i in 0..MAX_KEYS as i64 {
            index
                .set_deleted_flag(&Key::int(i), Rid::new(0, i as u16), true)
                .unwrap();
        }
        // Keep inserting: the flagged entries must be collected instead of
        // causing the tree to grow.
        for i in 100_000..100_000 + (2 * MAX_KEYS as i64) {
            index
                .insert(&Key::int(i), entry(1, (i % 1000) as u16))
                .unwrap();
        }
        assert_eq!(index.len(), 2 * MAX_KEYS);
        assert!(index.depth() <= 2);
    }

    #[test]
    fn composite_keys_order_correctly() {
        let index = BTreeIndex::new(true);
        for warehouse in 1..=5i64 {
            for district in 1..=10i64 {
                index
                    .insert(
                        &Key::int2(warehouse, district),
                        entry(warehouse as u32, district as u16),
                    )
                    .unwrap();
            }
        }
        let range = KeyRange::new(Some(Key::int(3)), Some(Key::int(4)));
        let hits = index.range(&range, usize::MAX);
        assert_eq!(hits.len(), 10, "all districts of warehouse 3");
        assert!(hits.iter().all(|(k, _)| k.leading_int() == Some(3)));
    }
}
