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
//! **Layout.** The tree never compares [`Key`]s. Each call encodes its key
//! once into its normalized form ([`Key::normalize`]: bytes whose `memcmp`
//! order is the key order, so keys of any types and arities share an index),
//! and every node stores the normalized keys it holds. A node is one
//! allocation of fixed arrays for up to 64 keys, the fields a probe reads
//! first:
//!
//! * the node's shared prefix: up to 32 bytes every searched key starts
//!   with, compared once per visit;
//! * `heads`: the 8 bytes of each key past that prefix as a big-endian
//!   `u64`. A probe binary-searches them and reads a key's bytes only to
//!   break a tie, or to confirm a hit whose suffix is longer than its head;
//! * `cells`: where each key's bytes sit and, in a leaf, the key's first
//!   entry: its RID and deleted flag;
//! * a 1.5 KiB arena of key bytes. A leaf entry's routing fields follow its
//!   key there, or take no bytes when they are a prefix of the key (a primary
//!   key led by its routing fields). Keys and routing fields over 192 bytes
//!   live out of line, in a per-node list, so one wide key cannot crowd a
//!   node out;
//! * the children, or each leaf key's later entries (a non-unique key's).
//!
//! An internal node keys each child by its smallest key and searches from
//! its second, so splitting either kind of node is the same cut and the
//! separator the parent adopts is the new right sibling's first key. A node
//! splits when its cells or its arena run out: at the byte midpoint, or, when
//! the key goes to the very end, by starting an empty right sibling, so
//! ascending inserts (bulk loads, new orders) leave full nodes behind them.
//! The capacity, 64 keys, was measured against 32 and 128 with
//! `storage_micro`-style probes: 32 adds a level, 128 probes no faster.
//!
//! A probe whose key encodes in up to 64 bytes allocates nothing, nor does a
//! unique insert into a leaf with room. [`BTreeIndex::get_rid`] and
//! [`BTreeIndex::range_rids`] decode nothing; the calls that return
//! [`IndexEntry`]s decode the routing fields, which allocates only for text,
//! and `BTreeIndex::range_with` decodes each key once.
//!
//! Concurrency: the tree is protected by a single readers-writer latch. This
//! is coarser than a production latch-crabbing scheme, and measured to be
//! enough: CPU profiles of the TM1 and TPC-C mixes (closed loop, two
//! clients) put under 2 % of their time in the latch, against 18–21 % in the
//! tree when it compared `Key`s (12–14 % in the comparisons alone) and
//! 11–12 % with normalized keys. Latch-free partitions (PLP) would remove the
//! smaller cost. The paper's contention story is about the lock manager, not
//! index latching.

use std::cmp::Ordering;

use parking_lot::RwLock;

use dora_common::key::NormalizedKey;
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

/// Keys per node (see the module docs for how it was chosen).
const CAP: usize = 64;

/// Arena bytes per node: 24 per key, enough for 64 two-Int keys led by their
/// routing fields, or 42 four-Int keys.
const ARENA: usize = 24 * CAP;

/// Stored bytes (key plus own routing fields) past which a cell lives out of
/// line. At most an eighth of the arena, so a byte-midpoint split always
/// leaves room for the key that caused it.
const LONG: usize = ARENA / 8;

/// Longest shared prefix a node strips from its keys' heads.
const PREFIX: usize = 32;

/// The first 8 bytes of a key suffix as a big-endian `u64`, zero-padded:
/// ordering heads orders suffixes, up to ties only the full bytes break.
fn head(bytes: &[u8]) -> u64 {
    if let Some(first) = bytes.first_chunk::<8>() {
        return u64::from_be_bytes(*first);
    }
    bytes
        .iter()
        .enumerate()
        .fold(0, |head, (i, &b)| head | u64::from(b) << (56 - 8 * i))
}

/// Length of the longest common prefix of `a` and `b`.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// Decodes bytes this module normalized. Every stored key was written by
/// `Key::normalized`, so decoding cannot fail.
fn decode(bytes: &[u8]) -> Key {
    Key::from_normalized(bytes).expect("an index stores only normalized keys")
}

/// One key of a node: where its bytes are and, in a leaf, the key's first
/// entry, so a unique probe reads one cell beside the heads it searched.
#[derive(Debug, Clone, Copy, Default)]
struct Cell {
    /// Offset into the node's arena, or, out of line, index into `long`.
    at: u32,
    /// Bytes of the normalized key.
    key_len: u32,
    /// Bytes of the first entry's normalized routing fields.
    routing_len: u32,
    /// The first entry's RID, packed ([`Rid::pack`]).
    rid: u64,
    /// The first entry's deleted flag.
    deleted: bool,
    /// The routing fields are the key's first `routing_len` bytes and store
    /// nothing of their own.
    routing_shared: bool,
    /// The bytes are in `Node::long`, not in the arena.
    out_of_line: bool,
}

impl Cell {
    /// Bytes the cell stores: the key, then its routing fields unless shared.
    fn stored_len(self) -> usize {
        let own = if self.routing_shared {
            0
        } else {
            self.routing_len
        };
        (self.key_len + own) as usize
    }

    /// Arena bytes the cell occupies.
    fn arena_len(self) -> usize {
        if self.out_of_line {
            0
        } else {
            self.stored_len()
        }
    }
}

// Both variants live inline so a node stays one allocation; internal nodes,
// the smaller variant, are about one node in 40.
#[allow(clippy::large_enum_variant)]
enum Items {
    /// A key's entries after the first (in its cell), in insertion order:
    /// empty unless the key is non-unique.
    Leaf([Vec<IndexEntry>; CAP]),
    /// Child `i` holds the keys in `[key(i), key(i + 1))`; `key(0)` is
    /// never searched (a new root leaves it empty).
    Internal([Option<Box<Node>>; CAP]),
}

/// A tree node: its keys, and its children or its keys' entries, in one
/// allocation. The fields a search reads come first.
#[repr(C)]
struct Node {
    leaf: bool,
    len: usize,
    /// How many bytes every searched key of the node starts with: their
    /// common prefix, or less, and at most [`PREFIX`]. `heads` start after
    /// it.
    prefix: usize,
    /// Those bytes, so a search compares them without touching a key.
    prefix_bytes: [u8; PREFIX],
    heads: [u64; CAP],
    cells: [Cell; CAP],
    /// Arena bytes handed out, live or garbage.
    used: usize,
    /// Arena bytes of keys removed or rewritten since the last compaction.
    garbage: usize,
    /// Out-of-line cells' bytes (see [`LONG`]); empty in almost every node.
    long: Vec<Box<[u8]>>,
    arena: [u8; ARENA],
    items: Items,
}

/// A unique index already holds a live entry under the key.
struct Duplicate;

impl Node {
    fn new(leaf: bool) -> Box<Node> {
        let items = if leaf {
            Items::Leaf(std::array::from_fn(|_| Vec::new()))
        } else {
            Items::Internal(std::array::from_fn(|_| None))
        };
        Box::new(Node {
            leaf,
            len: 0,
            prefix: 0,
            prefix_bytes: [0; PREFIX],
            heads: [0; CAP],
            cells: [Cell::default(); CAP],
            used: 0,
            garbage: 0,
            long: Vec::new(),
            arena: [0; ARENA],
            items,
        })
    }

    fn is_leaf(&self) -> bool {
        self.leaf
    }

    // ----- keys ------------------------------------------------------------

    /// Everything cell `i` stores.
    fn stored(&self, i: usize) -> &[u8] {
        let cell = self.cells[i];
        if cell.out_of_line {
            &self.long[cell.at as usize]
        } else {
            &self.arena[cell.at as usize..][..cell.stored_len()]
        }
    }

    /// The normalized key at `i`.
    fn key(&self, i: usize) -> &[u8] {
        &self.stored(i)[..self.cells[i].key_len as usize]
    }

    /// The normalized routing fields of leaf key `i`'s first entry.
    fn routing(&self, i: usize) -> &[u8] {
        let cell = self.cells[i];
        let stored = self.stored(i);
        let from = if cell.routing_shared {
            0
        } else {
            cell.key_len as usize
        };
        &stored[from..from + cell.routing_len as usize]
    }

    /// The first searched position: an internal node's key 0 bounds
    /// nothing, so only a leaf searches it.
    fn first(&self) -> usize {
        usize::from(!self.is_leaf())
    }

    /// The first searched position plus the number of searched keys for
    /// which `before(key.cmp(probe))` holds; `before` must hold for a prefix
    /// of the keys. Compares the probe with the node's shared prefix once,
    /// then binary-searches the heads of the suffixes.
    fn partition(&self, probe: &[u8], before: impl Fn(Ordering) -> bool) -> usize {
        let first = self.first();
        if self.len == first {
            return first;
        }
        let p = self.prefix;
        let shared = &self.prefix_bytes[..p];
        let suffix = match probe.get(..p) {
            Some(start) if start == shared => &probe[p..],
            _ if probe < shared => return first,
            _ => return self.len,
        };
        let target = head(suffix);
        let heads = &self.heads[first..self.len];
        let mut lo = first + heads.partition_point(|&h| h < target);
        let ties = self.heads[lo..self.len]
            .iter()
            .take_while(|&&h| h == target);
        let mut hi = lo + ties.count();
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if before(self.key(mid)[p..].cmp(suffix)) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// First position whose key is at or above `probe`.
    fn lower_bound(&self, probe: &[u8]) -> usize {
        self.partition(probe, |order| order == Ordering::Less)
    }

    /// The leaf position holding `probe`, or where it would go.
    fn find(&self, probe: &[u8]) -> Result<usize, usize> {
        let pos = self.lower_bound(probe);
        if pos < self.len
            && self.cells[pos].key_len as usize == probe.len()
            && self.equals(pos, probe)
        {
            Ok(pos)
        } else {
            Err(pos)
        }
    }

    /// Whether leaf key `pos`, as long as `probe`, is `probe`: from the head
    /// alone when the suffix past the shared prefix fits in it, so a hit on
    /// a short key reads no key bytes.
    fn equals(&self, pos: usize, probe: &[u8]) -> bool {
        let p = self.prefix;
        if probe.len() - p <= 8 && probe.starts_with(&self.prefix_bytes[..p]) {
            self.heads[pos] == head(&probe[p..])
        } else {
            self.key(pos) == probe
        }
    }

    /// The child whose key range holds `probe`: the last one keyed at or
    /// below it, or the first.
    fn child_index(&self, probe: &[u8]) -> usize {
        self.partition(probe, |order| order != Ordering::Greater) - 1
    }

    /// Takes the first `prefix` bytes (at most [`PREFIX`]) of the first
    /// searched key as the shared prefix and recomputes every head.
    fn set_prefix(&mut self, prefix: usize) {
        let first = self.first();
        let prefix = prefix.min(PREFIX);
        let mut bytes = [0; PREFIX];
        if self.len > first {
            bytes[..prefix].copy_from_slice(&self.key(first)[..prefix]);
        }
        self.prefix = prefix;
        self.prefix_bytes = bytes;
        for i in first..self.len {
            self.heads[i] = head(&self.key(i)[prefix..]);
        }
    }

    /// Recomputes the shared prefix from scratch: in sorted keys it is the
    /// common prefix of the first and the last.
    fn reset_prefix(&mut self) {
        let first = self.first();
        let prefix = if self.len > first {
            common_prefix(self.key(first), self.key(self.len - 1))
        } else {
            0
        };
        self.set_prefix(prefix);
    }

    // ----- storage ---------------------------------------------------------

    /// `true` if a new cell of `need` stored bytes fits without a split.
    fn fits(&self, need: usize) -> bool {
        self.len < CAP && (need > LONG || self.used - self.garbage + need <= ARENA)
    }

    /// Stores `key` followed by `own_routing`, in the arena if it is short
    /// and has room (after compacting away garbage), else out of line. The
    /// returned cell has no shared routing fields.
    fn store(&mut self, key: &[u8], own_routing: &[u8]) -> Cell {
        let len = key.len() + own_routing.len();
        let mut cell = Cell {
            key_len: key.len() as u32,
            routing_len: own_routing.len() as u32,
            ..Cell::default()
        };
        if len <= LONG {
            if self.used + len > ARENA {
                self.compact();
            }
            if self.used + len <= ARENA {
                let at = self.used;
                self.arena[at..at + key.len()].copy_from_slice(key);
                self.arena[at + key.len()..at + len].copy_from_slice(own_routing);
                self.used += len;
                cell.at = at as u32;
                return cell;
            }
        }
        cell.out_of_line = true;
        cell.at = self.long.len() as u32;
        self.long
            .push([key, own_routing].concat().into_boxed_slice());
        cell
    }

    /// Stores the key and the routing fields of a leaf entry.
    fn store_entry(&mut self, key: &[u8], routing: &[u8]) -> Cell {
        if key.starts_with(routing) {
            let mut cell = self.store(key, &[]);
            cell.routing_len = routing.len() as u32;
            cell.routing_shared = true;
            cell
        } else {
            self.store(key, routing)
        }
    }

    /// Releases what cell `i` stores and leaves it empty.
    fn free(&mut self, i: usize) {
        let cell = std::mem::take(&mut self.cells[i]);
        if !cell.out_of_line {
            self.garbage += cell.stored_len();
            return;
        }
        let at = cell.at as usize;
        self.long.swap_remove(at);
        let moved = self.long.len() as u32;
        if at < self.long.len() {
            if let Some(owner) = self.cells[..self.len]
                .iter_mut()
                .find(|c| c.out_of_line && c.at == moved)
            {
                owner.at = at as u32;
            }
        }
    }

    /// Packs the live cells at the front of the arena.
    fn compact(&mut self) {
        let mut packed = [0; ARENA];
        let mut used = 0;
        for cell in &mut self.cells[..self.len] {
            let len = cell.arena_len();
            if !cell.out_of_line {
                let at = cell.at as usize;
                packed[used..used + len].copy_from_slice(&self.arena[at..at + len]);
                cell.at = used as u32;
                used += len;
            }
        }
        self.arena[..used].copy_from_slice(&packed[..used]);
        self.used = used;
        self.garbage = 0;
    }

    /// Shifts the keys and items at and after `pos` right by one and puts
    /// `cell` at `pos`, leaving the item there empty. The key that joins the
    /// searched keys (the new one, or an internal node's old key 0 pushed to
    /// 1) gets its head, shortening the shared prefix if it must.
    fn open(&mut self, pos: usize, cell: Cell) {
        let len = self.len;
        self.heads.copy_within(pos..len, pos + 1);
        self.cells.copy_within(pos..len, pos + 1);
        self.cells[pos] = cell;
        match &mut self.items {
            Items::Leaf(more) => more[pos..=len].rotate_right(1),
            Items::Internal(children) => children[pos..=len].rotate_right(1),
        }
        self.len += 1;
        let first = self.first();
        let joined = pos.max(first);
        if joined >= self.len {
            return;
        }
        if self.len == first + 1 {
            return self.set_prefix(self.key(joined).len());
        }
        let prefix = common_prefix(self.key(joined), &self.prefix_bytes[..self.prefix]);
        if prefix < self.prefix {
            self.set_prefix(prefix);
        } else {
            self.heads[joined] = head(&self.key(joined)[prefix..]);
        }
    }

    /// Removes leaf key `pos` with its bucket.
    fn remove_at(&mut self, pos: usize) {
        self.free(pos);
        let len = self.len;
        self.heads.copy_within(pos + 1..len, pos);
        self.cells.copy_within(pos + 1..len, pos);
        let more = self.more_mut();
        more[pos..len].rotate_left(1);
        more[len - 1] = Vec::new();
        self.len -= 1;
    }

    /// Moves the keys from `m` on into a new right sibling.
    fn split(&mut self, m: usize) -> Box<Node> {
        let mut right = Node::new(self.is_leaf());
        for i in m..self.len {
            let cell = self.cells[i];
            let (key, own) = self.stored(i).split_at(cell.key_len as usize);
            let stored = right.store(key, own);
            // Counted at once: the next `store` may compact the cells so far.
            right.cells[right.len] = Cell {
                at: stored.at,
                out_of_line: stored.out_of_line,
                ..cell
            };
            match (&mut self.items, &mut right.items) {
                (Items::Leaf(from), Items::Leaf(to)) => to[i - m] = std::mem::take(&mut from[i]),
                (Items::Internal(from), Items::Internal(to)) => to[i - m] = from[i].take(),
                _ => unreachable!("siblings are the same kind"),
            }
            right.len += 1;
        }
        right.reset_prefix();
        for i in (m..self.len).rev() {
            self.free(i);
        }
        self.len = m;
        self.reset_prefix();
        right
    }

    /// Where to split a full node that must take a key at `pos`. Appending
    /// starts an empty right sibling; otherwise the cut halves the arena
    /// bytes, counting each key as at least one byte, and leaves a key on
    /// each side.
    fn split_point(&self, pos: usize) -> usize {
        if pos == self.len {
            return pos;
        }
        let weight = |cell: &Cell| cell.arena_len().max(1);
        let total: usize = self.cells[..self.len].iter().map(weight).sum();
        let mut before = 0;
        for i in 1..self.len - 1 {
            before += weight(&self.cells[i - 1]);
            if 2 * before >= total {
                return i;
            }
        }
        self.len - 1
    }

    // ----- leaves ----------------------------------------------------------

    fn more(&self) -> &[Vec<IndexEntry>; CAP] {
        match &self.items {
            Items::Leaf(more) => more,
            Items::Internal(_) => unreachable!("a leaf operation on an internal node"),
        }
    }

    fn more_mut(&mut self) -> &mut [Vec<IndexEntry>; CAP] {
        match &mut self.items {
            Items::Leaf(more) => more,
            Items::Internal(_) => unreachable!("a leaf operation on an internal node"),
        }
    }

    /// `true` if every entry under leaf key `pos` is flagged deleted.
    fn all_deleted(&self, pos: usize) -> bool {
        self.cells[pos].deleted && self.more()[pos].iter().all(|e| e.deleted)
    }

    /// The first entry of leaf key `pos`, its routing fields decoded.
    fn first_entry(&self, pos: usize) -> IndexEntry {
        let cell = self.cells[pos];
        IndexEntry {
            rid: Rid::unpack(cell.rid),
            routing: decode(self.routing(pos)),
            deleted: cell.deleted,
        }
    }

    /// The entries under leaf key `pos` in order, flagged ones only if
    /// `with_deleted`. Decodes the first entry's routing fields only if it is
    /// yielded.
    fn bucket(&self, pos: usize, with_deleted: bool) -> impl Iterator<Item = IndexEntry> + '_ {
        let first = (with_deleted || !self.cells[pos].deleted).then(|| self.first_entry(pos));
        let rest = move || {
            self.more()[pos]
                .iter()
                .filter(move |e| with_deleted || !e.deleted)
                .cloned()
        };
        first
            .into_iter()
            .chain(std::iter::once_with(rest).flatten())
    }

    /// The RIDs of the live entries under leaf key `pos`, decoding nothing.
    fn live_rids(&self, pos: usize) -> impl Iterator<Item = Rid> + '_ {
        let cell = self.cells[pos];
        let rest = move || {
            self.more()[pos]
                .iter()
                .filter(|e| !e.deleted)
                .map(|e| e.rid)
        };
        (!cell.deleted)
            .then(|| Rid::unpack(cell.rid))
            .into_iter()
            .chain(std::iter::once_with(rest).flatten())
    }

    /// Makes `entry` the first entry of leaf key `pos` (whose normalized key
    /// is `key`), re-storing the bytes only if its routing fields differ.
    fn set_first(&mut self, pos: usize, key: &[u8], entry: IndexEntry) {
        let routing = entry.routing.normalize();
        if self.routing(pos) != routing.as_bytes() {
            self.free(pos);
            self.cells[pos] = self.store_entry(key, routing.as_bytes());
        }
        self.cells[pos].rid = entry.rid.pack();
        self.cells[pos].deleted = entry.deleted;
    }

    /// Adds `entry` to the bucket at `pos`, dropping the bucket's flagged
    /// entries (re-inserting a key whose previous record was flagged deleted
    /// is legal, even in a unique index).
    fn add_to_bucket(
        &mut self,
        pos: usize,
        key: &[u8],
        entry: IndexEntry,
        unique: bool,
    ) -> Result<(), Duplicate> {
        if unique && !self.all_deleted(pos) {
            return Err(Duplicate);
        }
        let first_deleted = self.cells[pos].deleted;
        let more = &mut self.more_mut()[pos];
        more.retain(|e| !e.deleted);
        if !first_deleted {
            more.push(entry);
            return Ok(());
        }
        let first = if more.is_empty() {
            entry
        } else {
            more.push(entry);
            more.remove(0)
        };
        self.set_first(pos, key, first);
        Ok(())
    }

    /// Drops the keys whose every entry is flagged deleted (the paper's
    /// modified leaf split). Returns whether any went.
    fn collect_flagged(&mut self) -> bool {
        let before = self.len;
        for pos in (0..self.len).rev() {
            if self.all_deleted(pos) {
                self.remove_at(pos);
            }
        }
        self.len != before
    }

    fn insert_leaf(
        &mut self,
        probe: &[u8],
        entry: IndexEntry,
        unique: bool,
    ) -> Result<Option<Box<Node>>, Duplicate> {
        let mut pos = match self.find(probe) {
            Ok(pos) => return self.add_to_bucket(pos, probe, entry, unique).map(|()| None),
            Err(pos) => pos,
        };
        let routing = entry.routing.normalize();
        let routing = routing.as_bytes();
        let own = if probe.starts_with(routing) {
            0
        } else {
            routing.len()
        };
        let need = probe.len() + own;
        if !self.fits(need) && self.collect_flagged() {
            pos = self.lower_bound(probe);
        }
        let mut right = None;
        let target = if self.fits(need) {
            self
        } else {
            let m = self.split_point(pos);
            let sibling = right.insert(self.split(m));
            if pos < m {
                self
            } else {
                pos -= m;
                sibling
            }
        };
        let cell = Cell {
            rid: entry.rid.pack(),
            deleted: entry.deleted,
            ..target.store_entry(probe, routing)
        };
        target.open(pos, cell);
        Ok(right)
    }

    // ----- internal nodes --------------------------------------------------

    // Every key of an internal node has its child: only the slots past the
    // node's length are `None` in the fixed array.
    fn child(&self, i: usize) -> &Node {
        match &self.items {
            Items::Internal(children) => children[i].as_deref().expect("a child per key"),
            Items::Leaf(_) => unreachable!("a leaf has no children"),
        }
    }

    fn child_mut(&mut self, i: usize) -> &mut Node {
        match &mut self.items {
            Items::Internal(children) => children[i].as_deref_mut().expect("a child per key"),
            Items::Leaf(_) => unreachable!("a leaf has no children"),
        }
    }

    /// Puts `child` at `pos`, keyed by its first key, or by nothing when
    /// `keyed` is false (the leftmost child of a new root).
    fn insert_child(&mut self, pos: usize, child: Box<Node>, keyed: bool) {
        let key = if keyed { child.key(0) } else { &[] };
        let cell = self.store(key, &[]);
        self.open(pos, cell);
        match &mut self.items {
            Items::Internal(children) => children[pos] = Some(child),
            Items::Leaf(_) => unreachable!("a leaf has no children"),
        }
    }

    /// Inserts under this subtree; returns a new right sibling if this node
    /// split.
    fn insert(
        &mut self,
        probe: &[u8],
        entry: IndexEntry,
        unique: bool,
    ) -> Result<Option<Box<Node>>, Duplicate> {
        if self.is_leaf() {
            return self.insert_leaf(probe, entry, unique);
        }
        let i = self.child_index(probe);
        let Some(grown) = self.child_mut(i).insert(probe, entry, unique)? else {
            return Ok(None);
        };
        let mut pos = i + 1;
        if self.fits(grown.cells[0].key_len as usize) {
            self.insert_child(pos, grown, true);
            return Ok(None);
        }
        let m = self.split_point(pos);
        let mut right = self.split(m);
        if pos < m {
            self.insert_child(pos, grown, true);
        } else {
            pos -= m;
            right.insert_child(pos, grown, true);
        }
        Ok(Some(right))
    }

    /// Hands the keys of `[low, high)` under this subtree to `visit` in
    /// order, as (leaf, position), until `visit` returns `true`. Descends only
    /// into children that can hold keys in the range and starts each leaf at
    /// the low bound by binary search. Returns `true` once the walk is over:
    /// a key at or past `high` was reached, or `visit` stopped it.
    fn walk(
        &self,
        low: Option<&[u8]>,
        high: Option<&[u8]>,
        visit: &mut impl FnMut(&Node, usize) -> bool,
    ) -> bool {
        let past_high = |i: usize| high.is_some_and(|high| self.key(i) >= high);
        if self.is_leaf() {
            let start = low.map_or(0, |low| self.lower_bound(low));
            for pos in start..self.len {
                if past_high(pos) || visit(self, pos) {
                    return true;
                }
            }
            return false;
        }
        let first = low.map_or(0, |low| self.child_index(low));
        for i in first..self.len {
            if i > 0 && past_high(i) {
                return true;
            }
            if self.child(i).walk(low, high, visit) {
                return true;
            }
        }
        false
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
            root: RwLock::new(Node::new(true)),
            unique,
        }
    }

    /// Inserts an entry under `key`.
    pub fn insert(&self, key: &Key, entry: IndexEntry) -> DbResult<()> {
        let normalized = key.normalize();
        let mut root = self.root.write();
        Self::insert_under_root(&mut root, key, &normalized, entry, self.unique)
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
            Self::insert_under_root(&mut root, key, &key.normalize(), entry.clone(), false)?;
        }
        Ok(())
    }

    fn insert_under_root(
        root: &mut Box<Node>,
        key: &Key,
        normalized: &NormalizedKey,
        entry: IndexEntry,
        unique: bool,
    ) -> DbResult<()> {
        let grown = root
            .insert(normalized.as_bytes(), entry, unique)
            .map_err(|Duplicate| DbError::DuplicateKey {
                table: TableId(0),
                detail: format!("key {key}"),
            })?;
        if let Some(right) = grown {
            let left = std::mem::replace(root, Node::new(false));
            root.insert_child(0, left, false);
            root.insert_child(1, right, true);
        }
        Ok(())
    }

    /// The leaf that holds or would hold `probe`.
    fn leaf<'a>(mut node: &'a Node, probe: &[u8]) -> &'a Node {
        while !node.is_leaf() {
            node = node.child(node.child_index(probe));
        }
        node
    }

    /// Applies `f` to the leaf and position of `key`, if present, under the
    /// tree's read latch.
    fn with_key<R>(&self, key: &Key, f: impl FnOnce(Option<(&Node, usize)>) -> R) -> R {
        let normalized = key.normalize();
        let probe = normalized.as_bytes();
        let root = self.root.read();
        let leaf = Self::leaf(&root, probe);
        f(leaf.find(probe).ok().map(|pos| (leaf, pos)))
    }

    /// Returns the live entries stored under `key` (ignoring flagged-deleted
    /// ones).
    pub fn get(&self, key: &Key) -> Vec<IndexEntry> {
        self.with_key(key, |found| {
            found.map_or_else(Vec::new, |(leaf, pos)| leaf.bucket(pos, false).collect())
        })
    }

    /// The first live entry under `key`: a unique-key probe, which needs one
    /// entry and allocates nothing to find it.
    pub fn get_first(&self, key: &Key) -> Option<IndexEntry> {
        self.with_key(key, |found| {
            found.and_then(|(leaf, pos)| leaf.bucket(pos, false).next())
        })
    }

    /// The RID of the first live entry under `key`: [`Self::get_first`]
    /// for a caller that needs only the record, decoding nothing.
    pub fn get_rid(&self, key: &Key) -> Option<Rid> {
        self.with_key(key, |found| {
            found.and_then(|(leaf, pos)| leaf.live_rids(pos).next())
        })
    }

    /// Returns every entry stored under `key`, including flagged-deleted
    /// ones. DORA's secondary-action handling needs to see flagged entries so
    /// a transaction can notice that the record "was, or is being, deleted".
    pub fn get_with_deleted(&self, key: &Key) -> Vec<IndexEntry> {
        self.with_key(key, |found| {
            found.map_or_else(Vec::new, |(leaf, pos)| leaf.bucket(pos, true).collect())
        })
    }

    /// Applies `f` to the leaf and position of `key` under the tree's write
    /// latch; a key that is absent, or an `f` that finds no entry to change,
    /// is [`DbError::NotFound`].
    fn modify(&self, key: &Key, f: impl FnOnce(&mut Node, usize, &[u8]) -> bool) -> DbResult<()> {
        let normalized = key.normalize();
        let probe = normalized.as_bytes();
        let mut root = self.root.write();
        let mut node: &mut Node = &mut root;
        while !node.is_leaf() {
            node = node.child_mut(node.child_index(probe));
        }
        let Ok(pos) = node.find(probe) else {
            return Err(DbError::NotFound {
                table: TableId(0),
                detail: format!("index key {key}"),
            });
        };
        if f(node, pos, probe) {
            Ok(())
        } else {
            Err(DbError::NotFound {
                table: TableId(0),
                detail: format!("index entry {key}"),
            })
        }
    }

    /// Physically removes the entry for `rid` under `key`, and the key itself
    /// once its bucket is empty. Used by primary-key deletes, by the
    /// conventional engine's secondary-index deletes (which rely on row locks
    /// for isolation) and by rollback.
    pub fn remove(&self, key: &Key, rid: Rid) -> DbResult<()> {
        self.modify(key, |leaf, pos, normalized| {
            let first_matches = leaf.cells[pos].rid == rid.pack();
            let more = &mut leaf.more_mut()[pos];
            let before = more.len();
            more.retain(|e| e.rid != rid);
            if !first_matches {
                return more.len() != before;
            }
            if more.is_empty() {
                leaf.remove_at(pos);
            } else {
                let next = more.remove(0);
                leaf.set_first(pos, normalized, next);
            }
            true
        })
    }

    /// Sets or clears the `deleted` flag on the entry for `rid` under `key`
    /// (Section 4.2.2: flags are set by the deleting transaction *after* it
    /// commits, and cleared when a rollback resurrects the record).
    pub fn set_deleted_flag(&self, key: &Key, rid: Rid, deleted: bool) -> DbResult<()> {
        self.modify(key, |leaf, pos, _| {
            let mut changed = leaf.cells[pos].rid == rid.pack();
            if changed {
                leaf.cells[pos].deleted = deleted;
            }
            for entry in leaf.more_mut()[pos].iter_mut().filter(|e| e.rid == rid) {
                entry.deleted = deleted;
                changed = true;
            }
            changed
        })
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

    /// [`Self::range`] without the result list: hands each live entry to `f`
    /// in place, under the tree's read latch. Decodes each key once.
    pub(crate) fn range_with(
        &self,
        range: &KeyRange,
        limit: usize,
        mut f: impl FnMut(&Key, &IndexEntry),
    ) {
        if limit == 0 {
            return;
        }
        let mut left = limit;
        self.walk_range(range, |leaf, pos| {
            let mut key = None;
            for entry in leaf.bucket(pos, false) {
                f(key.get_or_insert_with(|| decode(leaf.key(pos))), &entry);
                left -= 1;
                if left == 0 {
                    return true;
                }
            }
            false
        });
    }

    /// The RIDs of [`Self::range`], decoding no key and no routing fields: a
    /// range read that fetches its rows by RID.
    pub fn range_rids(&self, range: &KeyRange, limit: usize, mut f: impl FnMut(Rid)) {
        if limit == 0 {
            return;
        }
        let mut left = limit;
        self.walk_range(range, |leaf, pos| {
            for rid in leaf.live_rids(pos) {
                f(rid);
                left -= 1;
                if left == 0 {
                    return true;
                }
            }
            false
        });
    }

    /// Walks the keys of `range` under the read latch (see [`Node::walk`]).
    fn walk_range(&self, range: &KeyRange, mut visit: impl FnMut(&Node, usize) -> bool) {
        let low = range.low.as_ref().map(Key::normalize);
        let high = range.high.as_ref().map(Key::normalize);
        let root = self.root.read();
        root.walk(
            low.as_ref().map(NormalizedKey::as_bytes),
            high.as_ref().map(NormalizedKey::as_bytes),
            &mut visit,
        );
    }

    /// Number of live keys in the index (for tests and statistics).
    pub fn len(&self) -> usize {
        let mut live = 0;
        self.walk_range(&KeyRange::all(), |leaf, pos| {
            live += usize::from(!leaf.all_deleted(pos));
            false
        });
        live
    }

    /// `true` if the index holds no live entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Depth of the tree (1 for a single leaf). Diagnostics and tests.
    pub fn depth(&self) -> usize {
        let root = self.root.read();
        let mut depth = 1;
        let mut node: &Node = &root;
        while !node.is_leaf() {
            depth += 1;
            node = node.child(0);
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
        // A root holds at most CAP children, so more than CAP full leaves
        // need a third level.
        let n = 3 * (CAP * CAP) as i64;
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
            if node.is_leaf() {
                node.len
            } else {
                (0..node.len).map(|i| walk(node.child(i))).sum()
            }
        }
        walk(&index.root.read())
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
        for i in 0..CAP as i64 {
            index.insert(&Key::int(i), entry(0, i as u16)).unwrap();
        }
        for i in 0..CAP as i64 {
            index
                .set_deleted_flag(&Key::int(i), Rid::new(0, i as u16), true)
                .unwrap();
        }
        // Keep inserting: the flagged entries must be collected instead of
        // causing the tree to grow.
        for i in 100_000..100_000 + (2 * CAP as i64) {
            index
                .insert(&Key::int(i), entry(1, (i % 1000) as u16))
                .unwrap();
        }
        assert_eq!(index.len(), 2 * CAP);
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
