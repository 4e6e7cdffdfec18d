//! The storage access path's allocation budget, counted exactly.
//!
//! A counting `#[global_allocator]` tallies the allocation calls (`alloc`,
//! `alloc_zeroed`, `realloc`) made by the current thread only, so the test
//! harness's other threads cannot blur a count. Every count is taken on a
//! warm database and is a property of the code, not of the host: no timing
//! is involved.
//!
//! A write also appends to the log's in-memory buffer and its per-transaction
//! map, which grow by doubling: about one write in a few hundred pays a
//! growth step. Write budgets are therefore the fewest calls over a handful
//! of repetitions, each in a fresh transaction that is then aborted, so the
//! next repetition meets the same heap slot, index keys and lock buckets.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use dora_repro::common::prelude::*;
use dora_repro::storage::btree::{BTreeIndex, IndexEntry};
use dora_repro::storage::{ColumnDef, Database, IndexSpec, TableSchema, TxnHandle};

struct CountingAllocator;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count_call() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = CALLS.try_with(|calls| calls.set(calls.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_call();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_call();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_call();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocation calls `f` makes on this thread, and its result.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = CALLS.with(Cell::get);
    let result = f();
    (CALLS.with(Cell::get) - before, result)
}

/// Text columns of `item`; a decoded row costs its `Vec` plus one `String`
/// for each.
const TEXT_COLUMNS: u64 = 2;

/// A loaded database with one table of Int, Float and Text columns and a
/// non-unique secondary index on `(i_w, i_name)`.
struct Fixture {
    db: Arc<Database>,
    table: TableId,
    by_name: IndexId,
}

fn item(w: i64, id: i64) -> Row {
    vec![
        Value::Int(w),
        Value::Int(id),
        Value::Float(2.5),
        Value::Text(format!("name-{id}")),
        Value::Text("some item data".into()),
    ]
}

fn fixture() -> Fixture {
    let db = Database::for_tests();
    let table = db
        .create_table(TableSchema::new(
            "item",
            vec![
                ColumnDef::new("i_w", ValueType::Int),
                ColumnDef::new("i_id", ValueType::Int),
                ColumnDef::new("i_price", ValueType::Float),
                ColumnDef::new("i_name", ValueType::Text),
                ColumnDef::new("i_data", ValueType::Text),
            ],
            vec![0, 1],
        ))
        .unwrap();
    let by_name = db
        .create_index(IndexSpec {
            name: "item_by_name".into(),
            table,
            key_columns: vec![0, 3],
            unique: false,
        })
        .unwrap();
    for id in 0..200 {
        db.load_row(table, item(1, id)).unwrap();
    }
    let fixture = Fixture { db, table, by_name };
    // Warm this thread's metrics slot and every structure a counted call
    // touches once.
    for cc in [CcMode::None, CcMode::RowOnly, CcMode::Full] {
        fixture.probe_update_insert(cc);
    }
    fixture
}

impl Fixture {
    fn probe_update_insert(&self, cc: CcMode) {
        let db = &self.db;
        let txn = db.begin();
        db.probe_primary(&txn, self.table, &Key::int2(1, 7), false, cc)
            .unwrap();
        db.update_primary(&txn, self.table, &Key::int2(1, 8), cc, |_| Ok(()))
            .unwrap();
        db.insert(&txn, self.table, item(1, 1_000), cc).unwrap();
        db.abort(&txn).unwrap();
    }

    /// The fewest allocation calls `op` counts over a few repetitions, each
    /// in a fresh transaction that is aborted afterwards.
    fn write_budget(&self, mut op: impl FnMut(&TxnHandle) -> u64) -> u64 {
        (0..8)
            .map(|_| {
                let txn = self.db.begin();
                let calls = op(&txn);
                self.db.abort(&txn).unwrap();
                calls
            })
            .min()
            .unwrap()
    }
}

#[test]
fn catalog_lookups_share_metadata_instead_of_copying_it() {
    let f = fixture();
    let catalog = f.db.catalog();
    let (calls, meta) = allocations(|| catalog.table(f.table).unwrap());
    assert_eq!(calls, 0, "Catalog::table");
    assert_eq!(meta.secondary_indexes.len(), 1);
    let (calls, _) = allocations(|| catalog.index(f.by_name).unwrap());
    assert_eq!(calls, 0, "Catalog::index");
}

#[test]
fn a_hit_allocates_the_row_and_its_text_and_nothing_else() {
    let f = fixture();
    let txn = f.db.begin();
    let key = Key::int2(1, 42);
    let (calls, hit) = allocations(|| {
        f.db.probe_primary(&txn, f.table, &key, false, CcMode::None)
            .unwrap()
    });
    let (rid, row) = hit.expect("key 42 is loaded");
    assert_eq!(row, item(1, 42));
    assert_eq!(calls, 1 + TEXT_COLUMNS, "probe_primary hit");

    let (calls, row) = allocations(|| {
        f.db.read_rid(&txn, f.table, rid, false, CcMode::None)
            .unwrap()
    });
    assert_eq!(row, item(1, 42));
    assert_eq!(calls, 1 + TEXT_COLUMNS, "read_rid");

    // A range read adds only its two lists, the RIDs and the rows.
    let range = KeyRange::new(Some(Key::int2(1, 10)), Some(Key::int2(1, 13)));
    let (calls, rows) = allocations(|| {
        f.db.range_primary(&txn, f.table, &range, 10, CcMode::None)
            .unwrap()
    });
    assert_eq!(rows.len(), 3);
    assert_eq!(calls, 2 + 3 * (1 + TEXT_COLUMNS), "range_primary of 3 rows");
    f.db.commit(&txn).unwrap();
}

#[test]
fn a_miss_allocates_nothing() {
    let f = fixture();
    let txn = f.db.begin();
    let absent = Key::int2(1, 9_999);
    let (calls, found) = allocations(|| {
        f.db.probe_primary(&txn, f.table, &absent, false, CcMode::None)
            .unwrap()
    });
    assert!(found.is_none());
    assert_eq!(calls, 0, "probe_primary miss");

    let name = Key::from_values([Value::Int(1), Value::Text(String::new())]);
    let (calls, entries) = allocations(|| {
        f.db.probe_secondary(&txn, f.by_name, &name, CcMode::None)
            .unwrap()
    });
    assert!(entries.is_empty());
    assert_eq!(calls, 0, "probe_secondary miss");

    let range = KeyRange::new(Some(Key::int2(1, 5_000)), Some(Key::int2(1, 6_000)));
    let (calls, rows) = allocations(|| {
        f.db.range_primary(&txn, f.table, &range, 10, CcMode::None)
            .unwrap()
    });
    assert!(rows.is_empty());
    assert_eq!(calls, 0, "range_primary over an empty range");
    f.db.commit(&txn).unwrap();
}

/// One `update_primary` hit under DORA's `CcMode::None`: the pre-image
/// copied off the page for the log record (1) and decoded beside it
/// (1 + text), the after image (1), both images shared with the version
/// store (2), and the transaction's first write-list entry (1).
const UPDATE_NONE: u64 = 1 + (1 + TEXT_COLUMNS) + 1 + 2 + 1;

/// What the conventional engine's `CcMode::Full` adds: three lock heads
/// (database, table, record), each an `Arc` and a request list, and the
/// transaction's lock ledger (map and acquisition order).
const LOCKS_FULL: u64 = 3 * 2 + 2;

/// One `insert` under DORA's `CcMode::RowOnly`: the image (1) and its copy
/// shared with the version store (1), the first write-list entry (1), the
/// record lock (head, request list and ledger: 4), and the secondary key's
/// text, built once (1). Entering the keys costs nothing: each index stores a
/// key as normalized bytes in its leaf, with the first entry inline.
const INSERT_ROW_ONLY: u64 = 1 + 1 + 1 + 4 + 1;

/// `precommit` of a one-write transaction under `CcMode::None`: nothing. The
/// commit record is pushed onto the log's buffer, whose growth steps the
/// fewest-of-several count skips, and the sequence, the LSN and the handle
/// that carries them are plain values.
const PRECOMMIT_ONE_WRITE: u64 = 0;

#[test]
fn update_primary_stays_within_its_budget() {
    let f = fixture();
    for (cc, budget) in [
        (CcMode::None, UPDATE_NONE),
        (CcMode::Full, UPDATE_NONE + LOCKS_FULL),
    ] {
        let calls = f.write_budget(|txn| {
            let key = Key::int2(1, 8);
            let (calls, ()) = allocations(|| {
                f.db.update_primary(txn, f.table, &key, cc, |row| {
                    row[2] = Value::Float(3.5);
                    Ok(())
                })
                .unwrap()
            });
            calls
        });
        assert_eq!(calls, budget, "update_primary under {cc:?}");
    }
}

#[test]
fn insert_stays_within_its_budget() {
    let f = fixture();
    // Full takes the database and table intention locks on top.
    for (cc, budget) in [
        (CcMode::RowOnly, INSERT_ROW_ONLY),
        (CcMode::Full, INSERT_ROW_ONLY + 2 * 2),
    ] {
        let calls = f.write_budget(|txn| {
            let row = item(1, 1_000);
            allocations(|| f.db.insert(txn, f.table, row, cc).unwrap()).0
        });
        assert_eq!(calls, budget, "insert under {cc:?}");
    }
}

#[test]
fn precommit_of_one_write_stays_within_its_budget() {
    let f = fixture();
    // Committed, not aborted: each repetition updates the same row again.
    let calls = (0..8)
        .map(|_| {
            let txn = f.db.begin();
            f.db.update_primary(&txn, f.table, &Key::int2(1, 9), CcMode::None, |row| {
                row[2] = Value::Float(4.5);
                Ok(())
            })
            .unwrap();
            let (calls, handle) = allocations(|| f.db.precommit(&txn).unwrap());
            f.db.commit_wait(&txn, handle).unwrap();
            calls
        })
        .min()
        .unwrap();
    assert_eq!(calls, PRECOMMIT_ONE_WRITE, "precommit of one write");
}

#[test]
fn index_probes_and_an_insert_into_a_leaf_with_room_allocate_nothing() {
    // One- and four-column keys in one index; the keys are built before
    // counting (a four-column `Key` is itself a heap vector).
    let index = BTreeIndex::new(true);
    let one = Key::int;
    let four = |i: i64| Key::from_values([1, i / 100, i % 100, 7]);
    let entry = |i: i64| IndexEntry::new(Rid::new(i as u32, 0), Key::int(1));
    for i in 0..2_000 {
        index.insert(&one(i), entry(i)).unwrap();
        index.insert(&four(i), entry(i)).unwrap();
    }
    for (shape, key) in [("one-column", one(1_234)), ("four-column", four(1_234))] {
        let (calls, hit) = allocations(|| index.get_first(&key));
        assert_eq!(hit, Some(entry(1_234)));
        assert_eq!(calls, 0, "get_first of a {shape} key");
    }
    let absent = four(99_999);
    let (calls, miss) = allocations(|| index.get_first(&absent));
    assert_eq!((calls, miss), (0, None), "get_first miss");

    // Removing a key leaves its leaf room for one; putting it back is a
    // unique insert that neither splits nor allocates.
    for key in [one(777), four(777)] {
        index.remove(&key, Rid::new(777, 0)).unwrap();
        let fresh = entry(777);
        let (calls, inserted) = allocations(|| index.insert(&key, fresh));
        inserted.unwrap();
        assert_eq!(calls, 0, "unique insert of {key} into a leaf with room");
    }
}
