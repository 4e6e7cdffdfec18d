//! Storage-substrate micro-benchmarks: B-Tree probes, heap access and log
//! appends. These bound the "Work" component of the time breakdowns and help
//! interpret the figure reproductions on a new host.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use dora_common::prelude::*;
use dora_storage::btree::{BTreeIndex, IndexEntry};
use dora_storage::{ColumnDef, Database, TableSchema};

fn btree_probe(c: &mut Criterion) {
    let index = BTreeIndex::new(true);
    let n = 100_000i64;
    for i in 0..n {
        index
            .insert(
                &Key::int(i),
                IndexEntry::new(Rid::new((i / 100) as u32, (i % 100) as u16), Key::empty()),
            )
            .unwrap();
    }
    let mut probe = 0i64;
    c.bench_function("storage/btree_probe_100k", |b| {
        b.iter(|| {
            probe = (probe * 48271 + 1) % n;
            black_box(index.get(&Key::int(probe)));
        })
    });
}

/// 120 000 order-line-shaped keys, `(warehouse, district, order, line)`:
/// four Int columns, past `Key::INLINE_LEN`, probed from a prebuilt list so
/// the loop times the index, not building the key.
fn btree_probe_four_columns(c: &mut Criterion) {
    let index = BTreeIndex::new(true);
    let keys: Vec<Key> = (0..120_000i64)
        .map(|i| {
            Key::from_values([
                i / 30_000 + 1,
                i / 3_000 % 10 + 1,
                i / 10 % 300 + 1,
                i % 10 + 1,
            ])
        })
        .collect();
    for (i, key) in keys.iter().enumerate() {
        index
            .insert(
                key,
                IndexEntry::new(Rid::new((i / 100) as u32, (i % 100) as u16), Key::empty()),
            )
            .unwrap();
    }
    let mut probe = 0usize;
    c.bench_function("storage/btree_probe_120k_four_columns", |b| {
        b.iter(|| {
            probe = (probe * 48271 + 1) % keys.len();
            black_box(index.get_first(&keys[probe]));
        })
    });
}

fn heap_insert_and_read(c: &mut Criterion) {
    let db = Database::for_tests();
    let table = db
        .create_table(TableSchema::new(
            "points",
            vec![
                ColumnDef::new("id", ValueType::Int),
                ColumnDef::new("payload", ValueType::Text),
            ],
            vec![0],
        ))
        .unwrap();
    let mut next = 0i64;
    c.bench_function("storage/insert_commit", |b| {
        b.iter(|| {
            next += 1;
            let txn = db.begin();
            db.insert(
                &txn,
                table,
                vec![
                    Value::Int(next),
                    Value::Text("payload-payload-payload".into()),
                ],
                CcMode::Full,
            )
            .unwrap();
            db.commit(&txn).unwrap();
        })
    });

    let db = Arc::new(Database::for_tests());
    let table = db
        .create_table(TableSchema::new(
            "lookup",
            vec![
                ColumnDef::new("id", ValueType::Int),
                ColumnDef::new("v", ValueType::Int),
            ],
            vec![0],
        ))
        .unwrap();
    for i in 0..10_000i64 {
        db.load_row(table, vec![Value::Int(i), Value::Int(i * 2)])
            .unwrap();
    }
    let mut probe = 0i64;
    c.bench_function("storage/probe_primary_full_cc", |b| {
        b.iter(|| {
            probe = (probe + 7919) % 10_000;
            let txn = db.begin();
            black_box(
                db.probe_primary(&txn, table, &Key::int(probe), false, CcMode::Full)
                    .unwrap(),
            );
            db.commit(&txn).unwrap();
        })
    });
    let mut probe = 0i64;
    c.bench_function("storage/probe_primary_no_cc", |b| {
        b.iter(|| {
            probe = (probe + 7919) % 10_000;
            let txn = db.begin();
            black_box(
                db.probe_primary(&txn, table, &Key::int(probe), false, CcMode::None)
                    .unwrap(),
            );
            db.commit(&txn).unwrap();
        })
    });
}

fn configure() -> Criterion {
    Criterion::default()
        .sample_size(30)
        .measurement_time(std::time::Duration::from_millis(800))
}

criterion_group! {
    name = benches;
    config = configure();
    targets = btree_probe, btree_probe_four_columns, heap_insert_and_read
}
criterion_main!(benches);
