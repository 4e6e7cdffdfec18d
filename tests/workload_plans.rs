//! The workloads' transaction programs, checked from outside.
//!
//! * The draws are pinned: for a fixed seed, the first 200 programs each
//!   benchmark workload draws (label plus the routed shape of its DORA flow
//!   graph) hash to a committed digest, so a change to how programs are built
//!   cannot silently change which transactions run.
//! * The conflict stamp is pinned the same way: the same draws, stamped with
//!   the workload's bind-time conflict matrix, mark the same steps
//!   probe-free and the same programs DORA-S.
//! * The conflict report is pinned verbatim: the bind-time matrix of the TM1
//!   and TPC-C full mixes, with table names from the catalog.
//! * The conflict analysis sees every transaction type: `plans()` returns
//!   one plan per `txn_labels()` entry, for every TM1 and TPC-C mix.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use dora_repro::dora::{ConflictMatrix, DoraConfig};
use dora_repro::storage::Database;
use dora_repro::workloads::{Tm1, Tm1Mix, TpcB, Tpcc, TpccMix, Workload};

const DRAWS: usize = 200;
const SEED: u64 = 7;

/// FNV-1a, 64 bits: a hash whose value does not depend on the toolchain.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |hash, byte| {
        (hash ^ u64::from(*byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The bind-time conflict matrix of `workload`, under the default DORA-S
/// threshold.
fn conflict_matrix(workload: &dyn Workload, db: &Database) -> ConflictMatrix {
    ConflictMatrix::analyze(
        &workload.plans(db).unwrap(),
        DoraConfig::default().serialize_abort_threshold,
    )
    .unwrap()
}

fn draw_digest(workload: &dyn Workload, stamped: bool) -> u64 {
    let db = Database::for_tests();
    workload.setup(&db).unwrap();
    let matrix = conflict_matrix(workload, &db);
    let mut rng = SmallRng::seed_from_u64(SEED);
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for _ in 0..DRAWS {
        let mut program = workload.next_program(&db, &mut rng).unwrap();
        if stamped {
            program = program.with_conflicts(&matrix);
        }
        let line = format!(
            "{} {:?}\n",
            program.name(),
            program.compile_dora().describe()
        );
        hash = fnv1a(hash, line.as_bytes());
    }
    hash
}

#[test]
fn the_first_draws_of_every_workload_match_their_digest() {
    let workloads: [(&str, Arc<dyn Workload>, u64); 3] = [
        ("tm1", Arc::new(Tm1::new(1_000)), 0x31283ea6051f4a16),
        (
            "tpcb",
            Arc::new(TpcB::with_accounts(8, 100)),
            0xd0e76855d54013a5,
        ),
        (
            "tpcc",
            Arc::new(Tpcc::with_scale(2, 30, 200)),
            0x22b4d38d05d31bdc,
        ),
    ];
    let mut drift = Vec::new();
    for (name, workload, expected) in &workloads {
        let digest = draw_digest(workload.as_ref(), false);
        if digest != *expected {
            drift.push(format!(
                "{name}: digest {digest:#018x}, pinned {expected:#018x}"
            ));
        }
    }
    assert!(
        drift.is_empty(),
        "the drawn transactions changed:\n{}",
        drift.join("\n")
    );
}

#[test]
fn stamped_draws_mark_the_same_probe_free_steps_and_serial_plans() {
    let workloads: [(&str, Arc<dyn Workload>, u64); 2] = [
        ("tm1", Arc::new(Tm1::new(1_000)), 0xd3cdd9c53bfee930),
        (
            "tpcc",
            Arc::new(Tpcc::with_scale(2, 30, 200)),
            0x13f04bbe3d411b67,
        ),
    ];
    let mut drift = Vec::new();
    for (name, workload, expected) in &workloads {
        let digest = draw_digest(workload.as_ref(), true);
        if digest != *expected {
            drift.push(format!(
                "{name}: digest {digest:#018x}, pinned {expected:#018x}"
            ));
        }
    }
    assert!(
        drift.is_empty(),
        "the conflict stamp changed:\n{}",
        drift.join("\n")
    );
}

const TM1_REPORT: &str = "\
conflict analysis: 11 templates (10 routed), 4 probe-free, 9 conflicting pairs
  probe-free: tm1-get-access-data / get-access-data
  probe-free: tm1-get-new-destination / probe-facility
  probe-free: tm1-get-subscriber-data / get-subscriber
  probe-free: tm1-insert-call-forwarding / probe-facility
  auto-serialized (DORA-S): tm1-get-new-destination (predicted abort rate 0.72)
  auto-serialized (DORA-S): tm1-insert-call-forwarding (predicted abort rate 0.56)
  auto-serialized (DORA-S): tm1-update-subscriber-data (predicted abort rate 0.62)
  routing coverage: 1 step(s) run unrouted on the submitting thread:
    tm1-update-location / resolve-sub-nbr on subscriber [declared secondary]
";

const TPCC_REPORT: &str = "\
conflict analysis: 20 templates (20 routed), 4 probe-free, 20 conflicting pairs
  probe-free: tpcc-new-order / neworder-customer
  probe-free: tpcc-new-order / neworder-item
  probe-free: tpcc-order-status / orderstatus-customer
  probe-free: tpcc-payment / payment-history
  routing coverage: complete
";

#[test]
fn the_conflict_report_of_each_full_mix_is_pinned() {
    let workloads: [(&str, Arc<dyn Workload>, &str); 2] = [
        ("tm1", Arc::new(Tm1::new(1_000)), TM1_REPORT),
        ("tpcc", Arc::new(Tpcc::with_scale(2, 30, 200)), TPCC_REPORT),
    ];
    for (name, workload, expected) in &workloads {
        let db = Database::for_tests();
        workload.setup(&db).unwrap();
        let report = conflict_matrix(workload.as_ref(), &db).report(&|table| {
            db.catalog()
                .table(table)
                .map(|meta| meta.schema.name.clone())
                .unwrap_or_else(|_| table.to_string())
        });
        assert_eq!(report, *expected, "{name}: the conflict report changed");
    }
}

#[test]
fn every_mix_has_one_plan_per_transaction_label() {
    let workloads: Vec<Arc<dyn Workload>> = vec![
        Arc::new(Tm1::new(100)),
        Arc::new(Tm1::new(100).with_mix(Tm1Mix::GetSubscriberDataOnly)),
        Arc::new(Tm1::new(100).with_mix(Tm1Mix::UpdateSubscriberDataOnly)),
        Arc::new(Tm1::new(100).with_serial_update_plan(true)),
        Arc::new(Tpcc::with_scale(1, 10, 50)),
        Arc::new(Tpcc::with_scale(1, 10, 50).with_mix(TpccMix::PaymentOnly)),
        Arc::new(Tpcc::with_scale(1, 10, 50).with_mix(TpccMix::OrderStatusOnly)),
        Arc::new(Tpcc::with_scale(1, 10, 50).with_mix(TpccMix::NewOrderOnly)),
    ];
    for workload in &workloads {
        let db = Database::for_tests();
        workload.create_schema(&db).unwrap();
        let names: Vec<_> = workload
            .plans(&db)
            .unwrap()
            .iter()
            .map(|plan| plan.name())
            .collect();
        assert_eq!(names, workload.txn_labels(), "{}", workload.name());
    }
}
