//! The workloads' transaction programs, checked from outside.
//!
//! * The draws are pinned: for a fixed seed, the first 200 programs each
//!   benchmark workload draws (label plus the routed shape of its DORA flow
//!   graph) hash to a committed digest, so a change to how programs are built
//!   cannot silently change which transactions run.
//! * The conflict stamp is pinned the same way: the same draws, stamped with
//!   the workload's bind-time conflict matrix, mark the same steps
//!   probe-free and the same programs DORA-S.
//! * The plans and the hand-written conflict templates agree: every step of
//!   every TM1 and TPC-C plan matches its template one-to-one on label,
//!   table, route shape, full-key shape and access kind. The templates are
//!   declared beside the plans, not derived from them, so this guards the
//!   gap until they are.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use dora_repro::dora::conflict::TemplateKind;
use dora_repro::dora::{
    ConflictMatrix, DoraConfig, LocalMode, ProgramTemplate, StepKind, StepTemplate, TxnProgram,
};
use dora_repro::storage::Database;
use dora_repro::workloads::{Tm1, TpcB, Tpcc, Workload};

const DRAWS: usize = 200;
const SEED: u64 = 7;

/// FNV-1a, 64 bits: a hash whose value does not depend on the toolchain.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |hash, byte| {
        (hash ^ u64::from(*byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn draw_digest(workload: &dyn Workload, stamped: bool) -> u64 {
    let db = Database::for_tests();
    workload.setup(&db).unwrap();
    let matrix = ConflictMatrix::analyze(
        &workload.conflict_templates(&db).unwrap(),
        DoraConfig::default().serialize_abort_threshold,
    );
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

/// Why `step` and `template` disagree, if they do.
fn step_drift(step: &dora_repro::dora::Step, template: &StepTemplate) -> Option<String> {
    if step.table() != template.table() {
        return Some(format!("table {} vs {}", step.table(), template.table()));
    }
    if step.route().atoms() != template.route() {
        return Some(format!(
            "route {:?} vs {:?}",
            step.route().atoms(),
            template.route()
        ));
    }
    if let (Some(key), Some(full_key)) = (step.key(), template.full_key_atoms()) {
        if key.atoms() != full_key {
            return Some(format!("key {:?} vs {:?}", key.atoms(), full_key));
        }
    }
    let shared = step.mode() == LocalMode::Shared;
    let kinds_agree = match template.kind() {
        TemplateKind::Secondary => step.is_declared_secondary(),
        TemplateKind::Read => matches!(step.kind(), StepKind::Read | StepKind::Custom) && shared,
        TemplateKind::Write => {
            matches!(step.kind(), StepKind::Update | StepKind::Custom) && !shared
        }
        TemplateKind::Insert => {
            matches!(step.kind(), StepKind::Insert | StepKind::Custom) && !shared
        }
        TemplateKind::Delete => {
            matches!(step.kind(), StepKind::Delete | StepKind::Custom) && !shared
        }
    };
    (!kinds_agree).then(|| {
        format!(
            "access {:?}/{:?} vs {:?}",
            step.kind(),
            step.mode(),
            template.kind()
        )
    })
}

/// Every disagreement between `program` and its template.
fn plan_drift(program: &TxnProgram, templates: &[ProgramTemplate]) -> Vec<String> {
    let name = program.name();
    let Some(template) = templates.iter().find(|t| t.name() == name) else {
        return vec![format!("{name}: no template")];
    };
    let mut drift = Vec::new();
    for step in program.steps() {
        let matches: Vec<_> = template
            .steps()
            .iter()
            .filter(|t| t.label() == step.label())
            .collect();
        match matches.as_slice() {
            [one] => {
                if let Some(why) = step_drift(step, one) {
                    drift.push(format!("{name}/{}: {why}", step.label()));
                }
            }
            _ => drift.push(format!(
                "{name}/{}: {} templates with this label",
                step.label(),
                matches.len()
            )),
        }
    }
    for declared in template.steps() {
        if !program
            .steps()
            .iter()
            .any(|s| s.label() == declared.label())
        {
            drift.push(format!(
                "{name}/{}: template without a step",
                declared.label()
            ));
        }
    }
    drift
}

#[test]
fn every_plan_agrees_with_its_conflict_template() {
    let workloads: [Arc<dyn Workload>; 2] = [
        Arc::new(Tm1::new(1_000)),
        Arc::new(Tpcc::with_scale(2, 30, 200)),
    ];
    let mut drift = Vec::new();
    for workload in &workloads {
        let db = Database::for_tests();
        workload.setup(&db).unwrap();
        let templates = workload.conflict_templates(&db).unwrap();
        let mut rng = SmallRng::seed_from_u64(SEED);
        // Draw until every type (and every NewOrder size) has been checked.
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..2_000 {
            let program = workload.next_program(&db, &mut rng).unwrap();
            if seen.insert((program.name(), program.step_count())) {
                drift.extend(plan_drift(&program, &templates));
            }
        }
        let labels: std::collections::BTreeSet<_> = seen.iter().map(|(name, _)| *name).collect();
        assert_eq!(labels.len(), workload.txn_labels().len(), "{labels:?}");
    }
    assert!(
        drift.is_empty(),
        "plans and templates drifted:\n{}",
        drift.join("\n")
    );
}
