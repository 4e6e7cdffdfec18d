//! Static, workload-level conflict analysis over transaction plans.
//!
//! DORA routes every action to the executor that owns its routing key and
//! probes that executor's [`LocalLockTable`](crate::locallock::LocalLockTable)
//! before running it. For many steps the probe is provably pointless: no
//! other step in the workload can ever hold a conflicting lock on an
//! overlapping key. This module decides that *offline*, in the spirit of
//! DIBS (`predicate.rs`/`solver.rs`): steps are compared pairwise once per
//! workload at `bind` time — never per transaction — and the resulting
//! [`ConflictMatrix`] is threaded through
//! [`TxnProgram::with_conflicts`](crate::program::TxnProgram::with_conflicts)
//! so compilation marks probe-free steps, which skip the acquire call
//! entirely (counter `LockProbesElided`) — and with it the executor: a
//! probe-free action is never routed or queued, and runs on the thread that
//! dispatches its phase, like a secondary action.
//!
//! The analysis reads the workload's plans, one per transaction type, and
//! derives one *template* per step from what the step holds: its table, its
//! route and key shapes (constant / parameter / per-transaction-unique
//! positions), its local-lock mode, whether it was declared secondary, and
//! the effects it declares where it is built ([`Step::reads`],
//! [`Step::writes`], [`Step::inserts_or_deletes`], [`Step::full_key`],
//! [`Step::abort_rate`]). A step that declares no read set is taken to read
//! every column, and an exclusive step that declares no write set to write
//! every column. Steps of one plan that share a label (a TPC-C NewOrder's
//! per-item reads) are one template, and must declare the same effects.
//!
//! Two templates **conflict** unless the solver can dismiss the pair by one
//! of three sound arguments:
//!
//! 1. **Disjoint routes** — the route key expressions can never produce
//!    overlapping keys (some compared position is constant-vs-different-
//!    constant, or draws from a per-transaction-unique domain). Route
//!    overlap uses the same *prefix* semantics as
//!    [`Key::overlaps`](dora_common::Key::overlaps), which is exactly the
//!    test the local lock table applies at runtime.
//! 2. **Both read-only** — neither side writes a column or changes row
//!    existence.
//! 3. **Column dismissal** — at most one side writes, neither side changes
//!    row existence, and the writer's written columns are disjoint from the
//!    reader's read columns. This is sound because row mutations are atomic
//!    under the storage layer's page latches and a rollback restores the
//!    full pre-image — the reader can never observe a value it declared an
//!    interest in mid-flight. Writer-vs-writer pairs are **never**
//!    dismissed this way even with disjoint write sets: an abort of one
//!    writer restores the *whole row* pre-image and would clobber the other
//!    writer's committed disjoint-column update.
//!
//! Insert/delete templates (existence effects) conflict with every
//! overlapping accessor of the table unless both sides have full
//! primary-key shapes that are provably disjoint (e.g. a key position
//! carrying the transaction id, [`Param::TXN_ID`](crate::program::Param::TXN_ID)).
//!
//! **Why a probe-free step may bypass its executor.** An executor runs one
//! action at a time, so a step that still went through it would also be
//! ordered against every other action of its dataset. None of the three
//! arguments leans on that ordering: disjoint routes never touch the same
//! records, two read-only steps commute whenever they run, and column
//! dismissal rests on row mutations being atomic under the storage layer's
//! page latches and on rollbacks restoring the full pre-image — both hold
//! for two threads as much as for one. So a probe-free body may run on any
//! thread at the same time as an executor's actions on the same dataset,
//! and it runs on the thread that dispatches its phase.
//!
//! Declared-secondary (unrouted) steps take part only in the *coverage
//! report*: they acquire no local locks, so they neither elide nor block
//! elision — their interaction with routed writers is governed by the
//! storage layer's concurrency-control mode, exactly as before this
//! analysis existed.
//!
//! **Soundness boundary:** the matrix reasons over the *declared* workload.
//! Elision is only applied to programs the workload declared (matched by
//! program name), and it assumes every concurrently running program is an
//! instance of some declared plan. Ad-hoc programs submitted to the same
//! engine get no elision themselves (conservative for them), but if they
//! write tables that declared plans were elided on, the analysis'
//! closed-world assumption is violated — the same assumption DIBS makes.
//! The declarations of a `custom` step are its author's word: the analysis
//! cannot see into its body.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

use dora_common::prelude::*;

use crate::action::LocalMode;
use crate::program::{Shape, Step, TxnProgram};

/// One position of a template key expression.
#[derive(Debug, Clone, PartialEq)]
pub enum KeyAtom {
    /// A compile-time constant: every instance carries exactly this value.
    Const(Value),
    /// A per-transaction parameter, unknown at analysis time; two instances
    /// may or may not collide. The name is for reports only.
    Param(&'static str),
    /// A parameter drawn from a per-transaction-unique domain (e.g. the
    /// transaction id baked into a key column): two distinct transaction
    /// instances can never produce the same value at this position, and the
    /// domain is disjoint from every constant/parameter domain.
    Unique,
}

impl KeyAtom {
    /// `true` if two *distinct transaction instances* could produce equal
    /// values at this position.
    fn may_equal(&self, other: &KeyAtom) -> bool {
        match (self, other) {
            (KeyAtom::Unique, _) | (_, KeyAtom::Unique) => false,
            (KeyAtom::Const(a), KeyAtom::Const(b)) => a == b,
            _ => true,
        }
    }
}

/// Key-prefix overlap over templates, mirroring [`Key::overlaps`]: only the
/// common prefix is compared (a shorter key covers every extension of
/// itself), and the pair is disjoint iff some compared position provably
/// differs across instances.
pub fn routes_may_overlap(a: &[KeyAtom], b: &[KeyAtom]) -> bool {
    a.iter().zip(b.iter()).all(|(x, y)| x.may_equal(y))
}

/// A declared column set; `None` stands for every column.
type Columns = Option<BTreeSet<usize>>;

fn no_columns(columns: &Columns) -> bool {
    columns.as_ref().is_some_and(BTreeSet::is_empty)
}

fn columns_meet(a: &Columns, b: &Columns) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => a.intersection(b).next().is_some(),
        (None, other) | (other, None) => !no_columns(other),
    }
}

/// The data effects a [`Step`] declares where it is built, beside what its
/// table, route, key and mode already say.
#[derive(Debug, Clone, Default)]
pub(crate) struct Declared {
    /// Columns whose values the step consumes; `None` if not declared.
    pub(crate) reads: Columns,
    /// Columns the step writes; `None` if not declared.
    pub(crate) writes: Columns,
    /// `true` if the step inserts or deletes rows.
    pub(crate) existence: bool,
    /// Probability that the step aborts its transaction.
    pub(crate) abort_rate: f64,
}

impl Declared {
    /// The effects of a typed insert or delete.
    pub(crate) fn existence() -> Self {
        Self {
            existence: true,
            ..Self::default()
        }
    }
}

/// What the analysis compares of one step, derived from the step.
#[derive(Debug, Clone, PartialEq)]
struct StepTemplate {
    label: &'static str,
    table: TableId,
    route: Vec<KeyAtom>,
    secondary: bool,
    reads: Columns,
    writes: Columns,
    existence: bool,
    full_key: Option<Vec<KeyAtom>>,
    abort_rate: f64,
}

impl StepTemplate {
    fn of(step: &Step) -> Self {
        let declared = step.declared();
        let writes = match (&declared.writes, step.mode()) {
            (Some(columns), _) => Some(columns.clone()),
            (None, LocalMode::Exclusive) => None,
            (None, LocalMode::Shared) => Some(BTreeSet::new()),
        };
        StepTemplate {
            label: step.label(),
            table: step.table(),
            route: step.route().atoms(),
            secondary: step.is_declared_secondary(),
            reads: declared.reads.clone(),
            writes,
            existence: declared.existence,
            full_key: step.key().map(Shape::atoms),
            abort_rate: declared.abort_rate,
        }
    }

    fn is_writer(&self) -> bool {
        !no_columns(&self.writes) || self.existence
    }
}

/// The templates of one plan's steps, one per label: steps that share a
/// label must declare the same effects, under the same local-lock mode.
fn plan_templates(plan: &TxnProgram) -> DbResult<Vec<StepTemplate>> {
    let mut templates: Vec<(LocalMode, StepTemplate)> = Vec::new();
    for step in plan.steps() {
        let template = (step.mode(), StepTemplate::of(step));
        match templates.iter().find(|(_, t)| t.label == step.label()) {
            None => templates.push(template),
            Some(first) if *first == template => {}
            Some(first) => {
                return Err(DbError::InvalidOperation(format!(
                    "program `{}`: two steps labelled `{}` declare different effects \
                     ({first:?} and {template:?}); steps that share a label share one declaration",
                    plan.name(),
                    step.label()
                )))
            }
        }
    }
    Ok(templates
        .into_iter()
        .map(|(_, template)| template)
        .collect())
}

/// Decides whether two templates (possibly the same one, standing for two
/// concurrent instances) can ever hold conflicting local locks on
/// overlapping keys. See the module docs for the three dismissal rules.
fn templates_conflict(a: &StepTemplate, b: &StepTemplate) -> bool {
    if a.secondary || b.secondary {
        return false; // secondary steps take no local locks at all
    }
    if a.table != b.table {
        return false;
    }
    if !routes_may_overlap(&a.route, &b.route) {
        return false;
    }
    if !a.is_writer() && !b.is_writer() {
        return false;
    }
    if a.existence || b.existence {
        // Insert/delete: only a provably-disjoint full-key pair is safe.
        if let (Some(ka), Some(kb)) = (&a.full_key, &b.full_key) {
            if !routes_may_overlap(ka, kb) {
                return false;
            }
        }
        return true;
    }
    if !no_columns(&a.writes) && !no_columns(&b.writes) {
        return true; // writer-vs-writer: full-row undo forbids dismissal
    }
    let (writer, reader) = if no_columns(&a.writes) {
        (b, a)
    } else {
        (a, b)
    };
    columns_meet(&writer.writes, &reader.reads)
}

/// A step the workload's routing fields cannot cover: it runs unrouted on
/// the submitting thread (a *secondary fallback*). Listed by the bind-time
/// coverage report; counted at runtime via `SecondaryFallbacks` when the
/// step was not even declared secondary.
#[derive(Debug, Clone)]
pub struct CoverageGap {
    /// Owning program.
    pub program: &'static str,
    /// Step label.
    pub label: &'static str,
    /// The table the step touches without a route.
    pub table: TableId,
    /// `true` if the workload declared the step secondary on purpose.
    pub declared: bool,
}

/// Source of [`ConflictMatrix`] ids.
static MATRIX_IDS: AtomicU64 = AtomicU64::new(1);

/// A `(program, step label)` pair naming one step template.
type StepId = (&'static str, &'static str);

/// The bind-time result of analyzing a workload's plans: which steps are
/// probe-free, which programs should run as DORA-S serialized plans, and
/// which steps the routing fields cannot cover.
#[derive(Debug, Clone)]
pub struct ConflictMatrix {
    /// Identifies this analysis run: the key of the stamps programs cache.
    id: u64,
    programs: HashSet<&'static str>,
    elide: HashSet<StepId>,
    serialize: HashSet<&'static str>,
    conflicts: Vec<(StepId, StepId)>,
    coverage: Vec<CoverageGap>,
    abort_estimates: BTreeMap<&'static str, f64>,
    routed_templates: usize,
    total_templates: usize,
}

impl ConflictMatrix {
    /// Derives the templates of `plans` (one plan per transaction type) and
    /// runs the pairwise analysis (including self-pairs — a template racing
    /// a second instance of itself). From it come the elision set, the
    /// auto-serialization set (predicted program abort rate ≥
    /// `serialize_abort_threshold`, at least two templates, and at least one
    /// conflicting one — Figure 11's DORA-S criterion), and the coverage
    /// report. An error names a plan whose steps share a label but not
    /// their declarations.
    pub fn analyze(plans: &[TxnProgram], serialize_abort_threshold: f64) -> DbResult<Self> {
        let programs = plans
            .iter()
            .map(|plan| Ok((plan.name(), plan_templates(plan)?)))
            .collect::<DbResult<Vec<_>>>()?;
        let steps: Vec<(&'static str, &StepTemplate)> = programs
            .iter()
            .flat_map(|(name, templates)| templates.iter().map(move |t| (*name, t)))
            .collect();
        let id = |(program, template): (&'static str, &StepTemplate)| (program, template.label);

        let mut conflicted: HashSet<StepId> = HashSet::new();
        let mut conflicts = Vec::new();
        for (i, &a) in steps.iter().enumerate() {
            for &b in steps.iter().skip(i) {
                if templates_conflict(a.1, b.1) {
                    conflicted.insert(id(a));
                    conflicted.insert(id(b));
                    conflicts.push((id(a), id(b)));
                }
            }
        }

        let mut elide = HashSet::new();
        let mut coverage = Vec::new();
        let mut routed_templates = 0usize;
        for &(program, step) in &steps {
            if step.route.is_empty() {
                coverage.push(CoverageGap {
                    program,
                    label: step.label,
                    table: step.table,
                    declared: step.secondary,
                });
                continue;
            }
            routed_templates += 1;
            if !conflicted.contains(&(program, step.label)) {
                elide.insert((program, step.label));
            }
        }

        let mut serialize = HashSet::new();
        let mut abort_estimates = BTreeMap::new();
        for (name, templates) in &programs {
            let survive: f64 = templates.iter().map(|t| 1.0 - t.abort_rate).product();
            let abort_est = 1.0 - survive;
            abort_estimates.insert(*name, abort_est);
            let has_conflict = templates
                .iter()
                .any(|t| conflicted.contains(&(*name, t.label)));
            if abort_est >= serialize_abort_threshold && templates.len() >= 2 && has_conflict {
                serialize.insert(*name);
            }
        }

        Ok(ConflictMatrix {
            id: MATRIX_IDS.fetch_add(1, Ordering::Relaxed),
            programs: programs.iter().map(|(name, _)| *name).collect(),
            elide,
            serialize,
            conflicts,
            coverage,
            abort_estimates,
            routed_templates,
            total_templates: steps.len(),
        })
    }

    /// This analysis run's id, unique in the process: the key of the stamp
    /// a program's plan caches.
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// `true` if the matrix has a declaration for this program name.
    /// Programs it does not know get no elision and no auto-serialization.
    pub(crate) fn knows_program(&self, name: &'static str) -> bool {
        self.programs.contains(name)
    }

    /// `true` if the step conflicts with nothing in the workload and its
    /// executor may skip the local-lock-table probe.
    pub fn is_probe_free(&self, program: &'static str, label: &'static str) -> bool {
        self.elide.contains(&(program, label))
    }

    /// `true` if the program should be auto-derived as a DORA-S serialized
    /// plan (Figure 11) instead of relying on a hand-set `serialized(true)`.
    pub fn should_serialize(&self, program: &'static str) -> bool {
        self.serialize.contains(&program)
    }

    /// Steps the routing fields cannot cover.
    pub fn coverage_gaps(&self) -> &[CoverageGap] {
        &self.coverage
    }

    /// Number of routed templates analyzed.
    #[cfg(test)]
    pub(crate) fn routed_count(&self) -> usize {
        self.routed_templates
    }

    /// Human-readable bind-time report: per-step verdicts, conflict pairs,
    /// auto-serialization decisions, and the routing-coverage section.
    /// `table_name` resolves table ids for display.
    pub fn report(&self, table_name: &dyn Fn(TableId) -> String) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "conflict analysis: {} templates ({} routed), {} probe-free, {} conflicting pairs",
            self.total_templates,
            self.routed_templates,
            self.elide.len(),
            self.conflicts.len()
        );
        let mut elided: Vec<_> = self.elide.iter().collect();
        elided.sort();
        for (program, label) in elided {
            let _ = writeln!(out, "  probe-free: {program} / {label}");
        }
        let mut serialized: Vec<_> = self.serialize.iter().collect();
        serialized.sort();
        for program in serialized {
            let est = self.abort_estimates.get(program).copied().unwrap_or(0.0);
            let _ = writeln!(
                out,
                "  auto-serialized (DORA-S): {program} (predicted abort rate {est:.2})"
            );
        }
        if self.coverage.is_empty() {
            let _ = writeln!(out, "  routing coverage: complete");
        } else {
            let _ = writeln!(
                out,
                "  routing coverage: {} step(s) run unrouted on the submitting thread:",
                self.coverage.len()
            );
            for gap in &self.coverage {
                let tag = if gap.declared {
                    "declared secondary"
                } else {
                    "SECONDARY FALLBACK"
                };
                let _ = writeln!(
                    out,
                    "    {} / {} on {} [{}]",
                    gap.program,
                    gap.label,
                    table_name(gap.table),
                    tag
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{OnDuplicate, Param};

    const X: Param = Param::new(0, "x");
    const Y: Param = Param::new(1, "y");

    /// A routed step on table `table` that reads under `mode` and does
    /// nothing.
    fn step(label: &'static str, table: u32, route: impl Into<Shape>, mode: LocalMode) -> Step {
        Step::custom(label, TableId(table), route, mode, |_| Ok(()))
    }

    fn read(label: &'static str, table: u32, route: impl Into<Shape>) -> Step {
        step(label, table, route, LocalMode::Shared)
    }

    fn write(label: &'static str, table: u32, route: impl Into<Shape>) -> Step {
        step(label, table, route, LocalMode::Exclusive)
    }

    fn insert(label: &'static str, table: u32, route: impl Into<Shape>) -> Step {
        Step::insert(label, TableId(table), route, OnDuplicate::Error, |_| {
            Ok(Vec::new())
        })
    }

    fn conflict(a: &Step, b: &Step) -> bool {
        templates_conflict(&StepTemplate::of(a), &StepTemplate::of(b))
    }

    fn analyze(plans: &[TxnProgram]) -> ConflictMatrix {
        ConflictMatrix::analyze(plans, 0.1).unwrap()
    }

    #[test]
    fn disjoint_routes_dismiss_any_pair() {
        let a = write("w", 1, Key::int(1)).writes([2]);
        let b = write("v", 1, Key::int(2)).writes([2]);
        assert!(!conflict(&a, &b));
        // Same constant: overlap, writer-vs-writer, conflict.
        let c = write("u", 1, Key::int(1)).writes([3]);
        assert!(conflict(&a, &c));
    }

    #[test]
    fn param_positions_overlap_but_unique_positions_never_do() {
        let a = write("w", 1, X).writes([1]);
        assert!(conflict(&a, &a), "self-pair on a param route");
        let u = write("w", 1, Param::TXN_ID).writes([1]);
        assert!(!conflict(&u, &u), "unique routes never collide");
    }

    #[test]
    fn prefix_semantics_match_key_overlaps() {
        // A one-atom route covers every two-atom extension of it, exactly
        // like Key::overlaps' prefix rule.
        let short = write("w", 1, X).writes([1]);
        let long = read("r", 1, Shape::of([X, Y])).reads([1]);
        assert!(conflict(&short, &long));
        // Empty route (would-be secondary built as routed) overlaps all.
        assert!(routes_may_overlap(&[], &[KeyAtom::Const(Value::Int(9))]));
    }

    #[test]
    fn read_only_pairs_and_cross_table_pairs_never_conflict() {
        let a = read("r1", 1, X).reads([1]);
        let b = read("r2", 1, X).reads([1]);
        assert!(!conflict(&a, &b));
        let w = write("w", 2, X).writes([1]);
        assert!(!conflict(&a, &w), "different tables");
    }

    #[test]
    fn column_dismissal_requires_disjoint_reads_and_writes() {
        let writer = write("w", 1, X).writes([2]);
        let disjoint_reader = read("r", 1, X).reads([3]);
        let touching_reader = read("r2", 1, X).reads([2, 3]);
        let blind_reader = read("r3", 1, X).reads([]);
        assert!(!conflict(&writer, &disjoint_reader));
        assert!(conflict(&writer, &touching_reader));
        assert!(!conflict(&writer, &blind_reader), "reads nothing");
    }

    #[test]
    fn undeclared_column_sets_touch_every_column() {
        // A reader that declares nothing reads every column, and an
        // exclusive step that declares nothing writes every column.
        let writer = write("w", 1, X).writes([2]);
        assert!(conflict(&writer, &read("r", 1, X)));
        let blind_reader = read("r", 1, X).reads([]);
        assert!(!conflict(&write("v", 1, X).writes([]), &blind_reader));
        assert!(conflict(&write("v", 1, X), &read("r", 1, X).reads([7])));
        assert!(!conflict(&write("v", 1, X), &blind_reader));
    }

    #[test]
    fn writer_vs_writer_is_never_column_dismissed() {
        // Disjoint write sets still conflict: an abort restores the full
        // row pre-image and would clobber the other writer's columns.
        let a = write("w1", 1, X).writes([2]);
        let b = write("w2", 1, X).writes([3]);
        assert!(conflict(&a, &b));
    }

    #[test]
    fn existence_effects_conflict_unless_full_keys_are_disjoint() {
        let insert_x = insert("i", 1, X);
        let reader = read("r", 1, X).reads([1]);
        assert!(conflict(&insert_x, &reader), "phantom risk");
        assert!(conflict(&insert_x, &insert_x));
        // Per-transaction-unique key position: two instances can never
        // collide, the self-pair is dismissed.
        let unique_insert = insert("i2", 1, X).full_key(Shape::of([X, Param::TXN_ID]));
        assert!(!conflict(&unique_insert, &unique_insert));
        // But against a blind-keyed reader it still conflicts.
        assert!(conflict(&unique_insert, &reader));
        // A custom step declares its existence effect.
        let custom = write("c", 1, X).writes([]).inserts_or_deletes();
        assert!(conflict(&custom, &read("r", 1, X).reads([])));
    }

    #[test]
    fn secondary_templates_only_feed_the_coverage_report() {
        let sec = Step::secondary("scan", TableId(1), |_| Ok(()));
        let writer = write("w", 1, X).writes([1]);
        assert!(!conflict(&sec, &writer));

        let matrix = analyze(&[
            TxnProgram::new("p").step(sec).step(writer.clone()),
            TxnProgram::new("q").step(writer),
        ]);
        assert_eq!(matrix.coverage_gaps().len(), 1);
        assert!(matrix.coverage_gaps()[0].declared);
        assert!(!matrix.is_probe_free("p", "scan"));
    }

    #[test]
    fn matrix_elides_isolated_steps_and_serializes_high_abort_programs() {
        // "lookup" reads column 3, the only writer writes column 2 → the
        // read is dismissed against it and (being no writer itself) is
        // probe-free. The writer self-conflicts, so it keeps its probe.
        let matrix = analyze(&[
            TxnProgram::new("reader").step(read("lookup", 1, X).reads([3])),
            TxnProgram::new("writer")
                .step(write("bump", 1, X).writes([2]).abort_rate(0.5))
                .step(write("bump2", 2, X).writes([1])),
        ]);
        assert!(matrix.is_probe_free("reader", "lookup"));
        assert!(!matrix.is_probe_free("writer", "bump"));
        assert!(matrix.should_serialize("writer"), "0.5 ≥ 0.1, 2 steps");
        assert!(!matrix.should_serialize("reader"));
        assert!(matrix.knows_program("reader"));
        assert!(!matrix.knows_program("adhoc"));
        let report = matrix.report(&|t| format!("table{}", t.0));
        assert!(report.contains("probe-free: reader / lookup"));
        assert!(report.contains("auto-serialized (DORA-S): writer"));
        assert!(report.contains("routing coverage: complete"));
    }

    #[test]
    fn single_step_or_conflict_free_programs_are_not_serialized() {
        let matrix = analyze(&[
            // High abort rate but only one step: nothing to serialize.
            TxnProgram::new("one").step(write("w", 1, X).writes([1]).abort_rate(0.9)),
            // High abort rate but conflict-free: serialization buys nothing.
            TxnProgram::new("free")
                .step(read("a", 2, X).reads([1]).abort_rate(0.5))
                .step(read("b", 3, X).reads([1])),
        ]);
        assert!(!matrix.should_serialize("one"));
        assert!(!matrix.should_serialize("free"));
        assert!(matrix.is_probe_free("free", "a"));
    }

    #[test]
    fn steps_sharing_a_label_are_one_template_and_must_agree() {
        // Two per-item reads, routed on different slots of the same name:
        // one template.
        let item = |slot| read("item", 1, Param::new(slot, "i_id")).reads([2]);
        let matrix = analyze(&[TxnProgram::new("order").step(item(2)).step(item(3))]);
        assert_eq!(matrix.routed_count(), 1);
        assert!(matrix.is_probe_free("order", "item"));
        // A second step under the label that differs in any declaration is
        // an error: in columns, mode, table, route or existence effect.
        for other in [
            read("item", 1, Param::new(3, "i_id")).reads([1]),
            write("item", 1, Param::new(3, "i_id"))
                .writes([])
                .reads([2]),
            read("item", 2, Param::new(3, "i_id")).reads([2]),
            read("item", 1, Param::new(3, "w_id")).reads([2]),
            read("item", 1, Param::new(3, "i_id"))
                .reads([2])
                .inserts_or_deletes(),
        ] {
            let plan = TxnProgram::new("order").step(item(2)).step(other);
            assert!(
                matches!(
                    ConflictMatrix::analyze(&[plan], 0.1),
                    Err(DbError::InvalidOperation(_))
                ),
                "a disagreeing step under a shared label must be rejected"
            );
        }
    }
}
