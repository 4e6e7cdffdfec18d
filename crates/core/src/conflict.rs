//! Static, workload-level conflict analysis over transaction-program
//! templates.
//!
//! DORA routes every action to the executor that owns its routing key and
//! probes that executor's [`LocalLockTable`](crate::locallock::LocalLockTable)
//! before running it. For many step templates the probe is provably
//! pointless: no other template in the workload can ever hold a conflicting
//! lock on an overlapping key. This module decides that *offline*, in the
//! spirit of DIBS (`predicate.rs`/`solver.rs`): templates are compared
//! pairwise once per workload at `bind` time — never per transaction — and
//! the resulting [`ConflictMatrix`] is threaded through
//! [`TxnProgram::with_conflicts`](crate::program::TxnProgram::with_conflicts)
//! so compilation marks probe-free steps, which skip the acquire call
//! entirely (counter `LockProbesElided`) — and with it the executor: a
//! probe-free action is never routed or queued, and runs on the thread that
//! dispatches its phase, like a secondary action.
//!
//! A template describes a step's *declared* data effects: the table, the
//! route key expression (constant / parameter / per-transaction-unique
//! positions), the column sets it reads and writes, whether it changes row
//! existence (insert/delete), and its expected abort rate. Two templates
//! **conflict** unless the solver can dismiss the pair by one of three
//! sound arguments:
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
//! overlapping accessor of the table unless both sides declare full
//! primary-key templates that are provably disjoint (e.g. a key position
//! carrying the transaction id).
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
//! Secondary (unrouted) templates take part only in the *coverage report*:
//! they acquire no local locks today, so they neither elide nor block
//! elision — their interaction with routed writers is governed by the
//! storage layer's concurrency-control mode, exactly as before this
//! analysis existed.
//!
//! **Soundness boundary:** the matrix reasons over the *declared* workload.
//! Elision is only applied to programs the workload declared (matched by
//! program name), and it assumes every concurrently running program is an
//! instance of some declared template. Ad-hoc programs submitted to the
//! same engine get no elision themselves (conservative for them), but if
//! they write tables that declared templates were elided on, the analysis'
//! closed-world assumption is violated — the same assumption DIBS makes.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

use dora_common::prelude::*;

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

/// What a template does — display/report flavor only; the conflict decision
/// reads the declared effects, not the kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TemplateKind {
    /// Routed read (shared intent).
    Read,
    /// Routed update (exclusive intent, no existence change).
    Write,
    /// Routed insert (existence effect).
    Insert,
    /// Routed delete (existence effect).
    Delete,
    /// Unrouted step executed on the submitting thread.
    Secondary,
}

/// The declared access pattern of one step of a transaction program.
///
/// Built by the workload alongside the program itself; the `label` must
/// match the corresponding [`Step`](crate::program::Step) label so the
/// matrix can be applied back onto compiled programs.
#[derive(Debug, Clone)]
pub struct StepTemplate {
    program: &'static str,
    label: &'static str,
    table: TableId,
    kind: TemplateKind,
    route: Vec<KeyAtom>,
    reads: BTreeSet<usize>,
    writes: BTreeSet<usize>,
    existence: bool,
    full_key: Option<Vec<KeyAtom>>,
    abort_rate: f64,
}

impl StepTemplate {
    fn new(label: &'static str, table: TableId, kind: TemplateKind, route: Vec<KeyAtom>) -> Self {
        let existence = matches!(kind, TemplateKind::Insert | TemplateKind::Delete);
        StepTemplate {
            program: "",
            label,
            table,
            kind,
            route,
            reads: BTreeSet::new(),
            writes: BTreeSet::new(),
            existence,
            full_key: None,
            abort_rate: 0.0,
        }
    }

    /// A routed read step.
    pub fn read(label: &'static str, table: TableId, route: Vec<KeyAtom>) -> Self {
        Self::new(label, table, TemplateKind::Read, route)
    }

    /// A routed update step (declare the written columns with
    /// [`writes`](Self::writes)).
    pub fn write(label: &'static str, table: TableId, route: Vec<KeyAtom>) -> Self {
        Self::new(label, table, TemplateKind::Write, route)
    }

    /// A routed insert: a row-existence effect.
    pub fn insert(label: &'static str, table: TableId, route: Vec<KeyAtom>) -> Self {
        Self::new(label, table, TemplateKind::Insert, route)
    }

    /// A routed delete: a row-existence effect.
    pub fn delete(label: &'static str, table: TableId, route: Vec<KeyAtom>) -> Self {
        Self::new(label, table, TemplateKind::Delete, route)
    }

    /// An unrouted step: no local locks, coverage report only.
    pub fn secondary(label: &'static str, table: TableId) -> Self {
        Self::new(label, table, TemplateKind::Secondary, Vec::new())
    }

    /// Declares the column positions whose *values* the step consumes.
    /// Checking mere row existence does not count — it is covered by the
    /// existence-effect rule.
    pub fn reads(mut self, cols: impl IntoIterator<Item = usize>) -> Self {
        self.reads.extend(cols);
        self
    }

    /// Declares the column positions the step writes.
    pub fn writes(mut self, cols: impl IntoIterator<Item = usize>) -> Self {
        self.writes.extend(cols);
        self
    }

    /// Declares the full primary-key expression (used to dismiss
    /// existence-effect pairs whose concrete keys can never collide).
    pub fn full_key(mut self, atoms: Vec<KeyAtom>) -> Self {
        self.full_key = Some(atoms);
        self
    }

    /// Declares the expected abort probability of this step (drives the
    /// Figure-11 auto-serialization decision).
    pub fn abort_rate(mut self, rate: f64) -> Self {
        self.abort_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// The step label this template describes.
    pub fn label(&self) -> &'static str {
        self.label
    }

    /// The owning program (set by [`ProgramTemplate::step`]).
    pub fn program(&self) -> &'static str {
        self.program
    }

    /// The accessed table.
    pub fn table(&self) -> TableId {
        self.table
    }

    /// What the step does.
    pub fn kind(&self) -> TemplateKind {
        self.kind
    }

    /// The route key expression.
    pub fn route(&self) -> &[KeyAtom] {
        &self.route
    }

    /// The declared full primary-key expression, if any.
    pub fn full_key_atoms(&self) -> Option<&[KeyAtom]> {
        self.full_key.as_deref()
    }

    /// `true` for unrouted templates.
    pub fn is_secondary(&self) -> bool {
        self.kind == TemplateKind::Secondary
    }

    fn is_writer(&self) -> bool {
        !self.writes.is_empty() || self.existence
    }
}

/// Decides whether two templates (possibly the same one, standing for two
/// concurrent instances) can ever hold conflicting local locks on
/// overlapping keys. See the module docs for the three dismissal rules.
pub fn templates_conflict(a: &StepTemplate, b: &StepTemplate) -> bool {
    if a.is_secondary() || b.is_secondary() {
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
    if !a.writes.is_empty() && !b.writes.is_empty() {
        return true; // writer-vs-writer: full-row undo forbids dismissal
    }
    let (writer, reader) = if a.writes.is_empty() { (b, a) } else { (a, b) };
    writer.writes.intersection(&reader.reads).next().is_some()
}

/// The declared access patterns of one program's steps.
#[derive(Debug, Clone, Default)]
pub struct ProgramTemplate {
    name: &'static str,
    steps: Vec<StepTemplate>,
}

impl ProgramTemplate {
    /// Starts a template for the program named `name` (must match
    /// `TxnProgram::name()` for the matrix to apply).
    pub fn new(name: &'static str) -> Self {
        ProgramTemplate {
            name,
            steps: Vec::new(),
        }
    }

    /// Appends a step template, stamping it with this program's name.
    /// Duplicate labels within one program must share one declaration that
    /// covers every instance (e.g. TPC-C's per-item reads).
    pub fn step(mut self, mut step: StepTemplate) -> Self {
        step.program = self.name;
        self.steps.push(step);
        self
    }

    /// The program name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The declared steps.
    pub fn steps(&self) -> &[StepTemplate] {
        &self.steps
    }
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

/// The bind-time result of analyzing a workload's program templates:
/// which steps are probe-free, which programs should run as DORA-S
/// serialized plans, and which steps the routing fields cannot cover.
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
    /// Runs the pairwise analysis (including self-pairs — a template racing
    /// a second instance of itself) and derives the elision set, the
    /// auto-serialization set (predicted program abort rate ≥
    /// `serialize_abort_threshold`, at least two steps, and at least one
    /// conflicting step — Figure 11's DORA-S criterion), and the coverage
    /// report.
    pub fn analyze(programs: &[ProgramTemplate], serialize_abort_threshold: f64) -> Self {
        let steps: Vec<&StepTemplate> = programs.iter().flat_map(|p| p.steps.iter()).collect();
        let id = |s: &StepTemplate| (s.program, s.label);

        let mut conflicted: HashSet<(&'static str, &'static str)> = HashSet::new();
        let mut conflicts = Vec::new();
        for (i, a) in steps.iter().enumerate() {
            for b in steps.iter().skip(i) {
                if templates_conflict(a, b) {
                    conflicted.insert(id(a));
                    conflicted.insert(id(b));
                    conflicts.push((id(a), id(b)));
                }
            }
        }

        let mut elide = HashSet::new();
        let mut coverage = Vec::new();
        let mut routed_templates = 0usize;
        for step in &steps {
            if step.route.is_empty() {
                coverage.push(CoverageGap {
                    program: step.program,
                    label: step.label,
                    table: step.table,
                    declared: step.is_secondary(),
                });
                continue;
            }
            routed_templates += 1;
            if !conflicted.contains(&id(step)) {
                elide.insert(id(step));
            }
        }

        let mut serialize = HashSet::new();
        let mut abort_estimates = BTreeMap::new();
        for program in programs {
            let survive: f64 = program.steps.iter().map(|s| 1.0 - s.abort_rate).product();
            let abort_est = 1.0 - survive;
            abort_estimates.insert(program.name, abort_est);
            let has_conflict = program.steps.iter().any(|s| conflicted.contains(&id(s)));
            if abort_est >= serialize_abort_threshold && program.steps.len() >= 2 && has_conflict {
                serialize.insert(program.name);
            }
        }

        ConflictMatrix {
            id: MATRIX_IDS.fetch_add(1, Ordering::Relaxed),
            programs: programs.iter().map(|p| p.name).collect(),
            elide,
            serialize,
            conflicts,
            coverage,
            abort_estimates,
            routed_templates,
            total_templates: steps.len(),
        }
    }

    /// This analysis run's id, unique in the process: the key of the stamp
    /// a program's plan caches.
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// `true` if the matrix has a declaration for this program name.
    /// Programs it does not know get no elision and no auto-serialization.
    pub fn knows_program(&self, name: &'static str) -> bool {
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

    /// Number of probe-free templates.
    pub fn probe_free_count(&self) -> usize {
        self.elide.len()
    }

    /// Number of routed templates analyzed.
    pub fn routed_count(&self) -> usize {
        self.routed_templates
    }

    /// Number of programs the matrix auto-derives as serialized plans.
    pub fn serialized_count(&self) -> usize {
        self.serialize.len()
    }

    /// Number of conflicting template pairs (including self-pairs).
    pub fn conflict_pair_count(&self) -> usize {
        self.conflicts.len()
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

    fn table(n: u32) -> TableId {
        TableId(n)
    }

    #[test]
    fn disjoint_routes_dismiss_any_pair() {
        let a = StepTemplate::write("w", table(1), vec![KeyAtom::Const(Value::Int(1))]).writes([2]);
        let b = StepTemplate::write("v", table(1), vec![KeyAtom::Const(Value::Int(2))]).writes([2]);
        assert!(!templates_conflict(&a, &b));
        // Same constant: overlap, writer-vs-writer, conflict.
        let c = StepTemplate::write("u", table(1), vec![KeyAtom::Const(Value::Int(1))]).writes([3]);
        assert!(templates_conflict(&a, &c));
    }

    #[test]
    fn param_positions_overlap_but_unique_positions_never_do() {
        let a = StepTemplate::write("w", table(1), vec![KeyAtom::Param("x")]).writes([1]);
        assert!(templates_conflict(&a, &a), "self-pair on a param route");
        let u = StepTemplate::write("w", table(1), vec![KeyAtom::Unique]).writes([1]);
        assert!(!templates_conflict(&u, &u), "unique routes never collide");
    }

    #[test]
    fn prefix_semantics_match_key_overlaps() {
        // A one-atom route covers every two-atom extension of it, exactly
        // like Key::overlaps' prefix rule.
        let short = StepTemplate::write("w", table(1), vec![KeyAtom::Param("a")]).writes([1]);
        let long = StepTemplate::read(
            "r",
            table(1),
            vec![KeyAtom::Param("a"), KeyAtom::Param("b")],
        )
        .reads([1]);
        assert!(templates_conflict(&short, &long));
        // Empty route (would-be secondary built as routed) overlaps all.
        assert!(routes_may_overlap(&[], &[KeyAtom::Const(Value::Int(9))]));
    }

    #[test]
    fn read_only_pairs_and_cross_table_pairs_never_conflict() {
        let a = StepTemplate::read("r1", table(1), vec![KeyAtom::Param("x")]).reads([1]);
        let b = StepTemplate::read("r2", table(1), vec![KeyAtom::Param("x")]).reads([1]);
        assert!(!templates_conflict(&a, &b));
        let w = StepTemplate::write("w", table(2), vec![KeyAtom::Param("x")]).writes([1]);
        assert!(!templates_conflict(&a, &w), "different tables");
    }

    #[test]
    fn column_dismissal_requires_disjoint_reads_and_writes() {
        let writer = StepTemplate::write("w", table(1), vec![KeyAtom::Param("x")]).writes([2]);
        let disjoint_reader =
            StepTemplate::read("r", table(1), vec![KeyAtom::Param("x")]).reads([3]);
        let touching_reader =
            StepTemplate::read("r2", table(1), vec![KeyAtom::Param("x")]).reads([2, 3]);
        let blind_reader = StepTemplate::read("r3", table(1), vec![KeyAtom::Param("x")]);
        assert!(!templates_conflict(&writer, &disjoint_reader));
        assert!(templates_conflict(&writer, &touching_reader));
        assert!(!templates_conflict(&writer, &blind_reader), "reads nothing");
    }

    #[test]
    fn writer_vs_writer_is_never_column_dismissed() {
        // Disjoint write sets still conflict: an abort restores the full
        // row pre-image and would clobber the other writer's columns.
        let a = StepTemplate::write("w1", table(1), vec![KeyAtom::Param("x")]).writes([2]);
        let b = StepTemplate::write("w2", table(1), vec![KeyAtom::Param("x")]).writes([3]);
        assert!(templates_conflict(&a, &b));
    }

    #[test]
    fn existence_effects_conflict_unless_full_keys_are_disjoint() {
        let insert = StepTemplate::insert("i", table(1), vec![KeyAtom::Param("x")]);
        let reader = StepTemplate::read("r", table(1), vec![KeyAtom::Param("x")]).reads([1]);
        assert!(templates_conflict(&insert, &reader), "phantom risk");
        assert!(templates_conflict(&insert, &insert));
        // Per-transaction-unique key position: two instances can never
        // collide, the self-pair is dismissed.
        let unique_insert = StepTemplate::insert("i2", table(1), vec![KeyAtom::Param("x")])
            .full_key(vec![KeyAtom::Param("x"), KeyAtom::Unique]);
        assert!(!templates_conflict(&unique_insert, &unique_insert));
        // But against a blind-keyed reader it still conflicts.
        assert!(templates_conflict(&unique_insert, &reader));
    }

    #[test]
    fn secondary_templates_only_feed_the_coverage_report() {
        let sec = StepTemplate::secondary("scan", table(1));
        let writer = StepTemplate::write("w", table(1), vec![KeyAtom::Param("x")]).writes([1]);
        assert!(!templates_conflict(&sec, &writer));

        let programs = vec![
            ProgramTemplate::new("p").step(sec).step(writer.clone()),
            ProgramTemplate::new("q").step(writer),
        ];
        let matrix = ConflictMatrix::analyze(&programs, 0.1);
        assert_eq!(matrix.coverage_gaps().len(), 1);
        assert!(matrix.coverage_gaps()[0].declared);
        assert!(!matrix.is_probe_free("p", "scan"));
    }

    #[test]
    fn matrix_elides_isolated_steps_and_serializes_high_abort_programs() {
        // "lookup" reads column 3, the only writer writes column 2 → the
        // read is dismissed against it and (being no writer itself) is
        // probe-free. The writer self-conflicts, so it keeps its probe.
        let programs = vec![
            ProgramTemplate::new("reader")
                .step(StepTemplate::read("lookup", table(1), vec![KeyAtom::Param("k")]).reads([3])),
            ProgramTemplate::new("writer")
                .step(
                    StepTemplate::write("bump", table(1), vec![KeyAtom::Param("k")])
                        .writes([2])
                        .abort_rate(0.5),
                )
                .step(
                    StepTemplate::write("bump2", table(2), vec![KeyAtom::Param("k")]).writes([1]),
                ),
        ];
        let matrix = ConflictMatrix::analyze(&programs, 0.1);
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
        let programs = vec![
            // High abort rate but only one step: nothing to serialize.
            ProgramTemplate::new("one").step(
                StepTemplate::write("w", table(1), vec![KeyAtom::Param("k")])
                    .writes([1])
                    .abort_rate(0.9),
            ),
            // High abort rate but conflict-free: serialization buys nothing.
            ProgramTemplate::new("free")
                .step(
                    StepTemplate::read("a", table(2), vec![KeyAtom::Param("k")])
                        .reads([1])
                        .abort_rate(0.5),
                )
                .step(StepTemplate::read("b", table(3), vec![KeyAtom::Param("k")]).reads([1])),
        ];
        let matrix = ConflictMatrix::analyze(&programs, 0.1);
        assert!(!matrix.should_serialize("one"));
        assert!(!matrix.should_serialize("free"));
        assert!(matrix.is_probe_free("free", "a"));
    }
}
