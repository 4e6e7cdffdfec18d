//! Transaction flow graphs.
//!
//! A transaction flow graph (Section 4.1.2) organizes a transaction's actions
//! into *phases* separated by rendezvous points (RVPs). Actions within a
//! phase may execute concurrently on different executors; an RVP is reached
//! only when every action of the phase has reported, and the executor that
//! zeroes the RVP initiates the next phase (or commits, at the terminal RVP).
//!
//! The TPC-C Payment graph of Figure 4, for example, has two phases:
//! `[R+U(Warehouse), R+U(District), R+U(Customer)] → RVP1 → [I(History)] →
//! RVP2 (terminal)`.
//!
//! The graph of a [`TxnProgram`] is the program itself: a phase is a range
//! of its steps and an action names its step, so building a transaction's
//! graph copies nothing.

use crate::action::ActionSpec;
use crate::program::TxnProgram;

/// A transaction flow graph: the program DORA runs, seen as phases of
/// actions. A compiled program *is* its graph
/// ([`TxnProgram::compile_dora`]); a graph built by hand from
/// [`ActionSpec`]s lowers each one into a program step as it is pushed.
/// Hand it to [`crate::DoraEngine::execute`].
#[derive(Debug)]
pub struct FlowGraph {
    program: TxnProgram,
}

impl Default for FlowGraph {
    fn default() -> Self {
        Self::new()
    }
}

impl FlowGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::from_program(TxnProgram::new("flow-graph"))
    }

    /// The graph of `program`.
    pub(crate) fn from_program(program: TxnProgram) -> Self {
        Self { program }
    }

    /// The program the graph runs.
    pub(crate) fn into_program(self) -> TxnProgram {
        self.program
    }

    /// Opens a new phase; subsequent [`push`](Self::push)es land in it.
    /// Phases left empty are dropped, so an extra `begin_phase` is harmless
    /// rather than an error.
    pub(crate) fn begin_phase(&mut self) -> &mut Self {
        self.program.push_rvp();
        self
    }

    /// Appends an action to the current (last-opened) phase, opening phase 0
    /// first if the graph is still empty. Never panics and never indexes by a
    /// caller-supplied phase number — together with
    /// `begin_phase` and
    /// [`phase_with`](Self::phase_with) this is the whole construction
    /// surface.
    pub fn push(&mut self, action: ActionSpec) -> &mut Self {
        self.program.push_step(action.into_step());
        self
    }

    /// Chaining convenience: appends a phase containing exactly the given
    /// actions.
    pub fn phase_with(mut self, actions: Vec<ActionSpec>) -> Self {
        self.begin_phase();
        for action in actions {
            self.push(action);
        }
        self
    }

    /// Number of phases.
    pub fn phase_count(&self) -> usize {
        self.program.dora_phase_count()
    }

    /// Number of actions in `phase`.
    pub fn actions_in(&self, phase: usize) -> usize {
        self.program.dora_phase(phase).len()
    }

    /// Total number of actions across all phases.
    pub fn action_count(&self) -> usize {
        self.program.step_count()
    }

    /// Human-readable structure of the graph: one vector per phase, one
    /// `"label(identifier)"` entry per action. Used by the harness to print
    /// Figure 4-style graph descriptions and by diagnostics.
    pub fn describe(&self) -> Vec<Vec<String>> {
        let program = &self.program;
        (0..program.dora_phase_count())
            .map(|phase| {
                program
                    .dora_phase(phase)
                    .filter_map(|index| Some((index, program.steps().get(index)?)))
                    .map(|(index, step)| {
                        // A route that cannot be bound routes nowhere.
                        let identifier = step.route().bind(program.params()).unwrap_or_default();
                        if identifier.is_empty() {
                            format!("{}[secondary]", step.label())
                        } else if program.is_probe_free(index) {
                            format!("{}{}[probe-free]", step.label(), identifier)
                        } else {
                            format!("{}{}", step.label(), identifier)
                        }
                    })
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::LocalMode;
    use dora_common::prelude::*;

    fn action(label: &'static str, id: i64) -> ActionSpec {
        ActionSpec::new(
            label,
            TableId(0),
            Key::int(id),
            LocalMode::Exclusive,
            |_| Ok(()),
        )
    }

    #[test]
    fn payment_shaped_graph_has_two_phases() {
        // Mirrors Figure 4: three actions in phase one, the History insert in
        // phase two.
        let mut graph = FlowGraph::new();
        graph
            .push(action("warehouse", 1))
            .push(action("district", 1))
            .push(action("customer", 1));
        graph.begin_phase().push(action("history", 1));

        assert_eq!(graph.phase_count(), 2);
        assert_eq!(graph.actions_in(0), 3);
        assert_eq!(graph.actions_in(1), 1);
        assert_eq!(graph.action_count(), 4);
        assert_ne!(graph.action_count(), 0);
    }

    #[test]
    fn serialized_graph_has_one_action_per_phase() {
        let graph = FlowGraph::new()
            .phase_with(vec![action("a", 1), action("b", 2)])
            .phase_with(vec![action("c", 3)]);
        let serial = FlowGraph::from_program(graph.program.serialized(true));
        assert_eq!(serial.phase_count(), 3);
        assert!((0..3).all(|p| serial.actions_in(p) == 1));
    }

    #[test]
    fn empty_phases_are_dropped_on_instantiation() {
        let mut graph = FlowGraph::new();
        graph.begin_phase();
        graph.begin_phase().push(action("only", 1));
        graph.begin_phase();
        assert_eq!(graph.phase_count(), 1);
        assert_eq!(graph.actions_in(0), 1);
        assert_eq!(graph.describe(), vec![vec![format!("only{}", Key::int(1))]]);
    }

    #[test]
    fn push_on_an_empty_graph_opens_the_first_phase() {
        let mut graph = FlowGraph::new();
        graph.push(action("first", 1));
        assert_eq!(graph.phase_count(), 1);
        assert_eq!(graph.actions_in(0), 1);
    }
}
