//! Prepared statements: what a client holds after [`prepare`].
//!
//! A [`TxnProgram`] is a shared plan bound to one transaction's
//! parameters, so the compile-once/execute-many seam splits in two:
//!
//! * [`Statement::prepared`] — a fixed-parameter program wrapped once in a
//!   [`PreparedProgram`]; every execution reuses the shared plan with zero
//!   per-call work. The right shape for hot singleton
//!   transactions (a watchdog ping, a fixed maintenance sweep).
//! * [`Statement::template`] — a parameterized *builder*: each submitted
//!   parameter binding draws a program for those inputs and runs it
//!   through the engine's prepare-then-execute path. The template itself
//!   (mix logic, step bodies, schema lookups) is authored and validated
//!   once; only the per-binding routing differs.
//!
//! [`prepare`]: crate::Server::prepare

use std::sync::Arc;

use dora_common::prelude::*;
use dora_core::{PreparedProgram, TxnProgram};
use dora_storage::Database;

/// One parameter binding for a template statement.
pub type Params = Vec<Value>;

/// Builds a [`TxnProgram`] for one parameter binding.
pub type TemplateFn = dyn Fn(&Database, &Params) -> DbResult<TxnProgram> + Send + Sync;

pub(crate) enum StatementKind {
    Prepared(PreparedProgram),
    Template(Arc<TemplateFn>),
}

/// A handle returned by [`Server::prepare`] / [`Server::prepare_template`]:
/// cheap to clone, shareable across sessions and threads.
///
/// [`Server::prepare`]: crate::Server::prepare
/// [`Server::prepare_template`]: crate::Server::prepare_template
#[derive(Clone)]
pub struct Statement {
    name: &'static str,
    pub(crate) kind: Arc<StatementKind>,
}

impl std::fmt::Debug for Statement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match *self.kind {
            StatementKind::Prepared(_) => "prepared",
            StatementKind::Template(_) => "template",
        };
        f.debug_struct("Statement")
            .field("name", &self.name)
            .field("kind", &kind)
            .finish()
    }
}

impl Statement {
    pub(crate) fn prepared(prepared: PreparedProgram) -> Self {
        Self {
            name: prepared.name(),
            kind: Arc::new(StatementKind::Prepared(prepared)),
        }
    }

    pub(crate) fn template(
        name: &'static str,
        build: impl Fn(&Database, &Params) -> DbResult<TxnProgram> + Send + Sync + 'static,
    ) -> Self {
        Self {
            name,
            kind: Arc::new(StatementKind::Template(Arc::new(build))),
        }
    }

    /// The statement's transaction-type label.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// `true` for fixed-parameter statements (no per-call compilation at
    /// all), `false` for parameterized templates.
    pub fn is_compiled(&self) -> bool {
        matches!(*self.kind, StatementKind::Prepared(_))
    }

    /// `true` if this statement is *statically* known to be read-only and
    /// therefore eligible for lock-free snapshot execution (when the server
    /// has snapshot reads enabled). Fixed-parameter statements answer from
    /// their compiled step list; templates answer `false` here — their
    /// programs only exist per binding, so eligibility is decided per build.
    pub fn snapshot_eligible(&self) -> bool {
        match &*self.kind {
            StatementKind::Prepared(prepared) => prepared.is_read_only(),
            StatementKind::Template(_) => false,
        }
    }
}
