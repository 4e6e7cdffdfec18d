//! Prepared statements: what a client holds after [`prepare`].
//!
//! A [`TxnProgram`] is a shared plan bound to one transaction's
//! parameters. A [`Statement`] is that plan prepared once by the engine.
//! [`Session::execute`] runs it as prepared, with zero per-call work;
//! [`Session::execute_with`] binds new [`Params`] into the same plan
//! ([`TxnProgram::bind`], the path every workload takes) and runs that
//! binding. No step is rebuilt either way.
//!
//! [`prepare`]: crate::Server::prepare
//! [`Session::execute`]: crate::Session::execute
//! [`Session::execute_with`]: crate::Session::execute_with
//! [`TxnProgram`]: dora_core::TxnProgram
//! [`TxnProgram::bind`]: dora_core::TxnProgram::bind
//! [`Params`]: dora_core::Params

use std::sync::Arc;

use dora_core::{Params, PreparedProgram, TxnProgram};

/// A handle returned by [`Server::prepare`]: cheap to clone, shareable
/// across sessions and threads.
///
/// [`Server::prepare`]: crate::Server::prepare
#[derive(Clone)]
pub struct Statement {
    prepared: Arc<PreparedProgram>,
}

impl std::fmt::Debug for Statement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Statement")
            .field("name", &self.name())
            .finish()
    }
}

impl Statement {
    pub(crate) fn new(prepared: PreparedProgram) -> Self {
        Self {
            prepared: Arc::new(prepared),
        }
    }

    /// The statement's transaction-type label.
    pub(crate) fn name(&self) -> &'static str {
        self.prepared.name()
    }

    /// The prepared program, as prepared.
    pub(crate) fn prepared(&self) -> &PreparedProgram {
        &self.prepared
    }

    /// The statement's plan bound to `params`.
    pub(crate) fn bind(&self, params: Params) -> TxnProgram {
        self.prepared.bind(params)
    }
}
