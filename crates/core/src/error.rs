//! Error type of the declarative scheduler.

use std::fmt;

/// Result alias.
pub type SchedResult<T> = Result<T, SchedError>;

/// Errors surfaced by the declarative scheduler.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedError {
    /// The rule back-end failed to evaluate (malformed plan/program or a
    /// relation it expects is missing).
    RuleEvaluation {
        /// Which protocol's rule failed.
        protocol: String,
        /// Underlying message.
        message: String,
    },
    /// The rule produced rows that do not look like request keys.
    MalformedRuleOutput {
        /// Which protocol produced them.
        protocol: String,
        /// What was wrong.
        detail: String,
    },
    /// The dispatcher hit a storage error while executing a batch.
    Dispatch {
        /// Underlying message.
        message: String,
    },
    /// The middleware channel to a client or worker is gone.
    ChannelClosed {
        /// Which endpoint disappeared.
        endpoint: &'static str,
    },
    /// A request arrived for a transaction that already finished.
    TransactionFinished {
        /// The transaction id.
        ta: u64,
    },
    /// The backend was already shut down when the operation arrived.
    BackendShutdown {
        /// Which backend refused the operation.
        backend: &'static str,
    },
    /// A shared lock was poisoned by a panicking holder.  Surfaced as an
    /// error instead of propagating the panic, so one crashed client thread
    /// cannot cascade panics through every other session sharing the
    /// deployment.
    Poisoned {
        /// Which shared structure was poisoned.
        what: &'static str,
    },
    /// An auxiliary relation was given the name of one of the scheduler's
    /// own relations (`requests`, `history`, `sla`), which it would shadow
    /// in the rule's catalog.
    ReservedRelation {
        /// The refused name.
        relation: String,
    },
    /// The submission was shed by the overload-protection policy before it
    /// reached the scheduler: the deployment is past its queue-depth
    /// watermark and the transaction's SLA tier is below the protected
    /// priority.  The transaction was never admitted — no locks were taken
    /// and nothing executed — so the client may retry later.
    Shed {
        /// SLA class of the shed transaction.
        class: &'static str,
    },
}

impl SchedError {
    /// Whether this error is the typed [`SchedError::Shed`] outcome of the
    /// overload-protection policy (a deliberate rejection, not a failure).
    pub fn is_shed(&self) -> bool {
        matches!(self, SchedError::Shed { .. })
    }
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::RuleEvaluation { protocol, message } => {
                write!(
                    f,
                    "rule evaluation failed for protocol `{protocol}`: {message}"
                )
            }
            SchedError::MalformedRuleOutput { protocol, detail } => {
                write!(
                    f,
                    "protocol `{protocol}` produced malformed output: {detail}"
                )
            }
            SchedError::Dispatch { message } => write!(f, "dispatch failed: {message}"),
            SchedError::ChannelClosed { endpoint } => {
                write!(f, "middleware channel to {endpoint} closed")
            }
            SchedError::TransactionFinished { ta } => {
                write!(f, "request for already-finished transaction T{ta}")
            }
            SchedError::BackendShutdown { backend } => {
                write!(f, "the {backend} backend was already shut down")
            }
            SchedError::Poisoned { what } => {
                write!(f, "shared lock poisoned: {what}")
            }
            SchedError::ReservedRelation { relation } => write!(
                f,
                "auxiliary relation `{relation}` would shadow the scheduler's own relation"
            ),
            SchedError::Shed { class } => {
                write!(f, "transaction shed under overload (class `{class}`)")
            }
        }
    }
}

impl std::error::Error for SchedError {}

impl From<relalg::RelError> for SchedError {
    fn from(e: relalg::RelError) -> Self {
        SchedError::RuleEvaluation {
            protocol: "<algebra>".to_string(),
            message: e.to_string(),
        }
    }
}

impl From<datalog::DatalogError> for SchedError {
    fn from(e: datalog::DatalogError) -> Self {
        SchedError::RuleEvaluation {
            protocol: "<datalog>".to_string(),
            message: e.to_string(),
        }
    }
}

impl From<txnstore::StoreError> for SchedError {
    fn from(e: txnstore::StoreError) -> Self {
        SchedError::Dispatch {
            message: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_preserve_messages() {
        let rel_err = relalg::RelError::UnknownRelation {
            relation: "requests".into(),
        };
        let e: SchedError = rel_err.into();
        assert!(e.to_string().contains("requests"));

        let dl_err = datalog::DatalogError::UnsafeRule {
            rule: "bad(X).".into(),
        };
        let e: SchedError = dl_err.into();
        assert!(e.to_string().contains("bad(X)"));

        let st_err = txnstore::StoreError::UnknownTable { table: "t".into() };
        let e: SchedError = st_err.into();
        assert!(matches!(e, SchedError::Dispatch { .. }));
    }

    #[test]
    fn display_variants() {
        let e = SchedError::TransactionFinished { ta: 12 };
        assert!(e.to_string().contains("T12"));
        let e = SchedError::ChannelClosed {
            endpoint: "client worker",
        };
        assert!(e.to_string().contains("client worker"));
        let e = SchedError::Poisoned { what: "homes map" };
        assert!(e.to_string().contains("homes map"));
        assert!(!e.is_shed());
        let e = SchedError::Shed { class: "free" };
        assert!(e.is_shed());
        assert!(e.to_string().contains("free"));
    }
}
