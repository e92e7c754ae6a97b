//! The typed error a submission returns.

use crate::admission::ShedReason;
use oodb_exec::ExecError;
use oodb_fault::FaultClass;

/// Errors a submission can produce.
#[derive(Clone, Debug, PartialEq)]
pub enum ServiceError {
    /// The front end rejected the query.
    Zql(zql::ZqlError),
    /// No feasible plan under the current rule configuration.
    NoPlan,
    /// A prepared-statement execution named an id that is not registered.
    UnknownStatement {
        /// The id the caller presented (a canonical fingerprint hash).
        id: u64,
    },
    /// The submission's deadline expired in the named pipeline stage.
    DeadlineExceeded {
        /// Which stage ran out of time: `"execute"`, or `"optimize"` for
        /// a query the greedy fallback cannot plan (an explicit join or a
        /// set operation). Any other expired search degrades to greedy.
        stage: &'static str,
    },
    /// The submission's [`oodb_fault::CancelToken`] was cancelled.
    Cancelled,
    /// Execution materialized more tuples than
    /// [`crate::SubmitOptions::row_budget`] allows.
    RowBudgetExceeded {
        /// The budget that was exceeded.
        budget: u64,
    },
    /// The service refused the submission *before* running it — load
    /// shedding. Retry later; nothing was executed.
    Overloaded {
        /// What tripped the refusal.
        reason: ShedReason,
    },
    /// The execution's memory grant could not cover even its smallest
    /// working unit: spilling and staging were tried and still did not
    /// fit. Not retryable under the same budget.
    MemoryExhausted {
        /// Bytes the failing reservation asked for.
        requested: u64,
        /// The per-query budget in force.
        budget: u64,
    },
    /// A storage fault survived the retry budget (or was permanent).
    StorageFault {
        /// Whether the final fault was transient (retryable in principle).
        transient: bool,
        /// How many retries were spent before giving up.
        retries: u32,
    },
    /// Execution failed in a non-retryable way (malformed plan or trace).
    Exec(String),
    /// The submission panicked; the service caught it and stayed up.
    Panicked(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Zql(e) => write!(f, "{e}"),
            ServiceError::NoPlan => {
                write!(f, "no feasible plan under the current rule configuration")
            }
            ServiceError::UnknownStatement { id } => {
                write!(f, "unknown prepared statement {id:016x}")
            }
            ServiceError::DeadlineExceeded { stage } => {
                write!(f, "deadline exceeded during {stage}")
            }
            ServiceError::Cancelled => write!(f, "query cancelled"),
            ServiceError::RowBudgetExceeded { budget } => {
                write!(f, "row budget of {budget} tuples exceeded")
            }
            ServiceError::Overloaded { reason } => {
                write!(f, "service overloaded: {reason}")
            }
            ServiceError::MemoryExhausted { requested, budget } => write!(
                f,
                "memory grant exhausted: {requested} bytes requested, budget {budget}"
            ),
            ServiceError::StorageFault { transient, retries } => write!(
                f,
                "{} storage fault after {retries} retries",
                if *transient { "transient" } else { "permanent" }
            ),
            ServiceError::Exec(msg) => write!(f, "execution failed: {msg}"),
            ServiceError::Panicked(msg) => write!(f, "submission panicked: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl ServiceError {
    /// Whether this error says the system is out of a resource — memory,
    /// storage, or a pipeline that panicked — rather than that the query
    /// was bad, late, or refused. The only failure classifier: it is what
    /// the [`crate::Gate`]'s breaker counts.
    pub fn is_resource_failure(&self) -> bool {
        matches!(
            self,
            ServiceError::MemoryExhausted { .. }
                | ServiceError::StorageFault { .. }
                | ServiceError::Panicked(_)
        )
    }

    /// What an execution failure means to the caller, after `retries`
    /// transient faults were retried.
    pub(crate) fn from_exec(e: ExecError, retries: u32) -> Self {
        match e {
            ExecError::Fault(f) => ServiceError::StorageFault {
                transient: f.class == FaultClass::Transient,
                retries,
            },
            ExecError::Cancelled => ServiceError::Cancelled,
            ExecError::DeadlineExceeded => ServiceError::DeadlineExceeded { stage: "execute" },
            ExecError::RowBudgetExceeded { budget } => ServiceError::RowBudgetExceeded { budget },
            // Not retryable: the same budget would exhaust the same way.
            // The breaker watches this error.
            ExecError::MemoryExhausted { requested, budget } => {
                ServiceError::MemoryExhausted { requested, budget }
            }
            other => ServiceError::Exec(other.to_string()),
        }
    }
}

/// Best-effort text of a caught panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}
