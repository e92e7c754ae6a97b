//! # `oodb-exec` — the query execution engine
//!
//! The paper deferred running plans: "we delay validating and refining
//! assembly's cost function until the query plan executor becomes
//! operational." This crate is that executor, operating against the
//! simulated storage manager of [`oodb_storage`], so every plan the
//! optimizer emits can actually be run and its simulated I/O compared with
//! the optimizer's estimate.
//!
//! A plan runs as pipelines of flat binding batches (see
//! [`Executor`]): scans stream through the filters, unnests and hash-join
//! probes above them; operators that need their whole input drain it
//! first. Every physical operator of the algebra is implemented:
//!
//! * file scan (sequential page touches), index scan (B-tree walk + fetch),
//! * filter (predicate evaluation over bound objects),
//! * hybrid hash join (hash table on the left/build input),
//! * pointer join (partitioned reference fetching),
//! * **assembly** with a genuine *window of open references*: references
//!   are resolved in windows, each window's pages fetched in one elevator
//!   sweep — window 1 degenerates to one random fault per reference,
//! * Alg-Unnest, Alg-Project, and the hash set operations.
//!
//! I/O is charged through [`oodb_storage::Io`] (buffer pool + seek-aware
//! disk); CPU-ish work is reported as operation counts ([`OpCounts`]) so
//! callers can convert with whatever cost constants they calibrate. An
//! [`Executor`] is one run: it is built with its [`RunLimits`], and the run
//! consumes it and returns its [`ExecStats`], the private buffer pool's
//! hits and misses among them, whether the run succeeded or not.

#![forbid(unsafe_code)]

mod batch;
pub mod engine;
mod eval;
pub mod tuple;

pub use engine::{
    execute, execute_traced, try_execute, try_execute_traced, ExecError, ExecResult, ExecStats,
    Executor, MemEffort, OpCounts,
};
/// Run-limit and fault types, re-exported so executor callers reach the
/// cancellation and injection machinery without a separate dependency.
pub use oodb_fault::{CancelToken, Fault, FaultClass, RunLimits};
/// Memory-governance types, re-exported for the same reason.
pub use oodb_mem::{MemStats, MemoryGovernor, MemoryGrant, PressureLevel};
pub use oodb_telemetry::OpTrace;
pub use tuple::{RootRow, Tuple};
