//! # `open-oodb` — a reproduction of the Open OODB Query Optimizer
//!
//! This facade crate re-exports the whole workspace of
//! *Experiences Building the Open OODB Query Optimizer*
//! (Blakeley, McKenna, Graefe; SIGMOD 1993), reproduced in Rust:
//!
//! | Layer | Crate |
//! |---|---|
//! | Object data model, schema, catalog (Table 1) | [`object`] |
//! | Simulated storage manager, disk, buffer pool, indexes | [`storage`] |
//! | Logical + physical algebra (with the novel `Mat` operator) | [`algebra`] |
//! | Volcano-style optimizer generator framework | [`volcano`] |
//! | The Open OODB optimizer: rules, properties, costs | [`core`] |
//! | Query execution engine | [`exec`] |
//! | ZQL\[C++\]-flavored language front end + simplification | [`zql`] |
//!
//! ## Quickstart
//!
//! ```
//! use open_oodb::prelude::*;
//!
//! // The paper's schema and Table 1 catalog.
//! let m = open_oodb::object::paper::paper_model();
//!
//! // Compile a ZQL query (Query 2 of the paper)...
//! let q = open_oodb::zql::compile(
//!     r#"SELECT c FROM City c IN Cities WHERE c.mayor().name() == "Joe""#,
//!     &m.schema,
//!     &m.catalog,
//! ).unwrap();
//!
//! // ...optimize it...
//! let optimizer = OpenOodb::with_config(&q.env, OptimizerConfig::all_rules());
//! let out = optimizer.optimize(&q.plan, q.result_vars).unwrap();
//!
//! // ...and the collapse-to-index-scan rule turned the whole query into
//! // one path-index scan, exactly as in the paper's Figure 8.
//! assert!(matches!(out.plan.op, PhysicalOp::IndexScan { .. }));
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench` for the
//! binaries regenerating every table and figure of the paper.

#![forbid(unsafe_code)]

pub use oodb_algebra as algebra;
pub use oodb_core as core;
pub use oodb_exec as exec;
pub use oodb_fault as fault;
pub use oodb_mem as mem;
pub use oodb_object as object;
pub use oodb_server as server;
pub use oodb_service as service;
pub use oodb_storage as storage;
pub use oodb_telemetry as telemetry;
pub use oodb_wal as wal;
pub use volcano;
pub use zql;

/// The names most programs need.
pub mod prelude {
    pub use oodb_algebra::{
        display::{render_logical, render_physical},
        LogicalOp, LogicalPlan, PhysicalOp, PhysicalPlan, QueryBuilder, QueryEnv, VarSet,
    };
    pub use oodb_core::{greedy_plan, Cost, CostParams, OpenOodb, OptimizerConfig};
    pub use oodb_exec::{execute, execute_traced, try_execute, try_execute_traced, Executor};
    pub use oodb_fault::{CancelToken, FaultConfig, FaultInjector, RunLimits};
    pub use oodb_mem::{MemoryGovernor, MemoryGrant, PressureLevel};
    pub use oodb_object::paper::{paper_model, paper_model_scaled};
    pub use oodb_object::{Catalog, Schema, Value};
    pub use oodb_service::{QueryService, SubmitOptions};
    pub use oodb_storage::{generate_paper_db, GenConfig, Store};
    pub use oodb_telemetry::{MetricsRegistry, OpTrace};
    pub use oodb_wal::{recover, FlushPolicy, WalSession};
}
