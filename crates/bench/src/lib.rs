//! # `oodb-bench` — experiment harness for the Open OODB reproduction
//!
//! The library half holds the paper's four evaluation queries as reusable
//! constructors ([`queries`]), the table-formatting helpers ([`report`])
//! and the service-level helpers the root tests share ([`workload`]); the
//! binaries (`table1`, `table2`, `table3`, `figures`, `exec_validation`)
//! regenerate every table and figure of the paper's §4, and the Criterion
//! benches measure optimization time itself. Service-level performance
//! numbers come from `benchmark/` at the repository root, not from here.

#![forbid(unsafe_code)]

pub mod queries;
pub mod report;
pub mod workload;
