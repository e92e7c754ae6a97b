//! # `oodb-bench` — the paper's artefacts
//!
//! The library half holds the paper's four evaluation queries, as
//! algebra constructors and as ZQL text ([`queries`]), and the
//! table-formatting helpers ([`report`]); the binaries (`table1`,
//! `table2`, `table3`, `figures`) regenerate every table and figure of
//! the paper's §4. Service-level performance numbers come from
//! `benchmark/` at the repository root, not from here.

#![forbid(unsafe_code)]

pub mod queries;
pub mod report;
