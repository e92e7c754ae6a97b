//! # `oodb-storage` — simulated storage manager for the Open OODB reproduction
//!
//! The SIGMOD '93 paper evaluated its optimizer with *estimated* costs on a
//! DECstation 5000/125; the execution engine was not yet operational. This
//! crate supplies the substrate the paper assumed: a page-based object store
//! with dense packing of sets and extents, a disk model that distinguishes
//! sequential, random, and elevator-ordered I/O (the heart of the assembly
//! operator's advantage), a buffer pool, and B-tree-style attribute and path
//! indexes.
//!
//! Components:
//!
//! * [`disk`] — [`disk::Disk`]: simulated disk with seek accounting, and
//!   the one description of the paper's device ([`PAGE_BYTES`], [`SEQ_S`],
//!   [`RAND_S`], [`ELEVATOR_FACTOR`]) that the cost model repeats.
//! * [`buffer`] — [`buffer::BufferPool`]: LRU page cache;
//!   [`buffer::Io`] bundles pool + disk into the single I/O facade the
//!   executor charges against.
//! * [`store`] — [`store::Store`]: one value column per field per type,
//!   accounted as objects laid out densely in per-type page regions;
//!   collections as member lists; O(1) OID dereference.
//! * [`index`] — [`index::BuiltIndex`]: ordered indexes (attribute and
//!   path) built from catalog [`oodb_object::IndexDef`]s.
//! * [`datagen`] — synthetic database generator reproducing the paper's
//!   Table 1 population (with a scale-down knob for fast tests).

#![forbid(unsafe_code)]

pub mod buffer;
pub mod datagen;
pub mod disk;
pub mod index;
pub mod store;

pub use buffer::{BufferPool, Io};
pub use datagen::{generate_paper_db, GenConfig};
pub use disk::{Disk, DiskStats, PageId, ELEVATOR_FACTOR, PAGE_BYTES, RAND_S, SEQ_S};
pub use index::{BuiltIndex, OrdValue};
/// Fault-injection types, re-exported so storage users reach the injector
/// without a separate dependency.
pub use oodb_fault::{Fault, FaultClass, FaultConfig, FaultInjector, FaultStats};
pub use store::{Store, StoreError};
