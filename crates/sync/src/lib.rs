//! # `oodb-sync` — contention-free shared-state primitives
//!
//! The multicore scaling work replaced every hot-path `RwLock` in the
//! system with one of the first two structures from this crate; the
//! third bounds every registry filled from wire input:
//!
//! * [`Snap`] — an epoch-snapshot cell in the spirit of `arc-swap`:
//!   writers build a complete new value and swap it in under a mutex;
//!   readers take a consistent `Arc` snapshot without a lock: in the
//!   steady state one version load, a thread-local probe and a
//!   reference-count update on the snapshot, thanks to a per-thread
//!   version-keyed cache of `Weak` handles. A cell keeps only its current
//!   value. Built only on `std`.
//! * [`AppendVec`] — an append-only chunked vector whose `get` is
//!   lock-free (three atomic loads) and returns a **stable reference**:
//!   slots never move once published, so `&T` stays valid for the life
//!   of the vector while concurrent pushes proceed.
//! * [`BoundedMap`] — a sharded, capped map: the plan cache, text memo,
//!   feedback ledger, prepared statements and tenants.
//!
//! All three recover from poisoning ([`lock`]): a panicking writer never
//! wedges readers, the service layer's panic-tolerance discipline.

#![forbid(unsafe_code)]

pub mod append_vec;
pub mod bounded;
pub mod snap;

pub use append_vec::AppendVec;
pub use bounded::{lock, BoundedMap};
pub use snap::Snap;
