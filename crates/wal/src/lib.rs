//! # `oodb-wal` — write-ahead logging and crash recovery
//!
//! The SIGMOD '93 Open OODB prototype ran entirely in memory; this crate
//! gives the reproduction the durability layer the paper's system left to
//! its Exodus storage manager. The design is deliberately small:
//!
//! * **One byte codec** ([`codec`]): a single bounds-checked reader for
//!   values, records, frame headers and file headers.
//! * **Typed logical records** ([`record::WalRecord`]) mirror the store's
//!   mutation surface — `Genesis`, `InsertColumns` (one value vector per
//!   field, as the store holds them), `SetMembers`, `SetCatalog`,
//!   `BuildIndexes`, `StatsRefresh` — so replay drives the *same* store
//!   methods the live path uses.
//! * **CRC-framed log** ([`log::Wal`]): `[len][crc32][seq + record]`
//!   frames appended to a real file under a [`log::FlushPolicy`]. A scan
//!   accepts the longest valid prefix; a torn tail is truncated, a CRC
//!   mismatch stops replay.
//! * **Atomic checkpoints** ([`checkpoint`]): the log compacted to the
//!   minimal record stream that rebuilds the store, written tmp+rename.
//! * **Redo-only recovery** ([`durable::recover`]): checkpoint, then the
//!   longest valid log prefix. Never panics, never applies a record it
//!   cannot prove whole.
//! * **One error** ([`WalError`]): what a log, a checkpoint, a session and
//!   recovery fail with, each lower-layer cause carried as its own type.
//!
//! Fault injection from `oodb-fault` extends to the write path: torn
//! writes, partial flushes, and sync failures poison the log handle and
//! force re-open through recovery, which is exactly what the crash
//! harness (`tests/durability.rs`) exercises at every kill point.

#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod codec;
pub mod crc;
pub mod durable;
pub mod error;
pub mod frame;
pub mod log;
pub mod record;
pub mod util;

pub use checkpoint::{load_checkpoint, write_checkpoint, CheckpointStats, CHECKPOINT_MAGIC};
pub use codec::DecodeError;
pub use crc::crc32;
pub use durable::{
    apply_record, apply_to, checkpoint_records, recover, store_digest, ApplyError, DurabilityStats,
    RecoveryReport, WalSession, CHECKPOINT_FILE, WAL_FILE,
};
pub use error::WalError;
pub use frame::{frame_boundaries, read_frame, write_frame, FrameError, FRAME_HEADER};
pub use log::{FlushPolicy, Wal, WalLogStats, WalScan, WAL_HEADER, WAL_MAGIC};
pub use record::WalRecord;
pub use util::ScratchDir;
