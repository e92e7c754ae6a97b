//! The durable layer's one error type: what a log, a checkpoint, a session
//! and recovery fail with, each lower-layer cause carried as its own type.

use crate::codec::DecodeError;
use crate::durable::ApplyError;
use crate::frame::FrameError;
use oodb_fault::WriteFault;

/// Why a log, checkpoint, session or recovery operation failed. A torn
/// log tail and a log record that stops replay are not errors: recovery
/// keeps the valid prefix and says why it stopped in its
/// [`crate::RecoveryReport`].
#[derive(Debug)]
pub enum WalError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// An injected write fault fired; the log is now poisoned.
    Fault(WriteFault),
    /// The log was poisoned by an earlier fault and must be reopened
    /// (recovery truncates the torn tail).
    Poisoned,
    /// A log or checkpoint file shorter than its header, or opening with
    /// the other file's magic.
    BadHeader,
    /// A checkpoint frame failed validation. A checkpoint is written
    /// atomically, so unlike a log tail no stop in it is benign.
    Frame(FrameError),
    /// A checkpoint record, or the log record a directory without a
    /// checkpoint starts from, failed to decode.
    Decode(DecodeError),
    /// A checkpoint record, or the log record a directory without a
    /// checkpoint starts from, did not apply.
    Apply(ApplyError),
    /// The log's base sequence is ahead of the checkpoint's: the pair
    /// cannot be from the same history.
    Generations {
        /// Checkpoint base sequence.
        checkpoint: u64,
        /// Log base sequence.
        wal: u64,
    },
    /// Neither a checkpoint nor a log `Genesis` was found; there is no
    /// state to recover.
    NoState,
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o: {e}"),
            WalError::Fault(fault) => write!(f, "injected {fault}"),
            WalError::Poisoned => write!(f, "log poisoned by an earlier write fault"),
            WalError::BadHeader => write!(f, "not a log or checkpoint file (bad header)"),
            WalError::Frame(e) => write!(f, "corrupt checkpoint frame: {e}"),
            WalError::Decode(e) => write!(f, "corrupt record: {e}"),
            WalError::Apply(e) => write!(f, "record did not apply: {e}"),
            WalError::Generations { checkpoint, wal } => write!(
                f,
                "log generation mismatch: checkpoint base {checkpoint}, wal base {wal}"
            ),
            WalError::NoState => write!(f, "no durable state in directory"),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e)
    }
}
