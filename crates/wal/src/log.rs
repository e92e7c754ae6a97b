//! The append-only log file: header, framed records, torn-tail recovery.
//!
//! File layout: `[magic "OODBWAL1"][base_seq: u64]` followed by framed
//! records (see [`crate::frame`]). Each frame's payload is
//! `[seq: u64][record bytes]` with sequence numbers strictly incrementing
//! from `base_seq` — a reader that observes a gap stops, because a gap
//! means the file is not the log it claims to be.
//!
//! Durability is acknowledged per [`FlushPolicy`]: `EveryRecord` flushes
//! and syncs after each append, `Batch(n)` after every `n`-th record, and
//! `Manual` only on explicit [`Wal::flush`]. Un-flushed records live in a
//! write buffer and die with the process — exactly the window the crash
//! harness explores.
//!
//! Write-path faults (see [`oodb_fault::WriteFaultInjector`]) are
//! honored at flush time: a torn write persists a strict prefix of the
//! outgoing bytes, a partial flush persists a strict prefix of the
//! buffered records, and a sync failure persists everything but reports
//! failure. All three *poison* the log — the next reopen runs torn-tail
//! recovery just as a crash would.

use crate::codec::{put_header, Reader, HEADER_BYTES};
use crate::error::WalError;
use crate::frame::{write_frame_in_place, FrameError, FramedFile};
use crate::util::sync_parent_dir;
use oodb_fault::{WriteFault, WriteFaultInjector};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;

/// Log file magic (8 bytes).
pub const WAL_MAGIC: &[u8; 8] = b"OODBWAL1";

/// Header bytes before the first frame (magic + base sequence).
pub const WAL_HEADER: usize = HEADER_BYTES;

/// When durability is acknowledged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlushPolicy {
    /// Flush + sync after every appended record (safest, slowest).
    EveryRecord,
    /// Flush + sync after every `n` buffered records (one fsync
    /// amortized over the batch).
    Batch(usize),
    /// Only on explicit [`Wal::flush`] (checkpoints and tests).
    Manual,
}

/// Counters for one log's lifetime (monotonic; survives poisoning).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalLogStats {
    /// Records accepted by [`Wal::append`].
    pub records: u64,
    /// Frame bytes accepted (header + payload).
    pub bytes: u64,
    /// Flushes that reached the file.
    pub flushes: u64,
    /// Syncs that completed.
    pub syncs: u64,
    /// Write faults injected (torn writes + partial flushes + sync
    /// failures).
    pub faults: u64,
}

/// An open, appendable log.
#[derive(Debug)]
pub struct Wal {
    file: File,
    /// Next sequence number to assign.
    next_seq: u64,
    policy: FlushPolicy,
    /// Frames accepted but not yet written to the file, with the record
    /// count they represent.
    buffer: Vec<u8>,
    buffered_records: Vec<usize>,
    stats: WalLogStats,
    injector: Option<WriteFaultInjector>,
    /// Monotonic write-op counter feeding the injector's hash streams.
    ops: u64,
    poisoned: bool,
}

/// What a scan of an existing log found.
#[derive(Debug)]
pub struct WalScan {
    /// `base_seq` from the header.
    pub base_seq: u64,
    /// Valid `(seq, record bytes)` payloads in order.
    pub records: Vec<(u64, Vec<u8>)>,
    /// Bytes of torn/corrupt tail discarded after the valid prefix.
    pub torn_bytes: u64,
    /// Why the scan stopped before a clean end, if it did.
    pub stop: Option<FrameError>,
}

impl Wal {
    /// Creates a fresh log at `path` (truncating any existing file) whose
    /// first record will carry sequence `base_seq`.
    pub fn create(
        path: &Path,
        base_seq: u64,
        policy: FlushPolicy,
        injector: Option<WriteFaultInjector>,
    ) -> Result<Wal, WalError> {
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        let mut header = Vec::with_capacity(WAL_HEADER);
        put_header(&mut header, WAL_MAGIC, base_seq);
        file.write_all(&header)?;
        file.sync_all()?;
        sync_parent_dir(path)?;
        Ok(Wal {
            file,
            next_seq: base_seq,
            policy,
            buffer: Vec::new(),
            buffered_records: Vec::new(),
            stats: WalLogStats::default(),
            injector,
            ops: 0,
            poisoned: false,
        })
    }

    /// Scans an existing log file, returning the longest valid record
    /// prefix and the size of the discarded tail. Corrupt or torn bytes
    /// after the prefix are *reported*, never replayed.
    pub fn scan(path: &Path) -> Result<WalScan, WalError> {
        let file = FramedFile::read(path, WAL_MAGIC)?;
        let (mut records, mut valid, mut stop) = (Vec::new(), WAL_HEADER, file.stop);
        for (payload, end) in file.frames() {
            let mut r = Reader::new(payload);
            match r.u64() {
                Ok(seq) if seq == file.base_seq + records.len() as u64 => {
                    records.push((seq, r.rest().to_vec()));
                    valid = end;
                }
                // A payload too short for its sequence, or a sequence
                // gap, means these frames belong to a different log
                // generation; stop replaying.
                _ => {
                    stop = Some(FrameError::BadCrc);
                    break;
                }
            }
        }
        Ok(WalScan {
            base_seq: file.base_seq,
            records,
            torn_bytes: file.bytes_after(valid),
            stop,
        })
    }

    /// The sequence number the next appended record will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Lifetime counters.
    pub fn stats(&self) -> WalLogStats {
        self.stats
    }

    /// Records buffered but not yet flushed to the file.
    pub fn buffered_records(&self) -> usize {
        self.buffered_records.len()
    }

    /// Whether an injected fault has poisoned this log handle.
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// Appends one record payload, assigning it the next sequence number.
    /// Flushes per policy. Returns the record's sequence number.
    pub fn append(&mut self, record: &[u8]) -> Result<u64, WalError> {
        if self.poisoned {
            return Err(WalError::Poisoned);
        }
        let seq = self.next_seq;
        let mark = self.buffer.len();
        write_frame_in_place(&mut self.buffer, |out| {
            out.extend_from_slice(&seq.to_le_bytes());
            out.extend_from_slice(record);
        });
        let frame_len = self.buffer.len() - mark;
        self.buffered_records.push(frame_len);
        self.next_seq += 1;
        self.stats.records += 1;
        self.stats.bytes += frame_len as u64;
        let due = match self.policy {
            FlushPolicy::EveryRecord => true,
            FlushPolicy::Batch(n) => self.buffered_records.len() >= n.max(1),
            FlushPolicy::Manual => false,
        };
        if due {
            self.flush()?;
        }
        Ok(seq)
    }

    /// Writes the buffered frames to the file and syncs. Injected write
    /// faults fire here; any fault poisons the handle after persisting
    /// exactly the prefix the fault dictates.
    pub fn flush(&mut self) -> Result<(), WalError> {
        if self.poisoned {
            return Err(WalError::Poisoned);
        }
        if self.buffer.is_empty() {
            return Ok(());
        }
        self.ops += 1;
        let op = self.ops;
        if let Some(inj) = &self.injector {
            let fault = inj
                .check_flush(op, self.buffered_records.len())
                .and_then(|()| inj.check_append(op, self.buffer.len()));
            if let Err(fault) = fault {
                let kept = match fault {
                    WriteFault::PartialFlush { kept_records } => {
                        self.buffered_records.iter().take(kept_records).sum()
                    }
                    WriteFault::TornWrite { kept } => kept,
                    WriteFault::SyncFailure => 0,
                };
                self.stats.faults += 1;
                self.poisoned = true;
                let _ = self.file.write_all(&self.buffer[..kept]);
                let _ = self.file.sync_all();
                return Err(WalError::Fault(fault));
            }
        }
        // A real write or sync failure (ENOSPC, EIO) leaves the file in
        // an unknown partially-written state; retrying the buffer later
        // would append duplicate bytes after that unknown prefix and
        // corrupt everything behind them. Poison the handle exactly as
        // an injected fault would — the owner must reopen, and reopening
        // truncates back to the last whole frame.
        if let Err(e) = self.file.write_all(&self.buffer) {
            self.poisoned = true;
            return Err(WalError::Io(e));
        }
        self.stats.flushes += 1;
        if let Some(inj) = &self.injector {
            if let Err(fault) = inj.check_sync(op) {
                // Bytes reached the file but the sync "failed": the
                // caller must treat the batch as unacknowledged.
                self.stats.faults += 1;
                self.poisoned = true;
                self.buffer.clear();
                self.buffered_records.clear();
                return Err(WalError::Fault(fault));
            }
        }
        if let Err(e) = self.file.sync_all() {
            self.poisoned = true;
            return Err(WalError::Io(e));
        }
        self.buffer.clear();
        self.buffered_records.clear();
        self.stats.syncs += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::ScratchDir;
    use oodb_fault::WriteFaultConfig;

    #[test]
    fn append_scan_roundtrip() {
        let dir = ScratchDir::new("log-roundtrip").unwrap();
        let path = dir.path().join("wal.oodb");
        let mut wal = Wal::create(&path, 5, FlushPolicy::EveryRecord, None).unwrap();
        for i in 0..10u8 {
            assert_eq!(wal.append(&[i; 9]).unwrap(), 5 + i as u64);
        }
        let scan = Wal::scan(&path).unwrap();
        assert_eq!(scan.base_seq, 5);
        assert_eq!(scan.records.len(), 10);
        assert_eq!(scan.torn_bytes, 0);
        assert!(scan.stop.is_none());
        for (i, (seq, rec)) in scan.records.iter().enumerate() {
            assert_eq!(*seq, 5 + i as u64);
            assert_eq!(rec, &vec![i as u8; 9]);
        }
    }

    #[test]
    fn short_or_foreign_header_is_bad_magic() {
        let dir = ScratchDir::new("log-header").unwrap();
        let path = dir.path().join("wal.oodb");
        Wal::create(&path, 3, FlushPolicy::Manual, None).unwrap();
        let header = std::fs::read(&path).unwrap();
        assert_eq!(header.len(), WAL_HEADER);
        for cut in 0..WAL_HEADER {
            std::fs::write(&path, &header[..cut]).unwrap();
            assert!(
                matches!(Wal::scan(&path), Err(WalError::BadHeader)),
                "{cut}-byte header"
            );
        }
        let mut foreign = header.clone();
        foreign[..8].copy_from_slice(b"OODBCKP1");
        std::fs::write(&path, &foreign).unwrap();
        assert!(matches!(Wal::scan(&path), Err(WalError::BadHeader)));
        std::fs::write(&path, &header).unwrap();
        assert_eq!(Wal::scan(&path).unwrap().base_seq, 3);
    }

    #[test]
    fn manual_policy_buffers_until_flush() {
        let dir = ScratchDir::new("log-manual").unwrap();
        let path = dir.path().join("wal.oodb");
        let mut wal = Wal::create(&path, 0, FlushPolicy::Manual, None).unwrap();
        wal.append(b"one").unwrap();
        wal.append(b"two").unwrap();
        assert_eq!(Wal::scan(&path).unwrap().records.len(), 0, "unflushed");
        wal.flush().unwrap();
        assert_eq!(Wal::scan(&path).unwrap().records.len(), 2);
    }

    #[test]
    fn torn_tail_is_reported_not_replayed() {
        let dir = ScratchDir::new("log-torn").unwrap();
        let path = dir.path().join("wal.oodb");
        let mut wal = Wal::create(&path, 0, FlushPolicy::EveryRecord, None).unwrap();
        wal.append(b"keep me").unwrap();
        wal.append(b"also keep").unwrap();
        // Simulate a torn write: append raw garbage past the valid end.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&[0xAB; 5]).unwrap();
        drop(f);
        let scan = Wal::scan(&path).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert_eq!(scan.torn_bytes, 5);
        assert_eq!(scan.stop, Some(FrameError::Truncated));
    }

    #[test]
    fn real_write_error_poisons_the_handle() {
        let dir = ScratchDir::new("log-io-poison").unwrap();
        let path = dir.path().join("wal.oodb");
        let mut wal = Wal::create(&path, 0, FlushPolicy::Manual, None).unwrap();
        wal.append(b"buffered").unwrap();
        // Swap in a read-only handle: the flush's write_all now fails
        // with a real (non-injected) I/O error, which must poison the
        // handle exactly as an injected fault would.
        wal.file = File::open(&path).unwrap();
        assert!(matches!(wal.flush().unwrap_err(), WalError::Io(_)));
        assert!(wal.poisoned());
        assert!(matches!(wal.append(b"x").unwrap_err(), WalError::Poisoned));
    }

    #[test]
    fn injected_partial_flush_persists_strict_prefix_and_poisons() {
        let dir = ScratchDir::new("log-fault").unwrap();
        let path = dir.path().join("wal.oodb");
        let inj = WriteFaultInjector::new(WriteFaultConfig {
            partial_flush_rate: 1.0,
            ..WriteFaultConfig::default()
        });
        let mut wal = Wal::create(&path, 0, FlushPolicy::Manual, Some(inj)).unwrap();
        for i in 0..4u8 {
            wal.append(&[i; 20]).unwrap();
        }
        let err = wal.flush().unwrap_err();
        assert!(matches!(
            err,
            WalError::Fault(WriteFault::PartialFlush { .. })
        ));
        assert!(wal.poisoned());
        assert!(matches!(wal.append(b"x").unwrap_err(), WalError::Poisoned));
        // The persisted prefix is a strict subset of the 4 records and
        // scans cleanly (no corrupt bytes — partial flush loses whole
        // frames from the tail only here; torn writes cover mid-frame).
        let scan = Wal::scan(&path).unwrap();
        assert!(scan.records.len() < 4);
    }

    #[test]
    fn injected_torn_write_leaves_recoverable_prefix() {
        let dir = ScratchDir::new("log-torn-inject").unwrap();
        let path = dir.path().join("wal.oodb");
        let inj = WriteFaultInjector::new(WriteFaultConfig {
            torn_write_rate: 1.0,
            seed: 42,
            ..WriteFaultConfig::default()
        });
        let mut wal = Wal::create(&path, 0, FlushPolicy::Manual, Some(inj)).unwrap();
        for i in 0..6u8 {
            wal.append(&[i; 40]).unwrap();
        }
        let err = wal.flush().unwrap_err();
        assert!(matches!(err, WalError::Fault(WriteFault::TornWrite { .. })));
        // A scan recovers whatever whole frames survived; the torn
        // remainder is reported, not replayed.
        let scan = Wal::scan(&path).unwrap();
        assert!(scan.records.len() < 6);
        assert!(scan.torn_bytes > 0 || scan.records.is_empty());
    }
}
