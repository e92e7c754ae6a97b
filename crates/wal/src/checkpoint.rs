//! Checkpoint snapshots: a compacted record log written atomically.
//!
//! A checkpoint is not a special page dump — it is the *same* framed
//! record stream the WAL carries, reduced to the minimal sequence that
//! rebuilds the store: one `Genesis` (schema + catalog at its exact
//! statistics epoch), one `InsertColumns` per populated type in original
//! page-allocation order, one `SetMembers` per non-empty collection, and
//! a final `BuildIndexes { bump_epoch: false }` when the live store had
//! materialized indexes. Replaying it through the ordinary apply path
//! (see [`crate::durable::apply_record`]) reproduces page geometry and
//! epoch exactly.
//!
//! File layout: `[magic "OODBCKP1"][base_seq: u64]` + frames (payload =
//! record bytes, no per-record sequence — the file is atomic). `base_seq`
//! is the WAL sequence the snapshot covers up to: the companion log's
//! records below it are already folded in. Writes go to a `.tmp` sibling
//! and rename into place, so a crash leaves either the old checkpoint or
//! the new one, never a torn hybrid.

use crate::codec::{put_header, HEADER_BYTES};
use crate::error::WalError;
use crate::frame::{write_frame_in_place, FramedFile, FRAME_HEADER};
use crate::record::WalRecord;
use crate::util::sync_parent_dir;
use std::fs::OpenOptions;
use std::io::Write;
use std::path::Path;

/// Checkpoint file magic (8 bytes).
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"OODBCKP1";

/// What `write_checkpoint` produced.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Compacted records written.
    pub records: u64,
    /// Total file bytes (header + frames).
    pub bytes: u64,
}

/// Writes `records` as a checkpoint covering WAL sequences below
/// `base_seq`, atomically: tmp file, content fsync, rename, then a
/// parent-directory fsync so the rename itself survives power loss —
/// without that last sync the new checkpoint's directory entry can
/// vanish even though its contents were synced.
pub fn write_checkpoint(
    path: &Path,
    base_seq: u64,
    records: &[WalRecord],
) -> Result<CheckpointStats, WalError> {
    let mut buf = Vec::with_capacity(HEADER_BYTES + records.iter().map(size_hint).sum::<usize>());
    put_header(&mut buf, CHECKPOINT_MAGIC, base_seq);
    for rec in records {
        write_frame_in_place(&mut buf, |out| rec.encode_into(out));
    }
    let tmp = path.with_extension("tmp");
    {
        let mut f = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&tmp)?;
        f.write_all(&buf)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    sync_parent_dir(path)?;
    Ok(CheckpointStats {
        records: records.len() as u64,
        bytes: buf.len() as u64,
    })
}

/// An estimate of `rec`'s framed size that encodes nothing: nine bytes a
/// value (what an integer, float or reference takes), eight an OID. The
/// checkpoint buffer reserves the sum once; string columns run past it.
fn size_hint(rec: &WalRecord) -> usize {
    FRAME_HEADER
        + match rec {
            WalRecord::InsertColumns { columns, .. } => {
                17 + columns.iter().map(|c| 4 + 9 * c.len()).sum::<usize>()
            }
            WalRecord::SetMembers { oids, .. } => 13 + 8 * oids.len(),
            _ => 0,
        }
}

/// Loads a checkpoint: `(base_seq, records)`. Total — corrupt inputs are
/// typed errors, never panics. A checkpoint is written atomically, so it
/// has no benign torn state: any frame that fails is an error.
pub fn load_checkpoint(path: &Path) -> Result<(u64, Vec<WalRecord>), WalError> {
    let file = FramedFile::read(path, CHECKPOINT_MAGIC)?;
    let records = file
        .frames()
        .map(|(payload, _)| WalRecord::decode(payload))
        .collect::<Result<_, _>>()
        .map_err(WalError::Decode)?;
    match file.stop {
        Some(e) => Err(WalError::Frame(e)),
        None => Ok((file.base_seq, records)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::ScratchDir;

    #[test]
    fn roundtrip_and_atomic_replace() {
        let dir = ScratchDir::new("ckpt").unwrap();
        let path = dir.path().join("checkpoint.oodb");
        let recs = vec![
            WalRecord::BuildIndexes { bump_epoch: false },
            WalRecord::StatsRefresh { buckets: 64 },
        ];
        let stats = write_checkpoint(&path, 17, &recs).unwrap();
        assert_eq!(stats.records, 2);
        let (base, back) = load_checkpoint(&path).unwrap();
        assert_eq!(base, 17);
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].encode(), recs[0].encode());
        // Overwrite with a new generation; the old one fully disappears.
        write_checkpoint(&path, 99, &recs[..1]).unwrap();
        let (base2, back2) = load_checkpoint(&path).unwrap();
        assert_eq!((base2, back2.len()), (99, 1));
    }

    #[test]
    fn short_or_foreign_header_is_bad_header() {
        let dir = ScratchDir::new("ckpt-header").unwrap();
        let path = dir.path().join("checkpoint.oodb");
        write_checkpoint(&path, 3, &[]).unwrap();
        let header = std::fs::read(&path).unwrap();
        assert_eq!(header.len(), 16);
        for cut in 0..header.len() {
            std::fs::write(&path, &header[..cut]).unwrap();
            assert!(
                matches!(load_checkpoint(&path), Err(WalError::BadHeader)),
                "{cut}-byte header"
            );
        }
        let mut foreign = header.clone();
        foreign[..8].copy_from_slice(b"OODBWAL1");
        std::fs::write(&path, &foreign).unwrap();
        assert!(matches!(load_checkpoint(&path), Err(WalError::BadHeader)));
        std::fs::write(&path, &header).unwrap();
        assert_eq!(load_checkpoint(&path).unwrap().0, 3);
    }

    #[test]
    fn corruption_is_a_typed_error() {
        let dir = ScratchDir::new("ckpt-corrupt").unwrap();
        let path = dir.path().join("checkpoint.oodb");
        write_checkpoint(&path, 0, &[WalRecord::StatsRefresh { buckets: 8 }]).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(load_checkpoint(&path), Err(WalError::Frame(_))));
    }
}
