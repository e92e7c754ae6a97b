//! Replay, checkpointing of live stores, and the durable session.
//!
//! The single most load-bearing function here is [`apply_to`]: the live
//! write path (the service's logged mutators) appends a record and then
//! applies it through this function; recovery replays the persisted
//! records through the *same* function, by way of [`apply_record`].
//! Replayed state therefore matches applied state by construction —
//! there is no second interpretation of a record to drift.
//!
//! Recovery semantics (redo-only): load the checkpoint if present, then
//! replay the longest valid prefix of the WAL. A torn tail, a corrupt
//! frame, a record that fails to decode, or a record that cannot apply
//! all end the prefix — everything before it is kept, everything after
//! is reported and discarded; a log without a checkpoint whose first
//! record fails has no prefix, and its cause is the recovery error.
//! Recovery never panics and never applies a record it cannot prove
//! whole.

use crate::checkpoint::{load_checkpoint, write_checkpoint, CheckpointStats};
use crate::error::WalError;
use crate::frame::FrameError;
use crate::log::{FlushPolicy, Wal, WalScan};
use crate::record::WalRecord;
use oodb_fault::WriteFaultInjector;
use oodb_object::fnv::Fnv1a;
use oodb_storage::{Store, StoreError};
use std::path::{Path, PathBuf};

/// WAL file name inside a durability directory.
pub const WAL_FILE: &str = "wal.oodb";
/// Checkpoint file name inside a durability directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.oodb";

/// Why a record could not be applied to the store it arrived at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ApplyError {
    /// A non-`Genesis` record arrived before any `Genesis`.
    MissingGenesis,
    /// A `Genesis` arrived for an already-initialized store.
    UnexpectedGenesis,
    /// The store refused the mutation: a precondition of its own (a
    /// catalog the object model refuses among them), or a dangling
    /// reference during index rebuild or statistics collection.
    Store(StoreError),
}

impl std::fmt::Display for ApplyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApplyError::MissingGenesis => write!(f, "record precedes genesis"),
            ApplyError::UnexpectedGenesis => write!(f, "second genesis record"),
            ApplyError::Store(e) => write!(f, "store rejected replay: {e}"),
        }
    }
}

impl std::error::Error for ApplyError {}

impl From<StoreError> for ApplyError {
    fn from(e: StoreError) -> Self {
        ApplyError::Store(e)
    }
}

/// Applies one record to an optional store slot (`None` until `Genesis`).
/// Corrupt or out-of-order records are typed errors, never a process
/// abort.
pub fn apply_record(slot: &mut Option<Store>, rec: &WalRecord) -> Result<(), ApplyError> {
    match rec {
        WalRecord::Genesis { schema, catalog } => {
            if slot.is_some() {
                return Err(ApplyError::UnexpectedGenesis);
            }
            *slot = Some(Store::try_new(schema.clone(), catalog.clone())?);
            Ok(())
        }
        other => {
            let store = slot.as_mut().ok_or(ApplyError::MissingGenesis)?;
            apply_to(store, other)
        }
    }
}

/// Applies a non-`Genesis` record to a live store: each record is one
/// store mutation, which checks its own preconditions. The service's
/// durable write path calls this after logging; replay calls it via
/// [`apply_record`].
pub fn apply_to(store: &mut Store, rec: &WalRecord) -> Result<(), ApplyError> {
    match rec {
        WalRecord::Genesis { .. } => return Err(ApplyError::UnexpectedGenesis),
        WalRecord::InsertColumns {
            ty,
            obj_bytes,
            population,
            columns,
        } => store.insert_columns(*ty, *population as usize, columns.clone(), *obj_bytes)?,
        WalRecord::SetMembers { coll, oids } => store.set_members(*coll, oids.clone())?,
        WalRecord::SetCatalog { catalog } => store.set_catalog(catalog.clone())?,
        WalRecord::BuildIndexes { bump_epoch } => store.try_rebuild_indexes(*bump_epoch)?,
        // The epoch moves only if a histogram changed. That depends on
        // nothing but the store the record meets, so replay lands on the
        // epoch the live apply did.
        WalRecord::StatsRefresh { buckets } => {
            store.try_refresh_statistics(*buckets as usize)?;
        }
    }
    Ok(())
}

/// The compacted record stream that rebuilds `store` exactly: genesis at
/// the current catalog (and epoch), per-type inserts in original
/// page-allocation order, memberships, and an epoch-preserving index
/// materialization.
pub fn checkpoint_records(store: &Store) -> Vec<WalRecord> {
    let mut recs = vec![WalRecord::Genesis {
        schema: store.schema().clone(),
        catalog: store.catalog().clone(),
    }];
    for (ty, obj_bytes) in store.regions() {
        recs.push(WalRecord::InsertColumns {
            ty,
            obj_bytes,
            population: u32::try_from(store.population(ty)).expect("oid sequences are u32"),
            columns: store.columns_of(ty).to_vec(),
        });
    }
    for (coll, _) in store.catalog().collections() {
        let members = store.members(coll);
        if !members.is_empty() {
            recs.push(WalRecord::SetMembers {
                coll,
                oids: members.to_vec(),
            });
        }
    }
    if store.indexes_built() {
        recs.push(WalRecord::BuildIndexes { bump_epoch: false });
    }
    recs
}

/// A content fingerprint of the store's logical state: objects, members,
/// the whole catalog in its log encoding (statistics epoch, index set and
/// every histogram), and whether indexes are materialized. Page numbers
/// and buffer-pool state are deliberately excluded — two stores with
/// equal digests answer every query identically and estimate every plan
/// alike, so a statistics collection skipped where it would have changed
/// a histogram shows as a digest mismatch after recovery.
pub fn store_digest(store: &Store) -> u64 {
    let mut h = Fnv1a::default();
    let mut scratch = Vec::new();
    for (ty, _) in store.schema().types() {
        h.eat(&(store.population(ty) as u64).to_le_bytes());
        for value in store.columns_of(ty).iter().flat_map(|column| column.iter()) {
            scratch.clear();
            crate::codec::encode_value(value, &mut scratch);
            h.eat(&scratch);
        }
    }
    for (coll, _) in store.catalog().collections() {
        h.eat(&(store.members(coll).len() as u64).to_le_bytes());
        for o in store.members(coll) {
            h.eat(&o.as_u64().to_le_bytes());
        }
    }
    scratch.clear();
    crate::record::encode_catalog(store.catalog(), &mut scratch);
    h.eat(&scratch);
    h.eat(&[store.indexes_built() as u8]);
    h.finish()
}

/// An active durability session: a checkpoint on disk plus an appendable
/// log. Owned by whoever mutates the store (the query service); queries
/// never touch it.
#[derive(Debug)]
pub struct WalSession {
    dir: PathBuf,
    wal: Wal,
    policy: FlushPolicy,
    injector: Option<WriteFaultInjector>,
    /// Stats of the most recent checkpoint written by this session.
    last_checkpoint: CheckpointStats,
    /// Log records folded into checkpoints over this session's lifetime
    /// (compaction effectiveness).
    compacted_records: u64,
}

impl WalSession {
    /// Starts durability for `store` in `dir`: writes a full checkpoint
    /// and opens a fresh log at its base sequence.
    ///
    /// A prior log in the directory (the recover-then-re-enable path)
    /// pins the base sequence: the new checkpoint is written at that
    /// log's end sequence, not 0, so a crash between the checkpoint
    /// rename and the log truncation below leaves every stale record
    /// strictly under the checkpoint's base — re-recovery skips them
    /// instead of replaying them on top of the full snapshot (or, with
    /// a compacted old log whose base exceeds 0, hard-failing with a
    /// generation mismatch). This is the same race
    /// [`WalSession::checkpoint`] closes with `wal.next_seq()`.
    pub fn create(
        dir: &Path,
        store: &Store,
        policy: FlushPolicy,
        injector: Option<WriteFaultInjector>,
    ) -> Result<WalSession, WalError> {
        std::fs::create_dir_all(dir)?;
        let wal_path = dir.join(WAL_FILE);
        let base = match Wal::scan(&wal_path) {
            Ok(scan) => scan.base_seq + scan.records.len() as u64,
            // No prior log (or an unreadable one, which recovery treats
            // as a zero-record torn tail): nothing can replay, base 0.
            Err(_) => 0,
        };
        let recs = checkpoint_records(store);
        let last_checkpoint = write_checkpoint(&dir.join(CHECKPOINT_FILE), base, &recs)?;
        let wal = Wal::create(&wal_path, base, policy, injector.clone())?;
        Ok(WalSession {
            dir: dir.to_path_buf(),
            wal,
            policy,
            injector,
            last_checkpoint,
            compacted_records: 0,
        })
    }

    /// Appends one record; returns its sequence number. The caller
    /// applies the record to its store only after this returns `Ok` —
    /// log-then-apply.
    pub fn append(&mut self, rec: &WalRecord) -> Result<u64, WalError> {
        self.wal.append(&rec.encode())
    }

    /// Forces buffered records to disk (used by `FlushPolicy::Manual`
    /// and at clean shutdown).
    pub fn flush(&mut self) -> Result<(), WalError> {
        self.wal.flush()
    }

    /// Compacts: writes a fresh checkpoint of `store` and truncates the
    /// log to empty at the new base sequence. `store` must reflect every
    /// acknowledged record (it does, under log-then-apply).
    pub fn checkpoint(&mut self, store: &Store) -> Result<CheckpointStats, WalError> {
        self.wal.flush()?;
        let base = self.wal.next_seq();
        let folded = self.wal.stats().records;
        let recs = checkpoint_records(store);
        let stats = write_checkpoint(&self.dir.join(CHECKPOINT_FILE), base, &recs)?;
        // A crash between the rename above and the create below is safe:
        // recovery skips log records below the checkpoint's base.
        self.wal = Wal::create(
            &self.dir.join(WAL_FILE),
            base,
            self.policy,
            self.injector.clone(),
        )?;
        self.last_checkpoint = stats;
        self.compacted_records += folded;
        Ok(stats)
    }

    /// A snapshot of the session's counters.
    pub fn stats(&self) -> DurabilityStats {
        let log = self.wal.stats();
        DurabilityStats {
            dir: self.dir.display().to_string(),
            policy: format!("{:?}", self.policy),
            records: log.records,
            bytes: log.bytes,
            flushes: log.flushes,
            syncs: log.syncs,
            faults: log.faults,
            buffered_records: self.wal.buffered_records() as u64,
            next_seq: self.wal.next_seq(),
            checkpoint_records: self.last_checkpoint.records,
            checkpoint_bytes: self.last_checkpoint.bytes,
            compacted_records: self.compacted_records,
            poisoned: self.wal.poisoned(),
        }
    }
}

/// Counters of a durable session ([`WalSession::stats`]), for the
/// server's `/stats` `durability` object and the shell's `\wal stats`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DurabilityStats {
    /// Durability directory (checkpoint + log).
    pub dir: String,
    /// Flush policy, rendered (`EveryRecord`, `Batch(8)`, `Manual`).
    pub policy: String,
    /// Records accepted by the log this session.
    pub records: u64,
    /// Frame bytes accepted this session.
    pub bytes: u64,
    /// Flushes that reached the file.
    pub flushes: u64,
    /// Syncs that completed.
    pub syncs: u64,
    /// Injected write faults.
    pub faults: u64,
    /// Records appended but not yet flushed (the crash window).
    pub buffered_records: u64,
    /// Sequence number the next record will carry.
    pub next_seq: u64,
    /// Records in the most recent checkpoint.
    pub checkpoint_records: u64,
    /// Bytes in the most recent checkpoint.
    pub checkpoint_bytes: u64,
    /// Log records folded into checkpoints over this session.
    pub compacted_records: u64,
    /// Whether a write fault poisoned the session (mutations continue
    /// in memory but are no longer acknowledged durable).
    pub poisoned: bool,
}

/// What recovery found and did.
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Records replayed from the checkpoint.
    pub checkpoint_records: u64,
    /// Log records replayed after the checkpoint.
    pub replayed_records: u64,
    /// Log records skipped because the checkpoint already covered them
    /// (crash between checkpoint rename and log reset).
    pub skipped_records: u64,
    /// Torn/corrupt tail bytes discarded from the log.
    pub torn_tail_bytes: u64,
    /// The sequence number the next appended record should carry.
    pub next_seq: u64,
    /// Why replay stopped before the log's clean end, if it did
    /// (frame corruption, record decode failure, or apply failure).
    pub stopped: Option<String>,
}

/// Rebuilds a store from a durability directory: checkpoint first, then
/// the longest valid prefix of the log. See the module docs for the
/// exact degradation rules.
pub fn recover(dir: &Path) -> Result<(Store, RecoveryReport), WalError> {
    let mut report = RecoveryReport::default();
    let mut slot: Option<Store> = None;
    let ckpt_path = dir.join(CHECKPOINT_FILE);
    let has_checkpoint = ckpt_path.exists();
    if has_checkpoint {
        let (base, records) = load_checkpoint(&ckpt_path)?;
        for rec in &records {
            apply_record(&mut slot, rec).map_err(WalError::Apply)?;
        }
        report.checkpoint_records = records.len() as u64;
        report.next_seq = base;
    }
    let wal_path = dir.join(WAL_FILE);
    if wal_path.exists() {
        match Wal::scan(&wal_path) {
            Ok(scan) => replay(scan, &mut slot, &mut report)?,
            // An unreadable log beside a checkpoint is a torn tail of zero
            // valid records: the checkpoint still stands.
            Err(e) if has_checkpoint => report.stopped = Some(format!("wal unreadable: {e}")),
            Err(e) => return Err(e),
        }
    }
    let store = slot.ok_or(WalError::NoState)?;
    Ok((store, report))
}

/// Replays the log records at or above the checkpoint's base
/// (`report.next_seq` on entry) up to the first that fails.
fn replay(
    scan: WalScan,
    slot: &mut Option<Store>,
    report: &mut RecoveryReport,
) -> Result<(), WalError> {
    let base = report.next_seq;
    if scan.base_seq > base {
        return Err(WalError::Generations {
            checkpoint: base,
            wal: scan.base_seq,
        });
    }
    report.torn_tail_bytes = scan.torn_bytes;
    match scan.stop {
        // A truncated final frame is the expected crash signature —
        // accounted by `torn_tail_bytes`, not reported as corruption.
        None | Some(FrameError::Truncated) => {}
        Some(stop) => report.stopped = Some(format!("frame: {stop}")),
    }
    for (seq, rec_bytes) in &scan.records {
        if *seq < base {
            report.skipped_records += 1;
            continue;
        }
        // Without a store there is no valid prefix to keep: the record
        // that should have made one fails recovery with its cause.
        let rec = match WalRecord::decode(rec_bytes) {
            Ok(r) => r,
            Err(e) if slot.is_none() => return Err(WalError::Decode(e)),
            Err(e) => {
                report.stopped = Some(format!("decode (seq {seq}): {e}"));
                break;
            }
        };
        if let Err(e) = apply_record(slot, &rec) {
            if slot.is_none() {
                return Err(WalError::Apply(e));
            }
            report.stopped = Some(format!("apply (seq {seq}, {}): {e}", rec.kind()));
            break;
        }
        report.replayed_records += 1;
        report.next_seq = seq + 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::ScratchDir;
    use oodb_storage::{generate_paper_db, GenConfig};

    fn small_store() -> Store {
        let (mut store, _) = generate_paper_db(GenConfig {
            scale_div: 200,
            ..GenConfig::small()
        });
        store.try_rebuild_indexes(true).unwrap();
        store
    }

    #[test]
    fn checkpoint_roundtrip_is_digest_exact() {
        let store = small_store();
        let recs = checkpoint_records(&store);
        let mut slot = None;
        for r in &recs {
            apply_record(&mut slot, r).unwrap();
        }
        let rebuilt = slot.unwrap();
        assert_eq!(store_digest(&store), store_digest(&rebuilt));
        assert_eq!(
            store.catalog().stats_epoch(),
            rebuilt.catalog().stats_epoch(),
            "epoch must replay exactly"
        );
        // Index pages may sit at different page numbers (the original
        // store can have rebuilt indexes more than once), but every data
        // region must land exactly where it was.
        assert!(store.regions().eq(rebuilt.regions()));
        for (ty, _) in store.regions() {
            let first = oodb_object::Oid::new(ty, 0);
            assert_eq!(store.try_page_of(first), rebuilt.try_page_of(first));
        }
        assert_eq!(store.indexes_built(), rebuilt.indexes_built());
    }

    /// The checkpoint of a refreshed paper store (histograms on attribute
    /// and path indexes, the model's referent domains and fan-outs) is
    /// pinned by an FNV-1a hash of its bytes: a catalog representation
    /// change must not move one byte, whatever order its maps iterate in.
    #[test]
    fn checkpoint_bytes_are_pinned() {
        let mut store = small_store();
        apply_to(&mut store, &WalRecord::StatsRefresh { buckets: 16 }).unwrap();
        assert!(store.catalog().histogram_count() > 0);
        assert!(store.catalog().ref_domains().count() > 0);
        assert!(store.catalog().fanouts().count() > 0);
        let (mut h, mut len) = (Fnv1a::default(), 0);
        for rec in checkpoint_records(&store) {
            let bytes = rec.encode();
            len += bytes.len();
            h.eat(&bytes);
        }
        assert_eq!((len, h.finish()), (85_621, 0x200c_b963_7dc7_d0cc));
    }

    /// A checkpoint encodes its frames in place; the log frames a record
    /// it encoded first. Both write the same bytes, so either reader reads
    /// what the other wrote.
    #[test]
    fn checkpoint_file_is_the_log_framing_of_its_records() {
        let dir = ScratchDir::new("ckpt-framing").unwrap();
        let mut store = small_store();
        apply_to(&mut store, &WalRecord::StatsRefresh { buckets: 16 }).unwrap();
        let recs = checkpoint_records(&store);
        let path = dir.path().join(CHECKPOINT_FILE);
        let stats = write_checkpoint(&path, 42, &recs).unwrap();
        let mut framed = Vec::new();
        crate::codec::put_header(&mut framed, crate::CHECKPOINT_MAGIC, 42);
        for rec in &recs {
            crate::frame::write_frame(&mut framed, &rec.encode());
        }
        let written = std::fs::read(&path).unwrap();
        assert_eq!(written.len() as u64, stats.bytes);
        assert!(
            written == framed,
            "checkpoint bytes differ from the log framing"
        );
    }

    /// Two stores that differ only in their histograms — one refresh each,
    /// at different bucket counts, so the same epoch and index set — have
    /// different digests.
    #[test]
    fn the_digest_covers_the_histograms() {
        let (mut coarse, mut fine) = (small_store(), small_store());
        apply_to(&mut coarse, &WalRecord::StatsRefresh { buckets: 4 }).unwrap();
        apply_to(&mut fine, &WalRecord::StatsRefresh { buckets: 16 }).unwrap();
        assert_eq!(coarse.catalog().stats_epoch(), fine.catalog().stats_epoch());
        assert_ne!(store_digest(&coarse), store_digest(&fine));
    }

    #[test]
    fn session_logs_and_recovers_mutations() {
        let dir = ScratchDir::new("session").unwrap();
        let mut store = small_store();
        let mut session =
            WalSession::create(dir.path(), &store, FlushPolicy::EveryRecord, None).unwrap();
        // Log-then-apply a statistics refresh.
        let rec = WalRecord::StatsRefresh { buckets: 16 };
        session.append(&rec).unwrap();
        apply_to(&mut store, &rec).unwrap();

        let (recovered, report) = recover(dir.path()).unwrap();
        assert_eq!(report.replayed_records, 1);
        assert!(report.stopped.is_none());
        assert_eq!(store_digest(&store), store_digest(&recovered));
    }

    #[test]
    fn compaction_folds_log_into_checkpoint() {
        let dir = ScratchDir::new("compact").unwrap();
        let mut store = small_store();
        let mut session =
            WalSession::create(dir.path(), &store, FlushPolicy::EveryRecord, None).unwrap();
        for buckets in [8u32, 16, 32] {
            let rec = WalRecord::StatsRefresh { buckets };
            session.append(&rec).unwrap();
            apply_to(&mut store, &rec).unwrap();
        }
        session.checkpoint(&store).unwrap();
        assert_eq!(session.stats().compacted_records, 3);
        let (recovered, report) = recover(dir.path()).unwrap();
        assert_eq!(report.replayed_records, 0, "log was compacted away");
        assert_eq!(report.next_seq, 3);
        assert_eq!(store_digest(&store), store_digest(&recovered));
    }

    #[test]
    fn apply_precondition_violations_are_typed() {
        let store = small_store();
        let recs = checkpoint_records(&store);
        let mut slot = None;
        // Non-genesis first.
        assert_eq!(
            apply_record(&mut slot, &WalRecord::BuildIndexes { bump_epoch: true }).unwrap_err(),
            ApplyError::MissingGenesis
        );
        apply_record(&mut slot, &recs[0]).unwrap();
        // Second genesis.
        assert_eq!(
            apply_record(&mut slot, &recs[0]).unwrap_err(),
            ApplyError::UnexpectedGenesis
        );
        // Double insert is an error, not a panic.
        apply_record(&mut slot, &recs[1]).unwrap();
        assert!(matches!(
            apply_record(&mut slot, &recs[1]).unwrap_err(),
            ApplyError::Store(StoreError::TypeAlreadyPopulated(_))
        ));
        // So are a column missing and a column shorter than the
        // population: the store refuses both.
        let WalRecord::InsertColumns {
            ty,
            obj_bytes,
            population,
            columns,
        } = recs[2].clone()
        else {
            panic!("a checkpoint opens with its inserts");
        };
        let short = std::sync::Arc::new(columns[0][1..].to_vec());
        for bad in [columns[1..].to_vec(), [&[short], &columns[1..]].concat()] {
            let rec = WalRecord::InsertColumns {
                ty,
                obj_bytes,
                population,
                columns: bad,
            };
            assert_eq!(
                apply_record(&mut slot, &rec).unwrap_err(),
                ApplyError::Store(StoreError::ColumnShape(ty))
            );
        }
        // A type, a collection or a collection count the store does not
        // have.
        let ghost = oodb_object::TypeId::from_index(store.schema().type_count());
        let rec = WalRecord::InsertColumns {
            ty: ghost,
            obj_bytes,
            population: 0,
            columns: vec![],
        };
        assert_eq!(
            apply_record(&mut slot, &rec).unwrap_err(),
            ApplyError::Store(StoreError::UnknownType(ghost))
        );
        let outside = oodb_object::CollectionId::from_index(store.catalog().collections().count());
        let rec = WalRecord::SetMembers {
            coll: outside,
            oids: vec![],
        };
        assert_eq!(
            apply_record(&mut slot, &rec).unwrap_err(),
            ApplyError::Store(StoreError::UnknownCollection(outside))
        );
        let rec = WalRecord::SetCatalog {
            catalog: oodb_object::Catalog::new(),
        };
        let have = store.catalog().collections().count();
        assert_eq!(
            apply_record(&mut slot, &rec).unwrap_err(),
            ApplyError::Store(StoreError::CatalogShape { have, got: 0 })
        );
    }

    /// `store`'s catalog with its first collection's element type moved
    /// outside the schema, and optionally one more such collection.
    fn catalog_of_unknown_type(store: &Store, extra: bool) -> oodb_object::Catalog {
        let ghost = oodb_object::TypeId::from_index(999);
        let mut catalog = oodb_object::Catalog::new();
        for (coll, def) in store.catalog().collections() {
            let mut def = def.clone();
            if coll.index() == 0 && !extra {
                def.elem_type = ghost;
            }
            catalog.add_collection(def);
        }
        if extra {
            catalog.add_collection(oodb_object::CollectionDef {
                name: "Bogus".into(),
                elem_type: ghost,
                kind: oodb_object::CollectionKind::UserSet,
                cardinality: 0,
                obj_bytes: 8,
            });
        }
        catalog
    }

    #[test]
    fn a_checkpoint_catalog_of_an_unknown_type_is_a_recovery_error() {
        let dir = ScratchDir::new("ckpt-ghost-type").unwrap();
        let store = small_store();
        let mut recs = checkpoint_records(&store);
        recs[0] = WalRecord::Genesis {
            schema: store.schema().clone(),
            catalog: catalog_of_unknown_type(&store, true),
        };
        write_checkpoint(&dir.path().join(CHECKPOINT_FILE), 0, &recs).unwrap();
        let err = recover(dir.path()).map(drop).unwrap_err();
        assert!(
            matches!(
                err,
                WalError::Apply(ApplyError::Store(StoreError::Catalog(
                    oodb_object::CatalogError::UnknownType(_)
                )))
            ),
            "{err}"
        );
    }

    #[test]
    fn a_logged_catalog_of_an_unknown_type_stops_replay() {
        let dir = ScratchDir::new("log-ghost-type").unwrap();
        let store = small_store();
        let mut session =
            WalSession::create(dir.path(), &store, FlushPolicy::EveryRecord, None).unwrap();
        let catalog = catalog_of_unknown_type(&store, false);
        session.append(&WalRecord::SetCatalog { catalog }).unwrap();
        let (recovered, report) = recover(dir.path()).unwrap();
        assert_eq!(report.replayed_records, 0);
        let stopped = report.stopped.unwrap_or_default();
        assert!(
            stopped.contains("set-catalog") && stopped.contains("unknown type"),
            "{stopped}"
        );
        assert_eq!(store_digest(&store), store_digest(&recovered));
    }

    #[test]
    fn recovery_skips_pre_checkpoint_records() {
        // Simulate a crash between checkpoint rename and log reset: the
        // old log still holds records the new checkpoint already covers.
        let dir = ScratchDir::new("ckpt-race").unwrap();
        let mut store = small_store();
        let mut session =
            WalSession::create(dir.path(), &store, FlushPolicy::EveryRecord, None).unwrap();
        let rec = WalRecord::StatsRefresh { buckets: 16 };
        session.append(&rec).unwrap();
        apply_to(&mut store, &rec).unwrap();
        // Write the new checkpoint directly, leaving the old log behind.
        let recs = checkpoint_records(&store);
        write_checkpoint(
            &dir.path().join(CHECKPOINT_FILE),
            session.stats().next_seq,
            &recs,
        )
        .unwrap();
        let (recovered, report) = recover(dir.path()).unwrap();
        assert_eq!(report.skipped_records, 1);
        assert_eq!(report.replayed_records, 0);
        assert_eq!(store_digest(&store), store_digest(&recovered));
    }

    #[test]
    fn recreate_over_existing_log_survives_crash_before_truncate() {
        // WalSession::create over a directory that already holds a log
        // (recover-then-re-enable) must write its checkpoint at the old
        // log's end sequence. Simulate the crash window between the
        // checkpoint rename and the log truncation by restoring the old
        // log wholesale after create: its records must fall below the
        // new base and be skipped, not replayed on top of the snapshot.
        let dir = ScratchDir::new("recreate-race").unwrap();
        let mut store = small_store();
        let mut session =
            WalSession::create(dir.path(), &store, FlushPolicy::EveryRecord, None).unwrap();
        let rec = WalRecord::StatsRefresh { buckets: 16 };
        session.append(&rec).unwrap();
        apply_to(&mut store, &rec).unwrap();
        drop(session);
        let wal_path = dir.path().join(WAL_FILE);
        let stale_log = std::fs::read(&wal_path).unwrap();
        let session2 =
            WalSession::create(dir.path(), &store, FlushPolicy::EveryRecord, None).unwrap();
        assert_eq!(session2.stats().next_seq, 1, "base pinned by the old log");
        drop(session2);
        std::fs::write(&wal_path, &stale_log).unwrap();
        let (recovered, report) = recover(dir.path()).unwrap();
        assert_eq!(report.skipped_records, 1, "stale record below the base");
        assert_eq!(report.replayed_records, 0);
        assert!(report.stopped.is_none());
        assert_eq!(
            store_digest(&store),
            store_digest(&recovered),
            "the stale record must not replay on top of the snapshot"
        );
    }
}
