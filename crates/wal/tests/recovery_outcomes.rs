//! Every outcome `recover` can reach, one row per directory shape: the
//! states that yield no consistent store are errors, a damaged log beside
//! a sound checkpoint degrades into the report, and a torn tail is
//! accounted, not reported as corruption. A schema or catalog that breaks
//! the object model's rules ends in that rule's typed refusal.

use oodb_object::paper::paper_model;
use oodb_object::{
    CatalogError, CollectionDef, CollectionId, FieldId, IndexDef, SchemaError, TypeId,
};
use oodb_storage::{generate_paper_db, GenConfig, Store, StoreError};
use oodb_wal::{
    recover, write_checkpoint, write_frame, ApplyError, DecodeError, FlushPolicy, FrameError,
    RecoveryReport, ScratchDir, Wal, WalError, WalRecord, WalSession, CHECKPOINT_FILE,
    CHECKPOINT_MAGIC, WAL_FILE,
};
use std::io::Write;
use std::path::Path;

type Outcome = Result<(Store, RecoveryReport), WalError>;

fn small_store() -> Store {
    let (mut store, _) = generate_paper_db(GenConfig {
        scale_div: 200,
        ..GenConfig::small()
    });
    store.try_rebuild_indexes(true).unwrap();
    store
}

/// A checkpoint of `store` and a log holding one statistics refresh.
fn session_dir(dir: &Path, store: &Store) {
    let mut session = WalSession::create(dir, store, FlushPolicy::EveryRecord, None).unwrap();
    session
        .append(&WalRecord::StatsRefresh { buckets: 16 })
        .unwrap();
}

/// The bytes of a `Genesis` record whose schema declares types `A`, `B`,
/// ... with the given supertype ids and no fields, and whose catalog is
/// empty. The object model refuses a cycle, so only bytes can carry one.
fn genesis_bytes(supertypes: &[u32]) -> Vec<u8> {
    let mut out = vec![0x01];
    out.extend((supertypes.len() as u32).to_le_bytes());
    for (i, supertype) in supertypes.iter().enumerate() {
        // A one-byte name, then a supertype tag and id.
        out.extend([1, 0, 0, 0, b'A' + i as u8, 1]);
        out.extend(supertype.to_le_bytes());
    }
    out.extend([0; 4 + 8 + 5 * 4]);
    out
}

/// A checkpoint of `store` and a log holding a `SetCatalog` of its
/// catalog with `edit` made to every index.
fn log_catalog(dir: &Path, store: &Store, edit: fn(&mut IndexDef)) {
    let mut catalog = store.catalog().with_only_indexes(&[]);
    for (_, def) in store.catalog().indexes() {
        let mut def = def.clone();
        edit(&mut def);
        catalog.add_index(def);
    }
    let mut session = WalSession::create(dir, store, FlushPolicy::EveryRecord, None).unwrap();
    session.append(&WalRecord::SetCatalog { catalog }).unwrap();
}

/// Whether recovery kept the checkpoint and replay stopped on `cause`.
fn stopped_on(r: &Outcome, cause: CatalogError) -> bool {
    matches!(r, Ok((_, report)) if report.replayed_records == 0
        && report.stopped.as_deref().is_some_and(|s| s.ends_with(&cause.to_string())))
}

/// Whether recovery failed on the supertype of type `A`.
fn refused_supertype(r: &Outcome) -> bool {
    let cause = SchemaError::Supertype(TypeId::from_index(0));
    matches!(r, Err(WalError::Decode(DecodeError::Schema(e))) if *e == cause)
}

fn overwrite(path: &Path, edit: impl FnOnce(&mut Vec<u8>)) {
    let mut bytes = std::fs::read(path).unwrap();
    edit(&mut bytes);
    std::fs::write(path, bytes).unwrap();
}

#[test]
fn every_recovery_outcome() {
    let store = small_store();
    type Row = (&'static str, fn(&Path, &Store), fn(&Outcome) -> bool);
    let rows: [Row; 12] = [
        (
            "an empty directory",
            |_, _| {},
            |r| matches!(r, Err(WalError::NoState)),
        ),
        (
            "a log based ahead of the checkpoint",
            |dir, store| {
                let recs = oodb_wal::checkpoint_records(store);
                write_checkpoint(&dir.join(CHECKPOINT_FILE), 2, &recs).unwrap();
                Wal::create(&dir.join(WAL_FILE), 5, FlushPolicy::Manual, None).unwrap();
            },
            |r| {
                matches!(
                    r,
                    Err(WalError::Generations {
                        checkpoint: 2,
                        wal: 5
                    })
                )
            },
        ),
        (
            "a bad log header beside a checkpoint",
            |dir, store| {
                session_dir(dir, store);
                overwrite(&dir.join(WAL_FILE), |b| b[0] ^= 0xFF);
            },
            |r| match r {
                Ok((_, report)) => {
                    report.replayed_records == 0
                        && report
                            .stopped
                            .as_deref()
                            .is_some_and(|s| s.starts_with("wal unreadable"))
                }
                Err(_) => false,
            },
        ),
        (
            "a bad log header and no checkpoint",
            |dir, store| {
                session_dir(dir, store);
                std::fs::remove_file(dir.join(CHECKPOINT_FILE)).unwrap();
                overwrite(&dir.join(WAL_FILE), |b| b.truncate(3));
            },
            |r| matches!(r, Err(WalError::BadHeader)),
        ),
        (
            "a corrupt checkpoint frame",
            |dir, store| {
                session_dir(dir, store);
                overwrite(&dir.join(CHECKPOINT_FILE), |b| {
                    let last = b.len() - 1;
                    b[last] ^= 0x01;
                });
            },
            |r| matches!(r, Err(WalError::Frame(FrameError::BadCrc))),
        ),
        (
            "a bad checkpoint header",
            |dir, store| {
                session_dir(dir, store);
                overwrite(&dir.join(CHECKPOINT_FILE), |b| {
                    b[..8].copy_from_slice(b"OODBWAL1")
                });
            },
            |r| matches!(r, Err(WalError::BadHeader)),
        ),
        (
            "a torn log tail",
            |dir, store| {
                session_dir(dir, store);
                let mut log = std::fs::OpenOptions::new()
                    .append(true)
                    .open(dir.join(WAL_FILE))
                    .unwrap();
                log.write_all(&[0xAB; 5]).unwrap();
            },
            |r| match r {
                Ok((_, report)) => {
                    report.replayed_records == 1
                        && report.torn_tail_bytes == 5
                        && report.stopped.is_none()
                }
                Err(_) => false,
            },
        ),
        (
            "a checkpoint whose Genesis type is its own supertype",
            |dir, _| {
                let mut file = CHECKPOINT_MAGIC.to_vec();
                file.extend(0u64.to_le_bytes());
                write_frame(&mut file, &genesis_bytes(&[0]));
                std::fs::write(dir.join(CHECKPOINT_FILE), file).unwrap();
            },
            refused_supertype,
        ),
        (
            "a log whose Genesis has a two-type supertype cycle",
            |dir, _| {
                let mut wal =
                    Wal::create(&dir.join(WAL_FILE), 0, FlushPolicy::Manual, None).unwrap();
                wal.append(&genesis_bytes(&[1, 0])).unwrap();
                wal.flush().unwrap();
            },
            refused_supertype,
        ),
        (
            "a checkpoint whose catalog has a collection of an undeclared type",
            |dir, store| {
                let mut catalog = store.catalog().clone();
                catalog.add_collection(CollectionDef {
                    name: "Ghosts".into(),
                    elem_type: TypeId::from_index(99),
                    ..catalog.collection(CollectionId::from_index(0)).clone()
                });
                let mut recs = oodb_wal::checkpoint_records(store);
                recs[0] = WalRecord::Genesis {
                    schema: store.schema().clone(),
                    catalog,
                };
                write_checkpoint(&dir.join(CHECKPOINT_FILE), 0, &recs).unwrap();
            },
            |r| {
                let cause = StoreError::Catalog(CatalogError::UnknownType(TypeId::from_index(99)));
                matches!(r, Err(WalError::Apply(ApplyError::Store(e))) if *e == cause)
            },
        ),
        (
            "a logged catalog whose index key is past the schema",
            |dir, store| {
                log_catalog(dir, store, |def| {
                    def.key = FieldId::from_index(paper_model().schema.field_count());
                })
            },
            |r| {
                let past = FieldId::from_index(paper_model().schema.field_count());
                stopped_on(r, CatalogError::UnknownField(past))
            },
        ),
        (
            "a logged catalog whose index path link is an attribute",
            |dir, store| {
                log_catalog(dir, store, |def| {
                    if def.name == "Cities_mayor_name" {
                        def.path = vec![paper_model().ids.city_name];
                    }
                })
            },
            |r| {
                let ids = paper_model().ids;
                stopped_on(
                    r,
                    CatalogError::PathLink(ids.idx_cities_mayor_name, ids.city_name),
                )
            },
        ),
    ];
    for (name, make, expect) in rows {
        let dir = ScratchDir::new("outcome").unwrap();
        make(dir.path(), &store);
        let outcome = recover(dir.path());
        assert!(
            expect(&outcome),
            "{name}: {:?}",
            outcome.map(|(_, report)| report)
        );
    }
}
