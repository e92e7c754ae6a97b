//! Every outcome `recover` can reach, one row per directory shape: the
//! states that yield no consistent store are errors, a damaged log beside
//! a sound checkpoint degrades into the report, and a torn tail is
//! accounted, not reported as corruption.

use oodb_storage::{generate_paper_db, GenConfig, Store};
use oodb_wal::{
    recover, write_checkpoint, FlushPolicy, FrameError, RecoveryReport, ScratchDir, Wal, WalError,
    WalRecord, WalSession, CHECKPOINT_FILE, WAL_FILE,
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

fn overwrite(path: &Path, edit: impl FnOnce(&mut Vec<u8>)) {
    let mut bytes = std::fs::read(path).unwrap();
    edit(&mut bytes);
    std::fs::write(path, bytes).unwrap();
}

#[test]
fn every_recovery_outcome() {
    let store = small_store();
    type Row = (&'static str, fn(&Path, &Store), fn(&Outcome) -> bool);
    let rows: [Row; 7] = [
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
