//! Recovery driven by records that pass every frame check: a small
//! store's checkpoint with bytes of one record overwritten and the record
//! framed again, so its CRC is valid and the mutation reaches the decoder
//! and the store. Whatever the bytes, `recover` returns a store or a typed
//! error; it never panics.

use oodb_storage::{generate_paper_db, GenConfig};
use oodb_wal::{
    checkpoint_records, recover, write_frame, ScratchDir, CHECKPOINT_FILE, CHECKPOINT_MAGIC,
};
use proptest::prelude::*;
use std::sync::OnceLock;

/// The encoded checkpoint records of a small refreshed paper store.
fn records() -> &'static [Vec<u8>] {
    static RECORDS: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    RECORDS.get_or_init(|| {
        let (mut store, _) = generate_paper_db(GenConfig {
            scale_div: 400,
            ..GenConfig::small()
        });
        store.try_rebuild_indexes(true).unwrap();
        store.try_refresh_statistics(8).unwrap();
        checkpoint_records(&store)
            .iter()
            .map(|rec| rec.encode())
            .collect()
    })
}

/// Writes the checkpoint with record `rec % n` overwritten at each
/// `(at % len, byte)`, then recovers it.
fn recover_mutated(rec: usize, edits: &[(usize, u8)]) {
    let records = records();
    let target = rec % records.len();
    let mut file = CHECKPOINT_MAGIC.to_vec();
    file.extend_from_slice(&0u64.to_le_bytes());
    for (i, bytes) in records.iter().enumerate() {
        let mut bytes = bytes.clone();
        if i == target {
            for &(at, byte) in edits {
                let len = bytes.len();
                bytes[at % len] = byte;
            }
        }
        write_frame(&mut file, &bytes);
    }
    let dir = ScratchDir::new("mutated-record").unwrap();
    std::fs::write(dir.path().join(CHECKPOINT_FILE), &file).unwrap();
    let _ = recover(dir.path());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Half the cases mutate the `Genesis` record, whose schema and
    /// catalog every later record is checked against.
    #[test]
    fn a_crc_valid_mutated_record_never_panics_recovery(
        rec in prop_oneof![Just(0usize), any::<usize>()],
        edits in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..4),
    ) {
        recover_mutated(rec, &edits);
    }
}
