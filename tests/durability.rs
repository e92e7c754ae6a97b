//! Deterministic crash harness for the durability layer: a WAL built from
//! real mutations over the paper database is killed at **every** record
//! boundary and at hundreds of seeded mid-record offsets, then recovered.
//! The invariants are absolute — recovery never panics, never replays a
//! corrupt record, and always lands on the longest valid prefix, whose
//! store is digest-identical (and Q1–Q4 result-identical) to an oracle
//! built by applying the same record prefix in memory.
//!
//! The kill schedule is deterministic per seed. Failures print the seed;
//! re-run with `OODB_CRASH_SEED=<seed>` to reproduce.

use oodb_core::{CostParams, OptimizerConfig};
use oodb_fault::{WriteFaultConfig, WriteFaultInjector};
use oodb_service::QueryService;
use oodb_storage::{generate_paper_db, GenConfig, Store};
use oodb_wal::{
    apply_record, apply_to, checkpoint_records, frame_boundaries, load_checkpoint, recover,
    store_digest, DecodeError, FlushPolicy, ScratchDir, Wal, WalRecord, WalSession,
    CHECKPOINT_FILE, WAL_FILE, WAL_HEADER,
};
use std::path::Path;

/// The paper's four query shapes (Q1–Q4).
const QUERIES: &[&str] = &[
    "SELECT Newobject(e.name(), e.job().name(), e.dept().name()) \
     FROM Employee e IN Employees \
     WHERE e.dept().plant().location() == \"Dallas\"",
    r#"SELECT c FROM City c IN Cities WHERE c.mayor().name() == "Joe""#,
    r#"SELECT Newobject(c.mayor().age(), c.name()) FROM City c IN Cities WHERE c.mayor().name() == "Joe""#,
    "SELECT t FROM Task t IN Tasks WHERE t.time() == 100 \
     && EXISTS (SELECT m FROM m IN t.team_members() WHERE m.name() == \"Fred\")",
];

/// Seed for the kill schedule: fixed by default, overridable for CI's
/// randomized leg. Printed so a failing run is reproducible.
fn crash_seed() -> u64 {
    let seed = std::env::var("OODB_CRASH_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xBAD_C0DE);
    eprintln!("crash seed: {seed} (set OODB_CRASH_SEED to override)");
    seed
}

/// splitmix64 step — the same deterministic generator the fault layer
/// uses, kept local so the kill schedule is independent of library state.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn fresh_store() -> Store {
    generate_paper_db(GenConfig {
        scale_div: 100,
        ..Default::default()
    })
    .0
}

/// A mutation script exercising every record kind the live service logs:
/// statistics refreshes, a membership rewrite, catalog replacement, and
/// index rebuilds.
fn mutation_script(store: &Store) -> Vec<WalRecord> {
    let mut script = vec![
        WalRecord::StatsRefresh { buckets: 8 },
        WalRecord::BuildIndexes { bump_epoch: true },
    ];
    // Shrink one collection by a member, as a delete would.
    if let Some((coll, members)) = store
        .catalog()
        .collections()
        .map(|(coll, _)| (coll, store.members(coll)))
        .find(|(_, m)| m.len() > 2)
    {
        script.push(WalRecord::SetMembers {
            coll,
            oids: members[..members.len() - 1].to_vec(),
        });
    }
    script.extend([
        WalRecord::StatsRefresh { buckets: 16 },
        WalRecord::SetCatalog {
            catalog: store.catalog().clone(),
        },
        WalRecord::BuildIndexes { bump_epoch: true },
        WalRecord::StatsRefresh { buckets: 24 },
        WalRecord::StatsRefresh { buckets: 40 },
    ]);
    script
}

/// Builds a durability directory: checkpoint of the pristine store plus a
/// log of the whole mutation script, each record applied after it is
/// acknowledged (the service's log-then-apply order). Returns the final
/// store and the logged records.
fn build_log(dir: &Path) -> (Store, Vec<WalRecord>) {
    let mut store = fresh_store();
    let mut session =
        WalSession::create(dir, &store, FlushPolicy::EveryRecord, None).expect("session creates");
    let script = mutation_script(&store);
    for rec in &script {
        session.append(rec).expect("append acknowledged");
        apply_to(&mut store, rec).expect("live apply succeeds");
    }
    session.flush().expect("final flush");
    (store, script)
}

/// Digest of the store after replaying the checkpoint plus the first
/// `k` records, for every `k` — the oracle the crash points compare to.
fn oracle_digests(dir: &Path, script: &[WalRecord]) -> Vec<u64> {
    let (_, ckpt) = load_checkpoint(&dir.join(CHECKPOINT_FILE)).expect("checkpoint loads");
    let mut slot: Option<Store> = None;
    for rec in &ckpt {
        apply_record(&mut slot, rec).expect("checkpoint replays");
    }
    let mut store = slot.expect("checkpoint yields a store");
    let mut digests = vec![store_digest(&store)];
    for rec in script {
        apply_to(&mut store, rec).expect("oracle apply succeeds");
        digests.push(store_digest(&store));
    }
    digests
}

/// Copies the checkpoint and a damaged log image into a fresh directory,
/// simulating the state a crash left on disk.
fn stage_crash(src: &Path, wal_image: &[u8], tag: &str) -> ScratchDir {
    let dst = ScratchDir::new(tag).expect("scratch dir");
    std::fs::copy(src.join(CHECKPOINT_FILE), dst.path().join(CHECKPOINT_FILE))
        .expect("copy checkpoint");
    std::fs::write(dst.path().join(WAL_FILE), wal_image).expect("write damaged log");
    dst
}

/// Sorted Q1–Q4 result rows for a store.
fn query_rows(store: Store) -> Vec<Vec<String>> {
    let svc = QueryService::new(
        store,
        CostParams::default(),
        OptimizerConfig::all_rules(),
        64,
        4,
    );
    QUERIES
        .iter()
        .map(|q| {
            let mut rows = svc.submit(q).expect("query runs on recovered store").rows;
            rows.sort();
            rows
        })
        .collect()
}

/// Kills the log at every record boundary (including the empty log) and
/// at 220 seeded mid-record offsets. Every crash point must recover
/// without panicking to exactly the longest valid prefix.
#[test]
fn crash_at_every_boundary_and_seeded_offsets() {
    let seed = crash_seed();
    let dir = ScratchDir::new("crash-matrix").expect("scratch dir");
    let (final_store, script) = build_log(dir.path());
    let wal_bytes = std::fs::read(dir.path().join(WAL_FILE)).expect("read log");
    let boundaries = frame_boundaries(&wal_bytes, WAL_HEADER);
    assert_eq!(boundaries.len(), script.len(), "one frame per record");

    let digests = oracle_digests(dir.path(), &script);
    assert_eq!(
        *digests.last().expect("nonempty"),
        store_digest(&final_store),
        "oracle replay must land on the live store"
    );

    // Crash points: just-the-header, every record boundary, and seeded
    // mid-record offsets strictly inside the frame stream.
    let mut cuts = vec![WAL_HEADER];
    cuts.extend_from_slice(&boundaries);
    let mut state = seed;
    let span = wal_bytes.len() - WAL_HEADER - 1;
    for _ in 0..220 {
        cuts.push(WAL_HEADER + 1 + (splitmix(&mut state) as usize) % span);
    }

    for cut in cuts {
        let crash = stage_crash(dir.path(), &wal_bytes[..cut], "cut");
        let (store, report) =
            recover(crash.path()).unwrap_or_else(|e| panic!("cut at {cut}: recovery failed: {e}"));
        let replayed = boundaries.iter().take_while(|&&b| b <= cut).count();
        assert_eq!(
            report.replayed_records as usize, replayed,
            "cut at {cut}: wrong prefix length"
        );
        assert!(
            report.stopped.is_none(),
            "cut at {cut}: clean truncation must not report corruption: {:?}",
            report.stopped
        );
        let last_ok = boundaries[..replayed].last().copied().unwrap_or(WAL_HEADER);
        assert_eq!(
            report.torn_tail_bytes as usize,
            cut - last_ok,
            "cut at {cut}: torn tail accounting"
        );
        assert_eq!(
            store_digest(&store),
            digests[replayed],
            "cut at {cut}: recovered store diverges from the {replayed}-record oracle"
        );
    }
}

/// Recovery from the intact log rebuilds a store whose Q1–Q4 results are
/// identical to the pre-crash store's, at any log length and after a
/// checkpoint.
#[test]
fn full_log_recovery_is_query_identical() {
    let dir = ScratchDir::new("full-recovery").expect("scratch dir");
    let (final_store, script) = build_log(dir.path());
    let (recovered, report) = recover(dir.path()).expect("recovery succeeds");
    assert_eq!(report.replayed_records as usize, script.len());
    assert_eq!(report.torn_tail_bytes, 0);
    assert!(report.stopped.is_none());
    assert_eq!(store_digest(&recovered), store_digest(&final_store));
    assert_eq!(query_rows(recovered), query_rows(final_store));

    // Recovery replays exactly the log it finds, however long: one growing
    // log (membership rewrites, a statistics refresh every 16th record)
    // recovered at each length, then folded into a checkpoint that leaves
    // nothing to replay.
    let dir = ScratchDir::new("log-lengths").expect("scratch dir");
    let mut store = fresh_store();
    let (coll, oids) = store
        .catalog()
        .collections()
        .map(|(c, _)| (c, store.members(c).to_vec()))
        .max_by_key(|(_, m)| m.len())
        .expect("populated collection");
    let mut session = WalSession::create(dir.path(), &store, FlushPolicy::Batch(32), None)
        .expect("session creates");
    let rewrite = WalRecord::SetMembers { coll, oids };
    let refresh = WalRecord::StatsRefresh { buckets: 16 };
    let mut logged = 0;
    for len in [0, 16, 64, 256] {
        for i in logged..len {
            let rec = if i % 16 == 15 { &refresh } else { &rewrite };
            session.append(rec).expect("append");
            apply_to(&mut store, rec).expect("apply");
        }
        logged = len;
        session.flush().expect("flush");
        let (recovered, report) = recover(dir.path()).expect("recovery succeeds");
        assert_eq!(report.replayed_records as usize, len);
        assert_eq!(store_digest(&recovered), store_digest(&store));
    }
    let log_bytes = || {
        std::fs::metadata(dir.path().join(WAL_FILE))
            .expect("log")
            .len()
    };
    let uncompacted = log_bytes();
    session.checkpoint(&store).expect("checkpoint succeeds");
    assert_eq!(session.stats().compacted_records, 256);
    assert!(
        log_bytes() < uncompacted,
        "the checkpoint truncates the log"
    );
    let (recovered, report) = recover(dir.path()).expect("post-checkpoint recovery");
    assert_eq!(report.replayed_records, 0);
    assert_eq!(store_digest(&recovered), store_digest(&store));
}

/// Seeded single-bit flips anywhere in the frame stream: the reader must
/// stop at the corrupted frame — replaying exactly the intact prefix and
/// reporting the damage — and must never replay a corrupt record.
#[test]
fn bit_flips_stop_replay_at_the_intact_prefix() {
    let seed = crash_seed();
    let dir = ScratchDir::new("bit-flips").expect("scratch dir");
    let (_, script) = build_log(dir.path());
    let wal_bytes = std::fs::read(dir.path().join(WAL_FILE)).expect("read log");
    let boundaries = frame_boundaries(&wal_bytes, WAL_HEADER);
    let digests = oracle_digests(dir.path(), &script);

    let mut state = seed ^ 0xF11B;
    let span = wal_bytes.len() - WAL_HEADER;
    for _ in 0..200 {
        let at = WAL_HEADER + (splitmix(&mut state) as usize) % span;
        let bit = (splitmix(&mut state) % 8) as u8;
        let mut image = wal_bytes.clone();
        image[at] ^= 1 << bit;

        let crash = stage_crash(dir.path(), &image, "flip");
        let (store, report) = recover(crash.path())
            .unwrap_or_else(|e| panic!("flip at {at}.{bit}: recovery failed: {e}"));
        // Frames wholly before the flip are untouched; the frame holding
        // the flip fails its CRC (or reads as torn), so replay stops
        // exactly at the intact prefix.
        let intact = boundaries.iter().take_while(|&&b| b <= at).count();
        assert_eq!(
            report.replayed_records as usize, intact,
            "flip at {at}.{bit}: replay must stop at the intact prefix"
        );
        assert!(
            report.stopped.is_some() || report.torn_tail_bytes > 0,
            "flip at {at}.{bit}: damage went unreported"
        );
        assert_eq!(
            store_digest(&store),
            digests[intact],
            "flip at {at}.{bit}: recovered store diverges from the oracle"
        );
    }
}

/// A torn append (injected at every opportunity) poisons the handle after
/// persisting only a byte prefix; recovery discards the tear and lands on
/// the acknowledged records.
#[test]
fn torn_write_recovers_to_acknowledged_prefix() {
    let seed = crash_seed();
    let dir = ScratchDir::new("torn-write").expect("scratch dir");
    let mut store = fresh_store();
    let injector = WriteFaultInjector::new(WriteFaultConfig {
        torn_write_rate: 1.0,
        seed,
        ..Default::default()
    });
    injector.set_enabled(false);
    let mut session = WalSession::create(
        dir.path(),
        &store,
        FlushPolicy::EveryRecord,
        Some(injector.clone()),
    )
    .expect("session creates");
    injector.set_enabled(true);

    let base_digest = store_digest(&store);
    let err = session
        .append(&WalRecord::StatsRefresh { buckets: 12 })
        .expect_err("every append tears");
    assert!(err.to_string().contains("torn"), "unexpected fault: {err}");
    assert!(session.stats().poisoned, "fault must poison the handle");
    assert_eq!(injector.stats().torn_writes, 1);
    // The live path would now run in degraded (unacknowledged) mode; the
    // on-disk state must still recover to the pre-append store.
    apply_to(&mut store, &WalRecord::StatsRefresh { buckets: 12 }).expect("in-memory apply");

    let (recovered, report) = recover(dir.path()).expect("recovery succeeds");
    assert_eq!(report.replayed_records, 0);
    assert!(
        report.stopped.is_none(),
        "a torn tail is benign, not corruption"
    );
    assert_eq!(store_digest(&recovered), base_digest);
    assert_ne!(
        store_digest(&recovered),
        store_digest(&store),
        "the unacknowledged mutation must not survive the crash"
    );
}

/// A failed sync persists the frame but reports failure: the record is
/// durable-but-unacknowledged, and recovery replays it.
#[test]
fn sync_failure_is_durable_but_unacknowledged() {
    let seed = crash_seed();
    let dir = ScratchDir::new("sync-fail").expect("scratch dir");
    let store = fresh_store();
    let injector = WriteFaultInjector::new(WriteFaultConfig {
        sync_failure_rate: 1.0,
        seed,
        ..Default::default()
    });
    injector.set_enabled(false);
    let mut session = WalSession::create(
        dir.path(),
        &store,
        FlushPolicy::EveryRecord,
        Some(injector.clone()),
    )
    .expect("session creates");
    injector.set_enabled(true);

    session
        .append(&WalRecord::StatsRefresh { buckets: 12 })
        .expect_err("sync fails");
    assert!(session.stats().poisoned);
    assert_eq!(injector.stats().sync_failures, 1);

    let mut oracle = fresh_store();
    apply_to(&mut oracle, &WalRecord::StatsRefresh { buckets: 12 }).expect("oracle apply");
    let (recovered, report) = recover(dir.path()).expect("recovery succeeds");
    assert_eq!(
        report.replayed_records, 1,
        "the synced-but-unacknowledged record is on disk and replays"
    );
    assert_eq!(store_digest(&recovered), store_digest(&oracle));
}

/// A partial flush under batching persists a whole-frame prefix of the
/// buffered batch; recovery replays exactly that prefix.
#[test]
fn partial_flush_keeps_a_whole_frame_prefix() {
    let seed = crash_seed();
    let dir = ScratchDir::new("partial-flush").expect("scratch dir");
    let store = fresh_store();
    let injector = WriteFaultInjector::new(WriteFaultConfig {
        partial_flush_rate: 1.0,
        seed,
        ..Default::default()
    });
    injector.set_enabled(false);
    let mut session = WalSession::create(
        dir.path(),
        &store,
        FlushPolicy::Manual,
        Some(injector.clone()),
    )
    .expect("session creates");
    injector.set_enabled(true);

    let script = [
        WalRecord::StatsRefresh { buckets: 8 },
        WalRecord::StatsRefresh { buckets: 16 },
        WalRecord::BuildIndexes { bump_epoch: true },
        WalRecord::StatsRefresh { buckets: 24 },
    ];
    for rec in &script {
        session.append(rec).expect("manual policy buffers appends");
    }
    assert_eq!(session.stats().buffered_records, script.len() as u64);
    session.flush().expect_err("flush is partial");
    assert!(session.stats().poisoned);
    assert_eq!(injector.stats().partial_flushes, 1);

    let (recovered, report) = recover(dir.path()).expect("recovery succeeds");
    let kept = report.replayed_records as usize;
    assert!(kept < script.len(), "a partial flush keeps a strict prefix");
    assert!(
        report.stopped.is_none(),
        "whole-frame prefixes carry no corruption"
    );
    let mut oracle = fresh_store();
    for rec in &script[..kept] {
        apply_to(&mut oracle, rec).expect("oracle apply");
    }
    assert_eq!(store_digest(&recovered), store_digest(&oracle));
}

/// End-to-end through the service: durable mutations survive a crash and
/// `QueryService::recover` answers Q1–Q4 identically to the pre-crash
/// service, with the recovery counters reporting the replay.
#[test]
fn service_crash_roundtrip_is_query_identical() {
    let dir = ScratchDir::new("service-roundtrip").expect("scratch dir");
    let svc = QueryService::new(
        fresh_store(),
        CostParams::default(),
        OptimizerConfig::all_rules(),
        64,
        4,
    );
    svc.enable_durability(dir.path(), FlushPolicy::EveryRecord)
        .expect("durability on");
    svc.refresh_statistics(16);
    svc.refresh_statistics(40);
    let before: Vec<Vec<String>> = QUERIES
        .iter()
        .map(|q| {
            let mut rows = svc.submit(q).expect("pre-crash query").rows;
            rows.sort();
            rows
        })
        .collect();
    let stats = svc.durability_stats().expect("durability stats");
    assert_eq!(stats.records, 2);
    assert!(!stats.poisoned);
    drop(svc); // crash: the service vanishes, the directory remains

    let (svc, report) = QueryService::recover(
        dir.path(),
        CostParams::default(),
        OptimizerConfig::all_rules(),
        64,
        4,
        FlushPolicy::EveryRecord,
    )
    .expect("recovery succeeds");
    assert_eq!(report.replayed_records, 2);
    assert!(report.stopped.is_none());
    let after: Vec<Vec<String>> = QUERIES
        .iter()
        .map(|q| {
            let mut rows = svc.submit(q).expect("post-crash query").rows;
            rows.sort();
            rows
        })
        .collect();
    assert_eq!(before, after, "recovery must not change any query answer");
    let text = svc.metrics_prometheus();
    assert!(
        text.contains("oodb_recovery_replayed_total 2"),
        "recovery counter missing:\n{text}"
    );
}

/// The service's three logged mutators, run for real rather than modelled:
/// the records the session wrote, applied by `apply_record` to a copy of
/// the store the service started from, rebuild the store the service now
/// publishes — the mutators apply what they log, nothing else.
#[test]
fn service_mutators_apply_exactly_what_they_log() {
    let dir = ScratchDir::new("service-mutators").expect("scratch dir");
    let start = fresh_store();
    let config = OptimizerConfig::all_rules();
    let svc = QueryService::new(start.clone(), CostParams::default(), config, 64, 4);
    svc.enable_durability(dir.path(), FlushPolicy::EveryRecord)
        .expect("durability on");
    assert!(svc.refresh_statistics(16));
    let merge_join = oodb_core::config::rule_names::MERGE_JOIN;
    svc.refresh_statistics_with_config(24, OptimizerConfig::without(&[merge_join]));
    // The same refresh again: logged, but over unchanged data it keeps
    // the epoch — and replay must keep it too.
    let epoch = svc.store().catalog().stats_epoch();
    assert!(!svc.refresh_statistics(24));
    assert_eq!(svc.store().catalog().stats_epoch(), epoch);
    let (_, kept) = start.catalog().indexes().next().expect("an index");
    svc.restrict_indexes(&[&kept.name]);
    assert!(!svc.durability_stats().expect("durability on").poisoned);

    let scan = Wal::scan(&dir.path().join(WAL_FILE)).expect("log scans");
    let mut slot = Some(start);
    let mut kinds = Vec::new();
    for (_, bytes) in &scan.records {
        let rec = WalRecord::decode(bytes).expect("own encoding decodes");
        apply_record(&mut slot, &rec).expect("logged record replays");
        kinds.push(rec.kind());
    }
    let logged = [
        "stats-refresh",
        "stats-refresh",
        "stats-refresh",
        "set-catalog",
        "build-indexes",
    ];
    assert_eq!(kinds, logged);
    let (live, replayed) = (svc.store(), slot.expect("a store"));
    assert_eq!(store_digest(&replayed), store_digest(&live));
    let identity = |s: &Store| (s.catalog().stats_epoch(), s.catalog().index_set_hash());
    assert_eq!(identity(&replayed), identity(&live));
    assert_eq!(
        live.catalog().indexes().count(),
        1,
        "two indexes were dropped"
    );
    assert_eq!(query_rows(replayed), query_rows(Store::clone(&live)));
}

/// A membership change no histogram can see — one `Tasks` member swapped
/// for a task outside the set with the same `time` — leaves the epoch
/// where it was, but the indexes still follow the data: after the refresh
/// `Tasks_time` returns the new member and not the old one.
#[test]
fn unchanged_histograms_still_rebuild_stale_indexes() {
    let mut store = fresh_store();
    apply_to(&mut store, &WalRecord::StatsRefresh { buckets: 16 }).expect("refresh");
    let epoch = store.catalog().stats_epoch();
    let cat = store.catalog();
    let tasks = cat.collection_by_name("Tasks").expect("Tasks");
    let index = cat.index_by_name("Tasks_time").expect("Tasks_time");
    let time = cat.index(index).key;
    let task_type = cat.collection(tasks).elem_type;
    let mut members = store.members(tasks).to_vec();
    let time_of = |oid| store.read_field(oid, time).clone();
    let outside = (members.len()..store.population(task_type))
        .map(|seq| oodb_object::Oid::new(task_type, seq as u32))
        .find_map(|out| {
            let at = members.iter().position(|&m| time_of(m) == time_of(out))?;
            Some((at, out))
        });
    let (at, newcomer) = outside.expect("a task outside Tasks shares a member's time");
    let (leaver, key) = (members[at], time_of(newcomer));
    members[at] = newcomer;

    apply_to(
        &mut store,
        &WalRecord::SetMembers {
            coll: tasks,
            oids: members,
        },
    )
    .expect("membership");
    apply_to(&mut store, &WalRecord::StatsRefresh { buckets: 16 }).expect("refresh");
    assert_eq!(
        store.catalog().stats_epoch(),
        epoch,
        "every histogram equal"
    );
    let found = store
        .index(index)
        .lookup_cmp(oodb_object::value::CmpLike::Eq, &key);
    assert!(found.contains(&newcomer), "the index missed the new member");
    assert!(!found.contains(&leaver), "the index kept the old member");
}

/// An object is as large as its values: a 600-member set and a 5 000-byte
/// string each outgrow a 4 KiB page, and both are logged, checkpointed
/// and recovered like any other. (The insert record used to carry page
/// images, and `encode` panicked on the first such object.)
#[test]
fn objects_larger_than_a_page_are_logged_and_recovered() {
    use oodb_object::{AttrType, Catalog, FieldKind, Oid, Schema, Value};
    let mut b = Schema::builder();
    let t = b.add_type("Wide", None);
    b.add_field(t, "peers", FieldKind::RefSet(t));
    b.add_field(t, "text", FieldKind::Attr(AttrType::Str));
    let mut store = Store::new(b.build(), Catalog::new());
    let wide = oodb_storage::datagen::columns(2, |i| match i {
        0 => [
            Value::RefSet((0..600).map(|k| Oid::new(t, k % 2)).collect()),
            Value::Null,
        ],
        _ => [Value::RefSet([].into()), Value::str(&"x".repeat(5_000))],
    });
    store.insert_columns(t, 2, wide, 6_000).unwrap();
    let digest = store_digest(&store);

    let mut slot = None;
    for rec in checkpoint_records(&store) {
        let mut bytes = rec.encode();
        let back = WalRecord::decode(&bytes).expect("own encoding decodes");
        apply_record(&mut slot, &back).expect("checkpoint replays");
        if rec.kind() == "insert-columns" {
            // The tag the page-image insert had is retired, not reused.
            bytes[0] = 0x02;
            let refused = WalRecord::decode(&bytes).expect_err("retired tag");
            assert_eq!(refused, DecodeError::BadTag(0x02));
        }
    }
    assert_eq!(store_digest(&slot.expect("genesis applied")), digest);

    let dir = ScratchDir::new("wide-objects").expect("scratch dir");
    let svc = QueryService::new(
        store,
        CostParams::default(),
        OptimizerConfig::all_rules(),
        64,
        4,
    );
    svc.enable_durability(dir.path(), FlushPolicy::EveryRecord)
        .expect("durability on");
    svc.checkpoint_wal()
        .expect("a session is open")
        .expect("checkpoint written");
    drop(svc);
    let (recovered, report) = recover(dir.path()).expect("recovery succeeds");
    assert!(report.stopped.is_none());
    assert_eq!(store_digest(&recovered), digest);
}
