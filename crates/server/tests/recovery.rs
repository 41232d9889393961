//! Crash/recovery harness for the durable subscription state.
//!
//! Every test drives a real broker over loopback TCP, "crashes" it
//! ([`Server::abort`]: no final flush, no shutdown snapshot), restarts a
//! fresh broker on the same persist directory, and asserts the restored
//! engine produces match results identical to a brute-force scan oracle
//! over the churn that was **acknowledged** before the crash — the
//! ack-after-append contract.
//!
//! Failpoints are a process-global registry, so every test serializes on
//! [`lock`]; a concurrently running server would otherwise consume another
//! test's armed failure.

use apcm_bexpr::{SubId, Subscription};
use apcm_server::persist::failpoint::{self, FailAction};
use apcm_server::{BrokerClient, PersistConfig, Persister, Server, ServerConfig, ServerStats};
use apcm_workload::WorkloadSpec;
use std::collections::BTreeMap;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

static SERIAL: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("apcm_recovery_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn persisted_config(dir: &Path) -> ServerConfig {
    ServerConfig {
        shards: 3,
        window: 32,
        flush_interval: Duration::from_millis(5),
        maintenance_interval: Duration::from_millis(100),
        persist: Some(PersistConfig {
            // Background snapshots off: the tests control snapshot timing.
            snapshot_interval: None,
            retry_backoff: Duration::from_millis(20),
            ..PersistConfig::new(dir)
        }),
        ..ServerConfig::default()
    }
}

fn start(schema: &apcm_bexpr::Schema, config: ServerConfig) -> (Server, BrokerClient) {
    let server = Server::start(schema.clone(), config, "127.0.0.1:0").unwrap();
    let client = BrokerClient::connect(&server.local_addr().to_string()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    (server, client)
}

/// Brute-force oracle over a live set.
fn oracle_rows(subs: &[&Subscription], events: &[apcm_bexpr::Event]) -> Vec<Vec<SubId>> {
    events
        .iter()
        .map(|ev| {
            let mut row: Vec<SubId> = subs
                .iter()
                .filter(|s| s.matches(ev))
                .map(|s| s.id())
                .collect();
            row.sort_unstable();
            row
        })
        .collect()
}

/// Restarts on `dir` and asserts the restored broker matches exactly like
/// a scan oracle over `acked` (the acknowledged live set at crash time).
fn assert_restored_agrees(
    wl: &apcm_workload::Workload,
    dir: &Path,
    acked: &BTreeMap<SubId, &Subscription>,
) -> BTreeMap<String, u64> {
    let (server, mut client) = start(&wl.schema, persisted_config(dir));
    let report = server.recovery_report().expect("persistence is on").clone();
    assert_eq!(
        report.live_subs,
        acked.len(),
        "restored count != acknowledged churn; report:\n{report}"
    );
    assert_eq!(server.engine().len(), acked.len());

    let events = wl.events(64);
    let results = client.publish_batch(&events, &wl.schema).unwrap();
    let live: Vec<&Subscription> = acked.values().copied().collect();
    let expect = oracle_rows(&live, &events);
    for (seq, row) in &results {
        assert_eq!(
            row, &expect[*seq as usize],
            "event {seq} disagreed with the scan oracle after recovery"
        );
    }
    let stats = client.stats().unwrap();
    client.quit().unwrap();
    server.shutdown();
    stats
}

#[test]
fn restart_round_trip_at_scales() {
    let _guard = lock();
    for &n in &[16usize, 200, 800] {
        let wl = WorkloadSpec::new(n).seed(0xd00d + n as u64).build();
        let dir = tmpdir(&format!("roundtrip_{n}"));

        let (server, mut client) = start(&wl.schema, persisted_config(&dir));
        assert_eq!(server.recovery_report().unwrap().live_subs, 0);
        let mut acked: BTreeMap<SubId, &Subscription> = BTreeMap::new();
        for sub in &wl.subs {
            client.subscribe(sub, &wl.schema).unwrap();
            acked.insert(sub.id(), sub);
        }
        // Snapshot mid-churn so recovery exercises snapshot + log replay.
        let snap_reply = client.snapshot().unwrap();
        assert!(snap_reply.contains("snapshot"), "{snap_reply}");
        // Post-snapshot churn lands in the (rotated) log only.
        for sub in wl.subs.iter().take(n / 4) {
            client.unsubscribe(sub.id()).unwrap();
            acked.remove(&sub.id());
        }
        client.quit().unwrap();
        server.shutdown(); // graceful: flushes the log

        let stats = assert_restored_agrees(&wl, &dir, &acked);
        assert_eq!(stats["recovered_subs"], acked.len() as u64);
        assert_eq!(stats["recovery_corrupt_dropped"], 0);
        assert_eq!(stats["recovery_truncated_bytes"], 0);
        assert!(stats["recovery_log_applied"] >= (n / 4) as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn torn_log_tail_is_truncated_on_restart() {
    let _guard = lock();
    let wl = WorkloadSpec::new(60).seed(0x7041).build();
    let dir = tmpdir("torn_tail");

    let (server, mut client) = start(&wl.schema, persisted_config(&dir));
    let mut acked: BTreeMap<SubId, &Subscription> = BTreeMap::new();
    for sub in &wl.subs {
        client.subscribe(sub, &wl.schema).unwrap();
        acked.insert(sub.id(), sub);
    }
    client.quit().unwrap();
    server.shutdown();

    // Simulate a crash mid-append: an unterminated half-record at the tail.
    use std::io::Write;
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(dir.join("churn.log"))
        .unwrap();
    file.write_all(b"deadbeef 9999 S 77 a0 <").unwrap();
    drop(file);

    let stats = assert_restored_agrees(&wl, &dir, &acked);
    assert!(stats["recovery_truncated_bytes"] > 0);
    assert_eq!(stats["recovered_subs"], acked.len() as u64);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_log_record_is_skipped_on_restart() {
    let _guard = lock();
    let wl = WorkloadSpec::new(40).seed(0xbad).build();
    let dir = tmpdir("bitrot");

    let (server, mut client) = start(&wl.schema, persisted_config(&dir));
    let mut acked: BTreeMap<SubId, &Subscription> = BTreeMap::new();
    for sub in &wl.subs {
        client.subscribe(sub, &wl.schema).unwrap();
        acked.insert(sub.id(), sub);
    }
    client.quit().unwrap();
    server.shutdown();

    // Bit-rot one mid-file record's payload; its CRC no longer matches, so
    // recovery must drop exactly that record and keep everything else.
    let log_path = dir.join("churn.log");
    let text = std::fs::read_to_string(&log_path).unwrap();
    let mut lines: Vec<String> = text.lines().map(String::from).collect();
    assert!(lines.len() >= 10);
    let victim = lines[4].clone();
    // `<crc> <seq> S <id> <expr>` — learn which sub the record carried.
    let victim_id: u32 = victim.split_whitespace().nth(3).unwrap().parse().unwrap();
    lines[4] = {
        let mut bytes = victim.into_bytes();
        let last = bytes.len() - 1;
        bytes[last] = if bytes[last] == b'0' { b'1' } else { b'0' };
        String::from_utf8(bytes).unwrap()
    };
    std::fs::write(&log_path, lines.join("\n") + "\n").unwrap();
    acked.remove(&SubId(victim_id));

    let stats = assert_restored_agrees(&wl, &dir, &acked);
    assert_eq!(stats["recovery_corrupt_dropped"], 1);
    assert_eq!(stats["recovered_subs"], acked.len() as u64);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_snapshot_recovers_from_log_alone() {
    let _guard = lock();
    let wl = WorkloadSpec::new(50).seed(0x5e1f).build();
    let dir = tmpdir("bad_snapshot");

    let (server, mut client) = start(&wl.schema, persisted_config(&dir));
    let mut acked: BTreeMap<SubId, &Subscription> = BTreeMap::new();
    // First half before the snapshot, second half after: damaging the
    // snapshot must lose only what the log no longer covers.
    for sub in &wl.subs[..25] {
        client.subscribe(sub, &wl.schema).unwrap();
    }
    client.snapshot().unwrap();
    for sub in &wl.subs[25..] {
        client.subscribe(sub, &wl.schema).unwrap();
        acked.insert(sub.id(), sub);
    }
    client.quit().unwrap();
    server.shutdown();

    let snap_path = dir.join("snapshot.apcm");
    let mut data = std::fs::read(&snap_path).unwrap();
    let mid = data.len() / 2;
    data[mid] ^= 0x10;
    std::fs::write(&snap_path, &data).unwrap();

    // Only the post-snapshot half survives — counted, not panicked.
    let stats = assert_restored_agrees(&wl, &dir, &acked);
    assert!(stats["recovery_corrupt_dropped"] >= 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A legacy text v1 snapshot is refused, not discarded as corrupt:
/// recovering from the log alone would silently lose every subscription
/// older than the last rotation.
#[test]
fn text_v1_snapshot_refuses_to_open() {
    let _guard = lock();
    let schema = apcm_bexpr::Schema::uniform(2, 8);
    let dir = tmpdir("text_v1");
    let v1 = "# apcm-snapshot v1\nseq 4\nattr a0 0 7\nattr a1 0 7\n\
              sub 3 a0 = 1 AND a1 >= 2\n# crc 1a2b3c4d subs 1\n";
    std::fs::write(dir.join("snapshot.apcm"), v1).unwrap();

    let opened = Persister::open(
        PersistConfig::new(&dir),
        schema.clone(),
        Arc::new(ServerStats::default()),
        2,
    );
    let err = opened.err().expect("a text v1 snapshot must not open");
    assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains("text v1"), "{err}");
    // The server refuses to start on it too, and leaves the file alone.
    assert!(Server::start(schema, persisted_config(&dir), "127.0.0.1:0").is_err());
    assert_eq!(
        std::fs::read_to_string(dir.join("snapshot.apcm")).unwrap(),
        v1
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The acceptance property: for every injected crash point, a restarted
/// broker's restored subscription set produces match results identical to
/// a scan oracle over the pre-crash **acknowledged** churn.
#[test]
fn crash_point_matrix_agrees_with_oracle() {
    let _guard = lock();
    let cases: &[(&str, FailAction, bool)] = &[
        // (failpoint, action, also block inline repair)
        ("persist.log.append", FailAction::Error, false),
        ("persist.log.append", FailAction::TornWrite(7), false),
        ("persist.log.append", FailAction::TornWrite(11), true),
        ("persist.snapshot.write", FailAction::Error, false),
        ("persist.snapshot.rename", FailAction::Error, false),
        // Colstore v2 crash points: a failed block write or manifest swap
        // must leave the previous snapshot (or no snapshot) intact, with
        // the un-rotated log covering everything.
        ("colstore.block.write", FailAction::Error, false),
        ("colstore.block.write", FailAction::TornWrite(13), false),
        ("colstore.manifest.rename", FailAction::Error, false),
    ];
    for &(point, action, block_repair) in cases {
        let tag = format!(
            "crash_{}_{}{}",
            point.replace('.', "_"),
            match action {
                FailAction::Error => "err".to_string(),
                FailAction::TornWrite(n) => format!("torn{n}"),
                FailAction::Stall(ms) => format!("stall{ms}"),
            },
            if block_repair { "_norepair" } else { "" }
        );
        let wl = WorkloadSpec::new(48).seed(0xc4a5).build();
        let dir = tmpdir(&tag);
        failpoint::reset();

        let (server, mut client) = start(&wl.schema, persisted_config(&dir));
        let mut acked: BTreeMap<SubId, &Subscription> = BTreeMap::new();
        for sub in &wl.subs[..32] {
            client.subscribe(sub, &wl.schema).unwrap();
            acked.insert(sub.id(), sub);
        }

        failpoint::arm(point, action, Some(1));
        if block_repair {
            failpoint::arm("persist.log.repair", FailAction::Error, None);
        }

        if point.starts_with("persist.log") {
            // The armed append fails => the op must be NACKed and rolled
            // back; later churn succeeds again once the log self-repairs.
            let mut nacked = 0;
            for sub in &wl.subs[32..] {
                match client.subscribe(sub, &wl.schema) {
                    Ok(()) => {
                        acked.insert(sub.id(), sub);
                    }
                    Err(_) => {
                        nacked += 1;
                        // Give the backoff window time to lapse so the
                        // next attempt can repair (unless blocked).
                        std::thread::sleep(Duration::from_millis(40));
                    }
                }
            }
            assert!(nacked >= 1, "{tag}: the armed failpoint never fired");
            if block_repair {
                // Repair is impossible: everything after the failure must
                // have been refused, not silently half-applied.
                assert_eq!(acked.len(), 32, "{tag}");
            }
        } else {
            // Snapshot crash points: the command fails, churn is unharmed.
            assert!(client.snapshot().is_err(), "{tag}");
            for sub in &wl.subs[32..40] {
                client.subscribe(sub, &wl.schema).unwrap();
                acked.insert(sub.id(), sub);
            }
        }

        drop(client);
        server.abort(); // crash: no flush, no shutdown snapshot
        failpoint::reset();

        let stats = assert_restored_agrees(&wl, &dir, &acked);
        if block_repair {
            // The torn half-record was left on disk; recovery truncated it.
            assert!(stats["recovery_truncated_bytes"] > 0, "{tag}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The prepare/compress split: a snapshot pass only holds the catalog
/// lock while it clones the subscription set; compression and the actual
/// file write run outside it. Stalling the block write must not stall
/// churn acks.
#[test]
fn churn_acks_flow_during_snapshot_compress() {
    let _guard = lock();
    let wl = WorkloadSpec::new(80).seed(0x57a1).build();
    let dir = tmpdir("stall_compress");
    failpoint::reset();

    let (server, mut client) = start(&wl.schema, persisted_config(&dir));
    let mut acked: BTreeMap<SubId, &Subscription> = BTreeMap::new();
    for sub in &wl.subs[..40] {
        client.subscribe(sub, &wl.schema).unwrap();
        acked.insert(sub.id(), sub);
    }

    failpoint::arm("colstore.block.write", FailAction::Stall(800), Some(1));
    let addr = server.local_addr().to_string();
    let snap = std::thread::spawn(move || {
        let mut c2 = BrokerClient::connect(&addr).unwrap();
        c2.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        c2.snapshot().unwrap()
    });
    // Let the snapshot thread reach the stalled block write, then push
    // churn through while it sleeps there.
    std::thread::sleep(Duration::from_millis(120));
    for sub in &wl.subs[40..] {
        client.subscribe(sub, &wl.schema).unwrap();
        acked.insert(sub.id(), sub);
    }
    assert!(
        !snap.is_finished(),
        "churn acks were serialized behind the snapshot's compress+write phase"
    );
    let reply = snap.join().unwrap();
    assert!(reply.contains("snapshot"), "{reply}");
    failpoint::reset();

    drop(client);
    server.abort();
    // The rotation after the write retains the churn frames that landed
    // while it was in flight, so every ack survives the crash.
    let _ = assert_restored_agrees(&wl, &dir, &acked);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Subscribes only the workload subs that route to a single partition, so
/// the next incremental pass sees a strict-subset dirty set and writes a
/// delta instead of falling back to a full.
fn subscribe_one_partition<'a>(
    client: &mut BrokerClient,
    wl: &'a apcm_workload::Workload,
    subs: &'a [Subscription],
    shards: usize,
    acked: &mut BTreeMap<SubId, &'a Subscription>,
) -> usize {
    let target = apcm_server::route_partition(subs[0].id(), shards);
    let mut n = 0;
    for sub in subs {
        if apcm_server::route_partition(sub.id(), shards) == target {
            client.subscribe(sub, &wl.schema).unwrap();
            acked.insert(sub.id(), sub);
            n += 1;
        }
    }
    n
}

#[test]
fn corrupt_delta_falls_back_to_chain_prefix_plus_log() {
    let _guard = lock();
    let wl = WorkloadSpec::new(90).seed(0xde17).build();
    let dir = tmpdir("bad_delta");
    failpoint::reset();

    let (server, mut client) = start(&wl.schema, persisted_config(&dir));
    let mut acked: BTreeMap<SubId, &Subscription> = BTreeMap::new();
    for sub in &wl.subs[..30] {
        client.subscribe(sub, &wl.schema).unwrap();
        acked.insert(sub.id(), sub);
    }
    client.snapshot().unwrap(); // full: starts the chain, rotates the log

    let (first, second) = wl.subs[30..].split_at(30);
    let n1 = subscribe_one_partition(&mut client, &wl, first, 3, &mut acked);
    assert!(n1 >= 4, "workload routed too few subs to one partition");
    let outcome = server.snapshot_incremental().unwrap();
    assert!(outcome.delta, "expected a delta snapshot, got a full");
    let n2 = subscribe_one_partition(&mut client, &wl, second, 3, &mut acked);
    assert!(n2 >= 4);
    let outcome = server.snapshot_incremental().unwrap();
    assert!(outcome.delta);

    drop(client);
    server.abort();

    // Bit-rot the second delta. Recovery must keep the full + delta-1
    // prefix and heal the suffix from the churn log — deltas never rotate
    // it, so the log still covers everything past the full.
    let path = dir.join("snapshot-delta-2.col");
    let mut data = std::fs::read(&path).unwrap();
    let mid = data.len() / 2;
    data[mid] ^= 0x40;
    std::fs::write(&path, &data).unwrap();

    let stats = assert_restored_agrees(&wl, &dir, &acked);
    assert!(stats["recovery_deltas_dropped"] >= 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A delta must actually carry its partitions' rows — not lean on log
/// replay. Deleting the churn log after a full+delta pair must still
/// restore the union.
#[test]
fn delta_snapshot_restores_without_the_log() {
    let _guard = lock();
    let wl = WorkloadSpec::new(60).seed(0xd317).build();
    let dir = tmpdir("delta_no_log");
    failpoint::reset();

    let (server, mut client) = start(&wl.schema, persisted_config(&dir));
    let mut acked: BTreeMap<SubId, &Subscription> = BTreeMap::new();
    for sub in &wl.subs[..30] {
        client.subscribe(sub, &wl.schema).unwrap();
        acked.insert(sub.id(), sub);
    }
    client.snapshot().unwrap();
    let n = subscribe_one_partition(&mut client, &wl, &wl.subs[30..], 3, &mut acked);
    assert!(n >= 4);
    let outcome = server.snapshot_incremental().unwrap();
    assert!(outcome.delta, "expected a delta snapshot, got a full");

    drop(client);
    server.abort();
    std::fs::remove_file(dir.join("churn.log")).unwrap();

    let stats = assert_restored_agrees(&wl, &dir, &acked);
    assert_eq!(stats["recovery_log_applied"], 0);
    assert_eq!(stats["recovery_deltas_dropped"], 0);
    let _ = std::fs::remove_dir_all(&dir);
}
