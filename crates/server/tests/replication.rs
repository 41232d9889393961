//! Primary/follower replication over loopback TCP: churn-log shipping,
//! snapshot bootstrap, the seq handshake's edge cases, role flips, and
//! injected stream faults.
//!
//! Failpoints are a process-global registry, so tests that arm them
//! serialize on [`lock`].

use apcm_bexpr::{Schema, SubId, Subscription};
use apcm_server::persist::failpoint::{self, FailAction};
use apcm_server::persist::log::{render_frame, ChurnOp};
use apcm_server::{BrokerClient, PersistConfig, Role, Server, ServerConfig, ServerStats};
use apcm_workload::WorkloadSpec;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

static SERIAL: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("apcm_repl_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn persisted_config(dir: &Path) -> ServerConfig {
    ServerConfig {
        shards: 2,
        window: 32,
        flush_interval: Duration::from_millis(5),
        maintenance_interval: Duration::from_millis(50),
        repl_ack_every: 4,
        persist: Some(PersistConfig {
            snapshot_interval: None,
            retry_backoff: Duration::from_millis(20),
            ..PersistConfig::new(dir)
        }),
        ..ServerConfig::default()
    }
}

fn replica_config(dir: &Path, primary: &str) -> ServerConfig {
    ServerConfig {
        replica_of: Some(primary.to_string()),
        ..persisted_config(dir)
    }
}

fn start(schema: &Schema, config: ServerConfig) -> (Server, BrokerClient) {
    let server = Server::start(schema.clone(), config, "127.0.0.1:0").unwrap();
    let client = BrokerClient::connect(&server.local_addr().to_string()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    (server, client)
}

fn wait_until(what: &str, timeout: Duration, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("timed out waiting for {what}");
}

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

#[test]
fn replica_converges_live_and_refuses_churn() {
    let wl = WorkloadSpec::new(60).seed(0x5e11).build();
    let (primary, mut pc) = start(&wl.schema, persisted_config(&tmpdir("conv_p")));
    for sub in &wl.subs[..40] {
        pc.subscribe(sub, &wl.schema).unwrap();
    }

    let (replica, mut rc) = start(
        &wl.schema,
        replica_config(&tmpdir("conv_r"), &primary.local_addr().to_string()),
    );
    assert!(matches!(replica.role(), Role::Replica { .. }));
    wait_until("initial catch-up", Duration::from_secs(10), || {
        replica.current_seq() == primary.current_seq()
    });
    assert_eq!(replica.engine().len(), 40);

    // Live churn after the handshake streams through the same connection.
    for sub in &wl.subs[40..] {
        pc.subscribe(sub, &wl.schema).unwrap();
    }
    for sub in &wl.subs[..10] {
        pc.unsubscribe(sub.id()).unwrap();
    }
    wait_until("live catch-up", Duration::from_secs(10), || {
        replica.current_seq() == primary.current_seq()
    });
    assert_eq!(replica.engine().len(), 50);

    // The replica matches exactly what the primary matches.
    let events = wl.events(48);
    let live: Vec<&Subscription> = wl.subs[10..].iter().collect();
    let expect = oracle_rows(&live, &events);
    for (who, client) in [("primary", &mut pc), ("replica", &mut rc)] {
        let rows = client.publish_batch(&events, &wl.schema).unwrap();
        for (seq, row) in &rows {
            assert_eq!(row, &expect[*seq as usize], "{who} event {seq}");
        }
    }

    // Client churn on the replica is refused, and the refusal is the
    // retryable kind.
    rc.set_churn_retry(0, Duration::ZERO);
    let err = rc.subscribe(&wl.subs[0], &wl.schema).unwrap_err();
    assert!(err.to_string().contains("read-only replica"), "{err}");
    let err = rc.unsubscribe(wl.subs[20].id()).unwrap_err();
    assert!(err.to_string().contains("read-only replica"), "{err}");

    // The primary's stats expose the stream; the replica's its role.
    let pstats = pc.stats().unwrap();
    assert_eq!(pstats["repl_followers"], 1);
    // Live records shipped after the handshake: 20 subs + 10 unsubs.
    assert!(pstats["repl_records_sent"] >= 30);
    let rstats = rc.stats().unwrap();
    assert_eq!(rstats["role_replica"], 1);
    assert_eq!(rstats["repl_connected"], 1);
    assert_eq!(rstats["repl_applied_seq"], primary.current_seq());

    rc.quit().unwrap();
    pc.quit().unwrap();
    replica.shutdown();
    primary.shutdown();
}

#[test]
fn rotation_gap_forces_snapshot_bootstrap() {
    let wl = WorkloadSpec::new(50).seed(0xb007).build();
    let (primary, mut pc) = start(&wl.schema, persisted_config(&tmpdir("rot_p")));
    for sub in &wl.subs[..30] {
        pc.subscribe(sub, &wl.schema).unwrap();
    }
    // Rotation advances base_seq past a brand-new follower's from_seq=0,
    // so the log tail cannot serve it.
    pc.snapshot().unwrap();
    for sub in &wl.subs[30..] {
        pc.subscribe(sub, &wl.schema).unwrap();
    }

    let (replica, mut rc) = start(
        &wl.schema,
        replica_config(&tmpdir("rot_r"), &primary.local_addr().to_string()),
    );
    wait_until("bootstrap catch-up", Duration::from_secs(10), || {
        replica.current_seq() == primary.current_seq()
            && ServerStats::get(&replica.stats().repl_bootstraps) == 1
    });
    assert_eq!(replica.engine().len(), 50);
    // The primary (colstore format by default) served the bootstrap as
    // compressed blocks and accounted the bytes it shipped.
    assert!(ServerStats::get(&primary.stats().repl_bootstrap_bytes) > 0);

    rc.quit().unwrap();
    pc.quit().unwrap();
    replica.shutdown();
    primary.shutdown();
}

#[test]
fn follower_ahead_with_shared_prefix_truncates_instead_of_rebootstrap() {
    let wl = WorkloadSpec::new(40).seed(0xa4ed).build();
    // Grow a log to seq 40 in dir, then retire that server: the dir now
    // holds state *ahead* of the fresh primary below — but the first 12
    // records are byte-identical to the primary's (same subs, same
    // order), so the suffix is a covered, unacked leftover.
    let stale_dir = tmpdir("ahead_stale");
    {
        let (old, mut oc) = start(&wl.schema, persisted_config(&stale_dir));
        for sub in &wl.subs {
            oc.subscribe(sub, &wl.schema).unwrap();
        }
        oc.quit().unwrap();
        old.shutdown();
    }

    let (primary, mut pc) = start(&wl.schema, persisted_config(&tmpdir("ahead_p")));
    for sub in &wl.subs[..12] {
        pc.subscribe(sub, &wl.schema).unwrap();
    }

    // The replica recovers seq 40 locally, handshakes with from_seq=40
    // against a primary at seq 12. The primary offers the truncate form
    // with its head frame's CRC; the replica's own frame 12 matches, so
    // it discards the suffix locally and tails — zero state transfer,
    // no wholesale bootstrap.
    let (replica, mut rc) = start(
        &wl.schema,
        replica_config(&stale_dir, &primary.local_addr().to_string()),
    );
    // The truncate counter lives in the wait condition, not a trailing
    // assert: `current_seq` blocks on the same lock the rewind holds, so
    // a poll can wake the instant the swap is visible and race ahead of
    // the replication thread's counter increment.
    wait_until("covered-suffix rewind", Duration::from_secs(10), || {
        replica.current_seq() == primary.current_seq()
            && replica.engine().len() == 12
            && ServerStats::get(&replica.stats().repl_truncates) == 1
    });
    assert_eq!(ServerStats::get(&replica.stats().repl_bootstraps), 0);

    // And it now tracks the primary's timeline.
    for sub in &wl.subs[12..20] {
        pc.subscribe(sub, &wl.schema).unwrap();
    }
    wait_until("post-rewind tail", Duration::from_secs(10), || {
        replica.engine().len() == 20
    });

    let events = wl.events(32);
    let live: Vec<&Subscription> = wl.subs[..20].iter().collect();
    let expect = oracle_rows(&live, &events);
    let rows = rc.publish_batch(&events, &wl.schema).unwrap();
    for (seq, row) in &rows {
        assert_eq!(row, &expect[*seq as usize], "event {seq}");
    }

    rc.quit().unwrap();
    pc.quit().unwrap();
    replica.shutdown();
    primary.shutdown();
}

#[test]
fn follower_ahead_with_divergent_history_rebootstraps() {
    let wl = WorkloadSpec::new(40).seed(0xa4ee).build();
    // Same ahead-of-primary shape, but the stale dir's history was built
    // in *reverse* order: its frame at the primary's head seq names a
    // different subscription, so the truncate CRC probe must fail and
    // the follower must fall back to the wholesale bootstrap.
    let stale_dir = tmpdir("divergent_stale");
    {
        let (old, mut oc) = start(&wl.schema, persisted_config(&stale_dir));
        for sub in wl.subs.iter().rev() {
            oc.subscribe(sub, &wl.schema).unwrap();
        }
        oc.quit().unwrap();
        old.shutdown();
    }

    let (primary, mut pc) = start(&wl.schema, persisted_config(&tmpdir("divergent_p")));
    for sub in &wl.subs[..12] {
        pc.subscribe(sub, &wl.schema).unwrap();
    }

    let (replica, mut rc) = start(
        &wl.schema,
        replica_config(&stale_dir, &primary.local_addr().to_string()),
    );
    wait_until("divergent re-bootstrap", Duration::from_secs(10), || {
        replica.current_seq() == primary.current_seq()
            && replica.engine().len() == 12
            && ServerStats::get(&replica.stats().repl_bootstraps) == 1
    });
    assert_eq!(ServerStats::get(&replica.stats().repl_truncates), 0);

    let events = wl.events(32);
    let live: Vec<&Subscription> = wl.subs[..12].iter().collect();
    let expect = oracle_rows(&live, &events);
    let rows = rc.publish_batch(&events, &wl.schema).unwrap();
    for (seq, row) in &rows {
        assert_eq!(row, &expect[*seq as usize], "event {seq}");
    }

    rc.quit().unwrap();
    pc.quit().unwrap();
    replica.shutdown();
    primary.shutdown();
}

/// The double-failover regression: A leads, B takes over, A returns with
/// an unacked suffix, then leadership comes back to A. Each hand-back
/// must reconcile by covered-suffix truncation (the histories share every
/// acked record) — never by wholesale re-bootstrap.
#[test]
fn double_failover_a_b_a_truncates_never_rebootstraps() {
    let wl = WorkloadSpec::new(40).seed(0xabab).build();
    let (a, mut ac) = start(&wl.schema, persisted_config(&tmpdir("aba_a")));
    for sub in &wl.subs[..20] {
        ac.subscribe(sub, &wl.schema).unwrap();
    }
    let (b, mut bc) = start(
        &wl.schema,
        replica_config(&tmpdir("aba_b"), &a.local_addr().to_string()),
    );
    wait_until("b catches up", Duration::from_secs(10), || {
        b.current_seq() == a.current_seq()
    });

    // Failover to B... but A (still primary, "partitioned") takes five
    // more records nobody acked through B's timeline. The churn waits
    // for B's puller stream to actually drop first — otherwise the dying
    // stream can race a record or two over to B.
    bc.promote().unwrap();
    wait_until("b's puller detaches", Duration::from_secs(10), || {
        ServerStats::get(&a.stats().repl_followers) == 0
    });
    for sub in &wl.subs[20..25] {
        ac.subscribe(sub, &wl.schema).unwrap();
    }
    assert_eq!(a.current_seq(), 25);
    assert_eq!(b.current_seq(), 20);

    // A rejoins as B's follower: from_seq=25 against B at 20, shared
    // history up to 20 — the suffix is covered, so A rewinds in place.
    ac.demote(&b.local_addr().to_string()).unwrap();
    wait_until("a rewinds onto b", Duration::from_secs(10), || {
        a.current_seq() == b.current_seq()
            && a.engine().len() == 20
            && ServerStats::get(&a.stats().repl_truncates) == 1
    });
    assert_eq!(ServerStats::get(&a.stats().repl_bootstraps), 0);

    // B meanwhile leads on: churn it forward, A tails the new timeline.
    for sub in &wl.subs[25..32] {
        bc.subscribe(sub, &wl.schema).unwrap();
    }
    wait_until("a tails b's churn", Duration::from_secs(10), || {
        a.current_seq() == b.current_seq() && a.engine().len() == 27
    });

    // Failover back: A promotes at B's head, B rejoins under A. The
    // timelines are identical now, so B needs neither rewind nor
    // bootstrap — it just tails.
    ac.promote().unwrap();
    bc.demote(&a.local_addr().to_string()).unwrap();
    for sub in &wl.subs[32..] {
        ac.subscribe(sub, &wl.schema).unwrap();
    }
    wait_until("b follows a again", Duration::from_secs(10), || {
        b.current_seq() == a.current_seq() && b.engine().len() == 35
    });
    assert_eq!(ServerStats::get(&b.stats().repl_bootstraps), 0);
    assert_eq!(ServerStats::get(&b.stats().repl_truncates), 0);

    // Both ends answer byte-identical rows for the surviving catalog.
    let events = wl.events(32);
    let live: Vec<&Subscription> = wl.subs[..20].iter().chain(&wl.subs[25..]).collect();
    let expect = oracle_rows(&live, &events);
    for (who, client) in [("a", &mut ac), ("b", &mut bc)] {
        let rows = client.publish_batch(&events, &wl.schema).unwrap();
        for (seq, row) in &rows {
            assert_eq!(row, &expect[*seq as usize], "{who} event {seq}");
        }
    }

    ac.quit().unwrap();
    bc.quit().unwrap();
    a.shutdown();
    b.shutdown();
}

#[test]
fn promote_demote_round_trip_swaps_roles() {
    let wl = WorkloadSpec::new(30).seed(0xf11b).build();
    let (a, mut ac) = start(&wl.schema, persisted_config(&tmpdir("swap_a")));
    for sub in &wl.subs[..20] {
        ac.subscribe(sub, &wl.schema).unwrap();
    }
    let (b, mut bc) = start(
        &wl.schema,
        replica_config(&tmpdir("swap_b"), &a.local_addr().to_string()),
    );
    wait_until("b catches up", Duration::from_secs(10), || {
        b.current_seq() == a.current_seq()
    });

    // Promote B: it starts accepting churn immediately.
    let seq = bc.promote().unwrap();
    assert_eq!(seq, a.current_seq());
    assert!(matches!(b.role(), Role::Primary));
    for sub in &wl.subs[20..] {
        bc.subscribe(sub, &wl.schema).unwrap();
    }
    assert_eq!(b.engine().len(), 30);

    // Demote A under B: it refuses churn and pulls B's extra churn over
    // the log tail (its from_seq sits inside B's retained log).
    ac.demote(&b.local_addr().to_string()).unwrap();
    assert!(matches!(a.role(), Role::Replica { .. }));
    wait_until("a follows b", Duration::from_secs(10), || {
        a.current_seq() == b.current_seq()
    });
    assert_eq!(a.engine().len(), 30);
    assert_eq!(ServerStats::get(&a.stats().repl_bootstraps), 0);
    ac.set_churn_retry(0, Duration::ZERO);
    let err = ac.subscribe(&wl.subs[0], &wl.schema).unwrap_err();
    assert!(err.to_string().contains("read-only replica"), "{err}");

    // Role reports agree with the flip.
    let report = bc.role().unwrap();
    assert!(report.primary);
    assert_eq!(report.connected, 1); // one follower: A
    let report = ac.role().unwrap();
    assert!(!report.primary);
    assert_eq!(report.following, Some(b.local_addr().to_string()));

    // Promote is idempotent: the second command is a no-op, not a recount.
    bc.promote().unwrap();
    assert_eq!(ServerStats::get(&b.stats().promotions), 1);

    ac.quit().unwrap();
    bc.quit().unwrap();
    a.shutdown();
    b.shutdown();
}

/// A hand-rolled "primary" that serves scripted `REPLICATE` responses, so
/// the follower's CRC handling can be probed with byte-exact streams.
fn scripted_primary(
    schema: Schema,
    subs: Vec<Subscription>,
) -> (String, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || {
        let mut serving = 0usize;
        // Conn 1: one corrupt frame — the follower must drop the stream.
        // Conn 2: the good frames, then hold the stream open briefly.
        while serving < 2 {
            let Ok((stream, _)) = listener.accept() else {
                return;
            };
            serving += 1;
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.starts_with("REPLICATE "), "{line}");
            let mut w = stream.try_clone().unwrap();
            if serving == 1 {
                let good = render_frame(1, &ChurnOp::Sub(&subs[0]), &schema);
                // Flip a CRC nibble: framed, parseable shape, bad checksum.
                let corrupt = match good.strip_prefix('0') {
                    Some(rest) => format!("1{rest}"),
                    None => format!("0{}", &good[1..]),
                };
                w.write_all(format!("+OK replicate log 1\n{corrupt}\n").as_bytes())
                    .unwrap();
                // Follower aborts; wait for its EOF.
                let mut rest = String::new();
                while reader.read_line(&mut rest).map(|n| n > 0).unwrap_or(false) {
                    rest.clear();
                }
            } else {
                let mut body = format!("+OK replicate log {}\n", subs.len());
                for (i, sub) in subs.iter().enumerate() {
                    body.push_str(&render_frame(1 + i as u64, &ChurnOp::Sub(sub), &schema));
                    body.push('\n');
                }
                w.write_all(body.as_bytes()).unwrap();
                std::thread::sleep(Duration::from_millis(400));
            }
        }
    });
    (addr, handle)
}

#[test]
fn crc_bad_streamed_record_is_counted_and_never_applied() {
    let wl = WorkloadSpec::new(4).seed(0xcbad).build();
    let (addr, fake) = scripted_primary(wl.schema.clone(), wl.subs.clone());

    let (replica, rc) = start(&wl.schema, replica_config(&tmpdir("crc_r"), &addr));
    wait_until("good frames applied", Duration::from_secs(10), || {
        replica.current_seq() == wl.subs.len() as u64
    });
    // The corrupt record was counted, never applied, and the reconnect
    // refetched the same sequence cleanly.
    assert!(ServerStats::get(&replica.stats().repl_crc_skipped) >= 1);
    assert!(ServerStats::get(&replica.stats().repl_reconnects) >= 1);
    assert_eq!(replica.engine().len(), wl.subs.len());

    drop(rc);
    replica.shutdown();
    fake.join().unwrap();
}

/// A scripted primary that answers `REPLICATE` with a colstore bootstrap:
/// conn 1 ships a block whose CRC is wrong — the follower must drop the
/// stream and apply **nothing** — and conn 2 ships the same blocks intact.
fn scripted_colstore_primary(
    schema: Schema,
    subs: Vec<Subscription>,
) -> (String, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || {
        let rows: Vec<apcm_colstore::Row> = subs
            .iter()
            .map(|s| apcm_colstore::Row {
                id: u64::from(s.id().0),
                atoms: s
                    .predicates()
                    .iter()
                    .map(|p| p.display(&schema).to_string())
                    .collect(),
            })
            .collect();
        let blocks: Vec<apcm_colstore::CompressedBlock> =
            apcm_colstore::prepare_partition(0, &rows, apcm_colstore::DEFAULT_BLOCK_ROWS)
                .unwrap()
                .into_iter()
                .map(apcm_colstore::compress_block)
                .collect();
        let header = format!(
            "+OK replicate colstore {} {} {}\n",
            blocks.len(),
            subs.len(),
            subs.len()
        );
        let block_line = |b: &apcm_colstore::CompressedBlock, crc: u32| {
            format!(
                "BLOCK {} {} {} {crc:08x} {}\n",
                b.partition,
                b.rows,
                b.raw_len,
                apcm_colstore::b64::encode(&b.data)
            )
        };
        let mut serving = 0usize;
        while serving < 2 {
            let Ok((stream, _)) = listener.accept() else {
                return;
            };
            serving += 1;
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.starts_with("REPLICATE "), "{line}");
            let mut w = stream.try_clone().unwrap();
            if serving == 1 {
                // Framed, parseable, wrong checksum: the follower must
                // refuse the whole bootstrap, not skip one block.
                let body = format!("{header}{}", block_line(&blocks[0], blocks[0].crc ^ 1));
                w.write_all(body.as_bytes()).unwrap();
                // Follower aborts; wait for its EOF.
                let mut rest = String::new();
                while reader.read_line(&mut rest).map(|n| n > 0).unwrap_or(false) {
                    rest.clear();
                }
            } else {
                let mut body = header.clone();
                for b in &blocks {
                    body.push_str(&block_line(b, b.crc));
                }
                w.write_all(body.as_bytes()).unwrap();
                std::thread::sleep(Duration::from_millis(400));
            }
        }
    });
    (addr, handle)
}

#[test]
fn corrupt_colstore_block_forces_clean_refetch() {
    let wl = WorkloadSpec::new(6).seed(0xcb10).build();
    let (addr, fake) = scripted_colstore_primary(wl.schema.clone(), wl.subs.clone());

    let (replica, rc) = start(&wl.schema, replica_config(&tmpdir("colcrc_r"), &addr));
    // The bootstrap counter lives in the wait condition: the swap sets
    // `current_seq` before the puller bumps `repl_bootstraps`.
    wait_until(
        "colstore bootstrap applied",
        Duration::from_secs(10),
        || {
            replica.current_seq() == wl.subs.len() as u64
                && ServerStats::get(&replica.stats().repl_bootstraps) == 1
        },
    );
    // The corrupt block killed the whole first bootstrap: nothing from it
    // was applied, and the reconnect refetched every block.
    assert!(ServerStats::get(&replica.stats().repl_crc_skipped) >= 1);
    assert!(ServerStats::get(&replica.stats().repl_reconnects) >= 1);
    assert_eq!(replica.engine().len(), wl.subs.len());

    drop(rc);
    replica.shutdown();
    fake.join().unwrap();
}

/// Ten frames shipped in one burst land in the follower's read buffer
/// together, so the drain-boundary ack logic must coalesce — `REPLACK`
/// once per drained run (capped by `repl_ack_every`), not once per
/// record.
#[test]
fn burst_of_frames_is_acked_pipelined() {
    let wl = WorkloadSpec::new(10).seed(0x9191).build();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let schema = wl.schema.clone();
    let subs = wl.subs.clone();
    let fake = std::thread::spawn(move || {
        let Ok((stream, _)) = listener.accept() else {
            return;
        };
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("REPLICATE "), "{line}");
        // The whole backlog in one write: header plus all ten frames.
        let mut body = format!("+OK replicate log {}\n", subs.len());
        for (i, sub) in subs.iter().enumerate() {
            body.push_str(&render_frame(1 + i as u64, &ChurnOp::Sub(sub), &schema));
            body.push('\n');
        }
        stream
            .try_clone()
            .unwrap()
            .write_all(body.as_bytes())
            .unwrap();
        // Drain acks until the head is covered, then hang up.
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => return,
                Ok(_) => {
                    if line.trim() == format!("REPLACK {}", subs.len()) {
                        std::thread::sleep(Duration::from_millis(200));
                        return;
                    }
                }
            }
        }
    });

    let (replica, rc) = start(&wl.schema, replica_config(&tmpdir("pipe_r"), &addr));
    wait_until("burst applied", Duration::from_secs(10), || {
        replica.current_seq() == wl.subs.len() as u64
    });
    // repl_ack_every is 4: a fully buffered ten-frame burst acks at 4, 8
    // and the drain boundary — each line covering several records.
    assert!(
        ServerStats::get(&replica.stats().replacks_pipelined) >= 1,
        "expected at least one coalesced ack"
    );
    assert_eq!(replica.engine().len(), wl.subs.len());

    drop(rc);
    replica.shutdown();
    fake.join().unwrap();
}

/// The `repl.ack.delay` failpoint: `Error` swallows `REPLACK` lines at
/// the primary and `Stall` holds its handler — either way replication
/// itself keeps applying, and the acked horizon heals once the failpoint
/// drains (the follower's idle keepalive re-sends its cursor).
#[test]
fn ack_delay_failpoint_delays_acked_horizon_not_replication() {
    let _guard = lock();
    failpoint::reset();
    let wl = WorkloadSpec::new(30).seed(0xacde).build();
    let (primary, mut pc) = start(&wl.schema, persisted_config(&tmpdir("ackd_p")));
    for sub in &wl.subs[..10] {
        pc.subscribe(sub, &wl.schema).unwrap();
    }
    let (replica, _rc) = start(
        &wl.schema,
        replica_config(&tmpdir("ackd_r"), &primary.local_addr().to_string()),
    );
    wait_until("baseline catch-up", Duration::from_secs(10), || {
        replica.current_seq() == primary.current_seq()
    });
    wait_until("baseline acked", Duration::from_secs(10), || {
        pc.role().map(|r| r.acked == 10).unwrap_or(false)
    });

    // Drop the next acks: the follower still applies everything.
    failpoint::arm("repl.ack.delay", FailAction::Error, Some(3));
    for sub in &wl.subs[10..20] {
        pc.subscribe(sub, &wl.schema).unwrap();
    }
    wait_until(
        "applies despite dropped acks",
        Duration::from_secs(10),
        || replica.current_seq() == primary.current_seq(),
    );
    wait_until("acked horizon heals", Duration::from_secs(10), || {
        pc.role().map(|r| r.acked == 20).unwrap_or(false)
    });

    // Stall: the ack handler sleeps, nothing is lost.
    failpoint::arm("repl.ack.delay", FailAction::Stall(30), Some(2));
    for sub in &wl.subs[20..] {
        pc.subscribe(sub, &wl.schema).unwrap();
    }
    wait_until(
        "applies through stalled acks",
        Duration::from_secs(10),
        || {
            replica.current_seq() == primary.current_seq()
                && pc.role().map(|r| r.acked == 30).unwrap_or(false)
        },
    );
    failpoint::reset();

    pc.quit().unwrap();
    replica.shutdown();
    primary.shutdown();
}

#[test]
fn stream_faults_heal_by_reconnect() {
    let _guard = lock();
    let wl = WorkloadSpec::new(80).seed(0xfa17).build();
    let (primary, mut pc) = start(&wl.schema, persisted_config(&tmpdir("fault_p")));
    for sub in &wl.subs[..10] {
        pc.subscribe(sub, &wl.schema).unwrap();
    }
    let (replica, _rc) = start(
        &wl.schema,
        replica_config(&tmpdir("fault_r"), &primary.local_addr().to_string()),
    );
    wait_until("baseline catch-up", Duration::from_secs(10), || {
        replica.current_seq() == primary.current_seq()
    });

    failpoint::reset();
    // Interleave churn with injected stream faults: a full drop, a torn
    // frame (prefix shipped, then cut), and a stall. Acked churn must
    // survive all of them via reconnect + log-tail catch-up.
    failpoint::arm("repl.stream.send", FailAction::Error, Some(1));
    for sub in &wl.subs[10..30] {
        pc.subscribe(sub, &wl.schema).unwrap();
    }
    wait_until("drop healed", Duration::from_secs(10), || {
        replica.current_seq() == primary.current_seq()
    });

    failpoint::arm("repl.stream.send", FailAction::TornWrite(5), Some(1));
    for sub in &wl.subs[30..55] {
        pc.subscribe(sub, &wl.schema).unwrap();
    }
    wait_until("torn frame healed", Duration::from_secs(10), || {
        replica.current_seq() == primary.current_seq()
    });

    failpoint::arm("repl.stream.send", FailAction::Stall(40), Some(2));
    for sub in &wl.subs[55..] {
        pc.subscribe(sub, &wl.schema).unwrap();
    }
    wait_until("stall drained", Duration::from_secs(10), || {
        replica.current_seq() == primary.current_seq()
    });
    failpoint::reset();

    assert_eq!(replica.engine().len(), 80);
    assert!(ServerStats::get(&replica.stats().repl_reconnects) >= 2);

    // Byte-level check: the follower's log is a verbatim mirror.
    let events = wl.events(40);
    let live: Vec<&Subscription> = wl.subs.iter().collect();
    let expect = oracle_rows(&live, &events);
    let mut rc = BrokerClient::connect(&replica.local_addr().to_string()).unwrap();
    let rows = rc.publish_batch(&events, &wl.schema).unwrap();
    for (seq, row) in &rows {
        assert_eq!(row, &expect[*seq as usize], "event {seq}");
    }

    rc.quit().unwrap();
    pc.quit().unwrap();
    replica.shutdown();
    primary.shutdown();
}
