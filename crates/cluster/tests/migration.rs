//! Elastic resharding drills: live partition migration behind the router.
//!
//! * scale-out (`RESHARD ADD`) onto a fresh backend pair while a
//!   background publisher hammers windows and the foreground churns:
//!   nothing partial, the final rows are byte-identical to a
//!   single-process oracle, and the moved share is bounded by the ring's
//!   2/N guarantee;
//! * scale-in (`RESHARD REMOVE`) drains a partition onto the survivors
//!   and drops it from the table with the same guarantees;
//! * a seeded chaos drill interleaves migrations with kills of the
//!   current leg's donor or puller primary — the controller re-aims the
//!   pull at promoted standbys and every acked churn op survives.
//!
//! All tests serialize on [`lock`]: clusters are heavyweight and the
//! failpoint registry (unused here, but shared) is process-global.

use apcm_bexpr::{Event, SubId, Subscription};
use apcm_cluster::{ClusterHandle, RouterConfig};
use apcm_server::client::ConnectOptions;
use apcm_server::protocol::render_result;
use apcm_server::{BrokerClient, PersistConfig, Ring, ServerConfig};
use apcm_workload::WorkloadSpec;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

static SERIAL: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("apcm-reshard-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn node_config(dir: &Path) -> ServerConfig {
    ServerConfig {
        shards: 2,
        window: 32,
        flush_interval: Duration::from_millis(2),
        maintenance_interval: Duration::from_millis(50),
        repl_ack_every: 2,
        persist: Some(PersistConfig {
            snapshot_interval: None,
            retry_backoff: Duration::from_millis(20),
            ..PersistConfig::new(dir)
        }),
        ..ServerConfig::default()
    }
}

fn router_config() -> RouterConfig {
    RouterConfig {
        health_interval: Duration::from_millis(25),
        probe_timeout: Duration::from_millis(500),
        connect: ConnectOptions {
            connect_timeout: Some(Duration::from_millis(500)),
            read_timeout: Some(Duration::from_secs(10)),
            attempts: 1,
            backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(100),
            ..ConnectOptions::default()
        },
        ..RouterConfig::default()
    }
}

/// A replicated cluster of `n` partitions with persist dirs under `dir`.
fn replicated_cluster(schema: &apcm_bexpr::Schema, dir: &Path, n: usize) -> ClusterHandle {
    let pairs = (0..n)
        .map(|i| {
            (
                node_config(&dir.join(format!("p{i}-primary"))),
                Some(node_config(&dir.join(format!("p{i}-replica")))),
            )
        })
        .collect();
    ClusterHandle::start_replicated(schema.clone(), pairs, router_config()).unwrap()
}

fn connect(addr: &str) -> BrokerClient {
    let mut client = BrokerClient::connect(addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // Churn issued across a failover or ownership flip must ride the
    // retry loop (`-ERR backend ... unavailable` / `-ERR not owner`).
    client.set_churn_retry(120, Duration::from_millis(25));
    client
}

fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(15));
    }
    panic!("timed out waiting for {what}");
}

/// Brute-force oracle rows over the live set, sorted ascending.
fn oracle_rows(subs: &[&Subscription], events: &[Event]) -> Vec<Vec<SubId>> {
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

/// Publishes a window through the router and asserts every merged row is
/// byte-identical to the oracle over `live` and never flagged partial.
fn assert_window_matches(
    client: &mut BrokerClient,
    wl: &apcm_workload::Workload,
    live: &[&Subscription],
    n_events: usize,
    context: &str,
) {
    let events = wl.events(n_events);
    let results = client.publish_batch_flagged(&events, &wl.schema).unwrap();
    assert_eq!(results.len(), events.len(), "{context}");
    let expect = oracle_rows(live, &events);
    let base = *results.keys().next().unwrap();
    for (seq, (row, partial)) in &results {
        let i = (seq - base) as usize;
        if *partial {
            let topology = client.topology().unwrap();
            panic!("{context}: event {i} flagged partial\ntopology: {topology:#?}");
        }
        assert_eq!(
            render_result(*seq, row),
            render_result(*seq, &expect[i]),
            "{context}: event {i}"
        );
    }
}

/// The up-and-primary node index of `partition` per `TOPOLOGY`, if
/// exactly one node qualifies.
fn reported_primary(
    client: &mut BrokerClient,
    cluster: &ClusterHandle,
    partition: usize,
) -> Option<usize> {
    let prefix = format!("backend {partition} ");
    let primaries: Vec<String> = client
        .topology()
        .unwrap()
        .iter()
        .filter(|l| l.starts_with(&prefix) && l.contains(" up ") && l.contains("role=primary"))
        .filter_map(|l| l.split_whitespace().nth(2).map(str::to_string))
        .collect();
    if primaries.len() != 1 {
        return None;
    }
    (0..cluster.node_count(partition)).find(|&n| cluster.node_addr(partition, n) == primaries[0])
}

/// Waits until `partition` has both nodes running and up, exactly one
/// primary, and a caught-up replica; returns the primary's node index.
fn wait_settled(client: &mut BrokerClient, cluster: &ClusterHandle, partition: usize) -> usize {
    let mut primary = 0;
    wait_until(&format!("partition {partition} to settle"), || {
        let synced = match (cluster.node(partition, 0), cluster.node(partition, 1)) {
            (Some(a), Some(b)) => a.current_seq() == b.current_seq(),
            _ => false,
        };
        if !synced {
            return false;
        }
        match reported_primary(client, cluster, partition) {
            Some(n) => {
                primary = n;
                true
            }
            None => false,
        }
    });
    primary
}

/// `(donor, puller)` of the current leg, from the router's status line
/// (`+OK reshard add 2 leg 1/2 donor 0 puller 2 phase catch-up`).
fn current_leg(status: &str) -> Option<(usize, usize)> {
    let mut tokens = status.split_whitespace();
    let mut donor = None;
    let mut puller = None;
    while let Some(t) = tokens.next() {
        match t {
            "donor" => donor = tokens.next().and_then(|v| v.parse().ok()),
            "puller" => puller = tokens.next().and_then(|v| v.parse().ok()),
            _ => {}
        }
    }
    donor.zip(puller)
}

/// Scale-out 2 → 3 under concurrent publishing and foreground churn.
#[test]
fn scale_out_moves_bounded_share_and_loses_no_churn() {
    let _guard = lock();
    let wl = WorkloadSpec::new(140).seed(0xE1A5).build();
    let dir = tmpdir("scale-out");
    let mut cluster = replicated_cluster(&wl.schema, &dir, 2);
    let mut client = connect(&cluster.router_addr());

    let mut live = vec![false; wl.subs.len()];
    for (i, sub) in wl.subs.iter().enumerate().take(100) {
        client.subscribe(sub, &wl.schema).unwrap();
        live[i] = true;
    }

    // Background publisher: windows must keep flowing, never partial,
    // through every phase of the migration. Row contents are asserted by
    // the foreground oracle checks; this thread pins availability.
    let stop = AtomicBool::new(false);
    let addr = cluster.router_addr();
    std::thread::scope(|scope| {
        // An assert firing mid-scope must still release the publisher, or
        // the scope join would hang forever and swallow the panic.
        let _stop_on_unwind = StopOnDrop(&stop);
        let publisher = scope.spawn(|| {
            let mut pub_client = connect(&addr);
            let mut windows = 0u64;
            while !stop.load(Ordering::SeqCst) {
                let events = wl.events(8);
                let results = pub_client
                    .publish_batch_flagged(&events, &wl.schema)
                    .unwrap();
                for (seq, (_, partial)) in &results {
                    assert!(
                        !partial,
                        "window at seq {seq} flagged partial mid-migration"
                    );
                }
                windows += 1;
                std::thread::sleep(Duration::from_millis(5));
            }
            windows
        });

        let primary = node_config(&dir.join("p2-primary"));
        let replica = node_config(&dir.join("p2-replica"));
        let slot = cluster.add_backend_pair(primary, Some(replica)).unwrap();
        assert_eq!(slot, 2);
        let ack = client
            .reshard_add(cluster.node_addr(slot, 0), Some(cluster.node_addr(slot, 1)))
            .unwrap();
        assert!(ack.contains("partition 2"), "{ack}");

        // Churn straight through the migration.
        let mut rng = StdRng::seed_from_u64(0xE1A5_0001);
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let status = client.reshard_status().unwrap();
            if status == "OK reshard idle" {
                break;
            }
            assert!(Instant::now() < deadline, "migration stuck: {status}");
            for (i, sub) in wl.subs.iter().enumerate() {
                if !live[i] && rng.gen_bool(0.02) {
                    client.subscribe(sub, &wl.schema).unwrap();
                    live[i] = true;
                } else if live[i] && rng.gen_bool(0.02) {
                    client.unsubscribe(sub.id()).unwrap();
                    live[i] = false;
                }
            }
            std::thread::sleep(Duration::from_millis(5));
        }

        stop.store(true, Ordering::SeqCst);
        let windows = publisher.join().expect("publisher thread");
        assert!(windows > 0, "publisher never got a window through");
    });

    // The ring contract bounds the moved share: ids re-placed by the
    // 2 → 3 transition all land on the new member, and over this
    // workload's id set the fraction respects the ≤ 2/(n+1) vnode bound.
    let old_ring = Ring::new(&[0, 1]);
    let new_ring = Ring::new(&[0, 1, 2]);
    let ids: Vec<SubId> = wl.subs.iter().map(|s| s.id()).collect();
    let moved: Vec<SubId> = ids
        .iter()
        .copied()
        .filter(|&id| old_ring.route(id) != new_ring.route(id))
        .collect();
    assert!(!moved.is_empty(), "a 2→3 reshard must move something");
    for &id in &moved {
        assert_eq!(new_ring.route(id), 2, "moved ids land on the joiner only");
    }
    assert!(
        moved.len() * 3 <= ids.len() * 2,
        "moved {} of {} ids: beyond the 2/N bound",
        moved.len(),
        ids.len()
    );

    // Every acked churn op survived: merged rows are byte-identical to
    // the oracle over the model's live set, with the joiner serving.
    let live_subs: Vec<&Subscription> = wl
        .subs
        .iter()
        .enumerate()
        .filter(|(i, _)| live[*i])
        .map(|(_, s)| s)
        .collect();
    assert_window_matches(&mut client, &wl, &live_subs, 40, "post-scale-out window");

    let stats = client.stats().unwrap();
    assert_eq!(stats["backends"], 3);
    assert_eq!(stats["reshards_started"], 1);
    assert_eq!(stats["reshards_completed"], 1);
    assert!(stats["reshard_flips"] >= 1);
    assert_eq!(stats["cluster_degraded"], 0);
    assert_eq!(stats["nodes"], 6);

    client.quit().unwrap();
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Scale-in 3 → 2: the drained partition leaves the table and its share
/// survives on the survivors.
#[test]
fn scale_in_drains_partition_and_loses_no_churn() {
    let _guard = lock();
    let wl = WorkloadSpec::new(120).seed(0xE1A6).build();
    let dir = tmpdir("scale-in");
    let cluster = replicated_cluster(&wl.schema, &dir, 3);
    let mut client = connect(&cluster.router_addr());

    let mut live = vec![false; wl.subs.len()];
    for (i, sub) in wl.subs.iter().enumerate().take(90) {
        client.subscribe(sub, &wl.schema).unwrap();
        live[i] = true;
    }
    // The leaving partition must actually hold some of these.
    let ring = Ring::new(&[0, 1, 2]);
    assert!(wl.subs[..90].iter().any(|s| ring.route(s.id()) == 2));

    let ack = client.reshard_remove(2).unwrap();
    assert!(ack.contains("partition 2"), "{ack}");

    let mut rng = StdRng::seed_from_u64(0xE1A6_0001);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let status = client.reshard_status().unwrap();
        if status == "OK reshard idle" {
            break;
        }
        assert!(Instant::now() < deadline, "migration stuck: {status}");
        for (i, sub) in wl.subs.iter().enumerate() {
            if !live[i] && rng.gen_bool(0.02) {
                client.subscribe(sub, &wl.schema).unwrap();
                live[i] = true;
            } else if live[i] && rng.gen_bool(0.02) {
                client.unsubscribe(sub.id()).unwrap();
                live[i] = false;
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    let live_subs: Vec<&Subscription> = wl
        .subs
        .iter()
        .enumerate()
        .filter(|(i, _)| live[*i])
        .map(|(_, s)| s)
        .collect();
    assert_window_matches(&mut client, &wl, &live_subs, 40, "post-scale-in window");

    let stats = client.stats().unwrap();
    assert_eq!(stats["backends"], 2);
    assert_eq!(stats["reshards_completed"], 1);
    assert_eq!(stats["cluster_degraded"], 0);
    let topology = client.topology().unwrap();
    assert!(
        topology.iter().all(|l| !l.starts_with("backend 2 ")),
        "drained partition still in topology: {topology:#?}"
    );

    client.quit().unwrap();
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Seeded chaos drill: alternating scale-out and scale-in migrations,
/// each with the current leg's donor or puller primary killed mid-flight.
/// The sweep promotes the standby, the controller re-aims the pull, and
/// every acked churn op must survive to a byte-identical oracle row.
#[test]
fn migration_chaos_survives_donor_and_puller_kills() {
    let _guard = lock();
    const ROUNDS: usize = 4;
    let wl = WorkloadSpec::new(120).seed(0xC4A0).build();
    let dir = tmpdir("chaos");
    let mut cluster = replicated_cluster(&wl.schema, &dir, 2);
    let mut client = connect(&cluster.router_addr());
    let mut rng = StdRng::seed_from_u64(0xC4A0_C4A0);

    let mut live = vec![false; wl.subs.len()];
    for (i, sub) in wl.subs.iter().enumerate().take(80) {
        client.subscribe(sub, &wl.schema).unwrap();
        live[i] = true;
    }

    // Member index of the partition added by the most recent scale-out
    // (ring member ids are never reused, so this climbs: 2, 3, ...).
    let mut extra: Option<usize> = None;

    for round in 0..ROUNDS {
        let context = format!("round {round}");
        match extra {
            None => {
                let primary = node_config(&dir.join(format!("r{round}-primary")));
                let replica = node_config(&dir.join(format!("r{round}-replica")));
                let slot = cluster.add_backend_pair(primary, Some(replica)).unwrap();
                client
                    .reshard_add(cluster.node_addr(slot, 0), Some(cluster.node_addr(slot, 1)))
                    .unwrap();
                extra = Some(slot);
            }
            Some(slot) => {
                client.reshard_remove(slot as u32).unwrap();
                extra = None;
            }
        }

        // Let the migration get going, then kill the current leg's donor
        // or puller primary (seeded choice) mid-flight.
        std::thread::sleep(Duration::from_millis(rng.gen_range(30..120)));
        let mut killed: Option<(usize, usize)> = None;
        let status = client.reshard_status().unwrap();
        if let Some((donor, puller)) = current_leg(&status) {
            let victim_partition = if rng.gen_bool(0.5) { donor } else { puller };
            if let Some(node) = reported_primary(&mut client, &cluster, victim_partition) {
                cluster.kill_node(victim_partition, node);
                killed = Some((victim_partition, node));
            }
        }
        eprintln!("{context}: status at kill: {status:?}, killed {killed:?}");

        // Churn straight through the healing migration.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let status = client.reshard_status().unwrap();
            if status == "OK reshard idle" {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "{context}: migration stuck: {status} (killed {killed:?})"
            );
            for (i, sub) in wl.subs.iter().enumerate() {
                if !live[i] && rng.gen_bool(0.02) {
                    client.subscribe(sub, &wl.schema).unwrap();
                    live[i] = true;
                } else if live[i] && rng.gen_bool(0.02) {
                    if let Err(e) = client.unsubscribe(sub.id()) {
                        let status = client.reshard_status();
                        let topology = client.topology();
                        panic!(
                            "{context}: UNSUB {} failed: {e}\nkilled {killed:?}\n\
                             status {status:?}\ntopology {topology:#?}",
                            sub.id().0
                        );
                    }
                    live[i] = false;
                }
            }
            std::thread::sleep(Duration::from_millis(5));
        }

        // Heal the casualty. If the migration just removed its partition
        // from the cluster, the restart only brings the detached server
        // back for bookkeeping — the router no longer probes it, so there
        // is nothing to settle.
        if let Some((partition, node)) = killed.take() {
            cluster.restart_node(partition, node).unwrap();
            if member_in_topology(&mut client, partition) {
                wait_settled(&mut client, &cluster, partition);
            }
        }

        let live_subs: Vec<&Subscription> = wl
            .subs
            .iter()
            .enumerate()
            .filter(|(i, _)| live[*i])
            .map(|(_, s)| s)
            .collect();
        assert_window_matches(&mut client, &wl, &live_subs, 16 + round, &context);
        let stats = client.stats().unwrap();
        assert_eq!(stats["reshards_completed"], (round + 1) as u64, "{context}");
        assert_eq!(stats["cluster_degraded"], 0, "{context}");
    }

    let stats = client.stats().unwrap();
    assert_eq!(stats["backends"], 2);
    assert_eq!(stats["reshards_started"], ROUNDS as u64);
    assert!(stats["reshard_flips"] >= ROUNDS as u64);

    client.quit().unwrap();
    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sets the publisher stop flag on drop, so a panicking test body cannot
/// leave the background publisher spinning inside `thread::scope`.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// Whether `TOPOLOGY` still lists partition `member`.
fn member_in_topology(client: &mut BrokerClient, member: usize) -> bool {
    let prefix = format!("backend {member} ");
    client
        .topology()
        .unwrap()
        .iter()
        .any(|l| l.starts_with(&prefix))
}
